//! Journal ingest: load a `sellis88-journal/v1` flight-recorder file
//! (see [`obs::journal`]) into ordinary relations, so the query engine
//! can answer time-travel questions about a past run — which
//! instantiation fired at a cycle, what supported it, what working
//! memory looked like just before.
//!
//! This is the paper's own thesis applied to the runtime itself: the
//! DBMS that hosts the production system also hosts its execution
//! history. One relation per record family, `seq` everywhere, so joins
//! against the total event order are ordinary equi/range predicates.

use std::collections::BTreeMap;

use obs::{Event, Journal};

use crate::database::Database;
use crate::error::Result;
use crate::pred::{CompOp, Restriction, Selection};
use crate::schema::{RelId, Schema};
use crate::tuple;
use crate::value::Value;

/// Relation ids of an ingested journal.
#[derive(Debug, Clone, Copy)]
pub struct JournalRels {
    /// `j_event(seq, kind, line)` — every record, with its OPS5-style
    /// watch line. The spine of the total order.
    pub event: RelId,
    /// `j_wm_delta(seq, op, class, class_name, tid, tuple)` — WM
    /// inserts/removes ("insert" / "remove").
    pub wm_delta: RelId,
    /// `j_firing(fseq, seq, round, txn, rule, rule_name, wmes, support)`
    /// — committed firings in serialization (`fseq`) order.
    pub firing: RelId,
    /// `j_conflict(seq, op, rule, rule_name, wmes, support, absent)` —
    /// conflict-set adds/retires with provenance.
    pub conflict: RelId,
    /// `j_txn(seq, op, txn, detail)` — txn begin/commit/abort; `detail`
    /// is the rule name, the write count, or the abort reason.
    pub txn: RelId,
    /// `j_lock(seq, op, txn, target, mode, wait_ns)` — lock waits and
    /// grants ("wait" / "acquire").
    pub lock: RelId,
    /// `j_deadlock(seq, victim, edges)` — waits-for-graph snapshots
    /// taken when a deadlock victim was chosen.
    pub deadlock: RelId,
}

/// Load a parsed journal into `db`, creating the seven `j_*` relations.
///
/// `seq` is stored as `Int`, so the relations inherit relstore's ordered
/// indexes and range predicates; every event lands in `j_event` and the
/// typed families additionally land in their own relation.
pub fn ingest(db: &Database, journal: &Journal) -> Result<JournalRels> {
    let rels = JournalRels {
        event: db.create_relation(Schema::new("j_event", ["seq", "kind", "line"]))?,
        wm_delta: db.create_relation(Schema::new(
            "j_wm_delta",
            ["seq", "op", "class", "class_name", "tid", "tuple"],
        ))?,
        firing: db.create_relation(Schema::new(
            "j_firing",
            [
                "fseq",
                "seq",
                "round",
                "txn",
                "rule",
                "rule_name",
                "wmes",
                "support",
            ],
        ))?,
        conflict: db.create_relation(Schema::new(
            "j_conflict",
            [
                "seq",
                "op",
                "rule",
                "rule_name",
                "wmes",
                "support",
                "absent",
            ],
        ))?,
        txn: db.create_relation(Schema::new("j_txn", ["seq", "op", "txn", "detail"]))?,
        lock: db.create_relation(Schema::new(
            "j_lock",
            ["seq", "op", "txn", "target", "mode", "wait_ns"],
        ))?,
        deadlock: db.create_relation(Schema::new("j_deadlock", ["seq", "victim", "edges"]))?,
    };
    for (seq, event) in &journal.events {
        let seq = *seq as i64;
        db.insert(rels.event, tuple![seq, event.kind(), event.watch_line()])?;
        match event {
            Event::WmInsert {
                class,
                class_name,
                tuple,
                tid,
            } => {
                db.insert(
                    rels.wm_delta,
                    tuple![
                        seq,
                        "insert",
                        *class as i64,
                        class_name.as_str(),
                        *tid as i64,
                        tuple.as_str()
                    ],
                )?;
            }
            Event::WmRemove {
                class,
                class_name,
                tuple,
                tid,
            } => {
                db.insert(
                    rels.wm_delta,
                    tuple![
                        seq,
                        "remove",
                        *class as i64,
                        class_name.as_str(),
                        *tid as i64,
                        tuple.as_str()
                    ],
                )?;
            }
            Event::Firing {
                seq: fseq,
                round,
                txn,
                rule,
                rule_name,
                wmes,
                support,
            } => {
                db.insert(
                    rels.firing,
                    tuple![
                        *fseq as i64,
                        seq,
                        *round as i64,
                        *txn as i64,
                        *rule as i64,
                        rule_name.as_str(),
                        wmes.as_str(),
                        support.as_str()
                    ],
                )?;
            }
            Event::ConflictDelta {
                add,
                rule,
                rule_name,
                wmes,
                support,
                absent,
            } => {
                db.insert(
                    rels.conflict,
                    tuple![
                        seq,
                        if *add { "add" } else { "remove" },
                        *rule as i64,
                        rule_name.as_str(),
                        wmes.as_str(),
                        support.as_str(),
                        absent.as_str()
                    ],
                )?;
            }
            Event::TxnBegin { txn, rule_name, .. } => {
                db.insert(
                    rels.txn,
                    tuple![seq, "begin", *txn as i64, rule_name.as_str()],
                )?;
            }
            Event::TxnCommit { txn, writes } => {
                db.insert(
                    rels.txn,
                    tuple![seq, "commit", *txn as i64, format!("{writes} writes")],
                )?;
            }
            Event::TxnAbort { txn, reason } => {
                db.insert(rels.txn, tuple![seq, "abort", *txn as i64, reason.as_str()])?;
            }
            Event::LockWait { txn, target, mode } => {
                db.insert(
                    rels.lock,
                    tuple![seq, "wait", *txn as i64, target.as_str(), *mode, 0i64],
                )?;
            }
            Event::LockAcquire {
                txn,
                target,
                mode,
                wait_ns,
            } => {
                db.insert(
                    rels.lock,
                    tuple![
                        seq,
                        "acquire",
                        *txn as i64,
                        target.as_str(),
                        *mode,
                        *wait_ns as i64
                    ],
                )?;
            }
            Event::DeadlockGraph { victim, edges } => {
                db.insert(rels.deadlock, tuple![seq, *victim as i64, edges.as_str()])?;
            }
            _ => {}
        }
    }
    Ok(rels)
}

/// Working memory as of just before journal sequence number `seq`,
/// reconstructed by a range query over the ingested `j_wm_delta`
/// relation: multiset counts keyed by `(class, tuple_text)`, zero
/// counts dropped.
///
/// Equivalent to [`obs::Journal::wm_before`], but computed inside the
/// DBMS — the form `--why-not` uses so the answer demonstrably comes
/// from the journal relations.
pub fn wm_as_of(
    db: &Database,
    rels: &JournalRels,
    seq: u64,
) -> Result<BTreeMap<(i64, String), i64>> {
    let deltas = db.select(
        rels.wm_delta,
        &Restriction::new(vec![Selection::new(0, CompOp::Lt, seq as i64)]),
    )?;
    let mut wm: BTreeMap<(i64, String), i64> = BTreeMap::new();
    for (_, t) in deltas {
        let v = t.values();
        let class = match &v[2] {
            Value::Int(n) => *n,
            _ => 0,
        };
        let text = match &v[5] {
            Value::Str(s) => s.to_string(),
            _ => String::new(),
        };
        let insert = matches!(&v[1], Value::Str(s) if s.as_ref() == "insert");
        *wm.entry((class, text)).or_insert(0) += if insert { 1 } else { -1 };
    }
    wm.retain(|_, n| *n != 0);
    Ok(wm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{JournalMeta, LoadOp, LoadValue};

    fn meta() -> JournalMeta {
        JournalMeta {
            engine: "query".into(),
            mode: "concurrent".into(),
            workers: 2,
            strategy: "canonical".into(),
            max_fired: 100,
            program: "(literalize A x)".into(),
            load: vec![LoadOp {
                insert: true,
                class: 0,
                values: vec![LoadValue::Int(1)],
            }],
        }
    }

    fn sample_journal() -> Journal {
        Journal {
            meta: meta(),
            events: vec![
                (
                    0,
                    Event::WmInsert {
                        class: 0,
                        class_name: "A".into(),
                        tuple: " ^x 1".into(),
                        tid: 77,
                    },
                ),
                (
                    1,
                    Event::ConflictDelta {
                        add: true,
                        rule: 0,
                        rule_name: "R".into(),
                        wmes: "(A ^x 1)".into(),
                        support: "t0.1".into(),
                        absent: String::new(),
                    },
                ),
                (
                    2,
                    Event::TxnBegin {
                        txn: 1,
                        rule: 0,
                        rule_name: "R".into(),
                    },
                ),
                (
                    3,
                    Event::LockAcquire {
                        txn: 1,
                        target: "rel0[t0.1]".into(),
                        mode: "shared",
                        wait_ns: 0,
                    },
                ),
                (
                    4,
                    Event::Firing {
                        seq: 0,
                        round: 1,
                        txn: 1,
                        rule: 0,
                        rule_name: "R".into(),
                        wmes: "(A ^x 1)".into(),
                        support: "t0.1".into(),
                    },
                ),
                (
                    5,
                    Event::WmRemove {
                        class: 0,
                        class_name: "A".into(),
                        tuple: " ^x 1".into(),
                        tid: 77,
                    },
                ),
                (6, Event::TxnCommit { txn: 1, writes: 1 }),
                (
                    7,
                    Event::DeadlockGraph {
                        victim: 2,
                        edges: "t2->t1 exclusive rel0[t0.1]".into(),
                    },
                ),
            ],
        }
    }

    #[test]
    fn ingest_populates_typed_relations() {
        let db = Database::new();
        let rels = ingest(&db, &sample_journal()).unwrap();
        let all = |rel| db.select(rel, &Restriction::default()).unwrap().len();
        assert_eq!(all(rels.event), 8, "every record lands in j_event");
        assert_eq!(all(rels.wm_delta), 2);
        assert_eq!(all(rels.firing), 1);
        assert_eq!(all(rels.conflict), 1);
        assert_eq!(all(rels.txn), 2, "begin + commit");
        assert_eq!(all(rels.lock), 1);
        assert_eq!(all(rels.deadlock), 1);
        // Firings are queryable by name via ordinary predicates.
        let firings = db
            .select(
                rels.firing,
                &Restriction::new(vec![Selection::new(5, CompOp::Eq, "R")]),
            )
            .unwrap();
        assert_eq!(firings.len(), 1);
        assert!(matches!(&firings[0].1.values()[7], Value::Str(s) if s.as_ref() == "t0.1"));
    }

    #[test]
    fn wm_as_of_is_a_range_query() {
        let db = Database::new();
        let rels = ingest(&db, &sample_journal()).unwrap();
        // Before the remove at seq 5 the tuple is present…
        let wm = wm_as_of(&db, &rels, 5).unwrap();
        assert_eq!(wm.get(&(0, " ^x 1".to_string())), Some(&1));
        // …after it, working memory is empty again.
        let wm = wm_as_of(&db, &rels, u64::MAX).unwrap();
        assert!(wm.is_empty());
    }
}
