//! Journal ingest: load a `sellis88-journal/v1` flight-recorder file
//! (see [`obs::journal`]) into ordinary relations, so the query engine
//! can answer time-travel questions about a past run — which
//! instantiation fired at a cycle, what supported it, what working
//! memory looked like just before.
//!
//! This is the paper's own thesis applied to the runtime itself: the
//! DBMS that hosts the production system also hosts its execution
//! history. The relations follow from the event table
//! ([`obs::Event::KINDS`]) by one rule: `j_event(seq, kind, line)` holds
//! every record, and each kind gets `j_<kind>(seq, <its JSON keys in
//! table order>)`. `seq` is everywhere, so joins against the total event
//! order are ordinary equi/range predicates.

use std::collections::BTreeMap;

use obs::event::Wire;
use obs::{Event, Journal};

use crate::database::Database;
use crate::error::{Error, Result};
use crate::pred::{CompOp, Restriction, Selection};
use crate::schema::{RelId, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Relation ids of an ingested journal.
#[derive(Debug, Clone)]
pub struct JournalRels {
    /// `j_event(seq, kind, line)` — every record, with its OPS5-style
    /// watch line. The spine of the total order.
    pub event: RelId,
    kinds: BTreeMap<&'static str, RelId>,
}

impl JournalRels {
    /// The `j_<kind>` relation of one event kind.
    pub fn of(&self, kind: &str) -> Result<RelId> {
        self.kinds
            .get(kind)
            .copied()
            .ok_or_else(|| Error::UnknownRelation(format!("j_{kind}")))
    }
}

/// Load a parsed journal into `db`, creating `j_event` and one `j_<kind>`
/// relation per event kind.
///
/// `seq` and integer fields are stored as `Int`, so the relations inherit
/// relstore's ordered indexes and range predicates; every event lands in
/// `j_event` and, with its fields' wire values, in its kind's relation.
pub fn ingest(db: &Database, journal: &Journal) -> Result<JournalRels> {
    let event = db.create_relation(Schema::new("j_event", ["seq", "kind", "line"]))?;
    let mut kinds = BTreeMap::new();
    for &(kind, keys) in Event::KINDS {
        let attrs = std::iter::once("seq").chain(keys.iter().copied());
        kinds.insert(
            kind,
            db.create_relation(Schema::new(format!("j_{kind}"), attrs))?,
        );
    }
    let rels = JournalRels { event, kinds };
    for (seq, e) in &journal.events {
        let seq = *seq as i64;
        db.insert(rels.event, crate::tuple![seq, e.kind(), e.watch_line()])?;
        let mut row = vec![Value::Int(seq)];
        e.for_each_field(|_, w| {
            row.push(match w {
                Wire::U64(n) | Wire::Added(n) => Value::Int(n as i64),
                Wire::Str(s) => Value::str(s),
                Wire::Bool(b) => Value::Bool(b),
            })
        });
        db.insert(rels.of(e.kind())?, Tuple::new(row))?;
    }
    Ok(rels)
}

/// Working memory as of just before journal sequence number `seq`,
/// reconstructed by range queries over the ingested `j_wm_insert` and
/// `j_wm_remove` relations: multiset counts keyed by
/// `(class, tuple_text)`, zero counts dropped.
///
/// Equivalent to [`obs::Journal::wm_before`], but computed inside the
/// DBMS — the form `--why` uses so the answer demonstrably comes from
/// the journal relations.
pub fn wm_as_of(
    db: &Database,
    rels: &JournalRels,
    seq: u64,
) -> Result<BTreeMap<(i64, String), i64>> {
    let before = i64::try_from(seq).unwrap_or(i64::MAX);
    let mut wm: BTreeMap<(i64, String), i64> = BTreeMap::new();
    for (kind, delta) in [("wm_insert", 1), ("wm_remove", -1)] {
        let rel = rels.of(kind)?;
        let schema = db.schema(rel)?;
        let col = |name| schema.attr_index(name);
        let (class, text) = (col("class")?, col("tuple")?);
        let earlier = Restriction::new(vec![Selection::new(col("seq")?, CompOp::Lt, before)]);
        for (_, t) in db.select(rel, &earlier)? {
            let v = t.values();
            let class = match &v[class] {
                Value::Int(n) => *n,
                _ => 0,
            };
            let text = match &v[text] {
                Value::Str(s) => s.to_string(),
                _ => String::new(),
            };
            *wm.entry((class, text)).or_insert(0) += delta;
        }
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
                        critical_ns: 0,
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
        let kind = |k| all(rels.of(k).unwrap());
        assert_eq!(all(rels.event), 8, "every record lands in j_event");
        assert_eq!(kind("wm_insert") + kind("wm_remove"), 2);
        assert_eq!(kind("firing"), 1);
        assert_eq!(kind("conflict_delta"), 1);
        assert_eq!(kind("txn_begin") + kind("txn_commit"), 2, "begin + commit");
        assert_eq!(kind("lock_wait") + kind("lock_acquire"), 1);
        assert_eq!(kind("deadlock_graph"), 1);
        let typed: usize = Event::KINDS.iter().map(|(k, _)| kind(k)).sum();
        assert_eq!(typed, 8, "every record lands in its kind's relation");
        // Firings are queryable by name via ordinary predicates.
        let firing = rels.of("firing").unwrap();
        let schema = db.schema(firing).unwrap();
        let col = |name| schema.attr_index(name).unwrap();
        let firings = db
            .select(
                firing,
                &Restriction::new(vec![Selection::new(col("rule_name"), CompOp::Eq, "R")]),
            )
            .unwrap();
        assert_eq!(firings.len(), 1);
        let v = firings[0].1.values();
        assert!(matches!(&v[col("support")], Value::Str(s) if s.as_ref() == "t0.1"));
        assert_eq!(v[col("seq")], Value::Int(4), "the sink sequence number");
        assert_eq!(v[col("fseq")], Value::Int(0), "the commit sequence number");
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
