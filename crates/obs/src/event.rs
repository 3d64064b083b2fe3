//! The trace vocabulary: one `Event` per interesting moment of the
//! recognize-act lifecycle (§3–§4 matching, OPS5 act phase, §5
//! transactions). Events carry only primitive ids and pre-rendered
//! strings so `obs` stays dependency-free and every crate can emit them.
//!
//! Each variant is declared once, in the `events!` table below: its
//! kind tag and, per field, the field's name, type and JSON key (plus a
//! codec when the wire form is not the plain one). The enum, [`Event::kind`],
//! [`Event::to_json`], [`Event::from_json`], the field visitor
//! [`Event::for_each_field`] and the kind/key list [`Event::KINDS`] that
//! `relstore::journal` turns into relations are all generated from it.

use crate::json::{Obj, Value};

/// One field's value as it goes on the wire: a JSON number, string or
/// bool, and the column value of the field's journal relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wire<'a> {
    U64(u64),
    /// A number of a field added after `sellis88-journal/v1`: left off
    /// the JSON line when 0.
    Added(u64),
    Str(&'a str),
    Bool(bool),
}

/// How one field of type `T` is written and read back.
trait Codec<T> {
    fn wire<'a>(&self, v: &'a T) -> Wire<'a>;
    fn parse(&self, v: &Value, key: &str) -> Result<T, String>;
}

/// The default codec: integers as JSON numbers (rejected when out of the
/// field type's range), strings as strings, bools as bools.
struct Plain;
/// A `u64` field added after `sellis88-journal/v1`: read as 0 when its
/// key is absent and left off the line when 0, so older journals still
/// parse and an event whose added fields are 0 keeps its v1 line.
struct Added;
/// `ConflictDelta.add` on the wire: `"op":"add"` or `"op":"remove"`.
struct Op;
/// A `&'static str` label that must be one of a fixed table, so parsing
/// interns it instead of leaking a heap string.
struct Labels(&'static [&'static str]);

/// The engine labels events may carry (`MatchEngine::name`).
const ENGINE: Labels = Labels(&["rete", "db-rete", "query", "cond", "marker"]);
/// The lock modes events may carry.
const LOCK_MODE: Labels = Labels(&["shared", "exclusive"]);

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn unknown<T>(key: &str, s: &str) -> Result<T, String> {
    Err(format!("field {key:?} has unknown value {s:?}"))
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec<$t> for Plain {
            fn wire<'a>(&self, v: &'a $t) -> Wire<'a> {
                Wire::U64(*v as u64)
            }
            fn parse(&self, v: &Value, key: &str) -> Result<$t, String> {
                let n = field(v, key)?
                    .as_u64()
                    .ok_or_else(|| format!("field {key:?} is not a u64"))?;
                <$t>::try_from(n).map_err(|_| format!("field {key:?} out of range"))
            }
        }
    )*};
}
int_codec!(u64, u32, usize);

impl Codec<u64> for Added {
    fn wire<'a>(&self, v: &'a u64) -> Wire<'a> {
        Wire::Added(*v)
    }
    fn parse(&self, v: &Value, key: &str) -> Result<u64, String> {
        match v.get(key) {
            Some(_) => Plain.parse(v, key),
            None => Ok(0),
        }
    }
}

impl Codec<String> for Plain {
    fn wire<'a>(&self, v: &'a String) -> Wire<'a> {
        Wire::Str(v)
    }
    fn parse(&self, v: &Value, key: &str) -> Result<String, String> {
        str_field(v, key).map(str::to_string)
    }
}

impl Codec<bool> for Plain {
    fn wire<'a>(&self, v: &'a bool) -> Wire<'a> {
        Wire::Bool(*v)
    }
    fn parse(&self, v: &Value, key: &str) -> Result<bool, String> {
        match field(v, key)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("field {key:?} is not a bool")),
        }
    }
}

impl Codec<bool> for Op {
    fn wire<'a>(&self, v: &'a bool) -> Wire<'a> {
        Wire::Str(if *v { "add" } else { "remove" })
    }
    fn parse(&self, v: &Value, key: &str) -> Result<bool, String> {
        match str_field(v, key)? {
            "add" => Ok(true),
            "remove" => Ok(false),
            s => unknown(key, s),
        }
    }
}

impl Codec<&'static str> for Labels {
    fn wire<'a>(&self, v: &'a &'static str) -> Wire<'a> {
        Wire::Str(v)
    }
    fn parse(&self, v: &Value, key: &str) -> Result<&'static str, String> {
        let s = str_field(v, key)?;
        match self.0.iter().find(|l| **l == s) {
            Some(l) => Ok(l),
            None => unknown(key, s),
        }
    }
}

/// The codec a table field names after `via`, or [`Plain`].
macro_rules! codec {
    () => {
        Plain
    };
    ($c:ident) => {
        $c
    };
}

/// Generates the enum and its wire code from one table of
/// `Variant = "kind" { field: Type = "key" [via CODEC], … }` entries.
macro_rules! events {
    (
        $(#[$enum_attr:meta])*
        pub enum Event {$(
            $(#[$attr:meta])*
            $variant:ident = $kind:literal {
                $($field:ident: $ty:ty = $key:literal $(via $codec:ident)?,)*
            }
        )*}
    ) => {
        $(#[$enum_attr])*
        pub enum Event {$(
            $(#[$attr])*
            $variant { $($field: $ty),* },
        )*}

        impl Event {
            /// Every kind tag with its fields' JSON keys, in table order:
            /// the shape of the journal relations.
            pub const KINDS: &'static [(&'static str, &'static [&'static str])] =
                &[$(($kind, &[$($key),*])),*];

            /// Stable kind tag used as the JSONL discriminator.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// Visit each field's JSON key and wire value, in table order.
            pub fn for_each_field<'a>(&'a self, mut f: impl FnMut(&'static str, Wire<'a>)) {
                match self {
                    $(Event::$variant { $($field),* } => {
                        $(f($key, Codec::<$ty>::wire(&codec!($($codec)?), $field));)*
                    })*
                }
            }

            /// Read the fields of a `kind` record from a parsed line.
            fn from_fields(kind: &str, v: &Value) -> Result<Event, String> {
                Ok(match kind {
                    $($kind => Event::$variant {
                        $($field: Codec::<$ty>::parse(&codec!($($codec)?), v, $key)?,)*
                    },)*
                    other => return Err(format!("unknown event kind {other:?}")),
                })
            }
        }
    };
}

events! {
    /// One traced moment. Field conventions: `class`/`rule` are the numeric
    /// ids of the production DB, `*_name` the human names, durations are
    /// nanoseconds.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Event {
        /// A recognize-act cycle began.
        CycleStart = "cycle_start" {
            cycle: u64 = "cycle",
        }
        /// A recognize-act cycle finished (conflict-set size after act).
        CycleEnd = "cycle_end" {
            cycle: u64 = "cycle",
            conflict_len: usize = "conflict_len",
            fired_total: u64 = "fired_total",
        }
        /// A tuple entered working memory. `tid` is the packed storage tuple
        /// id it resolved to (0 when the emitter does not know it), so journal
        /// queries can join WM deltas against firing provenance.
        WmInsert = "wm_insert" {
            class: u32 = "class",
            class_name: String = "class_name",
            tuple: String = "tuple",
            tid: u64 = "tid",
        }
        /// A tuple left working memory.
        WmRemove = "wm_remove" {
            class: u32 = "class",
            class_name: String = "class_name",
            tuple: String = "tuple",
            tid: u64 = "tid",
        }
        /// One engine finished match maintenance for one WM change.
        /// `detect_ns`/`total_ns` are the §4.2.3 detect/maintain split when
        /// the engine reports it (0/0 otherwise). No longer emitted — every
        /// change is part of a [`Event::BatchApplied`] pass — and kept so
        /// that older journals still parse.
        MatchMaintain = "match_maintain" {
            engine: &'static str = "engine" via ENGINE,
            class: u32 = "class",
            insert: bool = "insert",
            adds: usize = "adds",
            removes: usize = "removes",
            detect_ns: u64 = "detect_ns",
            total_ns: u64 = "total_ns",
        }
        /// One COND store's propagation finished (§4.2.3's per-relation
        /// maintenance): the class whose store was updated, how many COND
        /// tuples it examined, the index probes that narrowed them, and its
        /// wall time.
        PropagateSpan = "propagate_span" {
            class: u32 = "class",
            class_name: String = "class_name",
            scanned: u64 = "scanned",
            probes: u64 = "probes",
            span_ns: u64 = "span_ns",
        }
        /// One maintenance pass finished (§4.2 set-oriented maintenance; a
        /// single WM change is a pass of one): how many WM inserts/deletes
        /// it carried, how many distinct rules its conflict deltas
        /// touched, its wall time and the part of it spent before the
        /// conflict set was up to date (§4.2.3's detect/maintain split; 0
        /// when the engine does not split), and the COND pattern-store
        /// probes and scanned patterns it cost (0 off COND).
        BatchApplied = "batch_applied" {
            engine: &'static str = "engine" via ENGINE,
            inserts: usize = "inserts",
            deletes: usize = "deletes",
            rules_awakened: usize = "rules_awakened",
            total_ns: u64 = "total_ns",
            detect_ns: u64 = "detect_ns" via Added,
            pattern_probes: u64 = "pattern_probes" via Added,
            pattern_scanned: u64 = "pattern_scanned" via Added,
        }
        /// One §5 synchronization round finished: how many candidate
        /// instantiations were dispatched to the workers, how many of them
        /// committed, how many aborted (deadlock victims, invalidations, or
        /// storage errors), and how much of the round's wall time
        /// (`span_ns`) was serialized inside the engine critical section
        /// (`critical_ns`, summed over the round's transactions).
        RoundSpan = "round_span" {
            round: u64 = "round",
            candidates: usize = "candidates",
            committed: usize = "committed",
            aborted: usize = "aborted",
            critical_ns: u64 = "critical_ns",
            span_ns: u64 = "span_ns",
        }
        /// The conflict set gained or lost one instantiation. `support` is
        /// the provenance tuple-id list ("t3.1 t7.2") when the engine tracks
        /// it; `absent` the concrete negated patterns that must stay absent.
        ConflictDelta = "conflict_delta" {
            add: bool = "op" via Op,
            rule: u32 = "rule",
            rule_name: String = "rule_name",
            wmes: String = "wmes",
            support: String = "support",
            absent: String = "absent",
        }
        /// Conflict resolution picked an instantiation to fire.
        RuleSelect = "rule_select" {
            cycle: u64 = "cycle",
            rule: u32 = "rule",
            rule_name: String = "rule_name",
            conflict_len: usize = "conflict_len",
        }
        /// An instantiation's RHS ran to completion.
        RuleFire = "rule_fire" {
            cycle: u64 = "cycle",
            rule: u32 = "rule",
            rule_name: String = "rule_name",
            rhs_ns: u64 = "rhs_ns",
            inserts: usize = "inserts",
            removes: usize = "removes",
        }
        /// Full derivation of one firing: which WM elements (by storage tuple
        /// id, when the engine tracks them) supported the instantiation, and
        /// which concrete patterns had to be absent (negated CEs).
        Derivation = "derivation" {
            rule: u32 = "rule",
            rule_name: String = "rule_name",
            wmes: String = "wmes",
            support: String = "support",
            absent: String = "absent",
        }
        /// A §5 rule-transaction began.
        TxnBegin = "txn_begin" {
            txn: u64 = "txn",
            rule: u32 = "rule",
            rule_name: String = "rule_name",
        }
        /// A transaction had to wait for a lock.
        LockWait = "lock_wait" {
            txn: u64 = "txn",
            target: String = "target",
            mode: &'static str = "mode" via LOCK_MODE,
        }
        /// A lock was granted after its request blocked, `wait_ns` later.
        /// An immediate grant emits nothing.
        LockAcquire = "lock_acquire" {
            txn: u64 = "txn",
            target: String = "target",
            mode: &'static str = "mode" via LOCK_MODE,
            wait_ns: u64 = "wait_ns",
        }
        /// The deadlock detector chose this transaction as victim, `wait_ns`
        /// after its request blocked.
        DeadlockVictim = "deadlock_victim" {
            txn: u64 = "txn",
            wait_ns: u64 = "wait_ns" via Added,
        }
        /// Snapshot of the waits-for graph at the moment a deadlock victim
        /// was chosen, so journals show *why* the transaction aborted. Each
        /// edge is rendered `t<waiter>->t<holder> <mode> <target>` and edges
        /// are `"; "`-joined.
        DeadlockGraph = "deadlock_graph" {
            victim: u64 = "victim",
            edges: String = "edges",
        }
        /// One production committed its firing. `seq` is the global commit
        /// sequence number — assigned while the transaction still holds its
        /// locks, so for conflicting transactions it IS the serialization
        /// order and replaying firings serially in `seq` order reproduces
        /// the run. `round` is the §5 synchronization round (the cycle
        /// number under the sequential executor, where `txn` is 0). Its JSON
        /// key is `fseq`, apart from the line's own `seq`. `critical_ns` is
        /// how long the transaction held the engine critical section for
        /// its pre-commit maintenance pass (0 when `txn` is 0).
        Firing = "firing" {
            seq: u64 = "fseq",
            round: u64 = "round",
            txn: u64 = "txn",
            rule: u32 = "rule",
            rule_name: String = "rule_name",
            wmes: String = "wmes",
            support: String = "support",
            critical_ns: u64 = "critical_ns" via Added,
        }
        /// A transaction rolled back. `reason` is `deadlock`, `invalidated`,
        /// or `error: …` with the storage error that forced the abort.
        TxnAbort = "txn_abort" {
            txn: u64 = "txn",
            reason: String = "reason",
        }
        /// A transaction committed.
        TxnCommit = "txn_commit" {
            txn: u64 = "txn",
            writes: usize = "writes",
        }
    }
}

impl Event {
    /// Render as a single JSON object (one JSONL line, no newline).
    pub fn to_json(&self, seq: u64) -> String {
        let mut o = Obj::new().u64("seq", seq).str("event", self.kind());
        self.for_each_field(|key, w| {
            let prev = std::mem::take(&mut o);
            o = match w {
                Wire::Added(0) => prev,
                Wire::U64(n) | Wire::Added(n) => prev.u64(key, n),
                Wire::Str(s) => prev.str(key, s),
                Wire::Bool(b) => prev.bool(key, b),
            };
        });
        o.finish()
    }

    /// Parse one JSONL line produced by [`Event::to_json`] back into the
    /// sink sequence number and the event — the read side of the
    /// `sellis88-journal/v1` schema. Every variant round-trips; unknown
    /// kinds, missing fields, out-of-range integers and labels outside
    /// their table are errors, so journal readers fail loudly on schema
    /// drift instead of silently dropping records. Keys the table does
    /// not name are ignored.
    pub fn from_json(line: &str) -> Result<(u64, Event), String> {
        let v = crate::json::parse(line)?;
        let seq = Plain.parse(&v, "seq")?;
        Ok((seq, Event::from_fields(str_field(&v, "event")?, &v)?))
    }

    /// Render in the spirit of OPS5's `(watch 2)` trace: one short human
    /// line per event.
    pub fn watch_line(&self) -> String {
        match self {
            Event::CycleStart { cycle } => format!("-- cycle {cycle} --"),
            Event::CycleEnd {
                cycle,
                conflict_len,
                fired_total,
            } => {
                format!("   cycle {cycle} done: conflict={conflict_len} fired={fired_total}")
            }
            Event::WmInsert {
                class_name, tuple, ..
            } => {
                format!("=> wm: ({class_name}{tuple})")
            }
            Event::WmRemove {
                class_name, tuple, ..
            } => {
                format!("<= wm: ({class_name}{tuple})")
            }
            Event::MatchMaintain {
                engine,
                adds,
                removes,
                total_ns,
                ..
            } => {
                format!("   match[{engine}]: +{adds}/-{removes} in {total_ns}ns")
            }
            Event::PropagateSpan {
                class_name,
                scanned,
                probes,
                span_ns,
                ..
            } => {
                format!(
                    "   prop COND-{class_name}: {scanned} scanned / {probes} probes in {span_ns}ns"
                )
            }
            Event::BatchApplied {
                engine,
                inserts,
                deletes,
                rules_awakened,
                total_ns,
                ..
            } => {
                format!(
                    "   batch[{engine}]: +{inserts}/-{deletes} wm -> {rules_awakened} rule(s) in {total_ns}ns"
                )
            }
            Event::RoundSpan {
                round,
                candidates,
                committed,
                aborted,
                critical_ns,
                span_ns,
            } => {
                format!(
                    "   round {round}: {committed}/{candidates} committed ({aborted} aborted), critical {critical_ns}ns of {span_ns}ns"
                )
            }
            Event::ConflictDelta {
                add,
                rule_name,
                wmes,
                ..
            } => {
                format!("   cs{} {rule_name}: {wmes}", if *add { '+' } else { '-' })
            }
            Event::RuleSelect {
                rule_name,
                conflict_len,
                ..
            } => {
                format!("   select {rule_name} (of {conflict_len})")
            }
            Event::RuleFire {
                cycle, rule_name, ..
            } => format!("{cycle}. {rule_name}"),
            Event::Derivation {
                rule_name,
                wmes,
                support,
                absent,
                ..
            } => {
                let mut line = format!("   because {rule_name}: {wmes}");
                if !support.is_empty() {
                    line.push_str(&format!(" [{support}]"));
                }
                if !absent.is_empty() {
                    line.push_str(&format!(" absent: {absent}"));
                }
                line
            }
            Event::TxnBegin { txn, rule_name, .. } => {
                format!("   txn{txn} begin ({rule_name})")
            }
            Event::LockWait { txn, target, mode } => {
                format!("   txn{txn} waits {mode} {target}")
            }
            Event::LockAcquire {
                txn,
                target,
                mode,
                wait_ns,
            } => {
                format!("   txn{txn} holds {mode} {target} (waited {wait_ns}ns)")
            }
            Event::DeadlockVictim { txn, .. } => format!("   txn{txn} DEADLOCK victim"),
            Event::DeadlockGraph { victim, edges } => {
                format!("   txn{victim} deadlock graph: {edges}")
            }
            Event::Firing {
                seq,
                round,
                rule_name,
                wmes,
                ..
            } => {
                format!("{seq}. {rule_name} (round {round}): {wmes}")
            }
            Event::TxnAbort { txn, reason } => format!("   txn{txn} abort: {reason}"),
            Event::TxnCommit { txn, writes } => {
                format!("   txn{txn} commit ({writes} writes)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_seq_and_kind() {
        let e = Event::RuleFire {
            cycle: 3,
            rule: 1,
            rule_name: "R\"1".into(),
            rhs_ns: 10,
            inserts: 1,
            removes: 2,
        };
        let line = e.to_json(9);
        assert!(
            line.starts_with("{\"seq\":9,\"event\":\"rule_fire\""),
            "{line}"
        );
        assert!(line.contains("\"rule_name\":\"R\\\"1\""), "{line}");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn parsing_rejects_schema_drift() {
        let ok = concat!(
            "{\"seq\":1,\"event\":\"lock_wait\",\"txn\":2,",
            "\"target\":\"rel0\",\"mode\":\"shared\"}"
        );
        assert!(Event::from_json(ok).is_ok());
        let bad = [
            (ok.replace(",\"txn\":2", ""), "missing field \"txn\""),
            (ok.replace("lock_wait", "lock_wiat"), "unknown event kind"),
            (ok.replace("shared", "intent"), "field \"mode\" has unknown"),
            (ok.replace("\"txn\":2", "\"txn\":\"2\""), "is not a u64"),
            (
                Event::MatchMaintain {
                    engine: "query",
                    class: 0,
                    insert: true,
                    adds: 0,
                    removes: 0,
                    detect_ns: 0,
                    total_ns: 0,
                }
                .to_json(0)
                .replace("query", "treat"),
                "field \"engine\" has unknown",
            ),
            (
                Event::ConflictDelta {
                    add: true,
                    rule: 0,
                    rule_name: "R".into(),
                    wmes: String::new(),
                    support: String::new(),
                    absent: String::new(),
                }
                .to_json(0)
                .replace("\"add\"", "\"added\""),
                "field \"op\" has unknown",
            ),
        ];
        for (line, want) in bad {
            let err = Event::from_json(&line).unwrap_err();
            assert!(err.contains(want), "{line}: {err}");
        }
    }

    /// A key added after `sellis88-journal/v1` reads as 0 when a line
    /// lacks it, is left off again when 0, and is still type-checked when
    /// present.
    #[test]
    fn added_fields_default_to_zero() {
        let batch = concat!(
            "{\"seq\":3,\"event\":\"batch_applied\",\"engine\":\"cond\",",
            "\"inserts\":1,\"deletes\":0,\"rules_awakened\":1,\"total_ns\":900}"
        );
        let firing = concat!(
            "{\"seq\":4,\"event\":\"firing\",\"fseq\":0,\"round\":1,\"txn\":2,",
            "\"rule\":0,\"rule_name\":\"R\",\"wmes\":\"\",\"support\":\"\"}"
        );
        assert_eq!(
            Event::from_json(batch).unwrap().1,
            Event::BatchApplied {
                engine: "cond",
                inserts: 1,
                deletes: 0,
                rules_awakened: 1,
                total_ns: 900,
                detect_ns: 0,
                pattern_probes: 0,
                pattern_scanned: 0,
            }
        );
        let (seq, back) = Event::from_json(firing).unwrap();
        assert!(matches!(
            back,
            Event::Firing {
                txn: 2,
                critical_ns: 0,
                ..
            }
        ));
        assert_eq!(back.to_json(seq), firing);
        let typed = [
            batch.replace("}", ",\"pattern_probes\":\"7\"}"),
            firing.replace("}", ",\"critical_ns\":-1}"),
        ];
        for line in typed {
            let err = Event::from_json(&line).unwrap_err();
            assert!(err.contains("is not a u64"), "{line}: {err}");
        }
    }

    #[test]
    fn watch_lines_render() {
        let e = Event::DeadlockVictim { txn: 4, wait_ns: 0 };
        assert!(e.watch_line().contains("DEADLOCK"));
    }
}
