//! Concurrency-benefit estimates (§5.2, citing \[RASC87\]).
//!
//! Two measures:
//!
//! * **critical path** — "in the best case, neglecting locking overhead,
//!   this will be proportional to the maximum number of updates to any WM
//!   relation or COND relation": the serial residue a concurrent run
//!   cannot avoid;
//! * **equivalent-schedule count** — "the number of serializable schedules
//!   equivalent to a single serial schedule … proportional to the number
//!   of possible choices of actions that can be executed at any instant":
//!   computed exactly here by counting interleavings whose conflict pairs
//!   respect the serial order.
//!
//! Operations carry the same granularity as the §5.2 locking rules:
//! reads/deletes of matched tuples are tuple-level, keyed by the tuple's
//! id; insertions take a relation-level write (so they conflict with
//! everything touching the relation — the negative-dependence
//! discipline).

use std::collections::HashMap;

use ops5::RuleSet;
use rete::Instantiation;

use crate::exec::{eval_rhs, Target, WmChange};

/// One relation-or-tuple-granular operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    /// Relation (class) index.
    pub rel: usize,
    /// Tuple identity for tuple-granular ops; `None` = whole relation
    /// (insertions, per §5.2).
    pub tuple: Option<u64>,
    /// Is this a write (vs a read)?
    pub write: bool,
}

impl OpSpec {
    /// A tuple-granular read.
    pub fn read(rel: usize, tuple: u64) -> Self {
        OpSpec {
            rel,
            tuple: Some(tuple),
            write: false,
        }
    }

    /// A tuple-granular write (delete/update of a matched row).
    pub fn write_tuple(rel: usize, tuple: u64) -> Self {
        OpSpec {
            rel,
            tuple: Some(tuple),
            write: true,
        }
    }

    /// A relation-granular write (insertion, per the 5.2 lock rule).
    pub fn insert(rel: usize) -> Self {
        OpSpec {
            rel,
            tuple: None,
            write: true,
        }
    }
}

/// A transaction reduced to its lock-relevant operations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxnOps {
    /// The operations, in execution order.
    pub ops: Vec<OpSpec>,
}

/// Derive a [`TxnOps`] from an instantiation: tuple-level reads of every
/// matched tuple and tuple-level writes for RHS deletes of them, keyed by
/// [`relstore::TupleId::pack`] of the support ids, and relation-level
/// writes for insertions. Deleting a tuple a `modify` of the same RHS
/// made is a relation-level write too: it has no id before the
/// transaction runs.
pub fn ops_of_instantiation(rules: &RuleSet, inst: &Instantiation) -> TxnOps {
    let mut ops = Vec::new();
    for (wme, tid) in inst.wmes.iter().zip(inst.support.iter()) {
        ops.push(OpSpec::read(wme.class.0, tid.pack()));
    }
    for change in eval_rhs(rules, inst).changes {
        ops.push(match change {
            WmChange::Delete(c, _, Target::Matched(tid)) => OpSpec::write_tuple(c.0, tid.pack()),
            WmChange::Insert(c, _) | WmChange::Remove(c, _) | WmChange::Delete(c, ..) => {
                OpSpec::insert(c.0)
            }
        });
    }
    TxnOps { ops }
}

/// Max number of writes hitting a single relation — the §5.2 best-case
/// execution-time bound for concurrent execution.
pub fn critical_path(txns: &[TxnOps]) -> usize {
    let mut per_rel: HashMap<usize, usize> = HashMap::new();
    for t in txns {
        for op in &t.ops {
            if op.write {
                *per_rel.entry(op.rel).or_insert(0) += 1;
            }
        }
    }
    per_rel.values().copied().max().unwrap_or(0)
}

fn conflicts(a: OpSpec, b: OpSpec) -> bool {
    a.rel == b.rel
        && (a.write || b.write)
        && match (a.tuple, b.tuple) {
            (Some(x), Some(y)) => x == y,
            // A relation-level op conflicts with everything in the
            // relation (the phantom-safe insert lock).
            _ => true,
        }
}

/// Count interleavings of `txns` that are conflict-equivalent to the
/// serial schedule `T0, T1, …` (every conflicting pair ordered as in the
/// serial schedule; operations within a transaction stay ordered).
///
/// Exact via memoized search — use with small inputs (≤ ~20 ops total).
pub fn count_equivalent_schedules(txns: &[TxnOps]) -> u128 {
    fn rec(
        txns: &[TxnOps],
        progress: &mut Vec<usize>,
        memo: &mut HashMap<Vec<usize>, u128>,
    ) -> u128 {
        if progress.iter().zip(txns).all(|(&p, t)| p == t.ops.len()) {
            return 1;
        }
        if let Some(&v) = memo.get(progress) {
            return v;
        }
        let mut total = 0u128;
        for i in 0..txns.len() {
            let p = progress[i];
            if p == txns[i].ops.len() {
                continue;
            }
            let op = txns[i].ops[p];
            // Legal iff all conflicting ops of earlier (serial-order)
            // transactions are done, and no conflicting op of a later
            // transaction has run yet.
            let mut legal = true;
            for (j, t) in txns.iter().enumerate() {
                if j < i {
                    if t.ops[progress[j]..].iter().any(|&o| conflicts(o, op)) {
                        legal = false;
                        break;
                    }
                } else if j > i && t.ops[..progress[j]].iter().any(|&o| conflicts(o, op)) {
                    legal = false;
                    break;
                }
            }
            if legal {
                progress[i] += 1;
                total += rec(txns, progress, memo);
                progress[i] -= 1;
            }
        }
        memo.insert(progress.clone(), total);
        total
    }
    let mut progress = vec![0; txns.len()];
    rec(txns, &mut progress, &mut HashMap::new())
}

/// Multinomial upper bound: interleavings ignoring conflicts entirely
/// (what fully independent transactions would allow).
pub fn interleaving_upper_bound(txns: &[TxnOps]) -> u128 {
    let mut total = 0usize;
    let mut result: u128 = 1;
    for t in txns {
        for k in 1..=t.ops.len() {
            total += 1;
            result = result * total as u128 / k as u128;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::TupleId;

    fn t(ops: &[OpSpec]) -> TxnOps {
        TxnOps { ops: ops.to_vec() }
    }

    #[test]
    fn independent_txns_fully_interleave() {
        // Two transactions writing disjoint tuples: 2 ops each →
        // C(4,2) = 6 interleavings, all serializable.
        let txns = [
            t(&[OpSpec::read(0, 1), OpSpec::write_tuple(0, 1)]),
            t(&[OpSpec::read(0, 2), OpSpec::write_tuple(0, 2)]),
        ];
        assert_eq!(count_equivalent_schedules(&txns), 6);
        assert_eq!(interleaving_upper_bound(&txns), 6);
        assert_eq!(critical_path(&txns), 2);
    }

    #[test]
    fn fully_conflicting_txns_serialize() {
        // Same tuple, all writes: only the serial schedule survives.
        let txns = [
            t(&[OpSpec::write_tuple(0, 7), OpSpec::write_tuple(0, 7)]),
            t(&[OpSpec::write_tuple(0, 7), OpSpec::write_tuple(0, 7)]),
        ];
        assert_eq!(count_equivalent_schedules(&txns), 1);
        assert_eq!(critical_path(&txns), 4);
    }

    #[test]
    fn inserts_are_relation_level() {
        // Inserts into one relation serialize even for distinct rows.
        let txns = [t(&[OpSpec::insert(1)]), t(&[OpSpec::insert(1)])];
        assert_eq!(count_equivalent_schedules(&txns), 1);
        // Inserts into distinct relations interleave freely.
        let txns = [t(&[OpSpec::insert(1)]), t(&[OpSpec::insert(2)])];
        assert_eq!(count_equivalent_schedules(&txns), 2);
    }

    #[test]
    fn reads_do_not_conflict() {
        let txns = [t(&[OpSpec::read(0, 9)]), t(&[OpSpec::read(0, 9)])];
        assert_eq!(count_equivalent_schedules(&txns), 2);
        assert_eq!(critical_path(&txns), 0);
    }

    #[test]
    fn mixed_case() {
        // T0 writes tuple a then inserts into rel 1; T1 also inserts into
        // rel 1: the rel-1 inserts conflict → only (a b c).
        let txns = [
            t(&[OpSpec::write_tuple(0, 1), OpSpec::insert(1)]),
            t(&[OpSpec::insert(1)]),
        ];
        assert_eq!(count_equivalent_schedules(&txns), 1);
        // T1 inserting elsewhere is free → 3 interleavings.
        let txns = [
            t(&[OpSpec::write_tuple(0, 1), OpSpec::insert(1)]),
            t(&[OpSpec::insert(2)]),
        ];
        assert_eq!(count_equivalent_schedules(&txns), 3);
    }

    #[test]
    fn ops_from_instantiation() {
        let rs = ops5::compile(
            r#"
            (literalize A x)
            (literalize B x)
            (p R (A ^x <V>) --> (remove 1) (make B ^x <V>))
            "#,
        )
        .unwrap();
        let inst = a_on(3);
        let ops = ops_of_instantiation(&rs, &inst);
        assert_eq!(ops.ops.len(), 3);
        assert!(!ops.ops[0].write && ops.ops[0].rel == 0);
        assert!(ops.ops[1].write && ops.ops[1].tuple.is_some());
        assert!(ops.ops[2].write && ops.ops[2].tuple.is_none() && ops.ops[2].rel == 1);
        // The matched-tuple read and its delete share the tuple key.
        assert_eq!(ops.ops[0].tuple, ops.ops[1].tuple);
        assert_eq!(ops.ops[0].tuple, Some(TupleId::new(3, 0).pack()));
    }

    /// Rule 0 over `A(1)`, tuple `slot`.
    fn a_on(slot: u32) -> Instantiation {
        Instantiation::new(
            ops5::RuleId(0),
            vec![rete::Wme::new(ops5::ClassId(0), relstore::tuple![1])],
            std::sync::Arc::from([TupleId::new(slot, 0)]),
        )
    }

    /// Two transactions over two WMEs of equal contents touch two tuples:
    /// they interleave freely, as over two different rows.
    #[test]
    fn equal_contents_on_two_tuples_do_not_conflict() {
        let rs = ops5::compile("(literalize A x)(p R (A ^x <V>) --> (remove 1))").unwrap();
        let txns = [
            ops_of_instantiation(&rs, &a_on(0)),
            ops_of_instantiation(&rs, &a_on(1)),
        ];
        assert_eq!(count_equivalent_schedules(&txns), 6, "C(4, 2)");
        let same = [
            ops_of_instantiation(&rs, &a_on(0)),
            ops_of_instantiation(&rs, &a_on(0)),
        ];
        assert_eq!(
            count_equivalent_schedules(&same),
            1,
            "one tuple: serial only"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(count_equivalent_schedules(&[]), 1);
        assert_eq!(critical_path(&[]), 0);
        assert_eq!(interleaving_upper_bound(&[]), 1);
    }
}
