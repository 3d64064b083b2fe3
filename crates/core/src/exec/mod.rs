//! Rule execution: the *Act* step, sequential (OPS5-style) and concurrent
//! (the paper's §5 proposal).

pub mod concurrent;
pub mod refraction;
pub mod schedules;
pub mod sequential;

pub use concurrent::{ConcurrentExecutor, ConcurrentStats};
pub use refraction::Refraction;
pub use schedules::{
    count_equivalent_schedules, critical_path, interleaving_upper_bound, ops_of_instantiation,
    TxnOps,
};
pub use sequential::{RunOutcome, SequentialExecutor};

use ops5::{Action, ClassId, RhsVal, Rule, RuleSet};
use relstore::{Tuple, TupleId, Value};
use rete::Instantiation;

use crate::engine::WmDelta;
use crate::pdb::ProductionDb;

/// One WM change: a loader's, or one an RHS produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WmChange {
    /// Insert the tuple.
    Insert(ClassId, Tuple),
    /// Remove one tuple equal to the payload.
    Remove(ClassId, Tuple),
    /// Remove the tuple `Target` names, whose contents are the payload:
    /// an RHS removal.
    Delete(ClassId, Tuple, Target),
}

/// The tuple an RHS removal deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A tuple a positive CE matched: one of the instantiation's support
    /// ids.
    Matched(TupleId),
    /// The tuple that change `n` of the same RHS inserted (a `modify`'s
    /// new tuple).
    Made(usize),
}

impl WmChange {
    /// This change as a maintenance delta, once storage resolved it to
    /// the tuple id it inserted or deleted.
    pub fn resolved(&self, tid: TupleId) -> WmDelta {
        let (WmChange::Insert(class, tuple)
        | WmChange::Remove(class, tuple)
        | WmChange::Delete(class, tuple, _)) = self;
        WmDelta {
            insert: matches!(self, WmChange::Insert(..)),
            class: *class,
            tid,
            tuple: tuple.clone(),
        }
    }
}

/// Apply `changes` to `pdb`'s working memory in order, outside any
/// transaction. Returns the maintenance deltas of the changes that took
/// effect: a removal that finds no tuple (none equal, or its target is
/// gone already) is dropped.
pub fn apply_changes(pdb: &ProductionDb, changes: &[WmChange]) -> Vec<WmDelta> {
    let applied = apply_with(changes, |change, target| {
        relstore::Result::Ok(match change {
            WmChange::Insert(class, tuple) => Some(pdb.insert_wm(*class, tuple.clone())?),
            WmChange::Remove(class, tuple) => pdb.remove_wm_equal(*class, tuple)?,
            WmChange::Delete(class, ..) => match target {
                Some(tid) => pdb.remove_wm(*class, tid)?.then_some(tid),
                None => None,
            },
        })
    });
    applied.expect("wm change")
}

/// Apply `changes` in order through `apply`, which gets each change and,
/// for a `Delete`, the id its [`Target`] resolves to, and returns the id
/// the change took effect on (`None`: it did nothing). Returns the
/// maintenance deltas of the changes that took effect.
pub(crate) fn apply_with<E>(
    changes: &[WmChange],
    mut apply: impl FnMut(&WmChange, Option<TupleId>) -> Result<Option<TupleId>, E>,
) -> Result<Vec<WmDelta>, E> {
    let mut ids: Vec<Option<TupleId>> = Vec::with_capacity(changes.len());
    for change in changes {
        let target = match change {
            WmChange::Delete(_, _, Target::Matched(tid)) => Some(*tid),
            WmChange::Delete(_, _, Target::Made(n)) => ids[*n],
            _ => None,
        };
        ids.push(apply(change, target)?);
    }
    Ok((changes.iter().zip(ids))
        .filter_map(|(change, id)| Some(change.resolved(id?)))
        .collect())
}

/// Everything an RHS evaluation produces.
#[derive(Debug, Clone, Default)]
pub struct RhsResult {
    /// WM changes, in action order.
    pub changes: Vec<WmChange>,
    /// Lines produced by `write` actions.
    pub writes: Vec<String>,
    /// `(halt)` was executed.
    pub halt: bool,
}

/// Emit the full derivation of a firing: the matched WMEs, the supporting
/// storage tuple ids, and the concrete absent patterns of negated CEs, derived here for
/// every engine alike. Shared by both executors so `--explain` sees one
/// event shape regardless of execution mode.
pub(crate) fn trace_derivation(tracer: &obs::Tracer, rules: &RuleSet, inst: &Instantiation) {
    tracer.emit(|| obs::Event::Derivation {
        rule: inst.rule.0 as u32,
        rule_name: rules.rule(inst.rule).name.clone(),
        wmes: inst.wmes_display(rules),
        support: inst.support_display(),
        absent: inst.absent_display(rules),
    });
}

/// Position of each original CE among the positive CEs.
pub(crate) fn positive_positions(rule: &Rule) -> Vec<Option<usize>> {
    let mut out = vec![None; rule.ces.len()];
    let mut pos = 0;
    for (i, ce) in rule.ces.iter().enumerate() {
        if !ce.negated {
            out[i] = Some(pos);
            pos += 1;
        }
    }
    out
}

fn eval_rhs_val(
    v: &RhsVal,
    _inst: &Instantiation,
    pos_of: &[Option<usize>],
    locals: &[Value],
    current: &[Tuple],
) -> Value {
    match v {
        RhsVal::Const(c) => c.clone(),
        RhsVal::Field { ce, attr } => {
            let pos = pos_of[*ce].expect("RHS references positive CEs");
            current[pos].get(*attr).cloned().unwrap_or(Value::Null)
        }
        RhsVal::Local(slot) => locals.get(*slot).cloned().unwrap_or(Value::Null),
    }
}

/// Evaluate a rule's RHS against an instantiation, producing the WM
/// changes (in action order), write-log entries, and the halt flag.
///
/// `modify` is "a delete followed by an insert" (§5); consecutive actions
/// see the current (possibly already modified) tuples of each CE. Every
/// removal names the tuple it deletes: the CE's matched tuple, or the one
/// an earlier `modify` of this RHS made in its place.
pub fn eval_rhs(rules: &RuleSet, inst: &Instantiation) -> RhsResult {
    let rule = rules.rule(inst.rule);
    let pos_of = positive_positions(rule);
    let mut locals = vec![Value::Null; rule.locals];
    // Track the live tuple of each positive CE as actions mutate them.
    let mut current: Vec<Tuple> = inst.wmes.iter().map(|w| w.tuple.clone()).collect();
    let mut targets: Vec<Target> = inst.support.iter().map(|&t| Target::Matched(t)).collect();
    let mut removed: Vec<bool> = vec![false; current.len()];
    let mut out = RhsResult::default();
    for action in &rule.actions {
        match action {
            Action::Make { class, values } => {
                let vals: Vec<Value> = values
                    .iter()
                    .map(|v| eval_rhs_val(v, inst, &pos_of, &locals, &current))
                    .collect();
                out.changes.push(WmChange::Insert(*class, Tuple::new(vals)));
            }
            Action::Remove { ce } => {
                let pos = pos_of[*ce].expect("remove references a positive CE");
                if !removed[pos] {
                    removed[pos] = true;
                    let class = rule.ces[*ce].class;
                    let tuple = current[pos].clone();
                    out.changes
                        .push(WmChange::Delete(class, tuple, targets[pos]));
                }
            }
            Action::Modify { ce, sets } => {
                let pos = pos_of[*ce].expect("modify references a positive CE");
                if removed[pos] {
                    continue;
                }
                let mut t = current[pos].clone();
                for (attr, v) in sets {
                    t = t.with_value(*attr, eval_rhs_val(v, inst, &pos_of, &locals, &current));
                }
                let class = rule.ces[*ce].class;
                let old = std::mem::replace(&mut current[pos], t.clone());
                out.changes.push(WmChange::Delete(class, old, targets[pos]));
                targets[pos] = Target::Made(out.changes.len());
                out.changes.push(WmChange::Insert(class, t));
            }
            Action::Write(items) => {
                let line: Vec<String> = items
                    .iter()
                    .map(|v| eval_rhs_val(v, inst, &pos_of, &locals, &current).to_string())
                    .collect();
                out.writes.push(line.join(" "));
            }
            Action::Halt => out.halt = true,
            Action::Bind { slot, value } => {
                locals[*slot] = eval_rhs_val(value, inst, &pos_of, &locals, &current);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use relstore::tuple;
    use rete::Wme;

    /// Rule 0 over one `A` tuple, `t0.0`.
    fn one(tuple: Tuple) -> Instantiation {
        Instantiation::new(
            ops5::RuleId(0),
            vec![Wme::new(ClassId(0), tuple)],
            Arc::from([TupleId::new(0, 0)]),
        )
    }

    #[test]
    fn modify_is_delete_then_insert() {
        let rs = ops5::compile(
            r#"
            (literalize Expression Name Arg1 Op Arg2)
            (literalize Goal Type Object)
            (p PlusOX
                (Goal ^Type Simplify ^Object <N>)
                (Expression ^Name <N> ^Arg1 0 ^Op + ^Arg2 <X>)
                -->
                (modify 2 ^Op nil ^Arg1 nil))
            "#,
        )
        .unwrap();
        let inst = Instantiation::new(
            ops5::RuleId(0),
            vec![
                Wme::new(ClassId(1), tuple!["Simplify", "TERM"]),
                Wme::new(ClassId(0), tuple!["TERM", 0, "+", "x"]),
            ],
            Arc::from([TupleId::new(0, 0), TupleId::new(4, 1)]),
        );
        let r = eval_rhs(&rs, &inst);
        assert_eq!(r.changes.len(), 2);
        assert_eq!(
            r.changes[0],
            WmChange::Delete(
                ClassId(0),
                tuple!["TERM", 0, "+", "x"],
                Target::Matched(TupleId::new(4, 1))
            )
        );
        let WmChange::Insert(_, t) = &r.changes[1] else {
            panic!("insert expected")
        };
        assert!(t[1].is_null() && t[2].is_null(), "Op and Arg1 nil'd");
        assert_eq!(t[3], Value::str("x"), "Arg2 untouched");
        assert!(!r.halt);
    }

    #[test]
    fn make_remove_write_halt_bind() {
        let rs = ops5::compile(
            r#"
            (literalize A x y)
            (p R (A ^x <V> ^y 1)
                -->
                (bind <W> 9)
                (make A ^x <W> ^y <V>)
                (write fired <V>)
                (remove 1)
                (halt))
            "#,
        )
        .unwrap();
        let inst = one(tuple![5, 1]);
        let r = eval_rhs(&rs, &inst);
        // Action order: the removal names the matched tuple, not the
        // equal one a `make` before it may have made.
        assert_eq!(r.changes[0], WmChange::Insert(ClassId(0), tuple![9, 5]));
        let matched = Target::Matched(TupleId::new(0, 0));
        assert_eq!(
            r.changes[1],
            WmChange::Delete(ClassId(0), tuple![5, 1], matched)
        );
        assert_eq!(r.writes, vec!["fired 5"]);
        assert!(r.halt);
    }

    #[test]
    fn double_remove_is_once() {
        let rs = ops5::compile(
            "(literalize A x)(p R (A ^x 1) --> (remove 1) (remove 1) (modify 1 ^x 2))",
        )
        .unwrap();
        let r = eval_rhs(&rs, &one(tuple![1]));
        assert_eq!(r.changes.len(), 1, "modify after remove is skipped too");
    }

    /// A removal after a `modify` names the tuple the `modify` made, and
    /// `apply_changes` resolves it to that tuple's id.
    #[test]
    fn a_removal_after_a_modify_names_the_made_tuple() {
        let rs =
            ops5::compile("(literalize A x)(p R (A ^x 1) --> (modify 1 ^x 1) (remove 1))").unwrap();
        let pdb = ProductionDb::new(rs.clone()).unwrap();
        let tid = pdb.insert_wm(ClassId(0), tuple![1]).unwrap();
        let inst = Instantiation::new(
            ops5::RuleId(0),
            vec![Wme::new(ClassId(0), tuple![1])],
            Arc::from([tid]),
        );
        let r = eval_rhs(&rs, &inst);
        assert_eq!(
            r.changes[2],
            WmChange::Delete(ClassId(0), tuple![1], Target::Made(1))
        );
        let applied = apply_changes(&pdb, &r.changes);
        assert_eq!(applied.len(), 3);
        assert_eq!(applied[2].tid, applied[1].tid, "the made tuple goes");
        assert_eq!(pdb.wm_len(ClassId(0)), 0);
        assert!(
            apply_changes(&pdb, &r.changes[..1]).is_empty(),
            "gone already"
        );
    }
}
