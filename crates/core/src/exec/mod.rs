//! Rule execution: the *Act* step, sequential (OPS5-style) and concurrent
//! (the paper's §5 proposal).

pub mod concurrent;
pub mod refraction;
pub mod schedules;
pub mod sequential;

pub use concurrent::{ConcurrentExecutor, ConcurrentStats, ScheduleOracle};
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

/// One WM change produced by an RHS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WmChange {
    /// Insert the tuple.
    Insert(ClassId, Tuple),
    /// Remove one tuple equal to the payload.
    Remove(ClassId, Tuple),
}

impl WmChange {
    /// This change as a maintenance delta, once storage resolved it to
    /// the tuple id it inserted or deleted.
    pub fn resolved(&self, tid: TupleId) -> WmDelta {
        let (WmChange::Insert(class, tuple) | WmChange::Remove(class, tuple)) = self;
        WmDelta {
            insert: matches!(self, WmChange::Insert(..)),
            class: *class,
            tid,
            tuple: tuple.clone(),
        }
    }
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
/// storage tuple ids (engines that intern WMEs by content report none),
/// and the concrete absent patterns of negated CEs. Shared by both
/// executors so `--explain` sees one event shape regardless of execution
/// mode.
pub(crate) fn trace_derivation(tracer: &obs::Tracer, rules: &RuleSet, inst: &Instantiation) {
    tracer.emit(|| obs::Event::Derivation {
        rule: inst.rule.0 as u32,
        rule_name: rules.rule(inst.rule).name.clone(),
        wmes: inst.wmes_display(rules),
        support: inst.why.support_display(),
        absent: inst.why.absent_display(rules),
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
/// see the current (possibly already modified) tuples of each CE.
pub fn eval_rhs(rules: &RuleSet, inst: &Instantiation) -> RhsResult {
    let rule = rules.rule(inst.rule);
    let pos_of = positive_positions(rule);
    let mut locals = vec![Value::Null; rule.locals];
    // Track the live tuple of each positive CE as actions mutate them.
    let mut current: Vec<Tuple> = inst.wmes.iter().map(|w| w.tuple.clone()).collect();
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
                    out.changes
                        .push(WmChange::Remove(rule.ces[*ce].class, current[pos].clone()));
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
                out.changes
                    .push(WmChange::Remove(rule.ces[*ce].class, current[pos].clone()));
                out.changes
                    .push(WmChange::Insert(rule.ces[*ce].class, t.clone()));
                current[pos] = t;
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
    use super::*;
    use relstore::tuple;
    use rete::Wme;

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
        );
        let r = eval_rhs(&rs, &inst);
        assert_eq!(r.changes.len(), 2);
        assert_eq!(
            r.changes[0],
            WmChange::Remove(ClassId(0), tuple!["TERM", 0, "+", "x"])
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
        let inst = Instantiation::new(ops5::RuleId(0), vec![Wme::new(ClassId(0), tuple![5, 1])]);
        let r = eval_rhs(&rs, &inst);
        assert_eq!(r.changes[0], WmChange::Insert(ClassId(0), tuple![9, 5]));
        assert_eq!(r.changes[1], WmChange::Remove(ClassId(0), tuple![5, 1]));
        assert_eq!(r.writes, vec!["fired 5"]);
        assert!(r.halt);
    }

    #[test]
    fn double_remove_is_once() {
        let rs = ops5::compile(
            "(literalize A x)(p R (A ^x 1) --> (remove 1) (remove 1) (modify 1 ^x 2))",
        )
        .unwrap();
        let inst = Instantiation::new(ops5::RuleId(0), vec![Wme::new(ClassId(0), tuple![1])]);
        let r = eval_rhs(&rs, &inst);
        assert_eq!(r.changes.len(), 1, "modify after remove is skipped too");
    }
}
