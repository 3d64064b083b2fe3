//! COND deletion maintenance resolves a departed blocker by a seeded
//! query (the rows of a positive CE the blocker joins) instead of
//! re-evaluating the rule. Random programs cover every way a negated CE
//! can join — by `=`, by a range operator, to two positive CEs, to none
//! (the full re-evaluation that remains) — and positive CEs that share a
//! class, variable-disjoint or joined, so that one tuple fills both, over
//! delete-heavy traces with duplicate WMEs; after every change the COND
//! conflict set must equal the `eval_rule` oracle and the Rete engine's.

use ops5::{ClassId, RuleSet};
use prodsys::engine::recompute::eval_rule;
use prodsys::{make_engine, EngineKind, Instantiation, MatchEngine, ProductionDb, WmChange};
use proptest::prelude::*;
use relstore::{tuple, Tuple};

const OPS: [&str; 5] = ["<", "<=", ">", ">=", "<>"];

/// One generated rule: how its negated CE joins, over which classes, with
/// which range operator and constant.
#[derive(Debug, Clone)]
struct RuleSpec {
    shape: u8,
    classes: (u8, u8, u8),
    op: u8,
    constant: u8,
}

fn rule_strategy() -> impl Strategy<Value = RuleSpec> {
    (0u8..8, (0u8..3, 0u8..3, 0u8..3), 0u8..5, 0u8..3).prop_map(|(shape, classes, op, constant)| {
        RuleSpec {
            shape,
            classes,
            op,
            constant,
        }
    })
}

fn program(specs: &[RuleSpec]) -> RuleSet {
    let mut src = String::new();
    for c in 0..3 {
        src.push_str(&format!("(literalize C{c} a0 a1)\n"));
    }
    for (n, spec) in specs.iter().enumerate() {
        let (i, j, k) = spec.classes;
        let (op, c) = (OPS[spec.op as usize], spec.constant);
        let lhs = match spec.shape {
            // joined by `=`
            0 => format!("(C{i} ^a0 <X> ^a1 <Y>) -(C{j} ^a0 <X>)"),
            // joined by a range operator only
            1 => format!("(C{i} ^a0 <X>) -(C{j} ^a0 {{{op} <X>}})"),
            // joined to two positive CEs, which one tuple fills both of
            // when they share a class
            2 => format!("(C{i} ^a0 <X>) (C{j} ^a1 <Y>) -(C{k} ^a0 <X> ^a1 <Y>)"),
            // ... to one by a range operator, to the other by `=`
            3 => format!("(C{i} ^a0 <X>) (C{j} ^a1 <Y>) -(C{k} ^a0 {{{op} <X>}} ^a1 <Y>)"),
            // joined to nothing: the blocker blocks the whole rule
            4 => format!("(C{i} ^a0 <X>) -(C{j} ^a1 {c})"),
            // `=` join plus constant tests on both sides
            5 => format!("(C{i} ^a0 <X> ^a1 {c}) -(C{j} ^a0 <X> ^a1 {c})"),
            // two negated CEs on one positive CE
            6 => format!("(C{i} ^a0 <X> ^a1 <Y>) -(C{j} ^a0 <X>) -(C{k} ^a1 {{{op} <Y>}})"),
            // two joined positive CEs, possibly of one class
            _ => format!("(C{i} ^a0 <X>) (C{j} ^a1 <X>) -(C{k} ^a0 {{{op} <X>}})"),
        };
        src.push_str(&format!("(p R{n} {lhs} --> (remove 1))\n"));
    }
    ops5::compile(&src).expect("generated program compiles")
}

/// Insert of a small tuple, or delete of the i-th oldest live tuple.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, i64, i64),
    Delete(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..3, 0i64..3, 0i64..3).prop_map(|(c, a, b)| Op::Insert(c, a, b)),
        2 => (0u8..16).prop_map(Op::Delete),
    ]
}

fn materialize(ops: &[Op]) -> Vec<WmChange> {
    let mut live: Vec<(ClassId, Tuple)> = Vec::new();
    let mut out = Vec::new();
    for op in ops {
        match op {
            Op::Insert(c, a, b) => {
                let row = (ClassId(*c as usize), tuple![*a, *b]);
                live.push(row.clone());
                out.push(WmChange::Insert(row.0, row.1));
            }
            Op::Delete(i) if !live.is_empty() => {
                let (class, t) = live.remove(*i as usize % live.len());
                out.push(WmChange::Remove(class, t));
            }
            Op::Delete(_) => {}
        }
    }
    out
}

/// Every rule's LHS evaluated from scratch against the engine's WM.
fn oracle(engine: &dyn MatchEngine) -> Vec<Instantiation> {
    let pdb = engine.pdb();
    let mut all: Vec<Instantiation> = pdb
        .rules()
        .rules
        .iter()
        .flat_map(|r| eval_rule(pdb, r).into_iter().map(|m| m.instantiation(r)))
        .collect();
    all.sort();
    all
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// One change at a time: `maintain_insert` / `maintain_remove`.
    #[test]
    fn cond_equals_oracle_and_rete_after_every_change(
        specs in proptest::collection::vec(rule_strategy(), 1..6),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let rules = program(&specs);
        let mut cond = make_engine(EngineKind::Cond, ProductionDb::new(rules.clone()).unwrap());
        let mut rete = make_engine(EngineKind::Rete, ProductionDb::new(rules).unwrap());
        for (step, change) in materialize(&ops).into_iter().enumerate() {
            for e in [&mut cond, &mut rete] {
                match &change {
                    WmChange::Insert(class, t) => e.insert(*class, t.clone()),
                    WmChange::Remove(class, t) => e.remove(*class, t),
                };
            }
            let got = cond.conflict_set().sorted();
            prop_assert_eq!(&got, &oracle(cond.as_ref()), "step {}: {:?}", step, change);
            prop_assert_eq!(&got, &rete.conflict_set().sorted(), "step {}: {:?} {:?} {:?}", step, change, specs, materialize(&ops));
        }
    }

    /// Several changes per cycle: `maintain_delta` runs with the whole
    /// delta already in working memory, so a seeded unblock reads rows
    /// whose own maintenance has not run yet.
    #[test]
    fn cond_equals_oracle_after_every_batch(
        specs in proptest::collection::vec(rule_strategy(), 1..6),
        ops in proptest::collection::vec(op_strategy(), 1..60),
        width in 2usize..6,
    ) {
        let rules = program(&specs);
        let mut cond = make_engine(EngineKind::Cond, ProductionDb::new(rules).unwrap());
        for (cycle, batch) in materialize(&ops).chunks(width).enumerate() {
            cond.apply_delta(batch);
            let got = cond.conflict_set().sorted();
            prop_assert_eq!(&got, &oracle(cond.as_ref()), "cycle {}: {:?}", cycle, batch);
        }
    }
}
