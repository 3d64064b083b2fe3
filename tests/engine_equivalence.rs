//! F2 / cross-engine equivalence: every engine consumes the same WM
//! update stream (the paper's Figure 2 loop) and must keep the conflict
//! set `eval_rule` recomputes from scratch after every operation. Every
//! case runs through the one differential driver (`tests/common`); the
//! generated ones come from the one grammar in blocks of
//! [`common::differential::BLOCK`] seeds.

mod common;

use common::differential::{check, sweep_block, traced_deltas_agree};
use common::grammar::{Bias, Case};
use workload::{RuleGenConfig, TraceConfig};

#[test]
fn equivalence_on_two_way_joins() {
    sweep_block(0, Bias::TwoWayJoins);
}

#[test]
fn equivalence_on_three_way_joins() {
    sweep_block(1, Bias::ThreeWayJoins);
}

#[test]
fn equivalence_with_negation() {
    sweep_block(2, Bias::Negation);
}

#[test]
fn equivalence_delete_heavy() {
    sweep_block(3, Bias::DeleteHeavy);
}

#[test]
fn equivalence_on_paper_example_3() {
    let ops = [
        "+0 Sam 5000 Root 1",
        "+0 Mike 6000 Sam 1",
        "+1 1 Toy 1 Sam",
        "+0 Jane 4000 Sam 2",
        "-0 Mike 6000 Sam 1",
        "+1 2 Shoe 2 Ann",
        "-1 1 Toy 1 Sam",
    ];
    check(&Case::named(workload::paper::EXAMPLE3, &ops));
}

/// Two positive CEs of one rule on one class: a tuple pairs with itself,
/// once.
#[test]
fn one_tuple_fills_two_ces_of_the_same_class() {
    let src = "(literalize C a b)\n(p R (C ^a <X>) (C ^b <Y>) --> (remove 1))";
    check(&Case::named(src, &["+0 1 2", "+0 3 4", "-0 1 2", "-0 3 4"]));
}

/// The tuple that fills two CEs of one class marks the third CE's COND
/// patterns once per CE, on patterns that never meet: COND missed the
/// match when the `C0` arrived.
#[test]
fn one_tuple_fills_two_ces_beside_a_third_class() {
    let src = "(literalize C0 a0 a1)\n(literalize C1 a0 a1)\n\
        (p R0 (C0 ^a0 <V0> ^a1 <V1>) (C1 ^a1 {< <V1>}) (C1 ^a0 2) -(C0 ^a1 <V0>) --> (remove 2))";
    check(&Case::named(src, &["+1 2 1", "+0 0 2"]));
}

/// One `Dept` at both negative nodes of a chain: removing it must
/// release the outer node before the inner one counts the token back in.
#[test]
fn removal_through_chained_negated_ces_counts_once() {
    let src = "(literalize Emp dno grade)\n(literalize Dept dno grade)\n\
        (p Lost (Emp ^dno <D> ^grade <G>) -(Dept ^dno <D>) -(Dept ^grade {<> <G>}) --> (remove 1))";
    check(&Case::named(
        src,
        &["+0 1 2", "+1 1 0", "+1 2 0", "-1 1 0", "-1 2 0"],
    ));
}

/// Constants and values at the edge of the numeric range: a float past
/// `i64::MAX` satisfies `>= 9e18`, and NaN sorts above every number. The
/// COND-relation index must prune neither away.
#[test]
fn extreme_values_match_on_every_engine() {
    let src = "(literalize C x)\n\
        (p Big (C ^x >= 9000000000000000000) --> (remove 1))\n\
        (p Past (C ^x > 9223372036854775807) --> (remove 1))";
    check(&Case::named(
        src,
        &["+0 1e19", "+0 NaN", "+0 9223372036854775807", "+0 0"],
    ));
}

/// Every engine emits the same conflict-delta events, change by change:
/// the identical ordered stream (the tracer's canonical order) on the
/// benchmark generator's two-way-join workload and on generated cases.
#[test]
fn trace_equivalence_on_conflict_deltas() {
    let cfg = RuleGenConfig {
        rules: 10,
        ces_per_rule: 2,
        domain: 3,
        negated_fraction: 0.25,
        seed: 11,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops: 120,
        delete_fraction: 0.3,
        join_domain: 2,
        select_domain: 3,
        seed: 12,
    };
    let mut case = Case::named(&cfg.source(), &[]);
    case.ops = (trace.trace(cfg.classes, cfg.attrs).into_iter())
        .map(Into::into)
        .collect();
    assert!(traced_deltas_agree(&case, 1, true) > 0);
    let effects: usize = (0..8)
        .map(|seed| traced_deltas_agree(&Case::generate(seed, Bias::Any), 1, true))
        .sum();
    assert!(
        effects > 0,
        "the cases should produce conflict-delta events"
    );
}
