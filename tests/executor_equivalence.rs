//! Executor-level cross-engine equivalence: after its trace every case
//! the driver checks runs to its cycle cap under the canonical strategy
//! on every engine, and the outcomes (firings, writes, limit) and final
//! working memories must agree, including modify-heavy and
//! non-confluent programs.

mod common;

use common::differential::{check, sweep_block};
use common::grammar::{Bias, Case};

/// The ops `each(0)`, …, `each(n - 1)`.
fn ops(n: usize, each: impl Fn(usize) -> String) -> Vec<String> {
    (0..n).map(each).collect()
}

fn run(src: &str, ops: &[String]) {
    let ops: Vec<&str> = ops.iter().map(String::as_str).collect();
    assert!(
        !check(&Case::named(src, &ops)).0.limited,
        "the program reaches quiescence"
    );
}

/// A modify-heavy state machine: tokens ratchet through states until done.
#[test]
fn state_machine_runs_identically() {
    let src = r#"
        (literalize Job id state tries)
        (p Advance1 (Job ^id <I> ^state s0) --> (modify 1 ^state s1))
        (p Advance2 (Job ^id <I> ^state s1) --> (modify 1 ^state s2))
        (p Advance3 (Job ^id <I> ^state s2) --> (modify 1 ^state done) (write done <I>))
    "#;
    run(src, &ops(6, |i| format!("+0 {i} s0 0")));
}

/// Cascading make/remove: firing one rule enables the next.
#[test]
fn cascade_runs_identically() {
    let src = r#"
        (literalize A x)
        (literalize B x)
        (literalize C x)
        (p AtoB (A ^x <V>) --> (remove 1) (make B ^x <V>))
        (p BtoC (B ^x <V>) --> (remove 1) (make C ^x <V>))
    "#;
    run(src, &ops(8, |i| format!("+0 {i}")));
}

/// Negation-gated production with churn: duplicate requests per id; the
/// first acquires, the rest coalesce.
#[test]
fn negation_churn_runs_identically() {
    let src = r#"
        (literalize Req id)
        (literalize Lock id)
        (literalize Grant id)
        (p Acquire (Req ^id <I>) -(Lock ^id <I>)
            --> (remove 1) (make Lock ^id <I>) (make Grant ^id <I>))
        (p Coalesce (Req ^id <I>) (Lock ^id <I>) --> (remove 1) (write coalesced <I>))
    "#;
    run(src, &ops(12, |i| format!("+0 {}", i / 3)));
}

/// Once the tuple a firing makes equals the one it matched, `remove 1`
/// deleted the made copy on the engines that track tuple ids, which then
/// stopped while Rete fired on. The matched WME's removal now comes
/// first, and every engine loops to the cap.
#[test]
fn remove_after_an_equal_make_deletes_the_matched_wme() {
    let src = "(literalize C0 a0 a1 a2)\n(literalize C1 a0 a1)\n\
        (p R0 (C1 ^a0 <V0>) -(C0 ^a0 {>= <V0>}) --> (make C1 ^a0 <V0> ^a1 2) (remove 1))";
    let mut case = Case::named(src, &["+1 9223372036854775807 0"]);
    case.cycles = 20;
    assert_eq!(check(&case).0.fired, 20);
}

/// R1's `modify` makes a `C0` that blocks R0 and its `remove` takes it
/// away again: one pass. Rete and COND retracted R0's fired
/// instantiation and added it back, which released its refraction
/// charge, so it fired again there and not on the set-oriented engines.
#[test]
fn blocker_made_and_removed_by_one_firing_keeps_refraction() {
    let src = "(literalize C0 a0 a1)\n(literalize C1 a0 a1)\n\
        (p R0 (C1 ^a0 <= a ^a1 < 9000000000000000000) -(C0 ^a1 1e19) -(C0 ^a0 a) \
        --> (write r0 1) (make C1 ^a0 1 ^a1 a))\n\
        (p R1 (C0 ^a0 >= 2.0 ^a1 > -1e19) -(C0 ^a1 -1e19) --> (modify 1 ^a0 a) (remove 1))";
    let case = Case::named(
        src,
        &["+0 9000000000000000000 1.0", "+1 -9000000000000000000 0"],
    );
    assert_eq!(check(&case).0.fired, 2);
}

/// Includes seed 148, whose duplicate `C0(nil, nil)` rows made COND keep
/// instantiations of rows an aborted transaction had put back under a
/// new tuple id (see `differential::conc_rolled_back_delete_keeps_its_tuple_id`).
#[test]
fn generated_programs_run_identically() {
    sweep_block(10, Bias::Any);
}
