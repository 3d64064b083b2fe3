//! One recognize-act cycle must not pay for the size of the rule base:
//! `SequentialExecutor::step` used to deep-copy the whole `RuleSet` (and
//! the fired rule) per firing. Allocation is counted by
//! `obs::alloc::CountingAlloc`, which is per-binary and process-global —
//! hence a test binary with exactly one test.

use prodsys::{make_engine, ClassId, EngineKind, ProductionDb, SequentialExecutor, Strategy};
use relstore::tuple;

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

/// Bytes allocated by one `step()` of the one-rule `Note` program with
/// `inert` never-matching rules appended.
fn step_bytes(inert: usize) -> u64 {
    let mut src = String::from(
        "(literalize A x)(literalize Log x)(literalize Never x)\n\
         (p Note (A ^x <V>) --> (make Log ^x <V>))\n",
    );
    for i in 0..inert {
        src.push_str(&format!(
            "(p Inert{i} (Never ^x {i}) (Never ^x <V>) --> (make Log ^x <V>) (remove 1))\n"
        ));
    }
    let rules = ops5::compile(&src).expect("program compiles");
    let engine = make_engine(EngineKind::Rete, ProductionDb::new(rules).expect("pdb"));
    let mut exec = SequentialExecutor::new(engine, Strategy::Fifo);
    exec.insert(ClassId(0), tuple![1]);
    obs::alloc::reset();
    obs::prof::set_enabled(true);
    let fired = exec.step();
    obs::prof::set_enabled(false);
    assert!(fired.is_some(), "Note fires");
    obs::alloc::stats().bytes
}

#[test]
fn step_allocation_is_independent_of_rule_count() {
    let (small, large) = (step_bytes(0), step_bytes(200));
    assert!(small > 0, "the counting allocator is installed");
    assert!(
        large <= small,
        "one step() allocated {small} B with 1 rule but {large} B with 201"
    );
}
