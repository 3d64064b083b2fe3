//! §4.2.3 "the conflict set is updated first": in a COND maintenance pass
//! of one insert, the seeded expansion that adds the new instantiation
//! runs before the tuple's patterns are propagated — through `insert` and
//! through `apply_delta` alike, since both run the same `maintain_delta`.
//!
//! The order is read off the span profile (children in first-entry
//! order). The profiler is process-global; this file holds the only test
//! that enables it in this test binary.

use prodsys::{make_engine, ClassId, EngineKind, MatchEngine, ProductionDb, WmChange};
use relstore::tuple;

const SRC: &str = r#"
    (literalize A x)
    (literalize B x)
    (p Pair (A ^x <V>) (B ^x <V>) --> (remove 1))
"#;

/// The spans `pass` opened directly under `cond.maintain`, in order.
fn maintain_children(pass: impl FnOnce(&mut dyn MatchEngine) -> usize) -> Vec<String> {
    let rules = ops5::compile(SRC).expect("program compiles");
    let mut engine = make_engine(EngineKind::Cond, ProductionDb::new(rules).expect("pdb"));
    engine.insert(ClassId(1), tuple![1]);
    obs::prof::reset();
    obs::prof::set_enabled(true);
    let deltas = pass(engine.as_mut());
    obs::prof::set_enabled(false);
    assert_eq!(deltas, 1, "Pair over A(1), B(1)");
    let profile = obs::prof::take();
    let maintain = profile.find(&["cond.maintain"]).expect("one COND pass");
    maintain.children.iter().map(|c| c.name.clone()).collect()
}

#[test]
fn one_insert_pass_expands_before_it_propagates() {
    let want = ["detect", "expand", "propagate"];
    let insert = maintain_children(|e| e.insert(ClassId(0), tuple![1]).len());
    assert_eq!(insert, want, "insert");
    let batch = maintain_children(|e| {
        e.apply_delta(&[WmChange::Insert(ClassId(0), tuple![1])])
            .len()
    });
    assert_eq!(batch, want, "apply_delta of one insert");
}
