//! One recognize-act cycle and one match-maintenance call must not pay
//! for the size of the rule base, nor a removal for the size of the
//! conflict set, nor an insertion for the size of working memory:
//! `SequentialExecutor::step` used to deep-copy the whole `RuleSet` (and
//! the fired rule) per firing, the COND engine a `Rule` per rule on the
//! changed class per call, a departed blocker re-evaluated its whole rule,
//! and a seeded expansion probed the first indexed equality — the CE's
//! constant — instead of the join key. Allocation is counted by
//! `obs::alloc::CountingAlloc`, which is per-binary and process-global —
//! hence a test binary with exactly one test.

use prodsys::{
    make_engine, ClassId, EngineKind, MatchEngine, ProductionDb, SequentialExecutor, Strategy,
};
use relstore::tuple;

#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

/// Bytes allocated by `measured`.
fn bytes_of<R>(measured: impl FnOnce() -> R) -> (R, u64) {
    obs::alloc::reset();
    obs::prof::set_enabled(true);
    let result = measured();
    obs::prof::set_enabled(false);
    (result, obs::alloc::stats().bytes)
}

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
    let (fired, bytes) = bytes_of(|| exec.step());
    assert!(fired.is_some(), "Note fires");
    bytes
}

/// The `Orphan` program — `A` rows without a `B` row of the same `x` —
/// with `inert` more rules over the same two classes whose constant tests
/// no tuple of the test satisfies, on `kind`.
fn orphan_engine(kind: EngineKind, inert: usize) -> Box<dyn MatchEngine> {
    let mut src = String::from(
        "(literalize A x y)(literalize B x y)(literalize Log x)\n\
         (p Orphan (A ^x <V>) -(B ^x <V>) --> (make Log ^x <V>))\n",
    );
    for i in 0..inert {
        let y = 1000 + i;
        src.push_str(&format!(
            "(p Inert{i} (A ^x <V> ^y {y}) -(B ^x <V> ^y {y}) --> (make Log ^x <V>))\n"
        ));
    }
    let rules = ops5::compile(&src).expect("program compiles");
    make_engine(kind, ProductionDb::new(rules).expect("pdb"))
}

/// Bytes allocated by one COND `maintain_remove`: the blocker `B(7,1)`
/// leaves, and `Orphan` over `A(7,1)` comes back.
fn cond_remove_bytes(inert: usize) -> u64 {
    let (a, b) = (ClassId(0), ClassId(1));
    let mut engine = orphan_engine(EngineKind::Cond, inert);
    for x in 0..20i64 {
        engine.insert(a, tuple![x, 1]);
    }
    engine.insert(b, tuple![7, 1]);
    assert_eq!(engine.conflict_set().len(), 19);
    let blocker = tuple![7, 1];
    let tid = engine
        .pdb()
        .remove_wm_equal(b, &blocker)
        .expect("wm remove")
        .expect("the blocker is stored");
    let (deltas, bytes) = bytes_of(|| engine.maintain_remove(b, tid, &blocker));
    assert_eq!(deltas.len(), 1, "Orphan over A(7,1) is unblocked");
    bytes
}

/// Bytes allocated by one Query `maintain_insert` that adds one `Orphan`.
fn query_insert_bytes(inert: usize) -> u64 {
    let a = ClassId(0);
    let mut engine = orphan_engine(EngineKind::Query, inert);
    for x in 0..20i64 {
        engine.insert(a, tuple![x, 1]);
    }
    let row = tuple![20, 1];
    let tid = engine.pdb().insert_wm(a, row.clone()).expect("wm insert");
    let (deltas, bytes) = bytes_of(|| engine.maintain_insert(a, tid, &row));
    assert_eq!(deltas.len(), 1, "Orphan over A(20,1)");
    bytes
}

/// Bytes allocated and logical I/O of removing the two `B(7,1)` blockers
/// of `Orphan` one after the other, with `rows` rows of `A` — `rows - 1`
/// instantiations in the conflict set that the removals do not concern.
/// The first removal leaves a blocker behind and changes nothing; the
/// second revives `Orphan` over `A(7,1)`, whose insertion may grow an
/// index node, so only its I/O is reported.
fn blocker_removal_cost(rows: i64) -> (u64, u64, u64) {
    let (a, b) = (ClassId(0), ClassId(1));
    let mut engine = orphan_engine(EngineKind::Cond, 0);
    for x in 0..rows {
        engine.insert(a, tuple![x, 1]);
    }
    let blocker = tuple![7, 1];
    engine.insert(b, blocker.clone());
    engine.insert(b, blocker.clone());
    assert_eq!(engine.conflict_set().len() as i64, rows - 1);
    let mut remove_one = |revived: usize| {
        let db = engine.pdb().db().clone();
        let tid = engine
            .pdb()
            .remove_wm_equal(b, &blocker)
            .expect("wm remove")
            .expect("a blocker is stored");
        let before = db.stats().snapshot();
        let (deltas, bytes) = bytes_of(|| engine.maintain_remove(b, tid, &blocker));
        assert_eq!(deltas.len(), revived);
        (bytes, db.stats().snapshot().since(&before).logical_io())
    };
    let (still_blocked_bytes, still_blocked_io) = remove_one(0);
    let (_, revived_io) = remove_one(1);
    (still_blocked_bytes, still_blocked_io, revived_io)
}

/// Bytes allocated and logical I/O of one COND `maintain_insert`: `A(7,1)`
/// arrives and pairs with `B(7,1)`, one of `rows` rows of `B` that all
/// pass their CE's constant test `^y 1`.
fn cond_insert_cost(rows: i64) -> (u64, u64) {
    let (a, b) = (ClassId(0), ClassId(1));
    let rules = ops5::compile(
        "(literalize A x y)(literalize B x y)(literalize Log x)\n\
         (p Pair (A ^x <V> ^y 1) (B ^x <V> ^y 1) --> (make Log ^x <V>))\n",
    )
    .expect("program compiles");
    let mut engine = make_engine(EngineKind::Cond, ProductionDb::new(rules).expect("pdb"));
    for x in 0..rows {
        engine.insert(b, tuple![x, 1]);
    }
    // Once unmeasured: the slots, chain entries and buffers the insertion
    // needs exist from then on.
    let row = tuple![7, 1];
    engine.insert(a, row.clone());
    engine.remove(a, &row);
    let db = engine.pdb().db().clone();
    let tid = engine.pdb().insert_wm(a, row.clone()).expect("wm insert");
    let before = db.stats().snapshot();
    let (deltas, bytes) = bytes_of(|| engine.maintain_insert(a, tid, &row));
    assert_eq!(deltas.len(), 1, "Pair over A(7,1), B(7,1)");
    (bytes, db.stats().snapshot().since(&before).logical_io())
}

#[test]
fn allocation_is_independent_of_rule_count_and_conflict_set_size() {
    // The first spans of a process allocate their profile nodes.
    blocker_removal_cost(10);
    cond_insert_cost(10);
    assert_eq!(
        blocker_removal_cost(500),
        blocker_removal_cost(8000),
        "removing a blocker reads and allocates by the size of the conflict set"
    );
    assert_eq!(
        cond_insert_cost(500),
        cond_insert_cost(8000),
        "one COND insertion reads and allocates by the size of working memory"
    );

    type Measure = fn(usize) -> u64;
    let cases: [(&str, Measure); 3] = [
        ("step()", step_bytes),
        ("COND maintain_remove", cond_remove_bytes),
        ("Query maintain_insert", query_insert_bytes),
    ];
    for (what, measure) in cases {
        let (small, large) = (measure(0), measure(200));
        assert!(small > 0, "the counting allocator is installed");
        assert!(
            large <= small,
            "one {what} allocated {small} B with 1 rule but {large} B with 201"
        );
    }
}
