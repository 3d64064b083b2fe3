//! §5 concurrent execution equivalence: running instantiations as
//! concurrent worker transactions (strict 2PL, re-select / verify-absent
//! / RHS / maintenance-before-commit) must be invisible to the program —
//! the same instantiations commit and working memory converges to the
//! same final state as a sequential recognize-act run, for every engine,
//! worker count, and evaluation mode.
//!
//! The generated programs come from a confluent family (a `Mark` rule
//! gated by a negated CE plus a `Consume` rule that retires items), so
//! the *set* of committed transactions and the final WM are
//! order-independent even though the concurrent schedule is not.

mod common;

use common::wm_all;
use ops5::ClassId;
use prodsys::{
    make_engine, ConcurrentExecutor, EngineKind, ProductionDb, SequentialExecutor, Strategy,
};
use proptest::prelude::*;
use relstore::tuple;

const SRC: &str = r#"
    (literalize Item n k)
    (literalize Done n)
    (literalize Log n)
    (p Mark (Item ^n <N> ^k <K>) -(Done ^n <N>) --> (make Done ^n <N>))
    (p Consume (Item ^n <N> ^k <K>) (Done ^n <N>) --> (remove 1) (make Log ^n <N>))
"#;

/// Build an engine and load the randomized WM: every item inserted
/// tuple-at-a-time, then a few removed again by content (exercising the
/// maintenance remove path before execution starts).
fn load(
    kind: EngineKind,
    items: &[(i64, i64)],
    removes: &[usize],
) -> Box<dyn prodsys::MatchEngine> {
    let rules = ops5::compile(SRC).expect("program compiles");
    let mut engine = make_engine(kind, ProductionDb::new(rules).unwrap());
    for &(n, k) in items {
        engine.insert(ClassId(0), tuple![n, k]);
    }
    for &idx in removes {
        let (n, k) = items[idx];
        engine.remove(ClassId(0), &tuple![n, k]);
    }
    engine
}

/// Journal of the minimized workload that exposed the `self_removed`
/// mis-attribution: duplicate-content `Item` rows racing under 4
/// workers, where a `Consume` commit deletes one copy of a tuple whose
/// other copies still support pending instantiations. Refraction used to
/// credit the *maintenance* delta (which can observe every copy's
/// retirement under concurrency) instead of the transaction's own
/// applied RHS, and the conflict set would not drain. Replaying the
/// checked-in journal pins the fixed behavior: the recorded schedule
/// must reproduce exactly, firing-for-firing, down to the final WM.
#[test]
fn replays_checked_in_flake_fixture() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/flake_regression.jsonl"
    );
    let out = prodsys_bench::replay_run(path).expect("fixture journal replays w/o divergence");
    assert!(out.firings > 0, "fixture is non-trivial");
    assert_eq!(out.mode, "concurrent");
}

/// Maintenance helper — regenerate the fixture after a schema change:
/// `cargo test --test concurrent_equivalence -- --ignored regenerate`
#[test]
#[ignore]
fn regenerate_flake_fixture() {
    let items: &[(i64, i64)] = &[(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (2, 0), (2, 0)];
    let load = items
        .iter()
        .map(|&(n, k)| obs::LoadOp {
            insert: true,
            class: 0,
            values: vec![obs::LoadValue::Int(n), obs::LoadValue::Int(k)],
        })
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/flake_regression.jsonl"
    );
    let out =
        prodsys_bench::record_run_with(path, EngineKind::Query, 4, SRC, load, 10_000).unwrap();
    println!("fixture regenerated: {} firings -> {path}", out.fired);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every (engine, workers) concurrent configuration commits
    /// the same number of transactions and leaves the same final WM as
    /// the sequential executor on the same program and working memory.
    #[test]
    fn concurrent_matches_sequential(
        items in proptest::collection::vec((0i64..6, 0i64..4), 1..19),
        remove_idx in proptest::collection::vec(0usize..64, 0..4),
    ) {
        // Dedup removal targets so both loaders drop the same instances.
        let mut removes: Vec<usize> =
            remove_idx.iter().map(|i| i % items.len()).collect();
        removes.sort_unstable();
        removes.dedup();

        for kind in EngineKind::ALL {
            // Sequential baseline: classic recognize-act cycle.
            let mut seq = SequentialExecutor::new(load(kind, &items, &removes), Strategy::Canonical);
            let out = seq.run(10_000);
            let base_wm = wm_all(seq.engine());

            for workers in [1usize, 4] {
                let mut exec = ConcurrentExecutor::new(load(kind, &items, &removes), workers);
                let stats = exec.run(10_000);
                let label = format!("{} workers={workers}", kind.label());
                prop_assert_eq!(
                    stats.committed, out.fired,
                    "{}: committed txns vs sequential firings", &label
                );
                prop_assert!(!stats.halted, "{}: no halt in this program", &label);
                let engine = exec.engine();
                let g = engine.lock();
                prop_assert_eq!(
                    wm_all(&**g), base_wm.clone(),
                    "{}: final working memory", &label
                );
                prop_assert_eq!(
                    g.conflict_set().len(), 0,
                    "{}: quiescent conflict set", &label
                );
            }
        }
    }

    /// Worker count is invisible to the program: for 1, 4 and 16
    /// workers the concurrent run commits the same transactions,
    /// converges to the same WM, and leaves the same refraction state (a
    /// second run fires nothing) as the sequential oracle.
    #[test]
    fn many_workers_match_sequential_and_drain_refraction(
        items in proptest::collection::vec((0i64..6, 0i64..4), 1..19),
        remove_idx in proptest::collection::vec(0usize..64, 0..4),
    ) {
        let mut removes: Vec<usize> =
            remove_idx.iter().map(|i| i % items.len()).collect();
        removes.sort_unstable();
        removes.dedup();

        for kind in [EngineKind::Query, EngineKind::Cond] {
            // Oracle: sequential recognize-act.
            let mut seq = SequentialExecutor::new(
                load(kind, &items, &removes),
                Strategy::Canonical,
            );
            let out = seq.run(10_000);
            let base_wm = wm_all(seq.engine());

            for workers in [1usize, 4, 16] {
                let mut exec = ConcurrentExecutor::new(load(kind, &items, &removes), workers);
                let stats = exec.run(10_000);
                let label = format!("{} workers={workers}", kind.label());
                prop_assert_eq!(
                    stats.committed, out.fired,
                    "{}: committed txns vs sequential firings", &label
                );
                {
                    let engine = exec.engine();
                    let g = engine.lock();
                    prop_assert_eq!(
                        wm_all(&**g), base_wm.clone(),
                        "{}: final working memory", &label
                    );
                    prop_assert_eq!(
                        g.conflict_set().len(), 0,
                        "{}: quiescent conflict set", &label
                    );
                }
                // Everything that could fire already has, so a second
                // pass is a no-op.
                let again = exec.run(10_000);
                prop_assert_eq!(
                    again.committed, 0,
                    "{}: refraction state drained", &label
                );
            }
        }
    }
}
