//! Set-oriented batch matching equivalences (the executor's own
//! plan-vs-plan equivalence is checked against the brute-force oracle in
//! `tests/query_oracle.rs`):
//!
//! * delta-batched loading (`insert_batch`) leaves every engine in the
//!   same state as tuple-at-a-time loading;
//! * parallel COND propagation fires the same rules in the same order as
//!   serial propagation.

mod common;

use common::wm_all;
use ops5::ClassId;
use prodsys::{
    make_engine, CondEngine, EngineKind, ProductionDb, ProductionSystem, SequentialExecutor,
    Strategy, WmChange,
};
use relstore::Tuple;
use workload::{Op, RuleGenConfig, TraceConfig};

const LOAD_SRC: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (literalize Hit n)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) -(Hit ^n <N>) --> (make Hit ^n <N>))
    (p Retire (Item ^n <N>) (Hit ^n <N>) --> (remove 1) (remove 2) (write retired <N>))
"#;

/// Loading a delta set through `insert_batch` (one set-oriented
/// maintenance pass) must leave every engine with the same conflict set
/// and the same run trajectory as tuple-at-a-time inserts — in both the
/// set-oriented and the nested-loop evaluation modes.
#[test]
fn insert_batch_matches_per_tuple_loading() {
    use relstore::tuple;
    let refs: Vec<Tuple> = (0..4i64).map(|r| tuple![r, r * 10]).collect();
    let items: Vec<Tuple> = (0..24i64).map(|i| tuple![i, i % 6]).collect();
    for kind in EngineKind::ALL {
        let mut results = Vec::new();
        for (label, batched_load, set_oriented) in [
            ("per-tuple", false, true),
            ("batch", true, true),
            ("batch nested-loop", true, false),
        ] {
            let mut sys = ProductionSystem::from_source(LOAD_SRC, kind, Strategy::Canonical)
                .expect("program compiles");
            sys.set_batching(set_oriented);
            if batched_load {
                sys.insert_batch("Ref", refs.clone()).unwrap();
                sys.insert_batch("Item", items.clone()).unwrap();
            } else {
                for t in &refs {
                    sys.insert("Ref", t.clone()).unwrap();
                }
                for t in &items {
                    sys.insert("Item", t.clone()).unwrap();
                }
            }
            let conflict = sys.engine().conflict_set().sorted();
            let out = sys.run(10_000);
            results.push((label, conflict, out.fired, out.writes, wm_all(sys.engine())));
        }
        let (base_label, base_conflict, base_fired, base_writes, base_wm) = &results[0];
        for (label, conflict, fired, writes, wm) in &results[1..] {
            let pair = format!("{} {base_label} vs {label}", kind.label());
            assert_eq!(base_conflict, conflict, "{pair}: loaded conflict set");
            assert_eq!(base_fired, fired, "{pair}: firing count");
            assert_eq!(base_writes, writes, "{pair}: write log");
            assert_eq!(base_wm, wm, "{pair}: final WM");
        }
    }
}

/// Real (threaded) parallel COND propagation must be invisible to the
/// recognize-act cycle: same conflict set after loading, and the same
/// instantiations fired in the same order through a full run.
#[test]
fn parallel_cond_run_matches_serial() {
    use relstore::tuple;
    let src = r#"
        (literalize A x y)
        (literalize B x y)
        (literalize C x y)
        (literalize Out x)
        (p Wide (A ^x <X> ^y <Y>) (B ^x <X>) (C ^y <Y>) --> (remove 1) (make Out ^x <X>))
        (p Gated (B ^x <X> ^y <Y>) -(C ^x <X>) --> (remove 1) (make Out ^x <X>))
    "#;
    let rules = ops5::compile(src).expect("program compiles");
    let mut runs = Vec::new();
    for parallel in [false, true] {
        let mut engine = CondEngine::new(ProductionDb::new(rules.clone()).unwrap());
        engine.set_parallel(parallel);
        let mut ex = SequentialExecutor::new(Box::new(engine), Strategy::Canonical);
        for i in 0..12i64 {
            ex.insert(ClassId(0), tuple![i % 4, i % 3]);
            ex.insert(ClassId(1), tuple![i % 5, i % 2]);
            if i % 2 == 0 {
                ex.insert(ClassId(2), tuple![i % 3, i % 3]);
            }
        }
        let conflict = ex.engine().conflict_set().sorted();
        let mut firings = Vec::new();
        while let Some((inst, _, writes)) = ex.step() {
            firings.push((format!("{inst:?}"), writes));
            if firings.len() > 500 {
                break;
            }
        }
        runs.push((conflict, firings, wm_all(ex.engine())));
    }
    assert_eq!(runs[0].0, runs[1].0, "loaded conflict set");
    assert_eq!(
        runs[0].1, runs[1].1,
        "fired instantiations and their writes, in order"
    );
    assert_eq!(runs[0].2, runs[1].2, "final WM");
}

/// Cross-check the scaled benchmark workload invariant the snapshots
/// rely on: every engine row reports the same deterministic fired count.
#[test]
fn engines_agree_on_generated_delta_batches() {
    let cfg = RuleGenConfig {
        rules: 8,
        ces_per_rule: 3,
        domain: 3,
        negated_fraction: 0.4,
        seed: 7,
        ..Default::default()
    };
    let rules = ops5::compile(&cfg.source()).expect("generated program compiles");
    let trace = TraceConfig {
        ops: 30,
        delete_fraction: 0.2,
        join_domain: 2,
        select_domain: 3,
        seed: 99,
    }
    .trace(cfg.classes, cfg.attrs);
    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let mut ex = SequentialExecutor::new(
            make_engine(kind, ProductionDb::new(rules.clone()).unwrap()),
            Strategy::Canonical,
        );
        // Apply the random insert/remove trace as one delta set per
        // engine — removes of absent tuples must be dropped identically.
        let changes: Vec<WmChange> = trace
            .iter()
            .map(|op| match op {
                Op::Insert(c, t) => WmChange::Insert(ClassId(*c), t.clone()),
                Op::Remove(c, t) => WmChange::Remove(ClassId(*c), t.clone()),
            })
            .collect();
        // Engines apply the resulting deltas to their own conflict sets;
        // the return value only feeds the executor's refraction memory.
        let _ = ex.engine_mut().apply_delta(&changes);
        results.push((kind.label(), ex.engine().conflict_set().sorted()));
    }
    let (base_name, base) = &results[0];
    for (name, conflict) in &results[1..] {
        assert_eq!(base, conflict, "{base_name} vs {name}");
    }
}
