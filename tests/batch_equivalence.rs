//! Set-oriented batch matching equivalences (the executor's own
//! plan-vs-plan equivalence is checked against the brute-force oracle in
//! `tests/query_oracle.rs`):
//!
//! * delta-batched loading (`insert_batch`) leaves every engine in the
//!   same state as tuple-at-a-time loading.

mod common;

use common::wm_all;
use ops5::ClassId;
use prodsys::{
    make_engine, EngineKind, ProductionDb, ProductionSystem, SequentialExecutor, Strategy, WmChange,
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
/// and the same run trajectory as tuple-at-a-time inserts.
#[test]
fn insert_batch_matches_per_tuple_loading() {
    use relstore::tuple;
    let refs: Vec<Tuple> = (0..4i64).map(|r| tuple![r, r * 10]).collect();
    let items: Vec<Tuple> = (0..24i64).map(|i| tuple![i, i % 6]).collect();
    for kind in EngineKind::ALL {
        let mut results = Vec::new();
        for (label, batched_load) in [("per-tuple", false), ("batch", true)] {
            let mut sys = ProductionSystem::from_source(LOAD_SRC, kind, Strategy::Canonical)
                .expect("program compiles");
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
