//! Executor-level cross-engine equivalence: full recognize-act *runs*
//! (not just matching) must produce identical working memories and
//! firing counts on every engine, including modify-heavy programs.

mod common;

use common::wm_all;
use ops5::ClassId;
use prodsys::{make_engine, EngineKind, ProductionDb, SequentialExecutor, Strategy};
use relstore::Tuple;

/// Run with the Canonical strategy: selection depends only on conflict-set
/// *content*, so equivalent engines must produce identical trajectories
/// even for non-confluent programs (Fifo/Lifo order is an engine-internal
/// freedom the paper leaves "arbitrary").
fn run_all_engines(src: &str, load: &[(usize, Tuple)], max_cycles: usize) {
    let rules = ops5::compile(src).unwrap();
    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let mut ex = SequentialExecutor::new(
            make_engine(kind, ProductionDb::new(rules.clone()).unwrap()),
            Strategy::Canonical,
        );
        for (c, t) in load {
            ex.insert(ClassId(*c), t.clone());
        }
        let out = ex.run(max_cycles);
        results.push((
            kind.label(),
            out.fired,
            out.writes.clone(),
            wm_all(ex.engine()),
        ));
    }
    let (base_name, base_fired, base_writes, base_wm) = &results[0];
    for (name, fired, writes, wm) in &results[1..] {
        assert_eq!(base_fired, fired, "{base_name} vs {name}: firing count");
        assert_eq!(base_writes, writes, "{base_name} vs {name}: write log");
        assert_eq!(base_wm, wm, "{base_name} vs {name}: final WM");
    }
}

/// A modify-heavy state machine: tokens ratchet through states until done.
#[test]
fn state_machine_runs_identically() {
    use relstore::tuple;
    let src = r#"
        (literalize Job id state tries)
        (p Advance1 (Job ^id <I> ^state s0) --> (modify 1 ^state s1))
        (p Advance2 (Job ^id <I> ^state s1) --> (modify 1 ^state s2))
        (p Advance3 (Job ^id <I> ^state s2) --> (modify 1 ^state done) (write done <I>))
    "#;
    let load: Vec<(usize, Tuple)> = (0..6i64).map(|i| (0, tuple![i, "s0", 0])).collect();
    run_all_engines(src, &load, 100);
}

/// Cascading make/remove: firing one rule enables the next.
#[test]
fn cascade_runs_identically() {
    use relstore::tuple;
    let src = r#"
        (literalize A x)
        (literalize B x)
        (literalize C x)
        (p AtoB (A ^x <V>) --> (remove 1) (make B ^x <V>))
        (p BtoC (B ^x <V>) --> (remove 1) (make C ^x <V>))
    "#;
    let load: Vec<(usize, Tuple)> = (0..8i64).map(|i| (0, tuple![i])).collect();
    run_all_engines(src, &load, 100);
}

/// Negation-gated production with churn: the blocked rule must re-fire
/// identically as blockers come and go during the run.
#[test]
fn negation_churn_runs_identically() {
    use relstore::tuple;
    let src = r#"
        (literalize Req id)
        (literalize Lock id)
        (literalize Grant id)
        (p Acquire
            (Req ^id <I>)
            -(Lock ^id <I>)
            -->
            (remove 1)
            (make Lock ^id <I>)
            (make Grant ^id <I>))
        (p Coalesce
            (Req ^id <I>)
            (Lock ^id <I>)
            -->
            (remove 1)
            (write coalesced <I>))
    "#;
    // Duplicate requests per id: the first acquires, the rest coalesce.
    let mut load: Vec<(usize, Tuple)> = Vec::new();
    for i in 0..4i64 {
        for _ in 0..3 {
            load.push((0, tuple![i]));
        }
    }
    run_all_engines(src, &load, 200);
}

/// Randomized programs from the workload generator, executed to
/// quiescence on every engine.
#[test]
fn generated_programs_run_identically() {
    use workload::{Op, RuleGenConfig, TraceConfig};
    for seed in [21u64, 22, 23] {
        let cfg = RuleGenConfig {
            rules: 10,
            ces_per_rule: 2,
            domain: 3,
            negated_fraction: 0.3,
            seed,
            ..Default::default()
        };
        let src = cfg.source();
        let trace = TraceConfig {
            ops: 40,
            delete_fraction: 0.0,
            join_domain: 2,
            select_domain: 3,
            seed: seed + 100,
        }
        .trace(cfg.classes, cfg.attrs);
        let load: Vec<(usize, Tuple)> = trace
            .into_iter()
            .filter_map(|op| match op {
                Op::Insert(c, t) => Some((c, t)),
                Op::Remove(..) => None,
            })
            .collect();
        run_all_engines(&src, &load, 300);
    }
}
