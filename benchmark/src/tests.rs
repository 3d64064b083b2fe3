//! `cargo test --manifest-path benchmark/Cargo.toml`: the benchmark's
//! own contract, checked at `--quick` sizes.

use obs::json::{self, Value};
use prodsys::{make_engine, ProductionDb, SequentialExecutor, Strategy};

use crate::report::{judge, Verdict};
use crate::trace::{EngineCounts, Recorder, TimedEngine};
use crate::workloads::{inputs, Sizes, Workload, DEFAULT_SEED};
use crate::{bench_dir, run_workload};

/// The seed no number in this repository was tuned on (README, "Seeds").
const HELD_OUT_SEED: u64 = 4242;

fn spec() -> Value {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json")).expect("spec");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Value, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Value::as_array)
        .expect("list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("name").into())
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
}

/// One pass over every workload, both trace modes and both listed seeds:
/// names match `BENCHMARK.json`, every declared metric is printed, no
/// check fails, and no data directory survives a run. (One test, because
/// runs of one workload share a data directory per process.)
#[test]
fn every_workload_prints_every_declared_metric_and_cleans_up() {
    let spec = spec();
    let declared = names(&spec, "workloads");
    assert_eq!(declared, Workload::ALL.map(|w| w.name().to_string()));
    let (end_to_end, per_layer) = (names(&spec, "end_to_end"), names(&spec, "per_layer"));
    for name in declared.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(name), "{name}");
    }
    for w in Workload::ALL {
        for (seed, traced) in [
            (DEFAULT_SEED, false),
            (DEFAULT_SEED, true),
            (HELD_OUT_SEED, false),
        ] {
            let out = run_workload(w, seed, 0.0, traced, Sizes::quick());
            assert_eq!(out.failed, 0, "{} seed {seed}", w.name());
            assert!(out.attempted >= 1);
            let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want = if traced { &per_layer } else { &end_to_end };
            assert_eq!(&printed, want, "{} traced={traced}", w.name());
            if !traced {
                for m in &out.metrics {
                    assert!(m.value > 0.0, "{} {} must never be 0", w.name(), m.name);
                }
            }
        }
        assert!(bench_dir()
            .join(format!("out/trace-{}.json", w.name()))
            .exists());
    }
    let left: Vec<_> = std::fs::read_dir(bench_dir().join("out/data"))
        .expect("data dir")
        .collect();
    assert!(left.is_empty(), "data directories survive: {left:?}");
}

/// Wrapping an engine in `TimedEngine` changes no firing.
#[test]
fn timed_engine_fires_what_the_bare_engine_fires() {
    for w in [Workload::StreamCond, Workload::StreamRete] {
        let input = inputs(w, DEFAULT_SEED, &Sizes::quick());
        let fired = |timed: bool| {
            let rules = ops5::compile(&input.src).expect("compiles");
            let mut engine = make_engine(w.engine(), ProductionDb::new(rules).expect("relations"));
            if timed {
                engine = TimedEngine::wrap(engine, Recorder::new(), Default::default());
            }
            let mut exec = SequentialExecutor::new(engine, Strategy::Fifo);
            for (insert, class, tuple) in &input.changes {
                if *insert {
                    exec.insert(*class, tuple.clone());
                } else {
                    exec.remove(*class, tuple);
                }
            }
            let firings: Vec<_> = std::iter::from_fn(|| exec.step().map(|f| f.0)).collect();
            (firings, exec.engine().conflict_set().sorted())
        };
        let (bare, timed) = (fired(false), fired(true));
        assert!(!bare.0.is_empty(), "{}: the input fires rules", w.name());
        assert_eq!(bare, timed, "{}", w.name());
    }
    // The counters see every maintenance call the executor makes.
    let counts = std::sync::Arc::new(EngineCounts::default());
    let input = inputs(Workload::StreamRete, DEFAULT_SEED, &Sizes::quick());
    let rules = ops5::compile(&input.src).expect("compiles");
    let engine = make_engine(
        Workload::StreamRete.engine(),
        ProductionDb::new(rules).expect("relations"),
    );
    let mut engine = TimedEngine::wrap(engine, Recorder::new(), counts.clone());
    for (_, class, tuple) in input.changes.iter().filter(|c| c.0) {
        engine.insert(*class, tuple.clone());
    }
    let inserts = input.changes.iter().filter(|c| c.0).count() as u64;
    assert_eq!(counts.snapshot().0, inserts);
}

/// `compare`'s verdicts: within the bound, beyond it, a baseline too noisy
/// to tell, and a `failed_share` that rises from 0.
#[test]
fn judge_applies_bound_spread_and_zero_baseline() {
    let mut base = [100.0, 101.0, 99.0, 100.0];
    assert_eq!(judge(&mut base, &mut [95.0], true, 0.1), Verdict::Ok);
    assert_eq!(judge(&mut base, &mut [85.0], true, 0.1), Verdict::Regressed);
    assert_eq!(judge(&mut base, &mut [115.0], true, 0.1), Verdict::Ok);
    assert_eq!(
        judge(&mut base, &mut [115.0], false, 0.1),
        Verdict::Regressed
    );
    let mut noisy = [60.0, 100.0, 140.0, 100.0];
    assert_eq!(
        judge(&mut noisy, &mut [50.0], true, 0.1),
        Verdict::Unresolved
    );
    assert_eq!(judge(&mut [0.0], &mut [0.0], false, 0.0), Verdict::Ok);
    assert_eq!(
        judge(&mut [0.0], &mut [0.001], false, 0.0),
        Verdict::Regressed
    );
}
