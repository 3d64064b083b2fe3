//! The instrumented run behind `harness --trace` / `--report`.
//!
//! One tracer — and therefore one shared metrics registry — is threaded
//! through a sequential pass of the same demo program on all five engines
//! plus a §5 concurrent pass, so a single JSON report carries per-rule
//! fire counts, match-latency histograms, a detect/maintain split per
//! engine, and lock-contention totals.

use std::sync::Arc;
use std::time::Instant;

use obs::json::Obj;
use obs::{Event, RunReport, Sink, Tracer};
use prodsys::{plans_to_json, ConcurrentStats, EngineKind, MatchPlan, ProductionSystem, Strategy};
use relstore::tuple;
use workload::paper;

use crate::cli::Args;
use crate::experiments::{concurrent_pass, Table, SKEWED};

/// Chained demo program: `Mark` tags every `Item`, `Tally` consumes
/// tagged items into `Total`. Every cycle both grows and shrinks the
/// conflict set, so all per-rule counters come out non-trivial.
pub(crate) const OBS_DEMO: &str = r#"
    (literalize Item n v)
    (literalize Done n)
    (literalize Total n v)
    (p Mark (Item ^n <N> ^v <V>) -(Done ^n <N>) --> (make Done ^n <N>))
    (p Tally (Item ^n <N> ^v <V>) (Done ^n <N>) --> (remove 1) (make Total ^n <N> ^v <V>))
"#;

const OBS_ITEMS: i64 = 24;
const OBS_WORKERS: usize = 4;

/// Paper Example 3 (R1, R2) plus a negated-CE rule: `NoDept` audits
/// employees whose department is missing — the workload behind
/// `harness --explain`, chosen so a derivation with an *absent pattern*
/// is always among the firings.
pub(crate) const EXPLAIN_DEMO: &str = r#"
    (literalize Emp name salary manager dno)
    (literalize Dept dno dname floor manager)
    (literalize Audit name)
    (p R1
        (Emp ^name Mike ^salary <S> ^manager <M>)
        (Emp ^name <M> ^salary {<S1> < <S>})
        -->
        (remove 1))
    (p R2
        (Emp ^dno <D>)
        (Dept ^dno <D> ^dname Toy ^floor 1)
        -->
        (remove 1))
    (p NoDept
        (Emp ^name <N> ^dno <D>)
        -(Dept ^dno <D>)
        -->
        (make Audit ^name <N>)
        (remove 1))
"#;

/// What [`observability_run`] produced, for the harness to print.
pub struct ObsRun {
    /// The rendered `--report` JSON document.
    pub report_json: String,
    /// Productions fired across the five sequential passes.
    pub fired: u64,
    /// Stats of the §5 concurrent pass.
    pub concurrent: ConcurrentStats,
}

/// Run the instrumented demo ([`instrumented_run`]), streaming JSONL
/// events to `trace` and writing the report JSON to `report` when those
/// paths are given; a file that cannot be written fails the run with
/// `cannot write PATH: …`.
pub fn observability_run(trace: Option<&str>, report: Option<&str>) -> Result<ObsRun, String> {
    let cannot_write = |path: &str, e: std::io::Error| format!("cannot write {path}: {e}");
    let sink = match trace {
        Some(path) => Sink::jsonl_file(path).map_err(|e| cannot_write(path, e))?,
        None => Sink::Null,
    };
    let tracer = Tracer::new(sink);
    let run = instrumented_run(&tracer);
    if let Some(path) = trace {
        tracer.flush().map_err(|e| cannot_write(path, e))?;
    }
    if let Some(path) = report {
        std::fs::write(path, &run.report_json).map_err(|e| cannot_write(path, e))?;
    }
    Ok(run)
}

/// The instrumented demo on `tracer`: a sequential pass over all five
/// engines (sharing one tracer, so the report's detect/maintain section
/// covers each engine) followed by a §5 concurrent pass that exercises
/// the lock manager.
fn instrumented_run(tracer: &Tracer) -> ObsRun {
    // Span profile of the whole instrumented run (both passes): the
    // report's `profile` section is the call tree, merged across the
    // concurrent pass's worker threads.
    obs::prof::reset();
    obs::prof::set_enabled(true);

    let start = Instant::now();
    let mut fired = 0u64;
    let mut halted = false;
    let mut plans: Vec<MatchPlan> = Vec::new();
    let mut analyze_json: Option<String> = None;
    for kind in EngineKind::ALL {
        let mut sys = ProductionSystem::from_source(OBS_DEMO, kind, Strategy::Fifo)
            .expect("demo program compiles");
        sys.set_tracer(tracer.clone());
        for i in 0..OBS_ITEMS {
            sys.insert("Item", tuple![i, i * 2]).expect("Item class");
        }
        // EXPLAIN against the loaded (pre-run) working memory: the run
        // itself empties `Item`, which would zero every actual count.
        plans.extend(sys.engine().match_plan());
        let out = sys.run(10_000);
        fired += out.fired as u64;
        halted |= out.halted;
        if kind == EngineKind::Query {
            // ANALYZE the query engine's database after its run: its
            // executor is the one feeding the observed selectivities.
            analyze_json = Some(relstore::analyze(sys.engine().pdb().db()).to_json());
        }
    }

    // §5 concurrent pass: skewed workload, so transactions contend for
    // the shared relation's locks.
    let db = Arc::new(relstore::Database::new());
    let (stats, _) = concurrent_pass(db, SKEWED, OBS_ITEMS as usize, OBS_WORKERS, tracer.clone());
    let wall_ns = start.elapsed().as_nanos() as u64;
    obs::prof::set_enabled(false);
    let profile = obs::prof::take();

    let concurrent = Obj::new()
        .u64("workers", OBS_WORKERS as u64)
        .u64("committed", stats.committed as u64)
        .u64("deadlock_aborts", stats.deadlock_aborts as u64)
        .u64("retries", stats.retries as u64)
        .u64("invalidated", stats.invalidated as u64)
        .u64("rounds", stats.rounds as u64)
        .u64("lock_waits", stats.lock_waits)
        .u64("lock_wait_ns", stats.lock_wait_ns)
        .u64("critical_ns", stats.critical_ns)
        .finish();
    let report_json = RunReport::new("all-engines", "obs-demo")
        .wall_ns(wall_ns)
        .fired(fired)
        .halted(halted || stats.halted)
        .section("concurrent", concurrent)
        .section("profile", profile.to_json())
        .section("match_plans", plans_to_json(&plans))
        .section("analyze", analyze_json.expect("query engine ran"))
        .to_json(tracer.metrics().expect("tracer is enabled"));
    ObsRun {
        report_json,
        fired,
        concurrent: stats,
    }
}

/// The `obs` experiment: [`observability_run`] with the `--trace` and
/// `--report` paths of `args`, summarised as one text block.
pub fn obs_tables(args: &Args) -> Result<Vec<Table>, String> {
    let (trace, report) = (args.trace.as_deref(), args.report.as_deref());
    let run = observability_run(trace, report)?;
    let mut lines = vec![
        format!(
            "sequential pass: {} productions fired across 5 engines",
            run.fired
        ),
        format!("concurrent pass: {}", run.concurrent),
    ];
    if let Some(p) = trace {
        lines.push(format!("trace  -> {p}"));
    }
    lines.push(match report {
        Some(p) => format!("report -> {p}"),
        None => format!("report:\n{}", run.report_json),
    });
    Ok(vec![Table::text(
        "Observability — instrumented run (all engines + §5 concurrent)",
        lines.join("\n"),
    )])
}

/// What [`explain_run`] produced, for the harness to print.
#[derive(Debug)]
pub struct ExplainRun {
    /// The rule that was explained.
    pub rule: String,
    /// Its match plan under every engine (rendered text).
    pub plans: Vec<String>,
    /// One rendered derivation line per firing of the rule.
    pub derivations: Vec<String>,
    /// Total productions fired by the run (all rules).
    pub fired: usize,
}

/// Run the [`EXPLAIN_DEMO`] paper workload (Example 3 + a negated-CE
/// audit rule) on the query engine and explain `rule`: its match plan
/// under every engine's ordering policy, then the full derivation of each
/// of its firings — supporting WM elements with storage tuple ids, and
/// for negated CEs the concrete pattern whose absence enabled the firing.
pub fn explain_run(rule: &str) -> Result<ExplainRun, String> {
    explain_rule(rule)?;

    // Plans before firing: the run consumes the matched WM elements.
    let mut plans = Vec::new();
    for kind in EngineKind::ALL {
        plans.extend(
            explain_system(kind)
                .engine()
                .match_plan()
                .iter()
                .filter(|p| p.rule_name == rule)
                .map(MatchPlan::render),
        );
    }

    let (derivations, fired) = explain_firings(EngineKind::Query, rule);
    Ok(ExplainRun {
        rule: rule.to_string(),
        plans,
        derivations: derivations.iter().map(Event::watch_line).collect(),
        fired,
    })
}

/// `rule` when the [`EXPLAIN_DEMO`] workload defines it, else an error
/// naming the rules it does define.
pub fn explain_rule(rule: &str) -> Result<String, String> {
    let rules = ops5::compile(EXPLAIN_DEMO).expect("explain demo compiles");
    if rules.rules.iter().any(|r| r.name == rule) {
        return Ok(rule.to_string());
    }
    let known: Vec<&str> = rules.rules.iter().map(|r| r.name.as_str()).collect();
    Err(format!(
        "unknown rule {rule:?}; the explain workload defines: {}",
        known.join(", ")
    ))
}

/// The [`EXPLAIN_DEMO`] system on `kind`, loaded with Example 3's working
/// memory and an employee with no department, so NoDept's negated CE
/// matters.
fn explain_system(kind: EngineKind) -> ProductionSystem {
    let mut sys = ProductionSystem::from_source(EXPLAIN_DEMO, kind, Strategy::Fifo)
        .expect("explain demo compiles");
    for (class, t) in paper::example3_wm() {
        sys.insert(class, t).expect("example 3 class");
    }
    sys.insert("Emp", tuple!["Orphan", 1000, "Sam", 99])
        .expect("Emp class");
    sys
}

/// Run [`explain_system`] on `kind` to quiescence: the `Derivation`
/// events of `rule`'s firings, and the productions fired by all rules.
fn explain_firings(kind: EngineKind, rule: &str) -> (Vec<Event>, usize) {
    let tracer = Tracer::new(Sink::ring(4096));
    let mut sys = explain_system(kind);
    sys.set_tracer(tracer.clone());
    let out = sys.run(10_000);
    let derivations = tracer
        .ring_events()
        .unwrap_or_default()
        .into_iter()
        .filter(|e| matches!(e, Event::Derivation { rule_name, .. } if rule_name == rule))
        .collect();
    (derivations, out.fired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn report_covers_rules_engines_and_locks() {
        let run = observability_run(None, None).unwrap();
        // Each engine fires Mark and Tally once per item.
        assert_eq!(run.fired, 5 * 2 * OBS_ITEMS as u64);
        assert_eq!(run.concurrent.committed, OBS_ITEMS as usize);
        let json = &run.report_json;
        for engine in ["rete", "db-rete", "query", "cond", "marker"] {
            assert!(
                json.contains(&format!("\"engine\":\"{engine}\"")),
                "missing split for {engine}: {json}"
            );
        }
        for rule in ["Mark", "Tally"] {
            assert!(json.contains(&format!("\"name\":\"{rule}\"")), "{json}");
        }
        assert!(json.contains("\"match_latency_ns\""), "{json}");
        assert!(json.contains("\"concurrent\":{\"workers\":4"), "{json}");
        // §5 critical-section accounting: the per-run total in the
        // concurrent section and the per-txn histogram in the metrics.
        assert!(json.contains("\"critical_ns\":"), "{json}");
        assert!(json.contains("\"critical_section_ns\":"), "{json}");
        // EXPLAIN section: per-rule plans for every engine, with
        // estimated and actual cardinalities.
        assert!(json.contains("\"match_plans\":["), "{json}");
        for engine in ["rete", "db-rete", "query", "cond", "marker"] {
            assert!(
                json.contains(&format!("{{\"engine\":\"{engine}\",\"rule\":")),
                "missing plans for {engine}: {json}"
            );
        }
        assert!(json.contains("\"estimated\":"), "{json}");
        assert!(json.contains("\"actual\":"), "{json}");
        // ANALYZE section: relation statistics + observed selectivities.
        assert!(json.contains("\"analyze\":{\"relations\":["), "{json}");
        assert!(json.contains("\"selection_selectivity\":"), "{json}");
    }

    /// The report samples every maintenance pass — the load's passes of
    /// one, each firing's pass and each §5 transaction's — once: its
    /// match-latency and pass counts, each engine's detect/maintain
    /// samples, the per-class WM changes, the per-rule conflict deltas
    /// and fires, and the cycle count all equal what the trace holds.
    #[test]
    fn report_counts_every_pass_the_trace_holds() {
        let tracer = Tracer::new(Sink::ring(1 << 16));
        let run = instrumented_run(&tracer);
        let events = tracer.ring_events().unwrap();
        let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count() as u64;
        let report = obs::json::parse(&run.report_json).unwrap();
        let metrics = report.get("metrics").unwrap();
        let num = |v: &obs::json::Value, path: &[&str]| {
            path.iter()
                .fold(v, |v, key| v.get(key).unwrap_or_else(|| panic!("{path:?}")))
                .as_u64()
                .unwrap()
        };
        let passes = count("batch_applied");
        assert!(
            passes > count("firing"),
            "firings and loads both run passes"
        );
        assert_eq!(num(metrics, &["match_latency_ns", "count"]), passes);
        assert_eq!(num(metrics, &["batches", "count"]), passes);
        assert_eq!(
            num(metrics, &["batches", "conflict_deltas"]),
            count("conflict_delta")
        );
        assert_eq!(num(metrics, &["cycles"]), count("cycle_end"));
        // Every §5 transaction of the in-memory concurrent pass that
        // commits held the critical section once, the first one included.
        assert_eq!(
            num(metrics, &["critical_section_ns", "count"]),
            count("txn_commit")
        );

        let mut engine_passes: BTreeMap<String, u64> = BTreeMap::new();
        let mut class_changes: BTreeMap<(u64, String), u64> = BTreeMap::new();
        // Per (rule, rule_name): [added, removed, fires]. The sequential
        // demo's `Mark` and the concurrent pass's first rule share id 0.
        let mut rule_counts: BTreeMap<(u64, String), [u64; 3]> = BTreeMap::new();
        for e in &events {
            match e {
                Event::ConflictDelta {
                    add,
                    rule,
                    rule_name,
                    ..
                } => {
                    let c = rule_counts
                        .entry((*rule as u64, rule_name.clone()))
                        .or_default();
                    c[usize::from(!*add)] += 1;
                }
                Event::RuleFire {
                    rule, rule_name, ..
                } => {
                    rule_counts
                        .entry((*rule as u64, rule_name.clone()))
                        .or_default()[2] += 1;
                }
                Event::BatchApplied { engine, .. } => {
                    *engine_passes.entry(engine.to_string()).or_default() += 1;
                }
                Event::WmInsert {
                    class, class_name, ..
                }
                | Event::WmRemove {
                    class, class_name, ..
                } => {
                    *class_changes
                        .entry((*class as u64, class_name.clone()))
                        .or_default() += 1
                }
                _ => {}
            }
        }
        let array = |key: &str| metrics.get(key).unwrap().as_array().unwrap().to_vec();
        let str_of =
            |v: &obs::json::Value, key: &str| v.get(key).unwrap().as_str().unwrap().to_string();
        let split_samples: BTreeMap<String, u64> = array("detect_split")
            .iter()
            .map(|s| (str_of(s, "engine"), num(s, &["samples"])))
            .collect();
        assert_eq!(split_samples, engine_passes);
        assert_eq!(split_samples.len(), 5, "every engine ran");
        let reported: BTreeMap<(u64, String), u64> = array("classes")
            .iter()
            .map(|c| {
                (
                    (num(c, &["class"]), str_of(c, "name")),
                    num(c, &["wm_changes"]),
                )
            })
            .collect();
        assert_eq!(reported, class_changes);
        let reported: BTreeMap<(u64, String), [u64; 3]> = array("rules")
            .iter()
            .map(|r| {
                let n = |key| num(r, &[key]);
                (
                    (n("rule"), str_of(r, "name")),
                    [
                        n("instantiations_added"),
                        n("instantiations_removed"),
                        n("fires"),
                    ],
                )
            })
            .collect();
        assert_eq!(reported, rule_counts);
    }

    /// The metrics are a pure function of the events: folding the run's
    /// recorded events into a fresh registry renders the live one.
    #[test]
    fn metrics_are_a_fold_of_the_trace() {
        let tracer = Tracer::new(Sink::ring(1 << 16));
        instrumented_run(&tracer);
        let events = tracer.ring_events().unwrap();
        assert!(events.len() < 1 << 16, "the ring dropped events");
        let folded = obs::MetricsRegistry::new();
        for e in &events {
            folded.observe(e);
        }
        let live = tracer.metrics().unwrap().to_json();
        assert_eq!(folded.to_json(), live);
    }

    #[test]
    fn every_engine_fires_the_demo_identically() {
        for kind in EngineKind::ALL {
            let mut sys = ProductionSystem::from_source(OBS_DEMO, kind, Strategy::Fifo).unwrap();
            for i in 0..OBS_ITEMS {
                sys.insert("Item", tuple![i, i * 2]).unwrap();
            }
            let fired = sys.run(10_000).fired;
            assert_eq!(fired as i64, 2 * OBS_ITEMS, "{}", kind.label());
            let io = sys.engine().pdb().db().stats().snapshot().logical_io();
            assert!(io > 0, "{}", kind.label());
        }
    }

    #[test]
    fn explain_run_prints_derivations_with_absent_patterns() {
        let run = explain_run("NoDept").unwrap();
        assert_eq!(run.plans.len(), 5, "one plan per engine");
        assert_eq!(run.derivations.len(), 1, "only Orphan lacks a department");
        let d = &run.derivations[0];
        assert!(d.contains("NoDept"), "{d}");
        assert!(d.contains("Orphan"), "{d}");
        assert!(d.contains("[t"), "support tuple ids: {d}");
        assert!(d.contains("absent:"), "{d}");
        assert!(d.contains("Dept"), "{d}");
    }

    /// Every engine explains the same firings with the same WMEs, the
    /// same support ids and the same absent patterns.
    #[test]
    fn every_engine_derives_the_same_absent_patterns() {
        for rule in ["R1", "R2", "NoDept"] {
            let explained = |kind: EngineKind| {
                let mut lines: Vec<String> = explain_firings(kind, rule)
                    .0
                    .into_iter()
                    .map(|e| match e {
                        Event::Derivation { ref support, .. } => {
                            assert!(!support.is_empty(), "{}", kind.label());
                            e.watch_line()
                        }
                        other => panic!("not a derivation: {other:?}"),
                    })
                    .collect();
                lines.sort();
                lines
            };
            let query = explained(EngineKind::Query);
            assert!(!query.is_empty(), "{rule} fires");
            for kind in EngineKind::ALL {
                assert_eq!(explained(kind), query, "{rule} on {}", kind.label());
            }
        }
        let no_dept = explain_firings(EngineKind::Rete, "NoDept").0;
        assert!(
            no_dept[0]
                .watch_line()
                .ends_with(" absent: -(Dept ^dno = 99)"),
            "{no_dept:?}"
        );
    }

    #[test]
    fn explain_run_rejects_unknown_rules() {
        let err = explain_run("Nope").unwrap_err();
        assert!(err.contains("NoDept"), "{err}");
    }

    #[test]
    fn trace_and_report_files_are_written() {
        let dir = std::env::temp_dir().join(format!("obs_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let report = dir.join("report.json");
        observability_run(trace.to_str(), report.to_str()).unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.lines().count() > 100, "trace should be dense");
        for line in trace_text.lines() {
            assert!(line.starts_with("{\"seq\":"), "not JSONL: {line}");
            assert!(line.ends_with('}'), "truncated: {line}");
        }
        let report_text = std::fs::read_to_string(&report).unwrap();
        assert!(report_text.starts_with("{\"engine\":\"all-engines\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
