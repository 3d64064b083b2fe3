//! Experiment implementations (see DESIGN.md §4 for the index).

use std::time::Instant;

use ops5::ClassId;
use predindex::{ConditionIndex, IndexKind, LinearIndex, RPlusTree, RTree, Rect};
use prodsys::{
    count_equivalent_schedules, critical_path, interleaving_upper_bound, make_engine,
    ops_of_instantiation, ConcurrentExecutor, CondEngine, EngineKind, MatchEngine, ProductionDb,
    QueryEngine, ReteEngine,
};
use relstore::{tuple, CompOp, Restriction, Selection};
use workload::{ChainWorkload, Op, RuleGenConfig, TraceConfig};

/// Drive a trace through an engine, returning (ops, wall ns, logical I/O,
/// predicate evals).
pub fn run_trace(engine: &mut dyn MatchEngine, trace: &[Op]) -> (usize, u64, u64, u64) {
    let stats = engine.pdb().db().stats().clone();
    let before = stats.snapshot();
    let start = Instant::now();
    for op in trace {
        match op {
            Op::Insert(c, t) => {
                engine.insert(ClassId(*c), t.clone());
            }
            Op::Remove(c, t) => {
                engine.remove(ClassId(*c), t);
            }
        }
    }
    let wall = start.elapsed().as_nanos() as u64;
    let delta = stats.snapshot().since(&before);
    (trace.len(), wall, delta.logical_io(), delta.pred_evals)
}

/// E1: match cost per WM change as the rule base grows.
pub struct E1Point {
    pub engine: &'static str,
    pub rules: usize,
    pub ns_per_op: u64,
    pub io_per_op: u64,
    pub preds_per_op: u64,
}

pub fn e1_match_scaling(rule_counts: &[usize], ops: usize) -> Vec<E1Point> {
    let mut out = Vec::new();
    for &rules in rule_counts {
        let cfg = RuleGenConfig {
            rules,
            ..Default::default()
        };
        let trace = TraceConfig {
            ops,
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        for kind in EngineKind::ALL {
            let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
            let (n, wall, io, preds) = run_trace(engine.as_mut(), &trace);
            out.push(E1Point {
                engine: kind.label(),
                rules,
                ns_per_op: wall / n as u64,
                io_per_op: io / n as u64,
                preds_per_op: preds / n as u64,
            });
        }
    }
    out
}

/// E2: space held by match structures after loading a working memory.
pub struct E2Point {
    pub engine: &'static str,
    pub wm: usize,
    pub match_entries: usize,
    pub match_bytes: usize,
}

pub fn e2_space(wm_sizes: &[usize]) -> Vec<E2Point> {
    let cfg = RuleGenConfig {
        rules: 64,
        ..Default::default()
    };
    let mut out = Vec::new();
    for &wm in wm_sizes {
        let trace = TraceConfig {
            ops: wm,
            delete_fraction: 0.0,
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        for kind in EngineKind::ALL {
            let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
            run_trace(engine.as_mut(), &trace);
            let s = engine.space();
            out.push(E2Point {
                engine: kind.label(),
                wm,
                match_entries: s.match_entries,
                match_bytes: s.match_bytes,
            });
        }
    }
    out
}

/// E3/F1: propagation cost of the final insertion of an n-long chain.
pub struct E3Point {
    pub n: usize,
    pub rete_depth: usize,
    pub rete_activations: u64,
    pub rete_ns: u64,
    pub cond_ns: u64,
    pub cond_detect_ns: u64,
}

/// Chain lengths above this are measured for Rete only: the matching-
/// pattern store is quadratic-plus in the chain length (64 CEs over one
/// class means every insertion matches patterns of every CE and
/// propagates to all 63 others), which is exactly the space trade-off
/// §4.2.3 concedes.
pub const E3_COND_MAX: usize = 12;

pub fn e3_chain(ns: &[usize]) -> Vec<E3Point> {
    let mut out = Vec::new();
    for &n in ns {
        let w = ChainWorkload::new(n);
        let links = w.links();
        // Rete: hierarchical propagation.
        let mut rete = ReteEngine::new(ProductionDb::new(w.rules()).unwrap());
        for t in &links[..n - 1] {
            rete.insert(ClassId(0), t.clone());
        }
        let start = Instant::now();
        rete.insert(ClassId(0), links[n - 1].clone());
        let rete_ns = start.elapsed().as_nanos() as u64;
        let m = rete.last_metrics();

        // Cond: flat detection (skipped above E3_COND_MAX, see above).
        let (cond_ns, detect) = if n <= E3_COND_MAX {
            let mut cond = CondEngine::new(ProductionDb::new(w.rules()).unwrap());
            for t in &links[..n - 1] {
                cond.insert(ClassId(0), t.clone());
            }
            let start = Instant::now();
            cond.insert(ClassId(0), links[n - 1].clone());
            let cond_ns = start.elapsed().as_nanos() as u64;
            let (detect, _) = cond.last_detect_split().unwrap();
            (cond_ns, detect)
        } else {
            (0, 0)
        };

        out.push(E3Point {
            n,
            rete_depth: m.max_depth,
            rete_activations: m.activations,
            rete_ns,
            cond_ns,
            cond_detect_ns: detect,
        });
    }
    out
}

/// E4: time until the conflict set is updated (detection) vs total op
/// time, averaged over a trace.
pub struct E4Point {
    pub engine: &'static str,
    pub avg_detect_ns: u64,
    pub avg_total_ns: u64,
}

pub fn e4_detect(ops: usize) -> Vec<E4Point> {
    let cfg = RuleGenConfig {
        rules: 64,
        ces_per_rule: 3,
        classes: 3,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops,
        ..Default::default()
    }
    .trace(cfg.classes, cfg.attrs);
    let mut out = Vec::new();
    for kind in [EngineKind::Rete, EngineKind::Cond] {
        let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
        let mut detect_sum = 0u64;
        let mut total_sum = 0u64;
        let mut n = 0u64;
        for op in &trace {
            match op {
                Op::Insert(c, t) => {
                    engine.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    engine.remove(ClassId(*c), t);
                }
            }
            if let Some((d, t)) = engine.last_detect_split() {
                detect_sum += d;
                total_sum += t;
                n += 1;
            }
        }
        out.push(E4Point {
            engine: kind.label(),
            avg_detect_ns: detect_sum / n.max(1),
            avg_total_ns: total_sum / n.max(1),
        });
    }
    out
}

/// E5: parallel propagation speedup of the cond engine.
pub struct E5Point {
    pub classes: usize,
    pub serial_ns: u64,
    pub parallel_ns: u64,
}

/// Simulated per-COND-tuple latency for E5: the paper's parallel
/// propagation argument assumes disk-resident COND relations; 20 µs per
/// examined pattern approximates a 1988 disk page share, and is what
/// makes propagation I/O-bound rather than thread-spawn-bound.
pub const E5_IO_COST_NS: u64 = 20_000;

pub fn e5_parallel(class_counts: &[usize], ops: usize) -> Vec<E5Point> {
    let mut out = Vec::new();
    for &classes in class_counts {
        let cfg = RuleGenConfig {
            classes,
            rules: classes * 24,
            ces_per_rule: classes.min(4),
            domain: 3,
            ..Default::default()
        };
        let trace = TraceConfig {
            ops,
            delete_fraction: 0.0,
            join_domain: 3,
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        let run = |parallel: bool| -> u64 {
            let mut e = CondEngine::new(ProductionDb::new(cfg.rules()).unwrap());
            e.set_parallel(parallel);
            e.set_io_cost_ns(E5_IO_COST_NS);
            let start = Instant::now();
            for op in &trace {
                if let Op::Insert(c, t) = op {
                    e.insert(ClassId(*c), t.clone());
                }
            }
            start.elapsed().as_nanos() as u64
        };
        let serial_ns = run(false);
        let parallel_ns = run(true);
        out.push(E5Point {
            classes,
            serial_ns,
            parallel_ns,
        });
    }
    out
}

/// E6: concurrent vs sequential execution of a conflict set.
pub struct E6Point {
    pub label: &'static str,
    pub instantiations: usize,
    pub workers: usize,
    pub wall_ns: u64,
    pub committed: usize,
    pub deadlock_aborts: usize,
    pub invalidated: usize,
    pub rounds: usize,
    pub lock_waits: u64,
    pub lock_wait_ns: u64,
}

const E6_INDEPENDENT: &str = r#"
    (literalize Item n v)
    (p Consume (Item ^n <N> ^v <V>) --> (remove 1))
"#;

/// A skewed workload: every firing updates the single shared `Total`
/// relation — the §5.2 worst case where "this will reduce to the time
/// taken for a serial execution".
const E6_SKEWED: &str = r#"
    (literalize Item n v)
    (literalize Total n v)
    (p Tally (Item ^n <N> ^v <V>) --> (remove 1) (make Total ^n <N> ^v <V>))
"#;

/// Simulated per-tuple latency for E6's transactions (see
/// [`relstore::Database::set_io_cost_ns`]): rule executions become
/// I/O-bound, which is the regime §5's concurrency benefit lives in.
pub const E6_IO_COST_NS: u64 = 50_000;

pub fn e6_concurrent(insts: usize, worker_counts: &[usize]) -> Vec<E6Point> {
    let mut out = Vec::new();
    for (label, src) in [("independent", E6_INDEPENDENT), ("skewed", E6_SKEWED)] {
        for &workers in worker_counts {
            let rules = ops5::compile(src).unwrap();
            let mut engine = make_engine(EngineKind::Rete, ProductionDb::new(rules).unwrap());
            for i in 0..insts as i64 {
                engine.insert(ClassId(0), tuple![i, i * 3]);
            }
            engine.pdb().db().set_io_cost_ns(E6_IO_COST_NS);
            let mut exec = ConcurrentExecutor::new(engine, workers);
            let start = Instant::now();
            let stats = exec.run(insts * 4);
            out.push(E6Point {
                label,
                instantiations: insts,
                workers,
                wall_ns: start.elapsed().as_nanos() as u64,
                committed: stats.committed,
                deadlock_aborts: stats.deadlock_aborts,
                invalidated: stats.invalidated,
                rounds: stats.rounds,
                lock_waits: stats.lock_waits,
                lock_wait_ns: stats.lock_wait_ns,
            });
        }
    }
    out
}

/// E7: the \[RASC87\] estimates — critical path and the number of
/// serializable schedules equivalent to the serial one.
pub struct E7Point {
    pub label: &'static str,
    pub txns: usize,
    pub critical_path: usize,
    pub equivalent_schedules: u128,
    pub upper_bound: u128,
}

pub fn e7_schedules(sizes: &[usize]) -> Vec<E7Point> {
    let mut out = Vec::new();
    for (label, src) in [("independent", E6_INDEPENDENT), ("skewed", E6_SKEWED)] {
        for &k in sizes {
            let rules = ops5::compile(src).unwrap();
            let mut engine =
                make_engine(EngineKind::Rete, ProductionDb::new(rules.clone()).unwrap());
            for i in 0..k as i64 {
                engine.insert(ClassId(0), tuple![i, i]);
            }
            let txns: Vec<_> = engine
                .conflict_set()
                .iter()
                .map(|inst| ops_of_instantiation(&rules, inst))
                .collect();
            out.push(E7Point {
                label,
                txns: txns.len(),
                critical_path: critical_path(&txns),
                equivalent_schedules: count_equivalent_schedules(&txns),
                upper_bound: interleaving_upper_bound(&txns),
            });
        }
    }
    out
}

/// E8: POSTGRES-style markers vs matching patterns — false drops.
pub struct E8Point {
    pub domain: i64,
    pub marker_false_drops: u64,
    pub marker_io_per_op: u64,
    pub cond_io_per_op: u64,
}

pub fn e8_false_drops(domains: &[i64], ops: usize) -> Vec<E8Point> {
    let mut out = Vec::new();
    for &domain in domains {
        // Smaller constant domains → more rules share intervals → more
        // marker overlap → more false drops.
        let cfg = RuleGenConfig {
            rules: 64,
            domain,
            ..Default::default()
        };
        let trace = TraceConfig {
            ops,
            select_domain: domain.max(2),
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        let mut marker = make_engine(EngineKind::Marker, ProductionDb::new(cfg.rules()).unwrap());
        let (n, _, marker_io, _) = run_trace(marker.as_mut(), &trace);
        let mut cond = make_engine(EngineKind::Cond, ProductionDb::new(cfg.rules()).unwrap());
        let (_, _, cond_io, _) = run_trace(cond.as_mut(), &trace);
        out.push(E8Point {
            domain,
            marker_false_drops: marker.false_drops(),
            marker_io_per_op: marker_io / n as u64,
            cond_io_per_op: cond_io / n as u64,
        });
    }
    out
}

/// E9: predicate indexing — stabbing and rule-base queries.
pub struct E9Point {
    pub index: &'static str,
    pub conditions: usize,
    pub stab_ns: u64,
    pub stab_visits: u64,
    pub query_ns: u64,
}

fn e9_conditions(n: usize) -> Vec<Rect> {
    // Age-interval conditions over Emp(name-key, age): [lo, lo+width].
    (0..n)
        .map(|i| {
            let lo = (i * 7 % 1000) as i64;
            Rect::from_restriction(
                2,
                &Restriction::new(vec![
                    Selection::new(1, CompOp::Ge, lo),
                    Selection::new(1, CompOp::Le, lo + 25),
                ]),
            )
            .unwrap()
        })
        .collect()
}

pub fn e9_predindex(sizes: &[usize], probes: usize) -> Vec<E9Point> {
    let mut out = Vec::new();
    for &n in sizes {
        let conds = e9_conditions(n);
        let run = |name: &'static str, idx: &mut dyn ConditionIndex<u32>| -> E9Point {
            for (i, c) in conds.iter().enumerate() {
                idx.insert(c.clone(), i as u32);
            }
            idx.reset_visits();
            let start = Instant::now();
            for p in 0..probes {
                let t = tuple![p as i64, ((p * 13) % 1050) as i64];
                std::hint::black_box(idx.stab(&t));
            }
            let stab_ns = start.elapsed().as_nanos() as u64 / probes as u64;
            let stab_visits = idx.node_visits() / probes as u64;
            // Rule-base query: "rules applying to employees older than X".
            let start = Instant::now();
            for p in 0..probes {
                let q = Rect::from_restriction(
                    2,
                    &Restriction::new(vec![Selection::new(1, CompOp::Gt, ((p * 31) % 900) as i64)]),
                )
                .unwrap();
                std::hint::black_box(idx.query(&q));
            }
            let query_ns = start.elapsed().as_nanos() as u64 / probes as u64;
            E9Point {
                index: name,
                conditions: n,
                stab_ns,
                stab_visits,
                query_ns,
            }
        };
        out.push(run("linear", &mut LinearIndex::new()));
        out.push(run("r-tree", &mut RTree::new(2)));
        out.push(run("r+-tree", &mut RPlusTree::new(2)));
    }
    out
}

/// E10a: COND-relation index ablation for the §4.1 query engine.
pub struct E10aPoint {
    pub index: &'static str,
    pub ns_per_op: u64,
    pub index_visits: u64,
}

pub fn e10_index_ablation(ops: usize) -> Vec<E10aPoint> {
    let cfg = RuleGenConfig {
        rules: 512,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops,
        ..Default::default()
    }
    .trace(cfg.classes, cfg.attrs);
    let mut out = Vec::new();
    for (name, kind) in [
        ("linear", IndexKind::Linear),
        ("r-tree", IndexKind::RTree),
        ("r+-tree", IndexKind::RPlus),
    ] {
        let mut engine = QueryEngine::with_index(ProductionDb::new(cfg.rules()).unwrap(), kind);
        let start = Instant::now();
        for op in &trace {
            match op {
                Op::Insert(c, t) => {
                    engine.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    engine.remove(ClassId(*c), t);
                }
            }
        }
        let wall = start.elapsed().as_nanos() as u64;
        out.push(E10aPoint {
            index: name,
            ns_per_op: wall / trace.len() as u64,
            index_visits: engine.index_visits() / trace.len() as u64,
        });
    }
    out
}

/// E10c: the §4.2.3 suggestion to index COND relations, ablated.
pub struct E10cPoint {
    pub variant: &'static str,
    pub ns_per_op: u64,
    pub io_per_op: u64,
}

pub fn e10_cond_index_ablation(ops: usize) -> Vec<E10cPoint> {
    let cfg = RuleGenConfig {
        rules: 512,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops,
        ..Default::default()
    }
    .trace(cfg.classes, cfg.attrs);
    let mut out = Vec::new();
    for (variant, kind) in [
        ("unindexed scan", None),
        ("r-tree", Some(IndexKind::RTree)),
        ("r+-tree", Some(IndexKind::RPlus)),
    ] {
        let mut e = CondEngine::with_index(ProductionDb::new(cfg.rules()).unwrap(), kind);
        let stats = e.pdb().db().stats().clone();
        let before = stats.snapshot();
        let start = Instant::now();
        for op in &trace {
            match op {
                Op::Insert(c, t) => {
                    e.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    e.remove(ClassId(*c), t);
                }
            }
        }
        let wall = start.elapsed().as_nanos() as u64;
        let io = stats.snapshot().since(&before).logical_io();
        out.push(E10cPoint {
            variant,
            ns_per_op: wall / trace.len() as u64,
            io_per_op: io / trace.len() as u64,
        });
    }
    out
}

/// E10b: delete-heavy traces — the counter machinery at work.
pub struct E10bPoint {
    pub delete_fraction: f64,
    pub cond_ns_per_op: u64,
    pub rete_ns_per_op: u64,
    pub cond_patterns_end: usize,
}

pub fn e10_delete_ablation(fractions: &[f64], ops: usize) -> Vec<E10bPoint> {
    let cfg = RuleGenConfig {
        rules: 32,
        ces_per_rule: 3,
        classes: 3,
        ..Default::default()
    };
    let mut out = Vec::new();
    for &f in fractions {
        let trace = TraceConfig {
            ops,
            delete_fraction: f,
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        let mut cond = CondEngine::new(ProductionDb::new(cfg.rules()).unwrap());
        let start = Instant::now();
        for op in &trace {
            match op {
                Op::Insert(c, t) => {
                    cond.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    cond.remove(ClassId(*c), t);
                }
            }
        }
        let cond_ns = start.elapsed().as_nanos() as u64 / trace.len() as u64;
        let patterns = cond.pattern_count();

        let mut rete = make_engine(EngineKind::Rete, ProductionDb::new(cfg.rules()).unwrap());
        let (n, wall, _, _) = run_trace(rete.as_mut(), &trace);
        out.push(E10bPoint {
            delete_fraction: f,
            cond_ns_per_op: cond_ns,
            rete_ns_per_op: wall / n as u64,
            cond_patterns_end: patterns,
        });
    }
    out
}

/// T4: the Example 5 trace — after every insertion, the full contents of
/// COND-A, COND-B and COND-C exactly as the paper tabulates them
/// (pattern cells, RCE list, mark counters).
pub fn t4_trace_rows() -> Vec<(String, Vec<Vec<String>>)> {
    let rules = workload::paper::example4_rules();
    let mut engine = CondEngine::new(ProductionDb::new(rules.clone()).unwrap());
    let mut sections = Vec::new();
    for (class, t) in workload::paper::example5_inserts() {
        let cid = rules.class_id(class).unwrap();
        let deltas = MatchEngine::insert(&mut engine, cid, t.clone());
        sections.push((
            format!(
                "insert {class}{t} → {} conflict-set change(s)",
                deltas.len()
            ),
            Vec::new(),
        ));
        for cname in ["A", "B", "C"] {
            let c = rules.class_id(cname).unwrap();
            let mut rows = vec![vec![format!("COND-{cname}")]];
            rows.extend(engine.render_cond(c));
            sections.push((String::new(), rows));
        }
    }
    sections
}

/// Quick self-check used by the benches: a tiny run of each experiment.
pub fn smoke() {
    assert!(!e1_match_scaling(&[8], 40).is_empty());
    assert!(!e3_chain(&[2, 4]).is_empty());
    assert!(!e7_schedules(&[2]).is_empty());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_produces_all_engines() {
        let pts = e1_match_scaling(&[8], 30);
        assert_eq!(pts.len(), 5);
        assert!(pts.iter().all(|p| p.ns_per_op > 0));
    }

    #[test]
    fn e2_space_ordering_matches_paper_claims() {
        let pts = e2_space(&[120]);
        let get = |name: &str| pts.iter().find(|p| p.engine == name).unwrap().match_entries;
        // Rete and cond store per-data state; query and marker do not.
        assert!(get("rete") > get("query"), "rete stores tokens");
        assert!(get("cond") > get("marker"), "cond stores matching patterns");
        // Marker/query space is data-independent (static structures).
        assert!(get("marker") <= 64 * 2 + 8);
    }

    #[test]
    fn e3_rete_depth_grows() {
        let pts = e3_chain(&[2, 8, 16]);
        assert!(pts.windows(2).all(|w| w[0].rete_depth < w[1].rete_depth));
        assert!(pts
            .windows(2)
            .all(|w| w[0].rete_activations < w[1].rete_activations));
    }

    #[test]
    fn e4_cond_detects_before_maintenance() {
        let pts = e4_detect(120);
        let cond = pts.iter().find(|p| p.engine == "cond").unwrap();
        let rete = pts.iter().find(|p| p.engine == "rete").unwrap();
        assert!(cond.avg_detect_ns <= cond.avg_total_ns);
        assert_eq!(rete.avg_detect_ns, rete.avg_total_ns, "rete has no split");
    }

    #[test]
    fn e6_runs_and_commits() {
        let pts = e6_concurrent(8, &[1, 4]);
        assert!(pts.iter().all(|p| p.committed == 8));
    }

    #[test]
    fn e7_skew_collapses_schedules() {
        let pts = e7_schedules(&[3]);
        let ind = pts.iter().find(|p| p.label == "independent").unwrap();
        let skew = pts.iter().find(|p| p.label == "skewed").unwrap();
        // Compare the fraction of free interleavings that remain legal:
        // fully independent transactions keep all of them, the shared
        // Total relation prunes most.
        let ratio = |p: &E7Point| p.equivalent_schedules as f64 / p.upper_bound as f64;
        assert!(
            (ratio(ind) - 1.0).abs() < 1e-9,
            "independent keeps every interleaving"
        );
        assert!(
            ratio(skew) < 0.5,
            "skew prunes interleavings: {}",
            ratio(skew)
        );
        assert!(skew.critical_path >= ind.critical_path);
    }

    #[test]
    fn e8_small_domain_more_false_drops() {
        let pts = e8_false_drops(&[2, 50], 40);
        assert!(
            pts[0].marker_false_drops >= pts[1].marker_false_drops,
            "domain 2 ({}) vs 50 ({})",
            pts[0].marker_false_drops,
            pts[1].marker_false_drops
        );
    }

    #[test]
    fn e9_trees_beat_linear_on_visits() {
        let pts = e9_predindex(&[1500], 30);
        let linear = pts.iter().find(|p| p.index == "linear").unwrap();
        let rtree = pts.iter().find(|p| p.index == "r-tree").unwrap();
        let rplus = pts.iter().find(|p| p.index == "r+-tree").unwrap();
        assert!(rtree.stab_visits < linear.stab_visits / 2);
        assert!(rplus.stab_visits < linear.stab_visits / 2);
    }

    #[test]
    fn e10_runs() {
        assert_eq!(e10_index_ablation(40).len(), 3);
        assert_eq!(e10_delete_ablation(&[0.0, 0.4], 60).len(), 2);
        let c = e10_cond_index_ablation(40);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn e5_parallel_beats_serial_under_io_cost() {
        // Enough operations that the simulated COND I/O (sleeps, which
        // overlap across class threads) dominates thread-spawn overhead.
        let pts = e5_parallel(&[6], 150);
        assert_eq!(pts.len(), 1);
        assert!(
            pts[0].parallel_ns < pts[0].serial_ns,
            "serial {} vs parallel {}",
            pts[0].serial_ns,
            pts[0].parallel_ns
        );
    }
}
