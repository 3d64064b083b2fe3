//! Experiment implementations (see DESIGN.md §4 for the index) and the
//! [`EXPERIMENTS`] table the `harness` binary dispatches from. Each runner
//! builds the rendered [`Table`]s it prints; the unit tests below read
//! them back by column name.

use std::sync::Arc;
use std::time::Instant;

use obs::Tracer;
use ops5::ClassId;
use predindex::{IndexKind, Rect};
use prodsys::{
    count_equivalent_schedules, critical_path, interleaving_upper_bound, make_engine,
    ops_of_instantiation, ConcurrentExecutor, ConcurrentStats, CondEngine, EngineKind, MatchEngine,
    ProductionDb, QueryEngine, ReteEngine,
};
use relstore::{tuple, CompOp, Database, Restriction, Selection};
use workload::paper;
use workload::tables::{cond_relation, format_table, rule_def};
use workload::{ChainWorkload, Op, RuleGenConfig, TraceConfig};

use crate::cli::Args;

/// One table of the harness output: a `## title` heading (none when the
/// title is empty, so the table continues the section above), the rows
/// aligned under `header` (no table when the header is empty), and the
/// `note` lines printed beneath.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub note: String,
}

impl Table {
    /// A table under `title` whose column names are `header`'s cells,
    /// separated by `" | "` as they print.
    pub fn new(title: &str, header: &str, rows: Vec<Vec<String>>) -> Table {
        Table {
            title: title.to_string(),
            header: header
                .split(" | ")
                .filter(|h| !h.is_empty())
                .map(String::from)
                .collect(),
            rows,
            note: String::new(),
        }
    }

    /// A block of free text under `title`: no table, only the note.
    pub fn text(title: &str, note: impl Into<String>) -> Table {
        Table::new(title, "", Vec::new()).note(note)
    }

    pub fn note(self, note: impl Into<String>) -> Table {
        Table {
            note: note.into(),
            ..self
        }
    }

    /// The text the harness prints for this table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out += &format!("\n## {}\n\n", self.title);
        }
        if !self.header.is_empty() {
            let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
            out += &format_table(&header, &self.rows);
        }
        if !self.note.is_empty() {
            out += &self.note;
            out.push('\n');
        }
        out
    }
}

/// One harness experiment: the selector names that run it, its `--help`
/// line, and the runner that builds its tables.
#[derive(Debug)]
pub struct Experiment {
    pub names: &'static [&'static str],
    pub help: &'static str,
    pub run: fn(&Args) -> Result<Vec<Table>, String>,
}

/// The instrumented run, also selected by `--trace` and `--report`.
pub const OBS: Experiment = Experiment {
    names: &["obs"],
    help: "instrumented run: all engines + §5 concurrent pass",
    run: crate::obs_run::obs_tables,
};

/// Every experiment, in output order: `all` runs them top to bottom.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["t1"],
        help: "§4.1.1 COND relations for Example 2",
        run: |_| Ok(t1()),
    },
    Experiment {
        names: &["t2"],
        help: "§4.1.1 RULE-DEF relation",
        run: |_| Ok(vec![t2()]),
    },
    Experiment {
        names: &["t3"],
        help: "Example 4 initial COND relations",
        run: |_| Ok(t3()),
    },
    Experiment {
        names: &["t4"],
        help: "Example 5 insertion trace (matching-pattern engine)",
        run: |_| Ok(vec![t4()]),
    },
    Experiment {
        names: &["f1", "e3"],
        help: "chain workload: propagation depth / final-insert cost",
        run: |_| Ok(vec![e3_chain(&[1, 2, 4, 8, 16, 32, 64])]),
    },
    Experiment {
        names: &["f3"],
        help: "compiled Rete network for Example 2 (Figure 3)",
        run: |_| Ok(vec![f3()]),
    },
    Experiment {
        names: &["e1"],
        help: "match cost per WM change vs rule-base size",
        run: |_| Ok(vec![e1_match_scaling(&[16, 64, 256, 1024], 300)]),
    },
    Experiment {
        names: &["e2"],
        help: "match-structure space vs WM size",
        run: |_| Ok(vec![e2_space(&[100, 400, 1600])]),
    },
    Experiment {
        names: &["e4"],
        help: "conflict-set detection latency vs total op time",
        run: |_| Ok(vec![e4_detect(400)]),
    },
    Experiment {
        names: &["e6"],
        help: "concurrent vs serial execution of the conflict set",
        run: |_| Ok(vec![e6_concurrent(2_000, &[1, 2, 4, 8])]),
    },
    Experiment {
        names: &["e7"],
        help: "[RASC87] concurrency measures",
        run: |_| Ok(vec![e7_schedules(&[2, 3, 4])]),
    },
    Experiment {
        names: &["e8"],
        help: "marker (POSTGRES-style) false drops",
        run: |_| Ok(vec![e8_false_drops(&[2, 5, 20, 100], 250)]),
    },
    Experiment {
        names: &["e9"],
        help: "predicate indexing: stabbing and rule-base queries",
        run: |_| Ok(vec![e9_predindex(&[100, 1_000, 10_000, 20_000], 200)]),
    },
    Experiment {
        names: &["e10"],
        help: "index/delete ablations (a, b, c)",
        run: |_| {
            Ok(vec![
                e10_index_ablation(250),
                e10_delete_ablation(&[0.0, 0.2, 0.45], 300),
                e10_cond_index_ablation(250),
            ])
        },
    },
    OBS,
];

/// A table row: every cell rendered with `to_string`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($cell.to_string()),*] };
}

/// Drive a trace through an engine, calling `after` once per op; returns
/// the per-op wall ns, logical I/O and predicate evaluations.
pub fn run_trace(
    engine: &mut dyn MatchEngine,
    trace: &[Op],
    mut after: impl FnMut(&dyn MatchEngine),
) -> (u64, u64, u64) {
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
        after(engine);
    }
    let wall = start.elapsed().as_nanos() as u64;
    let delta = stats.snapshot().since(&before);
    let n = trace.len() as u64;
    (wall / n, delta.logical_io() / n, delta.pred_evals / n)
}

/// T1: the §4.1.1 COND relations of Example 2.
pub fn t1() -> Vec<Table> {
    let rs = paper::example2_rules();
    let cond = |class| cond_relation(&rs, rs.class_id(class).unwrap());
    vec![
        Table::text("T1 — §4.1.1 COND relations for Example 2", "COND-Goal:"),
        Table::new("", "Rule-ID | CEN | Type | Object", cond("Goal")).note("\nCOND-Expression:"),
        Table::new(
            "",
            "Rule-ID | CEN | Name | Arg1 | Op | Arg2",
            cond("Expression"),
        ),
    ]
}

/// T2: the §4.1.1 RULE-DEF relation of Example 2.
pub fn t2() -> Table {
    let rs = paper::example2_rules();
    Table::new(
        "T2 — §4.1.1 RULE-DEF relation",
        "Rule-ID | Cond# | Class | Check",
        rule_def(&rs),
    )
}

/// T3: Example 4's initial COND relations, one per class.
pub fn t3() -> Vec<Table> {
    let rs = paper::example4_rules();
    let mut out = vec![Table::text("T3 — Example 4 initial COND relations", "")];
    for class in ["A", "B", "C"] {
        let id = rs.class_id(class).unwrap();
        let header = format!("Rule-ID | CEN | {}", rs.class(id).attrs.join(" | "));
        out.push(Table::text("", format!("COND-{class}:")));
        out.push(Table::new("", &header, cond_relation(&rs, id)));
    }
    out
}

/// T4: the Example 5 trace — after every insertion, the full contents of
/// COND-A, COND-B and COND-C exactly as the paper tabulates them
/// (pattern cells, RCE list, mark counters).
pub fn t4() -> Table {
    let rules = paper::example4_rules();
    let mut engine = CondEngine::new(ProductionDb::new(rules.clone()).unwrap());
    let mut lines = Vec::new();
    for (class, t) in paper::example5_inserts() {
        let cid = rules.class_id(class).unwrap();
        let deltas = MatchEngine::insert(&mut engine, cid, t.clone());
        lines.push(String::new());
        lines.push(format!(
            "insert {class}{t} → {} conflict-set change(s)",
            deltas.len()
        ));
        for cname in ["A", "B", "C"] {
            lines.push(format!("  COND-{cname}"));
            for r in engine.render_cond(rules.class_id(cname).unwrap()) {
                lines.push(format!("  {}", r.join(" | ")));
            }
        }
    }
    lines.push("\n(Rule-1 must enter the conflict set exactly on B(4,7,b);".into());
    lines.push(" compare the COND tables above with the paper's Example 5.)".into());
    Table::text(
        "T4 — Example 5 insertion trace (matching-pattern engine)",
        lines.join("\n"),
    )
}

/// F3: the compiled network of Example 2 (Figure 3).
pub fn f3() -> Table {
    let plan = rete::NetworkPlan::compile(&paper::example2_rules());
    let lines = [
        format!(
            "alpha nodes:        {} (Goal shared between rules)",
            plan.alphas.len()
        ),
        format!(
            "two-input nodes:    {} (Goal join shared)",
            plan.two_input_nodes()
        ),
        format!("production nodes:   {}", plan.production_nodes()),
        format!("max depth:          {}", plan.max_depth()),
    ];
    Table::text(
        "F3 — compiled network for Example 2 (Figure 3)",
        lines.join("\n"),
    )
}

/// E1: match cost per WM change as the rule base grows.
pub fn e1_match_scaling(rule_counts: &[usize], ops: usize) -> Table {
    let mut rows = Vec::new();
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
            let (ns, io, preds) = run_trace(engine.as_mut(), &trace, |_| {});
            rows.push(row![rules, kind.label(), ns, io, preds]);
        }
    }
    Table::new(
        "E1 — match cost per WM change vs rule-base size",
        "rules | engine | ns/op | logical I/O/op | pred evals/op",
        rows,
    )
    .note("(expected shape: query grows fastest (join recomputation); cond/marker/rete stay flat-ish)")
}

/// E2: space held by match structures after loading a working memory.
pub fn e2_space(wm_sizes: &[usize]) -> Table {
    let cfg = RuleGenConfig {
        rules: 64,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for &wm in wm_sizes {
        let trace = TraceConfig {
            ops: wm,
            delete_fraction: 0.0,
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        for kind in EngineKind::ALL {
            let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
            run_trace(engine.as_mut(), &trace, |_| {});
            let s = engine.space();
            rows.push(row![wm, kind.label(), s.match_entries, s.match_bytes]);
        }
    }
    Table::new(
        "E2 — match-structure space vs WM size",
        "wm tuples | engine | entries | bytes",
        rows,
    )
    .note("(expected shape: rete/db-rete/cond grow with WM; query/marker are data-independent)")
}

/// Chain lengths above this are measured for Rete only: the matching-
/// pattern store is quadratic-plus in the chain length (64 CEs over one
/// class means every insertion matches patterns of every CE and
/// propagates to all 63 others), which is exactly the space trade-off
/// §4.2.3 concedes.
pub const E3_COND_MAX: usize = 12;

/// E3/F1: propagation cost of the final insertion of an n-long chain.
pub fn e3_chain(ns: &[usize]) -> Table {
    let mut rows = Vec::new();
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
        rows.push(row![
            n,
            m.max_depth,
            m.activations,
            rete_ns,
            cond_ns,
            detect
        ]);
    }
    Table::new(
        "F1/E3 — chain C1∧…∧Cn: propagation depth and final-insert cost",
        "n | rete depth | rete activations | rete ns | cond ns | cond detect ns",
        rows,
    )
    .note(format!(
        "(expected shape: rete depth and activations grow linearly in n; cond detection stays flat.\n \
         cond columns are 0 above n={E3_COND_MAX}: the pattern store grows super-quadratically on deep chains,\n \
         the space trade-off conceded in §4.2.3)"
    ))
}

/// E4: time until the conflict set is updated (detection) vs total op
/// time, averaged over a trace.
pub fn e4_detect(ops: usize) -> Table {
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
    let mut rows = Vec::new();
    for kind in [EngineKind::Rete, EngineKind::Cond] {
        let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
        let (mut detect, mut total, mut n) = (0u64, 0u64, 0u64);
        run_trace(engine.as_mut(), &trace, |e| {
            if let Some((d, t)) = e.last_detect_split() {
                detect += d;
                total += t;
                n += 1;
            }
        });
        rows.push(row![kind.label(), detect / n.max(1), total / n.max(1)]);
    }
    Table::new(
        "E4 — conflict-set detection latency vs total op time",
        "engine | avg detect ns | avg total ns",
        rows,
    )
    .note("(expected shape: cond updates the conflict set before maintenance; rete only after full propagation)")
}

const INDEPENDENT: &str = r#"
    (literalize Item n v)
    (p Consume (Item ^n <N> ^v <V>) --> (remove 1))
"#;

/// A skewed workload: every firing funnels into the single shared `Total`
/// relation — the §5.2 worst case where "this will reduce to the time
/// taken for a serial execution". E6, E7 and the `obs` concurrent pass run
/// it.
pub(crate) const SKEWED: &str = r#"
    (literalize Item n v)
    (literalize Total n v)
    (p Funnel (Item ^n <N> ^v <V>) --> (remove 1) (make Total ^n <N> ^v <V>))
"#;

/// Load `items` rows `(i, 3i)` into a Rete engine running `src` over
/// `db`, then fire them with the §5 executor on `workers` threads. Returns
/// the run's stats and wall time (the load is not timed).
pub(crate) fn concurrent_pass(
    db: Arc<Database>,
    src: &str,
    items: usize,
    workers: usize,
    tracer: Tracer,
) -> (ConcurrentStats, u64) {
    let rules = ops5::compile(src).expect("program compiles");
    let pdb = ProductionDb::with_db(db.clone(), rules).unwrap();
    let mut engine = make_engine(EngineKind::Rete, pdb);
    for i in 0..items as i64 {
        engine.insert(ClassId(0), tuple![i, i * 3]);
    }
    let mut exec = ConcurrentExecutor::new(engine, workers);
    exec.set_tracer(tracer);
    let start = Instant::now();
    let stats = exec.run(items * 4);
    let wall_ns = start.elapsed().as_nanos() as u64;
    // Strict 2PL releases every lock at commit or abort.
    assert_eq!(
        db.lock_manager().held_count(),
        0,
        "locks held after the run"
    );
    (stats, wall_ns)
}

/// Buffer-pool frames of E6's paged database: enough to hold its working
/// memory, so the time measured is the §5 executor plus one WAL fsync per
/// commit rather than page eviction.
pub const E6_POOL_PAGES: usize = 256;

/// E6 over real I/O: each pass loads `insts` items into a fresh paged
/// database in a temp directory (removed afterwards) and fires them with
/// the §5 executor, one transaction and one WAL frame per commit.
pub fn e6_concurrent(insts: usize, worker_counts: &[usize]) -> Table {
    let mut rows = Vec::new();
    for (label, src) in [("independent", INDEPENDENT), ("skewed", SKEWED)] {
        for &workers in worker_counts {
            let dir = crate::scratch_dir("e6");
            let db = Arc::new(Database::new_paged(&dir, E6_POOL_PAGES).expect("paged database"));
            // Loading syncs nothing, so every sync counted is a commit's.
            let before = db.stats().snapshot().wal_syncs;
            let (s, wall_ns) = concurrent_pass(db.clone(), src, insts, workers, Tracer::disabled());
            let syncs = db.stats().snapshot().wal_syncs - before;
            rows.push(row![
                label,
                workers,
                wall_ns,
                s.committed,
                s.deadlock_aborts,
                s.invalidated,
                s.rounds,
                s.lock_waits,
                format!("{:.3}", s.lock_wait_ns as f64 / 1e6),
                format!("{:.2}", syncs as f64 / s.committed.max(1) as f64),
            ]);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    Table::new(
        "E6 — concurrent vs serial execution of the conflict set (paged, fsync per commit)",
        "workload | workers | wall ns | committed | deadlock aborts | invalidated | rounds | lock waits | lock wait ms | wal syncs/commit",
        rows,
    )
    .note(
        "(paper's expected shape: independent scales with workers; skewed serializes on the shared\n \
         relation. On this store every writing commit fsyncs its own frame under the one WAL mutex\n \
         (wal syncs/commit 1.00), so workers cannot overlap their commits and neither workload\n \
         scales — see EXPERIMENTS.md E6)",
    )
}

/// E7: the \[RASC87\] estimates — critical path and the number of
/// serializable schedules equivalent to the serial one.
pub fn e7_schedules(sizes: &[usize]) -> Table {
    let mut rows = Vec::new();
    for (label, src) in [("independent", INDEPENDENT), ("skewed", SKEWED)] {
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
            rows.push(row![
                label,
                txns.len(),
                critical_path(&txns),
                count_equivalent_schedules(&txns),
                interleaving_upper_bound(&txns),
            ]);
        }
    }
    Table::new(
        "E7 — [RASC87] concurrency measures",
        "workload | txns | critical path | equivalent schedules | free-interleaving bound",
        rows,
    )
    .note("(expected shape: independent ≈ bound; skewed collapses toward 1 with a long critical path)")
}

/// E8: POSTGRES-style markers vs matching patterns — false drops.
pub fn e8_false_drops(domains: &[i64], ops: usize) -> Table {
    let mut rows = Vec::new();
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
        let (_, marker_io, _) = run_trace(marker.as_mut(), &trace, |_| {});
        let mut cond = make_engine(EngineKind::Cond, ProductionDb::new(cfg.rules()).unwrap());
        let (_, cond_io, _) = run_trace(cond.as_mut(), &trace, |_| {});
        rows.push(row![domain, marker.false_drops(), marker_io, cond_io]);
    }
    Table::new(
        "E8 — marker (POSTGRES-style) false drops vs matching patterns",
        "constant domain | marker false drops | marker I/O/op | cond I/O/op",
        rows,
    )
    .note("(expected shape: small domains → overlapping markers → many false drops)")
}

fn e9_conditions(n: usize) -> Vec<(Rect, u32)> {
    // Age-interval conditions over Emp(name-key, age): [lo, lo+width].
    (0..n)
        .map(|i| {
            let lo = (i * 7 % 1000) as i64;
            let rect = Rect::from_restriction(
                2,
                &Restriction::new(vec![
                    Selection::new(1, CompOp::Ge, lo),
                    Selection::new(1, CompOp::Le, lo + 25),
                ]),
            )
            .unwrap();
            (rect, i as u32)
        })
        .collect()
}

/// The predicate index kinds E9, E10a and E10c compare, by row label.
const INDEX_KINDS: [(&str, IndexKind); 3] = [
    ("linear", IndexKind::Linear),
    ("r-tree", IndexKind::RTree),
    ("r+-tree", IndexKind::RPlus),
];

/// E9: predicate indexing — stabbing and rule-base queries.
pub fn e9_predindex(sizes: &[usize], probes: usize) -> Table {
    let mut rows = Vec::new();
    for &n in sizes {
        let conds = e9_conditions(n);
        for (name, kind) in INDEX_KINDS {
            let idx = predindex::build(kind, 2, conds.clone());
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
            rows.push(row![n, name, stab_ns, stab_visits, query_ns]);
        }
    }
    Table::new(
        "E9 — predicate indexing: point stabbing and rule-base queries",
        "conditions | index | stab ns | stab visits | box-query ns",
        rows,
    )
    .note(
        "(expected shape: trees ≪ linear beyond ~1k conditions; R+ stabbing visits a single path)",
    )
}

/// The 512-rule workload of the E10a/E10c index ablations.
fn e10_workload(ops: usize) -> (RuleGenConfig, Vec<Op>) {
    let cfg = RuleGenConfig {
        rules: 512,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops,
        ..Default::default()
    }
    .trace(cfg.classes, cfg.attrs);
    (cfg, trace)
}

/// E10a: COND-relation index ablation for the §4.1 query engine.
pub fn e10_index_ablation(ops: usize) -> Table {
    let (cfg, trace) = e10_workload(ops);
    let mut rows = Vec::new();
    for (name, kind) in INDEX_KINDS {
        let mut engine = QueryEngine::with_index(ProductionDb::new(cfg.rules()).unwrap(), kind);
        let (ns, _, _) = run_trace(&mut engine, &trace, |_| {});
        rows.push(row![name, ns, engine.index_visits() / trace.len() as u64]);
    }
    Table::new(
        "E10a — COND-relation index ablation (query engine, 512 rules)",
        "index | ns/op | index visits/op",
        rows,
    )
}

/// E10c: the §4.2.3 suggestion to index COND relations, ablated.
pub fn e10_cond_index_ablation(ops: usize) -> Table {
    let (cfg, trace) = e10_workload(ops);
    let mut rows = Vec::new();
    for (name, kind) in INDEX_KINDS {
        let mut e = CondEngine::with_index(ProductionDb::new(cfg.rules()).unwrap(), kind);
        let (ns, io, _) = run_trace(&mut e, &trace, |_| {});
        rows.push(row![name, ns, io, e.index_visits() / trace.len() as u64]);
    }
    Table::new(
        "E10c — indexing the COND relations themselves (§4.2.3, 512 rules)",
        "index | ns/op | logical I/O/op | index visits/op",
        rows,
    )
}

/// E10b: delete-heavy traces — the counter machinery at work.
pub fn e10_delete_ablation(fractions: &[f64], ops: usize) -> Table {
    let cfg = RuleGenConfig {
        rules: 32,
        ces_per_rule: 3,
        classes: 3,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for &f in fractions {
        let trace = TraceConfig {
            ops,
            delete_fraction: f,
            ..Default::default()
        }
        .trace(cfg.classes, cfg.attrs);
        let mut cond = CondEngine::new(ProductionDb::new(cfg.rules()).unwrap());
        let (cond_ns, _, _) = run_trace(&mut cond, &trace, |_| {});
        let mut rete = make_engine(EngineKind::Rete, ProductionDb::new(cfg.rules()).unwrap());
        let (rete_ns, _, _) = run_trace(rete.as_mut(), &trace, |_| {});
        rows.push(row![
            format!("{f:.2}"),
            cond_ns,
            rete_ns,
            cond.pattern_count()
        ]);
    }
    Table::new(
        "E10b — delete-heavy traces (support counters at work)",
        "delete fraction | cond ns/op | rete ns/op | final cond patterns",
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of column `name`, top to bottom.
    fn column<'a>(t: &'a Table, name: &str) -> Vec<&'a str> {
        let i = t.header.iter().position(|h| h == name).unwrap();
        t.rows.iter().map(|r| r[i].as_str()).collect()
    }

    /// Column `col` of the row whose `key` column reads `value`, parsed.
    fn cell(t: &Table, key: &str, value: &str, col: &str) -> f64 {
        let at = column(t, key).iter().position(|v| *v == value).unwrap();
        column(t, col)[at].parse().unwrap()
    }

    fn numbers(t: &Table, col: &str) -> Vec<f64> {
        column(t, col).iter().map(|v| v.parse().unwrap()).collect()
    }

    #[test]
    fn e1_produces_all_engines() {
        let t = e1_match_scaling(&[8], 30);
        assert_eq!(t.rows.len(), 5);
        assert!(numbers(&t, "ns/op").iter().all(|&ns| ns > 0.0));
    }

    #[test]
    fn e2_space_ordering_matches_paper_claims() {
        let t = e2_space(&[120]);
        let get = |name: &str| cell(&t, "engine", name, "entries");
        // Rete and cond store per-data state; query and marker do not.
        assert!(get("rete") > get("query"), "rete stores tokens");
        assert!(get("cond") > get("marker"), "cond stores matching patterns");
        // Marker/query space is data-independent (static structures).
        assert!(get("marker") <= (64 * 2 + 8) as f64);
    }

    #[test]
    fn e3_rete_depth_grows() {
        let t = e3_chain(&[2, 8, 16]);
        assert!(numbers(&t, "rete depth").windows(2).all(|w| w[0] < w[1]));
        assert!(numbers(&t, "rete activations")
            .windows(2)
            .all(|w| w[0] < w[1]));
    }

    #[test]
    fn e4_cond_detects_before_maintenance() {
        let t = e4_detect(120);
        let get = |engine: &str, col: &str| cell(&t, "engine", engine, col);
        assert!(get("cond", "avg detect ns") <= get("cond", "avg total ns"));
        assert_eq!(
            get("rete", "avg detect ns"),
            get("rete", "avg total ns"),
            "rete has no split"
        );
    }

    #[test]
    fn e6_runs_and_commits() {
        // Each pass also asserts that no lock is held after the run.
        let t = e6_concurrent(8, &[1, 4]);
        assert!(numbers(&t, "committed").iter().all(|&c| c == 8.0));
        assert!(
            numbers(&t, "wal syncs/commit").iter().all(|&s| s == 1.0),
            "every writing commit syncs its own frame"
        );
    }

    #[test]
    fn e7_skew_collapses_schedules() {
        let t = e7_schedules(&[3]);
        let get = |workload: &str, col: &str| cell(&t, "workload", workload, col);
        // Compare the fraction of free interleavings that remain legal:
        // fully independent transactions keep all of them, the shared
        // Total relation prunes most.
        let ratio = |w: &str| get(w, "equivalent schedules") / get(w, "free-interleaving bound");
        assert!(
            (ratio("independent") - 1.0).abs() < 1e-9,
            "independent keeps every interleaving"
        );
        assert!(
            ratio("skewed") < 0.5,
            "skew prunes interleavings: {}",
            ratio("skewed")
        );
        assert!(get("skewed", "critical path") >= get("independent", "critical path"));
    }

    #[test]
    fn e8_small_domain_more_false_drops() {
        let drops = numbers(&e8_false_drops(&[2, 50], 40), "marker false drops");
        assert!(
            drops[0] >= drops[1],
            "domain 2 ({}) vs 50 ({})",
            drops[0],
            drops[1]
        );
    }

    #[test]
    fn e9_trees_beat_linear_on_visits() {
        let t = e9_predindex(&[1500], 30);
        let visits = |index: &str| cell(&t, "index", index, "stab visits");
        assert!(visits("r-tree") < (visits("linear") / 2.0).floor());
        // Insertion-built trees read 12 (R) and 25 (R+) visits here.
        assert!(visits("r-tree") <= 12.0, "r-tree: {}", visits("r-tree"));
        assert!(visits("r+-tree") <= 16.0, "r+-tree: {}", visits("r+-tree"));
    }

    #[test]
    fn e10_runs() {
        assert_eq!(e10_index_ablation(40).rows.len(), 3);
        assert_eq!(e10_delete_ablation(&[0.0, 0.4], 60).rows.len(), 2);
        let c = e10_cond_index_ablation(40);
        assert_eq!(c.rows.len(), 3);
        let col = |index: &str, column: &str| cell(&c, "index", index, column);
        // Every kind stabs the same condition set, so the engine reads the
        // same tuples; the trees visit fewer index nodes than the linear
        // index has entries.
        for tree in ["r-tree", "r+-tree"] {
            assert_eq!(col(tree, "logical I/O/op"), col("linear", "logical I/O/op"));
            assert!(col(tree, "index visits/op") < col("linear", "index visits/op"));
        }
    }
}
