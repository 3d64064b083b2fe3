//! The six workloads: seeded inputs, one measured round each, and the
//! output checks that feed `failed`.
//!
//! A round is set-up → change phase → act phase → recovery on a fresh
//! system over the same inputs; a run repeats rounds for `--seconds` and
//! `report.rs` reduces them. Sizes are fixed here, not scaled to the
//! machine, so a throughput is always "at this input size".

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ops5::{ClassId, RuleSet};
use prodsys::engine::recompute::{eval_rule, eval_rule_via};
use prodsys::{
    bootstrap, make_engine, ConcurrentExecutor, ConcurrentStats, EngineKind, MatchEngine,
    ProductionDb, SequentialExecutor, SpaceStats, Strategy,
};
use relstore::{snapshot, tuple, Database, OpSnapshot, Restriction, Tuple};
use rete::Instantiation;
use workload::{Op, RuleGenConfig, TraceConfig};

use crate::trace::{EngineCounts, Recorder, TimedEngine};

/// The seed `run` uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1988;

/// Executor workers of the `txn-*` workloads: this box has 2 cores, and
/// the benchmark never runs more threads than that.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamCond,
    StreamRete,
    BulkQueryMem,
    BulkQueryPaged,
    TxnDisjoint,
    TxnContended,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::StreamCond,
        Workload::StreamRete,
        Workload::BulkQueryMem,
        Workload::BulkQueryPaged,
        Workload::TxnDisjoint,
        Workload::TxnContended,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamCond => "stream-cond",
            Workload::StreamRete => "stream-rete",
            Workload::BulkQueryMem => "bulk-query-mem",
            Workload::BulkQueryPaged => "bulk-query-paged",
            Workload::TxnDisjoint => "txn-disjoint",
            Workload::TxnContended => "txn-contended",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::StreamCond | Workload::TxnContended => EngineKind::Cond,
            Workload::StreamRete | Workload::TxnDisjoint => EngineKind::Rete,
            Workload::BulkQueryMem | Workload::BulkQueryPaged => EngineKind::Query,
        }
    }

    /// Buffer-pool frames when the workload's WM is file-backed.
    pub fn pool_pages(self, sizes: &Sizes) -> Option<usize> {
        match self {
            Workload::BulkQueryPaged => Some(sizes.bulk_pool_pages),
            Workload::TxnDisjoint => Some(DISJOINT_POOL_PAGES),
            _ => None,
        }
    }
}

/// Input sizes. `FULL` is what every reported number uses; `--quick`
/// divides by 50 for smoke runs and tests (no bounds apply to those).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `stream-*`: per-tuple WM changes in the trace.
    pub stream_ops: usize,
    /// `stream-*`: recognize-act cycles fired after the change phase.
    pub stream_firings: usize,
    /// `bulk-*`: `Item` tuples loaded.
    pub bulk_items: i64,
    /// `bulk-query-paged`: pool frames, about a tenth of the heap pages.
    pub bulk_pool_pages: usize,
    /// `txn-disjoint`: preloaded `Item` tuples, one transaction each.
    pub disjoint_items: i64,
    /// `txn-contended`: preloaded `Item` tuples, one transaction each.
    pub contended_items: i64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        stream_ops: 12_000,
        stream_firings: 150,
        bulk_items: 20_000,
        bulk_pool_pages: 12,
        disjoint_items: 3_000,
        contended_items: 5_000,
    };

    pub fn quick() -> Sizes {
        let f = Sizes::FULL;
        Sizes {
            stream_ops: f.stream_ops / 50,
            stream_firings: f.stream_firings / 50,
            bulk_items: f.bulk_items / 50,
            bulk_pool_pages: 2,
            disjoint_items: f.disjoint_items / 50,
            contended_items: f.contended_items / 50,
        }
    }
}

/// `stream-*`: generated rules.
const STREAM_RULES: usize = 256;
/// `bulk-*`: tuples per `insert_batch` call.
const BULK_CHUNK: usize = 20;
/// `txn-disjoint`: pool frames, more than twice the WM's heap pages at
/// any size, so the workload never faults a page.
const DISJOINT_POOL_PAGES: usize = 256;

/// The `SCALED_DEMO` shape of `crates/bench`: a skewed `Item ⋈ Ref` join
/// guarded by a negated `Hit`.
const BULK_SRC: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (literalize Hit n)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) -(Hit ^n <N>) --> (make Hit ^n <N>))
"#;
const BULK_KEYS: i64 = 64;
const BULK_HOT: i64 = 4;
const BULK_REFS: i64 = 4;

/// Lock-disjoint §5 transactions: every `Item` has a referent, shares S
/// locks on it, and takes X only on its own tuple.
const DISJOINT_SRC: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (p Consume (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) --> (remove 1))
"#;

/// Join keys of the `txn-*` items; in `txn-disjoint` each has a `Ref`.
const TXN_KEYS: i64 = 64;

/// Relation-level S lock for NOT EXISTS, then X for the insert: two
/// workers upgrading on `Hit` deadlock, one is the victim and retries.
const CONTENDED_SRC: &str = r#"
    (literalize Item n k)
    (literalize Hit n)
    (p Mark (Item ^n <N> ^k <K>) -(Hit ^n <N>) --> (make Hit ^n <N>))
"#;

/// The only randomness in the benchmark besides the `workload` crate's
/// own seeded generators.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// One external WM change: insert (true) or remove, class, tuple.
pub type Change = (bool, ClassId, Tuple);

/// Everything a workload's program receives: generated from the seed
/// once per run, identical in every round.
pub struct Inputs {
    /// OPS5 source of the rule program.
    pub src: String,
    /// The change phase, in order.
    pub changes: Vec<Change>,
    /// Firings the act phase must produce: the firing budget
    /// (`stream-*`), the closed form of the key skew (`bulk-*`), or one
    /// transaction per item (`txn-*`).
    pub expect_fired: u64,
}

const ITEM: ClassId = ClassId(0);

pub fn inputs(w: Workload, seed: u64, sizes: &Sizes) -> Inputs {
    match w {
        Workload::StreamCond | Workload::StreamRete => {
            let gen = RuleGenConfig {
                classes: 8,
                attrs: 4,
                rules: STREAM_RULES,
                ces_per_rule: 2,
                domain: 10,
                negated_fraction: 0.25,
                seed,
            };
            let trace = TraceConfig {
                ops: sizes.stream_ops,
                delete_fraction: 0.2,
                join_domain: 2000,
                select_domain: 10,
                seed,
            }
            .trace(gen.classes, gen.attrs);
            Inputs {
                src: gen.source(),
                changes: trace
                    .into_iter()
                    .map(|op| match op {
                        Op::Insert(c, t) => (true, ClassId(c), t),
                        Op::Remove(c, t) => (false, ClassId(c), t),
                    })
                    .collect(),
                expect_fired: sizes.stream_firings as u64,
            }
        }
        Workload::BulkQueryMem | Workload::BulkQueryPaged => {
            // Which keys are hot and which have a referent is a seeded
            // permutation; how many items hit each kind is not, so the
            // fired count has a closed form.
            let mut rng = SplitMix(seed);
            let mut perm: Vec<i64> = (0..BULK_KEYS).collect();
            rng.shuffle(&mut perm);
            let base_key = |i: i64| {
                if i % 4 != 0 {
                    i % BULK_HOT
                } else {
                    BULK_HOT + (i / 4) % (BULK_KEYS - BULK_HOT)
                }
            };
            let has_ref = |k: i64| (BULK_HOT..BULK_HOT + BULK_REFS).contains(&k);
            let mut items: Vec<Tuple> = (0..sizes.bulk_items)
                .map(|i| tuple![i, perm[base_key(i) as usize]])
                .collect();
            rng.shuffle(&mut items);
            let refs = (0..BULK_REFS).map(|r| tuple![perm[(BULK_HOT + r) as usize], r * 10]);
            Inputs {
                src: BULK_SRC.into(),
                changes: refs
                    .map(|t| (true, ClassId(1), t))
                    .chain(items.into_iter().map(|t| (true, ITEM, t)))
                    .collect(),
                expect_fired: (0..sizes.bulk_items)
                    .filter(|&i| has_ref(base_key(i)))
                    .count() as u64,
            }
        }
        Workload::TxnDisjoint | Workload::TxnContended => {
            let (src, n, refs) = if w == Workload::TxnDisjoint {
                (DISJOINT_SRC, sizes.disjoint_items, TXN_KEYS)
            } else {
                (CONTENDED_SRC, sizes.contended_items, 0)
            };
            let mut rng = SplitMix(seed);
            let mut items: Vec<Tuple> = (0..n)
                .map(|i| tuple![i, (rng.next() % TXN_KEYS as u64) as i64])
                .collect();
            rng.shuffle(&mut items);
            Inputs {
                src: src.into(),
                changes: (0..refs)
                    .map(|k| (true, ClassId(1), tuple![k, k * 10]))
                    .chain(items.into_iter().map(|t| (true, ITEM, t)))
                    .collect(),
                expect_fired: n as u64,
            }
        }
    }
}

/// What one round measured. Times are nanoseconds.
#[derive(Default)]
pub struct Round {
    /// The whole round, without the tracer's own probes.
    pub wall_ns: u64,
    pub setup_ns: u64,
    pub compile_ns: u64,
    pub change_ns: u64,
    pub changes: u64,
    /// Latency of each external change call of the change phase.
    pub call_ns: Vec<u64>,
    pub act_ns: u64,
    pub firings: u64,
    /// Latency of each sequential recognize-act cycle.
    pub step_ns: Vec<u64>,
    pub recover_ns: u64,
    pub disk_bytes: u64,
    pub wm_bytes: u64,
    pub wal_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Store counters over the change phase and over the act phase.
    pub change_ops: OpSnapshot,
    pub act_ops: OpSnapshot,
    pub conc: Option<ConcurrentStats>,
    pub space: SpaceStats,
    pub pattern_io: (u64, u64),
    /// Traced rounds only, below here. `TimedEngine` time and conflict
    /// deltas inside the change phase; maintenance calls of the round.
    pub maintain_change_ns: u64,
    pub conflict_deltas_change: u64,
    pub maintain_calls: u64,
    /// Time in `candidates()` + strategy, timed directly every
    /// `SELECT_EVERY` cycles and scaled to all cycles.
    pub select_ns: u64,
    /// Every rule's LHS evaluated directly over the final WM,
    /// set-oriented and nested-loop.
    pub query_eval_ns: u64,
    pub query_eval_nl_ns: u64,
    /// Time in the tracer's own probes, kept out of `wall_ns`.
    pub probe_ns: u64,
}

/// Shared state of a run's rounds.
pub struct Env {
    pub data_root: PathBuf,
    pub sizes: Sizes,
    /// `Some` on traced rounds.
    pub rec: Option<Arc<Recorder>>,
    pub counts: Arc<EngineCounts>,
}

impl Env {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.rec {
            Some(rec) => rec.scope(name, f),
            None => f(),
        }
    }

    /// Run the change phase `f` (which pushes one latency per external
    /// call) and book its wall time and counters into `round`.
    fn change_phase(
        &self,
        round: &mut Round,
        db: &Database,
        changes: &[Change],
        f: impl FnOnce(&mut Vec<u64>),
    ) {
        let ops = db.stats().snapshot();
        let counts = self.counts.snapshot();
        let mut call_ns = Vec::with_capacity(changes.len());
        let t = Instant::now();
        self.span("change_phase", || f(&mut call_ns));
        round.change_ns = ns(t);
        round.call_ns = call_ns;
        round.changes = changes.len() as u64;
        round.attempted += round.changes;
        round.change_ops = db.stats().snapshot().since(&ops);
        let now = self.counts.snapshot();
        round.maintain_change_ns = now.1 - counts.1;
        round.conflict_deltas_change = now.2 - counts.2;
        round.wm_bytes = db.total_bytes() as u64;
    }
}

/// Counts checks attempted and failed; a failed check is reported on
/// stderr and in `failed`, never by panicking mid-run.
fn check(round: &mut Round, ok: bool, what: &str) {
    round.attempted += 1;
    if !ok {
        round.failed += 1;
        eprintln!("CHECK FAILED: {what}");
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Every relation's tuples, sorted, keyed by relation name.
fn dump(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    let mut out: Vec<(String, Vec<Tuple>)> = db
        .relation_names()
        .into_iter()
        .map(|(rid, name)| {
            let mut rows: Vec<Tuple> = db
                .select(rid, &Restriction::default())
                .expect("dump select")
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            rows.sort();
            (name, rows)
        })
        .collect();
    out.sort();
    out
}

/// Set-ups per round. Set-up is micro- to milliseconds, much of it file
/// creation whose cost drifts by a quarter within seconds on this box, so
/// a round sets up several times back to back and keeps the fastest.
const SETUPS_PER_ROUND: usize = 5;

/// `setup_s`: compile the program, create the database and the WM
/// relations, build the engine. Returns the engine and the compiled rules
/// of the last set-up; the earlier ones are dropped before the next starts
/// (`new_paged` discards whatever its directory held).
fn setup(
    env: &Env,
    round: &mut Round,
    src: &str,
    kind: EngineKind,
    paged: Option<(&Path, usize)>,
) -> (Box<dyn MatchEngine>, RuleSet) {
    round.setup_ns = u64::MAX;
    let mut built = None;
    for _ in 0..SETUPS_PER_ROUND {
        drop(built.take());
        let t = Instant::now();
        built = Some(env.span("setup", || {
            let tc = Instant::now();
            let rules = env.span("ops5.compile", || {
                ops5::compile(src).expect("program compiles")
            });
            round.compile_ns = ns(tc);
            let engine = env.span("engine.create", || {
                let db = match paged {
                    Some((dir, pool)) => Database::new_paged(dir, pool).expect("paged database"),
                    None => Database::new(),
                };
                let pdb = ProductionDb::with_db(Arc::new(db), rules.clone()).expect("wm relations");
                let mut engine = make_engine(kind, pdb);
                engine.set_batching(true);
                engine
            });
            (engine, rules)
        }));
        round.setup_ns = round.setup_ns.min(ns(t));
    }
    let (engine, rules) = built.expect("at least one set-up");
    match &env.rec {
        Some(rec) => (
            TimedEngine::wrap(engine, rec.clone(), env.counts.clone()),
            rules,
        ),
        None => (engine, rules),
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// `recover_s` and `disk_bytes_per_wm_byte`: bring a second system up
/// from the bytes the live one has made durable, until its conflict set
/// is ready, and check it against the live one.
///
/// Paged WM: a copy of the data directory taken after the last
/// acknowledged commit (the WAL file holds synced bytes only), then
/// `open_paged` + `attach` + `bootstrap`. In-memory WM: the documented
/// restart path, a `snapshot::save` image written to a file, then
/// `snapshot::load` + `attach` + `bootstrap`.
fn recover(
    env: &Env,
    round: &mut Round,
    live: &dyn MatchEngine,
    rules: &RuleSet,
    kind: EngineKind,
    dir: &Path,
    pool: Option<usize>,
) {
    let live_db = live.pdb().db().clone();
    let copy = dir.join("recover");
    std::fs::create_dir_all(&copy).expect("recover dir");
    // A consumed WM must not divide by ~0: the denominator is the larger
    // of the WM after the change phase and at the end of the run.
    round.wm_bytes = round.wm_bytes.max(live_db.total_bytes() as u64);
    let snap = copy.join("wm.snap");
    if pool.is_some() {
        live_db.sync_wal().expect("final wal sync");
        round.wal_bytes = file_len(&dir.join("wal.log"));
        round.disk_bytes = round.wal_bytes
            + file_len(&dir.join("data.pages"))
            + file_len(&dir.join("checkpoint.snap"));
        // open_paged rebuilds the page file from checkpoint + log.
        for f in ["wal.log", "checkpoint.snap"] {
            if dir.join(f).exists() {
                std::fs::copy(dir.join(f), copy.join(f)).expect("copy data dir");
            }
        }
    } else {
        let image = snapshot::save(&live_db).expect("snapshot");
        let mut f = std::fs::File::create(&snap).expect("create snapshot");
        f.write_all(image.as_ref()).expect("write snapshot");
        f.sync_all().expect("sync snapshot");
        round.disk_bytes = image.as_ref().len() as u64;
    }
    let t = Instant::now();
    let back = env.span("recover", || {
        let db = env.span("relstore.reopen", || match pool {
            Some(pool) => Database::open_paged(&copy, pool).expect("reopen").0,
            None => {
                snapshot::load(std::fs::read(&snap).expect("read snapshot").into()).expect("load")
            }
        });
        env.span("engine.bootstrap", || {
            let pdb = ProductionDb::attach(Arc::new(db), rules.clone()).expect("attach");
            let mut engine = make_engine(kind, pdb);
            engine.set_batching(true);
            bootstrap(engine.as_mut());
            engine
        })
    });
    round.recover_ns = ns(t);
    check(
        round,
        dump(back.pdb().db()) == dump(&live_db),
        "reopened WM differs from the live WM",
    );
    check(
        round,
        back.conflict_set().sorted() == live.conflict_set().sorted(),
        "reopened conflict set differs from the live one",
    );
}

/// In the traced run, every this-many-th cycle also times the select
/// step (`candidates()` + strategy) directly at the current conflict set.
const SELECT_EVERY: u64 = 8;

/// Fire up to `budget` sequential cycles, timing each.
fn act_sequential(env: &Env, round: &mut Round, exec: &mut SequentialExecutor, budget: u64) {
    let base = exec.engine().pdb().db().stats().snapshot();
    let (mut selects, mut select_ns) = (0u64, 0u64);
    let t = Instant::now();
    env.span("act_phase", || {
        while round.firings < budget {
            if env.rec.is_some() && round.firings.is_multiple_of(SELECT_EVERY) {
                let ts = Instant::now();
                let candidates = exec.candidates();
                let refs: Vec<&Instantiation> = candidates.iter().collect();
                if !refs.is_empty() {
                    std::hint::black_box(Strategy::Fifo.pick(exec.engine().pdb().rules(), &refs));
                }
                selects += 1;
                select_ns += ns(ts);
            }
            let ts = Instant::now();
            if env.span("exec.step", || exec.step()).is_none() {
                break;
            }
            round.step_ns.push(ns(ts));
            round.firings += 1;
        }
    });
    // The directly timed select calls are the tracer's, not the program's.
    round.act_ns = ns(t) - select_ns;
    round.probe_ns += select_ns;
    round.select_ns = select_ns.checked_div(selects).unwrap_or(0) * round.firings;
    round.act_ops = exec.engine().pdb().db().stats().snapshot().since(&base);
}

/// End-of-round counters, and in the traced run the direct query replay.
fn finish(env: &Env, round: &mut Round, engine: &dyn MatchEngine, rules: &RuleSet) {
    round.space = engine.space();
    round.pattern_io = engine.pattern_io().unwrap_or((0, 0));
    if env.rec.is_some() {
        let t = Instant::now();
        for set_oriented in [true, false] {
            let tq = Instant::now();
            for rule in &rules.rules {
                std::hint::black_box(eval_rule_via(engine.pdb(), rule, set_oriented));
            }
            if set_oriented {
                round.query_eval_ns = ns(tq);
            } else {
                round.query_eval_nl_ns = ns(tq);
            }
        }
        round.probe_ns += ns(t);
    }
}

fn stream_round(
    env: &Env,
    w: Workload,
    inputs: &Inputs,
    reference: Option<&[Instantiation]>,
    dir: &Path,
) -> Round {
    let mut round = Round::default();
    let (engine, rules) = setup(env, &mut round, &inputs.src, w.engine(), None);
    let mut exec = SequentialExecutor::new(engine, Strategy::Fifo);
    let db = exec.engine().pdb().db().clone();

    env.change_phase(&mut round, &db, &inputs.changes, |call_ns| {
        for (insert, class, tuple) in &inputs.changes {
            let tc = Instant::now();
            if *insert {
                env.span("exec.insert", || exec.insert(*class, tuple.clone()));
            } else {
                env.span("exec.remove", || exec.remove(*class, tuple));
            }
            call_ns.push(ns(tc));
        }
    });

    // Output check, once per run: the maintained conflict set equals the
    // recompute oracle and the other engine's.
    if let Some(reference) = reference {
        let got = exec.engine().conflict_set().sorted();
        let pdb = exec.engine().pdb().clone();
        let mut oracle: Vec<Instantiation> = rules
            .rules
            .iter()
            .flat_map(|r| eval_rule(&pdb, r).into_iter().map(|m| m.instantiation(r)))
            .collect();
        oracle.sort();
        check(
            &mut round,
            got == oracle,
            "conflict set differs from the eval_rule oracle",
        );
        check(
            &mut round,
            got == reference,
            "conflict set differs between Rete and COND",
        );
    }

    act_sequential(env, &mut round, &mut exec, inputs.expect_fired);
    finish(env, &mut round, exec.engine(), &rules);
    recover(
        env,
        &mut round,
        exec.engine(),
        &rules,
        w.engine(),
        dir,
        None,
    );
    round
}

/// The conflict set the *other* stream engine reaches on the same trace.
pub fn stream_reference(w: Workload, inputs: &Inputs) -> Vec<Instantiation> {
    let other = if w == Workload::StreamCond {
        EngineKind::Rete
    } else {
        EngineKind::Cond
    };
    let rules = ops5::compile(&inputs.src).expect("program compiles");
    let mut engine = make_engine(other, ProductionDb::new(rules).expect("wm relations"));
    for (insert, class, tuple) in &inputs.changes {
        if *insert {
            engine.insert(*class, tuple.clone());
        } else {
            engine.remove(*class, tuple);
        }
    }
    engine.conflict_set().sorted()
}

fn bulk_round(env: &Env, w: Workload, inputs: &Inputs, dir: &Path) -> Round {
    let pool = w.pool_pages(&env.sizes);
    let mut round = Round::default();
    let paged = pool.map(|p| (dir, p));
    let (engine, rules) = setup(env, &mut round, &inputs.src, w.engine(), paged);
    let mut exec = SequentialExecutor::new(engine, Strategy::Fifo);
    let db = exec.engine().pdb().db().clone();

    env.change_phase(&mut round, &db, &inputs.changes, |call_ns| {
        // One insert_batch per `BULK_CHUNK` tuples of one class.
        for group in inputs.changes.chunk_by(|a, b| a.1 == b.1) {
            for chunk in group.chunks(BULK_CHUNK) {
                let tuples = chunk.iter().map(|c| c.2.clone()).collect();
                let tc = Instant::now();
                env.span("exec.insert_batch", || {
                    exec.insert_batch(chunk[0].1, tuples)
                });
                call_ns.push(ns(tc));
            }
        }
    });

    act_sequential(env, &mut round, &mut exec, u64::MAX);
    let pdb = exec.engine().pdb().clone();
    check(
        &mut round,
        pdb.wm_len(ClassId(2)) as u64 == inputs.expect_fired
            && pdb.wm_total() as u64 == inputs.changes.len() as u64 + inputs.expect_fired,
        "final WM sizes differ from the closed form",
    );
    finish(env, &mut round, exec.engine(), &rules);
    recover(
        env,
        &mut round,
        exec.engine(),
        &rules,
        w.engine(),
        dir,
        pool,
    );
    round
}

fn txn_round(env: &Env, w: Workload, inputs: &Inputs, dir: &Path) -> Round {
    let pool = w.pool_pages(&env.sizes);
    let mut round = Round::default();
    let paged = pool.map(|p| (dir, p));
    let (mut engine, rules) = setup(env, &mut round, &inputs.src, w.engine(), paged);
    let db = engine.pdb().db().clone();

    // Change phase: the preload, one external insert per tuple, made
    // durable (acknowledged) before the transactions start.
    env.change_phase(&mut round, &db, &inputs.changes, |call_ns| {
        for (_, class, tuple) in &inputs.changes {
            let tc = Instant::now();
            env.span("engine.insert", || engine.insert(*class, tuple.clone()));
            call_ns.push(ns(tc));
        }
        env.span("relstore.sync_wal", || db.sync_wal().expect("preload sync"));
    });
    // For the transaction workloads the preload is also part of set-up:
    // no transaction can start before it.
    round.setup_ns += round.change_ns;

    let base = db.stats().snapshot();
    let mut exec = ConcurrentExecutor::new(engine, WORKERS);
    let t = Instant::now();
    let stats = env.span("act_phase", || {
        env.span("exec.run", || exec.run(usize::MAX))
    });
    round.act_ns = ns(t);
    round.act_ops = db.stats().snapshot().since(&base);
    round.firings = stats.committed as u64;
    round.attempted += stats.failed as u64;
    round.failed += stats.failed as u64;

    let handle = exec.engine();
    let engine = handle.lock();
    let pdb = engine.pdb().clone();
    check(
        &mut round,
        db.lock_manager().held_count() == 0,
        "locks survive the run",
    );
    let n = inputs.expect_fired;
    let contents_ok = if w == Workload::TxnDisjoint {
        pdb.wm_len(ITEM) == 0
    } else {
        let mut hits: Vec<Tuple> = pdb
            .wm_scan(ClassId(1))
            .expect("scan Hit")
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        hits.sort();
        let mut want: Vec<Tuple> = (0..n as i64).map(|i| tuple![i]).collect();
        want.sort();
        hits == want && pdb.wm_len(ITEM) as u64 == n
    };
    check(
        &mut round,
        contents_ok,
        "final relation contents differ from one transaction per Item",
    );
    finish(env, &mut round, &**engine, &rules);
    recover(env, &mut round, &**engine, &rules, w.engine(), dir, pool);
    round.conc = Some(stats);
    round
}

/// Run one round of `w` in a fresh data directory and remove it again.
/// `reference` is the other stream engine's conflict set, on the round
/// that runs the cross-engine check.
pub fn run_round(
    env: &Env,
    w: Workload,
    inputs: &Inputs,
    index: u32,
    reference: Option<&[Instantiation]>,
) -> Round {
    let dir = env.data_root.join(format!("round-{index}"));
    std::fs::create_dir_all(&dir).expect("round data dir");
    if let Some(rec) = &env.rec {
        rec.set_round(index);
    }
    let calls = env.counts.snapshot().0;
    let t = Instant::now();
    let mut round = env.span("round", || match w {
        Workload::StreamCond | Workload::StreamRete => {
            stream_round(env, w, inputs, reference, &dir)
        }
        Workload::BulkQueryMem | Workload::BulkQueryPaged => bulk_round(env, w, inputs, &dir),
        Workload::TxnDisjoint | Workload::TxnContended => txn_round(env, w, inputs, &dir),
    });
    round.wall_ns = ns(t) - round.probe_ns;
    round.maintain_calls = env.counts.snapshot().0 - calls;
    round.attempted += inputs.expect_fired;
    let fired_all = round.firings == inputs.expect_fired;
    check(
        &mut round,
        fired_all,
        "firings differ from the expected count",
    );
    std::fs::remove_dir_all(&dir).expect("remove round data dir");
    round
}
