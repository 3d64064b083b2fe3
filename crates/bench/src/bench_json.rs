//! Machine-readable benchmark snapshots: `harness --bench-json FILE`.
//!
//! Runs the [`OBS_DEMO`](crate::obs_run) workload once per engine and
//! emits one JSON document in a stable schema (`sellis88-bench/v1`), so
//! successive snapshots — `BENCH_seed.json`, `BENCH_<change>.json` — can
//! be diffed across PRs without scraping harness tables.

use std::time::Instant;

use obs::json::{Arr, Obj};
use prodsys::{
    make_engine, ClassId, ConcurrentExecutor, EngineKind, MatchEngine, ProductionDb,
    ProductionSystem, Strategy,
};
use relstore::tuple;

use crate::obs_run::{OBS_DEMO, OBS_ITEMS};

/// Schema identifier embedded in every snapshot. Bump only when a field
/// is renamed or removed; adding fields is backward compatible.
pub const BENCH_SCHEMA: &str = "sellis88-bench/v1";

/// One engine's measurements over the demo workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Engine label (`rete`, `db-rete`, `query`, `cond`, `marker`).
    pub engine: &'static str,
    /// Wall time of load + run, in nanoseconds.
    pub wall_ns: u64,
    /// Productions fired.
    pub fired: u64,
    /// Logical I/O (tuples read + inserted + deleted) of the run.
    pub logical_io: u64,
    /// Entries held in match-support memory after the run.
    pub match_entries: u64,
    /// Approximate bytes of match-support memory after the run.
    pub match_bytes: u64,
    /// Matching-pattern index probes served (0 for engines without a
    /// pattern store, or with its index disabled).
    pub pattern_probes: u64,
    /// Matching patterns examined during maintenance — the candidate
    /// lists behind probes, or whole groups under full scans.
    pub pattern_scanned: u64,
    /// Pages faulted in from the page file (0 for in-memory rows).
    pub page_reads: u64,
    /// Pages written to the page file (0 for in-memory rows).
    pub page_writes: u64,
    /// Page requests served from the buffer pool without I/O.
    pub pool_hits: u64,
    /// Buffer-pool frames evicted to make room (0 unless the pool is
    /// smaller than the working set).
    pub pool_evictions: u64,
    /// Lock requests that blocked during the run (0 for the sequential
    /// rows, which are single-threaded and never contend).
    pub lock_waits: u64,
    /// Total nanoseconds transactions spent blocked on locks.
    pub lock_wait_ns: u64,
    /// Per-lock-shard contention `(shard, waits, wait_ns)` for shards
    /// where at least one request blocked — the §5 sharding evidence:
    /// contention localizes to the shards the workload actually hits.
    pub lock_shards: Vec<(u32, u64, u64)>,
    /// Bytes allocated during the profiled re-run (0 when the row was
    /// built without profiling, or in binaries that don't install
    /// [`obs::alloc::CountingAlloc`]).
    pub alloc_bytes: u64,
    /// Wall time of the profiled re-run (0 when not profiled) — the
    /// denominator for span attribution; `wall_ns` stays profiler-free.
    pub prof_wall_ns: u64,
    /// Merged span call tree of the profiled re-run (empty when not
    /// profiled).
    pub profile: obs::Profile,
}

impl BenchRow {
    /// The one place a row is assembled: counters read off the `engine`
    /// the timed pass left behind (and its database), lock contention
    /// from the concurrent run's `locks` (zeros for sequential rows), and
    /// the profiled re-run's columns.
    fn new(
        label: &'static str,
        wall_ns: u64,
        fired: u64,
        engine: &dyn MatchEngine,
        locks: Option<&prodsys::ConcurrentStats>,
        rerun: Rerun,
    ) -> BenchRow {
        let space = engine.space();
        let (pattern_probes, pattern_scanned) = engine.pattern_io().unwrap_or((0, 0));
        let ops = engine.pdb().db().stats().snapshot();
        BenchRow {
            engine: label,
            wall_ns,
            fired,
            logical_io: ops.logical_io(),
            match_entries: space.match_entries as u64,
            match_bytes: space.match_bytes as u64,
            pattern_probes,
            pattern_scanned,
            page_reads: ops.page_reads,
            page_writes: ops.page_writes,
            pool_hits: ops.pool_hits,
            pool_evictions: ops.pool_evictions,
            lock_waits: locks.map_or(0, |l| l.lock_waits),
            lock_wait_ns: locks.map_or(0, |l| l.lock_wait_ns),
            lock_shards: locks.map_or_else(Vec::new, |l| l.shard_contention.clone()),
            alloc_bytes: rerun.alloc_bytes,
            prof_wall_ns: rerun.prof_wall_ns,
            profile: rerun.profile,
        }
    }

    /// Top-`n` self-time hotspots of the profiled re-run.
    pub fn hotspots(&self, n: usize) -> Vec<obs::prof::Hotspot> {
        self.profile.hotspots(n)
    }

    /// Share of the profiled re-run's wall time attributed to named
    /// spans (0.0 when the row was not profiled).
    pub fn attribution(&self) -> f64 {
        if self.prof_wall_ns == 0 {
            return 0.0;
        }
        self.profile.total_ns() as f64 / self.prof_wall_ns as f64
    }
}

/// What a row's optional profiled re-run measured: the merged profile,
/// its wall time, and the bytes allocated (empty and zeros when the row
/// is not profiled).
struct Rerun {
    profile: obs::Profile,
    prof_wall_ns: u64,
    alloc_bytes: u64,
}

/// When `profiled`, run `f` once more with the profiler + allocation
/// counters on. The profiler is process-global: callers are sequential
/// (bench passes run one engine at a time).
fn profiled_rerun<R>(profiled: bool, f: impl FnOnce() -> R) -> Rerun {
    if !profiled {
        return Rerun {
            profile: obs::Profile::new(),
            prof_wall_ns: 0,
            alloc_bytes: 0,
        };
    }
    obs::prof::reset();
    obs::alloc::reset();
    obs::prof::set_enabled(true);
    let start = Instant::now();
    let out = f();
    let prof_wall_ns = start.elapsed().as_nanos() as u64;
    obs::prof::set_enabled(false);
    let profile = obs::prof::take();
    let alloc_bytes = obs::alloc::stats().bytes;
    drop(out);
    Rerun {
        profile,
        prof_wall_ns,
        alloc_bytes,
    }
}

/// Run the demo workload on every engine and collect one [`BenchRow`]
/// each. Fresh system per engine, so no measurement sees another's
/// caches or statistics.
pub fn bench_rows() -> Vec<BenchRow> {
    bench_rows_with(false)
}

/// [`bench_rows`] with an optional profiled re-run per engine (hotspot
/// and allocation columns). The timed pass always runs profiler-off, so
/// `wall_ns` stays comparable across snapshots.
pub fn bench_rows_with(profiled: bool) -> Vec<BenchRow> {
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let run = || {
                let mut sys = ProductionSystem::from_source(OBS_DEMO, kind, Strategy::Fifo)
                    .expect("demo program compiles");
                for i in 0..OBS_ITEMS {
                    sys.insert("Item", tuple![i, i * 2]).expect("Item class");
                }
                let out = sys.run(10_000);
                (sys, out)
            };
            let start = Instant::now();
            let (sys, out) = run();
            let wall_ns = start.elapsed().as_nanos() as u64;
            let rerun = profiled_rerun(profiled, run);
            BenchRow::new(
                kind.label(),
                wall_ns,
                out.fired as u64,
                sys.engine(),
                None,
                rerun,
            )
        })
        .collect()
}

/// Scaled skewed-join workload (`harness --bench-json F --items N`).
///
/// `Match` joins every `Item` with the small `Ref` relation on `^k` and
/// fires once per item whose key has a referent, guarded by a negated
/// `Hit` CE. The key distribution is skewed — three quarters of the
/// items funnel onto [`SCALED_HOT`] hot keys with *no* referent, the
/// rest spread over the cold tail where the referents live — so the
/// join is selective and the fired count stays far below `N` while the
/// per-change maintenance cost of tuple-at-a-time engines is dominated
/// by `N` full re-evaluations during the load. Set-oriented engines
/// (§4.2 delta batching) collapse that load into one batched pass.
pub const SCALED_DEMO: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (literalize Hit n)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) -(Hit ^n <N>) --> (make Hit ^n <N>))
"#;

/// Distinct join keys the scaled workload draws from.
pub const SCALED_KEYS: i64 = 64;
/// Hot keys (referent-free) that three quarters of the items hit.
pub const SCALED_HOT: i64 = 4;
/// Cold keys that have a `Ref` row (the join's probe targets).
pub const SCALED_REFS: i64 = 4;
/// Upper bound on `--items` (keeps tuple-at-a-time baselines tractable).
pub const SCALED_MAX_ITEMS: i64 = 10_000;

/// The skewed key of item `i`: items `i % 4 != 0` pile onto the hot
/// keys, the rest cycle through the cold tail.
fn scaled_key(i: i64) -> i64 {
    if i % 4 != 0 {
        i % SCALED_HOT
    } else {
        SCALED_HOT + (i / 4) % (SCALED_KEYS - SCALED_HOT)
    }
}

/// How many productions the scaled workload fires at `items` — every
/// item whose key is one of the [`SCALED_REFS`] referenced cold keys,
/// exactly once. Closed form of the [`scaled_key`] skew; every engine
/// row must agree with it.
pub fn scaled_fired(items: i64) -> u64 {
    (0..items)
        .filter(|&i| {
            let k = scaled_key(i);
            (SCALED_HOT..SCALED_HOT + SCALED_REFS).contains(&k)
        })
        .count() as u64
}

fn scaled_system(kind: EngineKind) -> ProductionSystem {
    ProductionSystem::from_source(SCALED_DEMO, kind, Strategy::Fifo)
        .expect("scaled program compiles")
}

/// Load + run one scaled pass on a fresh system of `kind`.
fn scaled_pass(
    kind: EngineKind,
    items: i64,
    batch: bool,
    pattern_index: bool,
) -> (ProductionSystem, u64) {
    let mut sys = scaled_system(kind);
    sys.set_batching(batch);
    sys.executor_mut()
        .engine_mut()
        .set_pattern_index(pattern_index);
    let refs: Vec<_> = (0..SCALED_REFS)
        .map(|r| tuple![SCALED_HOT + r, r * 10])
        .collect();
    let item_rows: Vec<_> = (0..items).map(|i| tuple![i, scaled_key(i)]).collect();
    if batch {
        sys.insert_batch("Ref", refs).expect("Ref class");
        sys.insert_batch("Item", item_rows).expect("Item class");
    } else {
        for t in refs {
            sys.insert("Ref", t).expect("Ref class");
        }
        for t in item_rows {
            sys.insert("Item", t).expect("Item class");
        }
    }
    let out = sys.run(100_000);
    (sys, out.fired as u64)
}

fn scaled_row(
    label: &'static str,
    kind: EngineKind,
    items: i64,
    batch: bool,
    pattern_index: bool,
    profiled: bool,
) -> BenchRow {
    // Wall is best-of-two fresh passes: the run-to-run jitter of the
    // scan-heavy rows (allocator and page-cache state) reaches ~40%,
    // which the bench-check 25% band cannot absorb, while the min of
    // two passes is stable. Each pass builds its own system, so the
    // deterministic counters (fired, logical_io, probes) are identical
    // whichever pass the row keeps.
    let start = Instant::now();
    let (sys, fired) = scaled_pass(kind, items, batch, pattern_index);
    let mut wall_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let _ = scaled_pass(kind, items, batch, pattern_index);
    wall_ns = wall_ns.min(start.elapsed().as_nanos() as u64);
    let rerun = profiled_rerun(profiled, || scaled_pass(kind, items, batch, pattern_index));
    BenchRow::new(label, wall_ns, fired, sys.engine(), None, rerun)
}

/// Buffer-pool frames for the `query-paged` row — deliberately far
/// smaller than the scaled workload's working set, so the row always
/// exercises eviction, write-back, and page faults rather than running
/// as an in-memory benchmark with extra bookkeeping.
pub const SCALED_PAGED_POOL: usize = 2;

/// One scaled pass of the Query engine over a *file-backed* working
/// memory (§3.2 made literal): heap pages under a [`SCALED_PAGED_POOL`]
/// buffer pool, WAL-before-data on eviction. Same program, same skew,
/// same batching as the in-memory `query` row, so `fired` must agree
/// exactly; only the storage layer differs.
fn scaled_paged_pass(items: i64, pool_pages: usize) -> (prodsys::SequentialExecutor, u64) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "sellis88-bench-paged-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let db = relstore::Database::new_paged(&dir, pool_pages).expect("paged database");
    let rules = ops5::compile(SCALED_DEMO).expect("scaled program compiles");
    let pdb = ProductionDb::with_db(std::sync::Arc::new(db), rules).expect("paged pdb");
    let mut engine = make_engine(EngineKind::Query, pdb);
    engine.set_batching(true);
    let mut exec = prodsys::SequentialExecutor::new(engine, Strategy::Fifo);
    let refs: Vec<_> = (0..SCALED_REFS)
        .map(|r| tuple![SCALED_HOT + r, r * 10])
        .collect();
    exec.insert_batch(ClassId(1), refs);
    let item_rows: Vec<_> = (0..items).map(|i| tuple![i, scaled_key(i)]).collect();
    exec.insert_batch(ClassId(0), item_rows);
    let out = exec.run(100_000);
    std::fs::remove_dir_all(&dir).ok();
    (exec, out.fired as u64)
}

/// Paged-vs-memory smoke check (`harness --paged`): run the scaled
/// workload once on the in-memory Query engine and once over file-backed
/// pages with a `pool_pages`-frame pool, then verify the two runs fire
/// identically, leave identical working memories, and that the paged run
/// actually evicted (i.e. the pool was smaller than the working set).
/// Returns the shared fired count; `Err` describes the first divergence.
pub fn paged_smoke(items: i64, pool_pages: usize) -> Result<u64, String> {
    let items = items.clamp(1, SCALED_MAX_ITEMS);
    let (sys, mem_fired) = scaled_pass(EngineKind::Query, items, true, true);
    let (exec, paged_fired) = scaled_paged_pass(items, pool_pages);
    let expect = scaled_fired(items);
    if mem_fired != expect || paged_fired != expect {
        return Err(format!(
            "fired diverged at {items} items: in-memory {mem_fired}, \
             paged {paged_fired}, expected {expect}"
        ));
    }
    let dump = |db: &relstore::Database| -> Vec<(String, Vec<relstore::Tuple>)> {
        let mut out: Vec<_> = db
            .relation_names()
            .into_iter()
            .map(|(rid, name)| {
                let mut rows: Vec<relstore::Tuple> = db
                    .select(rid, &relstore::Restriction::default())
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
    };
    if dump(sys.engine().pdb().db()) != dump(exec.engine().pdb().db()) {
        return Err("final working memories diverged between in-memory and paged runs".into());
    }
    let ops = exec.engine().pdb().db().stats().snapshot();
    if ops.pool_evictions == 0 {
        return Err(format!(
            "pool of {pool_pages} pages never evicted at {items} items — \
             the smoke run is not exercising the page layer"
        ));
    }
    Ok(paged_fired)
}

fn scaled_paged_row(label: &'static str, items: i64, profiled: bool) -> BenchRow {
    // Best-of-two wall, same rationale as `scaled_row`.
    let start = Instant::now();
    let (exec, fired) = scaled_paged_pass(items, SCALED_PAGED_POOL);
    let mut wall_ns = start.elapsed().as_nanos() as u64;
    let start = Instant::now();
    let _ = scaled_paged_pass(items, SCALED_PAGED_POOL);
    wall_ns = wall_ns.min(start.elapsed().as_nanos() as u64);
    let rerun = profiled_rerun(profiled, || scaled_paged_pass(items, SCALED_PAGED_POOL));
    BenchRow::new(label, wall_ns, fired, exec.engine(), None, rerun)
}

/// Consuming variant of [`SCALED_DEMO`] for the §5 concurrent rows: the
/// same skewed `Item ⋈ Ref` join, but the RHS only *removes* the matched
/// item. Every transaction then takes shared locks plus one exclusive
/// lock on its own `Item` tuple — no relation-level exclusive lock, no
/// negated-CE relation lock — so distinct instantiations are
/// lock-disjoint and workers genuinely overlap. (With `SCALED_DEMO`'s
/// `make Hit` RHS, the exclusive relation lock on `Hit` would serialize
/// every firing and the worker count could never matter.)
pub const SCALED_CONC_DEMO: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) --> (remove 1))
"#;

/// Simulated per-tuple I/O latency for the concurrent rows. Each firing
/// is a handful of logical I/Os; at 200µs each, one transaction costs a
/// deterministic ~1ms of "disk" time, so the 1-vs-4-worker wall ratio
/// measures overlap rather than scheduler noise.
pub const SCALED_CONC_IO_COST_NS: u64 = 200_000;

/// One §5 concurrent row: load the [`SCALED_CONC_DEMO`] WM into a
/// database whose lock manager has `shards` shards, switch on the
/// simulated I/O latency, then time `run` alone under `workers` worker
/// threads. Fires exactly [`scaled_fired`]`(items)` transactions —
/// identical to the sequential engines' count on the same skew.
fn scaled_concurrent_pass(
    items: i64,
    workers: usize,
    shards: usize,
) -> (ConcurrentExecutor, prodsys::ConcurrentStats, u64) {
    let rules = ops5::compile(SCALED_CONC_DEMO).expect("concurrent program compiles");
    let db = std::sync::Arc::new(relstore::Database::new_with_shards(shards));
    let pdb = ProductionDb::with_db(db, rules).unwrap();
    let mut engine = make_engine(EngineKind::Rete, pdb);
    for r in 0..SCALED_REFS {
        engine.insert(ClassId(1), tuple![SCALED_HOT + r, r * 10]);
    }
    for i in 0..items {
        engine.insert(ClassId(0), tuple![i, scaled_key(i)]);
    }
    // Latency only for the timed concurrent run, not the load above.
    engine.pdb().db().set_io_cost_ns(SCALED_CONC_IO_COST_NS);
    let mut exec = ConcurrentExecutor::new(engine, workers);
    let start = Instant::now();
    let stats = exec.run(items as usize * 4);
    let wall_ns = start.elapsed().as_nanos() as u64;
    (exec, stats, wall_ns)
}

fn scaled_concurrent_row(
    label: &'static str,
    items: i64,
    workers: usize,
    shards: usize,
    profiled: bool,
) -> BenchRow {
    let (exec, stats, wall_ns) = scaled_concurrent_pass(items, workers, shards);
    let rerun = profiled_rerun(profiled, || scaled_concurrent_pass(items, workers, shards));
    let handle = exec.engine();
    let g = handle.lock();
    BenchRow::new(
        label,
        wall_ns,
        stats.committed as u64,
        &**g,
        Some(&stats),
        rerun,
    )
}

/// Worker counts of the §5 throughput-vs-workers sweep
/// (`harness --bench-workers`).
pub const SCALED_WORKER_SWEEP: [usize; 5] = [1, 4, 16, 32, 64];

/// Stable row label for a worker count (`concurrent-w16` etc.).
pub fn concurrent_worker_label(workers: usize) -> &'static str {
    match workers {
        1 => "concurrent-w1",
        2 => "concurrent-w2",
        4 => "concurrent-w4",
        8 => "concurrent-w8",
        16 => "concurrent-w16",
        32 => "concurrent-w32",
        64 => "concurrent-w64",
        _ => "concurrent-wN",
    }
}

/// The §5 throughput-vs-workers sweep: one [`SCALED_CONC_DEMO`] row per
/// worker count over a `shards`-way sharded working memory, all at the
/// same `items`. Unlike [`bench_scaled_rows`], `items` is *not* clamped
/// to [`SCALED_MAX_ITEMS`]: the sweep never runs the tuple-at-a-time
/// baselines, and its whole point is the 100k-WME scale where a single
/// lock table used to be the ceiling. Every row must commit exactly
/// [`scaled_fired`]`(items)` transactions regardless of worker count.
pub fn bench_workers_rows(items: i64, workers: &[usize], shards: usize) -> Vec<BenchRow> {
    workers
        .iter()
        .map(|&w| scaled_concurrent_row(concurrent_worker_label(w), items, w, shards, false))
        .collect()
}

/// Render [`bench_workers_rows`] over [`SCALED_WORKER_SWEEP`] as a
/// `sellis88-bench/v1` document (workload `concurrent-workers`).
pub fn bench_workers_snapshot(items: i64, shards: usize) -> String {
    snapshot_json(
        "concurrent-workers",
        items,
        &bench_workers_rows(items, &SCALED_WORKER_SWEEP, shards),
    )
}

/// Run the scaled skewed-join workload at `items` on every engine in
/// set-oriented mode, plus the COND engine with its σ-binding pattern
/// index on (`cond-indexed`) and tuple-at-a-time nested-loop baselines
/// of the query and marker engines (`query-nl`, `marker-nl`), all
/// measured in the same run, same machine, same `items`. The historical
/// `cond` row pins the index off so it stays comparable across
/// snapshots. Three §5 rows (`concurrent-w1`, `concurrent-w4`,
/// `concurrent-w16`) run the consuming variant of the same skew under
/// simulated I/O latency with 1, 4, and 16 workers over the default
/// 16-way sharded lock manager — same fired count, diverging wall
/// clock. A final
/// `query-paged` row reruns the Query engine over file-backed pages
/// with a [`SCALED_PAGED_POOL`]-frame buffer pool (§3.2), so its page
/// counters are live and its `fired` must match the in-memory rows.
pub fn bench_scaled_rows(items: i64) -> Vec<BenchRow> {
    bench_scaled_rows_with(items, false)
}

/// [`bench_scaled_rows`] with an optional profiled re-run per row. The
/// timed pass always runs profiler-off so `wall_ns` stays comparable
/// with unprofiled snapshots; the re-run fills `profile`,
/// `prof_wall_ns`, and `alloc_bytes`.
pub fn bench_scaled_rows_with(items: i64, profiled: bool) -> Vec<BenchRow> {
    let items = items.clamp(1, SCALED_MAX_ITEMS);
    let mut rows: Vec<BenchRow> = EngineKind::ALL
        .iter()
        .map(|&kind| {
            let indexed = kind != EngineKind::Cond;
            scaled_row(kind.label(), kind, items, true, indexed, profiled)
        })
        .collect();
    rows.push(scaled_row(
        "cond-indexed",
        EngineKind::Cond,
        items,
        true,
        true,
        profiled,
    ));
    rows.push(scaled_row(
        "query-nl",
        EngineKind::Query,
        items,
        false,
        true,
        profiled,
    ));
    rows.push(scaled_row(
        "marker-nl",
        EngineKind::Marker,
        items,
        false,
        true,
        profiled,
    ));
    let shards = relstore::DEFAULT_LOCK_SHARDS;
    rows.push(scaled_concurrent_row(
        "concurrent-w1",
        items,
        1,
        shards,
        profiled,
    ));
    rows.push(scaled_concurrent_row(
        "concurrent-w4",
        items,
        4,
        shards,
        profiled,
    ));
    rows.push(scaled_concurrent_row(
        "concurrent-w16",
        items,
        16,
        shards,
        profiled,
    ));
    rows.push(scaled_paged_row("query-paged", items, profiled));
    rows
}

fn snapshot_json(workload: &str, items: i64, rows: &[BenchRow]) -> String {
    let mut engines = Arr::new();
    for row in rows {
        engines = engines.raw(
            &Obj::new()
                .str("engine", row.engine)
                .u64("wall_ns", row.wall_ns)
                .u64("fired", row.fired)
                .u64("logical_io", row.logical_io)
                .u64("match_entries", row.match_entries)
                .u64("match_bytes", row.match_bytes)
                .u64("pattern_probes", row.pattern_probes)
                .u64("pattern_scanned", row.pattern_scanned)
                .u64("page_reads", row.page_reads)
                .u64("page_writes", row.page_writes)
                .u64("pool_hits", row.pool_hits)
                .u64("pool_evictions", row.pool_evictions)
                .u64("lock_waits", row.lock_waits)
                .u64("lock_wait_ns", row.lock_wait_ns)
                .raw("lock_shards", &{
                    let mut ls = Arr::new();
                    for &(shard, waits, wait_ns) in &row.lock_shards {
                        ls = ls.raw(
                            &Obj::new()
                                .u64("shard", u64::from(shard))
                                .u64("waits", waits)
                                .u64("wait_ns", wait_ns)
                                .finish(),
                        );
                    }
                    ls.finish()
                })
                .u64("alloc_bytes", row.alloc_bytes)
                .raw("hotspots", &{
                    let mut hs = Arr::new();
                    for h in row.hotspots(3) {
                        hs = hs.raw(&h.to_json());
                    }
                    hs.finish()
                })
                .finish(),
        );
    }
    Obj::new()
        .str("schema", BENCH_SCHEMA)
        .str("workload", workload)
        .u64("items", items as u64)
        .raw("engines", &engines.finish())
        .finish()
}

/// Render [`bench_scaled_rows`] as a `sellis88-bench/v1` document
/// (workload `scaled-skew`).
pub fn bench_scaled_snapshot(items: i64) -> String {
    let items = items.clamp(1, SCALED_MAX_ITEMS);
    snapshot_json("scaled-skew", items, &bench_scaled_rows_with(items, true))
}

/// Render [`bench_rows`] as the `sellis88-bench/v1` JSON document.
pub fn bench_snapshot() -> String {
    snapshot_json("obs-demo", OBS_ITEMS, &bench_rows_with(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_engine_with_equal_fired_counts() {
        let rows = bench_rows();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert_eq!(row.fired, 2 * OBS_ITEMS as u64, "{}", row.engine);
            assert!(row.logical_io > 0, "{}", row.engine);
        }
    }

    #[test]
    fn scaled_rows_agree_on_fired_and_batching_beats_nested_loop() {
        let items = 192;
        let rows = bench_scaled_rows(items);
        assert_eq!(
            rows.len(),
            12,
            "5 engines + cond-indexed + 2 nested-loop baselines + 3 concurrent + query-paged"
        );
        let expect = scaled_fired(items);
        assert!(expect > 0);
        for row in &rows {
            assert_eq!(row.fired, expect, "{}", row.engine);
        }
        let find = |label: &str| {
            rows.iter()
                .find(|r| r.engine == label)
                .unwrap_or_else(|| panic!("{label} row"))
        };
        let io = |label: &str| find(label).logical_io;
        // Logical I/O is deterministic (unlike wall time under test
        // parallelism): tuple-at-a-time loading re-evaluates per change,
        // so even at this small scale the batched engines must read far
        // fewer tuples. The committed BENCH_batch.json checks wall too.
        assert!(
            io("query-nl") >= 2 * io("query"),
            "query-nl {} vs query {}",
            io("query-nl"),
            io("query")
        );
        assert!(
            io("marker-nl") >= 2 * io("marker"),
            "marker-nl {} vs marker {}",
            io("marker-nl"),
            io("marker")
        );
        // The σ-binding pattern index: probes replace full group scans,
        // so the indexed COND run examines far fewer patterns (and reads
        // far fewer tuples) than the pinned full-scan `cond` baseline,
        // while firing identically.
        let cond = find("cond");
        let indexed = find("cond-indexed");
        assert_eq!(cond.pattern_probes, 0, "cond pins the index off");
        assert!(indexed.pattern_probes > 0, "cond-indexed probes");
        assert!(
            indexed.pattern_scanned <= cond.pattern_scanned,
            "indexed scanned {} vs scan {}",
            indexed.pattern_scanned,
            cond.pattern_scanned
        );
        assert!(
            cond.logical_io >= 2 * indexed.logical_io,
            "cond {} vs cond-indexed {}",
            cond.logical_io,
            indexed.logical_io
        );
        // §5 rows: worker count changes wall clock (checked against the
        // committed snapshot and in CI, where sleeps aren't contended by
        // the test harness) and may add re-select I/O when transactions
        // race, but never the set of committed firings.
        assert_eq!(
            find("concurrent-w1").fired,
            find("concurrent-w4").fired,
            "same committed transactions regardless of workers"
        );
        assert_eq!(
            find("concurrent-w1").fired,
            find("concurrent-w16").fired,
            "same committed transactions at 16 workers too"
        );
        // The paged row runs the same join over file-backed pages with a
        // pool far smaller than the working set: it must actually fault,
        // write back, and evict — and still fire identically (checked by
        // the loop above). In-memory rows never touch the page layer.
        let paged = find("query-paged");
        assert!(paged.pool_evictions > 0, "pool smaller than working set");
        assert!(paged.page_reads > 0, "evicted pages faulted back in");
        assert!(paged.page_writes > 0, "dirty evictions hit the page file");
        for row in &rows {
            if row.engine != "query-paged" {
                assert_eq!(row.page_reads, 0, "{} is in-memory", row.engine);
                assert_eq!(row.pool_evictions, 0, "{} is in-memory", row.engine);
            }
        }
    }

    #[test]
    fn scaled_snapshot_schema_matches_v1() {
        let json = bench_scaled_snapshot(96);
        assert!(
            json.starts_with("{\"schema\":\"sellis88-bench/v1\""),
            "{json}"
        );
        assert!(json.contains("\"workload\":\"scaled-skew\""), "{json}");
        assert!(json.contains("\"items\":96"), "{json}");
        for engine in [
            "query",
            "cond-indexed",
            "query-nl",
            "marker-nl",
            "query-paged",
        ] {
            assert!(
                json.contains(&format!("{{\"engine\":\"{engine}\",\"wall_ns\":")),
                "{json}"
            );
        }
    }

    #[test]
    fn snapshot_schema_is_stable() {
        let json = bench_snapshot();
        assert!(
            json.starts_with("{\"schema\":\"sellis88-bench/v1\""),
            "{json}"
        );
        assert!(json.contains("\"workload\":\"obs-demo\""), "{json}");
        assert!(json.contains("\"items\":24"), "{json}");
        for engine in ["rete", "db-rete", "query", "cond", "marker"] {
            assert!(
                json.contains(&format!("{{\"engine\":\"{engine}\",\"wall_ns\":")),
                "{json}"
            );
        }
        for field in [
            "fired",
            "logical_io",
            "match_entries",
            "match_bytes",
            "pattern_probes",
            "pattern_scanned",
            "page_reads",
            "page_writes",
            "pool_hits",
            "pool_evictions",
            "lock_waits",
            "lock_wait_ns",
            "lock_shards",
        ] {
            assert!(json.contains(&format!("\"{field}\":")), "{json}");
        }
    }

    #[test]
    fn workers_sweep_rows_agree_on_fired() {
        let items = 384;
        let rows = bench_workers_rows(items, &[1, 4], 4);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].engine, "concurrent-w1");
        assert_eq!(rows[1].engine, "concurrent-w4");
        let expect = scaled_fired(items);
        for row in &rows {
            assert_eq!(row.fired, expect, "{}", row.engine);
        }
        let json = snapshot_json("concurrent-workers", items, &rows);
        assert!(
            json.contains("\"workload\":\"concurrent-workers\""),
            "{json}"
        );
        assert!(json.contains("{\"engine\":\"concurrent-w4\""), "{json}");
    }
}
