//! Metric definitions: how a run's rounds become the named end-to-end
//! and per-layer numbers, and the result line the driver reads.
//!
//! A run repeats one round many times. A phase that one thread executes
//! can only be slowed down by interference (on this box such rounds fall
//! into a fast mode and one about 20% slower, alternating every second or
//! so, and the slowdown is in the thread's own CPU time), so its metric is
//! taken from the **best** round: the lowest time, the highest rate. The
//! act phase of the `txn-*` workloads is two racing workers whose schedule
//! itself varies, and the best round there is the luckiest schedule, not
//! the undisturbed one, so its rate is the **median** over rounds.
//! Per-layer numbers are medians.

use obs::json::{Arr, Obj};

use crate::trace::{self_times, Span};
use crate::workloads::{Round, WORKERS};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>())
}

/// The undisturbed value of a per-round time: the lowest.
fn best_time(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// The undisturbed value of a per-round rate: the highest.
fn best_rate(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).fold(0.0, f64::max)
}

/// Nearest-rank percentile of pooled nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() as f64 * p).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

fn pooled(rounds: &[Round], f: impl Fn(&Round) -> &[u64]) -> Vec<u64> {
    let mut all: Vec<u64> = rounds.iter().flat_map(|r| f(r).iter().copied()).collect();
    all.sort_unstable();
    all
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of untraced rounds. Also prints the pooled
/// latency distribution of the change calls on stderr, as information.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let calls = pooled(rounds, |r| &r.call_ns);
    eprintln!(
        "change latency over {} rounds: n={} p50={:.1}us p99={:.1}us p99.9={:.1}us",
        rounds.len(),
        calls.len(),
        percentile_us(&calls, 0.50),
        percentile_us(&calls, 0.99),
        percentile_us(&calls, 0.999),
    );
    vec![
        metric(
            "setup_s",
            "s",
            best_time(rounds, |r| r.setup_ns as f64 / 1e9),
        ),
        metric(
            "changes_per_s",
            "1/s",
            best_rate(rounds, |r| {
                ratio(r.changes as f64 * 1e9, r.change_ns as f64)
            }),
        ),
        metric(
            "change_p99_us",
            "us",
            best_time(rounds, |r| {
                let mut calls = r.call_ns.clone();
                calls.sort_unstable();
                percentile_us(&calls, 0.99)
            }),
        ),
        metric("firings_per_s", "1/s", {
            let rate = |r: &Round| ratio(r.firings as f64 * 1e9, r.act_ns as f64);
            if rounds.iter().any(|r| r.conc.is_some()) {
                median_of(rounds, rate)
            } else {
                best_rate(rounds, rate)
            }
        }),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric(
            "recover_s",
            "s",
            best_time(rounds, |r| r.recover_ns as f64 / 1e9),
        ),
        metric(
            "disk_bytes_per_wm_byte",
            "ratio",
            median_of(rounds, |r| ratio(r.disk_bytes as f64, r.wm_bytes as f64)),
        ),
    ]
}

/// What the direct layer replays measured (see `layers.rs`); zero where a
/// replay does not apply to the workload.
#[derive(Default)]
pub struct Replays {
    pub store_write_us: f64,
    pub store_write_paged_us: f64,
    pub wal_sync_ns: Vec<u64>,
    pub txn_roundtrip_us: f64,
    pub txn_roundtrip_paged_us: f64,
}

/// Spans the benchmark itself owns; every other span is a call into a layer.
const OWN_SPANS: [&str; 5] = ["round", "setup", "change_phase", "act_phase", "recover"];

/// Share of the traced rounds' wall that is in no layer's span: the
/// benchmark's own loops, latency bookkeeping and output checks.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let times = self_times(spans);
    let own: u64 = OWN_SPANS
        .iter()
        .filter_map(|n| times.get(n))
        .map(|t| t.1)
        .sum();
    let wall: u64 = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    ratio(own as f64, wall as f64)
}

/// The per-layer metrics: `traced` rounds give the layer numbers, `plain`
/// rounds of the same process the wall that tracing overhead is against.
pub fn per_layer(
    plain: &[Round],
    traced: &[Round],
    spans: &[Span],
    replays: &Replays,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Round) -> f64| median_of(traced, f);
    let conc = |f: &dyn Fn(&prodsys::ConcurrentStats, &Round) -> f64| {
        med(&|r| r.conc.as_ref().map_or(0.0, |c| f(c, r)))
    };
    let io = |f: &dyn Fn(&relstore::OpSnapshot) -> u64| {
        med(&|r| (f(&r.change_ops) + f(&r.act_ops)) as f64)
    };
    let steps = pooled(traced, |r| &r.step_ns);
    let mut syncs = replays.wal_sync_ns.clone();
    syncs.sort_unstable();
    vec![
        // ops5
        metric("compile_ms", "ms", med(&|r| r.compile_ns as f64 / 1e6)),
        // prodsys::engine (+ rete)
        metric(
            "maintain_busy_share",
            "ratio",
            med(&|r| ratio(r.maintain_change_ns as f64, r.change_ns as f64)),
        ),
        metric("maintain_calls", "count", med(&|r| r.maintain_calls as f64)),
        metric(
            "conflict_deltas_per_change",
            "ratio",
            med(&|r| ratio(r.conflict_deltas_change as f64, r.changes as f64)),
        ),
        metric(
            "match_bytes_per_wm_byte",
            "ratio",
            med(&|r| ratio(r.space.match_bytes as f64, r.wm_bytes as f64)),
        ),
        metric(
            "pattern_scanned_per_probe",
            "ratio",
            med(&|r| ratio(r.pattern_io.1 as f64, r.pattern_io.0 as f64)),
        ),
        // prodsys::exec::sequential
        metric(
            "select_busy_share",
            "ratio",
            med(&|r| ratio(r.select_ns as f64, r.act_ns as f64)),
        ),
        metric("step_p50_us", "us", percentile_us(&steps, 0.50)),
        metric("step_p99_us", "us", percentile_us(&steps, 0.99)),
        // prodsys::exec::concurrent
        metric(
            "critical_share",
            "ratio",
            conc(&|c, r| ratio(c.critical_ns as f64, r.act_ns as f64)),
        ),
        metric("rounds", "count", conc(&|c, _| c.rounds as f64)),
        metric(
            "useful_share",
            "ratio",
            conc(&|c, _| {
                ratio(
                    c.committed as f64,
                    (c.committed + c.deadlock_aborts + c.invalidated) as f64,
                )
            }),
        ),
        // relstore::query
        metric(
            "query_eval_ms",
            "ms",
            med(&|r| r.query_eval_ns as f64 / 1e6),
        ),
        metric(
            "query_eval_nl_ms",
            "ms",
            med(&|r| r.query_eval_nl_ns as f64 / 1e6),
        ),
        metric(
            "tuples_read_per_firing",
            "count",
            med(&|r| ratio(r.act_ops.logical_io() as f64, r.firings as f64)),
        ),
        // relstore::relation / index
        metric("store_write_us_per_change", "us", replays.store_write_us),
        metric(
            "store_write_paged_us_per_change",
            "us",
            replays.store_write_paged_us,
        ),
        // relstore::pool / page
        metric("page_reads", "count", io(&|o| o.page_reads)),
        metric("page_writes", "count", io(&|o| o.page_writes)),
        metric(
            "pool_hit_rate",
            "ratio",
            med(&|r| {
                let hits = (r.change_ops.pool_hits + r.act_ops.pool_hits) as f64;
                let reads = (r.change_ops.page_reads + r.act_ops.page_reads) as f64;
                ratio(hits, hits + reads)
            }),
        ),
        metric("evictions", "count", io(&|o| o.pool_evictions)),
        // relstore::wal
        metric(
            "wal_bytes_per_change",
            "bytes",
            med(&|r| {
                let logged = |o: &relstore::OpSnapshot| o.tuples_inserted + o.tuples_deleted;
                ratio(
                    r.wal_bytes as f64,
                    (logged(&r.change_ops) + logged(&r.act_ops)) as f64,
                )
            }),
        ),
        metric("wal_sync_p50_us", "us", percentile_us(&syncs, 0.50)),
        metric("wal_sync_p99_us", "us", percentile_us(&syncs, 0.99)),
        // relstore::txn
        metric("lock_waits", "count", conc(&|c, _| c.lock_waits as f64)),
        metric(
            "lock_wait_share",
            "ratio",
            conc(&|c, r| ratio(c.lock_wait_ns as f64, (r.act_ns * WORKERS as u64) as f64)),
        ),
        metric(
            "deadlock_aborts",
            "count",
            conc(&|c, _| c.deadlock_aborts as f64),
        ),
        metric("retries", "count", conc(&|c, _| c.retries as f64)),
        metric(
            "hot_shard_wait_share",
            "ratio",
            conc(&|c, _| {
                let hottest = c.shard_contention.iter().map(|s| s.1).max().unwrap_or(0);
                ratio(hottest as f64, c.lock_waits as f64)
            }),
        ),
        metric("txn_roundtrip_us", "us", replays.txn_roundtrip_us),
        metric(
            "txn_roundtrip_paged_us",
            "us",
            replays.txn_roundtrip_paged_us,
        ),
        // obs: what watching costs, and what the spans do not cover
        metric(
            "tracing_overhead",
            "ratio",
            ratio(
                best_time(traced, |r| r.wall_ns as f64),
                best_time(plain, |r| r.wall_ns as f64),
            ) - 1.0,
        ),
        metric("unattributed_share", "ratio", unattributed_share(spans)),
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .fold(Obj::new(), |o, m| {
            o.raw(
                m.name,
                &Obj::new()
                    .f64("value", m.value)
                    .str("unit", m.unit)
                    .finish(),
            )
        })
        .finish()
}

/// The run's result: the one JSON object printed as the last stdout line.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Obj::new()
        .bool("correct", failed == 0)
        .u64("attempted", attempted)
        .u64("failed", failed)
        .raw("metrics", &metrics_json(metrics))
        .finish()
}

/// `out/trace-<workload>.json`: the first traced round's spans plus, over
/// all traced rounds, each span name's calls and self time and the number
/// of `conflict_set()` borrows the executors took.
pub fn trace_json(
    workload: &str,
    seed: u64,
    spans: &[Span],
    conflict_set_calls: u64,
    layer: &[Metric],
) -> String {
    let first_round = spans.iter().find(|s| s.name == "round").map(|s| s.round);
    let rows = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| Some(s.round) == first_round)
        .fold(Arr::new(), |a, (i, s)| {
            a.raw(
                &Obj::new()
                    .usize("id", i + 1)
                    .str("name", s.name)
                    .u64("start_ns", s.start_ns)
                    .u64("end_ns", s.end_ns)
                    .u64("parent", s.parent as u64)
                    .u64("round", s.round as u64)
                    .finish(),
            )
        });
    let selfs = self_times(spans)
        .into_iter()
        .fold(Obj::new(), |o, (name, (calls, ns))| {
            o.raw(
                name,
                &Obj::new()
                    .u64("calls", calls)
                    .f64("self_ms", ns as f64 / 1e6)
                    .finish(),
            )
        });
    Obj::new()
        .str("workload", workload)
        .u64("seed", seed)
        .raw("self_time", &selfs.finish())
        .u64("conflict_set_calls", conflict_set_calls)
        .raw("per_layer", &metrics_json(layer))
        .raw("spans", &rows.finish())
        .finish()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them. Needs at least two values.
fn quartiles(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(v: &mut [f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    ratio(q3 - q1, median(v).abs())
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The baseline's own run-to-run spread exceeds the bound, so neither
    /// "unchanged" nor "regressed" can be read off the medians.
    Unresolved,
}

/// Judge one (workload, metric): `a` the baseline's values, `b` the
/// candidate's, one per pass.
pub fn judge(a: &mut [f64], b: &mut [f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse = if higher_is_better { ma - mb } else { mb - ma };
    // A baseline of 0 (`failed_share`) has no share to be worse by: any
    // rise is a regression.
    let worse_by = if ma != 0.0 {
        worse / ma.abs()
    } else if worse > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    if spread(a) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}
