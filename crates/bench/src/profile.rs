//! Profiler-facing harness pieces: folded flamegraph output
//! (`harness --profile`), the append-only `BENCH_history.jsonl`
//! time-series, and the `--bench-check` regression gate CI runs against
//! the last committed history entry.

use std::fmt::Write as _;

use obs::json::Value;

use crate::bench_json::{bench_rows_with, bench_scaled_rows_with, bench_workers_rows, BenchRow};

/// `--bench-check` fails when an engine's wall time grows by more than
/// this factor over the last committed history entry.
pub const WALL_REGRESSION: f64 = 1.25;
/// `--bench-check` fails when an engine's profiled allocation volume
/// grows by more than this factor.
pub const ALLOC_REGRESSION: f64 = 2.0;
/// Absolute wall-time slack: sub-slack deltas are machine noise (the
/// fast engines finish in ~2ms, where run-to-run jitter alone exceeds
/// 25%), so the wall gate needs both the ratio *and* this delta blown.
pub const WALL_SLACK_NS: u64 = 10_000_000;
/// The COND wall-time gap gate: `cond-indexed` must finish within this
/// factor of the `query` engine's wall clock *on the same run*. Before
/// the interned/arena pattern store the gap was ~90x, before the one-walk
/// insert and the chained postings 6.7x; the gate is twice the 3.3x of
/// the committed `BENCH_batch.json` (2 000 items; 2.1x at 10 000), the
/// room left for machine variance.
pub const COND_VS_QUERY_WALL: f64 = 6.6;
/// `cond`/`cond-indexed` rows get a tighter allocation-regression bound
/// than the generic [`ALLOC_REGRESSION`]: their hot path is supposed to
/// be allocation-free, so even a 1.5x creep means a reintroduced
/// per-delta clone.
pub const COND_ALLOC_REGRESSION: f64 = 1.5;
/// The §5 scaling gate: 16 workers must finish the concurrent workload
/// at least this much faster than 4 workers (wall-clock ratio), with the
/// usual absolute slack. Transactions overlap their simulated I/O, so a
/// sharded lock manager that stopped scaling (workers re-serialized on
/// one table) trips this long before throughput numbers are eyeballed.
pub const CONCURRENT_SCALING: f64 = 2.0;

/// Render every profiled row as folded flamegraph stacks, one line per
/// call path: `engine;span;child <self_ns>` — the input format of
/// `flamegraph.pl` / speedscope.
pub fn folded_stacks(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.profile.folded(row.engine));
    }
    out
}

/// Format a signed byte delta for the Δalloc columns.
fn fmt_delta(cur: u64, base: u64) -> String {
    if cur >= base {
        format!("+{}", cur - base)
    } else {
        format!("-{}", base - cur)
    }
}

/// One line of the attribution table printed alongside `--profile`:
/// how much of the profiled wall clock the named spans account for.
/// With a `baseline` (the last `BENCH_history.jsonl` entry), two Δalloc
/// columns diff the engine's total allocation and its top spans'
/// per-span allocation against the recorded hotspots — new bytes on a
/// supposedly allocation-free path show up here before they show up as
/// a wall regression.
pub fn attribution_table(rows: &[BenchRow], baseline: Option<&HistoryEntry>) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| {
            let top = row
                .hotspots(3)
                .iter()
                .map(|h| {
                    format!(
                        "{} {:.0}%",
                        h.path,
                        100.0 * h.self_ns as f64 / row.prof_wall_ns.max(1) as f64
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let base = baseline.and_then(|b| b.rows.iter().find(|r| r.engine == row.engine));
            let total_delta = match base {
                Some(b) if b.alloc_bytes > 0 => fmt_delta(row.alloc_bytes, b.alloc_bytes),
                _ => "n/a".to_string(),
            };
            let span_delta = match base {
                Some(b) if !b.span_allocs.is_empty() => row
                    .hotspots(3)
                    .iter()
                    .map(|h| {
                        match b.span_allocs.iter().find(|(p, _)| *p == h.path) {
                            Some((_, bytes)) => {
                                format!("{} {}", h.path, fmt_delta(h.alloc_bytes, *bytes))
                            }
                            // Span absent from the recorded hotspots:
                            // either brand new or previously too cold to
                            // rank — all its bytes count as growth.
                            None => format!("{} +{} (new)", h.path, h.alloc_bytes),
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(", "),
                _ => "n/a".to_string(),
            };
            vec![
                row.engine.to_string(),
                format!("{:.1}%", 100.0 * row.attribution()),
                format!("{}", row.alloc_bytes),
                total_delta,
                span_delta,
                top,
            ]
        })
        .collect()
}

/// One engine's comparable numbers, from either a fresh run or a parsed
/// history line.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckRow {
    pub engine: String,
    pub wall_ns: u64,
    /// Productions fired / transactions committed (0 when parsed from a
    /// pre-`fired` history line). The concurrent scaling gate refuses a
    /// speedup bought by committing less work.
    pub fired: u64,
    pub alloc_bytes: u64,
    /// `(span path, alloc_bytes)` of the recorded top hotspots — the
    /// per-span baseline the `--profile` Δalloc column diffs against.
    pub span_allocs: Vec<(String, u64)>,
}

impl CheckRow {
    fn from_bench(row: &BenchRow) -> CheckRow {
        CheckRow {
            engine: row.engine.to_string(),
            wall_ns: row.wall_ns,
            fired: row.fired,
            alloc_bytes: row.alloc_bytes,
            span_allocs: Vec::new(),
        }
    }
}

/// A parsed `BENCH_history.jsonl` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    pub workload: String,
    pub items: i64,
    pub rows: Vec<CheckRow>,
}

/// Parse the *last* line of a `BENCH_history.jsonl` document — the
/// baseline `--bench-check` compares against.
pub fn parse_history_last(text: &str) -> Result<HistoryEntry, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("history is empty")?;
    let v = obs::json::parse(line)?;
    let schema = v.get("schema").and_then(Value::as_str).unwrap_or("");
    if !schema.starts_with("sellis88-bench/") {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("missing workload")?
        .to_string();
    let items = v
        .get("items")
        .and_then(Value::as_u64)
        .ok_or("missing items")? as i64;
    let engines = v
        .get("engines")
        .and_then(Value::as_array)
        .ok_or("missing engines array")?;
    let mut rows = Vec::new();
    for e in engines {
        let span_allocs = e
            .get("hotspots")
            .and_then(Value::as_array)
            .map(|hs| {
                hs.iter()
                    .filter_map(|h| {
                        Some((
                            h.get("path").and_then(Value::as_str)?.to_string(),
                            h.get("alloc_bytes").and_then(Value::as_u64)?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        rows.push(CheckRow {
            engine: e
                .get("engine")
                .and_then(Value::as_str)
                .ok_or("row missing engine")?
                .to_string(),
            wall_ns: e
                .get("wall_ns")
                .and_then(Value::as_u64)
                .ok_or("row missing wall_ns")?,
            fired: e.get("fired").and_then(Value::as_u64).unwrap_or(0),
            // Absent in pre-profiler history lines: treat as unknown.
            alloc_bytes: e.get("alloc_bytes").and_then(Value::as_u64).unwrap_or(0),
            span_allocs,
        });
    }
    if rows.is_empty() {
        return Err("history entry has no engine rows".into());
    }
    Ok(HistoryEntry {
        workload,
        items,
        rows,
    })
}

/// Compare a fresh run against the baseline, engine by engine. Returns
/// one human-readable message per regression; empty means the gate
/// passes. Engines present on only one side are skipped (schema is
/// additive), and an alloc baseline of 0 (pre-profiler entry, or a
/// binary without the counting allocator) skips the allocation check.
pub fn regressions(baseline: &[CheckRow], current: &[CheckRow]) -> Vec<String> {
    let mut out = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.engine == b.engine) else {
            continue;
        };
        if b.wall_ns > 0
            && c.wall_ns as f64 > b.wall_ns as f64 * WALL_REGRESSION
            && c.wall_ns.saturating_sub(b.wall_ns) > WALL_SLACK_NS
        {
            out.push(format!(
                "{}: wall {:.2}ms vs baseline {:.2}ms (> {:.0}% regression)",
                b.engine,
                c.wall_ns as f64 / 1e6,
                b.wall_ns as f64 / 1e6,
                (WALL_REGRESSION - 1.0) * 100.0
            ));
        }
        let alloc_bound = if b.engine.starts_with("cond") {
            COND_ALLOC_REGRESSION
        } else {
            ALLOC_REGRESSION
        };
        if b.alloc_bytes > 0 && c.alloc_bytes as f64 > b.alloc_bytes as f64 * alloc_bound {
            out.push(format!(
                "{}: alloc {} bytes vs baseline {} (> {:.1}x regression)",
                b.engine, c.alloc_bytes, b.alloc_bytes, alloc_bound
            ));
        }
    }
    out.extend(cond_gate(current));
    out.extend(concurrent_gate(current));
    out
}

/// The COND wall-time gap gate, evaluated entirely on the current run
/// (both engines measured on the same machine in the same pass, so no
/// cross-run noise): `cond-indexed` must finish within
/// [`COND_VS_QUERY_WALL`]× the `query` engine's wall, with the usual
/// absolute slack so sub-[`WALL_SLACK_NS`] workloads can't flake.
pub fn cond_gate(current: &[CheckRow]) -> Vec<String> {
    let find = |name: &str| current.iter().find(|r| r.engine == name);
    let (Some(idx), Some(q)) = (find("cond-indexed"), find("query")) else {
        return Vec::new();
    };
    let bound = (q.wall_ns as f64 * COND_VS_QUERY_WALL).max(WALL_SLACK_NS as f64);
    if idx.wall_ns as f64 > bound {
        vec![format!(
            "cond-indexed: wall {:.2}ms vs query {:.2}ms (> {:.0}x COND gap gate)",
            idx.wall_ns as f64 / 1e6,
            q.wall_ns as f64 / 1e6,
            COND_VS_QUERY_WALL
        )]
    } else {
        Vec::new()
    }
}

/// The §5 worker-scaling gate, evaluated entirely on the current run:
/// with both rows present, `concurrent-w16` must beat `concurrent-w4`
/// by at least [`CONCURRENT_SCALING`]x wall-clock (modulo the absolute
/// [`WALL_SLACK_NS`], so tiny workloads whose whole run fits in the
/// noise floor can't flake) while committing the *same* number of
/// transactions — a speedup that drops firings is a correctness bug,
/// not a win.
pub fn concurrent_gate(current: &[CheckRow]) -> Vec<String> {
    let find = |name: &str| current.iter().find(|r| r.engine == name);
    let (Some(w4), Some(w16)) = (find("concurrent-w4"), find("concurrent-w16")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if w4.fired != w16.fired {
        out.push(format!(
            "concurrent-w16: committed {} transactions vs concurrent-w4's {} (must be identical)",
            w16.fired, w4.fired
        ));
    }
    let bound = w4.wall_ns as f64 / CONCURRENT_SCALING + WALL_SLACK_NS as f64;
    if w16.wall_ns as f64 > bound {
        out.push(format!(
            "concurrent-w16: wall {:.2}ms vs concurrent-w4 {:.2}ms (< {:.1}x scaling gate)",
            w16.wall_ns as f64 / 1e6,
            w4.wall_ns as f64 / 1e6,
            CONCURRENT_SCALING
        ));
    }
    out
}

/// Parse every `BENCH_history.jsonl` line and keep the *last* entry per
/// distinct workload, in first-appearance order — `--bench-check` gates
/// each tracked workload against its own most recent baseline, so
/// appending a new workload's entry can never silently un-gate an older
/// one.
pub fn parse_history_workloads(text: &str) -> Result<Vec<HistoryEntry>, String> {
    let mut order: Vec<String> = Vec::new();
    let mut last: std::collections::HashMap<String, HistoryEntry> =
        std::collections::HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let entry = parse_history_last(line)?;
        if !last.contains_key(&entry.workload) {
            order.push(entry.workload.clone());
        }
        last.insert(entry.workload.clone(), entry);
    }
    if order.is_empty() {
        return Err("history is empty".into());
    }
    Ok(order
        .into_iter()
        .map(|w| last.remove(&w).expect("entry recorded"))
        .collect())
}

/// Re-run the baseline's workload at its recorded size and compare.
/// `Ok` carries a short pass summary; `Err` the list of regressions.
pub fn bench_check(history_text: &str) -> Result<String, Vec<String>> {
    let entries = parse_history_workloads(history_text).map_err(|e| vec![e])?;
    let mut bad = Vec::new();
    let mut gated = Vec::new();
    for base in &entries {
        let rows = match base.workload.as_str() {
            "scaled-skew" => bench_scaled_rows_with(base.items, true),
            "obs-demo" => bench_rows_with(true),
            // The scaling gate only needs the two rows it compares; the
            // full 1–64 sweep stays a snapshot-time artifact.
            "concurrent-workers" => {
                bench_workers_rows(base.items, &[4, 16], relstore::DEFAULT_LOCK_SHARDS)
            }
            other => {
                bad.push(format!("unknown history workload {other:?}"));
                continue;
            }
        };
        let current: Vec<CheckRow> = rows.iter().map(CheckRow::from_bench).collect();
        bad.extend(
            regressions(&base.rows, &current)
                .into_iter()
                .map(|m| format!("[{}] {m}", base.workload)),
        );
        gated.push(format!("{} @ {} items", base.workload, base.items));
    }
    if bad.is_empty() {
        let mut s = String::new();
        let _ = write!(
            s,
            "bench-check: {} within {:.0}% wall / {:.0}x alloc ({:.1}x cond) of baseline; cond-indexed within {:.0}x of query; concurrent-w16 >= {:.1}x concurrent-w4 with equal commits",
            gated.join(", "),
            (WALL_REGRESSION - 1.0) * 100.0,
            ALLOC_REGRESSION,
            COND_ALLOC_REGRESSION,
            COND_VS_QUERY_WALL,
            CONCURRENT_SCALING
        );
        Ok(s)
    } else {
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(engine: &str, wall: u64, alloc: u64) -> CheckRow {
        CheckRow {
            engine: engine.to_string(),
            wall_ns: wall,
            fired: 0,
            alloc_bytes: alloc,
            span_allocs: Vec::new(),
        }
    }

    fn conc_row(engine: &str, wall: u64, fired: u64) -> CheckRow {
        CheckRow {
            engine: engine.to_string(),
            wall_ns: wall,
            fired,
            alloc_bytes: 0,
            span_allocs: Vec::new(),
        }
    }

    #[test]
    fn parses_last_history_line() {
        let text = concat!(
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":100,\"engines\":[{\"engine\":\"rete\",\"wall_ns\":5}]}\n",
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":2000,\"engines\":[",
            "{\"engine\":\"rete\",\"wall_ns\":100,\"alloc_bytes\":64},",
            "{\"engine\":\"cond\",\"wall_ns\":900}]}\n",
        );
        let e = parse_history_last(text).unwrap();
        assert_eq!(e.workload, "scaled-skew");
        assert_eq!(e.items, 2000);
        assert_eq!(e.rows.len(), 2);
        assert_eq!(e.rows[0], row("rete", 100, 64));
        assert_eq!(e.rows[1], row("cond", 900, 0), "missing alloc_bytes -> 0");
    }

    #[test]
    fn rejects_empty_and_malformed_history() {
        assert!(parse_history_last("").is_err());
        assert!(parse_history_last("\n\n").is_err());
        assert!(parse_history_last("{not json}").is_err());
        assert!(parse_history_last("{\"schema\":\"other/v1\"}").is_err());
    }

    #[test]
    fn regression_gate_thresholds() {
        const MS: u64 = 1_000_000;
        let base = vec![row("rete", 100 * MS, 100), row("cond", 100 * MS, 0)];
        // Within bounds: +24% wall, 2.0x alloc exactly.
        let ok = vec![row("rete", 124 * MS, 200), row("cond", 124 * MS, 999)];
        assert!(regressions(&base, &ok).is_empty());
        // Wall blown on one engine.
        let wall_bad = vec![row("rete", 130 * MS, 100), row("cond", 100 * MS, 0)];
        let msgs = regressions(&base, &wall_bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("rete: wall"), "{msgs:?}");
        // Alloc blown; zero-alloc baseline (cond) never trips.
        let alloc_bad = vec![row("rete", 100 * MS, 201), row("cond", 100 * MS, 1 << 40)];
        let msgs = regressions(&base, &alloc_bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].starts_with("rete: alloc"), "{msgs:?}");
        // Engines missing from the current run are skipped.
        assert!(regressions(&base, &[row("marker", MS, 1)]).is_empty());
    }

    #[test]
    fn parses_span_allocs_from_hotspots() {
        let text = concat!(
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":10,",
            "\"engines\":[{\"engine\":\"cond\",\"wall_ns\":5,\"alloc_bytes\":7,",
            "\"hotspots\":[{\"path\":\"a;b\",\"self_ns\":1,\"calls\":1,\"allocs\":2,\"alloc_bytes\":64}]}]}"
        );
        let e = parse_history_last(text).unwrap();
        assert_eq!(e.rows[0].span_allocs, vec![("a;b".to_string(), 64)]);
    }

    #[test]
    fn cond_gap_gate_bounds_indexed_wall_by_query_wall() {
        const MS: u64 = 1_000_000;
        // Within the bound (and over the absolute slack): passes.
        let ok = vec![row("query", 2 * MS, 0), row("cond-indexed", 12 * MS, 0)];
        assert!(cond_gate(&ok).is_empty());
        // Blown: 60ms against a 2ms query (6.6x bound = 13.2ms).
        let bad = vec![row("query", 2 * MS, 0), row("cond-indexed", 60 * MS, 0)];
        let msgs = cond_gate(&bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("COND gap gate"), "{msgs:?}");
        // Sub-slack workloads can't flake even at a huge ratio.
        let tiny = vec![row("query", 100, 0), row("cond-indexed", 9 * MS, 0)];
        assert!(cond_gate(&tiny).is_empty());
        // Either row missing: gate is silent.
        assert!(cond_gate(&[row("query", MS, 0)]).is_empty());
        // The gate also runs as part of regressions().
        assert_eq!(regressions(&[], &bad).len(), 1);
    }

    #[test]
    fn cond_rows_use_tighter_alloc_bound() {
        const MS: u64 = 1_000_000;
        let base = vec![row("cond-indexed", 100 * MS, 1000)];
        let ok = vec![row("cond-indexed", 100 * MS, 1499)];
        assert!(regressions(&base, &ok).is_empty());
        let bad = vec![row("cond-indexed", 100 * MS, 1600)];
        let msgs = regressions(&base, &bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("1.5x"), "{msgs:?}");
    }

    #[test]
    fn wall_slack_absorbs_fast_engine_jitter() {
        // A 2ms engine doubling is noise, not a regression; the same
        // ratio at 100ms is caught.
        let base = vec![row("query", 2_000_000, 0), row("cond", 100_000_000, 0)];
        let noisy = vec![row("query", 4_000_000, 0), row("cond", 100_000_000, 0)];
        assert!(regressions(&base, &noisy).is_empty());
        let slow = vec![row("query", 2_000_000, 0), row("cond", 200_000_000, 0)];
        assert_eq!(regressions(&base, &slow).len(), 1);
    }

    #[test]
    fn concurrent_gate_requires_scaling_and_equal_commits() {
        const MS: u64 = 1_000_000;
        // 4x scaling with equal commits: passes.
        let ok = vec![
            conc_row("concurrent-w4", 400 * MS, 1667),
            conc_row("concurrent-w16", 100 * MS, 1667),
        ];
        assert!(concurrent_gate(&ok).is_empty());
        // Not even 2x: fails.
        let slow = vec![
            conc_row("concurrent-w4", 400 * MS, 1667),
            conc_row("concurrent-w16", 300 * MS, 1667),
        ];
        let msgs = concurrent_gate(&slow);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("scaling gate"), "{msgs:?}");
        // Fast but committing less work: the "speedup" is rejected.
        let cheat = vec![
            conc_row("concurrent-w4", 400 * MS, 1667),
            conc_row("concurrent-w16", 50 * MS, 1600),
        ];
        let msgs = concurrent_gate(&cheat);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("must be identical"), "{msgs:?}");
        // Sub-slack workloads can't flake: 4ms vs 3ms is noise.
        let tiny = vec![
            conc_row("concurrent-w4", 4 * MS, 36),
            conc_row("concurrent-w16", 3 * MS, 36),
        ];
        assert!(concurrent_gate(&tiny).is_empty());
        // Either row missing: gate is silent.
        assert!(concurrent_gate(&[conc_row("concurrent-w4", MS, 1)]).is_empty());
        // The gate also runs as part of regressions().
        assert_eq!(regressions(&[], &slow).len(), 1);
    }

    #[test]
    fn history_keeps_last_entry_per_workload() {
        let text = concat!(
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":100,\"engines\":[{\"engine\":\"rete\",\"wall_ns\":5}]}\n",
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"concurrent-workers\",\"items\":100000,\"engines\":[{\"engine\":\"concurrent-w4\",\"wall_ns\":7,\"fired\":1667}]}\n",
            "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":2000,\"engines\":[{\"engine\":\"rete\",\"wall_ns\":9}]}\n",
        );
        let entries = parse_history_workloads(text).unwrap();
        assert_eq!(entries.len(), 2, "one entry per distinct workload");
        assert_eq!(entries[0].workload, "scaled-skew");
        assert_eq!(entries[0].items, 2000, "later line supersedes earlier");
        assert_eq!(entries[1].workload, "concurrent-workers");
        assert_eq!(entries[1].items, 100_000);
        assert_eq!(entries[1].rows[0].fired, 1667, "fired parsed from JSON");
        assert!(parse_history_workloads("").is_err());
    }

    #[test]
    fn folded_stacks_prefix_rows_with_engine_label() {
        let mut profile = obs::Profile::new();
        profile.roots.push(obs::prof::ProfNode {
            name: "exec.load".into(),
            calls: 1,
            incl_ns: 10,
            allocs: 0,
            alloc_bytes: 0,
            children: vec![obs::prof::ProfNode {
                name: "cond.maintain".into(),
                calls: 1,
                incl_ns: 7,
                allocs: 0,
                alloc_bytes: 0,
                children: Vec::new(),
            }],
        });
        let row = BenchRow {
            engine: "cond-indexed",
            wall_ns: 10,
            fired: 0,
            logical_io: 0,
            match_entries: 0,
            match_bytes: 0,
            pattern_probes: 0,
            pattern_scanned: 0,
            page_reads: 0,
            page_writes: 0,
            pool_hits: 0,
            pool_evictions: 0,
            lock_waits: 0,
            lock_wait_ns: 0,
            lock_shards: Vec::new(),
            alloc_bytes: 0,
            prof_wall_ns: 10,
            profile,
        };
        let text = folded_stacks(&[row]);
        assert!(text.contains("cond-indexed;exec.load 3\n"), "{text}");
        assert!(
            text.contains("cond-indexed;exec.load;cond.maintain 7\n"),
            "{text}"
        );
    }
}
