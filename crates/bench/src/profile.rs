//! Profiler-facing harness pieces: folded flamegraph output
//! (`harness --profile`) and the `--bench-check` gate that re-runs a
//! committed `--bench-json` snapshot. The gate compares counters, which
//! repeat exactly from run to run; wall-time regression is the repo
//! benchmark's job (`benchmark/`), which pairs runs over real pages and
//! `fsync` with bounds.

use obs::json::Value;

use crate::bench_json::{bench_scaled_rows, BenchRow, BENCH_SCHEMA, BENCH_WORKLOAD};
use crate::experiments::Table;

/// `--bench-check` fails when a row's profiled allocation volume grows
/// by more than this factor over the committed snapshot. Allocation is
/// gated by a bound, not exactly: a toolchain update can move the sizes
/// the standard library allocates.
pub const ALLOC_REGRESSION: f64 = 2.0;
/// The `cond` row gets a tighter allocation-regression bound than the
/// generic [`ALLOC_REGRESSION`]: its hot path is supposed to be
/// allocation-free, so even a 1.5x creep means a reintroduced per-delta
/// clone.
pub const COND_ALLOC_REGRESSION: f64 = 1.5;
/// Floor of the COND gap gate: below it, a same-run wall ratio is
/// machine noise (the fast engines finish in ~2ms).
pub const WALL_SLACK_NS: u64 = 10_000_000;
/// The COND wall-time gap gate: `cond` must finish within this
/// factor of the `query` engine's wall clock *on the same run*. Before
/// the interned/arena pattern store the gap was ~90x, before the one-walk
/// insert and the chained postings 6.7x; the committed snapshots measure
/// 2.5x at 2 000 items and 1.75x at 10 000, so the gate leaves more than
/// twice that for machine variance.
pub const COND_VS_QUERY_WALL: f64 = 6.6;

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

/// A parsed `--bench-json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Workload size the snapshot ran at.
    pub items: i64,
    /// One JSON object per row, as written by `--bench-json`.
    rows: Vec<Value>,
}

impl Snapshot {
    /// Parse a `sellis88-bench/v2` document of the scaled workload.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let v = obs::json::parse(text)?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some(BENCH_SCHEMA) {
            return Err(format!("schema {schema:?}, expected {BENCH_SCHEMA:?}"));
        }
        let workload = v.get("workload").and_then(Value::as_str);
        if workload != Some(BENCH_WORKLOAD) {
            return Err(format!(
                "workload {workload:?}, expected {BENCH_WORKLOAD:?}"
            ));
        }
        let items = v
            .get("items")
            .and_then(Value::as_u64)
            .ok_or("missing items")?;
        let rows = v
            .get("engines")
            .and_then(Value::as_array)
            .ok_or("missing engines array")?
            .to_vec();
        Ok(Snapshot {
            items: items as i64,
            rows,
        })
    }

    fn row(&self, engine: &str) -> Option<&Value> {
        self.rows
            .iter()
            .find(|r| r.get("engine").and_then(Value::as_str) == Some(engine))
    }
}

/// Format a signed byte delta for the Δalloc columns.
fn fmt_delta(cur: u64, base: u64) -> String {
    if cur >= base {
        format!("+{}", cur - base)
    } else {
        format!("-{}", base - cur)
    }
}

/// The attribution table printed alongside `--profile`, one line per
/// row: how much of the profiled wall clock the named spans account for.
/// When one of `snapshots` ran at the same `items`, two Δalloc columns
/// diff the engine's total allocation and its top spans' per-span
/// allocation against that snapshot's recorded hotspots — new bytes on a
/// supposedly allocation-free path show up here before they show up as
/// a wall regression. Without one, both columns read `n/a`.
pub fn attribution_table(rows: &[BenchRow], items: i64, snapshots: &[Snapshot]) -> Table {
    let baseline = snapshots.iter().find(|s| s.items == items);
    let lines = rows
        .iter()
        .map(|row| {
            let hotspots = row.profile.hotspots(3);
            let top = hotspots
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
            let base = baseline.and_then(|s| s.row(row.engine));
            let total_delta = match base.and_then(|b| b.get("alloc_bytes")?.as_u64()) {
                Some(b) => fmt_delta(row.alloc_bytes, b),
                None => "n/a".to_string(),
            };
            let recorded = base.and_then(|b| b.get("hotspots")?.as_array());
            let span_allocs: Vec<(&str, u64)> = recorded
                .unwrap_or_default()
                .iter()
                .filter_map(|h| {
                    let bytes = h.get("alloc_bytes")?.as_u64()?;
                    Some((h.get("path")?.as_str()?, bytes))
                })
                .collect();
            let span_delta = if span_allocs.is_empty() {
                "n/a".to_string()
            } else {
                hotspots
                    .iter()
                    .map(|h| match span_allocs.iter().find(|(p, _)| *p == h.path) {
                        Some((_, bytes)) => {
                            format!("{} {}", h.path, fmt_delta(h.alloc_bytes, *bytes))
                        }
                        // Span absent from the recorded hotspots: either
                        // brand new or previously too cold to rank — all
                        // its bytes count as growth.
                        None => format!("{} +{} (new)", h.path, h.alloc_bytes),
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
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
        .collect();
    Table::new(
        "Profile — span attribution per engine (profiled re-run)",
        "engine | attributed | alloc bytes | Δalloc | Δalloc by span | top self-time spans",
        lines,
    )
}

/// Compare a fresh run against a committed snapshot at the same
/// `items`: every counter of [`BenchRow::counters`] must be equal,
/// `alloc_bytes` within its regression bound, and the [`cond_gate`]
/// must hold. Returns one message per failed check, each naming the row
/// and the field; empty means the gate passes.
fn check_rows(committed: &Snapshot, current: &[BenchRow]) -> Vec<String> {
    let mut out = Vec::new();
    for row in current {
        let engine = row.engine;
        let Some(base) = committed.row(engine) else {
            out.push(format!("{engine}: row missing from the snapshot"));
            continue;
        };
        let committed_value = |field: &str| base.get(field).and_then(Value::as_u64);
        for (field, now) in row.counters() {
            match committed_value(field) {
                Some(was) if was == now => {}
                Some(was) => out.push(format!("{engine}: {field} {now} vs committed {was}")),
                None => out.push(format!("{engine}: {field} missing from the snapshot")),
            }
        }
        let bound = if engine == "cond" {
            COND_ALLOC_REGRESSION
        } else {
            ALLOC_REGRESSION
        };
        let now = row.alloc_bytes;
        match committed_value("alloc_bytes") {
            Some(was) if now as f64 > was as f64 * bound => out.push(format!(
                "{engine}: alloc_bytes {now} vs committed {was} (> {bound:.1}x regression)"
            )),
            Some(_) => {}
            None => out.push(format!("{engine}: alloc_bytes missing from the snapshot")),
        }
    }
    for r in &committed.rows {
        let engine = r.get("engine").and_then(Value::as_str).unwrap_or("?");
        if !current.iter().any(|c| c.engine == engine) {
            out.push(format!("{engine}: committed row not produced by this run"));
        }
    }
    out.extend(cond_gate(current));
    out
}

/// The COND wall-time gap gate, evaluated entirely on the current run
/// (both engines measured on the same machine in the same pass, so no
/// cross-run noise): `cond` must finish within
/// [`COND_VS_QUERY_WALL`]× the `query` engine's wall, or within
/// [`WALL_SLACK_NS`], so small workloads cannot flake.
fn cond_gate(current: &[BenchRow]) -> Vec<String> {
    let find = |name: &str| current.iter().find(|r| r.engine == name);
    let (Some(cond), Some(q)) = (find("cond"), find("query")) else {
        return Vec::new();
    };
    let bound = (q.wall_ns as f64 * COND_VS_QUERY_WALL).max(WALL_SLACK_NS as f64);
    if cond.wall_ns as f64 > bound {
        vec![format!(
            "cond: wall {:.2}ms vs query {:.2}ms (> {:.1}x COND gap gate)",
            cond.wall_ns as f64 / 1e6,
            q.wall_ns as f64 / 1e6,
            COND_VS_QUERY_WALL
        )]
    } else {
        Vec::new()
    }
}

/// `harness --bench-check FILE`: re-run the scaled workload at the
/// committed snapshot's `items` and compare the two row by row. `Ok`
/// carries a short pass summary; `Err` one message per failed check.
pub fn bench_check(snapshot_text: &str) -> Result<String, Vec<String>> {
    let committed = Snapshot::parse(snapshot_text).map_err(|e| vec![e])?;
    let rows = bench_scaled_rows(committed.items);
    let bad = check_rows(&committed, &rows);
    if !bad.is_empty() {
        return Err(bad);
    }
    Ok(format!(
        "bench-check: {} rows at {} items repeat every committed counter; alloc within \
         {ALLOC_REGRESSION:.0}x ({COND_ALLOC_REGRESSION:.1}x cond); cond within \
         {COND_VS_QUERY_WALL:.1}x of query",
        rows.len(),
        committed.items
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json::snapshot_json;

    fn row(engine: &'static str, wall_ns: u64, alloc_bytes: u64) -> BenchRow {
        BenchRow {
            engine,
            wall_ns,
            fired: 36,
            logical_io: 2040,
            alloc_bytes,
            ..BenchRow::default()
        }
    }

    fn snapshot(items: i64, rows: &[BenchRow]) -> Snapshot {
        Snapshot::parse(&snapshot_json(items, rows)).unwrap()
    }

    #[test]
    fn snapshot_parse_rejects_other_documents() {
        assert_eq!(snapshot(96, &[row("rete", 5, 7)]).items, 96);
        assert!(Snapshot::parse("").is_err());
        assert!(Snapshot::parse("{not json}").is_err());
        let v1 = "{\"schema\":\"sellis88-bench/v1\",\"workload\":\"scaled-skew\",\"items\":9,\"engines\":[]}";
        assert!(Snapshot::parse(v1).unwrap_err().contains("schema"));
        let demo = "{\"schema\":\"sellis88-bench/v2\",\"workload\":\"obs-demo\",\"items\":24,\"engines\":[]}";
        assert!(Snapshot::parse(demo).unwrap_err().contains("workload"));
    }

    #[test]
    fn counters_must_repeat_exactly() {
        const MS: u64 = 1_000_000;
        let committed = snapshot(96, &[row("rete", 100 * MS, 100), row("query", MS, 10)]);
        // Wall time is not gated across runs: a 10x slower run passes.
        let slow = [row("rete", 1000 * MS, 100), row("query", 10 * MS, 10)];
        assert!(check_rows(&committed, &slow).is_empty());
        let mut off = slow.clone();
        off[1].logical_io += 1;
        assert_eq!(
            check_rows(&committed, &off),
            ["query: logical_io 2041 vs committed 2040"]
        );
        // A row only one side has is a mismatch too.
        let msgs = check_rows(&committed, &[row("rete", MS, 100), row("marker", MS, 10)]);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].starts_with("marker: row missing"), "{msgs:?}");
        assert!(msgs[1].starts_with("query: committed row"), "{msgs:?}");
    }

    #[test]
    fn alloc_bound_is_tighter_on_the_cond_row() {
        let committed = snapshot(96, &[row("rete", 0, 100), row("cond", 0, 1000)]);
        let ok = [row("rete", 0, 200), row("cond", 0, 1499)];
        assert!(check_rows(&committed, &ok).is_empty());
        let bad = [row("rete", 0, 201), row("cond", 0, 1600)];
        let msgs = check_rows(&committed, &bad);
        assert_eq!(msgs.len(), 2, "{msgs:?}");
        assert!(msgs[0].starts_with("rete: alloc_bytes 201") && msgs[0].contains("2.0x"));
        assert!(msgs[1].starts_with("cond: alloc_bytes") && msgs[1].contains("1.5x"));
    }

    #[test]
    fn cond_gap_gate_bounds_cond_wall_by_query_wall() {
        const MS: u64 = 1_000_000;
        // Within the bound (and over the absolute slack): passes.
        let ok = [row("query", 2 * MS, 0), row("cond", 12 * MS, 0)];
        assert!(cond_gate(&ok).is_empty());
        // Blown: 60ms against a 2ms query (6.6x bound = 13.2ms).
        let bad = [row("query", 2 * MS, 0), row("cond", 60 * MS, 0)];
        let msgs = cond_gate(&bad);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("COND gap gate"), "{msgs:?}");
        // Sub-slack workloads can't flake even at a huge ratio.
        let tiny = [row("query", 100, 0), row("cond", 9 * MS, 0)];
        assert!(cond_gate(&tiny).is_empty());
        // Either row missing: gate is silent.
        assert!(cond_gate(&[row("query", MS, 0)]).is_empty());
        // The gate also runs as part of check_rows().
        assert_eq!(check_rows(&snapshot(96, &bad), &bad).len(), 1);
    }

    #[test]
    fn attribution_diffs_alloc_against_the_snapshot_of_the_same_size() {
        let mut profile = obs::Profile::new();
        profile.roots.push(obs::prof::ProfNode {
            name: "exec.load".into(),
            calls: 1,
            incl_ns: 10,
            allocs: 3,
            alloc_bytes: 80,
            children: Vec::new(),
        });
        let rows = [BenchRow {
            prof_wall_ns: 10,
            profile,
            ..row("cond", 10, 100)
        }];
        let mut base = rows[0].clone();
        base.alloc_bytes = 60;
        base.profile.roots[0].alloc_bytes = 50;
        let snapshots = [snapshot(2_000, &[base.clone()]), snapshot(96, &[base])];
        let at_96 = &attribution_table(&rows, 96, &snapshots).rows[0];
        assert_eq!(
            at_96[..5],
            ["cond", "100.0%", "100", "+40", "exec.load +30"]
        );
        // No committed snapshot at 500 items: no baseline to diff.
        let at_500 = &attribution_table(&rows, 500, &snapshots[..1]).rows[0];
        assert_eq!(at_500[3..5], ["n/a", "n/a"]);
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
            engine: "cond",
            wall_ns: 10,
            prof_wall_ns: 10,
            profile,
            ..BenchRow::default()
        };
        let text = folded_stacks(&[row]);
        assert!(text.contains("cond;exec.load 3\n"), "{text}");
        assert!(text.contains("cond;exec.load;cond.maintain 7\n"), "{text}");
    }
}
