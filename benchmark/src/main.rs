//! The repo benchmark. Three entry points:
//!
//! * `--workload W --seed N --seconds S --trace 0|1 [--quick]` — the
//!   `BENCHMARK.json` contract: one workload in this process, every metric
//!   printed by name and unit, the result object as the last stdout line.
//! * `run [--seed N] [--seconds S] [--traced] [--quick] [--out FILE]` —
//!   every workload, each in a fresh child process, one result line
//!   appended to `FILE` per pass.
//! * `compare A B` — apply `BENCHMARK.json`'s bounds to two result files.
//!
//! See `README.md` for what each workload and metric is for.

mod layers;
mod report;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use obs::json::{self, Obj, Value};

use report::{Metric, Replays, Verdict};
use trace::{EngineCounts, Recorder};
use workloads::{Env, Sizes, Workload, DEFAULT_SEED};

/// The benchmark's own directory: where `cargo run` says the manifest is,
/// else where it was when this binary was built.
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Run rounds of `w` for `seconds` and reduce them to metrics: the
/// end-to-end ones untraced, the per-layer ones when `traced`. A traced
/// run alternates plain and traced rounds of the same inputs, so the
/// tracing overhead is measured inside one process.
pub fn run_workload(w: Workload, seed: u64, seconds: f64, traced: bool, sizes: Sizes) -> Outcome {
    let out_dir = bench_dir().join("out");
    // Paged data lives in the checkout, on whatever file system holds it.
    let data_root = out_dir
        .join("data")
        .join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&data_root).expect("data dir");
    let inputs = workloads::inputs(w, seed, &sizes);
    let reference = matches!(w, Workload::StreamCond | Workload::StreamRete)
        .then(|| workloads::stream_reference(w, &inputs));

    let rec = Recorder::new();
    let counts = Arc::new(EngineCounts::default());
    let env = |rec| Env {
        data_root: data_root.clone(),
        sizes,
        rec,
        counts: counts.clone(),
    };
    let (plain_env, traced_env) = (env(None), env(Some(rec.clone())));
    let (mut plain, mut with_spans) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for index in 0.. {
        let tracing = traced && index % 2 == 1;
        let env = if tracing { &traced_env } else { &plain_env };
        // The oracle and cross-engine checks run once, on the first round.
        let check = reference.as_deref().filter(|_| index == 0);
        let round = workloads::run_round(env, w, &inputs, index, check);
        if tracing { &mut with_spans } else { &mut plain }.push(round);
        let one_of_each = !traced || index >= 1;
        if one_of_each && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    eprintln!(
        "{}: {} rounds in {:.1}s (seed {seed})",
        w.name(),
        plain.len() + with_spans.len(),
        start.elapsed().as_secs_f64()
    );

    let metrics = if traced {
        let rules = ops5::compile(&inputs.src).expect("program compiles");
        let dir = |name: &str| data_root.join(name);
        let mut replays = Replays {
            store_write_us: layers::store_write_us(&rules, &inputs.changes, None),
            store_write_paged_us: layers::store_write_us(
                &rules,
                &inputs.changes,
                Some(&dir("store")),
            ),
            ..Replays::default()
        };
        if w.pool_pages(&sizes).is_some() {
            replays.wal_sync_ns = layers::wal_sync_ns(&inputs.changes, &data_root);
        }
        if matches!(w, Workload::TxnDisjoint | Workload::TxnContended) {
            replays.txn_roundtrip_us = layers::txn_roundtrip_us(None);
            replays.txn_roundtrip_paged_us = layers::txn_roundtrip_us(Some(&dir("txn")));
        }
        let spans = rec.spans();
        let layer = report::per_layer(&plain, &with_spans, &spans, &replays);
        let path = out_dir.join(format!("trace-{}.json", w.name()));
        let calls = counts
            .conflict_set_calls
            .load(std::sync::atomic::Ordering::Relaxed);
        let trace = report::trace_json(w.name(), seed, &spans, calls, &layer);
        std::fs::write(&path, trace).expect("write trace file");
        layer
    } else {
        report::end_to_end(&plain)
    };
    std::fs::remove_dir_all(&data_root).expect("remove data dir");
    let rounds = plain.iter().chain(&with_spans);
    let (attempted, failed) = rounds.fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// `--name value` pairs and bare `--switch`es after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut out = Args {
            values: BTreeMap::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if matches!(name, "quick" | "traced") => {
                    out.values.insert(name.into(), "1".into());
                }
                Some(name) => {
                    let value = it.next().cloned().unwrap_or_default();
                    out.values.insert(name.into(), value);
                }
                None => out.positional.push(a.clone()),
            }
        }
        out
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.values.get(name)?.parse().ok()
    }

    fn sizes(&self) -> Sizes {
        if self.values.contains_key("quick") {
            Sizes::quick()
        } else {
            Sizes::FULL
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]\n\
         \x20      run [--seed n] [--seconds s] [--traced] [--quick] [--out FILE]\n\
         \x20      compare A.jsonl B.jsonl\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    ExitCode::from(2)
}

/// The `BENCHMARK.json` contract entry point.
fn one_workload(args: &Args) -> ExitCode {
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (
        args.values.get("workload").and_then(|s| Workload::parse(s)),
        args.get::<u64>("seed"),
        args.get::<f64>("seconds"),
        args.get::<u8>("trace").filter(|t| *t <= 1),
    ) else {
        return usage();
    };
    let out = run_workload(w, seed, seconds, trace == 1, args.sizes());
    for m in &out.metrics {
        println!(
            "{:<17} {:<32} {:>18.6} {}",
            w.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!(
        "{}",
        report::result_line(out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}

/// Run one workload in a child process and parse its result line.
fn child(w: Workload, args: &Args, seed: u64, seconds: u64, trace: u8) -> Result<Value, String> {
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args(["--workload", w.name(), "--trace", &trace.to_string()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]);
    if args.values.contains_key("quick") {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let (table, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
    println!("{table}");
    json::parse(last)
}

/// A child's `metrics` object flattened to `{name: value}`.
fn metrics_obj(v: &Value) -> String {
    let Some(Value::Obj(fields)) = v.get("metrics") else {
        return "{}".into();
    };
    fields
        .iter()
        .fold(Obj::new(), |o, (name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            o.f64(name, value.unwrap_or(f64::NAN))
        })
        .finish()
}

/// One pass over every workload, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let seed = args.get("seed").unwrap_or(DEFAULT_SEED);
    let seconds = args.get("seconds").unwrap_or(10);
    let traced = args.values.contains_key("traced");
    let mut pass = Obj::new();
    let mut any_failed = false;
    for w in Workload::ALL {
        let run = |trace| child(w, args, seed, seconds, trace);
        let (plain, layers) = match (run(0), traced.then(|| run(1)).transpose()) {
            (Ok(plain), Ok(layers)) => (plain, layers),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let attempted = plain
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        let failed = plain.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        let failed_share = failed / attempted.max(1.0);
        println!(
            "{:<17} {:<32} {failed_share:>18.6} ratio",
            w.name(),
            "failed_share"
        );
        any_failed |= failed > 0.0;
        let mut row = Obj::new()
            .bool("correct", failed == 0.0)
            .u64("attempted", attempted as u64)
            .u64("failed", failed as u64)
            .f64("failed_share", failed_share)
            .raw("metrics", &metrics_obj(&plain));
        if let Some(layers) = layers {
            row = row.raw("per_layer", &metrics_obj(&layers));
        }
        pass = pass.raw(w.name(), &row.finish());
    }
    let line = Obj::new()
        .u64("seed", seed)
        .u64("seconds", seconds)
        .bool("quick", args.values.contains_key("quick"))
        .bool("traced", traced)
        .raw("workloads", &pass.finish())
        .finish();
    if let Some(path) = args.values.get("out") {
        use std::io::Write as _;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        println!("{line}");
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Per workload, per metric name: one value per pass in the file.
type Passes = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_passes(path: &str) -> Result<Passes, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Passes::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let pass = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let Some(Value::Obj(workloads)) = pass.get("workloads") else {
            return Err(format!("{path}: a pass has no workloads"));
        };
        for (w, row) in workloads {
            let values = out.entry(w.clone()).or_default();
            let mut push = |name: &str, v: Option<f64>| {
                if let Some(v) = v {
                    values.entry(name.to_string()).or_default().push(v);
                }
            };
            push(
                "failed_share",
                row.get("failed_share").and_then(Value::as_f64),
            );
            if let Some(Value::Obj(metrics)) = row.get("metrics") {
                for (name, v) in metrics {
                    push(name, v.as_f64());
                }
            }
        }
    }
    Ok(out)
}

/// Apply the bounds of `BENCHMARK.json` to baseline `A` and candidate `B`.
fn compare(args: &Args) -> ExitCode {
    let [a, b] = args.positional.as_slice() else {
        return usage();
    };
    let spec_path = bench_dir().join("../BENCHMARK.json");
    let loaded = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|s| json::parse(&s))
        .and_then(|spec| Ok((spec, read_passes(a)?, read_passes(b)?)));
    let (spec, a, mut b) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut regressed = false;
    println!(
        "{:<17} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "spread A", "bound"
    );
    for (w, mut metrics) in a {
        let mut other = b.remove(&w).unwrap_or_default();
        let mut row = |name: &str, higher: bool, bound: f64| {
            let (Some(va), Some(vb)) = (metrics.get_mut(name), other.get_mut(name)) else {
                println!("{w:<17} {name:<24} missing on one side");
                regressed = true;
                return;
            };
            let verdict = report::judge(va, vb, higher, bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{w:<17} {name:<24} {:>14.6} {:>14.6} {:>8.4} {bound:>7.3}  {}",
                report::median(va),
                report::median(vb),
                report::spread(va),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        };
        for m in spec
            .get("end_to_end")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let name = m.get("name").and_then(Value::as_str).unwrap_or("");
            let higher = m.get("better").and_then(Value::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            row(name, higher, bound);
        }
        // Any rise in the share of failed operations is a regression.
        row("failed_share", false, 0.0);
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run_all(&Args::parse(&argv[1..])),
        Some("compare") => compare(&Args::parse(&argv[1..])),
        Some(_) => one_workload(&Args::parse(&argv)),
        None => usage(),
    }
}
