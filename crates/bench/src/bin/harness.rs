//! The experiment harness: regenerates every table and figure of the
//! reproduction (see DESIGN.md §4 and EXPERIMENTS.md). Its selectors are
//! the `EXPERIMENTS` table and its flags the `FLAGS` table of
//! `prodsys_bench`; `--help` lists both.
//!
//! ```sh
//! cargo run -p prodsys-bench --release --bin harness            # everything
//! cargo run -p prodsys-bench --release --bin harness -- e1 e3   # a subset
//! ```

use prodsys_bench as bench;

use bench::cli::RECORD_DEFAULT_ITEMS;
use bench::recorder::parse_engine;
use bench::Args;

// Allocation attribution (the `alloc_bytes` bench column and the
// profiler's per-span byte counts) needs the counting allocator in the
// binary that runs the workloads. Free when the profiler is off: one
// relaxed atomic load per allocation.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc;

/// The committed `--bench-json` snapshots, one per workload size:
/// `--profile` diffs its allocation columns against the one at its size.
const COMMITTED_SNAPSHOTS: [&str; 2] = ["BENCH_batch.json", "BENCH_batch_10k.json"];

/// Print `msg` to stderr and exit with `code`.
fn fail(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// Write `text` to `path`, or exit 1.
fn write(path: &str, text: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, text) {
        fail(1, format!("error: cannot write {path}: {e}"));
    }
}

fn profile(path: &str, items: i64) {
    let rows = bench::bench_scaled_rows(items);
    write(path, bench::folded_stacks(&rows));
    println!("folded stacks ({items} items) -> {path}");
    let snapshots: Vec<bench::Snapshot> = COMMITTED_SNAPSHOTS
        .iter()
        .filter_map(|p| bench::Snapshot::parse(&std::fs::read_to_string(p).ok()?).ok())
        .collect();
    if snapshots.iter().any(|s| s.items == items) {
        println!("Δalloc baseline: the committed snapshot at {items} items");
    } else {
        println!("Δalloc: n/a, no committed snapshot at {items} items");
    }
    let table = bench::attribution_table(&rows, items, &snapshots);
    print!("{}", table.render());
}

fn bench_check(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(1, format!("error: cannot read {path}: {e}")));
    match bench::bench_check(&text) {
        Ok(summary) => println!("{summary}"),
        Err(msgs) => fail(
            1,
            format!("bench-check FAILED vs {path}:\n  {}", msgs.join("\n  ")),
        ),
    }
}

fn explain(rule: &str) {
    let run = bench::explain_run(rule).unwrap_or_else(|e| fail(2, format!("error: {e}")));
    println!("\n## EXPLAIN {} — match plans per engine\n", run.rule);
    for plan in &run.plans {
        println!("{plan}");
    }
    println!(
        "## Derivations of {} ({} firing(s), {} total)\n",
        run.rule,
        run.derivations.len(),
        run.fired
    );
    for d in &run.derivations {
        println!("{}", d.trim_start());
    }
}

fn record(path: &str, args: &Args) {
    let (kind, default_workers) = match args.engine {
        Some(engine) => engine,
        None => parse_engine("concurrent").expect("the default engine"),
    };
    let workers = args.workers.or(default_workers).unwrap_or(0);
    let items = args.items.unwrap_or(RECORD_DEFAULT_ITEMS);
    match bench::record_run(path, kind, workers, items) {
        Ok(out) => println!(
            "recorded {} {} run ({} items, {} firings) -> {path}",
            out.mode,
            kind.label(),
            items,
            out.fired
        ),
        Err(e) => fail(1, format!("error: record failed: {e}")),
    }
}

fn replay(path: &str) {
    match bench::replay_run(path) {
        Ok(out) => println!(
            "replay OK: {} {} firing(s) reproduced exactly, final WM verified ({} entries)",
            out.mode, out.firings, out.final_wm
        ),
        Err(e) => fail(1, format!("replay FAILED: {e}")),
    }
}

fn journal(path: &str, args: &Args) {
    let answers = [
        args.why.as_deref().map(|spec| bench::why_run(path, spec)),
        args.why_not
            .as_deref()
            .map(|spec| bench::why_not_run(path, spec)),
    ];
    for answer in answers.into_iter().flatten() {
        print!(
            "{}",
            answer.unwrap_or_else(|e| fail(1, format!("error: {e}")))
        );
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args =
        bench::parse_args(&raw).unwrap_or_else(|e| fail(2, format!("error: {e} (see --help)")));
    if let Some(help) = &args.help {
        print!("{help}");
        return;
    }
    println!("prodsys experiment harness — Sellis/Lin/Raschid SIGMOD '88 reproduction");
    for experiment in &args.experiments {
        for table in (experiment.run)(&args).unwrap_or_else(|e| fail(1, e)) {
            print!("{}", table.render());
        }
    }
    if let Some(path) = &args.bench_json {
        write(path, bench::bench_scaled_snapshot(args.scaled_items()));
        println!("bench snapshot ({}) -> {path}", bench::BENCH_SCHEMA);
    }
    if let Some(path) = &args.record {
        record(path, &args);
    }
    if let Some(path) = &args.replay {
        replay(path);
    }
    if let Some(path) = &args.journal {
        journal(path, &args);
    }
    if let Some(path) = &args.profile {
        profile(path, args.scaled_items());
    }
    if let Some(path) = &args.bench_check {
        bench_check(path);
    }
    if let Some(rule) = &args.explain {
        explain(rule);
    }
}
