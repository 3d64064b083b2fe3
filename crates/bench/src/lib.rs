//! # prodsys-bench — experiment runners
//!
//! One entry of [`EXPERIMENTS`] per experiment of DESIGN.md's index
//! (T1–T4, F1/F3, E1–E10, obs). Each runner returns the rendered
//! [`Table`]s the `harness` binary prints as the paper-reproduction tables
//! recorded in EXPERIMENTS.md; [`cli`] parses the binary's arguments.

pub mod bench_json;
pub mod cli;
pub mod experiments;
pub mod obs_run;
pub mod profile;
pub mod recorder;

pub use bench_json::{
    bench_scaled_rows, bench_scaled_snapshot, scaled_fired, BenchRow, BENCH_SCHEMA,
    SCALED_MAX_ITEMS,
};
pub use cli::{parse_args, Args, FLAGS};
pub use experiments::*;
pub use obs_run::{explain_run, observability_run, ExplainRun, ObsRun};
pub use profile::{attribution_table, bench_check, folded_stacks, Snapshot};
pub use recorder::{
    record_run, record_run_with, replay_run, why_not_run, why_run, RecordOutcome, ReplayOutcome,
};

/// A fresh directory path under the system temp dir, unique within the
/// process: `sellis88-{tag}-{pid}-{n}`. The caller creates and removes it.
pub(crate) fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "sellis88-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}
