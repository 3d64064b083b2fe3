//! Persistent working memory (§3.2): run a production system on a paged
//! database, checkpoint it mid-flight, "crash", recover from checkpoint +
//! write-ahead log, and resume the recognize-act cycle exactly where it
//! stopped.
//!
//! ```sh
//! cargo run --release --example persistent_session
//! ```

use ops5::ClassId;
use prodsys::{bootstrap, make_engine, EngineKind, ProductionDb};
use relstore::{tuple, Database};
use std::sync::Arc;

const RULES: &str = r#"
    (literalize Task id state)
    (literalize Done id)
    (p Start
        (Task ^id <I> ^state queued)
        -->
        (modify 1 ^state running)
        (write started task <I>))
    (p Finish
        (Task ^id <I> ^state running)
        -->
        (remove 1)
        (make Done ^id <I>)
        (write finished task <I>))
"#;

/// Buffer-pool frames: plenty for this working memory.
const POOL_PAGES: usize = 16;

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn main() {
    let dir = std::env::temp_dir().join(format!("persistent-session-{}", std::process::id()));
    let rules = ops5::compile(RULES).unwrap();

    // Session 1: run half the work on a paged database, checkpointing
    // mid-flight.
    let db = Arc::new(Database::new_paged(&dir, POOL_PAGES).unwrap());
    let pdb = ProductionDb::with_db(db.clone(), rules.clone()).unwrap();
    let mut exec = prodsys::SequentialExecutor::new(
        make_engine(EngineKind::Cond, pdb),
        prodsys::Strategy::Fifo,
    );
    for i in 0..6i64 {
        exec.insert(ClassId(0), tuple![i, "queued"]);
    }
    // Fire a few cycles, then checkpoint.
    for _ in 0..5 {
        exec.step();
    }
    db.checkpoint().unwrap();
    println!(
        "checkpoint taken: {} bytes",
        file_len(&dir.join("checkpoint.snap"))
    );

    // More work lands after the checkpoint — the WAL captures it.
    for _ in 0..3 {
        exec.step();
    }
    exec.insert(ClassId(0), tuple![99, "queued"]);
    db.sync_wal().unwrap();
    println!(
        "write-ahead log since checkpoint: {} bytes",
        file_len(&dir.join("wal.log"))
    );
    let conflicts_before = exec.engine().conflict_set().sorted();
    drop(exec);
    drop(db); // "crash"

    // Session 2: recover = checkpoint + WAL replay, re-attach, resume.
    let (recovered, report) = Database::open_paged(&dir, POOL_PAGES).unwrap();
    println!(
        "recovered: checkpoint loaded = {}, {} log records replayed",
        report.snapshot_loaded, report.records_replayed
    );
    let pdb2 = ProductionDb::attach(Arc::new(recovered), rules).unwrap();
    let mut engine = make_engine(EngineKind::Cond, pdb2.clone());
    bootstrap(engine.as_mut());
    assert_eq!(
        engine.conflict_set().sorted(),
        conflicts_before,
        "conflict set identical after recovery"
    );
    println!(
        "{} WM tuples, {} pending instantiations",
        pdb2.wm_total(),
        engine.conflict_set().len()
    );

    let mut exec = prodsys::SequentialExecutor::new(engine, prodsys::Strategy::Fifo);
    let out = exec.run(100);
    println!("resumed and fired {} more productions:", out.fired);
    for line in &out.writes {
        println!("  | {line}");
    }
    let done = pdb2.wm_len(ClassId(1));
    println!("all {done} tasks done");
    assert_eq!(done, 7);
    std::fs::remove_dir_all(&dir).ok();
}
