//! Paged working memory under the concurrent executor: worker
//! transactions faulting pages through a deliberately tiny buffer pool
//! must commit the same firings and converge to the same WM as an
//! in-memory sequential run — and the run must leave no lock or latch
//! behind. This is the §5 × §6 intersection the seed never exercised.

mod common;

use common::wm_all;
use ops5::ClassId;
use prodsys::{
    make_engine, ConcurrentExecutor, EngineKind, ProductionDb, SequentialExecutor, Strategy,
};
use relstore::{tuple, Database, Restriction, Tuple};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("paged-conc-{tag}-{}-{n}", std::process::id()))
}

const SRC: &str = r#"
    (literalize Item n k pad)
    (literalize Done n)
    (literalize Log n)
    (p Mark (Item ^n <N> ^k <K> ^pad <P>) -(Done ^n <N>) --> (make Done ^n <N>))
    (p Consume (Item ^n <N> ^k <K> ^pad <P>) (Done ^n <N>) --> (remove 1) (make Log ^n <N>))
"#;

/// Fat-padded items so a handful of tuples overflow a 2-frame pool.
fn load(db: Arc<Database>, kind: EngineKind, items: i64) -> Box<dyn prodsys::MatchEngine> {
    let rules = ops5::compile(SRC).expect("program compiles");
    let mut engine = make_engine(kind, ProductionDb::with_db(db, rules).unwrap());
    for i in 0..items {
        engine.insert(
            ClassId(0),
            tuple![i % 24, i % 3, "x".repeat(120 + (i as usize % 40))],
        );
    }
    engine
}

#[test]
fn paged_database_under_concurrent_workers_matches_memory() {
    for kind in [EngineKind::Query, EngineKind::Cond] {
        // In-memory sequential oracle.
        let mut seq = SequentialExecutor::new(
            load(Arc::new(Database::new()), kind, 64),
            Strategy::Canonical,
        );
        let out = seq.run(10_000);
        assert!(out.fired > 0, "{}: workload is non-trivial", kind.label());
        let base_wm = wm_all(seq.engine());

        // Paged database, two frames: every worker round faults pages.
        let dir = tmp_dir(kind.label());
        let db = Arc::new(Database::new_paged(&dir, 2).unwrap());
        let mut exec = ConcurrentExecutor::new(load(db.clone(), kind, 64), 4);
        let stats = exec.run(10_000);

        assert_eq!(
            stats.committed,
            out.fired,
            "{}: paged concurrent commits vs in-memory sequential firings",
            kind.label()
        );
        assert!(!stats.halted, "{}: no halt in this program", kind.label());
        {
            let engine = exec.engine();
            let g = engine.lock();
            assert_eq!(wm_all(&**g), base_wm, "{}: final WM", kind.label());
            assert_eq!(
                g.conflict_set().len(),
                0,
                "{}: quiescent conflict set",
                kind.label()
            );
        }
        let snap = db.stats().snapshot();
        assert!(
            snap.pool_evictions > 0,
            "{}: the 2-frame pool must thrash ({} evictions)",
            kind.label(),
            snap.pool_evictions
        );
        assert_eq!(
            db.lock_manager().held_count(),
            0,
            "{}: no lock survives the run",
            kind.label()
        );
        // The paged store is still fully usable after the storm.
        let r = db.rel_id("Log").unwrap();
        db.insert(r, tuple![999i64]).unwrap();
        db.sync_wal().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn paged_database_survives_concurrent_checkpoints() {
    let dir = tmp_dir("ckpt");
    let db = Arc::new(Database::new_paged(&dir, 4).unwrap());
    let mut exec = ConcurrentExecutor::new(load(db.clone(), EngineKind::Query, 48), 4);

    // Checkpoint continuously while workers commit rule firings: the
    // snapshot path takes the same latches as worker transactions, so
    // any ordering bug deadlocks or panics here.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stats = std::thread::scope(|s| {
        let ck_db = db.clone();
        let ck_stop = stop.clone();
        s.spawn(move || {
            while !ck_stop.load(Ordering::Relaxed) {
                ck_db.checkpoint().unwrap();
            }
        });
        let stats = exec.run(10_000);
        stop.store(true, Ordering::Relaxed);
        stats
    });
    assert!(stats.committed > 0, "workers made progress");
    assert_eq!(db.lock_manager().held_count(), 0);
    db.checkpoint().unwrap();
    let before = dump(&db);
    drop(exec);
    drop(db);

    // Everything the run committed survives a crash-reopen.
    let (back, report) = Database::open_paged(&dir, 4).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(dump(&back), before, "recovered WM matches");
    std::fs::remove_dir_all(&dir).ok();
}

/// Sorted dump of every relation's tuples, name-keyed.
fn dump(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    let mut out: Vec<(String, Vec<Tuple>)> = db
        .relation_names()
        .into_iter()
        .map(|(rid, name)| {
            let mut rows: Vec<Tuple> = db
                .select(rid, &Restriction::default())
                .unwrap()
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
