//! Crash recovery through the one path, `Database::open_paged`: checkpoint
//! snapshot + write-ahead log replay must reconstruct the working memory
//! exactly, and a re-attached engine must resume matching.

use ops5::ClassId;
use prodsys::{bootstrap, make_engine, EngineKind, ProductionDb};
use relstore::{tuple, Database, Restriction, Schema, Tuple, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SRC: &str = r#"
    (literalize Emp name dno)
    (literalize Dept dno)
    (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relstore-recovery-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Sorted rows of relation `name`.
fn rows(db: &Database, name: &str) -> Vec<Tuple> {
    let rid = db.rel_id(name).unwrap();
    let mut rows: Vec<Tuple> = db
        .select(rid, &Restriction::default())
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    rows.sort();
    rows
}

#[test]
fn wal_replay_after_checkpoint() {
    let dir = tmp_dir("ckpt");
    let rules = ops5::compile(SRC).unwrap();
    let live_conflicts;
    {
        let db = Arc::new(Database::new_paged(&dir, 4).unwrap());
        let pdb = ProductionDb::with_db(db.clone(), rules.clone()).unwrap();
        let mut engine = make_engine(EngineKind::Rete, pdb);

        // Pre-checkpoint activity.
        engine.insert(ClassId(0), tuple!["Ann", 7]);
        engine.insert(ClassId(0), tuple!["Bob", 8]);
        db.checkpoint().unwrap();

        // Post-checkpoint activity: lost unless the WAL captures it.
        engine.insert(ClassId(1), tuple![7]);
        engine.remove(ClassId(0), &tuple!["Bob", 8]);
        engine.insert(ClassId(0), tuple!["Cid", 7]);
        live_conflicts = engine.conflict_set().sorted();
        assert_eq!(live_conflicts.len(), 2, "Ann and Cid match dept 7");
        db.sync_wal().unwrap();
    } // "crash"

    let (recovered, report) = Database::open_paged(&dir, 4).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.records_replayed, 3, "the post-checkpoint changes");
    assert_eq!(
        rows(&recovered, "Emp"),
        vec![tuple!["Ann", 7], tuple!["Cid", 7]]
    );
    assert_eq!(rows(&recovered, "Dept"), vec![tuple![7]]);

    // Re-attach an engine and verify the conflict set is back.
    let pdb2 = ProductionDb::attach(Arc::new(recovered), rules).unwrap();
    let mut engine2 = make_engine(EngineKind::Cond, pdb2);
    bootstrap(engine2.as_mut());
    assert_eq!(engine2.conflict_set().sorted(), live_conflicts);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_without_checkpoint() {
    // A log alone reconstructs everything, including DDL and indexes.
    let dir = tmp_dir("log-only");
    {
        let db = Database::new_paged(&dir, 4).unwrap();
        let rid = db.create_relation(Schema::new("R", ["a", "b"])).unwrap();
        db.create_hash_index(rid, 0).unwrap();
        db.create_ord_index(rid, 1).unwrap();
        for i in 0..20i64 {
            db.insert(rid, tuple![i, i * 2]).unwrap();
        }
        db.delete_equal(rid, &tuple![5, 10]).unwrap();
        db.sync_wal().unwrap();
    } // "crash"

    let (recovered, report) = Database::open_paged(&dir, 4).unwrap();
    assert!(!report.snapshot_loaded);
    assert_eq!(
        report.records_replayed, 24,
        "create + 2 indexes + 20 inserts + delete"
    );
    let r2 = recovered.rel_id("R").unwrap();
    assert_eq!(recovered.relation_len(r2), 19);
    assert!(!rows(&recovered, "R").contains(&tuple![5, 10]));
    assert!(recovered.read(r2, |r| r.has_hash_index(0)).unwrap());
    assert!(recovered.read(r2, |r| r.has_ord_index(1)).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// Open a copy of `wal.log` (as it is on disk right now) as a database.
fn reopen_copy(wal: &Path, dir: &Path) -> (Database, relstore::RecoveryReport) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::copy(wal, dir.join("wal.log")).unwrap();
    Database::open_paged(dir, 4).unwrap()
}

#[test]
fn transactional_aborts_leave_consistent_log() {
    // A committed transaction is on disk the moment `commit` returns; an
    // aborted one leaves no trace, whether its records and their
    // compensations reached the log file or not.
    let dir = tmp_dir("txn");
    let wal = dir.join("wal.log");
    let db = Database::new_paged(&dir, 4).unwrap();
    let rid = db.create_relation(Schema::new("R", ["a"])).unwrap();
    db.insert(rid, tuple![1]).unwrap();

    let mut txn = db.begin();
    txn.insert(rid, tuple![2]).unwrap();
    txn.commit().unwrap();
    let (committed, _) = reopen_copy(&wal, &tmp_dir("txn-commit"));
    assert_eq!(rows(&committed, "R"), vec![tuple![1], tuple![2]]);

    let mut txn = db.begin();
    txn.insert(rid, tuple![3]).unwrap();
    let rows_now = txn.select(rid, &Restriction::default()).unwrap();
    let victim = rows_now
        .iter()
        .find(|(_, t)| t[0] == Value::Int(1))
        .unwrap();
    txn.delete(rid, victim.0).unwrap();
    txn.abort();
    assert_eq!(rows(&db, "R"), vec![tuple![1], tuple![2]]);
    let (after_abort, report) = reopen_copy(&wal, &tmp_dir("txn-abort"));
    assert_eq!(
        report.records_replayed, 3,
        "the aborted work was never synced"
    );
    assert_eq!(rows(&after_abort, "R"), vec![tuple![1], tuple![2]]);

    // Once the aborted work and its compensating records are synced,
    // replay still lands on the committed state.
    db.sync_wal().unwrap();
    let (synced, report) = reopen_copy(&wal, &tmp_dir("txn-synced"));
    assert_eq!(
        report.records_replayed, 7,
        "3 committed + 2 aborted + 2 undone"
    );
    assert_eq!(rows(&synced, "R"), vec![tuple![1], tuple![2]]);

    for tag in ["txn", "txn-commit", "txn-abort", "txn-synced"] {
        std::fs::remove_dir_all(tmp_dir(tag)).ok();
    }
}
