//! Crash recovery through the one path, `Database::open_paged`: checkpoint
//! snapshot + log replay must reconstruct exactly the committed working
//! memory — never an open or aborted transaction's work — and a
//! re-attached engine must resume matching.

use ops5::ClassId;
use prodsys::engine::recompute::eval_rule;
use prodsys::engine::WmDelta;
use prodsys::{bootstrap, make_engine, EngineKind, Instantiation, ProductionDb};
use relstore::{tuple, Database, Restriction, Schema, Tuple, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    // aborted one never reaches the log.
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
    assert_eq!(report.records_replayed, 3, "create + 2 committed inserts");
    assert_eq!(rows(&after_abort, "R"), vec![tuple![1], tuple![2]]);

    // The abort logged nothing, so a sync adds nothing to replay.
    db.sync_wal().unwrap();
    let (synced, report) = reopen_copy(&wal, &tmp_dir("txn-synced"));
    assert_eq!(report.records_replayed, 3, "the abort logged nothing");
    assert_eq!(rows(&synced, "R"), vec![tuple![1], tuple![2]]);

    for tag in ["txn", "txn-commit", "txn-abort", "txn-synced"] {
        std::fs::remove_dir_all(tmp_dir(tag)).ok();
    }
}

/// Copy the durable files of a paged database directory (what a crash
/// right now would leave) to `to`, and open the copy.
fn reopen_dir_copy(from: &Path, to: &Path) -> Database {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).unwrap();
    for file in ["wal.log", "checkpoint.snap"] {
        if from.join(file).exists() {
            std::fs::copy(from.join(file), to.join(file)).unwrap();
        }
    }
    Database::open_paged(to, 4).unwrap().0
}

/// A peer's commit makes only its own work durable: an open transaction's
/// insert must not come back from the log the peer synced.
#[test]
fn a_peer_commit_does_not_make_an_open_transaction_durable() {
    let dir = tmp_dir("open-peer");
    let db = Database::new_paged(&dir, 4).unwrap();
    let a = db.create_relation(Schema::new("A", ["v"])).unwrap();
    let b = db.create_relation(Schema::new("B", ["v"])).unwrap();
    let mut t2 = db.begin();
    t2.insert(a, tuple![7]).unwrap();
    let mut t1 = db.begin();
    t1.insert(b, tuple![1]).unwrap();
    t1.commit().unwrap();
    let copy = reopen_dir_copy(&dir, &tmp_dir("open-peer-copy"));
    assert_eq!(rows(&copy, "B"), vec![tuple![1]], "the peer committed");
    assert_eq!(rows(&copy, "A"), Vec::<Tuple>::new(), "T2 never committed");
    t2.abort();
    for tag in ["open-peer", "open-peer-copy"] {
        std::fs::remove_dir_all(tmp_dir(tag)).ok();
    }
}

/// A checkpoint waits for an open writing transaction, so its image
/// never holds work that is later aborted.
#[test]
fn a_checkpoint_waits_for_an_open_writer_and_never_saves_its_work() {
    let dir = tmp_dir("ckpt-open");
    let db = Database::new_paged(&dir, 4).unwrap();
    let a = db.create_relation(Schema::new("A", ["v"])).unwrap();
    let mut t2 = db.begin();
    t2.insert(a, tuple![7]).unwrap();
    std::thread::scope(|s| {
        let checkpoint = s.spawn(|| db.checkpoint().unwrap());
        let deadline = Instant::now() + Duration::from_millis(200);
        while !checkpoint.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!checkpoint.is_finished(), "the checkpoint waits for T2");
        t2.abort();
        checkpoint.join().unwrap();
    });
    let copy = reopen_dir_copy(&dir, &tmp_dir("ckpt-open-copy"));
    assert_eq!(rows(&copy, "A"), Vec::<Tuple>::new(), "T2 aborted");
    for tag in ["ckpt-open", "ckpt-open-copy"] {
        std::fs::remove_dir_all(tmp_dir(tag)).ok();
    }
}

/// Every rule's matches over a production database's WM, evaluated from
/// scratch, sorted.
fn oracle(pdb: &ProductionDb) -> Vec<Instantiation> {
    let rules = pdb.rules();
    let mut all: Vec<_> = rules
        .rules
        .iter()
        .flat_map(|r| eval_rule(pdb, r).into_iter().map(|m| m.instantiation(r)))
        .collect();
    all.sort();
    all
}

/// §5 on a paged database: a transaction writes WM and DB-Rete maintains
/// its LEFT/RIGHT relations for it, then a peer's commit syncs the log. A
/// crash before the transaction commits must recover the committed WM,
/// and DB-Rete rebuilt over it must hold exactly the conflict set the
/// committed WM implies.
#[test]
fn db_rete_recovers_the_committed_wm_when_maintenance_ran_before_a_crash() {
    let dir = tmp_dir("dbrete-open");
    let rules = ops5::compile(SRC).unwrap();
    let db = Arc::new(Database::new_paged(&dir, 4).unwrap());
    let pdb = ProductionDb::with_db(db.clone(), rules.clone()).unwrap();
    let mut engine = make_engine(EngineKind::DbRete, pdb.clone());
    engine.insert(ClassId(0), tuple!["Ann", 7]);
    engine.insert(ClassId(1), tuple![8]);
    db.sync_wal().unwrap();

    let mut t = db.begin();
    let dept = tuple![7];
    let tid = t.insert(pdb.class_rel(ClassId(1)), dept.clone()).unwrap();
    engine.maintain_delta(&[WmDelta {
        insert: true,
        class: ClassId(1),
        tid,
        tuple: dept,
    }]);
    assert_eq!(
        engine.conflict_set().len(),
        1,
        "Ann matches the open Dept 7"
    );
    let mut peer = db.begin();
    peer.insert(pdb.class_rel(ClassId(0)), tuple!["Bob", 9])
        .unwrap();
    peer.commit().unwrap();

    let back = reopen_dir_copy(&dir, &tmp_dir("dbrete-open-copy"));
    t.commit().unwrap();
    let pdb2 = ProductionDb::attach(Arc::new(back), rules).unwrap();
    let mut engine2 = make_engine(EngineKind::DbRete, pdb2.clone());
    bootstrap(engine2.as_mut());
    assert_eq!(
        rows(pdb2.db(), "Emp"),
        vec![tuple!["Ann", 7], tuple!["Bob", 9]]
    );
    assert_eq!(rows(pdb2.db(), "Dept"), vec![tuple![8]], "Dept 7 is open");
    assert_eq!(engine2.conflict_set().sorted(), oracle(&pdb2));
    assert!(engine2.conflict_set().is_empty());
    for tag in ["dbrete-open", "dbrete-open-copy"] {
        std::fs::remove_dir_all(tmp_dir(tag)).ok();
    }
}

/// A write that returns `Err` logs nothing: an insert whose page fault
/// fails must not come back from the log as an insert that happened.
#[test]
fn a_failed_write_logs_nothing() {
    let dir = tmp_dir("failed-write");
    let db = Database::new_paged(&dir, 1).unwrap();
    let r = db.create_relation(Schema::new("R", ["k", "pad"])).unwrap();
    // 1 KiB tuples: several heap pages through one frame.
    let pad = "x".repeat(1000);
    let tids: Vec<_> = (0..12i64)
        .map(|i| db.insert(r, tuple![i, pad.as_str()]).unwrap())
        .collect();
    // Free room on the first page, then fault the last one in: the first
    // page is on disk only, and the next insert (a smaller tuple, for the
    // slot directory's slack) goes to it.
    db.delete(r, tids[0]).unwrap();
    db.get(r, tids[11]).unwrap();
    db.sync_wal().unwrap();
    // A failing page read, made the way the pool's own test makes one.
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("data.pages"))
        .unwrap()
        .set_len(0)
        .unwrap();
    let smaller = "x".repeat(990);
    assert!(
        db.insert(r, tuple![99, smaller.as_str()]).is_err(),
        "short read"
    );
    db.sync_wal().unwrap();
    let copy = reopen_dir_copy(&dir, &tmp_dir("failed-write-copy"));
    let keys: Vec<Value> = rows(&copy, "R").iter().map(|t| t[0].clone()).collect();
    assert_eq!(keys.len(), 11, "{keys:?}");
    assert!(
        !keys.contains(&Value::Int(99)),
        "the failed insert was logged"
    );
    for tag in ["failed-write", "failed-write-copy"] {
        std::fs::remove_dir_all(tmp_dir(tag)).ok();
    }
}
