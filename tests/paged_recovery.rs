//! Paged working memory: file-backed pages behind a small buffer pool
//! must be observationally identical to in-memory storage, and a crash at
//! any WAL byte boundary must recover exactly the committed prefix.

use ops5::ClassId;
use prodsys::{bootstrap, make_engine, EngineKind, ProductionDb};
use proptest::prelude::*;
use relstore::{tuple, Database, Restriction, Schema, Tuple, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("relstore-paged-{tag}-{}-{n}", std::process::id()))
}

/// Sorted dump of every relation's tuples, name-keyed — the equality
/// oracle for "same working memory".
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

#[test]
fn paged_database_matches_memory_under_forced_eviction() {
    let dir = tmp_dir("equiv");
    // Two frames against hundreds of fat rows: the working set cannot fit.
    let paged = Database::new_paged(&dir, 2).unwrap();
    let mem = Database::new();
    for db in [&paged, &mem] {
        let r = db.create_relation(Schema::new("R", ["k", "pad"])).unwrap();
        db.create_hash_index(r, 0).unwrap();
        let s = db.create_relation(Schema::new("S", ["k"])).unwrap();
        for i in 0..300i64 {
            db.insert(r, tuple![i % 17, "x".repeat(100 + (i as usize % 50))])
                .unwrap();
            if i % 3 == 0 {
                db.insert(s, tuple![i % 17]).unwrap();
            }
            if i % 7 == 0 {
                db.delete_equal(
                    r,
                    &tuple![(i - 3) % 17, "x".repeat(100 + ((i - 3) as usize % 50))],
                )
                .ok();
            }
        }
    }
    assert_eq!(dump(&paged), dump(&mem));
    // Point lookups through the hash index agree too.
    let rp = paged.rel_id("R").unwrap();
    let rm = mem.rel_id("R").unwrap();
    for k in 0..17i64 {
        let restr = Restriction::new(vec![relstore::Selection::eq(0, k)]);
        let mut a: Vec<Tuple> = paged
            .select(rp, &restr)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let mut b: Vec<Tuple> = mem
            .select(rm, &restr)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "indexed lookup k={k}");
    }
    let snap = paged.stats().snapshot();
    assert!(
        snap.pool_evictions > 0,
        "pool must be smaller than the working set"
    );
    assert!(snap.page_reads > 0, "evicted pages were faulted back in");
    assert!(
        snap.page_writes > 0,
        "dirty evictions reached the page file"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_and_reopen_recovers_exact_state() {
    let dir = tmp_dir("reopen");
    let before;
    {
        let db = Database::new_paged(&dir, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["a", "b"])).unwrap();
        db.create_ord_index(r, 0).unwrap();
        for i in 0..40i64 {
            db.insert(r, tuple![i, format!("row-{i}")]).unwrap();
        }
        db.checkpoint().unwrap();
        // Post-checkpoint work lives only in the WAL.
        for i in 40..55i64 {
            db.insert(r, tuple![i, format!("row-{i}")]).unwrap();
        }
        db.delete_equal(r, &tuple![3, "row-3"]).unwrap();
        db.sync_wal().unwrap();
        before = dump(&db);
    } // "crash"

    let (back, report) = Database::open_paged(&dir, 4).unwrap();
    assert!(report.snapshot_loaded, "checkpoint snapshot was found");
    assert_eq!(
        report.records_replayed, 16,
        "15 inserts + 1 delete replayed"
    );
    assert!(report.torn.is_none());
    assert_eq!(dump(&back), before);
    let r = back.rel_id("R").unwrap();
    assert!(back.read(r, |rel| rel.has_ord_index(0)).unwrap());
    // The reopened database keeps working in paged mode.
    assert!(back.is_paged());
    back.insert(r, tuple![99, "post-recovery"]).unwrap();
    assert_eq!(back.relation_len(r), 55);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every index of every relation, name-keyed: `(relation, attribute,
/// hash?, ordered?)` for each indexed attribute.
fn indexes(db: &Database) -> Vec<(String, usize, bool, bool)> {
    let mut out = Vec::new();
    for (rid, name) in db.relation_names() {
        db.read(rid, |rel| {
            for attr in 0..rel.schema().arity() {
                let (hash, ord) = (rel.has_hash_index(attr), rel.has_ord_index(attr));
                if hash || ord {
                    out.push((name.clone(), attr, hash, ord));
                }
            }
        })
        .unwrap();
    }
    out.sort();
    out
}

/// Index definitions are part of the durable state: a production system
/// recovered from the WAL alone (no checkpoint) must come back with the
/// WM indexes `ProductionDb` chose, or replay and every later match run
/// on full scans. DB-Rete's LEFT/RIGHT relations are derived: recovery
/// drops them, and re-creating the engine brings back the same rows and
/// the indexes it retracts through.
#[test]
fn production_db_indexes_survive_crash_without_checkpoint() {
    let dir = tmp_dir("pdb-indexes");
    let rules = ops5::compile(
        r#"
        (literalize Emp name salary dno)
        (literalize Dept dno)
        (p Rich (Emp ^salary > 5000 ^dno <D>) (Dept ^dno <D>) --> (remove 1))
        "#,
    )
    .unwrap();
    let (wm_before, indexes_before);
    {
        let db = Arc::new(Database::new_paged(&dir, 4).unwrap());
        let pdb = ProductionDb::with_db(db.clone(), rules.clone()).unwrap();
        let mut engine = make_engine(EngineKind::DbRete, pdb);
        engine.insert(ClassId(0), tuple!["Ann", 9000, 7]);
        engine.insert(ClassId(1), tuple![7]);
        db.sync_wal().unwrap();
        wm_before = dump(&db);
        indexes_before = indexes(&db);
        let indexed = |rel: &str| indexes_before.iter().filter(|i| i.0 == rel).count();
        assert_eq!(indexed("Emp"), 2, "ordered salary, hashed dno");
        assert_eq!(indexed("Dept"), 1, "hashed dno");
        assert!(indexes_before.len() > 3, "LEFT/RIGHT relations are indexed");
    } // "crash"

    let (back, report) = Database::open_paged(&dir, 4).unwrap();
    assert!(!report.snapshot_loaded);
    assert!(dump(&back)
        .iter()
        .all(|(name, _)| !name.starts_with("__rete")));
    let pdb = ProductionDb::attach(Arc::new(back), rules).unwrap();
    let mut engine = make_engine(EngineKind::DbRete, pdb.clone());
    bootstrap(engine.as_mut());
    assert_eq!(dump(pdb.db()), wm_before);
    assert_eq!(indexes(pdb.db()), indexes_before);
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint crash window: the snapshot has been renamed into place
/// but the WAL was not yet truncated when the process died. Recovery
/// must skip every log record the snapshot already contains (replaying
/// them would duplicate the inserts — and fail outright on the replayed
/// CreateRelation), replay every record past the snapshot's watermark,
/// and finish the interrupted truncation.
#[test]
fn crash_between_snapshot_rename_and_wal_truncate_recovers() {
    let dir = tmp_dir("midckpt");
    let before;
    {
        let db = Database::new_paged(&dir, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["a"])).unwrap();
        for i in 0..20i64 {
            db.insert(r, tuple![i]).unwrap();
        }
        db.sync_wal().unwrap();
        let pre_wal = std::fs::read(dir.join("wal.log")).unwrap();
        db.checkpoint().unwrap();
        // Post-checkpoint work: the shortened log holds only its frames.
        for i in 20..23i64 {
            db.insert(r, tuple![i]).unwrap();
        }
        db.delete_equal(r, &tuple![0]).unwrap();
        db.sync_wal().unwrap();
        before = dump(&db);
        drop(db);
        // Put the pre-checkpoint log back in front of those frames: the
        // log a crash right after the snapshot rename leaves, once later
        // work was logged behind it.
        let post_wal = std::fs::read(dir.join("wal.log")).unwrap();
        std::fs::write(dir.join("wal.log"), [pre_wal, post_wal].concat()).unwrap();
    }
    let (back, report) = Database::open_paged(&dir, 4).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.records_skipped, 21, "create + 20 inserts skipped");
    assert_eq!(
        report.records_replayed, 4,
        "3 inserts + 1 delete past the watermark"
    );
    assert!(report.torn.is_none());
    assert_eq!(dump(&back), before);
    // New work after recovery must not collide with skipped LSNs.
    let r = back.rel_id("R").unwrap();
    back.insert(r, tuple![99]).unwrap();
    back.sync_wal().unwrap();
    drop(back);
    // The interrupted truncation was finished on open: a second recovery
    // skips nothing and replays the post-checkpoint work plus the
    // post-recovery insert.
    let (again, report2) = Database::open_paged(&dir, 4).unwrap();
    assert_eq!(report2.records_skipped, 0);
    assert_eq!(report2.records_replayed, 5);
    assert_eq!(again.relation_len(again.rel_id("R").unwrap()), 23);
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoints racing live writers: every insert that committed (sync'd)
/// must survive recovery exactly once, whether it landed in a snapshot,
/// in the log suffix a checkpoint kept, or in both epochs' history.
#[test]
fn checkpoint_concurrent_with_writers_loses_nothing() {
    let dir = tmp_dir("ckpt-race");
    let before;
    {
        let db = Database::new_paged(&dir, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["w", "i"])).unwrap();
        std::thread::scope(|s| {
            for w in 0..2i64 {
                let db = &db;
                s.spawn(move || {
                    for i in 0..100i64 {
                        db.insert(r, tuple![w, i]).unwrap();
                        db.sync_wal().unwrap();
                    }
                });
            }
            let db = &db;
            s.spawn(move || {
                for _ in 0..5 {
                    db.checkpoint().unwrap();
                }
            });
        });
        db.sync_wal().unwrap();
        before = dump(&db);
    } // "crash"
    let (back, _report) = Database::open_paged(&dir, 4).unwrap();
    assert_eq!(dump(&back), before, "no insert lost, none duplicated");
    assert_eq!(back.relation_len(back.rel_id("R").unwrap()), 200);
    std::fs::remove_dir_all(&dir).ok();
}

/// The satellite regression for the torn-tail bug, at the recovery level:
/// chop the *encoded log file* at every byte offset and open the database;
/// whatever whole records survive must reproduce exactly that prefix's
/// working memory — never an error, never a partial record's effects.
#[test]
fn recovery_at_every_wal_cut_yields_prefix_state() {
    let dir = tmp_dir("cuts");
    {
        let db = Database::new_paged(&dir, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["v"])).unwrap();
        db.insert(r, tuple!["a"]).unwrap();
        db.insert(r, tuple!["b"]).unwrap();
        db.delete_equal(r, &tuple!["a"]).unwrap();
        db.insert(r, tuple!["c"]).unwrap();
        db.sync_wal().unwrap();
    }
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    // Expected relation contents after replaying k whole records.
    let states: [Option<Vec<&str>>; 6] = [
        None,                 // nothing: relation not yet created
        Some(vec![]),         // create R
        Some(vec!["a"]),      // insert a
        Some(vec!["a", "b"]), // insert b
        Some(vec!["b"]),      // delete a
        Some(vec!["b", "c"]), // insert c
    ];
    // Frame boundaries: the cuts where the log is exactly k records.
    let mut boundaries = vec![0usize];
    {
        let (records, _, _) = decode_boundaries(&log);
        boundaries.extend(records);
    }
    assert_eq!(boundaries.len(), 6, "five records logged");

    for cut in 0..=log.len() {
        let dir = tmp_dir("cut");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &log[..cut]).unwrap();
        let (db, report) = Database::open_paged(&dir, 4).unwrap();
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(report.records_replayed, whole, "cut at {cut}");
        assert_eq!(
            report.torn.is_none(),
            boundaries.contains(&cut),
            "cut at {cut}: torn tail iff mid-frame"
        );
        match &states[whole] {
            None => assert_eq!(db.relation_count(), 0, "cut at {cut}"),
            Some(want) => {
                let r = db.rel_id("R").unwrap();
                let mut got: Vec<Tuple> = db
                    .select(r, &Restriction::default())
                    .unwrap()
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect();
                got.sort();
                let want: Vec<Tuple> = want.iter().map(|s| tuple![*s]).collect();
                assert_eq!(got, want, "cut at {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Frame-boundary offsets of a WAL byte image, via the public prefix
/// decoder: re-decode every prefix and note where the record count grows.
fn decode_boundaries(log: &[u8]) -> (Vec<usize>, usize, usize) {
    let mut cuts = Vec::new();
    let mut last = 0;
    for cut in 1..=log.len() {
        let (records, torn) = relstore::Wal::decode_prefix(&log[..cut]);
        if torn.is_none() && records.len() > last {
            last = records.len();
            cuts.push(cut);
        }
    }
    (cuts, last, log.len())
}

/// One step of the randomized crash workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    /// Delete the i-th live value (mod live count); no-op when empty.
    Delete(u8),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0i64..40).prop_map(Op::Insert),
        2 => (0u8..32).prop_map(Op::Delete),
        1 => Just(Op::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random inserts/deletes/checkpoints against a paged database, then
    /// a "crash" that truncates the WAL at an arbitrary byte offset.
    /// Recovery must land exactly on the state after the longest prefix
    /// of operations whose log records fully survived — and agree with an
    /// in-memory database replaying that same prefix.
    #[test]
    fn crash_at_arbitrary_wal_offset_recovers_committed_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        cut_sel in 0u32..1_000_000,
    ) {
        let dir = tmp_dir("prop");
        let db = Database::new_paged(&dir, 2).unwrap();
        let r = db.create_relation(Schema::new("R", ["v"])).unwrap();
        db.sync_wal().unwrap();
        let wal_path = dir.join("wal.log");
        let wal_len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len() as usize;

        // `marks`: after each durable point, the WAL byte length and the
        // multiset of live values. A checkpoint restarts the log, so the
        // marks list restarts from the new base state.
        let mut live: Vec<i64> = Vec::new();
        let mut marks: Vec<(usize, Vec<i64>)> = vec![(wal_len(&wal_path), live.clone())];
        for op in &ops {
            match op {
                Op::Insert(v) => {
                    db.insert(r, tuple![*v]).unwrap();
                    live.push(*v);
                    live.sort_unstable();
                }
                Op::Delete(i) => {
                    if !live.is_empty() {
                        let v = live.remove(*i as usize % live.len());
                        db.delete_equal(r, &tuple![v]).unwrap();
                    }
                }
                Op::Checkpoint => {
                    db.checkpoint().unwrap();
                    marks = Vec::new();
                }
            }
            db.sync_wal().unwrap();
            marks.push((wal_len(&wal_path), live.clone()));
        }
        drop(db); // "crash"

        // Truncate the log at an arbitrary offset past the last checkpoint.
        let total = wal_len(&wal_path);
        let base = marks.first().map_or(0, |(len, _)| *len).min(total);
        let cut = base + ((cut_sel as usize) % (total - base + 1));
        let full = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &full[..cut]).unwrap();

        let (back, _report) = Database::open_paged(&dir, 2).unwrap();
        let r2 = back.rel_id("R").unwrap();
        let mut got: Vec<i64> = back
            .select(r2, &Restriction::default())
            .unwrap()
            .into_iter()
            .map(|(_, t)| match &t[0] {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect();
        got.sort_unstable();

        // Expected: the newest mark whose WAL length fits in the cut.
        let want = marks
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, live)| live.clone())
            .unwrap_or_default();
        prop_assert_eq!(got, want, "cut {} of {} (base {})", cut, total, base);
        std::fs::remove_dir_all(&dir).ok();
    }
}
