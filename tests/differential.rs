//! The storage and §5 scenarios of the differential driver
//! (`tests/common/differential.rs`), whose crash and §5 axes run on every
//! case that any test binary checks: the named cases and hand-written
//! scenarios no generated case reaches. Tests of the crash axis's storage
//! are named `crash_…`, those of §5 concurrent execution `conc_…`, so
//! `cargo test --test differential conc_` picks one axis. The generated
//! and named engine cases live in `engine_equivalence`,
//! `executor_equivalence`, `batch_equivalence`, `negation`,
//! `pattern_index`, `prop_engines`, `seeded_unblock` and
//! `view_maintenance`.

mod common;

use std::sync::Arc;

use common::differential::check;
use common::grammar::{Bias, Case, Op};
use common::{dump, load, wm_all, Scratch};
use ops5::ClassId;
use prodsys::{
    bootstrap, make_engine, ConcurrentExecutor, EngineKind, ProductionDb, SequentialExecutor,
    Strategy, WmChange,
};
use relstore::{tuple, Database, Restriction, Schema, Selection, Tuple};

// Paged storage and recovery.

/// Two frames against hundreds of fat rows: the paged store must be
/// observationally identical to the in-memory one, scans and hash-index
/// lookups alike.
#[test]
fn crash_paged_database_matches_memory_under_forced_eviction() {
    let dir = Scratch::new("equiv");
    let paged = Database::new_paged(&dir.0, 2).unwrap();
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
                let gone = tuple![(i - 3) % 17, "x".repeat(100 + ((i - 3) as usize % 50))];
                db.delete_equal(r, &gone).ok();
            }
        }
    }
    assert_eq!(dump(&paged), dump(&mem));
    let (rp, rm) = (paged.rel_id("R").unwrap(), mem.rel_id("R").unwrap());
    for k in 0..17i64 {
        let key = Restriction::new(vec![Selection::eq(0, k)]);
        let rows = |db: &Database, r| {
            let mut rows: Vec<Tuple> = (db.select(r, &key).unwrap().into_iter())
                .map(|(_, t)| t)
                .collect();
            rows.sort();
            rows
        };
        assert_eq!(rows(&paged, rp), rows(&mem, rm), "indexed lookup k={k}");
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
}

#[test]
fn crash_checkpoint_and_reopen_recovers_exact_state() {
    let dir = Scratch::new("reopen");
    let before;
    {
        let db = Database::new_paged(&dir.0, 4).unwrap();
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

    let (back, report) = Database::open_paged(&dir.0, 4).unwrap();
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
fn crash_production_db_indexes_survive_crash_without_checkpoint() {
    let dir = Scratch::new("pdb-indexes");
    let src = r#"
        (literalize Emp name salary dno)
        (literalize Dept dno)
        (p Rich (Emp ^salary > 5000 ^dno <D>) (Dept ^dno <D>) --> (remove 1))
    "#;
    let (wm_before, indexes_before);
    {
        let db = Arc::new(Database::new_paged(&dir.0, 4).unwrap());
        let rows = [(0, tuple!["Ann", 9000, 7]), (1, tuple![7])];
        let _engine = load(EngineKind::DbRete, db.clone(), src, rows);
        db.sync_wal().unwrap();
        wm_before = dump(&db);
        indexes_before = indexes(&db);
        let indexed = |rel: &str| indexes_before.iter().filter(|i| i.0 == rel).count();
        assert_eq!(indexed("Emp"), 2, "ordered salary, hashed dno");
        assert_eq!(indexed("Dept"), 1, "hashed dno");
        assert!(indexes_before.len() > 3, "LEFT/RIGHT relations are indexed");
    } // "crash"

    let (back, report) = Database::open_paged(&dir.0, 4).unwrap();
    assert!(!report.snapshot_loaded);
    assert!(dump(&back)
        .iter()
        .all(|(name, _)| !name.starts_with("__rete")));
    let pdb = ProductionDb::attach(Arc::new(back), ops5::compile(src).unwrap()).unwrap();
    let mut engine = make_engine(EngineKind::DbRete, pdb.clone());
    bootstrap(engine.as_mut());
    assert_eq!(dump(pdb.db()), wm_before);
    assert_eq!(indexes(pdb.db()), indexes_before);
}

/// The checkpoint crash window: the snapshot has been renamed into place
/// but the WAL was not yet truncated when the process died. Recovery
/// must skip every log record the snapshot already contains (replaying
/// them would duplicate the inserts — and fail outright on the replayed
/// CreateRelation), replay every record past the snapshot's watermark,
/// and finish the interrupted truncation.
#[test]
fn crash_between_snapshot_rename_and_wal_truncate_recovers() {
    let dir = Scratch::new("midckpt");
    let wal = dir.0.join("wal.log");
    let before;
    {
        let db = Database::new_paged(&dir.0, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["a"])).unwrap();
        for i in 0..20i64 {
            db.insert(r, tuple![i]).unwrap();
        }
        db.sync_wal().unwrap();
        let pre_wal = std::fs::read(&wal).unwrap();
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
        let post_wal = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, [pre_wal, post_wal].concat()).unwrap();
    }
    let (back, report) = Database::open_paged(&dir.0, 4).unwrap();
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
    let (again, report2) = Database::open_paged(&dir.0, 4).unwrap();
    assert_eq!(report2.records_skipped, 0);
    assert_eq!(report2.records_replayed, 5);
    assert_eq!(again.relation_len(again.rel_id("R").unwrap()), 23);
}

/// Checkpoints racing live writers: every insert that committed (sync'd)
/// must survive recovery exactly once, whether it landed in a snapshot,
/// in the log suffix a checkpoint kept, or in both epochs' history.
#[test]
fn crash_checkpoint_concurrent_with_writers_loses_nothing() {
    let dir = Scratch::new("ckpt-race");
    let before;
    {
        let db = Database::new_paged(&dir.0, 4).unwrap();
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
    let (back, _report) = Database::open_paged(&dir.0, 4).unwrap();
    assert_eq!(dump(&back), before, "no insert lost, none duplicated");
    assert_eq!(back.relation_len(back.rel_id("R").unwrap()), 200);
}

/// The torn-tail regression at the recovery level: chop the encoded log
/// at every byte offset and open the database; whatever whole records
/// survive must reproduce exactly that prefix's working memory — never
/// an error, never a partial record's effects.
#[test]
fn crash_recovery_at_every_wal_cut_yields_prefix_state() {
    let log = {
        let dir = Scratch::new("cuts");
        let db = Database::new_paged(&dir.0, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["v"])).unwrap();
        db.insert(r, tuple!["a"]).unwrap();
        db.insert(r, tuple!["b"]).unwrap();
        db.delete_equal(r, &tuple!["a"]).unwrap();
        db.insert(r, tuple!["c"]).unwrap();
        db.sync_wal().unwrap();
        std::fs::read(dir.0.join("wal.log")).unwrap()
    };
    // Relation contents after replaying k whole records.
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
    for cut in 1..=log.len() {
        let (records, torn) = relstore::Wal::decode_prefix(&log[..cut]);
        if torn.is_none() && records.len() == boundaries.len() {
            boundaries.push(cut);
        }
    }
    assert_eq!(boundaries.len(), 6, "five records logged");

    for cut in 0..=log.len() {
        let dir = Scratch::new("cut");
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(dir.0.join("wal.log"), &log[..cut]).unwrap();
        let (db, report) = Database::open_paged(&dir.0, 4).unwrap();
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(report.records_replayed, whole, "cut at {cut}");
        assert_eq!(
            report.torn.is_none(),
            boundaries.contains(&cut),
            "cut at {cut}: torn tail iff mid-frame"
        );
        let want = states[whole].as_ref().map(|rows| {
            let rows = rows.iter().map(|s| tuple![*s]).collect();
            vec![("R".to_string(), rows)]
        });
        assert_eq!(
            Some(dump(&db)).filter(|d| !d.is_empty()),
            want,
            "cut at {cut}"
        );
    }
}

// §5 concurrent execution.

/// The ops `each(0)`, …, `each(n - 1)`, run to quiescence: the WM
/// every engine agreed on.
fn quiesces(src: &str, n: usize, each: impl Fn(usize) -> String) -> Vec<Vec<Tuple>> {
    let ops: Vec<String> = (0..n).map(each).collect();
    let ops: Vec<&str> = ops.iter().map(String::as_str).collect();
    let (out, wm) = check(&Case::named(src, &ops));
    assert!(!out.limited, "the program reaches quiescence");
    wm
}

/// Conflicting deleters: each `A` is consumed by exactly one of the two
/// rules, serially and — the §5 axis holds the concurrent run to a
/// serial witness — under racing workers.
#[test]
fn conc_racing_deleters_match_some_serial_order() {
    let src = r#"
        (literalize A x)
        (literalize WinB x)
        (literalize WinC x)
        (p B (A ^x <V>) --> (remove 1) (make WinB ^x <V>))
        (p C (A ^x <V>) --> (remove 1) (make WinC ^x <V>))
    "#;
    let wm = quiesces(src, 6, |i| format!("+0 {i}"));
    assert_eq!((wm[0].len(), wm[1].len() + wm[2].len()), (0, 6));
}

/// The §5.2 negative-dependence scenario: inserting transactions must be
/// serialized against NOT EXISTS checkers, so duplicated items make one
/// Done per n.
#[test]
fn conc_negative_dependence_serializes() {
    let src = r#"
        (literalize Item n)
        (literalize Done n)
        (p Mark (Item ^n <N>) -(Done ^n <N>) --> (make Done ^n <N>))
    "#;
    assert_eq!(quiesces(src, 12, |i| format!("+0 {}", i % 4))[1].len(), 4);
}

/// The program of the checked-in flake fixture.
const FLAKE_SRC: &str = r#"
    (literalize Item n k)
    (literalize Done n)
    (literalize Log n)
    (p Mark (Item ^n <N> ^k <K>) -(Done ^n <N>) --> (make Done ^n <N>))
    (p Consume (Item ^n <N> ^k <K>) (Done ^n <N>) --> (remove 1) (make Log ^n <N>))
"#;

const FLAKE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/flake_regression.jsonl"
);

/// Journal of the minimized workload that exposed the `self_removed`
/// mis-attribution: duplicate-content `Item` rows racing under 4
/// workers, where a `Consume` commit deletes one copy of a tuple whose
/// other copies still support pending instantiations. Refraction used to
/// credit the *maintenance* delta (which can observe every copy's
/// retirement under concurrency) instead of the transaction's own
/// applied RHS, and the conflict set would not drain. Replaying the
/// checked-in journal pins the fixed behavior: the recorded schedule
/// must reproduce exactly, firing-for-firing, down to the final WM.
#[test]
fn conc_replays_checked_in_flake_fixture() {
    let out = prodsys_bench::replay_run(FLAKE_FIXTURE).expect("fixture journal replays");
    assert!(out.firings > 0, "fixture is non-trivial");
    assert_eq!(out.mode, "concurrent");
}

/// Maintenance helper — regenerate the fixture after a schema change:
/// `cargo test --test differential -- --ignored conc_regenerate`
#[test]
#[ignore]
fn conc_regenerate_flake_fixture() {
    let items: &[(i64, i64)] = &[(0, 0), (0, 0), (1, 0), (1, 0), (0, 1), (2, 0), (2, 0)];
    let load = items
        .iter()
        .map(|&(n, k)| obs::LoadOp {
            insert: true,
            class: 0,
            values: vec![obs::LoadValue::Int(n), obs::LoadValue::Int(k)],
        })
        .collect();
    let out = prodsys_bench::record_run_with(
        FLAKE_FIXTURE,
        EngineKind::Query,
        4,
        FLAKE_SRC,
        load,
        10_000,
    )
    .unwrap();
    println!(
        "fixture regenerated: {} firings -> {FLAKE_FIXTURE}",
        out.fired
    );
}

/// `Mark`/`Consume` over 24 fat-padded items (about a page of them): the sequential lanes run
/// it paged behind a two-frame pool, the crash axis recovers it, and the
/// §5 axis runs it concurrently.
#[test]
fn conc_mark_consume_over_fat_paged_items() {
    let src = r#"
        (literalize Item n k pad)
        (literalize Done n)
        (literalize Log n)
        (p Mark (Item ^n <N> ^k <K> ^pad <P>) -(Done ^n <N>) --> (make Done ^n <N>))
        (p Consume (Item ^n <N> ^k <K> ^pad <P>) (Done ^n <N>) --> (remove 1) (make Log ^n <N>))
    "#;
    let items: Vec<(&str, Tuple)> = (0..24i64)
        .map(|i| {
            (
                "Item",
                tuple![i % 24, i % 3, "x".repeat(120 + (i as usize % 40))],
            )
        })
        .collect();
    let mut case = Case::loaded(src, &items, &[]);
    case.cycles = 10_000;
    let (out, _) = check(&case);
    assert!(out.fired > 0 && !out.limited, "{out:?}");
}

/// Checkpoint continuously while workers commit rule firings on a paged
/// database: the snapshot path takes the same latches as worker
/// transactions, so any ordering bug deadlocks or panics here, and
/// everything the run committed must survive a crash-reopen.
#[test]
fn conc_paged_database_survives_concurrent_checkpoints() {
    let dir = Scratch::new("ckpt");
    let db = Arc::new(Database::new_paged(&dir.0, 4).unwrap());
    let rows = (0..48i64).map(|i| (0, tuple![i % 24, i % 3]));
    let mut exec = ConcurrentExecutor::new(load(EngineKind::Query, db.clone(), FLAKE_SRC, rows), 4);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let stats = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                db.checkpoint().unwrap();
            }
        });
        let stats = exec.run(10_000);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        stats
    });
    assert!(stats.committed > 0, "workers made progress");
    assert_eq!(db.lock_manager().held_count(), 0);
    db.checkpoint().unwrap();
    let before = dump(&db);
    drop(exec);
    drop(db);
    let (back, report) = Database::open_paged(&dir.0, 4).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(dump(&back), before, "recovered WM matches");
}

/// A transaction that deletes a row and aborts must put it back under
/// its own tuple id. An abort runs no maintenance, and COND keys its
/// instantiations by tuple id: a row back under a new id left COND with
/// an instantiation the row's later removal could not retract.
#[test]
fn conc_rolled_back_delete_keeps_its_tuple_id() {
    let src = "(literalize C0 a)\n(p R (C0 ^a <X>) --> (remove 1))";
    for kind in EngineKind::ALL {
        let mut engine = load(kind, Arc::new(Database::new()), src, [(0, tuple![1])]);
        let pdb = engine.pdb().clone();
        let tid = pdb.wm_scan(ClassId(0)).unwrap()[0].0;
        pdb.db()
            .begin()
            .delete(pdb.class_rel(ClassId(0)), tid)
            .unwrap();
        // The transaction was dropped, so it rolled back.
        let rows = pdb.wm_scan(ClassId(0)).unwrap();
        assert_eq!(rows, vec![(tid, tuple![1])], "{}", kind.label());
        engine.remove(ClassId(0), &tuple![1]);
        assert!(engine.conflict_set().is_empty(), "{}", kind.label());
    }
}

/// A `modify` makes a WME equal to the one it matched, then a `remove`
/// removes it: serially the made copy goes. The §5 executor took the
/// removal for the matched row, deleted already, and kept the copy —
/// also when one WME filled both CEs. Found by the soak below (seeds
/// 1031 and 5007, `Bias::Any`).
#[test]
fn conc_remove_after_a_modify_to_an_equal_tuple() {
    let src = "(literalize C0 a0 a1)\n(literalize C2 a0 a1)\n\
        (p R0 (C2 ^a0 <V0> ^a1 <V1>) (C0 ^a0 0 ^a1 <V2>) -(C2 ^a0 <V0> ^a1 <V0>) \
        --> (modify 2 ^a1 <V1>) (remove 2))";
    check(&Case::named(src, &["+1 0 2", "+0 0 2.0"]));
    let src = "(literalize C0 a0 a1 a2)\n(literalize C1 a0 a1)\n\
        (p R0 (C1 ^a0 <V0> ^a1 <= a) -(C0 ^a1 <V0> ^a2 9000000000000000000.0) \
        (C1 ^a0 <V1> ^a1 <= 10000000000000000000.0) --> (modify 1 ^a0 <V0>) (remove 1))";
    check(&Case::named(src, &["+1 2 9223372036854775807"]));
}

/// Grammar seed 146 (`Bias::Any`) loads duplicate WMEs. A 3-worker run
/// of its trace, recorded to a ring, and the serial replay of the ring's
/// `Firing` keys on a fresh sequential executor must reach the same WM,
/// five times on each engine. Replay keys name contents: it follows the
/// run because refraction, exact by id, keeps a copy that fired from
/// being taken again.
#[test]
fn conc_replay_of_duplicate_wmes_follows_the_run() {
    let case = Case::generate(146, Bias::Any);
    let rules = ops5::compile(&case.src).unwrap();
    let changes: Vec<WmChange> = case.ops.iter().flat_map(Op::changes).collect();
    let loaded = |kind| {
        let pdb = ProductionDb::new(rules.clone()).unwrap();
        let mut engine = make_engine(kind, pdb.clone());
        engine.apply_delta(&changes);
        (engine, pdb)
    };
    let run = |kind| {
        let (engine, pdb) = loaded(kind);
        let tracer = obs::Tracer::new(obs::Sink::ring(1 << 16));
        let mut exec = ConcurrentExecutor::new(engine, 3);
        exec.set_tracer(tracer.clone());
        exec.run(case.cycles);
        let mut fired: Vec<(u64, String, String)> = (tracer.ring_events().unwrap().into_iter())
            .filter_map(|event| match event {
                obs::Event::Firing {
                    seq,
                    rule_name,
                    wmes,
                    ..
                } => Some((seq, rule_name, wmes)),
                _ => None,
            })
            .collect();
        fired.sort();
        let keys: Vec<(String, String)> = fired.into_iter().map(|(_, r, w)| (r, w)).collect();
        (keys, wm_all(&pdb))
    };
    let mut agreed = Vec::new();
    for kind in EngineKind::ALL {
        for _ in 0..5 {
            let (keys, wm) = run(kind);
            assert!(!keys.is_empty(), "{} fires", kind.label());
            let (engine, pdb) = loaded(kind);
            let replayed = SequentialExecutor::new(engine, Strategy::Canonical).replay(&keys);
            agreed.push((kind.label(), replayed.map(drop), wm_all(&pdb) == wm));
        }
    }
    let diverged: Vec<_> = (agreed.iter())
        .filter(|pair| !matches!(pair, (_, Ok(()), true)))
        .collect();
    assert!(
        diverged.is_empty(),
        "{} of 25 pairs diverged: {diverged:?}",
        diverged.len()
    );
}

/// Soak of both axes over the grammar: `ITERS` generated cases per bias
/// from seed `SEED` on. Run it after touching the §5 executor,
/// refraction, locking or recovery:
///
/// ```sh
/// SEED=1000 ITERS=200 cargo test --release --test differential -- --ignored conc_soak
/// ```
#[test]
#[ignore = "soak test; run with --ignored after touching §5 execution or recovery"]
fn conc_soak_generated_cases() {
    let env = |name, default| {
        let value = std::env::var(name).ok().and_then(|s| s.parse().ok());
        value.unwrap_or(default)
    };
    let (seed, iters): (u64, u64) = (env("SEED", 1000), env("ITERS", 100));
    let biases = [Bias::Any, Bias::Negation, Bias::DeleteHeavy, Bias::Bounces];
    for seed in seed..seed + iters {
        biases
            .iter()
            .for_each(|&bias| drop(check(&Case::generate(seed, bias))));
    }
}
