//! Direct layer replays of the traced run: the same work a workload gave
//! one layer, issued straight at that layer's public functions, so the
//! layer has a number of its own that does not depend on its callers.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ops5::RuleSet;
use prodsys::ProductionDb;
use relstore::{Database, RelId, Restriction, Schema, Selection, Wal, WalRecord};

use crate::workloads::Change;

/// Pool frames of the paged replays: small enough that a replayed change
/// list of any workload overflows it.
pub const REPLAY_POOL_PAGES: usize = 64;

/// Records and round trips each latency replay issues.
const REPLAY_OPS: usize = 1000;

fn database(paged: Option<&Path>) -> Database {
    match paged {
        Some(dir) => Database::new_paged(dir, REPLAY_POOL_PAGES).expect("paged database"),
        None => Database::new(),
    }
}

/// `relstore::relation`/`index`: the change list through
/// `ProductionDb::{insert_wm, remove_wm_equal}` on a fresh database, no
/// engine attached. Microseconds per change.
pub fn store_write_us(rules: &RuleSet, changes: &[Change], paged: Option<&Path>) -> f64 {
    let pdb = ProductionDb::with_db(Arc::new(database(paged)), rules.clone()).expect("relations");
    let t = Instant::now();
    for (insert, class, tuple) in changes {
        if *insert {
            pdb.insert_wm(*class, tuple.clone()).expect("insert");
        } else {
            pdb.remove_wm_equal(*class, tuple).expect("remove");
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / changes.len() as f64
}

/// `relstore::wal`: `Wal::append` + `Wal::sync` of the run's own records,
/// one fsync each. Nanoseconds per record.
pub fn wal_sync_ns(changes: &[Change], dir: &Path) -> Vec<u64> {
    let wal = Wal::create(&dir.join("replay.log")).expect("replay log");
    changes
        .iter()
        .take(REPLAY_OPS)
        .map(|(insert, class, tuple)| {
            let (rel, tuple) = (RelId(class.0 as u32), tuple.clone());
            let rec = if *insert {
                WalRecord::Insert { rel, tuple }
            } else {
                WalRecord::Delete { rel, tuple }
            };
            let t = Instant::now();
            wal.append(&rec).expect("append");
            wal.sync().expect("sync");
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

/// `relstore::txn`: uncontended begin → select → delete → commit on one
/// thread. Median microseconds per round trip.
pub fn txn_roundtrip_us(paged: Option<&Path>) -> f64 {
    let db = database(paged);
    let rel = db
        .create_relation(Schema::new("T", ["k", "v"]))
        .expect("relation");
    db.create_hash_index(rel, 0).expect("index");
    for k in 0..REPLAY_OPS as i64 {
        db.insert(rel, relstore::tuple![k, k]).expect("insert");
    }
    db.sync_wal().expect("sync");
    let mut lat: Vec<f64> = (0..REPLAY_OPS as i64)
        .map(|k| {
            let t = Instant::now();
            let mut txn = db.begin();
            let rows = txn
                .select(rel, &Restriction::new(vec![Selection::eq(0, k)]))
                .expect("select");
            txn.delete(rel, rows[0].0).expect("delete");
            txn.commit().expect("commit");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::report::median(&mut lat)
}
