//! The database: a catalog of relations plus shared services (statistics,
//! the one 2PL lock table, transaction ids).
//!
//! Physical access uses per-relation reader/writer latches; *logical*
//! isolation is the transaction layer's job ([`crate::txn`]). Matching
//! engines that run single-threaded read through [`Database::read`] and
//! change working memory through [`Database::insert`] /
//! [`Database::delete_equal`]; the concurrent executor goes through
//! [`Database::begin`]. Every mutation reachable from outside the crate
//! is one of these methods, so none can bypass the log.
//!
//! Durability comes in two forms, fixed at construction.
//! [`Database::new`] is an in-memory store without a log, persisted by
//! [`crate::snapshot::save`] / [`crate::snapshot::load`].
//! [`Database::new_paged`] keeps tuples on heap pages and logs committed
//! changes to `wal.log`: a write outside a transaction as a frame of its
//! own once it has succeeded, under the relation's latch; a
//! transaction's writes as one frame at commit ([`crate::wal`]).
//! [`Database::checkpoint`] writes `checkpoint.snap` and shortens the
//! log, and [`Database::open_paged`] — the one recovery path — loads the
//! checkpoint and replays the log past it. The page file is swap: nothing
//! reads it at recovery.
//!
//! A write outside a transaction takes no lock, so it must not touch a
//! row an open transaction wrote: that transaction's records reach the
//! log only at its commit, after the outside write's.
//!
//! A *derived* relation ([`Database::create_derived_relation`]) holds
//! state its owner rebuilds from the other relations, such as DB-Rete's
//! token memories. It is never logged, snapshots leave it out, and
//! recovery does not bring it back.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, RwLock};

use crate::analyze::AnalyzeRegistry;
use crate::error::{Error, Result};
use crate::pool::BufferPool;
use crate::pred::Restriction;
use crate::relation::Relation;
use crate::schema::{RelId, Schema};
use crate::stats::Stats;
use crate::tuple::{Tuple, TupleId};
use crate::txn::{LockManager, Txn, TxnId};
use crate::wal::{sync_dir, TornTail, Wal, WalRecord};

/// Paged-mode state: the storage directory and the buffer pool every
/// relation of this database draws pages from.
#[derive(Debug)]
struct PagedMeta {
    dir: PathBuf,
    pool: Arc<BufferPool>,
}

/// What [`Database::open_paged`] found on disk and did about it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// Logical WAL records replayed on top of the checkpoint.
    pub records_replayed: usize,
    /// WAL records skipped because the checkpoint snapshot already
    /// contained them (`lsn <=` the snapshot's watermark). Non-zero
    /// means a checkpoint crashed between publishing its snapshot and
    /// truncating the log; recovery finishes the truncation.
    pub records_skipped: usize,
    /// A torn tail found (and truncated) in the log file, if any.
    pub torn: Option<TornTail>,
    /// Whether a checkpoint snapshot was present and loaded.
    pub snapshot_loaded: bool,
}

/// Writing transactions against images ([`Database::with_quiesced`]): a
/// transaction enters at its first write and leaves at commit or abort,
/// and an image waits until none is inside and keeps new ones out while
/// it is taken, so it never holds an open transaction's work. A writer
/// never waits behind a *waiting* image: it may hold 2PL locks that a
/// transaction inside is waiting for, a cycle the lock manager cannot
/// see.
pub(crate) struct Gate {
    /// `Some(n)`: open, with `n` writing transactions inside. `None`:
    /// closed by an image being taken.
    writers: Mutex<Option<usize>>,
    changed: Condvar,
}

impl Gate {
    /// Enter as a writing transaction; waits only while an image is
    /// being taken.
    pub(crate) fn enter(&self) -> GatePass<'_> {
        let mut g = self.writers.lock();
        while g.is_none() {
            self.changed.wait(&mut g);
        }
        *g = g.map(|n| n + 1);
        GatePass(self)
    }

    /// Close the gate once no writing transaction is inside; it reopens
    /// when the returned guard drops.
    fn close(&self) -> GateClosed<'_> {
        let mut g = self.writers.lock();
        while *g != Some(0) {
            self.changed.wait(&mut g);
        }
        *g = None;
        GateClosed(self)
    }
}

/// A writing transaction's place inside the [`Gate`]; leaves on drop.
pub(crate) struct GatePass<'db>(&'db Gate);

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        let mut g = self.0.writers.lock();
        *g = g.map(|n| n - 1);
        self.0.changed.notify_all();
    }
}

/// The [`Gate`] held closed by an image; reopens on drop.
struct GateClosed<'a>(&'a Gate);

impl Drop for GateClosed<'_> {
    fn drop(&mut self) {
        *self.0.writers.lock() = Some(0);
        self.0.changed.notify_all();
    }
}

/// A shared, thread-safe database.
pub struct Database {
    relations: RwLock<Vec<Arc<RwLock<Relation>>>>,
    names: RwLock<HashMap<String, RelId>>,
    stats: Stats,
    locks: LockManager,
    /// The next transaction id [`Database::begin`] hands out. Ids start
    /// at 1: trace events use txn 0 for work outside any transaction
    /// (the sequential executor's firings).
    next_txn: AtomicU64,
    analyze: AnalyzeRegistry,
    /// The log committed changes are appended to: `Some` exactly for a
    /// paged database, set at construction (after replay, for a recovered
    /// one).
    pub(crate) wal: Option<Arc<Wal>>,
    /// Keeps images out while writing transactions are open.
    pub(crate) gate: Gate,
    paged: Option<PagedMeta>,
    /// Fault-injection countdown armed by [`Database::inject_fault_after`];
    /// negative = disarmed. Transactional operations tick it down and the
    /// one that reaches zero fails with [`Error::Injected`].
    fault_after: AtomicI64,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Create a new, empty in-memory instance.
    pub fn new() -> Self {
        let stats = Stats::new();
        Database {
            relations: RwLock::new(Vec::new()),
            names: RwLock::new(HashMap::new()),
            locks: LockManager::new(stats.clone()),
            next_txn: AtomicU64::new(1),
            analyze: AnalyzeRegistry::new(),
            stats,
            wal: None,
            gate: Gate {
                writers: Mutex::new(Some(0)),
                changed: Condvar::new(),
            },
            paged: None,
            fault_after: AtomicI64::new(-1),
        }
    }

    /// Create a paged database rooted at directory `path`: tuple storage
    /// on heap pages in `data.pages` behind a `pool_pages`-frame buffer
    /// pool, with a file-backed WAL (`wal.log`) attached from the start.
    /// Any prior state in the directory is discarded; use
    /// [`Database::open_paged`] to recover instead.
    pub fn new_paged(path: impl AsRef<Path>, pool_pages: usize) -> Result<Database> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal = Wal::create(&dir.join("wal.log"))?;
        // Remove any stale checkpoint so a later open_paged can't resurrect
        // state this fresh database never held.
        let _ = std::fs::remove_file(dir.join("checkpoint.snap"));
        let (mut db, wal) = Database::paged_at(dir, pool_pages, wal)?;
        db.wal = Some(wal);
        Ok(db)
    }

    /// A paged database over a fresh page file in `dir`, not yet logging
    /// to `wal`. The log counts its syncs in the database's [`Stats`] and
    /// is returned for the caller to attach.
    fn paged_at(dir: PathBuf, pool_pages: usize, wal: Wal) -> Result<(Database, Arc<Wal>)> {
        let mut db = Database::new();
        let wal = Arc::new(wal.with_stats(db.stats.clone()));
        let pool = Arc::new(BufferPool::create(
            &dir.join("data.pages"),
            pool_pages,
            db.stats.clone(),
        )?);
        db.paged = Some(PagedMeta { dir, pool });
        Ok((db, wal))
    }

    /// Recover a paged database from directory `path`: load the
    /// checkpoint snapshot if present, replay the WAL's valid prefix
    /// (truncating any torn tail), and resume logging where the LSN
    /// sequence left off. The page file is rebuilt during replay — pages
    /// are a runtime overflow medium, the checkpoint + WAL are the
    /// durable source of truth.
    pub fn open_paged(
        path: impl AsRef<Path>,
        pool_pages: usize,
    ) -> Result<(Database, RecoveryReport)> {
        let dir = path.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (wal, records, torn) = Wal::open(&dir.join("wal.log"))?;
        let (mut db, wal) = Database::paged_at(dir.clone(), pool_pages, wal)?;
        // A checkpoint that crashed before its rename leaves a stale tmp.
        let _ = std::fs::remove_file(dir.join("checkpoint.tmp"));
        let snap_path = dir.join("checkpoint.snap");
        let snapshot_loaded = snap_path.exists();
        let mut watermark = 0u64;
        if snapshot_loaded {
            let bytes = std::fs::read(&snap_path)?;
            watermark = crate::snapshot::load_into(bytes.into(), &db)?;
        }
        // Replay before the WAL is attached so replayed operations are
        // not re-logged; LSNs continue from the recovered position.
        // Records at or below the snapshot's watermark are already in the
        // restored state — a checkpoint that crashed after renaming its
        // snapshot but before truncating the log leaves exactly such a
        // prefix behind, and replaying it would double every change.
        let mut records_replayed = 0;
        let mut records_skipped = 0;
        for (lsn, rec) in records {
            if lsn <= watermark {
                records_skipped += 1;
                continue;
            }
            crate::wal::apply_record(&db, rec)?;
            records_replayed += 1;
        }
        // New records must outrank the snapshot's watermark even if the
        // log file was empty (fresh LSN sequence).
        wal.bump_lsn(watermark);
        if records_skipped > 0 {
            // Finish the interrupted checkpoint: drop the already-
            // snapshotted prefix so the next crash doesn't re-skip it.
            wal.truncate_through(watermark)?;
        }
        db.wal = Some(wal);
        Ok((
            db,
            RecoveryReport {
                records_replayed,
                records_skipped,
                torn,
                snapshot_loaded,
            },
        ))
    }

    /// True when tuple storage lives on heap pages.
    pub fn is_paged(&self) -> bool {
        self.paged.is_some()
    }

    /// Checkpoint a paged database: take a quiesced snapshot (no writing
    /// transaction open and every relation latched, so the image holds
    /// committed work only and no writer straddles the cut), write it
    /// atomically (tmp + fsync + rename + directory fsync) and drop the
    /// log prefix the snapshot covers. The snapshot embeds the WAL
    /// watermark of its cut, so a crash *anywhere* in this sequence
    /// recovers exactly the committed state: before the rename, the old
    /// snapshot + full log; after it, the new snapshot with replay
    /// skipping records the image already contains. The log is shortened
    /// only once the rename is durable, and the rewrite clears a log
    /// poisoned by an earlier failed sync. Pages are not flushed: the page
    /// file is swap.
    ///
    /// Waits for every open writing transaction to finish, so a thread
    /// must not call it while its own transaction has written.
    pub fn checkpoint(&self) -> Result<()> {
        let paged = self
            .paged
            .as_ref()
            .ok_or_else(|| Error::Io("checkpoint requires a paged database".into()))?;
        let (bytes, watermark) = crate::snapshot::save_with_watermark(self)?;
        let tmp = paged.dir.join("checkpoint.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        let snap = paged.dir.join("checkpoint.snap");
        std::fs::rename(&tmp, &snap)?;
        sync_dir(&snap)?;
        if let Some(wal) = &self.wal {
            // Keep the suffix: records committed while the snapshot was
            // being written to disk are not in the image.
            wal.truncate_through(watermark)?;
        }
        Ok(())
    }

    /// Run `f` with the whole database quiesced: no writing transaction
    /// open ([`Gate`]), the catalog and every relation write-latched (in
    /// id order, so this cannot deadlock with writers, which hold at most
    /// one relation latch), plus the WAL's last LSN at that point. While
    /// `f` runs no relation can be created and no tuple can change, and
    /// every logged change is in the log under the latch that made it, so
    /// the LSN is an exact cut: everything at or below it is visible to
    /// `f`, nothing above it is.
    pub(crate) fn with_quiesced<R>(&self, f: impl FnOnce(&[&Relation], u64) -> R) -> R {
        let _closed = self.gate.close();
        let _names = self.names.read();
        let rels = self.relations.read();
        let guards: Vec<_> = rels.iter().map(|r| r.write()).collect();
        let watermark = self.wal.as_ref().map_or(0, |w| w.last_lsn());
        let refs: Vec<&Relation> = guards.iter().map(|g| &**g).collect();
        f(&refs, watermark)
    }

    /// Make the WAL durable through its latest record (write + fsync,
    /// counted as `wal_syncs`): the durability point of writes outside a
    /// transaction. A no-op without a WAL or when every record is already
    /// durable.
    pub fn sync_wal(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Arm a one-shot injected fault: the `ops`-th subsequent
    /// transactional operation (`0` = the very next one) fails with
    /// [`Error::Injected`] instead of running, then the knob disarms
    /// itself. Testing hook for the §5 error-abort path — engine-level
    /// maintenance reads/writes never tick the countdown.
    pub fn inject_fault_after(&self, ops: u64) {
        self.fault_after.store(ops as i64, Ordering::SeqCst);
    }

    /// Consume one fault-countdown tick (no-op while disarmed).
    pub(crate) fn check_fault(&self) -> Result<()> {
        if self.fault_after.load(Ordering::SeqCst) < 0 {
            return Ok(());
        }
        let prev = self.fault_after.fetch_sub(1, Ordering::SeqCst);
        match prev.cmp(&0) {
            std::cmp::Ordering::Equal => Err(Error::Injected("storage fault")),
            std::cmp::Ordering::Less => {
                // Another thread raced past zero between the load and the
                // decrement; restore the disarmed state.
                self.fault_after.store(-1, Ordering::SeqCst);
                Ok(())
            }
            std::cmp::Ordering::Greater => Ok(()),
        }
    }

    /// True when changes to `r` are logged: the database has a log and
    /// `r` is not derived.
    pub(crate) fn logs(&self, r: &Relation) -> bool {
        self.wal.is_some() && !r.derived
    }

    /// Append `rec`, a change just made to `r` under its write latch, to
    /// the log as a frame of its own, unless nothing logs `r`.
    fn log(&self, r: &Relation, rec: WalRecord) -> Result<()> {
        match &self.wal {
            Some(wal) if self.logs(r) => wal.append(&rec).map(drop),
            _ => Ok(()),
        }
    }

    /// Create a hash index, logged to the WAL.
    pub fn create_hash_index(&self, rid: RelId, attr: usize) -> Result<()> {
        self.write(rid, |r| {
            r.create_hash_index(attr)?;
            self.log(r, WalRecord::CreateHashIndex { rel: rid, attr })
        })?
    }

    /// Create an ordered index, logged to the WAL.
    pub fn create_ord_index(&self, rid: RelId, attr: usize) -> Result<()> {
        self.write(rid, |r| {
            r.create_ord_index(attr)?;
            self.log(r, WalRecord::CreateOrdIndex { rel: rid, attr })
        })?
    }

    /// Shared operation counters for the whole database.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Observed selectivities maintained by the query executor
    /// (ANALYZE-style statistics, [`mod@crate::analyze`]).
    pub fn analyze_registry(&self) -> &AnalyzeRegistry {
        &self.analyze
    }

    /// The 2PL lock manager shared by all transactions.
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// Begin a transaction (strict 2PL).
    pub fn begin(&self) -> Txn<'_> {
        let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
        Txn::new(self, id)
    }

    /// Create a relation; names must be unique. In a logged database it
    /// must precede every derived relation.
    pub fn create_relation(&self, schema: Schema) -> Result<RelId> {
        self.add_relation(schema, false)
    }

    /// Create a derived relation: one whose rows its owner rebuilds from
    /// the other relations. Neither it nor its rows and indexes are
    /// logged or snapshotted, so a recovered database does not have it.
    pub fn create_derived_relation(&self, schema: Schema) -> Result<RelId> {
        self.add_relation(schema, true)
    }

    fn add_relation(&self, schema: Schema, derived: bool) -> Result<RelId> {
        let mut names = self.names.write();
        if names.contains_key(schema.name()) {
            return Err(Error::DuplicateRelation(schema.name().to_string()));
        }
        let mut rels = self.relations.write();
        if let (Some(wal), false) = (&self.wal, derived) {
            // Replay skips derived relations, so a logged relation after
            // one would come back under another id.
            if rels.last().is_some_and(|r| r.read().derived) {
                return Err(Error::LoggedAfterDerived(schema.name().to_string()));
            }
            wal.append(&WalRecord::CreateRelation {
                name: schema.name().to_string(),
                attrs: schema.attrs().iter().map(|a| a.name.to_string()).collect(),
            })?;
        }
        let rid = RelId(rels.len() as u32);
        names.insert(schema.name().to_string(), rid);
        let mut relation = match &self.paged {
            Some(paged) => Relation::new_paged(rid, schema, self.stats.clone(), paged.pool.clone()),
            None => Relation::new(rid, schema, self.stats.clone()),
        };
        relation.derived = derived;
        rels.push(Arc::new(RwLock::new(relation)));
        Ok(rid)
    }

    /// Resolve a relation name.
    pub fn rel_id(&self, name: &str) -> Result<RelId> {
        self.names
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// All relation names with their ids, in id order.
    pub fn relation_names(&self) -> Vec<(RelId, String)> {
        let rels = self.relations.read();
        rels.iter()
            .map(|r| {
                let r = r.read();
                (r.id(), r.name().to_string())
            })
            .collect()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.read().len()
    }

    fn rel(&self, rid: RelId) -> Result<Arc<RwLock<Relation>>> {
        self.relations
            .read()
            .get(rid.index())
            .cloned()
            .ok_or(Error::BadRelId(rid))
    }

    /// Run a closure with shared access to a relation.
    pub fn read<R>(&self, rid: RelId, f: impl FnOnce(&Relation) -> R) -> Result<R> {
        let rel = self.rel(rid)?;
        let guard = rel.read();
        Ok(f(&guard))
    }

    /// Run a closure with exclusive access to a relation. Crate-private:
    /// every change from outside goes through a logging method.
    pub(crate) fn write<R>(&self, rid: RelId, f: impl FnOnce(&mut Relation) -> R) -> Result<R> {
        let rel = self.rel(rid)?;
        let mut guard = rel.write();
        Ok(f(&mut guard))
    }

    /// Schema of a relation (cloned).
    pub fn schema(&self, rid: RelId) -> Result<Schema> {
        self.read(rid, |r| r.schema().clone())
    }

    /// Insert a tuple directly (no logical locking). Once the insert has
    /// succeeded its record is appended as a frame of its own, under the
    /// relation's write latch; a failed insert logs nothing.
    pub fn insert(&self, rid: RelId, tuple: Tuple) -> Result<TupleId> {
        self.write(rid, |r| {
            let tid = r.insert(tuple.clone())?;
            self.log(r, WalRecord::Insert { rel: rid, tuple })?;
            Ok(tid)
        })?
    }

    /// Delete a tuple directly (no logical locking), logged like
    /// [`Database::insert`].
    pub fn delete(&self, rid: RelId, tid: TupleId) -> Result<Tuple> {
        self.write(rid, |r| self.delete_in(r, tid))?
    }

    /// Delete the first tuple equal to `tuple` (OPS5 `remove` semantics).
    /// Returns the deleted tuple's id, or `None` when absent.
    pub fn delete_equal(&self, rid: RelId, tuple: &Tuple) -> Result<Option<TupleId>> {
        self.write(rid, |r| match r.find_equal(tuple)? {
            Some(tid) => self.delete_in(r, tid).map(|_| Some(tid)),
            None => Ok(None),
        })?
    }

    /// Delete `tid` from `r`, under its write latch, and log it.
    fn delete_in(&self, r: &mut Relation, tid: TupleId) -> Result<Tuple> {
        let tuple = r.delete(tid)?;
        let (rel, gone) = (r.id(), tuple.clone());
        self.log(r, WalRecord::Delete { rel, tuple: gone })?;
        Ok(tuple)
    }

    /// Fetch a tuple by id (owned).
    pub fn get(&self, rid: RelId, tid: TupleId) -> Result<Tuple> {
        self.read(rid, |r| r.get(tid))?
    }

    /// Live tuple count of a relation; 0 when the id is invalid (planner
    /// convenience).
    pub fn relation_len(&self, rid: RelId) -> usize {
        self.read(rid, |r| r.len()).unwrap_or(0)
    }

    /// Select on one relation.
    pub fn select(&self, rid: RelId, restriction: &Restriction) -> Result<Vec<(TupleId, Tuple)>> {
        self.read(rid, |r| r.select(restriction))?
    }

    /// Total approximate bytes across all relations (space experiments).
    pub fn total_bytes(&self) -> usize {
        let rels = self.relations.read();
        rels.iter()
            .map(|r| r.read().approx_bytes().unwrap_or(0))
            .sum()
    }

    /// Total live tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        let rels = self.relations.read();
        rels.iter().map(|r| r.read().len()).sum()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("relations", &self.relation_count())
            .field("tuples", &self.total_tuples())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn catalog_roundtrip() {
        let db = Database::new();
        let emp = db
            .create_relation(Schema::new("Emp", ["name", "age"]))
            .unwrap();
        let dept = db.create_relation(Schema::new("Dept", ["dno"])).unwrap();
        assert_eq!(db.rel_id("Emp").unwrap(), emp);
        assert_eq!(db.rel_id("Dept").unwrap(), dept);
        assert!(db.rel_id("Nope").is_err());
        assert!(matches!(
            db.create_relation(Schema::new("Emp", ["x"])),
            Err(Error::DuplicateRelation(_))
        ));
        assert_eq!(db.relation_count(), 2);
        assert_eq!(db.relation_names()[1].1, "Dept");
    }

    #[test]
    fn insert_get_delete_through_db() {
        let db = Database::new();
        let rid = db.create_relation(Schema::new("R", ["a"])).unwrap();
        let tid = db.insert(rid, tuple![1]).unwrap();
        assert_eq!(db.get(rid, tid).unwrap(), tuple![1]);
        assert_eq!(db.relation_len(rid), 1);
        db.delete(rid, tid).unwrap();
        assert_eq!(db.relation_len(rid), 0);
        assert!(db.get(rid, tid).is_err());
    }

    #[test]
    fn delete_equal_by_content() {
        let db = Database::new();
        let rid = db.create_relation(Schema::new("R", ["a", "b"])).unwrap();
        db.insert(rid, tuple![1, 2]).unwrap();
        assert!(db.delete_equal(rid, &tuple![1, 2]).unwrap().is_some());
        assert!(db.delete_equal(rid, &tuple![1, 2]).unwrap().is_none());
    }

    #[test]
    fn bad_rel_id() {
        let db = Database::new();
        assert!(matches!(
            db.insert(RelId(9), tuple![1]),
            Err(Error::BadRelId(_))
        ));
        assert_eq!(db.relation_len(RelId(9)), 0);
    }

    /// A derived relation works like any other, but leaves no trace in
    /// the log or a snapshot, and a logged relation may not follow it.
    #[test]
    fn derived_relations_are_neither_logged_nor_snapshotted() {
        let dir = std::env::temp_dir().join(format!("relstore-derived-{}", std::process::id()));
        let db = Database::new_paged(&dir, 4).unwrap();
        let wm = db.create_relation(Schema::new("WM", ["a"])).unwrap();
        let tokens = db
            .create_derived_relation(Schema::new("__tokens", ["a"]))
            .unwrap();
        db.create_hash_index(tokens, 0).unwrap();
        let tid = db.insert(tokens, tuple![1]).unwrap();
        db.insert(tokens, tuple![2]).unwrap();
        db.delete(tokens, tid).unwrap();
        assert_eq!(db.relation_len(tokens), 1);
        assert_eq!(db.wal.as_ref().unwrap().last_lsn(), 1, "only WM's creation");
        assert!(matches!(
            db.create_relation(Schema::new("Late", ["a"])),
            Err(Error::LoggedAfterDerived(_))
        ));
        db.insert(wm, tuple![3]).unwrap();
        db.checkpoint().unwrap();
        let (back, _) = Database::open_paged(&dir, 4).unwrap();
        assert_eq!(back.relation_names(), vec![(wm, "WM".to_string())]);
        assert_eq!(back.relation_len(wm), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checkpoint waits for an open writing transaction, but a writer
    /// that arrives while the checkpoint waits goes ahead of it.
    #[test]
    fn a_writer_never_waits_behind_a_waiting_checkpoint() {
        let dir = std::env::temp_dir().join(format!("relstore-gate-{}", std::process::id()));
        let db = Database::new_paged(&dir, 4).unwrap();
        let a = db.create_relation(Schema::new("A", ["a"])).unwrap();
        let b = db.create_relation(Schema::new("B", ["b"])).unwrap();
        let mut first = db.begin();
        first.insert(a, tuple![1]).unwrap();
        std::thread::scope(|s| {
            let checkpoint = s.spawn(|| db.checkpoint().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(20));
            let mut second = db.begin();
            second.insert(b, tuple![2]).unwrap();
            second.commit().unwrap();
            assert!(!checkpoint.is_finished(), "waits for the first writer");
            first.commit().unwrap();
            checkpoint.join().unwrap();
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_inserts_to_distinct_relations() {
        let db = Database::new();
        let a = db.create_relation(Schema::new("A", ["x"])).unwrap();
        let b = db.create_relation(Schema::new("B", ["x"])).unwrap();
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                for i in 0..500i64 {
                    db.insert(a, tuple![i]).unwrap();
                }
            });
            s.spawn(move || {
                for i in 0..500i64 {
                    db.insert(b, tuple![i]).unwrap();
                }
            });
        });
        assert_eq!(db.total_tuples(), 1000);
    }
}
