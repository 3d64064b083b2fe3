//! Transactions: strict two-phase locking over the database.
//!
//! §5 of the paper treats each conflict-set instantiation as a transaction.
//! The locking discipline implemented here follows §5.2 exactly:
//!
//! * reading specific WM tuples takes **shared tuple locks**
//!   ([`Txn::get`]); a predicate read ([`Txn::select`]) takes a **shared
//!   relation lock**, like a negated condition;
//! * deleting/updating takes **exclusive tuple locks** (only on tuples the
//!   LHS tested positively — OPS5 only deletes what it matched);
//! * inserting takes an **exclusive relation lock** (so transactions that
//!   are negatively dependent on the relation are delayed);
//! * verifying a negated condition takes a **shared relation lock**
//!   (the paper's "read lock on the entire relation R_i");
//! * locks are held until after the *maintenance process* completes — the
//!   commit point — and released all at once (strict 2PL).
//!
//! Writes apply in place at once; on a logged database their redo
//! records are buffered in the transaction. Commit appends them as one
//! WAL frame and waits for it to be durable; abort undoes the writes in
//! memory and logs nothing, so the log holds committed work only. From
//! its first write until it ends, a transaction keeps checkpoints and
//! snapshots out ([`Database::checkpoint`]), so no image holds its
//! uncommitted work.

mod locks;

pub use locks::{LockManager, LockMode, LockTarget};

use std::fmt;

use crate::database::{Database, GatePass};
use crate::error::{Error, Result};
use crate::pred::Restriction;
use crate::relation::Relation;
use crate::schema::RelId;
use crate::tuple::{Tuple, TupleId};
use crate::wal::WalRecord;

/// Transaction identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// One undoable physical action, applied last-in-first-out on abort.
#[derive(Debug)]
enum Undo {
    /// The transaction inserted `tid` into `rel`; undo by deleting it.
    Insert { rel: RelId, tid: TupleId },
    /// The transaction deleted `tuple`, `tid`, from `rel`; undo by
    /// putting it back under `tid`. Engines key match state by tuple id
    /// and an abort runs no maintenance, so the row must keep its id. No
    /// peer can take the freed slot first: inserting needs the relation
    /// lock, which conflicts with this transaction's tuple lock.
    Delete {
        rel: RelId,
        tid: TupleId,
        tuple: Tuple,
    },
}

/// A live transaction. Dropped without [`Txn::commit`] → automatic abort.
pub struct Txn<'db> {
    db: &'db Database,
    id: TxnId,
    undo: Vec<Undo>,
    /// Redo records of the writes so far: the commit's WAL frame (empty
    /// without a log).
    redo: Vec<WalRecord>,
    /// Held from the first write to commit or abort.
    writing: Option<GatePass<'db>>,
    finished: bool,
}

impl<'db> Txn<'db> {
    pub(crate) fn new(db: &'db Database, id: TxnId) -> Self {
        Txn {
            db,
            id,
            undo: Vec::new(),
            redo: Vec::new(),
            writing: None,
            finished: false,
        }
    }

    /// This item's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    fn check_live(&self) -> Result<()> {
        if self.finished {
            return Err(Error::TxnFinished(self.id));
        }
        Ok(())
    }

    /// Acquire a lock explicitly (engines lock COND relations this way).
    pub fn lock(&self, target: LockTarget, mode: LockMode) -> Result<()> {
        self.check_live()?;
        self.db.lock_manager().acquire(self.id, target, mode)
    }

    /// Select under a shared relation lock. A restriction is a predicate,
    /// and §5.2's lock for a predicate read is the read lock on the whole
    /// relation (as in [`Txn::verify_absent`]): while it is held no other
    /// transaction has an uncommitted change in the relation or can make
    /// one, so the rows are a committed state and stay so until commit.
    pub fn select(&self, rel: RelId, restriction: &Restriction) -> Result<Vec<(TupleId, Tuple)>> {
        self.check_live()?;
        self.db.check_fault()?;
        self.db
            .lock_manager()
            .acquire(self.id, LockTarget::Relation(rel), LockMode::Shared)?;
        self.db.read(rel, |r| r.select(restriction))?
    }

    /// Tuple `tid` under a shared tuple lock: `None` when it is not live
    /// at its generation (another transaction deleted it first). The §5
    /// executor's step-1 re-selection of a tuple an instantiation matched.
    pub fn get(&self, rel: RelId, tid: TupleId) -> Result<Option<Tuple>> {
        self.check_live()?;
        self.db.check_fault()?;
        self.db
            .lock_manager()
            .acquire(self.id, LockTarget::Tuple(rel, tid), LockMode::Shared)?;
        self.db.read(rel, |r| match r.contains(tid) {
            true => r.get(tid).map(Some),
            false => Ok(None),
        })?
    }

    /// Shared lock on a whole relation, then verify no tuple matches —
    /// the NOT EXISTS discipline for negative dependence (§5.2).
    pub fn verify_absent(&self, rel: RelId, restriction: &Restriction) -> Result<bool> {
        self.check_live()?;
        self.db.check_fault()?;
        self.db
            .lock_manager()
            .acquire(self.id, LockTarget::Relation(rel), LockMode::Shared)?;
        Ok(self
            .db
            .read(rel, |r| r.select_ids(restriction))??
            .is_empty())
    }

    /// Insert a tuple. Takes an exclusive relation lock (the paper: an
    /// inserting transaction "will always need a write lock on R_i").
    pub fn insert(&mut self, rel: RelId, tuple: Tuple) -> Result<TupleId> {
        self.check_live()?;
        self.db.check_fault()?;
        self.db
            .lock_manager()
            .acquire(self.id, LockTarget::Relation(rel), LockMode::Exclusive)?;
        let (tid, logged) = self.write(rel, |r| r.insert(tuple.clone()))?;
        self.undo.push(Undo::Insert { rel, tid });
        if logged {
            self.redo.push(WalRecord::Insert { rel, tuple });
        }
        Ok(tid)
    }

    /// Enter the checkpoint gate (at the first write), then run `change`
    /// on `rel` under its write latch. Also says whether `rel` is logged.
    fn write<T>(
        &mut self,
        rel: RelId,
        change: impl FnOnce(&mut Relation) -> Result<T>,
    ) -> Result<(T, bool)> {
        self.writing.get_or_insert_with(|| self.db.gate.enter());
        let db = self.db;
        db.write(rel, |r| Ok((change(r)?, db.logs(r))))?
    }

    /// Delete a tuple by id under an exclusive tuple lock.
    ///
    /// Returns `Ok(None)` when the tuple vanished before the lock was
    /// granted (another transaction deleted it first) — §5.2: "T_j will not
    /// be able to process tuples of R_i that have already been deleted by
    /// T_i so the database will still be consistent."
    pub fn delete(&mut self, rel: RelId, tid: TupleId) -> Result<Option<Tuple>> {
        self.check_live()?;
        self.db.check_fault()?;
        self.db.lock_manager().acquire(
            self.id,
            LockTarget::Tuple(rel, tid),
            LockMode::Exclusive,
        )?;
        if !self.db.read(rel, |r| r.contains(tid))? {
            return Ok(None);
        }
        let (tuple, logged) = self.write(rel, |r| r.delete(tid))?;
        // A row this transaction inserted needs no undo once it is gone
        // again.
        let own = |u: &Undo| matches!(u, Undo::Insert { rel: r, tid: t } if (*r, *t) == (rel, tid));
        match self.undo.iter().rposition(own) {
            Some(i) => {
                self.undo.remove(i);
            }
            None => self.undo.push(Undo::Delete {
                rel,
                tid,
                tuple: tuple.clone(),
            }),
        }
        if logged {
            let tuple = tuple.clone();
            self.redo.push(WalRecord::Delete { rel, tuple });
        }
        Ok(Some(tuple))
    }

    /// Commit: append the transaction's redo records to the log as one
    /// frame and wait until it is durable, then release every lock
    /// (strict 2PL — nothing was released earlier) and discard the undo
    /// log. A transaction that wrote nothing logged appends and syncs
    /// nothing. If the WAL write/fsync fails the frame is withdrawn, the
    /// transaction rolls back and the error is returned — a caller that
    /// sees `Ok` knows its records are durable. (An in-memory database
    /// has no log, so its commit cannot fail.)
    pub fn commit(mut self) -> Result<()> {
        let durable = match &self.db.wal {
            Some(wal) if !self.redo.is_empty() => wal.commit(&self.redo),
            _ => Ok(()),
        };
        match durable {
            Ok(()) => self.undo.clear(),
            Err(_) => self.rollback(),
        }
        self.finish();
        durable
    }

    /// Abort: undo all changes newest-first, then release locks.
    pub fn abort(mut self) {
        self.rollback();
        self.finish();
    }

    /// Undo every write in memory, newest first. The log never saw them,
    /// so nothing is logged.
    fn rollback(&mut self) {
        while let Some(undo) = self.undo.pop() {
            // Best effort: the locks taken by the write keep its row as
            // the write left it, so only a page-file I/O error can fail.
            let _ = match undo {
                Undo::Insert { rel, tid } => self.db.write(rel, |r| r.delete(tid).map(drop)),
                Undo::Delete { rel, tid, tuple } => {
                    self.db.write(rel, |r| r.restore(tid, tuple).map(drop))
                }
            };
        }
        self.redo.clear();
        self.db.stats().abort();
    }

    /// Release every lock and leave the checkpoint gate.
    fn finish(&mut self) {
        if !self.finished {
            self.db.lock_manager().release_all(self.id);
            self.writing = None;
            self.finished = true;
        }
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
            self.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Selection;
    use crate::schema::Schema;
    use crate::tuple;

    fn setup() -> (Database, RelId) {
        let db = Database::new();
        let rid = db
            .create_relation(Schema::new("Emp", ["name", "salary"]))
            .unwrap();
        db.insert(rid, tuple!["Mike", 6000]).unwrap();
        db.insert(rid, tuple!["Sam", 5000]).unwrap();
        (db, rid)
    }

    #[test]
    fn commit_keeps_changes() {
        let (db, rid) = setup();
        let mut txn = db.begin();
        txn.insert(rid, tuple!["Jane", 4000]).unwrap();
        txn.commit().unwrap();
        assert_eq!(db.relation_len(rid), 3);
    }

    #[test]
    fn abort_undoes_insert_and_delete() {
        let (db, rid) = setup();
        let mut txn = db.begin();
        txn.insert(rid, tuple!["Jane", 4000]).unwrap();
        let rows = txn
            .select(rid, &Restriction::new(vec![Selection::eq(0, "Mike")]))
            .unwrap();
        txn.delete(rid, rows[0].0).unwrap();
        assert_eq!(db.relation_len(rid), 2);
        txn.abort();
        assert_eq!(db.relation_len(rid), 2);
        let mike = db
            .read(rid, |r| {
                r.select_ids(&Restriction::new(vec![Selection::eq(0, "Mike")]))
            })
            .unwrap()
            .unwrap();
        assert_eq!(mike.len(), 1, "Mike restored on abort");
        let jane = db
            .read(rid, |r| {
                r.select_ids(&Restriction::new(vec![Selection::eq(0, "Jane")]))
            })
            .unwrap()
            .unwrap();
        assert!(jane.is_empty(), "Jane removed on abort");
    }

    #[test]
    fn rollback_is_lifo() {
        // Delete Mike, then insert an equal row into the slot the delete
        // freed. Undone newest-first, that row is deleted before Mike is
        // reinserted, so Mike gets his slot back; oldest-first, Mike would
        // land in a fresh slot.
        let (db, rid) = setup();
        let is_mike = Restriction::new(vec![Selection::eq(0, "Mike")]);
        let mike = db.select(rid, &is_mike).unwrap()[0].0;
        let mut txn = db.begin();
        txn.delete(rid, mike).unwrap();
        txn.insert(rid, tuple!["Mike", 6000]).unwrap();
        assert!(matches!(
            txn.undo[..],
            [Undo::Delete { .. }, Undo::Insert { .. }]
        ));
        txn.abort();
        let rows = db.select(rid, &is_mike).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0.slot, mike.slot);
    }

    /// An aborted delete puts the row back under its own id, in memory
    /// and on pages: match state keyed by that id stays valid.
    #[test]
    fn aborted_delete_keeps_the_tuple_id() {
        let dir = std::env::temp_dir().join(format!("txn-restore-{}", std::process::id()));
        for db in [Database::new(), Database::new_paged(&dir, 2).unwrap()] {
            let rid = db.create_relation(Schema::new("R", ["a"])).unwrap();
            let tid = db.insert(rid, tuple![1]).unwrap();
            db.begin().delete(rid, tid).unwrap();
            assert_eq!(
                db.select(rid, &Restriction::default()).unwrap(),
                [(tid, tuple![1])]
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn abort_of_insert_then_delete_leaves_nothing() {
        let (db, rid) = setup();
        let mut txn = db.begin();
        let jane = txn.insert(rid, tuple!["Jane", 4000]).unwrap();
        txn.delete(rid, jane).unwrap();
        assert!(txn.undo.is_empty());
        txn.abort();
        assert_eq!(db.relation_len(rid), 2);
    }

    #[test]
    fn drop_without_commit_aborts() {
        let (db, rid) = setup();
        {
            let mut txn = db.begin();
            txn.insert(rid, tuple!["Jane", 4000]).unwrap();
        }
        assert_eq!(db.relation_len(rid), 2);
        assert_eq!(db.lock_manager().held_count(), 0);
    }

    #[test]
    fn delete_of_already_deleted_tuple_is_none() {
        let (db, rid) = setup();
        let rows = db.read(rid, |r| r.scan()).unwrap().unwrap();
        let victim = rows[0].0;
        db.delete(rid, victim).unwrap();
        let mut txn = db.begin();
        assert_eq!(txn.delete(rid, victim).unwrap(), None);
        txn.commit().unwrap();
    }

    #[test]
    fn select_takes_a_shared_relation_lock() {
        let (db, rid) = setup();
        let txn = db.begin();
        let rows = txn.select(rid, &Restriction::default()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(db
            .lock_manager()
            .holds(txn.id(), LockTarget::Relation(rid), LockMode::Shared));
        txn.commit().unwrap();
        assert_eq!(db.lock_manager().held_count(), 0);
    }

    #[test]
    fn select_does_not_see_an_uncommitted_delete() {
        // The deleter aborts, so Mike was never gone: a select running
        // while the delete is uncommitted must wait and return both rows.
        let (db, rid) = setup();
        let tracer = obs::Tracer::new(obs::Sink::ring(64));
        db.lock_manager().set_tracer(tracer.clone());
        let is_mike = Restriction::new(vec![Selection::eq(0, "Mike")]);
        let mike = db.select(rid, &is_mike).unwrap()[0].0;
        let mut deleter = db.begin();
        deleter.delete(rid, mike).unwrap();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let txn = db.begin();
                let rows = txn.select(rid, &Restriction::default()).unwrap();
                txn.commit().unwrap();
                rows.len()
            });
            let blocked = || {
                let events = tracer.ring_events().unwrap();
                events
                    .iter()
                    .any(|e| matches!(e, obs::Event::LockWait { .. }))
            };
            while !blocked() && !reader.is_finished() {
                std::thread::yield_now();
            }
            deleter.abort();
            assert_eq!(reader.join().unwrap(), 2);
        });
    }

    #[test]
    fn get_locks_the_tuple_and_sees_a_peer_delete() {
        let (db, rid) = setup();
        let tid = db.insert(rid, tuple!["Mike", 6000]).unwrap();
        let txn = db.begin();
        assert_eq!(txn.get(rid, tid).unwrap(), Some(tuple!["Mike", 6000]));
        assert!(db
            .lock_manager()
            .holds(txn.id(), LockTarget::Tuple(rid, tid), LockMode::Shared));
        txn.commit().unwrap();
        db.delete(rid, tid).unwrap();
        let again = db.insert(rid, tuple!["Mike", 6000]).unwrap();
        assert_eq!((again.slot, again.gen), (tid.slot, tid.gen + 1));
        let txn = db.begin();
        assert_eq!(txn.get(rid, tid).unwrap(), None, "another generation");
        txn.commit().unwrap();
        assert_eq!(db.lock_manager().held_count(), 0);
    }

    #[test]
    fn verify_absent_negative_dependence() {
        let (db, rid) = setup();
        let txn = db.begin();
        assert!(txn
            .verify_absent(rid, &Restriction::new(vec![Selection::eq(0, "Nobody")]))
            .unwrap());
        assert!(!txn
            .verify_absent(rid, &Restriction::new(vec![Selection::eq(0, "Mike")]))
            .unwrap());
        assert!(db
            .lock_manager()
            .holds(txn.id(), LockTarget::Relation(rid), LockMode::Shared));
        txn.commit().unwrap();
    }

    #[test]
    fn finished_txn_rejects_operations() {
        let (db, rid) = setup();
        let txn = db.begin();
        let id = txn.id();
        txn.commit().unwrap();
        // A new txn gets a fresh id; the old handle is consumed by commit,
        // so we only assert the id allocator moves forward.
        let txn2 = db.begin();
        assert!(txn2.id() > id);
        let _ = rid;
        txn2.commit().unwrap();
    }

    #[test]
    fn concurrent_transfers_are_serializable() {
        // Two writers move salary between Mike and Sam concurrently; with
        // strict 2PL the sum is invariant.
        let (db, rid) = setup();
        let total = |db: &Database| -> i64 {
            db.read(rid, |r| {
                r.scan()
                    .unwrap()
                    .iter()
                    .map(|(_, t)| match &t[1] {
                        crate::Value::Int(i) => *i,
                        _ => 0,
                    })
                    .sum()
            })
            .unwrap()
        };
        let before = total(&db);
        std::thread::scope(|s| {
            for delta in [100i64, -250] {
                let db = &db;
                s.spawn(move || loop {
                    let mut txn = db.begin();
                    let run = (|| -> Result<()> {
                        let rows = txn.select(rid, &Restriction::default())?;
                        let mut new_rows = Vec::new();
                        for (tid, t) in rows {
                            let crate::Value::Int(sal) = t[1] else {
                                panic!()
                            };
                            let adj = if t[0] == crate::Value::str("Mike") {
                                delta
                            } else {
                                -delta
                            };
                            if txn.delete(rid, tid)?.is_some() {
                                new_rows.push(t.with_value(1, crate::Value::Int(sal + adj)));
                            }
                        }
                        for t in new_rows {
                            txn.insert(rid, t)?;
                        }
                        Ok(())
                    })();
                    match run {
                        Ok(()) => {
                            txn.commit().unwrap();
                            break;
                        }
                        Err(Error::Deadlock(_)) => {
                            txn.abort();
                            continue;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                });
            }
        });
        assert_eq!(total(&db), before, "salary total must be conserved");
        assert_eq!(db.relation_len(rid), 2);
    }
}
