//! Two-phase-locking lock manager: one lock table behind one mutex.
//!
//! §5.2 of the paper requires read locks on retrieved WM tuples, write
//! locks for RHS updates, **relation-granularity** read locks for negated
//! condition elements (negative dependence), and write locks on the
//! relation for insertions (so negatively dependent transactions are
//! delayed). Two granularities are therefore supported; a relation-level
//! request conflicts with tuple-level locks of the same relation held by
//! other transactions (computed directly instead of via intention modes —
//! exact at our scale).
//!
//! Holders are bucketed **per relation**: a tuple-level request examines
//! only its relation's entries (the relation-level holders plus that one
//! tuple's), never every held lock in the database.
//!
//! Deadlocks — which §5.2 explicitly predicts ("this could lead to a
//! deadlock of the two transactions") — are found on a waits-for graph
//! computed from the table on demand: a waiter's edges point at the
//! current holders that conflict with its pending request. The cycle
//! check runs once, under the table mutex, when a request starts to wait.
//! Only that event can close a cycle — a holder granted later has no
//! outgoing edge until it waits itself — so the requester that closes a
//! cycle is its victim. Waiters sleep on one condvar that
//! [`LockManager::release_all`] wakes.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use obs::Event;
use parking_lot::{Condvar, Mutex};

use crate::error::{Error, Result};
use crate::schema::RelId;
use crate::stats::Stats;
use crate::tuple::TupleId;
use crate::txn::TxnId;

/// What is being locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// The whole relation (covers all its tuples).
    Relation(RelId),
    /// One specific tuple.
    Tuple(RelId, TupleId),
}

impl LockTarget {
    fn rel(&self) -> RelId {
        match self {
            LockTarget::Relation(r) | LockTarget::Tuple(r, _) => *r,
        }
    }

    /// Trace-friendly rendering ("rel3" or "rel3[t9]").
    fn describe(&self) -> String {
        match self {
            LockTarget::Relation(r) => format!("rel{}", r.0),
            LockTarget::Tuple(r, t) => format!("rel{}[{t}]", r.0),
        }
    }
}

/// Lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Read lock (compatible with other reads).
    Shared,
    /// Write lock (conflicts with everything).
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }

    fn as_str(self) -> &'static str {
        match self {
            LockMode::Shared => "shared",
            LockMode::Exclusive => "exclusive",
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// All locks held on one relation: the relation-level holders plus the
/// tuple-level holders keyed by tuple id. A conflict check for this
/// relation looks at this bucket and nothing else.
#[derive(Debug, Default)]
struct RelBucket {
    rel_holders: HashMap<TxnId, LockMode>,
    tuple_holders: HashMap<TupleId, HashMap<TxnId, LockMode>>,
}

impl RelBucket {
    fn is_empty(&self) -> bool {
        self.rel_holders.is_empty() && self.tuple_holders.is_empty()
    }
}

#[derive(Debug, Default)]
struct Tables {
    /// relation → its lock bucket.
    buckets: HashMap<RelId, RelBucket>,
    /// txn → targets it holds (for release_all).
    holdings: HashMap<TxnId, HashSet<LockTarget>>,
    /// txn → the request it is blocked on. Its waits-for edges are the
    /// holders conflicting with that request, computed when needed.
    waiting: HashMap<TxnId, (LockTarget, LockMode)>,
    /// Contention tracing. Only consulted on the blocking path, so the
    /// uncontended fast path costs nothing extra.
    tracer: obs::Tracer,
}

impl Tables {
    /// The mode `txn` holds on exactly `target`, if any.
    fn held(&self, txn: TxnId, target: &LockTarget) -> Option<LockMode> {
        let bucket = self.buckets.get(&target.rel())?;
        match target {
            LockTarget::Relation(_) => bucket.rel_holders.get(&txn).copied(),
            LockTarget::Tuple(_, t) => bucket.tuple_holders.get(t)?.get(&txn).copied(),
        }
    }

    /// Transactions (other than `me`) whose held locks conflict with a
    /// request for (`target`, `mode`). Examines only `target`'s relation
    /// bucket: a tuple request checks the relation-level holders plus
    /// that single tuple's holders; a relation request checks the
    /// relation-level holders plus every tuple holder *of that relation*.
    fn conflicting_holders(&self, me: TxnId, target: LockTarget, mode: LockMode) -> Vec<TxnId> {
        let mut out = Vec::new();
        let Some(bucket) = self.buckets.get(&target.rel()) else {
            return out;
        };
        let mut sweep = |holders: &HashMap<TxnId, LockMode>| {
            for (&txn, &held_mode) in holders {
                if txn != me && !(mode.compatible(held_mode)) {
                    out.push(txn);
                }
            }
        };
        sweep(&bucket.rel_holders);
        match target {
            LockTarget::Tuple(_, t) => {
                if let Some(holders) = bucket.tuple_holders.get(&t) {
                    sweep(holders);
                }
            }
            LockTarget::Relation(_) => {
                for holders in bucket.tuple_holders.values() {
                    sweep(holders);
                }
            }
        }
        out
    }

    /// Would `me`, about to wait on `holders`, close a waits-for cycle?
    /// Follows each reached transaction's edges while it waits itself.
    fn closes_cycle(&self, me: TxnId, holders: Vec<TxnId>) -> bool {
        let mut stack = holders;
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == me {
                return true;
            }
            if seen.insert(t) {
                if let Some(&(target, mode)) = self.waiting.get(&t) {
                    stack.extend(self.conflicting_holders(t, target, mode));
                }
            }
        }
        false
    }

    /// Render the waits-for graph, with `me` waiting on (`target`,
    /// `mode`), as "; "-joined edges, one per (waiter, conflicting
    /// holder) pair: `t<waiter>->t<holder> <mode> <target>`. Edges are
    /// sorted so the snapshot is stable regardless of hash iteration order.
    fn render(&self, me: TxnId, target: LockTarget, mode: LockMode) -> String {
        let waiters = self.waiting.iter().map(|(&w, &(t, m))| (w, t, m));
        let mut edges: Vec<String> = waiters
            .chain(std::iter::once((me, target, mode)))
            .flat_map(|(waiter, target, mode)| {
                self.conflicting_holders(waiter, target, mode)
                    .into_iter()
                    .map(move |holder| {
                        format!(
                            "t{}->t{} {} {}",
                            waiter.0,
                            holder.0,
                            mode.as_str(),
                            target.describe()
                        )
                    })
            })
            .collect();
        edges.sort();
        edges.join("; ")
    }

    fn grant(&mut self, me: TxnId, target: LockTarget, mode: LockMode) {
        let bucket = self.buckets.entry(target.rel()).or_default();
        let entry = match target {
            LockTarget::Relation(_) => &mut bucket.rel_holders,
            LockTarget::Tuple(_, t) => bucket.tuple_holders.entry(t).or_default(),
        };
        let slot = entry.entry(me).or_insert(mode);
        if mode == LockMode::Exclusive {
            *slot = LockMode::Exclusive; // upgrade
        }
        self.holdings.entry(me).or_default().insert(target);
    }

    /// Drop every lock `txn` holds. Returns whether anything was
    /// released (a waiter might be unblocked).
    fn release(&mut self, txn: TxnId) -> bool {
        let Some(targets) = self.holdings.remove(&txn) else {
            return false;
        };
        let released = !targets.is_empty();
        for target in targets {
            let Some(bucket) = self.buckets.get_mut(&target.rel()) else {
                continue;
            };
            match target {
                LockTarget::Relation(_) => {
                    bucket.rel_holders.remove(&txn);
                }
                LockTarget::Tuple(_, t) => {
                    if let Some(holders) = bucket.tuple_holders.get_mut(&t) {
                        holders.remove(&txn);
                        if holders.is_empty() {
                            bucket.tuple_holders.remove(&t);
                        }
                    }
                }
            }
            if bucket.is_empty() {
                self.buckets.remove(&target.rel());
            }
        }
        released
    }
}

/// The lock manager. Shared by all transactions of a database.
#[derive(Debug)]
pub struct LockManager {
    tables: Mutex<Tables>,
    /// Signalled by [`LockManager::release_all`]: the only event that can
    /// unblock a waiter.
    released: Condvar,
    stats: Stats,
}

impl LockManager {
    /// Create a new, empty instance.
    pub fn new(stats: Stats) -> Self {
        LockManager {
            tables: Mutex::new(Tables::default()),
            released: Condvar::new(),
            stats,
        }
    }

    /// Install a tracing handle; lock waits, grants after a wait, and
    /// deadlock victims are emitted through it.
    pub fn set_tracer(&self, tracer: obs::Tracer) {
        self.tables.lock().tracer = tracer;
    }

    /// Acquire a lock, blocking until granted or until this transaction is
    /// chosen as a deadlock victim (in which case the caller must abort).
    pub fn acquire(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> Result<()> {
        let mut tables = self.tables.lock();
        // Fast path: already holding a sufficient lock.
        if let Some(held) = tables.held(txn, &target) {
            if held == LockMode::Exclusive || mode == LockMode::Shared {
                return Ok(());
            }
        }
        // Wait bookkeeping starts lazily: `blocked_since` is only set (and
        // the tracer only consulted) once the request actually blocks.
        let mut blocked_since: Option<(Instant, obs::Tracer)> = None;
        loop {
            let conflicts = tables.conflicting_holders(txn, target, mode);
            if conflicts.is_empty() {
                tables.grant(txn, target, mode);
                self.stats.lock_acquired();
                if let Some((start, tracer)) = blocked_since {
                    tables.waiting.remove(&txn);
                    let wait_ns = start.elapsed().as_nanos() as u64;
                    self.stats.lock_waited(wait_ns);
                    tracer.emit(|| Event::LockAcquire {
                        txn: txn.0,
                        target: target.describe(),
                        mode: mode.as_str(),
                        wait_ns,
                    });
                }
                return Ok(());
            }
            if blocked_since.is_none() {
                let start = Instant::now();
                let tracer = tables.tracer.clone();
                tracer.emit(|| Event::LockWait {
                    txn: txn.0,
                    target: target.describe(),
                    mode: mode.as_str(),
                });
                if tables.closes_cycle(txn, conflicts) {
                    self.stats.abort();
                    let wait_ns = start.elapsed().as_nanos() as u64;
                    self.stats.lock_waited(wait_ns);
                    tracer.emit(|| Event::DeadlockGraph {
                        victim: txn.0,
                        edges: tables.render(txn, target, mode),
                    });
                    tracer.emit(|| Event::DeadlockVictim {
                        txn: txn.0,
                        wait_ns,
                    });
                    return Err(Error::Deadlock(txn));
                }
                tables.waiting.insert(txn, (target, mode));
                blocked_since = Some((start, tracer));
            }
            self.released.wait(&mut tables);
        }
    }

    /// Try to acquire without blocking.
    pub fn try_acquire(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> bool {
        let mut tables = self.tables.lock();
        if tables.conflicting_holders(txn, target, mode).is_empty() {
            tables.grant(txn, target, mode);
            self.stats.lock_acquired();
            true
        } else {
            false
        }
    }

    /// Does `txn` hold (at least) `mode` on `target`?
    pub fn holds(&self, txn: TxnId, target: LockTarget, mode: LockMode) -> bool {
        self.tables
            .lock()
            .held(txn, &target)
            .is_some_and(|held| held == LockMode::Exclusive || mode == LockMode::Shared)
    }

    /// Release every lock held by `txn` (commit or abort — strict 2PL)
    /// and wake the waiters.
    pub fn release_all(&self, txn: TxnId) {
        if self.tables.lock().release(txn) {
            self.released.notify_all();
        }
    }

    /// Number of currently held (txn, target) lock pairs.
    pub fn held_count(&self) -> usize {
        self.tables.lock().holdings.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tid(n: u32) -> TupleId {
        TupleId::new(n, 0)
    }

    #[test]
    fn shared_locks_coexist() {
        let lm = LockManager::new(Stats::new());
        let t = LockTarget::Tuple(RelId(0), tid(1));
        lm.acquire(TxnId(1), t, LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), t, LockMode::Shared).unwrap();
        assert!(lm.holds(TxnId(1), t, LockMode::Shared));
        assert!(lm.holds(TxnId(2), t, LockMode::Shared));
    }

    #[test]
    fn exclusive_blocks_try_acquire() {
        let lm = LockManager::new(Stats::new());
        let t = LockTarget::Tuple(RelId(0), tid(1));
        lm.acquire(TxnId(1), t, LockMode::Exclusive).unwrap();
        assert!(!lm.try_acquire(TxnId(2), t, LockMode::Shared));
        lm.release_all(TxnId(1));
        assert!(lm.try_acquire(TxnId(2), t, LockMode::Shared));
    }

    #[test]
    fn relation_lock_covers_tuples() {
        let lm = LockManager::new(Stats::new());
        lm.acquire(
            TxnId(1),
            LockTarget::Relation(RelId(3)),
            LockMode::Exclusive,
        )
        .unwrap();
        assert!(!lm.try_acquire(
            TxnId(2),
            LockTarget::Tuple(RelId(3), tid(9)),
            LockMode::Shared
        ));
        // A different relation is unaffected.
        assert!(lm.try_acquire(
            TxnId(2),
            LockTarget::Tuple(RelId(4), tid(9)),
            LockMode::Shared
        ));
    }

    #[test]
    fn tuple_lock_blocks_relation_lock() {
        let lm = LockManager::new(Stats::new());
        lm.acquire(
            TxnId(1),
            LockTarget::Tuple(RelId(3), tid(1)),
            LockMode::Exclusive,
        )
        .unwrap();
        assert!(!lm.try_acquire(TxnId(2), LockTarget::Relation(RelId(3)), LockMode::Shared));
    }

    #[test]
    fn shared_relation_and_shared_tuple_coexist() {
        let lm = LockManager::new(Stats::new());
        lm.acquire(TxnId(1), LockTarget::Relation(RelId(3)), LockMode::Shared)
            .unwrap();
        assert!(lm.try_acquire(
            TxnId(2),
            LockTarget::Tuple(RelId(3), tid(1)),
            LockMode::Shared
        ));
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let lm = LockManager::new(Stats::new());
        let t = LockTarget::Tuple(RelId(0), tid(1));
        lm.acquire(TxnId(1), t, LockMode::Shared).unwrap();
        lm.acquire(TxnId(1), t, LockMode::Exclusive).unwrap();
        assert!(lm.holds(TxnId(1), t, LockMode::Exclusive));
        assert!(!lm.try_acquire(TxnId(2), t, LockMode::Shared));
    }

    #[test]
    fn reacquire_held_lock_is_noop() {
        let lm = LockManager::new(Stats::new());
        let t = LockTarget::Relation(RelId(0));
        lm.acquire(TxnId(1), t, LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(1), t, LockMode::Shared).unwrap();
        lm.acquire(TxnId(1), t, LockMode::Exclusive).unwrap();
        lm.release_all(TxnId(1));
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn conflict_check_is_per_relation_bucket() {
        // Load the table with many held locks of *other* relations: a
        // request for an uninvolved relation must still be grantable
        // immediately (its bucket is empty) — the check never sweeps
        // every held lock.
        let lm = LockManager::new(Stats::new());
        for rel in 0..64u32 {
            for t in 0..16 {
                lm.acquire(
                    TxnId(u64::from(rel)),
                    LockTarget::Tuple(RelId(rel), tid(t)),
                    LockMode::Exclusive,
                )
                .unwrap();
            }
        }
        assert!(lm.try_acquire(
            TxnId(999),
            LockTarget::Tuple(RelId(64), tid(0)),
            LockMode::Exclusive
        ));
        assert!(lm.try_acquire(
            TxnId(999),
            LockTarget::Relation(RelId(65)),
            LockMode::Exclusive
        ));
        // And a conflicting request in a *populated* bucket still blocks.
        assert!(!lm.try_acquire(
            TxnId(999),
            LockTarget::Tuple(RelId(0), tid(0)),
            LockMode::Shared
        ));
    }

    #[test]
    fn deadlock_detected() {
        let lm = std::sync::Arc::new(LockManager::new(Stats::new()));
        let a = LockTarget::Tuple(RelId(0), tid(1));
        let b = LockTarget::Tuple(RelId(0), tid(2));
        lm.acquire(TxnId(1), a, LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), b, LockMode::Exclusive).unwrap();

        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            // Txn 2 blocks waiting for `a`.
            let res = lm2.acquire(TxnId(2), a, LockMode::Exclusive);
            lm2.release_all(TxnId(2));
            res
        });
        std::thread::sleep(Duration::from_millis(30));
        // Txn 1 requesting `b` closes the cycle; one of the two must abort.
        let r1 = lm.acquire(TxnId(1), b, LockMode::Exclusive);
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one transaction must be a deadlock victim"
        );
        assert!(
            r1.is_ok() || r2.is_ok(),
            "at most one transaction should be aborted in a two-cycle"
        );
    }

    #[test]
    fn deadlock_emits_wait_for_graph() {
        let lm = std::sync::Arc::new(LockManager::new(Stats::new()));
        let tracer = obs::Tracer::new(obs::Sink::ring(256));
        lm.set_tracer(tracer.clone());
        let a = LockTarget::Tuple(RelId(0), tid(1));
        let b = LockTarget::Tuple(RelId(0), tid(2));
        lm.acquire(TxnId(1), a, LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), b, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            let res = lm2.acquire(TxnId(2), a, LockMode::Exclusive);
            lm2.release_all(TxnId(2));
            res
        });
        std::thread::sleep(Duration::from_millis(30));
        let r1 = lm.acquire(TxnId(1), b, LockMode::Exclusive);
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(r1.is_err() || r2.is_err());
        let events = tracer.ring_events().unwrap();
        let graph = events
            .iter()
            .find_map(|e| match e {
                Event::DeadlockGraph { victim, edges } => Some((*victim, edges.clone())),
                _ => None,
            })
            .expect("a DeadlockGraph snapshot accompanies the victim choice");
        let (victim, edges) = graph;
        assert!(victim == 1 || victim == 2);
        // Both directions of the two-cycle are captured.
        assert!(edges.contains("t1->t2"), "{edges}");
        assert!(edges.contains("t2->t1"), "{edges}");
        assert!(edges.contains("exclusive rel0["), "{edges}");
        // The victim event still follows the graph snapshot.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::DeadlockVictim { .. })));
    }

    /// A cycle whose two edges are on *different* relations (t1 holds in
    /// rel0 and waits in rel1, t2 the reverse) must be detected, journaled
    /// with both edges, and abort exactly one victim.
    #[test]
    fn two_relation_deadlock_aborts_exactly_one_victim() {
        let lm = std::sync::Arc::new(LockManager::new(Stats::new()));
        let tracer = obs::Tracer::new(obs::Sink::ring(256));
        lm.set_tracer(tracer.clone());
        let a = LockTarget::Tuple(RelId(0), tid(1));
        let b = LockTarget::Tuple(RelId(1), tid(1));
        lm.acquire(TxnId(1), a, LockMode::Exclusive).unwrap();
        lm.acquire(TxnId(2), b, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            // Txn 2 blocks on rel0, waiting on txn 1's lock.
            let res = lm2.acquire(TxnId(2), a, LockMode::Exclusive);
            lm2.release_all(TxnId(2));
            res
        });
        std::thread::sleep(Duration::from_millis(30));
        // Txn 1 requesting `b` (rel1) closes the cycle.
        let r1 = lm.acquire(TxnId(1), b, LockMode::Exclusive);
        lm.release_all(TxnId(1));
        let r2 = h.join().unwrap();
        assert!(
            r1.is_err() || r2.is_err(),
            "the two-relation cycle must be detected"
        );
        assert!(
            r1.is_ok() || r2.is_ok(),
            "exactly one of the two transactions aborts"
        );
        assert_eq!(lm.held_count(), 0, "both sides released");
        // The journaled DeadlockGraph snapshot holds both relations' edges.
        let edges = tracer
            .ring_events()
            .unwrap()
            .iter()
            .find_map(|e| match e {
                Event::DeadlockGraph { edges, .. } => Some(edges.clone()),
                _ => None,
            })
            .expect("DeadlockGraph journaled for the two-relation cycle");
        assert!(edges.contains("t1->t2"), "{edges}");
        assert!(edges.contains("t2->t1"), "{edges}");
        assert!(edges.contains("rel0["), "{edges}");
        assert!(edges.contains("rel1["), "{edges}");
    }

    /// The requester that closes a cycle is its victim, even when the
    /// cycle runs through a holder granted after the other waiter blocked:
    /// t2 waits on `a` held by t1; t3 is then granted `a` too, so t2 also
    /// waits on t3, and t3's request for t2's `b` closes t3 → t2 → t3.
    #[test]
    fn cycle_through_a_later_grant_aborts_the_requester() {
        let lm = std::sync::Arc::new(LockManager::new(Stats::new()));
        let tracer = obs::Tracer::new(obs::Sink::ring(256));
        lm.set_tracer(tracer.clone());
        let a = LockTarget::Tuple(RelId(0), tid(1));
        let b = LockTarget::Tuple(RelId(0), tid(2));
        lm.acquire(TxnId(1), a, LockMode::Shared).unwrap();
        lm.acquire(TxnId(2), b, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            let res = lm2.acquire(TxnId(2), a, LockMode::Exclusive);
            lm2.release_all(TxnId(2));
            res
        });
        // Proceed once t2 is blocked on `a`.
        while !tracer
            .ring_events()
            .unwrap()
            .iter()
            .any(|e| matches!(e, Event::LockWait { txn: 2, .. }))
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        lm.acquire(TxnId(3), a, LockMode::Shared).unwrap();
        assert!(matches!(
            lm.acquire(TxnId(3), b, LockMode::Exclusive),
            Err(Error::Deadlock(TxnId(3)))
        ));
        lm.release_all(TxnId(3));
        lm.release_all(TxnId(1));
        assert!(
            h.join().unwrap().is_ok(),
            "t2 finishes once t1 and t3 release"
        );
        assert_eq!(lm.held_count(), 0);
    }

    #[test]
    fn blocked_waiter_wakes_after_release() {
        let lm = std::sync::Arc::new(LockManager::new(Stats::new()));
        let t = LockTarget::Tuple(RelId(0), tid(1));
        lm.acquire(TxnId(1), t, LockMode::Exclusive).unwrap();
        let lm2 = lm.clone();
        let h = std::thread::spawn(move || {
            lm2.acquire(TxnId(2), t, LockMode::Shared).unwrap();
            lm2.release_all(TxnId(2));
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        lm.release_all(TxnId(1));
        assert!(h.join().unwrap());
    }
}
