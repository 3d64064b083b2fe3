//! Logical operation accounting.
//!
//! The paper assumes working memory lives on secondary storage; on 2026
//! hardware an in-memory build would hide the algorithmic differences the
//! paper argues about. Every storage operation therefore bumps a shared
//! counter set, and the experiments report *logical I/O* (tuples read and
//! written, index probes, scans) alongside wall time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared counters. Cheap to clone (an `Arc`); safe to bump from the
/// concurrent executor's worker threads.
#[derive(Debug, Default)]
pub struct Counters {
    /// Tuples materialized out of a relation (scan or index fetch).
    pub tuples_read: AtomicU64,
    /// Tuples inserted.
    pub tuples_inserted: AtomicU64,
    /// Tuples deleted.
    pub tuples_deleted: AtomicU64,
    /// Hash/ordered index point probes.
    pub index_probes: AtomicU64,
    /// Full relation scans started.
    pub scans: AtomicU64,
    /// Predicate evaluations (selection tests applied to a tuple).
    pub pred_evals: AtomicU64,
    /// Logical locks acquired (transaction experiments).
    pub locks_acquired: AtomicU64,
    /// Lock requests that had to block before being granted.
    pub lock_waits: AtomicU64,
    /// Total nanoseconds spent blocked on lock requests.
    pub lock_wait_ns: AtomicU64,
    /// Transactions aborted (deadlock victims or rule-level aborts).
    pub aborts: AtomicU64,
    /// Pages read from the page file (buffer pool misses).
    pub page_reads: AtomicU64,
    /// Pages written to the page file (eviction or flush).
    pub page_writes: AtomicU64,
    /// Page requests satisfied from the buffer pool.
    pub pool_hits: AtomicU64,
    /// Frames evicted to make room for another page.
    pub pool_evictions: AtomicU64,
    /// WAL syncs (`Wal::sync`, a commit's frame) that wrote and fsynced
    /// appended frames; a sync with nothing new to make durable is not
    /// one, nor is a checkpoint's log rewrite.
    pub wal_syncs: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Tuples materialized out of relations.
    pub tuples_read: u64,
    /// Tuples inserted.
    pub tuples_inserted: u64,
    /// Tuples deleted.
    pub tuples_deleted: u64,
    /// Index point probes.
    pub index_probes: u64,
    /// Full relation scans.
    pub scans: u64,
    /// Predicate evaluations.
    pub pred_evals: u64,
    /// Logical locks acquired.
    pub locks_acquired: u64,
    /// Lock requests that had to block.
    pub lock_waits: u64,
    /// Nanoseconds spent blocked on lock requests.
    pub lock_wait_ns: u64,
    /// Transactions aborted.
    pub aborts: u64,
    /// Pages read from the page file.
    pub page_reads: u64,
    /// Pages written to the page file.
    pub page_writes: u64,
    /// Page requests satisfied from the buffer pool.
    pub pool_hits: u64,
    /// Buffer-pool frames evicted.
    pub pool_evictions: u64,
    /// WAL write + fsync pairs.
    pub wal_syncs: u64,
}

impl OpSnapshot {
    /// Total logical I/O: reads plus writes plus probes.
    pub fn logical_io(&self) -> u64 {
        self.tuples_read + self.tuples_inserted + self.tuples_deleted + self.index_probes
    }

    /// Difference since an earlier snapshot. Saturating: a [`Stats::reset`]
    /// between the two snapshots yields zeros instead of a debug-mode
    /// underflow panic.
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            tuples_read: self.tuples_read.saturating_sub(earlier.tuples_read),
            tuples_inserted: self.tuples_inserted.saturating_sub(earlier.tuples_inserted),
            tuples_deleted: self.tuples_deleted.saturating_sub(earlier.tuples_deleted),
            index_probes: self.index_probes.saturating_sub(earlier.index_probes),
            scans: self.scans.saturating_sub(earlier.scans),
            pred_evals: self.pred_evals.saturating_sub(earlier.pred_evals),
            locks_acquired: self.locks_acquired.saturating_sub(earlier.locks_acquired),
            lock_waits: self.lock_waits.saturating_sub(earlier.lock_waits),
            lock_wait_ns: self.lock_wait_ns.saturating_sub(earlier.lock_wait_ns),
            aborts: self.aborts.saturating_sub(earlier.aborts),
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            page_writes: self.page_writes.saturating_sub(earlier.page_writes),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_evictions: self.pool_evictions.saturating_sub(earlier.pool_evictions),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
        }
    }
}

impl fmt::Display for OpSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} ins={} del={} probes={} scans={} preds={} locks={} waits={} wait_ns={} aborts={} pg_r={} pg_w={} pool_hit={} evict={} wal_syncs={}",
            self.tuples_read,
            self.tuples_inserted,
            self.tuples_deleted,
            self.index_probes,
            self.scans,
            self.pred_evals,
            self.locks_acquired,
            self.lock_waits,
            self.lock_wait_ns,
            self.aborts,
            self.page_reads,
            self.page_writes,
            self.pool_hits,
            self.pool_evictions,
            self.wal_syncs
        )
    }
}

/// Handle to a counter set.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    inner: Arc<Counters>,
}

impl Stats {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Count `n` tuples read.
    #[inline]
    pub fn read_tuples(&self, n: u64) {
        self.inner.tuples_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one tuple insertion.
    #[inline]
    pub fn inserted(&self) {
        self.inner.tuples_inserted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one tuple deletion.
    #[inline]
    pub fn deleted(&self) {
        self.inner.tuples_deleted.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one index point probe.
    #[inline]
    pub fn index_probe(&self) {
        self.inner.index_probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one full relation scan.
    #[inline]
    pub fn scan(&self) {
        self.inner.scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` predicate evaluations.
    #[inline]
    pub fn pred_evals(&self, n: u64) {
        self.inner.pred_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one logical lock acquisition.
    #[inline]
    pub fn lock_acquired(&self) {
        self.inner.locks_acquired.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one blocked lock request and the nanoseconds it waited.
    #[inline]
    pub fn lock_waited(&self, ns: u64) {
        self.inner.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.inner.lock_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Count one transaction abort.
    #[inline]
    pub fn abort(&self) {
        self.inner.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one page read from the page file.
    #[inline]
    pub fn page_read(&self) {
        self.inner.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one page write to the page file.
    #[inline]
    pub fn page_write(&self) {
        self.inner.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one buffer-pool hit.
    #[inline]
    pub fn pool_hit(&self) {
        self.inner.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one buffer-pool eviction.
    #[inline]
    pub fn pool_eviction(&self) {
        self.inner.pool_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one WAL write + fsync.
    #[inline]
    pub fn wal_sync(&self) {
        self.inner.wal_syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy out the current values.
    pub fn snapshot(&self) -> OpSnapshot {
        OpSnapshot {
            tuples_read: self.inner.tuples_read.load(Ordering::Relaxed),
            tuples_inserted: self.inner.tuples_inserted.load(Ordering::Relaxed),
            tuples_deleted: self.inner.tuples_deleted.load(Ordering::Relaxed),
            index_probes: self.inner.index_probes.load(Ordering::Relaxed),
            scans: self.inner.scans.load(Ordering::Relaxed),
            pred_evals: self.inner.pred_evals.load(Ordering::Relaxed),
            locks_acquired: self.inner.locks_acquired.load(Ordering::Relaxed),
            lock_waits: self.inner.lock_waits.load(Ordering::Relaxed),
            lock_wait_ns: self.inner.lock_wait_ns.load(Ordering::Relaxed),
            aborts: self.inner.aborts.load(Ordering::Relaxed),
            page_reads: self.inner.page_reads.load(Ordering::Relaxed),
            page_writes: self.inner.page_writes.load(Ordering::Relaxed),
            pool_hits: self.inner.pool_hits.load(Ordering::Relaxed),
            pool_evictions: self.inner.pool_evictions.load(Ordering::Relaxed),
            wal_syncs: self.inner.wal_syncs.load(Ordering::Relaxed),
        }
    }

    /// Reset everything to zero (between experiment runs).
    pub fn reset(&self) {
        self.inner.tuples_read.store(0, Ordering::Relaxed);
        self.inner.tuples_inserted.store(0, Ordering::Relaxed);
        self.inner.tuples_deleted.store(0, Ordering::Relaxed);
        self.inner.index_probes.store(0, Ordering::Relaxed);
        self.inner.scans.store(0, Ordering::Relaxed);
        self.inner.pred_evals.store(0, Ordering::Relaxed);
        self.inner.locks_acquired.store(0, Ordering::Relaxed);
        self.inner.lock_waits.store(0, Ordering::Relaxed);
        self.inner.lock_wait_ns.store(0, Ordering::Relaxed);
        self.inner.aborts.store(0, Ordering::Relaxed);
        self.inner.page_reads.store(0, Ordering::Relaxed);
        self.inner.page_writes.store(0, Ordering::Relaxed);
        self.inner.pool_hits.store(0, Ordering::Relaxed);
        self.inner.pool_evictions.store(0, Ordering::Relaxed);
        self.inner.wal_syncs.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_snapshot_delta() {
        let s = Stats::new();
        s.read_tuples(10);
        s.inserted();
        s.index_probe();
        let a = s.snapshot();
        assert_eq!(a.tuples_read, 10);
        assert_eq!(a.logical_io(), 12);

        s.read_tuples(5);
        s.deleted();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.tuples_read, 5);
        assert_eq!(d.tuples_deleted, 1);
        assert_eq!(d.tuples_inserted, 0);
    }

    #[test]
    fn clone_shares_counters() {
        let s = Stats::new();
        let t = s.clone();
        t.scan();
        assert_eq!(s.snapshot().scans, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = Stats::new();
        s.inserted();
        s.abort();
        s.reset();
        assert_eq!(s.snapshot(), OpSnapshot::default());
    }

    #[test]
    fn since_saturates_across_reset() {
        let s = Stats::new();
        s.read_tuples(10);
        s.lock_acquired();
        s.lock_waited(500);
        let before = s.snapshot();
        s.reset();
        s.read_tuples(3);
        // The later snapshot is numerically smaller; the delta must clamp
        // to zero rather than underflow.
        let d = s.snapshot().since(&before);
        assert_eq!(d.tuples_read, 0);
        assert_eq!(d.lock_waits, 0);
        assert_eq!(d.lock_wait_ns, 0);
    }

    #[test]
    fn concurrent_bumps() {
        let s = Stats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.read_tuples(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().tuples_read, 4000);
    }
}
