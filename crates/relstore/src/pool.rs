//! File-backed page manager and buffer pool.
//!
//! [`PageManager`] owns the page file: allocate page ids and move
//! whole [`Page`] images between memory and disk. [`BufferPool`] caches a
//! bounded number of frames over it with pin counts, dirty tracking, and
//! clean-first Clock (second-chance) eviction — sized smaller than the
//! working set it makes the paper's I/O story measurable (`page_reads`,
//! `page_writes`, `pool_hits`, `pool_evictions` in [`Stats`]).
//!
//! **Write-ahead ordering.** Pages carry the LSN of the last WAL record
//! that covered their latest change. A page is written only once the log
//! covers that LSN ([`Wal::covers`]), so a data page can never reach disk
//! ahead of the log record that justifies it. Eviction prefers clean
//! frames and passes over dirty ones the log does not cover yet; when no
//! other victim is left, one [`Wal::sync_to`] covers a write-back of every
//! dirty frame. [`BufferPool::flush_all`] is the same write-back followed
//! by an fsync of the page file, and `write_frame` is the one place a
//! page is written.
//!
//! Lock order is relation latch → pool mutex → WAL mutex; the WAL is a
//! leaf and the pool never calls back into relations, so the order is
//! acyclic.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt as _;
use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::Stats;
use crate::wal::Wal;

/// Owns the page file: id allocation and whole-page transfer. Every
/// transfer is one positioned read or write of a caller-owned buffer.
#[derive(Debug)]
pub struct PageManager {
    file: File,
    next_page: PageId,
}

impl PageManager {
    /// Create a fresh page file, truncating any existing one. The page
    /// file is a runtime overflow medium — recovery rebuilds it from the
    /// checkpoint snapshot plus the WAL — so it never opens non-empty.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(PageManager { file, next_page: 0 })
    }

    /// Hand out a fresh page id. No I/O happens until the page is first
    /// written.
    pub fn allocate(&mut self) -> PageId {
        let pid = self.next_page;
        self.next_page += 1;
        pid
    }

    fn offset(pid: PageId) -> u64 {
        pid as u64 * PAGE_SIZE as u64
    }

    /// Read page `pid` into `page`'s buffer.
    fn read_page(&self, pid: PageId, page: &mut Page) -> Result<()> {
        self.file
            .read_exact_at(page.as_bytes_mut(), Self::offset(pid))?;
        Ok(())
    }

    fn write_page(&self, pid: PageId, page: &Page) -> Result<()> {
        self.file.write_all_at(page.as_bytes(), Self::offset(pid))?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

/// The page id of a frame that holds no page: a fault whose read failed
/// leaves its frame so, mapped to nothing and reused by a later miss.
const NO_PAGE: PageId = PageId::MAX;

#[derive(Debug)]
struct Frame {
    pid: PageId,
    page: Page,
    pin: u32,
    dirty: bool,
    refbit: bool,
}

#[derive(Debug)]
struct PoolInner {
    mgr: PageManager,
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    clock: usize,
    cap: usize,
}

impl PoolInner {
    /// Pick a victim frame, clean frames first. The Clock sweep skips
    /// pinned frames and clears each reference bit once; after that the
    /// first unreferenced clean frame is the victim. An unreferenced dirty
    /// frame whose LSN the log already covers is written back on the spot
    /// and becomes the victim; one the log does not cover yet is passed
    /// over. Only when two sweeps find no victim does the pool pay a log
    /// sync, and that one sync covers a write-back of every dirty frame
    /// ([`PoolInner::write_back`]) before a last sweep. On return the
    /// frame is mapped to no page id.
    fn evict_victim(&mut self, wal: &Wal, stats: &Stats) -> Result<usize> {
        let victim = match self.sweep(wal, stats)? {
            Some(i) => i,
            None => {
                self.write_back(wal, stats)?;
                self.sweep(wal, stats)?
                    .ok_or_else(|| Error::Io("buffer pool exhausted: all frames pinned".into()))?
            }
        };
        stats.pool_eviction();
        let frame = &mut self.frames[victim];
        self.map.remove(&frame.pid);
        frame.pid = NO_PAGE;
        Ok(victim)
    }

    /// Two full Clock sweeps: every unpinned frame's reference bit is
    /// cleared at least once before the sweep gives up on finding a clean
    /// (or already covered) victim.
    fn sweep(&mut self, wal: &Wal, stats: &Stats) -> Result<Option<usize>> {
        let n = self.frames.len();
        for _ in 0..2 * n {
            let i = self.clock;
            self.clock = (self.clock + 1) % n;
            let frame = &mut self.frames[i];
            if frame.pin > 0 {
                continue;
            }
            if frame.refbit {
                frame.refbit = false;
                continue;
            }
            if frame.dirty {
                if !wal.covers(frame.page.lsn()) {
                    continue;
                }
                write_frame(&self.mgr, frame, wal, stats)?;
            }
            return Ok(Some(i));
        }
        Ok(None)
    }

    /// Make the log durable once, through the highest LSN of the dirty
    /// frames, then write every one of them back and mark it clean. A
    /// pin only keeps a frame mapped, so pinned frames are written too. A
    /// failed sync writes nothing; a frame whose write fails stays dirty
    /// and mapped.
    fn write_back(&mut self, wal: &Wal, stats: &Stats) -> Result<()> {
        let max_lsn = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .map(|f| f.page.lsn())
            .max()
            .unwrap_or(0);
        wal.sync_to(max_lsn)?;
        for frame in self.frames.iter_mut().filter(|f| f.dirty) {
            write_frame(&self.mgr, frame, wal, stats)?;
        }
        Ok(())
    }

    /// Return the frame index for `pid`, faulting it in if needed. `load`
    /// says whether a miss reads from disk (false for brand-new pages).
    /// Once the pool is full a miss reuses the victim's buffer: one
    /// positioned read into it, or an in-place reset for a new page. If
    /// that read fails the frame stays mapped to no page id.
    fn frame_for(&mut self, pid: PageId, load: bool, wal: &Wal, stats: &Stats) -> Result<usize> {
        if let Some(&i) = self.map.get(&pid) {
            self.frames[i].refbit = true;
            stats.pool_hit();
            return Ok(i);
        }
        let i = if self.frames.len() < self.cap {
            self.frames.push(Frame {
                pid: NO_PAGE,
                page: Page::new(),
                pin: 0,
                dirty: false,
                refbit: false,
            });
            self.frames.len() - 1
        } else {
            self.evict_victim(wal, stats)?
        };
        let frame = &mut self.frames[i];
        if load {
            self.mgr.read_page(pid, &mut frame.page)?;
            stats.page_read();
        } else {
            frame.page.reset();
        }
        frame.pid = pid;
        frame.refbit = true;
        self.map.insert(pid, i);
        Ok(i)
    }
}

/// Write a dirty frame's page back from its own buffer and mark it clean:
/// the one place a page reaches the page file. Write-ahead: the caller
/// has made sure the log covers the page's LSN.
fn write_frame(mgr: &PageManager, frame: &mut Frame, wal: &Wal, stats: &Stats) -> Result<()> {
    debug_assert!(wal.covers(frame.page.lsn()));
    mgr.write_page(frame.pid, &frame.page)?;
    frame.dirty = false;
    stats.page_write();
    Ok(())
}

/// A bounded cache of page frames over a [`PageManager`].
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    /// The log whose `sync_to` gates every dirty-page write.
    wal: Arc<Wal>,
    stats: Stats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.lock();
        f.debug_struct("BufferPool")
            .field("capacity", &g.cap)
            .field("resident", &g.frames.len())
            .finish()
    }
}

impl BufferPool {
    /// Create a pool of `cap` frames over a fresh page file at `path`,
    /// writing dirty pages back only once `wal` is durable past them.
    pub fn create(path: &Path, cap: usize, stats: Stats, wal: Arc<Wal>) -> Result<Self> {
        Ok(BufferPool {
            inner: Mutex::new(PoolInner {
                mgr: PageManager::create(path)?,
                frames: Vec::new(),
                map: HashMap::new(),
                clock: 0,
                cap: cap.max(1),
            }),
            wal,
            stats,
        })
    }

    /// Number of frames the pool may hold.
    pub fn capacity(&self) -> usize {
        self.inner.lock().cap
    }

    /// Allocate a fresh page, resident and dirty (it has never been on
    /// disk, so it must not be dropped clean).
    pub fn alloc_page(&self) -> Result<PageId> {
        let mut g = self.inner.lock();
        let pid = g.mgr.allocate();
        let i = g.frame_for(pid, false, &self.wal, &self.stats)?;
        g.frames[i].dirty = true;
        Ok(pid)
    }

    /// Pin `pid` resident. While pinned the frame cannot be evicted; pair
    /// with [`BufferPool::unpin`].
    pub fn pin(&self, pid: PageId) -> Result<()> {
        let mut g = self.inner.lock();
        let i = g.frame_for(pid, true, &self.wal, &self.stats)?;
        g.frames[i].pin += 1;
        Ok(())
    }

    /// Release one pin on `pid`.
    pub fn unpin(&self, pid: PageId) {
        let mut g = self.inner.lock();
        if let Some(&i) = g.map.get(&pid) {
            g.frames[i].pin = g.frames[i].pin.saturating_sub(1);
        }
    }

    /// Run `f` over the page, read-only. Faults the page in on a miss.
    pub fn with_page<R>(&self, pid: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        let mut g = self.inner.lock();
        let i = g.frame_for(pid, true, &self.wal, &self.stats)?;
        Ok(f(&g.frames[i].page))
    }

    /// Run `f` over the page mutably, marking the frame dirty and raising
    /// its LSN to `lsn` (the WAL position covering this change).
    pub fn with_page_mut<R>(
        &self,
        pid: PageId,
        lsn: u64,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let mut g = self.inner.lock();
        let i = g.frame_for(pid, true, &self.wal, &self.stats)?;
        let frame = &mut g.frames[i];
        frame.dirty = true;
        if lsn > frame.page.lsn() {
            frame.page.set_lsn(lsn);
        }
        Ok(f(&mut frame.page))
    }

    /// Write every dirty frame behind one log sync and fsync the page
    /// file.
    pub fn flush_all(&self) -> Result<()> {
        let mut g = self.inner.lock();
        g.write_back(&self.wal, &self.stats)?;
        g.mgr.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The directory the test pools' files live in.
    fn pool_dir() -> std::path::PathBuf {
        std::env::temp_dir().join(format!("relstore-pool-{}", std::process::id()))
    }

    /// A pool over `{name}.pages`, gated on the log `{name}.log` beside it.
    fn pool_at(name: &str, cap: usize, stats: Stats) -> (BufferPool, Arc<Wal>) {
        let dir = pool_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join(format!("{name}.log"));
        let wal = Arc::new(Wal::create(&log).unwrap().with_stats(stats.clone()));
        let pages = dir.join(format!("{name}.pages"));
        (
            BufferPool::create(&pages, cap, stats, wal.clone()).unwrap(),
            wal,
        )
    }

    #[test]
    fn pages_survive_eviction_roundtrip() {
        let stats = Stats::new();
        let (pool, _) = pool_at("roundtrip", 2, stats.clone());
        // Three pages through a two-frame pool forces eviction.
        let pids: Vec<PageId> = (0..3).map(|_| pool.alloc_page().unwrap()).collect();
        for (n, &pid) in pids.iter().enumerate() {
            pool.with_page_mut(pid, 0, |p| p.insert(&[n as u8; 64]).unwrap())
                .unwrap();
        }
        for (n, &pid) in pids.iter().enumerate() {
            let ok = pool
                .with_page(pid, |p| p.record(0).unwrap() == [n as u8; 64])
                .unwrap();
            assert!(ok, "page {pid} content survived eviction");
        }
        // A back-to-back re-read of the last page is a guaranteed hit
        // (cyclic access over 3 pages with 2 frames never hits).
        pool.with_page(pids[2], |_| ()).unwrap();
        let snap = stats.snapshot();
        assert!(snap.pool_evictions > 0, "pool smaller than working set");
        assert!(snap.page_writes > 0, "dirty eviction wrote");
        assert!(snap.page_reads > 0, "refetch read from disk");
        assert!(snap.pool_hits > 0);
    }

    /// A miss evicts before it reads, so a read that fails must leave the
    /// evicted frame mapped to neither page: the fault errs, a retry errs
    /// again instead of serving the victim's bytes, and the page that
    /// stayed resident still reads.
    #[test]
    fn failed_read_after_eviction_leaves_the_pool_consistent() {
        let stats = Stats::new();
        let (pool, _) = pool_at("failedread", 2, stats.clone());
        let pids: Vec<PageId> = (0..3).map(|_| pool.alloc_page().unwrap()).collect();
        for (n, &pid) in pids.iter().enumerate() {
            pool.with_page_mut(pid, 0, |p| p.insert(&[n as u8; 64]).unwrap())
                .unwrap();
        }
        pool.flush_all().unwrap();
        // Page 1 pinned resident, page 0 in the other frame, page 2 on
        // disk only.
        let (victim, resident, evicted) = (pids[0], pids[1], pids[2]);
        pool.pin(resident).unwrap();
        pool.with_page(victim, |_| ()).unwrap();
        OpenOptions::new()
            .write(true)
            .open(pool_dir().join("failedread.pages"))
            .unwrap()
            .set_len(0)
            .unwrap();

        assert!(pool.with_page(evicted, |_| ()).is_err(), "short read");
        assert!(
            pool.with_page(evicted, |_| ()).is_err(),
            "a retry must not serve the victim's bytes"
        );
        assert!(
            pool.with_page(victim, |_| ()).is_err(),
            "the victim is no longer resident"
        );
        let reads = stats.snapshot().page_reads;
        let kept = pool
            .with_page(resident, |p| p.record(0).unwrap() == [1u8; 64])
            .unwrap();
        assert!(kept, "the resident page still reads");
        assert_eq!(stats.snapshot().page_reads, reads, "served from its frame");
        pool.unpin(resident);
    }

    /// Once the pool is full, a miss reuses the victim's buffer in place.
    #[test]
    fn a_full_pool_faults_into_the_victims_buffer() {
        let (pool, _) = pool_at("inplace", 1, Stats::new());
        let a = pool.alloc_page().unwrap();
        pool.with_page_mut(a, 0, |p| p.insert(b"a").unwrap())
            .unwrap();
        let buffer = pool.with_page(a, |p| p.as_bytes().as_ptr()).unwrap();
        let b = pool.alloc_page().unwrap();
        assert_eq!(pool.with_page(b, |p| p.nrecs()).unwrap(), 0, "reset");
        assert_eq!(
            pool.with_page(b, |p| p.as_bytes().as_ptr()).unwrap(),
            buffer
        );
        let back = pool.with_page(a, |p| (p.record(0).unwrap() == b"a", p.as_bytes().as_ptr()));
        assert_eq!(back.unwrap(), (true, buffer));
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let (pool, _) = pool_at("pinned", 2, Stats::new());
        let a = pool.alloc_page().unwrap();
        let b = pool.alloc_page().unwrap();
        pool.pin(a).unwrap();
        pool.pin(b).unwrap();
        // Both frames pinned: a third page has nowhere to live.
        let c = pool.alloc_page();
        assert!(matches!(c, Err(Error::Io(_))), "exhausted pool reported");
        pool.unpin(b);
        let c = pool.alloc_page().unwrap();
        pool.with_page(c, |_| ()).unwrap();
        // `a` is still resident and pinned.
        pool.with_page_mut(a, 0, |p| {
            p.insert(b"kept").unwrap();
        })
        .unwrap();
        pool.unpin(a);
    }

    /// Append one log record and return its LSN (not yet durable).
    fn logged_change(wal: &Wal) -> u64 {
        wal.append(&crate::wal::WalRecord::Insert {
            rel: crate::schema::RelId(0),
            tuple: crate::tuple![1],
        })
        .unwrap()
    }

    /// A dirty frame ahead of the durable LSN is passed over while a
    /// clean frame can be evicted: faults through the other frames pay
    /// no log sync and write nothing, and the dirty page stays resident.
    #[test]
    fn clean_frames_are_evicted_before_dirty_ones() {
        let stats = Stats::new();
        let (pool, wal) = pool_at("cleanfirst", 3, stats.clone());
        let pids: Vec<PageId> = (0..11).map(|_| pool.alloc_page().unwrap()).collect();
        pool.flush_all().unwrap();
        let lsn = logged_change(&wal);
        let durable = wal.durable_lsn();
        assert!(durable < lsn);
        pool.with_page_mut(pids[0], lsn, |p| {
            p.insert(b"dirty").unwrap();
        })
        .unwrap();
        let before = stats.snapshot();
        for &pid in &pids[1..] {
            pool.with_page(pid, |_| ()).unwrap();
        }
        let d = stats.snapshot().since(&before);
        assert_eq!(d.page_reads, 10, "every other page faulted in");
        assert_eq!(d.wal_syncs, 0, "no log sync for a clean victim");
        assert_eq!(d.page_writes, 0, "no dirty frame written");
        assert_eq!(wal.durable_lsn(), durable);

        let before = stats.snapshot();
        let kept = pool
            .with_page(pids[0], |p| p.record(0).unwrap() == b"dirty")
            .unwrap();
        assert!(kept);
        let d = stats.snapshot().since(&before);
        assert_eq!((d.pool_hits, d.page_reads), (1, 0), "still resident");
    }

    /// With every frame dirty ahead of the log, one fault makes one log
    /// sync that covers a write-back of every dirty frame.
    #[test]
    fn one_log_sync_covers_a_batch_write_back() {
        let stats = Stats::new();
        let (pool, wal) = pool_at("batch", 4, stats.clone());
        let pids: Vec<PageId> = (0..4).map(|_| pool.alloc_page().unwrap()).collect();
        let lsns: Vec<u64> = pids
            .iter()
            .map(|&pid| {
                let lsn = logged_change(&wal);
                pool.with_page_mut(pid, lsn, |p| {
                    p.insert(&lsn.to_le_bytes()).unwrap();
                })
                .unwrap();
                lsn
            })
            .collect();
        let before = stats.snapshot();
        pool.alloc_page().unwrap();
        let d = stats.snapshot().since(&before);
        assert_eq!(d.wal_syncs, 1, "one sync for the whole batch");
        assert_eq!(d.page_writes, 4, "every dirty frame written");
        assert_eq!(d.pool_evictions, 1);
        for &lsn in &lsns {
            assert!(wal.durable_lsn() >= lsn, "written page {lsn} is covered");
        }

        // Only the page the fault allocated is left dirty.
        let before = stats.snapshot();
        pool.flush_all().unwrap();
        let d = stats.snapshot().since(&before);
        assert_eq!((d.page_writes, d.wal_syncs), (1, 0));
        for (&pid, &lsn) in pids.iter().zip(&lsns) {
            let same = pool
                .with_page(pid, |p| p.record(0).unwrap() == lsn.to_le_bytes())
                .unwrap();
            assert!(same, "page {pid} reads back its change");
        }
    }

    #[test]
    fn dirty_page_flush_is_gated_on_wal_durability() {
        let stats = Stats::new();
        let (pool, wal) = pool_at("walgate", 1, stats.clone());
        let lsn = wal
            .append(&crate::wal::WalRecord::Insert {
                rel: crate::schema::RelId(0),
                tuple: crate::tuple![1],
            })
            .unwrap();
        assert!(wal.durable_lsn() < lsn);
        let a = pool.alloc_page().unwrap();
        pool.with_page_mut(a, lsn, |p| {
            p.insert(b"x").unwrap();
        })
        .unwrap();
        // Evicting `a` (by touching a second page) must first make the
        // WAL durable through `lsn`.
        let b = pool.alloc_page().unwrap();
        pool.with_page(b, |_| ()).unwrap();
        assert!(
            wal.durable_lsn() >= lsn,
            "dirty page reached disk before its log record was durable"
        );
    }

    #[test]
    fn flush_all_clears_dirty_frames() {
        let stats = Stats::new();
        let (pool, _) = pool_at("flush", 4, stats.clone());
        let a = pool.alloc_page().unwrap();
        pool.with_page_mut(a, 3, |p| {
            p.insert(b"abc").unwrap();
        })
        .unwrap();
        pool.flush_all().unwrap();
        let w = stats.snapshot().page_writes;
        assert!(w >= 1);
        // Second flush writes nothing new.
        pool.flush_all().unwrap();
        assert_eq!(stats.snapshot().page_writes, w);
    }
}
