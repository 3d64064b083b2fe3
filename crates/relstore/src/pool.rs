//! File-backed page manager and buffer pool.
//!
//! [`PageManager`] owns the page file: allocate page ids and move
//! whole [`Page`] images between memory and disk. [`BufferPool`] caches a
//! bounded number of frames over it with pin counts, dirty tracking, and
//! clean-first Clock (second-chance) eviction — sized smaller than the
//! working set it makes the paper's I/O story measurable (`page_reads`,
//! `page_writes`, `pool_hits`, `pool_evictions` in [`Stats`]).
//!
//! **The page file is swap.** [`PageManager::create`] truncates it on
//! every open and recovery rebuilds it from the checkpoint and the log,
//! so a page write needs no ordering against the log and nothing here
//! syncs either file. Eviction takes a clean frame when there is one;
//! when no clean victim is left, it writes every dirty frame back in one
//! batch, the one place a page is written.
//!
//! Lock order is relation latch → pool mutex; the pool never calls back
//! into relations.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt as _;
use std::path::Path;

use parking_lot::Mutex;

use crate::error::{Error, Result};
use crate::page::{Page, PageId, PAGE_SIZE};
use crate::stats::Stats;

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
    /// Pick a victim frame, strictly clean first. The Clock sweep skips
    /// pinned frames and clears each reference bit once; after that the
    /// first unreferenced clean frame is the victim and dirty frames are
    /// passed over. Only when two sweeps find no clean victim does the
    /// pool write every dirty frame back ([`PoolInner::write_back`])
    /// before a last sweep. On return the frame is mapped to no page id.
    fn evict_victim(&mut self, stats: &Stats) -> Result<usize> {
        let victim = match self.sweep() {
            Some(i) => i,
            None => {
                self.write_back(stats)?;
                self.sweep()
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
    /// victim.
    fn sweep(&mut self) -> Option<usize> {
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
            if !frame.dirty {
                return Some(i);
            }
        }
        None
    }

    /// Write every dirty frame back from its own buffer and mark it clean.
    /// A pin only keeps a frame mapped, so pinned frames are written too.
    /// A frame whose write fails stays dirty and mapped.
    fn write_back(&mut self, stats: &Stats) -> Result<()> {
        for frame in self.frames.iter_mut().filter(|f| f.dirty) {
            self.mgr.write_page(frame.pid, &frame.page)?;
            frame.dirty = false;
            stats.page_write();
        }
        Ok(())
    }

    /// Return the frame index for `pid`, faulting it in if needed. `load`
    /// says whether a miss reads from disk (false for brand-new pages).
    /// Once the pool is full a miss reuses the victim's buffer: one
    /// positioned read into it, or an in-place reset for a new page. If
    /// that read fails the frame stays mapped to no page id.
    fn frame_for(&mut self, pid: PageId, load: bool, stats: &Stats) -> Result<usize> {
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
            self.evict_victim(stats)?
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

/// A bounded cache of page frames over a [`PageManager`].
pub struct BufferPool {
    inner: Mutex<PoolInner>,
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
    /// Create a pool of `cap` frames over a fresh page file at `path`.
    pub fn create(path: &Path, cap: usize, stats: Stats) -> Result<Self> {
        Ok(BufferPool {
            inner: Mutex::new(PoolInner {
                mgr: PageManager::create(path)?,
                frames: Vec::new(),
                map: HashMap::new(),
                clock: 0,
                cap: cap.max(1),
            }),
            stats,
        })
    }

    /// Allocate a fresh page, resident and dirty (it has never been on
    /// disk, so it must not be dropped clean).
    pub fn alloc_page(&self) -> Result<PageId> {
        let mut g = self.inner.lock();
        let pid = g.mgr.allocate();
        let i = g.frame_for(pid, false, &self.stats)?;
        g.frames[i].dirty = true;
        Ok(pid)
    }

    /// Pin `pid` resident. While pinned the frame cannot be evicted; pair
    /// with [`BufferPool::unpin`].
    pub fn pin(&self, pid: PageId) -> Result<()> {
        let mut g = self.inner.lock();
        let i = g.frame_for(pid, true, &self.stats)?;
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
        let i = g.frame_for(pid, true, &self.stats)?;
        Ok(f(&g.frames[i].page))
    }

    /// Run `f` over the page mutably, marking the frame dirty.
    pub fn with_page_mut<R>(&self, pid: PageId, f: impl FnOnce(&mut Page) -> R) -> Result<R> {
        let mut g = self.inner.lock();
        let i = g.frame_for(pid, true, &self.stats)?;
        let frame = &mut g.frames[i];
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The directory the test pools' files live in.
    fn pool_dir() -> std::path::PathBuf {
        std::env::temp_dir().join(format!("relstore-pool-{}", std::process::id()))
    }

    /// A pool over `{name}.pages`.
    fn pool_at(name: &str, cap: usize, stats: Stats) -> BufferPool {
        let dir = pool_dir();
        std::fs::create_dir_all(&dir).unwrap();
        BufferPool::create(&dir.join(format!("{name}.pages")), cap, stats).unwrap()
    }

    /// Write every dirty frame back, as a fault with no clean victim does.
    fn write_back(pool: &BufferPool) {
        pool.inner.lock().write_back(&pool.stats).unwrap();
    }

    #[test]
    fn pages_survive_eviction_roundtrip() {
        let stats = Stats::new();
        let pool = pool_at("roundtrip", 2, stats.clone());
        // Three pages through a two-frame pool forces eviction.
        let pids: Vec<PageId> = (0..3).map(|_| pool.alloc_page().unwrap()).collect();
        for (n, &pid) in pids.iter().enumerate() {
            pool.with_page_mut(pid, |p| p.insert(&[n as u8; 64]).unwrap())
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
        let pool = pool_at("failedread", 2, stats.clone());
        let pids: Vec<PageId> = (0..3).map(|_| pool.alloc_page().unwrap()).collect();
        for (n, &pid) in pids.iter().enumerate() {
            pool.with_page_mut(pid, |p| p.insert(&[n as u8; 64]).unwrap())
                .unwrap();
        }
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
        let pool = pool_at("inplace", 1, Stats::new());
        let a = pool.alloc_page().unwrap();
        pool.with_page_mut(a, |p| p.insert(b"a").unwrap()).unwrap();
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
        let pool = pool_at("pinned", 2, Stats::new());
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
        pool.with_page_mut(a, |p| {
            p.insert(b"kept").unwrap();
        })
        .unwrap();
        pool.unpin(a);
    }

    /// A dirty frame is passed over while a clean frame can be evicted:
    /// faults through the other frames write nothing, and the dirty page
    /// stays resident.
    #[test]
    fn clean_frames_are_evicted_before_dirty_ones() {
        let stats = Stats::new();
        let pool = pool_at("cleanfirst", 3, stats.clone());
        let pids: Vec<PageId> = (0..11).map(|_| pool.alloc_page().unwrap()).collect();
        write_back(&pool);
        pool.with_page_mut(pids[0], |p| {
            p.insert(b"dirty").unwrap();
        })
        .unwrap();
        let before = stats.snapshot();
        for &pid in &pids[1..] {
            pool.with_page(pid, |_| ()).unwrap();
        }
        let d = stats.snapshot().since(&before);
        assert_eq!(d.page_reads, 10, "every other page faulted in");
        assert_eq!(d.page_writes, 0, "no dirty frame written");

        let before = stats.snapshot();
        let kept = pool
            .with_page(pids[0], |p| p.record(0).unwrap() == b"dirty")
            .unwrap();
        assert!(kept);
        let d = stats.snapshot().since(&before);
        assert_eq!((d.pool_hits, d.page_reads), (1, 0), "still resident");
    }

    /// With every frame dirty, one fault writes every dirty frame back in
    /// one batch, and each page reads its change back afterwards.
    #[test]
    fn no_clean_victim_writes_every_dirty_frame_back() {
        let stats = Stats::new();
        let pool = pool_at("batch", 4, stats.clone());
        let pids: Vec<PageId> = (0..4).map(|_| pool.alloc_page().unwrap()).collect();
        for (n, &pid) in pids.iter().enumerate() {
            pool.with_page_mut(pid, |p| p.insert(&[n as u8; 8]).unwrap())
                .unwrap();
        }
        let before = stats.snapshot();
        pool.alloc_page().unwrap();
        let d = stats.snapshot().since(&before);
        assert_eq!(d.page_writes, 4, "every dirty frame written");
        assert_eq!(d.pool_evictions, 1);
        for (n, &pid) in pids.iter().enumerate() {
            let same = pool
                .with_page(pid, |p| p.record(0).unwrap() == [n as u8; 8])
                .unwrap();
            assert!(same, "page {pid} reads back its change");
        }
    }
}
