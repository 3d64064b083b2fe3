//! Fixed-size slotted heap pages.
//!
//! The paper's §3.2 premise — working memory "resides on secondary
//! storage" — becomes literal here: tuples live as records on 4 KiB
//! pages, managed by the file-backed [`crate::pool`]. Layout is the
//! classic slotted page:
//!
//! ```text
//! +------ header (8 B) ------+--- records grow up --->
//! | nrecs u16 | free u16 | 4 | rec rec rec ...
//! +--------------------------+
//!                       ... free space ...
//!            <--- directory grows down | (off u16, len u16) per slot |
//! ```
//!
//! Directory entries are never renumbered — a record's slot index is
//! referenced externally (by the relation's slot directory), so deletes
//! tombstone the entry (`len == 0`) and compaction moves payloads while
//! leaving indices stable. The page file is swap, not a durable image
//! (recovery rebuilds it from checkpoint + log), so a page carries no LSN.

use crate::error::{Error, Result};

/// Page size in bytes. 4 KiB matches the classic DBMS unit and keeps the
/// forced-eviction bench configurations small.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of header: record count (2) + free-space start (2) + 4 spare.
pub const PAGE_HEADER: usize = 8;

/// Bytes per directory entry: offset (2) + length (2).
const DIR_ENTRY: usize = 4;

/// Largest payload a single record may carry (one entry, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - PAGE_HEADER - DIR_ENTRY;

/// Identifies a page within the page file.
pub type PageId = u32;

/// One fixed-size page image. The buffer pool allocates one per frame and
/// reuses it for every page the frame holds, so there is no `Clone`.
pub struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("nrecs", &self.nrecs())
            .field("free_bytes", &self.free_bytes())
            .finish()
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut page = Page {
            bytes: Box::new([0u8; PAGE_SIZE]),
        };
        page.reset();
        page
    }

    /// Make this buffer a fresh, empty page in place.
    pub fn reset(&mut self) {
        self.bytes.fill(0);
        self.set_free_start(PAGE_HEADER as u16);
    }

    /// The raw image, for writing to disk.
    pub fn as_bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.bytes
    }

    /// The raw image, for reading an on-disk page into this buffer.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.bytes
    }

    /// Number of directory entries (live and dead).
    pub fn nrecs(&self) -> u16 {
        u16::from_le_bytes(self.bytes[0..2].try_into().unwrap())
    }

    fn set_nrecs(&mut self, n: u16) {
        self.bytes[0..2].copy_from_slice(&n.to_le_bytes());
    }

    /// First free byte past the record area.
    fn free_start(&self) -> u16 {
        u16::from_le_bytes(self.bytes[2..4].try_into().unwrap())
    }

    fn set_free_start(&mut self, at: u16) {
        self.bytes[2..4].copy_from_slice(&at.to_le_bytes());
    }

    fn dir_pos(&self, idx: u16) -> usize {
        PAGE_SIZE - DIR_ENTRY * (idx as usize + 1)
    }

    fn dir_entry(&self, idx: u16) -> (u16, u16) {
        let at = self.dir_pos(idx);
        (
            u16::from_le_bytes(self.bytes[at..at + 2].try_into().unwrap()),
            u16::from_le_bytes(self.bytes[at + 2..at + 4].try_into().unwrap()),
        )
    }

    fn set_dir_entry(&mut self, idx: u16, off: u16, len: u16) {
        let at = self.dir_pos(idx);
        self.bytes[at..at + 2].copy_from_slice(&off.to_le_bytes());
        self.bytes[at + 2..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Contiguous free bytes between the record area and the directory.
    pub fn free_bytes(&self) -> usize {
        let dir_top = PAGE_SIZE - DIR_ENTRY * self.nrecs() as usize;
        dir_top - self.free_start() as usize
    }

    /// The largest record plus directory entry an insert can take: the
    /// free and compactable dead bytes, and an entry's worth more when a
    /// dead directory entry is there to reuse. One directory pass.
    pub fn room(&self) -> usize {
        let (mut live, mut dead_entry) = (0, false);
        for i in 0..self.nrecs() {
            let len = self.dir_entry(i).1 as usize;
            live += len;
            dead_entry |= len == 0;
        }
        let dead = self.free_start() as usize - PAGE_HEADER - live;
        self.free_bytes() + dead + if dead_entry { DIR_ENTRY } else { 0 }
    }

    /// Bytes reclaimable by [`Page::compact`] (payloads of dead entries).
    fn dead_bytes(&self) -> usize {
        let mut live = 0usize;
        for i in 0..self.nrecs() {
            live += self.dir_entry(i).1 as usize;
        }
        self.free_start() as usize - PAGE_HEADER - live
    }

    /// Find a reusable (dead) directory entry.
    fn dead_slot(&self) -> Option<u16> {
        (0..self.nrecs()).find(|&i| self.dir_entry(i).1 == 0)
    }

    /// Slide live payloads down over dead space. Directory indices are
    /// external references and survive unchanged; only offsets move.
    fn compact(&mut self) {
        let mut entries: Vec<(u16, u16, u16)> = (0..self.nrecs())
            .map(|i| {
                let (off, len) = self.dir_entry(i);
                (i, off, len)
            })
            .filter(|&(_, _, len)| len > 0)
            .collect();
        entries.sort_by_key(|&(_, off, _)| off);
        let mut at = PAGE_HEADER;
        for (idx, off, len) in entries {
            if off as usize != at {
                self.bytes
                    .copy_within(off as usize..off as usize + len as usize, at);
                self.set_dir_entry(idx, at as u16, len);
            }
            at += len as usize;
        }
        self.set_free_start(at as u16);
    }

    /// Insert a record, returning its stable slot index, or `None` when
    /// the page cannot fit it even after compaction.
    pub fn insert(&mut self, rec: &[u8]) -> Option<u16> {
        if rec.is_empty() || rec.len() > MAX_RECORD {
            return None;
        }
        let reuse = self.dead_slot();
        let need = rec.len() + if reuse.is_some() { 0 } else { DIR_ENTRY };
        if self.free_bytes() < need {
            if self.free_bytes() + self.dead_bytes() < need {
                return None;
            }
            self.compact();
        }
        let off = self.free_start();
        self.bytes[off as usize..off as usize + rec.len()].copy_from_slice(rec);
        self.set_free_start(off + rec.len() as u16);
        let idx = match reuse {
            Some(i) => i,
            None => {
                let i = self.nrecs();
                self.set_nrecs(i + 1);
                i
            }
        };
        self.set_dir_entry(idx, off, rec.len() as u16);
        Some(idx)
    }

    /// Tombstone a record. The slot index stays allocated for reuse.
    pub fn delete(&mut self, idx: u16) -> Result<()> {
        if idx >= self.nrecs() || self.dir_entry(idx).1 == 0 {
            return Err(Error::Corrupt("page delete of dead or missing record"));
        }
        let (off, _) = self.dir_entry(idx);
        self.set_dir_entry(idx, off, 0);
        Ok(())
    }

    /// Read a live record's payload.
    pub fn record(&self, idx: u16) -> Result<&[u8]> {
        if idx >= self.nrecs() {
            return Err(Error::Corrupt("page record index out of range"));
        }
        let (off, len) = self.dir_entry(idx);
        if len == 0 {
            return Err(Error::Corrupt("page record is dead"));
        }
        let (off, len) = (off as usize, len as usize);
        if off < PAGE_HEADER || off + len > PAGE_SIZE {
            return Err(Error::Corrupt("page record out of bounds"));
        }
        Ok(&self.bytes[off..off + len])
    }

    /// Number of live records on the page.
    pub fn live_records(&self) -> usize {
        (0..self.nrecs())
            .filter(|&i| self.dir_entry(i).1 > 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_read_delete_roundtrip() {
        let mut p = Page::new();
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"bravo-longer").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.record(a).unwrap(), b"alpha");
        assert_eq!(p.record(b).unwrap(), b"bravo-longer");
        assert_eq!(p.live_records(), 2);
        p.delete(a).unwrap();
        assert!(p.record(a).is_err());
        assert_eq!(p.live_records(), 1);
        // Slot index is reused, payload differs.
        let c = p.insert(b"charlie").unwrap();
        assert_eq!(c, a);
        assert_eq!(p.record(c).unwrap(), b"charlie");
        assert!(p.delete(99).is_err());
    }

    #[test]
    fn fills_compacts_and_keeps_indices_stable() {
        let mut p = Page::new();
        let mut slots = Vec::new();
        // Fill the page with 100-byte records.
        while let Some(idx) = p.insert(&[7u8; 100]) {
            slots.push(idx);
        }
        assert!(slots.len() > 30, "page should hold dozens of records");
        // Free every other record, then insert larger records into the
        // holes: forces compaction; surviving indices must still resolve.
        for (i, &idx) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(idx).unwrap();
            }
        }
        let survivors: Vec<u16> = slots
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, &s)| s)
            .collect();
        let mut added = 0;
        while p.insert(&[9u8; 150]).is_some() {
            added += 1;
        }
        assert!(added > 0, "compaction should reclaim the holes");
        for &idx in &survivors {
            assert_eq!(p.record(idx).unwrap(), &[7u8; 100][..]);
        }
    }

    #[test]
    fn oversized_and_empty_records_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&[]).is_none());
        assert!(p.insert(&vec![0u8; MAX_RECORD + 1]).is_none());
        assert!(p.insert(&vec![0u8; MAX_RECORD]).is_some());
        assert_eq!(p.free_bytes(), 0);
    }

    #[test]
    fn page_roundtrips_through_raw_image() {
        let mut p = Page::new();
        let idx = p.insert(b"x").unwrap();
        let mut q = Page::new();
        q.as_bytes_mut().copy_from_slice(p.as_bytes());
        assert_eq!(q.record(idx).unwrap(), b"x");
        // A reset buffer is an empty page again.
        q.reset();
        assert_eq!(q.nrecs(), 0);
        assert_eq!(q.free_bytes(), PAGE_SIZE - PAGE_HEADER);
    }
}
