//! The redo log.
//!
//! A persistent working memory needs more than snapshots: the paper's
//! §3.2 "persistent WM" claim implies surviving a crash between
//! checkpoints. A paged database ([`Database::new_paged`]) logs every
//! committed logical change (relation creation, index creation, tuple
//! insert/delete) to its `wal.log`, and [`Database::open_paged`] — the
//! one recovery path — replays the log on top of the last checkpoint
//! snapshot. The log holds committed work only: a transaction buffers its
//! records and appends them at commit as one frame, and an abort appends
//! nothing. A write outside a transaction is its own frame.
//!
//! A frame is `[lsn u64][payload len u32][crc32 u32][payload]`, with the
//! checksum covering the LSN, length, and payload; the payload is one or
//! more records back to back. A one-record frame is byte for byte the
//! frame of a log that framed every record alone, so such a log still
//! opens. The frame makes two crash-safety properties checkable:
//!
//! * **Torn tails are tolerated.** A crash mid-append leaves a partial
//!   final frame; [`Wal::decode_prefix`] replays every whole frame and
//!   reports how many trailing bytes were dropped instead of rejecting
//!   the entire log.
//! * **A transaction is all or nothing.** Its records share one frame,
//!   so replay sees all of them or, past a torn tail, none.
//!
//! The log is a file fixed at construction ([`Wal::create`] /
//! [`Wal::open`]). Memory holds only the frames not yet written:
//! [`Wal::append`] writes them, without fsync, once they pass
//! [`WRITE_BEHIND`] bytes, and [`Wal::sync`] writes the rest and fsyncs.
//! [`Wal::truncate_through`] drops the prefix a checkpoint covers by an
//! atomic rewrite.
//!
//! Deletions are logged *by content*, matching OPS5 `remove` semantics —
//! tuple ids are physical slot handles and not stable across replay.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;

use crate::codec::{get_str, get_tuple, put_str, put_tuple, Crc32};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::schema::{RelId, Schema};
use crate::stats::Stats;
use crate::tuple::Tuple;

const REC_CREATE: u8 = 1;
const REC_HASH_INDEX: u8 = 2;
const REC_ORD_INDEX: u8 = 3;
const REC_INSERT: u8 = 4;
const REC_DELETE: u8 = 5;

/// Size of the frame header: LSN (8) + payload length (4) + CRC-32 (4).
pub const FRAME_HEADER: usize = 16;

/// Unwritten bytes past which [`Wal::append`] writes the buffered frames
/// to the file (without fsync), so memory holds a bounded tail of the log.
pub const WRITE_BEHIND: usize = 64 << 10;

/// Sanity bound on a single frame's payload; a length field above this
/// is treated as corruption rather than attempted as an allocation.
const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// A logical change, as logged.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A relation was created.
    CreateRelation { name: String, attrs: Vec<String> },
    /// A hash index was created.
    CreateHashIndex { rel: RelId, attr: usize },
    /// An ordered index was created.
    CreateOrdIndex { rel: RelId, attr: usize },
    /// Insert the tuple.
    Insert { rel: RelId, tuple: Tuple },
    /// Delete one tuple equal to `tuple` (multiset semantics).
    Delete { rel: RelId, tuple: Tuple },
}

impl WalRecord {
    fn encode(&self, buf: &mut BytesMut) -> Result<()> {
        match self {
            WalRecord::CreateRelation { name, attrs } => {
                buf.put_u8(REC_CREATE);
                put_str(buf, name)?;
                buf.put_u32_le(attrs.len() as u32);
                for a in attrs {
                    put_str(buf, a)?;
                }
            }
            WalRecord::CreateHashIndex { rel, attr } => {
                buf.put_u8(REC_HASH_INDEX);
                buf.put_u32_le(rel.0);
                buf.put_u32_le(*attr as u32);
            }
            WalRecord::CreateOrdIndex { rel, attr } => {
                buf.put_u8(REC_ORD_INDEX);
                buf.put_u32_le(rel.0);
                buf.put_u32_le(*attr as u32);
            }
            WalRecord::Insert { rel, tuple } => {
                buf.put_u8(REC_INSERT);
                buf.put_u32_le(rel.0);
                put_tuple(buf, tuple)?;
            }
            WalRecord::Delete { rel, tuple } => {
                buf.put_u8(REC_DELETE);
                buf.put_u32_le(rel.0);
                put_tuple(buf, tuple)?;
            }
        }
        Ok(())
    }

    fn decode(buf: &mut Bytes) -> Result<WalRecord> {
        if !buf.has_remaining() {
            return Err(Error::Corrupt("wal record tag"));
        }
        let tag = buf.get_u8();
        let rec = match tag {
            REC_CREATE => {
                let name = get_str(buf)?;
                if buf.remaining() < 4 {
                    return Err(Error::Corrupt("wal attr count"));
                }
                let n = buf.get_u32_le() as usize;
                let mut attrs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    attrs.push(get_str(buf)?);
                }
                WalRecord::CreateRelation { name, attrs }
            }
            REC_HASH_INDEX | REC_ORD_INDEX => {
                if buf.remaining() < 8 {
                    return Err(Error::Corrupt("wal index record"));
                }
                let rel = RelId(buf.get_u32_le());
                let attr = buf.get_u32_le() as usize;
                if tag == REC_HASH_INDEX {
                    WalRecord::CreateHashIndex { rel, attr }
                } else {
                    WalRecord::CreateOrdIndex { rel, attr }
                }
            }
            REC_INSERT | REC_DELETE => {
                if buf.remaining() < 4 {
                    return Err(Error::Corrupt("wal rel id"));
                }
                let rel = RelId(buf.get_u32_le());
                let tuple = get_tuple(buf)?;
                if tag == REC_INSERT {
                    WalRecord::Insert { rel, tuple }
                } else {
                    WalRecord::Delete { rel, tuple }
                }
            }
            _ => return Err(Error::Corrupt("unknown wal record")),
        };
        Ok(rec)
    }
}

/// What [`Wal::open`] found on disk: the log handle, the decoded records
/// of the valid prefix (in LSN order, for replay), and the torn-tail
/// report if the file ended mid-frame.
pub type WalOpened = (Wal, Vec<(u64, WalRecord)>, Option<TornTail>);

/// Report of a torn tail found while decoding a log: the log was valid up
/// to `valid_bytes` and the remaining `dropped_bytes` were discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Length of the valid prefix, in bytes.
    pub valid_bytes: usize,
    /// Bytes past the valid prefix that were dropped.
    pub dropped_bytes: usize,
    /// What the first invalid frame failed on.
    pub reason: &'static str,
}

/// The LSN and payload length in the header at the start of `frame`.
fn frame_header(frame: &[u8]) -> (u64, usize) {
    let lsn = u64::from_le_bytes(frame[..8].try_into().expect("8-byte lsn"));
    let len = u32::from_le_bytes(frame[8..12].try_into().expect("4-byte length"));
    (lsn, len as usize)
}

/// Fsync the directory holding `path`, so a rename into it survives a
/// crash.
pub(crate) fn sync_dir(path: &Path) -> Result<()> {
    let dir = path
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[derive(Debug)]
struct WalInner {
    /// Frames appended but not yet written: the only part of the log
    /// held in memory.
    buf: BytesMut,
    /// Bytes of `file` written by successful writes and rewrites. A failed
    /// write may leave a partial suffix past it, which a rewrite ignores.
    file_len: u64,
    /// LSN the next append will receive. Starts at 1 and is monotonic
    /// across truncations.
    next_lsn: u64,
    /// LSN of the most recent append (0 before any).
    last_lsn: u64,
    /// Highest LSN known durable (written and fsynced).
    durable_lsn: u64,
    file: File,
    /// Path of `file`, for the atomic rewrite of a truncation.
    path: PathBuf,
    /// Set when a write/fsync failed. After a failed fsync the kernel
    /// may silently drop the dirty pages, so a bare retry could report
    /// durability the device never provided (the "fsyncgate" pattern);
    /// a poisoned log refuses further durability claims until it is
    /// wholly rewritten ([`Wal::truncate_through`]) or reopened.
    poisoned: bool,
}

/// An append-only, file-backed log of logical changes.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
    /// Where each write + fsync of appended frames is counted.
    stats: Stats,
}

impl Wal {
    fn from_file(file: File, file_len: u64, next_lsn: u64, path: &Path) -> Self {
        Wal {
            stats: Stats::new(),
            inner: Mutex::new(WalInner {
                buf: BytesMut::new(),
                file_len,
                next_lsn,
                last_lsn: next_lsn - 1,
                durable_lsn: next_lsn - 1,
                file,
                path: path.to_path_buf(),
                poisoned: false,
            }),
        }
    }

    /// Create a fresh log file, truncating any existing file.
    pub fn create(path: &Path) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.sync_data()?;
        Ok(Wal::from_file(file, 0, 1, path))
    }

    /// Open an existing log file (creating it if absent), decode its
    /// valid prefix, and physically truncate any torn tail so new appends
    /// follow the last whole record.
    ///
    /// Returns the records of the valid prefix (for replay) and the torn
    /// tail report, if one was found.
    pub fn open(path: &Path) -> Result<WalOpened> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;
        let (records, torn) = Wal::decode_prefix(&raw);
        let valid = torn.map_or(raw.len(), |t| t.valid_bytes) as u64;
        if valid < raw.len() as u64 {
            file.set_len(valid)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid))?;
        let next_lsn = records.last().map_or(1, |(lsn, _)| lsn + 1);
        Ok((Wal::from_file(file, valid, next_lsn, path), records, torn))
    }

    /// Count this log's syncs in `stats` (a database's counter set)
    /// rather than in a private one.
    pub(crate) fn with_stats(mut self, stats: Stats) -> Self {
        self.stats = stats;
        self
    }

    /// Append a record to the log as a frame of its own and return its
    /// LSN. The record becomes durable at the next [`Wal::sync`].
    pub fn append(&self, rec: &WalRecord) -> Result<u64> {
        let mut guard = self.inner.lock();
        let g = &mut *guard;
        let lsn = Wal::push_frame(g, std::slice::from_ref(rec))?;
        if g.buf.len() >= WRITE_BEHIND && !g.poisoned {
            // Written but not fsynced: a later sync covers these bytes. A
            // failed write keeps them buffered and poisons the log, so the
            // next sync reports it.
            g.poisoned = g.file.write_all(g.buf.as_ref()).is_err();
            if !g.poisoned {
                g.file_len += g.buf.len() as u64;
                g.buf.clear();
            }
        }
        Ok(lsn)
    }

    /// Frame `records`, encoded back to back, into the unwritten buffer
    /// under the next LSN. A record that cannot be encoded pushes nothing.
    fn push_frame(g: &mut WalInner, records: &[WalRecord]) -> Result<u64> {
        let mut payload = BytesMut::new();
        for rec in records {
            rec.encode(&mut payload)?;
        }
        let payload = payload.as_ref();
        let lsn = g.next_lsn;
        let mut hdr = [0u8; 12];
        hdr[..8].copy_from_slice(&lsn.to_le_bytes());
        hdr[8..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&hdr);
        crc.update(payload);
        g.buf.put_slice(&hdr);
        g.buf.put_u32_le(crc.finish());
        g.buf.put_slice(payload);
        g.next_lsn += 1;
        g.last_lsn = lsn;
        Ok(lsn)
    }

    /// Append `records` as one frame and make it durable: a
    /// transaction's commit. If the write or fsync fails, the frame is
    /// taken back out of the unwritten buffer before the error returns, so
    /// no later rewrite ([`Wal::truncate_through`]) can make the failed
    /// commit durable.
    pub(crate) fn commit(&self, records: &[WalRecord]) -> Result<()> {
        let mut g = self.inner.lock();
        let (mark, last) = (g.buf.len(), g.last_lsn);
        let lsn = Wal::push_frame(&mut g, records)?;
        self.sync_locked(&mut g).inspect_err(|_| {
            g.buf.truncate(mark);
            g.next_lsn = lsn;
            g.last_lsn = last;
        })
    }

    /// Write the unwritten frames and fsync, unless every appended record
    /// is already durable. A poisoned log refuses first, whatever is
    /// pending.
    fn sync_locked(&self, g: &mut WalInner) -> Result<()> {
        if g.poisoned {
            return Err(Error::Io(
                "wal poisoned by an earlier sync failure: durability unknown".into(),
            ));
        }
        if g.durable_lsn >= g.last_lsn {
            return Ok(());
        }
        if let Err(e) = g
            .file
            .write_all(g.buf.as_ref())
            .and_then(|()| g.file.sync_data())
        {
            // The kernel may already have discarded this write's dirty
            // pages while clearing the error, so no retry can be
            // trusted — poison the handle instead.
            g.poisoned = true;
            return Err(e.into());
        }
        g.file_len += g.buf.len() as u64;
        g.buf.clear();
        g.durable_lsn = g.last_lsn;
        self.stats.wal_sync();
        Ok(())
    }

    /// Make every appended record durable: write the unwritten frames to
    /// the file and fsync. O(new bytes), not O(log). A no-op once every
    /// record is durable.
    pub fn sync(&self) -> Result<()> {
        self.sync_locked(&mut self.inner.lock())
    }

    /// LSN of the most recent append (0 before any).
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().last_lsn
    }

    /// Raise the LSN sequence so the next append is at least `floor + 1`.
    /// Used after recovery when a checkpoint snapshot's watermark exceeds
    /// every surviving log record's LSN — the records at or below the
    /// floor live on in the snapshot and count as durable.
    pub fn bump_lsn(&self, floor: u64) {
        let mut g = self.inner.lock();
        if g.next_lsn <= floor {
            g.next_lsn = floor + 1;
            g.last_lsn = floor;
            g.durable_lsn = floor;
        }
    }

    /// Drop every record with `lsn <= watermark` — superseded by a
    /// checkpoint snapshot carrying that watermark — and keep the suffix
    /// (records committed while the checkpoint was writing its files).
    ///
    /// The suffix, read back from the file and followed by the unwritten
    /// frames, goes to a sibling temp file (fsynced) that is renamed over
    /// the log, and the directory is fsynced: a crash leaves either the
    /// old full log (recovery skips the prefix via the snapshot's
    /// watermark) or the new suffix — never a partially truncated file.
    /// Because the whole log is rewritten and fsynced, a successful
    /// rewrite also clears a poisoned handle. LSNs keep counting.
    pub fn truncate_through(&self, watermark: u64) -> Result<()> {
        let mut g = self.inner.lock();
        match Wal::rewrite_past(&g, watermark) {
            Ok((file, file_len)) => {
                g.file = file;
                g.file_len = file_len;
                g.buf.clear();
                g.durable_lsn = g.last_lsn;
                g.poisoned = false;
                Ok(())
            }
            Err(e) => {
                g.poisoned = true;
                Err(e)
            }
        }
    }

    /// The rewrite of [`Wal::truncate_through`]; returns the new handle,
    /// positioned at its end, and its length.
    ///
    /// The prefix is read through `g.file`, the inode `file_len` describes,
    /// never through `g.path`: if an earlier rewrite failed after its
    /// rename, the path already holds that rewrite while `file_len` and
    /// `buf` still describe the old inode, and mixing the two would
    /// duplicate frames. Moving the old handle's position is harmless: a
    /// failed rewrite poisons it and a successful one replaces it.
    fn rewrite_past(g: &WalInner, watermark: u64) -> Result<(File, u64)> {
        let mut log = Vec::with_capacity(g.file_len as usize + g.buf.len());
        let mut old = &g.file;
        old.seek(SeekFrom::Start(0))?;
        old.take(g.file_len).read_to_end(&mut log)?;
        log.extend_from_slice(g.buf.as_ref());
        // LSNs are strictly increasing, so the cut is a frame boundary.
        let mut at = 0;
        while at + FRAME_HEADER <= log.len() {
            let (lsn, len) = frame_header(&log[at..]);
            if lsn > watermark {
                break;
            }
            at += FRAME_HEADER + len;
        }
        let kept = &log[at.min(log.len())..];
        let tmp = g.path.with_extension("tmp");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(kept)?;
        file.sync_data()?;
        // The handle follows the inode through the rename.
        std::fs::rename(&tmp, &g.path)?;
        sync_dir(&g.path)?;
        Ok((file, kept.len() as u64))
    }

    /// Decode the valid prefix of a log, tolerating a torn tail: the
    /// records of every whole, checksummed frame are returned, each with
    /// its frame's LSN; the first invalid frame and everything after it
    /// are reported as a [`TornTail`].
    pub fn decode_prefix(bytes: &[u8]) -> (Vec<(u64, WalRecord)>, Option<TornTail>) {
        let mut out = Vec::new();
        let mut at = 0;
        let failed = loop {
            let frame = &bytes[at..];
            if frame.is_empty() {
                break None;
            }
            if frame.len() < FRAME_HEADER {
                break Some("torn frame header");
            }
            let (lsn, len) = frame_header(frame);
            if len > MAX_FRAME_PAYLOAD {
                break Some("frame length over limit");
            }
            if frame.len() - FRAME_HEADER < len {
                break Some("torn frame payload");
            }
            let crc = u32::from_le_bytes(frame[12..16].try_into().expect("4-byte crc"));
            let payload = &frame[FRAME_HEADER..FRAME_HEADER + len];
            let mut check = Crc32::new();
            check.update(&frame[..12]);
            check.update(payload);
            if check.finish() != crc {
                break Some("frame checksum mismatch");
            }
            // One or more records, back to back, filling the payload.
            let mut pb = Bytes::from(payload);
            let mut recs = Vec::new();
            let whole = loop {
                match WalRecord::decode(&mut pb) {
                    Ok(rec) => recs.push((lsn, rec)),
                    Err(_) => break false,
                }
                if !pb.has_remaining() {
                    break true;
                }
            };
            if !whole {
                break Some("frame payload undecodable");
            }
            out.append(&mut recs);
            at += FRAME_HEADER + len;
        };
        let torn = failed.map(|reason| TornTail {
            valid_bytes: at,
            dropped_bytes: bytes.len() - at,
            reason,
        });
        (out, torn)
    }
}

/// Replay one logged record against a database.
pub(crate) fn apply_record(db: &Database, rec: WalRecord) -> Result<()> {
    match rec {
        WalRecord::CreateRelation { name, attrs } => {
            db.create_relation(Schema::new(&name, attrs))?;
        }
        WalRecord::CreateHashIndex { rel, attr } => db.create_hash_index(rel, attr)?,
        WalRecord::CreateOrdIndex { rel, attr } => db.create_ord_index(rel, attr)?,
        WalRecord::Insert { rel, tuple } => {
            db.insert(rel, tuple)?;
        }
        WalRecord::Delete { rel, tuple } => {
            db.delete_equal(rel, &tuple)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::Restriction;
    use crate::tuple;
    use crate::value::Value;

    /// A fresh directory for one test's log files.
    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("relstore-wal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ins(i: i64) -> WalRecord {
        WalRecord::Insert {
            rel: RelId(0),
            tuple: tuple![i],
        }
    }

    /// Log `recs` to a fresh file, syncing after each; returns the file's
    /// bytes and its length after every record.
    fn logged(tag: &str, recs: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
        let dir = tmp_dir(tag);
        let path = dir.join("wal.log");
        let wal = Wal::create(&path).unwrap();
        let mut boundaries = vec![0];
        for r in recs {
            wal.append(r).unwrap();
            wal.sync().unwrap();
            boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (bytes, boundaries)
    }

    fn durable(wal: &Wal) -> u64 {
        wal.inner.lock().durable_lsn
    }

    fn lsns(bytes: &[u8]) -> Vec<u64> {
        let (records, torn) = Wal::decode_prefix(bytes);
        assert!(torn.is_none());
        records.iter().map(|(l, _)| *l).collect()
    }

    #[test]
    fn record_roundtrip() {
        let records = vec![
            WalRecord::CreateRelation {
                name: "Emp".into(),
                attrs: vec!["a".into(), "b".into()],
            },
            WalRecord::CreateHashIndex {
                rel: RelId(0),
                attr: 1,
            },
            WalRecord::CreateOrdIndex {
                rel: RelId(0),
                attr: 0,
            },
            WalRecord::Insert {
                rel: RelId(0),
                tuple: tuple!["Mike", 6000.5],
            },
            WalRecord::Delete {
                rel: RelId(0),
                tuple: tuple![Value::Null, true],
            },
        ];
        let (bytes, _) = logged("roundtrip", &records);
        let (decoded, torn) = Wal::decode_prefix(&bytes);
        assert!(torn.is_none());
        let decoded: Vec<WalRecord> = decoded.into_iter().map(|(_, r)| r).collect();
        assert_eq!(decoded, records);
    }

    #[test]
    fn lsns_are_sequential_and_survive_truncation() {
        let dir = tmp_dir("lsns");
        let wal = Wal::create(&dir.join("wal.log")).unwrap();
        assert_eq!(wal.append(&ins(1)).unwrap(), 1);
        assert_eq!(wal.append(&ins(1)).unwrap(), 2);
        wal.truncate_through(2).unwrap();
        // LSNs keep counting across truncations.
        assert_eq!(wal.append(&ins(1)).unwrap(), 3);
        assert_eq!(durable(&wal), 2);
        wal.sync().unwrap();
        assert_eq!(durable(&wal), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_log_rejected() {
        for bad in [&b"\xFF"[..], b"\x04\x00\x00"] {
            let (records, torn) = Wal::decode_prefix(bad);
            assert!(records.is_empty());
            assert_eq!(torn.unwrap().dropped_bytes, bad.len());
        }
        let (records, torn) = Wal::decode_prefix(&[]);
        assert!(records.is_empty() && torn.is_none());
    }

    #[test]
    fn flipped_bit_caught_by_checksum() {
        let (good, _) = logged(
            "flip",
            &[WalRecord::Insert {
                rel: RelId(0),
                tuple: tuple!["abc", 42],
            }],
        );
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let (records, torn) = Wal::decode_prefix(&bad);
            assert!(records.is_empty(), "flip at {i} produced a record");
            assert!(torn.is_some(), "flip at {i} not reported");
        }
    }

    #[test]
    fn torn_tail_tolerated_at_every_offset() {
        let recs = [
            WalRecord::CreateRelation {
                name: "T".into(),
                attrs: vec!["x".into()],
            },
            ins(1),
            ins(2),
        ];
        let (log, boundaries) = logged("torn", &recs);
        for cut in 0..=log.len() {
            let (records, torn) = Wal::decode_prefix(&log[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(records.len(), whole, "cut at {cut}");
            assert_eq!(torn.is_none(), boundaries.contains(&cut), "cut at {cut}");
            if let Some(t) = torn {
                assert_eq!(t.valid_bytes, boundaries[whole]);
                assert_eq!(t.valid_bytes + t.dropped_bytes, cut);
            }
        }
    }

    #[test]
    fn file_backed_log_persists_and_truncates_torn_tail() {
        let dir = tmp_dir("persist");
        let path = dir.join("test.log");
        {
            let wal = Wal::create(&path).unwrap();
            wal.append(&WalRecord::CreateRelation {
                name: "T".into(),
                attrs: vec!["x".into()],
            })
            .unwrap();
            wal.append(&ins(1)).unwrap();
            wal.sync().unwrap();
        }
        // Simulate a crash mid-append: chop 3 bytes off the tail.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (wal, records, torn) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 1, "only the whole record survives");
        let torn = torn.expect("torn tail reported");
        assert!(torn.dropped_bytes > 0);
        // The file was physically truncated to the valid prefix and new
        // appends continue the LSN sequence.
        assert_eq!(std::fs::read(&path).unwrap().len(), torn.valid_bytes);
        assert_eq!(wal.append(&ins(2)).unwrap(), 2);
        wal.sync().unwrap();
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_through_cuts_across_written_and_unwritten_frames() {
        let dir = tmp_dir("cut");
        let path = dir.join("wal.log");
        let wal = Wal::create(&path).unwrap();
        for i in 1..=2i64 {
            assert_eq!(wal.append(&ins(i)).unwrap(), i as u64);
        }
        wal.sync().unwrap();
        // 3 and 4 are still only in memory when the cut lands at 3.
        for i in 3..=4i64 {
            wal.append(&ins(i)).unwrap();
        }
        wal.truncate_through(3).unwrap();
        assert_eq!(lsns(&std::fs::read(&path).unwrap()), vec![4]);
        assert_eq!(wal.last_lsn(), 4);
        assert_eq!(durable(&wal), 4, "surviving suffix counts as durable");
        assert_eq!(wal.append(&ins(5)).unwrap(), 5, "LSNs keep counting");
        // A watermark covering everything empties the log.
        wal.truncate_through(5).unwrap();
        assert!(std::fs::read(&path).unwrap().is_empty());
        assert_eq!(wal.append(&ins(6)).unwrap(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_through_file_backed_rewrites_and_reopens() {
        let dir = tmp_dir("rewrite");
        let path = dir.join("test.log");
        {
            let wal = Wal::create(&path).unwrap();
            for i in 1..=4i64 {
                wal.append(&ins(i)).unwrap();
            }
            wal.sync().unwrap();
            wal.truncate_through(2).unwrap();
            // The on-disk file holds exactly the surviving suffix.
            assert_eq!(lsns(&std::fs::read(&path).unwrap()), vec![3, 4]);
            // The rewritten handle keeps appending in place.
            wal.append(&ins(5)).unwrap();
            wal.sync().unwrap();
        }
        let (wal, records, torn) = Wal::open(&path).unwrap();
        assert!(torn.is_none());
        let lsns: Vec<u64> = records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![3, 4, 5]);
        assert_eq!(wal.append(&ins(6)).unwrap(), 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rewrite whose rename landed but whose last step failed leaves the
    /// path holding the new file while the handle state still describes
    /// the old one; the retry must rebuild the log from the old state, not
    /// mix the two.
    #[test]
    fn truncate_through_after_a_failure_past_the_rename_duplicates_nothing() {
        let dir = tmp_dir("retry");
        let path = dir.join("wal.log");
        let wal = Wal::create(&path).unwrap();
        for i in 1..=2i64 {
            wal.append(&ins(i)).unwrap();
        }
        wal.sync().unwrap();
        for i in 3..=4i64 {
            wal.append(&ins(i)).unwrap();
        }
        {
            // The first truncate_through(1): the rewrite runs through its
            // rename, then the step after it fails.
            let mut g = wal.inner.lock();
            Wal::rewrite_past(&g, 1).unwrap();
            g.poisoned = true;
        }
        assert_eq!(lsns(&std::fs::read(&path).unwrap()), vec![2, 3, 4]);
        assert!(wal.sync().is_err(), "poisoned");
        wal.truncate_through(1).unwrap();
        assert_eq!(lsns(&std::fs::read(&path).unwrap()), vec![2, 3, 4]);
        wal.append(&ins(5)).unwrap();
        wal.sync().unwrap();
        let (_, records, torn) = Wal::open(&path).unwrap();
        assert!(torn.is_none());
        let lsns: Vec<u64> = records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bump_lsn_raises_floor_only_forward() {
        let dir = tmp_dir("bump");
        let wal = Wal::create(&dir.join("wal.log")).unwrap();
        wal.bump_lsn(10);
        assert_eq!(wal.last_lsn(), 10);
        assert_eq!(
            wal.append(&ins(1)).unwrap(),
            11,
            "appends continue past the floor"
        );
        wal.bump_lsn(5);
        assert_eq!(wal.last_lsn(), 11, "a lower floor is a no-op");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A commit writes and fsyncs only when it logged something, and each
    /// real sync is counted once in `wal_syncs`.
    #[test]
    fn commit_syncs_only_what_is_not_yet_durable() {
        let dir = tmp_dir("commits");
        {
            let db = Database::new_paged(&dir, 4).unwrap();
            let r = db.create_relation(Schema::new("R", ["v"])).unwrap();
            let s = db.create_relation(Schema::new("S", ["v"])).unwrap();
            db.sync_wal().unwrap();
            let syncs = || db.stats().snapshot().wal_syncs;
            let start = syncs();
            assert_eq!(start, 1, "the catalog's sync counted");

            let txn = db.begin();
            txn.select(r, &Restriction::default()).unwrap();
            txn.commit().unwrap();
            assert_eq!(syncs(), start, "a read-only commit does not sync");

            let mut txn = db.begin();
            txn.insert(r, tuple![1]).unwrap();
            txn.commit().unwrap();
            assert_eq!(syncs(), start + 1, "a writing commit syncs once");

            // `b`'s fsync cannot carry `a`'s record: an open transaction
            // has not logged it yet.
            let mut a = db.begin();
            a.insert(r, tuple![2]).unwrap();
            let mut b = db.begin();
            b.insert(s, tuple![3]).unwrap();
            b.commit().unwrap();
            assert_eq!(syncs(), start + 2);
            a.commit().unwrap();
            assert_eq!(syncs(), start + 3, "each writing commit syncs its frame");
        }
        let (back, _) = Database::open_paged(&dir, 4).unwrap();
        let count = |name| {
            let rel = back.rel_id(name).unwrap();
            back.select(rel, &Restriction::default()).unwrap().len()
        };
        assert_eq!((count("R"), count("S")), (2, 1), "every commit durable");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A transaction's writes are one frame: one LSN for all its records,
    /// and a cut anywhere inside the frame drops every one of them.
    #[test]
    fn a_commit_is_one_frame() {
        let dir = tmp_dir("frame");
        let db = Database::new_paged(&dir, 4).unwrap();
        let r = db.create_relation(Schema::new("R", ["v"])).unwrap();
        db.sync_wal().unwrap();
        let before = std::fs::read(dir.join("wal.log")).unwrap().len();
        let mut txn = db.begin();
        for i in 0..3i64 {
            txn.insert(r, tuple![i]).unwrap();
        }
        let rows = txn.select(r, &Restriction::default()).unwrap();
        txn.delete(r, rows[0].0).unwrap();
        txn.commit().unwrap();
        let log = std::fs::read(dir.join("wal.log")).unwrap();
        let (records, torn) = Wal::decode_prefix(&log);
        assert!(torn.is_none());
        assert_eq!(records.len(), 5, "create + 3 inserts + 1 delete");
        assert!(records[1..].iter().all(|(lsn, _)| *lsn == 2), "one LSN");
        for cut in before..log.len() {
            assert_eq!(Wal::decode_prefix(&log[..cut]).0.len(), 1, "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Frames past [`WRITE_BEHIND`] bytes are written without fsync, so
    /// the unwritten buffer stays bounded between syncs.
    #[test]
    fn appends_write_behind_a_bounded_buffer() {
        let dir = tmp_dir("behind");
        let path = dir.join("wal.log");
        let wal = Wal::create(&path).unwrap();
        let pad = "x".repeat(1000);
        for _ in 0..200 {
            wal.append(&WalRecord::Insert {
                rel: RelId(0),
                tuple: tuple![pad.as_str()],
            })
            .unwrap();
            assert!(wal.inner.lock().buf.len() < WRITE_BEHIND + 1100);
        }
        assert!(std::fs::metadata(&path).unwrap().len() > 0, "written");
        assert_eq!(durable(&wal), 0, "but not synced");
        wal.sync().unwrap();
        let (records, torn) = Wal::decode_prefix(&std::fs::read(&path).unwrap());
        assert_eq!((records.len(), torn), (200, None));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The fsyncgate rule end to end: a failed write poisons the log, a
    /// commit over a poisoned log fails and rolls back, and only a full
    /// rewrite makes the log trustworthy again.
    #[test]
    fn failed_sync_poisons_the_log_until_a_rewrite() {
        let dir = tmp_dir("poison");
        let values = |db: &Database| {
            let r = db.rel_id("R").unwrap();
            let mut v: Vec<Tuple> = db
                .select(r, &Restriction::default())
                .unwrap()
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            v.sort();
            v
        };
        {
            let db = Database::new_paged(&dir, 4).unwrap();
            let r = db.create_relation(Schema::new("R", ["v"])).unwrap();
            db.insert(r, tuple![1]).unwrap();
            db.sync_wal().unwrap();
            let wal = db.wal.clone().expect("a paged database logs");
            // A read-only handle: the next write fails.
            wal.inner.lock().file = File::open(dir.join("wal.log")).unwrap();
            db.insert(r, tuple![2]).unwrap();
            assert!(db.sync_wal().is_err(), "the write fails");
            assert!(db.sync_wal().is_err(), "a retry is refused: poisoned");

            let mut txn = db.begin();
            txn.insert(r, tuple![3]).unwrap();
            assert!(txn.commit().is_err(), "commit over a poisoned log fails");
            assert_eq!(values(&db), vec![tuple![1], tuple![2]], "rolled back");
            assert_eq!(db.lock_manager().held_count(), 0, "locks released");

            wal.truncate_through(0).unwrap();
            db.insert(r, tuple![4]).unwrap();
            db.sync_wal()
                .expect("a successful rewrite clears the poison");
        }
        let (back, report) = Database::open_paged(&dir, 4).unwrap();
        assert!(report.torn.is_none());
        assert_eq!(values(&back), vec![tuple![1], tuple![2], tuple![4]]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
