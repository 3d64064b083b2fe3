//! A single relation: slotted tuple storage plus secondary indexes.
//!
//! Storage comes in two modes. The default keeps tuples in an in-memory
//! slot vector. Paged mode ([`Relation::new_paged`]) makes the paper's
//! §3.2 premise literal: tuple payloads live as records on heap pages
//! behind a [`BufferPool`], and only a thin slot directory (generation +
//! page location) plus the secondary indexes stay in memory. Both modes
//! share identical ids, index maintenance, and logical-I/O accounting,
//! so every engine runs unchanged on either.
//!
//! Mutations go through [`Relation::insert_logged`] /
//! [`Relation::delete_logged`], which append the WAL record *before*
//! touching any page — under the relation's write latch, so the log
//! order matches the apply order and a page can never carry a change
//! whose log record does not precede it.

use std::sync::Arc;

use crate::codec;
use crate::error::{Error, Result};
use crate::index::{HashIndex, OrdIndex};
use crate::page::{PageId, MAX_RECORD};
use crate::pool::BufferPool;
use crate::pred::{CompOp, Restriction, Selection};
use crate::schema::{AttrIdx, RelId, Schema};
use crate::stats::Stats;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use crate::wal::{Wal, WalRecord};

/// One in-memory storage slot. Deleted slots keep their generation so
/// stale [`TupleId`]s can be rejected instead of silently resolving to a
/// new occupant.
#[derive(Debug, Clone)]
struct MemSlot {
    gen: u32,
    tuple: Option<Tuple>,
}

/// One paged-mode slot: same generation discipline, but the payload
/// lives on a heap page.
#[derive(Debug, Clone)]
struct PagedSlot {
    gen: u32,
    loc: Option<(PageId, u16)>,
}

#[derive(Debug)]
struct PagedStore {
    pool: Arc<BufferPool>,
    slots: Vec<PagedSlot>,
    /// Pages owned by this relation with a cached usable-free-bytes hint
    /// (kept current on every insert/delete touching the page).
    pages: Vec<(PageId, u16)>,
}

/// Fetch and decode a live record. Buffer-pool I/O errors (transient
/// read failure, all frames pinned) propagate to the caller as `Err`
/// rather than panicking the process.
fn read_page_tuple(pool: &BufferPool, pid: PageId, idx: u16) -> Result<Tuple> {
    pool.with_page(pid, |page| page.record(idx).and_then(codec::decode_tuple))
        .and_then(|r| r)
}

#[derive(Debug)]
enum Store {
    Mem(Vec<MemSlot>),
    Paged(PagedStore),
}

/// A relation with slotted storage, optional per-attribute indexes, and
/// logical I/O accounting.
#[derive(Debug)]
pub struct Relation {
    id: RelId,
    schema: Schema,
    store: Store,
    free: Vec<u32>,
    live: usize,
    hash_indexes: Vec<Option<HashIndex>>,
    ord_indexes: Vec<Option<OrdIndex>>,
    stats: Stats,
    version: u64,
}

impl Relation {
    /// Create a new, empty in-memory relation.
    pub fn new(id: RelId, schema: Schema, stats: Stats) -> Self {
        Relation::with_store(id, schema, stats, Store::Mem(Vec::new()))
    }

    /// Create a new, empty relation whose tuples live on heap pages
    /// drawn from `pool`.
    pub fn new_paged(id: RelId, schema: Schema, stats: Stats, pool: Arc<BufferPool>) -> Self {
        Relation::with_store(
            id,
            schema,
            stats,
            Store::Paged(PagedStore {
                pool,
                slots: Vec::new(),
                pages: Vec::new(),
            }),
        )
    }

    fn with_store(id: RelId, schema: Schema, stats: Stats, store: Store) -> Self {
        let arity = schema.arity();
        Relation {
            id,
            schema,
            store,
            free: Vec::new(),
            live: 0,
            hash_indexes: vec![None; arity],
            ord_indexes: vec![None; arity],
            stats,
            version: 0,
        }
    }

    /// True when tuples live on heap pages rather than in memory.
    pub fn is_paged(&self) -> bool {
        matches!(self.store, Store::Paged(_))
    }

    /// Write-version counter: bumped on every insert, delete, or clear.
    /// Lets caches keyed on relation contents (e.g. the ANALYZE
    /// distinct-count memo) invalidate without being notified.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// This item's identifier.
    pub fn id(&self) -> RelId {
        self.id
    }

    /// This relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The name of this item.
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of live tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn check_attr(&self, attr: AttrIdx) -> Result<()> {
        if attr >= self.schema.arity() {
            return Err(Error::BadAttrIndex {
                relation: self.name().to_string(),
                index: attr,
            });
        }
        Ok(())
    }

    /// Visit every live tuple without I/O accounting (internal). Paged
    /// mode decodes each record through the buffer pool; a pool I/O
    /// error stops the walk and propagates.
    fn for_each_live(&self, mut f: impl FnMut(TupleId, &Tuple)) -> Result<()> {
        match &self.store {
            Store::Mem(slots) => {
                for (i, s) in slots.iter().enumerate() {
                    if let Some(t) = &s.tuple {
                        f(TupleId::new(i as u32, s.gen), t);
                    }
                }
            }
            Store::Paged(p) => {
                for (i, s) in p.slots.iter().enumerate() {
                    if let Some((pid, idx)) = s.loc {
                        let t = read_page_tuple(&p.pool, pid, idx)?;
                        f(TupleId::new(i as u32, s.gen), &t);
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolve a tuple id to its (owned) tuple: `Ok(None)` when the id is
    /// stale or dead, `Err` on a buffer-pool I/O failure. In-memory this
    /// is an `Arc` bump; paged mode decodes from the page.
    fn live_tuple(&self, tid: TupleId) -> Result<Option<Tuple>> {
        match &self.store {
            Store::Mem(slots) => Ok(slots
                .get(tid.slot as usize)
                .filter(|s| s.gen == tid.gen)
                .and_then(|s| s.tuple.clone())),
            Store::Paged(p) => {
                let loc = p
                    .slots
                    .get(tid.slot as usize)
                    .filter(|s| s.gen == tid.gen)
                    .and_then(|s| s.loc);
                match loc {
                    Some((pid, idx)) => read_page_tuple(&p.pool, pid, idx).map(Some),
                    None => Ok(None),
                }
            }
        }
    }

    /// Build (or rebuild) a hash index on `attr`.
    pub fn create_hash_index(&mut self, attr: AttrIdx) -> Result<()> {
        self.check_attr(attr)?;
        let mut idx = HashIndex::new();
        self.for_each_live(|tid, t| idx.insert(t[attr].clone(), tid))?;
        self.hash_indexes[attr] = Some(idx);
        Ok(())
    }

    /// Build (or rebuild) an ordered index on `attr`.
    pub fn create_ord_index(&mut self, attr: AttrIdx) -> Result<()> {
        self.check_attr(attr)?;
        let mut idx = OrdIndex::new();
        self.for_each_live(|tid, t| idx.insert(t[attr].clone(), tid))?;
        self.ord_indexes[attr] = Some(idx);
        Ok(())
    }

    /// Is there a hash index on `attr`?
    pub fn has_hash_index(&self, attr: AttrIdx) -> bool {
        self.hash_indexes.get(attr).is_some_and(Option::is_some)
    }

    /// Is there an ordered index on `attr`?
    pub fn has_ord_index(&self, attr: AttrIdx) -> bool {
        self.ord_indexes.get(attr).is_some_and(Option::is_some)
    }

    /// Insert a tuple, returning its id (unlogged convenience).
    pub fn insert(&mut self, tuple: Tuple) -> Result<TupleId> {
        self.insert_logged(tuple, None)
    }

    /// Insert a tuple, appending the WAL record *before* the page write.
    /// The returned LSN tags the touched page so eviction can enforce
    /// write-ahead ordering. Callers hold the relation's write latch, so
    /// log order equals apply order.
    pub(crate) fn insert_logged(&mut self, tuple: Tuple, wal: Option<&Wal>) -> Result<TupleId> {
        if tuple.arity() != self.schema.arity() {
            return Err(Error::ArityMismatch {
                relation: self.name().to_string(),
                expected: self.schema.arity(),
                got: tuple.arity(),
            });
        }
        // Encode first in paged mode: an unencodable tuple must fail
        // before anything is logged or touched.
        let encoded = match &self.store {
            Store::Paged(_) => {
                let rec = codec::encode_tuple(&tuple)?;
                if rec.len() > MAX_RECORD {
                    return Err(Error::TooLarge("encoded tuple exceeds page capacity"));
                }
                Some(rec)
            }
            Store::Mem(_) => None,
        };
        let lsn = match wal {
            Some(w) => w.append(&WalRecord::Insert {
                rel: self.id,
                tuple: tuple.clone(),
            })?,
            None => 0,
        };
        let tid = match &mut self.store {
            Store::Mem(slots) => match self.free.pop() {
                Some(slot) => {
                    let s = &mut slots[slot as usize];
                    s.tuple = Some(tuple.clone());
                    TupleId::new(slot, s.gen)
                }
                None => {
                    let slot = slots.len() as u32;
                    slots.push(MemSlot {
                        gen: 0,
                        tuple: Some(tuple.clone()),
                    });
                    TupleId::new(slot, 0)
                }
            },
            Store::Paged(p) => {
                let rec = encoded.expect("encoded in paged mode");
                let need = rec.len() + 4;
                let mut placed = None;
                for entry in p.pages.iter_mut() {
                    if (entry.1 as usize) < need {
                        continue;
                    }
                    let (slot, usable) = p.pool.with_page_mut(entry.0, lsn, |page| {
                        (page.insert(&rec), page.usable_bytes() as u16)
                    })?;
                    entry.1 = usable;
                    if let Some(idx) = slot {
                        placed = Some((entry.0, idx));
                        break;
                    }
                }
                let (pid, idx) = match placed {
                    Some(loc) => loc,
                    None => {
                        let pid = p.pool.alloc_page()?;
                        let (idx, usable) = p.pool.with_page_mut(pid, lsn, |page| {
                            let idx = page.insert(&rec).expect("fresh page fits checked record");
                            (idx, page.usable_bytes() as u16)
                        })?;
                        p.pages.push((pid, usable));
                        (pid, idx)
                    }
                };
                match self.free.pop() {
                    Some(slot) => {
                        let s = &mut p.slots[slot as usize];
                        s.loc = Some((pid, idx));
                        TupleId::new(slot, s.gen)
                    }
                    None => {
                        let slot = p.slots.len() as u32;
                        p.slots.push(PagedSlot {
                            gen: 0,
                            loc: Some((pid, idx)),
                        });
                        TupleId::new(slot, 0)
                    }
                }
            }
        };
        for (attr, idx) in self.hash_indexes.iter_mut().enumerate() {
            if let Some(idx) = idx {
                idx.insert(tuple[attr].clone(), tid);
            }
        }
        for (attr, idx) in self.ord_indexes.iter_mut().enumerate() {
            if let Some(idx) = idx {
                idx.insert(tuple[attr].clone(), tid);
            }
        }
        self.live += 1;
        self.version += 1;
        self.stats.inserted();
        Ok(tid)
    }

    /// Delete by id, returning the removed tuple (unlogged convenience).
    pub fn delete(&mut self, tid: TupleId) -> Result<Tuple> {
        self.delete_logged(tid, None)
    }

    /// Delete by id, appending the WAL record before the page mutation
    /// (see [`Relation::insert_logged`] for the ordering argument).
    pub(crate) fn delete_logged(&mut self, tid: TupleId, wal: Option<&Wal>) -> Result<Tuple> {
        let tuple = self
            .live_tuple(tid)?
            .ok_or(Error::NoSuchTuple(self.id, tid.pack()))?;
        let lsn = match wal {
            Some(w) => w.append(&WalRecord::Delete {
                rel: self.id,
                tuple: tuple.clone(),
            })?,
            None => 0,
        };
        match &mut self.store {
            Store::Mem(slots) => {
                let s = &mut slots[tid.slot as usize];
                s.tuple = None;
                s.gen = s.gen.wrapping_add(1);
            }
            Store::Paged(p) => {
                let s = &mut p.slots[tid.slot as usize];
                let (pid, idx) = s.loc.take().expect("checked live");
                s.gen = s.gen.wrapping_add(1);
                let usable = p.pool.with_page_mut(pid, lsn, |page| {
                    page.delete(idx)?;
                    Ok::<u16, Error>(page.usable_bytes() as u16)
                })??;
                if let Some(entry) = p.pages.iter_mut().find(|e| e.0 == pid) {
                    entry.1 = usable;
                }
            }
        }
        self.free.push(tid.slot);
        self.live -= 1;
        for (attr, idx) in self.hash_indexes.iter_mut().enumerate() {
            if let Some(idx) = idx {
                idx.remove(&tuple[attr], tid);
            }
        }
        for (attr, idx) in self.ord_indexes.iter_mut().enumerate() {
            if let Some(idx) = idx {
                idx.remove(&tuple[attr], tid);
            }
        }
        self.version += 1;
        self.stats.deleted();
        Ok(tuple)
    }

    /// Fetch a tuple by id. Owned: in-memory mode this is an `Arc` bump;
    /// paged mode decodes the record from its page.
    pub fn get(&self, tid: TupleId) -> Result<Tuple> {
        self.stats.read_tuples(1);
        self.live_tuple(tid)?
            .ok_or(Error::NoSuchTuple(self.id, tid.pack()))
    }

    /// True when `tid` names a live tuple.
    pub fn contains(&self, tid: TupleId) -> bool {
        match &self.store {
            Store::Mem(slots) => slots
                .get(tid.slot as usize)
                .is_some_and(|s| s.gen == tid.gen && s.tuple.is_some()),
            Store::Paged(p) => p
                .slots
                .get(tid.slot as usize)
                .is_some_and(|s| s.gen == tid.gen && s.loc.is_some()),
        }
    }

    /// Full scan. Counts one scan and one read per live tuple.
    pub fn scan(&self) -> Result<Vec<(TupleId, Tuple)>> {
        self.stats.scan();
        self.stats.read_tuples(self.live as u64);
        let mut out = Vec::with_capacity(self.live);
        self.for_each_live(|tid, t| out.push((tid, t.clone())))?;
        Ok(out)
    }

    /// The access-path rule, in one place: of the hash-indexed equalities
    /// in `eqs`, the postings of the one whose list is shortest right now
    /// (the first such on a tie). The lengths are exact, read from the
    /// index buckets at probe time. `None` when no equality is indexed.
    fn shortest_postings<'v>(
        &self,
        eqs: impl Iterator<Item = (AttrIdx, &'v Value)>,
    ) -> Option<&[TupleId]> {
        let mut shortest: Option<&[TupleId]> = None;
        for (attr, value) in eqs {
            if let Some(Some(idx)) = self.hash_indexes.get(attr) {
                let postings = idx.probe(value);
                if shortest.is_none_or(|best| postings.len() < best.len()) {
                    shortest = Some(postings);
                }
            }
        }
        shortest
    }

    /// Find the first live tuple equal to `tuple` (value equality).
    ///
    /// OPS5 `remove` deletes a WM element by content; this is the lookup
    /// behind it. Probes the hash-indexed attribute whose postings for the
    /// tuple's value are shortest, when any attribute is indexed.
    pub fn find_equal(&self, tuple: &Tuple) -> Result<Option<TupleId>> {
        if let Some(candidates) = self.shortest_postings(tuple.values().iter().enumerate()) {
            self.stats.index_probe();
            self.stats.read_tuples(candidates.len() as u64);
            for &tid in candidates {
                if self.live_tuple(tid)?.as_ref() == Some(tuple) {
                    return Ok(Some(tid));
                }
            }
            return Ok(None);
        }
        self.stats.scan();
        self.stats.read_tuples(self.live as u64);
        let mut found = None;
        self.for_each_live(|tid, t| {
            if found.is_none() && t == tuple {
                found = Some(tid);
            }
        })?;
        Ok(found)
    }

    /// Evaluate a restriction, using the best available index.
    pub fn select(&self, restriction: &Restriction) -> Result<Vec<(TupleId, Tuple)>> {
        self.select_with(restriction, &[])
    }

    /// [`Relation::select`] with extra *bound* tests — join predicates
    /// whose other side is already bound to a value. The bound values are
    /// borrowed, so callers extending partial bindings don't clone the
    /// base restriction (or any `Value`) per probe, and bound equalities
    /// are index-served exactly like restriction equalities.
    pub fn select_with(
        &self,
        restriction: &Restriction,
        bound: &[(AttrIdx, CompOp, &Value)],
    ) -> Result<Vec<(TupleId, Tuple)>> {
        let ids = self.select_ids_with(restriction, bound)?;
        let mut out = Vec::with_capacity(ids.len());
        for tid in ids {
            let t = self
                .live_tuple(tid)?
                .ok_or(Error::Corrupt("selected id resolves to a dead tuple"))?;
            out.push((tid, t));
        }
        Ok(out)
    }

    /// Like [`Relation::select`] but returns ids only.
    pub fn select_ids(&self, restriction: &Restriction) -> Result<Vec<TupleId>> {
        self.select_ids_with(restriction, &[])
    }

    /// [`Relation::select_with`] returning ids only.
    pub fn select_ids_with(
        &self,
        restriction: &Restriction,
        bound: &[(AttrIdx, CompOp, &Value)],
    ) -> Result<Vec<TupleId>> {
        let tests = (restriction.tests.len() + bound.len()) as u64;
        let qualifies = |t: &Tuple| {
            restriction.matches(t)
                && bound
                    .iter()
                    .all(|&(attr, op, v)| t.get(attr).is_some_and(|mine| op.eval(mine, v)))
        };
        // 1. Equality tests with a hash index, restriction or bound:
        //    probe the one with the shortest posting list.
        let eqs = restriction
            .equalities()
            .map(|sel| (sel.attr, &sel.value))
            .chain(
                bound
                    .iter()
                    .filter(|&&(_, op, _)| op == CompOp::Eq)
                    .map(|&(attr, _, v)| (attr, v)),
            );
        if let Some(candidates) = self.shortest_postings(eqs) {
            self.stats.index_probe();
            self.stats.read_tuples(candidates.len() as u64);
            self.stats.pred_evals(candidates.len() as u64 * tests);
            let mut out = Vec::new();
            for &tid in candidates {
                let t = self
                    .live_tuple(tid)?
                    .ok_or(Error::Corrupt("index entry points at a dead tuple"))?;
                if qualifies(&t) {
                    out.push(tid);
                }
            }
            return Ok(out);
        }
        // 2. Range test with an ordered index?
        let range_probe = restriction
            .tests
            .iter()
            .map(|sel| (sel.attr, sel.op, &sel.value))
            .chain(bound.iter().copied())
            .filter(|&(_, op, _)| op != CompOp::Ne)
            .find(|&(attr, _, _)| self.has_ord_index(attr));
        if let Some((attr, op, value)) = range_probe {
            let idx = self.ord_indexes[attr].as_ref().expect("checked");
            self.stats.index_probe();
            let candidates = idx.probe_op(op, value);
            self.stats.read_tuples(candidates.len() as u64);
            self.stats.pred_evals(candidates.len() as u64 * tests);
            let mut out = Vec::new();
            for tid in candidates {
                let t = self
                    .live_tuple(tid)?
                    .ok_or(Error::Corrupt("index entry points at a dead tuple"))?;
                if qualifies(&t) {
                    out.push(tid);
                }
            }
            return Ok(out);
        }
        // 3. Fall back to a scan.
        self.stats.scan();
        self.stats.read_tuples(self.live as u64);
        self.stats.pred_evals(self.live as u64 * tests.max(1));
        let mut out = Vec::new();
        self.for_each_live(|tid, t| {
            if qualifies(t) {
                out.push(tid);
            }
        })?;
        Ok(out)
    }

    /// Tuple ids where `attr op value`, used by join inner loops.
    pub fn probe(&self, attr: AttrIdx, op: CompOp, value: &Value) -> Result<Vec<TupleId>> {
        self.select_ids(&Restriction::new(vec![Selection::new(
            attr,
            op,
            value.clone(),
        )]))
    }

    /// Estimated number of distinct values in `attr` (for join planning).
    pub fn distinct_estimate(&self, attr: AttrIdx) -> usize {
        if let Some(Some(idx)) = self.hash_indexes.get(attr) {
            return idx.distinct_keys().max(1);
        }
        if let Some(Some(idx)) = self.ord_indexes.get(attr) {
            return idx.distinct_keys().max(1);
        }
        // Heuristic: assume modest duplication.
        (self.live / 4).max(1)
    }

    /// Exact number of distinct values in `attr`, computed by a full scan
    /// (ANALYZE's catalog sweep; not for use on hot paths).
    pub fn distinct_exact(&self, attr: AttrIdx) -> Result<usize> {
        self.stats.scan();
        self.stats.read_tuples(self.live as u64);
        let mut distinct = std::collections::HashSet::new();
        self.for_each_live(|_, t| {
            if let Some(v) = t.get(attr) {
                distinct.insert(v.clone());
            }
        })?;
        Ok(distinct.len())
    }

    /// Approximate storage footprint in bytes (tuples + index postings).
    pub fn approx_bytes(&self) -> Result<usize> {
        let mut tuples = 0usize;
        self.for_each_live(|_, t| tuples += t.approx_bytes())?;
        let postings: usize = self
            .hash_indexes
            .iter()
            .flatten()
            .map(|i| i.len() * std::mem::size_of::<TupleId>() * 2)
            .sum::<usize>()
            + self
                .ord_indexes
                .iter()
                .flatten()
                .map(|i| i.len() * std::mem::size_of::<TupleId>() * 2)
                .sum::<usize>();
        Ok(tuples + postings)
    }

    /// Drop every tuple but keep schema and index definitions. Paged
    /// relations return their pages to the pool's free list.
    pub fn clear(&mut self) {
        let arity = self.schema.arity();
        let had_hash: Vec<bool> = self.hash_indexes.iter().map(Option::is_some).collect();
        let had_ord: Vec<bool> = self.ord_indexes.iter().map(Option::is_some).collect();
        match &mut self.store {
            Store::Mem(slots) => slots.clear(),
            Store::Paged(p) => {
                for (pid, _) in p.pages.drain(..) {
                    let _ = p.pool.free_page(pid);
                }
                p.slots.clear();
            }
        }
        self.free.clear();
        self.live = 0;
        self.hash_indexes = (0..arity)
            .map(|i| had_hash[i].then(HashIndex::new))
            .collect();
        self.ord_indexes = (0..arity).map(|i| had_ord[i].then(OrdIndex::new)).collect();
        self.version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn emp() -> Relation {
        Relation::new(
            RelId(0),
            Schema::new("Emp", ["name", "age", "salary", "dno"]),
            Stats::new(),
        )
    }

    fn emp_paged(pool_pages: usize) -> Relation {
        emp_paged_at(pool_pages).0
    }

    /// A paged `Emp` and the page file behind it.
    fn emp_paged_at(pool_pages: usize) -> (Relation, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "relstore-rel-{}-{:p}",
            std::process::id(),
            &pool_pages
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "rel-{}.pages",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let pool = Arc::new(BufferPool::create(&path, pool_pages, Stats::new()).unwrap());
        let rel = Relation::new_paged(
            RelId(0),
            Schema::new("Emp", ["name", "age", "salary", "dno"]),
            Stats::new(),
            pool,
        );
        (rel, path)
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut r = emp();
        let tid = r.insert(tuple!["Mike", 32, 5000, 7]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(tid).unwrap()[0], Value::str("Mike"));
        let t = r.delete(tid).unwrap();
        assert_eq!(t[1], Value::Int(32));
        assert!(r.is_empty());
        assert!(r.get(tid).is_err());
        assert!(r.delete(tid).is_err());
    }

    #[test]
    fn paged_roundtrip_matches_memory_semantics() {
        let mut r = emp_paged(4);
        assert!(r.is_paged());
        let tid = r.insert(tuple!["Mike", 32, 5000, 7]).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(tid).unwrap()[0], Value::str("Mike"));
        let t = r.delete(tid).unwrap();
        assert_eq!(t[1], Value::Int(32));
        assert!(r.is_empty());
        assert!(r.get(tid).is_err());
        assert!(r.delete(tid).is_err());
        // Slot reuse keeps the stale-generation discipline.
        let a = r.insert(tuple!["A", 1, 1, 1]).unwrap();
        r.delete(a).unwrap();
        let b = r.insert(tuple!["B", 2, 2, 2]).unwrap();
        assert_eq!(a.slot, b.slot);
        assert!(r.get(a).is_err());
        assert_eq!(r.get(b).unwrap()[0], Value::str("B"));
    }

    #[test]
    fn paged_select_and_indexes_agree_with_memory() {
        let mut m = emp();
        let mut p = emp_paged(2); // smaller than the working set: evicts
        for i in 0..200i64 {
            let t = tuple![format!("e{i}"), 20 + (i % 40), 1000 * i, i % 10];
            m.insert(t.clone()).unwrap();
            p.insert(t).unwrap();
        }
        let restriction = Restriction::new(vec![Selection::eq(3, 4)]);
        let from_m: Vec<Tuple> = m
            .select(&restriction)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let from_p: Vec<Tuple> = p
            .select(&restriction)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        assert_eq!(from_m, from_p);
        p.create_hash_index(3).unwrap();
        let indexed: Vec<Tuple> = p
            .select(&restriction)
            .unwrap()
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        let mut a = from_p.clone();
        let mut b = indexed;
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(
            m.find_equal(&tuple!["e7", 27, 7000, 7]).unwrap().is_some(),
            p.find_equal(&tuple!["e7", 27, 7000, 7]).unwrap().is_some()
        );
    }

    #[test]
    fn stale_id_rejected_after_slot_reuse() {
        let mut r = emp();
        let a = r.insert(tuple!["A", 1, 1, 1]).unwrap();
        r.delete(a).unwrap();
        let b = r.insert(tuple!["B", 2, 2, 2]).unwrap();
        assert_eq!(a.slot, b.slot, "slot should be recycled");
        assert!(r.get(a).is_err(), "stale generation must not resolve");
        assert_eq!(r.get(b).unwrap()[0], Value::str("B"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = emp();
        assert!(matches!(
            r.insert(tuple!["Mike", 32]),
            Err(Error::ArityMismatch { .. })
        ));
    }

    #[test]
    fn select_with_and_without_index() {
        let mut r = emp();
        for i in 0..100i64 {
            r.insert(tuple![format!("e{i}"), 20 + (i % 40), 1000 * i, i % 10])
                .unwrap();
        }
        let scan_res = r
            .select(&Restriction::new(vec![Selection::eq(3, 4)]))
            .unwrap();
        assert_eq!(scan_res.len(), 10);

        r.create_hash_index(3).unwrap();
        let idx_res = r
            .select(&Restriction::new(vec![Selection::eq(3, 4)]))
            .unwrap();
        let mut a: Vec<_> = scan_res.iter().map(|(tid, _)| *tid).collect();
        let mut b: Vec<_> = idx_res.iter().map(|(tid, _)| *tid).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn ord_index_range_select() {
        let mut r = emp();
        for i in 0..50i64 {
            r.insert(tuple![format!("e{i}"), i, 0, 0]).unwrap();
        }
        r.create_ord_index(1).unwrap();
        let res = r
            .select(&Restriction::new(vec![Selection::new(1, CompOp::Ge, 45)]))
            .unwrap();
        assert_eq!(res.len(), 5);
    }

    #[test]
    fn index_maintained_across_delete() {
        let mut r = emp();
        r.create_hash_index(0).unwrap();
        let tid = r.insert(tuple!["Mike", 32, 5000, 7]).unwrap();
        assert_eq!(
            r.find_equal(&tuple!["Mike", 32, 5000, 7]).unwrap(),
            Some(tid)
        );
        r.delete(tid).unwrap();
        assert_eq!(r.find_equal(&tuple!["Mike", 32, 5000, 7]).unwrap(), None);
    }

    #[test]
    fn find_equal_distinguishes_duplicates_by_content() {
        let mut r = emp();
        r.insert(tuple!["A", 1, 1, 1]).unwrap();
        let b = r.insert(tuple!["B", 2, 2, 2]).unwrap();
        assert_eq!(r.find_equal(&tuple!["B", 2, 2, 2]).unwrap(), Some(b));
        assert_eq!(r.find_equal(&tuple!["C", 3, 3, 3]).unwrap(), None);
    }

    #[test]
    fn io_accounting_counts_scans_and_probes() {
        let mut r = emp();
        for i in 0..10i64 {
            r.insert(tuple![format!("e{i}"), i, 0, 0]).unwrap();
        }
        let before = r.stats.snapshot();
        r.select(&Restriction::new(vec![Selection::eq(1, 3)]))
            .unwrap();
        let after = r.stats.snapshot().since(&before);
        assert_eq!(after.scans, 1);
        assert_eq!(after.tuples_read, 10);

        r.create_hash_index(1).unwrap();
        let before = r.stats.snapshot();
        r.select(&Restriction::new(vec![Selection::eq(1, 3)]))
            .unwrap();
        let after = r.stats.snapshot().since(&before);
        assert_eq!(after.scans, 0);
        assert_eq!(after.index_probes, 1);
        assert_eq!(after.tuples_read, 1);
    }

    #[test]
    fn clear_keeps_index_definitions() {
        let mut r = emp();
        r.create_hash_index(0).unwrap();
        r.insert(tuple!["A", 1, 1, 1]).unwrap();
        r.clear();
        assert!(r.is_empty());
        assert!(r.has_hash_index(0));
        let tid = r.insert(tuple!["B", 2, 2, 2]).unwrap();
        assert_eq!(r.find_equal(&tuple!["B", 2, 2, 2]).unwrap(), Some(tid));
    }

    #[test]
    fn paged_clear_recycles_pages() {
        let mut r = emp_paged(2);
        for i in 0..100i64 {
            r.insert(tuple![format!("e{i}"), i, 0, 0]).unwrap();
        }
        r.clear();
        assert!(r.is_empty());
        for i in 0..100i64 {
            r.insert(tuple![format!("f{i}"), i, 0, 0]).unwrap();
        }
        assert_eq!(r.len(), 100);
    }

    #[test]
    fn probe_uses_selection_path() {
        let mut r = emp();
        for i in 0..20i64 {
            r.insert(tuple![format!("e{i}"), i, 0, i % 2]).unwrap();
        }
        assert_eq!(r.probe(3, CompOp::Eq, &Value::Int(1)).unwrap().len(), 10);
        assert_eq!(r.probe(1, CompOp::Lt, &Value::Int(5)).unwrap().len(), 5);
    }

    const OPS: [CompOp; 6] = [
        CompOp::Eq,
        CompOp::Ne,
        CompOp::Lt,
        CompOp::Le,
        CompOp::Gt,
        CompOp::Ge,
    ];

    /// `(attr, op, value)`; an equality half of the time.
    fn test_strategy() -> impl proptest::strategy::Strategy<Value = (usize, CompOp, i64)> {
        use proptest::prelude::*;
        (0usize..4, 0usize..10, 0i64..6)
            .prop_map(|(attr, op, v)| (attr, OPS[op.saturating_sub(4)], v))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 96,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Whatever the indexes, `select_with` returns what filtering a
        /// scan returns, in memory and on pages; and when a hash index
        /// covers one of the equalities — restriction or bound — it reads
        /// exactly the shortest posting list among the covered ones.
        #[test]
        fn select_with_equals_filter_scan_and_reads_the_shortest_postings(
            rows in proptest::collection::vec((0i64..6, 0i64..3, 0i64..6, 0i64..2), 0..60),
            restriction in proptest::collection::vec(test_strategy(), 0..4),
            bound in proptest::collection::vec(test_strategy(), 0..3),
            hashed in proptest::collection::vec(0usize..4, 0..5),
            ordered in proptest::collection::vec(0usize..4, 0..2),
        ) {
            let restriction = Restriction::new(
                restriction
                    .iter()
                    .map(|&(attr, op, v)| Selection::new(attr, op, v))
                    .collect(),
            );
            let bound_values: Vec<Value> = bound.iter().map(|&(_, _, v)| Value::Int(v)).collect();
            let bound: Vec<(AttrIdx, CompOp, &Value)> = bound
                .iter()
                .zip(&bound_values)
                .map(|(&(attr, op, _), v)| (attr, op, v))
                .collect();
            let rows: Vec<Tuple> = rows.iter().map(|&(a, b, c, d)| tuple![a, b, c, d]).collect();
            let qualifies = |t: &Tuple| {
                restriction.matches(t) && bound.iter().all(|&(attr, op, v)| op.eval(&t[attr], v))
            };
            let mut want: Vec<Tuple> = rows.iter().filter(|t| qualifies(t)).cloned().collect();
            want.sort();
            let shortest = restriction
                .equalities()
                .map(|sel| (sel.attr, &sel.value))
                .chain(
                    bound
                        .iter()
                        .filter(|b| b.1 == CompOp::Eq)
                        .map(|&(attr, _, v)| (attr, v)),
                )
                .filter(|(attr, _)| hashed.contains(attr))
                .map(|(attr, v)| rows.iter().filter(|t| &t[attr] == v).count() as u64)
                .min();

            let (paged, page_file) = emp_paged_at(2);
            for mut r in [emp(), paged] {
                // Indexes built before and after the load behave alike.
                for (i, &attr) in hashed.iter().enumerate() {
                    if i % 2 == 0 {
                        r.create_hash_index(attr).unwrap();
                    }
                }
                for t in &rows {
                    r.insert(t.clone()).unwrap();
                }
                for &attr in &hashed {
                    r.create_hash_index(attr).unwrap();
                }
                for &attr in &ordered {
                    r.create_ord_index(attr).unwrap();
                }
                let before = r.stats.snapshot();
                let mut got: Vec<Tuple> = r
                    .select_with(&restriction, &bound)
                    .unwrap()
                    .into_iter()
                    .map(|(_, t)| t)
                    .collect();
                let read = r.stats.snapshot().since(&before).tuples_read;
                got.sort();
                proptest::prop_assert_eq!(&got, &want);
                if let Some(shortest) = shortest {
                    proptest::prop_assert_eq!(read, shortest);
                }
            }
            std::fs::remove_file(page_file).unwrap();
        }
    }
}
