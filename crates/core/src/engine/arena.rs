//! Arena-backed storage for COND matching patterns.
//!
//! A pattern group used to be `Vec<Option<Pattern>>` with each `Pattern`
//! owning a `Vec<Option<Value>>` σ and a `Vec<Vec<TupKey>>` support —
//! three heap blocks per pattern before a single supporter lands, and a
//! fourth per non-empty support set. Two observations make that
//! unnecessary: every pattern in a group shares the group's rule, so σ
//! rows all have the same width (`nvars`) and support rows the same width
//! (`nrce`); and on the measured workloads most support sets hold one or
//! two keys. [`PatternArena`] therefore stores σ as one flat
//! `Vec<Option<Value>>` (slot `s` owns `[s*nvars .. (s+1)*nvars]`),
//! support as one flat `Vec<SupportSet>` of [`InlineVec`]s that keep ≤ 2
//! keys inline, and tombstones as a plain `live` bitmap with a free list
//! — removal clears a row in place and reuses it, no per-slot `Option`.

use std::mem::MaybeUninit;

use relstore::{TupleId, Value};

use super::intern::{owned_bytes, Extra, FastMap, PatId};

/// `(class, tuple)` — the identity of a supporting WM tuple.
pub type TupKey = (usize, TupleId);

/// Support set of one RCE counter: almost always 1–2 keys, kept inline.
pub type SupportSet = InlineVec<TupKey, 2>;

/// Small-vector for `Copy` payloads: up to `N` elements live inline in
/// the struct; pushes past `N` spill to a heap `Vec`. `T: Copy` means no
/// element ever needs dropping, so the `MaybeUninit` buffer needs no
/// `Drop` bookkeeping.
pub struct InlineVec<T: Copy, const N: usize> {
    len: u32,
    inline: [MaybeUninit<T>; N],
    spill: Vec<T>,
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self {
            len: 0,
            inline: [MaybeUninit::uninit(); N],
            spill: Vec::new(),
        }
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn inline_len(&self) -> usize {
        (self.len as usize).min(N)
    }

    /// The inline prefix, as an initialized slice.
    fn head(&self) -> &[T] {
        // SAFETY: elements [0, inline_len) were written by `push` before
        // `len` was bumped past them, and Copy payloads are never
        // invalidated by moves of `self`.
        unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.inline_len()) }
    }

    pub fn push(&mut self, v: T) {
        let i = self.len as usize;
        if i < N {
            self.inline[i] = MaybeUninit::new(v);
        } else {
            self.spill.push(v);
        }
        self.len += 1;
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.head().iter().chain(self.spill.iter())
    }

    pub fn contains(&self, v: &T) -> bool
    where
        T: PartialEq,
    {
        self.head().contains(v) || self.spill.contains(v)
    }

    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    fn get(&self, i: usize) -> T {
        if i < N {
            self.head()[i]
        } else {
            self.spill[i - N]
        }
    }

    /// Keep only elements satisfying `f`, preserving order, in place: the
    /// kept elements slide down over the dropped ones, across the spill
    /// boundary too.
    pub fn retain(&mut self, mut f: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            let v = self.get(i);
            if f(&v) {
                if kept < N {
                    self.inline[kept] = MaybeUninit::new(v);
                } else {
                    self.spill[kept - N] = v;
                }
                kept += 1;
            }
        }
        self.spill.truncate(kept.saturating_sub(N));
        self.len = kept as u32;
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy, const N: usize> Clone for InlineVec<T, N> {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            inline: self.inline,
            spill: self.spill.clone(),
        }
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// "No slot" at the end of a chain through an arena.
pub const NIL: u32 = u32::MAX;

/// One chain of a [`SlotChains`]: where it starts and how many slots it
/// links. The length is exact, so a lookup can choose the shortest of
/// several chains before walking any.
#[derive(Debug, Clone, Copy)]
pub struct Chain {
    head: u32,
    len: u32,
}

impl Default for Chain {
    fn default() -> Self {
        Chain::EMPTY
    }
}

impl Chain {
    pub const EMPTY: Chain = Chain { head: NIL, len: 0 };

    pub fn len(&self) -> usize {
        self.len as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Postings of arena slots under `u64` keys, as doubly linked chains
/// threaded through the slots themselves (the layout of
/// `rete::ConflictSet`): a map from key to chain, one `(previous, next)`
/// pair per slot, never a list per key. A slot is on exactly one chain —
/// its key's, or the one chain of slots posted under no key — so posting
/// and unposting touch the two neighbours and allocate nothing.
#[derive(Debug, Default)]
pub struct SlotChains {
    keyed: FastMap<u64, Chain>,
    unkeyed: Chain,
    /// Per slot: `(previous, next)` on its chain, `NIL` at the ends.
    links: Vec<(u32, u32)>,
}

impl SlotChains {
    /// The chain under `key` (`None`: the slots posted under no key).
    pub fn chain(&self, key: Option<u64>) -> Chain {
        match key {
            Some(k) => self.keyed.get(&k).copied().unwrap_or(Chain::EMPTY),
            None => self.unkeyed,
        }
    }

    /// The slots of `chain`, newest posting first.
    pub fn walk(&self, chain: Chain) -> impl Iterator<Item = u32> + '_ {
        let mut slot = chain.head;
        std::iter::from_fn(move || {
            let here = slot;
            (here != NIL).then(|| {
                slot = self.links[here as usize].1;
                here
            })
        })
    }

    /// Post `slot`, which is on no chain, under `key`.
    pub fn post(&mut self, key: Option<u64>, slot: u32) {
        if self.links.len() <= slot as usize {
            self.links.resize(slot as usize + 1, (NIL, NIL));
        }
        let chain = match key {
            Some(k) => self.keyed.entry(k).or_default(),
            None => &mut self.unkeyed,
        };
        self.links[slot as usize] = (NIL, chain.head);
        if chain.head != NIL {
            self.links[chain.head as usize].0 = slot;
        }
        chain.head = slot;
        chain.len += 1;
    }

    /// Take `slot` off the chain under `key`, where [`SlotChains::post`]
    /// put it.
    pub fn unpost(&mut self, key: Option<u64>, slot: u32) {
        let (prev, next) = self.links[slot as usize];
        if prev != NIL {
            self.links[prev as usize].1 = next;
        }
        if next != NIL {
            self.links[next as usize].0 = prev;
        }
        let chain = match key {
            Some(k) => self
                .keyed
                .get_mut(&k)
                .expect("slot is posted under its key"),
            None => &mut self.unkeyed,
        };
        if prev == NIL {
            chain.head = next;
        }
        chain.len -= 1;
        if let (Some(k), 0) = (key, chain.len) {
            self.keyed.remove(&k);
        }
    }

    /// Bytes held: a map entry per key, a link pair per slot.
    pub fn bytes(&self) -> usize {
        self.keyed.len() * (std::mem::size_of::<(u64, Chain)>() + 1)
            + self.links.len() * std::mem::size_of::<(u32, u32)>()
    }
}

/// Borrowed view of one live pattern in the arena.
#[derive(Clone, Copy)]
pub struct PatRef<'a> {
    pub id: PatId,
    pub sigma: &'a [Option<Value>],
    pub extra: &'a [Extra],
    pub support: &'a [SupportSet],
}

/// Slab of matching patterns with uniform row widths. Slot indices are
/// reused after removal; `ids[slot]` gives the interned identity.
#[derive(Debug, Default)]
pub struct PatternArena {
    nvars: usize,
    nrce: usize,
    sigma: Vec<Option<Value>>,
    support: Vec<SupportSet>,
    extra: Vec<Vec<Extra>>,
    ids: Vec<PatId>,
    live: Vec<bool>,
    free: Vec<u32>,
    n_live: usize,
}

impl PatternArena {
    pub fn new(nvars: usize, nrce: usize) -> Self {
        Self {
            nvars,
            nrce,
            ..Self::default()
        }
    }

    pub fn len(&self) -> usize {
        self.n_live
    }

    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    pub fn slots(&self) -> usize {
        self.ids.len()
    }

    pub fn is_live(&self, slot: u32) -> bool {
        self.live[slot as usize]
    }

    /// Allocate a slot for identity `id` with σ copied from `sigma` and
    /// empty support; returns the slot index.
    pub fn insert(&mut self, id: PatId, sigma: &[Option<Value>], extra: &[Extra]) -> u32 {
        debug_assert_eq!(sigma.len(), self.nvars);
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.sigma[s * self.nvars..(s + 1) * self.nvars].clone_from_slice(sigma);
            if extra.is_empty() {
                self.extra[s].clear();
            } else {
                self.extra[s] = extra.to_vec();
            }
            self.ids[s] = id;
            self.live[s] = true;
            self.n_live += 1;
            return slot;
        }
        let slot = u32::try_from(self.ids.len()).expect("pattern arena slot space exhausted");
        self.sigma.extend_from_slice(sigma);
        self.support
            .extend((0..self.nrce).map(|_| SupportSet::new()));
        self.extra.push(if extra.is_empty() {
            Vec::new()
        } else {
            extra.to_vec()
        });
        self.ids.push(id);
        self.live.push(true);
        self.n_live += 1;
        slot
    }

    /// Tombstone `slot`: clear its rows in place and queue it for reuse.
    pub fn remove(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(self.live[s]);
        self.live[s] = false;
        self.n_live -= 1;
        for v in &mut self.sigma[s * self.nvars..(s + 1) * self.nvars] {
            *v = None;
        }
        for set in &mut self.support[s * self.nrce..(s + 1) * self.nrce] {
            set.clear();
        }
        self.extra[s].clear();
        self.free.push(slot);
    }

    pub fn id(&self, slot: u32) -> PatId {
        self.ids[slot as usize]
    }

    pub fn sigma(&self, slot: u32) -> &[Option<Value>] {
        let s = slot as usize;
        &self.sigma[s * self.nvars..(s + 1) * self.nvars]
    }

    pub fn extra(&self, slot: u32) -> &[Extra] {
        &self.extra[slot as usize]
    }

    pub fn support(&self, slot: u32) -> &[SupportSet] {
        let s = slot as usize;
        &self.support[s * self.nrce..(s + 1) * self.nrce]
    }

    pub fn support_mut(&mut self, slot: u32) -> &mut [SupportSet] {
        let s = slot as usize;
        &mut self.support[s * self.nrce..(s + 1) * self.nrce]
    }

    pub fn pat(&self, slot: u32) -> PatRef<'_> {
        let s = slot as usize;
        PatRef {
            id: self.ids[s],
            sigma: &self.sigma[s * self.nvars..(s + 1) * self.nvars],
            extra: &self.extra[s],
            support: &self.support[s * self.nrce..(s + 1) * self.nrce],
        }
    }

    /// Bytes held by the rows of every slot, live or free: σ and support
    /// cells with what they own on the heap, derived constraints,
    /// identity, live flag, free-list entry.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.sigma.len() * size_of::<Option<Value>>()
            + self.sigma.iter().flatten().map(owned_bytes).sum::<usize>()
            + self.support.len() * size_of::<SupportSet>()
            + (self.support.iter())
                .map(|s| s.spill.len() * size_of::<TupKey>())
                .sum::<usize>()
            + self.extra.len() * size_of::<Vec<Extra>>()
            + (self.extra.iter().flatten())
                .map(|e| size_of::<Extra>() + owned_bytes(&e.2))
                .sum::<usize>()
            + self.ids.len() * (size_of::<PatId>() + size_of::<bool>())
            + self.free.len() * size_of::<u32>()
    }

    /// Live slot indices, in slot order, without collecting a `Vec`.
    pub fn iter_live(&self) -> impl Iterator<Item = u32> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(s, _)| s as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tk(class: usize, slot: u32) -> TupKey {
        (class, TupleId { slot, gen: 0 })
    }

    #[test]
    fn inline_vec_spills_past_capacity() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.len(), 5);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(v.contains(&0) && v.contains(&4) && !v.contains(&9));
        v.retain(|&x| x % 2 == 0);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 2, 4]);
        v.clear();
        assert!(v.is_empty() && !v.contains(&0));
    }

    #[test]
    fn inline_vec_eq_spans_the_spill_boundary() {
        let mut a: InlineVec<u8, 2> = InlineVec::new();
        let mut b: InlineVec<u8, 2> = InlineVec::new();
        for x in [1, 2, 3] {
            a.push(x);
            b.push(x);
        }
        assert_eq!(a, b);
        b.push(4);
        assert_ne!(a, b);
    }

    proptest::proptest! {
        /// Against a list per key: every chain walks its key's slots
        /// newest first and knows their number, whatever order slots are
        /// posted, unposted and reused in.
        #[test]
        fn slot_chains_match_a_list_per_key(
            ops in proptest::collection::vec((0u32..12, 0u64..4), 1..80),
        ) {
            let key_of = |k: u64| (k > 0).then_some(k);
            let mut chains = SlotChains::default();
            let mut lists: std::collections::HashMap<Option<u64>, Vec<u32>> = Default::default();
            let mut posted: std::collections::HashMap<u32, Option<u64>> = Default::default();
            for (slot, k) in ops {
                match posted.remove(&slot) {
                    Some(key) => {
                        chains.unpost(key, slot);
                        lists.get_mut(&key).unwrap().retain(|&s| s != slot);
                    }
                    None => {
                        chains.post(key_of(k), slot);
                        lists.entry(key_of(k)).or_default().insert(0, slot);
                        posted.insert(slot, key_of(k));
                    }
                }
                for k in 0..4 {
                    let (chain, list) = (chains.chain(key_of(k)), lists.entry(key_of(k)).or_default());
                    proptest::prop_assert_eq!(chain.len(), list.len());
                    proptest::prop_assert_eq!(chain.is_empty(), list.is_empty());
                    proptest::prop_assert_eq!(&chains.walk(chain).collect::<Vec<_>>(), &*list);
                }
            }
            let live = lists.values().filter(|l| !l.is_empty()).count();
            proptest::prop_assert_eq!(chains.keyed.len() + usize::from(!chains.unkeyed.is_empty()), live);
        }
    }

    #[test]
    fn arena_rows_are_isolated_and_slots_reused() {
        let mut ar = PatternArena::new(2, 3);
        let a = ar.insert(0, &[Some(Value::Int(1)), None], &[]);
        let b = ar.insert(1, &[None, Some(Value::Int(2))], &[]);
        ar.support_mut(a)[0].push(tk(0, 7));
        ar.support_mut(b)[2].push(tk(1, 9));
        assert_eq!(ar.len(), 2);
        assert_eq!(ar.sigma(a), &[Some(Value::Int(1)), None]);
        assert_eq!(ar.support(a)[0].len(), 1);
        assert!(ar.support(a)[2].is_empty());
        assert_eq!(ar.support(b)[2].len(), 1);

        ar.remove(a);
        assert_eq!(ar.len(), 1);
        assert!(!ar.is_live(a));
        assert_eq!(ar.iter_live().collect::<Vec<_>>(), vec![b]);

        // Reused slot starts clean.
        let c = ar.insert(
            2,
            &[None, None],
            &[(0, relstore::CompOp::Gt, Value::Int(3))],
        );
        assert_eq!(c, a);
        assert!(ar.support(c).iter().all(|s| s.is_empty()));
        assert_eq!(ar.extra(c).len(), 1);
        assert_eq!(ar.id(c), 2);
        assert_eq!(ar.len(), 2);
    }
}
