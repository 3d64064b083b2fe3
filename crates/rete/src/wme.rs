//! Working-memory elements and conflict-set change records.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{CompOp, Tuple, TupleId, Value};

/// A working-memory element: a tuple of a declared class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Wme {
    /// The class (relation) involved.
    pub class: ClassId,
    /// The tuple involved.
    pub tuple: Tuple,
}

impl Wme {
    /// Create a new, empty instance.
    pub fn new(class: ClassId, tuple: Tuple) -> Self {
        Wme { class, tuple }
    }
}

impl fmt::Display for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}{}", self.class.0, self.tuple)
    }
}

/// One negated CE instantiated with a concrete binding: the pattern whose
/// *absence* supports an instantiation (§4.2.2's negative condition
/// handling). Tests carry the negated CE's constant selections plus its
/// join tests with the joined value substituted from the binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsentPattern {
    /// Class of the negated condition element.
    pub class: ClassId,
    /// `(attribute index, comparison, concrete value)` tests; no tuple of
    /// `class` satisfying all of them exists in working memory.
    pub tests: Vec<(usize, CompOp, Value)>,
}

impl AbsentPattern {
    /// Render as OPS5-ish source, e.g. `-(Dept ^dno = 99)`.
    pub fn display(&self, rules: &RuleSet) -> String {
        let class = rules.class(self.class);
        let mut s = format!("-({}", class.name);
        for (attr, op, value) in &self.tests {
            let name = class.attrs.get(*attr).map_or("?", String::as_str);
            s.push_str(&format!(" ^{name} {op} {value}"));
        }
        s.push(')');
        s
    }
}

/// Why an instantiation holds: the storage identities of its supporting
/// WM elements and, per negated CE, the pattern whose absence holds.
///
/// Deliberately **excluded** from the instantiation's equality, ordering
/// and hashing: engines identify instantiations by `(rule, wmes)` content
/// (the conflict set is a content-keyed multiset, and the two Rete
/// variants track WMEs by content rather than by storage id), so
/// provenance rides along without perturbing conflict-set semantics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Packed [`TupleId`]s aligned with `wmes`; empty when the engine
    /// does not track storage ids (the in-memory Rete variants).
    pub support: Vec<u64>,
    /// The absent patterns, one per negated CE of the rule.
    pub absent: Vec<AbsentPattern>,
}

impl Provenance {
    /// True when the engine supplied no provenance at all.
    pub fn is_empty(&self) -> bool {
        self.support.is_empty() && self.absent.is_empty()
    }

    /// Space-joined supporting tuple ids (`t3.1 t7.2`), aligned with the
    /// instantiation's WMEs.
    pub fn support_display(&self) -> String {
        self.support
            .iter()
            .map(|&p| TupleId::unpack(p).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Space-joined absent patterns, rendered with class/attribute names.
    pub fn absent_display(&self, rules: &RuleSet) -> String {
        self.absent
            .iter()
            .map(|a| a.display(rules))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// One satisfied production: the rule plus the WM elements matched by its
/// positive condition elements, in CE order.
///
/// This is an entry of the paper's *conflict set* — "information on all
/// applicable rules and the data elements (tuples) that cause these rules
/// to fire" (§3.1).
///
/// Equality, ordering and hashing compare only `(rule, wmes)`; see
/// [`Provenance`] for why the provenance field is excluded.
#[derive(Debug, Clone)]
pub struct Instantiation {
    /// The owning rule.
    pub rule: RuleId,
    /// Matched WMEs aligned with the rule's *positive* CEs, in order.
    pub wmes: Vec<Wme>,
    /// Supporting tuple ids / absent patterns, when the engine tracks them.
    pub why: Provenance,
}

impl PartialEq for Instantiation {
    fn eq(&self, other: &Self) -> bool {
        self.rule == other.rule && self.wmes == other.wmes
    }
}

impl Eq for Instantiation {}

impl Hash for Instantiation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rule.hash(state);
        self.wmes.hash(state);
    }
}

impl PartialOrd for Instantiation {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instantiation {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rule
            .cmp(&other.rule)
            .then_with(|| self.wmes.cmp(&other.wmes))
    }
}

impl Instantiation {
    /// Create an instantiation without provenance.
    pub fn new(rule: RuleId, wmes: Vec<Wme>) -> Self {
        Instantiation {
            rule,
            wmes,
            why: Provenance::default(),
        }
    }

    /// Attach provenance.
    pub fn with_provenance(mut self, why: Provenance) -> Self {
        self.why = why;
        self
    }

    /// Render using rule names, for traces and tests.
    pub fn display(&self, rules: &RuleSet) -> String {
        let mut s = format!("{}:", rules.rule(self.rule).name);
        for w in &self.wmes {
            s.push(' ');
            s.push_str(&format!("{}{}", rules.class(w.class).name, w.tuple));
        }
        s
    }

    /// The matched WMEs rendered with class names (`Emp(Mike,6000,...)`),
    /// space-joined — the same form the conflict-delta trace uses.
    pub fn wmes_display(&self, rules: &RuleSet) -> String {
        let mut s = String::new();
        for w in &self.wmes {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&rules.class(w.class).name);
            s.push_str(&w.tuple.to_string());
        }
        s
    }
}

/// An incremental change to the conflict set — the output arrows of the
/// paper's Figure 2 ("changes to conflict set").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConflictDelta {
    /// The instantiation entered the conflict set.
    Add(Instantiation),
    /// Remove one tuple equal to the payload.
    Remove(Instantiation),
}

impl ConflictDelta {
    /// The instantiation this delta adds or removes.
    pub fn instantiation(&self) -> &Instantiation {
        match self {
            ConflictDelta::Add(i) | ConflictDelta::Remove(i) => i,
        }
    }

    /// Is this an addition to the conflict set?
    pub fn is_add(&self) -> bool {
        matches!(self, ConflictDelta::Add(_))
    }
}

/// "No slot" in the hash chains of a [`ConflictSet`].
const NIL: u32 = u32::MAX;

/// A [`ConflictSet`] squeezes its tombstones out when they exceed one per
/// `TOMBSTONE_SHARE` live entries plus `TOMBSTONE_FLOOR`. A tombstone is
/// as wide as an instantiation, so the share is kept small: the copying
/// it costs, about `TOMBSTONE_SHARE` slots moved per removal, is cheaper
/// than the memory a larger share would hold.
const TOMBSTONE_SHARE: usize = 8;
const TOMBSTONE_FLOOR: usize = 16;

/// A maintained conflict set: applies deltas, iterates instantiations.
///
/// Semantically a **multiset**: OPS5 WMEs carry identity (time tags), so
/// two content-identical WM elements yield two separate instantiations.
/// Engines identify instantiations by content here, so duplicates are
/// tracked by multiplicity.
///
/// Entries stay in arrival order (the Fifo/Lifo strategies and refraction
/// read it), and a removal takes the *oldest* entry equal to its payload.
/// Both cost O(1) expected: a removal finds its entry through a
/// content-hash → slot index and leaves a tombstone, and tombstones are
/// squeezed out once they exceed a fixed share of the live entries. The
/// index holds slot numbers only, never a second copy of an instantiation.
#[derive(Debug, Clone, Default)]
pub struct ConflictSet {
    /// Entries in arrival order; `None` is a tombstone.
    slots: Vec<Option<Instantiation>>,
    /// Per slot: the next-newer live slot whose content hashes alike.
    next: Vec<u32>,
    /// Content hash → (oldest, newest) live slot hashing to it.
    chains: HashMap<u64, (u32, u32)>,
    live: usize,
    hasher: RandomState,
}

impl ConflictSet {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Apply one delta (multiset semantics).
    pub fn apply(&mut self, delta: &ConflictDelta) {
        match delta {
            ConflictDelta::Add(i) => self.push(i.clone()),
            ConflictDelta::Remove(i) => self.remove_oldest(i),
        }
    }

    /// Apply a sequence of deltas in order.
    pub fn apply_all<'a>(&mut self, deltas: impl IntoIterator<Item = &'a ConflictDelta>) {
        for d in deltas {
            self.apply(d);
        }
    }

    /// The current instantiations, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.slots.iter().flatten()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Is this instantiation currently in the conflict set?
    pub fn contains(&self, i: &Instantiation) -> bool {
        self.find(self.hasher.hash_one(i), i).is_some()
    }

    /// Canonically sorted copy, for equivalence tests across engines.
    pub fn sorted(&self) -> Vec<Instantiation> {
        let mut v: Vec<Instantiation> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// The oldest live slot equal to `i` on hash chain `hash`, with its
    /// predecessor on the chain (`NIL` for the chain's head).
    fn find(&self, hash: u64, i: &Instantiation) -> Option<(u32, u32)> {
        let (mut prev, mut slot) = (NIL, self.chains.get(&hash)?.0);
        while self.slots[slot as usize].as_ref() != Some(i) {
            (prev, slot) = (slot, self.next[slot as usize]);
            if slot == NIL {
                return None;
            }
        }
        Some((prev, slot))
    }

    fn push(&mut self, i: Instantiation) {
        assert!(
            self.slots.len() < NIL as usize,
            "slot numbers fit below NIL"
        );
        let slot = self.slots.len() as u32;
        match self.chains.entry(self.hasher.hash_one(&i)) {
            Entry::Occupied(mut chain) => {
                let (_, newest) = chain.get_mut();
                self.next[*newest as usize] = slot;
                *newest = slot;
            }
            Entry::Vacant(chain) => {
                chain.insert((slot, slot));
            }
        }
        self.slots.push(Some(i));
        self.next.push(NIL);
        self.live += 1;
    }

    fn remove_oldest(&mut self, i: &Instantiation) {
        let hash = self.hasher.hash_one(i);
        let Some((prev, slot)) = self.find(hash, i) else {
            return;
        };
        let after = self.next[slot as usize];
        if prev == NIL && after == NIL {
            self.chains.remove(&hash);
        } else {
            let (oldest, newest) = self.chains.get_mut(&hash).expect("slot is on the chain");
            if prev == NIL {
                *oldest = after;
            } else {
                self.next[prev as usize] = after;
            }
            if after == NIL {
                *newest = prev;
            }
        }
        self.slots[slot as usize] = None;
        self.live -= 1;
        if self.slots.len() - self.live > self.live / TOMBSTONE_SHARE + TOMBSTONE_FLOOR {
            self.compact();
        }
    }

    /// Squeeze the tombstones out and renumber the chains. Its O(slots) is
    /// paid for by the removals since the last run, a fixed share of the
    /// slots.
    fn compact(&mut self) {
        // A live slot's new number is its rank among the live slots.
        let mut rank = 0u32;
        let renumbered: Vec<u32> = self
            .slots
            .iter()
            .map(|entry| match entry {
                Some(_) => {
                    rank += 1;
                    rank - 1
                }
                None => NIL,
            })
            .collect();
        // Chains only ever link live slots, so every link has a new number.
        let moved = |slot: u32| match slot {
            NIL => NIL,
            live => renumbered[live as usize],
        };
        self.next = (self.slots.iter().zip(&self.next))
            .filter(|(entry, _)| entry.is_some())
            .map(|(_, &next)| moved(next))
            .collect();
        self.slots.retain(Option::is_some);
        for (oldest, newest) in self.chains.values_mut() {
            (*oldest, *newest) = (moved(*oldest), moved(*newest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relstore::tuple;

    fn inst(rule: usize, vals: &[i64]) -> Instantiation {
        Instantiation::new(
            RuleId(rule),
            vals.iter()
                .map(|&v| Wme::new(ClassId(0), tuple![v]))
                .collect(),
        )
    }

    #[test]
    fn conflict_set_is_a_multiset() {
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        cs.apply(&ConflictDelta::Add(inst(0, &[1])));
        assert_eq!(cs.len(), 2, "identical WMEs yield separate instantiations");
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        assert_eq!(cs.len(), 1);
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        assert!(cs.is_empty());
        cs.apply(&ConflictDelta::Remove(inst(0, &[1])));
        assert!(cs.is_empty(), "removing from empty is a no-op");
    }

    /// What the index must reproduce: a plain vector in arrival order
    /// where a removal takes the oldest equal entry.
    #[derive(Default)]
    struct VecModel(Vec<Instantiation>);

    impl VecModel {
        fn apply(&mut self, delta: &ConflictDelta) {
            match delta {
                ConflictDelta::Add(i) => self.0.push(i.clone()),
                ConflictDelta::Remove(i) => {
                    if let Some(pos) = self.0.iter().position(|x| x == i) {
                        self.0.remove(pos);
                    }
                }
            }
        }
    }

    /// Content plus the provenance tag, which equality ignores: shows
    /// *which* of several equal copies an entry is.
    fn tagged(i: &Instantiation) -> (RuleId, Vec<Wme>, Vec<u64>) {
        (i.rule, i.wmes.clone(), i.why.support.clone())
    }

    /// The chains link exactly the live slots, oldest first, each under
    /// its own content hash; tombstones stay under their cap.
    fn assert_index_consistent(cs: &ConflictSet) {
        assert_eq!(cs.slots.len(), cs.next.len());
        assert_eq!(cs.slots.iter().flatten().count(), cs.live);
        assert!(cs.slots.len() - cs.live <= cs.live / TOMBSTONE_SHARE + TOMBSTONE_FLOOR);
        let mut linked = 0;
        for (&hash, &(oldest, newest)) in &cs.chains {
            let (mut slot, mut last) = (oldest, NIL);
            while slot != NIL {
                let entry = cs.slots[slot as usize]
                    .as_ref()
                    .expect("chains skip tombstones");
                assert_eq!(cs.hasher.hash_one(entry), hash);
                assert!(last == NIL || last < slot, "a chain runs oldest to newest");
                linked += 1;
                (last, slot) = (slot, cs.next[slot as usize]);
            }
            assert_eq!(last, newest);
        }
        assert_eq!(linked, cs.live);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The indexed conflict set and the vector model agree after every
        /// delta of a random sequence — few distinct contents, so equal
        /// copies (told apart by provenance only), removals of absent
        /// entries and several compactions all occur.
        #[test]
        fn indexed_conflict_set_matches_vec_model(
            ops in proptest::collection::vec((0u8..5, 0usize..3, 0i64..4), 1..400)
        ) {
            let mut cs = ConflictSet::new();
            let mut model = VecModel::default();
            for (step, (kind, rule, val)) in ops.into_iter().enumerate() {
                let content = inst(rule, &[val]).with_provenance(Provenance {
                    support: vec![step as u64],
                    absent: Vec::new(),
                });
                let delta = if kind < 2 {
                    ConflictDelta::Add(content)
                } else {
                    ConflictDelta::Remove(content)
                };
                cs.apply(&delta);
                model.apply(&delta);
                assert_index_consistent(&cs);
                prop_assert_eq!(cs.len(), model.0.len());
                prop_assert_eq!(cs.is_empty(), model.0.is_empty());
                prop_assert_eq!(
                    cs.iter().map(tagged).collect::<Vec<_>>(),
                    model.0.iter().map(tagged).collect::<Vec<_>>()
                );
                let mut sorted = model.0.clone();
                sorted.sort();
                prop_assert_eq!(
                    cs.sorted().iter().map(tagged).collect::<Vec<_>>(),
                    sorted.iter().map(tagged).collect::<Vec<_>>()
                );
                for rule in 0..3 {
                    for val in 0..4 {
                        let probe = inst(rule, &[val]);
                        prop_assert_eq!(cs.contains(&probe), model.0.contains(&probe));
                    }
                }
            }
        }
    }

    /// A long drain crosses many compactions and ends empty, with the
    /// slot vector released rather than left as tombstones.
    #[test]
    fn draining_compacts_down_to_nothing() {
        let mut cs = ConflictSet::new();
        for v in 0..1000 {
            cs.apply(&ConflictDelta::Add(inst(0, &[v])));
        }
        for v in (0..1000).rev() {
            cs.apply(&ConflictDelta::Remove(inst(0, &[v])));
            assert_index_consistent(&cs);
        }
        assert!(cs.is_empty());
        assert!(cs.slots.len() <= TOMBSTONE_FLOOR);
    }

    #[test]
    fn sorted_is_canonical() {
        let mut a = ConflictSet::new();
        a.apply(&ConflictDelta::Add(inst(1, &[2])));
        a.apply(&ConflictDelta::Add(inst(0, &[1])));
        let mut b = ConflictSet::new();
        b.apply(&ConflictDelta::Add(inst(0, &[1])));
        b.apply(&ConflictDelta::Add(inst(1, &[2])));
        assert_eq!(a.sorted(), b.sorted());
    }

    #[test]
    fn delta_accessors() {
        let d = ConflictDelta::Add(inst(0, &[1]));
        assert!(d.is_add());
        assert_eq!(d.instantiation().rule, RuleId(0));
    }

    /// Provenance is carried but invisible to equality/ordering, so the
    /// conflict-set multiset removes provenance-free duplicates of an
    /// annotated instantiation and vice versa.
    #[test]
    fn provenance_does_not_affect_identity() {
        let plain = inst(0, &[1]);
        let annotated = plain.clone().with_provenance(Provenance {
            support: vec![TupleId::new(3, 1).pack()],
            absent: vec![AbsentPattern {
                class: ClassId(1),
                tests: vec![(0, CompOp::Eq, Value::Int(9))],
            }],
        });
        assert_eq!(plain, annotated);
        assert_eq!(plain.cmp(&annotated), std::cmp::Ordering::Equal);
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(annotated.clone()));
        cs.apply(&ConflictDelta::Remove(plain));
        assert!(cs.is_empty());
        assert_eq!(annotated.why.support_display(), "t3.1");
    }
}
