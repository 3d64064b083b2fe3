//! Working-memory elements, instantiations, conflict-set change records
//! and the conflict set.
//!
//! An instantiation's identity is its rule and the tuple ids of the WMEs
//! it matched ([`Instantiation::key`]): tuple ids play OPS5's time tags,
//! so the conflict set is a set by key in which two WMEs of equal
//! contents make two entries. Equality and ordering stay on contents,
//! because ids are names inside one database only.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use relstore::{Selection, Tuple, TupleId};

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
    /// No tuple of `class` satisfying all of these exists in working
    /// memory.
    pub tests: Vec<Selection>,
}

impl AbsentPattern {
    /// Render as OPS5-ish source, e.g. `-(Dept ^dno = 99)`.
    pub fn display(&self, rules: &RuleSet) -> String {
        let class = rules.class(self.class);
        let mut s = format!("-({}", class.name);
        for test in &self.tests {
            let name = class.attrs.get(test.attr).map_or("?", String::as_str);
            s.push_str(&format!(" ^{name} {} {}", test.op, test.value));
        }
        s.push(')');
        s
    }
}

/// One satisfied production: the rule plus the WM elements matched by its
/// positive condition elements, in CE order, and the storage ids of the
/// tuples that are those elements.
///
/// This is an entry of the paper's *conflict set* — "information on all
/// applicable rules and the data elements (tuples) that cause these rules
/// to fire" (§3.1).
///
/// Its identity is [`Instantiation::key`]: the rule and the support ids.
/// The ids play the part of OPS5's time tags, so two WM elements of equal
/// contents make two instantiations, and the conflict set, refraction and
/// §5 re-selection all tell them apart by id. A tuple id is a name inside
/// one database only (a snapshot or a log replay gives rows new ids), so
/// equality and ordering compare `(rule, wmes)`: what a conflict set holds
/// is comparable across databases by content.
///
/// It stores only what cannot be derived. The absent patterns of its
/// negated CEs are built when a reader asks ([`Instantiation::absent`]).
/// The support ids are shared by every copy, so a copy allocates the
/// `wmes` vector and nothing else.
#[derive(Debug, Clone)]
pub struct Instantiation {
    /// The owning rule.
    pub rule: RuleId,
    /// Matched WMEs aligned with the rule's *positive* CEs, in order.
    pub wmes: Vec<Wme>,
    /// Storage ids of the supporting tuples, aligned with `wmes`.
    pub support: Arc<[TupleId]>,
}

/// An instantiation's identity: its rule and its support ids. The class
/// of CE *i* is fixed by the rule, so per-relation ids suffice.
pub type InstKey<'a> = (RuleId, &'a [TupleId]);

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
    /// Create an instantiation of `rule` over `wmes`, the tuples `support`.
    pub fn new(rule: RuleId, wmes: Vec<Wme>, support: Arc<[TupleId]>) -> Self {
        debug_assert_eq!(wmes.len(), support.len(), "one id per WME");
        Instantiation {
            rule,
            wmes,
            support,
        }
    }

    /// The identity: rule and support ids.
    pub fn key(&self) -> InstKey<'_> {
        (self.rule, &self.support)
    }

    /// Space-joined supporting tuple ids (`t3.1 t7.2`), aligned with the
    /// WMEs.
    pub fn support_display(&self) -> String {
        (self.support.iter())
            .map(TupleId::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The rule's negated CEs with their join tests bound to this
    /// instantiation's WMEs: what must stay absent for it to hold, one
    /// pattern per negated CE. A join to another negated CE has no value
    /// to bind and is left out.
    pub fn absent(&self, rules: &RuleSet) -> Vec<AbsentPattern> {
        let ces = &rules.rule(self.rule).ces;
        // Position of CE `i` among the positive CEs, which `wmes` follows.
        let positive = |i: usize| match ces.get(i) {
            Some(ce) if !ce.negated => Some(ces[..i].iter().filter(|ce| !ce.negated).count()),
            _ => None,
        };
        ces.iter()
            .filter(|ce| ce.negated)
            .map(|ce| {
                let mut tests = Vec::with_capacity(ce.alpha.tests.len() + ce.joins.len());
                tests.extend(ce.alpha.tests.iter().cloned());
                for j in &ce.joins {
                    if let Some(p) = positive(j.other_ce) {
                        let bound = self.wmes[p].tuple[j.other_attr].clone();
                        tests.push(Selection::new(j.my_attr, j.op, bound));
                    }
                }
                AbsentPattern {
                    class: ce.class,
                    tests,
                }
            })
            .collect()
    }

    /// Space-joined absent patterns, rendered with class/attribute names.
    pub fn absent_display(&self, rules: &RuleSet) -> String {
        self.absent(rules)
            .iter()
            .map(|a| a.display(rules))
            .collect::<Vec<_>>()
            .join(" ")
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
    /// The instantiation with the payload's key left the conflict set.
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

/// A [`ConflictSet`] squeezes its tombstones out when they exceed one per
/// `TOMBSTONE_SHARE` live entries plus `TOMBSTONE_FLOOR`. A tombstone is
/// as wide as an instantiation, so the share is kept small: the copying
/// it costs, about `TOMBSTONE_SHARE` slots moved per removal, is cheaper
/// than the memory a larger share would hold.
const TOMBSTONE_SHARE: usize = 8;
const TOMBSTONE_FLOOR: usize = 16;

/// A maintained conflict set: applies deltas, iterates instantiations.
///
/// A **set** keyed by [`Instantiation::key`]: two content-identical WM
/// elements have two ids and yield two entries, and a removal takes the
/// entry of its own ids. Entries stay in arrival order (the Fifo/Lifo
/// strategies read it). Both cost O(1) expected: a key → slot index finds
/// an entry, a removal leaves a tombstone, and tombstones are squeezed
/// out once they exceed a fixed share of the live entries.
#[derive(Debug, Clone, Default)]
pub struct ConflictSet {
    /// Entries in arrival order; `None` is a tombstone.
    slots: Vec<Option<Instantiation>>,
    /// Key → slot of every live entry.
    index: KeyMap<u32>,
}

/// A map keyed by [`Instantiation::key`]: per rule, a hash map from
/// support ids, which a lookup borrows.
#[derive(Debug, Clone, Default)]
pub struct KeyMap<V> {
    by_rule: Vec<HashMap<Arc<[TupleId]>, V, BuildHasherDefault<KeyHasher>>>,
    len: usize,
}

impl<V> KeyMap<V> {
    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `key`.
    pub fn get(&self, (rule, ids): InstKey<'_>) -> Option<&V> {
        self.by_rule.get(rule.0)?.get(ids)
    }

    /// Mutable access to the value of `key`.
    pub fn get_mut(&mut self, (rule, ids): InstKey<'_>) -> Option<&mut V> {
        self.by_rule.get_mut(rule.0)?.get_mut(ids)
    }

    /// Map `inst`'s key to `value` unless the key is present; `false`
    /// when it was.
    pub fn insert(&mut self, inst: &Instantiation, value: V) -> bool {
        let rule = inst.rule.0;
        if self.by_rule.len() <= rule {
            self.by_rule.resize_with(rule + 1, HashMap::default);
        }
        match self.by_rule[rule].entry(inst.support.clone()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(entry) => {
                entry.insert(value);
                self.len += 1;
                true
            }
        }
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, (rule, ids): InstKey<'_>) -> Option<V> {
        let value = self.by_rule.get_mut(rule.0)?.remove(ids)?;
        self.len -= 1;
        Some(value)
    }

    /// Keep the keys `keep` holds for.
    pub fn retain(&mut self, mut keep: impl FnMut(InstKey<'_>) -> bool) {
        for (rule, map) in self.by_rule.iter_mut().enumerate() {
            map.retain(|ids, _| keep((RuleId(rule), ids)));
        }
        self.len = self.by_rule.iter().map(HashMap::len).sum();
    }
}

impl ConflictSet {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ConflictSet::default()
    }

    /// Apply one delta: an `Add` of a key already present and a `Remove`
    /// of an absent one change nothing.
    pub fn apply(&mut self, delta: &ConflictDelta) {
        match delta {
            ConflictDelta::Add(i) => self.push(i),
            ConflictDelta::Remove(i) => self.remove(i),
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
        self.index.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Is an instantiation with this key in the conflict set?
    pub fn contains_key(&self, key: InstKey<'_>) -> bool {
        self.index.get(key).is_some()
    }

    /// Canonically sorted copy, for equivalence tests across engines.
    /// The copy shares no allocation with the entries: a reference set
    /// kept after its engine is dropped would otherwise pin one support
    /// slice per entry all over the freed heap.
    pub fn sorted(&self) -> Vec<Instantiation> {
        let detached =
            |i: &Instantiation| Instantiation::new(i.rule, i.wmes.clone(), Arc::from(&*i.support));
        let mut v: Vec<Instantiation> = self.iter().map(detached).collect();
        v.sort();
        v
    }

    fn push(&mut self, i: &Instantiation) {
        let slot = u32::try_from(self.slots.len()).expect("slot numbers fit in u32");
        let fresh = self.index.insert(i, slot);
        debug_assert!(fresh, "{i:?} is in the conflict set already");
        if fresh {
            self.slots.push(Some(i.clone()));
        }
    }

    fn remove(&mut self, i: &Instantiation) {
        let Some(slot) = self.index.remove(i.key()) else {
            return;
        };
        self.slots[slot as usize] = None;
        let live = self.index.len();
        if self.slots.len() - live > live / TOMBSTONE_SHARE + TOMBSTONE_FLOOR {
            self.compact();
        }
    }

    /// Squeeze the tombstones out and renumber the index. Its O(slots) is
    /// paid for by the removals since the last run, a fixed share of the
    /// slots.
    fn compact(&mut self) {
        self.slots.retain(Option::is_some);
        for (slot, i) in self.slots.iter().flatten().enumerate() {
            *self
                .index
                .get_mut(i.key())
                .expect("a live entry is indexed") = slot as u32;
        }
    }
}

/// FxHash's mixing step: the conflict set's and the memories' maps need
/// speed and spread, not resistance to chosen keys.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relstore::tuple;

    /// An instantiation of `rule` over one WME per value, the `k`th on
    /// tuple id `ids[k]`.
    fn on(rule: usize, vals: &[i64], ids: &[u32]) -> Instantiation {
        Instantiation::new(
            RuleId(rule),
            vals.iter()
                .map(|&v| Wme::new(ClassId(0), tuple![v]))
                .collect(),
            ids.iter().map(|&slot| TupleId::new(slot, 0)).collect(),
        )
    }

    /// An instantiation whose ids follow from its values.
    fn inst(rule: usize, vals: &[i64]) -> Instantiation {
        let ids: Vec<u32> = vals.iter().map(|&v| v as u32).collect();
        on(rule, vals, &ids)
    }

    /// Two entries of equal contents over different tuples are two
    /// entries, and a removal takes the one its ids name.
    #[test]
    fn equal_contents_on_two_ids_are_two_entries() {
        let (first, second) = (on(0, &[1], &[5]), on(0, &[1], &[6]));
        assert_eq!(first, second, "equality compares contents");
        assert_ne!(first.key(), second.key());
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(first.clone()));
        cs.apply(&ConflictDelta::Add(second.clone()));
        assert_eq!(cs.len(), 2, "two WMEs of equal contents, two entries");
        cs.apply(&ConflictDelta::Remove(second.clone()));
        let left: Vec<_> = cs.iter().map(Instantiation::support_display).collect();
        assert_eq!(left, ["t5.0"], "the removal took the entry of t6");
        assert!(cs.contains_key(first.key()) && !cs.contains_key(second.key()));
        cs.apply(&ConflictDelta::Remove(second));
        assert_eq!(cs.len(), 1, "removing an absent key is a no-op");
        cs.apply(&ConflictDelta::Remove(first));
        assert!(cs.is_empty());
    }

    /// The key is the rule and the ids; contents only ride along.
    #[test]
    fn identity_is_rule_and_ids() {
        let a = on(0, &[1], &[3]);
        assert_eq!(a.key(), on(0, &[2], &[3]).key(), "same ids, same key");
        assert_ne!(a.key(), on(1, &[1], &[3]).key(), "another rule");
        assert_eq!(a.key(), (RuleId(0), &[TupleId::new(3, 0)][..]));
        assert_eq!(a.support_display(), "t3.0");
        let mut cs = ConflictSet::new();
        cs.apply(&ConflictDelta::Add(a));
        cs.apply(&ConflictDelta::Remove(on(0, &[2], &[3])));
        assert!(cs.is_empty(), "a removal names its entry by key");
    }

    /// What the index must reproduce: a plain vector in arrival order,
    /// keyed by [`Instantiation::key`].
    #[derive(Default)]
    struct VecModel(Vec<Instantiation>);

    impl VecModel {
        fn apply(&mut self, delta: &ConflictDelta) {
            let at = |i: &Instantiation| self.0.iter().position(|x| x.key() == i.key());
            match delta {
                ConflictDelta::Add(i) if at(i).is_none() => self.0.push(i.clone()),
                ConflictDelta::Add(_) => {}
                ConflictDelta::Remove(i) => {
                    if let Some(pos) = at(i) {
                        self.0.remove(pos);
                    }
                }
            }
        }
    }

    /// Content plus the support ids, which equality ignores.
    fn tagged(i: &Instantiation) -> (RuleId, Vec<Wme>, Arc<[TupleId]>) {
        (i.rule, i.wmes.clone(), i.support.clone())
    }

    /// The index maps exactly the live entries' keys to their slots, and
    /// tombstones stay under their cap.
    fn assert_index_consistent(cs: &ConflictSet) {
        assert_eq!(cs.slots.iter().flatten().count(), cs.index.len());
        let live = cs.index.len();
        assert!(cs.slots.len() - live <= live / TOMBSTONE_SHARE + TOMBSTONE_FLOOR);
        for (slot, entry) in cs.slots.iter().enumerate() {
            if let Some(entry) = entry {
                assert_eq!(cs.index.get(entry.key()), Some(&(slot as u32)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The indexed conflict set and the vector model agree after every
        /// delta of a random sequence — few distinct ids and contents, so
        /// equal contents on different ids, removals of absent keys and
        /// several compactions all occur.
        #[test]
        fn indexed_conflict_set_matches_vec_model(
            ops in proptest::collection::vec((0u8..5, 0usize..3, 0i64..4, 0u32..6), 1..400)
        ) {
            let mut cs = ConflictSet::new();
            let mut model = VecModel::default();
            for (kind, rule, val, id) in ops {
                let content = on(rule, &[val], &[id]);
                let delta = if kind < 2 {
                    ConflictDelta::Add(content)
                } else {
                    ConflictDelta::Remove(content)
                };
                // The conflict set takes no second entry of a key, and
                // engines never offer one.
                if !(delta.is_add() && cs.contains_key(delta.instantiation().key())) {
                    cs.apply(&delta);
                }
                model.apply(&delta);
                assert_index_consistent(&cs);
                prop_assert_eq!(cs.len(), model.0.len());
                prop_assert_eq!(cs.is_empty(), model.0.is_empty());
                prop_assert_eq!(
                    cs.iter().map(tagged).collect::<Vec<_>>(),
                    model.0.iter().map(tagged).collect::<Vec<_>>()
                );
                for rule in 0..3 {
                    for id in 0..6 {
                        let probe = on(rule, &[0], &[id]);
                        prop_assert_eq!(
                            cs.contains_key(probe.key()),
                            model.0.iter().any(|x| x.key() == probe.key())
                        );
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

    /// Absent patterns derived from `(rule, wmes)`: a negated CE's
    /// constant tests come first, then its joins bound from the WMEs of
    /// the positive CEs they name (by `=`, `>` and `<=`, across a positive
    /// CE that follows a negated one); a join to another negated CE binds
    /// nothing and is left out. The strings are the ones the patterns
    /// stored at materialisation used to render.
    #[test]
    fn absent_patterns_are_derived_from_the_wmes() {
        let mut rules = ops5::compile(
            r#"
            (literalize A x y)
            (literalize B x y z)
            (literalize C x y)
            (literalize D x)
            (p R
                (A ^x <X> ^y <Y>)
                -(B ^x <X> ^y > <Y> ^z 5)
                (D ^x <W>)
                -(C ^x 3 ^y Toy)
                -(B ^x <W> ^y <= <X>)
                -->
                (remove 1))
            "#,
        )
        .unwrap();
        // No source text joins two negated CEs; the IR can.
        rules.rules[0].ces[3].joins.push(ops5::JoinTest {
            my_attr: 1,
            op: relstore::CompOp::Eq,
            other_ce: 1,
            other_attr: 0,
        });
        let inst = Instantiation::new(
            RuleId(0),
            vec![
                Wme::new(ClassId(0), tuple![1, 2]),
                Wme::new(ClassId(3), tuple![9]),
            ],
            Arc::from([TupleId::new(0, 0), TupleId::new(0, 0)]),
        );
        assert_eq!(inst.absent(&rules).len(), 3, "one pattern per negated CE");
        assert_eq!(
            inst.absent_display(&rules),
            "-(B ^z = 5 ^x = 1 ^y > 2) -(C ^x = 3 ^y = Toy) -(B ^x = 9 ^y <= 1)"
        );
    }
}
