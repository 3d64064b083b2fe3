//! Shared instantiation bookkeeping for engines that (re)compute LHS
//! queries: the set of current instantiations per rule, keyed by tuple
//! ids, the identity every engine gives an instantiation.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use ops5::{ClassId, Rule, RuleId, RuleSet};
use relstore::{Binding, Planner, QueryExecutor, Tuple, TupleId};
use rete::{ConflictDelta, Instantiation, Wme};

use crate::engine::intern::FnvHasher;
use crate::pdb::ProductionDb;

/// One concrete match: tuple ids and contents of the positive CEs, in CE
/// order.
#[derive(Debug, Clone)]
pub struct Match {
    /// Tuple ids, aligned with the positive CEs.
    pub tids: Vec<TupleId>,
    /// Tuple contents, aligned with `tids`.
    pub tuples: Vec<Tuple>,
}

impl Match {
    /// Materialize this match as a conflict-set instantiation carrying
    /// its supporting tuple ids, stored once and shared by every copy.
    /// The absent patterns of negated CEs are derived from it on demand
    /// ([`Instantiation::absent`]).
    pub fn instantiation(&self, rule: &Rule) -> Instantiation {
        let wmes = positive_classes(rule)
            .zip(&self.tuples)
            .map(|(c, t)| Wme::new(c, t.clone()))
            .collect();
        Instantiation::new(rule.id, wmes, self.tids.as_slice().into())
    }
}

/// Flatten executor bindings (positive slots in CE order) into matches.
fn matches_from(bindings: Vec<Binding>) -> Vec<Match> {
    bindings
        .into_iter()
        .map(|b| {
            let mut tids = Vec::new();
            let mut tuples = Vec::new();
            for slot in b.slots.into_iter().flatten() {
                tids.push(slot.0);
                tuples.push(slot.1);
            }
            Match { tids, tuples }
        })
        .collect()
}

/// Run `rule`'s LHS query through the one executor, around `seeds`
/// filling positive CE `seed_ce` when given. `set_oriented` only chooses
/// the plan: the planner's (hash or nested-loop steps by observed
/// cardinalities) or the same join order pinned to nested loops.
fn eval(
    pdb: &ProductionDb,
    rule: &Rule,
    seed_ce: Option<usize>,
    seeds: &[(TupleId, Tuple)],
    set_oriented: bool,
) -> Vec<Match> {
    let query = pdb.query(rule.id);
    let planner = Planner::new(pdb.db());
    let plan = if set_oriented {
        planner.plan_seeded(query, seed_ce, seeds.len() as f64)
    } else {
        planner.plan_nested_loop(query, seed_ce)
    };
    let bindings = QueryExecutor::new(pdb.db())
        .exec_plan(query, &plan, seeds)
        .expect("rule query");
    matches_from(bindings)
}

/// Evaluate a rule's LHS against the current WM. Returns every match.
/// Runs the nested-loop plan: the oracle the engines' planner-chosen
/// plans are checked against.
pub fn eval_rule(pdb: &ProductionDb, rule: &Rule) -> Vec<Match> {
    eval_rule_via(pdb, rule, false)
}

/// Evaluate a rule's LHS, choosing the plan: `set_oriented` lets the
/// planner pick hash joins, otherwise every step is a tuple-at-a-time
/// index nested loop. Both return the same match set (property-tested).
pub fn eval_rule_via(pdb: &ProductionDb, rule: &Rule, set_oriented: bool) -> Vec<Match> {
    eval(pdb, rule, None, &[], set_oriented)
}

/// Evaluate a rule's LHS with the seed tuples filling positive CE `ce`
/// (§4.1.2's insertion path), the whole seed set in one pass under one
/// planner-chosen plan. Matches come back in plan order, so callers
/// dedup/diff by tid vector ([`InstStore`]).
pub fn eval_rule_seeded_batch(
    pdb: &ProductionDb,
    rule: &Rule,
    ce: usize,
    seeds: &[(TupleId, Tuple)],
) -> Vec<Match> {
    eval(pdb, rule, Some(ce), seeds, true)
}

/// Address of one stored match: its rule, the hash of its tid vector and
/// its arrival number in the store (never reused), which tells apart tid
/// vectors whose hashes collide.
type Slot = (RuleId, u64, u64);

/// Every slot `rule` can have, as range bounds.
fn slots_of(rule: RuleId) -> std::ops::RangeInclusive<Slot> {
    (rule, 0, 0)..=(rule, u64::MAX, u64::MAX)
}

fn tids_hash(tids: &[TupleId]) -> u64 {
    let mut hasher = FnvHasher::default();
    tids.hash(&mut hasher);
    hasher.finish()
}

/// The classes of `rule`'s positive CEs, aligned with [`Match::tids`].
fn positive_classes(rule: &Rule) -> impl Iterator<Item = ClassId> + '_ {
    rule.ces.iter().filter(|ce| !ce.negated).map(|ce| ce.class)
}

/// The set of live matches per rule, by tid vector.
///
/// Two indexes are maintained with every insertion and removal, both
/// holding slots only. The tid-vector index is the order of the map
/// itself: the matches of one rule whose tid vectors hash alike are
/// adjacent, so deciding whether a match is already stored costs one
/// probe. The support index leads from each `(class, tuple id)` to the
/// slots it supports, so withdrawing a deleted tuple's matches costs what
/// it removes.
///
/// Additions come back in the caller's order. A rule's matches iterate in
/// hash order, which is repeatable but means nothing, so removals come
/// back in no particular order — the conflict set removes by key.
#[derive(Debug, Default)]
pub struct InstStore {
    matches: BTreeMap<Slot, Stored>,
    /// `(class, tuple id, slot)` for every position of every match.
    by_support: BTreeSet<(ClassId, TupleId, Slot)>,
    arrivals: u64,
    /// `replace` calls so far.
    calls: u64,
}

#[derive(Debug)]
struct Stored {
    m: Match,
    /// The last `replace` call whose new matches hold this one: a mark
    /// that makes the scan for the matches to drop O(1) per match.
    seen_in: u64,
}

impl InstStore {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        InstStore::default()
    }

    /// Total live matches across all rules.
    pub fn total(&self) -> usize {
        self.matches.len()
    }

    /// Replace rule `rule`'s matches with `new`, emitting deltas for the
    /// set difference by tid vector: removals first, then additions in
    /// `new`'s order.
    pub fn replace(&mut self, rule: &Rule, new: Vec<Match>) -> Vec<ConflictDelta> {
        self.calls += 1;
        let mut fresh = Vec::new();
        for m in new {
            let calls = self.calls;
            match self.find(rule.id, &m.tids) {
                Some(stored) => stored.seen_in = calls,
                None => fresh.push(m),
            }
        }
        let gone: Vec<Slot> = (self.matches.range(slots_of(rule.id)))
            .filter(|(_, stored)| stored.seen_in != self.calls)
            .map(|(slot, _)| *slot)
            .collect();
        let mut deltas = self.take_all(rule, gone);
        deltas.extend(self.add_missing(rule, fresh));
        deltas
    }

    /// Remove every match, of any rule, containing `tid` at a position
    /// whose positive CE has class `class`.
    pub fn remove_containing(
        &mut self,
        rules: &RuleSet,
        class: ClassId,
        tid: TupleId,
    ) -> Vec<ConflictDelta> {
        let from = (class, tid, (RuleId(0), 0, 0));
        let to = (class, tid, (RuleId(usize::MAX), u64::MAX, u64::MAX));
        let slots: Vec<Slot> = self
            .by_support
            .range(from..=to)
            .map(|&(_, _, slot)| slot)
            .collect();
        slots
            .into_iter()
            .map(|slot| self.take(rules.rule(slot.0), slot))
            .collect()
    }

    /// Remove the matches of `rule` satisfying `invalid`, emitting deltas.
    pub fn remove_where(
        &mut self,
        rule: &Rule,
        mut invalid: impl FnMut(&Match) -> bool,
    ) -> Vec<ConflictDelta> {
        let slots = self
            .matches
            .range(slots_of(rule.id))
            .filter(|(_, stored)| invalid(&stored.m))
            .map(|(slot, _)| *slot)
            .collect();
        self.take_all(rule, slots)
    }

    /// Matches in `new` not already stored for `rule` (by tid vector),
    /// added and returned as Add deltas, the first of a repeat only.
    pub fn add_missing(&mut self, rule: &Rule, new: Vec<Match>) -> Vec<ConflictDelta> {
        (new.into_iter())
            .filter_map(|m| (self.find(rule.id, &m.tids).is_none()).then(|| self.add(rule, m)))
            .collect()
    }

    /// `rule`'s match over `tids`, if one is stored.
    fn find(&mut self, rule: RuleId, tids: &[TupleId]) -> Option<&mut Stored> {
        let hash = tids_hash(tids);
        (self
            .matches
            .range_mut((rule, hash, 0)..=(rule, hash, u64::MAX)))
        .map(|(_, stored)| stored)
        .find(|stored| stored.m.tids == tids)
    }

    /// Store `m` as the newest match of `rule`.
    fn add(&mut self, rule: &Rule, m: Match) -> ConflictDelta {
        let slot = (rule.id, tids_hash(&m.tids), self.arrivals);
        self.arrivals += 1;
        for (class, tid) in positive_classes(rule).zip(&m.tids) {
            self.by_support.insert((class, *tid, slot));
        }
        let delta = ConflictDelta::Add(m.instantiation(rule));
        self.matches.insert(slot, Stored { m, seen_in: 0 });
        delta
    }

    /// Drop the match stored at `slot`, which belongs to `rule`.
    fn take(&mut self, rule: &Rule, slot: Slot) -> ConflictDelta {
        let Stored { m, .. } = self.matches.remove(&slot).expect("indexed slot is live");
        for (class, tid) in positive_classes(rule).zip(&m.tids) {
            self.by_support.remove(&(class, *tid, slot));
        }
        ConflictDelta::Remove(m.instantiation(rule))
    }

    fn take_all(&mut self, rule: &Rule, slots: Vec<Slot>) -> Vec<ConflictDelta> {
        slots
            .into_iter()
            .map(|slot| self.take(rule, slot))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use proptest::prelude::*;
    use relstore::tuple;

    fn setup() -> (ProductionDb, RuleId) {
        let rs = ops5::compile(
            r#"
            (literalize Emp name dno)
            (literalize Dept dno dname)
            (p R (Emp ^dno <D>) (Dept ^dno <D> ^dname Toy) --> (remove 1))
            "#,
        )
        .unwrap();
        (ProductionDb::new(rs).unwrap(), RuleId(0))
    }

    #[test]
    fn eval_and_replace_diff() {
        let (pdb, rid) = setup();
        let rule = pdb.rules().rule(rid).clone();
        let emp = ClassId(0);
        let dept = ClassId(1);
        pdb.insert_wm(emp, tuple!["Ann", 7]).unwrap();
        let mut store = InstStore::new();
        assert!(store.replace(&rule, eval_rule(&pdb, &rule)).is_empty());

        pdb.insert_wm(dept, tuple![7, "Toy"]).unwrap();
        let deltas = store.replace(&rule, eval_rule(&pdb, &rule));
        assert_eq!(deltas.len(), 1);
        assert!(deltas[0].is_add());
        assert_eq!(store.total(), 1);

        pdb.remove_wm_equal(dept, &tuple![7, "Toy"]).unwrap();
        let deltas = store.replace(&rule, eval_rule(&pdb, &rule));
        assert_eq!(deltas.len(), 1);
        assert!(!deltas[0].is_add());
        assert_eq!(store.total(), 0);
    }

    #[test]
    fn duplicate_tuples_are_two_matches() {
        let (pdb, rid) = setup();
        let rule = pdb.rules().rule(rid).clone();
        pdb.insert_wm(ClassId(0), tuple!["Ann", 7]).unwrap();
        pdb.insert_wm(ClassId(0), tuple!["Ann", 7]).unwrap();
        pdb.insert_wm(ClassId(1), tuple![7, "Toy"]).unwrap();
        let mut store = InstStore::new();
        let deltas = store.replace(&rule, eval_rule(&pdb, &rule));
        assert_eq!(deltas.len(), 2, "one instantiation per duplicate");
        // Removing one duplicate removes exactly one instantiation.
        let tid = pdb
            .remove_wm_equal(ClassId(0), &tuple!["Ann", 7])
            .unwrap()
            .unwrap();
        let deltas = store.remove_containing(pdb.rules(), ClassId(0), tid);
        assert_eq!(deltas.len(), 1);
        assert_eq!(store.total(), 1);
    }

    #[test]
    fn seeded_eval_matches_full_eval() {
        let (pdb, rid) = setup();
        let rule = pdb.rules().rule(rid).clone();
        pdb.insert_wm(ClassId(0), tuple!["Ann", 7]).unwrap();
        let tid = pdb.insert_wm(ClassId(1), tuple![7, "Toy"]).unwrap();
        let seeded = eval_rule_seeded_batch(&pdb, &rule, 1, &[(tid, tuple![7, "Toy"])]);
        let full = eval_rule(&pdb, &rule);
        assert_eq!(seeded.len(), full.len());
        assert_eq!(seeded[0].tids, full[0].tids);
    }

    /// The store without its indexes: a list of matches per rule, every
    /// operation a walk over it. What [`InstStore`] must reproduce.
    #[derive(Default)]
    struct NaiveStore(HashMap<RuleId, Vec<Match>>);

    impl NaiveStore {
        /// `new` without repeats of a tid vector, first occurrences in
        /// order.
        fn distinct(new: Vec<Match>) -> Vec<Match> {
            let mut out: Vec<Match> = Vec::new();
            for m in new {
                if !out.iter().any(|o| o.tids == m.tids) {
                    out.push(m);
                }
            }
            out
        }

        fn replace(&mut self, rule: &Rule, new: Vec<Match>) -> Vec<ConflictDelta> {
            let old = self.0.remove(&rule.id).unwrap_or_default();
            let new = Self::distinct(new);
            let known = |set: &[Match], m: &Match| set.iter().any(|o| o.tids == m.tids);
            let gone = old.iter().filter(|m| !known(&new, m));
            let fresh = new.iter().filter(|m| !known(&old, m));
            let deltas = gone
                .map(|m| ConflictDelta::Remove(m.instantiation(rule)))
                .chain(fresh.map(|m| ConflictDelta::Add(m.instantiation(rule))))
                .collect();
            self.0.insert(rule.id, new);
            deltas
        }

        fn add_missing(&mut self, rule: &Rule, new: Vec<Match>) -> Vec<ConflictDelta> {
            let existing = self.0.entry(rule.id).or_default();
            let mut deltas = Vec::new();
            for m in new {
                if !existing.iter().any(|o| o.tids == m.tids) {
                    deltas.push(ConflictDelta::Add(m.instantiation(rule)));
                    existing.push(m);
                }
            }
            deltas
        }

        fn remove_where(
            &mut self,
            rule: &Rule,
            mut invalid: impl FnMut(&Match) -> bool,
        ) -> Vec<ConflictDelta> {
            let mut deltas = Vec::new();
            self.0.entry(rule.id).or_default().retain(|m| {
                let gone = invalid(m);
                if gone {
                    deltas.push(ConflictDelta::Remove(m.instantiation(rule)));
                }
                !gone
            });
            deltas
        }

        fn total(&self) -> usize {
            self.0.values().map(Vec::len).sum()
        }
    }

    /// Does `m` hold `tid` at a position whose positive CE is of `class`?
    fn contains(rule: &Rule, m: &Match, class: ClassId, tid: TupleId) -> bool {
        positive_classes(rule)
            .zip(&m.tids)
            .any(|(c, t)| c == class && *t == tid)
    }

    /// A synthetic match over tuple ids `tids` (one per positive CE).
    fn synthetic(tids: &[u8]) -> Match {
        Match {
            tids: tids.iter().map(|&t| TupleId::new(t.into(), 0)).collect(),
            tuples: tids.iter().map(|&t| tuple![i64::from(t)]).collect(),
        }
    }

    /// Deltas in a canonical order, with the supporting tids kept visible.
    fn canonical(deltas: &[ConflictDelta]) -> Vec<(bool, Instantiation, String)> {
        let mut v: Vec<_> = deltas
            .iter()
            .map(|d| {
                let i = d.instantiation();
                (d.is_add(), i.clone(), i.support_display())
            })
            .collect();
        v.sort();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The indexed store and the naive one emit the same deltas for a
        /// random operation sequence over three rules — additions in the
        /// same order, removals as the same set — and hold the same
        /// matches at the end. Tuple ids come from a domain of four, so
        /// tid vectors repeat within one call and across calls, and the
        /// same id names a row of `A` in one position and of `B` in
        /// another.
        #[test]
        fn indexed_store_matches_naive_store(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..3, proptest::collection::vec((0u8..4, 0u8..4), 0..6), 0u8..4),
                1..60,
            )
        ) {
            let rules = ops5::compile(
                r#"
                (literalize A x)
                (literalize B x)
                (p AB (A ^x <V>) (B ^x <V>) --> (remove 1))
                (p BA (B ^x <V>) (A ^x <V>) --> (remove 1))
                (p AA (A ^x <V>) (A ^x <V>) -(B ^x <V>) --> (remove 1))
                "#,
            )
            .unwrap();
            let (mut indexed, mut naive) = (InstStore::new(), NaiveStore::default());
            for (kind, r, pairs, t) in ops {
                let rule = &rules.rules[r];
                let mut new: Vec<Match> = pairs.iter().map(|&(a, b)| synthetic(&[a, b])).collect();
                if kind == 0 && t < 2 {
                    // A re-evaluation that repeats the stored matches in
                    // order before it differs.
                    let mut again = naive.0.get(&rule.id).cloned().unwrap_or_default();
                    again.truncate(usize::from(t) + 1);
                    again.append(&mut new);
                    new = again;
                }
                let (class, tid) = (ClassId(usize::from(t % 2)), TupleId::new(t.into(), 0));
                let low = |m: &Match| m.tids[1].slot < 2;
                let (got, want) = match kind {
                    0 => (indexed.replace(rule, new.clone()), naive.replace(rule, new)),
                    1 => (indexed.add_missing(rule, new.clone()), naive.add_missing(rule, new)),
                    2 => (
                        indexed.remove_containing(&rules, class, tid),
                        rules
                            .rules
                            .iter()
                            .flat_map(|rule| {
                                naive.remove_where(rule, |m| contains(rule, m, class, tid))
                            })
                            .collect(),
                    ),
                    _ => (indexed.remove_where(rule, low), naive.remove_where(rule, low)),
                };
                let adds = |ds: &[ConflictDelta]| -> Vec<ConflictDelta> {
                    ds.iter().filter(|d| d.is_add()).cloned().collect()
                };
                prop_assert_eq!(adds(&got), adds(&want));
                prop_assert_eq!(canonical(&got), canonical(&want));
                prop_assert_eq!(indexed.total(), naive.total());
            }
            for rule in &rules.rules {
                prop_assert_eq!(
                    canonical(&indexed.remove_where(rule, |_| true)),
                    canonical(&naive.remove_where(rule, |_| true))
                );
            }
            prop_assert!(indexed.matches.is_empty() && indexed.by_support.is_empty());
        }
    }

    #[test]
    fn add_missing_dedupes() {
        let (pdb, rid) = setup();
        let rule = pdb.rules().rule(rid).clone();
        pdb.insert_wm(ClassId(0), tuple!["Ann", 7]).unwrap();
        pdb.insert_wm(ClassId(1), tuple![7, "Toy"]).unwrap();
        let mut store = InstStore::new();
        let all = eval_rule(&pdb, &rule);
        store.replace(&rule, all.clone());
        assert!(
            store.add_missing(&rule, all).is_empty(),
            "nothing new to add"
        );
    }
}
