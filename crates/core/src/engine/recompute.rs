//! Shared instantiation bookkeeping for engines that (re)compute LHS
//! queries: an exact multiset of current instantiations per rule, keyed by
//! tuple ids so duplicate WM elements are handled correctly.

use std::collections::HashMap;

use ops5::{ClassId, Rule, RuleId};
use relstore::{Binding, Planner, QueryExecutor, Tuple, TupleId};
use rete::{AbsentPattern, ConflictDelta, Instantiation, Provenance, Wme};

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
    /// Materialize this match as a conflict-set instantiation, carrying
    /// full provenance: the supporting tuple ids and, for each negated
    /// CE, the concrete pattern whose absence holds (§4.2.2).
    pub fn instantiation(&self, rule: &Rule) -> Instantiation {
        let classes: Vec<ClassId> = rule
            .ces
            .iter()
            .filter(|ce| !ce.negated)
            .map(|ce| ce.class)
            .collect();
        let wmes = classes
            .into_iter()
            .zip(&self.tuples)
            .map(|(c, t)| Wme::new(c, t.clone()))
            .collect();
        Instantiation::new(rule.id, wmes).with_provenance(Provenance {
            support: self.tids.iter().map(|t| t.pack()).collect(),
            absent: self.absent_patterns(rule),
        })
    }

    /// The rule's negated CEs with their join tests bound to this match's
    /// concrete values: what must stay absent for the match to hold.
    fn absent_patterns(&self, rule: &Rule) -> Vec<AbsentPattern> {
        let positive_pos = {
            let mut pos = Vec::with_capacity(rule.ces.len());
            let mut next = 0usize;
            for ce in &rule.ces {
                pos.push(if ce.negated {
                    None
                } else {
                    next += 1;
                    Some(next - 1)
                });
            }
            pos
        };
        rule.ces
            .iter()
            .filter(|ce| ce.negated)
            .map(|ce| {
                let mut tests: Vec<_> = ce
                    .alpha
                    .tests
                    .iter()
                    .map(|s| (s.attr, s.op, s.value.clone()))
                    .collect();
                for j in &ce.joins {
                    if let Some(p) = positive_pos.get(j.other_ce).copied().flatten() {
                        tests.push((j.my_attr, j.op, self.tuples[p][j.other_attr].clone()));
                    }
                }
                AbsentPattern {
                    class: ce.class,
                    tests,
                }
            })
            .collect()
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
/// Runs the nested-loop plan (the pre-batching strategy).
pub fn eval_rule(pdb: &ProductionDb, rule: &Rule) -> Vec<Match> {
    eval_rule_via(pdb, rule, false)
}

/// Evaluate a rule's LHS, choosing the plan: `set_oriented` lets the
/// planner pick hash joins, otherwise every step is a tuple-at-a-time
/// index nested loop. Both return the same match set (property-tested).
pub fn eval_rule_via(pdb: &ProductionDb, rule: &Rule, set_oriented: bool) -> Vec<Match> {
    eval(pdb, rule, None, &[], set_oriented)
}

/// Evaluate a rule's LHS seeded with a specific tuple filling positive CE
/// `ce` (§4.1.2's insertion path).
pub fn eval_rule_seeded(
    pdb: &ProductionDb,
    rule: &Rule,
    ce: usize,
    tid: TupleId,
    tuple: &Tuple,
) -> Vec<Match> {
    eval(pdb, rule, Some(ce), &[(tid, tuple.clone())], false)
}

/// Evaluate a rule's LHS once per seed tuple filling positive CE `ce`,
/// returning the concatenation. `set_oriented` evaluates the whole seed
/// set in one pass under one plan; otherwise the seeds are planned and
/// probed one at a time — the two produce equal match multisets, in
/// possibly different order, so callers must dedup/diff by tid vector
/// (they do: [`InstStore`]).
pub fn eval_rule_seeded_batch(
    pdb: &ProductionDb,
    rule: &Rule,
    ce: usize,
    seeds: &[(TupleId, Tuple)],
    set_oriented: bool,
) -> Vec<Match> {
    if set_oriented {
        eval(pdb, rule, Some(ce), seeds, true)
    } else {
        seeds
            .chunks(1)
            .flat_map(|seed| eval(pdb, rule, Some(ce), seed, false))
            .collect()
    }
}

/// Multiset difference by tid vector: pair each match of `new`, in order,
/// with the first still-unpaired match of `old` over the same tuples.
/// Returns which of `old` and which of `new` found a partner.
fn pair_by_tids(old: &[Match], new: &[Match]) -> (Vec<bool>, Vec<bool>) {
    let mut old_paired = vec![false; old.len()];
    let new_paired = new
        .iter()
        .map(|m| {
            let hit = (0..old.len()).find(|&i| !old_paired[i] && old[i].tids == m.tids);
            if let Some(i) = hit {
                old_paired[i] = true;
            }
            hit.is_some()
        })
        .collect();
    (old_paired, new_paired)
}

/// Exact multiset of live matches per rule.
#[derive(Debug, Default)]
pub struct InstStore {
    by_rule: HashMap<RuleId, Vec<Match>>,
}

impl InstStore {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        InstStore::default()
    }

    /// Total live matches across all rules.
    pub fn total(&self) -> usize {
        self.by_rule.values().map(Vec::len).sum()
    }

    /// Replace rule `rule`'s matches with `new`, emitting deltas for the
    /// symmetric difference (by tid vector, multiset semantics).
    pub fn replace(&mut self, rule: &Rule, new: Vec<Match>) -> Vec<ConflictDelta> {
        let old = self.by_rule.remove(&rule.id).unwrap_or_default();
        let (kept, known) = pair_by_tids(&old, &new);
        let gone = old.iter().zip(kept).filter(|(_, kept)| !kept);
        let fresh = new.iter().zip(known).filter(|(_, known)| !known);
        let deltas = gone
            .map(|(m, _)| ConflictDelta::Remove(m.instantiation(rule)))
            .chain(fresh.map(|(m, _)| ConflictDelta::Add(m.instantiation(rule))))
            .collect();
        self.by_rule.insert(rule.id, new);
        deltas
    }

    /// Remove all matches of `rule` containing `tid` at a position whose
    /// positive CE has class `class`.
    pub fn remove_containing(
        &mut self,
        rule: &Rule,
        class: ClassId,
        tid: TupleId,
    ) -> Vec<ConflictDelta> {
        self.remove_where(rule, |m| {
            let positive = rule.ces.iter().filter(|ce| !ce.negated);
            m.tids
                .iter()
                .zip(positive)
                .any(|(t, ce)| *t == tid && ce.class == class)
        })
    }

    /// Remove matches of `rule` failing a predicate, emitting deltas.
    pub fn remove_where(
        &mut self,
        rule: &Rule,
        mut invalid: impl FnMut(&Match) -> bool,
    ) -> Vec<ConflictDelta> {
        let Some(ms) = self.by_rule.get_mut(&rule.id) else {
            return Vec::new();
        };
        let mut deltas = Vec::new();
        ms.retain(|m| {
            if invalid(m) {
                deltas.push(ConflictDelta::Remove(m.instantiation(rule)));
                false
            } else {
                true
            }
        });
        deltas
    }

    /// Matches in `new` not already stored for `rule` (by tid vector),
    /// added and returned as Add deltas.
    pub fn add_missing(&mut self, rule: &Rule, new: Vec<Match>) -> Vec<ConflictDelta> {
        let existing = self.by_rule.entry(rule.id).or_default();
        let (_, known) = pair_by_tids(existing, &new);
        let mut deltas = Vec::new();
        for (m, _) in new.into_iter().zip(known).filter(|(_, known)| !known) {
            deltas.push(ConflictDelta::Add(m.instantiation(rule)));
            existing.push(m);
        }
        deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn duplicate_tuples_tracked_as_multiset() {
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
        let deltas = store.remove_containing(&rule, ClassId(0), tid);
        assert_eq!(deltas.len(), 1);
        assert_eq!(store.total(), 1);
    }

    #[test]
    fn seeded_eval_matches_full_eval() {
        let (pdb, rid) = setup();
        let rule = pdb.rules().rule(rid).clone();
        pdb.insert_wm(ClassId(0), tuple!["Ann", 7]).unwrap();
        let tid = pdb.insert_wm(ClassId(1), tuple![7, "Toy"]).unwrap();
        let seeded = eval_rule_seeded(&pdb, &rule, 1, tid, &tuple![7, "Toy"]);
        let full = eval_rule(&pdb, &rule);
        assert_eq!(seeded.len(), full.len());
        assert_eq!(seeded[0].tids, full[0].tids);
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
