//! Greedy join-order planning.
//!
//! §3.2 of the paper criticizes the Rete network for freezing one access
//! plan at compile time and notes that "database technology provides more
//! efficient ways of generating efficient access plans". The planner here
//! implements the standard greedy heuristic: start from the seeded or most
//! selective term, then repeatedly append the cheapest term that is
//! connected to the bound set by an equi-join (falling back to the smallest
//! unconnected term, i.e. a cross product, only when forced).

use super::ConjunctiveQuery;
use crate::database::Database;
use crate::pred::CompOp;

/// Join algorithm chosen for one plan step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    /// Index nested-loop: probe the step's relation once per outer
    /// binding, with the bound join predicates pushed into the read.
    NestedLoop,
    /// Build/probe hash join over the step's equi-join attributes: one
    /// read of the step's relation serves every outer binding.
    Hash,
}

impl JoinAlgo {
    /// Stable label used in EXPLAIN renderings and JSON.
    pub fn label(self) -> &'static str {
        match self {
            JoinAlgo::NestedLoop => "nested-loop",
            JoinAlgo::Hash => "hash",
        }
    }
}

/// Estimated step cardinality above which hashing the step's input beats
/// re-probing it per outer binding. Shared with [`crate::Txn`]'s batched
/// re-selection, which faces the same probe-vs-build choice.
pub(crate) const HASH_THRESHOLD: f64 = 8.0;

/// An ordered execution plan over the positive terms of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Visit order (indexes into `query.terms`); negated terms excluded.
    pub order: Vec<usize>,
    /// Per-step join algorithm, aligned with `order`. The first step is a
    /// scan and always [`JoinAlgo::NestedLoop`].
    pub algos: Vec<JoinAlgo>,
    /// Estimated cardinality of each step's term, aligned with `order`.
    pub estimates: Vec<f64>,
    /// Term seeded with a known tuple, if any. Always first in `order`.
    pub seed: Option<usize>,
    /// Anti-join algorithm of the negated terms when the plan pins one;
    /// `None` leaves it to [`Planner::anti_algo`] at run time, from the
    /// number of bindings that actually reach each negated term.
    pub anti: Option<JoinAlgo>,
}

impl Plan {
    /// Visit the positive terms in the imposed `order` (unseeded, no
    /// estimates) with every join and anti-join step pinned to
    /// [`JoinAlgo::NestedLoop`]: the tuple-at-a-time I/O profile — one
    /// index probe per binding per step — as a plan.
    pub fn nested_loop(order: Vec<usize>) -> Plan {
        Plan {
            algos: vec![JoinAlgo::NestedLoop; order.len()],
            estimates: Vec::new(),
            order,
            seed: None,
            anti: Some(JoinAlgo::NestedLoop),
        }
    }
}

/// Plans conjunctive queries against a database's current statistics.
pub struct Planner<'a> {
    db: &'a Database,
}

impl<'a> Planner<'a> {
    /// Create a new, empty instance.
    pub fn new(db: &'a Database) -> Self {
        Planner { db }
    }

    /// Estimated result size of evaluating just term `t`'s restriction.
    /// Prefers the selection selectivity the executors have *observed* on
    /// the relation (ANALYZE registry) over the per-operator default,
    /// falling back to the default until something has been observed.
    /// Public so EXPLAIN can report the same estimates the planner
    /// ordered by.
    pub fn term_cardinality(&self, query: &ConjunctiveQuery, t: usize) -> f64 {
        let term = &query.terms[t];
        let n = self.db.relation_len(term.rel) as f64;
        let default = term.restriction.selectivity();
        let sel = if term.restriction.tests.is_empty() {
            default
        } else {
            self.db
                .analyze_registry()
                .observed(term.rel)
                .selection_selectivity()
                .unwrap_or(default)
        };
        n * sel.max(1e-6)
    }

    /// The most selective (largest) distinct count among `t`'s equi-join
    /// attributes into `bound` — the per-probe bucket size of an index
    /// nested loop is about `|t| / d`. `None` when no equi-join connects
    /// `t` to the bound set.
    fn eq_join_distinct(
        &self,
        query: &ConjunctiveQuery,
        t: usize,
        bound: &[usize],
    ) -> Option<usize> {
        query
            .joins_of(t)
            .filter_map(|j| {
                let (my_attr, op, other, _) = j.oriented(t)?;
                if op == CompOp::Eq && bound.contains(&other) {
                    self.db
                        .read(query.terms[t].rel, |r| r.distinct_estimate(my_attr))
                        .ok()
                } else {
                    None
                }
            })
            .max()
    }

    /// Join algorithm for evaluating term `t` after `bound` terms are
    /// bound, with `bindings` partial bindings estimated to probe it.
    ///
    /// An index nested loop reads about `bindings * |t| / d` tuples (`d`
    /// the join attribute's distinct count); a hash join reads `|t|` once
    /// to build. Hash therefore pays off when `bindings > d` — many
    /// bindings funnel through few keys, the skew case — and the build
    /// side clears a minimum size. Otherwise probing a few index buckets
    /// is strictly cheaper and the nested loop wins.
    pub fn step_algo(
        &self,
        query: &ConjunctiveQuery,
        t: usize,
        bound: &[usize],
        bindings: f64,
    ) -> JoinAlgo {
        match self.eq_join_distinct(query, t, bound) {
            Some(d) if self.term_cardinality(query, t) >= HASH_THRESHOLD && bindings > d as f64 => {
                JoinAlgo::Hash
            }
            _ => JoinAlgo::NestedLoop,
        }
    }

    /// Join algorithm for checking negated term `t` against `bindings`
    /// complete bindings (anti-join). Same cost model as
    /// [`Planner::step_algo`], with the whole positive set as the bound
    /// side.
    pub fn anti_algo(&self, query: &ConjunctiveQuery, t: usize, bindings: f64) -> JoinAlgo {
        self.step_algo(query, t, &query.positive_terms(), bindings)
    }

    /// Estimated bindings term `t` contributes after `bound` terms are
    /// bound: its restricted size, divided per equi-join into the bound
    /// set by the join attribute's distinct count (ANALYZE stats).
    fn step_estimate(&self, query: &ConjunctiveQuery, t: usize, bound: &[usize]) -> f64 {
        let mut est = self.term_cardinality(query, t);
        for j in query.joins_of(t) {
            if let Some((my_attr, op, other, _)) = j.oriented(t) {
                if op == CompOp::Eq && bound.contains(&other) {
                    let d = self
                        .db
                        .read(query.terms[t].rel, |r| r.distinct_estimate(my_attr))
                        .unwrap_or(1);
                    est /= d.max(1) as f64;
                }
            }
        }
        est
    }

    /// Plan the positive terms. `seed`, when given, fixes the first term
    /// (the condition element filled by the tuple that just arrived).
    pub fn plan(&self, query: &ConjunctiveQuery, seed: Option<usize>) -> Plan {
        self.plan_seeded(query, seed, 1.0)
    }

    /// The join order of [`Planner::plan`] with every step pinned to an
    /// index nested loop ([`Plan::nested_loop`]) — the baseline the
    /// `query-nl`/`marker-nl` bench rows and the `eval_rule` oracle run.
    pub fn plan_nested_loop(&self, query: &ConjunctiveQuery, seed: Option<usize>) -> Plan {
        let plan = self.plan(query, seed);
        Plan {
            seed,
            estimates: plan.estimates,
            ..Plan::nested_loop(plan.order)
        }
    }

    /// [`Planner::plan`] for a *batch* of `seed_bindings` seed tuples
    /// filling the seed term at once: the binding-count estimates that
    /// drive each step's join-algorithm choice start from the batch size
    /// instead of a single tuple.
    pub fn plan_seeded(
        &self,
        query: &ConjunctiveQuery,
        seed: Option<usize>,
        seed_bindings: f64,
    ) -> Plan {
        let positives = query.positive_terms();
        let mut remaining: Vec<usize> = positives
            .iter()
            .copied()
            .filter(|&t| Some(t) != seed)
            .collect();
        let mut order: Vec<usize> = Vec::with_capacity(positives.len());
        let mut algos: Vec<JoinAlgo> = Vec::with_capacity(positives.len());
        let mut estimates: Vec<f64> = Vec::with_capacity(positives.len());
        // Cumulative binding-count estimate as the plan grows; the
        // hash-vs-nested-loop choice of each step depends on it.
        let mut cum = seed_bindings.max(1.0);
        if let Some(s) = seed {
            debug_assert!(!query.terms[s].negated, "seed must be a positive term");
            algos.push(self.step_algo(query, s, &order, cum));
            estimates.push(1.0);
            order.push(s);
        }

        while !remaining.is_empty() {
            // Prefer terms equi-joined to the bound set (cheapest first),
            // then any joined term, then the cheapest cross product —
            // which is also how an unseeded plan picks its first term.
            let connected = |t: usize, eq_only: bool| -> bool {
                query.joins_of(t).any(|j| {
                    (!eq_only || j.op == CompOp::Eq)
                        && j.other(t).is_some_and(|o| order.contains(&o))
                })
            };
            let cheapest = |candidates: &mut dyn Iterator<Item = usize>| {
                candidates.min_by(|&a, &b| {
                    self.term_cardinality(query, a)
                        .total_cmp(&self.term_cardinality(query, b))
                })
            };
            let pick = cheapest(&mut remaining.iter().copied().filter(|&t| connected(t, true)))
                .or_else(|| {
                    cheapest(&mut remaining.iter().copied().filter(|&t| connected(t, false)))
                })
                .or_else(|| cheapest(&mut remaining.iter().copied()))
                .expect("nonempty remaining");
            remaining.retain(|&t| t != pick);
            algos.push(self.step_algo(query, pick, &order, cum));
            estimates.push(self.term_cardinality(query, pick));
            cum *= self.step_estimate(query, pick, &order);
            order.push(pick);
        }

        Plan {
            order,
            algos,
            estimates,
            seed,
            anti: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Restriction, Selection};
    use crate::query::{JoinPred, QueryTerm};
    use crate::schema::Schema;
    use crate::tuple;

    fn db_with_sizes(sizes: &[usize]) -> Database {
        let db = Database::new();
        for (i, &n) in sizes.iter().enumerate() {
            let rid = db
                .create_relation(Schema::new(format!("R{i}"), ["a", "b"]))
                .unwrap();
            for k in 0..n {
                db.insert(rid, tuple![k as i64, (k % 7) as i64]).unwrap();
            }
        }
        db
    }

    #[test]
    fn seed_goes_first() {
        let db = db_with_sizes(&[100, 10, 1000]);
        let q = ConjunctiveQuery::new(
            (0..3)
                .map(|i| QueryTerm::new(crate::schema::RelId(i), Restriction::default()))
                .collect(),
            vec![JoinPred::eq(0, 0, 1, 0), JoinPred::eq(1, 1, 2, 1)],
        );
        let plan = Planner::new(&db).plan(&q, Some(2));
        assert_eq!(plan.order[0], 2);
        assert_eq!(plan.order.len(), 3);
        // Term 1 is joined to 2; it should come before the unjoined-to-2 term 0.
        assert_eq!(plan.order[1], 1);
    }

    #[test]
    fn unseeded_starts_cheapest_and_follows_joins() {
        let db = db_with_sizes(&[1000, 5, 500]);
        let q = ConjunctiveQuery::new(
            (0..3)
                .map(|i| QueryTerm::new(crate::schema::RelId(i), Restriction::default()))
                .collect(),
            vec![JoinPred::eq(0, 0, 1, 0), JoinPred::eq(0, 1, 2, 1)],
        );
        let plan = Planner::new(&db).plan(&q, None);
        assert_eq!(plan.order[0], 1, "smallest relation first");
        assert_eq!(plan.order[1], 0, "must follow the join edge");
    }

    #[test]
    fn selective_restriction_lowers_cardinality() {
        let db = db_with_sizes(&[100, 100]);
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(crate::schema::RelId(0), Restriction::default()),
                QueryTerm::new(
                    crate::schema::RelId(1),
                    Restriction::new(vec![Selection::eq(0, 1)]),
                ),
            ],
            vec![JoinPred::eq(0, 0, 1, 0)],
        );
        let plan = Planner::new(&db).plan(&q, None);
        assert_eq!(plan.order[0], 1, "restricted term is cheaper");
    }

    #[test]
    fn negated_terms_excluded_from_order() {
        let db = db_with_sizes(&[10, 10]);
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(crate::schema::RelId(0), Restriction::default()),
                QueryTerm::negated(crate::schema::RelId(1), Restriction::default()),
            ],
            vec![JoinPred::eq(0, 0, 1, 0)],
        );
        let plan = Planner::new(&db).plan(&q, None);
        assert_eq!(plan.order, vec![0]);
    }
}
