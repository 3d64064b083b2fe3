//! Execution of conjunctive queries: one set-at-a-time driver.
//!
//! The executor carries the whole *set* of partial bindings through the
//! plan's term order and runs each step with the [`JoinAlgo`] the plan
//! names:
//!
//! * **index nested loop** — probe the step's relation once per binding
//!   with the bound join predicates pushed into the read, so only the
//!   matching index bucket is touched;
//! * **hash join** — one read of the step's relation, a hash table keyed
//!   on the equi-join attributes over the smaller side (spill-free: both
//!   sides are already in memory), residual non-eq predicates checked on
//!   the hits. For seeded delta terms this is the §4.1.2 evaluation around
//!   *every* WM element a cycle inserted in one pass per (rule, term);
//! * negated condition elements filter the surviving bindings last, by
//!   one existence probe per binding or one hash **anti-join**.
//!
//! Which algorithm runs where is the planner's decision, from observed
//! cardinalities ([`Planner::plan_seeded`], [`Planner::anti_algo`]). The
//! tuple-at-a-time I/O profile of the paper's §4.1.2 baseline is the same
//! driver under a plan pinned to nested loops
//! ([`Planner::plan_nested_loop`]): every binding still costs one probe
//! per step, so tuples read, ANALYZE observations and result order are
//! those of a depth-first nested loop.

use std::collections::HashMap;

use super::plan::{JoinAlgo, Plan, Planner};
use super::ConjunctiveQuery;
use crate::database::Database;
use crate::error::Result;
use crate::pred::CompOp;
use crate::schema::AttrIdx;
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;

/// One result of a conjunctive query: a tuple per positive term, aligned to
/// `query.terms` (negated terms stay `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// Per-term bindings aligned with the query's terms.
    pub slots: Vec<Option<(TupleId, Tuple)>>,
}

impl Binding {
    /// The bound tuple of term `t`, panicking on negated/unbound terms.
    pub fn tuple(&self, t: usize) -> &Tuple {
        &self.slots[t].as_ref().expect("term is bound").1
    }

    /// The bound tuple id of term `t` (panics on negated/unbound terms).
    pub fn tid(&self, t: usize) -> TupleId {
        self.slots[t].as_ref().expect("term is bound").0
    }
}

/// One profiled execution, for EXPLAIN ANALYZE: the results plus a row
/// count per query term — partial bindings produced at a positive term's
/// plan step, bindings blocked by a negated term.
#[derive(Debug, Clone)]
pub struct ExecProfile {
    /// The query results, as from [`QueryExecutor::exec`].
    pub bindings: Vec<Binding>,
    /// Per-term counts, aligned with `query.terms`.
    pub rows: Vec<u64>,
}

/// One partial-binding row carried between plan steps.
type Partial = Vec<Option<(TupleId, Tuple)>>;

/// Equi-joins `(my_attr, other_term, other_attr)` of a step into the bound
/// terms: the hash key.
type EqJoins = Vec<(AttrIdx, usize, AttrIdx)>;

/// Non-eq joins `(my_attr, op, other_term, other_attr)` of a step into the
/// bound terms, checked on hash hits.
type ResidualJoins = Vec<(AttrIdx, CompOp, usize, AttrIdx)>;

/// Executes conjunctive queries against a [`Database`].
pub struct QueryExecutor<'a> {
    db: &'a Database,
}

impl<'a> QueryExecutor<'a> {
    /// Create a new, empty instance.
    pub fn new(db: &'a Database) -> Self {
        QueryExecutor { db }
    }

    /// Evaluate the query under the planner's plan. When `seed` is given,
    /// term `seed.0` is fixed to the provided tuple (which must belong to
    /// that term's relation); this is the §4.1.2 path where an inserted WM
    /// element fills one condition element and the rest of the LHS is
    /// evaluated around it.
    pub fn exec(
        &self,
        query: &ConjunctiveQuery,
        seed: Option<(usize, TupleId, &Tuple)>,
    ) -> Result<Vec<Binding>> {
        match seed {
            Some((t, tid, tuple)) => self.exec_seeded_batch(query, t, &[(tid, tuple.clone())]),
            None => self.exec_plan(query, &Planner::new(self.db).plan(query, None), &[]),
        }
    }

    /// Evaluate the LHS around every seed tuple of term `t` in one
    /// set-oriented pass: the batched form of the §4.1.2 seeded
    /// evaluation. Equivalent to concatenating per-seed
    /// [`QueryExecutor::exec`] calls, at one plan for the whole delta.
    pub fn exec_seeded_batch(
        &self,
        query: &ConjunctiveQuery,
        t: usize,
        seeds: &[(TupleId, Tuple)],
    ) -> Result<Vec<Binding>> {
        let plan = Planner::new(self.db).plan_seeded(query, Some(t), seeds.len() as f64);
        self.exec_plan(query, &plan, seeds)
    }

    /// Evaluate the query under the caller's `plan`. `seeds` fill the
    /// plan's seed term (ignored for an unseeded plan); a seed failing its
    /// own term's restriction yields nothing.
    pub fn exec_plan(
        &self,
        query: &ConjunctiveQuery,
        plan: &Plan,
        seeds: &[(TupleId, Tuple)],
    ) -> Result<Vec<Binding>> {
        Ok(self.run(query, plan, seeds)?.bindings)
    }

    /// Evaluate the positive terms in the caller's `order` (which must
    /// cover exactly the positive terms) by nested loops, counting rows
    /// per term — the EXPLAIN ANALYZE entry point. Unlike
    /// [`QueryExecutor::exec`], the join order is imposed, so an engine
    /// that freezes CE order at compile time can be profiled under its
    /// own order.
    pub fn exec_explain(&self, query: &ConjunctiveQuery, order: &[usize]) -> Result<ExecProfile> {
        self.run(query, &Plan::nested_loop(order.to_vec()), &[])
    }

    /// The driver: carry the binding set through `plan.order`, then
    /// through the negated terms.
    fn run(
        &self,
        query: &ConjunctiveQuery,
        plan: &Plan,
        seeds: &[(TupleId, Tuple)],
    ) -> Result<ExecProfile> {
        obs::prof_span!("query.exec");
        let arity = query.terms.len();
        let mut rows = vec![0u64; arity];
        if arity == 0 {
            return Ok(ExecProfile {
                bindings: Vec::new(),
                rows,
            });
        }
        let mut partials: Vec<Partial> = match plan.seed {
            Some(t) => seeds
                .iter()
                .filter(|(_, tuple)| query.terms[t].restriction.matches(tuple))
                .map(|(tid, tuple)| {
                    let mut p: Partial = vec![None; arity];
                    p[t] = Some((*tid, tuple.clone()));
                    p
                })
                .collect(),
            None => vec![vec![None; arity]],
        };
        let start = usize::from(plan.seed.is_some());
        for (&t, &algo) in plan.order.iter().zip(&plan.algos).skip(start) {
            if partials.is_empty() {
                break;
            }
            partials = self.extend_all(query, t, algo, partials)?;
            rows[t] = partials.len() as u64;
        }
        let planner = Planner::new(self.db);
        for t in query.negated_terms() {
            if partials.is_empty() {
                break;
            }
            let reached = partials.len();
            let algo = plan
                .anti
                .unwrap_or_else(|| planner.anti_algo(query, t, reached as f64));
            partials = self.anti_filter(query, t, algo, partials)?;
            rows[t] = (reached - partials.len()) as u64;
        }
        Ok(ExecProfile {
            bindings: partials
                .into_iter()
                .map(|slots| Binding { slots })
                .collect(),
            rows,
        })
    }

    /// Tuples of term `t` consistent with the bound part of `partial`:
    /// one index probe with the bound join predicates pushed into the
    /// read. Feeds the observed selection/join selectivities of the
    /// ANALYZE registry ([`crate::analyze`]) as a side effect.
    fn probe(
        &self,
        query: &ConjunctiveQuery,
        t: usize,
        partial: &Partial,
    ) -> Result<Vec<(TupleId, Tuple)>> {
        let bound = bound_preds(query, t, partial);
        let rel = query.terms[t].rel;
        let (input, rows) = self.db.read(rel, |r| -> Result<_> {
            Ok((r.len(), r.select_with(&query.terms[t].restriction, &bound)?))
        })??;
        self.db
            .analyze_registry()
            .observe(rel, !bound.is_empty(), input as u64, rows.len() as u64);
        Ok(rows)
    }

    /// Does negated term `t` block `partial`? True when some tuple matches
    /// the term's restriction plus its joins into the bound terms.
    fn blocked(&self, query: &ConjunctiveQuery, t: usize, partial: &Partial) -> Result<bool> {
        let bound = bound_preds(query, t, partial);
        let rel = query.terms[t].rel;
        let found = self.db.read(rel, |r| -> Result<bool> {
            Ok(!r
                .select_ids_with(&query.terms[t].restriction, &bound)?
                .is_empty())
        })??;
        self.db.analyze_registry().observe_anti(rel, found);
        Ok(found)
    }

    /// Extend every partial binding through positive term `t`, by `algo`
    /// (a hash join without an equi-join into the bound terms runs as a
    /// nested loop: see [`hash_joins`]).
    fn extend_all(
        &self,
        query: &ConjunctiveQuery,
        t: usize,
        algo: JoinAlgo,
        partials: Vec<Partial>,
    ) -> Result<Vec<Partial>> {
        let extended = |p: &Partial, tid: TupleId, tuple: Tuple| {
            let mut ext = p.clone();
            ext[t] = Some((tid, tuple));
            ext
        };
        let mut out = Vec::new();
        let Some((eqs, residual)) = hash_joins(query, t, algo, &partials[0]) else {
            // Cheaper than building a table whenever bindings are fewer
            // than the join key's distincts.
            obs::prof_span!("nl");
            for p in &partials {
                for (tid, tuple) in self.probe(query, t, p)? {
                    out.push(extended(p, tid, tuple));
                }
            }
            return Ok(out);
        };
        let rel = query.terms[t].rel;
        let registry = self.db.analyze_registry();
        let (input, rows) = {
            obs::prof_span!("build");
            self.db.read(rel, |r| -> Result<_> {
                Ok((r.len(), r.select(&query.terms[t].restriction)?))
            })??
        };
        registry.observe_scan(rel, input as u64, rows.len() as u64);
        // Build over the smaller side: the choice only trades hashing
        // work for probing work.
        if rows.len() <= partials.len() {
            let table = {
                obs::prof_span!("build");
                group_by_key(rows.iter().map(|(_, tuple)| row_key(&eqs, tuple)))
            };
            obs::prof_span!("probe");
            for p in &partials {
                for &i in table.get(&partial_key(&eqs, p)).into_iter().flatten() {
                    let (tid, tuple) = &rows[i];
                    if residuals_hold(&residual, tuple, p) {
                        out.push(extended(p, *tid, tuple.clone()));
                    }
                }
            }
        } else {
            let table = {
                obs::prof_span!("build");
                group_by_key(partials.iter().map(|p| partial_key(&eqs, p)))
            };
            obs::prof_span!("probe");
            for (tid, tuple) in &rows {
                for &i in table.get(&row_key(&eqs, tuple)).into_iter().flatten() {
                    let p = &partials[i];
                    if residuals_hold(&residual, tuple, p) {
                        out.push(extended(p, *tid, tuple.clone()));
                    }
                }
            }
            // Probe-side emission follows row order; restore binding
            // order so results are independent of the build side.
            out.sort_by_cached_key(|p| {
                p.iter()
                    .map(|s| s.as_ref().map(|(tid, _)| tid.pack()))
                    .collect::<Vec<_>>()
            });
        }
        registry.observe(rel, true, partials.len() as u64, out.len() as u64);
        Ok(out)
    }

    /// Drop every partial binding blocked by negated term `t`: one
    /// existence probe per binding, or — by [`JoinAlgo::Hash`], given an
    /// equi-join into the bound terms — one relation read and a hash
    /// anti-join.
    fn anti_filter(
        &self,
        query: &ConjunctiveQuery,
        t: usize,
        algo: JoinAlgo,
        partials: Vec<Partial>,
    ) -> Result<Vec<Partial>> {
        obs::prof_span!("anti");
        let mut out = Vec::new();
        let Some((eqs, residual)) = hash_joins(query, t, algo, &partials[0]) else {
            for p in partials {
                if !self.blocked(query, t, &p)? {
                    out.push(p);
                }
            }
            return Ok(out);
        };
        let rel = query.terms[t].rel;
        let rows = self
            .db
            .read(rel, |r| r.select(&query.terms[t].restriction))??;
        let table = group_by_key(rows.iter().map(|(_, tuple)| row_key(&eqs, tuple)));
        for p in partials {
            let hit = table
                .get(&partial_key(&eqs, &p))
                .into_iter()
                .flatten()
                .any(|&i| residuals_hold(&residual, &rows[i].1, &p));
            self.db.analyze_registry().observe_anti(rel, hit);
            if !hit {
                out.push(p);
            }
        }
        Ok(out)
    }

    /// Existence check: true when at least one binding satisfies the
    /// query. Set-at-a-time evaluation has no per-binding early exit, so
    /// this is the one tuple-at-a-time search: at each plan step it
    /// returns as soon as one candidate extends to a full, negation-clear
    /// binding, instead of materializing every binding.
    pub fn exists(
        &self,
        query: &ConjunctiveQuery,
        seed: Option<(usize, TupleId, &Tuple)>,
    ) -> Result<bool> {
        obs::prof_span!("query.exists");
        if query.terms.is_empty() {
            return Ok(false);
        }
        let mut partial: Partial = vec![None; query.terms.len()];
        if let Some((t, tid, tuple)) = seed {
            if !query.terms[t].restriction.matches(tuple) {
                return Ok(false);
            }
            partial[t] = Some((tid, tuple.clone()));
        }
        let plan = Planner::new(self.db).plan(query, seed.map(|(t, _, _)| t));
        let start = usize::from(seed.is_some());
        self.first_witness(query, &plan.order[start..], &mut partial)
    }

    /// Depth-first extension of `partial` along `order`, stopping at the
    /// first full binding no negated term blocks.
    fn first_witness(
        &self,
        query: &ConjunctiveQuery,
        order: &[usize],
        partial: &mut Partial,
    ) -> Result<bool> {
        let Some((&t, rest)) = order.split_first() else {
            for nt in query.negated_terms() {
                if self.blocked(query, nt, partial)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        };
        for row in self.probe(query, t, partial)? {
            partial[t] = Some(row);
            if self.first_witness(query, rest, partial)? {
                return Ok(true);
            }
        }
        partial[t] = None;
        Ok(false)
    }
}

/// Join predicates of term `t` whose other endpoint is bound in
/// `partial`, as borrowed `(my_attr, op, bound value)` tests. Borrowing
/// the values (instead of cloning the base restriction plus one
/// `Selection` per join, as earlier revisions did) keeps binding
/// extension allocation-free.
fn bound_preds<'p>(
    query: &ConjunctiveQuery,
    t: usize,
    partial: &'p Partial,
) -> Vec<(AttrIdx, CompOp, &'p Value)> {
    let mut bound = Vec::new();
    for j in query.joins_of(t) {
        let Some((my_attr, op, other, other_attr)) = j.oriented(t) else {
            continue;
        };
        if let Some((_, other_tuple)) = &partial[other] {
            bound.push((my_attr, op, &other_tuple[other_attr]));
        }
    }
    bound
}

/// When the step of term `t` runs as a hash (anti-)join — `algo` says so
/// and at least one equi-join reaches a term bound in `shape` — its join
/// predicates into the bound terms, split into equi-joins (hashable) and
/// the residual non-eq predicates. `None` means nested loop.
fn hash_joins(
    query: &ConjunctiveQuery,
    t: usize,
    algo: JoinAlgo,
    shape: &Partial,
) -> Option<(EqJoins, ResidualJoins)> {
    if algo != JoinAlgo::Hash {
        return None;
    }
    let mut eqs = Vec::new();
    let mut residual = Vec::new();
    for j in query.joins_of(t) {
        let Some((my_attr, op, other, other_attr)) = j.oriented(t) else {
            continue;
        };
        if shape[other].is_none() {
            continue;
        }
        if op == CompOp::Eq {
            eqs.push((my_attr, other, other_attr));
        } else {
            residual.push((my_attr, op, other, other_attr));
        }
    }
    (!eqs.is_empty()).then_some((eqs, residual))
}

/// The hash table of a join side: positions of the side's items, by key.
fn group_by_key(keys: impl Iterator<Item = Vec<Value>>) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (i, key) in keys.enumerate() {
        table.entry(key).or_default().push(i);
    }
    table
}

/// Hash key of a row of the step's relation.
fn row_key(eqs: &EqJoins, tuple: &Tuple) -> Vec<Value> {
    eqs.iter().map(|&(a, _, _)| tuple[a].clone()).collect()
}

/// Hash key of a partial binding: the bound side of each equi-join.
fn partial_key(eqs: &EqJoins, p: &Partial) -> Vec<Value> {
    eqs.iter()
        .map(|&(_, other, oa)| p[other].as_ref().expect("bound term").1[oa].clone())
        .collect()
}

/// `row[my_attr] op partial[other].1[other_attr]` for every residual.
fn residuals_hold(residual: &ResidualJoins, row: &Tuple, partial: &Partial) -> bool {
    residual.iter().all(|&(my_attr, op, other, other_attr)| {
        let other_tuple = &partial[other].as_ref().expect("bound term").1;
        op.eval(&row[my_attr], &other_tuple[other_attr])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Restriction, Selection};
    use crate::query::{JoinPred, QueryTerm};
    use crate::schema::Schema;
    use crate::tuple;

    /// Example 3 of the paper: Emp(name, salary, manager, dno) and
    /// Dept(dno, dname, floor, manager).
    fn example3_db() -> (Database, crate::schema::RelId, crate::schema::RelId) {
        let db = Database::new();
        let emp = db
            .create_relation(Schema::new("Emp", ["name", "salary", "manager", "dno"]))
            .unwrap();
        let dept = db
            .create_relation(Schema::new("Dept", ["dno", "dname", "floor", "manager"]))
            .unwrap();
        db.insert(emp, tuple!["Mike", 6000, "Sam", 1]).unwrap();
        db.insert(emp, tuple!["Sam", 5000, "Root", 1]).unwrap();
        db.insert(emp, tuple!["Jane", 4000, "Sam", 2]).unwrap();
        db.insert(dept, tuple![1, "Toy", 1, "Sam"]).unwrap();
        db.insert(dept, tuple![2, "Shoe", 2, "Ann"]).unwrap();
        (db, emp, dept)
    }

    fn sorted_tids(bindings: &[Binding]) -> Vec<Vec<Option<u64>>> {
        let mut v: Vec<Vec<Option<u64>>> = bindings
            .iter()
            .map(|b| {
                b.slots
                    .iter()
                    .map(|s| s.as_ref().map(|(tid, _)| tid.pack()))
                    .collect()
            })
            .collect();
        v.sort();
        v
    }

    /// The query under the plan pinned to nested loops.
    fn exec_nl(db: &Database, q: &ConjunctiveQuery) -> Vec<Binding> {
        let plan = Planner::new(db).plan_nested_loop(q, None);
        QueryExecutor::new(db).exec_plan(q, &plan, &[]).unwrap()
    }

    /// The planner's plan and the pinned nested-loop plan agree.
    fn assert_plans_agree(db: &Database, q: &ConjunctiveQuery) {
        let planned = QueryExecutor::new(db).exec(q, None).unwrap();
        assert_eq!(sorted_tids(&exec_nl(db, q)), sorted_tids(&planned));
    }

    #[test]
    fn rule_r1_mike_earns_more_than_manager() {
        // (Emp ^name Mike ^salary <S> ^manager <M>)
        // (Emp ^name <M> ^salary {<S1> < <S>})
        let (db, emp, _) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(emp, Restriction::new(vec![Selection::eq(0, "Mike")])),
                QueryTerm::new(emp, Restriction::default()),
            ],
            vec![
                JoinPred::eq(0, 2, 1, 0), // manager name join
                JoinPred {
                    left_term: 1,
                    left_attr: 1,
                    op: CompOp::Lt,
                    right_term: 0,
                    right_attr: 1,
                },
            ],
        );
        let res = QueryExecutor::new(&db).exec(&q, None).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple(0)[0], crate::Value::str("Mike"));
        assert_eq!(res[0].tuple(1)[0], crate::Value::str("Sam"));
        assert_plans_agree(&db, &q);
    }

    #[test]
    fn rule_r2_toy_first_floor() {
        // (Emp ^dno <D>) (Dept ^dno <D> ^dname Toy ^floor 1)
        let (db, emp, dept) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(emp, Restriction::default()),
                QueryTerm::new(
                    dept,
                    Restriction::new(vec![Selection::eq(1, "Toy"), Selection::eq(2, 1)]),
                ),
            ],
            vec![JoinPred::eq(0, 3, 1, 0)],
        );
        let res = QueryExecutor::new(&db).exec(&q, None).unwrap();
        // Mike and Sam are in dno 1 (Toy, floor 1); Jane is not.
        assert_eq!(res.len(), 2);
        assert_plans_agree(&db, &q);
    }

    #[test]
    fn seeded_batch_equals_per_seed_union_equals_unseeded() {
        let (db, emp, dept) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(emp, Restriction::default()),
                QueryTerm::new(dept, Restriction::new(vec![Selection::eq(1, "Toy")])),
            ],
            vec![JoinPred::eq(0, 3, 1, 0)],
        );
        let exec = QueryExecutor::new(&db);
        let all = exec.exec(&q, None).unwrap();
        assert!(!all.is_empty());
        // Seed each Emp tuple in turn; union must equal the full result,
        // and so must the one-pass evaluation around all of them.
        let emps = db.read(emp, |r| r.scan()).unwrap().unwrap();
        let mut per_seed = Vec::new();
        for (tid, t) in &emps {
            per_seed.extend(exec.exec(&q, Some((0, *tid, t))).unwrap());
        }
        assert_eq!(sorted_tids(&all), sorted_tids(&per_seed));
        let batched = exec.exec_seeded_batch(&q, 0, &emps).unwrap();
        assert_eq!(sorted_tids(&all), sorted_tids(&batched));
    }

    #[test]
    fn seed_failing_restriction_yields_nothing() {
        let (db, emp, _) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![QueryTerm::new(
                emp,
                Restriction::new(vec![Selection::eq(0, "Mike")]),
            )],
            vec![],
        );
        let emps = db.read(emp, |r| r.scan()).unwrap().unwrap();
        let sam = emps
            .iter()
            .find(|(_, t)| t[0] == crate::Value::str("Sam"))
            .unwrap();
        let res = QueryExecutor::new(&db)
            .exec(&q, Some((0, sam.0, &sam.1)))
            .unwrap();
        assert!(res.is_empty());
    }

    #[test]
    fn negated_term_blocks_bindings() {
        // Emps with no department tuple: (Emp ^dno <D>) -(Dept ^dno <D>)
        let (db, emp, dept) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(emp, Restriction::default()),
                QueryTerm::negated(dept, Restriction::default()),
            ],
            vec![JoinPred::eq(0, 3, 1, 0)],
        );
        let res = QueryExecutor::new(&db).exec(&q, None).unwrap();
        assert!(res.is_empty(), "every emp has a dept");

        db.insert(emp, tuple!["Orphan", 1000, "Sam", 99]).unwrap();
        let res = QueryExecutor::new(&db).exec(&q, None).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].tuple(0)[0], crate::Value::str("Orphan"));
        assert!(res[0].slots[1].is_none(), "negated term stays unbound");
        assert_plans_agree(&db, &q);
    }

    #[test]
    fn three_way_join() {
        // Example 4's shape: A(a1,a2,a3), B(b1,b2,b3), C(c1,c2,c3)
        // A.a1 = B.b1, B.b2 = C.c2, A.a3 = C.c3.
        let db = Database::new();
        let a = db
            .create_relation(Schema::new("A", ["a1", "a2", "a3"]))
            .unwrap();
        let b = db
            .create_relation(Schema::new("B", ["b1", "b2", "b3"]))
            .unwrap();
        let c = db
            .create_relation(Schema::new("C", ["c1", "c2", "c3"]))
            .unwrap();
        db.insert(a, tuple![4, "a", 8]).unwrap();
        db.insert(b, tuple![4, 5, "b"]).unwrap();
        db.insert(b, tuple![4, 7, "b"]).unwrap();
        db.insert(c, tuple!["c", 7, 8]).unwrap();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(a, Restriction::new(vec![Selection::eq(1, "a")])),
                QueryTerm::new(b, Restriction::new(vec![Selection::eq(2, "b")])),
                QueryTerm::new(c, Restriction::new(vec![Selection::eq(0, "c")])),
            ],
            vec![
                JoinPred::eq(0, 0, 1, 0),
                JoinPred::eq(1, 1, 2, 1),
                JoinPred::eq(0, 2, 2, 2),
            ],
        );
        let res = QueryExecutor::new(&db).exec(&q, None).unwrap();
        assert_eq!(res.len(), 1, "only B(4,7,b) completes the join");
        assert_eq!(res[0].tuple(1)[1], crate::Value::Int(7));
    }

    #[test]
    fn three_way_join_with_skew_runs_hash_steps() {
        // Enough rows funnelled through few keys that the planner picks a
        // hash join for at least one step.
        let db = Database::new();
        let a = db.create_relation(Schema::new("A", ["k", "v"])).unwrap();
        let b = db.create_relation(Schema::new("B", ["k", "w"])).unwrap();
        let c = db.create_relation(Schema::new("C", ["w"])).unwrap();
        for i in 0..60i64 {
            db.insert(a, tuple![i % 5, i]).unwrap();
            db.insert(b, tuple![i % 5, i % 7]).unwrap();
        }
        for i in 0..7i64 {
            db.insert(c, tuple![i]).unwrap();
        }
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(a, Restriction::default()),
                QueryTerm::new(b, Restriction::default()),
                QueryTerm::new(c, Restriction::default()),
            ],
            vec![JoinPred::eq(0, 0, 1, 0), JoinPred::eq(1, 1, 2, 0)],
        );
        let plan = Planner::new(&db).plan(&q, None);
        assert!(plan.algos.contains(&JoinAlgo::Hash), "{plan:?}");
        assert_plans_agree(&db, &q);
    }

    #[test]
    fn exists_shortcut() {
        let (db, emp, _) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![QueryTerm::new(
                emp,
                Restriction::new(vec![Selection::eq(0, "Mike")]),
            )],
            vec![],
        );
        assert!(QueryExecutor::new(&db).exists(&q, None).unwrap());
        let none = ConjunctiveQuery::new(
            vec![QueryTerm::new(
                emp,
                Restriction::new(vec![Selection::eq(0, "Nobody")]),
            )],
            vec![],
        );
        assert!(!QueryExecutor::new(&db).exists(&none, None).unwrap());
    }

    #[test]
    fn exists_touches_fewer_tuples_than_exec() {
        // Unindexed A ⋈ B where every pair joins: the nested-loop plan
        // materializes the full cross product probe by probe, exists must
        // stop at the first witness.
        let db = Database::new();
        let a = db.create_relation(Schema::new("A", ["k"])).unwrap();
        let b = db.create_relation(Schema::new("B", ["k"])).unwrap();
        for _ in 0..50 {
            db.insert(a, tuple![1]).unwrap();
            db.insert(b, tuple![1]).unwrap();
        }
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(a, Restriction::default()),
                QueryTerm::new(b, Restriction::default()),
            ],
            vec![JoinPred::eq(0, 0, 1, 0)],
        );
        let s0 = db.stats().snapshot();
        let res = exec_nl(&db, &q);
        let exec_reads = db.stats().snapshot().since(&s0).tuples_read;
        assert_eq!(res.len(), 2500);
        let s1 = db.stats().snapshot();
        assert!(QueryExecutor::new(&db).exists(&q, None).unwrap());
        let exists_reads = db.stats().snapshot().since(&s1).tuples_read;
        assert!(
            exists_reads * 10 < exec_reads,
            "exists read {exists_reads} tuples vs exec's {exec_reads}"
        );
    }

    #[test]
    fn empty_query_returns_nothing() {
        let db = Database::new();
        let q = ConjunctiveQuery::default();
        assert!(QueryExecutor::new(&db).exec(&q, None).unwrap().is_empty());
        assert!(exec_nl(&db, &q).is_empty());
    }

    #[test]
    fn explain_counts_rows_per_step_and_blocked_bindings() {
        // (Emp ^dno <D>) -(Dept ^dno <D>): 3 Emps scanned, all blocked
        // until an orphan appears.
        let (db, emp, dept) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(emp, Restriction::default()),
                QueryTerm::negated(dept, Restriction::default()),
            ],
            vec![JoinPred::eq(0, 3, 1, 0)],
        );
        let profile = QueryExecutor::new(&db).exec_explain(&q, &[0]).unwrap();
        assert_eq!(profile.rows, vec![3, 3], "3 Emp rows, all 3 blocked");
        assert!(profile.bindings.is_empty());

        db.insert(emp, tuple!["Orphan", 1000, "Sam", 99]).unwrap();
        let profile = QueryExecutor::new(&db).exec_explain(&q, &[0]).unwrap();
        assert_eq!(profile.rows, vec![4, 3]);
        assert_eq!(profile.bindings.len(), 1);
        // The imposed order matches the planner-ordered exec results.
        assert_eq!(
            profile.bindings,
            QueryExecutor::new(&db).exec(&q, None).unwrap()
        );
    }

    #[test]
    fn executor_feeds_analyze_registry() {
        let (db, emp, dept) = example3_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(emp, Restriction::default()),
                QueryTerm::new(
                    dept,
                    Restriction::new(vec![Selection::eq(1, "Toy"), Selection::eq(2, 1)]),
                ),
            ],
            vec![JoinPred::eq(0, 3, 1, 0)],
        );
        QueryExecutor::new(&db).exec(&q, None).unwrap();
        let dept_obs = db.analyze_registry().observed(dept);
        // Dept was probed via the join side (bound dno from each Emp) or
        // scanned first, depending on the plan — either way something was
        // observed on both relations.
        let emp_obs = db.analyze_registry().observed(emp);
        assert!(emp_obs.selection_in + emp_obs.join_in > 0);
        assert!(dept_obs.selection_in + dept_obs.join_in > 0);
    }
}
