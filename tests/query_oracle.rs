//! Property test: the conjunctive-query executor must agree with a naive
//! brute-force oracle on random databases and queries — under the
//! planner's plan (hash or nested-loop steps), under the plan pinned to
//! nested loops, seeded one tuple at a time, and seeded with a whole
//! delta in one pass (NOT EXISTS and non-eq joins included).

use ops5::ClassId;
use prodsys::ProductionDb;
use proptest::prelude::*;
use relstore::{
    tuple, Binding, CompOp, ConjunctiveQuery, Database, JoinPred, Planner, QueryExecutor,
    QueryTerm, Restriction, Schema, Selection, Tuple, TupleId,
};
use workload::{Op, RuleGenConfig, TraceConfig};

fn db_with(rows: &[Vec<(i64, i64)>]) -> (Database, Vec<relstore::RelId>) {
    let db = Database::new();
    let mut rids = Vec::new();
    for (i, rel_rows) in rows.iter().enumerate() {
        let rid = db
            .create_relation(Schema::new(format!("R{i}"), ["a", "b"]))
            .unwrap();
        // Index half the relations to exercise both access paths.
        if i % 2 == 0 {
            db.create_hash_index(rid, 0).unwrap();
        }
        for (a, b) in rel_rows {
            db.insert(rid, tuple![*a, *b]).unwrap();
        }
        rids.push(rid);
    }
    (db, rids)
}

/// Brute force: enumerate every combination of positive-term rows, apply
/// all predicates, then check negated terms.
fn oracle(db: &Database, query: &ConjunctiveQuery) -> Vec<Vec<Option<TupleId>>> {
    let all_rows: Vec<Vec<(TupleId, Tuple)>> = query
        .terms
        .iter()
        .map(|t| db.select(t.rel, &Restriction::default()).unwrap())
        .collect();
    let positives = query.positive_terms();
    let negatives = query.negated_terms();
    let mut out = Vec::new();
    // Odometer over positive terms.
    let mut idx = vec![0usize; positives.len()];
    'outer: loop {
        // Build the candidate binding.
        let mut slots: Vec<Option<(TupleId, Tuple)>> = vec![None; query.terms.len()];
        for (k, &t) in positives.iter().enumerate() {
            if all_rows[t].is_empty() {
                break 'outer;
            }
            slots[t] = Some(all_rows[t][idx[k]].clone());
        }
        let ok = query
            .terms
            .iter()
            .enumerate()
            .all(|(t, term)| match &slots[t] {
                Some((_, row)) => term.restriction.matches(row),
                None => true,
            })
            && query.joins.iter().all(|j| {
                match (&slots[j.left_term], &slots[j.right_term]) {
                    (Some((_, l)), Some((_, r))) => j.op.eval(&l[j.left_attr], &r[j.right_attr]),
                    _ => true, // involves a negated term; checked below
                }
            });
        if ok {
            // NOT EXISTS for each negated term.
            let blocked = negatives.iter().any(|&nt| {
                all_rows[nt].iter().any(|(_, row)| {
                    query.terms[nt].restriction.matches(row)
                        && query.joins.iter().filter(|j| j.touches(nt)).all(|j| {
                            let (other, my_attr, other_attr, op) = if j.left_term == nt {
                                (j.right_term, j.left_attr, j.right_attr, j.op)
                            } else {
                                (j.left_term, j.right_attr, j.left_attr, j.op.flip())
                            };
                            match &slots[other] {
                                Some((_, o)) => op.eval(&row[my_attr], &o[other_attr]),
                                None => false,
                            }
                        })
                })
            });
            if !blocked {
                out.push(
                    slots
                        .iter()
                        .map(|s| s.as_ref().map(|(tid, _)| *tid))
                        .collect(),
                );
            }
        }
        // Advance the odometer.
        for k in (0..idx.len()).rev() {
            idx[k] += 1;
            if idx[k] < all_rows[positives[k]].len() {
                continue 'outer;
            }
            idx[k] = 0;
            if k == 0 {
                break 'outer;
            }
        }
        if idx.is_empty() {
            break;
        }
    }
    out.sort();
    out
}

fn tids(bindings: Vec<Binding>) -> Vec<Vec<Option<TupleId>>> {
    let mut v: Vec<Vec<Option<TupleId>>> = bindings
        .into_iter()
        .map(|b| {
            b.slots
                .iter()
                .map(|s| s.as_ref().map(|(t, _)| *t))
                .collect()
        })
        .collect();
    v.sort();
    v
}

/// Every way of running `query` must return the oracle's bindings: the
/// planner's plan, the pinned nested-loop plan, and — per positive term —
/// the union of per-seed runs and the one-pass seeded batch over all of
/// the term's tuples.
fn check_against_oracle(db: &Database, query: &ConjunctiveQuery) {
    let expect = oracle(db, query);
    let exec = QueryExecutor::new(db);
    assert_eq!(
        &tids(exec.exec(query, None).unwrap()),
        &expect,
        "planner's plan"
    );
    let pinned = Planner::new(db).plan_nested_loop(query, None);
    assert_eq!(
        &tids(exec.exec_plan(query, &pinned, &[]).unwrap()),
        &expect,
        "pinned nested-loop plan"
    );
    for t in query.positive_terms() {
        let seeds = db
            .select(query.terms[t].rel, &Restriction::default())
            .unwrap();
        let mut per_seed = Vec::new();
        for (tid, tuple) in &seeds {
            per_seed.extend(exec.exec(query, Some((t, *tid, tuple))).unwrap());
        }
        assert_eq!(&tids(per_seed), &expect, "per-seed union at term {}", t);
        let batched = exec.exec_seeded_batch(query, t, &seeds).unwrap();
        assert_eq!(&tids(batched), &expect, "seeded batch at term {}", t);
    }
}

fn row_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..4, 0i64..4), 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn executor_matches_oracle_two_way(
        r0 in row_strategy(),
        r1 in row_strategy(),
        sel in 0i64..4,
        join_op in prop_oneof![Just(CompOp::Eq), Just(CompOp::Lt), Just(CompOp::Ne)],
    ) {
        let (db, rids) = db_with(&[r0, r1]);
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(rids[0], Restriction::new(vec![Selection::new(1, CompOp::Ge, sel)])),
                QueryTerm::new(rids[1], Restriction::default()),
            ],
            vec![JoinPred { left_term: 0, left_attr: 0, op: join_op, right_term: 1, right_attr: 0 }],
        );
        check_against_oracle(&db, &q);
    }

    #[test]
    fn executor_matches_oracle_three_way_with_negation(
        r0 in row_strategy(),
        r1 in row_strategy(),
        r2 in row_strategy(),
        neg_sel in 0i64..4,
    ) {
        let (db, rids) = db_with(&[r0, r1, r2]);
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(rids[0], Restriction::default()),
                QueryTerm::new(rids[1], Restriction::default()),
                QueryTerm::negated(
                    rids[2],
                    Restriction::new(vec![Selection::new(1, CompOp::Le, neg_sel)]),
                ),
            ],
            vec![
                JoinPred::eq(0, 0, 1, 0),
                JoinPred::eq(2, 0, 0, 1),
            ],
        );
        check_against_oracle(&db, &q);
    }

    /// Generated rule programs over a random WM: up to three CEs per
    /// rule, selections, joins and negated CEs, with enough tuples that
    /// the planner mixes hash and nested-loop steps.
    #[test]
    fn executor_matches_oracle_on_generated_rules(seed in 0u64..400, ops in 20usize..60) {
        let cfg = RuleGenConfig {
            rules: 8,
            ces_per_rule: 3,
            domain: 3,
            negated_fraction: 0.4,
            seed,
            ..Default::default()
        };
        let rules = ops5::compile(&cfg.source()).expect("generated program compiles");
        let pdb = ProductionDb::new(rules).expect("pdb");
        let trace = TraceConfig {
            ops,
            delete_fraction: 0.0,
            join_domain: 2,
            select_domain: 3,
            seed: seed + 1000,
        }
        .trace(cfg.classes, cfg.attrs);
        for op in trace {
            if let Op::Insert(c, t) = op {
                pdb.insert_wm(ClassId(c), t).expect("insert");
            }
        }
        for rule in &pdb.rules().rules {
            check_against_oracle(pdb.db(), pdb.query(rule.id));
        }
    }
}
