//! F2 / cross-engine equivalence: all five matching engines consume the
//! same WM update stream (the paper's Figure 2 loop) and must maintain
//! identical conflict sets after every operation.

use ops5::ClassId;
use prodsys::{make_engine, EngineKind, MatchEngine, ProductionDb};
use workload::{Op, RuleGenConfig, TraceConfig};

fn engines_for(cfg: &RuleGenConfig) -> Vec<Box<dyn MatchEngine>> {
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let pdb = ProductionDb::new(cfg.rules()).unwrap();
            make_engine(kind, pdb)
        })
        .collect()
}

fn run_trace_and_compare(cfg: RuleGenConfig, trace_cfg: TraceConfig) {
    let mut engines = engines_for(&cfg);
    let trace = trace_cfg.trace(cfg.classes, cfg.attrs);
    for (step, op) in trace.iter().enumerate() {
        let mut sets = Vec::new();
        for e in engines.iter_mut() {
            match op {
                Op::Insert(c, t) => {
                    e.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    e.remove(ClassId(*c), t);
                }
            }
            sets.push((e.name(), e.conflict_set().sorted()));
        }
        let (base_name, base) = &sets[0];
        for (name, s) in &sets[1..] {
            assert_eq!(
                base, s,
                "conflict sets diverge at step {step} ({op:?}): {base_name} vs {name}"
            );
        }
    }
}

#[test]
fn equivalence_on_two_way_joins() {
    run_trace_and_compare(
        RuleGenConfig {
            rules: 12,
            ces_per_rule: 2,
            domain: 4,
            seed: 1,
            ..Default::default()
        },
        TraceConfig {
            ops: 150,
            delete_fraction: 0.25,
            join_domain: 3,
            select_domain: 4,
            seed: 2,
        },
    );
}

#[test]
fn equivalence_on_three_way_joins() {
    run_trace_and_compare(
        RuleGenConfig {
            rules: 8,
            ces_per_rule: 3,
            classes: 3,
            domain: 3,
            seed: 3,
            ..Default::default()
        },
        TraceConfig {
            ops: 120,
            delete_fraction: 0.3,
            join_domain: 2,
            select_domain: 3,
            seed: 4,
        },
    );
}

#[test]
fn equivalence_with_negation() {
    run_trace_and_compare(
        RuleGenConfig {
            rules: 10,
            ces_per_rule: 2,
            domain: 3,
            negated_fraction: 0.5,
            seed: 5,
            ..Default::default()
        },
        TraceConfig {
            ops: 120,
            delete_fraction: 0.3,
            join_domain: 2,
            select_domain: 3,
            seed: 6,
        },
    );
}

#[test]
fn equivalence_delete_heavy() {
    run_trace_and_compare(
        RuleGenConfig {
            rules: 8,
            ces_per_rule: 2,
            domain: 3,
            seed: 7,
            ..Default::default()
        },
        TraceConfig {
            ops: 200,
            delete_fraction: 0.45,
            join_domain: 2,
            select_domain: 3,
            seed: 8,
        },
    );
}

#[test]
fn equivalence_on_paper_example_3() {
    use relstore::tuple;
    let rules = workload::paper::example3_rules();
    let mut engines: Vec<Box<dyn MatchEngine>> = EngineKind::ALL
        .iter()
        .map(|&k| make_engine(k, ProductionDb::new(rules.clone()).unwrap()))
        .collect();
    let ops: Vec<Op> = vec![
        Op::Insert(0, tuple!["Sam", 5000, "Root", 1]),
        Op::Insert(0, tuple!["Mike", 6000, "Sam", 1]),
        Op::Insert(1, tuple![1, "Toy", 1, "Sam"]),
        Op::Insert(0, tuple!["Jane", 4000, "Sam", 2]),
        Op::Remove(0, tuple!["Mike", 6000, "Sam", 1]),
        Op::Insert(1, tuple![2, "Shoe", 2, "Ann"]),
        Op::Remove(1, tuple![1, "Toy", 1, "Sam"]),
    ];
    for (step, op) in ops.iter().enumerate() {
        let mut sets = Vec::new();
        for e in engines.iter_mut() {
            match op {
                Op::Insert(c, t) => {
                    e.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    e.remove(ClassId(*c), t);
                }
            }
            sets.push((e.name(), e.conflict_set().sorted()));
        }
        for (name, s) in &sets[1..] {
            assert_eq!(&sets[0].1, s, "step {step}: {} vs {name}", sets[0].0);
        }
    }
}

/// Two positive CEs of one rule on one class: a tuple pairs with itself,
/// once. After one `C` the rule has `[t1,t1]`; after two, all four pairs.
/// Every engine against the `eval_rule` oracle.
#[test]
fn one_tuple_fills_two_ces_of_the_same_class() {
    use prodsys::engine::recompute::eval_rule;
    use relstore::tuple;
    let rules =
        ops5::compile("(literalize C a b)\n(p R (C ^a <X>) (C ^b <Y>) --> (remove 1))").unwrap();
    for kind in EngineKind::ALL {
        let mut e = make_engine(kind, ProductionDb::new(rules.clone()).unwrap());
        let (t1, t2) = (tuple![1, 2], tuple![3, 4]);
        let steps = [
            (true, &t1, 1),
            (true, &t2, 4),
            (false, &t1, 1),
            (false, &t2, 0),
        ];
        for (insert, t, expected) in steps {
            if insert {
                e.insert(ClassId(0), t.clone());
            } else {
                e.remove(ClassId(0), t);
            }
            let rule = &e.pdb().rules().rules[0];
            let mut oracle: Vec<_> = eval_rule(e.pdb(), rule)
                .iter()
                .map(|m| m.instantiation(rule))
                .collect();
            oracle.sort();
            assert_eq!(oracle.len(), expected);
            assert_eq!(e.conflict_set().sorted(), oracle, "{} after {t}", e.name());
        }
    }
}

/// Constants and values at the edge of the numeric range: a float past
/// `i64::MAX` satisfies `>= 9e18`, and NaN sorts above every number. The
/// COND index must not prune either away, so every engine agrees with
/// the `eval_rule` oracle.
#[test]
fn extreme_values_match_on_every_engine() {
    use prodsys::engine::recompute::eval_rule;
    use relstore::{Tuple, Value};
    let rules = ops5::compile(
        "(literalize C x)\n\
         (p Big (C ^x >= 9000000000000000000) --> (remove 1))\n\
         (p Past (C ^x > 9223372036854775807) --> (remove 1))",
    )
    .unwrap();
    let inserts = [
        Value::Float(1e19),
        Value::Float(f64::NAN),
        Value::Int(i64::MAX),
        Value::Int(0),
    ];
    for kind in EngineKind::ALL {
        let mut e = make_engine(kind, ProductionDb::new(rules.clone()).unwrap());
        for v in &inserts {
            e.insert(ClassId(0), Tuple::new(vec![v.clone()]));
        }
        let mut oracle: Vec<_> = (e.pdb().rules().rules.iter())
            .flat_map(|rule| {
                eval_rule(e.pdb(), rule)
                    .iter()
                    .map(|m| m.instantiation(rule))
                    .collect::<Vec<_>>()
            })
            .collect();
        oracle.sort();
        // Big: 1e19, NaN, i64::MAX; Past: 1e19, NaN.
        assert_eq!(oracle.len(), 5);
        assert_eq!(e.conflict_set().sorted(), oracle, "{}", e.name());
    }
}

/// Trace-level equivalence: beyond ending with identical conflict sets,
/// every engine must *emit* the identical ordered stream of
/// conflict-delta trace events for the same WM update stream (removes
/// before adds per change, then instantiation order — the canonical
/// order the tracer imposes).
#[test]
fn trace_equivalence_on_conflict_deltas() {
    let cfg = RuleGenConfig {
        rules: 10,
        ces_per_rule: 2,
        domain: 3,
        negated_fraction: 0.25,
        seed: 11,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops: 120,
        delete_fraction: 0.3,
        join_domain: 2,
        select_domain: 3,
        seed: 12,
    }
    .trace(cfg.classes, cfg.attrs);

    let mut streams: Vec<(&'static str, Vec<String>)> = Vec::new();
    for &kind in EngineKind::ALL.iter() {
        let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
        let tracer = obs::Tracer::new(obs::Sink::ring(1_000_000));
        engine.set_tracer(tracer.clone());
        for op in &trace {
            match op {
                Op::Insert(c, t) => {
                    engine.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    engine.remove(ClassId(*c), t);
                }
            }
        }
        let deltas: Vec<String> = tracer
            .ring_events()
            .unwrap()
            .into_iter()
            .filter_map(|ev| match ev {
                obs::Event::ConflictDelta {
                    add,
                    rule,
                    rule_name,
                    wmes,
                    ..
                } => Some(format!(
                    "{} r{rule} {rule_name} {wmes}",
                    if add { '+' } else { '-' }
                )),
                _ => None,
            })
            .collect();
        streams.push((engine.name(), deltas));
    }

    let (base_name, base) = &streams[0];
    assert!(
        !base.is_empty(),
        "workload should produce conflict-delta events"
    );
    for (name, stream) in &streams[1..] {
        assert_eq!(
            base, stream,
            "conflict-delta event streams diverge: {base_name} vs {name}"
        );
    }
}
