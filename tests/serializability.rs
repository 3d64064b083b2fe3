//! §5: the concurrent execution of a conflict set must be equivalent to
//! some serial (OPS5) execution.

mod common;

use common::wm_class;
use ops5::ClassId;
use prodsys::{
    make_engine, ConcurrentExecutor, EngineKind, ProductionDb, SequentialExecutor, Strategy,
};
use relstore::tuple;

/// A confluent workload (rule firings commute): the final WM must be
/// identical between sequential and concurrent execution.
#[test]
fn concurrent_equals_sequential_on_confluent_rules() {
    let src = r#"
        (literalize Item n v)
        (literalize Out n v)
        (p Move (Item ^n <N> ^v <V>) --> (remove 1) (make Out ^n <N> ^v <V>))
    "#;
    let rules = ops5::compile(src).unwrap();
    for kind in [EngineKind::Rete, EngineKind::Cond, EngineKind::Query] {
        // Sequential baseline.
        let mut seq = SequentialExecutor::new(
            make_engine(kind, ProductionDb::new(rules.clone()).unwrap()),
            Strategy::Fifo,
        );
        for i in 0..12i64 {
            seq.insert(ClassId(0), tuple![i, i * 10]);
        }
        let seq_out = seq.run(1000);
        let seq_wm = (wm_class(seq.engine(), 0), wm_class(seq.engine(), 1));

        // Concurrent run, 4 workers.
        let mut engine = make_engine(kind, ProductionDb::new(rules.clone()).unwrap());
        for i in 0..12i64 {
            engine.insert(ClassId(0), tuple![i, i * 10]);
        }
        let mut conc = ConcurrentExecutor::new(engine, 4);
        let stats = conc.run(1000);
        let eng = conc.engine();
        let g = eng.lock();
        let conc_wm = (wm_class(g.as_ref(), 0), wm_class(g.as_ref(), 1));

        assert_eq!(seq_out.fired, stats.committed, "{}", kind.label());
        assert_eq!(seq_wm, conc_wm, "{}: final WM must agree", kind.label());
        assert!(g.conflict_set().is_empty(), "{}", kind.label());
    }
}

/// Conflicting deleters: whatever interleaving happens, the result must
/// equal ONE of the two possible serial outcomes.
#[test]
fn racing_deleters_match_some_serial_order() {
    let src = r#"
        (literalize A x)
        (literalize WinB x)
        (literalize WinC x)
        (p B (A ^x <V>) --> (remove 1) (make WinB ^x <V>))
        (p C (A ^x <V>) --> (remove 1) (make WinC ^x <V>))
    "#;
    for seed in 0..5 {
        let rules = ops5::compile(src).unwrap();
        let mut engine = make_engine(EngineKind::Rete, ProductionDb::new(rules).unwrap());
        for i in 0..6i64 {
            engine.insert(ClassId(0), tuple![i + seed]);
        }
        let mut conc = ConcurrentExecutor::new(engine, 4);
        conc.run(1000);
        let eng = conc.engine();
        let g = eng.lock();
        let a = wm_class(g.as_ref(), 0);
        let b = wm_class(g.as_ref(), 1);
        let c = wm_class(g.as_ref(), 2);
        assert!(a.is_empty(), "every A consumed");
        // Each A was consumed by exactly one of the two rules.
        assert_eq!(
            b.len() + c.len(),
            6,
            "seed {seed}: B={} C={}",
            b.len(),
            c.len()
        );
    }
}

/// The §5.2 negative-dependence scenario: inserting transactions must be
/// serialized against NOT EXISTS checkers; no duplicate Done rows.
#[test]
fn negative_dependence_serializes() {
    let src = r#"
        (literalize Item n)
        (literalize Done n)
        (p Mark (Item ^n <N>) -(Done ^n <N>) --> (make Done ^n <N>))
    "#;
    for workers in [1, 2, 8] {
        let rules = ops5::compile(src).unwrap();
        let mut engine = make_engine(EngineKind::Rete, ProductionDb::new(rules).unwrap());
        // Duplicated items: the negated CE must dedupe Done per n.
        for i in 0..12i64 {
            engine.insert(ClassId(0), tuple![i % 4]);
        }
        let mut conc = ConcurrentExecutor::new(engine, workers);
        conc.run(1000);
        let eng = conc.engine();
        let g = eng.lock();
        assert_eq!(
            wm_class(g.as_ref(), 1).len(),
            4,
            "workers={workers}: one Done per distinct n"
        );
    }
}

/// Locks must all be released at the end of a run (strict 2PL hygiene).
#[test]
fn no_leaked_locks_after_run() {
    let src = r#"
        (literalize A x)
        (p Consume (A ^x <V>) --> (remove 1))
    "#;
    let rules = ops5::compile(src).unwrap();
    let mut engine = make_engine(EngineKind::Cond, ProductionDb::new(rules).unwrap());
    for i in 0..10i64 {
        engine.insert(ClassId(0), tuple![i]);
    }
    let pdb = engine.pdb().clone();
    let mut conc = ConcurrentExecutor::new(engine, 4);
    let stats = conc.run(1000);
    assert_eq!(stats.committed, 10);
    assert_eq!(
        pdb.db().lock_manager().held_count(),
        0,
        "all locks released"
    );
}
