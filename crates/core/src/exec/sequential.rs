//! The OPS5 recognize-act cycle: Match → Select → Act, one production per
//! cycle (§2.1). Refraction (an instantiation never fires twice while it
//! stays in the conflict set) prevents trivial infinite loops.

use std::time::Instant;

use obs::Event;
use rete::Instantiation;

use crate::engine::MatchEngine;
use crate::exec::{eval_rhs, Refraction, WmChange};
use crate::strategy::Strategy;

/// Outcome of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Recognize-act cycles executed (= productions fired).
    pub fired: usize,
    /// `(halt)` was executed.
    pub halted: bool,
    /// The cycle limit stopped the run: an eligible instantiation was
    /// left unfired.
    pub limited: bool,
    /// Lines produced by `write` actions.
    pub writes: Vec<String>,
}

/// Sequential executor owning a matching engine.
pub struct SequentialExecutor {
    engine: Box<dyn MatchEngine>,
    strategy: Strategy,
    /// Refraction memory, reconciled from the engine's conflict deltas
    /// ([`Refraction::release`]).
    refraction: Refraction,
    /// Recognize-act cycles executed over the executor's lifetime.
    cycle: u64,
}

impl SequentialExecutor {
    /// Create a new, empty instance.
    pub fn new(engine: Box<dyn MatchEngine>, strategy: Strategy) -> Self {
        SequentialExecutor {
            engine,
            strategy,
            refraction: Refraction::default(),
            cycle: 0,
        }
    }

    /// The matching engine driving this executor.
    pub fn engine(&self) -> &dyn MatchEngine {
        self.engine.as_ref()
    }

    /// Mutable access to the engine (e.g. to load working memory).
    pub fn engine_mut(&mut self) -> &mut Box<dyn MatchEngine> {
        &mut self.engine
    }

    /// Consume the executor, returning the engine (e.g. to hand it to the
    /// concurrent executor).
    pub fn into_engine(self) -> Box<dyn MatchEngine> {
        self.engine
    }

    /// Insert a WM element (runs matching; does not fire rules).
    pub fn insert(&mut self, class: ops5::ClassId, tuple: relstore::Tuple) {
        let deltas = self.engine.insert(class, tuple);
        self.refraction.release(&deltas);
    }

    /// Remove a WM element by content.
    pub fn remove(&mut self, class: ops5::ClassId, tuple: &relstore::Tuple) {
        let deltas = self.engine.remove(class, tuple);
        self.refraction.release(&deltas);
    }

    /// Insert many WM elements of one class as a single delta set: all
    /// tuples enter working memory first, then the engine runs one
    /// set-oriented maintenance pass. Traced runs emit the batch's WM
    /// events, its canonically ordered conflict deltas, and a
    /// `BatchApplied` summary from inside `apply_delta`.
    pub fn insert_batch(&mut self, class: ops5::ClassId, tuples: Vec<relstore::Tuple>) {
        obs::prof_span!("exec.load");
        let changes: Vec<WmChange> = tuples
            .into_iter()
            .map(|t| WmChange::Insert(class, t))
            .collect();
        let deltas = self.engine.apply_delta(&changes);
        self.refraction.release(&deltas);
    }

    /// Instantiations eligible to fire (in conflict set, not yet fired).
    pub fn candidates(&self) -> Vec<Instantiation> {
        let conflict_set = self.engine.conflict_set();
        // The walk cannot say how many it will lend; nearly all, as a rule.
        let mut candidates = Vec::with_capacity(conflict_set.len());
        candidates.extend(self.refraction.eligible(conflict_set).cloned());
        candidates
    }

    /// Run one recognize-act cycle. Returns the fired instantiation, or
    /// `None` when the conflict set has no eligible entry.
    pub fn step(&mut self) -> Option<(Instantiation, bool, Vec<String>)> {
        obs::prof_span!("exec.step");
        let cycle = self.cycle;
        let pdb = self.engine.pdb().clone();
        let rules = pdb.rules();
        let tracer = self.engine.tracer().clone();
        // Select. `candidates()` copies every eligible instantiation where
        // `Refraction::eligible` would lend them. The copy stays until the
        // repo benchmark stops counting its own per-call latency samples
        // in `peak_rss_mb`: picking over the borrowed walk makes
        // `stream-rete`'s act phase ~30x faster, 1.8x more rounds fit its
        // fixed 10 s, and their samples alone read as +24% memory against
        // a 15% bound (CHANGES.md, PR 14, has the runs).
        let mut candidates = self.candidates();
        if candidates.is_empty() {
            return None;
        }
        tracer.emit(|| Event::CycleStart { cycle });
        let refs: Vec<&Instantiation> = candidates.iter().collect();
        let pick = self.strategy.pick(rules, &refs);
        let inst = candidates.swap_remove(pick);
        let conflict_len = self.engine.conflict_set().len();
        let rule_name = &rules.rule(inst.rule).name;
        tracer.emit(|| Event::RuleSelect {
            cycle,
            rule: inst.rule.0 as u32,
            rule_name: rule_name.clone(),
            conflict_len,
        });
        crate::exec::trace_derivation(&tracer, rules, &inst);
        self.refraction.record(inst.clone());
        let start = tracer.enabled().then(Instant::now);
        let rhs = eval_rhs(rules, &inst);
        // Apply the cycle's whole RHS as one delta set and let the engine
        // maintain it in a single batched pass (§4.2). Traced runs get the
        // batch's events from inside `apply_delta`.
        let deltas = self.engine.apply_delta(&rhs.changes);
        self.refraction.release(&deltas);
        // The journal's commit record: under sequential execution the
        // firing sequence IS the cycle sequence (txn 0 marks "no §5
        // transaction").
        tracer.emit(|| Event::Firing {
            seq: cycle,
            round: cycle,
            txn: 0,
            rule: inst.rule.0 as u32,
            rule_name: rule_name.clone(),
            wmes: inst.wmes_display(rules),
            support: inst.why.support_display(),
        });
        if let Some(start) = start {
            let rhs_ns = start.elapsed().as_nanos() as u64;
            let inserts = rhs
                .changes
                .iter()
                .filter(|c| matches!(c, WmChange::Insert(..)))
                .count();
            tracer.emit(|| Event::RuleFire {
                cycle,
                rule: inst.rule.0 as u32,
                rule_name: rule_name.clone(),
                rhs_ns,
                inserts,
                removes: rhs.changes.len() - inserts,
            });
            if let Some(m) = tracer.metrics() {
                m.record_fire(inst.rule.0 as u32, rule_name, rhs_ns);
                m.record_cycle(cycle, self.engine.conflict_set().len());
            }
        }
        self.cycle += 1;
        let fired_total = self.cycle;
        let conflict_len = self.engine.conflict_set().len();
        tracer.emit(|| Event::CycleEnd {
            cycle,
            conflict_len,
            fired_total,
        });
        Some((inst, rhs.halt, rhs.writes))
    }

    /// Run until quiescence, `(halt)`, or `max_cycles`.
    pub fn run(&mut self, max_cycles: usize) -> RunOutcome {
        let mut outcome = RunOutcome::default();
        while outcome.fired < max_cycles {
            match self.step() {
                Some((_, halt, writes)) => {
                    outcome.fired += 1;
                    outcome.writes.extend(writes);
                    if halt {
                        outcome.halted = true;
                        return outcome;
                    }
                }
                None => return outcome,
            }
        }
        let conflict_set = self.engine.conflict_set();
        outcome.limited = self.refraction.eligible(conflict_set).next().is_some();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{make_engine, EngineKind};
    use crate::pdb::ProductionDb;
    use ops5::ClassId;
    use relstore::tuple;

    fn exec(kind: EngineKind, src: &str) -> SequentialExecutor {
        let rs = ops5::compile(src).unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        SequentialExecutor::new(make_engine(kind, pdb), Strategy::Fifo)
    }

    /// The paper's Example 2 rules simplify 0 + x.
    #[test]
    fn algebraic_simplification_runs() {
        for kind in EngineKind::ALL {
            let mut ex = exec(
                kind,
                r#"
                (literalize Goal Type Object)
                (literalize Expression Name Arg1 Op Arg2)
                (p PlusOX
                    (Goal ^Type Simplify ^Object <N>)
                    (Expression ^Name <N> ^Arg1 0 ^Op + ^Arg2 <X>)
                    -->
                    (modify 2 ^Op nil ^Arg1 nil)
                    (write simplified <N>))
                "#,
            );
            ex.insert(ClassId(0), tuple!["Simplify", "TERM"]);
            ex.insert(ClassId(1), tuple!["TERM", 0, "+", "x"]);
            let out = ex.run(10);
            assert_eq!(out.fired, 1, "{kind:?}");
            assert_eq!(out.writes, vec!["simplified TERM"], "{}", kind.label());
            // The expression was modified in WM.
            let pdb = ex.engine().pdb().clone();
            let rows = pdb
                .db()
                .select(pdb.class_rel(ClassId(1)), &relstore::Restriction::default())
                .unwrap();
            assert_eq!(rows.len(), 1);
            assert!(rows[0].1[1].is_null() && rows[0].1[2].is_null());
        }
    }

    /// Example 3's R1 deletes Mike when he outearns his manager; firing
    /// consumes the match, so the system quiesces after one cycle — and a
    /// cycle limit of exactly that one cycle did not cut anything short.
    #[test]
    fn r1_fires_once_and_quiesces() {
        for (kind, max_cycles) in EngineKind::ALL.into_iter().flat_map(|k| [(k, 10), (k, 1)]) {
            let mut ex = exec(
                kind,
                r#"
                (literalize Emp name salary manager)
                (p R1
                    (Emp ^name Mike ^salary <S> ^manager <M>)
                    (Emp ^name <M> ^salary {<S1> < <S>})
                    -->
                    (remove 1))
                "#,
            );
            ex.insert(ClassId(0), tuple!["Sam", 5000, "Root"]);
            ex.insert(ClassId(0), tuple!["Mike", 6000, "Sam"]);
            let out = ex.run(max_cycles);
            assert_eq!(out.fired, 1, "{}", kind.label());
            assert!(!out.limited, "{} under run({max_cycles})", kind.label());
            let pdb = ex.engine().pdb().clone();
            assert_eq!(pdb.wm_len(ClassId(0)), 1, "Mike removed ({})", kind.label());
        }
    }

    #[test]
    fn halt_stops_the_run() {
        let mut ex = exec(
            EngineKind::Rete,
            r#"
            (literalize A x)
            (p Loop (A ^x <V>) --> (make A ^x <V>) (halt))
            "#,
        );
        ex.insert(ClassId(0), tuple![1]);
        let out = ex.run(100);
        assert!(out.halted);
        assert_eq!(out.fired, 1);
    }

    #[test]
    fn refraction_prevents_refiring() {
        // A rule that does not change its matched WME fires exactly once.
        let mut ex = exec(
            EngineKind::Rete,
            r#"
            (literalize A x)
            (literalize Log x)
            (p Note (A ^x <V>) --> (make Log ^x <V>))
            "#,
        );
        ex.insert(ClassId(0), tuple![1]);
        let out = ex.run(100);
        assert_eq!(out.fired, 1, "refraction blocks refiring");
        assert!(!out.limited);
    }

    /// Refraction under duplicate WMEs when a third party removes one
    /// copy after the other fired. The sequential executor reconciles
    /// from the engine's conflict *deltas* ([`Refraction::release`]): the
    /// removal returns the charge, so the surviving copy fires again.
    /// (The concurrent executor keeps the charge instead; see
    /// `third_party_remove_keeps_refraction_charge` there.)
    #[test]
    fn third_party_remove_releases_refraction() {
        let mut ex = exec(
            EngineKind::Rete,
            r#"
            (literalize A x)
            (literalize Log x)
            (p Note (A ^x <V>) --> (make Log ^x <V>))
            "#,
        );
        ex.insert(ClassId(0), tuple![1]);
        ex.insert(ClassId(0), tuple![1]);
        assert!(ex.step().is_some(), "one copy fires");
        assert_eq!(ex.candidates().len(), 1, "the other is still eligible");
        ex.remove(ClassId(0), &tuple![1]);
        assert_eq!(ex.engine().conflict_set().len(), 1);
        assert_eq!(ex.candidates().len(), 1, "the survivor is eligible");
        let out = ex.run(10);
        assert_eq!((out.fired, out.limited), (1, false));
        assert_eq!(ex.engine().pdb().wm_len(ClassId(1)), 2, "Note fired twice");
    }

    #[test]
    fn cycle_limit_reported() {
        // A genuinely looping program: each firing makes a new tuple that
        // matches again.
        let mut ex = exec(
            EngineKind::Rete,
            r#"
            (literalize A x)
            (p Grow (A ^x <V>) --> (modify 1 ^x 1))
            "#,
        );
        ex.insert(ClassId(0), tuple![1]);
        let out = ex.run(25);
        assert!(out.limited);
        assert_eq!(out.fired, 25);
    }

    /// All five engines agree on a multi-cycle run's outcome.
    #[test]
    fn engines_agree_on_chained_firing() {
        let src = r#"
            (literalize Item n)
            (literalize Done n)
            (p Count
                (Item ^n <N>)
                -(Done ^n <N>)
                -->
                (make Done ^n <N>)
                (write done <N>))
        "#;
        let mut baseline: Option<(usize, usize)> = None;
        for kind in EngineKind::ALL {
            let mut ex = exec(kind, src);
            for i in 0..5i64 {
                ex.insert(ClassId(0), tuple![i]);
            }
            let out = ex.run(100);
            let pdb = ex.engine().pdb().clone();
            let result = (out.fired, pdb.wm_len(ClassId(1)));
            match &baseline {
                None => baseline = Some(result),
                Some(b) => assert_eq!(*b, result, "{}", kind.label()),
            }
            assert_eq!(result.1, 5, "{}: every item marked done", kind.label());
        }
    }
}
