//! The OPS5 recognize-act cycle: Match → Select → Act, one production per
//! cycle (§2.1). Refraction (an instantiation never fires twice while it
//! stays in the conflict set) prevents trivial infinite loops.
//!
//! Select is a conflict-resolution [`Strategy`] ([`SequentialExecutor::step`])
//! or a recorded schedule ([`SequentialExecutor::replay`]): a §5 run is
//! "equivalent to some OPS5 serial run", its journal's commit order, so
//! replaying one is a serial run that picks by the record.

use std::time::Instant;

use obs::Event;
use rete::{ConflictDelta, Instantiation};

use crate::engine::MatchEngine;
use crate::exec::{eval_rhs, Refraction, WmChange};
use crate::pdb::ProductionDb;
use crate::strategy::Strategy;

/// Outcome of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOutcome {
    /// Recognize-act cycles executed (= productions fired).
    pub fired: usize,
    /// `(halt)` was executed.
    pub halted: bool,
    /// The cycle limit (in a replay, the last key) stopped the run: an
    /// eligible instantiation was left unfired.
    pub limited: bool,
    /// Lines produced by `write` actions.
    pub writes: Vec<String>,
}

/// Sequential executor owning a matching engine.
pub struct SequentialExecutor {
    engine: Box<dyn MatchEngine>,
    strategy: Strategy,
    /// Refraction memory, reconciled after every maintenance pass
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
        self.release(&deltas);
    }

    /// Remove a WM element by content.
    pub fn remove(&mut self, class: ops5::ClassId, tuple: &relstore::Tuple) {
        let deltas = self.engine.remove(class, tuple);
        self.release(&deltas);
    }

    /// Apply `changes` as one delta set and one maintenance pass.
    fn apply(&mut self, changes: &[WmChange]) {
        let deltas = self.engine.apply_delta(changes);
        self.release(&deltas);
    }

    /// Reconcile refraction with a pass's conflict-set deltas.
    fn release(&mut self, deltas: &[ConflictDelta]) {
        (self.refraction).release(self.engine.conflict_set(), deltas);
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
        self.apply(&changes);
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
        let pdb = self.engine.pdb().clone();
        // Select. `candidates()` copies every eligible instantiation where
        // `Refraction::eligible` would lend them; a copy is one allocation,
        // the WME vector, on every engine. The copy stays until the repo
        // benchmark stops counting its own per-call latency samples in
        // `peak_rss_mb`: picking over the borrowed walk fits up to 1.9x
        // more `stream-rete` rounds into its fixed 10 s, and their
        // samples alone have read as up to +28% memory against a 15%
        // bound (CHANGES.md has the runs).
        let mut candidates = self.candidates();
        if candidates.is_empty() {
            return None;
        }
        let refs: Vec<&Instantiation> = candidates.iter().collect();
        let pick = self.strategy.pick(pdb.rules(), &refs);
        Some(self.fire(&pdb, candidates.swap_remove(pick)))
    }

    /// Follow a recorded serial schedule: `(rule_name, wmes)` keys in
    /// firing order, as a journal's `Firing` events give them. At each key
    /// the first eligible instantiation of that rule and those contents
    /// fires (a key names contents; refraction, exact by tuple id, keeps an
    /// equal copy that fired from being taken again), through the same
    /// act as [`SequentialExecutor::step`]. Every key fires, a `(halt)`
    /// included: a §5 run commits the transactions already started after
    /// a halt, and their keys follow it. `limited` reports an eligible
    /// instantiation left after the last key. The first key with nothing
    /// eligible is an `Err` naming it.
    pub fn replay(&mut self, keys: &[(String, String)]) -> Result<RunOutcome, String> {
        let pdb = self.engine.pdb().clone();
        let rules = pdb.rules();
        let mut outcome = RunOutcome::default();
        for (k, (rule, wmes)) in keys.iter().enumerate() {
            let recorded = |inst: &&Instantiation| {
                rules.rule(inst.rule).name == *rule && inst.wmes_display(rules) == *wmes
            };
            let conflict_set = self.engine.conflict_set();
            let found = self.refraction.eligible(conflict_set).find(recorded);
            let Some(inst) = found.cloned() else {
                return Err(format!(
                    "replay diverged at firing {k}: no eligible instantiation for {rule}: {wmes}"
                ));
            };
            let (_, halt, writes) = self.fire(&pdb, inst);
            outcome.fired += 1;
            outcome.halted |= halt;
            outcome.writes.extend(writes);
        }
        let conflict_set = self.engine.conflict_set();
        outcome.limited = self.refraction.eligible(conflict_set).next().is_some();
        Ok(outcome)
    }

    /// Act: charge `inst` to refraction, apply its RHS and trace the cycle.
    fn fire(
        &mut self,
        pdb: &ProductionDb,
        inst: Instantiation,
    ) -> (Instantiation, bool, Vec<String>) {
        let cycle = self.cycle;
        let rules = pdb.rules();
        let tracer = self.engine.tracer().clone();
        tracer.emit(|| Event::CycleStart { cycle });
        let conflict_len = self.engine.conflict_set().len();
        let rule_name = &rules.rule(inst.rule).name;
        tracer.emit(|| Event::RuleSelect {
            cycle,
            rule: inst.rule.0 as u32,
            rule_name: rule_name.clone(),
            conflict_len,
        });
        crate::exec::trace_derivation(&tracer, rules, &inst);
        self.refraction.record(&inst);
        let start = tracer.enabled().then(Instant::now);
        let rhs = eval_rhs(rules, &inst);
        // Apply the cycle's whole RHS as one delta set and let the engine
        // maintain it in a single batched pass (§4.2). Traced runs get the
        // batch's events from inside `apply_delta`.
        self.apply(&rhs.changes);
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
            support: inst.support_display(),
            critical_ns: 0,
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
        }
        self.cycle += 1;
        let fired_total = self.cycle;
        let conflict_len = self.engine.conflict_set().len();
        tracer.emit(|| Event::CycleEnd {
            cycle,
            conflict_len,
            fired_total,
        });
        (inst, rhs.halt, rhs.writes)
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

    /// Refraction under duplicate WMEs when somebody else removes a copy
    /// after one fired: removing the fired copy takes its charge along
    /// and the other copy fires; removing the other copy leaves the fired
    /// one charged, and nothing fires. The concurrent executor answers
    /// the same (`third_party_remove_*` there).
    #[test]
    fn third_party_remove_of_the_fired_copy_releases_its_charge() {
        assert_eq!(note_after_removing(true), (2, 1));
    }

    /// See [`third_party_remove_of_the_fired_copy_releases_its_charge`].
    #[test]
    fn third_party_remove_of_the_other_copy_keeps_the_charge() {
        assert_eq!(note_after_removing(false), (1, 0));
    }

    /// `Note` over two `A(1)` copies: one fires, then the fired copy (or
    /// the other) is deleted by id. Returns `(Log rows, firings after)`.
    fn note_after_removing(fired_copy: bool) -> (usize, usize) {
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
        let (fired, ..) = ex.step().expect("one copy fires");
        assert_eq!(ex.candidates().len(), 1, "the other is still eligible");
        let other = ex.candidates()[0].support[0];
        let doomed = if fired_copy { fired.support[0] } else { other };
        let target = crate::exec::Target::Matched(doomed);
        ex.apply(&[WmChange::Delete(ClassId(0), tuple![1], target)]);
        assert_eq!(ex.engine().conflict_set().len(), 1);
        let out = ex.run(10);
        assert!(!out.limited);
        (ex.engine().pdb().wm_len(ClassId(1)), out.fired)
    }

    /// A firing whose pass retracts an instantiation and adds it back
    /// (its blocker made and removed by two `modify`s) leaves the charge,
    /// on every engine: the key never left the conflict set.
    #[test]
    fn a_retract_and_readd_inside_one_pass_keeps_the_charge() {
        for kind in EngineKind::ALL {
            let mut ex = exec(
                kind,
                r#"
                (literalize A x)
                (literalize B x)
                (literalize Go x)
                (literalize Log x)
                (p Note (A ^x <V>) -(B ^x <V>) --> (make Log ^x <V>))
                (p Flip (Go ^x <V>) (B ^x 0) --> (modify 2 ^x <V>) (modify 2 ^x 0) (remove 1))
                "#,
            );
            ex.insert(ClassId(0), tuple![1]);
            ex.insert(ClassId(1), tuple![0]);
            ex.insert(ClassId(2), tuple![1]);
            let out = ex.run(10);
            assert_eq!((out.fired, out.limited), (2, false), "{}", kind.label());
            assert_eq!(ex.engine().pdb().wm_len(ClassId(3)), 1, "{}", kind.label());
        }
    }

    /// A `modify` to equal contents is a new WME: the instantiation over
    /// the old one leaves, its charge with it, and the new one fires.
    #[test]
    fn a_modify_to_equal_contents_releases_the_charge() {
        for kind in EngineKind::ALL {
            let mut ex = exec(
                kind,
                r#"
                (literalize A x)
                (literalize T x)
                (literalize Log x)
                (p Note (A ^x <V>) --> (make Log ^x <V>))
                (p Touch (T ^x <V>) (A ^x <V>) --> (modify 2 ^x <V>) (remove 1))
                "#,
            );
            ex.insert(ClassId(0), tuple![1]);
            ex.insert(ClassId(1), tuple![1]);
            let out = ex.run(10);
            assert_eq!((out.fired, out.limited), (3, false), "{}", kind.label());
            assert_eq!(ex.engine().pdb().wm_len(ClassId(2)), 2, "{}", kind.label());
        }
    }

    fn keys(keys: &[(&str, &str)]) -> Vec<(String, String)> {
        (keys.iter())
            .map(|(rule, wmes)| (rule.to_string(), wmes.to_string()))
            .collect()
    }

    /// Replay fires every recorded key, past a `(halt)`: a §5 halt lets
    /// the transactions already started commit after it, and their keys
    /// follow it in the record.
    #[test]
    fn replay_fires_every_key_past_a_halt() {
        let mut ex = exec(
            EngineKind::Rete,
            r#"
            (literalize A x)
            (literalize Log x)
            (p Stop (A ^x <V>) --> (make Log ^x <V>) (halt))
            "#,
        );
        ex.insert(ClassId(0), tuple![1]);
        ex.insert(ClassId(0), tuple![2]);
        let keys = keys(&[("Stop", "A(1)"), ("Stop", "A(2)")]);
        let out = ex.replay(&keys).unwrap();
        assert_eq!((out.fired, out.halted, out.limited), (2, true, false));
        assert_eq!(ex.engine().pdb().wm_len(ClassId(1)), 2);
    }

    /// A key with no eligible instantiation stops the replay with an
    /// error naming it: contents that are not in the conflict set, or an
    /// instantiation that fired already.
    #[test]
    fn replay_divergence_is_reported() {
        let replay = |steps: &[(&str, &str)]| {
            let mut ex = exec(
                EngineKind::Query,
                r#"
                (literalize A x)
                (literalize Log x)
                (p Note (A ^x <V>) --> (make Log ^x <V>))
                "#,
            );
            ex.insert(ClassId(0), tuple![1]);
            ex.replay(&keys(steps)).unwrap_err()
        };
        assert_eq!(
            replay(&[("Note", "no-such-wmes")]),
            "replay diverged at firing 0: no eligible instantiation for Note: no-such-wmes"
        );
        assert_eq!(
            replay(&[("Note", "A(1)"), ("Note", "A(1)")]),
            "replay diverged at firing 1: no eligible instantiation for Note: A(1)"
        );
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
