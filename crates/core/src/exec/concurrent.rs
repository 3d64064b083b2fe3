//! Concurrent rule execution (§5).
//!
//! "Each matching pattern … can be treated as a transaction that is to be
//! executed" (§5.1). Workers take instantiations from the conflict set and
//! run each as a strict-2PL transaction:
//!
//! 1. **re-select with read locks** — the instantiation's support ids
//!    each get a shared tuple lock and must still be live at their
//!    generation. §5.2 re-selects by "selection predicates" from
//!    attribute values because its conflict set stores no tuple ids; ours
//!    does, and the locks are the same tuple locks;
//! 2. **verify negative dependence** — negated CEs take a shared lock on
//!    the whole relation and check NOT EXISTS (§5.2's "better solution");
//! 3. **apply the RHS** under exclusive locks, each removal on the tuple
//!    it names ([`crate::exec::Target`]);
//! 4. **maintenance before commit** — "a production should not commit its
//!    RHS actions … until the triggered maintenance process updates the
//!    affected COND relations as well" (§5.2): the matching engine is
//!    updated while the transaction still holds its locks;
//! 5. commit (release everything at once).
//!
//! Deadlocks — which the paper explicitly anticipates — abort the
//! requesting transaction; the instantiation is retried in a later round
//! if it is still in the conflict set.
//!
//! The commit order (`Firing::seq`) is the serial run the execution is
//! equivalent to; [`crate::exec::SequentialExecutor::replay`] re-runs it.

use std::collections::VecDeque;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obs::Event;
use parking_lot::Mutex;

use relstore::{Error, Restriction};
use rete::Instantiation;

use crate::engine::{maintenance_pass, MatchEngine};
use crate::exec::{apply_with, eval_rhs, Refraction, WmChange};
use crate::pdb::ProductionDb;

/// Statistics from a concurrent run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConcurrentStats {
    /// Instantiations whose transaction committed.
    pub committed: usize,
    /// Transactions aborted as deadlock victims (then retried).
    pub deadlock_aborts: usize,
    /// Deadlock victims that were actually re-executed in a later round.
    pub retries: usize,
    /// Instantiations skipped because their tuples vanished or a negated
    /// CE became blocked before execution.
    pub invalidated: usize,
    /// Transactions aborted by a non-deadlock storage error (the worker
    /// rolls the transaction back and reports the error here; it never
    /// panics).
    pub failed: usize,
    /// The storage errors behind `failed`, in completion order.
    pub errors: Vec<String>,
    /// Synchronization rounds executed.
    pub rounds: usize,
    /// Lock requests that blocked during the run.
    pub lock_waits: u64,
    /// Total nanoseconds transactions spent blocked on locks.
    pub lock_wait_ns: u64,
    /// Total nanoseconds committed transactions held the engine critical
    /// section for their pre-commit maintenance pass — the serialized
    /// fraction of the run.
    pub critical_ns: u64,
    /// `(halt)` executed by some production.
    pub halted: bool,
    /// `write` output (order nondeterministic across transactions).
    pub writes: Vec<String>,
    /// `[(0, lock_waits, lock_wait_ns)]` when at least one lock request
    /// blocked, empty otherwise: at most one entry, for the one lock
    /// table. Kept only because the repo benchmark reads it.
    pub shard_contention: Vec<(u32, u64, u64)>,
}

impl fmt::Display for ConcurrentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "committed={} aborts={} retries={} invalidated={} failed={} rounds={} \
             lock_waits={} lock_wait_ms={:.3} critical_ms={:.3}{}",
            self.committed,
            self.deadlock_aborts,
            self.retries,
            self.invalidated,
            self.failed,
            self.rounds,
            self.lock_waits,
            self.lock_wait_ns as f64 / 1e6,
            self.critical_ns as f64 / 1e6,
            if self.halted { " halted" } else { "" }
        )
    }
}

/// Concurrent executor: fires all applicable instantiations as
/// interleaved transactions, round by round, until quiescence.
pub struct ConcurrentExecutor {
    engine: Arc<Mutex<Box<dyn MatchEngine>>>,
    workers: usize,
    /// Global commit sequence, threaded into every transaction: the
    /// number is taken while the transaction still holds its locks, so
    /// for conflicting transactions it is the serialization order.
    /// Persists across `run` calls so journal firing sequences never
    /// repeat within one executor's trace.
    next_seq: AtomicU64,
    /// The fired keys, kept across `run` calls like the sequential
    /// executor's and reconciled with the conflict set
    /// ([`Refraction::trim_to`]) at the start of every run and after
    /// every round.
    refraction: Refraction,
}

/// What a committed transaction reports back to the round.
#[derive(Debug)]
struct Committed {
    halt: bool,
    writes: Vec<String>,
    /// Nanoseconds the transaction held the engine critical section.
    critical_ns: u64,
}

/// Why a transaction did not commit. The dropped [`relstore::Txn`] rolled
/// its effects back.
#[derive(Debug)]
enum Abort {
    /// A matched tuple vanished or a negated CE became blocked.
    Invalid,
    /// Chosen as a deadlock victim; retried in a later round if still
    /// applicable.
    Deadlock,
    /// A non-deadlock storage error, surfaced in
    /// [`ConcurrentStats::errors`] instead of panicking the worker.
    Failed(Error),
}

/// The one place a storage error becomes a transaction outcome: every
/// `?` in [`ConcurrentExecutor::transact`] goes through here.
impl From<Error> for Abort {
    fn from(e: Error) -> Self {
        match e {
            Error::Deadlock(_) => Abort::Deadlock,
            e => Abort::Failed(e),
        }
    }
}

impl Abort {
    /// The journal's `txn_abort` reason.
    fn reason(&self) -> String {
        match self {
            Abort::Invalid => "invalidated".to_string(),
            Abort::Deadlock => "deadlock".to_string(),
            Abort::Failed(e) => format!("error: {e}"),
        }
    }
}

/// Result of one instantiation's transaction.
type TxnOutcome = Result<Committed, Abort>;

impl ConcurrentExecutor {
    /// Create a new, empty instance.
    pub fn new(engine: Box<dyn MatchEngine>, workers: usize) -> Self {
        ConcurrentExecutor {
            engine: Arc::new(Mutex::new(engine)),
            workers: workers.max(1),
            next_seq: AtomicU64::new(0),
            refraction: Refraction::default(),
        }
    }

    /// Shared engine handle (e.g. to seed WM before running).
    pub fn engine(&self) -> Arc<Mutex<Box<dyn MatchEngine>>> {
        self.engine.clone()
    }

    /// Install a tracing/metrics handle on the engine and the storage
    /// layer's lock manager (§5 contention profiling).
    pub fn set_tracer(&self, tracer: obs::Tracer) {
        let mut g = self.engine.lock();
        g.pdb().db().lock_manager().set_tracer(tracer.clone());
        g.set_tracer(tracer);
    }

    /// Execute one instantiation as a transaction and journal how it
    /// ended. `round` feeds the journal's `Firing` record.
    fn run_one(&self, inst: &Instantiation, round: u64) -> TxnOutcome {
        let (pdb, tracer) = {
            let g = self.engine.lock();
            (g.pdb().clone(), g.tracer().clone())
        };
        let txn = pdb.db().begin();
        let txn_id = txn.id().0;
        tracer.emit(|| Event::TxnBegin {
            txn: txn_id,
            rule: inst.rule.0 as u32,
            rule_name: pdb.rules().rule(inst.rule).name.clone(),
        });
        crate::exec::trace_derivation(&tracer, pdb.rules(), inst);
        let outcome = self.transact(&pdb, &tracer, txn, inst, round);
        if let Err(abort) = &outcome {
            tracer.emit(|| Event::TxnAbort {
                txn: txn_id,
                reason: abort.reason(),
            });
        }
        outcome
    }

    /// The five steps of the module header, on `txn`. Any early return
    /// drops the transaction, which rolls it back.
    fn transact(
        &self,
        pdb: &ProductionDb,
        tracer: &obs::Tracer,
        mut txn: relstore::Txn,
        inst: &Instantiation,
        round: u64,
    ) -> TxnOutcome {
        let rules = pdb.rules();
        let rule = rules.rule(inst.rule);
        let txn_id = txn.id().0;

        // 1. Re-select the matched tuples by id, with read locks: each
        //    must still be live at its generation.
        for (wme, &tid) in inst.wmes.iter().zip(inst.support.iter()) {
            if txn.get(pdb.class_rel(wme.class), tid)?.is_none() {
                return Err(Abort::Invalid);
            }
        }

        // 2. Negative dependence: shared relation lock + NOT EXISTS over
        //    each absent pattern, with its CE's intra-tuple tests.
        let negated = rule.ces.iter().filter(|ce| ce.negated);
        for (ce, absent) in negated.zip(inst.absent(rules)) {
            let restriction =
                Restriction::new(absent.tests).with_attr_tests(ce.alpha.attr_tests.clone());
            if !txn.verify_absent(pdb.class_rel(absent.class), &restriction)? {
                return Err(Abort::Invalid);
            }
        }

        // 3. Apply the RHS under exclusive locks, remembering what
        //    actually happened for the maintenance phase.
        let rhs = eval_rhs(rules, inst);
        let applied = apply_with(&rhs.changes, |change, target| {
            Ok::<_, Error>(match change {
                WmChange::Insert(class, tuple) => {
                    Some(txn.insert(pdb.class_rel(*class), tuple.clone())?)
                }
                // "T_j will not be able to process tuples of R_i that
                // have already been deleted" — consistent.
                WmChange::Delete(class, ..) => match target {
                    Some(tid) => txn.delete(pdb.class_rel(*class), tid)?.map(|_| tid),
                    None => None,
                },
                WmChange::Remove(..) => unreachable!("an RHS names the tuples it removes"),
            })
        })?;

        // 4. Maintenance BEFORE commit: the transaction still holds
        //    every lock while the match structures (COND relations)
        //    are updated — one set-oriented maintenance pass over the
        //    transaction's whole delta set (§4.2 × §5.2), inside the
        //    engine critical section.
        let critical_ns = {
            let mut g = self.engine.lock();
            obs::prof_span!("exec.critical");
            let held = Instant::now();
            maintenance_pass(&mut **g, &applied);
            held.elapsed().as_nanos() as u64
        };

        // 5. Commit point. The firing's global sequence number is
        //    taken while the transaction still holds every lock: a
        //    conflicting transaction is blocked until this one
        //    releases at commit, so its own fetch_add is strictly
        //    later — for conflicting transactions `seq` IS the
        //    serialization order, and a serial replay in `seq` order
        //    reproduces the run.
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        tracer.emit(|| Event::Firing {
            seq,
            round,
            txn: txn_id,
            rule: inst.rule.0 as u32,
            rule_name: rule.name.clone(),
            wmes: inst.wmes_display(rules),
            support: inst.support_display(),
            critical_ns,
        });
        // A failed commit-time WAL sync rolls the WM changes back; the
        // instantiation stays unfired and is retried if still applicable,
        // like any other failed transaction.
        txn.commit()?;
        tracer.emit(|| Event::TxnCommit {
            txn: txn_id,
            writes: applied.len(),
        });
        Ok(Committed {
            halt: rhs.halt,
            writes: rhs.writes,
            critical_ns,
        })
    }

    /// Execute one round's candidates, raced over the worker threads.
    /// Every worker pops the next candidate from one shared queue.
    ///
    /// A committed `(halt)` stops further dispatch *within* the round:
    /// transactions already started may finish (they hold locks and must
    /// release cleanly), but queued ones stay unexecuted.
    fn dispatch(
        &self,
        candidates: Vec<Instantiation>,
        round: u64,
    ) -> Vec<(Instantiation, TxnOutcome)> {
        let queue = Mutex::new(VecDeque::from(candidates));
        let results = Mutex::new(Vec::new());
        let halted = AtomicBool::new(false);
        let work = || {
            while !halted.load(Ordering::Relaxed) {
                let Some(inst) = queue.lock().pop_front() else {
                    break;
                };
                let outcome = self.run_one(&inst, round);
                if matches!(&outcome, Ok(done) if done.halt) {
                    halted.store(true, Ordering::Relaxed);
                }
                results.lock().push((inst, outcome));
            }
        };
        crossbeam::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|_| work());
            }
        })
        .expect("worker scope");
        results.into_inner()
    }

    /// Run rounds of firing until quiescence, halt, or `max_fired`
    /// committed productions. A round races every eligible candidate over
    /// the worker queues.
    pub fn run(&mut self, max_fired: usize) -> ConcurrentStats {
        let mut stats = ConcurrentStats::default();
        // Deadlock victims awaiting a retry; lock-wait totals come from
        // the storage layer's counters, delta'd over this run.
        let mut deadlocked: Vec<Instantiation> = Vec::new();
        // Consecutive rounds that made no observable progress — nothing
        // committed *and* the candidate snapshot is byte-identical to the
        // previous round's (deadlock victims, failures, or a repeatedly
        // invalid instantiation that never leaves the conflict set):
        // capped, with exponential backoff between the retry rounds.
        let mut stalls = 0usize;
        let mut last_fingerprint: Option<u64> = None;
        let (pdb, tracer) = {
            let g = self.engine.lock();
            // WM changes made through `engine()` between runs reached no
            // refraction: drop the charges of the keys they took out.
            self.refraction.trim_to(g.conflict_set());
            (g.pdb().clone(), g.tracer().clone())
        };
        let db = pdb.db();
        let base = db.stats().snapshot();
        while stats.committed < max_fired && !stats.halted {
            // Snapshot Ψ_i: conflict set minus already-fired (refraction).
            let (candidates, fingerprint, retries) = {
                let g = self.engine.lock();
                let eligible: Vec<&Instantiation> =
                    self.refraction.eligible(g.conflict_set()).collect();
                snapshot_round(&eligible, max_fired - stats.committed, &mut deadlocked)
            };
            if candidates.is_empty() {
                break;
            }
            stats.retries += retries;
            let repeated = last_fingerprint.replace(fingerprint) == Some(fingerprint);
            stats.rounds += 1;
            let round = stats.rounds as u64;
            let dispatched = candidates.len();
            let round_start = Instant::now();
            let results = self.dispatch(candidates, round);
            let executed = results.len();
            let mut round_committed = 0usize;
            let mut round_critical = 0u64;
            for (inst, outcome) in results {
                match outcome {
                    Ok(done) => {
                        stats.committed += 1;
                        stats.writes.extend(done.writes);
                        stats.halted |= done.halt;
                        round_committed += 1;
                        round_critical += done.critical_ns;
                        // A firing that consumed its own support has left
                        // the conflict set already: `trim_to` drops its
                        // charge after the round.
                        self.refraction.record(&inst);
                    }
                    Err(abort) => {
                        // None of these marks the instantiation fired: the
                        // next snapshot retries it if it is still
                        // applicable (an invalid one has normally left
                        // the conflict set by then).
                        match abort {
                            Abort::Invalid => stats.invalidated += 1,
                            Abort::Deadlock => {
                                stats.deadlock_aborts += 1;
                                deadlocked.push(inst);
                            }
                            Abort::Failed(e) => {
                                stats.failed += 1;
                                stats.errors.push(e.to_string());
                            }
                        }
                    }
                }
            }
            stats.critical_ns += round_critical;
            let span_ns = round_start.elapsed().as_nanos() as u64;
            tracer.emit(|| Event::RoundSpan {
                round,
                candidates: dispatched,
                committed: round_committed,
                aborted: executed - round_committed,
                critical_ns: round_critical,
                span_ns,
            });
            self.refraction.trim_to(self.engine.lock().conflict_set());
            if round_committed > 0 || !repeated {
                stalls = 0;
            } else {
                // No commit and an unchanged candidate set: deadlock
                // victims, failures, or an instantiation that re-selects
                // as invalid without leaving the conflict set. Retry with
                // backoff, but give up after a bounded streak instead of
                // spinning forever.
                stalls += 1;
                if stalls >= 32 {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_micros(50u64 << stalls.min(8)));
            }
        }
        let delta = db.stats().snapshot().since(&base);
        stats.lock_waits = delta.lock_waits;
        stats.lock_wait_ns = delta.lock_wait_ns;
        if delta.lock_waits > 0 {
            stats.shard_contention = vec![(0, delta.lock_waits, delta.lock_wait_ns)];
        }
        stats
    }
}

/// Turn what is eligible into what one round dispatches: a fingerprint of
/// everything eligible (stall detection), the candidates cut to the
/// remaining firing budget — every queued transaction may commit, and a
/// full round used to overshoot `max_fired` by up to a whole round's
/// worth — and the number of the previous round's deadlock victims among
/// them, i.e. the retries about to re-execute. Victims are counted
/// against what is dispatched, not against what is eligible: one cut by
/// the budget is not a retry. Either way the victim list is cleared — a
/// victim that deadlocks again this round re-enters it — so it can never
/// grow without bound on workloads where victims are invalidated by
/// other transactions instead of reappearing.
fn snapshot_round(
    eligible: &[&Instantiation],
    budget: usize,
    deadlocked: &mut Vec<Instantiation>,
) -> (Vec<Instantiation>, u64, usize) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for inst in eligible {
        (inst.rule, &inst.support).hash(&mut h);
    }
    let candidates: Vec<Instantiation> = eligible.iter().take(budget).copied().cloned().collect();
    let retries = (deadlocked.drain(..))
        .filter(|victim| candidates.iter().any(|c| c.key() == victim.key()))
        .count();
    (candidates, h.finish(), retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{make_engine, EngineKind};
    use crate::pdb::ProductionDb;
    use ops5::ClassId;
    use relstore::{tuple, TupleId};

    fn setup(src: &str, kind: EngineKind) -> ConcurrentExecutor {
        let rs = ops5::compile(src).unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        ConcurrentExecutor::new(make_engine(kind, pdb), 4)
    }

    const COUNTER_RULES: &str = r#"
        (literalize Item n)
        (literalize Done n)
        (p Mark
            (Item ^n <N>)
            -(Done ^n <N>)
            -->
            (make Done ^n <N>))
    "#;

    #[test]
    fn concurrent_matches_sequential_outcome() {
        for kind in [EngineKind::Rete, EngineKind::Cond, EngineKind::Query] {
            let mut ex = setup(COUNTER_RULES, kind);
            {
                let eng = ex.engine();
                let mut g = eng.lock();
                for i in 0..8i64 {
                    g.insert(ClassId(0), tuple![i]);
                }
            }
            let stats = ex.run(1000);
            assert_eq!(stats.committed, 8, "{}", kind.label());
            let eng = ex.engine();
            let g = eng.lock();
            assert_eq!(g.pdb().wm_len(ClassId(1)), 8, "{}", kind.label());
            assert!(g.conflict_set().is_empty() || stats.halted);
        }
    }

    #[test]
    fn competing_deleters_fire_once_total() {
        // Two rules both want to remove the same tuple: serializability
        // means exactly one effective deletion and a consistent WM.
        let src = r#"
            (literalize A x)
            (literalize LogB x)
            (literalize LogC x)
            (p B (A ^x <V>) --> (remove 1) (make LogB ^x <V>))
            (p C (A ^x <V>) --> (remove 1) (make LogC ^x <V>))
        "#;
        let mut ex = setup(src, EngineKind::Rete);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            g.insert(ClassId(0), tuple![1]);
        }
        let stats = ex.run(100);
        let eng = ex.engine();
        let g = eng.lock();
        assert_eq!(g.pdb().wm_len(ClassId(0)), 0, "tuple deleted");
        let logs = g.pdb().wm_len(ClassId(1)) + g.pdb().wm_len(ClassId(2));
        // Both productions were applicable in Ψ1; per §5.2 the one that
        // loses the race still executes but cannot process the deleted
        // tuple. Our implementation skips it as invalidated, matching the
        // serial schedule where only one fires.
        assert_eq!(logs, 1, "exactly one log entry (stats: {stats:?})");
        assert_eq!(stats.committed, 1);
    }

    #[test]
    fn negative_dependence_is_checked() {
        // Mark fires once per Item even when many workers race: the
        // NOT EXISTS check under a relation lock prevents double Done.
        let mut ex = setup(COUNTER_RULES, EngineKind::Rete);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            for i in 0..4i64 {
                g.insert(ClassId(0), tuple![i % 2]); // duplicates!
            }
        }
        let _ = ex.run(100);
        let eng = ex.engine();
        let g = eng.lock();
        // Two distinct n values → exactly two Done tuples despite four
        // Items producing four instantiations initially.
        assert_eq!(g.pdb().wm_len(ClassId(1)), 2);
    }

    /// Regression: a deadlock victim whose instantiation never returns to
    /// the conflict set (another transaction invalidated it) used to stay
    /// in the victim list forever. Victims are retired against every
    /// round's candidates and the list is cleared each round.
    #[test]
    fn deadlock_victims_retired_against_current_candidates() {
        let inst = |rule: usize, v: i64| {
            rete::Instantiation::new(
                ops5::RuleId(rule),
                vec![rete::Wme::new(ClassId(0), tuple![v])],
                Arc::from([TupleId::new(v as u32, 0)]),
            )
        };
        // Victim 0 reappears in the candidates (a genuine retry); victim 1
        // was invalidated and must be dropped, not kept forever.
        let mut deadlocked = vec![inst(0, 1), inst(1, 2)];
        let (a, b) = (inst(0, 1), inst(2, 3));
        let (candidates, _, retries) = snapshot_round(&[&a, &b], 10, &mut deadlocked);
        assert_eq!(candidates, vec![a.clone(), b]);
        assert_eq!(retries, 1, "only the reappearing victim is a retry");
        assert!(deadlocked.is_empty(), "the victim list is always cleared");
        // A victim is matched by key: equal contents on another tuple are
        // another instantiation.
        let twin = rete::Instantiation {
            support: Arc::from([TupleId::new(9, 0)]),
            ..inst(0, 1)
        };
        let mut deadlocked = vec![twin];
        let (_, _, retries) = snapshot_round(&[&a], 10, &mut deadlocked);
        assert_eq!(retries, 0, "not the candidate's key");
        assert!(deadlocked.is_empty());
    }

    /// Tentpole invariant: each committed §5 transaction performs exactly
    /// one set-oriented maintenance pass — one `BatchApplied` per
    /// `TxnCommit` — and every round emits one `RoundSpan`.
    #[test]
    fn one_batch_maintenance_per_committed_txn() {
        for kind in [EngineKind::Query, EngineKind::Rete] {
            let mut ex = setup(COUNTER_RULES, kind);
            {
                let eng = ex.engine();
                let mut g = eng.lock();
                for i in 0..6i64 {
                    g.insert(ClassId(0), tuple![i]);
                }
            }
            let tracer = obs::Tracer::new(obs::Sink::ring(4096));
            ex.set_tracer(tracer.clone());
            let stats = ex.run(1000);
            assert_eq!(stats.committed, 6, "{}", kind.label());
            let events = tracer.ring_events().unwrap();
            let commits = events.iter().filter(|e| e.kind() == "txn_commit").count();
            let batches = events
                .iter()
                .filter(|e| e.kind() == "batch_applied")
                .count();
            let rounds = events.iter().filter(|e| e.kind() == "round_span").count();
            assert_eq!(commits, stats.committed, "{}", kind.label());
            assert_eq!(
                batches,
                stats.committed,
                "{}: one maintain_delta per committed txn",
                kind.label()
            );
            assert_eq!(rounds, stats.rounds, "{}", kind.label());
            assert!(stats.critical_ns > 0, "{}", kind.label());
        }
    }

    /// Regression: `run(max_fired)` used to dispatch whole rounds and
    /// could overshoot the budget by up to a round's worth of commits.
    #[test]
    fn run_respects_fired_budget() {
        let mut ex = setup(COUNTER_RULES, EngineKind::Rete);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            for i in 0..8i64 {
                g.insert(ClassId(0), tuple![i]);
            }
        }
        let stats = ex.run(1);
        assert_eq!(stats.committed, 1, "budget of 1 means exactly 1 commit");
        // Regression: `retries` was counted before the budget cut, so a
        // deadlock victim that is eligible but not dispatched was reported
        // as "actually re-executed".
        {
            let eng = ex.engine();
            let g = eng.lock();
            let refraction = Refraction::default();
            let eligible: Vec<&Instantiation> = refraction.eligible(g.conflict_set()).collect();
            assert_eq!(eligible.len(), 7);
            let victim = eligible[6].clone();
            let (cut, _, retries) = snapshot_round(&eligible, 1, &mut vec![victim.clone()]);
            assert_eq!(cut.len(), 1, "the round is cut to the budget");
            assert_eq!(retries, 0, "a victim the budget cut is not a retry");
            let (_, _, retries) = snapshot_round(&eligible, 7, &mut vec![victim]);
            assert_eq!(retries, 1, "dispatched, it is");
        }
        let stats = ex.run(3);
        assert_eq!(stats.committed, 3, "resuming honors the new budget");
        let stats = ex.run(1000);
        assert_eq!(stats.committed, 4, "remainder drains to quiescence");
    }

    /// Regression: a committed `(halt)` only stopped *rounds*; queued
    /// instantiations of the same round all still executed. The shared
    /// halt flag stops in-round dispatch too.
    #[test]
    fn halt_stops_inround_dispatch() {
        // No `remove`, so all 8 instantiations stay valid: without the
        // in-round flag every one of them would commit in round 1.
        let src = r#"
            (literalize A x)
            (literalize Log x)
            (p Stop (A ^x <V>) --> (make Log ^x <V>) (halt))
        "#;
        let rs = ops5::compile(src).unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        let mut ex = ConcurrentExecutor::new(make_engine(EngineKind::Rete, pdb), 1);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            for i in 0..8i64 {
                g.insert(ClassId(0), tuple![i]);
            }
        }
        let stats = ex.run(1000);
        assert!(stats.halted);
        assert_eq!(
            stats.committed, 1,
            "single worker: halt stops the rest of the round's queue"
        );
    }

    #[test]
    fn halt_propagates() {
        let src = r#"
            (literalize A x)
            (p Stop (A ^x <V>) --> (remove 1) (halt))
        "#;
        let mut ex = setup(src, EngineKind::Rete);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            g.insert(ClassId(0), tuple![1]);
        }
        let stats = ex.run(100);
        assert!(stats.halted);
        assert_eq!(stats.committed, 1);
    }

    /// Refraction outlives one `run`: a second `run` does not fire again
    /// what the first one fired.
    #[test]
    fn refraction_outlives_one_run() {
        let src = r#"
            (literalize A x)
            (literalize Log x)
            (p Note (A ^x <V>) --> (make Log ^x <V>))
        "#;
        let rs = ops5::compile(src).unwrap();
        let pdb = ProductionDb::new(rs).unwrap();
        let mut ex = ConcurrentExecutor::new(make_engine(EngineKind::Rete, pdb), 2);
        ex.engine().lock().insert(ClassId(0), tuple![1]);
        assert_eq!(ex.run(100).committed, 1);
        assert_eq!(ex.run(100).committed, 0, "already fired");
        assert_eq!(ex.engine().lock().pdb().wm_len(ClassId(1)), 1);
    }

    /// A blocker made through `engine()` between two runs takes the fired
    /// instantiation out of the conflict set. When the second run removes
    /// the blocker, the instantiation comes back under the same key, a new
    /// instantiation with no charge: it fires again.
    #[test]
    fn a_blocker_between_runs_releases_the_charge() {
        let src = r#"
            (literalize A x)
            (literalize B x)
            (literalize Go x)
            (literalize Log x)
            (p Note (A ^x <V>) -(B ^x <V>) --> (make Log ^x <V>))
            (p Unblock (Go ^x <V>) (B ^x <V>) --> (remove 1) (remove 2))
        "#;
        let mut ex = setup(src, EngineKind::Rete);
        ex.engine().lock().insert(ClassId(0), tuple![1]);
        assert_eq!(ex.run(100).committed, 1);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            g.insert(ClassId(1), tuple![1]);
            g.insert(ClassId(2), tuple![1]);
        }
        assert_eq!(ex.run(100).committed, 2, "Unblock, then Note again");
        assert_eq!(ex.engine().lock().pdb().wm_len(ClassId(3)), 2);
    }
}
