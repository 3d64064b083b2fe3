//! Concurrent rule execution (§5).
//!
//! "Each matching pattern … can be treated as a transaction that is to be
//! executed" (§5.1). Workers take instantiations from the conflict set and
//! run each as a strict-2PL transaction:
//!
//! 1. **re-select with read locks** — the conflict set stores no tuple
//!    ids, so "attribute values from the matching pattern tuple are used
//!    to generate selection predicates" and the selected WM tuples get
//!    shared locks (§5.2);
//! 2. **verify negative dependence** — negated CEs take a shared lock on
//!    the whole relation and check NOT EXISTS (§5.2's "better solution");
//! 3. **apply the RHS** under exclusive locks;
//! 4. **maintenance before commit** — "a production should not commit its
//!    RHS actions … until the triggered maintenance process updates the
//!    affected COND relations as well" (§5.2): the matching engine is
//!    updated while the transaction still holds its locks;
//! 5. commit (release everything at once).
//!
//! Deadlocks — which the paper explicitly anticipates — abort the
//! requesting transaction; the instantiation is retried in a later round
//! if it is still in the conflict set.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obs::Event;
use ops5::ClassId;
use parking_lot::Mutex;

use relstore::{Error, Restriction, Selection, Tuple, TupleId};
use rete::Instantiation;

use crate::engine::{trace_batch, MatchEngine, WmDelta};
use crate::exec::{eval_rhs, positive_positions, WmChange};

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
    /// Set when an oracle-driven replay could not follow the recorded
    /// schedule: the step it stopped at and why. `None` for live runs and
    /// for replays that reproduced every recorded firing.
    pub divergence: Option<String>,
    /// Per-lock-shard contention over this run, `(shard, waits, wait_ns)`
    /// for every shard where at least one request blocked. Empty when the
    /// run never contended.
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
    /// Set-oriented worker transactions: batched step-1 re-selection and
    /// whatever batch strategy the engine itself supports. Off pins the
    /// historical per-condition-element baseline.
    batching: bool,
    /// Global commit sequence, threaded into every transaction: the
    /// number is taken while the transaction still holds its locks, so
    /// for conflicting transactions it is the serialization order.
    /// Persists across `run` calls so journal firing sequences never
    /// repeat within one executor's trace.
    next_seq: AtomicU64,
    /// When set, `run` replays the recorded schedule instead of racing
    /// workers (see [`ScheduleOracle`]).
    oracle: Option<ScheduleOracle>,
}

/// A recorded commit schedule: `(rule_name, wmes)` keys in commit-`seq`
/// order, taken from a journal's `Firing` events. Installed on a
/// [`ConcurrentExecutor`] via [`ConcurrentExecutor::set_oracle`], it
/// replaces live worker racing with a serial re-execution that fires the
/// recorded instantiations in the recorded serialization order —
/// committed transactions' firing sequence and final WM are reproduced
/// exactly (non-conflicting transactions commute; conflicting ones were
/// ordered by their lock conflicts, which the `seq` capture point
/// preserves).
#[derive(Debug, Clone)]
pub struct ScheduleOracle {
    steps: Vec<(String, String)>,
    pos: usize,
}

impl ScheduleOracle {
    /// An oracle over `(rule_name, wmes)` firing keys in commit order.
    pub fn new(steps: Vec<(String, String)>) -> Self {
        ScheduleOracle { steps, pos: 0 }
    }

    /// Recorded firings not yet replayed.
    pub fn remaining(&self) -> usize {
        self.steps.len() - self.pos
    }

    fn peek(&self) -> Option<&(String, String)> {
        self.steps.get(self.pos)
    }

    fn advance(&mut self) {
        self.pos += 1;
    }
}

/// Result of one instantiation's transaction.
#[derive(Debug)]
enum TxnOutcome {
    Committed {
        halt: bool,
        writes: Vec<String>,
        /// Nanoseconds the transaction held the engine critical section.
        critical_ns: u64,
        /// The transaction deleted one of its own positive-support
        /// tuples, so the maintenance process retires a conflict-set
        /// copy of the fired instantiation and refraction must not
        /// charge it a firing: duplicate WMEs leave equal-content
        /// copies behind that are still entitled to fire. This is
        /// judged from the transaction's *applied* RHS, not from its
        /// maintenance delta — under concurrency the copy's removal
        /// can surface in a racing transaction's maintenance pass
        /// (storage deltas are visible to other workers' recompute
        /// passes before commit), so delta attribution misses.
        self_removed: bool,
    },
    Invalid,
    Deadlock,
    /// A non-deadlock storage error aborted the transaction. The dropped
    /// [`relstore::Txn`] rolled its effects back; the error is surfaced in
    /// [`ConcurrentStats::errors`] instead of panicking the worker.
    Failed(Error),
}

impl ConcurrentExecutor {
    /// Create a new, empty instance.
    pub fn new(engine: Box<dyn MatchEngine>, workers: usize) -> Self {
        ConcurrentExecutor {
            engine: Arc::new(Mutex::new(engine)),
            workers: workers.max(1),
            batching: true,
            next_seq: AtomicU64::new(0),
            oracle: None,
        }
    }

    /// Install a recorded commit schedule: the next `run` replays it
    /// serially instead of racing live workers.
    pub fn set_oracle(&mut self, oracle: ScheduleOracle) {
        self.oracle = Some(oracle);
    }

    /// Shared engine handle (e.g. to seed WM before running).
    pub fn engine(&self) -> Arc<Mutex<Box<dyn MatchEngine>>> {
        self.engine.clone()
    }

    /// Toggle set-oriented evaluation end-to-end: the worker transactions'
    /// batched step-1 re-selection *and* the engine's own batch strategy
    /// (see [`MatchEngine::set_batching`]). On by default; benchmarks pin
    /// `false` to reproduce the tuple-at-a-time baseline.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
        self.engine.lock().set_batching(on);
    }

    /// Install a tracing/metrics handle on the engine and the storage
    /// layer's lock manager (§5 contention profiling).
    pub fn set_tracer(&self, tracer: obs::Tracer) {
        let mut g = self.engine.lock();
        g.pdb().db().lock_manager().set_tracer(tracer.clone());
        g.set_tracer(tracer);
    }

    /// Execute one instantiation as a transaction. `round` and
    /// `commit_seq` feed the journal's `Firing` record: the sequence
    /// number is taken just before the commit point, with every lock
    /// still held.
    fn run_one(
        engine: &Arc<Mutex<Box<dyn MatchEngine>>>,
        inst: &Instantiation,
        batching: bool,
        round: u64,
        commit_seq: &AtomicU64,
    ) -> TxnOutcome {
        let (pdb, rules, tracer) = {
            let g = engine.lock();
            (g.pdb().clone(), g.pdb().rules().clone(), g.tracer().clone())
        };
        let rule = rules.rule(inst.rule).clone();
        let pos_of = positive_positions(&rule);
        let db = pdb.db().clone();
        let mut txn = db.begin();
        let txn_id = txn.id().0;
        tracer.emit(|| Event::TxnBegin {
            txn: txn_id,
            rule: inst.rule.0 as u32,
            rule_name: rule.name.clone(),
        });
        crate::exec::trace_derivation(&tracer, &rules, inst);
        let mut wm_writes = 0usize;
        let outcome = (|| -> TxnOutcome {
            // 1. Re-select the matched tuples by content, with read locks.
            //    Duplicate WMEs need distinct tuple ids *within a class*
            //    (tuple ids are per-relation, so equal ids of different
            //    classes are unrelated rows). Set-oriented mode groups the
            //    rule's positive CEs by class and re-selects each class in
            //    one batched pass (one read, one lock sweep, one liveness
            //    re-read) instead of a select per CE.
            let mut claimed: Vec<(usize, ClassId, TupleId)> = Vec::new(); // (positive pos, class, tid)
            if batching {
                let mut by_class: Vec<(ClassId, Vec<usize>)> = Vec::new(); // positions per class
                for (i, ce) in rule.ces.iter().enumerate() {
                    if ce.negated {
                        continue;
                    }
                    let pos = pos_of[i].expect("positive");
                    match by_class.iter_mut().find(|(c, _)| *c == ce.class) {
                        Some((_, poses)) => poses.push(pos),
                        None => by_class.push((ce.class, vec![pos])),
                    }
                }
                for (class, poses) in by_class {
                    let keys: Vec<Tuple> =
                        poses.iter().map(|&p| inst.wmes[p].tuple.clone()).collect();
                    let groups = match txn.select_eq_batch(pdb.class_rel(class), &keys) {
                        Ok(groups) => groups,
                        Err(Error::Deadlock(_)) => return TxnOutcome::Deadlock,
                        Err(e) => return TxnOutcome::Failed(e),
                    };
                    for (&pos, rows) in poses.iter().zip(&groups) {
                        let free = rows.iter().find(|(tid, _)| {
                            !claimed.iter().any(|(_, c, t)| *c == class && t == tid)
                        });
                        match free {
                            Some((tid, _)) => claimed.push((pos, class, *tid)),
                            None => return TxnOutcome::Invalid,
                        }
                    }
                }
            } else {
                for (i, ce) in rule.ces.iter().enumerate() {
                    if ce.negated {
                        continue;
                    }
                    let pos = pos_of[i].expect("positive");
                    let wme = &inst.wmes[pos];
                    let full_eq = Restriction::new(
                        wme.tuple
                            .values()
                            .iter()
                            .enumerate()
                            .map(|(a, v)| Selection::eq(a, v.clone()))
                            .collect(),
                    );
                    let rows = match txn.select(pdb.class_rel(ce.class), &full_eq) {
                        Ok(rows) => rows,
                        Err(Error::Deadlock(_)) => return TxnOutcome::Deadlock,
                        Err(e) => return TxnOutcome::Failed(e),
                    };
                    let free = rows.iter().find(|(tid, _)| {
                        !claimed.iter().any(|(_, c, t)| *c == ce.class && t == tid)
                    });
                    match free {
                        Some((tid, _)) => claimed.push((pos, ce.class, *tid)),
                        None => return TxnOutcome::Invalid,
                    }
                }
            }

            // 2. Negative dependence: shared relation lock + NOT EXISTS.
            for ce in rule.ces.iter().filter(|ce| ce.negated) {
                let mut tests = ce.alpha.tests.clone();
                for j in &ce.joins {
                    let Some(pos) = pos_of[j.other_ce] else {
                        continue;
                    };
                    let bound = inst.wmes[pos].tuple[j.other_attr].clone();
                    tests.push(Selection::new(j.my_attr, j.op, bound));
                }
                let restriction =
                    Restriction::new(tests).with_attr_tests(ce.alpha.attr_tests.clone());
                match txn.verify_absent(pdb.class_rel(ce.class), &restriction) {
                    Ok(true) => {}
                    Ok(false) => return TxnOutcome::Invalid,
                    Err(Error::Deadlock(_)) => return TxnOutcome::Deadlock,
                    Err(e) => return TxnOutcome::Failed(e),
                }
            }

            // 3. Apply the RHS under exclusive locks, remembering what
            //    actually happened for the maintenance phase.
            let rhs = eval_rhs(&rules, inst);
            let mut applied: Vec<(WmChange, TupleId)> = Vec::new();
            for change in &rhs.changes {
                match change {
                    WmChange::Remove(class, tuple) => {
                        // Prefer the claimed (LHS-matched) row of this content.
                        let rel = pdb.class_rel(*class);
                        let tid = claimed
                            .iter()
                            .find(|(pos, cl, _)| cl == class && &inst.wmes[*pos].tuple == tuple)
                            .map(|(_, _, tid)| *tid);
                        let tid = match tid {
                            Some(t) => t,
                            None => {
                                // A `modify`-generated intermediate: find any row.
                                let full_eq = Restriction::new(
                                    tuple
                                        .values()
                                        .iter()
                                        .enumerate()
                                        .map(|(a, v)| Selection::eq(a, v.clone()))
                                        .collect(),
                                );
                                match txn.select(rel, &full_eq) {
                                    Ok(rows) if !rows.is_empty() => rows[0].0,
                                    Ok(_) => continue,
                                    Err(Error::Deadlock(_)) => return TxnOutcome::Deadlock,
                                    Err(e) => return TxnOutcome::Failed(e),
                                }
                            }
                        };
                        match txn.delete(rel, tid) {
                            // "T_j will not be able to process tuples of R_i
                            // that have already been deleted" — consistent.
                            Ok(Some(_)) => applied.push((change.clone(), tid)),
                            Ok(None) => {}
                            Err(Error::Deadlock(_)) => return TxnOutcome::Deadlock,
                            Err(e) => return TxnOutcome::Failed(e),
                        }
                    }
                    WmChange::Insert(class, tuple) => {
                        match txn.insert(pdb.class_rel(*class), tuple.clone()) {
                            Ok(tid) => applied.push((change.clone(), tid)),
                            Err(Error::Deadlock(_)) => return TxnOutcome::Deadlock,
                            Err(e) => return TxnOutcome::Failed(e),
                        }
                    }
                }
            }

            // 4. Maintenance BEFORE commit: the transaction still holds
            //    every lock while the match structures (COND relations)
            //    are updated — one set-oriented `maintain_delta` pass over
            //    the transaction's whole delta set (§4.2 × §5.2), inside
            //    the engine critical section.
            let resolved: Vec<WmDelta> = applied
                .iter()
                .map(|(change, tid)| match change {
                    WmChange::Insert(class, tuple) => WmDelta {
                        insert: true,
                        class: *class,
                        tid: *tid,
                        tuple: tuple.clone(),
                    },
                    WmChange::Remove(class, tuple) => WmDelta {
                        insert: false,
                        class: *class,
                        tid: *tid,
                        tuple: tuple.clone(),
                    },
                })
                .collect();
            // Whether this firing consumed its own support: an applied
            // delete whose content matches one of the instantiation's
            // positive WMEs retires a conflict-set copy of it. Decided
            // here — from what the transaction itself did — because the
            // *maintenance delta* that reports the removal may belong to
            // a racing transaction: workers delete from shared storage
            // before entering the critical section, so whichever
            // maintenance pass runs first observes the combined state
            // and reports every copy's retirement in its own delta.
            let self_removed = applied.iter().any(|(change, _)| match change {
                WmChange::Remove(class, tuple) => inst
                    .wmes
                    .iter()
                    .any(|w| w.class == *class && &w.tuple == tuple),
                WmChange::Insert(..) => false,
            });
            let critical_ns = {
                let mut g = engine.lock();
                obs::prof_span!("exec.critical");
                let held = Instant::now();
                let start = g.tracer().enabled().then(Instant::now);
                let deltas = g.maintain_delta(&resolved);
                if let Some(start) = start {
                    let total_ns = start.elapsed().as_nanos() as u64;
                    trace_batch(&**g, &resolved, &deltas, total_ns);
                }
                let critical_ns = held.elapsed().as_nanos() as u64;
                if let Some(m) = g.tracer().metrics() {
                    m.record_critical_section(critical_ns);
                }
                critical_ns
            };

            // 5. Commit point. The firing's global sequence number is
            //    taken while the transaction still holds every lock: a
            //    conflicting transaction is blocked until this one
            //    releases at commit, so its own fetch_add is strictly
            //    later — for conflicting transactions `seq` IS the
            //    serialization order, and a serial replay in `seq` order
            //    reproduces the run.
            let seq = commit_seq.fetch_add(1, Ordering::SeqCst);
            tracer.emit(|| Event::Firing {
                seq,
                round,
                txn: txn_id,
                rule: inst.rule.0 as u32,
                rule_name: rule.name.clone(),
                wmes: inst.wmes_display(&rules),
                support: inst.why.support_display(),
            });
            wm_writes = applied.len();
            // A failed commit-time WAL sync rolls the WM changes back;
            // the instantiation stays unfired and is retried if still
            // applicable, like any other failed transaction.
            if let Err(e) = txn.commit() {
                return TxnOutcome::Failed(e);
            }
            TxnOutcome::Committed {
                halt: rhs.halt,
                writes: rhs.writes,
                critical_ns,
                self_removed,
            }
        })();
        match &outcome {
            TxnOutcome::Committed { .. } => {
                tracer.emit(|| Event::TxnCommit {
                    txn: txn_id,
                    writes: wm_writes,
                });
                if let Some(m) = tracer.metrics() {
                    m.record_txn(true);
                }
            }
            TxnOutcome::Invalid => {
                tracer.emit(|| Event::TxnAbort {
                    txn: txn_id,
                    reason: "invalidated".to_string(),
                });
                if let Some(m) = tracer.metrics() {
                    m.record_txn(false);
                }
            }
            TxnOutcome::Deadlock => {
                tracer.emit(|| Event::TxnAbort {
                    txn: txn_id,
                    reason: "deadlock".to_string(),
                });
                if let Some(m) = tracer.metrics() {
                    m.record_txn(false);
                }
            }
            TxnOutcome::Failed(e) => {
                tracer.emit(|| Event::TxnAbort {
                    txn: txn_id,
                    reason: format!("error: {e}"),
                });
                if let Some(m) = tracer.metrics() {
                    m.record_txn(false);
                }
            }
        }
        outcome
    }

    /// Run rounds of parallel firing until quiescence, halt, or
    /// `max_fired` committed productions. With an installed
    /// [`ScheduleOracle`], replays the recorded schedule serially instead.
    pub fn run(&mut self, max_fired: usize) -> ConcurrentStats {
        if self.oracle.is_some() {
            return self.run_replay(max_fired);
        }
        let mut stats = ConcurrentStats::default();
        // Refraction memory as a counted multiset: duplicate WMEs yield
        // equal instantiations, each entitled to one firing.
        let mut fired: HashMap<Instantiation, usize> = HashMap::new();
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
        let tracer = self.engine.lock().tracer().clone();
        let pdb = self.engine.lock().pdb().clone();
        let db = pdb.db().clone();
        let base = db.stats().snapshot();
        let shard_base = db.lock_manager().shard_stats();
        while stats.committed < max_fired && !stats.halted {
            // Snapshot Ψ_i: conflict set minus already-fired (refraction).
            let mut candidates: Vec<Instantiation> = {
                let g = self.engine.lock();
                let mut remaining = fired.clone();
                let mut out = Vec::new();
                for inst in g.conflict_set().items() {
                    if let Some(n) = remaining.get_mut(inst) {
                        if *n > 0 {
                            *n -= 1;
                            continue;
                        }
                    }
                    out.push(inst.clone());
                }
                out
            };
            if candidates.is_empty() {
                break;
            }
            stats.retries += prune_deadlocked(&mut deadlocked, &candidates);
            let fingerprint = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                candidates.hash(&mut h);
                h.finish()
            };
            let repeated = last_fingerprint == Some(fingerprint);
            last_fingerprint = Some(fingerprint);
            // Never dispatch more work than the remaining firing budget:
            // every queued transaction may commit, and a full round used
            // to overshoot `max_fired` by up to a whole round's worth.
            candidates.truncate(max_fired - stats.committed);
            stats.rounds += 1;
            let round = stats.rounds as u64;
            let dispatched = candidates.len();
            let round_start = Instant::now();
            // Shard-affine dispatch: each candidate is queued on its home
            // lock shard (the shard of its first positive CE's class
            // relation), and worker `w` drains the queue of shard
            // `w % shards` first, so co-resident workers mostly touch
            // their own shard's lock table and condvar. Workers steal
            // from the other shards' queues once their own is empty —
            // the affinity is a fast path, not a partition: no work is
            // stranded on an unstaffed shard.
            let n_shards = db.lock_manager().shard_count();
            let mut by_shard: Vec<VecDeque<Instantiation>> =
                (0..n_shards).map(|_| VecDeque::new()).collect();
            for inst in candidates {
                let home = inst
                    .wmes
                    .first()
                    .map(|w| db.lock_manager().shard_of(pdb.class_rel(w.class)))
                    .unwrap_or(0);
                by_shard[home].push_back(inst);
            }
            let queues: Arc<Vec<Mutex<VecDeque<Instantiation>>>> =
                Arc::new(by_shard.into_iter().map(Mutex::new).collect());
            let results: Arc<Mutex<Vec<(Instantiation, TxnOutcome)>>> =
                Arc::new(Mutex::new(Vec::new()));
            // A committed `(halt)` stops further dispatch *within* the
            // round: transactions already started may finish (they hold
            // locks and must release cleanly), but queued ones stay
            // unexecuted.
            let halt_flag = Arc::new(AtomicBool::new(false));
            let batching = self.batching;
            let commit_seq = &self.next_seq;
            crossbeam::thread::scope(|scope| {
                for w in 0..self.workers {
                    let queues = queues.clone();
                    let results = results.clone();
                    let engine = self.engine.clone();
                    let halt_flag = halt_flag.clone();
                    let start_shard = w % n_shards;
                    scope.spawn(move |_| loop {
                        if halt_flag.load(Ordering::Relaxed) {
                            break;
                        }
                        // Home queue first, then steal round-robin.
                        let inst = (0..queues.len()).find_map(|off| {
                            queues[(start_shard + off) % queues.len()]
                                .lock()
                                .pop_front()
                        });
                        let Some(inst) = inst else {
                            break;
                        };
                        let outcome = Self::run_one(&engine, &inst, batching, round, commit_seq);
                        if let TxnOutcome::Committed { halt: true, .. } = &outcome {
                            halt_flag.store(true, Ordering::Relaxed);
                        }
                        results.lock().push((inst, outcome));
                    });
                }
            })
            .expect("worker scope");
            let results = Arc::try_unwrap(results)
                .expect("workers joined")
                .into_inner();
            let executed = results.len();
            let mut round_committed = 0usize;
            let mut round_critical = 0u64;
            for (inst, outcome) in results {
                match outcome {
                    TxnOutcome::Committed {
                        halt,
                        writes,
                        critical_ns,
                        self_removed,
                    } => {
                        stats.committed += 1;
                        stats.writes.extend(writes);
                        stats.halted |= halt;
                        round_committed += 1;
                        round_critical += critical_ns;
                        // Refraction charges a firing only while the fired
                        // copy is still *in* the conflict set. A
                        // self-consuming RHS (its own maintenance removed a
                        // copy of this instantiation) already retired the
                        // fired copy; any equal-content copies left behind
                        // come from duplicate WMEs and may still fire.
                        if !self_removed {
                            *fired.entry(inst).or_insert(0) += 1;
                        }
                    }
                    TxnOutcome::Invalid => {
                        stats.invalidated += 1;
                        // The maintenance process will have removed it
                        // from the conflict set; if not (it was valid when
                        // snapshotted), the next snapshot sees the truth.
                    }
                    TxnOutcome::Deadlock => {
                        stats.deadlock_aborts += 1;
                        // Retried next round if still applicable.
                        deadlocked.push(inst);
                    }
                    TxnOutcome::Failed(e) => {
                        stats.failed += 1;
                        stats.errors.push(e.to_string());
                        // The transaction rolled back; the instantiation is
                        // not marked fired, so the next snapshot retries it
                        // if it is still applicable.
                    }
                }
            }
            stats.critical_ns += round_critical;
            let span_ns = round_start.elapsed().as_nanos() as u64;
            tracer.emit(|| Event::RoundSpan {
                round: stats.rounds as u64,
                candidates: dispatched,
                committed: round_committed,
                aborted: executed - round_committed,
                critical_ns: round_critical,
                span_ns,
            });
            // Keep refraction memory consistent with the conflict set:
            // drop (or trim) entries whose instantiations left it.
            {
                let g = self.engine.lock();
                let cs = g.conflict_set();
                let mut cs_counts: HashMap<&Instantiation, usize> = HashMap::new();
                for inst in cs.items() {
                    *cs_counts.entry(inst).or_insert(0) += 1;
                }
                fired.retain(|inst, n| {
                    *n = (*n).min(cs_counts.get(inst).copied().unwrap_or(0));
                    *n > 0
                });
            }
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
        // Surface where the contention landed: per-shard wait deltas over
        // this run, journaled so traces show hot lock shards.
        for (i, (now, before)) in db
            .lock_manager()
            .shard_stats()
            .iter()
            .zip(&shard_base)
            .enumerate()
        {
            let waits = now.waits.saturating_sub(before.waits);
            let wait_ns = now.wait_ns.saturating_sub(before.wait_ns);
            if waits > 0 {
                stats.shard_contention.push((i as u32, waits, wait_ns));
                tracer.emit(|| Event::ShardContention {
                    shard: i as u32,
                    waits,
                    wait_ns,
                });
            }
        }
        stats
    }

    /// Deterministic replay: fire the oracle's recorded instantiations
    /// one at a time, in the recorded commit order. Each step snapshots
    /// the eligible candidates exactly like a live round, picks the one
    /// matching the oracle's head, and runs it through the same
    /// transaction path (`run_one`) — so locking, maintenance-before-
    /// commit, and refraction bookkeeping are identical; only the racing
    /// is gone. A step whose recorded instantiation is not eligible (or
    /// does not commit) stops the replay with
    /// [`ConcurrentStats::divergence`] set.
    fn run_replay(&mut self, max_fired: usize) -> ConcurrentStats {
        let mut stats = ConcurrentStats::default();
        let mut fired: HashMap<Instantiation, usize> = HashMap::new();
        let tracer = self.engine.lock().tracer().clone();
        let rules = self.engine.lock().pdb().rules().clone();
        let base = self.engine.lock().pdb().db().stats().snapshot();
        while stats.committed < max_fired && !stats.halted {
            let Some((want_rule, want_wmes)) = self.oracle.as_ref().and_then(|o| o.peek()).cloned()
            else {
                break; // schedule fully replayed
            };
            let candidates: Vec<Instantiation> = {
                let g = self.engine.lock();
                let mut remaining = fired.clone();
                let mut out = Vec::new();
                for inst in g.conflict_set().items() {
                    if let Some(n) = remaining.get_mut(inst) {
                        if *n > 0 {
                            *n -= 1;
                            continue;
                        }
                    }
                    out.push(inst.clone());
                }
                out
            };
            let Some(inst) = candidates.into_iter().find(|inst| {
                rules.rule(inst.rule).name == want_rule && inst.wmes_display(&rules) == want_wmes
            }) else {
                stats.divergence = Some(format!(
                    "replay diverged at firing {}: no eligible instantiation for {want_rule}: {want_wmes}",
                    stats.committed
                ));
                break;
            };
            stats.rounds += 1;
            let round = stats.rounds as u64;
            let round_start = Instant::now();
            let outcome = Self::run_one(&self.engine, &inst, self.batching, round, &self.next_seq);
            let mut round_committed = 0usize;
            let mut round_critical = 0u64;
            match outcome {
                TxnOutcome::Committed {
                    halt,
                    writes,
                    critical_ns,
                    self_removed,
                } => {
                    stats.committed += 1;
                    stats.writes.extend(writes);
                    stats.halted |= halt;
                    round_committed = 1;
                    round_critical = critical_ns;
                    stats.critical_ns += critical_ns;
                    if !self_removed {
                        *fired.entry(inst).or_insert(0) += 1;
                    }
                    self.oracle.as_mut().expect("oracle installed").advance();
                }
                TxnOutcome::Invalid => {
                    stats.invalidated += 1;
                    stats.divergence = Some(format!(
                        "replay diverged at firing {}: {want_rule}: {want_wmes} re-selected as invalid",
                        stats.committed
                    ));
                }
                TxnOutcome::Deadlock => {
                    // Impossible serially (one transaction at a time),
                    // but surfaced rather than swallowed if it happens.
                    stats.deadlock_aborts += 1;
                    stats.divergence = Some(format!(
                        "replay diverged at firing {}: {want_rule}: {want_wmes} hit a deadlock",
                        stats.committed
                    ));
                }
                TxnOutcome::Failed(e) => {
                    stats.failed += 1;
                    stats.errors.push(e.to_string());
                    stats.divergence = Some(format!(
                        "replay diverged at firing {}: {want_rule}: {want_wmes} failed: {e}",
                        stats.committed
                    ));
                }
            }
            let span_ns = round_start.elapsed().as_nanos() as u64;
            tracer.emit(|| Event::RoundSpan {
                round,
                candidates: 1,
                committed: round_committed,
                aborted: 1 - round_committed,
                critical_ns: round_critical,
                span_ns,
            });
            {
                let g = self.engine.lock();
                let cs = g.conflict_set();
                let mut cs_counts: HashMap<&Instantiation, usize> = HashMap::new();
                for inst in cs.items() {
                    *cs_counts.entry(inst).or_insert(0) += 1;
                }
                fired.retain(|inst, n| {
                    *n = (*n).min(cs_counts.get(inst).copied().unwrap_or(0));
                    *n > 0
                });
            }
            if stats.divergence.is_some() {
                break;
            }
        }
        let delta = self
            .engine
            .lock()
            .pdb()
            .db()
            .stats()
            .snapshot()
            .since(&base);
        stats.lock_waits = delta.lock_waits;
        stats.lock_wait_ns = delta.lock_wait_ns;
        stats
    }
}

/// Retire the previous round's deadlock victims against the current
/// candidate snapshot: victims still applicable count as retries (they
/// are about to re-execute); victims whose instantiation left the
/// conflict set are dropped. Either way the list is cleared — a victim
/// that deadlocks again this round re-enters it — so it can never grow
/// without bound on workloads where victims are invalidated by other
/// transactions instead of reappearing.
fn prune_deadlocked(deadlocked: &mut Vec<Instantiation>, candidates: &[Instantiation]) -> usize {
    let mut pool: HashMap<&Instantiation, usize> = HashMap::new();
    for c in candidates {
        *pool.entry(c).or_insert(0) += 1;
    }
    let mut retries = 0;
    for victim in deadlocked.drain(..) {
        if let Some(n) = pool.get_mut(&victim) {
            if *n > 0 {
                *n -= 1;
                retries += 1;
            }
        }
    }
    retries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{make_engine, EngineKind};
    use crate::pdb::ProductionDb;
    use ops5::ClassId;
    use relstore::tuple;

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
    /// in the victim list forever. Pruning runs against every candidate
    /// snapshot and clears the list each round.
    #[test]
    fn deadlock_victims_pruned_against_current_candidates() {
        let inst = |rule: usize, v: i64| rete::Instantiation {
            rule: ops5::RuleId(rule),
            wmes: vec![rete::Wme::new(ClassId(0), tuple![v])],
            why: rete::Provenance::default(),
        };
        // Victim 0 reappears in the candidates (a genuine retry); victim 1
        // was invalidated and must be dropped, not kept forever.
        let mut deadlocked = vec![inst(0, 1), inst(1, 2)];
        let candidates = vec![inst(0, 1), inst(2, 3)];
        let retries = prune_deadlocked(&mut deadlocked, &candidates);
        assert_eq!(retries, 1, "only the reappearing victim is a retry");
        assert!(deadlocked.is_empty(), "the victim list is always cleared");
        // Duplicate instantiations retire one victim each, not all at once.
        let mut deadlocked = vec![inst(0, 1), inst(0, 1)];
        let retries = prune_deadlocked(&mut deadlocked, &[inst(0, 1)]);
        assert_eq!(retries, 1, "multiset semantics: one candidate, one retry");
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

    /// Firing keys `(rule_name, wmes)` in commit order, from a ring of
    /// recorded events.
    fn firing_keys(events: &[Event]) -> Vec<(String, String)> {
        let mut firings: Vec<(u64, String, String)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Firing {
                    seq,
                    rule_name,
                    wmes,
                    ..
                } => Some((*seq, rule_name.clone(), wmes.clone())),
                _ => None,
            })
            .collect();
        firings.sort_by_key(|(seq, _, _)| *seq);
        firings.into_iter().map(|(_, r, w)| (r, w)).collect()
    }

    fn wm_snapshot(ex: &ConcurrentExecutor) -> Vec<(u32, String)> {
        let eng = ex.engine();
        let g = eng.lock();
        let mut out = Vec::new();
        for class in 0..g.pdb().class_count() {
            let cid = ClassId(class);
            for (_, t) in g.pdb().wm_scan(cid).unwrap() {
                out.push((class as u32, format!("{t:?}")));
            }
        }
        out.sort();
        out
    }

    /// Record a racy 4-worker run, then replay its commit schedule
    /// serially on a fresh executor: same firing sequence, same final WM.
    #[test]
    fn replay_reproduces_recorded_schedule() {
        let load = |ex: &mut ConcurrentExecutor| {
            let eng = ex.engine();
            let mut g = eng.lock();
            for i in 0..10i64 {
                g.insert(ClassId(0), tuple![i]);
            }
        };
        let mut rec = setup(COUNTER_RULES, EngineKind::Query);
        load(&mut rec);
        let tracer = obs::Tracer::new(obs::Sink::ring(65536));
        rec.set_tracer(tracer.clone());
        let rec_stats = rec.run(1000);
        assert_eq!(rec_stats.committed, 10);
        let keys = firing_keys(&tracer.ring_events().unwrap());
        assert_eq!(keys.len(), 10);

        let mut rep = setup(COUNTER_RULES, EngineKind::Query);
        load(&mut rep);
        let rep_tracer = obs::Tracer::new(obs::Sink::ring(65536));
        rep.set_tracer(rep_tracer.clone());
        rep.set_oracle(ScheduleOracle::new(keys.clone()));
        let rep_stats = rep.run(1000);
        assert_eq!(rep_stats.divergence, None);
        assert_eq!(rep_stats.committed, 10);
        assert_eq!(
            firing_keys(&rep_tracer.ring_events().unwrap()),
            keys,
            "replay reproduces the exact firing sequence"
        );
        assert_eq!(wm_snapshot(&rep), wm_snapshot(&rec), "final WM matches");
    }

    /// Replaying a schedule the current program cannot produce reports a
    /// divergence instead of panicking or spinning.
    #[test]
    fn replay_divergence_is_reported() {
        let mut ex = setup(COUNTER_RULES, EngineKind::Query);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            g.insert(ClassId(0), tuple![1]);
        }
        ex.set_oracle(ScheduleOracle::new(vec![(
            "Mark".into(),
            "no-such-wmes".into(),
        )]));
        let stats = ex.run(1000);
        assert_eq!(stats.committed, 0);
        let msg = stats.divergence.expect("divergence reported");
        assert!(msg.contains("no eligible instantiation"), "{msg}");
    }
}
