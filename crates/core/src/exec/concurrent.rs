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
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use obs::Event;
use ops5::ClassId;
use parking_lot::Mutex;

use relstore::{Error, Restriction, Selection, Tuple, TupleId};
use rete::Instantiation;

use crate::engine::{trace_batch, MatchEngine, WmDelta};
use crate::exec::{eval_rhs, positive_positions, Refraction, WmChange};
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
}

/// What a committed transaction reports back to the round.
#[derive(Debug)]
struct Committed {
    halt: bool,
    writes: Vec<String>,
    /// Nanoseconds the transaction held the engine critical section.
    critical_ns: u64,
    /// The transaction deleted one of its own positive-support tuples, so
    /// the maintenance process retires a conflict-set copy of the fired
    /// instantiation and refraction must not charge it a firing:
    /// duplicate WMEs leave equal-content copies behind that are still
    /// entitled to fire. This is judged from the transaction's *applied*
    /// RHS, not from its maintenance delta — under concurrency the copy's
    /// removal can surface in a racing transaction's maintenance pass
    /// (storage deltas are visible to other workers' recompute passes
    /// before commit), so delta attribution misses.
    self_removed: bool,
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

    /// How a replay that hit this abort words its divergence. A deadlock
    /// is impossible serially (one transaction at a time), but surfaced
    /// rather than swallowed if it happens.
    fn divergence(&self) -> String {
        match self {
            Abort::Invalid => "re-selected as invalid".to_string(),
            Abort::Deadlock => "hit a deadlock".to_string(),
            Abort::Failed(e) => format!("failed: {e}"),
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
        if let Some(m) = tracer.metrics() {
            m.record_txn(outcome.is_ok());
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
        let pos_of = positive_positions(rule);
        let txn_id = txn.id().0;

        // 1. Re-select the matched tuples by content, with read locks.
        //    Duplicate WMEs need distinct tuple ids *within a class*
        //    (tuple ids are per-relation, so equal ids of different
        //    classes are unrelated rows). The matched WMEs (one per
        //    positive CE) are grouped by class and each class is
        //    re-selected in one batched pass (one read, one lock sweep,
        //    one liveness re-read) instead of a select per CE.
        let mut claimed: Vec<(usize, ClassId, TupleId)> = Vec::new(); // (positive pos, class, tid)
        let mut by_class: Vec<(ClassId, Vec<usize>)> = Vec::new(); // positions per class
        for (pos, wme) in inst.wmes.iter().enumerate() {
            match by_class.iter_mut().find(|(c, _)| *c == wme.class) {
                Some((_, poses)) => poses.push(pos),
                None => by_class.push((wme.class, vec![pos])),
            }
        }
        for (class, poses) in by_class {
            let keys: Vec<Tuple> = poses.iter().map(|&p| inst.wmes[p].tuple.clone()).collect();
            let groups = txn.select_eq_batch(pdb.class_rel(class), &keys)?;
            for (&pos, rows) in poses.iter().zip(&groups) {
                let free = rows
                    .iter()
                    .find(|(tid, _)| !claimed.iter().any(|(_, c, t)| *c == class && t == tid));
                match free {
                    Some((tid, _)) => claimed.push((pos, class, *tid)),
                    None => return Err(Abort::Invalid),
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
            let restriction = Restriction::new(tests).with_attr_tests(ce.alpha.attr_tests.clone());
            if !txn.verify_absent(pdb.class_rel(ce.class), &restriction)? {
                return Err(Abort::Invalid);
            }
        }

        // 3. Apply the RHS under exclusive locks, remembering what
        //    actually happened for the maintenance phase.
        let rhs = eval_rhs(rules, inst);
        let mut applied: Vec<WmDelta> = Vec::new();
        for change in &rhs.changes {
            match change {
                WmChange::Remove(class, tuple) => {
                    // Prefer the claimed (LHS-matched) row of this content;
                    // a `modify`-generated intermediate takes any row.
                    let rel = pdb.class_rel(*class);
                    let matched = claimed
                        .iter()
                        .find(|(pos, cl, _)| cl == class && &inst.wmes[*pos].tuple == tuple);
                    let tid = match matched {
                        Some((_, _, tid)) => *tid,
                        None => {
                            let rows = txn.select_eq_batch(rel, std::slice::from_ref(tuple))?;
                            match rows[0].first() {
                                Some((tid, _)) => *tid,
                                None => continue,
                            }
                        }
                    };
                    // "T_j will not be able to process tuples of R_i that
                    // have already been deleted" — consistent.
                    if txn.delete(rel, tid)?.is_some() {
                        applied.push(change.resolved(tid));
                    }
                }
                WmChange::Insert(class, tuple) => {
                    let tid = txn.insert(pdb.class_rel(*class), tuple.clone())?;
                    applied.push(change.resolved(tid));
                }
            }
        }
        // Whether this firing consumed its own support: an applied delete
        // whose content matches one of the instantiation's positive WMEs
        // retires a conflict-set copy of it (see `Committed::self_removed`
        // for why this is not read off the maintenance delta).
        let self_removed = applied.iter().any(|d| {
            !d.insert
                && inst
                    .wmes
                    .iter()
                    .any(|w| w.class == d.class && w.tuple == d.tuple)
        });

        // 4. Maintenance BEFORE commit: the transaction still holds
        //    every lock while the match structures (COND relations)
        //    are updated — one set-oriented `maintain_delta` pass over
        //    the transaction's whole delta set (§4.2 × §5.2), inside
        //    the engine critical section.
        let critical_ns = {
            let mut g = self.engine.lock();
            obs::prof_span!("exec.critical");
            let held = Instant::now();
            let deltas = g.maintain_delta(&applied);
            if tracer.enabled() {
                trace_batch(&**g, &applied, &deltas, held.elapsed().as_nanos() as u64);
            }
            let critical_ns = held.elapsed().as_nanos() as u64;
            if let Some(m) = tracer.metrics() {
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
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        tracer.emit(|| Event::Firing {
            seq,
            round,
            txn: txn_id,
            rule: inst.rule.0 as u32,
            rule_name: rule.name.clone(),
            wmes: inst.wmes_display(rules),
            support: inst.why.support_display(),
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
            self_removed,
        })
    }

    /// Execute one round's candidates: raced over the worker threads, or
    /// — replaying a [`ScheduleOracle`] step — on the calling thread.
    ///
    /// Shard-affine dispatch: each candidate is queued on its home lock
    /// shard (the shard of its first positive CE's class relation), and
    /// worker `w` drains the queue of shard `w % shards` first, so
    /// co-resident workers mostly touch their own shard's lock table and
    /// condvar. Workers steal from the other shards' queues once their
    /// own is empty — the affinity is a fast path, not a partition: no
    /// work is stranded on an unstaffed shard.
    ///
    /// A committed `(halt)` stops further dispatch *within* the round:
    /// transactions already started may finish (they hold locks and must
    /// release cleanly), but queued ones stay unexecuted.
    fn dispatch(
        &self,
        pdb: &ProductionDb,
        candidates: Vec<Instantiation>,
        round: u64,
    ) -> Vec<(Instantiation, TxnOutcome)> {
        let locks = pdb.db().lock_manager();
        let mut by_shard: Vec<VecDeque<Instantiation>> =
            (0..locks.shard_count()).map(|_| VecDeque::new()).collect();
        for inst in candidates {
            let home = inst
                .wmes
                .first()
                .map_or(0, |w| locks.shard_of(pdb.class_rel(w.class)));
            by_shard[home].push_back(inst);
        }
        let queues: Vec<Mutex<VecDeque<Instantiation>>> =
            by_shard.into_iter().map(Mutex::new).collect();
        let results = Mutex::new(Vec::new());
        let halted = AtomicBool::new(false);
        let work = |w: usize| {
            while !halted.load(Ordering::Relaxed) {
                // Home queue first, then steal round-robin.
                let next = (0..queues.len())
                    .find_map(|off| queues[(w + off) % queues.len()].lock().pop_front());
                let Some(inst) = next else {
                    break;
                };
                let outcome = self.run_one(&inst, round);
                if matches!(&outcome, Ok(done) if done.halt) {
                    halted.store(true, Ordering::Relaxed);
                }
                results.lock().push((inst, outcome));
            }
        };
        if self.oracle.is_some() {
            work(0);
        } else {
            crossbeam::thread::scope(|scope| {
                for w in 0..self.workers {
                    let work = &work;
                    scope.spawn(move |_| work(w));
                }
            })
            .expect("worker scope");
        }
        results.into_inner()
    }

    /// Run rounds of firing until quiescence, halt, or `max_fired`
    /// committed productions. A round either races every eligible
    /// candidate over the worker queues or — with an installed
    /// [`ScheduleOracle`] — runs the oracle's next recorded instantiation
    /// on the calling thread; selection, dispatch, the transaction path
    /// (`run_one`), accounting and refraction are the same either way,
    /// only the racing is gone. A replay step whose recorded
    /// instantiation is not eligible (or does not commit) stops the run
    /// with [`ConcurrentStats::divergence`] set.
    pub fn run(&mut self, max_fired: usize) -> ConcurrentStats {
        let mut stats = ConcurrentStats::default();
        // Reconciled from the conflict set's state after every round
        // ([`Refraction::trim_to`]).
        let mut refraction = Refraction::default();
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
            (g.pdb().clone(), g.tracer().clone())
        };
        let db = pdb.db();
        let base = db.stats().snapshot();
        let shard_base = db.lock_manager().shard_stats();
        while stats.committed < max_fired && !stats.halted {
            // Snapshot Ψ_i: conflict set minus already-fired (refraction),
            // narrowed to the recorded step when replaying.
            let step = match &self.oracle {
                Some(oracle) => match oracle.steps.get(oracle.pos) {
                    Some(step) => Some(step.clone()),
                    None => break, // schedule fully replayed
                },
                None => None,
            };
            let (candidates, fingerprint, retries) = {
                let g = self.engine.lock();
                let mut eligible: Vec<&Instantiation> =
                    refraction.eligible(g.conflict_set()).collect();
                if let Some((rule, wmes)) = &step {
                    let rules = pdb.rules();
                    let recorded = eligible.into_iter().find(|inst| {
                        rules.rule(inst.rule).name == *rule && inst.wmes_display(rules) == *wmes
                    });
                    if recorded.is_none() {
                        stats.divergence = Some(format!(
                            "replay diverged at firing {}: no eligible instantiation for {rule}: {wmes}",
                            stats.committed
                        ));
                    }
                    eligible = recorded.into_iter().collect();
                }
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
            let results = self.dispatch(&pdb, candidates, round);
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
                        // Refraction charges a firing only while the fired
                        // copy is still *in* the conflict set. A
                        // self-consuming RHS already retired the fired
                        // copy; any equal-content copies left behind come
                        // from duplicate WMEs and may still fire.
                        if !done.self_removed {
                            refraction.record(inst);
                        }
                        if let Some(oracle) = &mut self.oracle {
                            oracle.pos += 1;
                        }
                    }
                    Err(abort) => {
                        if let Some((rule, wmes)) = &step {
                            stats.divergence = Some(format!(
                                "replay diverged at firing {}: {rule}: {wmes} {}",
                                stats.committed,
                                abort.divergence()
                            ));
                        }
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
            refraction.trim_to(self.engine.lock().conflict_set());
            if stats.divergence.is_some() {
                break;
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
        let shard_now = db.lock_manager().shard_stats();
        for (i, (now, before)) in shard_now.iter().zip(&shard_base).enumerate() {
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
    eligible.hash(&mut h);
    let candidates: Vec<Instantiation> = eligible.iter().take(budget).copied().cloned().collect();
    // The common round has no victims: count the candidates only for them.
    let mut pool: HashMap<&Instantiation, usize> = HashMap::new();
    if !deadlocked.is_empty() {
        for c in &candidates {
            *pool.entry(c).or_insert(0) += 1;
        }
    }
    let mut retries = 0;
    for victim in deadlocked.drain(..) {
        if let Some(n) = pool.get_mut(&victim).filter(|n| **n > 0) {
            *n -= 1;
            retries += 1;
        }
    }
    (candidates, h.finish(), retries)
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
    /// in the victim list forever. Victims are retired against every
    /// round's candidates and the list is cleared each round.
    #[test]
    fn deadlock_victims_retired_against_current_candidates() {
        let inst = |rule: usize, v: i64| rete::Instantiation {
            rule: ops5::RuleId(rule),
            wmes: vec![rete::Wme::new(ClassId(0), tuple![v])],
            why: rete::Provenance::default(),
        };
        // Victim 0 reappears in the candidates (a genuine retry); victim 1
        // was invalidated and must be dropped, not kept forever.
        let mut deadlocked = vec![inst(0, 1), inst(1, 2)];
        let (a, b) = (inst(0, 1), inst(2, 3));
        let (candidates, _, retries) = snapshot_round(&[&a, &b], 10, &mut deadlocked);
        assert_eq!(candidates, vec![a.clone(), b]);
        assert_eq!(retries, 1, "only the reappearing victim is a retry");
        assert!(deadlocked.is_empty(), "the victim list is always cleared");
        // Duplicate instantiations retire one victim each, not all at once.
        let mut deadlocked = vec![inst(0, 1), inst(0, 1)];
        let (_, _, retries) = snapshot_round(&[&a], 10, &mut deadlocked);
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
        // An oracle-steered run goes through the same accounting as a
        // live one: one round per recorded firing, nothing raced.
        assert_eq!(rep_stats.rounds, rep_stats.committed);
        assert_eq!(rep_stats.retries + rep_stats.deadlock_aborts, 0);
        assert_eq!((rep_stats.invalidated, rep_stats.failed), (0, 0));
        assert!(rep_stats.critical_ns > 0);
        assert_eq!(rep_stats.lock_waits, 0, "serial: no lock ever blocks");
        assert!(rep_stats.shard_contention.is_empty());
        let spans: Vec<_> = rep_tracer
            .ring_events()
            .unwrap()
            .into_iter()
            .filter_map(|e| match e {
                Event::RoundSpan {
                    candidates,
                    committed,
                    aborted,
                    ..
                } => Some((candidates, committed, aborted)),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec![(1, 1, 0); 10], "one round span per firing");
        assert_eq!(
            firing_keys(&rep_tracer.ring_events().unwrap()),
            keys,
            "replay reproduces the exact firing sequence"
        );
        assert_eq!(wm_snapshot(&rep), wm_snapshot(&rec), "final WM matches");
    }

    /// Replaying a schedule the current program cannot produce reports a
    /// divergence instead of panicking or spinning: the recorded
    /// instantiation is not eligible, re-selects as invalid, or fails.
    #[test]
    fn replay_divergence_is_reported() {
        let replay = |wmes: &str, sabotage: &dyn Fn(&ProductionDb)| {
            let mut ex = setup(COUNTER_RULES, EngineKind::Query);
            let pdb = {
                let eng = ex.engine();
                let mut g = eng.lock();
                g.insert(ClassId(0), tuple![1]);
                g.pdb().clone()
            };
            sabotage(&pdb);
            ex.set_oracle(ScheduleOracle::new(vec![("Mark".into(), wmes.into())]));
            let stats = ex.run(1000);
            assert_eq!(stats.committed, 0);
            stats
        };

        let stats = replay("no-such-wmes", &|_| {});
        assert_eq!(
            stats.divergence.as_deref(),
            Some("replay diverged at firing 0: no eligible instantiation for Mark: no-such-wmes")
        );
        assert_eq!(stats.rounds, 0, "nothing was dispatched");

        // The tuple vanishes from storage behind the engine's back: still
        // in the conflict set, gone when the transaction re-selects it.
        let stats = replay("Item(1)", &|pdb| {
            pdb.remove_wm_equal(ClassId(0), &tuple![1]).unwrap();
        });
        assert_eq!(
            stats.divergence.as_deref(),
            Some("replay diverged at firing 0: Mark: Item(1) re-selected as invalid")
        );
        assert_eq!((stats.rounds, stats.invalidated), (1, 1));

        let stats = replay("Item(1)", &|pdb| pdb.db().inject_fault_after(0));
        let msg = stats.divergence.expect("divergence reported");
        assert!(
            msg.starts_with("replay diverged at firing 0: Mark: Item(1) failed: "),
            "{msg}"
        );
        assert_eq!((stats.rounds, stats.failed), (1, 1));
        assert_eq!(stats.errors.len(), 1);
    }

    /// Refraction under duplicate WMEs when a third party removes one
    /// copy after the other fired. The concurrent executor reconciles
    /// from the conflict set's *state* ([`Refraction::trim_to`]): the
    /// charge stays on the surviving copy, which does not fire again.
    /// (The sequential executor releases the charge instead; see
    /// `third_party_remove_releases_refraction` there.)
    #[test]
    fn third_party_remove_keeps_refraction_charge() {
        let src = r#"
            (literalize A x)
            (literalize K x)
            (literalize Log x)
            (p Note (A ^x <V>) --> (make Log ^x <V>))
            (p Kill (K ^x <V>) (A ^x <V>) --> (remove 1) (remove 2))
        "#;
        let mut ex = setup(src, EngineKind::Rete);
        {
            let eng = ex.engine();
            let mut g = eng.lock();
            g.insert(ClassId(0), tuple![1]);
            g.insert(ClassId(0), tuple![1]);
            g.insert(ClassId(1), tuple![1]);
            assert_eq!(g.conflict_set().len(), 4, "two Note and two Kill copies");
        }
        // Note fires on one copy, Kill then removes one A(1) (and its own
        // K(1)); the recorded third step asks for the surviving copy.
        let step = |rule: &str, wmes: &str| (rule.to_string(), wmes.to_string());
        ex.set_oracle(ScheduleOracle::new(vec![
            step("Note", "A(1)"),
            step("Kill", "K(1) A(1)"),
            step("Note", "A(1)"),
        ]));
        let stats = ex.run(100);
        assert_eq!(stats.committed, 2);
        assert_eq!(
            stats.divergence.as_deref(),
            Some("replay diverged at firing 2: no eligible instantiation for Note: A(1)")
        );
        let eng = ex.engine();
        let g = eng.lock();
        assert_eq!(g.conflict_set().len(), 1, "the surviving Note copy");
        assert_eq!(g.pdb().wm_len(ClassId(0)), 1);
        assert_eq!(g.pdb().wm_len(ClassId(2)), 1, "Note fired once");
    }
}
