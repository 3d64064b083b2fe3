//! The one differential driver. Pattern matching is a conjunctive query,
//! so `eval_rule` — every LHS evaluated from scratch by nested loops — is
//! a complete oracle for every engine after every change.
//!
//! A [`Case`] runs on six lanes (Rete, DB-Rete, query, COND, COND with a
//! scanned pattern store, markers), in memory and (if the case says so)
//! paged behind a two-frame pool, per change (`insert`/`remove`) and in
//! `apply_delta` batches. After every step each sorted conflict set must
//! equal the oracle's by contents, and `eval_rule` on the lane's own
//! database by identity (rule and support ids); the conflict-set deltas
//! each lane returned must take its previous conflict set to the new one,
//! key by key, and both CONDs must hold as
//! many patterns (after the trace: the same patterns, supporter by
//! supporter); a bounce must leave `match_entries` as it found them.
//! After the trace every lane runs the case's strategy to its cycle cap and must
//! reach the same outcome and working memory; deleting every WME must
//! then empty each conflict set and return `match_entries` to its value
//! on the empty WM.
//!
//! Two axes ride on every case:
//! - **crash** (paged cases): the query lane's log is synced after every
//!   change and checkpointed once, before an op of the trace's second
//!   half that the seed picks; the log cut at each later op's end, and
//!   one byte inside its last frame, must recover the oracle's WM of
//!   that committed prefix, and every engine bootstrapped over it must
//!   hold `eval_rule`'s conflict set;
//! - **§5**: every engine, in memory, from the post-trace WM, under a
//!   `ConcurrentExecutor` of 2–4 workers to the cycle cap. Its final
//!   conflict set must be the oracle's; its firings, in commit (`seq`)
//!   order, must each be a match of the serial WM reached so far and
//!   their RHSs must end at the live WM; a run that stopped below its cap
//!   without a halt may leave only instantiations it fired (by rule and
//!   support ids); and no lock and no failed transaction may be left over.
//!
//! On failure [`check`] delta-debugs the op trace and then the rule list
//! and panics with the shrunk program and ops, ready to paste into a
//! named regression. A §5 failure is a race, so while shrinking one a
//! candidate counts as failing if any of three runs fails, and a shrunk
//! case that no longer fails is reported unshrunk.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use ops5::{ClassId, RuleId, RuleSet};
use prodsys::engine::recompute::eval_rule;
use prodsys::exec::{apply_changes, eval_rhs};
use prodsys::WmChange;
use prodsys::{bootstrap, make_engine, CondEngine, EngineKind, Instantiation, MatchEngine};
use prodsys::{ConcurrentExecutor, ConflictDelta, ProductionDb, RunOutcome, SequentialExecutor};
use relstore::{Database, Tuple, TupleId};

use super::grammar::{Bias, Case, Op};
use super::{wm_all, Scratch};

/// Generated cases per block: blocks `0..11` cover seeds `0..154`.
pub const BLOCK: u64 = 14;

/// What every lane agreed on: the run's outcome and final working memory.
pub type Agreed = (RunOutcome, Vec<Vec<Tuple>>);

/// Generate and check the grammar's cases for block `k` of the seeds,
/// leaning towards `bias`.
pub fn sweep_block(k: u64, bias: Bias) {
    for seed in k * BLOCK..(k + 1) * BLOCK {
        check(&Case::generate(seed, bias));
    }
}

/// Run `case` through the driver; on failure shrink it and panic.
pub fn check(case: &Case) -> Agreed {
    let err = match outcome(case) {
        Ok(agreed) => return agreed,
        Err(err) => err,
    };
    // A §5 failure may not repeat: a candidate fails if any of three runs
    // does.
    let runs = if err.starts_with(CONCURRENT) { 3 } else { 1 };
    let fails = |case: &Case| (0..runs).any(|_| outcome(case).is_err());
    let with_ops = |case: &Case, ops| Case {
        ops,
        ..case.clone()
    };
    let mut shrunk = with_ops(
        case,
        ddmin(case.ops.clone(), |ops| fails(&with_ops(case, ops))),
    );
    let rules = ops5::compile(&case.src).expect("case compiles");
    let with_rules = |case: &Case, kept| Case {
        src: source(&rules, kept),
        ..case.clone()
    };
    let kept = ddmin(rules.rules.clone(), |kept| {
        fails(&with_rules(&shrunk, kept))
    });
    shrunk = with_rules(&shrunk, kept);
    shrunk = with_ops(
        &shrunk,
        ddmin(shrunk.ops.clone(), |ops| fails(&with_ops(&shrunk, ops))),
    );
    let shrunk_err = (0..runs).find_map(|_| outcome(&shrunk).err());
    let (shown, shown_err, what) = match shrunk_err {
        Some(e) => (&shrunk, e, "shrunk"),
        None => (case, err.clone(), "unshrunk (the shrunk case passed)"),
    };
    let ops: Vec<String> = (shown.ops.iter())
        .map(|op| format!("{:?}", op.to_string()))
        .collect();
    panic!(
        "differential case (seed {:?}) failed: {err}\n\
         {what} (width {}, cycles {}, paged {}): {shown_err}\n{}&[{}]",
        case.seed,
        shown.width,
        shown.cycles,
        shown.paged,
        shown.src,
        ops.join(", "),
    );
}

/// How an error of the §5 axis begins.
const CONCURRENT: &str = "§5: ";

/// `rules` with only the rules `kept`, printed by `ops5`'s printer.
fn source(rules: &RuleSet, mut kept: Vec<ops5::Rule>) -> String {
    kept.iter_mut()
        .enumerate()
        .for_each(|(i, rule)| rule.id = RuleId(i));
    ops5::print(&RuleSet {
        classes: rules.classes.clone(),
        rules: kept,
    })
}

/// [`run`], with an engine panic reported as a failure.
fn outcome(case: &Case) -> Result<Agreed, String> {
    catch_unwind(AssertUnwindSafe(|| run(case))).unwrap_or_else(|panic| {
        let msg = panic.downcast_ref::<String>().cloned();
        let msg = msg.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panic: {}", msg.unwrap_or_default()))
    })
}

/// Delta debugging: drop ever smaller chunks of `items` while `fails`
/// still holds.
fn ddmin<T: Clone>(mut items: Vec<T>, fails: impl Fn(Vec<T>) -> bool) -> Vec<T> {
    let mut n = 2;
    while !items.is_empty() {
        let chunk = items.len().div_ceil(n);
        let mut without = (0..items.len()).step_by(chunk).map(|start| {
            let end = (start + chunk).min(items.len());
            [&items[..start], &items[end..]].concat()
        });
        match without.find(|rest| fails(rest.clone())) {
            Some(rest) => (items, n) = (rest, (n - 1).max(2)),
            None if chunk == 1 => break,
            None => n = (2 * n).min(items.len()),
        }
    }
    items
}

/// The lanes: every engine, COND twice.
const LANES: [(&str, EngineKind); 6] = [
    ("rete", EngineKind::Rete),
    ("db-rete", EngineKind::DbRete),
    ("query", EngineKind::Query),
    ("cond", EngineKind::Cond),
    ("cond-scan", EngineKind::Cond),
    ("marker", EngineKind::Marker),
];

fn run(case: &Case) -> Result<Agreed, String> {
    let rules = ops5::compile(&case.src).map_err(|e| format!("compile: {e}"))?;
    let mut agreed = Vec::new();
    for paged in [false, true]
        .into_iter()
        .filter(|&paged| !paged || case.paged)
    {
        for width in [1, case.width] {
            let axis = format!("{}, width {width}", ["memory", "paged"][paged as usize]);
            let result = Run::new(&rules, paged).drive(case, width);
            agreed.push(result.map_err(|e| format!("{axis}: {e}"))?);
        }
    }
    concurrent(case, &rules).map_err(|e| format!("{CONCURRENT}{e}"))?;
    Ok(agreed.swap_remove(0))
}

/// One lane's engine: COND stays concrete for its pattern store until
/// the run hands every engine to an executor.
enum Engine {
    Boxed(Box<dyn MatchEngine>),
    Cond(Box<CondEngine>),
}

impl Engine {
    fn get(&mut self) -> &mut dyn MatchEngine {
        match self {
            Engine::Boxed(e) => e.as_mut(),
            Engine::Cond(e) => e.as_mut(),
        }
    }

    fn view(&self) -> &dyn MatchEngine {
        match self {
            Engine::Boxed(e) => e.as_ref(),
            Engine::Cond(e) => e.as_ref(),
        }
    }
}

/// Every lane on one storage, plus the oracle's own in-memory WM.
struct Run {
    lanes: Vec<Engine>,
    oracle: ProductionDb,
    /// Each lane's `match_entries` on the empty WM.
    empty: Vec<usize>,
    /// Each lane's database directory when paged, in lane order.
    dirs: Vec<Scratch>,
}

/// The lane whose database the crash axis syncs, checkpoints and cuts.
const CRASH_LANE: usize = 2;

/// The crash axis's marks: per change after the checkpoint, the synced
/// log's length and the oracle's WM at that point.
type Marks = Vec<(u64, Vec<Vec<Tuple>>)>;

impl Run {
    fn new(rules: &RuleSet, paged: bool) -> Run {
        let mut dirs = Vec::new();
        let mut pdb = || {
            let db = if paged {
                let dir = Scratch::new("lane");
                let db = Database::new_paged(&dir.0, 2).expect("paged database");
                dirs.push(dir);
                db
            } else {
                Database::new()
            };
            ProductionDb::with_db(Arc::new(db), rules.clone()).expect("production database")
        };
        let mut lanes = Vec::new();
        for (label, kind) in LANES {
            lanes.push(match kind {
                EngineKind::Cond => {
                    let mut cond = CondEngine::new(pdb());
                    cond.set_pattern_index(label == "cond");
                    Engine::Cond(Box::new(cond))
                }
                kind => Engine::Boxed(make_engine(kind, pdb())),
            });
        }
        Run {
            empty: lanes
                .iter()
                .map(|l| l.view().space().match_entries)
                .collect(),
            lanes,
            oracle: ProductionDb::new(rules.clone()).expect("oracle database"),
            dirs,
        }
    }

    /// The trace one op at a time (`width` 1) or in batches of `width`
    /// changes, the run, then the deletion of every WME.
    fn drive(mut self, case: &Case, width: usize) -> Result<Agreed, String> {
        if width > 1 {
            let changes: Vec<WmChange> = case.ops.iter().flat_map(Op::changes).collect();
            for (i, batch) in changes.chunks(width).enumerate() {
                self.step(batch, true)
                    .map_err(|e| format!("batch {i}: {e}"))?;
            }
        }
        // The op before which the crash axis checkpoints: one in the
        // trace's second half, so at most half the ops are cut points.
        let half = case.ops.len() / 2;
        let crash = (width == 1 && !self.dirs.is_empty() && !case.ops.is_empty()).then(|| {
            half + case
                .seed
                .map_or(0, |s| s as usize % (case.ops.len() - half))
        });
        let (mut marks, mut ends) = (Marks::new(), Vec::new());
        for (i, op) in case.ops.iter().enumerate().filter(|_| width == 1) {
            let at = |e| format!("op {i} `{op}`: {e}");
            if crash == Some(i) {
                let db = self.lanes[CRASH_LANE].view().pdb().db();
                db.checkpoint()
                    .map_err(|e| at(format!("checkpoint: {e}")))?;
                self.mark(&mut marks).map_err(at)?;
            }
            let before = self.entries();
            for change in op.changes() {
                self.step(&[change], false).map_err(at)?;
                if crash.is_some_and(|c| i >= c) {
                    self.mark(&mut marks).map_err(at)?;
                }
            }
            ends.extend(marks.last().map(|m| m.0));
            let after = self.entries();
            if let (Op::Bounce(..), Some(l)) = (op, (0..6).find(|&l| after[l] != before[l])) {
                let (label, was, is) = (LANES[l].0, before[l], after[l]);
                return Err(format!(
                    "op {i} `{op}`: the bounce took {label} from {was} match entries to {is}"
                ));
            }
        }
        if crash.is_some() {
            ends.dedup();
            self.recover(&marks, &ends)
                .map_err(|e| format!("crash axis: {e}"))?;
        }
        if let (Engine::Cond(cond), Engine::Cond(scan)) = (&self.lanes[3], &self.lanes[4]) {
            // Printing both stores costs more than the rest of a step, so
            // they are compared whole once, after the trace.
            if cond.support_snapshot() != scan.support_snapshot() {
                return Err("cond and cond-scan hold different patterns".to_string());
            }
        }
        let agreed = self.execute(case)?;
        let live: Vec<WmChange> = (agreed.1.iter().enumerate())
            .flat_map(|(c, rows)| rows.iter().map(move |t| Op::Remove(c, t.clone())))
            .flat_map(|op| op.changes())
            .collect();
        for batch in live.chunks(width) {
            self.step(batch, width > 1)
                .map_err(|e| format!("deleting all: {e}"))?;
        }
        let entries: Vec<usize> = self
            .lanes
            .iter()
            .map(|l| l.view().space().match_entries)
            .collect();
        match (0..6).find(|&l| entries[l] != self.empty[l]) {
            Some(l) => Err(format!(
                "{}: {} match entries on the emptied WM, {} on the empty one",
                LANES[l].0, entries[l], self.empty[l]
            )),
            None => Ok(agreed),
        }
    }

    /// Sync the crash lane's log and mark its length with the oracle's WM.
    fn mark(&self, marks: &mut Marks) -> Result<(), String> {
        self.lanes[CRASH_LANE]
            .view()
            .pdb()
            .db()
            .sync_wal()
            .map_err(text)?;
        let log = std::fs::metadata(self.dirs[CRASH_LANE].0.join("wal.log"));
        marks.push((log.map_err(text)?.len(), wm_all(&self.oracle)));
        Ok(())
    }

    /// Recover the crash lane's checkpoint and its log cut at each of
    /// `ends` and one byte inside its last frame.
    fn recover(&self, marks: &Marks, ends: &[u64]) -> Result<(), String> {
        let dir = &self.dirs[CRASH_LANE].0;
        let read = |f: &str| std::fs::read(dir.join(f)).map_err(text);
        let (snap, log) = (read("checkpoint.snap")?, read("wal.log")?);
        let last = marks.last().map_or(0, |m| m.0);
        let torn = (last > marks[0].0).then(|| last - 1);
        for cut in ends.iter().copied().chain(torn) {
            let (_, want) = (marks.iter().rev())
                .find(|(len, _)| *len <= cut)
                .expect("the checkpoint's mark");
            self.recover_cut(&snap, &log[..cut as usize], want)
                .map_err(|e| format!("log cut at byte {cut} of {last}: {e}"))?;
        }
        Ok(())
    }

    /// Open the checkpoint `snap` and the log `log` as a crashed
    /// database: its WM must be `want`, and every engine bootstrapped
    /// over it must hold the oracle's conflict set.
    fn recover_cut(&self, snap: &[u8], log: &[u8], want: &[Vec<Tuple>]) -> Result<(), String> {
        let copy = Scratch::new("cut");
        std::fs::create_dir_all(&copy.0).map_err(text)?;
        std::fs::write(copy.0.join("checkpoint.snap"), snap).map_err(text)?;
        std::fs::write(copy.0.join("wal.log"), log).map_err(text)?;
        let (db, _) = Database::open_paged(&copy.0, 2).map_err(text)?;
        let pdb = ProductionDb::attach(Arc::new(db), self.oracle.rules().clone()).map_err(text)?;
        let got = wm_all(&pdb);
        if got != want {
            return Err(format!("recovered {got:?}, committed {want:?}"));
        }
        let expected = oracle(&pdb);
        for kind in EngineKind::ALL {
            let mut engine = make_engine(kind, pdb.clone());
            bootstrap(engine.as_mut());
            compare(kind.label(), engine.as_ref(), &expected)?;
        }
        Ok(())
    }

    /// Per lane, `match_entries` as far as a bounce must restore it: not
    /// COND's, whose pattern derived from the bounced tuple outlives it
    /// while a supporter it inherited is live.
    fn entries(&self) -> Vec<usize> {
        let entries = |l: &Engine| match l {
            Engine::Boxed(e) => e.space().match_entries,
            Engine::Cond(_) => 0,
        };
        self.lanes.iter().map(entries).collect()
    }

    /// Deliver `changes` to every lane and the oracle, then compare.
    fn step(&mut self, changes: &[WmChange], batched: bool) -> Result<(), String> {
        let single = !batched && changes.len() == 1;
        changes
            .iter()
            .for_each(|change| apply(&self.oracle, change));
        let expected = oracle(&self.oracle);
        for (lane, (label, _)) in self.lanes.iter_mut().zip(LANES) {
            let engine = lane.get();
            let before = engine.conflict_set().sorted();
            let deltas = match changes {
                [WmChange::Insert(c, t)] if single => engine.insert(*c, t.clone()),
                [WmChange::Remove(c, t)] if single => engine.remove(*c, t),
                _ => engine.apply_delta(changes),
            };
            compare(label, engine, &expected)?;
            let own = keyed(oracle(engine.pdb()));
            if keyed(engine.conflict_set().sorted()) != own {
                return Err(format!(
                    "{label}'s conflict set is not eval_rule's on its database by support ids"
                ));
            }
            if replay(label, &before, &deltas, single)? != own {
                return Err(format!(
                    "{label}'s returned deltas do not lead to its conflict set"
                ));
            }
        }
        let (Engine::Cond(cond), Engine::Cond(scan)) = (&self.lanes[3], &self.lanes[4]) else {
            return Ok(());
        };
        if cond.space().match_entries != scan.space().match_entries {
            return Err("cond and cond-scan hold different numbers of patterns".to_string());
        }
        let examined = |e: &CondEngine| e.pattern_io().map_or(0, |(_, scanned)| scanned);
        match examined(cond) <= examined(scan) {
            true => Ok(()),
            false => Err("cond examined more patterns than cond-scan".to_string()),
        }
    }

    /// Run every lane to the case's cycle cap under its strategy;
    /// outcomes, working memories and the oracle must agree.
    fn execute(&mut self, case: &Case) -> Result<Agreed, String> {
        let mut runs: Vec<(&str, Agreed)> = Vec::new();
        for (lane, (label, _)) in std::mem::take(&mut self.lanes).into_iter().zip(LANES) {
            let engine: Box<dyn MatchEngine> = match lane {
                Engine::Boxed(e) => e,
                Engine::Cond(e) => e,
            };
            let mut exec = SequentialExecutor::new(engine, case.strategy.clone());
            let out = exec.run(case.cycles);
            let engine = exec.into_engine();
            compare(label, engine.as_ref(), &oracle(engine.pdb()))?;
            runs.push((label, (out, wm_all(engine.pdb()))));
            self.lanes.push(Engine::Boxed(engine));
        }
        if let Some((label, run)) = runs.iter().find(|(_, run)| *run != runs[0].1) {
            return Err(format!(
                "{label} ran to {run:?}, {} to {:?}",
                runs[0].0, runs[0].1
            ));
        }
        // The oracle's WM follows the lanes' into the deletions.
        let agreed = runs.swap_remove(0).1;
        self.oracle = holding(self.oracle.rules(), &agreed.1);
        Ok(agreed)
    }
}

/// The §5 axis: every engine, in memory, loaded with the case's trace
/// and run by a `ConcurrentExecutor` of 2–4 workers to the cycle cap.
fn concurrent(case: &Case, rules: &RuleSet) -> Result<(), String> {
    let workers = 2 + case.seed.unwrap_or(1) as usize % 3;
    let changes: Vec<WmChange> = case.ops.iter().flat_map(Op::changes).collect();
    for kind in EngineKind::ALL {
        let fail = |e| format!("{}, {workers} workers: {e}", kind.label());
        let pdb = ProductionDb::new(rules.clone()).expect("wm relations");
        let mut engine = make_engine(kind, pdb.clone());
        engine.apply_delta(&changes);
        let start = wm_all(&pdb);
        let tracer = obs::Tracer::new(obs::Sink::ring(1 << 16));
        let mut exec = ConcurrentExecutor::new(engine, workers);
        exec.set_tracer(tracer.clone());
        let stats = exec.run(case.cycles);
        let held = pdb.db().lock_manager().held_count();
        if held > 0 || stats.failed > 0 {
            let errors = &stats.errors;
            return Err(fail(format!("{held} locks held, failed {errors:?}")));
        }
        let shared = exec.engine();
        let engine = shared.lock();
        compare(kind.label(), engine.as_ref(), &oracle(&pdb)).map_err(fail)?;
        let mut fired: Vec<(u64, String, String, String)> =
            (tracer.ring_events().unwrap().into_iter())
                .filter_map(|event| match event {
                    obs::Event::Firing {
                        seq,
                        rule_name,
                        wmes,
                        support,
                        ..
                    } => Some((seq, rule_name, wmes, support)),
                    _ => None,
                })
                .collect();
        fired.sort();
        if fired.len() != stats.committed {
            let n = fired.len();
            return Err(fail(format!(
                "{n} firings traced, {} committed",
                stats.committed
            )));
        }
        let keys: Vec<(String, String)> = (fired.iter())
            .map(|(_, r, w, _)| (r.clone(), w.clone()))
            .collect();
        witness(rules, &start, &keys, &wm_all(&pdb)).map_err(fail)?;
        if stats.halted || stats.committed == case.cycles {
            continue;
        }
        for inst in engine.conflict_set().sorted() {
            let rule = &rules.rule(inst.rule).name;
            let support = inst.support_display();
            if !(fired.iter()).any(|(_, r, _, s)| r == rule && *s == support) {
                let wmes = inst.wmes_display(rules);
                return Err(fail(format!(
                    "stopped with {rule}: {wmes} [{support}] unfired"
                )));
            }
        }
    }
    Ok(())
}

/// The serial run a concurrent one must equal: the `fired` (rule,
/// WMEs) keys in commit order, from `start`, each a match of the serial
/// WM reached so far, whose RHSs end at `end`.
fn witness(
    rules: &RuleSet,
    start: &[Vec<Tuple>],
    fired: &[(String, String)],
    end: &[Vec<Tuple>],
) -> Result<(), String> {
    let serial = holding(rules, start);
    for (k, (name, wmes)) in fired.iter().enumerate() {
        let rule = (rules.rules.iter()).find(|r| r.name == *name);
        let rule = rule.expect("a fired rule is a rule");
        let inst = (eval_rule(&serial, rule).into_iter())
            .map(|m| m.instantiation(rule))
            .find(|inst| inst.wmes_display(rules) == *wmes)
            .ok_or_else(|| format!("firing {k}, {name}: {wmes}, is no match in serial order"))?;
        apply_changes(&serial, &eval_rhs(rules, &inst).changes);
    }
    match wm_all(&serial) {
        wm if wm == end => Ok(()),
        wm => Err(format!(
            "the firings serially end at {wm:?}, the run at {end:?}"
        )),
    }
}

/// An in-memory production database holding `wm`.
fn holding(rules: &RuleSet, wm: &[Vec<Tuple>]) -> ProductionDb {
    let pdb = ProductionDb::new(rules.clone()).expect("oracle database");
    for (c, rows) in wm.iter().enumerate() {
        rows.iter()
            .for_each(|t| drop(pdb.insert_wm(ClassId(c), t.clone())));
    }
    pdb
}

/// Apply one WM change to `pdb`, as the executors do.
fn apply(pdb: &ProductionDb, change: &WmChange) {
    apply_changes(pdb, std::slice::from_ref(change));
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Every rule's matches, evaluated from scratch, sorted.
fn oracle(pdb: &ProductionDb) -> Vec<Instantiation> {
    let rules = pdb.rules();
    let mut all: Vec<_> = (rules.rules.iter())
        .flat_map(|r| eval_rule(pdb, r).into_iter().map(|m| m.instantiation(r)))
        .collect();
    all.sort();
    all
}

/// An instantiation's identity with its contents: rule, support ids,
/// WMEs.
type Keyed = (RuleId, Vec<TupleId>, Instantiation);

/// `set` by identity, sorted.
fn keyed(set: Vec<Instantiation>) -> Vec<Keyed> {
    let mut rows: Vec<Keyed> = (set.into_iter())
        .map(|i| (i.rule, i.support.to_vec(), i))
        .collect();
    rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    rows
}

/// `before` with `deltas` applied in order, by identity. A retract must
/// find its key, an add must not, and no engine may add and retract one
/// key inside one change.
fn replay(
    label: &str,
    before: &[Instantiation],
    deltas: &[ConflictDelta],
    single: bool,
) -> Result<Vec<Keyed>, String> {
    let key = |i: &Instantiation| (i.rule, i.support.to_vec());
    let mut set: BTreeMap<_, Instantiation> =
        (before.iter()).map(|i| (key(i), i.clone())).collect();
    let mut first = BTreeMap::new();
    for delta in deltas {
        let (inst, add) = (delta.instantiation(), delta.is_add());
        let present = match add {
            true => set.insert(key(inst), inst.clone()).is_some(),
            false => set.remove(&key(inst)).is_none(),
        };
        if present {
            let what = ["retracted", "added"][add as usize];
            let state = ["not in", "already in"][add as usize];
            return Err(format!("{label} {what} {inst:?}, {state} its set"));
        }
        if single && *first.entry(key(inst)).or_insert(add) != add {
            return Err(format!(
                "{label} both added and retracted {inst:?} in one change"
            ));
        }
    }
    Ok(keyed(set.into_values().collect()))
}

fn compare(
    label: &str,
    engine: &dyn MatchEngine,
    expected: &[Instantiation],
) -> Result<(), String> {
    let mut extra = engine.conflict_set().sorted();
    if extra == expected {
        return Ok(());
    }
    let mut missing = Vec::new();
    for inst in expected {
        match extra.iter().position(|got| got == inst) {
            Some(at) => drop(extra.remove(at)),
            None => missing.push(inst.clone()),
        }
    }
    let rules = engine.pdb().rules();
    let show = |set: Vec<Instantiation>| -> Vec<String> {
        let show =
            |i: Instantiation| format!("{} {}", rules.rule(i.rule).name, i.wmes_display(rules));
        set.into_iter().map(show).collect()
    };
    Err(format!(
        "{label} has {:?} beyond the oracle and lacks {:?}",
        show(extra),
        show(missing)
    ))
}

/// Each engine, traced, over `case`'s trace in batches of `width`: every
/// engine must trace one maintenance pass per batch, and the passes must
/// agree across engines. `exact` compares each pass's ordered stream of
/// conflict-delta events (removes before adds, then instantiation order:
/// the tracer's canonical order); otherwise only each pass's net effect,
/// for a set-oriented pass over a batch cancels an add and a retract of
/// one instantiation that Rete, change by change, emits in two changes.
/// Returns the number of passes with conflict-delta events.
pub fn traced_deltas_agree(case: &Case, width: usize, exact: bool) -> usize {
    let rules = ops5::compile(&case.src).expect("case compiles");
    let changes: Vec<WmChange> = case.ops.iter().flat_map(Op::changes).collect();
    let mut streams = Vec::new();
    for kind in EngineKind::ALL {
        let mut engine = make_engine(kind, ProductionDb::new(rules.clone()).unwrap());
        let tracer = obs::Tracer::new(obs::Sink::ring(1_000_000));
        engine.set_tracer(tracer.clone());
        changes
            .chunks(width)
            .for_each(|batch| drop(engine.apply_delta(batch)));
        let (mut passes, mut events, mut net) = (Vec::new(), Vec::new(), BTreeMap::new());
        for event in tracer.ring_events().unwrap() {
            match event {
                obs::Event::ConflictDelta {
                    add,
                    rule_name,
                    wmes,
                    ..
                } => {
                    let key = format!("{rule_name} {wmes}");
                    events.push(format!("{} {key}", if add { '+' } else { '-' }));
                    *net.entry(key).or_insert(0i64) += if add { 1 } else { -1 };
                }
                obs::Event::BatchApplied {
                    inserts, deletes, ..
                } => {
                    let net = std::mem::take(&mut net)
                        .into_iter()
                        .filter(|(_, n)| *n != 0);
                    let mut pass: Vec<String> = match exact {
                        true => std::mem::take(&mut events),
                        false => net.map(|(k, n)| format!("{n:+} {k}")).collect(),
                    };
                    events.clear();
                    pass.push(format!("wm +{inserts}/-{deletes}"));
                    passes.push(pass);
                }
                _ => {}
            }
        }
        assert_eq!(
            passes.len(),
            changes.chunks(width).count(),
            "{}: one traced pass per batch",
            kind.label()
        );
        streams.push((kind.label(), passes));
    }
    let (base_label, base) = &streams[0];
    for (label, passes) in &streams[1..] {
        if let Some(i) = (0..base.len()).find(|&i| base[i] != passes[i]) {
            let (a, b) = (&base[i], &passes[i]);
            panic!(
                "traced pass {i} of seed {:?}: {base_label} {a:?}, {label} {b:?}\n{}",
                case.seed, case.src
            );
        }
    }
    base.iter().filter(|pass| pass.len() > 1).count()
}
