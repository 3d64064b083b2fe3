//! The one differential driver. Pattern matching is a conjunctive query,
//! so `eval_rule` — every LHS evaluated from scratch by nested loops — is
//! a complete oracle for every engine after every change.
//!
//! A [`Case`] runs on six lanes (Rete, DB-Rete, query, COND, COND with a
//! scanned pattern store, markers), in memory and (if the case says so)
//! paged behind a two-frame pool, per change (`insert`/`remove`) and in
//! `apply_delta` batches. After every step each sorted conflict set must
//! equal the oracle, the conflict-set deltas each lane returned must take
//! its previous conflict set to the new one, and both CONDs must hold as
//! many patterns (after the trace: the same patterns, supporter by
//! supporter); a bounce must leave `match_entries` as it found them.
//! After the trace every lane runs the case's strategy to its cycle cap and must
//! reach the same outcome and working memory; deleting every WME must
//! then empty each conflict set and return `match_entries` to its value
//! on the empty WM.
//!
//! On failure [`check`] delta-debugs the op trace and then the rule list
//! and panics with the shrunk program and ops, ready to paste into a
//! named regression.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ops5::{RuleId, RuleSet};
use prodsys::engine::recompute::eval_rule;
use prodsys::{make_engine, CondEngine, EngineKind, Instantiation, MatchEngine, ProductionDb};
use prodsys::{ConflictDelta, RunOutcome, SequentialExecutor, WmChange};
use relstore::{Database, Tuple};

use super::grammar::{Bias, Case, Op};
use super::wm_all;

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
    let ops: Vec<String> = shrunk
        .ops
        .iter()
        .map(|op| format!("{:?}", op.to_string()))
        .collect();
    panic!(
        "differential case (seed {:?}) failed: {err}\n\
         shrunk (width {}, cycles {}, paged {}): {}\n{}&[{}]",
        case.seed,
        shrunk.width,
        shrunk.cycles,
        shrunk.paged,
        outcome(&shrunk).err().unwrap_or_default(),
        shrunk.src,
        ops.join(", "),
    );
}

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

fn fails(case: &Case) -> bool {
    outcome(case).is_err()
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
    Ok(agreed.swap_remove(0))
}

/// A paged database's directory, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
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
    _dirs: Vec<Scratch>,
}

impl Run {
    fn new(rules: &RuleSet, paged: bool) -> Run {
        static DIRS: AtomicUsize = AtomicUsize::new(0);
        let mut dirs = Vec::new();
        let mut pdb = || {
            let db = if paged {
                let n = DIRS.fetch_add(1, Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("differential-{}-{n}", std::process::id()));
                dirs.push(Scratch(dir.clone()));
                Database::new_paged(&dir, 2).expect("paged database")
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
            _dirs: dirs,
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
        for (i, op) in case.ops.iter().enumerate().filter(|_| width == 1) {
            let before = self.entries();
            for change in op.changes() {
                self.step(&[change], false)
                    .map_err(|e| format!("op {i} `{op}`: {e}"))?;
            }
            let after = self.entries();
            if let (Op::Bounce(..), Some(l)) = (op, (0..6).find(|&l| after[l] != before[l])) {
                let (label, was, is) = (LANES[l].0, before[l], after[l]);
                return Err(format!(
                    "op {i} `{op}`: the bounce took {label} from {was} match entries to {is}"
                ));
            }
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
        for change in changes {
            match change {
                WmChange::Insert(c, t) => drop(self.oracle.insert_wm(*c, t.clone())),
                WmChange::Remove(c, t) => drop(self.oracle.remove_wm_equal(*c, t)),
            }
        }
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
            if replay(label, &before, &deltas, single)? != expected {
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
            runs.push((label, (out, wm_all(engine.as_ref()))));
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
        self.oracle = ProductionDb::new(self.oracle.rules().clone()).expect("oracle database");
        for (c, rows) in agreed.1.iter().enumerate() {
            rows.iter()
                .for_each(|t| drop(self.oracle.insert_wm(ops5::ClassId(c), t.clone())));
        }
        Ok(agreed)
    }
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

/// `before` with `deltas` applied in order, sorted. A retract must find
/// its instantiation, and no engine may add and retract one
/// instantiation inside one change.
fn replay(
    label: &str,
    before: &[Instantiation],
    deltas: &[ConflictDelta],
    single: bool,
) -> Result<Vec<Instantiation>, String> {
    let mut set = BTreeMap::<&Instantiation, usize>::new();
    before.iter().for_each(|i| *set.entry(i).or_default() += 1);
    let mut first = BTreeMap::new();
    for delta in deltas {
        let (inst, add) = (delta.instantiation(), delta.is_add());
        match set.entry(inst).or_default() {
            n if add => *n += 1,
            0 => return Err(format!("{label} retracted {inst:?}, not in its set")),
            n => *n -= 1,
        }
        if single && *first.entry(inst).or_insert(add) != add {
            return Err(format!(
                "{label} both added and retracted {inst:?} in one change"
            ));
        }
    }
    let rows = set
        .into_iter()
        .flat_map(|(i, n)| std::iter::repeat_n(i.clone(), n));
    Ok(rows.collect())
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
