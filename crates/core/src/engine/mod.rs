//! The matching-engine abstraction and its five engines.
//!
//! | Engine | Paper section | Idea |
//! |---|---|---|
//! | [`ReteEngine`] | §3.1 | classic in-memory Rete |
//! | [`DbReteEngine`] | §3.2 | Rete with LEFT/RIGHT relations in the DBMS |
//! | [`QueryEngine`] | §4.1 | no intermediate storage; re-evaluate LHS queries |
//! | [`CondEngine`] | §4.2 | **matching patterns** in COND relations (the paper's contribution) |
//! | [`MarkerEngine`] | §2.3/§3.2 | POSTGRES-style rule markers on data, with false drops |
//!
//! [`ReteEngine`] and [`DbReteEngine`] are one implementation
//! ([`rete_engine::NetworkEngine`]) over two token memories, [`QueryEngine`]
//! and [`MarkerEngine`] one ([`reeval::ReevalEngine`]) under two
//! awakening policies. All five
//! consume the same insert/remove stream and must produce identical
//! conflict sets (equivalence- and property-tested at the workspace
//! level).

pub mod arena;
pub mod cond;
pub mod explain;
pub mod intern;
pub mod recompute;
pub mod reeval;
pub mod rete_engine;

pub use cond::CondEngine;
pub use explain::{plans_to_json, MatchPlan, OrderPolicy, PlanStep};
pub use reeval::{MarkerEngine, QueryEngine};
pub use rete_engine::{DbReteEngine, ReteEngine};

use std::time::Instant;

use obs::{Event, Tracer};
use ops5::ClassId;
use relstore::{Tuple, TupleId};
use rete::{ConflictDelta, ConflictSet};

use crate::exec::WmChange;
use crate::pdb::ProductionDb;

/// Space consumed by an engine's match-acceleration structures, separate
/// from working memory itself (the E2 metric).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Stored entries: tokens, patterns, markers, or index postings.
    pub match_entries: usize,
    /// Approximate bytes of those entries.
    pub match_bytes: usize,
    /// Live WM tuples (identical across engines, reported for context).
    pub wm_tuples: usize,
}

/// One working-memory change of a cycle's delta set, with the tuple id it
/// resolved to. §4.2's maintenance phase consumes these set-at-a-time.
#[derive(Debug, Clone)]
pub struct WmDelta {
    /// True for an insertion, false for a deletion.
    pub insert: bool,
    /// The WM class changed.
    pub class: ClassId,
    /// The tuple id the change resolved to.
    pub tid: TupleId,
    /// The tuple contents.
    pub tuple: Tuple,
}

/// A matching engine: maintains the conflict set under WM changes.
pub trait MatchEngine: Send {
    /// Short identifier used in experiment tables.
    fn name(&self) -> &'static str;

    /// Shared database/rules handle.
    fn pdb(&self) -> &ProductionDb;

    /// Match maintenance for a delta set already applied to working
    /// memory, in action order (§4.2: "the conflict set is updated first,
    /// and then the maintenance process follows" — here the WM is updated
    /// first, then matching runs once over the full delta). The one
    /// maintenance method every engine implements: a single change is a
    /// pass of one. Callers go through [`MatchEngine::insert`],
    /// [`MatchEngine::remove`] or [`MatchEngine::apply_delta`] (the §5
    /// executor through the same pass helper), so every pass is traced.
    fn maintain_delta(&mut self, deltas: &[WmDelta]) -> Vec<ConflictDelta>;

    /// [`MatchEngine::maintain_delta`] over one inserted tuple. No engine
    /// overrides it; kept, like `set_batching`, for the repo benchmark's
    /// engine wrapper.
    fn maintain_insert(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        self.maintain_delta(&[WmChange::Insert(class, tuple.clone()).resolved(tid)])
    }

    /// [`MatchEngine::maintain_delta`] over one deleted tuple; see
    /// [`MatchEngine::maintain_insert`].
    fn maintain_remove(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        self.maintain_delta(&[WmChange::Remove(class, tuple.clone()).resolved(tid)])
    }

    /// Insert a WM element: the relation, then a maintenance pass of one.
    fn insert(&mut self, class: ClassId, tuple: Tuple) -> Vec<ConflictDelta> {
        let tid = self
            .pdb()
            .insert_wm(class, tuple.clone())
            .expect("wm insert");
        maintenance_pass(self, &[WmChange::Insert(class, tuple).resolved(tid)])
    }

    /// Remove one WM element equal to `tuple`; no-op when absent (no pass
    /// runs and nothing is traced).
    fn remove(&mut self, class: ClassId, tuple: &Tuple) -> Vec<ConflictDelta> {
        match self.pdb().remove_wm_equal(class, tuple).expect("wm remove") {
            Some(tid) => maintenance_pass(
                self,
                &[WmChange::Remove(class, tuple.clone()).resolved(tid)],
            ),
            None => Vec::new(),
        }
    }

    /// Apply a cycle's WM changes (in action order) and then run one
    /// set-oriented maintenance pass over the resulting delta set.
    /// Removals that find no tuple are dropped, exactly as
    /// [`MatchEngine::remove`] drops them ([`crate::exec::apply_changes`]).
    fn apply_delta(&mut self, changes: &[WmChange]) -> Vec<ConflictDelta> {
        let resolved = crate::exec::apply_changes(self.pdb(), changes);
        maintenance_pass(self, &resolved)
    }

    /// No-op that no engine overrides: every engine is set-oriented (§4.2
    /// delta batching, planner-chosen joins) and has no other mode. Kept
    /// on the trait only because the repo benchmark's engine wrapper
    /// forwards it.
    fn set_batching(&mut self, _on: bool) {}

    /// Toggle the σ-binding hash index over matching patterns where the
    /// engine keeps one (the COND engine). Default: no-op. `false` is the
    /// full-scan reference the access-path equivalence tests compare
    /// against.
    fn set_pattern_index(&mut self, _on: bool) {}

    /// `(probes, patterns_examined)` counters of the matching-pattern
    /// store, when the engine keeps one. `None` for engines without a
    /// pattern store.
    fn pattern_io(&self) -> Option<(u64, u64)> {
        None
    }

    /// The current conflict set.
    fn conflict_set(&self) -> &ConflictSet;

    /// Match-structure space.
    fn space(&self) -> SpaceStats;

    /// Rules awakened that turned out not to be affected (§2.3: "the
    /// system may awaken a trigger even when it should not (false
    /// drops)"). Only the marker engine produces these.
    fn false_drops(&self) -> u64 {
        0
    }

    /// Should [`bootstrap`] replay working memory into this engine after
    /// [`ProductionDb::attach`]? Always: no engine's match state is logged
    /// or snapshotted (DB-Rete's LEFT/RIGHT relations are derived), so
    /// [`bootstrap`] no longer asks. Kept only because `benchmark/`'s
    /// engine wrapper implements it.
    fn needs_bootstrap(&self) -> bool {
        true
    }

    /// EXPLAIN: the per-rule match plans this engine's strategy implies,
    /// profiled against the current working memory. The default reports
    /// the statistics-driven planner order; engines that freeze the plan
    /// at compile time (the Rete family, COND patterns) override with
    /// [`OrderPolicy::Textual`].
    fn match_plan(&self) -> Vec<MatchPlan> {
        explain::match_plans(self.pdb(), self.name(), OrderPolicy::Planner)
    }

    /// Nanoseconds of the last maintenance pass spent before the conflict
    /// set was fully updated, and total nanoseconds, when the engine
    /// distinguishes the two phases (§4.2.3: "the conflict set is updated
    /// first, and then the maintenance process follows").
    fn last_detect_split(&self) -> Option<(u64, u64)> {
        None
    }

    /// The engine's tracing handle. Disabled by default; every
    /// maintenance pass consults it, so the accessor must stay trivially
    /// cheap.
    fn tracer(&self) -> &Tracer;

    /// Install a tracing handle (shared with the executor and the lock
    /// manager by the system facade).
    fn set_tracer(&mut self, tracer: Tracer);
}

/// One maintenance pass: [`MatchEngine::maintain_delta`] over `resolved`,
/// changes already applied to WM in action order. Every pass runs through
/// here — the default `insert`, `remove` and `apply_delta`, and the §5
/// executor's pre-commit step — so when a tracer is installed each pass,
/// on every engine, emits its WM change events, its conflict-set deltas
/// in canonical order and one [`Event::BatchApplied`] summary (its time,
/// detect/maintain split and pattern-store I/O), which the tracer folds
/// into its metrics.
pub(crate) fn maintenance_pass<E: MatchEngine + ?Sized>(
    engine: &mut E,
    resolved: &[WmDelta],
) -> Vec<ConflictDelta> {
    if !engine.tracer().enabled() {
        return engine.maintain_delta(resolved);
    }
    let io_before = engine.pattern_io().unwrap_or_default();
    let start = Instant::now();
    let deltas = engine.maintain_delta(resolved);
    let total_ns = start.elapsed().as_nanos() as u64;
    let io_after = engine.pattern_io().unwrap_or_default();
    let tracer = engine.tracer();
    let rules = engine.pdb().rules();
    for d in resolved {
        let class_name = &rules.class(d.class).name;
        tracer.emit(|| {
            if d.insert {
                Event::WmInsert {
                    class: d.class.0 as u32,
                    class_name: class_name.clone(),
                    tuple: d.tuple.to_string(),
                    tid: d.tid.pack(),
                }
            } else {
                Event::WmRemove {
                    class: d.class.0 as u32,
                    class_name: class_name.clone(),
                    tuple: d.tuple.to_string(),
                    tid: d.tid.pack(),
                }
            }
        });
    }
    let rules_awakened = emit_conflict_deltas(tracer, rules, &deltas);
    let inserts = resolved.iter().filter(|d| d.insert).count();
    tracer.emit(|| Event::BatchApplied {
        engine: engine.name(),
        inserts,
        deletes: resolved.len() - inserts,
        rules_awakened,
        total_ns,
        detect_ns: engine.last_detect_split().map_or(0, |(detect, _)| detect),
        pattern_probes: io_after.0 - io_before.0,
        pattern_scanned: io_after.1 - io_before.1,
    });
    deltas
}

/// Emit the canonically ordered conflict-set delta events (removes first,
/// then adds, each sorted) so the streams of different engines line up.
/// Returns the number of distinct rules the deltas touched.
fn emit_conflict_deltas(tracer: &Tracer, rules: &ops5::RuleSet, deltas: &[ConflictDelta]) -> usize {
    let mut ordered: Vec<&ConflictDelta> = deltas.iter().collect();
    ordered.sort_by(|a, b| {
        a.is_add()
            .cmp(&b.is_add())
            .then_with(|| a.instantiation().cmp(b.instantiation()))
    });
    let mut awakened = std::collections::BTreeSet::new();
    for delta in ordered {
        let inst = delta.instantiation();
        awakened.insert(inst.rule.0);
        let rule_name = &rules.rule(inst.rule).name;
        tracer.emit(|| Event::ConflictDelta {
            add: delta.is_add(),
            rule: inst.rule.0 as u32,
            rule_name: rule_name.clone(),
            wmes: inst.wmes_display(rules),
            support: inst.support_display(),
            absent: inst.absent_display(rules),
        });
    }
    awakened.len()
}

/// Which engine to instantiate (experiment configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Classic in-memory Rete (3.1).
    Rete,
    /// Rete with LEFT/RIGHT relations in the DBMS (3.2).
    DbRete,
    /// Re-evaluate LHS queries (4.1).
    Query,
    /// Matching patterns in COND relations (4.2).
    Cond,
    /// POSTGRES-style rule markers (2.3).
    Marker,
}

impl EngineKind {
    /// Every engine, in a stable experiment order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Rete,
        EngineKind::DbRete,
        EngineKind::Query,
        EngineKind::Cond,
        EngineKind::Marker,
    ];

    /// Short name used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Rete => "rete",
            EngineKind::DbRete => "db-rete",
            EngineKind::Query => "query",
            EngineKind::Cond => "cond",
            EngineKind::Marker => "marker",
        }
    }
}

/// Replay the existing working memory through an engine's maintenance
/// path, rebuilding match structures and the conflict set. Used after
/// attaching to a restored database ([`ProductionDb::attach`]).
///
/// The restored WM is replayed as *one* set-oriented delta batch (§4.2)
/// rather than tuple at a time, so engines with a batch strategy rebuild
/// at batch cost and the whole replay produces a single maintenance pass.
pub fn bootstrap(engine: &mut dyn MatchEngine) {
    let pdb = engine.pdb().clone();
    let mut batch = Vec::new();
    for c in 0..pdb.class_count() {
        let class = ClassId(c);
        for (tid, tuple) in pdb.wm_scan(class).expect("wm scan") {
            batch.push(WmDelta {
                insert: true,
                class,
                tid,
                tuple,
            });
        }
    }
    engine.maintain_delta(&batch);
}

/// Instantiate an engine over a shared [`ProductionDb`].
pub fn make_engine(kind: EngineKind, pdb: ProductionDb) -> Box<dyn MatchEngine> {
    match kind {
        EngineKind::Rete => Box::new(ReteEngine::new(pdb)),
        EngineKind::DbRete => Box::new(DbReteEngine::new(pdb)),
        EngineKind::Query => Box::new(QueryEngine::new(pdb)),
        EngineKind::Cond => Box::new(CondEngine::new(pdb)),
        EngineKind::Marker => Box::new(MarkerEngine::new(pdb)),
    }
}
