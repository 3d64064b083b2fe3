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

    /// Match maintenance for a tuple already inserted into its WM
    /// relation (the §5 concurrent executor updates WM transactionally
    /// and then runs maintenance before commit).
    fn maintain_insert(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta>;

    /// Match maintenance for a tuple already deleted from its WM relation.
    fn maintain_remove(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta>;

    /// Insert a WM element (relation + maintenance). When a tracer is
    /// installed, the WM change, the match-maintenance timing, and every
    /// conflict-set delta are emitted from here — one code path for all
    /// five engines, so their delta event streams are directly comparable.
    fn insert(&mut self, class: ClassId, tuple: Tuple) -> Vec<ConflictDelta> {
        let tid = self
            .pdb()
            .insert_wm(class, tuple.clone())
            .expect("wm insert");
        let start = self.tracer().enabled().then(Instant::now);
        let deltas = self.maintain_insert(class, tid, &tuple);
        if let Some(start) = start {
            let total_ns = start.elapsed().as_nanos() as u64;
            trace_wm_change(self, class, true, tid, &tuple, &deltas, total_ns);
        }
        deltas
    }

    /// Remove one WM element equal to `tuple`; no-op when absent.
    fn remove(&mut self, class: ClassId, tuple: &Tuple) -> Vec<ConflictDelta> {
        match self.pdb().remove_wm_equal(class, tuple).expect("wm remove") {
            Some(tid) => {
                let start = self.tracer().enabled().then(Instant::now);
                let deltas = self.maintain_remove(class, tid, tuple);
                if let Some(start) = start {
                    let total_ns = start.elapsed().as_nanos() as u64;
                    trace_wm_change(self, class, false, tid, tuple, &deltas, total_ns);
                }
                deltas
            }
            None => Vec::new(),
        }
    }

    /// Match maintenance for a whole cycle's delta set, applied after all
    /// the WM changes are in place (§4.2: "the conflict set is updated
    /// first, and then the maintenance process follows" — here the WM is
    /// updated first, then matching runs once over the full delta). The
    /// default processes changes one at a time; set-oriented engines
    /// override it to evaluate each affected (rule, seeded-term) pair in
    /// one batched pass.
    fn maintain_delta(&mut self, deltas: &[WmDelta]) -> Vec<ConflictDelta> {
        let mut out = Vec::new();
        for d in deltas {
            if d.insert {
                out.extend(self.maintain_insert(d.class, d.tid, &d.tuple));
            } else {
                out.extend(self.maintain_remove(d.class, d.tid, &d.tuple));
            }
        }
        out
    }

    /// Apply a cycle's WM changes (in action order) and then run one
    /// set-oriented maintenance pass over the resulting delta set. Removes
    /// of absent tuples are dropped, exactly as [`MatchEngine::remove`]
    /// drops them. When a tracer is installed, the batch emits the WM
    /// change events, the canonically ordered conflict-set deltas for the
    /// whole batch, and one [`Event::BatchApplied`] summary — batched runs
    /// trace without falling back to per-change maintenance.
    fn apply_delta(&mut self, changes: &[WmChange]) -> Vec<ConflictDelta> {
        let mut resolved: Vec<WmDelta> = Vec::with_capacity(changes.len());
        for change in changes {
            let tid = match change {
                WmChange::Insert(class, tuple) => Some(
                    self.pdb()
                        .insert_wm(*class, tuple.clone())
                        .expect("wm insert"),
                ),
                WmChange::Remove(class, tuple) => self
                    .pdb()
                    .remove_wm_equal(*class, tuple)
                    .expect("wm remove"),
            };
            if let Some(tid) = tid {
                resolved.push(change.resolved(tid));
            }
        }
        let start = self.tracer().enabled().then(Instant::now);
        let deltas = self.maintain_delta(&resolved);
        if let Some(start) = start {
            let total_ns = start.elapsed().as_nanos() as u64;
            trace_batch(self, &resolved, &deltas, total_ns);
        }
        deltas
    }

    /// Toggle set-oriented (batched, hash-join) evaluation where the
    /// engine supports it. Default: no-op — the engine keeps its only
    /// strategy. Used by benchmarks to pin the nested-loop baseline.
    fn set_batching(&mut self, _on: bool) {}

    /// Toggle the σ-binding hash index over matching patterns where the
    /// engine keeps one (the COND engine). Default: no-op. Benchmarks pin
    /// `false` to reproduce the historical full-scan baseline.
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
    /// [`ProductionDb::attach`]? Engines whose match state is itself
    /// DB-resident (and therefore restored by the snapshot) return false.
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

    /// Nanoseconds of the last operation spent before the conflict set
    /// was fully updated, and total nanoseconds, when the engine
    /// distinguishes the two phases (§4.2.3: "the conflict set is updated
    /// first, and then the maintenance process follows").
    fn last_detect_split(&self) -> Option<(u64, u64)> {
        None
    }

    /// The engine's tracing handle. Disabled by default; the default
    /// `insert`/`remove` wrappers consult it on every WM change, so the
    /// accessor must stay trivially cheap.
    fn tracer(&self) -> &Tracer;

    /// Install a tracing handle (shared with the executor and the lock
    /// manager by the system facade).
    fn set_tracer(&mut self, tracer: Tracer);
}

/// Emit the trace events and metrics for one completed WM change. Shared
/// by the default `insert`/`remove` wrappers and the §5 concurrent
/// executor's maintenance step, so every engine produces the same event
/// stream for the same conflict-set changes.
pub(crate) fn trace_wm_change<E: MatchEngine + ?Sized>(
    engine: &E,
    class: ClassId,
    insert: bool,
    tid: TupleId,
    tuple: &Tuple,
    deltas: &[ConflictDelta],
    total_ns: u64,
) {
    let tracer = engine.tracer();
    let rules = engine.pdb().rules();
    let class_name = &rules.class(class).name;
    let (detect_ns, split_total_ns) = engine.last_detect_split().unwrap_or((0, 0));
    // Engines that do not time their phases still contribute the wall
    // time measured by the wrapper.
    let detect_ns = if split_total_ns == 0 { 0 } else { detect_ns };
    tracer.emit(|| {
        if insert {
            Event::WmInsert {
                class: class.0 as u32,
                class_name: class_name.clone(),
                tuple: tuple.to_string(),
                tid: tid.pack(),
            }
        } else {
            Event::WmRemove {
                class: class.0 as u32,
                class_name: class_name.clone(),
                tuple: tuple.to_string(),
                tid: tid.pack(),
            }
        }
    });
    emit_conflict_deltas(tracer, rules, deltas);
    let (adds, removes) =
        deltas.iter().fold(
            (0, 0),
            |(a, r), d| {
                if d.is_add() {
                    (a + 1, r)
                } else {
                    (a, r + 1)
                }
            },
        );
    tracer.emit(|| Event::MatchMaintain {
        engine: engine.name(),
        class: class.0 as u32,
        insert,
        adds,
        removes,
        detect_ns,
        total_ns,
    });
    if let Some(m) = tracer.metrics() {
        m.record_match(
            engine.name(),
            class.0 as u32,
            class_name,
            deltas.len(),
            detect_ns,
            total_ns,
        );
    }
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
        if let Some(m) = tracer.metrics() {
            m.record_conflict_delta(inst.rule.0 as u32, rule_name, delta.is_add());
        }
        tracer.emit(|| {
            let mut wmes = String::new();
            for w in &inst.wmes {
                if !wmes.is_empty() {
                    wmes.push(' ');
                }
                wmes.push_str(&rules.class(w.class).name);
                wmes.push_str(&w.tuple.to_string());
            }
            Event::ConflictDelta {
                add: delta.is_add(),
                rule: inst.rule.0 as u32,
                rule_name: rule_name.clone(),
                wmes,
                support: inst.why.support_display(),
                absent: inst.why.absent_display(rules),
            }
        });
    }
    awakened.len()
}

/// Emit the trace events and metrics for one completed batched delta
/// (§4.2 set-oriented maintenance): every WM change event, the whole
/// batch's conflict-set deltas in canonical order, and a
/// [`Event::BatchApplied`] summary. Used by [`MatchEngine::apply_delta`]
/// so batched runs trace without a per-change fallback.
pub(crate) fn trace_batch<E: MatchEngine + ?Sized>(
    engine: &E,
    resolved: &[WmDelta],
    deltas: &[ConflictDelta],
    total_ns: u64,
) {
    let tracer = engine.tracer();
    let rules = engine.pdb().rules();
    let mut inserts = 0usize;
    let mut deletes = 0usize;
    for d in resolved {
        let class_name = &rules.class(d.class).name;
        if d.insert {
            inserts += 1;
        } else {
            deletes += 1;
        }
        if let Some(m) = tracer.metrics() {
            m.record_class_change(d.class.0 as u32, class_name);
        }
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
    let rules_awakened = emit_conflict_deltas(tracer, rules, deltas);
    tracer.emit(|| Event::BatchApplied {
        engine: engine.name(),
        inserts,
        deletes,
        rules_awakened,
        total_ns,
    });
    if let Some(m) = tracer.metrics() {
        m.record_batch((inserts + deletes) as u64);
    }
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
    if !engine.needs_bootstrap() {
        return;
    }
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
