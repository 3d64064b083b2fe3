//! ANALYZE-style statistics: per-relation cardinality, per-attribute
//! distinct-count estimates, and *observed* selection/join/anti-join
//! selectivities.
//!
//! The paper stores working memory and COND relations in a DBMS precisely
//! so that "database technology" (§3.2) — statistics-driven access-path
//! selection — applies to production matching. This module supplies those
//! statistics. Observed selectivities are maintained incrementally by the
//! query executor as a side effect of normal matching (no extra scans);
//! [`analyze`] combines them with a catalog sweep into a snapshot that
//! sits alongside the operation counters ([`OpSnapshot`]).

use std::collections::HashMap;

use obs::json::{Arr, Obj};
use parking_lot::Mutex;

use crate::database::Database;
use crate::relation::Relation;
use crate::schema::RelId;
use crate::stats::OpSnapshot;

/// Operator counts observed on one relation by the query executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservedCounts {
    /// Tuples considered by pure selections (no bound join values).
    pub selection_in: u64,
    /// Tuples qualifying those selections.
    pub selection_out: u64,
    /// Tuples considered by join probes (restriction augmented with
    /// values bound earlier in the plan).
    pub join_in: u64,
    /// Tuples qualifying those probes.
    pub join_out: u64,
    /// Tuples considered by batch-executor whole-relation scans (hash
    /// join build/probe input under the term restriction only). Kept in
    /// a separate channel: these scans run once per plan step rather
    /// than once per binding, so folding them into the selection channel
    /// would let hash-join runs skew the selectivities the planner
    /// shares with the nested-loop executor.
    pub scan_in: u64,
    /// Tuples qualifying those scans.
    pub scan_out: u64,
    /// Negated-term (anti-join) probes executed.
    pub anti_probes: u64,
    /// Anti-join probes that found a blocking tuple.
    pub anti_blocked: u64,
}

impl ObservedCounts {
    /// Observed selection selectivity, when any selection ran.
    pub fn selection_selectivity(&self) -> Option<f64> {
        (self.selection_in > 0).then(|| self.selection_out as f64 / self.selection_in as f64)
    }

    /// Observed join-probe selectivity, when any probe ran.
    pub fn join_selectivity(&self) -> Option<f64> {
        (self.join_in > 0).then(|| self.join_out as f64 / self.join_in as f64)
    }

    /// Observed batch-scan selectivity, when any scan ran.
    pub fn scan_selectivity(&self) -> Option<f64> {
        (self.scan_in > 0).then(|| self.scan_out as f64 / self.scan_in as f64)
    }

    /// Fraction of anti-join probes that blocked a binding.
    pub fn anti_block_rate(&self) -> Option<f64> {
        (self.anti_probes > 0).then(|| self.anti_blocked as f64 / self.anti_probes as f64)
    }

    fn to_json(self) -> String {
        let mut o = Obj::new()
            .u64("selection_in", self.selection_in)
            .u64("selection_out", self.selection_out)
            .u64("join_in", self.join_in)
            .u64("join_out", self.join_out)
            .u64("scan_in", self.scan_in)
            .u64("scan_out", self.scan_out)
            .u64("anti_probes", self.anti_probes)
            .u64("anti_blocked", self.anti_blocked);
        if let Some(s) = self.selection_selectivity() {
            o = o.f64("selection_selectivity", s);
        }
        if let Some(s) = self.join_selectivity() {
            o = o.f64("join_selectivity", s);
        }
        if let Some(s) = self.scan_selectivity() {
            o = o.f64("scan_selectivity", s);
        }
        if let Some(s) = self.anti_block_rate() {
            o = o.f64("anti_block_rate", s);
        }
        o.finish()
    }
}

/// Incrementally maintained observation registry, one per [`Database`]
/// (shared via [`Database::analyze_registry`]).
#[derive(Debug, Default)]
pub struct AnalyzeRegistry {
    observed: Mutex<HashMap<u32, ObservedCounts>>,
    /// Memoized exact distinct counts: (relation, attr) → (write version
    /// the count was computed at, count). Invalidated by comparing against
    /// [`Relation::version`], so writers never have to notify the cache.
    distinct_cache: Mutex<HashMap<(u32, usize), (u64, usize)>>,
}

impl AnalyzeRegistry {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        AnalyzeRegistry::default()
    }

    /// Record one selection (`joined == false`) or join probe
    /// (`joined == true`) over `rel`: `input` tuples considered,
    /// `output` qualifying.
    pub fn observe(&self, rel: RelId, joined: bool, input: u64, output: u64) {
        let mut map = self.observed.lock();
        let c = map.entry(rel.0).or_default();
        if joined {
            c.join_in += input;
            c.join_out += output;
        } else {
            c.selection_in += input;
            c.selection_out += output;
        }
    }

    /// Record one batch-executor whole-relation scan over `rel` (hash
    /// join build/probe input). Separate from [`AnalyzeRegistry::observe`]
    /// so these once-per-step scans don't distort the per-probe selection
    /// selectivity the planner's `term_cardinality` relies on.
    pub fn observe_scan(&self, rel: RelId, input: u64, output: u64) {
        let mut map = self.observed.lock();
        let c = map.entry(rel.0).or_default();
        c.scan_in += input;
        c.scan_out += output;
    }

    /// Record one anti-join (negated term) probe over `rel`.
    pub fn observe_anti(&self, rel: RelId, blocked: bool) {
        let mut map = self.observed.lock();
        let c = map.entry(rel.0).or_default();
        c.anti_probes += 1;
        c.anti_blocked += u64::from(blocked);
    }

    /// The counts observed so far on `rel` (zeros when never touched).
    pub fn observed(&self, rel: RelId) -> ObservedCounts {
        self.observed
            .lock()
            .get(&rel.0)
            .copied()
            .unwrap_or_default()
    }

    /// Exact distinct count of `attr` in `r`, memoized per
    /// (relation, attr) and recomputed only when the relation's write
    /// version has moved — repeated EXPLAIN/ANALYZE sweeps over a quiet
    /// relation cost O(1) instead of a full scan each.
    pub fn distinct_exact(&self, r: &Relation, attr: usize) -> usize {
        let key = (r.id().0, attr);
        let version = r.version();
        if let Some(&(ver, n)) = self.distinct_cache.lock().get(&key) {
            if ver == version {
                return n;
            }
        }
        // Diagnostic path: an unreadable page degrades to 0 distincts
        // rather than failing the sweep.
        let n = r.distinct_exact(attr).unwrap_or(0);
        self.distinct_cache.lock().insert(key, (version, n));
        n
    }

    /// Forget everything (between experiment runs).
    pub fn reset(&self) {
        self.observed.lock().clear();
        self.distinct_cache.lock().clear();
    }
}

/// Distinct-count estimate for one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrStats {
    /// Attribute name.
    pub name: String,
    /// Estimated number of distinct values.
    pub distinct: usize,
}

/// Statistics for one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationProfile {
    /// The relation.
    pub rel: RelId,
    /// Its name.
    pub name: String,
    /// Live tuple count.
    pub cardinality: usize,
    /// Approximate bytes.
    pub bytes: usize,
    /// Per-attribute distinct estimates, in schema order.
    pub attrs: Vec<AttrStats>,
    /// Selectivities observed by the executor.
    pub observed: ObservedCounts,
}

impl RelationProfile {
    fn to_json(&self) -> String {
        let mut attrs = Arr::new();
        for a in &self.attrs {
            attrs = attrs.raw(
                &Obj::new()
                    .str("name", &a.name)
                    .usize("distinct", a.distinct)
                    .finish(),
            );
        }
        Obj::new()
            .u64("rel", self.rel.0 as u64)
            .str("name", &self.name)
            .usize("cardinality", self.cardinality)
            .usize("bytes", self.bytes)
            .raw("attrs", &attrs.finish())
            .raw("observed", &self.observed.to_json())
            .finish()
    }
}

/// A point-in-time statistics snapshot of the whole database, pairing the
/// relation profiles with the logical-operation counters.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeSnapshot {
    /// One profile per relation, in id order.
    pub relations: Vec<RelationProfile>,
    /// The operation counters at snapshot time.
    pub ops: OpSnapshot,
}

impl AnalyzeSnapshot {
    /// Render as one JSON object (a `RunReport` section).
    pub fn to_json(&self) -> String {
        let mut rels = Arr::new();
        for r in &self.relations {
            rels = rels.raw(&r.to_json());
        }
        let ops = Obj::new()
            .u64("tuples_read", self.ops.tuples_read)
            .u64("tuples_inserted", self.ops.tuples_inserted)
            .u64("tuples_deleted", self.ops.tuples_deleted)
            .u64("index_probes", self.ops.index_probes)
            .u64("scans", self.ops.scans)
            .u64("pred_evals", self.ops.pred_evals)
            .u64("logical_io", self.ops.logical_io())
            .u64("page_reads", self.ops.page_reads)
            .u64("page_writes", self.ops.page_writes)
            .u64("pool_hits", self.ops.pool_hits)
            .u64("pool_evictions", self.ops.pool_evictions)
            .u64("wal_syncs", self.ops.wal_syncs)
            .finish();
        Obj::new()
            .raw("relations", &rels.finish())
            .raw("ops", &ops)
            .finish()
    }
}

/// Sweep the catalog and combine it with the observed selectivities into
/// an [`AnalyzeSnapshot`] — the `ANALYZE` statement of this DBMS.
pub fn analyze(db: &Database) -> AnalyzeSnapshot {
    let registry = db.analyze_registry();
    let relations = db
        .relation_names()
        .into_iter()
        .map(|(rid, name)| {
            let (cardinality, bytes, attrs) = db
                .read(rid, |r| {
                    let attrs = r
                        .schema()
                        .attrs()
                        .iter()
                        .enumerate()
                        .map(|(i, a)| AttrStats {
                            name: a.name.to_string(),
                            distinct: registry.distinct_exact(r, i),
                        })
                        .collect();
                    (r.len(), r.approx_bytes().unwrap_or(0), attrs)
                })
                .expect("relation exists");
            RelationProfile {
                rel: rid,
                name,
                cardinality,
                bytes,
                attrs,
                observed: registry.observed(rid),
            }
        })
        .collect();
    AnalyzeSnapshot {
        relations,
        ops: db.stats().snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{Restriction, Selection};
    use crate::query::{ConjunctiveQuery, JoinPred, QueryExecutor, QueryTerm};
    use crate::schema::Schema;
    use crate::tuple;

    fn demo_db() -> (Database, RelId, RelId) {
        let db = Database::new();
        let item = db.create_relation(Schema::new("Item", ["n", "v"])).unwrap();
        let done = db.create_relation(Schema::new("Done", ["n"])).unwrap();
        for i in 0..10i64 {
            db.insert(item, tuple![i, i % 3]).unwrap();
        }
        db.insert(done, tuple![0]).unwrap();
        (db, item, done)
    }

    #[test]
    fn profiles_cardinality_and_distinct_counts() {
        let (db, item, _) = demo_db();
        let snap = analyze(&db);
        assert_eq!(snap.relations.len(), 2);
        let ip = &snap.relations[item.index()];
        assert_eq!(ip.name, "Item");
        assert_eq!(ip.cardinality, 10);
        assert_eq!(ip.attrs[0].name, "n");
        assert_eq!(ip.attrs[0].distinct, 10);
        assert_eq!(ip.attrs[1].distinct, 3);
        assert!(snap.ops.tuples_inserted >= 11);
    }

    #[test]
    fn observed_selectivities_accumulate_and_reset() {
        let (db, item, done) = demo_db();
        let q = ConjunctiveQuery::new(
            vec![
                QueryTerm::new(item, Restriction::new(vec![Selection::eq(1, 0)])),
                QueryTerm::negated(done, Restriction::default()),
            ],
            vec![JoinPred::eq(0, 0, 1, 0)],
        );
        let res = QueryExecutor::new(&db).exec(&q, None).unwrap();
        assert_eq!(res.len(), 3, "n=0 is Done; n=3,6,9 survive");
        let obs = db.analyze_registry().observed(item);
        assert_eq!(obs.selection_in, 10);
        assert_eq!(obs.selection_out, 4, "v=0 for n in {{0,3,6,9}}");
        assert_eq!(obs.selection_selectivity(), Some(0.4));
        let done_obs = db.analyze_registry().observed(done);
        assert_eq!(done_obs.anti_probes, 4);
        assert_eq!(done_obs.anti_blocked, 1);
        db.analyze_registry().reset();
        assert_eq!(
            db.analyze_registry().observed(item),
            ObservedCounts::default()
        );
    }

    #[test]
    fn snapshot_renders_json() {
        let (db, _, _) = demo_db();
        let json = analyze(&db).to_json();
        assert!(json.starts_with("{\"relations\":["), "{json}");
        assert!(json.contains("\"name\":\"Item\""), "{json}");
        assert!(json.contains("\"distinct\":10"), "{json}");
        assert!(json.contains("\"ops\":{"), "{json}");
        assert!(json.contains("\"logical_io\":"), "{json}");
    }
}
