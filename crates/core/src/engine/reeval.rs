//! LHS re-evaluation: the "simplified algorithm" of §4.1 and the
//! POSTGRES-style marker scheme of §2.3/§3.2 as one engine.
//!
//! "Instead of storing a large number of intermediate relations, we will
//! only need to store one relation per class of working memory elements"
//! and consequently "the speed may be slower in some cases since
//! re-computation of joins is necessary whenever a change is made to the
//! working memory" (§4.1.2). Both schemes keep no intermediate join
//! results: a WM change *awakens* some rules, and every awakened rule's
//! LHS query is re-evaluated against the current WM. They differ only in
//! the [`Awakening`] policy — which rules a change wakes:
//!
//! * [`CondIndex`] (§4.1, [`QueryEngine`]): one COND relation per WM
//!   class behind a [`predindex`] condition index ("one can use
//!   intelligent indexing techniques such as R-trees or R+-trees … to
//!   check if a given tuple satisfies conditions stored in the COND
//!   relations"). Exact on the one-input tests.
//! * [`IntervalMarkers`] (§2.3, [`MarkerEngine`]): "POSTGRES uses a dual
//!   approach, i.e. it stores identifiers of possibly qualifying rules
//!   with the data … The space overhead incurred in such an
//!   implementation is clearly lower than that of the Rete Network …
//!   However, the process of identifying qualifying rules is more
//!   expensive … as more false drops may arise." Each condition element
//!   contributes one *marker*: an index-interval lock on a single
//!   attribute (the first equality test, else the first range test) or a
//!   whole-relation marker when no attribute is testable. Awakenings that
//!   change nothing are counted as false drops.

use std::collections::BTreeSet;
use std::time::Instant;

use ops5::{ClassId, RuleId};
use predindex::{IndexKind, Interval};
use relstore::{CompOp, Tuple};
use rete::{ConflictDelta, ConflictSet};

use crate::engine::recompute::{eval_rule_via, InstStore};
use crate::engine::{MatchEngine, SpaceStats, WmDelta};
use crate::pdb::ProductionDb;
use crate::rulebase::CondIndex;

/// Which rules a WM change awakens for re-evaluation, and what the
/// structure deciding it costs.
pub trait Awakening: Send {
    /// Engine label ([`MatchEngine::name`]).
    const NAME: &'static str;
    /// Profile span of one maintenance entry point.
    const SPAN: &'static str;
    /// Approximate bytes per stored entry ([`SpaceStats::match_bytes`]).
    const ENTRY_BYTES: usize;

    /// Rules the change of `tuple` in `class` may affect (a rule may
    /// repeat).
    fn awakened(&self, class: ClassId, tuple: &Tuple) -> Vec<RuleId>;

    /// Stored entries (one per condition element under both policies).
    fn entries(&self) -> usize;

    /// An awakened rule's re-evaluation changed nothing.
    fn woke_for_nothing(&mut self) {}

    /// Awakenings counted as false drops so far ([`MatchEngine::false_drops`]).
    fn false_drops(&self) -> u64 {
        0
    }
}

/// §4.1 awakening: stab the class's COND relation with the tuple.
impl Awakening for CondIndex {
    const NAME: &'static str = "query";
    const SPAN: &'static str = "query.maintain";
    // "In terms of space, this algorithm is much better than the Rete
    // Network because no intermediate results are stored" — only the
    // COND entries (one per condition element) count.
    const ENTRY_BYTES: usize = 96;

    /// Rules with a condition element whose one-input tests match this
    /// tuple — the only rules the change can affect.
    fn awakened(&self, class: ClassId, tuple: &Tuple) -> Vec<RuleId> {
        self.rules_for_tuple(class, tuple)
    }

    fn entries(&self) -> usize {
        CondIndex::entries(self)
    }
}

/// One marker: rule `rule` watches tuples of a class through an interval
/// on `attr` (or all tuples when `attr` is `None`).
#[derive(Debug, Clone)]
struct Marker {
    rule: usize,
    attr: Option<usize>,
    interval: Interval,
}

/// §2.3 awakening: collect the markers the tuple falls under — a
/// deliberately coarse test, so verification may find nothing to do.
pub struct IntervalMarkers {
    /// Markers per class.
    markers: Vec<Vec<Marker>>,
    false_drops: u64,
}

impl Awakening for IntervalMarkers {
    const NAME: &'static str = "marker";
    const SPAN: &'static str = "marker.maintain";
    // Rule identifiers are tiny — the paper's space advantage.
    const ENTRY_BYTES: usize = 24;

    fn awakened(&self, class: ClassId, tuple: &Tuple) -> Vec<RuleId> {
        self.markers[class.0]
            .iter()
            .filter(|m| match m.attr {
                Some(a) => tuple.get(a).is_some_and(|v| m.interval.contains(v)),
                None => true,
            })
            .map(|m| RuleId(m.rule))
            .collect()
    }

    fn entries(&self) -> usize {
        self.markers.iter().map(Vec::len).sum()
    }

    fn woke_for_nothing(&mut self) {
        self.false_drops += 1;
    }

    fn false_drops(&self) -> u64 {
        self.false_drops
    }
}

/// The re-evaluation engine, parameterised by its awakening policy.
pub struct ReevalEngine<A> {
    pdb: ProductionDb,
    awakening: A,
    store: InstStore,
    conflict: ConflictSet,
    last_total: u64,
    tracer: obs::Tracer,
}

/// §4.1 matching engine: exact COND-relation stab, then re-evaluation.
pub type QueryEngine = ReevalEngine<CondIndex>;

/// The marker-based engine: coarse interval markers, then verification.
pub type MarkerEngine = ReevalEngine<IntervalMarkers>;

impl QueryEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        Self::with_index(pdb, IndexKind::RTree)
    }

    /// Choose the COND-relation index implementation (E10a ablation).
    pub fn with_index(pdb: ProductionDb, kind: IndexKind) -> Self {
        let cond = CondIndex::new(pdb.shared_rules(), kind);
        Self::with_awakening(pdb, cond)
    }

    /// Stabbing-cost metric (index nodes visited so far).
    pub fn index_visits(&self) -> u64 {
        self.awakening.node_visits()
    }
}

impl MarkerEngine {
    /// Create a new, empty instance.
    pub fn new(pdb: ProductionDb) -> Self {
        let mut markers: Vec<Vec<Marker>> =
            pdb.rules().classes.iter().map(|_| Vec::new()).collect();
        for rule in &pdb.rules().rules {
            for ce in &rule.ces {
                // Pick the most selective single-attribute test: first
                // equality, else first non-Ne comparison, else none.
                let pick = ce
                    .alpha
                    .tests
                    .iter()
                    .find(|s| s.op == CompOp::Eq)
                    .or_else(|| ce.alpha.tests.iter().find(|s| s.op != CompOp::Ne));
                let (attr, interval) = match pick {
                    Some(s) => (Some(s.attr), Interval::from_op(s.op, s.value.clone())),
                    None => (None, Interval::full()),
                };
                markers[ce.class.0].push(Marker {
                    rule: rule.id.0,
                    attr,
                    interval,
                });
            }
        }
        let awakening = IntervalMarkers {
            markers,
            false_drops: 0,
        };
        Self::with_awakening(pdb, awakening)
    }
}

impl<A: Awakening> ReevalEngine<A> {
    fn with_awakening(pdb: ProductionDb, awakening: A) -> Self {
        ReevalEngine {
            pdb,
            awakening,
            store: InstStore::new(),
            conflict: ConflictSet::new(),
            last_total: 0,
            tracer: obs::Tracer::disabled(),
        }
    }
}

impl<A: Awakening> MatchEngine for ReevalEngine<A> {
    fn name(&self) -> &'static str {
        A::NAME
    }

    fn pdb(&self) -> &ProductionDb {
        &self.pdb
    }

    /// Batched maintenance (§4.1 meets §4.2's "update first, maintain
    /// once"): union the rules the changes of the applied delta awaken
    /// and re-evaluate each exactly once against the current WM. Since
    /// full re-evaluation is idempotent, one pass per rule over a whole
    /// applied delta yields the same conflict-set diff a per-change loop
    /// would — and a rule awakened by several changes of one delta counts
    /// at most one false drop.
    fn maintain_delta(&mut self, changes: &[WmDelta]) -> Vec<ConflictDelta> {
        obs::prof_span!(A::SPAN);
        let start = Instant::now();
        let mut awakened = BTreeSet::new();
        for d in changes {
            awakened.extend(self.awakening.awakened(d.class, &d.tuple));
        }
        let mut deltas = Vec::new();
        {
            obs::prof_span!("eval");
            for rid in awakened {
                let rule = self.pdb.rules().rule(rid);
                let matches = eval_rule_via(&self.pdb, rule, true);
                let d = self.store.replace(rule, matches);
                if d.is_empty() {
                    self.awakening.woke_for_nothing();
                }
                deltas.extend(d);
            }
        }
        self.conflict.apply_all(&deltas);
        self.last_total = start.elapsed().as_nanos() as u64;
        deltas
    }

    fn conflict_set(&self) -> &ConflictSet {
        &self.conflict
    }

    fn space(&self) -> SpaceStats {
        let entries = self.awakening.entries();
        SpaceStats {
            match_entries: entries,
            match_bytes: entries * A::ENTRY_BYTES,
            wm_tuples: self.pdb.wm_total(),
        }
    }

    fn false_drops(&self) -> u64 {
        self.awakening.false_drops()
    }

    fn last_detect_split(&self) -> Option<(u64, u64)> {
        // Awakening plus re-evaluation both precede any conflict-set
        // change: no maintenance tail after detection (§4.1.2; §2.3's
        // cost remark for markers).
        Some((self.last_total, self.last_total))
    }

    fn tracer(&self) -> &obs::Tracer {
        &self.tracer
    }

    fn set_tracer(&mut self, tracer: obs::Tracer) {
        self.tracer = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relstore::tuple;

    /// Example 3 of the paper.
    const R1_R2: &str = r#"
        (literalize Emp name salary manager dno)
        (literalize Dept dno dname floor manager)
        (p R1
            (Emp ^name Mike ^salary <S> ^manager <M>)
            (Emp ^name <M> ^salary {<S1> < <S>})
            -->
            (remove 1))
        (p R2
            (Emp ^dno <D>)
            (Dept ^dno <D> ^dname Toy ^floor 1)
            -->
            (remove 1))
    "#;

    fn pdb(src: &str) -> ProductionDb {
        ProductionDb::new(ops5::compile(src).unwrap()).unwrap()
    }

    #[test]
    fn example_3_matching() {
        let mut e = QueryEngine::new(pdb(R1_R2));
        let emp = ClassId(0);
        let dept = ClassId(1);
        assert!(e.insert(emp, tuple!["Sam", 5000, "Root", 1]).is_empty());
        let d = e.insert(emp, tuple!["Mike", 6000, "Sam", 1]);
        assert_eq!(d.len(), 1, "R1 fires");
        let d = e.insert(dept, tuple![1, "Toy", 1, "Sam"]);
        assert_eq!(d.len(), 2, "R2 fires for Sam and Mike");
        assert_eq!(e.conflict_set().len(), 3);
        // Deleting Mike retracts R1's instantiation and one R2 one.
        let d = e.remove(emp, &tuple!["Mike", 6000, "Sam", 1]);
        assert_eq!(d.iter().filter(|x| !x.is_add()).count(), 2);
        assert_eq!(e.conflict_set().len(), 1);
    }

    #[test]
    fn unaffected_rules_not_reevaluated() {
        let mut e = QueryEngine::new(pdb(R1_R2));
        // A Dept tuple that fails R2's alpha tests affects nothing.
        let shoe = tuple![9, "Shoe", 2, "X"];
        assert!(e.awakening.awakened(ClassId(1), &shoe).is_empty());
        assert!(e.insert(ClassId(1), shoe).is_empty());
    }

    #[test]
    fn index_visits_counted() {
        let mut e = QueryEngine::new(pdb(R1_R2));
        e.insert(ClassId(0), tuple!["Ann", 1, "B", 2]);
        assert!(e.index_visits() > 0);
    }

    #[test]
    fn negation_through_recompute() {
        let mut e = QueryEngine::new(pdb(r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p Orphan (Emp ^name <N> ^dno <D>) -(Dept ^dno <D>) --> (remove 1))
            "#));
        let d = e.insert(ClassId(0), tuple!["Ann", 7]);
        assert_eq!(d.len(), 1);
        let d = e.insert(ClassId(1), tuple![7]);
        assert_eq!(d.len(), 1);
        assert!(!d[0].is_add());
        let d = e.remove(ClassId(1), &tuple![7]);
        assert_eq!(d.len(), 1);
        assert!(d[0].is_add());
        assert_eq!(e.conflict_set().len(), 1);
    }

    #[test]
    fn space_excludes_intermediate_results() {
        let mut e = QueryEngine::new(pdb(R1_R2));
        let before = e.space();
        assert_eq!(before.match_bytes, before.match_entries * 96);
        for i in 0..50i64 {
            e.insert(ClassId(0), tuple![format!("e{i}"), 100 * i, "Sam", i % 5]);
        }
        assert_eq!(
            e.space().match_entries,
            before.match_entries,
            "COND entries are static"
        );
    }

    /// The paper's own example: "in the case where all Emp tuples are
    /// marked because of rules R1 and R2, a new insertion to that relation
    /// will trigger both of these rules, even though [R2] should not be
    /// fired because there are no matching Dept tuples."
    #[test]
    fn false_drops_counted() {
        let mut e = MarkerEngine::new(pdb(R1_R2));
        // R2's Emp CE has no constant test → whole-relation marker: every
        // Emp insertion wakes R2 even with no Dept tuples at all.
        let d = e.insert(ClassId(0), tuple!["Ann", 1000, "Sam", 7]);
        assert!(d.is_empty());
        assert!(e.false_drops() >= 1, "R2 woke for nothing");
    }

    /// The two policies differ in which rules they wake, never in what
    /// the conflict set does: on the false-drop scenario both emit the
    /// same delta stream, and only the coarse markers report false drops.
    #[test]
    fn policies_emit_identical_deltas_only_markers_drop_falsely() {
        let mut query = QueryEngine::new(pdb(R1_R2));
        let mut marker = MarkerEngine::new(pdb(R1_R2));
        let (emp, dept) = (ClassId(0), ClassId(1));
        let inserts = [
            (emp, tuple!["Ann", 1000, "Sam", 7]),
            (emp, tuple!["Sam", 5000, "Root", 1]),
            (emp, tuple!["Mike", 6000, "Sam", 1]),
            (dept, tuple![2, "Shoe", 2, "Ann"]),
            (dept, tuple![1, "Toy", 1, "Sam"]),
        ];
        for (class, t) in inserts {
            assert_eq!(query.insert(class, t.clone()), marker.insert(class, t));
        }
        let mike = tuple!["Mike", 6000, "Sam", 1];
        assert_eq!(query.remove(emp, &mike), marker.remove(emp, &mike));
        assert_eq!(
            query.conflict_set().sorted(),
            marker.conflict_set().sorted()
        );
        assert_eq!(query.conflict_set().len(), 1, "R2 for Sam remains");
        assert_eq!(query.false_drops(), 0);
        assert!(marker.false_drops() > 0);
    }

    #[test]
    fn verification_keeps_conflict_set_exact() {
        let mut e = MarkerEngine::new(pdb(r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#));
        e.insert(ClassId(0), tuple!["Ann", 7]);
        let d = e.insert(ClassId(1), tuple![7]);
        assert_eq!(d.len(), 1);
        assert_eq!(e.conflict_set().len(), 1);
        e.remove(ClassId(1), &tuple![7]);
        assert!(e.conflict_set().is_empty());
    }

    #[test]
    fn interval_markers_trap_ranges() {
        let mut e = MarkerEngine::new(pdb(r#"
            (literalize Emp name age)
            (p Old (Emp ^age {>= 55}) --> (remove 1))
            "#));
        let d = e.insert(ClassId(0), tuple!["Young", 30]);
        assert!(d.is_empty());
        assert_eq!(e.false_drops(), 0, "interval marker excludes age 30");
        let d = e.insert(ClassId(0), tuple!["Old", 60]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn space_is_tiny() {
        let mut e = MarkerEngine::new(pdb(r#"
            (literalize Emp name dno)
            (literalize Dept dno)
            (p R (Emp ^dno <D>) (Dept ^dno <D>) --> (remove 1))
            "#));
        for i in 0..100i64 {
            e.insert(ClassId(0), tuple![format!("e{i}"), i]);
        }
        let space = e.space();
        assert_eq!(
            space.match_entries, 2,
            "one marker per CE, data-independent"
        );
        assert_eq!(space.match_bytes, 2 * 24);
    }
}
