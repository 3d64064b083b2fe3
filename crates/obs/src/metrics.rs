//! Aggregated run metrics, concurrently updatable: per-rule activity,
//! latency histograms for the match and act phases, per-class WM change
//! counts, a conflict-set-size timeline, detect/maintain splits per
//! engine, and lock-contention totals.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::Log2Histogram;
use crate::json::{Arr, Obj};

/// Per-rule counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuleMetrics {
    pub name: String,
    /// RHS executions.
    pub fires: u64,
    /// Instantiations that entered the conflict set.
    pub instantiations_added: u64,
    /// Instantiations that left the conflict set.
    pub instantiations_removed: u64,
}

/// Per-WM-class (COND relation, §4.2) counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassMetrics {
    pub name: String,
    /// WM changes on this class.
    pub wm_changes: u64,
}

/// Accumulated §4.2.3 detect/maintain split for one engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectSplit {
    pub detect_ns: u64,
    pub total_ns: u64,
    pub samples: u64,
}

/// The registry every layer records into. All methods take `&self`.
#[derive(Default)]
pub struct MetricsRegistry {
    rules: Mutex<HashMap<u32, RuleMetrics>>,
    /// WM changes per `(class id, class name)`: runs of different
    /// programs may share a registry and reuse a class id.
    classes: Mutex<HashMap<(u32, String), u64>>,
    splits: Mutex<HashMap<&'static str, DetectSplit>>,
    /// Latency of one match-maintenance pass (ns).
    pub match_hist: Log2Histogram,
    /// Latency of one RHS execution (ns).
    pub rhs_hist: Log2Histogram,
    /// Latency of one COND store's propagation (ns), recorded per class.
    pub propagate_hist: Log2Histogram,
    /// Time one §5 transaction held the engine critical section for its
    /// pre-commit maintenance pass (ns) — the serialized fraction of
    /// concurrent execution.
    pub critical_section_hist: Log2Histogram,
    /// `(cycle, conflict_len)` after each act phase.
    conflict_timeline: Mutex<Vec<(u64, usize)>>,
    /// Recognize-act cycles ended, across every executor sharing the
    /// registry.
    cycles: AtomicU64,
    lock_waits: AtomicU64,
    lock_wait_ns: AtomicU64,
    deadlocks: AtomicU64,
    txn_commits: AtomicU64,
    txn_aborts: AtomicU64,
    /// σ-binding hash-index probes into COND pattern groups.
    pattern_probes: AtomicU64,
    /// Matching patterns examined across probe candidates and full scans.
    pattern_scanned: AtomicU64,
    /// Maintenance passes run (§4.2 set-oriented maintenance).
    batches: AtomicU64,
    /// WM changes carried by those passes.
    batch_changes: AtomicU64,
    /// Conflict-set deltas those passes emitted.
    batch_conflict_deltas: AtomicU64,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_fire(&self, rule: u32, name: &str, rhs_ns: u64) {
        let mut rules = self.rules.lock().expect("rules");
        let m = rules.entry(rule).or_default();
        if m.name.is_empty() {
            m.name = name.to_string();
        }
        m.fires += 1;
        drop(rules);
        self.rhs_hist.record(rhs_ns);
    }

    pub fn record_conflict_delta(&self, rule: u32, name: &str, add: bool) {
        let mut rules = self.rules.lock().expect("rules");
        let m = rules.entry(rule).or_default();
        if m.name.is_empty() {
            m.name = name.to_string();
        }
        if add {
            m.instantiations_added += 1;
        } else {
            m.instantiations_removed += 1;
        }
    }

    /// One COND store's propagation finished in `span_ns`.
    pub fn record_propagate(&self, span_ns: u64) {
        self.propagate_hist.record(span_ns);
    }

    /// One §5 transaction held the engine critical section for `ns`.
    pub fn record_critical_section(&self, ns: u64) {
        self.critical_section_hist.record(ns);
    }

    /// One COND pattern-group lookup: `probes` index probes (0 for a
    /// full scan) that examined `scanned` patterns.
    pub fn record_pattern_io(&self, probes: u64, scanned: u64) {
        self.pattern_probes.fetch_add(probes, Ordering::Relaxed);
        self.pattern_scanned.fetch_add(scanned, Ordering::Relaxed);
    }

    /// One maintenance pass of `engine` over `changes` WM changes
    /// finished in `total_ns`, `detect_ns` of them before the conflict set
    /// was up to date, and emitted `conflict_deltas` conflict-set deltas.
    pub fn record_pass(
        &self,
        engine: &'static str,
        changes: u64,
        conflict_deltas: u64,
        detect_ns: u64,
        total_ns: u64,
    ) {
        self.match_hist.record(total_ns);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_changes.fetch_add(changes, Ordering::Relaxed);
        self.batch_conflict_deltas
            .fetch_add(conflict_deltas, Ordering::Relaxed);
        let mut splits = self.splits.lock().expect("splits");
        let s = splits.entry(engine).or_default();
        s.detect_ns += detect_ns;
        s.total_ns += total_ns;
        s.samples += 1;
    }

    /// One WM change on `class`, within a maintenance pass.
    pub fn record_class_change(&self, class: u32, class_name: &str) {
        let mut classes = self.classes.lock().expect("classes");
        *classes.entry((class, class_name.to_string())).or_default() += 1;
    }

    /// One recognize-act cycle ended with `conflict_len` instantiations.
    pub fn record_cycle(&self, cycle: u64, conflict_len: usize) {
        self.cycles.fetch_add(1, Ordering::Relaxed);
        self.conflict_timeline
            .lock()
            .expect("timeline")
            .push((cycle, conflict_len));
    }

    pub fn record_lock_wait(&self, wait_ns: u64) {
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    }

    pub fn record_deadlock(&self) {
        self.deadlocks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_txn(&self, committed: bool) {
        if committed {
            self.txn_commits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.txn_aborts.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn rules(&self) -> Vec<(u32, RuleMetrics)> {
        let mut v: Vec<_> = self
            .rules
            .lock()
            .expect("rules")
            .iter()
            .map(|(k, m)| (*k, m.clone()))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    pub fn classes(&self) -> Vec<(u32, ClassMetrics)> {
        let mut v: Vec<_> = self
            .classes
            .lock()
            .expect("classes")
            .iter()
            .map(|((id, name), n)| {
                let name = name.clone();
                (
                    *id,
                    ClassMetrics {
                        name,
                        wm_changes: *n,
                    },
                )
            })
            .collect();
        v.sort_by(|(a, x), (b, y)| (a, &x.name).cmp(&(b, &y.name)));
        v
    }

    pub fn splits(&self) -> Vec<(&'static str, DetectSplit)> {
        let mut v: Vec<_> = self
            .splits
            .lock()
            .expect("splits")
            .iter()
            .map(|(k, s)| (*k, *s))
            .collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    pub fn conflict_timeline(&self) -> Vec<(u64, usize)> {
        self.conflict_timeline.lock().expect("timeline").clone()
    }

    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    pub fn lock_waits(&self) -> u64 {
        self.lock_waits.load(Ordering::Relaxed)
    }

    pub fn lock_wait_ns(&self) -> u64 {
        self.lock_wait_ns.load(Ordering::Relaxed)
    }

    pub fn deadlocks(&self) -> u64 {
        self.deadlocks.load(Ordering::Relaxed)
    }

    pub fn txn_commits(&self) -> u64 {
        self.txn_commits.load(Ordering::Relaxed)
    }

    pub fn txn_aborts(&self) -> u64 {
        self.txn_aborts.load(Ordering::Relaxed)
    }

    pub fn pattern_probes(&self) -> u64 {
        self.pattern_probes.load(Ordering::Relaxed)
    }

    pub fn pattern_scanned(&self) -> u64 {
        self.pattern_scanned.load(Ordering::Relaxed)
    }

    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    pub fn batch_changes(&self) -> u64 {
        self.batch_changes.load(Ordering::Relaxed)
    }

    pub fn batch_conflict_deltas(&self) -> u64 {
        self.batch_conflict_deltas.load(Ordering::Relaxed)
    }

    /// Render the whole registry as a JSON object.
    pub fn to_json(&self) -> String {
        let mut rules = Arr::new();
        for (id, m) in self.rules() {
            rules = rules.raw(
                &Obj::new()
                    .u64("rule", id as u64)
                    .str("name", &m.name)
                    .u64("fires", m.fires)
                    .u64("instantiations_added", m.instantiations_added)
                    .u64("instantiations_removed", m.instantiations_removed)
                    .finish(),
            );
        }
        let mut classes = Arr::new();
        for (id, c) in self.classes() {
            classes = classes.raw(
                &Obj::new()
                    .u64("class", id as u64)
                    .str("name", &c.name)
                    .u64("wm_changes", c.wm_changes)
                    .finish(),
            );
        }
        let mut splits = Arr::new();
        for (engine, s) in self.splits() {
            splits = splits.raw(
                &Obj::new()
                    .str("engine", engine)
                    .u64("detect_ns", s.detect_ns)
                    .u64("total_ns", s.total_ns)
                    .u64("samples", s.samples)
                    .f64(
                        "detect_fraction",
                        if s.total_ns == 0 {
                            0.0
                        } else {
                            s.detect_ns as f64 / s.total_ns as f64
                        },
                    )
                    .finish(),
            );
        }
        let mut timeline = Arr::new();
        for (cycle, len) in self.conflict_timeline() {
            timeline = timeline.raw(&format!("[{cycle},{len}]"));
        }
        Obj::new()
            .u64("cycles", self.cycles())
            .raw("rules", &rules.finish())
            .raw("classes", &classes.finish())
            .raw("detect_split", &splits.finish())
            .raw("match_latency_ns", &self.match_hist.to_json())
            .raw("rhs_latency_ns", &self.rhs_hist.to_json())
            .raw("propagate_latency_ns", &self.propagate_hist.to_json())
            .raw("critical_section_ns", &self.critical_section_hist.to_json())
            .raw("conflict_timeline", &timeline.finish())
            .raw(
                "locks",
                &Obj::new()
                    .u64("waits", self.lock_waits())
                    .u64("wait_ns", self.lock_wait_ns())
                    .u64("deadlocks", self.deadlocks())
                    .finish(),
            )
            .raw(
                "txns",
                &Obj::new()
                    .u64("commits", self.txn_commits())
                    .u64("aborts", self.txn_aborts())
                    .finish(),
            )
            .raw(
                "pattern_store",
                &Obj::new()
                    .u64("probes", self.pattern_probes())
                    .u64("scanned", self.pattern_scanned())
                    .finish(),
            )
            .raw(
                "batches",
                &Obj::new()
                    .u64("count", self.batches())
                    .u64("wm_changes", self.batch_changes())
                    .u64("conflict_deltas", self.batch_conflict_deltas())
                    .finish(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate() {
        let m = MetricsRegistry::new();
        m.record_fire(1, "R1", 100);
        m.record_fire(1, "R1", 200);
        m.record_conflict_delta(1, "R1", true);
        m.record_conflict_delta(1, "R1", false);
        m.record_class_change(0, "C0");
        m.record_cycle(0, 2);
        m.record_cycle(0, 1);
        m.record_lock_wait(500);
        m.record_deadlock();
        m.record_txn(true);
        m.record_pattern_io(1, 4);
        m.record_pattern_io(0, 7);
        m.record_pass("cond", 3, 2, 40, 100);
        m.record_critical_section(250);
        let rules = m.rules();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].1.fires, 2);
        assert_eq!(rules[0].1.instantiations_added, 1);
        assert_eq!(m.classes()[0].1.wm_changes, 1);
        assert_eq!(m.batch_conflict_deltas(), 2);
        assert_eq!(m.match_hist.count(), 1);
        // Cycles are counted, not read off the largest cycle index: two
        // executors sharing a registry both end a cycle 0.
        assert_eq!(m.cycles(), 2);
        assert_eq!(m.splits()[0].1.detect_ns, 40);
        assert_eq!(m.lock_wait_ns(), 500);
        assert_eq!(m.pattern_probes(), 1);
        assert_eq!(m.pattern_scanned(), 11);
        assert_eq!((m.batches(), m.batch_changes()), (1, 3));
        let json = m.to_json();
        assert!(json.contains("\"fires\":2"), "{json}");
        assert!(json.contains("\"deadlocks\":1"), "{json}");
        assert!(
            json.contains("\"pattern_store\":{\"probes\":1,\"scanned\":11}"),
            "{json}"
        );
        assert!(
            json.contains("\"batches\":{\"count\":1,\"wm_changes\":3,\"conflict_deltas\":2}"),
            "{json}"
        );
        assert!(json.contains("\"critical_section_ns\":"), "{json}");
        assert_eq!(m.critical_section_hist.count(), 1);
    }
}
