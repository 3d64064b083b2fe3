//! Aggregated run metrics: per-rule activity, latency histograms for the
//! match and act phases, per-class WM change counts, a conflict-set-size
//! timeline, detect/maintain splits per engine, and lock-contention
//! totals.
//!
//! Every metric is a fold of the trace events: [`MetricsRegistry::observe`]
//! is the only thing that changes one, and [`crate::Tracer::emit`] calls it
//! on every event it emits, whatever the sink. Folding a run's recorded
//! events into a fresh registry therefore renders the same JSON as the
//! live one.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::event::Event;
use crate::hist::Log2Histogram;
use crate::json::{Arr, Obj};

/// Per-rule counters.
#[derive(Default)]
struct RuleMetrics {
    /// RHS executions.
    fires: u64,
    /// Instantiations that entered the conflict set.
    instantiations_added: u64,
    /// Instantiations that left the conflict set.
    instantiations_removed: u64,
}

/// Accumulated §4.2.3 detect/maintain split for one engine.
#[derive(Default)]
struct DetectSplit {
    detect_ns: u64,
    total_ns: u64,
    samples: u64,
}

/// Everything the registry has folded so far.
#[derive(Default)]
struct Fold {
    /// Per `(rule id, rule name)` and per `(class id, class name)`: runs
    /// of different programs may share a registry and reuse an id.
    rules: BTreeMap<(u32, String), RuleMetrics>,
    /// WM changes per class.
    classes: BTreeMap<(u32, String), u64>,
    splits: BTreeMap<&'static str, DetectSplit>,
    /// Latency of one match-maintenance pass (ns).
    match_hist: Log2Histogram,
    /// Latency of one RHS execution (ns).
    rhs_hist: Log2Histogram,
    /// Latency of one COND store's propagation (ns), per class.
    propagate_hist: Log2Histogram,
    /// Time one §5 transaction held the engine critical section for its
    /// pre-commit maintenance pass (ns) — the serialized fraction of
    /// concurrent execution.
    critical_section_hist: Log2Histogram,
    /// `(cycle, conflict_len)` after each act phase.
    conflict_timeline: Vec<(u64, usize)>,
    /// Recognize-act cycles ended, across every executor sharing the
    /// registry.
    cycles: u64,
    /// Lock requests that blocked (granted later or deadlock victims).
    lock_waits: u64,
    lock_wait_ns: u64,
    deadlocks: u64,
    txn_commits: u64,
    txn_aborts: u64,
    /// σ-binding hash-index probes into COND pattern groups.
    pattern_probes: u64,
    /// Matching patterns examined across probe candidates and full scans.
    pattern_scanned: u64,
    /// Maintenance passes run (§4.2 set-oriented maintenance).
    batches: u64,
    /// WM changes carried by those passes.
    batch_changes: u64,
    /// Conflict-set deltas those passes emitted.
    batch_conflict_deltas: u64,
}

impl Fold {
    fn rule(&mut self, rule: u32, name: &str) -> &mut RuleMetrics {
        self.rules.entry((rule, name.to_string())).or_default()
    }
}

/// The registry a tracer folds its events into. All methods take `&self`.
#[derive(Default)]
pub struct MetricsRegistry {
    fold: Mutex<Fold>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one event into the metrics. Kinds no metric reads are
    /// ignored.
    pub fn observe(&self, event: &Event) {
        let mut f = self.fold.lock().expect("metrics");
        match event {
            Event::CycleEnd {
                cycle,
                conflict_len,
                ..
            } => {
                f.cycles += 1;
                f.conflict_timeline.push((*cycle, *conflict_len));
            }
            Event::WmInsert {
                class, class_name, ..
            }
            | Event::WmRemove {
                class, class_name, ..
            } => *f.classes.entry((*class, class_name.clone())).or_default() += 1,
            Event::PropagateSpan { span_ns, .. } => f.propagate_hist.record(*span_ns),
            Event::BatchApplied {
                engine,
                inserts,
                deletes,
                total_ns,
                detect_ns,
                pattern_probes,
                pattern_scanned,
                ..
            } => {
                f.match_hist.record(*total_ns);
                f.batches += 1;
                f.batch_changes += (inserts + deletes) as u64;
                f.pattern_probes += pattern_probes;
                f.pattern_scanned += pattern_scanned;
                let s = f.splits.entry(engine).or_default();
                s.detect_ns += detect_ns;
                s.total_ns += total_ns;
                s.samples += 1;
            }
            Event::ConflictDelta {
                add,
                rule,
                rule_name,
                ..
            } => {
                f.batch_conflict_deltas += 1;
                let m = f.rule(*rule, rule_name);
                if *add {
                    m.instantiations_added += 1;
                } else {
                    m.instantiations_removed += 1;
                }
            }
            Event::RuleFire {
                rule,
                rule_name,
                rhs_ns,
                ..
            } => {
                f.rule(*rule, rule_name).fires += 1;
                f.rhs_hist.record(*rhs_ns);
            }
            Event::LockAcquire { wait_ns, .. } => {
                f.lock_waits += 1;
                f.lock_wait_ns += wait_ns;
            }
            Event::DeadlockVictim { wait_ns, .. } => {
                f.lock_waits += 1;
                f.lock_wait_ns += wait_ns;
                f.deadlocks += 1;
            }
            // Only a §5 transaction (txn != 0) holds a critical section.
            Event::Firing {
                txn, critical_ns, ..
            } if *txn != 0 => f.critical_section_hist.record(*critical_ns),
            Event::TxnCommit { .. } => f.txn_commits += 1,
            Event::TxnAbort { .. } => f.txn_aborts += 1,
            _ => {}
        }
    }

    /// Render the whole registry as a JSON object.
    pub fn to_json(&self) -> String {
        let f = self.fold.lock().expect("metrics");
        let mut rules = Arr::new();
        for ((id, name), m) in &f.rules {
            rules = rules.raw(
                &Obj::new()
                    .u64("rule", *id as u64)
                    .str("name", name)
                    .u64("fires", m.fires)
                    .u64("instantiations_added", m.instantiations_added)
                    .u64("instantiations_removed", m.instantiations_removed)
                    .finish(),
            );
        }
        let mut classes = Arr::new();
        for ((id, name), n) in &f.classes {
            classes = classes.raw(
                &Obj::new()
                    .u64("class", *id as u64)
                    .str("name", name)
                    .u64("wm_changes", *n)
                    .finish(),
            );
        }
        let mut splits = Arr::new();
        for (engine, s) in &f.splits {
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
        for (cycle, len) in &f.conflict_timeline {
            timeline = timeline.raw(&format!("[{cycle},{len}]"));
        }
        Obj::new()
            .u64("cycles", f.cycles)
            .raw("rules", &rules.finish())
            .raw("classes", &classes.finish())
            .raw("detect_split", &splits.finish())
            .raw("match_latency_ns", &f.match_hist.to_json())
            .raw("rhs_latency_ns", &f.rhs_hist.to_json())
            .raw("propagate_latency_ns", &f.propagate_hist.to_json())
            .raw("critical_section_ns", &f.critical_section_hist.to_json())
            .raw("conflict_timeline", &timeline.finish())
            .raw(
                "locks",
                &Obj::new()
                    .u64("waits", f.lock_waits)
                    .u64("wait_ns", f.lock_wait_ns)
                    .u64("deadlocks", f.deadlocks)
                    .finish(),
            )
            .raw(
                "txns",
                &Obj::new()
                    .u64("commits", f.txn_commits)
                    .u64("aborts", f.txn_aborts)
                    .finish(),
            )
            .raw(
                "pattern_store",
                &Obj::new()
                    .u64("probes", f.pattern_probes)
                    .u64("scanned", f.pattern_scanned)
                    .finish(),
            )
            .raw(
                "batches",
                &Obj::new()
                    .u64("count", f.batches)
                    .u64("wm_changes", f.batch_changes)
                    .u64("conflict_deltas", f.batch_conflict_deltas)
                    .finish(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(rule: u32, name: &str, rhs_ns: u64) -> Event {
        Event::RuleFire {
            cycle: 0,
            rule,
            rule_name: name.into(),
            rhs_ns,
            inserts: 0,
            removes: 0,
        }
    }

    fn delta(add: bool, rule: u32, name: &str) -> Event {
        Event::ConflictDelta {
            add,
            rule,
            rule_name: name.into(),
            wmes: String::new(),
            support: String::new(),
            absent: String::new(),
        }
    }

    fn batch(engine: &'static str, probes: u64, scanned: u64) -> Event {
        Event::BatchApplied {
            engine,
            inserts: 2,
            deletes: 1,
            rules_awakened: 1,
            total_ns: 100,
            detect_ns: 40,
            pattern_probes: probes,
            pattern_scanned: scanned,
        }
    }

    fn firing(txn: u64, critical_ns: u64) -> Event {
        Event::Firing {
            seq: 0,
            round: 0,
            txn,
            rule: 1,
            rule_name: "R1".into(),
            wmes: String::new(),
            support: String::new(),
            critical_ns,
        }
    }

    #[test]
    fn events_fold_into_metrics() {
        let m = MetricsRegistry::new();
        let cycle_end = |conflict_len| Event::CycleEnd {
            cycle: 0,
            conflict_len,
            fired_total: 1,
        };
        for e in [
            fire(1, "R1", 100),
            fire(1, "R1", 200),
            delta(true, 1, "R1"),
            delta(false, 1, "R1"),
            // Another program sharing the registry also has a rule 1.
            delta(false, 1, "Other"),
            Event::WmInsert {
                class: 0,
                class_name: "C0".into(),
                tuple: "(1)".into(),
                tid: 0,
            },
            cycle_end(2),
            cycle_end(1),
            Event::LockAcquire {
                txn: 2,
                target: "rel0".into(),
                mode: "shared",
                wait_ns: 500,
            },
            Event::DeadlockVictim {
                txn: 3,
                wait_ns: 20,
            },
            Event::TxnCommit { txn: 2, writes: 1 },
            batch("cond", 1, 4),
            batch("cond", 0, 7),
            firing(0, 0),
            firing(2, 250),
        ] {
            m.observe(&e);
        }
        let json = m.to_json();
        let want = [
            // Cycles are counted, not read off the largest cycle index:
            // two executors sharing a registry both end a cycle 0.
            "\"cycles\":2,",
            "\"rules\":[{\"rule\":1,\"name\":\"Other\",\"fires\":0,\
             \"instantiations_added\":0,\"instantiations_removed\":1},\
             {\"rule\":1,\"name\":\"R1\",\"fires\":2,\
             \"instantiations_added\":1,\"instantiations_removed\":1}]",
            "\"classes\":[{\"class\":0,\"name\":\"C0\",\"wm_changes\":1}]",
            "{\"engine\":\"cond\",\"detect_ns\":80,\"total_ns\":200,\"samples\":2,",
            "\"match_latency_ns\":{\"count\":2,",
            "\"rhs_latency_ns\":{\"count\":2,",
            // The sequential executor's firing (txn 0) has no critical section.
            "\"critical_section_ns\":{\"count\":1,\"sum\":250,",
            "\"conflict_timeline\":[[0,2],[0,1]]",
            "\"locks\":{\"waits\":2,\"wait_ns\":520,\"deadlocks\":1}",
            "\"txns\":{\"commits\":1,\"aborts\":0}",
            "\"pattern_store\":{\"probes\":1,\"scanned\":11}",
            "\"batches\":{\"count\":2,\"wm_changes\":6,\"conflict_deltas\":3}",
        ];
        for w in want {
            assert!(json.contains(w), "{w} not in {json}");
        }
    }
}
