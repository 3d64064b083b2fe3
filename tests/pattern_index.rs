//! The COND engine's σ-binding pattern index is a pure access-path
//! change: indexed probing and full group scans must agree on every
//! observable — per-op conflict sets, the stored matching patterns, and
//! fired sequences — over random programs with negated CEs and removals.
//!
//! Also here: batched delta maintenance now traces, so the per-batch
//! *net* conflict-delta effect must agree across all five engines (the
//! batched COND path cancels insert-then-remove seeds inside a batch, so
//! streams are compared canonically, not event-by-event).

use std::collections::BTreeMap;

use ops5::ClassId;
use prodsys::{make_engine, CondEngine, EngineKind, MatchEngine, ProductionDb, WmChange};
use proptest::prelude::*;
use workload::{Op, RuleGenConfig, TraceConfig};

fn random_trace(seed: u64, ops: usize) -> (RuleGenConfig, Vec<Op>) {
    let cfg = RuleGenConfig {
        rules: 8,
        ces_per_rule: 3,
        domain: 3,
        negated_fraction: 0.4,
        seed,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops,
        delete_fraction: 0.3,
        join_domain: 2,
        select_domain: 3,
        seed: seed + 500,
    }
    .trace(cfg.classes, cfg.attrs);
    (cfg, trace)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Indexed vs full-scan COND over a random insert/remove trace, with
    /// the query engine as an independent oracle for the conflict set:
    /// identical conflict sets after every operation, identical pattern
    /// stores — down to individual support-set multisets — identical
    /// final WM, and the index actually probed. Exercises the interned
    /// σ-binding + arena representation end to end: both COND engines
    /// share it, so any id-collision, slot-reuse, or withdraw bug shows
    /// up as divergence from the recomputing query oracle or between the
    /// two access paths.
    #[test]
    fn indexed_cond_matches_scan(seed in 0u64..400, ops in 30usize..80) {
        let (cfg, trace) = random_trace(seed, ops);
        let rules = cfg.rules();
        let mut indexed = CondEngine::new(ProductionDb::new(rules.clone()).unwrap());
        let mut scan = CondEngine::new(ProductionDb::new(rules.clone()).unwrap());
        scan.set_pattern_index(false);
        let mut oracle = make_engine(EngineKind::Query, ProductionDb::new(rules).unwrap());
        for (step, op) in trace.iter().enumerate() {
            match op {
                Op::Insert(c, t) => {
                    indexed.insert(ClassId(*c), t.clone());
                    scan.insert(ClassId(*c), t.clone());
                    oracle.insert(ClassId(*c), t.clone());
                }
                Op::Remove(c, t) => {
                    indexed.remove(ClassId(*c), t);
                    scan.remove(ClassId(*c), t);
                    oracle.remove(ClassId(*c), t);
                }
            }
            prop_assert_eq!(
                indexed.conflict_set().sorted(),
                scan.conflict_set().sorted(),
                "conflict sets diverge at step {}",
                step
            );
            prop_assert_eq!(
                indexed.conflict_set().sorted(),
                oracle.conflict_set().sorted(),
                "cond diverges from the query oracle at step {}",
                step
            );
        }
        prop_assert_eq!(indexed.pattern_count(), scan.pattern_count());
        // Exact pattern-store equality: σ, derived constraints, and the
        // support multiset of every counter, supporter by supporter.
        prop_assert_eq!(indexed.support_snapshot(), scan.support_snapshot());
        // Final WM: same live tuples in every class.
        for c in 0..cfg.classes {
            let wm = |e: &CondEngine| {
                let mut v: Vec<String> = e
                    .pdb()
                    .wm_scan(ClassId(c))
                    .unwrap()
                    .into_iter()
                    .map(|(_, t)| format!("{t:?}"))
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(wm(&indexed), wm(&scan), "WM of class {} diverges", c);
            prop_assert_eq!(
                indexed.render_cond(ClassId(c)),
                scan.render_cond(ClassId(c)),
                "COND relation {} diverges",
                c
            );
        }
        let (probes, _) = indexed.pattern_io().unwrap();
        prop_assert!(probes > 0, "the indexed engine must actually probe");
        let (scan_probes, _) = scan.pattern_io().unwrap();
        prop_assert_eq!(scan_probes, 0, "the scan engine must not probe");
    }
}

/// Canonical per-batch fingerprint: net conflict-delta effect (adds
/// minus removes per instantiation, zeros dropped, sorted) plus the WM
/// insert/delete counts of the batch summary. Set-oriented engines may
/// cancel an insert-then-remove pair inside one batch that per-change
/// engines emit and retract, so only the net effect is comparable.
fn batch_fingerprints(events: Vec<obs::Event>) -> Vec<Vec<String>> {
    let mut batches = Vec::new();
    let mut net: BTreeMap<String, i64> = BTreeMap::new();
    for ev in events {
        match ev {
            obs::Event::ConflictDelta {
                add,
                rule,
                rule_name,
                wmes,
                ..
            } => {
                *net.entry(format!("r{rule} {rule_name} {wmes}"))
                    .or_insert(0) += if add { 1 } else { -1 };
            }
            obs::Event::BatchApplied {
                inserts, deletes, ..
            } => {
                let mut fp: Vec<String> = net
                    .iter()
                    .filter(|(_, n)| **n != 0)
                    .map(|(k, n)| format!("{n:+} {k}"))
                    .collect();
                fp.push(format!("wm +{inserts}/-{deletes}"));
                batches.push(fp);
                net.clear();
            }
            _ => {}
        }
    }
    batches
}

/// Batched maintenance traces: every engine's `apply_delta` emits WM
/// events, conflict deltas, and a `BatchApplied` summary — and the net
/// per-batch effect is identical across all five engines.
#[test]
fn batched_trace_agrees_across_engines() {
    let (cfg, trace) = random_trace(21, 60);
    // Split the trace into delta batches of 6 changes each.
    let batches: Vec<Vec<WmChange>> = trace
        .chunks(6)
        .map(|chunk| {
            chunk
                .iter()
                .map(|op| match op {
                    Op::Insert(c, t) => WmChange::Insert(ClassId(*c), t.clone()),
                    Op::Remove(c, t) => WmChange::Remove(ClassId(*c), t.clone()),
                })
                .collect()
        })
        .collect();
    let mut streams: Vec<(&'static str, Vec<Vec<String>>)> = Vec::new();
    for &kind in EngineKind::ALL.iter() {
        let mut engine = make_engine(kind, ProductionDb::new(cfg.rules()).unwrap());
        let tracer = obs::Tracer::new(obs::Sink::ring(1_000_000));
        engine.set_tracer(tracer.clone());
        for batch in &batches {
            engine.apply_delta(batch);
        }
        let fps = batch_fingerprints(tracer.ring_events().unwrap());
        assert_eq!(
            fps.len(),
            batches.len(),
            "{}: one BatchApplied per delta batch",
            engine.name()
        );
        streams.push((engine.name(), fps));
    }
    let (base_name, base) = &streams[0];
    assert!(
        base.iter().any(|fp| fp.len() > 1),
        "workload should produce net conflict-delta effects"
    );
    for (name, stream) in &streams[1..] {
        assert_eq!(
            base, stream,
            "batched traces diverge: {base_name} vs {name}"
        );
    }
}
