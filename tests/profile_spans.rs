//! The span profile of the re-evaluation engines: every maintenance entry
//! point opens the engine's `*.maintain` span exactly once, so inclusive
//! time is not double-counted when a non-batching `maintain_delta` falls
//! back to per-change maintenance.
//!
//! The profiler is process-global; this file holds the only test that
//! enables it in this test binary.

use prodsys::{make_engine, ClassId, EngineKind, ProductionDb, WmChange};
use relstore::tuple;

const SRC: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) --> (remove 1))
"#;

#[test]
fn maintain_span_opens_once_per_entry_point() {
    for (kind, span) in [
        (EngineKind::Query, "query.maintain"),
        (EngineKind::Marker, "marker.maintain"),
    ] {
        for batching in [true, false] {
            let rules = ops5::compile(SRC).expect("program compiles");
            let mut engine = make_engine(kind, ProductionDb::new(rules).expect("pdb"));
            engine.set_batching(batching);
            let changes: Vec<_> = (0..4i64)
                .map(|i| WmChange::Insert(ClassId(0), tuple![i, i % 2]))
                .chain([WmChange::Insert(ClassId(1), tuple![0, 7])])
                .collect();
            obs::prof::reset();
            obs::prof::set_enabled(true);
            let deltas = engine.apply_delta(&changes);
            obs::prof::set_enabled(false);
            let folded = obs::prof::take().folded(kind.label());
            assert_eq!(deltas.len(), 2, "items 0 and 2 join Ref 0");
            let case = format!("{} batching={batching}:\n{folded}", kind.label());
            assert!(
                folded
                    .lines()
                    .any(|l| l.starts_with(&format!("{};{span}", kind.label()))),
                "{case}"
            );
            assert!(!folded.contains(&format!("{span};{span}")), "{case}");
        }
    }
}
