//! Persistent working memory: "the working memory can reside on secondary
//! storage and be persistent" (§3.2). Snapshot the database, restore it,
//! re-attach a fresh engine, and continue exactly where the run stopped.

use ops5::{ClassId, RuleId};
use prodsys::{bootstrap, make_engine, EngineKind, ProductionDb};
use relstore::{snapshot, tuple};
use std::sync::Arc;

const SRC: &str = r#"
    (literalize Emp name salary manager dno)
    (literalize Dept dno dname floor manager)
    (p R2
        (Emp ^dno <D>)
        (Dept ^dno <D> ^dname Toy ^floor 1)
        -->
        (remove 1))
    (p Orphan
        (Emp ^name <N> ^dno <D>)
        -(Dept ^dno <D>)
        -->
        (remove 1))
"#;

#[test]
fn snapshot_restore_rebuilds_conflict_set() {
    for kind in EngineKind::ALL {
        // Phase 1: load WM and match.
        let rules = ops5::compile(SRC).unwrap();
        let pdb = ProductionDb::new(rules.clone()).unwrap();
        let mut engine = make_engine(kind, pdb.clone());
        engine.insert(ClassId(0), tuple!["Ann", 1000, "Sam", 7]);
        engine.insert(ClassId(0), tuple!["Bob", 2000, "Sam", 8]);
        engine.insert(ClassId(1), tuple![7, "Toy", 1, "Sam"]);
        // R2 matches Ann; Orphan matches Bob, while Ann's Orphan token is
        // suspended behind Dept 7 (DB-Rete: a LEFT row with negcount 1).
        let before = engine.conflict_set().sorted();
        assert_eq!(before.len(), 2);

        // Phase 2: snapshot, restore into a new database, re-attach.
        let image = snapshot::save(pdb.db()).unwrap();
        let restored = Arc::new(snapshot::load(image).unwrap());
        let pdb2 = ProductionDb::attach(restored, rules).unwrap();
        assert_eq!(pdb2.wm_total(), 3, "{}", kind.label());
        // The DB-Rete engine re-attaches to its snapshot-restored
        // LEFT/RIGHT relations; the others rebuild via bootstrap.
        let mut engine2 = make_engine(kind, pdb2);
        bootstrap(engine2.as_mut());
        assert_eq!(engine2.conflict_set().sorted(), before, "{}", kind.label());

        // Phase 3: the restored system keeps matching.
        let deltas = engine2.insert(ClassId(0), tuple!["Cid", 3000, "Sam", 7]);
        assert_eq!(deltas.len(), 1, "{}", kind.label());

        // Phase 4: removing the blocker revives the token that was
        // suspended when the snapshot was taken.
        let deltas = engine2.remove(ClassId(1), &tuple![7, "Toy", 1, "Sam"]);
        assert!(
            deltas.iter().any(|d| {
                let i = d.instantiation();
                d.is_add()
                    && i.rule == RuleId(1)
                    && i.wmes[0].tuple == tuple!["Ann", 1000, "Sam", 7]
            }),
            "{}: {deltas:?}",
            kind.label()
        );
        engine.insert(ClassId(0), tuple!["Cid", 3000, "Sam", 7]);
        engine.remove(ClassId(1), &tuple![7, "Toy", 1, "Sam"]);
        assert_eq!(
            engine2.conflict_set().sorted(),
            engine.conflict_set().sorted(),
            "{}",
            kind.label()
        );
    }
}

/// `bootstrap` now replays the restored WM as one §4.2 delta batch; the
/// result must be indistinguishable from the old tuple-at-a-time replay.
#[test]
fn batched_bootstrap_matches_per_tuple_replay() {
    for kind in EngineKind::ALL {
        let rules = ops5::compile(SRC).unwrap();
        let pdb = ProductionDb::new(rules.clone()).unwrap();
        let mut engine = make_engine(kind, pdb.clone());
        for i in 0..12i64 {
            engine.insert(ClassId(0), tuple![format!("e{i}"), 100 * i, "Sam", i % 3]);
        }
        engine.insert(ClassId(1), tuple![0, "Toy", 1, "Sam"]);
        engine.insert(ClassId(1), tuple![2, "Toy", 1, "Pat"]);

        let image = snapshot::save(pdb.db()).unwrap();

        // Batched path: the one `bootstrap` now uses.
        let restored = Arc::new(snapshot::load(image.clone()).unwrap());
        let pdb_batch = ProductionDb::attach(restored, rules.clone()).unwrap();
        let mut batched = make_engine(kind, pdb_batch.clone());
        bootstrap(batched.as_mut());

        // Reference path: replay the same WM tuple at a time.
        let restored = Arc::new(snapshot::load(image).unwrap());
        let pdb_seq = ProductionDb::attach(restored, rules).unwrap();
        let mut per_tuple = make_engine(kind, pdb_seq.clone());
        if batched.needs_bootstrap() {
            for c in 0..pdb_seq.class_count() {
                let class = ClassId(c);
                for (tid, tuple) in pdb_seq.wm_scan(class).unwrap() {
                    per_tuple.maintain_insert(class, tid, &tuple);
                }
            }
        }

        assert_eq!(
            batched.conflict_set().sorted(),
            per_tuple.conflict_set().sorted(),
            "{}",
            kind.label()
        );
        assert_eq!(
            engine.conflict_set().sorted(),
            batched.conflict_set().sorted(),
            "{}: restored match state equals the original",
            kind.label()
        );
    }
}

#[test]
fn snapshot_preserves_wm_exactly() {
    let rules = ops5::compile(SRC).unwrap();
    let pdb = ProductionDb::new(rules.clone()).unwrap();
    let mut engine = make_engine(EngineKind::Cond, pdb.clone());
    for i in 0..50i64 {
        engine.insert(ClassId(0), tuple![format!("e{i}"), 100 * i, "Sam", i % 5]);
    }
    engine.remove(ClassId(0), &tuple!["e7", 700, "Sam", 2]);

    let image = snapshot::save(pdb.db()).unwrap();
    let restored = snapshot::load(image).unwrap();
    let emp = restored.rel_id("Emp").unwrap();
    assert_eq!(restored.relation_len(emp), 49);
    // Content check via sorted dumps.
    let mut orig: Vec<_> = pdb
        .db()
        .select(pdb.class_rel(ClassId(0)), &relstore::Restriction::default())
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let mut back: Vec<_> = restored
        .select(emp, &relstore::Restriction::default())
        .unwrap()
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    orig.sort();
    back.sort();
    assert_eq!(orig, back);
}
