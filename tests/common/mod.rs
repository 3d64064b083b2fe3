//! Helpers shared by the integration-test binaries (`mod common;`).

// Each test binary compiles this module on its own and uses a subset.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ops5::ClassId;
use prodsys::{make_engine, EngineKind, MatchEngine, ProductionDb};
use relstore::{Database, Restriction, Tuple};

/// Sorted per-class dump of the whole working memory.
pub fn wm_all(pdb: &ProductionDb) -> Vec<Vec<Tuple>> {
    let class = |c| {
        let scan = pdb.wm_scan(ClassId(c)).expect("wm scan");
        let mut rows: Vec<Tuple> = scan.into_iter().map(|(_, t)| t).collect();
        rows.sort();
        rows
    };
    (0..pdb.class_count()).map(class).collect()
}

/// Sorted dump of every relation's tuples, name-keyed: "the same
/// database" for the storage tests.
pub fn dump(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    let mut out: Vec<(String, Vec<Tuple>)> = (db.relation_names().into_iter())
        .map(|(rid, name)| {
            let rows = db.select(rid, &Restriction::default()).expect("scan");
            let mut rows: Vec<Tuple> = rows.into_iter().map(|(_, t)| t).collect();
            rows.sort();
            (name, rows)
        })
        .collect();
    out.sort();
    out
}

/// A fresh directory name under the temp dir, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        Scratch(std::env::temp_dir().join(format!("differential-{tag}-{pid}-{n}")))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// A `kind` engine over `src` on `db`, with `rows` (class index, tuple)
/// inserted one at a time.
pub fn load(
    kind: EngineKind,
    db: Arc<Database>,
    src: &str,
    rows: impl IntoIterator<Item = (usize, Tuple)>,
) -> Box<dyn MatchEngine> {
    let rules = ops5::compile(src).expect("program compiles");
    let mut engine = make_engine(
        kind,
        ProductionDb::with_db(db, rules).expect("wm relations"),
    );
    for (class, t) in rows {
        engine.insert(ClassId(class), t);
    }
    engine
}

pub mod differential;
pub mod grammar;
