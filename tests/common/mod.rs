//! Helpers shared by the integration-test binaries (`mod common;`).

// Each test binary compiles this module on its own and uses a subset.
#![allow(dead_code)]

use ops5::ClassId;
use prodsys::MatchEngine;
use relstore::Tuple;

/// One class's working memory, sorted for stable comparison.
pub fn wm_class(engine: &dyn MatchEngine, class: usize) -> Vec<Tuple> {
    let scan = engine.pdb().wm_scan(ClassId(class)).expect("wm scan");
    let mut rows: Vec<Tuple> = scan.into_iter().map(|(_, t)| t).collect();
    rows.sort();
    rows
}

/// Sorted per-class dump of the whole working memory.
pub fn wm_all(engine: &dyn MatchEngine) -> Vec<Vec<Tuple>> {
    (0..engine.pdb().class_count())
        .map(|class| wm_class(engine, class))
        .collect()
}

pub mod differential;
pub mod grammar;
