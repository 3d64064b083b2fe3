//! Generated programs and traces (`tests/common/grammar.rs`) through the
//! one differential driver. Besides agreeing with the oracle, every case
//! checks two match-space invariants on every engine: a bounce (insert
//! then remove one WME) restores `match_entries` (a block of cases where
//! half the ops bounce), and deleting every WME empties the conflict set
//! and returns `match_entries` to its value on the empty WM.

mod common;

use common::differential::sweep_block;
use common::grammar::Bias;

#[test]
fn engines_agree() {
    sweep_block(4, Bias::Any);
}

#[test]
fn rete_remove_inverts_insert() {
    sweep_block(5, Bias::Bounces);
}

#[test]
fn cond_patterns_collected_on_full_deletion() {
    sweep_block(6, Bias::Any);
}
