//! COND deletion maintenance resolves a departed blocker by a seeded
//! query instead of re-evaluating the rule. The grammar covers every way
//! a negated CE can join — by `=`, by a range operator, to two positive
//! CEs, to none, chained — and positive CEs that share a class, over
//! traces with duplicate WMEs, per change and in `apply_delta` batches.

mod common;

use common::differential::sweep_block;
use common::grammar::Bias;

#[test]
fn cond_equals_oracle_and_rete_after_every_change() {
    sweep_block(7, Bias::Negation);
}

#[test]
fn cond_equals_oracle_after_every_batch() {
    sweep_block(8, Bias::Negation);
}
