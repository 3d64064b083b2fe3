//! Set-oriented batch matching: the driver delivers every case both per
//! change and in `apply_delta` batches, so a delta-batched load must
//! leave every engine with the conflict set and run of per-tuple loading.

mod common;

use common::differential::check;
use common::grammar::Case;
use relstore::tuple;
use workload::{RuleGenConfig, TraceConfig};

const LOAD_SRC: &str = r#"
    (literalize Item n k)
    (literalize Ref k w)
    (literalize Hit n)
    (p Match (Item ^n <N> ^k <K>) (Ref ^k <K> ^w <W>) -(Hit ^n <N>) --> (make Hit ^n <N>))
    (p Retire (Item ^n <N>) (Hit ^n <N>) --> (remove 1) (remove 2) (write retired <N>))
"#;

/// Four `Ref`s and 24 `Item`s, in batches of 24.
#[test]
fn insert_batch_matches_per_tuple_loading() {
    let refs = (0..4i64).map(|r| ("Ref", tuple![r, r * 10]));
    let items = (0..24i64).map(|i| ("Item", tuple![i, i % 6]));
    let mut case = Case::loaded(LOAD_SRC, &refs.chain(items).collect::<Vec<_>>(), &[]);
    case.width = 24;
    check(&case);
}

/// The repo benchmark's rule and trace generator (`workload::gen`), its
/// trace delivered as one delta set.
#[test]
fn engines_agree_on_generated_delta_batches() {
    let cfg = RuleGenConfig {
        rules: 8,
        ces_per_rule: 3,
        domain: 3,
        negated_fraction: 0.4,
        seed: 7,
        ..Default::default()
    };
    let trace = TraceConfig {
        ops: 30,
        delete_fraction: 0.2,
        join_domain: 2,
        select_domain: 3,
        seed: 99,
    };
    let ops = (trace.trace(cfg.classes, cfg.attrs).into_iter())
        .map(Into::into)
        .collect();
    let mut case = Case::named(&cfg.source(), &[]);
    (case.ops, case.width) = (ops, 30);
    check(&case);
}
