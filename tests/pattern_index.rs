//! The COND engine's σ-binding pattern index is a pure access-path
//! change: the differential driver runs every case on an indexed and a
//! scanning COND and requires equal conflict sets and pattern counts
//! after every step and equal pattern stores (supporter by supporter)
//! after the trace, while the index must pay for itself on the skewed
//! join. Batched maintenance traces, so the per-batch *net*
//! conflict-delta effect must agree across engines too.

mod common;

use common::differential::{check, sweep_block, traced_deltas_agree};
use common::grammar::{Bias, Case};

#[test]
fn indexed_cond_matches_scan() {
    sweep_block(9, Bias::Any);
}

/// A pattern's binding arrives as `2.0` on one access path and as the
/// equal `2` on the other: the stores are equal and must print alike.
#[test]
fn equal_int_and_float_bindings_print_alike() {
    let src = "(literalize C0 a0 a1)\n(literalize C1 a0 a1 a2)\n\
        (p R0 (C1 ^a0 <V0> ^a1 <V1>) -(C1 ^a0 0 ^a1 <V1> ^a2 {<= <V0>}) \
        (C1 ^a0 <V0> ^a1 {< <V0>} ^a2 <V2>) --> (write r0 <V2>))";
    check(&Case::named(
        src,
        &["+1 1 1e19 1", "+1 2.0 1 nil", "+1 2 2.0 0"],
    ));
}

/// The margin the index buys at scale, on the skewed join the committed
/// bench snapshots run: the same batched load and run fire identically,
/// and scanning examines more patterns and reads at least twice the
/// tuples (logical I/O, which counts each index probe) that probing
/// does. The small generated programs do not show the I/O margin: their
/// groups hold a few patterns, so a probe costs about what it saves.
#[test]
fn indexed_cond_reads_half_of_scan_on_the_skewed_join() {
    use ops5::ClassId;
    use prodsys::{make_engine, EngineKind, ProductionDb, SequentialExecutor, Strategy};
    use prodsys_bench::bench_json::{scaled_fired, scaled_load, SCALED_DEMO};
    let items = 192;
    let run = |pattern_index: bool| {
        let rules = ops5::compile(SCALED_DEMO).unwrap();
        let mut engine = make_engine(EngineKind::Cond, ProductionDb::new(rules).unwrap());
        engine.set_pattern_index(pattern_index);
        let mut exec = SequentialExecutor::new(engine, Strategy::Fifo);
        let (refs, item_rows) = scaled_load(items);
        exec.insert_batch(ClassId(1), refs);
        exec.insert_batch(ClassId(0), item_rows);
        let fired = exec.run(100_000).fired as u64;
        let engine = exec.engine();
        let (_, scanned) = engine.pattern_io().unwrap();
        (
            fired,
            scanned,
            engine.pdb().db().stats().snapshot().logical_io(),
        )
    };
    let (indexed_fired, indexed_scanned, indexed_io) = run(true);
    let (scan_fired, scan_scanned, scan_io) = run(false);
    assert_eq!(indexed_fired, scaled_fired(items));
    assert_eq!(scan_fired, indexed_fired);
    assert!(
        indexed_scanned <= scan_scanned,
        "probing examined {indexed_scanned} patterns vs scanning {scan_scanned}"
    );
    assert!(
        scan_io >= 2 * indexed_io,
        "scan logical_io {scan_io} vs indexed {indexed_io}"
    );
}

/// Every engine's `apply_delta` traces its batch, and the net per-batch
/// effect is identical across engines.
#[test]
fn batched_trace_agrees_across_engines() {
    let effects: usize = (0..8)
        .map(|seed| traced_deltas_agree(&Case::generate(seed, Bias::Any), 6, false))
        .sum();
    assert!(
        effects > 0,
        "the cases should produce net conflict-delta effects"
    );
}
