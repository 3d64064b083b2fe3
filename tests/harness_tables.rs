//! The harness's deterministic tables, pinned byte for byte.
//!
//! `tests/fixtures/harness_tables.txt` is the stdout of
//! `harness t1 t2 t3 t4 f3 e2 e7 e8`. These selectors print no timings,
//! so rendering them through the parsed selectors and the `EXPERIMENTS`
//! runners must reproduce it exactly, the banner line aside. Regenerate
//! the fixture only when a table changes on purpose.

use prodsys_bench::{parse_args, Args};

#[test]
fn deterministic_tables_render_byte_identically() {
    let raw: Vec<String> = "t1 t2 t3 t4 f3 e2 e7 e8"
        .split(' ')
        .map(String::from)
        .collect();
    let args = parse_args(&raw).unwrap();
    let mut out = String::new();
    for experiment in &args.experiments {
        for table in (experiment.run)(&Args::default()).unwrap() {
            out += &table.render();
        }
    }
    let fixture = include_str!("fixtures/harness_tables.txt");
    let (_banner, tables) = fixture.split_once('\n').unwrap();
    if out != tables {
        let at = out
            .lines()
            .zip(tables.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(out.lines().count().min(tables.lines().count()));
        panic!(
            "line {} differs:\n  now:     {:?}\n  fixture: {:?}",
            at + 2,
            out.lines().nth(at),
            tables.lines().nth(at)
        );
    }
}
