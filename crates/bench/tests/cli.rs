//! Harness CLI contract: rejected arguments exit 2 before anything runs,
//! `--help` documents every flag and selector the parser accepts, and
//! `--bench-check` gates a snapshot.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_harness"))
}

#[test]
fn unknown_flag_exits_2() {
    // The rest are retired flags: the worker sweep's, the wall-time
    // history's and the paged smoke's (now unit tests).
    for args in [
        &["--no-such-flag"][..],
        &["--bench-workers", "F"],
        &["--shards", "4"],
        &["--history", "F"],
        &["--paged"],
        &["--pool-pages", "4"],
    ] {
        let out = harness().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_selector_exits_2() {
    // `e5` (parallel COND propagation) was retired with its thread fan-out.
    for sel in ["e99", "e5"] {
        let out = harness().arg(sel).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{sel}");
    }
}

#[test]
fn help_documents_every_flag_and_selector() {
    let out = harness().arg("--help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let flags = prodsys_bench::FLAGS.iter().flat_map(|f| f.names);
    let selectors = prodsys_bench::EXPERIMENTS.iter().flat_map(|e| e.names);
    for name in flags.chain(selectors) {
        assert!(text.contains(name), "--help missing {name}:\n{text}");
    }
}

#[test]
fn rejected_arguments_exit_2_before_any_output() {
    let journal = std::env::temp_dir().join(format!("cli_items_{}.jsonl", std::process::id()));
    for args in [
        vec!["e7", "--items", "5"],
        vec!["all", "--why", "Mark@1"],
        vec!["--bench-json", "F", "--items", "0"],
        vec!["--record", journal.to_str().unwrap(), "--items", "0"],
        vec!["--record", journal.to_str().unwrap(), "--items", "-5"],
    ] {
        let out = harness().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
    assert!(!journal.exists(), "a rejected --record wrote its journal");
}

/// `json` with `f` applied to the first `"key":N` value after `row`.
fn doctor(json: &str, row: &str, key: &str, f: impl Fn(u64) -> u64) -> String {
    let field = format!("\"{key}\":");
    let at = json.find(row).expect("row present");
    let at = at + json[at..].find(&field).expect("field present") + field.len();
    let len = json[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let n: u64 = json[at..at + len].parse().unwrap();
    format!("{}{}{}", &json[..at], f(n), &json[at + len..])
}

#[test]
fn bench_check_requires_counters_to_repeat() {
    let dir = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("snapshot.json");
    let check = |path: &std::path::Path| {
        let out = harness().arg("--bench-check").arg(path).output().unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let out = harness()
        .arg("--bench-json")
        .arg(&snapshot)
        .args(["--items", "96"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let (code, err) = check(&snapshot);
    assert_eq!(code, Some(0), "{err}");

    let json = std::fs::read_to_string(&snapshot).unwrap();
    let doctored = dir.join("doctored.json");
    let row = "{\"engine\":\"query\",";
    std::fs::write(&doctored, doctor(&json, row, "logical_io", |n| n + 1)).unwrap();
    let (code, err) = check(&doctored);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("query: logical_io"), "{err}");

    // A committed allocation volume a third of the run's trips the 2x bound.
    std::fs::write(&doctored, doctor(&json, row, "alloc_bytes", |n| n / 3)).unwrap();
    let (code, err) = check(&doctored);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("query: alloc_bytes"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_check_missing_snapshot_exits_1() {
    let out = harness()
        .args(["--bench-check", "/no/such/file.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}
