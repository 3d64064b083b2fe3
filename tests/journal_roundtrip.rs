//! Flight-recorder properties.
//!
//! 1. Record→replay determinism: journaling any run of the batched
//!    engines (query, cond, marker) under 1 or 4 workers, then replaying
//!    from nothing but the journal file, reproduces the exact firing
//!    sequence and final working memory ([`prodsys_bench::replay_run`]
//!    verifies both and errors on the first discrepancy).
//! 2. JSON round-trip: every `Event` variant and the journal meta line
//!    survive `to_json` → `from_json` unchanged, so journals written by
//!    one build are readable by the next (and a field a later build
//!    drops is ignored when an older journal is read).
//! 3. Wire format and ingest pinned by the checked-in journal
//!    `tests/fixtures/flake_regression.jsonl`: every event line
//!    re-encodes byte for byte, and the relations generated from the
//!    event table hold exactly its records.

use obs::{Event, Journal, JournalMeta, LoadOp, LoadValue};
use prodsys::{EngineKind, ProductionDb};
use proptest::prelude::*;
use relstore::{Database, Restriction};

/// The confluent Mark/Consume family the concurrent-equivalence suite
/// uses: racy (Consume deletes support out from under Mark) but with an
/// order-independent final state.
const SRC: &str = r#"
    (literalize Item n k)
    (literalize Done n)
    (literalize Log n)
    (p Mark (Item ^n <N> ^k <K>) -(Done ^n <N>) --> (make Done ^n <N>))
    (p Consume (Item ^n <N> ^k <K>) (Done ^n <N>) --> (remove 1) (make Log ^n <N>))
"#;

fn item_load(items: &[(i64, i64)]) -> Vec<LoadOp> {
    items
        .iter()
        .map(|&(n, k)| LoadOp {
            insert: true,
            class: 0,
            values: vec![LoadValue::Int(n), LoadValue::Int(k)],
        })
        .collect()
}

fn tmp_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "journal_roundtrip_{}_{tag}.jsonl",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Record under racing workers, replay serially from the file alone:
    /// identical firing sequence, identical final WM, for each batched
    /// engine × worker count.
    #[test]
    fn record_replay_reproduces_run(
        items in proptest::collection::vec((0i64..6, 0i64..4), 1..14),
    ) {
        for kind in [EngineKind::Query, EngineKind::Cond, EngineKind::Marker] {
            for workers in [1usize, 4] {
                let path = tmp_path(&format!("{}_{workers}", kind.label()));
                let rec = prodsys_bench::record_run_with(
                    &path, kind, workers, SRC, item_load(&items), 10_000,
                );
                prop_assert!(rec.is_ok(), "record: {:?}", rec.err());
                let rep = prodsys_bench::replay_run(&path);
                let _ = std::fs::remove_file(&path);
                match rep {
                    Ok(out) => prop_assert_eq!(out.firings, rec.unwrap().fired),
                    Err(e) => prop_assert!(
                        false,
                        "{} workers={workers}: replay diverged: {e}",
                        kind.label()
                    ),
                }
            }
        }
    }
}

/// One of every `Event` variant, with awkward strings included.
fn all_variants() -> Vec<Event> {
    vec![
        Event::CycleStart { cycle: 3 },
        Event::CycleEnd {
            cycle: 3,
            conflict_len: 2,
            fired_total: 9,
        },
        Event::WmInsert {
            class: 1,
            class_name: "Item \"q\"".into(),
            tuple: "(1, \\2)".into(),
            tid: 77,
        },
        Event::WmRemove {
            class: 2,
            class_name: "Done".into(),
            tuple: "(1)".into(),
            tid: 0,
        },
        Event::MatchMaintain {
            engine: "cond",
            class: 0,
            insert: true,
            adds: 1,
            removes: 2,
            detect_ns: 10,
            total_ns: 20,
        },
        Event::PropagateSpan {
            class: 4,
            class_name: "C".into(),
            scanned: 5,
            probes: 6,
            span_ns: 7,
        },
        Event::BatchApplied {
            engine: "query",
            inserts: 1,
            deletes: 0,
            rules_awakened: 2,
            total_ns: 9,
            detect_ns: 5,
            pattern_probes: 3,
            pattern_scanned: 11,
        },
        Event::RoundSpan {
            round: 2,
            candidates: 3,
            committed: 2,
            aborted: 1,
            critical_ns: 4,
            span_ns: 5,
        },
        Event::ConflictDelta {
            add: true,
            rule: 1,
            rule_name: "Mark".into(),
            wmes: "Item(1, 2)".into(),
            support: "t3.1 t7.2".into(),
            absent: "Done(1)".into(),
        },
        Event::ConflictDelta {
            add: false,
            rule: 1,
            rule_name: "Mark".into(),
            wmes: "Item(1, 2)".into(),
            support: String::new(),
            absent: String::new(),
        },
        Event::RuleSelect {
            cycle: 1,
            rule: 0,
            rule_name: "R".into(),
            conflict_len: 4,
        },
        Event::RuleFire {
            cycle: 1,
            rule: 0,
            rule_name: "R".into(),
            rhs_ns: 8,
            inserts: 1,
            removes: 1,
        },
        Event::Derivation {
            rule: 0,
            rule_name: "R".into(),
            wmes: "A(1)".into(),
            support: "t0.1".into(),
            absent: "B(1)".into(),
        },
        Event::TxnBegin {
            txn: 9,
            rule: 1,
            rule_name: "Consume".into(),
        },
        Event::LockWait {
            txn: 9,
            target: "rel3[t9.1]".into(),
            mode: "shared",
        },
        Event::LockAcquire {
            txn: 9,
            target: "rel3".into(),
            mode: "exclusive",
            wait_ns: 123,
        },
        Event::DeadlockVictim {
            txn: 9,
            wait_ns: 70,
        },
        Event::DeadlockGraph {
            victim: 9,
            edges: "t9->t4 exclusive rel3[t9.1]; t4->t9 shared rel3".into(),
        },
        Event::Firing {
            seq: 41,
            round: 7,
            txn: 9,
            rule: 1,
            rule_name: "Consume".into(),
            wmes: "Item(1, 2), Done(1)".into(),
            support: "t0.1 t1.1".into(),
            critical_ns: 800,
        },
        Event::TxnAbort {
            txn: 9,
            reason: "deadlock".into(),
        },
        Event::TxnCommit { txn: 9, writes: 2 },
    ]
}

#[test]
fn every_event_variant_round_trips_through_json() {
    let variants = all_variants();
    // One of each variant is present (two ConflictDelta directions).
    let kinds: std::collections::BTreeSet<&str> = variants.iter().map(Event::kind).collect();
    assert_eq!(
        kinds.len(),
        Event::KINDS.len(),
        "cover every Event variant: {kinds:?}"
    );
    for (i, event) in variants.iter().enumerate() {
        let line = event.to_json(i as u64);
        let (seq, back) = Event::from_json(&line)
            .unwrap_or_else(|e| panic!("parse {}: {e}\n{line}", event.kind()));
        assert_eq!(seq, i as u64);
        assert_eq!(&back, event, "{line}");
    }
}

/// Journals written before `propagate_span` lost its always-false
/// `parallel` field still read: the extra key is ignored.
#[test]
fn legacy_propagate_span_line_parses() {
    let line = concat!(
        "{\"seq\":5,\"event\":\"propagate_span\",\"class\":4,\"class_name\":\"C\",",
        "\"scanned\":5,\"probes\":6,\"span_ns\":7,\"parallel\":false}"
    );
    let (seq, back) = Event::from_json(line).unwrap();
    assert_eq!(seq, 5);
    assert_eq!(
        back,
        Event::PropagateSpan {
            class: 4,
            class_name: "C".into(),
            scanned: 5,
            probes: 6,
            span_ns: 7,
        }
    );
}

#[test]
fn journal_meta_round_trips_through_json() {
    let meta = JournalMeta {
        engine: "query".into(),
        mode: "concurrent".into(),
        workers: 4,
        strategy: "canonical".into(),
        max_fired: 10_000,
        program: SRC.into(),
        load: vec![
            LoadOp {
                insert: true,
                class: 0,
                values: vec![LoadValue::Int(-3), LoadValue::Float(2.5)],
            },
            LoadOp {
                insert: false,
                class: 1,
                values: vec![
                    LoadValue::Str("a \"b\"".into()),
                    LoadValue::Bool(false),
                    LoadValue::Null,
                ],
            },
        ],
    };
    let line = meta.to_json();
    assert!(!line.contains("batching"), "{line}");
    let back = JournalMeta::from_json(&line).unwrap();
    assert_eq!(back, meta);
    assert_eq!(back.to_json(), line);
    // Journals written before the flag was dropped still carry it.
    let legacy = line.replacen(",\"strategy\"", ",\"batching\":true,\"strategy\"", 1);
    assert!(legacy.contains("\"batching\":true"), "{legacy}");
    assert_eq!(JournalMeta::from_json(&legacy).unwrap(), meta);
}

/// A `u32` field (`class`, `rule`) at 2^32 is rejected, not
/// truncated to 0: journal files come from outside the program.
#[test]
fn u32_fields_out_of_range_are_rejected() {
    let mut checked = 0;
    for event in all_variants() {
        let line = event.to_json(0);
        for key in ["class", "rule"] {
            let Some((head, rest)) = line.split_once(&format!("\"{key}\":")) else {
                continue;
            };
            let tail = rest.trim_start_matches(|c: char| c.is_ascii_digit());
            let at = |n: u64| format!("{head}\"{key}\":{n}{tail}");
            let max = Event::from_json(&at(u64::from(u32::MAX)));
            assert!(max.is_ok(), "{}: {max:?}", event.kind());
            let err = Event::from_json(&at(1 << 32)).unwrap_err();
            assert_eq!(
                err,
                format!("field \"{key}\" out of range"),
                "{}",
                at(1 << 32)
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 11, "4 class + 7 rule (two conflict_delta lines)");
    // The meta line's load ops carry a class too.
    let meta = JournalMeta {
        engine: "query".into(),
        mode: "sequential".into(),
        workers: 1,
        strategy: "canonical".into(),
        max_fired: 1,
        program: SRC.into(),
        load: item_load(&[(1, 2)]),
    }
    .to_json();
    let wide = meta.replacen("\"class\":0", "\"class\":4294967296", 1);
    assert_ne!(wide, meta);
    let err = JournalMeta::from_json(&wide).unwrap_err();
    assert_eq!(err, "field \"class\" out of range");
}

fn fixture() -> (String, Journal) {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/flake_regression.jsonl"
    );
    let text = std::fs::read_to_string(path).unwrap();
    let journal = Journal::parse(&text).unwrap();
    (text, journal)
}

/// The `sellis88-journal/v1` wire format is pinned by a journal written
/// before the event table existed: every event line re-encodes byte for
/// byte, and its meta line (which still carries the legacy `batching`
/// key) parses.
#[test]
fn fixture_event_lines_re_encode_byte_identically() {
    let (text, journal) = fixture();
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let meta = lines.next().unwrap();
    assert!(meta.contains("\"batching\":true"), "{meta}");
    assert_eq!(JournalMeta::from_json(meta).unwrap(), journal.meta);
    let mut n = 0;
    for line in lines {
        let (seq, event) = Event::from_json(line).unwrap();
        assert_eq!(event.to_json(seq), line);
        n += 1;
    }
    assert_eq!(n, 123);
}

/// Ingest generated from the event table: each `j_<kind>` holds exactly
/// that kind's records, `j_event` holds them all, and the DBMS fold of
/// the WM deltas agrees with the in-memory one.
#[test]
fn fixture_ingests_into_per_kind_relations() {
    let (_, journal) = fixture();
    let db = Database::new();
    let rels = relstore::ingest(&db, &journal).unwrap();
    let all = |rel| db.select(rel, &Restriction::default()).unwrap().len();
    assert_eq!(all(rels.event), 123);
    let expected = [
        ("wm_insert", 17),
        ("wm_remove", 7),
        ("conflict_delta", 28),
        ("derivation", 14),
        ("firing", 10),
        ("batch_applied", 10),
        ("match_maintain", 7),
        ("round_span", 2),
        ("txn_begin", 14),
        ("txn_commit", 10),
        ("txn_abort", 4),
    ];
    for (kind, keys) in Event::KINDS {
        let rel = rels.of(kind).unwrap();
        let want = expected.iter().find(|(k, _)| k == kind).map_or(0, |e| e.1);
        assert_eq!(all(rel), want, "j_{kind}");
        let schema = db.schema(rel).unwrap();
        let cols: Vec<&str> = schema.attrs().iter().map(|a| a.name.as_ref()).collect();
        assert_eq!(cols[0], "seq");
        assert_eq!(&cols[1..], *keys, "j_{kind} columns are the wire keys");
    }
    let fold = relstore::wm_as_of(&db, &rels, u64::MAX).unwrap();
    let in_memory: std::collections::BTreeMap<(i64, String), i64> = journal
        .final_wm()
        .into_iter()
        .map(|((class, tuple), n)| ((i64::from(class), tuple), n))
        .collect();
    assert!(!in_memory.is_empty());
    assert_eq!(fold, in_memory);
}

/// Every engine's own name is a label `match_maintain` and
/// `batch_applied` lines may carry, so a journal from any engine parses.
#[test]
fn every_engine_label_parses() {
    let rules = ops5::compile(SRC).unwrap();
    for kind in EngineKind::ALL {
        let engine = prodsys::make_engine(kind, ProductionDb::new(rules.clone()).unwrap());
        let name = engine.name();
        for event in [
            Event::MatchMaintain {
                engine: name,
                class: 0,
                insert: false,
                adds: 1,
                removes: 0,
                detect_ns: 2,
                total_ns: 3,
            },
            Event::BatchApplied {
                engine: name,
                inserts: 1,
                deletes: 2,
                rules_awakened: 3,
                total_ns: 4,
                detect_ns: 0,
                pattern_probes: 0,
                pattern_scanned: 0,
            },
        ] {
            let line = event.to_json(0);
            assert!(line.contains(&format!("\"engine\":\"{name}\"")), "{line}");
            let parsed = Event::from_json(&line);
            assert_eq!(parsed, Ok((0, event)), "{}: {line}", kind.label());
        }
    }
}
