//! The `harness` command line: every flag is one [`FLAGS`] entry and
//! every selector one [`EXPERIMENTS`] entry, and [`usage`] and
//! [`parse_args`] are generated from the two tables. `parse_args` makes
//! every check before the harness prints or runs anything.

use prodsys::EngineKind;

use crate::experiments::{Experiment, EXPERIMENTS, OBS};
use crate::obs_run::explain_rule;
use crate::recorder::{parse_engine, parse_spec};
use crate::SCALED_MAX_ITEMS;

/// Default size of the `--bench-json` / `--profile` scaled workload.
pub const SCALED_DEFAULT_ITEMS: usize = 2_000;
/// The selector that runs every [`EXPERIMENTS`] entry.
const ALL: &str = "all";
/// Default `--record` workload size (items).
pub const RECORD_DEFAULT_ITEMS: usize = 24;

/// What one harness invocation asked for, fully checked.
#[derive(Debug, Default)]
pub struct Args {
    /// `--help`'s text, printed instead of running anything.
    pub help: Option<String>,
    /// The experiments to run, in [`EXPERIMENTS`] order.
    pub experiments: Vec<&'static Experiment>,
    pub trace: Option<String>,
    pub report: Option<String>,
    pub bench_json: Option<String>,
    pub items: Option<usize>,
    pub explain: Option<String>,
    pub profile: Option<String>,
    pub bench_check: Option<String>,
    pub record: Option<String>,
    /// `--engine`, resolved: the engine and its default worker count.
    pub engine: Option<(EngineKind, Option<usize>)>,
    pub workers: Option<usize>,
    pub replay: Option<String>,
    pub journal: Option<String>,
    pub why: Option<String>,
    pub why_not: Option<String>,
}

impl Args {
    /// Size of the `--bench-json` / `--profile` scaled workload.
    pub fn scaled_items(&self) -> i64 {
        let items = self.items.unwrap_or(SCALED_DEFAULT_ITEMS) as i64;
        items.min(SCALED_MAX_ITEMS)
    }
}

/// One harness flag.
pub struct Flag {
    /// Its spellings; the first is the one errors name.
    pub names: &'static [&'static str],
    /// The name of its value in `--help`; empty for a switch.
    pub value: &'static str,
    /// `--help` text, one line per output line.
    pub help: &'static str,
    /// Flags of which at least one must also be given.
    pub needs: &'static [&'static str],
    /// Store the value in [`Args`], or say why it is invalid.
    pub set: fn(&mut Args, &str) -> Result<(), String>,
}

/// Store a flag value as given.
fn text(slot: &mut Option<String>, v: &str) -> Result<(), String> {
    *slot = Some(v.to_string());
    Ok(())
}

/// An integer flag value of at least `min`.
fn count(v: &str, min: usize) -> Result<usize, String> {
    match v.parse() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("expects an integer ≥ {min}, got {v:?}")),
    }
}

/// Every flag, in `--help` order.
pub const FLAGS: &[Flag] = &[
    Flag {
        names: &["--trace"],
        value: "FILE",
        help: "stream JSONL events of the instrumented run (obs) to FILE",
        needs: &[],
        set: |a, v| {
            a.experiments.push(&OBS);
            text(&mut a.trace, v)
        },
    },
    Flag {
        names: &["--report"],
        value: "FILE",
        help: "write the instrumented run's JSON report to FILE",
        needs: &[],
        set: |a, v| {
            a.experiments.push(&OBS);
            text(&mut a.report, v)
        },
    },
    Flag {
        names: &["--bench-json"],
        value: "FILE",
        help: "write a benchmark snapshot (sellis88-bench/v2) of the scaled\n\
               skewed-join workload, six rows: rete, db-rete, query, cond,\n\
               marker, and query-paged over file-backed pages (§3.2)",
        needs: &[],
        set: |a, v| text(&mut a.bench_json, v),
    },
    Flag {
        names: &["--items"],
        value: "N",
        help: "workload size, at least 1: the scaled workload of --bench-json\n\
               and --profile (default 2000, at most 10000), the journal\n\
               workload of --record (default 24)",
        needs: &["--bench-json", "--profile", "--record"],
        set: |a, v| count(v, 1).map(|n| a.items = Some(n)),
    },
    Flag {
        names: &["--explain"],
        value: "RULE",
        help: "run the explain workload; print RULE's match plan per\n\
               engine and the full derivation of each of its firings",
        needs: &[],
        set: |a, v| explain_rule(v).map(|r| a.explain = Some(r)),
    },
    Flag {
        names: &["--profile"],
        value: "FILE",
        help: "run the scaled workload under the span profiler and write\n\
               folded flamegraph stacks to FILE; prints per-engine\n\
               attribution, top self-time spans, and allocation deltas\n\
               against the committed snapshot of the same size",
        needs: &[],
        set: |a, v| text(&mut a.profile, v),
    },
    Flag {
        names: &["--bench-check"],
        value: "FILE",
        help: "re-run a --bench-json snapshot at its size; fail (exit 1)\n\
               unless every row repeats its counters exactly, allocates\n\
               within 2x (1.5x cond) and passes the COND gap gate",
        needs: &[],
        set: |a, v| text(&mut a.bench_check, v),
    },
    Flag {
        names: &["--record"],
        value: "FILE",
        help: "run the demo workload with the flight recorder on and write\n\
               a sellis88-journal/v1 JSONL journal (self-contained: program,\n\
               load script, WM deltas, conflict set, locks, commit order)",
        needs: &[],
        set: |a, v| text(&mut a.record, v),
    },
    Flag {
        names: &["--engine"],
        value: "NAME",
        help: "rete|db-rete|query|cond|marker record a sequential pass;\n\
               concurrent = query engine + 4 workers (the default)",
        needs: &["--record"],
        set: |a, v| parse_engine(v).map(|e| a.engine = Some(e)),
    },
    Flag {
        names: &["--workers"],
        value: "N",
        help: "§5 worker count of the recorded run (0 = sequential pass)",
        needs: &["--record"],
        set: |a, v| count(v, 0).map(|n| a.workers = Some(n)),
    },
    Flag {
        names: &["--replay"],
        value: "FILE",
        help: "re-execute a journal as the serial run of its commit order;\n\
               verifies every recorded firing and the final WM (exit 1 on\n\
               any divergence)",
        needs: &[],
        set: |a, v| text(&mut a.replay, v),
    },
    Flag {
        names: &["--journal"],
        value: "FILE",
        help: "load a journal into relstore relations (j_event, and one\n\
               j_<kind>(seq, wire keys…) per event kind) and query it",
        needs: &["--why", "--why-not"],
        set: |a, v| text(&mut a.journal, v),
    },
    Flag {
        names: &["--why"],
        value: "RULE@CYCLE",
        help: "which instantiation committed there, its support tuples,\n\
               and the WM context (a query over j_firing/j_wm_insert/\n\
               j_wm_remove)",
        needs: &["--journal"],
        set: |a, v| parse_spec(v).and_then(|_| text(&mut a.why, v)),
    },
    Flag {
        names: &["--why-not"],
        value: "RULE@CYCLE",
        help: "why the rule had no firing: replays WM to the cycle and\n\
               probes the LHS prefix-by-prefix for the failing CE",
        needs: &["--journal"],
        set: |a, v| parse_spec(v).and_then(|_| text(&mut a.why_not, v)),
    },
    Flag {
        names: &["--help", "-h"],
        value: "",
        help: "this text",
        needs: &[],
        set: |a, _| text(&mut a.help, &usage()),
    },
];

/// `--help`: the selectors of [`EXPERIMENTS`] and the flags of [`FLAGS`].
pub fn usage() -> String {
    fn entry(out: &mut String, left: &str, help: &str) {
        for (i, line) in help.lines().enumerate() {
            let left = if i == 0 { left } else { "" };
            *out += &format!("  {left:<20} {line}\n");
        }
    }
    let mut out = String::from(
        "usage: harness [SELECTOR...] [FLAGS]\n\n\
         Regenerates the paper-reproduction tables and figures (EXPERIMENTS.md).\n\
         With no arguments, runs everything.\n\nselectors:\n",
    );
    entry(&mut out, ALL, "every experiment below (the default)");
    for e in EXPERIMENTS {
        entry(&mut out, &e.names.join(", "), e.help);
    }
    out += "\nflags:\n";
    for f in FLAGS {
        let left = format!("{} {}", f.names.join(", "), f.value);
        let needs = match f.needs {
            [] => String::new(),
            needs => format!("\n(needs {})", needs.join(" or ")),
        };
        entry(&mut out, left.trim_end(), &format!("{}{needs}", f.help));
    }
    out + "\nA flag runs only its own workload unless selectors are also given.\n"
}

/// Parse the harness arguments (without the program name). Every check
/// happens here: an unknown flag or selector, a missing or invalid value,
/// and a flag given without one it needs are all errors.
pub fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut given: Vec<&Flag> = Vec::new();
    let mut all = false;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = FLAGS.iter().find(|f| f.names.contains(&a.as_str())) {
            let value = match flag.value {
                "" => "",
                _ => it.next().ok_or_else(|| format!("{a} requires a value"))?,
            };
            (flag.set)(&mut args, value).map_err(|e| format!("{a}: {e}"))?;
            given.push(flag);
        } else if a.starts_with('-') {
            return Err(format!("unknown flag {a}"));
        } else if a == ALL {
            all = true;
        } else if let Some(e) = EXPERIMENTS.iter().find(|e| e.names.contains(&a.as_str())) {
            args.experiments.push(e);
        } else {
            return Err(format!("unknown selector {a:?}"));
        }
    }
    if args.help.is_some() {
        return Ok(args);
    }
    for f in &given {
        if !f.needs.is_empty() && !given.iter().any(|g| f.needs.contains(&g.names[0])) {
            return Err(format!("{} requires {}", f.names[0], f.needs.join(" or ")));
        }
    }
    all |= given.is_empty() && args.experiments.is_empty();
    let chosen = std::mem::take(&mut args.experiments);
    args.experiments = EXPERIMENTS
        .iter()
        .filter(|e| all || chosen.iter().any(|c| c.names == e.names))
        .collect();
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Args, String> {
        let raw: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_args(&raw)
    }

    fn rejects(args: &str, message: &str) {
        let err = parse(args).unwrap_err();
        assert!(err.contains(message), "{args:?}: {err}");
    }

    fn names(args: &Args) -> Vec<&str> {
        args.experiments.iter().map(|e| e.names[0]).collect()
    }

    #[test]
    fn rejects_unknown_flags_and_selectors() {
        rejects("--no-such-flag", "unknown flag --no-such-flag");
        rejects("e7 --paged", "unknown flag --paged");
        rejects("e99", "unknown selector \"e99\"");
        rejects("e5", "unknown selector \"e5\"");
    }

    #[test]
    fn rejects_a_missing_value() {
        rejects("--record", "--record requires a value");
        rejects("--bench-json out.json --items", "--items requires a value");
    }

    #[test]
    fn rejects_items_below_one() {
        for bad in ["0", "-5", "x", "1.5"] {
            rejects(&format!("--bench-json F --items {bad}"), "--items: expects");
            rejects(&format!("--record F --items {bad}"), "--items: expects");
        }
        assert_eq!(parse("--record F --items 1").unwrap().items, Some(1));
    }

    #[test]
    fn rejects_items_without_a_consumer() {
        rejects(
            "e7 --items 5",
            "--items requires --bench-json or --profile or --record",
        );
        for ok in ["--bench-json F", "--profile F", "--record F"] {
            assert!(parse(&format!("{ok} --items 5")).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_why_and_why_not_without_journal() {
        rejects("--why Mark@1", "--why requires --journal");
        rejects("--why-not Tally@1", "--why-not requires --journal");
        rejects("--journal j.jsonl", "--journal requires --why or --why-not");
        rejects("--journal j.jsonl --why Mark", "--why: expected RULE@CYCLE");
        assert!(parse("--journal j.jsonl --why-not Tally@1").is_ok());
    }

    #[test]
    fn rejects_engine_and_workers_without_record() {
        rejects("--engine cond", "--engine requires --record");
        rejects("--workers 2", "--workers requires --record");
        rejects(
            "--record j.jsonl --engine nope",
            "--engine: unknown engine \"nope\"",
        );
        rejects("e7 --explain Nope", "--explain: unknown rule \"Nope\"");
        let args = parse("--record j.jsonl --engine cond --workers 2").unwrap();
        assert_eq!(args.engine, Some((EngineKind::Cond, None)));
        assert_eq!(args.workers, Some(2));
    }

    #[test]
    fn selectors_run_in_table_order_and_flags_alone_run_nothing_else() {
        assert_eq!(names(&parse("e7 e3 f1 t1").unwrap()), ["t1", "f1", "e7"]);
        let every: Vec<&str> = EXPERIMENTS.iter().map(|e| e.names[0]).collect();
        assert_eq!(names(&parse("").unwrap()), every);
        assert_eq!(names(&parse("all --bench-json F").unwrap()), every);
        assert!(parse("--bench-json F").unwrap().experiments.is_empty());
        assert_eq!(
            names(&parse("--trace t.jsonl --report r.json").unwrap()),
            ["obs"]
        );
        assert_eq!(names(&parse("e7 --report r.json").unwrap()), ["e7", "obs"]);
    }

    #[test]
    fn help_quotes_the_defaults() {
        let text = parse("--help").unwrap().help.unwrap();
        assert!(
            text.contains(&format!("default {SCALED_DEFAULT_ITEMS}")),
            "{text}"
        );
        assert!(
            text.contains(&format!("at most {SCALED_MAX_ITEMS}")),
            "{text}"
        );
        assert!(
            text.contains(&format!("default {RECORD_DEFAULT_ITEMS}")),
            "{text}"
        );
        let workers = crate::recorder::DEFAULT_WORKERS;
        assert!(text.contains(&format!("+ {workers} workers")), "{text}");
    }
}
