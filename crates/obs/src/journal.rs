//! The flight recorder's journal: a schema-stable (`sellis88-journal/v1`)
//! JSONL record of one run, self-contained enough to re-execute it.
//!
//! A journal file is one **meta** line (the program source, the initial
//! working-memory load, and the execution configuration) followed by one
//! [`Event`] line per traced moment, in total sink order. The meta line
//! makes replay self-contained: a reader needs nothing but the journal to
//! rebuild the production system, re-load WM, and re-drive the executor
//! along the recorded commit order (the `Firing` events).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::event::Event;
use crate::json::{self, Arr, Obj, Value};
use crate::sink::Sink;

/// The journal schema identifier carried by every meta line. Readers
/// reject other values, so schema drift fails loudly.
pub const JOURNAL_SCHEMA: &str = "sellis88-journal/v1";

/// One initial-load value. `obs` cannot depend on the storage layer's
/// value type (the dependency points the other way), so the journal
/// carries its own litte lattice and the recorder converts.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadValue {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl LoadValue {
    /// Render as a raw JSON value.
    fn to_json(&self) -> String {
        match self {
            LoadValue::Null => "null".to_string(),
            LoadValue::Bool(b) => b.to_string(),
            LoadValue::Int(i) => i.to_string(),
            // `{:?}` keeps a decimal point or exponent ("2.0", "1e300"),
            // so integers and floats stay distinguishable on re-read.
            LoadValue::Float(f) if f.is_finite() => format!("{f:?}"),
            LoadValue::Float(_) => "null".to_string(),
            LoadValue::Str(s) => json::escaped(s),
        }
    }

    fn from_json(v: &Value) -> Result<LoadValue, String> {
        Ok(match v {
            Value::Null => LoadValue::Null,
            Value::Bool(b) => LoadValue::Bool(*b),
            Value::Str(s) => LoadValue::Str(s.clone()),
            Value::Num(lex) => match lex.parse::<i64>() {
                Ok(i) => LoadValue::Int(i),
                Err(_) => LoadValue::Float(
                    lex.parse::<f64>()
                        .map_err(|_| format!("bad number {lex:?}"))?,
                ),
            },
            other => return Err(format!("bad load value {other:?}")),
        })
    }
}

/// One initial working-memory operation, applied before the run starts.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOp {
    /// True for an insertion, false for a removal (by content).
    pub insert: bool,
    /// The numeric class id (the program's `literalize` order).
    pub class: u32,
    /// The tuple's values.
    pub values: Vec<LoadValue>,
}

impl LoadOp {
    fn to_json(&self) -> String {
        let mut vals = Arr::new();
        for v in &self.values {
            vals = vals.raw(&v.to_json());
        }
        Obj::new()
            .str("op", if self.insert { "insert" } else { "remove" })
            .u64("class", self.class as u64)
            .raw("values", &vals.finish())
            .finish()
    }

    fn from_json(v: &Value) -> Result<LoadOp, String> {
        let insert = match v.get("op").and_then(Value::as_str) {
            Some("insert") => true,
            Some("remove") => false,
            other => return Err(format!("bad load op {other:?}")),
        };
        let class = v
            .get("class")
            .and_then(Value::as_u64)
            .ok_or("load op missing class")?;
        let class = u32::try_from(class).map_err(|_| "field \"class\" out of range")?;
        let values = v
            .get("values")
            .and_then(Value::as_array)
            .ok_or("load op missing values")?
            .iter()
            .map(LoadValue::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LoadOp {
            insert,
            class,
            values,
        })
    }
}

/// The journal's header: everything needed to re-execute the recorded
/// run. Written as the file's first JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalMeta {
    /// Matching-engine label (`rete`, `db-rete`, `query`, `cond`, `marker`).
    pub engine: String,
    /// `sequential` or `concurrent`.
    pub mode: String,
    /// Worker count of a concurrent run (1 for sequential).
    pub workers: usize,
    /// Conflict-resolution strategy name of a sequential run (`fifo`,
    /// `canonical`, …); replay re-instantiates it by name.
    pub strategy: String,
    /// The firing budget the run was given.
    pub max_fired: u64,
    /// Full OPS5 program source.
    pub program: String,
    /// Initial working-memory operations, in load order.
    pub load: Vec<LoadOp>,
}

impl JournalMeta {
    /// Render the meta line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut load = Arr::new();
        for op in &self.load {
            load = load.raw(&op.to_json());
        }
        Obj::new()
            .str("schema", JOURNAL_SCHEMA)
            .str("engine", &self.engine)
            .str("mode", &self.mode)
            .usize("workers", self.workers)
            .str("strategy", &self.strategy)
            .u64("max_fired", self.max_fired)
            .str("program", &self.program)
            .raw("load", &load.finish())
            .finish()
    }

    /// Parse a meta line; rejects schema identifiers other than
    /// [`JOURNAL_SCHEMA`]. Fields it does not know are ignored, among
    /// them the `batching` flag older journals carry.
    pub fn from_json(line: &str) -> Result<JournalMeta, String> {
        let v = json::parse(line)?;
        let schema = v
            .get("schema")
            .and_then(Value::as_str)
            .ok_or("meta line has no schema field")?;
        if schema != JOURNAL_SCHEMA {
            return Err(format!(
                "unsupported journal schema {schema:?} (expected {JOURNAL_SCHEMA:?})"
            ));
        }
        let field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("meta missing field {k:?}"))
        };
        let load = v
            .get("load")
            .and_then(Value::as_array)
            .ok_or("meta missing load")?
            .iter()
            .map(LoadOp::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(JournalMeta {
            engine: field("engine")?,
            mode: field("mode")?,
            workers: v
                .get("workers")
                .and_then(Value::as_u64)
                .ok_or("meta missing workers")? as usize,
            strategy: field("strategy")?,
            max_fired: v
                .get("max_fired")
                .and_then(Value::as_u64)
                .ok_or("meta missing max_fired")?,
            program: field("program")?,
            load,
        })
    }
}

/// A parsed journal: the meta header plus every event, in sink order.
#[derive(Debug, Clone)]
pub struct Journal {
    pub meta: JournalMeta,
    /// `(sink sequence number, event)` pairs, in file order.
    pub events: Vec<(u64, Event)>,
}

impl Journal {
    /// Parse a whole journal text (meta line + event lines). Blank lines
    /// are skipped; any malformed line is an error with its line number.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, meta_line) = lines.next().ok_or("empty journal")?;
        let meta = JournalMeta::from_json(meta_line).map_err(|e| format!("line 1: {e}"))?;
        let mut events = Vec::new();
        for (i, line) in lines {
            let pair = Event::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(pair);
        }
        Ok(Journal { meta, events })
    }

    /// Read and parse a journal file.
    pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("{}: {e}", path.as_ref().display()))?;
        Journal::parse(&text)
    }

    /// The run's committed firings in commit order (`Firing.seq`) — the
    /// serialization order a replay must reproduce.
    pub fn firings(&self) -> Vec<&Event> {
        let mut out: Vec<&Event> = self
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Firing { .. }))
            .map(|(_, e)| e)
            .collect();
        out.sort_by_key(|e| match e {
            Event::Firing { seq, .. } => *seq,
            _ => unreachable!(),
        });
        out
    }

    /// `(rule_name, wmes)` keys of the firings, in commit order — the
    /// serial run a replay follows.
    pub fn firing_keys(&self) -> Vec<(String, String)> {
        self.firings()
            .iter()
            .map(|e| match e {
                Event::Firing {
                    rule_name, wmes, ..
                } => (rule_name.clone(), wmes.clone()),
                _ => unreachable!(),
            })
            .collect()
    }

    /// The final working memory implied by the journal's WM delta stream:
    /// a multiset of `(class, tuple)` rendered tuples. Zero-count entries
    /// are dropped, so two journals of equivalent runs compare equal.
    pub fn final_wm(&self) -> BTreeMap<(u32, String), i64> {
        self.wm_before(u64::MAX)
    }

    /// Working memory as of just before sink sequence number `seq`: the
    /// fold of every WM delta with an event sequence strictly below it.
    pub fn wm_before(&self, seq: u64) -> BTreeMap<(u32, String), i64> {
        let mut wm: BTreeMap<(u32, String), i64> = BTreeMap::new();
        for (s, e) in &self.events {
            if *s >= seq {
                continue;
            }
            match e {
                Event::WmInsert { class, tuple, .. } => {
                    *wm.entry((*class, tuple.clone())).or_insert(0) += 1;
                }
                Event::WmRemove { class, tuple, .. } => {
                    *wm.entry((*class, tuple.clone())).or_insert(0) -= 1;
                }
                _ => {}
            }
        }
        wm.retain(|_, n| *n != 0);
        wm
    }
}

/// A recording sink: writes the meta line, then streams events as JSONL
/// to the same writer. Install the returned [`Sink`] on a tracer and the
/// run records itself.
pub fn recording_sink_to(
    mut out: Box<dyn Write + Send>,
    meta: &JournalMeta,
) -> std::io::Result<Sink> {
    out.write_all(meta.to_json().as_bytes())?;
    out.write_all(b"\n")?;
    Ok(Sink::jsonl_writer(out))
}

/// [`recording_sink_to`] over a freshly created file.
pub fn recording_sink<P: AsRef<Path>>(path: P, meta: &JournalMeta) -> std::io::Result<Sink> {
    recording_sink_to(Box::new(BufWriter::new(File::create(path)?)), meta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> JournalMeta {
        JournalMeta {
            engine: "query".into(),
            mode: "concurrent".into(),
            workers: 4,
            strategy: "canonical".into(),
            max_fired: 100,
            program: "(literalize A x)\n(p R (A ^x <V>) --> (remove 1))".into(),
            load: vec![
                LoadOp {
                    insert: true,
                    class: 0,
                    values: vec![
                        LoadValue::Int(-3),
                        LoadValue::Str("a\"b".into()),
                        LoadValue::Float(2.5),
                        LoadValue::Null,
                        LoadValue::Bool(true),
                    ],
                },
                LoadOp {
                    insert: false,
                    class: 1,
                    values: vec![LoadValue::Float(2.0)],
                },
            ],
        }
    }

    #[test]
    fn meta_round_trips() {
        let m = meta();
        let line = m.to_json();
        let back = JournalMeta::from_json(&line).unwrap();
        assert_eq!(m, back);
        // Whole floats survive as floats, not ints.
        assert_eq!(back.load[1].values[0], LoadValue::Float(2.0));
    }

    #[test]
    fn meta_rejects_wrong_schema() {
        let line = meta().to_json().replace("journal/v1", "journal/v9");
        let err = JournalMeta::from_json(&line).unwrap_err();
        assert!(err.contains("unsupported journal schema"), "{err}");
    }

    #[test]
    fn journal_parses_and_folds_wm() {
        let mut text = meta().to_json();
        text.push('\n');
        let events = [
            Event::WmInsert {
                class: 0,
                class_name: "A".into(),
                tuple: "(1)".into(),
                tid: 7,
            },
            Event::WmInsert {
                class: 0,
                class_name: "A".into(),
                tuple: "(1)".into(),
                tid: 8,
            },
            Event::Firing {
                seq: 0,
                round: 1,
                txn: 3,
                rule: 0,
                rule_name: "R".into(),
                wmes: "A(1)".into(),
                support: "t0.0".into(),
                critical_ns: 0,
            },
            Event::WmRemove {
                class: 0,
                class_name: "A".into(),
                tuple: "(1)".into(),
                tid: 7,
            },
        ];
        for (i, e) in events.iter().enumerate() {
            text.push_str(&e.to_json(i as u64));
            text.push('\n');
        }
        let j = Journal::parse(&text).unwrap();
        assert_eq!(j.events.len(), 4);
        assert_eq!(j.firing_keys(), vec![("R".to_string(), "A(1)".to_string())]);
        let wm = j.final_wm();
        assert_eq!(wm.get(&(0, "(1)".to_string())), Some(&1));
        // As of before the remove (seq 3): both inserts visible.
        assert_eq!(j.wm_before(3).get(&(0, "(1)".to_string())), Some(&2));
        assert_eq!(j.wm_before(0).len(), 0);
    }

    #[test]
    fn recording_sink_writes_meta_then_events() {
        use std::sync::{Arc, Mutex};
        let buf: Arc<Mutex<Vec<u8>>> = Default::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = recording_sink_to(Box::new(Shared(buf.clone())), &meta()).unwrap();
        sink.accept(Event::CycleStart { cycle: 0 });
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let j = Journal::parse(&text).unwrap();
        assert_eq!(j.meta, meta());
        assert_eq!(j.events.len(), 1);
    }
}
