//! The traced run's instruments: an in-memory span recorder and
//! [`TimedEngine`], a delegating [`MatchEngine`] that times the calls the
//! executors make into the match layer.
//!
//! Spans are recorded from the benchmark's side of each layer boundary
//! only; spans inside the program are a later issue.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use obs::Tracer;
use ops5::ClassId;
use prodsys::engine::WmDelta;
use prodsys::{MatchEngine, ProductionDb, SpaceStats};
use relstore::{Tuple, TupleId};
use rete::{ConflictDelta, ConflictSet};

/// One recorded interval. `parent` is the index of the enclosing span
/// plus one (0 = top level); `round` is the workload round it belongs to,
/// the identifier every span of one round shares.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub round: u32,
}

/// In-memory span store. One caller thread opens and closes scoped spans;
/// engine calls made by executor worker threads attach to whichever scoped
/// span is open (the `ConcurrentExecutor::run` call that spawned them).
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    current: AtomicU32,
    round: AtomicU32,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: AtomicU32::new(0),
            round: AtomicU32::new(0),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_round(&self, round: u32) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// Run `f` inside a scoped span that becomes the parent of every span
    /// recorded until it returns.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.current.load(Ordering::Relaxed);
        let id = {
            let mut spans = self.spans.lock().expect("span store");
            spans.push(Span {
                name,
                start_ns: self.now(),
                end_ns: 0,
                parent,
                round: self.round.load(Ordering::Relaxed),
            });
            spans.len() as u32
        };
        self.current.store(id, Ordering::Relaxed);
        let out = f();
        let end = self.now();
        self.spans.lock().expect("span store")[id as usize - 1].end_ns = end;
        self.current.store(parent, Ordering::Relaxed);
        out
    }

    /// Record a completed leaf span under the open scoped span; returns
    /// its duration.
    fn leaf(&self, name: &'static str, start_ns: u64) -> u64 {
        let end_ns = self.now();
        self.spans.lock().expect("span store").push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.current.load(Ordering::Relaxed),
            round: self.round.load(Ordering::Relaxed),
        });
        end_ns - start_ns
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

/// `(calls, self_ns)` per span name: a span's self time is its duration
/// minus the part its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent > 0 {
            child_ns[s.parent as usize - 1] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns.saturating_sub(s.start_ns).saturating_sub(kids);
    }
    out
}

/// Counters [`TimedEngine`] keeps beside its spans.
#[derive(Default)]
pub struct EngineCounts {
    pub maintain_calls: AtomicU64,
    pub maintain_ns: AtomicU64,
    pub conflict_deltas: AtomicU64,
    pub conflict_set_calls: AtomicU64,
}

impl EngineCounts {
    /// `(maintain_calls, maintain_ns, conflict_deltas)` so far.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.maintain_calls.load(Ordering::Relaxed),
            self.maintain_ns.load(Ordering::Relaxed),
            self.conflict_deltas.load(Ordering::Relaxed),
        )
    }
}

/// A [`MatchEngine`] that forwards everything to `inner` and times the
/// maintenance entry points. `insert`, `remove` and `apply_delta` stay
/// the trait defaults (no engine overrides them), so the store write
/// happens in the caller's span and maintenance in a child span of it.
pub struct TimedEngine {
    inner: Box<dyn MatchEngine>,
    rec: Arc<Recorder>,
    counts: Arc<EngineCounts>,
}

impl TimedEngine {
    pub fn wrap(
        inner: Box<dyn MatchEngine>,
        rec: Arc<Recorder>,
        counts: Arc<EngineCounts>,
    ) -> Box<dyn MatchEngine> {
        Box::new(TimedEngine { inner, rec, counts })
    }

    fn timed(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut dyn MatchEngine) -> Vec<ConflictDelta>,
    ) -> Vec<ConflictDelta> {
        let start = self.rec.now();
        let deltas = f(self.inner.as_mut());
        let ns = self.rec.leaf(name, start);
        let c = &self.counts;
        c.maintain_calls.fetch_add(1, Ordering::Relaxed);
        c.maintain_ns.fetch_add(ns, Ordering::Relaxed);
        c.conflict_deltas
            .fetch_add(deltas.len() as u64, Ordering::Relaxed);
        deltas
    }
}

impl MatchEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn pdb(&self) -> &ProductionDb {
        self.inner.pdb()
    }
    fn maintain_insert(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        self.timed("engine.maintain_insert", |e| {
            e.maintain_insert(class, tid, tuple)
        })
    }
    fn maintain_remove(
        &mut self,
        class: ClassId,
        tid: TupleId,
        tuple: &Tuple,
    ) -> Vec<ConflictDelta> {
        self.timed("engine.maintain_remove", |e| {
            e.maintain_remove(class, tid, tuple)
        })
    }
    fn maintain_delta(&mut self, deltas: &[WmDelta]) -> Vec<ConflictDelta> {
        self.timed("engine.maintain_delta", |e| e.maintain_delta(deltas))
    }
    fn set_batching(&mut self, on: bool) {
        self.inner.set_batching(on)
    }
    fn set_pattern_index(&mut self, on: bool) {
        self.inner.set_pattern_index(on)
    }
    fn pattern_io(&self) -> Option<(u64, u64)> {
        self.inner.pattern_io()
    }
    fn conflict_set(&self) -> &ConflictSet {
        // A borrow, so there is no interval worth a span: count the calls.
        self.counts
            .conflict_set_calls
            .fetch_add(1, Ordering::Relaxed);
        self.inner.conflict_set()
    }
    fn space(&self) -> SpaceStats {
        self.inner.space()
    }
    fn false_drops(&self) -> u64 {
        self.inner.false_drops()
    }
    fn needs_bootstrap(&self) -> bool {
        self.inner.needs_bootstrap()
    }
    fn match_plan(&self) -> Vec<prodsys::MatchPlan> {
        self.inner.match_plan()
    }
    fn last_detect_split(&self) -> Option<(u64, u64)> {
        self.inner.last_detect_split()
    }
    fn tracer(&self) -> &Tracer {
        self.inner.tracer()
    }
    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer)
    }
}
