//! The handle every layer holds. A disabled tracer is a `None` — emitting
//! through it is one branch and the event closure is never even built,
//! which keeps the E1/E4 hot paths at their untraced cost. An enabled
//! tracer folds every event into its metrics registry before the sink
//! sees it, so the metrics are a function of the event stream.

use std::sync::Arc;

use crate::event::Event;
use crate::metrics::MetricsRegistry;
use crate::sink::Sink;

struct Shared {
    sink: Sink,
    metrics: MetricsRegistry,
}

/// Cheaply clonable tracing handle; all clones share one sink and one
/// metrics registry.
#[derive(Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// The zero-cost tracer: `enabled()` is false, `emit` is a no-op.
    pub fn disabled() -> Self {
        Tracer { shared: None }
    }

    /// An enabled tracer writing events to `sink` (use [`Sink::Null`] to
    /// fold metrics only).
    pub fn new(sink: Sink) -> Self {
        Tracer {
            shared: Some(Arc::new(Shared {
                sink,
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Emit one event; the closure only runs when tracing is enabled.
    /// The event is folded into the metrics, then handed to the sink.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(shared) = &self.shared {
            let event = f();
            shared.metrics.observe(&event);
            shared.sink.accept(event);
        }
    }

    /// The shared metrics registry, when enabled: the fold of every
    /// event emitted so far.
    #[inline]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.shared.as_ref().map(|s| &s.metrics)
    }

    /// Buffered events if the sink is a ring buffer.
    pub fn ring_events(&self) -> Option<Vec<Event>> {
        self.shared.as_ref().and_then(|s| s.sink.ring_events())
    }

    /// Flush the sink; the first I/O error it met, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.shared {
            Some(shared) => shared.sink.flush(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_builds_events() {
        let t = Tracer::disabled();
        let mut built = false;
        t.emit(|| {
            built = true;
            Event::CycleStart { cycle: 0 }
        });
        assert!(!built);
        assert!(t.metrics().is_none());
    }

    #[test]
    fn ring_tracer_collects() {
        let t = Tracer::new(Sink::ring(4));
        t.emit(|| Event::CycleStart { cycle: 7 });
        let events = t.ring_events().unwrap();
        assert_eq!(events, vec![Event::CycleStart { cycle: 7 }]);
    }

    #[test]
    fn every_sink_folds_into_metrics() {
        let t = Tracer::new(Sink::Null);
        t.emit(|| Event::CycleEnd {
            cycle: 7,
            conflict_len: 3,
            fired_total: 1,
        });
        let json = t.metrics().unwrap().to_json();
        assert!(json.starts_with("{\"cycles\":1,"), "{json}");
        assert!(json.contains("\"conflict_timeline\":[[7,3]]"), "{json}");
    }
}
