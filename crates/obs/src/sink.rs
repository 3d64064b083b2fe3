//! Where trace events go: nothing, a bounded ring, or a JSONL stream.
//! The enum (rather than a trait object) keeps the disabled path a single
//! discriminant check.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::event::Event;

/// Bounded in-memory event buffer; new events overwrite the oldest once
/// `capacity` is reached.
pub struct RingBuffer {
    capacity: usize,
    slots: Vec<Event>,
    /// Index of the slot the next push writes (once full).
    head: usize,
    /// Total events ever pushed (so `dropped()` is observable).
    pushed: u64,
}

impl RingBuffer {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingBuffer {
            capacity,
            slots: Vec::with_capacity(capacity),
            head: 0,
            pushed: 0,
        }
    }

    pub fn push(&mut self, event: Event) {
        self.pushed += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Events ever pushed, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.slots.len() as u64
    }

    /// Buffered events, oldest first.
    pub fn to_vec(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

/// Streams one JSON object per line to any writer. The first I/O error
/// ends the stream and is kept for [`JsonlWriter::flush`] to return: a
/// full disk does not kill the run, and does not pass unnoticed either.
pub struct JsonlWriter {
    out: Box<dyn Write + Send>,
    seq: u64,
    error: Option<std::io::Error>,
}

impl JsonlWriter {
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonlWriter {
            out,
            seq: 0,
            error: None,
        }
    }

    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(JsonlWriter::new(Box::new(BufWriter::new(File::create(
            path,
        )?))))
    }

    pub fn write(&mut self, event: &Event) {
        let mut line = event.to_json(self.seq);
        self.seq += 1;
        if self.error.is_none() {
            line.push('\n');
            self.error = self.out.write_all(line.as_bytes()).err();
        }
    }

    /// Flush the writer; the first error of any write or flush so far.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
        match &self.error {
            Some(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
            None => Ok(()),
        }
    }
}

/// The sink behind a [`crate::Tracer`]. Mutexes make every variant Sync;
/// the `Null` path never touches them.
pub enum Sink {
    /// Drop every event (metrics may still be recorded by the tracer).
    Null,
    Ring(Mutex<RingBuffer>),
    Jsonl(Mutex<JsonlWriter>),
}

impl Sink {
    pub fn ring(capacity: usize) -> Self {
        Sink::Ring(Mutex::new(RingBuffer::new(capacity)))
    }

    pub fn jsonl_file<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(Sink::Jsonl(Mutex::new(JsonlWriter::create(path)?)))
    }

    pub fn jsonl_writer(out: Box<dyn Write + Send>) -> Self {
        Sink::Jsonl(Mutex::new(JsonlWriter::new(out)))
    }

    pub fn accept(&self, event: Event) {
        match self {
            Sink::Null => {}
            Sink::Ring(ring) => ring.lock().expect("ring sink").push(event),
            Sink::Jsonl(w) => w.lock().expect("jsonl sink").write(&event),
        }
    }

    /// Flush buffered output; the first I/O error the sink met, if any.
    pub fn flush(&self) -> std::io::Result<()> {
        match self {
            Sink::Null | Sink::Ring(_) => Ok(()),
            Sink::Jsonl(w) => w.lock().expect("jsonl sink").flush(),
        }
    }

    /// Buffered events if this is a ring sink.
    pub fn ring_events(&self) -> Option<Vec<Event>> {
        match self {
            Sink::Ring(ring) => Some(ring.lock().expect("ring sink").to_vec()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> Event {
        Event::CycleStart { cycle }
    }

    #[test]
    fn ring_wraps_oldest_first() {
        let mut r = RingBuffer::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total_pushed(), 5);
        assert_eq!(r.dropped(), 2);
        let got: Vec<u64> = r
            .to_vec()
            .iter()
            .map(|e| match e {
                Event::CycleStart { cycle } => *cycle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn ring_below_capacity_keeps_order() {
        let mut r = RingBuffer::new(8);
        r.push(ev(0));
        r.push(ev(1));
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.to_vec().len(), 2);
    }

    #[test]
    fn jsonl_writes_one_line_per_event_with_seq() {
        let buf: std::sync::Arc<Mutex<Vec<u8>>> = Default::default();
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Sink::jsonl_writer(Box::new(Shared(buf.clone())));
        sink.accept(ev(1));
        sink.accept(ev(2));
        sink.flush().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[1].starts_with("{\"seq\":1,"));
    }

    /// A writer that accepts `room` bytes and then fails every write, as a
    /// full disk does.
    struct Full {
        room: usize,
    }

    impl std::io::Write for Full {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "no space left",
                ));
            }
            let n = b.len().min(self.room);
            self.room -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_keeps_the_first_write_error_for_flush() {
        let room = ev(1).to_json(0).len() + 1;
        let sink = Sink::jsonl_writer(Box::new(Full { room }));
        sink.accept(ev(1));
        sink.flush().expect("the first line fits");
        for cycle in 2..5 {
            sink.accept(ev(cycle));
        }
        let err = sink.flush().expect_err("a lost line is reported");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        assert!(err.to_string().contains("no space left"), "{err}");
        // The error stays: a later flush still reports it.
        assert!(sink.flush().is_err());
    }
}
