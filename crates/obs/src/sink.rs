//! Event sinks: where the canonical JSONL stream goes.

use crate::event::Event;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

/// Consumes the ordered event stream. Implementations receive both the
/// typed event and its canonical JSONL encoding (rendered once by the
/// bus) so writers don't re-serialize.
pub trait EventSink {
    /// Called for every emitted event, in commit order.
    fn on_event(&mut self, ev: &Event, line: &str);
    /// Called once at end of run.
    fn flush(&mut self) {}
    /// Whether this sink also wants persistence meta events
    /// (checkpoint/restore). Defaults to `false` so the canonical trace
    /// stays byte-identical whether or not a run checkpoints — meta
    /// events reach only sinks that opt in.
    fn wants_meta(&self) -> bool {
        false
    }
}

/// Writes one JSONL line per event to any `io::Write` (file, stdout,
/// in-memory buffer).
pub struct JsonlSink<W: Write> {
    w: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. Callers wanting buffering should pass a
    /// `BufWriter` themselves.
    pub fn new(w: W) -> Self {
        Self { w }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, _ev: &Event, line: &str) {
        // Telemetry must never take the sim down; drop on I/O error.
        let _ = self.w.write_all(line.as_bytes());
        let _ = self.w.write_all(b"\n");
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// Captures the JSONL stream into a shared string — used by the
/// determinism tests to compare byte-identical traces across routers,
/// schedulers and restarts without touching the filesystem.
pub struct MemorySink {
    buf: Rc<RefCell<String>>,
    meta: bool,
}

impl MemorySink {
    /// Returns the sink and a handle to the buffer it fills.
    pub fn new() -> (Self, Rc<RefCell<String>>) {
        let buf = Rc::new(RefCell::new(String::new()));
        (Self { buf: buf.clone(), meta: false }, buf)
    }

    /// Like [`MemorySink::new`] but also receiving persistence meta
    /// events (checkpoint/restore) — used by tests that assert on the
    /// meta stream.
    pub fn new_with_meta() -> (Self, Rc<RefCell<String>>) {
        let buf = Rc::new(RefCell::new(String::new()));
        (Self { buf: buf.clone(), meta: true }, buf)
    }
}

impl EventSink for MemorySink {
    fn on_event(&mut self, _ev: &Event, line: &str) {
        let mut buf = self.buf.borrow_mut();
        buf.push_str(line);
        buf.push('\n');
    }

    fn wants_meta(&self) -> bool {
        self.meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut out = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut out);
            let ev = Event::Arrival { t: 0.0, req: 1, offline: false };
            let line = ev.to_jsonl();
            sink.on_event(&ev, &line);
            sink.flush();
        }
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "{\"ev\":\"arrival\",\"t\":0,\"req\":1,\"offline\":false}\n");
    }

    #[test]
    fn memory_sink_accumulates() {
        let (mut sink, buf) = MemorySink::new();
        let ev = Event::Encounter { t: 1.0, req: 2, taxi: 3 };
        let line = ev.to_jsonl();
        sink.on_event(&ev, &line);
        sink.on_event(&ev, &line);
        assert_eq!(buf.borrow().lines().count(), 2);
    }
}
