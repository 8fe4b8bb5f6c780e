//! The request feed wire format and the burst reader.
//!
//! One JSON object per line. A request entry:
//!
//! ```text
//! {"t":12.5,"origin":31,"dest":904,"passengers":1,"deadline":310.75,"offline":false}
//! ```
//!
//! `passengers` (default 1) and `offline` (default false) are optional;
//! everything else is required. Times are seconds of virtual time and
//! must be non-decreasing across the feed — the engine's watermark gate
//! relies on it. Numbers are serialized shortest-round-trip
//! ([`mtshare_obs::json::fmt_f64`]), so a recorded feed re-parses to
//! bit-identical `f64`s and replays byte-identically.
//!
//! The only control line is the drain command:
//!
//! ```text
//! {"cmd":"drain"}
//! ```
//!
//! which stops admission; entries after it are still ingested, but
//! doomed with [`RejectReason::DrainRejected`] so they appear in the
//! trace deterministically.

use mtshare_chaos::failpoint::{FeedFaultPlan, STALL_MS};
use mtshare_obs::json::{self, Value};
use mtshare_obs::RejectReason;
use mtshare_road::NodeId;
use mtshare_sim::IngestEntry;
use std::io::BufRead;

/// Hard cap on one feed line, bytes. A line that reaches the cap
/// without a newline is a protocol fault (`oversized_line`), not
/// something to buffer unboundedly — a garbage or hostile peer must not
/// balloon the resident set.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Coarse classification of a feed error message, for the
/// `feed_fault` meta event and the fault counters: `disconnect`
/// (injected or real connection loss), `oversized_line`, `io`
/// (transport read errors), `protocol` (malformed framing/content).
pub fn classify_feed_error(msg: &str) -> &'static str {
    if msg.contains("injected disconnect") || msg.contains("connection reset") {
        "disconnect"
    } else if msg.contains("exceeds the") {
        "oversized_line"
    } else if msg.contains("feed read:") {
        "io"
    } else {
        "protocol"
    }
}

/// One parsed feed line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeedItem {
    /// A ride request.
    Request(IngestEntry),
    /// The drain command: stop admitting, finish in-flight work, exit.
    Drain,
}

/// Serializes one request as a feed line (no trailing newline).
pub fn entry_line(e: &IngestEntry) -> String {
    format!(
        r#"{{"t":{},"origin":{},"dest":{},"passengers":{},"deadline":{},"offline":{}}}"#,
        json::fmt_f64(e.release),
        e.origin.0,
        e.destination.0,
        e.passengers,
        json::fmt_f64(e.deadline),
        e.offline,
    )
}

/// Dumps a scenario's arrival stream in the feed format (the
/// `feed-record` mode of the one-shot runner). Requests must already be
/// sorted by release time, which [`mtshare_sim::Scenario`] guarantees.
pub fn record_feed(requests: &[mtshare_model::RideRequest]) -> String {
    let mut out = String::with_capacity(requests.len() * 80);
    for r in requests {
        let e = IngestEntry {
            release: r.release_time,
            origin: r.origin,
            destination: r.destination,
            passengers: r.passengers,
            deadline: r.deadline,
            offline: r.offline,
        };
        out.push_str(&entry_line(&e));
        out.push('\n');
    }
    out
}

/// Parses one feed line. `n_nodes` bounds the node ids a request may
/// name: an out-of-range id is a protocol error (like malformed JSON),
/// not a reject — the routing layer has no vertex to even fail on.
pub fn parse_line(line: &str, n_nodes: u32) -> Result<FeedItem, String> {
    let v = json::parse(line)?;
    let fields = v.as_obj().ok_or("feed line is not a JSON object")?;
    if let Some(cmd) = v.get("cmd") {
        let Some(name) = cmd.as_str() else { return Err("\"cmd\" must be a string".into()) };
        if name != "drain" {
            return Err(format!("unknown feed command `{name}` (only \"drain\" is defined)"));
        }
        if fields.len() != 1 {
            return Err("a command line must carry only the \"cmd\" key".into());
        }
        return Ok(FeedItem::Drain);
    }
    for (key, _) in fields {
        if !matches!(key.as_str(), "t" | "origin" | "dest" | "passengers" | "deadline" | "offline")
        {
            return Err(format!("unknown feed key `{key}`"));
        }
    }
    let num = |key: &str| -> Result<f64, String> {
        v.get(key)
            .ok_or_else(|| format!("missing required key `{key}`"))?
            .as_num()
            .ok_or_else(|| format!("`{key}` must be a number"))
    };
    let node = |key: &str| -> Result<NodeId, String> {
        let raw = num(key)?;
        if raw < 0.0 || raw.fract() != 0.0 || raw >= n_nodes as f64 {
            return Err(format!("`{key}` = {raw} is not a node id below {n_nodes}"));
        }
        Ok(NodeId(raw as u32))
    };
    let release = num("t")?;
    let deadline = num("deadline")?;
    if !release.is_finite() || !deadline.is_finite() {
        return Err("`t` and `deadline` must be finite".into());
    }
    let passengers = match v.get("passengers") {
        None => 1,
        Some(p) => {
            let raw = p.as_num().ok_or("`passengers` must be a number")?;
            if raw < 1.0 || raw.fract() != 0.0 || raw > u8::MAX as f64 {
                return Err(format!("`passengers` = {raw} is not in 1..=255"));
            }
            raw as u8
        }
    };
    let offline = match v.get("offline") {
        None => false,
        Some(Value::Bool(b)) => *b,
        Some(_) => return Err("`offline` must be a boolean".into()),
    };
    Ok(FeedItem::Request(IngestEntry {
        release,
        origin: node("origin")?,
        destination: node("dest")?,
        passengers,
        deadline,
        offline,
    }))
}

/// How the serve loop paces feed consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Free-running: one entry per burst, the engine catches up after
    /// each. The admission queue never holds more than one entry, so
    /// nothing is ever shed.
    Free,
    /// Virtual-time pacing: entries whose release times share an
    /// absolute quantum bucket (`floor(t / quantum_s)`) arrive as one
    /// burst, contending for the admission queue. Absolute buckets make
    /// the grouping a pure function of the feed — a resumed run
    /// re-derives the exact bursts of the original.
    Virtual {
        /// Bucket width in virtual seconds; must be positive.
        quantum_s: f64,
    },
}

impl Pace {
    fn bucket(&self, t: f64) -> Option<i64> {
        match self {
            Pace::Free => None,
            Pace::Virtual { quantum_s } => Some((t / quantum_s).floor() as i64),
        }
    }
}

/// Reads a feed line-by-line and yields admission bursts.
///
/// `skip` request entries are consumed and discarded up front (drain
/// commands among them still take effect): a resumed serve loop passes
/// the restored ingestion count so the feed cursor lands exactly where
/// the crashed run left off. Bursts are only ever ingested whole before
/// the engine steps, so the restored count is always a burst boundary
/// and the re-derived grouping matches the original run's.
pub struct FeedReader<R: BufRead> {
    input: R,
    pace: Pace,
    n_nodes: u32,
    /// First entry of the next bucket, held back by burst lookahead.
    pending: Option<IngestEntry>,
    /// Request entries still to discard (resume catch-up).
    skip: usize,
    drain_seen: bool,
    eof: bool,
    last_t: f64,
    line_no: u64,
    /// Seeded feed faults (`--failpoints feed-*`); empty in production.
    faults: FeedFaultPlan,
}

impl<R: BufRead> FeedReader<R> {
    /// Wraps `input`; see the type docs for `skip`.
    pub fn new(input: R, pace: Pace, n_nodes: u32, skip: usize) -> Self {
        Self {
            input,
            pace,
            n_nodes,
            pending: None,
            skip,
            drain_seen: false,
            eof: false,
            last_t: f64::NEG_INFINITY,
            line_no: 0,
            faults: FeedFaultPlan::default(),
        }
    }

    /// Installs a seeded feed-fault plan: a deterministic mid-stream
    /// disconnect and/or a slow-consumer stall at planned line numbers.
    pub fn with_faults(mut self, faults: FeedFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// 1-based number of the last feed line consumed (0 before the
    /// first) — error reporting context for the serve loop.
    pub fn line(&self) -> u64 {
        self.line_no
    }

    /// Next admissible entry straight off the wire, or `None` at EOF /
    /// drain. Validates ordering and applies the resume skip.
    fn next_entry(&mut self) -> Result<Option<IngestEntry>, String> {
        loop {
            if self.eof || self.drain_seen {
                return Ok(None);
            }
            let next_line = self.line_no + 1;
            if self.faults.disconnect_at_line == Some(next_line) {
                // A dropped peer surfaces exactly like a mid-line read
                // error; deterministic because the line index is a pure
                // function of the feed consumed so far.
                return Err(format!(
                    "feed line {next_line}: connection reset by failpoint (injected disconnect)"
                ));
            }
            if let Some((line, stall_ms)) = self.faults.stall {
                if line == next_line {
                    // Slow-consumer stall: wall-clock only, the virtual
                    // clock and the trace are untouched.
                    std::thread::sleep(std::time::Duration::from_millis(stall_ms.min(STALL_MS)));
                }
            }
            let mut line = String::new();
            let n = std::io::Read::take(&mut self.input, MAX_LINE_BYTES)
                .read_line(&mut line)
                .map_err(|e| format!("feed read: {e}"))?;
            if n == 0 {
                self.eof = true;
                return Ok(None);
            }
            if n as u64 == MAX_LINE_BYTES && !line.ends_with('\n') {
                return Err(format!(
                    "feed line {next_line}: exceeds the {MAX_LINE_BYTES}-byte line cap"
                ));
            }
            self.line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let item = parse_line(trimmed, self.n_nodes)
                .map_err(|e| format!("feed line {}: {e}", self.line_no))?;
            match item {
                FeedItem::Drain => {
                    self.drain_seen = true;
                    return Ok(None);
                }
                FeedItem::Request(entry) => {
                    if entry.release < self.last_t {
                        return Err(format!(
                            "feed line {}: release {} goes back in time (previous was {})",
                            self.line_no,
                            json::fmt_f64(entry.release),
                            json::fmt_f64(self.last_t)
                        ));
                    }
                    self.last_t = entry.release;
                    if self.skip > 0 {
                        self.skip -= 1;
                        continue;
                    }
                    return Ok(Some(entry));
                }
            }
        }
    }

    /// Yields the next burst of simultaneous arrivals, or `None` once
    /// the feed hit EOF or the drain command.
    pub fn next_burst(&mut self) -> Result<Option<Vec<IngestEntry>>, String> {
        let first = match self.pending.take() {
            Some(e) => e,
            None => match self.next_entry()? {
                Some(e) => e,
                None => return Ok(None),
            },
        };
        let mut burst = vec![first];
        if let Some(bucket) = self.pace.bucket(first.release) {
            while let Some(e) = self.next_entry()? {
                if self.pace.bucket(e.release) == Some(bucket) {
                    burst.push(e);
                } else {
                    self.pending = Some(e);
                    break;
                }
            }
        }
        Ok(Some(burst))
    }

    /// After [`FeedReader::next_burst`] returned `None` on a drain
    /// command: the entries still on the wire, to be ingested doomed
    /// with [`RejectReason::DrainRejected`]. Empty at plain EOF.
    pub fn leftovers(&mut self) -> Result<Vec<(IngestEntry, RejectReason)>, String> {
        let mut out = Vec::new();
        if !self.drain_seen {
            return Ok(out);
        }
        // Re-open the entry loop past the drain marker: ordering is
        // still enforced, the resume skip still applies (a resumed run
        // may land past the drain point).
        self.drain_seen = false;
        while let Some(e) = self.next_entry()? {
            out.push((e, RejectReason::DrainRejected));
        }
        self.drain_seen = true;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn entry(t: f64) -> IngestEntry {
        IngestEntry {
            release: t,
            origin: NodeId(1),
            destination: NodeId(2),
            passengers: 1,
            deadline: t + 100.0,
            offline: false,
        }
    }

    #[test]
    fn lines_round_trip_exactly() {
        let e = IngestEntry {
            release: 0.1 + 0.2, // classic non-representable sum
            origin: NodeId(31),
            destination: NodeId(904),
            passengers: 3,
            deadline: 1234.5678901234567,
            offline: true,
        };
        let line = entry_line(&e);
        match parse_line(&line, 1000).unwrap() {
            FeedItem::Request(back) => assert_eq!(back, e),
            FeedItem::Drain => panic!("parsed as drain"),
        }
    }

    #[test]
    fn optional_fields_have_defaults() {
        let item = parse_line(r#"{"t":1,"origin":0,"dest":5,"deadline":9}"#, 10).unwrap();
        match item {
            FeedItem::Request(e) => {
                assert_eq!(e.passengers, 1);
                assert!(!e.offline);
            }
            FeedItem::Drain => panic!(),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let cases = [
            ("not json", "invalid literal"),
            (r#"{"cmd":"stop"}"#, "unknown feed command"),
            (r#"{"cmd":"drain","t":1}"#, "only the \"cmd\" key"),
            (r#"{"t":1,"origin":0,"dest":5}"#, "missing required key `deadline`"),
            (r#"{"t":1,"origin":99,"dest":5,"deadline":9}"#, "not a node id below 10"),
            (r#"{"t":1,"origin":-1,"dest":5,"deadline":9}"#, "not a node id"),
            (r#"{"t":1,"origin":0.5,"dest":5,"deadline":9}"#, "not a node id"),
            (r#"{"t":1,"origin":0,"dest":5,"deadline":9,"bogus":1}"#, "unknown feed key"),
            (r#"{"t":1,"origin":0,"dest":5,"deadline":9,"passengers":0}"#, "not in 1..=255"),
            (r#"{"t":1,"origin":0,"dest":5,"deadline":9,"offline":1}"#, "must be a boolean"),
        ];
        for (line, needle) in cases {
            let err = parse_line(line, 10).unwrap_err();
            assert!(err.contains(needle), "`{line}` → `{err}` (wanted `{needle}`)");
        }
    }

    fn feed_of(entries: &[IngestEntry], tail: &str) -> String {
        let mut s: String = entries.iter().map(|e| entry_line(e) + "\n").collect();
        s.push_str(tail);
        s
    }

    #[test]
    fn free_pace_yields_single_entry_bursts() {
        let feed = feed_of(&[entry(1.0), entry(1.0), entry(2.0)], "");
        let mut r = FeedReader::new(Cursor::new(feed), Pace::Free, 10, 0);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert!(r.next_burst().unwrap().is_none());
        assert!(!r.drain_seen);
    }

    #[test]
    fn virtual_pace_groups_by_absolute_bucket() {
        // Quantum 10: [0,10) and [10,20) are distinct buckets even for
        // back-to-back entries.
        let feed = feed_of(&[entry(1.0), entry(9.9), entry(10.0), entry(19.0), entry(25.0)], "");
        let pace = Pace::Virtual { quantum_s: 10.0 };
        let mut r = FeedReader::new(Cursor::new(feed), pace, 10, 0);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| r.next_burst().unwrap()).map(|b| b.len()).collect();
        assert_eq!(sizes, [2, 2, 1]);
    }

    #[test]
    fn resume_skip_lands_on_the_same_burst_grouping() {
        let entries = [entry(1.0), entry(9.9), entry(10.0), entry(19.0), entry(25.0)];
        let pace = Pace::Virtual { quantum_s: 10.0 };
        // The original run ingested the first burst (2 entries) before
        // dying; the resumed reader must yield exactly the remaining
        // bursts, identically grouped.
        let feed = feed_of(&entries, "");
        let mut r = FeedReader::new(Cursor::new(feed), pace, 10, 2);
        let sizes: Vec<usize> =
            std::iter::from_fn(|| r.next_burst().unwrap()).map(|b| b.len()).collect();
        assert_eq!(sizes, [2, 1]);
    }

    #[test]
    fn drain_stops_admission_and_collects_leftovers() {
        let feed = format!(
            "{}\n{{\"cmd\":\"drain\"}}\n{}\n{}\n",
            entry_line(&entry(1.0)),
            entry_line(&entry(2.0)),
            entry_line(&entry(3.0))
        );
        let mut r = FeedReader::new(Cursor::new(feed), Pace::Free, 10, 0);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert!(r.next_burst().unwrap().is_none());
        assert!(r.drain_seen);
        let left = r.leftovers().unwrap();
        assert_eq!(left.len(), 2);
        assert!(left.iter().all(|(_, r)| *r == RejectReason::DrainRejected));
    }

    #[test]
    fn time_going_backwards_is_an_error() {
        let feed = feed_of(&[entry(5.0), entry(4.0)], "");
        let mut r = FeedReader::new(Cursor::new(feed), Pace::Free, 10, 0);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        let err = r.next_burst().unwrap_err();
        assert!(err.contains("goes back in time"), "{err}");
    }

    #[test]
    fn oversized_line_is_a_typed_fault_not_a_buffer() {
        // One valid entry, then a line that never terminates within the
        // cap — the reader must fail with the oversized classification
        // instead of buffering it.
        let mut feed = feed_of(&[entry(1.0)], "");
        feed.push_str(&"x".repeat(MAX_LINE_BYTES as usize + 10));
        let mut r = FeedReader::new(Cursor::new(feed), Pace::Free, 10, 0);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        let err = r.next_burst().unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert_eq!(classify_feed_error(&err), "oversized_line");
    }

    #[test]
    fn injected_disconnect_fires_at_the_planned_line() {
        let feed = feed_of(&[entry(1.0), entry(2.0), entry(3.0)], "");
        let plan = FeedFaultPlan { disconnect_at_line: Some(2), stall: None };
        let mut r = FeedReader::new(Cursor::new(feed), Pace::Free, 10, 0).with_faults(plan);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert_eq!(r.line(), 1);
        let err = r.next_burst().unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert_eq!(classify_feed_error(&err), "disconnect");
    }

    #[test]
    fn injected_stall_delays_but_preserves_the_stream() {
        let feed = feed_of(&[entry(1.0), entry(2.0)], "");
        let plan = FeedFaultPlan { disconnect_at_line: None, stall: Some((2, STALL_MS)) };
        let mut r = FeedReader::new(Cursor::new(feed), Pace::Free, 10, 0).with_faults(plan);
        let start = std::time::Instant::now();
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert_eq!(r.next_burst().unwrap().unwrap().len(), 1);
        assert!(r.next_burst().unwrap().is_none());
        assert!(start.elapsed() >= std::time::Duration::from_millis(STALL_MS));
    }

    #[test]
    fn feed_error_classification_covers_the_fault_table() {
        let cases = [
            ("feed line 7: connection reset by failpoint (injected disconnect)", "disconnect"),
            ("feed line 3: exceeds the 65536-byte line cap", "oversized_line"),
            ("feed read: unexpected EOF", "io"),
            ("feed line 2: missing required key `deadline`", "protocol"),
        ];
        for (msg, want) in cases {
            assert_eq!(classify_feed_error(msg), want, "{msg}");
        }
    }

    #[test]
    fn recorded_feed_is_one_line_per_request() {
        let reqs = vec![mtshare_model::RideRequest {
            id: mtshare_model::RequestId(0),
            release_time: 3.5,
            origin: NodeId(1),
            destination: NodeId(2),
            passengers: 2,
            deadline: 99.0,
            direct_cost_s: 10.0,
            offline: false,
        }];
        let text = record_feed(&reqs);
        assert_eq!(text.lines().count(), 1);
        assert!(matches!(parse_line(text.trim(), 10), Ok(FeedItem::Request(_))));
    }
}
