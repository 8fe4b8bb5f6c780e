//! Long-lived service runtime over the streaming simulator.
//!
//! `mtshare serve` turns the one-shot evaluation harness into an engine
//! that consumes ride requests from a line-delimited JSON feed (stdin, a
//! file replay, or a TCP socket), pushes them through a bounded
//! admission queue with an explicit load-shedding policy, and drives
//! [`mtshare_sim::SimEngine`] as a virtual-time-paced stream:
//!
//! - [`feed`]: the feed wire format, the burst reader that groups
//!   entries into virtual-time quanta, and the `feed-record` writer;
//! - [`admission`]: the bounded queue and its `block` / `shed-oldest` /
//!   `reject-new` policies;
//! - [`runtime`]: the serve loop — admit, step, report, drain, finalize;
//! - [`supervise`]: the `--supervise` watchdog — restart on transient
//!   deaths (planned crashes, feed/storage faults, stalls) with bounded
//!   exponential backoff, resuming through the state dir.
//!
//! Determinism contract: the event trace of a serve run over a recorded
//! feed is byte-identical to the one-shot run of the same scenario,
//! including across a kill-and-resume. Everything
//! that could differ run-to-run (stage latencies, RSS, queue depth)
//! lives in the steady-state report stream, which is explicitly
//! profiling-grade and outside the contract.

#![warn(missing_docs)]

pub mod admission;
pub mod feed;
pub mod runtime;
pub mod supervise;

pub use admission::{AdmissionPolicy, AdmissionQueue, BurstAdmission};
pub use feed::{
    classify_feed_error, entry_line, parse_line, record_feed, FeedItem, FeedReader, Pace,
    MAX_LINE_BYTES,
};
pub use runtime::{open_feed, serve, ServeError, ServeOptions, ServeOutcome};
pub use supervise::{
    restart_args, supervise, SuperviseConfig, FEED_FAULT_EXIT, STORAGE_FAULT_EXIT,
    SUPERVISE_EXHAUSTED_EXIT,
};
