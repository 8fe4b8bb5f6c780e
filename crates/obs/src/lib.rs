//! # mtshare-obs — structured observability for the mT-Share pipeline
//!
//! A zero-external-dependency telemetry subsystem: typed
//! dispatch-lifecycle events, counters, log-bucketed histograms,
//! stage-span timers, and JSONL/summary sinks, owned by one thread.
//!
//! ## Determinism contract
//!
//! The event stream and the summary (minus its `profiling` subtree)
//! are **byte-identical across runs of one scenario** — whatever the
//! router, the scheduler, or a kill-and-resume in the middle:
//!
//! * events carry *simulation* time only and are emitted by the
//!   simulator's event loop, in the order it processes work;
//! * everything measured in wall-clock (stage spans, response
//!   latencies) or dependent on run history (cache warming patterns,
//!   checkpoint counts) lives under the summary's single `"profiling"`
//!   key, which equivalence checks strip before comparing.
//!
//! ## Overhead contract
//!
//! A disabled [`Obs`] (the default) is a `None` behind a pointer-sized
//! handle: every instrumentation call short-circuits on one branch, no
//! allocation.

#![warn(missing_docs)]

pub mod event;
pub mod hist;
pub mod json;
pub mod schema;
pub mod sink;
pub mod span;
pub mod steady;

pub use event::{Event, RejectReason, EVENT_KINDS};
pub use hist::{Histogram, HistogramSnapshot, Series};
pub use sink::{EventSink, JsonlSink, MemorySink};
pub use span::Stage;
pub use steady::{rss_bytes, SteadyExtra, SteadyTracker, STEADY_SCHEMA};

use mtshare_persist::{DecodeError, Decoder, Encoder, Persist};
use schema::Extra;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// Summary schema identifier, bumped on breaking layout changes.
/// v7: `profiling` gained a `faults` block (storage/feed fault counters,
/// quarantines, tolerated directory-fsync gaps) and three meta event
/// kinds (`storage_fault`, `durability_degraded`, `feed_fault`) joined
/// the event-count table.
/// v8: `profiling.stages` gained the `dtree_update` span and `profiling`
/// gained a `dtree` block (dynamic-tree scheduler sync/memoization
/// counters; all zero under `--scheduler dp`).
/// v9: `profiling.stages` gained the `customize` span and `profiling`
/// gained a `cch` block (customizable-hierarchy query/customization
/// counters; all zero unless `--router cch`).
/// v10: dispatch is sequential only — `profiling.parallelism` and
/// `profiling.workers` are gone, and so is `profiling.oracle.memo_hits`
/// (the oracle keeps no memo).
/// v11: `profiling.stages` gained the `oracle_pin` span (pin fills, which
/// no longer count towards `customize`).
/// v12: `profiling` gained an `alg4` block (probabilistic-routing corridor
/// counters), the first block present only when its feature ran.
/// v13: `profiling.counters` gained `insertions_pruned` (candidate taxis
/// the reach bound ruled out before any DP or tree work).
/// v14: `profiling.oracle` gained `regrows` (resident pins re-swept in
/// full because a new holder needed them farther than they were swept).
/// v15: `profiling.counters` gained `candidate_union` (taxis in the
/// in-range partitions' union, summed over candidate searches).
/// v16: `profiling.oracle` gained `settled` (vertices pin sweeps expanded)
/// and `resident_peak` (most pins resident at once), and `profiling`
/// gained `process` (`loop_wall_s`, `peak_rss_mb`) before `response_ms`.
pub const SUMMARY_SCHEMA: &str = "mtshare-obs-summary/v16";

/// Static facts about the run, reported verbatim in the summary.
#[derive(Debug, Clone, Default)]
pub struct RunInfo {
    /// Dispatch scheme label.
    pub scheme: String,
    /// Fleet size.
    pub n_taxis: usize,
    /// Total requests (online + offline).
    pub n_requests: usize,
    /// Offline requests among them.
    pub n_offline: usize,
}

/// Deterministic aggregates, updated only by [`Obs::emit`].
#[derive(Default)]
struct Aggregates {
    event_counts: [u64; EVENT_KINDS.len()],
    reject_counts: [u64; RejectReason::ALL.len()],
    candidates: Series,
    feasible: Series,
    waiting_s: Series,
    detour_s: Series,
}

impl Persist for Aggregates {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(&self.event_counts);
        enc.seq(&self.reject_counts);
        for series in [&self.candidates, &self.feasible, &self.waiting_s, &self.detour_s] {
            enc.seq(series.values());
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let events: Vec<u64> = dec.seq()?;
        let rejects: Vec<u64> = dec.seq()?;
        let event_counts: [u64; EVENT_KINDS.len()] = events
            .try_into()
            .map_err(|_| DecodeError::Invalid("event count array has wrong arity"))?;
        let reject_counts: [u64; RejectReason::ALL.len()] = rejects
            .try_into()
            .map_err(|_| DecodeError::Invalid("reject count array has wrong arity"))?;
        Ok(Self {
            event_counts,
            reject_counts,
            candidates: Series::from_values(dec.seq()?),
            feasible: Series::from_values(dec.seq()?),
            waiting_s: Series::from_values(dec.seq()?),
            detour_s: Series::from_values(dec.seq()?),
        })
    }
}

/// The state behind an enabled [`Obs`]. A sink may read the bus from its
/// `on_event`, so no borrow but that of `sinks` is held across a sink call.
struct ObsCore {
    sinks: RefCell<Vec<Box<dyn EventSink>>>,
    agg: RefCell<Aggregates>,
    run: RefCell<RunInfo>,
    // ---- updated through `&self` from the schemes (profiling) ----
    stages: [RefCell<Histogram>; Stage::COUNT],
    /// Every counter of every `profiling` block, flat in
    /// [`schema::BLOCKS`] order ([`schema::slot`]).
    counters: [Cell<u64>; schema::N_COUNTERS],
    response_s: RefCell<Histogram>,
    // ---- persistence (profiling) ----
    /// While set, `emit` updates aggregates but suppresses sink
    /// forwarding: WAL replay after a warm restart re-executes events
    /// that the pre-crash run already wrote to its trace.
    muted: Cell<bool>,
    checkpoint_bytes: RefCell<Histogram>,
    checkpoint_write_s: RefCell<Histogram>,
    /// `profiling.process`: loop wall seconds and peak RSS in MiB.
    process: Cell<[f64; 2]>,
}

impl ObsCore {
    fn new() -> Self {
        Self {
            sinks: RefCell::default(),
            agg: RefCell::default(),
            run: RefCell::default(),
            stages: Default::default(),
            counters: std::array::from_fn(|_| Cell::new(0)),
            response_s: RefCell::default(),
            muted: Cell::new(false),
            checkpoint_bytes: RefCell::default(),
            checkpoint_write_s: RefCell::default(),
            process: Cell::new([0.0; 2]),
        }
    }
}

/// Times one pipeline stage; records wall-clock into the owning
/// histogram on drop. Obtained from [`Obs::stage`]; a span from a
/// disabled `Obs` is inert.
pub struct StageSpan {
    inner: Option<(Instant, Rc<ObsCore>, Stage)>,
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some((t0, core, stage)) = self.inner.take() {
            core.stages[stage.index()].borrow_mut().record(t0.elapsed().as_secs_f64());
        }
    }
}

/// Cheap cloneable handle to the telemetry bus. The default handle is
/// *disabled*: every call is a single branch on a `None`.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Rc<ObsCore>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Obs({})", if self.core.is_some() { "enabled" } else { "disabled" })
    }
}

impl Obs {
    /// A disabled handle — all instrumentation is a no-op.
    pub fn disabled() -> Self {
        Self { core: None }
    }

    /// An enabled bus with no sinks yet (aggregates and counters still
    /// collect; attach sinks with [`Obs::add_sink`]).
    pub fn enabled() -> Self {
        Self { core: Some(Rc::new(ObsCore::new())) }
    }

    /// Whether telemetry is collected at all.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Attaches an event sink. No-op when disabled.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(core) = &self.core {
            core.sinks.borrow_mut().push(sink);
        }
    }

    /// Emits one lifecycle event: updates the deterministic aggregates
    /// and forwards the canonical JSONL line to every sink.
    ///
    /// Must only be called from the simulator's event loop — its order
    /// of work is what makes the stream reproducible.
    pub fn emit(&self, ev: Event) {
        let Some(core) = &self.core else { return };
        if ev.is_meta() {
            // Persistence meta events never touch the deterministic
            // aggregates or the canonical trace; route them to the
            // opt-in meta path even if a caller used `emit` directly.
            return self.emit_meta(ev);
        }
        {
            let mut agg = core.agg.borrow_mut();
            agg.event_counts[ev.kind_index()] += 1;
            match &ev {
                Event::Dispatch { candidates, feasible, .. } => {
                    agg.candidates.push(f64::from(*candidates));
                    agg.feasible.push(f64::from(*feasible));
                }
                Event::Reject { reason, .. } => {
                    agg.reject_counts[reason.index()] += 1;
                }
                Event::Pickup { wait_s, .. } => agg.waiting_s.push(*wait_s),
                Event::Dropoff { detour_s, .. } => agg.detour_s.push(*detour_s),
                _ => {}
            }
        }
        if core.muted.get() {
            // WAL replay: aggregates re-accumulate toward the pre-crash
            // state, but the trace lines were already written by the
            // interrupted run — forwarding again would duplicate them.
            return;
        }
        let mut sinks = core.sinks.borrow_mut();
        if !sinks.is_empty() {
            let line = ev.to_jsonl();
            for s in sinks.iter_mut() {
                s.on_event(&ev, &line);
            }
        }
    }

    /// Emits a persistence meta event (checkpoint/restore) to the sinks
    /// that opted in via [`EventSink::wants_meta`]. Never updates the
    /// deterministic aggregates and ignores the replay mute, so meta
    /// diagnostics survive even during replay.
    pub fn emit_meta(&self, ev: Event) {
        let Some(core) = &self.core else { return };
        let mut sinks = core.sinks.borrow_mut();
        if sinks.iter().any(|s| s.wants_meta()) {
            let line = ev.to_jsonl();
            for s in sinks.iter_mut() {
                if s.wants_meta() {
                    s.on_event(&ev, &line);
                }
            }
        }
    }

    /// Suppresses (or restores) sink forwarding while keeping aggregate
    /// accumulation live — the warm-restart replay path uses this to
    /// rebuild aggregates without duplicating trace lines.
    pub fn set_muted(&self, muted: bool) {
        if let Some(core) = &self.core {
            core.muted.set(muted);
        }
    }

    /// Whether sink forwarding is currently suppressed for replay.
    pub fn is_muted(&self) -> bool {
        self.core.as_ref().is_some_and(|c| c.muted.get())
    }

    /// Records one snapshot write into the `persistence` histograms:
    /// payload size in bytes and wall-clock write latency in seconds
    /// (profiling; the count is the `persistence.checkpoints` counter).
    pub fn record_checkpoint(&self, bytes: u64, write_s: f64) {
        if let Some(core) = &self.core {
            core.checkpoint_bytes.borrow_mut().record(bytes as f64);
            core.checkpoint_write_s.borrow_mut().record(write_s);
        }
    }

    /// Serializes the deterministic aggregates (event/reject counts and
    /// the four outcome series) for a checkpoint. `None` when disabled.
    pub fn snapshot_aggregates(&self) -> Option<Vec<u8>> {
        let core = self.core.as_ref()?;
        Some(core.agg.borrow().to_bytes())
    }

    /// Replaces the deterministic aggregates with a snapshot taken by
    /// [`Obs::snapshot_aggregates`]. No-op when disabled.
    pub fn restore_aggregates(&self, bytes: &[u8]) -> Result<(), String> {
        let Some(core) = &self.core else { return Ok(()) };
        let agg =
            Aggregates::from_bytes(bytes).map_err(|e| format!("obs aggregate snapshot: {e}"))?;
        *core.agg.borrow_mut() = agg;
        Ok(())
    }

    /// Starts a wall-clock span for `stage`; the duration is recorded
    /// when the returned guard drops.
    #[inline]
    pub fn stage(&self, stage: Stage) -> StageSpan {
        StageSpan { inner: self.core.as_ref().map(|c| (Instant::now(), c.clone(), stage)) }
    }

    /// Adds to counters of one `profiling` block of the summary, named as
    /// in that block's [`schema::BLOCKS`] row — the one way a count gets
    /// into the summary (profiling: never part of the trace contract).
    ///
    /// # Panics
    /// On a name the table does not have: the producer and the table
    /// disagree, and the summary would fail `obs_check` anyway.
    #[inline]
    pub fn add(&self, block: &str, counters: &[(&str, u64)]) {
        if let Some(core) = &self.core {
            for (name, n) in counters {
                let slot = schema::slot(block, name)
                    .unwrap_or_else(|| panic!("no summary counter {block}.{name}"));
                let c = &core.counters[slot];
                c.set(c.get() + n);
            }
        }
    }

    /// Sets `profiling.process`: the simulator loop's wall seconds and
    /// the process's peak resident set in MiB.
    pub fn set_process(&self, loop_wall_s: f64, peak_rss_mb: f64) {
        if let Some(core) = &self.core {
            core.process.set([loop_wall_s, peak_rss_mb]);
        }
    }

    /// Current value of one summary counter (tests, CLI). 0 when disabled
    /// or unknown.
    pub fn counter(&self, block: &str, name: &str) -> u64 {
        let slot = schema::slot(block, name);
        self.core.as_ref().zip(slot).map_or(0, |(c, i)| c.counters[i].get())
    }

    /// Records one dispatcher response latency in seconds (wall-clock;
    /// profiling only).
    pub fn record_response_s(&self, secs: f64) {
        if let Some(core) = &self.core {
            core.response_s.borrow_mut().record(secs);
        }
    }

    /// Sets the static run facts reported in the summary.
    pub fn set_run_info(&self, info: RunInfo) {
        if let Some(core) = &self.core {
            *core.run.borrow_mut() = info;
        }
    }

    /// Flushes all sinks.
    pub fn flush(&self) {
        if let Some(core) = &self.core {
            for s in core.sinks.borrow_mut().iter_mut() {
                s.flush();
            }
        }
    }

    // ---- inspection (tests, CLI) ----

    /// Count of rejections classified as `reason`. 0 when disabled.
    pub fn reject_count(&self, reason: RejectReason) -> u64 {
        self.core.as_ref().map_or(0, |c| c.agg.borrow().reject_counts[reason.index()])
    }

    /// Per-kind event counts in [`EVENT_KINDS`] order. Zeros when
    /// disabled.
    pub fn event_counts(&self) -> [u64; EVENT_KINDS.len()] {
        self.core.as_ref().map(|c| c.agg.borrow().event_counts).unwrap_or_default()
    }

    /// Wall-clock observations recorded for `stage` (profiling).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.core.as_ref().map_or(0, |c| c.stages[stage.index()].borrow().count())
    }

    /// Builds the end-of-run summary JSON. `None` when disabled.
    ///
    /// Layout: deterministic outcome metrics first, then one
    /// `"profiling"` subtree holding everything wall-clock- or
    /// history-dependent. Equivalence checks strip that single key.
    pub fn summary_json(&self) -> Option<String> {
        let core = self.core.as_ref()?;
        let agg = core.agg.borrow();
        let run = core.run.borrow();

        let mut s = String::with_capacity(2048);
        s.push('{');
        let _ = write!(s, r#""schema":"{SUMMARY_SCHEMA}","#);
        let _ = write!(
            s,
            r#""run":{{"scheme":"{}","taxis":{},"requests":{},"offline":{}}},"#,
            json::escape(&run.scheme),
            run.n_taxis,
            run.n_requests,
            run.n_offline
        );
        s.push_str(r#""events":{"#);
        for (i, kind) in EVENT_KINDS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, r#""{kind}":{}"#, agg.event_counts[i]);
        }
        s.push_str("},");
        s.push_str(r#""rejections":{"#);
        for (i, reason) in RejectReason::ALL.iter().enumerate() {
            let _ = write!(s, r#""{}":{},"#, reason.label(), agg.reject_counts[i]);
        }
        let _ = write!(s, r#""total":{}}},"#, agg.reject_counts.iter().sum::<u64>());
        write_series(&mut s, "candidates", &agg.candidates);
        s.push(',');
        write_series(&mut s, "feasible", &agg.feasible);
        s.push(',');
        write_series(&mut s, "waiting_s", &agg.waiting_s);
        s.push(',');
        write_series(&mut s, "detour_s", &agg.detour_s);
        s.push(',');

        // ---- profiling: stripped before determinism comparisons ----
        s.push_str(r#""profiling":{"stages":{"#);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_histogram(&mut s, stage.label(), &core.stages[stage.index()].borrow(), 1e6, "us");
        }
        s.push_str("},");
        let mut counters = core.counters.iter().map(Cell::get);
        for block in &schema::BLOCKS {
            let c: Vec<u64> = counters.by_ref().take(block.counters.len()).collect();
            if block.when_active && c[0] == 0 {
                continue;
            }
            let _ = write!(s, r#""{}":{{"#, block.name);
            for (name, n) in block.counters.iter().zip(&c) {
                let _ = write!(s, r#""{name}":{n},"#);
            }
            match block.extra {
                Extra::None => drop(s.pop()),
                Extra::HitRatio => {
                    let lookups = c[0] + c[1];
                    let ratio = if lookups == 0 { 0.0 } else { c[0] as f64 / lookups as f64 };
                    let _ = write!(s, r#""{}":{}"#, schema::HIT_RATIO, json::fmt_f64(ratio));
                }
                Extra::CheckpointHists => {
                    let hists = [&core.checkpoint_bytes, &core.checkpoint_write_s];
                    for ((key, scale, unit), h) in schema::CHECKPOINT_HISTS.iter().zip(hists) {
                        write_histogram(&mut s, key, &h.borrow(), *scale, unit);
                        s.push(',');
                    }
                    s.pop();
                }
            }
            s.push_str("},");
        }
        s.push_str(r#""process":{"#);
        for (key, value) in schema::PROCESS_FIELDS.iter().zip(core.process.get()) {
            let _ = write!(s, r#""{key}":{},"#, json::fmt_f64(value));
        }
        s.pop();
        s.push_str("},");
        let (key, scale, unit) = schema::RESPONSE_HIST;
        write_histogram(&mut s, key, &core.response_s.borrow(), scale, unit);
        s.push_str("}}");
        Some(s)
    }
}

/// Writes `"name":{"count":..,"mean":..,"p50":..,"p95":..,"p99":..,"min":..,"max":..}`.
fn write_series(out: &mut String, name: &str, series: &Series) {
    let _ = write!(
        out,
        r#""{name}":{{"count":{},"mean":{},"p50":{},"p95":{},"p99":{},"min":{},"max":{}}}"#,
        series.len(),
        json::fmt_f64(series.mean()),
        json::fmt_f64(series.quantile(0.5)),
        json::fmt_f64(series.quantile(0.95)),
        json::fmt_f64(series.quantile(0.99)),
        json::fmt_f64(series.min()),
        json::fmt_f64(series.max())
    );
}

/// Writes a histogram block with quantiles scaled by `scale` and
/// suffixed `unit` (e.g. seconds → µs with `scale = 1e6`).
fn write_histogram(out: &mut String, name: &str, h: &Histogram, scale: f64, unit: &str) {
    let _ = write!(
        out,
        r#""{name}":{{"count":{},"total_s":{},"p50_{unit}":{},"p95_{unit}":{},"p99_{unit}":{},"max_{unit}":{}}}"#,
        h.count(),
        json::fmt_f64(h.sum()),
        json::fmt_f64(h.quantile(0.5) * scale),
        json::fmt_f64(h.quantile(0.95) * scale),
        json::fmt_f64(h.quantile(0.99) * scale),
        json::fmt_f64(h.max() * scale)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let obs = Obs::disabled();
        obs.emit(Event::Arrival { t: 0.0, req: 0, offline: false });
        obs.add("counters", &[("filter_partitions_considered", 10), ("insertions_feasible", 1)]);
        assert_eq!(obs.counter("counters", "insertions_feasible"), 0);
        drop(obs.stage(Stage::Routing));
        assert!(obs.summary_json().is_none());
        assert_eq!(obs.event_counts(), [0; EVENT_KINDS.len()]);
    }

    #[test]
    fn emit_updates_aggregates_and_sinks() {
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        obs.emit(Event::Arrival { t: 1.0, req: 0, offline: false });
        obs.emit(Event::Dispatch { t: 1.0, req: 0, candidates: 4, feasible: 2 });
        obs.emit(Event::Reject { t: 1.0, req: 0, reason: RejectReason::NoFeasibleInsertion });
        assert_eq!(obs.event_counts()[0], 1);
        assert_eq!(obs.reject_count(RejectReason::NoFeasibleInsertion), 1);
        assert_eq!(obs.reject_count(RejectReason::EmptyFleet), 0);
        assert_eq!(buf.borrow().lines().count(), 3);
    }

    #[test]
    fn a_sink_may_read_the_bus_it_listens_to() {
        // `emit` forwards holding no borrow but the sink list's, so a sink
        // that reads counts from inside `on_event` does not panic.
        struct Reader(Obs, Rc<RefCell<Vec<[u64; 3]>>>);
        impl EventSink for Reader {
            fn on_event(&mut self, _: &Event, _: &str) {
                let obs = &self.0;
                self.1.borrow_mut().push([
                    obs.event_counts().iter().sum(),
                    obs.counter("counters", "insertions_feasible"),
                    obs.stage_count(Stage::Commit),
                ]);
            }
        }
        let obs = Obs::enabled();
        let seen = Rc::default();
        // The sink's handle keeps the bus alive: the cycle leaks, which a
        // test can afford.
        obs.add_sink(Box::new(Reader(obs.clone(), Rc::clone(&seen))));
        obs.add("counters", &[("insertions_feasible", 2)]);
        drop(obs.stage(Stage::Commit));
        obs.emit(Event::Arrival { t: 1.0, req: 0, offline: false });
        obs.emit(Event::Dispatch { t: 1.0, req: 0, candidates: 4, feasible: 2 });
        assert_eq!(*seen.borrow(), [[1, 2, 1], [2, 2, 1]]);
        // A live span holds no borrow either.
        let span = obs.stage(Stage::Routing);
        assert!(obs.summary_json().is_some());
        drop(span);
        assert_eq!(obs.stage_count(Stage::Routing), 1);
    }

    #[test]
    fn spans_record_into_stage_histograms() {
        let obs = Obs::enabled();
        {
            let _span = obs.stage(Stage::InsertionDp);
            std::hint::black_box(0u64);
        }
        assert_eq!(obs.stage_count(Stage::InsertionDp), 1);
        assert_eq!(obs.stage_count(Stage::Routing), 0);
    }

    #[test]
    fn summary_is_valid_json_with_deterministic_and_profiling_parts() {
        let obs = Obs::enabled();
        obs.set_run_info(RunInfo {
            scheme: "mt-share".into(),
            n_taxis: 3,
            n_requests: 5,
            n_offline: 1,
        });
        obs.emit(Event::Dispatch { t: 0.5, req: 0, candidates: 2, feasible: 1 });
        obs.emit(Event::Commit { t: 0.5, req: 0, taxi: 1, detour_s: 9.0, schedule_len: 2 });
        obs.emit(Event::Pickup { t: 2.0, req: 0, taxi: 1, wait_s: 1.5 });
        obs.add("counters", &[("filter_partitions_considered", 12), ("filter_partitions_kept", 3)]);
        obs.add("counters", &[("insertions_attempted", 7), ("insertions_feasible", 2)]);
        obs.record_response_s(0.001);
        obs.add("path_cache", &[("hits", 9), ("misses", 1)]);
        let text = obs.summary_json().unwrap();
        let v = json::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(SUMMARY_SCHEMA));
        assert_eq!(
            v.get("events").and_then(|e| e.get("dispatch")).and_then(|n| n.as_num()),
            Some(1.0)
        );
        let prof = v.get("profiling").expect("profiling subtree");
        assert_eq!(
            prof.get("counters")
                .and_then(|c| c.get("insertions_feasible"))
                .and_then(|n| n.as_num()),
            Some(2.0)
        );
        assert_eq!(
            prof.get("path_cache").and_then(|c| c.get("hit_ratio")).and_then(|n| n.as_num()),
            Some(0.9)
        );
        // No oracle lookups at all: the ratio is defined as 0.
        let oracle_ratio = |v: &json::Value| {
            v.get("profiling")
                .and_then(|p| p.get("oracle"))
                .and_then(|o| o.get("hit_ratio"))
                .and_then(|n| n.as_num())
        };
        assert_eq!(oracle_ratio(&v), Some(0.0));
        // Stripping `profiling` leaves the deterministic core only.
        let mut stripped = v.clone();
        stripped.strip_key("profiling");
        assert!(stripped.get("profiling").is_none());
        assert!(stripped.get("rejections").is_some());
    }

    #[test]
    fn oracle_hit_ratio_is_hits_over_lookups() {
        let ratio_for = |hits: u64, searches: u64| {
            let obs = Obs::enabled();
            obs.add("oracle", &[("vector_hits", hits), ("searches", searches)]);
            let text = obs.summary_json().unwrap();
            schema::validate_summary(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            let v = json::parse(&text).unwrap();
            let oracle = v.get("profiling").and_then(|p| p.get("oracle")).cloned().unwrap();
            oracle.get("hit_ratio").and_then(|n| n.as_num()).unwrap()
        };
        // Every lookup answered from a vector: 100 %, not 0.
        assert_eq!(ratio_for(2_260_000, 0), 1.0);
        assert_eq!(ratio_for(9, 3), 0.75);
        assert_eq!(ratio_for(0, 4), 0.0);
        assert_eq!(ratio_for(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "no summary counter lap.solved")]
    fn a_counter_the_table_does_not_have_is_a_bug() {
        Obs::enabled().add("lap", &[("solved", 1)]);
    }

    #[test]
    fn meta_events_reach_only_opted_in_sinks_and_skip_aggregates() {
        let obs = Obs::enabled();
        let (plain, plain_buf) = MemorySink::new();
        let (meta, meta_buf) = MemorySink::new_with_meta();
        obs.add_sink(Box::new(plain));
        obs.add_sink(Box::new(meta));
        // Route through plain `emit` on purpose: meta events must be
        // auto-diverted to the meta path.
        obs.emit(Event::Checkpoint { t: 5.0, step: 10, bytes: 1024 });
        obs.emit_meta(Event::Restore { t: 5.0, step: 10, snapshot_step: 4, wal_replayed: 6 });
        obs.emit(Event::Arrival { t: 6.0, req: 0, offline: false });
        assert_eq!(plain_buf.borrow().lines().count(), 1, "canonical trace: arrival only");
        assert_eq!(meta_buf.borrow().lines().count(), 3, "meta sink sees everything");
        let counts = obs.event_counts();
        assert_eq!(counts.iter().sum::<u64>(), 1, "meta events never counted");
    }

    #[test]
    fn muted_emit_updates_aggregates_but_not_sinks() {
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        obs.set_muted(true);
        assert!(obs.is_muted());
        obs.emit(Event::Pickup { t: 1.0, req: 0, taxi: 1, wait_s: 2.5 });
        obs.emit(Event::Reject { t: 1.0, req: 1, reason: RejectReason::EmptyFleet });
        assert_eq!(buf.borrow().len(), 0, "replay must not duplicate trace lines");
        assert_eq!(obs.reject_count(RejectReason::EmptyFleet), 1);
        obs.set_muted(false);
        obs.emit(Event::Arrival { t: 2.0, req: 2, offline: false });
        assert_eq!(buf.borrow().lines().count(), 1);
        let counts = obs.event_counts();
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn aggregates_snapshot_round_trips() {
        let obs = Obs::enabled();
        obs.emit(Event::Dispatch { t: 0.5, req: 0, candidates: 7, feasible: 3 });
        obs.emit(Event::Pickup { t: 2.0, req: 0, taxi: 1, wait_s: 1.5 });
        obs.emit(Event::Reject { t: 3.0, req: 1, reason: RejectReason::UnreachableOd });
        let snap = obs.snapshot_aggregates().expect("enabled");
        let restored = Obs::enabled();
        restored.restore_aggregates(&snap).expect("restore");
        assert_eq!(restored.event_counts(), obs.event_counts());
        assert_eq!(restored.reject_count(RejectReason::UnreachableOd), 1);
        // Series survive value-for-value: quantiles match bit-exactly.
        let a = json::parse(&obs.summary_json().unwrap()).unwrap();
        let b = json::parse(&restored.summary_json().unwrap()).unwrap();
        for key in ["candidates", "feasible", "waiting_s", "detour_s"] {
            let pa = a.get(key).and_then(|s| s.get("p50")).and_then(|n| n.as_num());
            let pb = b.get(key).and_then(|s| s.get("p50")).and_then(|n| n.as_num());
            assert_eq!(pa, pb, "series {key} p50 drifted");
        }
        // Corruption is rejected, original aggregates untouched.
        let mut bad = snap.clone();
        bad.truncate(bad.len() - 1);
        assert!(restored.restore_aggregates(&bad).is_err());
        assert_eq!(restored.event_counts(), obs.event_counts());
    }

    #[test]
    fn summary_carries_persistence_profiling_block() {
        let obs = Obs::enabled();
        obs.record_checkpoint(4096, 0.002);
        obs.record_checkpoint(8192, 0.004);
        obs.add("persistence", &[("checkpoints", 2), ("restores", 1)]);
        for bytes in [64, 32, 32] {
            obs.add("persistence", &[("wal_records", 1), ("wal_bytes", bytes)]);
        }
        let v = json::parse(&obs.summary_json().unwrap()).unwrap();
        let p = v.get("profiling").unwrap().get("persistence").expect("persistence block");
        assert_eq!(p.get("checkpoints").and_then(|n| n.as_num()), Some(2.0));
        assert_eq!(p.get("restores").and_then(|n| n.as_num()), Some(1.0));
        assert_eq!(p.get("wal_records").and_then(|n| n.as_num()), Some(3.0));
        assert_eq!(p.get("wal_bytes").and_then(|n| n.as_num()), Some(128.0));
        let hist = p.get("checkpoint_bytes").expect("bytes histogram");
        assert_eq!(hist.get("count").and_then(|n| n.as_num()), Some(2.0));
    }

    #[test]
    fn summary_reflects_reject_taxonomy_counts() {
        let obs = Obs::enabled();
        obs.emit(Event::Reject { t: 0.0, req: 1, reason: RejectReason::UnreachableOd });
        obs.emit(Event::Reject { t: 0.0, req: 2, reason: RejectReason::UnreachableOd });
        obs.emit(Event::Reject { t: 0.0, req: 3, reason: RejectReason::OfflineExpired });
        let v = json::parse(&obs.summary_json().unwrap()).unwrap();
        let rej = v.get("rejections").unwrap();
        assert_eq!(rej.get("unreachable_od").and_then(|n| n.as_num()), Some(2.0));
        assert_eq!(rej.get("offline_expired").and_then(|n| n.as_num()), Some(1.0));
        assert_eq!(rej.get("total").and_then(|n| n.as_num()), Some(3.0));
    }
}
