//! # mtshare-obs — structured observability for the mT-Share pipeline
//!
//! A zero-external-dependency telemetry subsystem: typed
//! dispatch-lifecycle events, atomic counters, log-bucketed histograms,
//! stage-span timers, and JSONL/summary sinks.
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
//! allocation, no atomics.

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
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
pub const SUMMARY_SCHEMA: &str = "mtshare-obs-summary/v12";

/// Fields of `profiling.alg4`, in the order [`Obs::add_alg4`] counts them.
pub(crate) const ALG4_FIELDS: [&str; 6] =
    ["legs", "corridors", "unreachable", "searches", "accepted", "fallbacks"];

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

/// End-of-run statistics pulled from the shared routing structures
/// (`PathCache`, `HotNodeOracle`). Plain integers so this crate does
/// not depend on `mtshare-routing`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExternalStats {
    /// Path-cache hits.
    pub cache_hits: u64,
    /// Path-cache misses.
    pub cache_misses: u64,
    /// Path-cache evictions.
    pub cache_evictions: u64,
    /// Oracle answers served from pinned hot-node vectors.
    pub oracle_vector_hits: u64,
    /// Oracle fallback graph searches.
    pub oracle_searches: u64,
    /// Hot-node vector computations (pin events).
    pub oracle_pin_computes: u64,
    /// Hot-node vectors freed (refcount reached zero).
    pub oracle_evictions: u64,
    /// Contraction-hierarchy point-to-point queries (0 under the
    /// bidirectional router).
    pub ch_p2p_queries: u64,
    /// Bucket many-to-one sweeps.
    pub ch_bucket_sweeps: u64,
    /// Total sources across all bucket sweeps.
    pub ch_bucket_sources: u64,
    /// Shortcut edges in the loaded/built hierarchy.
    pub ch_shortcuts: u64,
    /// Customizable-hierarchy point-to-point queries (0 unless
    /// `--router cch`).
    pub cch_p2p_queries: u64,
    /// Customizable-hierarchy bucket many-to-one sweeps.
    pub cch_bucket_sweeps: u64,
    /// Total sources across all CCH bucket sweeps.
    pub cch_bucket_sources: u64,
    /// Metric customizations performed (1 for the base metric, plus one
    /// per traffic-shift boundary crossed).
    pub cch_customizations: u64,
    /// Skeleton arcs the nested-dissection elimination added beyond the
    /// original edges (fill-in).
    pub cch_fill_arcs: u64,
    /// Dynamic-tree scheduler: insertion scorings served by trees.
    pub dtree_scores: u64,
    /// Dynamic-tree scheduler: full spine rebuilds.
    pub dtree_rebuilds: u64,
    /// Dynamic-tree scheduler: completed-stop advances.
    pub dtree_advances: u64,
    /// Dynamic-tree scheduler: winning-branch promotions (splice-ins).
    pub dtree_commits: u64,
    /// Dynamic-tree scheduler: request splice-outs (cancel/repair).
    pub dtree_removes: u64,
    /// Dynamic-tree scheduler: version refreshes after retiming.
    pub dtree_retimes: u64,
    /// Dynamic-tree scheduler: committed-leg costs served from spine
    /// caches.
    pub dtree_legs_reused: u64,
    /// Dynamic-tree scheduler: committed-leg costs filled by a fresh
    /// oracle query.
    pub dtree_legs_filled: u64,
    /// Dynamic-tree scheduler: per-evaluation memo hits (queries the
    /// insertion DP would have re-issued).
    pub dtree_memo_reuses: u64,
    /// Dynamic-tree scheduler: per-evaluation memo fills (distinct
    /// oracle queries).
    pub dtree_memo_fills: u64,
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

/// The shared telemetry state behind an enabled [`Obs`].
struct ObsCore {
    sinks: Mutex<Vec<Box<dyn EventSink>>>,
    agg: Mutex<Aggregates>,
    run: Mutex<RunInfo>,
    external: Mutex<ExternalStats>,
    // ---- updated through `&self` from the schemes (profiling) ----
    stages: [Histogram; Stage::COUNT],
    filter_considered: AtomicU64,
    filter_kept: AtomicU64,
    insertions_attempted: AtomicU64,
    insertions_feasible: AtomicU64,
    alg4: [AtomicU64; 6],
    response_s: Histogram,
    // ---- batch assignment solver (profiling) ----
    lap_solves: AtomicU64,
    lap_rows: AtomicU64,
    lap_cols: AtomicU64,
    lap_assigned: AtomicU64,
    lap_augmentations: AtomicU64,
    lap_relaxations: AtomicU64,
    lap_skipped_rows: AtomicU64,
    // ---- persistence (profiling) ----
    /// While set, `emit` updates aggregates but suppresses sink
    /// forwarding: WAL replay after a warm restart re-executes events
    /// that the pre-crash run already wrote to its trace.
    muted: AtomicBool,
    checkpoints: AtomicU64,
    restores: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    checkpoint_bytes: Histogram,
    checkpoint_write_s: Histogram,
    // ---- storage/feed faults (profiling) ----
    wal_faults: AtomicU64,
    snapshot_faults: AtomicU64,
    feed_faults: AtomicU64,
    dir_sync_unsupported: AtomicU64,
    quarantines: AtomicU64,
}

impl ObsCore {
    fn new() -> Self {
        Self {
            sinks: Mutex::new(Vec::new()),
            agg: Mutex::new(Aggregates::default()),
            run: Mutex::new(RunInfo::default()),
            external: Mutex::new(ExternalStats::default()),
            stages: std::array::from_fn(|_| Histogram::new()),
            filter_considered: AtomicU64::new(0),
            filter_kept: AtomicU64::new(0),
            insertions_attempted: AtomicU64::new(0),
            insertions_feasible: AtomicU64::new(0),
            alg4: Default::default(),
            response_s: Histogram::new(),
            lap_solves: AtomicU64::new(0),
            lap_rows: AtomicU64::new(0),
            lap_cols: AtomicU64::new(0),
            lap_assigned: AtomicU64::new(0),
            lap_augmentations: AtomicU64::new(0),
            lap_relaxations: AtomicU64::new(0),
            lap_skipped_rows: AtomicU64::new(0),
            muted: AtomicBool::new(false),
            checkpoints: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_bytes: AtomicU64::new(0),
            checkpoint_bytes: Histogram::new(),
            checkpoint_write_s: Histogram::new(),
            wal_faults: AtomicU64::new(0),
            snapshot_faults: AtomicU64::new(0),
            feed_faults: AtomicU64::new(0),
            dir_sync_unsupported: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }
}

/// Times one pipeline stage; records wall-clock into the owning
/// histogram on drop. Obtained from [`Obs::stage`]; a span from a
/// disabled `Obs` is inert.
pub struct StageSpan {
    inner: Option<(Instant, Arc<ObsCore>, Stage)>,
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some((t0, core, stage)) = self.inner.take() {
            core.stages[stage.index()].record(t0.elapsed().as_secs_f64());
        }
    }
}

/// Cheap cloneable handle to the telemetry bus. The default handle is
/// *disabled*: every call is a single branch on a `None`.
#[derive(Clone, Default)]
pub struct Obs {
    core: Option<Arc<ObsCore>>,
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
        Self { core: Some(Arc::new(ObsCore::new())) }
    }

    /// Whether telemetry is collected at all.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Attaches an event sink. No-op when disabled.
    pub fn add_sink(&self, sink: Box<dyn EventSink>) {
        if let Some(core) = &self.core {
            core.sinks.lock().expect("obs sinks poisoned").push(sink);
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
            let mut agg = core.agg.lock().expect("obs aggregates poisoned");
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
        if core.muted.load(Ordering::Relaxed) {
            // WAL replay: aggregates re-accumulate toward the pre-crash
            // state, but the trace lines were already written by the
            // interrupted run — forwarding again would duplicate them.
            return;
        }
        let mut sinks = core.sinks.lock().expect("obs sinks poisoned");
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
        let mut sinks = core.sinks.lock().expect("obs sinks poisoned");
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
            core.muted.store(muted, Ordering::Relaxed);
        }
    }

    /// Whether sink forwarding is currently suppressed for replay.
    pub fn is_muted(&self) -> bool {
        self.core.as_ref().map(|c| c.muted.load(Ordering::Relaxed)).unwrap_or(false)
    }

    /// Records one snapshot write: payload size in bytes and wall-clock
    /// write latency in seconds (profiling).
    pub fn record_checkpoint(&self, bytes: u64, write_s: f64) {
        if let Some(core) = &self.core {
            core.checkpoints.fetch_add(1, Ordering::Relaxed);
            core.checkpoint_bytes.record(bytes as f64);
            core.checkpoint_write_s.record(write_s);
        }
    }

    /// Records one warm restart from persisted state (profiling).
    pub fn record_restore(&self) {
        if let Some(core) = &self.core {
            core.restores.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one appended WAL record of `bytes` payload bytes
    /// (profiling).
    pub fn record_wal_append(&self, bytes: u64) {
        if let Some(core) = &self.core {
            core.wal_records.fetch_add(1, Ordering::Relaxed);
            core.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one mid-run storage fault on operation `op`
    /// (`wal_append`, `wal_sync`, `snapshot_write`, `snapshot_read`,
    /// `dir_sync`): WAL ops count against the `wal` bucket, everything
    /// else against `snapshot` (profiling).
    pub fn record_storage_fault(&self, op: &str) {
        if let Some(core) = &self.core {
            if op.starts_with("wal") {
                core.wal_faults.fetch_add(1, Ordering::Relaxed);
            } else {
                core.snapshot_faults.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one feed-transport fault (disconnect, oversized or
    /// malformed line) observed by the serve loop (profiling).
    pub fn record_feed_fault(&self) {
        if let Some(core) = &self.core {
            core.feed_faults.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one tolerated "this filesystem cannot fsync a directory"
    /// outcome of a snapshot rename (profiling). Real directory-fsync
    /// failures surface as storage faults instead.
    pub fn record_dir_sync_unsupported(&self) {
        if let Some(core) = &self.core {
            core.dir_sync_unsupported.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one quarantined state-dir generation — the degrade
    /// durability policy moved the bad generation aside (profiling).
    pub fn record_quarantine(&self) {
        if let Some(core) = &self.core {
            core.quarantines.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Serializes the deterministic aggregates (event/reject counts and
    /// the four outcome series) for a checkpoint. `None` when disabled.
    pub fn snapshot_aggregates(&self) -> Option<Vec<u8>> {
        let core = self.core.as_ref()?;
        Some(core.agg.lock().expect("obs aggregates poisoned").to_bytes())
    }

    /// Replaces the deterministic aggregates with a snapshot taken by
    /// [`Obs::snapshot_aggregates`]. No-op when disabled.
    pub fn restore_aggregates(&self, bytes: &[u8]) -> Result<(), String> {
        let Some(core) = &self.core else { return Ok(()) };
        let agg =
            Aggregates::from_bytes(bytes).map_err(|e| format!("obs aggregate snapshot: {e}"))?;
        *core.agg.lock().expect("obs aggregates poisoned") = agg;
        Ok(())
    }

    /// Starts a wall-clock span for `stage`; the duration is recorded
    /// when the returned guard drops.
    #[inline]
    pub fn stage(&self, stage: Stage) -> StageSpan {
        StageSpan { inner: self.core.as_ref().map(|c| (Instant::now(), c.clone(), stage)) }
    }

    /// Records a partition-filter evaluation: `considered` partitions
    /// scanned, `kept` surviving the λ/ε prune.
    #[inline]
    pub fn add_filter_stats(&self, considered: u64, kept: u64) {
        if let Some(core) = &self.core {
            core.filter_considered.fetch_add(considered, Ordering::Relaxed);
            core.filter_kept.fetch_add(kept, Ordering::Relaxed);
        }
    }

    /// Records one Alg. 4 leg: of the partition paths (corridors) it tried,
    /// `unreachable` were skipped on the piece graph and `searches` searched;
    /// `accepted` when a biased route fit the budget, else it fell back to
    /// the basic leg.
    #[inline]
    pub fn add_alg4(&self, unreachable: u64, searches: u64, accepted: bool) {
        if let Some(core) = &self.core {
            let tried = unreachable + searches;
            let leg = [1, tried, unreachable, searches, accepted as u64, !accepted as u64];
            for (total, n) in core.alg4.iter().zip(leg) {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Records insertion-DP work: `attempted` insertion instances
    /// enumerated, `feasible` passing all deadline checks.
    #[inline]
    pub fn add_insertions(&self, attempted: u64, feasible: u64) {
        if let Some(core) = &self.core {
            core.insertions_attempted.fetch_add(attempted, Ordering::Relaxed);
            core.insertions_feasible.fetch_add(feasible, Ordering::Relaxed);
        }
    }

    /// Records one Kuhn–Munkres batch-window solve: matrix shape, rows
    /// matched, and the solver's internal work counters (profiling —
    /// the resulting assignment is deterministic, the wall-clock and
    /// aggregate work are not part of the trace contract).
    #[allow(clippy::too_many_arguments)]
    pub fn record_lap(
        &self,
        rows: u64,
        cols: u64,
        assigned: u64,
        augmentations: u64,
        relaxations: u64,
        skipped_rows: u64,
    ) {
        if let Some(core) = &self.core {
            core.lap_solves.fetch_add(1, Ordering::Relaxed);
            core.lap_rows.fetch_add(rows, Ordering::Relaxed);
            core.lap_cols.fetch_add(cols, Ordering::Relaxed);
            core.lap_assigned.fetch_add(assigned, Ordering::Relaxed);
            core.lap_augmentations.fetch_add(augmentations, Ordering::Relaxed);
            core.lap_relaxations.fetch_add(relaxations, Ordering::Relaxed);
            core.lap_skipped_rows.fetch_add(skipped_rows, Ordering::Relaxed);
        }
    }

    /// Batch-window assignment solves recorded so far (profiling).
    pub fn lap_solves(&self) -> u64 {
        self.core.as_ref().map(|c| c.lap_solves.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Records one dispatcher response latency in seconds (wall-clock;
    /// profiling only).
    pub fn record_response_s(&self, secs: f64) {
        if let Some(core) = &self.core {
            core.response_s.record(secs);
        }
    }

    /// Sets the static run facts reported in the summary.
    pub fn set_run_info(&self, info: RunInfo) {
        if let Some(core) = &self.core {
            *core.run.lock().expect("obs run info poisoned") = info;
        }
    }

    /// Sets the end-of-run cache/oracle statistics.
    pub fn set_external_stats(&self, stats: ExternalStats) {
        if let Some(core) = &self.core {
            *core.external.lock().expect("obs external poisoned") = stats;
        }
    }

    /// Flushes all sinks.
    pub fn flush(&self) {
        if let Some(core) = &self.core {
            for s in core.sinks.lock().expect("obs sinks poisoned").iter_mut() {
                s.flush();
            }
        }
    }

    // ---- inspection (tests, CLI) ----

    /// Count of rejections classified as `reason`. 0 when disabled.
    pub fn reject_count(&self, reason: RejectReason) -> u64 {
        self.core
            .as_ref()
            .map(|c| c.agg.lock().expect("obs aggregates poisoned").reject_counts[reason.index()])
            .unwrap_or(0)
    }

    /// Per-kind event counts in [`EVENT_KINDS`] order. Zeros when
    /// disabled.
    pub fn event_counts(&self) -> [u64; EVENT_KINDS.len()] {
        self.core
            .as_ref()
            .map(|c| c.agg.lock().expect("obs aggregates poisoned").event_counts)
            .unwrap_or_default()
    }

    /// Wall-clock observations recorded for `stage` (profiling).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.core.as_ref().map(|c| c.stages[stage.index()].count()).unwrap_or(0)
    }

    /// Total insertion instances enumerated (profiling).
    pub fn insertions_attempted(&self) -> u64 {
        self.core.as_ref().map(|c| c.insertions_attempted.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Total partitions scanned by the filter (profiling).
    pub fn filter_considered(&self) -> u64 {
        self.core.as_ref().map(|c| c.filter_considered.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Builds the end-of-run summary JSON. `None` when disabled.
    ///
    /// Layout: deterministic outcome metrics first, then one
    /// `"profiling"` subtree holding everything wall-clock- or
    /// history-dependent. Equivalence checks strip that single key.
    pub fn summary_json(&self) -> Option<String> {
        let core = self.core.as_ref()?;
        let agg = core.agg.lock().expect("obs aggregates poisoned");
        let run = core.run.lock().expect("obs run info poisoned").clone();
        let ext = *core.external.lock().expect("obs external poisoned");

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
            write_histogram(&mut s, stage.label(), &core.stages[stage.index()], 1e6, "us");
        }
        s.push_str("},");
        let _ = write!(
            s,
            r#""counters":{{"filter_partitions_considered":{},"filter_partitions_kept":{},"insertions_attempted":{},"insertions_feasible":{}}},"#,
            core.filter_considered.load(Ordering::Relaxed),
            core.filter_kept.load(Ordering::Relaxed),
            core.insertions_attempted.load(Ordering::Relaxed),
            core.insertions_feasible.load(Ordering::Relaxed)
        );
        let cache_total = ext.cache_hits + ext.cache_misses;
        let cache_ratio =
            if cache_total == 0 { 0.0 } else { ext.cache_hits as f64 / cache_total as f64 };
        let _ = write!(
            s,
            r#""path_cache":{{"hits":{},"misses":{},"evictions":{},"hit_ratio":{}}},"#,
            ext.cache_hits,
            ext.cache_misses,
            ext.cache_evictions,
            json::fmt_f64(cache_ratio)
        );
        let oracle_lookups = ext.oracle_vector_hits + ext.oracle_searches;
        let oracle_ratio = if oracle_lookups == 0 {
            0.0
        } else {
            ext.oracle_vector_hits as f64 / oracle_lookups as f64
        };
        let _ = write!(
            s,
            r#""oracle":{{"vector_hits":{},"searches":{},"pin_computes":{},"evictions":{},"hit_ratio":{}}},"#,
            ext.oracle_vector_hits,
            ext.oracle_searches,
            ext.oracle_pin_computes,
            ext.oracle_evictions,
            json::fmt_f64(oracle_ratio)
        );
        let _ = write!(
            s,
            r#""ch":{{"p2p_queries":{},"bucket_sweeps":{},"bucket_sources":{},"shortcuts":{}}},"#,
            ext.ch_p2p_queries, ext.ch_bucket_sweeps, ext.ch_bucket_sources, ext.ch_shortcuts
        );
        let _ = write!(
            s,
            r#""cch":{{"p2p_queries":{},"bucket_sweeps":{},"bucket_sources":{},"customizations":{},"fill_arcs":{}}},"#,
            ext.cch_p2p_queries,
            ext.cch_bucket_sweeps,
            ext.cch_bucket_sources,
            ext.cch_customizations,
            ext.cch_fill_arcs
        );
        let _ = write!(
            s,
            r#""persistence":{{"checkpoints":{},"restores":{},"wal_records":{},"wal_bytes":{},"#,
            core.checkpoints.load(Ordering::Relaxed),
            core.restores.load(Ordering::Relaxed),
            core.wal_records.load(Ordering::Relaxed),
            core.wal_bytes.load(Ordering::Relaxed)
        );
        write_histogram(&mut s, "checkpoint_bytes", &core.checkpoint_bytes, 1.0, "b");
        s.push(',');
        write_histogram(&mut s, "checkpoint_write_ms", &core.checkpoint_write_s, 1e3, "ms");
        s.push_str("},");
        let _ = write!(
            s,
            r#""faults":{{"wal":{},"snapshot":{},"feed":{},"dir_sync_unsupported":{},"quarantines":{}}},"#,
            core.wal_faults.load(Ordering::Relaxed),
            core.snapshot_faults.load(Ordering::Relaxed),
            core.feed_faults.load(Ordering::Relaxed),
            core.dir_sync_unsupported.load(Ordering::Relaxed),
            core.quarantines.load(Ordering::Relaxed)
        );
        let _ = write!(
            s,
            r#""lap":{{"solves":{},"rows":{},"cols":{},"assigned":{},"augmentations":{},"relaxations":{},"skipped_rows":{}}},"#,
            core.lap_solves.load(Ordering::Relaxed),
            core.lap_rows.load(Ordering::Relaxed),
            core.lap_cols.load(Ordering::Relaxed),
            core.lap_assigned.load(Ordering::Relaxed),
            core.lap_augmentations.load(Ordering::Relaxed),
            core.lap_relaxations.load(Ordering::Relaxed),
            core.lap_skipped_rows.load(Ordering::Relaxed)
        );
        let _ = write!(
            s,
            r#""dtree":{{"scores":{},"rebuilds":{},"advances":{},"commits":{},"removes":{},"retimes":{},"legs_reused":{},"legs_filled":{},"memo_reuses":{},"memo_fills":{}}},"#,
            ext.dtree_scores,
            ext.dtree_rebuilds,
            ext.dtree_advances,
            ext.dtree_commits,
            ext.dtree_removes,
            ext.dtree_retimes,
            ext.dtree_legs_reused,
            ext.dtree_legs_filled,
            ext.dtree_memo_reuses,
            ext.dtree_memo_fills
        );
        if core.alg4[0].load(Ordering::Relaxed) > 0 {
            s.push_str(r#""alg4":{"#);
            for (name, n) in ALG4_FIELDS.iter().zip(&core.alg4) {
                let _ = write!(s, r#""{name}":{},"#, n.load(Ordering::Relaxed));
            }
            s.pop();
            s.push_str("},");
        }
        write_histogram(&mut s, "response_ms", &core.response_s, 1e3, "ms");
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
        obs.add_filter_stats(10, 2);
        obs.add_insertions(5, 1);
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
        assert_eq!(buf.lock().unwrap().lines().count(), 3);
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
        obs.add_filter_stats(12, 3);
        obs.add_insertions(7, 2);
        obs.record_response_s(0.001);
        obs.set_external_stats(ExternalStats {
            cache_hits: 9,
            cache_misses: 1,
            ..ExternalStats::default()
        });
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
        let ratio_for = |ext: ExternalStats| {
            let obs = Obs::enabled();
            obs.set_external_stats(ext);
            let text = obs.summary_json().unwrap();
            schema::validate_summary(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            let v = json::parse(&text).unwrap();
            let oracle = v.get("profiling").and_then(|p| p.get("oracle")).cloned().unwrap();
            oracle.get("hit_ratio").and_then(|n| n.as_num()).unwrap()
        };
        // Every lookup answered from a vector: 100 %, not 0.
        let all_hits = ExternalStats { oracle_vector_hits: 2_260_000, ..ExternalStats::default() };
        assert_eq!(ratio_for(all_hits), 1.0);
        let mixed =
            ExternalStats { oracle_vector_hits: 9, oracle_searches: 3, ..ExternalStats::default() };
        assert_eq!(ratio_for(mixed), 0.75);
        let only_misses = ExternalStats { oracle_searches: 4, ..ExternalStats::default() };
        assert_eq!(ratio_for(only_misses), 0.0);
        assert_eq!(ratio_for(ExternalStats::default()), 0.0);
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
        assert_eq!(plain_buf.lock().unwrap().lines().count(), 1, "canonical trace: arrival only");
        assert_eq!(meta_buf.lock().unwrap().lines().count(), 3, "meta sink sees everything");
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
        assert_eq!(buf.lock().unwrap().len(), 0, "replay must not duplicate trace lines");
        assert_eq!(obs.reject_count(RejectReason::EmptyFleet), 1);
        obs.set_muted(false);
        obs.emit(Event::Arrival { t: 2.0, req: 2, offline: false });
        assert_eq!(buf.lock().unwrap().lines().count(), 1);
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
        obs.record_restore();
        obs.record_wal_append(64);
        obs.record_wal_append(32);
        obs.record_wal_append(32);
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
