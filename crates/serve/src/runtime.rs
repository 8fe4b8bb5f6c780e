//! The serve loop: admit → step → report, then drain and finalize.

use crate::admission::AdmissionQueue;
use crate::feed::{classify_feed_error, FeedReader, Pace};
use mtshare_chaos::failpoint::FeedFaultPlan;
use mtshare_model::DispatchScheme;
use mtshare_obs::{Event, Obs, SteadyExtra, SteadyTracker};
use mtshare_sim::{SimEngine, SimReport, StepOutcome};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;

/// Serve-loop configuration (the CLI validates flag combinations and
/// builds this).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bounded admission queue in front of the engine.
    pub queue: AdmissionQueue,
    /// Feed pacing: free-running or virtual-time bursts.
    pub pace: Pace,
    /// Steady-state report cadence in virtual seconds (`None` = off).
    pub report_every_s: Option<f64>,
    /// Node count of the road network, bounding feed node ids.
    pub n_nodes: u32,
    /// Liveness file for the supervisor: the step count is rewritten
    /// after every burst, so a stale mtime means a wedged engine.
    pub heartbeat: Option<PathBuf>,
    /// Seeded feed faults to inject into the reader (`--failpoints`).
    pub feed_faults: Option<FeedFaultPlan>,
}

/// How a serve run failed. `Feed` is a typed feed fault (disconnect,
/// oversized line, transport error, protocol violation) after the WAL
/// was synced — the state dir stays resumable and the CLI maps it to
/// its own exit code so a supervisor can tell it from a config error.
#[derive(Debug)]
pub enum ServeError {
    /// The feed failed mid-stream.
    Feed {
        /// 1-based feed line at/after which the fault hit.
        line: u64,
        /// Classification (see [`classify_feed_error`]).
        kind: &'static str,
        /// Human-readable cause.
        msg: String,
    },
    /// Anything else: config validation, report-sink I/O.
    Other(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Feed { line, kind, msg } => {
                write!(f, "feed fault ({kind}) at line {line}: {msg}")
            }
            ServeError::Other(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for ServeError {
    fn from(msg: String) -> Self {
        ServeError::Other(msg)
    }
}

/// How a serve run ended.
pub enum ServeOutcome {
    /// Graceful drain completed: WAL flushed, final checkpoint written,
    /// report built.
    Finished(Box<SimReport>),
    /// A planned in-process crash point fired mid-stream (restart
    /// tests); state is crash-consistent but nothing was finalized.
    Crashed {
        /// Steps fully processed before death.
        step: u64,
    },
    /// Strict durability stopped the run on a storage fault: the WAL
    /// was synced best-effort, sinks are flushed, and the CLI exits
    /// with the storage-fault code.
    StorageFault {
        /// Steps processed when the fault stopped the run.
        step: u64,
    },
}

/// Opens a feed source: `-` for stdin, `tcp:ADDR` to bind `ADDR` and
/// serve one connection, anything else as a file path.
pub fn open_feed(spec: &str) -> Result<Box<dyn BufRead>, String> {
    if spec == "-" {
        return Ok(Box::new(BufReader::new(std::io::stdin())));
    }
    if let Some(addr) = spec.strip_prefix("tcp:") {
        let listener = std::net::TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind feed socket {addr}: {e}"))?;
        let (stream, peer) =
            listener.accept().map_err(|e| format!("accepting feed connection: {e}"))?;
        eprintln!("feed connection from {peer}");
        return Ok(Box::new(BufReader::new(stream)));
    }
    let f = std::fs::File::open(spec).map_err(|e| format!("cannot open feed {spec}: {e}"))?;
    Ok(Box::new(BufReader::new(f)))
}

/// Drives `engine` over the feed until EOF or a drain command, then
/// drains gracefully: admission stops, in-flight work finishes or
/// expires, the final checkpoint and obs summary are flushed.
///
/// Steady-state lines land on `report_out` every
/// [`ServeOptions::report_every_s`] virtual seconds. They are
/// suppressed while `obs` is muted (WAL replay after a resume): the
/// replayed interval's counters were already reported by the crashed
/// run, and profiling-grade numbers are not replayable anyway.
pub fn serve<R: BufRead>(
    mut engine: SimEngine,
    scheme: &mut dyn DispatchScheme,
    feed: R,
    opts: ServeOptions,
    obs: &Obs,
    mut report_out: Option<&mut dyn Write>,
) -> Result<ServeOutcome, ServeError> {
    opts.queue.validate()?;
    // The restored ingestion count is the feed cursor: everything the
    // crashed run ingested (admitted or doomed) is skipped, and the
    // skip lands on a burst boundary because bursts are ingested whole
    // before the engine steps.
    let skip = if engine.resumed() { engine.ingested() } else { 0 };
    let mut reader = FeedReader::new(feed, opts.pace, opts.n_nodes, skip);
    if let Some(plan) = opts.feed_faults {
        reader = reader.with_faults(plan);
    }

    let mut steady = SteadyState::new(&opts);
    beat(&opts.heartbeat, &engine);
    // Catch up before touching the feed. A fresh run goes idle
    // immediately, but a restored run must first re-execute the steps
    // the crashed run processed *before* it ingested its next burst —
    // the WAL digests pin each step to the watermark it ran under, so
    // raising the watermark early would make replay diverge. (`Done`
    // means the crash fell inside the final drain: the whole feed is
    // behind the restored cursor already.)
    match engine.run_until_idle(scheme) {
        StepOutcome::Idle | StepOutcome::Done => {}
        StepOutcome::Crashed { step } => return Ok(ServeOutcome::Crashed { step }),
        StepOutcome::StorageFault { step } => return Ok(ServeOutcome::StorageFault { step }),
        StepOutcome::Progressed => unreachable!("run_until_idle only returns terminal outcomes"),
    }
    loop {
        let burst = match reader.next_burst() {
            Ok(Some(burst)) => burst,
            Ok(None) => break,
            Err(msg) => return Err(feed_fault(&mut engine, obs, reader.line(), msg)),
        };
        let adm = opts.queue.admit_burst(burst.len());
        steady.queue_peak = steady.queue_peak.max(adm.queue_peak);
        for (entry, decision) in burst.into_iter().zip(adm.decisions) {
            match decision {
                None => {
                    engine.ingest(entry);
                }
                Some(reason) => {
                    engine.ingest_doomed(entry, reason);
                }
            }
        }
        match engine.run_until_idle(scheme) {
            StepOutcome::Idle => {}
            StepOutcome::Crashed { step } => return Ok(ServeOutcome::Crashed { step }),
            StepOutcome::StorageFault { step } => return Ok(ServeOutcome::StorageFault { step }),
            outcome => unreachable!("open stream cannot reach {outcome:?}"),
        }
        beat(&opts.heartbeat, &engine);
        steady.boundary_reports(&engine, obs, &mut report_out)?;
    }

    // Drain: entries past the drain command still enter the trace, as
    // deterministic rejections at their release times.
    let leftovers = match reader.leftovers() {
        Ok(entries) => entries,
        Err(msg) => return Err(feed_fault(&mut engine, obs, reader.line(), msg)),
    };
    for (entry, reason) in leftovers {
        engine.ingest_doomed(entry, reason);
    }
    engine.close_stream();
    match engine.run_until_idle(scheme) {
        StepOutcome::Done => {}
        StepOutcome::Crashed { step } => return Ok(ServeOutcome::Crashed { step }),
        StepOutcome::StorageFault { step } => return Ok(ServeOutcome::StorageFault { step }),
        outcome => unreachable!("closed stream cannot reach {outcome:?}"),
    }
    beat(&opts.heartbeat, &engine);
    steady.final_report(&engine, obs, &mut report_out)?;
    match engine.finalize(scheme) {
        Ok(report) => Ok(ServeOutcome::Finished(Box::new(report))),
        Err(step) => Ok(ServeOutcome::StorageFault { step }),
    }
}

/// Records a feed fault (counter + meta event), syncs persistence so
/// the state dir is crash-consistent, and builds the typed error.
fn feed_fault(engine: &mut SimEngine, obs: &Obs, line: u64, msg: String) -> ServeError {
    let kind = classify_feed_error(&msg);
    obs.add("faults", &[("feed", 1)]);
    obs.emit_meta(Event::FeedFault { t: engine.clock(), line, kind });
    engine.sync_persistence();
    ServeError::Feed { line, kind, msg }
}

/// Best-effort heartbeat write: the supervisor watches this file's
/// mtime, so content only needs to change the inode's timestamp.
fn beat(path: &Option<PathBuf>, engine: &SimEngine) {
    if let Some(p) = path {
        let _ = std::fs::write(p, format!("{}\n", engine.step_count()));
    }
}

/// Steady-report bookkeeping for one serve run.
struct SteadyState {
    tracker: Option<SteadyTracker>,
    next_t: f64,
    every: f64,
    /// Peak admission-queue depth since the last report.
    queue_peak: usize,
}

impl SteadyState {
    fn new(opts: &ServeOptions) -> Self {
        let every = opts.report_every_s.unwrap_or(f64::INFINITY);
        Self { tracker: None, next_t: every, every, queue_peak: 0 }
    }

    /// Emits one line per report boundary the virtual clock has crossed.
    fn boundary_reports(
        &mut self,
        engine: &SimEngine,
        obs: &Obs,
        out: &mut Option<&mut dyn Write>,
    ) -> Result<(), String> {
        while engine.clock() >= self.next_t {
            self.emit(engine, obs, self.next_t, out)?;
            self.next_t += self.every;
        }
        Ok(())
    }

    /// One last line at the drain clock, so short runs still produce a
    /// report and the final interval is never silently dropped.
    fn final_report(
        &mut self,
        engine: &SimEngine,
        obs: &Obs,
        out: &mut Option<&mut dyn Write>,
    ) -> Result<(), String> {
        if self.every.is_finite() {
            // The final line's timestamp must not go backwards relative
            // to the last boundary line.
            let t = engine.clock().max(self.next_t - self.every);
            self.emit(engine, obs, t, out)?;
        }
        Ok(())
    }

    fn emit(
        &mut self,
        engine: &SimEngine,
        obs: &Obs,
        t: f64,
        out: &mut Option<&mut dyn Write>,
    ) -> Result<(), String> {
        if obs.is_muted() {
            // Mid-replay: drop the baseline so the first post-replay
            // interval starts from the restored counters, not from a
            // half-replayed state.
            self.tracker = None;
            return Ok(());
        }
        let tracker = self.tracker.get_or_insert_with(|| SteadyTracker::new(obs));
        let extra = SteadyExtra {
            queue_peak: self.queue_peak,
            ingested: engine.ingested() as u64,
            steps: engine.step_count(),
        };
        if let Some(line) = tracker.report_line(obs, t, &extra) {
            if let Some(w) = out.as_deref_mut() {
                writeln!(w, "{line}").map_err(|e| format!("writing steady report: {e}"))?;
            }
        }
        self.queue_peak = 0;
        Ok(())
    }
}
