//! Periodic steady-state reports for service mode.
//!
//! A long-lived `mtshare serve` process emits one JSONL line per
//! reporting interval describing *what changed since the previous
//! line*: arrivals, commits, rejections, admission sheds, per-stage
//! p95 latency over the interval, plus absolute gauges (ingested
//! total, step counter, queue peak depth, RSS). Interval deltas make
//! the stream useful for dashboards without the consumer having to
//! differentiate counters itself.
//!
//! The stream is *profiling-grade* output: stage latencies and RSS are
//! wall-clock/OS facts, so steady lines are never part of the
//! determinism contract (unlike the canonical event trace).

use crate::event::{RejectReason, EVENT_KINDS};
use crate::hist::HistogramSnapshot;
use crate::json;
use crate::schema::{write_fields, Val, STEADY_FIELDS};
use crate::span::Stage;
use crate::Obs;
use std::fmt::Write as _;

/// Steady-state report schema identifier.
/// v2: `stage_p95_us` gained the `dtree_update` stage.
/// v3: `stage_p95_us` gained the `oracle_pin` stage.
pub const STEADY_SCHEMA: &str = "mtshare-obs-steady/v3";

/// Gauges owned by the serve runtime (not derivable from [`Obs`])
/// that ride along on each steady line.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteadyExtra {
    /// Peak admission-queue depth observed since the previous report.
    pub queue_peak: usize,
    /// Total feed entries ingested so far (absolute gauge).
    pub ingested: u64,
    /// Simulator step counter (absolute gauge).
    pub steps: u64,
}

/// Interval-delta state for the steady-state report stream.
///
/// Holds the counter/histogram baselines from the previous report so
/// each [`SteadyTracker::report_line`] call emits deltas covering
/// exactly one interval.
pub struct SteadyTracker {
    last_t: f64,
    prev_events: [u64; EVENT_KINDS.len()],
    prev_shed: u64,
    prev_stages: Option<Vec<HistogramSnapshot>>,
}

/// Reject-reason indices counted as admission "shed" on steady lines.
const SHED_REASONS: [RejectReason; 3] =
    [RejectReason::QueueShed, RejectReason::QueueRejected, RejectReason::DrainRejected];

impl SteadyTracker {
    /// Captures the baseline: the first report line will cover
    /// everything from this call onward.
    pub fn new(obs: &Obs) -> Self {
        Self {
            last_t: 0.0,
            prev_events: obs.event_counts(),
            prev_shed: shed_total(obs),
            prev_stages: stage_snapshots(obs),
        }
    }

    /// Builds one steady-state JSONL line covering the interval since
    /// the previous call (or since [`SteadyTracker::new`]) and rolls
    /// the baseline forward. `t` is the engine's virtual clock.
    /// Returns `None` when `obs` is disabled.
    pub fn report_line(&mut self, obs: &Obs, t: f64, extra: &SteadyExtra) -> Option<String> {
        let core = obs.core.as_ref()?;
        let events = obs.event_counts();
        let shed = shed_total(obs);

        let delta = |kind: usize| events[kind].saturating_sub(self.prev_events[kind]);
        let mut stages = String::from("{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                stages.push(',');
            }
            let h = core.stages[stage.index()].borrow();
            let p95 = match self.prev_stages.as_ref() {
                Some(snaps) => h.quantile_since(&snaps[stage.index()], 0.95),
                None => h.quantile(0.95),
            };
            let _ = write!(stages, r#""{}":{}"#, stage.label(), json::fmt_f64(p95 * 1e6));
        }
        stages.push('}');
        // In `STEADY_FIELDS` order.
        let vals = [
            Val::S(STEADY_SCHEMA),
            Val::F(t),
            Val::F(t - self.last_t),
            Val::U(delta(0)),
            Val::U(delta(2)),
            Val::U(delta(3)),
            Val::U(shed.saturating_sub(self.prev_shed)),
            Val::U(extra.queue_peak as u64),
            Val::U(extra.ingested),
            Val::U(extra.steps),
            Val::Raw(&stages),
            Val::U(rss_bytes()),
        ];
        let mut s = String::with_capacity(512);
        s.push('{');
        write_fields(&mut s, &STEADY_FIELDS, &vals);
        s.push('}');

        self.last_t = t;
        self.prev_events = events;
        self.prev_shed = shed;
        self.prev_stages = stage_snapshots(obs);
        Some(s)
    }
}

fn shed_total(obs: &Obs) -> u64 {
    SHED_REASONS.iter().map(|&r| obs.reject_count(r)).sum()
}

fn stage_snapshots(obs: &Obs) -> Option<Vec<HistogramSnapshot>> {
    let core = obs.core.as_ref()?;
    Some(Stage::ALL.iter().map(|s| core.stages[s.index()].borrow().snapshot()).collect())
}

/// Resident-set estimate in bytes from `/proc/self/statm` (second
/// field × 4096-byte pages). Returns 0 on platforms without procfs —
/// consumers treat 0 as "unavailable", not "no memory".
pub fn rss_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else { return 0 };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|pages| pages.parse::<u64>().ok())
        .map(|pages| pages * 4096)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn disabled_obs_yields_no_steady_line() {
        let obs = Obs::disabled();
        let mut tracker = SteadyTracker::new(&obs);
        assert!(tracker.report_line(&obs, 10.0, &SteadyExtra::default()).is_none());
    }

    #[test]
    fn steady_lines_carry_interval_deltas_not_totals() {
        let obs = Obs::enabled();
        obs.emit(Event::Arrival { t: 1.0, req: 0, offline: false });
        obs.emit(Event::Commit { t: 1.0, req: 0, taxi: 0, detour_s: 0.0, schedule_len: 2 });
        let mut tracker = SteadyTracker::new(&obs);
        // Baseline taken after the first two events: they must not leak
        // into the first interval.
        obs.emit(Event::Arrival { t: 5.0, req: 1, offline: false });
        obs.emit(Event::Reject { t: 5.0, req: 1, reason: RejectReason::QueueShed });
        let extra = SteadyExtra { queue_peak: 3, ingested: 2, steps: 40 };
        let line = tracker.report_line(&obs, 10.0, &extra).expect("enabled");
        // The exact line, up to the one value that is a fact about the OS.
        let golden = concat!(
            r#"{"schema":"mtshare-obs-steady/v3","t":10,"interval_s":10,"arrivals":1,"commits":0,"#,
            r#""rejects":1,"shed":1,"queue_peak":3,"ingested":2,"steps":40,"stage_p95_us":{"#,
            r#""candidate_search":0,"partition_filter":0,"insertion_dp":0,"routing":0,"commit":0,"#,
            r#""preprocess_ch":0,"batch_solve":0,"dtree_update":0,"customize":0,"oracle_pin":0},"#,
            r#""rss_bytes":"#
        );
        let (head, rss) = line.rsplit_once(':').expect("a JSON object");
        assert_eq!(format!("{head}:"), golden);
        assert!(rss.strip_suffix('}').is_some_and(|n| n.parse::<u64>().is_ok()), "{rss}");
        let v = json::parse(&line).unwrap_or_else(|e| panic!("{e}\n{line}"));
        assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(STEADY_SCHEMA));
        assert_eq!(v.get("t").and_then(|n| n.as_num()), Some(10.0));
        assert_eq!(v.get("interval_s").and_then(|n| n.as_num()), Some(10.0));
        assert_eq!(v.get("arrivals").and_then(|n| n.as_num()), Some(1.0));
        assert_eq!(v.get("commits").and_then(|n| n.as_num()), Some(0.0));
        assert_eq!(v.get("rejects").and_then(|n| n.as_num()), Some(1.0));
        assert_eq!(v.get("shed").and_then(|n| n.as_num()), Some(1.0));
        assert_eq!(v.get("queue_peak").and_then(|n| n.as_num()), Some(3.0));
        assert_eq!(v.get("ingested").and_then(|n| n.as_num()), Some(2.0));
        assert_eq!(v.get("steps").and_then(|n| n.as_num()), Some(40.0));
        assert!(v.get("stage_p95_us").and_then(|o| o.get("commit")).is_some());
        // Second interval: nothing happened.
        let line2 = tracker.report_line(&obs, 20.0, &extra).expect("enabled");
        let v2 = json::parse(&line2).unwrap();
        assert_eq!(v2.get("interval_s").and_then(|n| n.as_num()), Some(10.0));
        assert_eq!(v2.get("arrivals").and_then(|n| n.as_num()), Some(0.0));
        assert_eq!(v2.get("rejects").and_then(|n| n.as_num()), Some(0.0));
        assert_eq!(v2.get("shed").and_then(|n| n.as_num()), Some(0.0));
    }

    #[test]
    fn rss_estimate_is_positive_on_linux() {
        // The test process certainly has resident pages; on platforms
        // without procfs the helper contract is "0 = unavailable".
        let rss = rss_bytes();
        if std::path::Path::new("/proc/self/statm").exists() {
            assert!(rss > 0, "statm present but rss = 0");
        }
    }
}
