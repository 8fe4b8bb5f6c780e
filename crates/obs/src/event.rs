//! Typed dispatch-lifecycle events and their JSONL encoding.
//!
//! Determinism contract: every event is stamped with *simulation* time
//! and emitted from the simulator's event loop, in the order it
//! processes work. The encoded stream is therefore byte-identical across
//! runs of one scenario. Wall-clock never appears here — it lives only
//! in the summary's strippable `profiling` subtree.

use crate::json::fmt_f64;
use std::fmt::Write as _;

/// Why a request could not be served. The order of variants is the
/// classification order: the first failing precondition names the
/// reason (a request with an unreachable OD *and* an empty fleet is
/// `EmptyFleet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// No taxis exist at all.
    EmptyFleet,
    /// No path between origin and destination on the road graph.
    UnreachableOd,
    /// The deadline does not even cover the direct drive.
    InfeasibleDeadline,
    /// No taxi has capacity for the requested party size.
    ZeroCapacity,
    /// Capacity and reachability were fine, but no schedule insertion
    /// satisfied every rider's deadline.
    NoFeasibleInsertion,
    /// An offline (encounter-based) request expired before any taxi
    /// passed close enough.
    OfflineExpired,
    /// The rider withdrew the request before pickup.
    CancelledByPassenger,
    /// The assigned taxi broke down and the stranded rider could not be
    /// recovered (e.g. no path from the breakdown position).
    TaxiFailed,
    /// Recovery re-dispatch attempts for an orphaned rider ran out of
    /// the bounded retry budget.
    RetriesExhausted,
    /// Service mode: the bounded admission queue was full and the
    /// `shed-oldest` policy dropped this (oldest queued) request.
    QueueShed,
    /// Service mode: the bounded admission queue was full and the
    /// `reject-new` policy turned this request away at the door.
    QueueRejected,
    /// Service mode: the request arrived after the drain protocol had
    /// already stopped admission.
    DrainRejected,
}

impl RejectReason {
    /// All variants in stable (serialization) order.
    pub const ALL: [RejectReason; 12] = [
        RejectReason::EmptyFleet,
        RejectReason::UnreachableOd,
        RejectReason::InfeasibleDeadline,
        RejectReason::ZeroCapacity,
        RejectReason::NoFeasibleInsertion,
        RejectReason::OfflineExpired,
        RejectReason::CancelledByPassenger,
        RejectReason::TaxiFailed,
        RejectReason::RetriesExhausted,
        RejectReason::QueueShed,
        RejectReason::QueueRejected,
        RejectReason::DrainRejected,
    ];

    /// The snake_case label used in JSONL events and the summary.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::EmptyFleet => "empty_fleet",
            RejectReason::UnreachableOd => "unreachable_od",
            RejectReason::InfeasibleDeadline => "infeasible_deadline",
            RejectReason::ZeroCapacity => "zero_capacity",
            RejectReason::NoFeasibleInsertion => "no_feasible_insertion",
            RejectReason::OfflineExpired => "offline_expired",
            RejectReason::CancelledByPassenger => "cancelled_by_passenger",
            RejectReason::TaxiFailed => "taxi_failed",
            RejectReason::RetriesExhausted => "retries_exhausted",
            RejectReason::QueueShed => "queue_shed",
            RejectReason::QueueRejected => "queue_rejected",
            RejectReason::DrainRejected => "drain_rejected",
        }
    }

    /// Index into [`RejectReason::ALL`] (and the counter array).
    pub fn index(self) -> usize {
        match self {
            RejectReason::EmptyFleet => 0,
            RejectReason::UnreachableOd => 1,
            RejectReason::InfeasibleDeadline => 2,
            RejectReason::ZeroCapacity => 3,
            RejectReason::NoFeasibleInsertion => 4,
            RejectReason::OfflineExpired => 5,
            RejectReason::CancelledByPassenger => 6,
            RejectReason::TaxiFailed => 7,
            RejectReason::RetriesExhausted => 8,
            RejectReason::QueueShed => 9,
            RejectReason::QueueRejected => 10,
            RejectReason::DrainRejected => 11,
        }
    }

    /// Inverse of [`RejectReason::label`].
    pub fn from_label(s: &str) -> Option<RejectReason> {
        RejectReason::ALL.iter().copied().find(|r| r.label() == s)
    }
}

/// One dispatch-lifecycle event. `t` is always simulation time in
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A request entered the system.
    Arrival {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Whether this is an offline (encounter-based) request.
        offline: bool,
    },
    /// The dispatcher evaluated a request (whatever the outcome).
    Dispatch {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Candidate taxis examined.
        candidates: u32,
        /// Insertion instances that satisfied all constraints.
        feasible: u32,
    },
    /// A request was assigned to a taxi.
    Commit {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Winning taxi.
        taxi: u32,
        /// Extra seconds the shared ride adds over the direct drive.
        detour_s: f64,
        /// Stops in the taxi's schedule after insertion.
        schedule_len: u32,
    },
    /// A request was definitively rejected.
    Reject {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Classified cause.
        reason: RejectReason,
    },
    /// A taxi came within encounter radius of a waiting offline request.
    Encounter {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// The encountering taxi.
        taxi: u32,
    },
    /// A rider boarded.
    Pickup {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Serving taxi.
        taxi: u32,
        /// Seconds waited since release.
        wait_s: f64,
    },
    /// A rider was delivered.
    Dropoff {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Serving taxi.
        taxi: u32,
        /// Realized detour vs. the direct drive, seconds.
        detour_s: f64,
    },
    /// A taxi dropped out of service (injected breakdown).
    Breakdown {
        /// Simulation time (s).
        t: f64,
        /// The failed taxi.
        taxi: u32,
        /// Riders stranded by the failure (onboard + assigned).
        orphans: u32,
    },
    /// A rider withdrew a request before pickup (informational; the
    /// terminal accounting is the matching `reject` event).
    Cancel {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// Whether the request was on a committed schedule when
        /// cancelled (false: still waiting / pending offline).
        assigned: bool,
    },
    /// A time-windowed travel-time multiplier hit a road region.
    TrafficShift {
        /// Simulation time (s) the shift starts.
        t: f64,
        /// Center node of the affected region.
        node: u32,
        /// Region radius, metres.
        radius_m: f64,
        /// Travel-time multiplier: hops inside the region take
        /// `factor ×` their base time while the window is active.
        factor: f64,
        /// Shift window length, seconds.
        duration_s: f64,
    },
    /// A committed schedule was repaired after a disruption.
    Reroute {
        /// Simulation time (s).
        t: f64,
        /// The repaired taxi.
        taxi: u32,
        /// Onboard riders whose deadlines were renegotiated.
        renegotiated: u32,
        /// Unpicked riders dropped from the plan (re-enqueued).
        dropped: u32,
    },
    /// A recovery re-dispatch attempt for an orphaned rider.
    Redispatch {
        /// Simulation time (s).
        t: f64,
        /// Request id.
        req: u32,
        /// 1-based attempt number within the retry budget.
        attempt: u32,
        /// Whether the attempt found a taxi.
        ok: bool,
    },
    /// A `validate_world` check failed (healthy runs emit none).
    InvariantViolation {
        /// Simulation time (s).
        t: f64,
        /// Name of the violated invariant check.
        check: String,
    },
    /// A state snapshot was written (persistence meta event).
    ///
    /// Meta events are emitted through [`crate::Obs::emit_meta`]: they
    /// reach only sinks that opt in via `EventSink::wants_meta` and are
    /// never counted in the deterministic aggregates — checkpoint cadence
    /// is an operational concern, and a resumed run's canonical trace
    /// must stay byte-identical to the uninterrupted run's.
    Checkpoint {
        /// Simulation time (s) at the checkpoint boundary.
        t: f64,
        /// Event-loop step the snapshot captures.
        step: u64,
        /// Encoded snapshot size, bytes.
        bytes: u64,
    },
    /// A run resumed from persisted state (persistence meta event; see
    /// [`Event::Checkpoint`] for the meta-path rules).
    Restore {
        /// Simulation time (s) reached after WAL replay.
        t: f64,
        /// Event-loop step execution resumes from.
        step: u64,
        /// Step of the snapshot the recovery loaded.
        snapshot_step: u64,
        /// WAL records replayed on top of the snapshot.
        wal_replayed: u64,
    },
    /// A storage operation failed mid-run (persistence meta event; see
    /// [`Event::Checkpoint`] for the meta-path rules). What happens next
    /// is the durability policy's call: strict runs stop with a typed
    /// exit, degrade runs quarantine the state dir and keep serving.
    StorageFault {
        /// Simulation time (s) when the fault surfaced.
        t: f64,
        /// Event-loop step at the fault.
        step: u64,
        /// The failing operation (`wal_append`, `wal_sync`,
        /// `snapshot_write`, ...).
        op: &'static str,
        /// Fault classification (`no_space`, `sync_lost`, `corruption`,
        /// `transient`).
        class: &'static str,
    },
    /// The degrade durability policy fired: persistence is off for the
    /// rest of the run and the state dir was quarantined for post-mortem
    /// (persistence meta event).
    DurabilityDegraded {
        /// Simulation time (s) when the policy fired.
        t: f64,
        /// Event-loop step at the fault.
        step: u64,
        /// Whether the bad state-dir generation was successfully moved
        /// aside (false: the rename itself failed; the dir is untouched).
        quarantined: bool,
    },
    /// The feed transport failed mid-stream (meta event): disconnect,
    /// malformed framing or an oversized line. The serve loop syncs
    /// persistence and exits with the feed-fault code so a supervisor
    /// can restart and resume.
    FeedFault {
        /// Simulation time (s) when the feed broke.
        t: f64,
        /// 1-based feed line at which the fault surfaced.
        line: u64,
        /// Fault kind (`disconnect`, `oversized_line`, `io`).
        kind: &'static str,
    },
}

/// Event kinds, for counting. Order matches serialization labels; the
/// persistence meta kinds sit at the end so pre-existing indices are
/// stable.
pub const EVENT_KINDS: [&str; 18] = [
    "arrival",
    "dispatch",
    "commit",
    "reject",
    "encounter",
    "pickup",
    "dropoff",
    "breakdown",
    "cancel",
    "traffic_shift",
    "reroute",
    "redispatch",
    "invariant_violation",
    "checkpoint",
    "restore",
    "storage_fault",
    "durability_degraded",
    "feed_fault",
];

impl Event {
    /// Simulation timestamp of the event.
    pub fn t(&self) -> f64 {
        match self {
            Event::Arrival { t, .. }
            | Event::Dispatch { t, .. }
            | Event::Commit { t, .. }
            | Event::Reject { t, .. }
            | Event::Encounter { t, .. }
            | Event::Pickup { t, .. }
            | Event::Dropoff { t, .. }
            | Event::Breakdown { t, .. }
            | Event::Cancel { t, .. }
            | Event::TrafficShift { t, .. }
            | Event::Reroute { t, .. }
            | Event::Redispatch { t, .. }
            | Event::InvariantViolation { t, .. }
            | Event::Checkpoint { t, .. }
            | Event::Restore { t, .. }
            | Event::StorageFault { t, .. }
            | Event::DurabilityDegraded { t, .. }
            | Event::FeedFault { t, .. } => *t,
        }
    }

    /// Index into [`EVENT_KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            Event::Dispatch { .. } => 1,
            Event::Commit { .. } => 2,
            Event::Reject { .. } => 3,
            Event::Encounter { .. } => 4,
            Event::Pickup { .. } => 5,
            Event::Dropoff { .. } => 6,
            Event::Breakdown { .. } => 7,
            Event::Cancel { .. } => 8,
            Event::TrafficShift { .. } => 9,
            Event::Reroute { .. } => 10,
            Event::Redispatch { .. } => 11,
            Event::InvariantViolation { .. } => 12,
            Event::Checkpoint { .. } => 13,
            Event::Restore { .. } => 14,
            Event::StorageFault { .. } => 15,
            Event::DurabilityDegraded { .. } => 16,
            Event::FeedFault { .. } => 17,
        }
    }

    /// Whether this is a persistence/fault meta event: emitted through
    /// the meta path only, never part of the canonical deterministic
    /// stream or aggregates.
    pub fn is_meta(&self) -> bool {
        matches!(
            self,
            Event::Checkpoint { .. }
                | Event::Restore { .. }
                | Event::StorageFault { .. }
                | Event::DurabilityDegraded { .. }
                | Event::FeedFault { .. }
        )
    }

    /// Encodes the event as one JSONL line (no trailing newline), with
    /// a fixed key order per kind so the byte stream is canonical.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        match self {
            Event::Arrival { t, req, offline } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"arrival","t":{},"req":{req},"offline":{offline}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Dispatch { t, req, candidates, feasible } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"dispatch","t":{},"req":{req},"candidates":{candidates},"feasible":{feasible}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Commit { t, req, taxi, detour_s, schedule_len } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"commit","t":{},"req":{req},"taxi":{taxi},"detour_s":{},"schedule_len":{schedule_len}}}"#,
                    fmt_f64(*t),
                    fmt_f64(*detour_s)
                );
            }
            Event::Reject { t, req, reason } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"reject","t":{},"req":{req},"reason":"{}"}}"#,
                    fmt_f64(*t),
                    reason.label()
                );
            }
            Event::Encounter { t, req, taxi } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"encounter","t":{},"req":{req},"taxi":{taxi}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Pickup { t, req, taxi, wait_s } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"pickup","t":{},"req":{req},"taxi":{taxi},"wait_s":{}}}"#,
                    fmt_f64(*t),
                    fmt_f64(*wait_s)
                );
            }
            Event::Dropoff { t, req, taxi, detour_s } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"dropoff","t":{},"req":{req},"taxi":{taxi},"detour_s":{}}}"#,
                    fmt_f64(*t),
                    fmt_f64(*detour_s)
                );
            }
            Event::Breakdown { t, taxi, orphans } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"breakdown","t":{},"taxi":{taxi},"orphans":{orphans}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Cancel { t, req, assigned } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"cancel","t":{},"req":{req},"assigned":{assigned}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::TrafficShift { t, node, radius_m, factor, duration_s } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"traffic_shift","t":{},"node":{node},"radius_m":{},"factor":{},"duration_s":{}}}"#,
                    fmt_f64(*t),
                    fmt_f64(*radius_m),
                    fmt_f64(*factor),
                    fmt_f64(*duration_s)
                );
            }
            Event::Reroute { t, taxi, renegotiated, dropped } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"reroute","t":{},"taxi":{taxi},"renegotiated":{renegotiated},"dropped":{dropped}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Redispatch { t, req, attempt, ok } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"redispatch","t":{},"req":{req},"attempt":{attempt},"ok":{ok}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::InvariantViolation { t, check } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"invariant_violation","t":{},"check":"{check}"}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Checkpoint { t, step, bytes } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"checkpoint","t":{},"step":{step},"bytes":{bytes}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::Restore { t, step, snapshot_step, wal_replayed } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"restore","t":{},"step":{step},"snapshot_step":{snapshot_step},"wal_replayed":{wal_replayed}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::StorageFault { t, step, op, class } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"storage_fault","t":{},"step":{step},"op":"{op}","class":"{class}"}}"#,
                    fmt_f64(*t)
                );
            }
            Event::DurabilityDegraded { t, step, quarantined } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"durability_degraded","t":{},"step":{step},"quarantined":{quarantined}}}"#,
                    fmt_f64(*t)
                );
            }
            Event::FeedFault { t, line, kind } => {
                let _ = write!(
                    s,
                    r#"{{"ev":"feed_fault","t":{},"line":{line},"kind":"{kind}"}}"#,
                    fmt_f64(*t)
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn jsonl_is_valid_json_with_expected_keys() {
        let evs = [
            Event::Arrival { t: 1.5, req: 7, offline: true },
            Event::Dispatch { t: 1.5, req: 7, candidates: 12, feasible: 3 },
            Event::Commit { t: 1.5, req: 7, taxi: 2, detour_s: 30.25, schedule_len: 4 },
            Event::Reject { t: 2.0, req: 8, reason: RejectReason::UnreachableOd },
            Event::Encounter { t: 3.0, req: 9, taxi: 1 },
            Event::Pickup { t: 4.0, req: 7, taxi: 2, wait_s: 61.5 },
            Event::Dropoff { t: 5.0, req: 7, taxi: 2, detour_s: 30.25 },
            Event::Breakdown { t: 6.0, taxi: 2, orphans: 3 },
            Event::Cancel { t: 6.5, req: 10, assigned: true },
            Event::TrafficShift {
                t: 7.0,
                node: 42,
                radius_m: 600.0,
                factor: 0.5,
                duration_s: 900.0,
            },
            Event::Reroute { t: 7.5, taxi: 1, renegotiated: 1, dropped: 2 },
            Event::Redispatch { t: 8.0, req: 9, attempt: 2, ok: false },
            Event::InvariantViolation { t: 9.0, check: "seat_accounting".to_string() },
            Event::Checkpoint { t: 10.0, step: 512, bytes: 20480 },
            Event::Restore { t: 10.5, step: 700, snapshot_step: 512, wal_replayed: 188 },
            Event::StorageFault { t: 11.0, step: 710, op: "wal_append", class: "no_space" },
            Event::DurabilityDegraded { t: 11.0, step: 710, quarantined: true },
            Event::FeedFault { t: 11.5, line: 4021, kind: "disconnect" },
        ];
        for (i, ev) in evs.iter().enumerate() {
            let line = ev.to_jsonl();
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.get("ev").and_then(|v| v.as_str()), Some(EVENT_KINDS[i]));
            assert_eq!(v.get("t").and_then(|v| v.as_num()), Some(ev.t()));
            assert_eq!(ev.kind_index(), i);
        }
    }

    #[test]
    fn reject_reason_labels_round_trip() {
        for (i, r) in RejectReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(RejectReason::from_label(r.label()), Some(*r));
        }
        assert_eq!(RejectReason::from_label("nope"), None);
    }
}
