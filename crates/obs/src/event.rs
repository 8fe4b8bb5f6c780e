//! Typed dispatch-lifecycle events and their JSONL encoding.
//!
//! Determinism contract: every event is stamped with *simulation* time
//! and emitted from the simulator's event loop, in the order it
//! processes work. The encoded stream is therefore byte-identical across
//! runs of one scenario. Wall-clock never appears here — it lives only
//! in the summary's strippable `profiling` subtree.

use crate::schema::{write_fields, Val, EVENT_SCHEMA};

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

/// Every reason with its snake_case label, in stable (serialization)
/// order — which is also declaration order, so a variant's discriminant
/// is its position here.
const REASONS: [(RejectReason, &str); 12] = [
    (RejectReason::EmptyFleet, "empty_fleet"),
    (RejectReason::UnreachableOd, "unreachable_od"),
    (RejectReason::InfeasibleDeadline, "infeasible_deadline"),
    (RejectReason::ZeroCapacity, "zero_capacity"),
    (RejectReason::NoFeasibleInsertion, "no_feasible_insertion"),
    (RejectReason::OfflineExpired, "offline_expired"),
    (RejectReason::CancelledByPassenger, "cancelled_by_passenger"),
    (RejectReason::TaxiFailed, "taxi_failed"),
    (RejectReason::RetriesExhausted, "retries_exhausted"),
    (RejectReason::QueueShed, "queue_shed"),
    (RejectReason::QueueRejected, "queue_rejected"),
    (RejectReason::DrainRejected, "drain_rejected"),
];

impl RejectReason {
    /// All variants in stable (serialization) order.
    pub const ALL: [RejectReason; REASONS.len()] = {
        let mut all = [RejectReason::EmptyFleet; REASONS.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = REASONS[i].0;
            i += 1;
        }
        all
    };

    /// The snake_case label used in JSONL events and the summary.
    pub fn label(self) -> &'static str {
        REASONS[self.index()].1
    }

    /// Index into [`RejectReason::ALL`] (and the counter array).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`RejectReason::label`].
    pub fn from_label(s: &str) -> Option<RejectReason> {
        REASONS.iter().find(|(_, label)| *label == s).map(|(r, _)| *r)
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
    /// The `--validate-every` invariant sweep found a violation (healthy
    /// runs emit none).
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

/// Event kind labels in [`Event::kind_index`] order, for counting: the
/// labels of the [`EVENT_SCHEMA`] rows.
pub const EVENT_KINDS: [&str; EVENT_SCHEMA.len()] = {
    let mut kinds = [""; EVENT_SCHEMA.len()];
    let mut i = 0;
    while i < kinds.len() {
        kinds[i] = EVENT_SCHEMA[i].label;
        i += 1;
    }
    kinds
};

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

    /// Calls `f` with the variant's row of [`EVENT_SCHEMA`] and its field
    /// values in that row's key order. The one per-variant list of the
    /// encoding: labels, keys and the meta flag come from the table.
    fn with_row<R>(&self, f: impl FnOnce(usize, &[Val<'_>]) -> R) -> R {
        use Val::{B, F, S, U};
        let n = |v: &u32| U(u64::from(*v));
        match self {
            Event::Arrival { t, req, offline } => f(0, &[F(*t), n(req), B(*offline)]),
            Event::Dispatch { t, req, candidates, feasible } => {
                f(1, &[F(*t), n(req), n(candidates), n(feasible)])
            }
            Event::Commit { t, req, taxi, detour_s, schedule_len } => {
                f(2, &[F(*t), n(req), n(taxi), F(*detour_s), n(schedule_len)])
            }
            Event::Reject { t, req, reason } => f(3, &[F(*t), n(req), S(reason.label())]),
            Event::Encounter { t, req, taxi } => f(4, &[F(*t), n(req), n(taxi)]),
            Event::Pickup { t, req, taxi, wait_s } => f(5, &[F(*t), n(req), n(taxi), F(*wait_s)]),
            Event::Dropoff { t, req, taxi, detour_s } => {
                f(6, &[F(*t), n(req), n(taxi), F(*detour_s)])
            }
            Event::Breakdown { t, taxi, orphans } => f(7, &[F(*t), n(taxi), n(orphans)]),
            Event::Cancel { t, req, assigned } => f(8, &[F(*t), n(req), B(*assigned)]),
            Event::TrafficShift { t, node, radius_m, factor, duration_s } => {
                f(9, &[F(*t), n(node), F(*radius_m), F(*factor), F(*duration_s)])
            }
            Event::Reroute { t, taxi, renegotiated, dropped } => {
                f(10, &[F(*t), n(taxi), n(renegotiated), n(dropped)])
            }
            Event::Redispatch { t, req, attempt, ok } => {
                f(11, &[F(*t), n(req), n(attempt), B(*ok)])
            }
            Event::InvariantViolation { t, check } => f(12, &[F(*t), S(check)]),
            Event::Checkpoint { t, step, bytes } => f(13, &[F(*t), U(*step), U(*bytes)]),
            Event::Restore { t, step, snapshot_step, wal_replayed } => {
                f(14, &[F(*t), U(*step), U(*snapshot_step), U(*wal_replayed)])
            }
            Event::StorageFault { t, step, op, class } => {
                f(15, &[F(*t), U(*step), S(op), S(class)])
            }
            Event::DurabilityDegraded { t, step, quarantined } => {
                f(16, &[F(*t), U(*step), B(*quarantined)])
            }
            Event::FeedFault { t, line, kind } => f(17, &[F(*t), U(*line), S(kind)]),
        }
    }

    /// Index into [`EVENT_KINDS`].
    pub fn kind_index(&self) -> usize {
        self.with_row(|kind, _| kind)
    }

    /// Whether this is a persistence/fault meta event: emitted through
    /// the meta path only, never part of the canonical deterministic
    /// stream or aggregates.
    pub fn is_meta(&self) -> bool {
        EVENT_SCHEMA[self.kind_index()].meta
    }

    /// Encodes the event as one JSONL line (no trailing newline), with
    /// a fixed key order per kind so the byte stream is canonical.
    pub fn to_jsonl(&self) -> String {
        self.with_row(|kind, vals| {
            let row = &EVENT_SCHEMA[kind];
            let mut s = String::with_capacity(96);
            s.push_str(r#"{"ev":""#);
            s.push_str(row.label);
            s.push_str("\",");
            write_fields(&mut s, row.fields, vals);
            s.push('}');
            s
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn jsonl_is_valid_json_with_expected_keys() {
        // One instance of every kind against its exact line: the byte
        // stream is a contract (`cmp`-identical traces across arms).
        let evs = [
            (
                Event::Arrival { t: 1.5, req: 7, offline: true },
                r#"{"ev":"arrival","t":1.5,"req":7,"offline":true}"#,
            ),
            (
                Event::Dispatch { t: 1.5, req: 7, candidates: 12, feasible: 3 },
                r#"{"ev":"dispatch","t":1.5,"req":7,"candidates":12,"feasible":3}"#,
            ),
            (
                Event::Commit { t: 1.5, req: 7, taxi: 2, detour_s: 30.25, schedule_len: 4 },
                r#"{"ev":"commit","t":1.5,"req":7,"taxi":2,"detour_s":30.25,"schedule_len":4}"#,
            ),
            (
                Event::Reject { t: 2.0, req: 8, reason: RejectReason::UnreachableOd },
                r#"{"ev":"reject","t":2,"req":8,"reason":"unreachable_od"}"#,
            ),
            (
                Event::Encounter { t: 3.0, req: 9, taxi: 1 },
                r#"{"ev":"encounter","t":3,"req":9,"taxi":1}"#,
            ),
            (
                Event::Pickup { t: 4.0, req: 7, taxi: 2, wait_s: 61.5 },
                r#"{"ev":"pickup","t":4,"req":7,"taxi":2,"wait_s":61.5}"#,
            ),
            (
                Event::Dropoff { t: 5.0, req: 7, taxi: 2, detour_s: 30.25 },
                r#"{"ev":"dropoff","t":5,"req":7,"taxi":2,"detour_s":30.25}"#,
            ),
            (
                Event::Breakdown { t: 6.0, taxi: 2, orphans: 3 },
                r#"{"ev":"breakdown","t":6,"taxi":2,"orphans":3}"#,
            ),
            (
                Event::Cancel { t: 6.5, req: 10, assigned: true },
                r#"{"ev":"cancel","t":6.5,"req":10,"assigned":true}"#,
            ),
            (
                Event::TrafficShift {
                    t: 7.0,
                    node: 42,
                    radius_m: 600.0,
                    factor: 0.5,
                    duration_s: 900.0,
                },
                r#"{"ev":"traffic_shift","t":7,"node":42,"radius_m":600,"factor":0.5,"duration_s":900}"#,
            ),
            (
                Event::Reroute { t: 7.5, taxi: 1, renegotiated: 1, dropped: 2 },
                r#"{"ev":"reroute","t":7.5,"taxi":1,"renegotiated":1,"dropped":2}"#,
            ),
            (
                Event::Redispatch { t: 8.0, req: 9, attempt: 2, ok: false },
                r#"{"ev":"redispatch","t":8,"req":9,"attempt":2,"ok":false}"#,
            ),
            (
                Event::InvariantViolation { t: 9.0, check: "seat_accounting".to_string() },
                r#"{"ev":"invariant_violation","t":9,"check":"seat_accounting"}"#,
            ),
            (
                Event::Checkpoint { t: 10.0, step: 512, bytes: 20480 },
                r#"{"ev":"checkpoint","t":10,"step":512,"bytes":20480}"#,
            ),
            (
                Event::Restore { t: 10.5, step: 700, snapshot_step: 512, wal_replayed: 188 },
                r#"{"ev":"restore","t":10.5,"step":700,"snapshot_step":512,"wal_replayed":188}"#,
            ),
            (
                Event::StorageFault { t: 11.0, step: 710, op: "wal_append", class: "no_space" },
                r#"{"ev":"storage_fault","t":11,"step":710,"op":"wal_append","class":"no_space"}"#,
            ),
            (
                Event::DurabilityDegraded { t: 11.0, step: 710, quarantined: true },
                r#"{"ev":"durability_degraded","t":11,"step":710,"quarantined":true}"#,
            ),
            (
                Event::FeedFault { t: 11.5, line: 4021, kind: "disconnect" },
                r#"{"ev":"feed_fault","t":11.5,"line":4021,"kind":"disconnect"}"#,
            ),
        ];
        assert_eq!(evs.len(), EVENT_KINDS.len());
        for (i, (ev, golden)) in evs.iter().enumerate() {
            let line = ev.to_jsonl();
            assert_eq!(line, *golden);
            let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(v.get("ev").and_then(|v| v.as_str()), Some(EVENT_KINDS[i]));
            assert_eq!(v.get("t").and_then(|v| v.as_num()), Some(ev.t()));
            assert_eq!(ev.kind_index(), i);
            assert_eq!(ev.is_meta(), i >= 13, "{line}");
            // The values each variant yields fill its table row, type for type.
            let row_tys: Vec<_> = EVENT_SCHEMA[i].fields.iter().map(|f| f.1).collect();
            assert_eq!(
                ev.with_row(|_, vals| vals.iter().map(Val::ty).collect::<Vec<_>>()),
                row_tys
            );
        }
    }

    #[test]
    fn string_fields_are_escaped() {
        // `check` used to be written raw: a quote or backslash in an
        // invariant's name made the whole line invalid JSON.
        let check = "a \"quoted\" \\ name";
        let line = Event::InvariantViolation { t: 9.0, check: check.to_string() }.to_jsonl();
        let v = json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(v.get("check").and_then(|c| c.as_str()), Some(check));
        crate::schema::validate_event_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
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
