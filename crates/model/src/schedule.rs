//! Taxi schedules (Def. 4) and schedule feasibility evaluation.
//!
//! A schedule is the ordered event sequence a shared taxi will execute:
//! pick-ups and drop-offs at request origins/destinations. Insertion-based
//! scheduling (Alg. 1) generates *schedule instances* by inserting a new
//! request's two events while keeping the existing order — the evaluation
//! helper here walks an instance, computing arrival times against a leg-cost
//! oracle and checking capacity and deadline constraints.

use crate::request::{RequestId, RideRequest};
use crate::Time;
use mtshare_road::NodeId;

/// Pick-up or drop-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Board the passengers of a request at its origin.
    Pickup,
    /// Deliver the passengers of a request at its destination.
    Dropoff,
}

/// One schedule event `s_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleEvent {
    /// What happens.
    pub kind: EventKind,
    /// Whose request.
    pub request: RequestId,
    /// Where (the request's origin for pick-ups, destination for
    /// drop-offs).
    pub node: NodeId,
}

/// An ordered event sequence for one taxi.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    events: Vec<ScheduleEvent>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events in execution order.
    #[inline]
    pub fn events(&self) -> &[ScheduleEvent] {
        &self.events
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no pending events (vacant taxi).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an event (used when reconstructing schedules; prefer
    /// [`Schedule::with_insertion`] for matching).
    pub fn push(&mut self, ev: ScheduleEvent) {
        self.events.push(ev);
    }

    /// Removes and returns the first event. Panics on empty schedules.
    pub fn pop_front(&mut self) -> ScheduleEvent {
        self.events.remove(0)
    }

    /// A new schedule with `req`'s pick-up inserted before position `i` and
    /// drop-off before position `j` of the *resulting* sequence
    /// (`i < j ≤ len + 1`), keeping all existing events in order — the
    /// paper's schedule-instance enumeration.
    pub fn with_insertion(&self, req: &RideRequest, i: usize, j: usize) -> Schedule {
        assert!(i < j && j <= self.events.len() + 1, "invalid insertion positions ({i}, {j})");
        let mut events = Vec::with_capacity(self.events.len() + 2);
        events.extend_from_slice(&self.events[..i]);
        events.push(ScheduleEvent { kind: EventKind::Pickup, request: req.id, node: req.origin });
        // After inserting the pickup, original positions shift by one.
        events.extend_from_slice(&self.events[i..j - 1]);
        events.push(ScheduleEvent {
            kind: EventKind::Dropoff,
            request: req.id,
            node: req.destination,
        });
        events.extend_from_slice(&self.events[j - 1..]);
        Schedule { events }
    }

    /// Checks structural validity: every request appears at most once per
    /// kind and pick-ups precede drop-offs.
    pub fn precedence_ok(&self) -> bool {
        use rustc_hash::FxHashMap;
        let mut seen: FxHashMap<RequestId, EventKind> = FxHashMap::default();
        for ev in &self.events {
            match (ev.kind, seen.get(&ev.request)) {
                (EventKind::Pickup, None) => {
                    seen.insert(ev.request, EventKind::Pickup);
                }
                (EventKind::Dropoff, Some(EventKind::Pickup)) => {
                    seen.insert(ev.request, EventKind::Dropoff);
                }
                // Drop-off without a scheduled pickup is fine *only* for
                // onboard passengers; structural check cannot know, so we
                // accept a leading drop-off but never a duplicate.
                (EventKind::Dropoff, None) => {
                    seen.insert(ev.request, EventKind::Dropoff);
                }
                _ => return false,
            }
        }
        true
    }

    /// A copy of the schedule with every event of `req` removed — the
    /// repair step for cancellations and disruption-dropped riders.
    /// Removing events never breaks precedence for the remaining
    /// requests.
    pub fn without_request(&self, req: RequestId) -> Schedule {
        Schedule { events: self.events.iter().copied().filter(|e| e.request != req).collect() }
    }
}

/// Outcome of walking a schedule instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEvaluation {
    /// Total travel cost of the route realizing the schedule, seconds.
    pub total_cost_s: f64,
    /// Arrival time at each event, aligned with the schedule.
    pub arrival_times: Vec<Time>,
}

/// Context needed to evaluate a schedule instance for one taxi.
#[derive(Clone, Copy)]
pub struct EvalContext<'a> {
    /// Where the taxi is now.
    pub start_node: NodeId,
    /// Current time.
    pub start_time: Time,
    /// Passengers already in the taxi (their drop-offs appear in the
    /// schedule without pick-ups).
    pub initial_load: u32,
    /// Seat capacity of the taxi.
    pub capacity: u32,
    /// Request lookup for deadlines and rider counts.
    pub requests: &'a dyn Fn(RequestId) -> &'a RideRequest,
}

/// Walks `schedule` from the context, pulling leg costs from `leg_cost`
/// (`None` = unreachable). Returns `None` if any leg is unreachable, any
/// drop-off misses its deadline, or the load ever exceeds capacity;
/// otherwise the total cost and per-event arrival times.
///
/// This is the feasibility core shared by mT-Share and both baselines, so
/// the schemes differ only in *which* instances they enumerate and how legs
/// are routed.
pub fn evaluate_schedule(
    schedule: &Schedule,
    ctx: &EvalContext<'_>,
    mut leg_cost: impl FnMut(NodeId, NodeId) -> Option<f64>,
) -> Option<ScheduleEvaluation> {
    let mut load = ctx.initial_load;
    if load > ctx.capacity {
        return None;
    }
    let mut node = ctx.start_node;
    let mut t = ctx.start_time;
    let mut total = 0.0;
    let mut arrivals = Vec::with_capacity(schedule.len());
    for ev in schedule.events() {
        let c = leg_cost(node, ev.node)?;
        t += c;
        total += c;
        node = ev.node;
        arrivals.push(t);
        let req = (ctx.requests)(ev.request);
        match ev.kind {
            EventKind::Pickup => {
                load += req.passengers as u32;
                if load > ctx.capacity {
                    return None;
                }
            }
            EventKind::Dropoff => {
                if t > req.deadline + 1e-6 {
                    return None;
                }
                load = load.saturating_sub(req.passengers as u32);
            }
        }
    }
    Some(ScheduleEvaluation { total_cost_s: total, arrival_times: arrivals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    fn mkreq(id: u32, origin: u32, dest: u32, deadline: Time) -> RideRequest {
        RideRequest {
            id: RequestId(id),
            release_time: 0.0,
            origin: NodeId(origin),
            destination: NodeId(dest),
            passengers: 1,
            deadline,
            direct_cost_s: 100.0,
            offline: false,
        }
    }

    /// Unit leg cost: |a - b| treated as seconds.
    fn unit_cost(a: NodeId, b: NodeId) -> Option<f64> {
        Some((a.0 as f64 - b.0 as f64).abs())
    }

    #[test]
    fn insertion_preserves_order_and_precedence() {
        let r1 = mkreq(1, 10, 20, 1e9);
        let r2 = mkreq(2, 30, 40, 1e9);
        let base = Schedule::new().with_insertion(&r1, 0, 1);
        assert_eq!(base.len(), 2);
        // Insert r2 pickup at 1, dropoff at 2 => P1 P2 D2 D1.
        let s = base.with_insertion(&r2, 1, 2);
        let kinds: Vec<_> = s.events().iter().map(|e| (e.kind, e.request.0)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Pickup, 1),
                (EventKind::Pickup, 2),
                (EventKind::Dropoff, 2),
                (EventKind::Dropoff, 1)
            ]
        );
        assert!(s.precedence_ok());
    }

    #[test]
    fn all_insertion_positions_are_structurally_valid() {
        let r1 = mkreq(1, 10, 20, 1e9);
        let r2 = mkreq(2, 30, 40, 1e9);
        let r3 = mkreq(3, 50, 60, 1e9);
        let base = Schedule::new().with_insertion(&r1, 0, 1).with_insertion(&r2, 1, 2);
        let m = base.len();
        for i in 0..=m {
            for j in (i + 1)..=(m + 1) {
                let s = base.with_insertion(&r3, i, j);
                assert!(s.precedence_ok(), "i={i} j={j}");
                assert_eq!(s.len(), m + 2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid insertion")]
    fn rejects_dropoff_before_pickup() {
        let r = mkreq(1, 10, 20, 1e9);
        let _ = Schedule::new().with_insertion(&r, 1, 1);
    }

    #[test]
    fn precedence_rejects_double_pickup() {
        let mut s = Schedule::new();
        let ev = ScheduleEvent { kind: EventKind::Pickup, request: RequestId(1), node: NodeId(0) };
        s.push(ev);
        s.push(ev);
        assert!(!s.precedence_ok());
    }

    #[test]
    fn without_request_strips_both_events() {
        let r1 = mkreq(1, 10, 20, 1e9);
        let r2 = mkreq(2, 30, 40, 1e9);
        let s = Schedule::new().with_insertion(&r1, 0, 1).with_insertion(&r2, 1, 2);
        let repaired = s.without_request(RequestId(2));
        assert_eq!(repaired.len(), 2);
        assert!(repaired.events().iter().all(|e| e.request == RequestId(1)));
        assert!(repaired.precedence_ok());
        // Removing a request not present is a no-op copy.
        assert_eq!(s.without_request(RequestId(9)), s);
    }

    #[test]
    fn leading_dropoff_allowed_for_onboard() {
        let mut s = Schedule::new();
        s.push(ScheduleEvent { kind: EventKind::Dropoff, request: RequestId(1), node: NodeId(5) });
        assert!(s.precedence_ok());
    }

    #[test]
    fn evaluate_computes_costs_and_arrivals() {
        let r1 = mkreq(1, 10, 20, 1e9);
        let reqs = [r1.clone()];
        let lookup = |id: RequestId| &reqs[id.index() - 1];
        let s = Schedule::new().with_insertion(&r1, 0, 1);
        let ctx = EvalContext {
            start_node: NodeId(0),
            start_time: 100.0,
            initial_load: 0,
            capacity: 4,
            requests: &lookup,
        };
        let e = evaluate_schedule(&s, &ctx, unit_cost).unwrap();
        assert_eq!(e.total_cost_s, 20.0); // 0->10 (10) + 10->20 (10)
        assert_eq!(e.arrival_times, vec![110.0, 120.0]);
    }

    #[test]
    fn evaluate_rejects_missed_deadline() {
        let r1 = mkreq(1, 10, 20, 115.0); // dropoff would be at 120
        let reqs = [r1.clone()];
        let lookup = |id: RequestId| &reqs[id.index() - 1];
        let s = Schedule::new().with_insertion(&r1, 0, 1);
        let ctx = EvalContext {
            start_node: NodeId(0),
            start_time: 100.0,
            initial_load: 0,
            capacity: 4,
            requests: &lookup,
        };
        assert!(evaluate_schedule(&s, &ctx, unit_cost).is_none());
    }

    #[test]
    fn evaluate_rejects_capacity_overflow() {
        let mut r1 = mkreq(1, 10, 20, 1e9);
        r1.passengers = 3;
        let mut r2 = mkreq(2, 12, 22, 1e9);
        r2.passengers = 2;
        let reqs = [r1.clone(), r2.clone()];
        let lookup = |id: RequestId| &reqs[id.index() - 1];
        // P1 P2 D2 D1: load peaks at 5 > 4.
        let s = Schedule::new().with_insertion(&r1, 0, 1).with_insertion(&r2, 1, 2);
        let ctx = EvalContext {
            start_node: NodeId(0),
            start_time: 0.0,
            initial_load: 0,
            capacity: 4,
            requests: &lookup,
        };
        assert!(evaluate_schedule(&s, &ctx, unit_cost).is_none());
        // Sequential sharing P1 D1 P2 D2 fits.
        let seq = Schedule::new().with_insertion(&r1, 0, 1).with_insertion(&r2, 2, 3);
        assert!(evaluate_schedule(&seq, &ctx, unit_cost).is_some());
    }

    #[test]
    fn evaluate_accounts_for_initial_load() {
        let r1 = mkreq(1, 10, 20, 1e9);
        let reqs = [r1.clone()];
        let lookup = |id: RequestId| &reqs[id.index() - 1];
        let s = Schedule::new().with_insertion(&r1, 0, 1);
        let ctx = EvalContext {
            start_node: NodeId(0),
            start_time: 0.0,
            initial_load: 4,
            capacity: 4,
            requests: &lookup,
        };
        assert!(evaluate_schedule(&s, &ctx, unit_cost).is_none());
    }

    #[test]
    fn evaluate_propagates_unreachable_legs() {
        let r1 = mkreq(1, 10, 20, 1e9);
        let reqs = [r1.clone()];
        let lookup = |id: RequestId| &reqs[id.index() - 1];
        let s = Schedule::new().with_insertion(&r1, 0, 1);
        let ctx = EvalContext {
            start_node: NodeId(0),
            start_time: 0.0,
            initial_load: 0,
            capacity: 4,
            requests: &lookup,
        };
        assert!(evaluate_schedule(&s, &ctx, |_, _| None).is_none());
    }
}
