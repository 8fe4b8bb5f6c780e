//! Taxi status (Def. 3) and in-simulation taxi state.

use crate::request::{RequestId, RequestStore};
use crate::route::TimedRoute;
use crate::schedule::{EventKind, Schedule, ScheduleEvent};
use crate::Time;
use mtshare_road::NodeId;

/// Identifier of a taxi.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaxiId(pub u32);

impl TaxiId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaxiId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A shared taxi: `t_j = <loc, S, R>` (Def. 3) plus capacity and
/// bookkeeping for the simulator.
#[derive(Debug, Clone)]
pub struct Taxi {
    /// Identifier.
    pub id: TaxiId,
    /// Seat capacity.
    pub capacity: u8,
    /// Last road-network vertex the taxi is known to have reached.
    pub location: NodeId,
    /// Time at which the taxi was at `location`.
    pub location_time: Time,
    /// Pending events, in execution order (Def. 4).
    pub schedule: Schedule,
    /// Current route realizing the schedule (Def. 5); `None` when idle.
    pub route: Option<TimedRoute>,
    /// Requests whose passengers are currently in the taxi.
    pub onboard: Vec<RequestId>,
    /// Requests assigned but not yet picked up.
    pub assigned: Vec<RequestId>,
    /// Bumped every time the route/schedule changes; lets indexes detect
    /// stale entries.
    pub route_version: u64,
    /// `false` once the taxi has broken down: it never moves again and
    /// must not appear in any candidate search.
    pub alive: bool,
}

impl Taxi {
    /// A new idle taxi parked at `location`.
    pub fn new(id: TaxiId, capacity: u8, location: NodeId) -> Self {
        Self {
            id,
            capacity,
            location,
            location_time: 0.0,
            schedule: Schedule::new(),
            route: None,
            onboard: Vec::new(),
            assigned: Vec::new(),
            route_version: 0,
            alive: true,
        }
    }

    /// Whether the taxi has no passengers and no assignments.
    #[inline]
    pub fn is_vacant(&self) -> bool {
        self.onboard.is_empty() && self.assigned.is_empty()
    }

    /// Riders currently on board.
    pub fn onboard_load(&self, requests: &RequestStore) -> u32 {
        self.onboard.iter().map(|&r| requests.get(r).passengers as u32).sum()
    }

    /// Seats free right now (ignoring future pick-ups).
    pub fn idle_seats(&self, requests: &RequestStore) -> u32 {
        (self.capacity as u32).saturating_sub(self.onboard_load(requests))
    }

    /// The vertex the taxi occupies at time `now` (reads the route; idle
    /// taxis stay parked).
    pub fn position_at(&self, now: Time) -> NodeId {
        match &self.route {
            Some(r) => r.position_at(now),
            None => self.location,
        }
    }

    /// Applies a newly committed schedule/route pair.
    pub fn set_plan(&mut self, schedule: Schedule, route: TimedRoute, now: Time) {
        debug_assert!(route.start_time() <= now + 1e-6);
        self.schedule = schedule;
        self.route = Some(route);
        self.route_version += 1;
    }

    /// Completes the next scheduled event at time `t`, updating location,
    /// onboard/assigned sets. Returns the completed event. The caller must
    /// ensure the event is actually due (`route.event_time(0) <= t`).
    pub fn complete_next_event(&mut self, t: Time) -> ScheduleEvent {
        let ev = self.schedule.pop_front();
        self.location = ev.node;
        self.location_time = t;
        match ev.kind {
            EventKind::Pickup => {
                if let Some(pos) = self.assigned.iter().position(|&r| r == ev.request) {
                    self.assigned.swap_remove(pos);
                }
                self.onboard.push(ev.request);
            }
            EventKind::Dropoff => {
                if let Some(pos) = self.onboard.iter().position(|&r| r == ev.request) {
                    self.onboard.swap_remove(pos);
                }
            }
        }
        // Trim the consumed prefix of the route lazily: when the schedule
        // empties, the taxi parks at its final node.
        if self.schedule.is_empty() {
            self.route = None;
        } else if let Some(route) = &mut self.route {
            route.event_node_idx.remove(0);
        }
        ev
    }

    /// Time the next pending event completes, if any.
    pub fn next_event_time(&self) -> Option<Time> {
        let r = self.route.as_ref()?;
        (!self.schedule.is_empty()).then(|| r.event_time(0))
    }

    /// Takes the taxi out of service at time `now` (breakdown).
    ///
    /// The taxi parks at its current position, its plan is torn down and
    /// its version bumped so every queued event for it becomes a no-op.
    /// Returns the stranded riders: `(onboard, assigned)`, each sorted by
    /// request id for deterministic recovery order.
    pub fn fail(&mut self, now: Time) -> (Vec<RequestId>, Vec<RequestId>) {
        let pos = self.position_at(now);
        self.location = pos;
        self.location_time = now;
        self.schedule = Schedule::new();
        self.route = None;
        self.route_version += 1;
        self.alive = false;
        let mut onboard = std::mem::take(&mut self.onboard);
        let mut assigned = std::mem::take(&mut self.assigned);
        onboard.sort_unstable();
        assigned.sort_unstable();
        (onboard, assigned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RideRequest;
    use mtshare_routing::Path;

    fn store_with(reqs: Vec<RideRequest>) -> RequestStore {
        let mut s = RequestStore::new();
        for r in reqs {
            s.push(r);
        }
        s
    }

    fn mkreq(id: u32, origin: u32, dest: u32, passengers: u8) -> RideRequest {
        RideRequest {
            id: RequestId(id),
            release_time: 0.0,
            origin: NodeId(origin),
            destination: NodeId(dest),
            passengers,
            deadline: 1e9,
            direct_cost_s: 10.0,
            offline: false,
        }
    }

    fn path(nodes: &[u32], cost: f64) -> Path {
        Path { nodes: nodes.iter().map(|&n| NodeId(n)).collect(), cost_s: cost }
    }

    /// Nodes 0 — 1 — … — 4 in a line, every arc 10 s.
    fn line() -> mtshare_road::RoadNetwork {
        use mtshare_road::{EdgeSpec, GeoPoint, RoadNetwork};
        let points = (0..5).map(|i| GeoPoint::new(30.0, 104.0 + 0.001 * i as f64)).collect();
        let arc = |a: u32, b: u32| EdgeSpec {
            from: NodeId(a),
            to: NodeId(b),
            length_m: 100.0,
            speed_kmh: 36.0,
        };
        let edges: Vec<EdgeSpec> = (0..4).flat_map(|a| [arc(a, a + 1), arc(a + 1, a)]).collect();
        RoadNetwork::new(points, &edges).unwrap()
    }

    #[test]
    fn vacant_and_loads() {
        let reqs = store_with(vec![mkreq(0, 1, 2, 3)]);
        let mut t = Taxi::new(TaxiId(0), 4, NodeId(0));
        assert!(t.is_vacant());
        assert_eq!(t.idle_seats(&reqs), 4);
        t.onboard.push(RequestId(0));
        assert!(!t.is_vacant());
        assert_eq!(t.onboard_load(&reqs), 3);
        assert_eq!(t.idle_seats(&reqs), 1);
    }

    #[test]
    fn plan_and_complete_events() {
        let r = mkreq(0, 2, 4, 1);
        let reqs = store_with(vec![r.clone()]);
        let mut t = Taxi::new(TaxiId(0), 4, NodeId(0));
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 20.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 0.0, &legs, &s);
        t.assigned.push(r.id);
        t.set_plan(s, route, 0.0);
        assert_eq!(t.route_version, 1);
        assert_eq!(t.next_event_time(), Some(20.0));
        assert_eq!(t.position_at(10.0), NodeId(1));

        let ev = t.complete_next_event(20.0);
        assert_eq!(ev.kind, EventKind::Pickup);
        assert_eq!(t.onboard, vec![r.id]);
        assert!(t.assigned.is_empty());
        assert_eq!(t.location, NodeId(2));
        assert_eq!(t.next_event_time(), Some(40.0));
        assert_eq!(t.onboard_load(&reqs), 1);

        let ev = t.complete_next_event(40.0);
        assert_eq!(ev.kind, EventKind::Dropoff);
        assert!(t.onboard.is_empty());
        assert!(t.is_vacant());
        assert!(t.route.is_none());
        assert_eq!(t.position_at(99.0), NodeId(4));
    }

    #[test]
    fn fail_parks_and_drains_orphans() {
        let r = mkreq(0, 2, 4, 1);
        let r2 = mkreq(1, 3, 4, 1);
        let mut t = Taxi::new(TaxiId(0), 4, NodeId(0));
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 20.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 0.0, &legs, &s);
        t.assigned.push(r.id);
        t.set_plan(s, route, 0.0);
        t.onboard.push(r2.id);
        let v0 = t.route_version;

        let (onboard, assigned) = t.fail(10.0);
        assert_eq!(onboard, vec![r2.id]);
        assert_eq!(assigned, vec![r.id]);
        assert!(!t.alive);
        assert!(t.is_vacant());
        assert!(t.route.is_none());
        assert!(t.schedule.is_empty());
        assert!(t.route_version > v0);
        // Parked at the position it had reached mid-leg.
        assert_eq!(t.location, NodeId(1));
        assert_eq!(t.position_at(1e9), NodeId(1));
        assert_eq!(t.next_event_time(), None);
    }
}
