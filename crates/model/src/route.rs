//! Timed taxi routes (Def. 5).
//!
//! A route realizes a schedule: the concatenated travel paths between
//! consecutive events, stamped with absolute arrival times under the
//! constant-speed assumption. The simulator reads positions and event
//! completion times straight off the route without ticking.

use crate::schedule::Schedule;
use crate::Time;
use mtshare_road::{NodeId, RoadNetwork};
use mtshare_routing::Path;

/// A route with absolute node arrival times and event markers.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRoute {
    /// Visited vertices in order (starts at the taxi's position when the
    /// route was planned).
    pub nodes: Vec<NodeId>,
    /// Absolute arrival time at each node; same length as `nodes`.
    pub arrival_s: Vec<Time>,
    /// For each schedule event (in order), the index into `nodes` where it
    /// completes.
    pub event_node_idx: Vec<usize>,
}

impl TimedRoute {
    /// Builds a timed route from per-event legs with *edge-accurate* node
    /// arrival times: each hop advances the clock by its arc cost on
    /// `graph`, the metric the legs were planned on (`t0 + Σ arc`, one
    /// rounding per node). Uniform per-hop times could show a taxi further
    /// along than physically possible, and re-planning from there would
    /// let a rider beat the shortest path.
    ///
    /// `legs[i]` must run from the previous event's node (or `start_node`
    /// for the first leg) to `schedule.events()[i].node` over arcs of
    /// `graph`, and cost the sum of those arcs.
    pub fn build_on(
        graph: &RoadNetwork,
        start_node: NodeId,
        start_time: Time,
        legs: &[Path],
        schedule: &Schedule,
    ) -> Self {
        assert_eq!(legs.len(), schedule.len(), "one leg per schedule event");
        let mut nodes = vec![start_node];
        let mut arrival_s = vec![start_time];
        let mut event_node_idx = Vec::with_capacity(legs.len());
        let mut expected_start = start_node;
        for (leg, ev) in legs.iter().zip(schedule.events()) {
            assert_eq!(leg.start(), expected_start, "leg must start where the previous ended");
            assert_eq!(leg.end(), ev.node, "leg must end at its event node");
            let t0 = *arrival_s.last().expect("non-empty");
            let mut acc = 0.0;
            for w in leg.nodes.windows(2) {
                acc += arc(graph, w[0], w[1]);
                nodes.push(w[1]);
                arrival_s.push(t0 + acc);
            }
            debug_assert_eq!(
                acc, leg.cost_s,
                "a leg costs its arcs on the graph it was planned on"
            );
            event_node_idx.push(nodes.len() - 1);
            expected_start = ev.node;
        }
        Self { nodes, arrival_s, event_node_idx }
    }

    /// When the route was planned (time at its first node).
    #[inline]
    pub fn start_time(&self) -> Time {
        self.arrival_s[0]
    }

    /// Completion time of the whole route.
    #[inline]
    pub fn end_time(&self) -> Time {
        *self.arrival_s.last().expect("non-empty")
    }

    /// Completion time of the `i`-th schedule event.
    #[inline]
    pub fn event_time(&self, i: usize) -> Time {
        self.arrival_s[self.event_node_idx[i]]
    }

    /// The last node reached at or before `t` (clamped to the endpoints).
    pub fn position_at(&self, t: Time) -> NodeId {
        let idx = self.arrival_s.partition_point(|&a| a <= t + 1e-9);
        self.nodes[idx.saturating_sub(1).min(self.nodes.len() - 1)]
    }

    /// Nodes reached strictly within the half-open time window
    /// `(from, to]`, with their arrival times. Used for offline-request
    /// encounter detection.
    pub fn nodes_in_window(
        &self,
        from: Time,
        to: Time,
    ) -> impl Iterator<Item = (NodeId, Time)> + '_ {
        let lo = self.arrival_s.partition_point(|&a| a <= from + 1e-9);
        self.nodes[lo..]
            .iter()
            .zip(&self.arrival_s[lo..])
            .take_while(move |(_, &a)| a <= to + 1e-9)
            .map(|(&n, &a)| (n, a))
    }

    /// Re-times the route for a metric change at `now`, from `was` to
    /// `live`: every hop entered at or after `now` takes its arc cost on
    /// `live`; the hop under way keeps its arrival, and so does every node
    /// already reached. Returns `false`, route untouched, when no hop left
    /// to enter changed cost: its times then stand as they were, without
    /// the drift a re-summation would add.
    pub fn retime(&mut self, was: &RoadNetwork, live: &RoadNetwork, now: Time) -> bool {
        // The first node reached at or after `now`: the end of the hop
        // under way, or the node the taxi stands on.
        let k = self.arrival_s.partition_point(|&a| a < now);
        let mut hops = self.nodes[k..].windows(2);
        if hops.all(|w| arc(was, w[0], w[1]) == arc(live, w[0], w[1])) {
            return false;
        }
        let t0 = self.arrival_s[k];
        let mut acc = 0.0;
        for i in k + 1..self.nodes.len() {
            acc += arc(live, self.nodes[i - 1], self.nodes[i]);
            self.arrival_s[i] = t0 + acc;
        }
        true
    }
}

/// The cost of the arc `a → b` of `graph`, seconds.
fn arc(graph: &RoadNetwork, a: NodeId, b: NodeId) -> f64 {
    graph.direct_edge_cost(a, b).expect("route hops are arcs of the graph") as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, RideRequest};
    use crate::schedule::Schedule;

    fn mkreq(id: u32, origin: u32, dest: u32) -> RideRequest {
        RideRequest {
            id: RequestId(id),
            release_time: 0.0,
            origin: NodeId(origin),
            destination: NodeId(dest),
            passengers: 1,
            deadline: 1e9,
            direct_cost_s: 10.0,
            offline: false,
        }
    }

    fn path(nodes: &[u32], cost: f64) -> Path {
        Path { nodes: nodes.iter().map(|&n| NodeId(n)).collect(), cost_s: cost }
    }

    /// Nodes 0 — 1 — … — 9 in a line, every arc 10 s.
    fn line() -> RoadNetwork {
        use mtshare_road::{EdgeSpec, GeoPoint};
        let points = (0..10).map(|i| GeoPoint::new(30.0, 104.0 + 0.001 * i as f64)).collect();
        let arc = |a: u32, b: u32| EdgeSpec {
            from: NodeId(a),
            to: NodeId(b),
            length_m: 100.0,
            speed_kmh: 36.0,
        };
        let edges: Vec<EdgeSpec> = (0..9).flat_map(|a| [arc(a, a + 1), arc(a + 1, a)]).collect();
        RoadNetwork::new(points, &edges).unwrap()
    }

    /// Nodes 0 and 1 → 2 → 3 → 4 on `line()`, one leg each way of a
    /// pick-up at 2 and a drop-off at 4, planned on `graph` from `t0`.
    fn route_on(graph: &RoadNetwork, t0: f64) -> TimedRoute {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let leg = |nodes: &[u32]| {
            let cost = nodes.windows(2).map(|w| arc(graph, NodeId(w[0]), NodeId(w[1]))).sum();
            path(nodes, cost)
        };
        TimedRoute::build_on(graph, NodeId(0), t0, &[leg(&[0, 1, 2]), leg(&[2, 3, 4])], &s)
    }

    /// `line()` with the arcs touching `node` taking `factor`× as long.
    fn slowed(node: u32, factor: f64) -> RoadNetwork {
        use mtshare_road::{apply_traffic_shifts, TrafficShiftSpec};
        let spec = TrafficShiftSpec {
            center: NodeId(node),
            radius_m: 10.0,
            factor,
            start_s: 0.0,
            duration_s: 1e9,
        };
        apply_traffic_shifts(&line(), &[spec]).unwrap()
    }

    #[test]
    fn build_stamps_times_and_events() {
        let route = route_on(&line(), 100.0);
        assert_eq!(route.start_time(), 100.0);
        assert_eq!(route.arrival_s, vec![100.0, 110.0, 120.0, 130.0, 140.0]);
        assert_eq!(route.event_time(0), 120.0); // pickup at node 2
        assert_eq!(route.event_time(1), 140.0); // dropoff at node 4
        assert_eq!(route.end_time(), 140.0);
    }

    #[test]
    fn position_interpolates_by_node() {
        let route = route_on(&line(), 100.0);
        assert_eq!(route.position_at(99.0), NodeId(0));
        assert_eq!(route.position_at(100.0), NodeId(0));
        assert_eq!(route.position_at(110.0), NodeId(1));
        assert_eq!(route.position_at(120.0), NodeId(2));
        assert_eq!(route.position_at(136.0), NodeId(3));
        assert_eq!(route.position_at(1000.0), NodeId(4));
    }

    #[test]
    fn zero_length_leg_event_at_current_node() {
        // Pickup exactly at the taxi's position.
        let r = mkreq(1, 0, 2);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0], 0.0), path(&[0, 1, 2], 20.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 50.0, &legs, &s);
        assert_eq!(route.event_time(0), 50.0);
        assert_eq!(route.event_time(1), 70.0);
    }

    #[test]
    fn nodes_in_window() {
        let route = route_on(&line(), 100.0);
        let hits: Vec<_> = route.nodes_in_window(100.0, 135.0).collect();
        assert_eq!(hits, vec![(NodeId(1), 110.0), (NodeId(2), 120.0), (NodeId(3), 130.0)]);
        assert_eq!(route.nodes_in_window(140.0, 200.0).count(), 0);
    }

    #[test]
    fn retime_moves_only_hops_entered_after_now() {
        // Arcs touching node 3 take 20 s instead of 10 s.
        let (base, live) = (line(), slowed(3, 2.0));
        // Mid-hop 1 → 2: it keeps its arrival, 2 → 3 → 4 slow down.
        let mut route = route_on(&base, 100.0);
        assert!(route.retime(&base, &live, 115.0));
        assert_eq!(route.arrival_s, vec![100.0, 110.0, 120.0, 140.0, 160.0]);
        assert_eq!((route.event_time(0), route.event_time(1)), (120.0, 160.0));
        // The shift ends mid-hop 2 → 3: the slowed hop keeps its arrival,
        // 3 → 4 speeds up again.
        assert!(route.retime(&live, &base, 125.0));
        assert_eq!(route.arrival_s, vec![100.0, 110.0, 120.0, 140.0, 150.0]);
        // Standing on node 2: the hop out of it is entered now.
        let mut route = route_on(&base, 100.0);
        assert!(route.retime(&base, &live, 120.0));
        assert_eq!(route.arrival_s, vec![100.0, 110.0, 120.0, 140.0, 160.0]);
        // Mid-hop 2 → 3: only 3 → 4 is left to enter.
        let mut route = route_on(&base, 100.0);
        assert!(route.retime(&base, &live, 125.0));
        assert_eq!(route.arrival_s, vec![100.0, 110.0, 120.0, 130.0, 150.0]);
    }

    #[test]
    fn retime_is_identity_when_no_hop_left_changed_cost() {
        let (base, live) = (line(), slowed(1, 3.0));
        // A route timed off-grid, where a re-summation would drift.
        let route = route_on(&base, 100.1);
        let mut same = route.clone();
        assert!(!same.retime(&base, &base, 105.0));
        // Only hops 0 → 1 → 2 touch node 1, and both are entered by t = 115.
        assert!(!same.retime(&base, &live, 115.0));
        // Past the end nothing is left to re-time.
        assert!(!same.retime(&live, &base, 1e6));
        assert_eq!(same, route);
    }

    #[test]
    fn retimed_spans_are_the_live_arc_sums_bit_for_bit() {
        let (base, live) = (line(), slowed(3, 1.37));
        let mut route = route_on(&base, 100.0);
        assert!(route.retime(&base, &live, 115.0));
        // The same hops built afresh on `live` from the kept arrival at node 2.
        let rest = route_on(&live, 100.0);
        let k = 2;
        for i in k + 1..route.nodes.len() {
            let span = route.arrival_s[i] - route.arrival_s[k];
            assert_eq!(span, rest.arrival_s[i] - rest.arrival_s[k], "node {i}");
            let arcs: f64 = route.nodes[k..=i].windows(2).map(|w| arc(&live, w[0], w[1])).sum();
            assert_eq!(span, arcs, "node {i}");
        }
        assert!(route.arrival_s[4] - route.arrival_s[2] > 20.0);
    }

    #[test]
    #[should_panic(expected = "must start where")]
    fn build_rejects_disconnected_legs() {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[9, 2], 20.0), path(&[2, 4], 30.0)];
        let _ = TimedRoute::build_on(&line(), NodeId(0), 0.0, &legs, &s);
    }
}
