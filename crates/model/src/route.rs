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
    /// arrival times: each hop advances the clock by its actual edge cost
    /// (normalized so the leg total matches `leg.cost_s` exactly). Uniform
    /// per-hop times could show a taxi further along than physically
    /// possible, and re-planning from there would let a rider beat the
    /// shortest path.
    ///
    /// `legs[i]` must run from the previous event's node (or `start_node`
    /// for the first leg) to `schedule.events()[i].node` over arcs of
    /// `graph`.
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
            if leg.nodes.len() <= 1 {
                event_node_idx.push(nodes.len() - 1);
            } else {
                // Per-hop edge costs, normalized to the leg's total cost.
                let hops: Vec<f64> = leg
                    .nodes
                    .windows(2)
                    .map(|w| {
                        graph.direct_edge_cost(w[0], w[1]).expect("leg edges exist in the graph")
                            as f64
                    })
                    .collect();
                let total: f64 = hops.iter().sum();
                let scale = if total > 0.0 { leg.cost_s / total } else { 0.0 };
                let t0 = *arrival_s.last().expect("non-empty");
                let mut acc = 0.0;
                for (h, &n) in hops.iter().zip(&leg.nodes[1..]) {
                    acc += h * scale;
                    nodes.push(n);
                    arrival_s.push(t0 + acc);
                }
                event_node_idx.push(nodes.len() - 1);
            }
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

    /// Stretches the hops overlapping the time window `(from, to)` whose
    /// endpoint nodes satisfy `affected` by `factor` (a traffic shift),
    /// delaying every later arrival by the accumulated slowdown. Window
    /// membership is judged on the *pre-stretch* times — the quasi-static
    /// model: the shift applies to where the plan said the taxi would be.
    /// Returns the total delay added at the end of the route (0.0 when the
    /// route was untouched).
    pub fn stretch(
        &mut self,
        from: Time,
        to: Time,
        factor: f64,
        mut affected: impl FnMut(NodeId) -> bool,
    ) -> f64 {
        assert!(factor.is_finite() && factor > 0.0, "stretch factor must be positive");
        let mut acc = 0.0;
        let mut prev_orig = self.arrival_s[0];
        for i in 1..self.nodes.len() {
            let orig = self.arrival_s[i];
            let overlaps = orig > from && prev_orig < to;
            if overlaps && (affected(self.nodes[i - 1]) || affected(self.nodes[i])) {
                acc += (orig - prev_orig) * (factor - 1.0);
            }
            self.arrival_s[i] = orig + acc;
            prev_orig = orig;
        }
        acc
    }
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

    /// Nodes 0 — 1 — … — 9 in a line, every arc 10 s: routes over it
    /// spread each leg's cost evenly across its hops.
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

    #[test]
    fn build_stamps_times_and_events() {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 30.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 100.0, &legs, &s);
        assert_eq!(route.start_time(), 100.0);
        assert_eq!(route.end_time(), 150.0);
        assert_eq!(route.event_time(0), 120.0); // pickup at node 2
        assert_eq!(route.event_time(1), 150.0); // dropoff at node 4
        assert_eq!(route.end_time() - route.start_time(), 50.0);
    }

    #[test]
    fn position_interpolates_by_node() {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 30.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 100.0, &legs, &s);
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
        let legs = vec![path(&[0], 0.0), path(&[0, 1, 2], 10.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 50.0, &legs, &s);
        assert_eq!(route.event_time(0), 50.0);
        assert_eq!(route.event_time(1), 60.0);
    }

    #[test]
    fn nodes_in_window() {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 30.0)];
        let route = TimedRoute::build_on(&line(), NodeId(0), 100.0, &legs, &s);
        let hits: Vec<_> = route.nodes_in_window(100.0, 135.0).collect();
        assert_eq!(hits, vec![(NodeId(1), 110.0), (NodeId(2), 120.0), (NodeId(3), 135.0)]);
        assert_eq!(route.nodes_in_window(150.0, 200.0).count(), 0);
    }

    #[test]
    fn stretch_delays_affected_window_and_suffix() {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 30.0)];
        let mut route = TimedRoute::build_on(&line(), NodeId(0), 100.0, &legs, &s);
        // Double travel time through node 1 for the window (105, 125):
        // hops 0→1 and 1→2 touch the region and overlap it.
        let delay = route.stretch(105.0, 125.0, 2.0, |n| n.0 == 1);
        assert!((delay - 20.0).abs() < 1e-9, "delay {delay}");
        assert_eq!(route.arrival_s, vec![100.0, 120.0, 140.0, 155.0, 170.0]);
        // Event times shift with the nodes.
        assert_eq!(route.event_time(0), 140.0);
        assert_eq!(route.event_time(1), 170.0);
        // Monotone after stretching.
        assert!(route.arrival_s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stretch_outside_window_or_region_is_identity() {
        let r = mkreq(1, 2, 4);
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![path(&[0, 1, 2], 20.0), path(&[2, 3, 4], 30.0)];
        let mut route = TimedRoute::build_on(&line(), NodeId(0), 100.0, &legs, &s);
        let orig = route.arrival_s.clone();
        assert_eq!(route.stretch(200.0, 300.0, 3.0, |_| true), 0.0);
        assert_eq!(route.stretch(100.0, 150.0, 3.0, |_| false), 0.0);
        assert_eq!(route.arrival_s, orig);
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
