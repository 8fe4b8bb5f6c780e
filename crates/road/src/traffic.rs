//! Traffic conditions as edge-cost transforms.
//!
//! The paper assumes stable traffic ("the travel cost of each edge is
//! constant") but notes the system "could easily extend to run with
//! real-time traffic conditions" (Sec. III-A). This module provides that
//! extension point: [`apply_traffic`] derives a re-weighted
//! [`RoadNetwork`] for a time slice. Deriving a graph per slice keeps
//! every downstream component (caches, cost matrices, oracles) valid
//! within the slice — the same quasi-static model traffic-aware dispatch
//! systems use in practice.

use crate::graph::{EdgeSpec, GraphError, RoadNetwork};

/// A localized, time-windowed travel-time shift: while active, travel
/// within `radius_m` of `center` takes `factor`× its base time (`factor`
/// above 1 models a sudden slowdown — an incident, closure-induced spill —
/// below 1 a clearing). Unlike [`apply_traffic`], which re-weights the
/// whole network for a slice, a shift is regional and windowed: the
/// simulator routes on [`apply_traffic_shifts`]' metric while it is
/// active and re-times committed routes at its start and end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficShiftSpec {
    /// Center of the affected region.
    pub center: crate::ids::NodeId,
    /// Radius of the affected region in metres.
    pub radius_m: f64,
    /// Travel-time multiplier while active (must be positive).
    pub factor: f64,
    /// Activation time (simulation seconds).
    pub start_s: f64,
    /// How long the shift lasts.
    pub duration_s: f64,
}

impl TrafficShiftSpec {
    /// When the shift stops applying.
    #[inline]
    pub fn end_s(&self) -> f64 {
        self.start_s + self.duration_s
    }

    /// Whether the shift is active at time `t`.
    #[inline]
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s()
    }

    /// Whether `node` lies inside the affected region.
    pub fn covers(&self, graph: &RoadNetwork, node: crate::ids::NodeId) -> bool {
        graph.point(node).distance_m(&graph.point(self.center)) <= self.radius_m
    }
}

/// Derives a road network whose edge travel costs reflect `factor`
/// (effective speed = base speed × factor; costs scale by 1/factor).
/// Lengths and topology are unchanged.
pub fn apply_traffic(graph: &RoadNetwork, factor: f64) -> Result<RoadNetwork, GraphError> {
    assert!(factor.is_finite() && factor > 0.0, "speed factor must be positive");
    let mut edges = Vec::with_capacity(graph.edge_count());
    for u in graph.nodes() {
        for (v, cost_s, length_m, _) in graph.out_edges_full(u) {
            // Recover the base speed from cost & length, then scale it.
            let base_speed_mps = length_m as f64 / cost_s as f64;
            edges.push(EdgeSpec {
                from: u,
                to: v,
                length_m: length_m as f64,
                speed_kmh: base_speed_mps * factor * 3.6,
            });
        }
    }
    RoadNetwork::new(graph.points().to_vec(), &edges)
}

/// Derives a road network with every active [`TrafficShiftSpec`] applied
/// *regionally*: an edge's travel time is multiplied by `spec.factor`
/// when either endpoint lies inside the spec's region
/// ([`TrafficShiftSpec::covers`]), and overlapping shifts compose
/// multiplicatively. Note the factor here is a **time** multiplier — the
/// inverse sense of [`apply_traffic`]'s speed factor. Lengths and topology
/// are unchanged; costs re-quantize through [`RoadNetwork::new`], so the
/// result obeys the same dyadic exactness contract as the base graph.
pub fn apply_traffic_shifts(
    graph: &RoadNetwork,
    shifts: &[TrafficShiftSpec],
) -> Result<RoadNetwork, GraphError> {
    // Precompute per-spec node coverage once: covers() is a distance
    // probe, and each edge would otherwise probe both endpoints per spec.
    let covered: Vec<Vec<bool>> = shifts
        .iter()
        .map(|spec| {
            assert!(spec.factor.is_finite() && spec.factor > 0.0, "time factor must be positive");
            graph.nodes().map(|v| spec.covers(graph, v)).collect()
        })
        .collect();
    let mut edges = Vec::with_capacity(graph.edge_count());
    for u in graph.nodes() {
        for (v, cost_s, length_m, _) in graph.out_edges_full(u) {
            let mut time_factor = 1.0;
            for (spec, cov) in shifts.iter().zip(&covered) {
                if cov[u.index()] || cov[v.index()] {
                    time_factor *= spec.factor;
                }
            }
            let base_speed_mps = length_m as f64 / cost_s as f64;
            edges.push(EdgeSpec {
                from: u,
                to: v,
                length_m: length_m as f64,
                speed_kmh: base_speed_mps / time_factor * 3.6,
            });
        }
    }
    RoadNetwork::new(graph.points().to_vec(), &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::synthetic::{grid_city, GridCityConfig};

    #[test]
    fn congestion_scales_costs_inversely() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let slow = apply_traffic(&g, 0.5).unwrap();
        assert_eq!(slow.node_count(), g.node_count());
        assert_eq!(slow.edge_count(), g.edge_count());
        // Every direct edge cost doubles (speed halves).
        let mut checked = 0;
        for u in g.nodes().take(50) {
            for (v, base_cost) in g.out_edges(u) {
                let slow_cost = slow.direct_edge_cost(u, v).expect("same topology");
                assert!(
                    (slow_cost / base_cost - 2.0).abs() < 1e-3,
                    "{u}->{v}: {slow_cost} vs {base_cost}"
                );
                checked += 1;
            }
        }
        assert!(checked > 50);
    }

    #[test]
    fn free_flow_is_identity_on_costs() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let same = apply_traffic(&g, 1.0).unwrap();
        for u in g.nodes().take(30) {
            for (v, c) in g.out_edges(u) {
                let c2 = same.direct_edge_cost(u, v).unwrap();
                assert!((c2 - c).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn regional_shift_scales_only_covered_edges() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let center = NodeId(0);
        let spec = TrafficShiftSpec {
            center,
            radius_m: 300.0,
            factor: 2.0,
            start_s: 0.0,
            duration_s: 600.0,
        };
        let shifted = apply_traffic_shifts(&g, &[spec]).unwrap();
        assert_eq!(shifted.node_count(), g.node_count());
        assert_eq!(shifted.edge_count(), g.edge_count());
        let (mut touched, mut untouched) = (0, 0);
        for u in g.nodes() {
            for (v, base) in g.out_edges(u) {
                let got = shifted.direct_edge_cost(u, v).unwrap();
                if spec.covers(&g, u) || spec.covers(&g, v) {
                    assert!((got / base - 2.0).abs() < 1e-2, "{u}->{v}: {got} vs {base}");
                    touched += 1;
                } else {
                    assert!((got - base).abs() < 1e-3, "{u}->{v} changed outside region");
                    untouched += 1;
                }
            }
        }
        assert!(touched > 0, "region must cover some edges");
        assert!(untouched > touched, "region must not cover the whole city");
    }

    #[test]
    fn overlapping_shifts_compose_multiplicatively() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let spec = TrafficShiftSpec {
            center: NodeId(0),
            radius_m: 300.0,
            factor: 2.0,
            start_s: 0.0,
            duration_s: 600.0,
        };
        let twice = apply_traffic_shifts(&g, &[spec, spec]).unwrap();
        for u in g.nodes().take(60) {
            for (v, base) in g.out_edges(u) {
                let got = twice.direct_edge_cost(u, v).unwrap();
                let want = if spec.covers(&g, u) || spec.covers(&g, v) { 4.0 } else { 1.0 };
                assert!((got / base - want).abs() < 1e-2, "{u}->{v}");
            }
        }
        // No active shifts: costs are bit-identical to a plain rebuild —
        // re-quantization through RoadNetwork::new is idempotent.
        let same = apply_traffic_shifts(&g, &[]).unwrap();
        for u in g.nodes() {
            for (v, base) in g.out_edges(u) {
                assert_eq!(same.direct_edge_cost(u, v), Some(base), "{u}->{v}");
            }
        }
    }

    #[test]
    fn shortest_paths_scale_with_congestion() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let slow = apply_traffic(&g, 0.8).unwrap();
        let mut d1 = mtshare_routing_probe::shortest(&g, NodeId(0), NodeId(399));
        let mut d2 = mtshare_routing_probe::shortest(&slow, NodeId(0), NodeId(399));
        // Uniform scaling preserves the path, costs scale by 1/0.8.
        assert!((d2 / d1 - 1.25).abs() < 1e-3, "{d1} vs {d2}");
        std::mem::swap(&mut d1, &mut d2);
    }

    /// Minimal local Dijkstra so the road crate does not depend on the
    /// routing crate (which depends on road).
    mod mtshare_routing_probe {
        use crate::graph::RoadNetwork;
        use crate::ids::NodeId;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        pub fn shortest(g: &RoadNetwork, s: NodeId, t: NodeId) -> f64 {
            let mut dist = vec![f64::INFINITY; g.node_count()];
            let mut heap = BinaryHeap::new();
            dist[s.index()] = 0.0;
            heap.push(Reverse((ordered_float(0.0), s.0)));
            while let Some(Reverse((d, u))) = heap.pop() {
                let d = d as f64 / 1e3;
                if u == t.0 {
                    return d;
                }
                if d > dist[u as usize] + 1e-9 {
                    continue;
                }
                for (v, w) in g.out_edges(NodeId(u)) {
                    let nd = d + w as f64;
                    if nd < dist[v.index()] {
                        dist[v.index()] = nd;
                        heap.push(Reverse((ordered_float(nd), v.0)));
                    }
                }
            }
            f64::INFINITY
        }

        fn ordered_float(v: f64) -> u64 {
            (v * 1e3) as u64
        }
    }
}
