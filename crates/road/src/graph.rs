//! The road network: a directed graph in compressed sparse row form.
//!
//! Matches Definition 1 of the paper: vertices are geolocations, edges are
//! road segments weighted by a travel cost. We store both the physical
//! length (metres) and the travel cost (seconds) per edge; with the paper's
//! constant-speed assumption the two are proportional, but keeping both lets
//! experiments vary speed per road class.

use crate::geo::{BoundingBox, GeoPoint};
use crate::ids::{EdgeId, NodeId};
use mtshare_persist::Fnv64;

/// Edge travel costs are quantized to multiples of this step (2⁻⁶ s)
/// when the CSR arrays are built. Dyadic weights make `f32` addition
/// *exact* for any path sum below 2¹⁸ s (~3 days), so summation is
/// associative and every exact engine — unidirectional or bidirectional
/// Dijkstra, contraction-hierarchy queries whose shortcut weights are
/// sums of sums — returns bit-identical costs for the same pair. The
/// determinism contracts of the caches and the trace-equivalence suite
/// build on this. Costs round *up*, so a quantized cost never undercuts
/// the physical travel time (length / speed).
pub const COST_QUANTUM_S: f64 = 1.0 / 64.0;

/// Rounds a travel cost in seconds up to the dyadic grid (see
/// [`COST_QUANTUM_S`]). Values already within one part in 10⁹ of a grid
/// point snap to it instead of bumping a whole quantum: they are grid
/// values that picked up float error in upstream arithmetic (e.g. a
/// speed recovered from an already-quantized cost, as `apply_traffic`
/// does), and ceiling them would make cost transforms non-idempotent.
#[inline]
pub fn quantize_cost_s(cost_s: f64) -> f32 {
    let steps = cost_s / COST_QUANTUM_S;
    let snapped = steps.round();
    let cells =
        if (steps - snapped).abs() <= snapped.abs() * 1e-9 { snapped } else { steps.ceil() };
    (cells * COST_QUANTUM_S) as f32
}

/// Errors raised while assembling a [`RoadNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge referenced a vertex id that was never added.
    UnknownVertex {
        /// The offending vertex id.
        node: u32,
        /// Number of vertices actually present.
        node_count: usize,
    },
    /// An edge had a non-positive or non-finite length/cost.
    InvalidEdgeWeight {
        /// Source vertex.
        from: u32,
        /// Target vertex.
        to: u32,
    },
    /// More than `u32::MAX` vertices or edges.
    TooLarge,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownVertex { node, node_count } => {
                write!(f, "edge references vertex {node} but only {node_count} vertices exist")
            }
            GraphError::InvalidEdgeWeight { from, to } => {
                write!(f, "edge {from}->{to} has non-positive or non-finite weight")
            }
            GraphError::TooLarge => write!(f, "graph exceeds u32 id space"),
        }
    }
}

impl std::error::Error for GraphError {}

/// One directed edge as supplied to the builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSpec {
    /// Source vertex.
    pub from: NodeId,
    /// Target vertex.
    pub to: NodeId,
    /// Physical length in metres.
    pub length_m: f64,
    /// Travel speed on this segment in km/h.
    pub speed_kmh: f64,
}

impl EdgeSpec {
    /// Travel cost of this segment in seconds.
    #[inline]
    pub fn cost_s(&self) -> f64 {
        self.length_m / (self.speed_kmh / 3.6)
    }
}

/// Directed road network in CSR form with both forward and reverse adjacency
/// (the reverse star powers bidirectional and backward searches).
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    points: Vec<GeoPoint>,
    // Forward CSR.
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    out_costs: Vec<f32>,
    out_lengths: Vec<f32>,
    out_edge_ids: Vec<EdgeId>,
    // Reverse CSR (costs duplicated for cache locality in backward search).
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
    in_costs: Vec<f32>,
    // Edge endpoints in insertion order, addressable by EdgeId.
    edge_endpoints: Vec<(NodeId, NodeId)>,
    bbox: BoundingBox,
}

impl RoadNetwork {
    /// Builds a network from vertex positions and directed edges.
    pub fn new(points: Vec<GeoPoint>, edges: &[EdgeSpec]) -> Result<Self, GraphError> {
        if points.len() > u32::MAX as usize || edges.len() > u32::MAX as usize {
            return Err(GraphError::TooLarge);
        }
        let n = points.len();
        for e in edges {
            if e.from.index() >= n {
                return Err(GraphError::UnknownVertex { node: e.from.0, node_count: n });
            }
            if e.to.index() >= n {
                return Err(GraphError::UnknownVertex { node: e.to.0, node_count: n });
            }
            if !(e.length_m.is_finite()
                && e.length_m > 0.0
                && e.speed_kmh.is_finite()
                && e.speed_kmh > 0.0)
            {
                return Err(GraphError::InvalidEdgeWeight { from: e.from.0, to: e.to.0 });
            }
        }

        // Forward CSR via counting sort on `from`.
        let mut out_offsets = vec![0u32; n + 1];
        for e in edges {
            out_offsets[e.from.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let m = edges.len();
        let mut out_targets = vec![NodeId(0); m];
        let mut out_costs = vec![0.0f32; m];
        let mut out_lengths = vec![0.0f32; m];
        let mut out_edge_ids = vec![EdgeId(0); m];
        let mut cursor = out_offsets.clone();
        let mut edge_endpoints = Vec::with_capacity(m);
        for (idx, e) in edges.iter().enumerate() {
            let slot = cursor[e.from.index()] as usize;
            cursor[e.from.index()] += 1;
            out_targets[slot] = e.to;
            out_costs[slot] = quantize_cost_s(e.cost_s());
            out_lengths[slot] = e.length_m as f32;
            out_edge_ids[slot] = EdgeId(idx as u32);
            edge_endpoints.push((e.from, e.to));
        }

        // Reverse CSR.
        let mut in_offsets = vec![0u32; n + 1];
        for e in edges {
            in_offsets[e.to.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![NodeId(0); m];
        let mut in_costs = vec![0.0f32; m];
        let mut cursor = in_offsets.clone();
        for e in edges {
            let slot = cursor[e.to.index()] as usize;
            cursor[e.to.index()] += 1;
            in_sources[slot] = e.from;
            in_costs[slot] = quantize_cost_s(e.cost_s());
        }

        let bbox = BoundingBox::of(&points);

        Ok(Self {
            points,
            out_offsets,
            out_targets,
            out_costs,
            out_lengths,
            out_edge_ids,
            in_offsets,
            in_sources,
            in_costs,
            edge_endpoints,
            bbox,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Geographic position of a vertex.
    #[inline]
    pub fn point(&self, node: NodeId) -> GeoPoint {
        self.points[node.index()]
    }

    /// All vertex positions, indexed by [`NodeId`].
    #[inline]
    pub fn points(&self) -> &[GeoPoint] {
        &self.points
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.points.len() as u32).map(NodeId)
    }

    /// Outgoing `(target, cost_s)` pairs of `node`.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        self.out_targets[lo..hi].iter().copied().zip(self.out_costs[lo..hi].iter().copied())
    }

    /// Outgoing `(target, cost_s, length_m, edge_id)` tuples of `node`.
    #[inline]
    pub fn out_edges_full(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (NodeId, f32, f32, EdgeId)> + '_ {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        (lo..hi).map(move |i| {
            (self.out_targets[i], self.out_costs[i], self.out_lengths[i], self.out_edge_ids[i])
        })
    }

    /// Incoming `(source, cost_s)` pairs of `node`.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        let lo = self.in_offsets[node.index()] as usize;
        let hi = self.in_offsets[node.index() + 1] as usize;
        self.in_sources[lo..hi].iter().copied().zip(self.in_costs[lo..hi].iter().copied())
    }

    /// Endpoints `(from, to)` of an edge by id.
    #[inline]
    pub fn edge_endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.edge_endpoints[edge.index()]
    }

    /// Cost in seconds of the cheapest direct edge `from -> to`, if any.
    pub fn direct_edge_cost(&self, from: NodeId, to: NodeId) -> Option<f32> {
        self.out_edges(from).filter(|(t, _)| *t == to).map(|(_, c)| c).min_by(|a, b| a.total_cmp(b))
    }

    /// Bounding box of all vertices.
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Whether the graph is strongly connected (every vertex reaches every
    /// other). Checked with one forward and one backward BFS.
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let reach_fwd = self.bfs_reach(NodeId(0), false);
        let reach_bwd = self.bfs_reach(NodeId(0), true);
        reach_fwd == n && reach_bwd == n
    }

    fn bfs_reach(&self, start: NodeId, backward: bool) -> usize {
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::with_capacity(64);
        seen[start.index()] = true;
        queue.push_back(start);
        let mut count = 1usize;
        while let Some(u) = queue.pop_front() {
            let next: Box<dyn Iterator<Item = NodeId>> = if backward {
                Box::new(self.in_edges(u).map(|(s, _)| s))
            } else {
                Box::new(self.out_edges(u).map(|(t, _)| t))
            };
            for v in next {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count
    }

    /// Order-sensitive FNV-1a fingerprint of the routing-relevant CSR
    /// arrays (topology + quantized costs). Two graphs with the same
    /// digest answer every shortest-path query identically, so derived
    /// artifacts (e.g. a persisted contraction hierarchy) key on it to
    /// detect staleness.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.node_count() as u64);
        h.write_u64(self.edge_count() as u64);
        for &o in &self.out_offsets {
            h.write(&o.to_le_bytes());
        }
        for (t, c) in self.out_targets.iter().zip(&self.out_costs) {
            h.write(&t.0.to_le_bytes());
            h.write(&c.to_bits().to_le_bytes());
        }
        h.digest()
    }

    /// Approximate resident memory of the CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<GeoPoint>()
            + (self.out_offsets.len() + self.in_offsets.len()) * 4
            + self.out_targets.len() * (4 + 4 + 4 + 4)
            + self.in_sources.len() * (4 + 4)
            + self.edge_endpoints.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RoadNetwork {
        // 0 -> 1 -> 2, plus 2 -> 0 closing the cycle.
        let pts = vec![
            GeoPoint::new(30.0, 104.0),
            GeoPoint::new(30.001, 104.0),
            GeoPoint::new(30.002, 104.0),
        ];
        let edges = vec![
            EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 100.0, speed_kmh: 15.0 },
            EdgeSpec { from: NodeId(1), to: NodeId(2), length_m: 100.0, speed_kmh: 15.0 },
            EdgeSpec { from: NodeId(2), to: NodeId(0), length_m: 250.0, speed_kmh: 15.0 },
        ];
        RoadNetwork::new(pts, &edges).unwrap()
    }

    #[test]
    fn csr_adjacency() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let out: Vec<_> = g.out_edges(NodeId(0)).collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(1));
        // 100 m at 15 km/h = 24 s.
        assert!((out[0].1 - 24.0).abs() < 1e-3);
        let inn: Vec<_> = g.in_edges(NodeId(0)).collect();
        assert_eq!(inn.len(), 1);
        assert_eq!(inn[0].0, NodeId(2));
    }

    #[test]
    fn strongly_connected_cycle() {
        assert!(tiny().is_strongly_connected());
    }

    #[test]
    fn not_strongly_connected_without_back_edge() {
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn rejects_unknown_vertex() {
        let pts = vec![GeoPoint::new(30.0, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(5), length_m: 10.0, speed_kmh: 15.0 }];
        assert!(matches!(
            RoadNetwork::new(pts, &edges),
            Err(GraphError::UnknownVertex { node: 5, .. })
        ));
    }

    #[test]
    fn rejects_bad_weight() {
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        for (len, speed) in [(0.0, 15.0), (-3.0, 15.0), (10.0, 0.0), (f64::NAN, 15.0)] {
            let edges =
                vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: len, speed_kmh: speed }];
            assert!(matches!(
                RoadNetwork::new(pts.clone(), &edges),
                Err(GraphError::InvalidEdgeWeight { .. })
            ));
        }
    }

    #[test]
    fn direct_edge_cost_picks_cheapest_parallel_edge() {
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges = vec![
            EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 200.0, speed_kmh: 15.0 },
            EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 100.0, speed_kmh: 15.0 },
        ];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        assert!((g.direct_edge_cost(NodeId(0), NodeId(1)).unwrap() - 24.0).abs() < 1e-3);
        assert_eq!(g.direct_edge_cost(NodeId(1), NodeId(0)), None);
    }

    #[test]
    fn edge_endpoints_by_insertion_order() {
        let g = tiny();
        assert_eq!(g.edge_endpoints(EdgeId(0)), (NodeId(0), NodeId(1)));
        assert_eq!(g.edge_endpoints(EdgeId(2)), (NodeId(2), NodeId(0)));
    }

    #[test]
    fn memory_estimate_positive() {
        assert!(tiny().memory_bytes() > 0);
    }

    #[test]
    fn costs_are_dyadic_and_never_rounded_down() {
        let g = tiny();
        for v in g.nodes() {
            for (_, c) in g.out_edges(v) {
                let steps = c as f64 / COST_QUANTUM_S;
                assert_eq!(steps, steps.round(), "cost {c} is off the dyadic grid");
            }
        }
        // Rounding is upward: a cost strictly between grid points lands on
        // the next one, and exact multiples are unchanged.
        assert_eq!(quantize_cost_s(24.0), 24.0);
        assert!(quantize_cost_s(24.001) as f64 >= 24.001);
        assert_eq!(quantize_cost_s(24.001), 24.015625);
    }

    #[test]
    fn digest_is_stable_and_cost_sensitive() {
        let g = tiny();
        assert_eq!(g.digest(), tiny().digest());
        let pts = vec![
            GeoPoint::new(30.0, 104.0),
            GeoPoint::new(30.001, 104.0),
            GeoPoint::new(30.002, 104.0),
        ];
        let edges = vec![
            EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 100.0, speed_kmh: 15.0 },
            EdgeSpec { from: NodeId(1), to: NodeId(2), length_m: 100.0, speed_kmh: 15.0 },
            EdgeSpec { from: NodeId(2), to: NodeId(0), length_m: 251.0, speed_kmh: 15.0 },
        ];
        let g2 = RoadNetwork::new(pts, &edges).unwrap();
        assert_ne!(g.digest(), g2.digest(), "cost change must change the digest");
    }
}
