//! Dijkstra's algorithm (the paper's routing workhorse, its ref. \[14\]) with reusable
//! search state. The dispatch loop no longer runs it (point queries go to
//! [`crate::BidirDijkstra`] or a hierarchy, one-to-all vectors to
//! [`crate::Sweep`]): [`Dijkstra::cost`] / [`Dijkstra::path`] and
//! [`bellman_ford_cost`] are what every other engine's tests compare against.
//!
//! The engine keeps its distance/parent arrays between queries and clears
//! them lazily via an epoch counter, so a query allocates nothing after the
//! first call.

use crate::path::Path;
use mtshare_road::{NodeId, RoadNetwork};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `(cost, node)` packed so that one integer compare orders by cost, then
/// node id: the bit pattern of a non-negative, non-NaN `f32` (`+0.0` and
/// `+∞` included) is monotone in its value.
#[inline]
fn pack(cost: f32, node: NodeId) -> u64 {
    debug_assert!(cost.to_bits() <= f32::INFINITY.to_bits(), "negative or NaN cost {cost}");
    (cost.to_bits() as u64) << 32 | node.0 as u64
}

/// Heap entry ordered by cost (min-heap via `Reverse`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HeapEntry {
    pub cost: f32,
    pub node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        pack(self.cost, self.node).cmp(&pack(other.cost, other.node))
    }
}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable single-source shortest-path engine.
#[derive(Debug)]
pub struct Dijkstra {
    dist: Vec<f32>,
    parent: Vec<NodeId>,
    epoch_of: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl Dijkstra {
    /// Creates an engine sized for `graph`.
    pub fn new(graph: &RoadNetwork) -> Self {
        let n = graph.node_count();
        Self {
            dist: vec![f32::INFINITY; n],
            parent: vec![NodeId(u32::MAX); n],
            epoch_of: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: hard-reset so stale marks cannot alias.
            self.epoch_of.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn settle(&mut self, node: NodeId, cost: f32, parent: NodeId) -> bool {
        let i = node.index();
        if self.epoch_of[i] == self.epoch && self.dist[i] <= cost {
            return false;
        }
        self.epoch_of[i] = self.epoch;
        self.dist[i] = cost;
        self.parent[i] = parent;
        true
    }

    #[inline]
    fn dist_of(&self, node: NodeId) -> f32 {
        if self.epoch_of[node.index()] == self.epoch {
            self.dist[node.index()]
        } else {
            f32::INFINITY
        }
    }

    /// Cost in seconds of the shortest path `source -> target`, or `None`
    /// when unreachable. Terminates as soon as `target` is settled.
    pub fn cost(&mut self, graph: &RoadNetwork, source: NodeId, target: NodeId) -> Option<f64> {
        if source == target {
            return Some(0.0);
        }
        self.begin();
        self.settle(source, 0.0, source);
        self.heap.push(Reverse(HeapEntry { cost: 0.0, node: source }));
        while let Some(Reverse(HeapEntry { cost, node })) = self.heap.pop() {
            if cost > self.dist_of(node) {
                continue;
            }
            if node == target {
                return Some(cost as f64);
            }
            for (next, w) in graph.out_edges(node) {
                let nc = cost + w;
                if self.settle(next, nc, node) {
                    self.heap.push(Reverse(HeapEntry { cost: nc, node: next }));
                }
            }
        }
        None
    }

    /// Shortest path with its vertex sequence, or `None` when unreachable.
    pub fn path(&mut self, graph: &RoadNetwork, source: NodeId, target: NodeId) -> Option<Path> {
        let cost = self.cost(graph, source, target)?;
        Some(Path { nodes: self.unwind(source, target), cost_s: cost })
    }

    fn unwind(&self, source: NodeId, target: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![target];
        let mut cur = target;
        while cur != source {
            cur = self.parent[cur.index()];
            nodes.push(cur);
        }
        nodes.reverse();
        nodes
    }
}

/// Reference Bellman-Ford used only as a property-test oracle.
pub fn bellman_ford_cost(graph: &RoadNetwork, source: NodeId, target: NodeId) -> Option<f64> {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for u in graph.nodes() {
            let du = dist[u.index()];
            if !du.is_finite() {
                continue;
            }
            for (v, w) in graph.out_edges(u) {
                let cand = du + w as f64;
                if cand < dist[v.index()] {
                    dist[v.index()] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist[target.index()].is_finite().then_some(dist[target.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig};

    fn city() -> RoadNetwork {
        grid_city(&GridCityConfig::tiny()).unwrap()
    }

    #[test]
    fn packed_heap_order_is_cost_then_node_id() {
        let costs = [0.0f32, 1.0 / 64.0, 0.5, 1.0, 1.5, 1e-30, 262_144.0, f32::MAX, f32::INFINITY];
        let entries: Vec<HeapEntry> = costs
            .iter()
            .flat_map(|&cost| [0, 1, 7, u32::MAX].map(|id| HeapEntry { cost, node: NodeId(id) }))
            .collect();
        for x in &entries {
            for y in &entries {
                let old = x.cost.total_cmp(&y.cost).then_with(|| x.node.0.cmp(&y.node.0));
                assert_eq!(x.cmp(y), old, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn zero_cost_to_self() {
        let g = city();
        let mut d = Dijkstra::new(&g);
        assert_eq!(d.cost(&g, NodeId(5), NodeId(5)), Some(0.0));
    }

    #[test]
    fn cost_matches_bellman_ford() {
        let g = city();
        let mut d = Dijkstra::new(&g);
        for (s, t) in [(0u32, 399u32), (17, 230), (399, 0), (55, 56)] {
            let got = d.cost(&g, NodeId(s), NodeId(t)).unwrap();
            let want = bellman_ford_cost(&g, NodeId(s), NodeId(t)).unwrap();
            assert!((got - want).abs() < 1e-2, "{s}->{t}: got {got}, want {want}");
        }
    }

    #[test]
    fn path_is_a_valid_walk_with_matching_cost() {
        let g = city();
        let mut d = Dijkstra::new(&g);
        let p = d.path(&g, NodeId(0), NodeId(399)).unwrap();
        assert_eq!(p.start(), NodeId(0));
        assert_eq!(p.end(), NodeId(399));
        let mut total = 0.0f64;
        for w in p.nodes.windows(2) {
            let c = g.direct_edge_cost(w[0], w[1]).expect("consecutive nodes must be adjacent");
            total += c as f64;
        }
        assert!((total - p.cost_s).abs() < 1e-2);
    }

    #[test]
    fn engine_is_reusable_across_queries() {
        let g = city();
        let mut d = Dijkstra::new(&g);
        let a1 = d.cost(&g, NodeId(0), NodeId(399)).unwrap();
        let _ = d.cost(&g, NodeId(399), NodeId(0)).unwrap();
        let a2 = d.cost(&g, NodeId(0), NodeId(399)).unwrap();
        assert_eq!(a1, a2);
    }

    #[test]
    fn unreachable_returns_none() {
        use mtshare_road::{EdgeSpec, GeoPoint};
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        let mut d = Dijkstra::new(&g);
        assert_eq!(d.cost(&g, NodeId(1), NodeId(0)), None);
        assert!(d.path(&g, NodeId(1), NodeId(0)).is_none());
    }
}
