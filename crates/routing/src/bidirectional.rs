//! Bidirectional Dijkstra — the default cost engine behind the shared
//! [`PathCache`](crate::cache::PathCache). It answers costs only: routes
//! are walked down a backward sweep ([`crate::PathCache::path`]).
//!
//! Explores forward from the source and backward (over the reverse star)
//! from the target, stopping when the two frontiers prove optimality. On
//! city grids this settles roughly half the vertices plain Dijkstra does.

use crate::dijkstra::HeapEntry;
use mtshare_road::{NodeId, RoadNetwork};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable bidirectional point-to-point engine.
#[derive(Debug)]
pub struct BidirDijkstra {
    dist_f: Vec<f32>,
    dist_b: Vec<f32>,
    epoch_of_f: Vec<u32>,
    epoch_of_b: Vec<u32>,
    epoch: u32,
    heap_f: BinaryHeap<Reverse<HeapEntry>>,
    heap_b: BinaryHeap<Reverse<HeapEntry>>,
}

impl BidirDijkstra {
    /// Creates an engine sized for `graph`.
    pub fn new(graph: &RoadNetwork) -> Self {
        let n = graph.node_count();
        Self {
            dist_f: vec![f32::INFINITY; n],
            dist_b: vec![f32::INFINITY; n],
            epoch_of_f: vec![0; n],
            epoch_of_b: vec![0; n],
            epoch: 0,
            heap_f: BinaryHeap::new(),
            heap_b: BinaryHeap::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.epoch_of_f.iter_mut().for_each(|e| *e = 0);
            self.epoch_of_b.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
        self.heap_f.clear();
        self.heap_b.clear();
    }

    #[inline]
    fn dist(&self, forward: bool, node: NodeId) -> f32 {
        let (epochs, dist) = if forward {
            (&self.epoch_of_f, &self.dist_f)
        } else {
            (&self.epoch_of_b, &self.dist_b)
        };
        if epochs[node.index()] == self.epoch {
            dist[node.index()]
        } else {
            f32::INFINITY
        }
    }

    #[inline]
    fn settle(&mut self, forward: bool, node: NodeId, cost: f32) -> bool {
        let epoch = self.epoch;
        let (epochs, dist) = if forward {
            (&mut self.epoch_of_f, &mut self.dist_f)
        } else {
            (&mut self.epoch_of_b, &mut self.dist_b)
        };
        let i = node.index();
        if epochs[i] == epoch && dist[i] <= cost {
            return false;
        }
        epochs[i] = epoch;
        dist[i] = cost;
        true
    }

    /// Cost of the shortest `source -> target` path, or `None`.
    pub fn cost(&mut self, graph: &RoadNetwork, source: NodeId, target: NodeId) -> Option<f64> {
        if source == target {
            return Some(0.0);
        }
        self.begin();
        self.settle(true, source, 0.0);
        self.settle(false, target, 0.0);
        self.heap_f.push(Reverse(HeapEntry { cost: 0.0, node: source }));
        self.heap_b.push(Reverse(HeapEntry { cost: 0.0, node: target }));

        let mut best = f32::INFINITY;

        loop {
            let top_f = self.heap_f.peek().map(|Reverse(e)| e.cost).unwrap_or(f32::INFINITY);
            let top_b = self.heap_b.peek().map(|Reverse(e)| e.cost).unwrap_or(f32::INFINITY);
            if top_f + top_b >= best || (top_f == f32::INFINITY && top_b == f32::INFINITY) {
                break;
            }
            let forward = top_f <= top_b;
            let Some(Reverse(HeapEntry { cost, node })) =
                (if forward { self.heap_f.pop() } else { self.heap_b.pop() })
            else {
                break;
            };
            if cost > self.dist(forward, node) {
                continue;
            }
            // Relax.
            if forward {
                for (next, w) in graph.out_edges(node) {
                    let nc = cost + w;
                    if self.settle(true, next, nc) {
                        self.heap_f.push(Reverse(HeapEntry { cost: nc, node: next }));
                        best = best.min(nc + self.dist(false, next));
                    }
                }
            } else {
                for (prev, w) in graph.in_edges(node) {
                    let nc = cost + w;
                    if self.settle(false, prev, nc) {
                        self.heap_b.push(Reverse(HeapEntry { cost: nc, node: prev }));
                        best = best.min(nc + self.dist(true, prev));
                    }
                }
            }
        }
        best.is_finite().then_some(best as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::Dijkstra;
    use mtshare_road::{grid_city, GridCityConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    #[test]
    fn matches_unidirectional_on_random_pairs() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let mut uni = Dijkstra::new(&g);
        let mut bi = BidirDijkstra::new(&g);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..60 {
            let s = NodeId(rng.gen_range(0..g.node_count() as u32));
            let t = NodeId(rng.gen_range(0..g.node_count() as u32));
            let a = uni.cost(&g, s, t).unwrap();
            let b = bi.cost(&g, s, t).unwrap();
            assert!((a - b).abs() < 1e-2, "{s}->{t}: uni {a}, bi {b}");
        }
    }

    #[test]
    fn self_cost_is_zero() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let mut bi = BidirDijkstra::new(&g);
        assert_eq!(bi.cost(&g, NodeId(9), NodeId(9)), Some(0.0));
    }

    #[test]
    fn unreachable_is_none() {
        use mtshare_road::{EdgeSpec, GeoPoint, RoadNetwork};
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        let mut bi = BidirDijkstra::new(&g);
        assert_eq!(bi.cost(&g, NodeId(1), NodeId(0)), None);
    }
}
