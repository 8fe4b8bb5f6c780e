//! Dijkstra restricted to an allowed vertex subset.
//!
//! This is the "segment-level routing" half of the paper's two-phase route
//! planning (Sec. IV-C2): after partition filtering selects a set of map
//! partitions, the shortest path is computed on the subgraph induced by
//! their vertices. Instead of materializing a subgraph we run Dijkstra with
//! a node mask, which costs one extra branch per relaxed edge and zero
//! allocation.
//!
//! One kernel, [`MaskedDijkstra::path_within_budget`], serves Algorithm 4
//! (per-vertex weights `1/ψc` that bias routes towards suitable offline
//! requests, and a budget on the *travel* cost of the result);
//! [`MaskedDijkstra::path_masked`] is its unweighted, unbounded form. It returns a path exactly when the
//! unbounded search's path is within budget, and then that path, vertices
//! and `cost_s` bits. The budget changes no key, relaxation or settle
//! order; it only stops the search once every queued vertex hangs below a
//! tree vertex `a` with `travel(a) + lower(a)` over budget, `lower(a)` a
//! lower bound on the travel cost from `a` to the target: any path still
//! to be found would cost more than the budget.

use crate::path::Path;
use mtshare_road::{NodeId, RoadNetwork};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Epoch-tagged vertex allow-list, reusable across queries.
#[derive(Debug)]
pub struct NodeMask {
    epoch_of: Vec<u32>,
    epoch: u32,
}

impl NodeMask {
    /// Creates a mask sized for `graph` with no vertices allowed.
    pub fn new(graph: &RoadNetwork) -> Self {
        Self { epoch_of: vec![0; graph.node_count()], epoch: 0 }
    }

    /// Clears the mask (O(1) amortized).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.epoch_of.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
    }

    /// Allows `node`.
    #[inline]
    pub fn allow(&mut self, node: NodeId) {
        self.epoch_of[node.index()] = self.epoch;
    }

    /// Whether `node` is allowed.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.epoch_of[node.index()] == self.epoch
    }
}

/// Queue key: cost bits (monotone for a non-negative `f32`, 31 bits), then
/// vertex (32), then the entry's doomed flag. A vertex is queued at most
/// once per cost, so the flag never decides an order.
#[inline]
fn key(cost: f32, node: NodeId, doomed: bool) -> Reverse<u64> {
    debug_assert!(cost.to_bits() <= f32::INFINITY.to_bits(), "negative or NaN cost {cost}");
    Reverse((cost.to_bits() as u64) << 33 | (node.0 as u64) << 1 | doomed as u64)
}

/// Reusable Dijkstra over a masked subgraph with vertex weights and a budget.
#[derive(Debug)]
pub struct MaskedDijkstra {
    /// Vertices labelled by the current search; the rest are at `∞`.
    seen: NodeMask,
    dist: Vec<f32>,
    /// Pure travel cost of the tree path (vertex weights excluded).
    travel: Vec<f64>,
    parent: Vec<NodeId>,
    heap: BinaryHeap<Reverse<u64>>,
}

impl MaskedDijkstra {
    /// Creates an engine sized for `graph`.
    pub fn new(graph: &RoadNetwork) -> Self {
        let n = graph.node_count();
        Self {
            seen: NodeMask::new(graph),
            dist: vec![f32::INFINITY; n],
            travel: vec![0.0; n],
            parent: vec![NodeId(u32::MAX); n],
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn dist_of(&self, node: NodeId) -> f32 {
        if self.seen.contains(node) {
            self.dist[node.index()]
        } else {
            f32::INFINITY
        }
    }

    /// Shortest path from `source` to `target` visiting only vertices
    /// allowed by `mask`. Both endpoints must be allowed.
    pub fn path_masked(
        &mut self,
        graph: &RoadNetwork,
        source: NodeId,
        target: NodeId,
        mask: &NodeMask,
    ) -> Option<Path> {
        self.path_within_budget(graph, source, target, mask, |_| 0.0, |_| 0.0, f64::INFINITY)
    }

    /// [`Self::path_masked`] where entering vertex `v` additionally costs
    /// `weight(v)`, returned only if its travel cost is at most `budget_s`
    /// (`+ 1e-6`). The reported `cost_s` is the *pure travel cost*: weights
    /// steer the search but do not count toward the deadline checks
    /// (Algorithm 4 step 3). `lower(v)` must not exceed the travel cost of
    /// any path `v -> target`; it lets the search give up early (module
    /// docs) and never changes what is returned.
    #[allow(clippy::too_many_arguments)]
    pub fn path_within_budget(
        &mut self,
        graph: &RoadNetwork,
        source: NodeId,
        target: NodeId,
        mask: &NodeMask,
        mut weight: impl FnMut(NodeId) -> f32,
        lower: impl Fn(NodeId) -> f32,
        budget_s: f64,
    ) -> Option<Path> {
        if !mask.contains(source) || !mask.contains(target) {
            return None;
        }
        if source == target {
            return Some(Path::trivial(source));
        }
        let limit = budget_s + 1e-6;
        let over = |travel: f64, v: NodeId| travel + lower(v) as f64 > limit;
        self.seen.clear();
        self.heap.clear();
        self.seen.allow(source);
        (self.dist[source.index()], self.travel[source.index()]) = (0.0, 0.0);
        self.parent[source.index()] = source;
        let doomed = over(0.0, source);
        self.heap.push(key(0.0, source, doomed));
        // Queued entries not doomed; stale ones count until popped.
        let mut hopeful = usize::from(!doomed);
        while hopeful > 0 {
            let Reverse(k) = self.heap.pop()?;
            let (cost, node) = (f32::from_bits((k >> 33) as u32), NodeId((k >> 1) as u32));
            let doomed = k & 1 == 1;
            hopeful -= usize::from(!doomed);
            if cost > self.dist_of(node) {
                continue;
            }
            if node == target {
                return (!doomed).then(|| self.unwind(source, target));
            }
            // A doomed vertex is still relaxed: without it another path could
            // reach the target and pass where the unbounded search's fails.
            for (next, w) in graph.out_edges(node) {
                if !mask.contains(next) {
                    continue;
                }
                let nc = cost + w + weight(next).max(0.0);
                if nc < self.dist_of(next) {
                    // Of parallel arcs the cheapest's relaxation sticks (costs
                    // differ by quanta), so this sums `direct_edge_cost`s.
                    let travel = self.travel[node.index()] + w as f64;
                    let doomed = doomed || over(travel, next);
                    self.seen.allow(next);
                    (self.dist[next.index()], self.travel[next.index()]) = (nc, travel);
                    self.parent[next.index()] = node;
                    self.heap.push(key(nc, next, doomed));
                    hopeful += usize::from(!doomed);
                }
            }
        }
        None
    }

    fn unwind(&self, source: NodeId, target: NodeId) -> Path {
        let mut nodes = vec![target];
        let mut cur = target;
        while cur != source {
            cur = self.parent[cur.index()];
            nodes.push(cur);
        }
        nodes.reverse();
        Path { nodes, cost_s: self.travel[target.index()] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::{Dijkstra, HeapEntry};
    use crate::oracle::HotNodeOracle;
    use crate::sweep::{quanta, Region, Sweep};
    use mtshare_road::{grid_city, ring_radial_city, GridCityConfig, RingRadialConfig};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    /// The weighted masked search as it stood before the budget cut — no
    /// travel labels, no flags, the travel cost re-summed along the walk.
    /// Oracle of `budgeted_search_is_the_unbounded_search_or_nothing`.
    fn unbounded_oracle(
        graph: &RoadNetwork,
        source: NodeId,
        target: NodeId,
        mask: &NodeMask,
        vertex_weight: impl Fn(NodeId) -> f32,
    ) -> Option<Path> {
        if !mask.contains(source) || !mask.contains(target) {
            return None;
        }
        if source == target {
            return Some(Path::trivial(source));
        }
        let mut dist = vec![f32::INFINITY; graph.node_count()];
        let mut parent = vec![NodeId(u32::MAX); graph.node_count()];
        let mut heap = BinaryHeap::new();
        dist[source.index()] = 0.0;
        heap.push(Reverse(HeapEntry { cost: 0.0, node: source }));
        while let Some(Reverse(HeapEntry { cost, node })) = heap.pop() {
            if cost > dist[node.index()] {
                continue;
            }
            if node == target {
                break;
            }
            for (next, w) in graph.out_edges(node) {
                if !mask.contains(next) {
                    continue;
                }
                let nc = cost + w + vertex_weight(next).max(0.0);
                if nc < dist[next.index()] {
                    dist[next.index()] = nc;
                    parent[next.index()] = node;
                    heap.push(Reverse(HeapEntry { cost: nc, node: next }));
                }
            }
        }
        if dist[target.index()].is_infinite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut cur = target;
        while cur != source {
            cur = parent[cur.index()];
            nodes.push(cur);
        }
        nodes.reverse();
        let mut travel = 0.0f64;
        for w in nodes.windows(2) {
            travel += graph.direct_edge_cost(w[0], w[1]).unwrap() as f64;
        }
        Some(Path { nodes, cost_s: travel })
    }

    fn full_mask(g: &RoadNetwork) -> NodeMask {
        let mut m = NodeMask::new(g);
        m.clear();
        for n in g.nodes() {
            m.allow(n);
        }
        m
    }

    #[test]
    fn full_mask_matches_dijkstra() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let mask = full_mask(&g);
        let mut md = MaskedDijkstra::new(&g);
        let mut d = Dijkstra::new(&g);
        for (s, t) in [(0u32, 399u32), (20, 380), (111, 7)] {
            let got = md.path_masked(&g, NodeId(s), NodeId(t), &mask).unwrap();
            let want = d.cost(&g, NodeId(s), NodeId(t)).unwrap();
            assert!((got.cost_s - want).abs() < 1e-2);
        }
    }

    #[test]
    fn restricted_mask_blocks_or_detours() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        // Allow only the first two rows (40 nodes of the 20x20 grid).
        let mut mask = NodeMask::new(&g);
        mask.clear();
        for i in 0..40u32 {
            mask.allow(NodeId(i));
        }
        let mut md = MaskedDijkstra::new(&g);
        // Path within the allowed strip must exist and only touch it.
        let p = md.path_masked(&g, NodeId(0), NodeId(39), &mask).unwrap();
        assert!(p.nodes.iter().all(|n| n.0 < 40));
        // Target outside the mask: no path.
        assert!(md.path_masked(&g, NodeId(0), NodeId(399), &mask).is_none());
    }

    #[test]
    fn masked_cost_is_at_least_unmasked() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let mut mask = NodeMask::new(&g);
        mask.clear();
        // Allow a thin L-shaped corridor from 0 to 399.
        for c in 0..20u32 {
            mask.allow(NodeId(c)); // row 0
            mask.allow(NodeId(19 + 20 * c)); // column 19
        }
        let mut md = MaskedDijkstra::new(&g);
        let mut d = Dijkstra::new(&g);
        if let Some(p) = md.path_masked(&g, NodeId(0), NodeId(399), &mask) {
            let free = d.cost(&g, NodeId(0), NodeId(399)).unwrap();
            assert!(p.cost_s >= free - 1e-2);
        }
    }

    #[test]
    fn vertex_weights_steer_but_do_not_count() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let mask = full_mask(&g);
        let mut md = MaskedDijkstra::new(&g);
        // Penalize the direct row so the path prefers another corridor.
        let weight = |n: NodeId| if n.0 < 20 { 1000.0 } else { 0.0 };
        let p = md
            .path_within_budget(&g, NodeId(0), NodeId(19), &mask, weight, |_| 0.0, f64::INFINITY)
            .unwrap();
        // Travel cost reported must equal the actual walk cost.
        let mut total = 0.0f64;
        for w in p.nodes.windows(2) {
            total += g.direct_edge_cost(w[0], w[1]).unwrap() as f64;
        }
        assert!((total - p.cost_s).abs() < 1e-2);
        // The weighted search should leave row 0 at some point.
        assert!(p.nodes.iter().any(|n| n.0 >= 20));
    }

    #[test]
    fn endpoints_must_be_allowed() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let mut mask = NodeMask::new(&g);
        mask.clear();
        mask.allow(NodeId(0));
        let mut md = MaskedDijkstra::new(&g);
        assert!(md.path_masked(&g, NodeId(0), NodeId(1), &mask).is_none());
        assert!(md.path_masked(&g, NodeId(1), NodeId(0), &mask).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random grid / ring-radial cities, random masks (dense ones, and
        /// sparse ones that cut the endpoints apart), random positive
        /// weights, budgets from exactly the weighted route's travel cost
        /// to 3× it and just below it, the bound an exact backward vector,
        /// a bounded pin's floor, an elliptic pin's bound or zero: the kernel answers iff the unbounded search
        /// finds a route within budget, and then with that route's vertices
        /// and cost bits. Zero weights without a budget are Alg. 3's arm.
        #[test]
        fn budgeted_search_is_the_unbounded_search_or_nothing(seed in 0u64..1_000_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = if rng.gen_bool(0.5) {
                let side = rng.gen_range(6..=14);
                grid_city(&GridCityConfig { rows: side, cols: side, seed, ..GridCityConfig::default() })
            } else {
                let (rings, spokes) = (rng.gen_range(3..=8), rng.gen_range(5..=16));
                ring_radial_city(&RingRadialConfig { rings, spokes, seed, ..RingRadialConfig::default() })
            }
            .map(Arc::new)
            .unwrap();
            let n = g.node_count() as u32;
            let weights: Vec<f32> = (0..n).map(|_| rng.gen_range(0.01f32..40.0)).collect();
            let weight = |v: NodeId| weights[v.index()];
            let mut md = MaskedDijkstra::new(&g);
            let mut mask = NodeMask::new(&g);
            let mut exact = Vec::new();
            for _ in 0..6 {
                let (s, t) = (NodeId(rng.gen_range(0..n)), NodeId(rng.gen_range(0..n)));
                if s == t {
                    continue; // the trivial path, whatever the budget
                }
                let keep = rng.gen_range(0.35..1.0);
                mask.clear();
                mask.allow(s);
                mask.allow(t);
                g.nodes().filter(|_| rng.gen_bool(keep)).for_each(|v| mask.allow(v));
                let want = unbounded_oracle(&g, s, t, &mask, weight);
                let plain = unbounded_oracle(&g, s, t, &mask, |_| 0.0);
                prop_assert_eq!(md.path_masked(&g, s, t, &mask), plain);
                Sweep::backward(&g).run(t, &mut exact);
                let at = want.as_ref().map_or(100.0, |p| p.cost_s);
                // A pin swept part of the way: exact near `t`, its floor past it.
                let radius = exact[s.index()].min(at as f32) * rng.gen_range(0.0f32..1.5);
                let mut bounded = Region::rooted(n as usize, t);
                Sweep::backward(&g).grow(&mut bounded, quanta(radius), |_, _| true, |_, _| true);
                // A dispatch-held destination: the ellipse about a random origin.
                let elliptic = HotNodeOracle::new(g.clone());
                elliptic.pin_toward(t, NodeId(rng.gen_range(0..n)), radius * 2.0);
                let view: Vec<f32> =
                    elliptic.with_vector(t, |d| g.nodes().map(|v| d.unwrap().lower(v)).collect());
                let exact = |v: NodeId| exact[v.index()];
                let bounds: [&dyn Fn(NodeId) -> f32; 4] =
                    [&exact, &|v| bounded.floor(v), &|v| view[v.index()], &|_| 0.0];
                for budget in [at, at * rng.gen_range(1.0..3.0), at - 0.01, at * 0.7, f64::INFINITY] {
                    let fits = want.clone().filter(|p| p.cost_s <= budget + 1e-6);
                    for lower in bounds {
                        let got = md.path_within_budget(&g, s, t, &mask, weight, lower, budget);
                        prop_assert_eq!(
                            got.as_ref().map(|p| (&p.nodes, p.cost_s.to_bits())),
                            fits.as_ref().map(|p| (&p.nodes, p.cost_s.to_bits())),
                            "{}->{} budget {} (route costs {}), bound {:?}",
                            s, t, budget, at, lower(s)
                        );
                    }
                }
            }
        }
    }
}
