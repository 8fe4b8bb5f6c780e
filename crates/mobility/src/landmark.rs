//! The landmark graph `G_ℓ` (Def. 8) built over a map partitioning.
//!
//! Vertices are partition landmarks; two landmarks are connected when their
//! partitions are adjacent (some road edge crosses between them). Exact
//! landmark↔landmark and landmark↔vertex travel costs come from a dense
//! [`CostMatrix`], which is what lets partition filtering (Alg. 2) estimate
//! shortest-path lengths without touching the full graph.
//!
//! A partition need not be connected — its induced subgraph falls into
//! *pieces* — so adjacent partitions do not make a corridor:
//! [`LandmarkGraph::connects`] answers from the piece graph whether a set
//! of partitions can carry a leg at all.

use crate::partition::{MapPartitioning, PartitionId};
use mtshare_road::{NodeId, RoadNetwork};
use mtshare_routing::CostMatrix;

/// Landmark graph with precomputed cost tables.
#[derive(Debug, Clone)]
pub struct LandmarkGraph {
    adjacency: Vec<Vec<PartitionId>>,
    costs: CostMatrix,
    landmark_of: Vec<NodeId>,
    /// Matrix row of each partition's landmark. [`CostMatrix::compute`]
    /// collapses duplicate sources to one row, so when two partitions
    /// share a landmark vertex they share a row.
    row_of: Vec<u32>,
    /// Piece of each vertex: its component in its partition's induced
    /// subgraph, arcs taken both ways.
    piece_of: Vec<u32>,
    piece_partition: Vec<PartitionId>,
    /// Pieces joined to each piece by an arc, either way.
    piece_adj: Vec<Vec<u32>>,
}

impl LandmarkGraph {
    /// Builds the landmark graph for `partitioning` over `graph`.
    pub fn build(graph: &RoadNetwork, partitioning: &MapPartitioning) -> Self {
        let mut piece_of = vec![u32::MAX; graph.node_count()];
        let mut piece_partition = Vec::new();
        let mut stack = Vec::new();
        for s in graph.nodes() {
            if piece_of[s.index()] != u32::MAX {
                continue;
            }
            let p = partitioning.partition_of(s);
            piece_of[s.index()] = piece_partition.len() as u32;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for (v, _) in graph.out_edges(u).chain(graph.in_edges(u)) {
                    if piece_of[v.index()] == u32::MAX && partitioning.partition_of(v) == p {
                        piece_of[v.index()] = piece_partition.len() as u32;
                        stack.push(v);
                    }
                }
            }
            piece_partition.push(p);
        }
        let mut piece_adj = vec![Vec::new(); piece_partition.len()];
        for u in graph.nodes() {
            for (v, _) in graph.out_edges(u) {
                let (a, b) = (piece_of[u.index()], piece_of[v.index()]);
                if piece_partition[a as usize] != piece_partition[b as usize] {
                    piece_adj[a as usize].push(b);
                    piece_adj[b as usize].push(a);
                }
            }
        }
        let mut adjacency = vec![Vec::new(); partitioning.len()];
        for (a, adj) in piece_adj.iter_mut().enumerate() {
            adj.sort_unstable();
            adj.dedup();
            let partitions = adj.iter().map(|&b| piece_partition[b as usize]);
            adjacency[piece_partition[a].index()].extend(partitions);
        }
        for adj in &mut adjacency {
            adj.sort();
            adj.dedup();
        }
        let landmark_of = partitioning.landmarks().to_vec();
        let costs = CostMatrix::compute(graph, &landmark_of);
        let row_of = landmark_of
            .iter()
            .map(|&s| costs.source_index(s).expect("every landmark has a row") as u32)
            .collect();
        Self { adjacency, costs, landmark_of, row_of, piece_of, piece_partition, piece_adj }
    }

    /// Whether some chain of arcs, taken in either direction, leads from
    /// `from` to `to` through vertices of the `allowed` partitions only.
    /// Necessary for a directed path inside them — `false` means a search
    /// masked to `allowed` finds nothing — and sufficient on a two-way city.
    pub fn connects(&self, from: NodeId, to: NodeId, allowed: &[PartitionId]) -> bool {
        let (src, dst) = (self.piece_of[from.index()], self.piece_of[to.index()]);
        let open = |piece: u32| allowed.contains(&self.piece_partition[piece as usize]);
        if !open(src) || !open(dst) {
            return false;
        }
        let mut seen = vec![false; self.piece_partition.len()];
        seen[src as usize] = true;
        let mut stack = vec![src];
        while let Some(p) = stack.pop() {
            if p == dst {
                return true;
            }
            for &q in &self.piece_adj[p as usize] {
                if !std::mem::replace(&mut seen[q as usize], true) && open(q) {
                    stack.push(q);
                }
            }
        }
        false
    }

    /// Number of partitions / landmarks.
    #[inline]
    pub fn len(&self) -> usize {
        self.landmark_of.len()
    }

    /// Whether the landmark graph is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.landmark_of.is_empty()
    }

    /// Partitions adjacent to `p`.
    #[inline]
    pub fn neighbors(&self, p: PartitionId) -> &[PartitionId] {
        &self.adjacency[p.index()]
    }

    /// Landmark vertex of partition `p`.
    #[inline]
    pub fn landmark(&self, p: PartitionId) -> NodeId {
        self.landmark_of[p.index()]
    }

    /// Travel cost between the landmarks of two partitions, seconds.
    #[inline]
    pub fn cost_between(&self, from: PartitionId, to: PartitionId) -> f32 {
        self.costs.cost_from_idx(self.row_of[from.index()] as usize, self.landmark_of[to.index()])
    }

    /// Travel cost from any vertex to partition `p`'s landmark.
    #[inline]
    pub fn cost_to_landmark(&self, v: NodeId, p: PartitionId) -> f32 {
        self.costs.cost_to_idx(v, self.row_of[p.index()] as usize)
    }

    /// Approximate resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.adjacency.iter().map(|a| a.len() * 2).sum::<usize>()
            + self.costs.memory_bytes()
            + self.landmark_of.len() * 8
            + (self.piece_of.len() + self.piece_adj.iter().map(Vec::len).sum::<usize>()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_partition::grid_partition;
    use mtshare_road::{grid_city, EdgeSpec, GeoPoint, GridCityConfig};
    use mtshare_routing::{Dijkstra, MaskedDijkstra, NodeMask};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn setup() -> (RoadNetwork, MapPartitioning, LandmarkGraph) {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let p = grid_partition(&g, 16);
        let lg = LandmarkGraph::build(&g, &p);
        (g, p, lg)
    }

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let (_, p, lg) = setup();
        for q in p.partitions() {
            for &r in lg.neighbors(q) {
                assert_ne!(q, r);
                assert!(lg.neighbors(r).contains(&q), "{q} -> {r} not symmetric");
            }
        }
    }

    #[test]
    fn grid_partitions_have_neighbors() {
        let (_, p, lg) = setup();
        assert!(!lg.is_empty());
        assert_eq!(lg.len(), p.len());
        for q in p.partitions() {
            assert!(!lg.neighbors(q).is_empty(), "{q} isolated");
        }
    }

    #[test]
    fn landmark_costs_are_exact() {
        let (g, p, lg) = setup();
        let mut d = Dijkstra::new(&g);
        let parts: Vec<_> = p.partitions().collect();
        for &a in parts.iter().take(4) {
            for &b in parts.iter().rev().take(4) {
                let want = d.cost(&g, lg.landmark(a), lg.landmark(b)).unwrap();
                assert!((lg.cost_between(a, b) as f64 - want).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn vertex_to_landmark_costs_are_exact() {
        let (g, p, lg) = setup();
        let mut d = Dijkstra::new(&g);
        let q = p.partitions().next().unwrap();
        for v in [NodeId(3), NodeId(250), NodeId(399)] {
            let want_to = d.cost(&g, v, lg.landmark(q)).unwrap();
            assert!((lg.cost_to_landmark(v, q) as f64 - want_to).abs() < 1e-2);
        }
    }

    #[test]
    fn memory_positive() {
        let (_, _, lg) = setup();
        assert!(lg.memory_bytes() > 0);
    }

    /// Whether a search masked to the `allowed` partitions finds a route.
    fn search_finds(
        g: &RoadNetwork,
        p: &MapPartitioning,
        (from, to): (NodeId, NodeId),
        allowed: &[PartitionId],
    ) -> bool {
        let mut mask = NodeMask::new(g);
        mask.clear();
        allowed.iter().flat_map(|&q| p.members(q)).for_each(|&v| mask.allow(v));
        MaskedDijkstra::new(g).path_masked(g, from, to, &mask).is_some()
    }

    /// A 1×`labels.len()` street, two-way unless `one_way`, vertex `i` in
    /// partition `labels[i]`.
    fn street(labels: &[u16], one_way: bool) -> (RoadNetwork, MapPartitioning, LandmarkGraph) {
        let n = labels.len() as u32;
        let points = (0..n).map(|i| GeoPoint::new(30.0, 104.0 + 0.001 * f64::from(i))).collect();
        let mut edges = Vec::new();
        for i in 1..n {
            let arc = |from, to| EdgeSpec { from, to, length_m: 100.0, speed_kmh: 36.0 };
            edges.push(arc(NodeId(i - 1), NodeId(i)));
            if !one_way {
                edges.push(arc(NodeId(i), NodeId(i - 1)));
            }
        }
        let g = RoadNetwork::new(points, &edges).unwrap();
        let p = MapPartitioning::from_assignment(&g, labels.to_vec());
        let lg = LandmarkGraph::build(&g, &p);
        (g, p, lg)
    }

    /// The regression the pieces exist for: partition 0 is `{0, 1}` and
    /// `{5}`, partition 1 is `{2, 3, 4}` — adjacent partitions, but from
    /// vertex 0 only the near piece of partition 0 is inside `{0}`, and the
    /// far piece is reached through partition 1 alone.
    #[test]
    fn far_piece_of_a_partition_needs_the_partition_between() {
        let (g, p, lg) = street(&[0, 0, 1, 1, 1, 0, 2], false);
        assert_eq!(lg.piece_partition, [0, 1, 0, 2].map(PartitionId));
        assert_eq!(lg.neighbors(PartitionId(0)), [PartitionId(1), PartitionId(2)]);
        let (p0, p1, p2) = (PartitionId(0), PartitionId(1), PartitionId(2));
        for (pair, allowed, want) in [
            ((0, 1), &[p0][..], true),
            ((0, 5), &[p0], false),
            ((0, 5), &[p0, p2], false),
            ((0, 5), &[p0, p1], true),
            ((0, 6), &[p0, p2], false),
            ((0, 6), &[p2, p1, p0], true),
            ((2, 4), &[p0, p2], false), // endpoints outside the set
        ] {
            let pair = (NodeId(pair.0), NodeId(pair.1));
            assert_eq!(lg.connects(pair.0, pair.1, allowed), want, "{pair:?} in {allowed:?}");
            assert_eq!(search_finds(&g, &p, pair, allowed), want, "{pair:?} in {allowed:?}");
        }
    }

    /// Pieces ignore arc direction, so on one-way arcs `connects` is only
    /// necessary: it may say yes where no directed route exists, never no
    /// where one does.
    #[test]
    fn one_way_arcs_make_connects_necessary_not_sufficient() {
        let (g, p, lg) = street(&[0, 0, 1, 1, 0], true);
        let all = [PartitionId(0), PartitionId(1)];
        for (from, to) in [(0u32, 4u32), (4, 0), (1, 3), (3, 1), (0, 1), (4, 3)] {
            let pair = (NodeId(from), NodeId(to));
            for allowed in [&all[..], &all[..1], &all[1..]] {
                let found = search_finds(&g, &p, pair, allowed);
                assert!(lg.connects(pair.0, pair.1, allowed) || !found, "{pair:?} in {allowed:?}");
            }
        }
        assert!(lg.connects(NodeId(4), NodeId(0), &all));
        assert!(!search_finds(&g, &p, (NodeId(4), NodeId(0)), &all));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random partitionings of the tiny grid — blocks of random size
        /// down to salt-and-pepper labels — and random partition sets: on
        /// a two-way city `connects` is exactly "the masked search finds a
        /// route".
        #[test]
        fn connects_iff_the_masked_search_finds_a_route(seed in 0u64..1_000_000) {
            let g = grid_city(&GridCityConfig::tiny()).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let k = rng.gen_range(2..=12u16);
            let block = rng.gen_range(1..=6u32);
            let cell: Vec<u16> = (0..400).map(|_| rng.gen_range(0..k)).collect();
            let mut labels: Vec<u16> = (0..400u32)
                .map(|v| cell[((v / 20 / block) * 20 + v % 20 / block) as usize])
                .collect();
            (0..k).for_each(|q| labels[q as usize] = q); // every label in use
            let p = MapPartitioning::from_assignment(&g, labels);
            let lg = LandmarkGraph::build(&g, &p);
            prop_assert!(lg.piece_partition.len() >= k as usize);
            for _ in 0..40 {
                let pair = (NodeId(rng.gen_range(0..400)), NodeId(rng.gen_range(0..400)));
                let mut allowed: Vec<_> = p.partitions().filter(|_| rng.gen_bool(0.6)).collect();
                if rng.gen_bool(0.9) {
                    allowed.extend([p.partition_of(pair.0), p.partition_of(pair.1)]);
                }
                prop_assert_eq!(
                    lg.connects(pair.0, pair.1, &allowed),
                    search_finds(&g, &p, pair, &allowed),
                    "{:?} in {:?}", pair, allowed
                );
            }
        }
    }
}
