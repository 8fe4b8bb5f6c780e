//! The one one-to-all kernel: a shortest-path sweep on a bucket queue
//! (Dial; Denardo & Fox), no heap. DESIGN.md, "Pins are bucket sweeps".
//!
//! Arc costs are whole numbers of `COST_QUANTUM_S` quanta, so the sweep
//! works on integers: a private CSR of `(head, quanta)` for one direction,
//! a `u32` distance array, a ring of buckets `2^shift` quanta wide. With
//! the width ≤ the cheapest arc, relaxing out of the bucket being drained
//! lands in a *later* bucket, so every entry drained is final:
//! label-setting with no order inside a bucket. Any width is still exact:
//! an entry landing in the bucket being drained (zero-cost arc, or a width
//! grown to keep the ring within `MAX_RING`) is appended and drained in
//! the same pass, stale entries are skipped, and that bucket
//! label-corrects. Quanta sums are exact and a shortest distance does not
//! depend on settle order, so the `f32` seconds written at the end are the
//! bits a heap Dijkstra summing `f32` costs writes (below 2¹⁸ s, where
//! those sums are exact too). Width and ring size come from the graph.

use mtshare_road::{NodeId, RoadNetwork, COST_QUANTUM_S};

/// Largest ring; a cost ratio needing more widens the buckets instead.
const MAX_RING: usize = 1 << 10;
/// Unreached: also where distances saturate (2³² quanta ≈ 2 years).
const UNREACHED: u32 = u32::MAX;

/// One-to-all engine over one direction of one metric, reusable across
/// roots. It owns its arcs: after a metric change, build a new one.
#[derive(Debug)]
pub struct Sweep {
    /// CSR offsets into `arcs`, one per vertex plus the end.
    first: Vec<u32>,
    /// `(head, cost in quanta)`.
    arcs: Vec<(u32, u32)>,
    shift: u32,
    /// Power-of-two many buckets of `dist << 32 | vertex` entries.
    ring: Vec<Vec<u64>>,
    dist: Vec<u32>,
}

impl Sweep {
    /// Engine for distances *from* a root (over out-arcs of `graph`).
    pub fn forward(graph: &RoadNetwork) -> Self {
        Self::over(graph, |v| graph.out_edges(v))
    }

    /// Engine for distances *to* a root (over in-arcs of `graph`).
    pub fn backward(graph: &RoadNetwork) -> Self {
        Self::over(graph, |v| graph.in_edges(v))
    }

    fn over<I: Iterator<Item = (NodeId, f32)>>(
        graph: &RoadNetwork,
        arcs_of: impl Fn(NodeId) -> I,
    ) -> Self {
        let mut first = Vec::with_capacity(graph.node_count() + 1);
        let mut arcs = Vec::with_capacity(graph.edge_count());
        for v in graph.nodes() {
            first.push(arcs.len() as u32);
            arcs.extend(arcs_of(v).map(|(head, cost_s)| {
                let quanta = (cost_s as f64 / COST_QUANTUM_S) as u32;
                debug_assert_eq!(quanta as f64 * COST_QUANTUM_S, cost_s as f64, "off-grid cost");
                (head.0, quanta)
            }));
        }
        first.push(arcs.len() as u32);
        Self::from_csr(first, arcs)
    }

    fn from_csr(first: Vec<u32>, arcs: Vec<(u32, u32)>) -> Self {
        let cheapest = arcs.iter().map(|a| a.1).min().unwrap_or(1);
        let dearest = arcs.iter().map(|a| a.1).max().unwrap_or(1);
        let mut shift = cheapest.max(1).ilog2();
        // Draining bucket `b` pushes no further than bucket `b + 1 +
        // (dearest >> shift)`: this many buckets never alias in the ring.
        while (dearest >> shift) as usize + 2 > MAX_RING {
            shift += 1;
        }
        let ring = vec![Vec::new(); ((dearest >> shift) as usize + 2).next_power_of_two()];
        Self { dist: vec![UNREACHED; first.len() - 1], first, arcs, shift, ring }
    }

    /// Writes the distance in seconds between `root` and every vertex into
    /// `out` (resized to the vertex count; `INFINITY` = unreachable).
    pub fn run(&mut self, root: NodeId, out: &mut Vec<f32>) {
        self.run_within(root, f32::INFINITY, out);
    }

    /// [`Self::run`] that stops once the next bucket starts past `radius`
    /// seconds, and returns `covered`: the end of the last drained bucket,
    /// `INFINITY` when the sweep ran out of vertices first. Entries at or
    /// below `covered` are exact; every other entry, unreachable ones
    /// included, reads `covered + COST_QUANTUM_S`, a lower bound on its
    /// distance (quanta are whole, so a distance past `covered` is at
    /// least one quantum past it). DESIGN.md, "Pins stop at the deadline".
    pub fn run_within(&mut self, root: NodeId, radius: f32, out: &mut Vec<f32>) -> f32 {
        let Self { first, arcs, shift, ring, dist } = self;
        let mask = ring.len() - 1;
        let radius = (radius.max(0.0) as f64 / COST_QUANTUM_S).ceil().min(u32::MAX as f64) as u64;
        dist.fill(UNREACHED);
        dist[root.index()] = 0;
        ring[0].push(root.0 as u64);
        // `bucket` and `last` are absolute bucket numbers (`dist >> shift`).
        let (mut bucket, mut last) = (0usize, 0usize);
        while bucket <= last {
            if (bucket as u64) << *shift > radius {
                ring.iter_mut().for_each(Vec::clear);
                break;
            }
            let slot = bucket & mask;
            let mut i = 0;
            while let Some(&entry) = ring[slot].get(i) {
                let (d, v) = ((entry >> 32) as u32, entry as u32 as usize);
                i += 1;
                if dist[v] != d {
                    continue; // stale: `v` was improved after this entry
                }
                for &(head, cost) in &arcs[first[v] as usize..first[v + 1] as usize] {
                    let nd = d.saturating_add(cost);
                    if nd < dist[head as usize] {
                        dist[head as usize] = nd;
                        let to = (nd >> *shift) as usize;
                        ring[to & mask].push((nd as u64) << 32 | head as u64);
                        last = last.max(to);
                    }
                }
            }
            ring[slot].clear();
            bucket += 1;
        }
        // The first undrained bucket's start, in quanta: every distance
        // below it is final. `None` when the sweep ran out of vertices.
        let beyond = (bucket <= last).then(|| (bucket as u64) << *shift);
        let seconds = |d: u64| d as f32 * COST_QUANTUM_S as f32;
        out.clear();
        out.extend(dist.iter().map(|&d| match beyond {
            None if d == UNREACHED => f32::INFINITY,
            Some(b) if d == UNREACHED || d as u64 >= b => seconds(b),
            _ => seconds(d as u64),
        }));
        beyond.map_or(f32::INFINITY, |b| seconds(b - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::Dijkstra;
    use mtshare_road::{grid_city, EdgeSpec, GeoPoint, GridCityConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn both_directions_equal_point_queries_bit_for_bit_and_the_engine_is_reusable() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let (mut fwd, mut bwd) = (Sweep::forward(&g), Sweep::backward(&g));
        // The regime the cities are in: no bucket wider than the cheapest
        // arc, a handful of buckets.
        let cheapest = fwd.arcs.iter().map(|a| a.1).min().unwrap();
        assert!(
            1 << fwd.shift <= cheapest && fwd.ring.len() <= 8,
            "{} {}",
            fwd.shift,
            fwd.ring.len()
        );
        let mut d = Dijkstra::new(&g);
        let (mut from, mut to) = (Vec::new(), Vec::new());
        for root in [7u32, 250, 399, 7] {
            let root = NodeId(root);
            fwd.run(root, &mut from);
            bwd.run(root, &mut to);
            assert_eq!((from.len(), to.len()), (g.node_count(), g.node_count()));
            for v in g.nodes() {
                let want_from = d.cost(&g, root, v).unwrap() as f32;
                let want_to = d.cost(&g, v, root).unwrap() as f32;
                assert_eq!(from[v.index()].to_bits(), want_from.to_bits(), "{root}->{v}");
                assert_eq!(to[v.index()].to_bits(), want_to.to_bits(), "{v}->{root}");
            }
        }
    }

    #[test]
    fn unreachable_vertices_read_infinity() {
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        let mut out = Vec::new();
        Sweep::forward(&g).run(NodeId(1), &mut out);
        assert_eq!(out, [f32::INFINITY, 0.0]);
        Sweep::backward(&g).run(NodeId(0), &mut out);
        assert_eq!(out, [0.0, f32::INFINITY]);
        Sweep::forward(&g).run(NodeId(0), &mut out);
        assert_eq!(out, [0.0, 2.40625]); // 10 m at 15 km/h = 2.4 s, rounded up to the grid
    }

    /// Bellman–Ford over the engine's own arcs, in quanta.
    fn reference(e: &Sweep, root: usize) -> Vec<f32> {
        let n = e.first.len() - 1;
        let mut dist = vec![u64::MAX; n];
        dist[root] = 0;
        for _ in 0..n {
            for v in 0..n {
                if dist[v] == u64::MAX {
                    continue;
                }
                for &(head, cost) in &e.arcs[e.first[v] as usize..e.first[v + 1] as usize] {
                    let nd = dist[v] + cost as u64;
                    dist[head as usize] = dist[head as usize].min(nd);
                }
            }
        }
        dist.iter()
            .map(
                |&d| if d == u64::MAX { f32::INFINITY } else { (d as f64 * COST_QUANTUM_S) as f32 },
            )
            .collect()
    }

    /// Random sparse digraph with arc costs drawn from `costs`.
    fn random_csr(rng: &mut SmallRng, n: usize, costs: &[u32]) -> Sweep {
        let (mut first, mut arcs) = (Vec::new(), Vec::new());
        for _ in 0..n {
            first.push(arcs.len() as u32);
            for _ in 0..rng.gen_range(0..4) {
                arcs.push((rng.gen_range(0..n as u32), costs[rng.gen_range(0..costs.len())]));
            }
        }
        first.push(arcs.len() as u32);
        Sweep::from_csr(first, arcs)
    }

    #[test]
    fn any_bucket_width_is_exact_zero_cost_arcs_and_the_ring_cap_included() {
        let mut rng = SmallRng::seed_from_u64(21);
        let (mut out, mut stopped) = (Vec::new(), 0);
        // (cost menu, whether the ring cap must have widened the buckets
        // past the cheapest arc — the label-correcting path).
        let menus: [(&[u32], bool); 4] = [
            (&[0, 1, 3], false),          // zero-cost arcs (and cycles of them)
            (&[1, 1 << 18], true),        // 1/64 s beside 4 096 s
            (&[0, 5, 1 << 20], true),     // both at once
            (&[1299, 2000, 3718], false), // the cities' own range
        ];
        for (costs, capped) in menus {
            for _ in 0..40 {
                let mut e = random_csr(&mut rng, 60, costs);
                assert!(e.ring.len() <= MAX_RING && e.ring.len().is_power_of_two());
                assert_eq!(1u32 << e.shift > costs.iter().copied().min().unwrap().max(1), capped);
                for root in [0usize, 17, 59] {
                    let want = reference(&e, root);
                    e.run(NodeId(root as u32), &mut out);
                    assert_eq!(bits(&out), bits(&want), "{costs:?} root {root}");
                    // Bounded: exact up to `covered`, one quantum past it beyond.
                    let finite = want.iter().copied().filter(|d| d.is_finite());
                    let radius = rng.gen_range(0.0..=finite.fold(0.0, f32::max) * 1.25);
                    let covered = e.run_within(NodeId(root as u32), radius, &mut out);
                    assert!(covered >= radius, "{costs:?} root {root}: {covered} < {radius}");
                    let beyond = covered + COST_QUANTUM_S as f32;
                    stopped += covered.is_finite() as usize;
                    for (v, (&got, &want)) in out.iter().zip(&want).enumerate() {
                        let ok = if want <= covered { got == want } else { got == beyond };
                        assert!(ok && got <= want, "{costs:?} root {root} v {v}: {got} vs {want}");
                    }
                }
            }
        }
        assert!(stopped > 0, "no random radius stopped a sweep early");
    }

    #[test]
    fn distances_past_u32_quanta_saturate_to_unreachable_instead_of_wrapping() {
        // 0 -> 1 -> 2, each arc just over half the u32 range.
        let mut e = Sweep::from_csr(vec![0, 1, 2, 2], vec![(1, 3 << 30), (2, 3 << 30)]);
        let mut out = Vec::new();
        e.run(NodeId(0), &mut out);
        assert_eq!(out[1], (3u64 << 30) as f32 * COST_QUANTUM_S as f32);
        assert_eq!(out[2], f32::INFINITY);
    }
}
