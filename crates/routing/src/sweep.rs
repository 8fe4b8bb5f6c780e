//! The one one-to-all kernel: a shortest-path sweep on a bucket queue
//! (Dial; Denardo & Fox), no heap. DESIGN.md, "Pins are bucket sweeps".
//!
//! Arc costs are whole numbers of `COST_QUANTUM_S` quanta, so the sweep
//! works on integers: a private CSR of `(head, quanta)` for one direction,
//! a ring of buckets `2^shift` quanta wide, and the caller's [`Region`]: a
//! `u32` label per vertex whose top bit marks "reached, not expanded".
//! With the width ≤ the cheapest arc, relaxing out of the bucket being
//! drained lands in a *later* bucket, so every entry drained is final:
//! label-setting with no order inside a bucket. Any width is still exact:
//! an entry landing in the bucket being drained (zero-cost arc, or a width
//! grown to keep the ring within `MAX_RING`) is appended and drained in
//! the same pass, stale entries are skipped, and that bucket
//! label-corrects. Quanta sums are exact and a shortest distance does not
//! depend on settle order, so the `f32` seconds a region reads are the
//! bits a heap Dijkstra summing `f32` costs writes (below 2¹⁸ s, where
//! those sums are exact too). Width and ring size come from the graph.
//!
//! A drain stops at a radius and resumes later ([`Sweep::grow`]): the
//! region's open entries — the frontier, and vertices the caller declined
//! to expand — go back into the drain, and nothing expanded is redone.

use mtshare_road::{NodeId, RoadNetwork, COST_QUANTUM_S};

/// Largest ring; a cost ratio needing more widens the buckets instead.
const MAX_RING: usize = 1 << 10;
/// Top bit of a [`Region`] entry: reached but not expanded.
const OPEN: u32 = 1 << 31;
/// The label of an unreached vertex, and where distances saturate
/// (2³¹ − 1 quanta ≈ a year).
const LIMIT: u32 = OPEN - 1;
/// An unreached entry: open, at [`LIMIT`].
const UNREACHED: u32 = OPEN | LIMIT;
/// One quantum in `f32` seconds (exact: a power of two).
const Q: f32 = COST_QUANTUM_S as f32;

/// A resumable sweep's state, owned by its caller (a pin, a path walk):
/// one `u32` per vertex, in quanta, plus where the drain stopped. An entry
/// without the [`OPEN`] bit was expanded and is exact. An open entry was
/// reached but not expanded (or not reached): it reads [`Region::beyond`].
/// DESIGN.md, "Pins grow where their holders read".
#[derive(Debug, Clone)]
pub struct Region {
    dist: Vec<u32>,
    /// The first undrained bucket (absolute, at the growing engine's width).
    next: u64,
    /// That bucket's start in quanta.
    start: u32,
    /// The root while it is the only open entry ([`Region::rooted`]): the
    /// first grow need not scan for open entries.
    fresh: Option<u32>,
    /// What an open entry reads: the first undrained bucket's start in
    /// seconds, `INFINITY` once the sweep ran out of vertices (then every
    /// open entry is unreachable).
    beyond: f32,
    /// The smallest key an open entry holds, capped at the first undrained
    /// bucket's start: no vertex that is not exact lies nearer (quanta).
    floor: u32,
}

impl Region {
    /// A region of `n` vertices holding only `root`, reached at 0 and not
    /// yet expanded.
    pub fn rooted(n: usize, root: NodeId) -> Self {
        let mut dist = vec![UNREACHED; n];
        dist[root.index()] = OPEN;
        Self { dist, next: 0, start: 0, fresh: Some(root.0), beyond: 0.0, floor: 0 }
    }

    /// Whether `v`'s entry is its distance: expanded, or unreachable once
    /// the sweep ran out of vertices.
    #[inline]
    pub fn exact(&self, v: NodeId) -> bool {
        self.dist[v.index()] & OPEN == 0 || self.beyond == f32::INFINITY
    }

    /// `v`'s entry in seconds: its distance where [`Self::exact`], else
    /// [`Self::beyond`], a bound past every radius the region was grown to.
    #[inline]
    pub fn seconds(&self, v: NodeId) -> f32 {
        // Both arms computed, one selected: a reader's entries are as often
        // exact as not, and a branch on which would mispredict.
        let d = self.dist[v.index()];
        let exact = (d & LIMIT) as f32 * Q;
        if d < OPEN {
            exact
        } else {
            self.beyond
        }
    }

    /// What every entry that is not exact reads: the start of the first
    /// undrained bucket, at least one quantum past every radius grown to;
    /// `INFINITY` when the sweep ran out of vertices.
    #[inline]
    pub fn beyond(&self) -> f32 {
        self.beyond
    }

    /// An admissible lower bound on `v`'s distance: the entry where exact,
    /// else the region's floor (which, unlike [`Self::beyond`], is below
    /// every vertex that was reached and left unexpanded).
    #[inline]
    pub fn floor(&self, v: NodeId) -> f32 {
        match self.dist[v.index()] {
            d if d & OPEN == 0 => d as f32 * Q,
            _ if self.beyond == f32::INFINITY => f32::INFINITY,
            _ => self.floor as f32 * Q,
        }
    }

    /// The vertex count.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// Never: a region spans its graph.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }
}

/// A radius in seconds as whole quanta, rounded up (`INFINITY` saturates).
pub fn quanta(radius_s: f32) -> u64 {
    (radius_s.max(0.0) as f64 / COST_QUANTUM_S).ceil().min(u32::MAX as f64) as u64
}

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
    /// A resumed region's open entries, largest key first.
    backlog: Vec<u64>,
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
        Self { first, arcs, shift, ring, backlog: Vec::new() }
    }

    /// Buckets are `2^shift` quanta wide.
    #[inline]
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Writes the distance in seconds between `root` and every vertex into
    /// `out` (resized to the vertex count; `INFINITY` = unreachable).
    pub fn run(&mut self, root: NodeId, out: &mut Vec<f32>) {
        let mut region = Region::rooted(self.first.len() - 1, root);
        self.grow(&mut region, u64::MAX, |_, _| true, |_, _| true);
        out.clear();
        out.extend((0..region.len() as u32).map(|v| region.seconds(NodeId(v))));
    }

    /// Continues `region`'s drain (grown by this engine, or fresh from
    /// [`Region::rooted`]) until the next bucket starts past `radius`
    /// quanta or no vertex is left, expanding a popped vertex only where
    /// `accept(vertex, key)` holds, and returns the vertices it expanded.
    /// Entries already expanded stay. Every open one goes back into the
    /// drain lowest key first, fed from a backlog where its bucket lies
    /// past the ring: the frontier, and each vertex an earlier drain
    /// declined that `reopen(vertex, key)` (a test of what `accept` gained
    /// since, at an unchanged key) admits. An accepted vertex
    /// whose every shortest-path successor towards the root was accepted
    /// is exact (module docs); [`Region::beyond`] is then a lower bound on
    /// every vertex left open that lies within `radius`, and past it too.
    pub fn grow(
        &mut self,
        region: &mut Region,
        radius: u64,
        mut reopen: impl FnMut(usize, u32) -> bool,
        mut accept: impl FnMut(usize, u32) -> bool,
    ) -> u64 {
        let Self { first, arcs, shift, ring, backlog } = self;
        let (shift, mask, width) = (*shift, ring.len() - 1, ring.len() as u64);
        let radius = radius.min(LIMIT as u64);
        let dist = &mut region.dist;
        let mut pruned = u32::MAX;
        backlog.clear();
        if let Some(root) = region.fresh.take() {
            backlog.push(root as u64);
        } else {
            // Reached and open: `OPEN ≤ d < UNREACHED`. Blocks of 16 with
            // none are skipped in one vectorizable test.
            let open = |d: u32| d.wrapping_sub(OPEN) < LIMIT;
            for (block, ds) in dist.chunks(16).enumerate() {
                if !ds.iter().fold(false, |any, &d| any | open(d)) {
                    continue;
                }
                for (i, &d) in ds.iter().enumerate().filter(|&(_, &d)| open(d)) {
                    let (v, key) = (block * 16 + i, d & LIMIT);
                    // Below the stop, an open entry was popped at this key and declined.
                    if key < region.start && !reopen(v, key) {
                        pruned = pruned.min(key);
                    } else {
                        backlog.push((key as u64) << 32 | v as u64);
                    }
                }
            }
            backlog.sort_unstable_by(|a, b| b.cmp(a));
        }
        let bucket_of = |entry: u64| (entry >> 32) >> shift;
        let mut bucket = backlog.last().map_or(region.next, |&e| bucket_of(e).min(region.next));
        let (mut queued, mut settled) = (0usize, 0u64);
        loop {
            while let Some(&entry) = backlog.last() {
                if bucket_of(entry) >= bucket + width {
                    break;
                }
                ring[bucket_of(entry) as usize & mask].push(entry);
                queued += 1;
                backlog.pop();
            }
            if queued == 0 {
                match backlog.last() {
                    Some(&entry) => bucket = bucket_of(entry),
                    None => break,
                }
                continue;
            }
            if bucket << shift > radius {
                ring.iter_mut().for_each(Vec::clear);
                break;
            }
            let slot = bucket as usize & mask;
            let mut i = 0;
            while let Some(&entry) = ring[slot].get(i) {
                let (d, v) = ((entry >> 32) as u32, entry as u32 as usize);
                i += 1;
                if dist[v] != OPEN | d {
                    continue; // stale, or expanded already: `v` was improved after this entry
                }
                if !accept(v, d) {
                    pruned = pruned.min(d);
                    continue;
                }
                dist[v] = d;
                settled += 1;
                for &(head, cost) in &arcs[first[v] as usize..first[v + 1] as usize] {
                    let nd = (d as u64 + cost as u64).min(LIMIT as u64) as u32;
                    if nd < dist[head as usize] & LIMIT {
                        dist[head as usize] = OPEN | nd;
                        ring[(nd >> shift) as usize & mask].push((nd as u64) << 32 | head as u64);
                        queued += 1;
                    }
                }
            }
            queued -= ring[slot].len();
            ring[slot].clear();
            bucket += 1;
        }
        // Out of vertices with some pruned: as if the empty buckets up to
        // the radius were drained too.
        let exhausted = queued == 0 && pruned == u32::MAX;
        if queued == 0 && !exhausted {
            bucket = bucket.max((radius >> shift) + 1);
        }
        let start = (bucket << shift).min(LIMIT as u64) as u32;
        (region.next, region.start, region.floor) = (bucket, start, pruned.min(start));
        region.beyond = if exhausted { f32::INFINITY } else { start as f32 * Q };
        settled
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

    /// Checks a region grown with every vertex accepted out to `radius`
    /// against the reference distances `want`: exact up to the last
    /// drained bucket, `beyond` (past the radius) elsewhere, the floor
    /// never above a distance.
    fn check_ball(region: &Region, want: &[f32], radius: f32, what: &str) {
        let beyond = region.beyond();
        assert!(beyond > radius, "{what}: beyond {beyond} within {radius}");
        for (v, &want) in want.iter().enumerate() {
            let v = NodeId(v as u32);
            let got = region.seconds(v);
            let ok = if want < beyond { got == want && region.exact(v) } else { got == beyond };
            assert!(ok, "{what} v {v}: {got} vs {want}");
            assert!(region.floor(v) <= want, "{what} v {v}: floor {} > {want}", region.floor(v));
        }
    }

    #[test]
    fn any_bucket_width_is_exact_zero_cost_arcs_and_the_ring_cap_included() {
        let mut rng = SmallRng::seed_from_u64(21);
        let (mut out, mut stopped, mut resumed) = (Vec::new(), 0, 0);
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
                    // Bounded, then resumed through rising radii: each step
                    // reads as a fresh sweep to its radius would.
                    let finite = want.iter().copied().filter(|d| d.is_finite());
                    let top = finite.fold(0.0, f32::max) * 1.25;
                    let mut radii: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0..=top)).collect();
                    radii.sort_by(f32::total_cmp);
                    let mut region = Region::rooted(60, NodeId(root as u32));
                    for radius in radii {
                        e.grow(&mut region, quanta(radius), |_, _| true, |_, _| true);
                        let what = format!("{costs:?} root {root} radius {radius}");
                        check_ball(&region, &want, radius, &what);
                        let mut fresh = Region::rooted(60, NodeId(root as u32));
                        e.grow(&mut fresh, quanta(radius), |_, _| true, |_, _| true);
                        assert_eq!(fresh.dist, region.dist, "{what}: resumed != fresh");
                        stopped += region.beyond().is_finite() as usize;
                        resumed += 1;
                    }
                }
            }
        }
        assert!(stopped > 0 && resumed > stopped, "no random radius stopped a sweep early");
    }

    #[test]
    fn distances_past_the_label_range_saturate_to_unreachable_instead_of_wrapping() {
        // 0 -> 1 -> 2, each arc just over half the 2³¹ range.
        let mut e = Sweep::from_csr(vec![0, 1, 2, 2], vec![(1, 3 << 29), (2, 3 << 29)]);
        let mut out = Vec::new();
        e.run(NodeId(0), &mut out);
        assert_eq!(out[1], (3u64 << 29) as f32 * COST_QUANTUM_S as f32);
        assert_eq!(out[2], f32::INFINITY);
    }
}
