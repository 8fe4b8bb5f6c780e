//! Customizable contraction hierarchies: metric-independent preprocessing
//! plus millisecond re-customization (Dibbelt, Strasser & Wagner's CCH).
//!
//! A plain [`crate::ContractionHierarchy`] bakes the metric into its node
//! order and shortcut weights, so a traffic change means seconds of
//! re-preprocessing. A CCH splits the work in three phases:
//!
//! 1. **Order + skeleton** (metric-independent, slow-but-rare): a
//!    nested-dissection order from the road geometry
//!    ([`crate::order::NodeOrder::nested_dissection`]), then the chordal
//!    *shortcut skeleton* obtained by simulating elimination in that
//!    order — when a vertex is eliminated, its higher-ranked neighbours
//!    become a clique. The skeleton depends only on topology.
//! 2. **Customization** (per metric, milliseconds): every skeleton arc
//!    `(v, w)` (with `rank v < rank w`) carries an upward weight (cost
//!    `v → w`) and a downward weight (cost `w → v`), seeded from the
//!    original edge costs (`∞` where no edge exists) and then tightened
//!    by one bottom-up *triangle relaxation* sweep: for each lower
//!    triangle `{u, v, w}` with `u` lowest, `up(v,w) ← min(up(v,w),
//!    down(u,v) + up(u,w))` and `down(v,w) ← min(down(v,w), down(u,w) +
//!    up(u,v))`, processing `u` in ascending rank order.
//! 3. **Query** (per pair, microseconds): a bidirectional *upward*
//!    search over the fixed skeleton — forward relaxes upward weights,
//!    backward relaxes downward weights — joined at the cheapest
//!    meeting vertex with μ-pruning and a smallest-id tie-break. The
//!    search is the kernel shared with the plain CH (`upward.rs`); this
//!    module only tells it which arcs a vertex has under which metric.
//!    Stall-on-demand is deliberately **omitted**: its classic proof
//!    needs shortcut weights that equal exact distances, which basic
//!    customization does not guarantee (weights are upper bounds that
//!    respect lower triangles — sufficient for search exactness, not
//!    for stalling).
//!
//! # Exactness and determinism
//!
//! Arc weights are f32 min-of-sums of dyadically quantized edge costs
//! ([`mtshare_road::COST_QUANTUM_S`]), so every sum is exact and a CCH
//! query is bit-identical to Dijkstra *on the customized graph* — the
//! equivalence suites assert `==`, no tolerance. Order, skeleton, and
//! customization are pure functions of their inputs with no parallelism
//! or randomness, so artifacts are byte-identical across runs.
//!
//! # Metric swaps
//!
//! The skeleton is immutable after construction. The metric lives
//! behind a `std::sync::RwLock<Arc<CchMetric>>` with a generation
//! counter: re-customization installs a fresh `Arc` (readers keep their
//! snapshot), and query scratch refreshes its snapshot when the
//! generation moves. The simulator re-customizes only between events.
//! The lock (not a `RefCell`) keeps the hierarchy `Sync`, so it can be
//! shared by `Arc` like the plain CH.

use crate::order::NodeOrder;
use crate::upward::{SearchCounters, UpwardBuckets, UpwardGraph, UpwardQuery};
use mtshare_persist::{fnv1a_64, read_snapshot, write_snapshot, Decoder, Encoder, PersistError};
use mtshare_road::RoadNetwork;
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};

/// Inner payload tag of the persisted artifact.
const ARTIFACT_TAG: &[u8; 4] = b"MTCC";

/// Inner payload version of the persisted artifact (in lockstep with the
/// plain-CH artifact family: v2 carries the metric generation counter).
const ARTIFACT_VERSION: u32 = 2;

/// Query/customization counters of a [`CustomizableCh`] (profiling only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CchStats {
    /// Point-to-point searches answered.
    pub p2p_queries: u64,
    /// Bucket many-to-one sweeps performed.
    pub bucket_sweeps: u64,
    /// Total sources across all bucket sweeps.
    pub bucket_sources: u64,
    /// Metric customizations performed (including the base one).
    pub customizations: u64,
}

/// One customized metric over the fixed skeleton. Immutable; swapped in
/// wholesale by [`CustomizableCh::customize`].
#[derive(Debug)]
pub struct CchMetric {
    /// Monotone customization counter (0 = the base metric).
    generation: u64,
    /// Digest of the [`RoadNetwork`] this metric was customized from.
    graph_digest: u64,
    /// Per-arc cost in the low→high direction (`∞` = no such road).
    up_w: Vec<f32>,
    /// Per-arc cost in the high→low direction.
    down_w: Vec<f32>,
}

impl CchMetric {
    /// Monotone customization counter (0 = the base metric).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Digest of the road network this metric was customized from.
    #[inline]
    pub fn graph_digest(&self) -> u64 {
        self.graph_digest
    }
}

/// The metric-independent hierarchy: nested-dissection order plus the
/// chordal shortcut skeleton, with the current metric swapped in behind
/// a lock. Share it with `Arc`; queries keep their own scratch.
#[derive(Debug)]
pub struct CustomizableCh {
    /// Digest of the road network the *skeleton* was built from (the
    /// base topology). Customized metrics may carry other digests.
    base_digest: u64,
    /// Vertices in elimination sequence (`order[k]` eliminated at `k`).
    order: Vec<u32>,
    /// Elimination position per vertex id.
    rank: Vec<u32>,
    // Skeleton in CSR form, indexed by the *lower*-ranked endpoint;
    // targets sorted by vertex id within each row.
    up_offsets: Vec<u32>,
    up_targets: Vec<u32>,
    /// Arcs the elimination added beyond the original undirected edges.
    fill_arcs: u64,
    /// Lower-triangle sweep schedule: one `(via_down, via_up, target)`
    /// arc-index triple per lower triangle, in bottom-up elimination
    /// order. Metric-independent, so it is computed once per skeleton
    /// (never persisted — rebuilt on load) and turns each customization
    /// into a flat linear sweep with no per-triangle index search.
    triangles: Vec<(u32, u32, u32)>,
    metric: RwLock<Arc<CchMetric>>,
    next_generation: AtomicU64,
    stats: SearchCounters,
    customizations: AtomicU64,
}

impl CustomizableCh {
    /// Builds the hierarchy for `graph` and customizes it with the
    /// graph's own (base) metric — generation 0.
    pub fn build(graph: &RoadNetwork) -> Self {
        let (order, rank) = NodeOrder::nested_dissection(graph).into_parts();
        let (up_offsets, up_targets, fill_arcs) = skeleton(graph, &order);
        let triangles = triangle_schedule(&order, &rank, &up_offsets, &up_targets);
        let cch = Self {
            base_digest: graph.digest(),
            order,
            rank,
            up_offsets,
            up_targets,
            fill_arcs,
            triangles,
            metric: RwLock::new(Arc::new(CchMetric {
                generation: 0,
                graph_digest: 0,
                up_w: Vec::new(),
                down_w: Vec::new(),
            })),
            next_generation: AtomicU64::new(0),
            stats: SearchCounters::default(),
            customizations: AtomicU64::new(0),
        };
        cch.customize(graph);
        cch
    }

    /// Re-customizes the hierarchy with the metric of `graph` (same
    /// topology as the base graph, possibly different edge costs — e.g.
    /// a regionally shifted copy from
    /// [`mtshare_road::apply_traffic_shifts`]). Returns the new metric
    /// generation. Milliseconds on city-scale graphs; see the module
    /// docs for the algorithm.
    ///
    /// # Panics
    /// Panics when `graph` has a different vertex count or contains an
    /// edge the skeleton does not cover (i.e. a different topology).
    pub fn customize(&self, graph: &RoadNetwork) -> u64 {
        assert_eq!(
            graph.node_count(),
            self.rank.len(),
            "customization graph must share the skeleton's topology"
        );
        let m = self.up_targets.len();
        let mut up_w = vec![f32::INFINITY; m];
        let mut down_w = vec![f32::INFINITY; m];
        // Seed from the original edges (parallel edges collapse to min).
        for u in graph.nodes() {
            for (v, w) in graph.out_edges(u) {
                if v == u {
                    continue;
                }
                let upward = self.rank[u.index()] < self.rank[v.index()];
                let (lo, hi) = if upward { (u.0, v.0) } else { (v.0, u.0) };
                let i = self.arc_index(lo, hi).expect("edge is covered by the skeleton");
                let slot = if upward { &mut up_w[i] } else { &mut down_w[i] };
                if w < *slot {
                    *slot = w;
                }
            }
        }
        // Bottom-up triangle relaxation: the precomputed schedule lists
        // every lower triangle in elimination order of its lowest
        // vertex, so by the time a triple targeting arc `t` runs, both
        // via-arcs are final. Same relaxations in the same order as the
        // naive nested loop — the resulting metric is bit-identical.
        for &(va, wa, t) in &self.triangles {
            let (va, wa, t) = (va as usize, wa as usize, t as usize);
            let via_up = down_w[va] + up_w[wa];
            if via_up < up_w[t] {
                up_w[t] = via_up;
            }
            let via_down = down_w[wa] + up_w[va];
            if via_down < down_w[t] {
                down_w[t] = via_down;
            }
        }
        let generation = self.next_generation.fetch_add(1, Relaxed);
        *self.metric.write().expect("no metric writer panics") =
            Arc::new(CchMetric { generation, graph_digest: graph.digest(), up_w, down_w });
        self.customizations.fetch_add(1, Relaxed);
        generation
    }

    /// The current metric snapshot (readers keep it consistent across a
    /// concurrent re-customization).
    pub fn metric(&self) -> Arc<CchMetric> {
        self.metric.read().expect("no metric writer panics").clone()
    }

    /// Generation of the current metric (0 = base).
    pub fn generation(&self) -> u64 {
        self.metric.read().expect("no metric writer panics").generation
    }

    /// Digest of the road network the current metric was customized from.
    pub fn metric_graph_digest(&self) -> u64 {
        self.metric().graph_digest
    }

    /// Digest of the base road network the skeleton was built from.
    #[inline]
    pub fn graph_digest(&self) -> u64 {
        self.base_digest
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rank.len()
    }

    /// Arcs the elimination added beyond the original undirected edges —
    /// the CCH analog of a plain CH's shortcut count.
    #[inline]
    pub fn fill_arc_count(&self) -> u64 {
        self.fill_arcs
    }

    /// Snapshot of the query/customization counters.
    pub fn stats(&self) -> CchStats {
        CchStats {
            p2p_queries: self.stats.p2p_queries.load(Relaxed),
            bucket_sweeps: self.stats.bucket_sweeps.load(Relaxed),
            bucket_sources: self.stats.bucket_sources.load(Relaxed),
            customizations: self.customizations.load(Relaxed),
        }
    }

    /// Approximate resident memory of skeleton + metric in bytes.
    pub fn memory_bytes(&self) -> usize {
        (self.order.len() + self.rank.len() + self.up_offsets.len()) * 4
            + self.up_targets.len() * 4
            + self.triangles.len() * std::mem::size_of::<(u32, u32, u32)>()
            + self.metric().up_w.len() * 8
    }

    #[inline]
    fn up_range(&self, v: u32) -> std::ops::Range<usize> {
        self.up_offsets[v as usize] as usize..self.up_offsets[v as usize + 1] as usize
    }

    /// Index of arc `(lo, hi)` in the weight arrays, `None` if absent.
    #[inline]
    fn arc_index(&self, lo: u32, hi: u32) -> Option<usize> {
        let r = self.up_range(lo);
        self.up_targets[r.clone()].binary_search(&hi).ok().map(|i| r.start + i)
    }

    // ---- persistence ----------------------------------------------------

    /// Canonical artifact payload: tag, version, base digest, metric
    /// generation + digest, order, skeleton CSR, weight bit patterns.
    fn encode(&self) -> Vec<u8> {
        let metric = self.metric();
        let mut enc = Encoder::new();
        enc.bytes(ARTIFACT_TAG);
        enc.u32(ARTIFACT_VERSION);
        enc.u64(self.base_digest);
        enc.u64(metric.generation);
        enc.u64(metric.graph_digest);
        enc.u32(self.rank.len() as u32);
        for chunk in [&self.order, &self.up_offsets, &self.up_targets] {
            enc.u64(chunk.len() as u64);
            for &x in chunk.iter() {
                enc.u32(x);
            }
        }
        for chunk in [&metric.up_w, &metric.down_w] {
            enc.u64(chunk.len() as u64);
            for &w in chunk.iter() {
                enc.u32(w.to_bits());
            }
        }
        enc.u64(self.fill_arcs);
        enc.into_bytes()
    }

    /// FNV-1a digest of the canonical artifact payload: equal digests
    /// mean byte-identical artifacts.
    pub fn artifact_digest(&self) -> u64 {
        fnv1a_64(&self.encode())
    }

    /// Serializes order, skeleton, and the *current* metric into a
    /// CRC-framed snapshot at `path`. Returns the file size in bytes.
    pub fn save(&self, path: &std::path::Path) -> Result<u64, PersistError> {
        write_snapshot(path, &self.encode()).map(|stats| stats.bytes)
    }

    /// Loads a hierarchy from `path`, validating the CRC frame, format
    /// version, and that its skeleton was built from exactly this
    /// `graph` (base digest match).
    pub fn load(path: &std::path::Path, graph: &RoadNetwork) -> Result<Self, PersistError> {
        let payload = read_snapshot(path)?;
        let mut dec = Decoder::new(&payload);
        if dec.bytes()? != ARTIFACT_TAG {
            return Err(PersistError::Corrupt(format!(
                "{}: not a customizable-hierarchy artifact",
                path.display()
            )));
        }
        let version = dec.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                expected: ARTIFACT_VERSION,
            });
        }
        let base_digest = dec.u64()?;
        if base_digest != graph.digest() {
            return Err(PersistError::Mismatch(format!(
                "{}: built for graph {base_digest:#018x}, current graph is {:#018x}",
                path.display(),
                graph.digest()
            )));
        }
        let generation = dec.u64()?;
        let metric_digest = dec.u64()?;
        let n = dec.u32()? as usize;
        if n != graph.node_count() {
            return Err(PersistError::Mismatch(format!(
                "{}: {n} vertices, graph has {}",
                path.display(),
                graph.node_count()
            )));
        }
        fn read_u32s(dec: &mut Decoder<'_>) -> Result<Vec<u32>, PersistError> {
            let len = dec.u64()? as usize;
            let mut v = Vec::with_capacity(len.min(1 << 24));
            for _ in 0..len {
                v.push(dec.u32()?);
            }
            Ok(v)
        }
        let order = read_u32s(&mut dec)?;
        let up_offsets = read_u32s(&mut dec)?;
        let up_targets = read_u32s(&mut dec)?;
        let up_w: Vec<f32> = read_u32s(&mut dec)?.into_iter().map(f32::from_bits).collect();
        let down_w: Vec<f32> = read_u32s(&mut dec)?.into_iter().map(f32::from_bits).collect();
        let fill_arcs = dec.u64()?;
        if order.len() != n
            || up_offsets.len() != n + 1
            || up_w.len() != up_targets.len()
            || down_w.len() != up_targets.len()
        {
            return Err(PersistError::Corrupt(format!(
                "{}: inconsistent array arities",
                path.display()
            )));
        }
        let mut rank = vec![u32::MAX; n];
        for (k, &v) in order.iter().enumerate() {
            if (v as usize) >= n || rank[v as usize] != u32::MAX {
                return Err(PersistError::Corrupt(format!(
                    "{}: order is not a permutation",
                    path.display()
                )));
            }
            rank[v as usize] = k as u32;
        }
        let triangles = triangle_schedule(&order, &rank, &up_offsets, &up_targets);
        Ok(Self {
            base_digest,
            order,
            rank,
            up_offsets,
            up_targets,
            fill_arcs,
            triangles,
            metric: RwLock::new(Arc::new(CchMetric {
                generation,
                graph_digest: metric_digest,
                up_w,
                down_w,
            })),
            next_generation: AtomicU64::new(generation + 1),
            stats: SearchCounters::default(),
            customizations: AtomicU64::new(0),
        })
    }

    /// Loads the artifact at `path` if it is valid for `graph`; a
    /// missing, corrupt, or wrong-graph artifact triggers a rebuild and
    /// a (best-effort) rewrite. A *version* mismatch propagates as
    /// [`PersistError::UnsupportedVersion`] instead of clobbering a
    /// healthy artifact from an incompatible build. Returns the
    /// hierarchy and whether it was rebuilt.
    pub fn load_or_build(
        path: &std::path::Path,
        graph: &RoadNetwork,
    ) -> Result<(Self, bool), PersistError> {
        match Self::load(path, graph) {
            Ok(cch) => Ok((cch, false)),
            Err(e @ PersistError::UnsupportedVersion { .. }) => Err(e),
            Err(_) => {
                let cch = Self::build(graph);
                let _ = cch.save(path);
                Ok((cch, true))
            }
        }
    }
}

/// Enumerates the lower triangles of the chordal skeleton in bottom-up
/// elimination order: for each vertex `u` (lowest corner) and each pair
/// of up-neighbours `{v, w}` with `rank(v) < rank(w)`, emits the arc
/// indices `(u→v, u→w, v→w)` — the two via-arcs and the relaxation
/// target. The skeleton is chordal, so the `v→w` arc always exists.
fn triangle_schedule(
    order: &[u32],
    rank: &[u32],
    up_offsets: &[u32],
    up_targets: &[u32],
) -> Vec<(u32, u32, u32)> {
    let row = |v: u32| up_offsets[v as usize] as usize..up_offsets[v as usize + 1] as usize;
    let arc_index = |lo: u32, hi: u32| {
        let r = row(lo);
        r.start + up_targets[r].binary_search(&hi).expect("clique arc exists")
    };
    let mut triangles = Vec::new();
    for &u in order {
        let r = row(u);
        for i in r.clone() {
            for j in i + 1..r.end {
                let (a, b) = (up_targets[i], up_targets[j]);
                let (va, wa, v, w) =
                    if rank[a as usize] < rank[b as usize] { (i, j, a, b) } else { (j, i, b, a) };
                triangles.push((va as u32, wa as u32, arc_index(v, w) as u32));
            }
        }
    }
    triangles
}

/// Simulates elimination in `order` over the undirected adjacency of
/// `graph`: when a vertex is eliminated its higher-ranked neighbours
/// become a clique. Returns the up-CSR (indexed by the lower endpoint,
/// targets sorted by id) and the fill-arc count.
fn skeleton(graph: &RoadNetwork, order: &[u32]) -> (Vec<u32>, Vec<u32>, u64) {
    let n = graph.node_count();
    let mut nbrs: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
    for u in graph.nodes() {
        for (v, _) in graph.out_edges(u) {
            if v != u {
                nbrs[u.index()].insert(v.0);
                nbrs[v.index()].insert(u.0);
            }
        }
    }
    let original: u64 = nbrs.iter().map(|s| s.len() as u64).sum::<u64>() / 2;

    let mut up: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &u in order {
        // Lower-ranked neighbours removed themselves on elimination, so
        // the residual set is exactly the higher-ranked neighbourhood.
        let mut hi: Vec<u32> = nbrs[u as usize].iter().copied().collect();
        hi.sort_unstable();
        for (i, &a) in hi.iter().enumerate() {
            nbrs[a as usize].remove(&u);
            for &b in &hi[i + 1..] {
                nbrs[a as usize].insert(b);
                nbrs[b as usize].insert(a);
            }
        }
        up[u as usize] = hi;
    }

    let mut up_offsets = Vec::with_capacity(n + 1);
    let mut up_targets = Vec::new();
    up_offsets.push(0u32);
    for adj in &up {
        up_targets.extend_from_slice(adj);
        up_offsets.push(up_targets.len() as u32);
    }
    let fill = (up_targets.len() as u64).saturating_sub(original);
    (up_offsets, up_targets, fill)
}

impl UpwardGraph for CustomizableCh {
    /// A pinned snapshot: a query in flight keeps one consistent metric
    /// across a concurrent re-customization.
    type Metric = Arc<CchMetric>;

    /// Customized weights are upper bounds, not distances (module docs).
    const STALL_ON_DEMAND: bool = false;

    fn node_count(&self) -> usize {
        self.rank.len()
    }

    fn counters(&self) -> &SearchCounters {
        &self.stats
    }

    fn snapshot(&self) -> Arc<CchMetric> {
        self.metric()
    }

    fn refresh(&self, held: &mut Arc<CchMetric>) {
        if held.generation != self.generation() {
            *held = self.metric();
        }
    }

    #[inline]
    fn arcs(
        &self,
        metric: &Arc<CchMetric>,
        forward: bool,
        v: u32,
    ) -> impl Iterator<Item = (u32, f32)> {
        let r = self.up_range(v);
        let weights = if forward { &metric.up_w } else { &metric.down_w };
        self.up_targets[r.clone()].iter().copied().zip(weights[r].iter().copied())
    }
}

/// Reusable point-to-point query scratch over a shared [`CustomizableCh`].
///
/// Cost-only: paths come from the cache's bidirectional engine like
/// every other backend.
pub type CchQuery = UpwardQuery<CustomizableCh>;

/// Bucket many-to-one kernel over the CCH skeleton, on the customized
/// metric.
pub type CchBuckets = UpwardBuckets<CustomizableCh>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::Dijkstra;
    use mtshare_road::{
        apply_traffic_shifts, grid_city, ring_radial_city, GridCityConfig, NodeId,
        RingRadialConfig, TrafficShiftSpec,
    };
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn tiny() -> RoadNetwork {
        grid_city(&GridCityConfig::tiny()).unwrap()
    }

    fn shift(center: u32, radius_m: f64, factor: f64) -> TrafficShiftSpec {
        TrafficShiftSpec { center: NodeId(center), radius_m, factor, start_s: 0.0, duration_s: 1.0 }
    }

    #[test]
    fn base_costs_bit_identical_to_dijkstra_on_grid_and_ring() {
        for g in [tiny(), ring_radial_city(&RingRadialConfig::default()).unwrap()] {
            let cch = Arc::new(CustomizableCh::build(&g));
            let mut q = CchQuery::new(cch);
            let mut d = Dijkstra::new(&g);
            let mut rng = SmallRng::seed_from_u64(21);
            for _ in 0..150 {
                let s = NodeId(rng.gen_range(0..g.node_count() as u32));
                let t = NodeId(rng.gen_range(0..g.node_count() as u32));
                assert_eq!(q.cost(s, t), d.cost(&g, s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn recustomized_costs_match_dijkstra_on_shifted_graph() {
        let g = tiny();
        let cch = Arc::new(CustomizableCh::build(&g));
        assert_eq!(cch.generation(), 0);
        let shifted = apply_traffic_shifts(&g, &[shift(0, 500.0, 2.5)]).unwrap();
        assert_eq!(cch.customize(&shifted), 1);
        assert_eq!(cch.metric_graph_digest(), shifted.digest());

        let mut q = CchQuery::new(cch.clone());
        let mut d = Dijkstra::new(&shifted);
        let mut rng = SmallRng::seed_from_u64(22);
        for _ in 0..150 {
            let s = NodeId(rng.gen_range(0..g.node_count() as u32));
            let t = NodeId(rng.gen_range(0..g.node_count() as u32));
            assert_eq!(q.cost(s, t), d.cost(&shifted, s, t), "{s}->{t}");
        }

        // Restoring the base metric restores base answers exactly.
        assert_eq!(cch.customize(&g), 2);
        let mut db = Dijkstra::new(&g);
        for _ in 0..60 {
            let s = NodeId(rng.gen_range(0..g.node_count() as u32));
            let t = NodeId(rng.gen_range(0..g.node_count() as u32));
            assert_eq!(q.cost(s, t), db.cost(&g, s, t), "{s}->{t}");
        }
        assert_eq!(cch.stats().customizations, 3);
    }

    #[test]
    fn buckets_match_per_pair_dijkstra_across_customizations() {
        let g = tiny();
        let cch = Arc::new(CustomizableCh::build(&g));
        let mut b = CchBuckets::new(cch.clone());
        let mut rng = SmallRng::seed_from_u64(23);
        for round in 0..4 {
            let graph = if round % 2 == 0 {
                g.clone()
            } else {
                apply_traffic_shifts(&g, &[shift(round * 37, 400.0, 1.8)]).unwrap()
            };
            cch.customize(&graph);
            let mut d = Dijkstra::new(&graph);
            let target = NodeId(rng.gen_range(0..g.node_count() as u32));
            let sources: Vec<NodeId> =
                (0..16).map(|_| NodeId(rng.gen_range(0..g.node_count() as u32))).collect();
            let got = b.many_to_one(&sources, target);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(got[i], d.cost(&graph, s, target), "round {round}: {s}->{target}");
            }
        }
    }

    #[test]
    fn self_and_unreachable_queries() {
        use mtshare_road::{EdgeSpec, GeoPoint};
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        let cch = Arc::new(CustomizableCh::build(&g));
        let mut q = CchQuery::new(cch.clone());
        assert_eq!(q.cost(NodeId(0), NodeId(0)), Some(0.0));
        assert!(q.cost(NodeId(0), NodeId(1)).is_some());
        assert_eq!(q.cost(NodeId(1), NodeId(0)), None);
        let mut b = CchBuckets::new(cch);
        assert_eq!(b.many_to_one(&[NodeId(0), NodeId(1)], NodeId(0)), vec![Some(0.0), None]);
    }

    #[test]
    fn build_is_deterministic() {
        let g = tiny();
        let a = CustomizableCh::build(&g);
        let b = CustomizableCh::build(&g);
        assert_eq!(a.artifact_digest(), b.artifact_digest());
        assert!(a.fill_arc_count() > 0);
        assert!(a.memory_bytes() > 0);
    }

    #[test]
    fn artifact_round_trips_and_rejects_stale_or_wrong_version() {
        let dir = std::env::temp_dir().join(format!("mtshare-cch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cch.mtsnap");
        let g = tiny();

        let built = CustomizableCh::build(&g);
        built.save(&path).unwrap();
        let loaded = CustomizableCh::load(&path, &g).unwrap();
        assert_eq!(loaded.artifact_digest(), built.artifact_digest());
        assert_eq!(loaded.generation(), 0);
        // Loaded hierarchies keep customizing from where the file left off.
        assert_eq!(loaded.customize(&g), 1);

        // Wrong graph: digest mismatch, load_or_build rebuilds.
        let other = grid_city(&GridCityConfig { seed: 99, ..GridCityConfig::tiny() }).unwrap();
        assert!(matches!(CustomizableCh::load(&path, &other), Err(PersistError::Mismatch(_))));
        let (rebuilt, was_rebuilt) = CustomizableCh::load_or_build(&path, &other).unwrap();
        assert!(was_rebuilt);
        assert_eq!(rebuilt.graph_digest(), other.digest());

        // Wrong version: typed error, artifact left intact.
        let mut enc = Encoder::new();
        enc.bytes(ARTIFACT_TAG);
        enc.u32(1);
        enc.u64(other.digest());
        write_snapshot(&path, &enc.into_bytes()).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(
            CustomizableCh::load(&path, &other),
            Err(PersistError::UnsupportedVersion { found: 1, expected: ARTIFACT_VERSION })
        ));
        assert!(matches!(
            CustomizableCh::load_or_build(&path, &other),
            Err(PersistError::UnsupportedVersion { .. })
        ));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
