//! Contraction hierarchies: preprocessed exact routing (Geisberger et al.).
//!
//! Preprocessing contracts vertices one by one in increasing "importance",
//! inserting shortcut edges that preserve all shortest-path costs among the
//! not-yet-contracted rest. A point-to-point query is then a pair of tiny
//! Dijkstra searches that only ever relax edges toward *more* important
//! vertices: forward from the source over the upward graph, backward from
//! the target over the downward graph, joined at the best meeting vertex.
//! On city grids this settles a few hundred vertices where bidirectional
//! Dijkstra settles tens of thousands. The search itself (and the bucket
//! many-to-one sweep) is the kernel shared with the customizable
//! hierarchy (`upward.rs`); this module builds, persists and unpacks.
//!
//! # Node ordering and parallel construction
//!
//! Edge-difference ordering: a vertex's key is dominated by the number of
//! shortcuts its contraction inserts minus the edges it removes,
//! tie-broken by the shortcut/removed quotient, the unpacked hop count of
//! the needed shortcuts, and the number of already-contracted neighbours
//! (uniformity); node id breaks exact key ties.
//!
//! Construction is **level-synchronous**: each round (a) recomputes keys
//! of vertices whose neighbourhood changed, (b) selects the deterministic
//! independent set of *locally minimal* vertices — `v` is selected iff
//! `(key[v], v)` beats `(key[u], u)` for every uncontracted overlay
//! neighbour `u` — and (c) simulates all selected contractions against
//! the frozen overlay. Selection, key recompute, and simulation fan out
//! over `mtshare-par` workers (read-only, results joined in index order);
//! contractions are then *applied* sequentially in ascending vertex id,
//! which also assigns ranks. No two selected vertices are adjacent, so a
//! simulation never sees a peer's edits: the applied shortcuts — and
//! therefore the artifact bytes — are identical at any worker count.
//! The round emulates that sequential order, so a witness for `v` may
//! not pass through a same-round vertex with a **smaller id** — it is
//! gone when `v`'s turn comes (else two selected vertices on equal-cost
//! alternatives witness each other and both omit the shortcut). Witness
//! searches simulated one round stale can otherwise at worst miss a newly
//! cheaper witness, costing a redundant shortcut, never correctness.
//! Small tails (≤ `SEQ_TAIL` vertices) contract one-by-one — the exact
//! same rule with a singleton set — to skip per-round overhead where
//! parallelism has nothing left to win.
//!
//! # Exactness
//!
//! Shortcut weights are `f32` sums of `f32` edge weights. Because
//! [`RoadNetwork`] quantizes every edge cost to the dyadic grid
//! (`mtshare_road::COST_QUANTUM_S`), those sums are *exact*, so a CH query
//! returns bit-identical costs to plain Dijkstra — asserted with `==` in
//! the equivalence suite, no tolerance.
//!
//! # Persistence
//!
//! The preprocessed hierarchy serializes into a CRC-framed
//! `mtshare-persist` snapshot keyed by [`RoadNetwork::digest`], so warm
//! restarts and repeat benchmarks skip preprocessing; a digest mismatch or
//! a corrupt frame triggers a rebuild instead of trusting a stale file.

use crate::dijkstra::HeapEntry;
use crate::upward::{SearchCounters, UpwardBuckets, UpwardGraph, UpwardQuery};
use mtshare_persist::{fnv1a_64, read_snapshot, write_snapshot, Decoder, Encoder, PersistError};
use mtshare_road::{NodeId, RoadNetwork};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::Ordering::Relaxed;

/// `via` marker for original (non-shortcut) edges.
const NO_VIA: u32 = u32::MAX;

/// Witness searches stop after settling this many vertices; an undetected
/// witness only costs a redundant shortcut, never correctness. The budget
/// trades preprocessing time for hierarchy sparsity (and thus query
/// speed); 4096 keeps grid hierarchies close to witness-complete (the
/// through-cost cap bounds the search long before the settle limit on
/// low-rank contractions, so the budget mostly matters near the top).
const WITNESS_SETTLE_LIMIT: usize = 4096;

/// Inner payload tag of the persisted artifact.
const ARTIFACT_TAG: &[u8; 4] = b"MTCH";

/// Inner payload version of the persisted artifact. v2 added the metric
/// generation counter (always 0 for a plain CH, which bakes the metric
/// into the hierarchy; customizable hierarchies count customizations).
/// v3 = same layout; refuses files of the v2 builder (dropped tie shortcuts).
const ARTIFACT_VERSION: u32 = 3;

/// Below this many remaining vertices, contraction proceeds one vertex
/// per round: per-round fan-out overhead exceeds the win on tiny tails.
const SEQ_TAIL: usize = 64;

/// Query counters of a [`ContractionHierarchy`] (profiling only — they are
/// excluded from determinism comparisons like every other wall-clock or
/// scheduling-dependent statistic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChStats {
    /// Point-to-point searches answered.
    pub p2p_queries: u64,
    /// Bucket many-to-one sweeps performed.
    pub bucket_sweeps: u64,
    /// Total sources across all bucket sweeps.
    pub bucket_sources: u64,
}

/// One edge of the preprocessing overlay graph.
#[derive(Debug, Clone, Copy)]
struct OverlayEdge {
    node: u32,
    w: f32,
    via: u32,
    hops: u32,
}

/// A shortcut `(from, to)` scheduled by a contraction simulation.
struct Shortcut {
    from: u32,
    to: u32,
    w: f32,
    hops: u32,
}

/// The preprocessed hierarchy: ranks plus upward/downward search graphs in
/// CSR form. Immutable after construction; share it with `Arc`.
#[derive(Debug)]
pub struct ContractionHierarchy {
    graph_digest: u64,
    /// Contraction order per vertex (0 = contracted first = least
    /// important).
    rank: Vec<u32>,
    // Upward graph: original-direction edges u -> v with rank[v] > rank[u].
    up_offsets: Vec<u32>,
    up_targets: Vec<u32>,
    up_weights: Vec<f32>,
    up_via: Vec<u32>,
    // Downward graph, indexed by the *lower* endpoint v: incoming edges
    // u -> v with rank[u] > rank[v] (the backward search relaxes these).
    down_offsets: Vec<u32>,
    down_sources: Vec<u32>,
    down_weights: Vec<f32>,
    down_via: Vec<u32>,
    shortcuts: u64,
    stats: SearchCounters,
}

/// Scratch state of one bounded witness search: a dense tentative-cost
/// array (∞ = unreached) reset through the list of vertices it touched,
/// and the marks of the vertices the search is looking for.
struct WitnessScratch {
    dist: Vec<f32>,
    touched: Vec<u32>,
    target: Vec<bool>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl WitnessScratch {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![f32::INFINITY; n],
            touched: Vec::new(),
            target: vec![false; n],
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    fn reach(&mut self, node: u32, cost: f32) {
        if self.dist[node as usize] == f32::INFINITY {
            self.touched.push(node);
        }
        self.dist[node as usize] = cost;
        self.heap.push(Reverse(HeapEntry { cost, node: NodeId(node) }));
    }
}

/// Mutable preprocessing state: the overlay graph of uncontracted
/// vertices.
struct Builder {
    fwd: Vec<Vec<OverlayEdge>>,
    bwd: Vec<Vec<OverlayEdge>>,
    deleted_neighbors: Vec<u32>,
    /// Selected in the round being simulated (all false while keying).
    in_round: Vec<bool>,
}

impl Builder {
    fn new(graph: &RoadNetwork) -> Self {
        let n = graph.node_count();
        let mut fwd: Vec<Vec<OverlayEdge>> = vec![Vec::new(); n];
        let mut bwd: Vec<Vec<OverlayEdge>> = vec![Vec::new(); n];
        // Parallel edges collapse to their minimum: only the cheapest can
        // carry a shortest path, and one entry per neighbour keeps the
        // upsert logic linear.
        for u in graph.nodes() {
            let mut best: FxHashMap<u32, f32> = FxHashMap::default();
            for (v, w) in graph.out_edges(u) {
                if v == u {
                    continue;
                }
                let e = best.entry(v.0).or_insert(f32::INFINITY);
                if w < *e {
                    *e = w;
                }
            }
            let mut edges: Vec<(u32, f32)> = best.into_iter().collect();
            edges.sort_by_key(|&(v, _)| v);
            for (v, w) in edges {
                fwd[u.index()].push(OverlayEdge { node: v, w, via: NO_VIA, hops: 1 });
                bwd[v as usize].push(OverlayEdge { node: u.0, w, via: NO_VIA, hops: 1 });
            }
        }
        Self { fwd, bwd, deleted_neighbors: vec![0; n], in_round: vec![false; n] }
    }

    /// Bounded Dijkstra from `from` on the overlay, skipping `avoid` and
    /// same-round vertices applied before it (smaller id), pruned at
    /// `cap`; stops once `targets` vertices marked in `scratch.target`
    /// (other than `from`) are settled — their costs are final, so
    /// stopping early cannot change a result. Populates `scratch.dist`.
    fn witness_search(
        &self,
        from: u32,
        avoid: u32,
        cap: f32,
        mut targets: usize,
        scratch: &mut WitnessScratch,
    ) {
        for t in scratch.touched.drain(..) {
            scratch.dist[t as usize] = f32::INFINITY;
        }
        scratch.heap.clear();
        scratch.reach(from, 0.0);
        let mut settled = 0usize;
        while let Some(Reverse(HeapEntry { cost, node })) = scratch.heap.pop() {
            if cost > scratch.dist[node.index()] {
                continue;
            }
            if cost > cap {
                break;
            }
            settled += 1;
            if settled > WITNESS_SETTLE_LIMIT {
                break;
            }
            if scratch.target[node.index()] && node.0 != from {
                targets -= 1;
                if targets == 0 {
                    break;
                }
            }
            for e in &self.fwd[node.index()] {
                if e.node == avoid || (e.node < avoid && self.in_round[e.node as usize]) {
                    continue;
                }
                let nc = cost + e.w;
                if nc <= cap && nc < scratch.dist[e.node as usize] {
                    scratch.reach(e.node, nc);
                }
            }
        }
    }

    /// Simulates contracting `v`: the shortcuts that must be inserted and
    /// the number of overlay edges removed.
    fn shortcuts_for(&self, v: u32, scratch: &mut WitnessScratch) -> (Vec<Shortcut>, usize) {
        let ins = &self.bwd[v as usize];
        let outs = &self.fwd[v as usize];
        let removed = ins.len() + outs.len();
        if ins.is_empty() || outs.is_empty() {
            return (Vec::new(), removed);
        }
        let mut shortcuts = Vec::new();
        for e in outs {
            scratch.target[e.node as usize] = true;
        }
        for ein in ins {
            let others = outs.iter().filter(|e| e.node != ein.node);
            let cap = others.clone().map(|e| ein.w + e.w).fold(0.0f32, f32::max);
            let targets = others.count();
            if targets == 0 {
                continue;
            }
            self.witness_search(ein.node, v, cap, targets, scratch);
            for eout in outs {
                if eout.node == ein.node {
                    continue;
                }
                let through = ein.w + eout.w;
                let witness = scratch.dist[eout.node as usize];
                if witness > through {
                    shortcuts.push(Shortcut {
                        from: ein.node,
                        to: eout.node,
                        w: through,
                        hops: ein.hops + eout.hops,
                    });
                }
            }
        }
        for e in outs {
            scratch.target[e.node as usize] = false;
        }
        (shortcuts, removed)
    }

    /// Ordering key of `v` (smaller contracts earlier): edge difference,
    /// then the shortcut/removed quotient, unpacked hop volume, and
    /// contracted-neighbour count as tie-breaks. Node id breaks exact
    /// ties in the heap ordering.
    fn key(&self, v: u32, scratch: &mut WitnessScratch) -> f32 {
        let (shortcuts, removed) = self.shortcuts_for(v, scratch);
        let added = shortcuts.len() as f32;
        let removed_f = removed.max(1) as f32;
        let hops: u32 = shortcuts.iter().map(|s| s.hops).sum();
        4.0 * (added - removed as f32)
            + added / removed_f
            + 0.25 * hops as f32
            + self.deleted_neighbors[v as usize] as f32
    }

    /// Applies the contraction of `v`: removes it from the overlay and
    /// inserts `shortcuts`.
    fn contract(&mut self, v: u32, shortcuts: Vec<Shortcut>) {
        let ins = std::mem::take(&mut self.bwd[v as usize]);
        let outs = std::mem::take(&mut self.fwd[v as usize]);
        for e in &ins {
            self.fwd[e.node as usize].retain(|x| x.node != v);
            self.deleted_neighbors[e.node as usize] += 1;
        }
        for e in &outs {
            self.bwd[e.node as usize].retain(|x| x.node != v);
            self.deleted_neighbors[e.node as usize] += 1;
        }
        for s in shortcuts {
            upsert(&mut self.fwd[s.from as usize], s.to, s.w, v, s.hops);
            upsert(&mut self.bwd[s.to as usize], s.from, s.w, v, s.hops);
        }
        // Keep the removed adjacency for the CSR build.
        self.bwd[v as usize] = ins;
        self.fwd[v as usize] = outs;
    }
}

/// Inserts or min-replaces the overlay edge toward `node`.
fn upsert(adj: &mut Vec<OverlayEdge>, node: u32, w: f32, via: u32, hops: u32) {
    if let Some(e) = adj.iter_mut().find(|e| e.node == node) {
        if w < e.w {
            e.w = w;
            e.via = via;
            e.hops = hops;
        }
    } else {
        adj.push(OverlayEdge { node, w, via, hops });
    }
}

impl ContractionHierarchy {
    /// Preprocesses `graph` into a hierarchy using level-synchronous
    /// parallel contraction over `workers` fork-join workers (see the
    /// module docs). The node order — and the artifact byte layout — is
    /// a pure function of the graph, byte-identical at any worker count.
    pub fn build(graph: &RoadNetwork, workers: usize) -> Self {
        let n = graph.node_count();
        let mut builder = Builder::new(graph);
        let original_edges: u64 = builder.fwd.iter().map(|a| a.len() as u64).sum();

        let mut states: Vec<WitnessScratch> =
            (0..workers.max(1)).map(|_| WitnessScratch::new(n)).collect();

        // Initial keys: one independent, read-only simulation per vertex.
        let mut keys = {
            let b = &builder;
            mtshare_par::par_map_with(&mut states, n, |i, scratch| b.key(i as u32, scratch))
        };

        let mut rank = vec![0u32; n];
        let mut contracted = vec![false; n];
        let mut next_rank = 0u32;
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        // Dirty marks: vertices whose key must be refreshed next round.
        let mut dirty = vec![false; n];
        let mut marked: Vec<u32> = Vec::new();

        while !remaining.is_empty() {
            // Select the independent set of locally minimal vertices.
            // Read-only scan; `remaining` stays sorted ascending, so the
            // selected set comes out in ascending id order too.
            let selected: Vec<u32> = if remaining.len() <= SEQ_TAIL {
                // Tail: one vertex per round (the global minimum) — same
                // rule, singleton set, no fan-out overhead.
                let &v = remaining
                    .iter()
                    .min_by(|&&a, &&b| {
                        keys[a as usize].total_cmp(&keys[b as usize]).then(a.cmp(&b))
                    })
                    .expect("remaining is non-empty");
                vec![v]
            } else {
                let flags = {
                    let b = &builder;
                    let keys = &keys;
                    let rem = &remaining;
                    mtshare_par::par_map_with(&mut states, rem.len(), |i, _| {
                        let v = rem[i];
                        let kv = keys[v as usize];
                        b.fwd[v as usize].iter().chain(b.bwd[v as usize].iter()).all(|e| {
                            let ku = keys[e.node as usize];
                            kv.total_cmp(&ku).then(v.cmp(&e.node)).is_lt()
                        })
                    })
                };
                remaining.iter().zip(&flags).filter_map(|(&v, &s)| s.then_some(v)).collect()
            };
            debug_assert!(!selected.is_empty(), "the global minimum is always selected");

            // Simulate every selected contraction against the frozen
            // overlay (read-only, parallel). Selected vertices are
            // pairwise non-adjacent, so no simulation can observe another
            // selected vertex's edits.
            for &v in &selected {
                builder.in_round[v as usize] = true;
            }
            let sims: Vec<Vec<Shortcut>> = {
                let b = &builder;
                let sel = &selected;
                mtshare_par::par_map_with(&mut states, sel.len(), |i, scratch| {
                    b.shortcuts_for(sel[i], scratch).0
                })
            };
            for &v in &selected {
                builder.in_round[v as usize] = false;
            }

            // Apply sequentially in ascending vertex id; ranks follow the
            // application order. Mark the star dirty first: those
            // vertices lose edges, gain a contracted neighbour, and are
            // the endpoints of every inserted shortcut.
            for (&v, shortcuts) in selected.iter().zip(sims) {
                for e in builder.fwd[v as usize].iter().chain(builder.bwd[v as usize].iter()) {
                    if !dirty[e.node as usize] {
                        dirty[e.node as usize] = true;
                        marked.push(e.node);
                    }
                }
                builder.contract(v, shortcuts);
                rank[v as usize] = next_rank;
                contracted[v as usize] = true;
                next_rank += 1;
            }

            // Drop the contracted vertices from the remaining set, then
            // refresh the keys of dirty survivors (read-only, parallel).
            let mut sel_it = selected.iter().peekable();
            remaining.retain(|&v| {
                if sel_it.peek() == Some(&&v) {
                    sel_it.next();
                    false
                } else {
                    true
                }
            });
            marked.sort_unstable();
            let refresh: Vec<u32> =
                marked.iter().copied().filter(|&v| !contracted[v as usize]).collect();
            let fresh = {
                let b = &builder;
                let list = &refresh;
                mtshare_par::par_map_with(&mut states, list.len(), |i, scratch| {
                    b.key(list[i], scratch)
                })
            };
            for (&v, k) in refresh.iter().zip(fresh) {
                keys[v as usize] = k;
            }
            for &v in &marked {
                dirty[v as usize] = false;
            }
            marked.clear();
        }

        // CSR assembly: at contraction time every remaining neighbour of a
        // vertex outranks it, so its frozen adjacency is exactly its
        // upward (out) and downward (in) star. Sorted by neighbour id for
        // a canonical byte layout.
        let mut up_offsets = Vec::with_capacity(n + 1);
        let mut up_targets = Vec::new();
        let mut up_weights = Vec::new();
        let mut up_via = Vec::new();
        let mut down_offsets = Vec::with_capacity(n + 1);
        let mut down_sources = Vec::new();
        let mut down_weights = Vec::new();
        let mut down_via = Vec::new();
        up_offsets.push(0u32);
        down_offsets.push(0u32);
        for v in 0..n {
            let mut ups = std::mem::take(&mut builder.fwd[v]);
            ups.sort_by_key(|e| e.node);
            for e in ups {
                up_targets.push(e.node);
                up_weights.push(e.w);
                up_via.push(e.via);
            }
            up_offsets.push(up_targets.len() as u32);
            let mut downs = std::mem::take(&mut builder.bwd[v]);
            downs.sort_by_key(|e| e.node);
            for e in downs {
                down_sources.push(e.node);
                down_weights.push(e.w);
                down_via.push(e.via);
            }
            down_offsets.push(down_sources.len() as u32);
        }
        let total_edges = up_targets.len() as u64;
        Self {
            graph_digest: graph.digest(),
            rank,
            up_offsets,
            up_targets,
            up_weights,
            up_via,
            down_offsets,
            down_sources,
            down_weights,
            down_via,
            shortcuts: total_edges.saturating_sub(original_edges),
            stats: SearchCounters::default(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rank.len()
    }

    /// Number of shortcut edges the preprocessing inserted.
    #[inline]
    pub fn shortcut_count(&self) -> u64 {
        self.shortcuts
    }

    /// Digest of the road network this hierarchy was built from.
    #[inline]
    pub fn graph_digest(&self) -> u64 {
        self.graph_digest
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> ChStats {
        ChStats {
            p2p_queries: self.stats.p2p_queries.load(Relaxed),
            bucket_sweeps: self.stats.bucket_sweeps.load(Relaxed),
            bucket_sources: self.stats.bucket_sources.load(Relaxed),
        }
    }

    /// Approximate resident memory of the search graphs in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.rank.len() * 4
            + (self.up_offsets.len() + self.down_offsets.len()) * 4
            + self.up_targets.len() * 12
            + self.down_sources.len() * 12
    }

    /// The arcs the `forward` (up-graph) or backward (down-graph) search
    /// relaxes, all indexed by their *lower* endpoint: CSR offsets, the
    /// higher endpoints, weights and shortcut middle vertices.
    #[inline]
    fn csr(&self, forward: bool) -> (&[u32], &[u32], &[f32], &[u32]) {
        if forward {
            (&self.up_offsets, &self.up_targets, &self.up_weights, &self.up_via)
        } else {
            (&self.down_offsets, &self.down_sources, &self.down_weights, &self.down_via)
        }
    }

    // ---- persistence ----------------------------------------------------

    /// Canonical artifact payload (v3): tag, version, graph digest,
    /// metric generation, then every array with an explicit length.
    fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.bytes(ARTIFACT_TAG);
        enc.u32(ARTIFACT_VERSION);
        enc.u64(self.graph_digest);
        enc.u64(0); // metric generation: a plain CH bakes the base metric in
        enc.u32(self.rank.len() as u32);
        for chunk in [&self.rank, &self.up_offsets, &self.up_targets, &self.up_via] {
            enc.u64(chunk.len() as u64);
            for &x in chunk.iter() {
                enc.u32(x);
            }
        }
        enc.u64(self.up_weights.len() as u64);
        for &w in &self.up_weights {
            enc.u32(w.to_bits());
        }
        for chunk in [&self.down_offsets, &self.down_sources, &self.down_via] {
            enc.u64(chunk.len() as u64);
            for &x in chunk.iter() {
                enc.u32(x);
            }
        }
        enc.u64(self.down_weights.len() as u64);
        for &w in &self.down_weights {
            enc.u32(w.to_bits());
        }
        enc.u64(self.shortcuts);
        enc.into_bytes()
    }

    /// FNV-1a digest of the canonical artifact payload. Two hierarchies
    /// with equal digests are byte-identical on disk — the property the
    /// any-worker-count determinism suite asserts.
    pub fn artifact_digest(&self) -> u64 {
        fnv1a_64(&self.encode())
    }

    /// Serializes the hierarchy into a CRC-framed snapshot at `path`.
    /// Returns the file size in bytes.
    pub fn save(&self, path: &std::path::Path) -> Result<u64, PersistError> {
        write_snapshot(path, &self.encode()).map(|stats| stats.bytes)
    }

    /// Loads a hierarchy from `path`, validating the CRC frame and that it
    /// was built from exactly this `graph` (digest match).
    pub fn load(path: &std::path::Path, graph: &RoadNetwork) -> Result<Self, PersistError> {
        let payload = read_snapshot(path)?;
        let mut dec = Decoder::new(&payload);
        if dec.bytes()? != ARTIFACT_TAG {
            return Err(PersistError::Corrupt(format!(
                "{}: not a contraction-hierarchy artifact",
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
        let digest = dec.u64()?;
        if digest != graph.digest() {
            return Err(PersistError::Mismatch(format!(
                "{}: built for graph {digest:#018x}, current graph is {:#018x}",
                path.display(),
                graph.digest()
            )));
        }
        let generation = dec.u64()?;
        if generation != 0 {
            return Err(PersistError::Mismatch(format!(
                "{}: customized artifact (metric generation {generation}), a plain CH \
                 artifact must be generation 0",
                path.display()
            )));
        }
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
        let rank = read_u32s(&mut dec)?;
        let up_offsets = read_u32s(&mut dec)?;
        let up_targets = read_u32s(&mut dec)?;
        let up_via = read_u32s(&mut dec)?;
        let up_weights: Vec<f32> = read_u32s(&mut dec)?.into_iter().map(f32::from_bits).collect();
        let down_offsets = read_u32s(&mut dec)?;
        let down_sources = read_u32s(&mut dec)?;
        let down_via = read_u32s(&mut dec)?;
        let down_weights: Vec<f32> = read_u32s(&mut dec)?.into_iter().map(f32::from_bits).collect();
        let shortcuts = dec.u64()?;
        if rank.len() != n || up_offsets.len() != n + 1 || down_offsets.len() != n + 1 {
            return Err(PersistError::Corrupt(format!(
                "{}: inconsistent array arities",
                path.display()
            )));
        }
        Ok(Self {
            graph_digest: digest,
            rank,
            up_offsets,
            up_targets,
            up_weights,
            up_via,
            down_offsets,
            down_sources,
            down_weights,
            down_via,
            shortcuts,
            stats: SearchCounters::default(),
        })
    }

    /// Loads the artifact at `path` if it is valid for `graph`; a missing,
    /// corrupt, or wrong-graph artifact triggers a rebuild from scratch
    /// and a (best-effort) rewrite. A *version* mismatch is different: the
    /// file is a healthy artifact from an incompatible build, so silently
    /// clobbering it would be destructive — it propagates as
    /// [`PersistError::UnsupportedVersion`] for the caller to surface.
    /// Returns the hierarchy and whether it was rebuilt.
    pub fn load_or_build(
        path: &std::path::Path,
        graph: &RoadNetwork,
        workers: usize,
    ) -> Result<(Self, bool), PersistError> {
        match Self::load(path, graph) {
            Ok(ch) => Ok((ch, false)),
            Err(e @ PersistError::UnsupportedVersion { .. }) => Err(e),
            Err(_) => {
                let ch = Self::build(graph, workers);
                let _ = ch.save(path);
                Ok((ch, true))
            }
        }
    }
}

impl UpwardGraph for ContractionHierarchy {
    /// Order and shortcut weights bake the metric in.
    type Metric = ();

    /// Witness searches make every shortcut weight an exact distance.
    const STALL_ON_DEMAND: bool = true;

    fn node_count(&self) -> usize {
        self.rank.len()
    }

    fn counters(&self) -> &SearchCounters {
        &self.stats
    }

    fn snapshot(&self) {}

    fn refresh(&self, _: &mut ()) {}

    #[inline]
    fn arcs(&self, _: &(), forward: bool, v: u32) -> impl Iterator<Item = (u32, f32)> {
        let (offsets, heads, weights, _) = self.csr(forward);
        let r = offsets[v as usize] as usize..offsets[v as usize + 1] as usize;
        heads[r.clone()].iter().copied().zip(weights[r].iter().copied())
    }
}

/// Reusable point-to-point query state over a shared hierarchy.
pub type ChQuery = UpwardQuery<ContractionHierarchy>;

/// Bucket many-to-one kernel over a shared hierarchy.
pub type ChBuckets = UpwardBuckets<ContractionHierarchy>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bidirectional::BidirDijkstra;
    use crate::dijkstra::Dijkstra;
    use mtshare_road::{grid_city, ring_radial_city, GridCityConfig, RingRadialConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn tiny() -> RoadNetwork {
        grid_city(&GridCityConfig::tiny()).unwrap()
    }

    #[test]
    fn costs_bit_identical_to_dijkstra_on_grid() {
        let g = tiny();
        let ch = Arc::new(ContractionHierarchy::build(&g, 2));
        let mut q = ChQuery::new(ch);
        let mut d = Dijkstra::new(&g);
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..200 {
            let s = NodeId(rng.gen_range(0..g.node_count() as u32));
            let t = NodeId(rng.gen_range(0..g.node_count() as u32));
            assert_eq!(q.cost(s, t), d.cost(&g, s, t), "{s}->{t}");
        }
    }

    #[test]
    fn costs_bit_identical_on_ring_radial() {
        let g = ring_radial_city(&RingRadialConfig::default()).unwrap();
        let ch = Arc::new(ContractionHierarchy::build(&g, 1));
        let mut q = ChQuery::new(ch);
        let mut d = Dijkstra::new(&g);
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..120 {
            let s = NodeId(rng.gen_range(0..g.node_count() as u32));
            let t = NodeId(rng.gen_range(0..g.node_count() as u32));
            assert_eq!(q.cost(s, t), d.cost(&g, s, t), "{s}->{t}");
        }
    }

    #[test]
    fn build_is_independent_of_worker_count() {
        let g = tiny();
        let a = ContractionHierarchy::build(&g, 1);
        let b = ContractionHierarchy::build(&g, 4);
        assert_eq!(a.rank, b.rank);
        assert_eq!(a.up_targets, b.up_targets);
        assert_eq!(a.down_sources, b.down_sources);
        assert_eq!(a.shortcut_count(), b.shortcut_count());
        // The full byte-identity contract: equal artifact digests.
        assert_eq!(a.artifact_digest(), b.artifact_digest());
        assert_eq!(a.artifact_digest(), ContractionHierarchy::build(&g, 2).artifact_digest());
    }

    #[test]
    fn self_and_unreachable_queries() {
        use mtshare_road::{EdgeSpec, GeoPoint};
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = RoadNetwork::new(pts, &edges).unwrap();
        let ch = Arc::new(ContractionHierarchy::build(&g, 1));
        let mut q = ChQuery::new(ch.clone());
        assert_eq!(q.cost(NodeId(0), NodeId(0)), Some(0.0));
        assert_eq!(q.cost(NodeId(1), NodeId(0)), None);
        let mut b = ChBuckets::new(ch);
        let out = b.many_to_one(&[NodeId(0), NodeId(1)], NodeId(0));
        assert_eq!(out, vec![Some(0.0), None]);
    }

    #[test]
    fn buckets_match_per_pair_dijkstra_exactly() {
        let g = tiny();
        let ch = Arc::new(ContractionHierarchy::build(&g, 2));
        let mut b = ChBuckets::new(ch);
        let mut d = Dijkstra::new(&g);
        let mut rng = SmallRng::seed_from_u64(14);
        for _ in 0..6 {
            let target = NodeId(rng.gen_range(0..g.node_count() as u32));
            let sources: Vec<NodeId> =
                (0..24).map(|_| NodeId(rng.gen_range(0..g.node_count() as u32))).collect();
            let got = b.many_to_one(&sources, target);
            for (i, &s) in sources.iter().enumerate() {
                assert_eq!(got[i], d.cost(&g, s, target), "{s}->{target}");
            }
        }
        let st = b.hierarchy().stats();
        assert_eq!(st.bucket_sweeps, 6);
        assert_eq!(st.bucket_sources, 6 * 24);
    }

    #[test]
    fn queries_settle_far_fewer_vertices_than_bidirectional() {
        let g = grid_city(&GridCityConfig { rows: 40, cols: 40, ..Default::default() }).unwrap();
        let ch = Arc::new(ContractionHierarchy::build(&g, 2));
        let mut q = ChQuery::new(ch);
        let mut bi = BidirDijkstra::new(&g);
        let (s, t) = (NodeId(0), NodeId(g.node_count() as u32 - 1));
        assert_eq!(q.cost(s, t).unwrap(), bi.cost(&g, s, t).unwrap());
        assert!(
            q.last_settled() < g.node_count() / 4,
            "CH settled {} of {} vertices",
            q.last_settled(),
            g.node_count()
        );
    }

    #[test]
    fn artifact_round_trips_and_rejects_wrong_graph() {
        let dir = std::env::temp_dir().join(format!("mtshare-ch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ch.mtsnap");

        let g = tiny();
        let built = ContractionHierarchy::build(&g, 2);
        built.save(&path).unwrap();
        let loaded = ContractionHierarchy::load(&path, &g).unwrap();
        assert_eq!(built.rank, loaded.rank);
        assert_eq!(built.up_weights, loaded.up_weights);
        assert_eq!(built.shortcut_count(), loaded.shortcut_count());
        // Identical query results after the round trip.
        let mut q1 = ChQuery::new(Arc::new(built));
        let mut q2 = ChQuery::new(Arc::new(loaded));
        let mut rng = SmallRng::seed_from_u64(15);
        for _ in 0..40 {
            let s = NodeId(rng.gen_range(0..g.node_count() as u32));
            let t = NodeId(rng.gen_range(0..g.node_count() as u32));
            assert_eq!(q1.cost(s, t), q2.cost(s, t));
        }

        // A different graph (different seed ⇒ different jitter) must be
        // rejected with a digest mismatch, and load_or_build must rebuild.
        let other = grid_city(&GridCityConfig { seed: 99, ..GridCityConfig::tiny() }).unwrap();
        assert!(matches!(
            ContractionHierarchy::load(&path, &other),
            Err(PersistError::Mismatch(_))
        ));
        let (rebuilt, was_rebuilt) = ContractionHierarchy::load_or_build(&path, &other, 2).unwrap();
        assert!(was_rebuilt);
        assert_eq!(rebuilt.graph_digest(), other.digest());
        // The rewritten artifact now loads for the new graph.
        let (_, rebuilt_again) = ContractionHierarchy::load_or_build(&path, &other, 2).unwrap();
        assert!(!rebuilt_again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_artifact_is_rebuilt_not_trusted() {
        let dir = std::env::temp_dir().join(format!("mtshare-ch-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ch.mtsnap");
        let g = tiny();
        ContractionHierarchy::build(&g, 1).save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(ContractionHierarchy::load(&path, &g), Err(PersistError::Corrupt(_))));
        let (ch, rebuilt) = ContractionHierarchy::load_or_build(&path, &g, 1).unwrap();
        assert!(rebuilt);
        assert_eq!(ch.graph_digest(), g.digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatched_artifact_is_rejected_not_clobbered() {
        let dir = std::env::temp_dir().join(format!("mtshare-ch-ver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ch.mtsnap");
        let g = tiny();

        // A healthy frame from a *previous* format version: correct tag,
        // matching graph digest, but version 1 — or version 2, whose
        // builder could drop tie shortcuts and must not be trusted. The
        // loader must fail with the typed version error — not a decode
        // panic — and load_or_build must refuse to overwrite the file.
        for old in [1u32, 2] {
            let mut enc = Encoder::new();
            enc.bytes(ARTIFACT_TAG);
            enc.u32(old);
            enc.u64(g.digest());
            enc.u32(g.node_count() as u32);
            write_snapshot(&path, &enc.into_bytes()).unwrap();
            let before = std::fs::read(&path).unwrap();

            assert!(matches!(
                ContractionHierarchy::load(&path, &g),
                Err(PersistError::UnsupportedVersion { found, expected: ARTIFACT_VERSION })
                    if found == old
            ));
            assert!(matches!(
                ContractionHierarchy::load_or_build(&path, &g, 1),
                Err(PersistError::UnsupportedVersion { .. })
            ));
            assert_eq!(std::fs::read(&path).unwrap(), before, "stale artifact must stay intact");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
