//! The search kernel both hierarchies share.
//!
//! A contraction hierarchy — plain or customizable — answers a cost query
//! with two Dijkstra searches that only relax arcs toward higher-ranked
//! vertices, joined at the cheapest meeting vertex. What differs between
//! [`crate::ContractionHierarchy`] and [`crate::CustomizableCh`] is the
//! arc storage (two weighted CSRs vs. one skeleton CSR under a swappable
//! metric) and whether stall-on-demand is sound; the [`UpwardGraph`] view
//! hides exactly that, and the two kernels here are written once over it:
//!
//! - [`UpwardQuery`]: the μ-pruned bidirectional point-to-point search
//!   (`ChQuery` / `CchQuery` are its aliases);
//! - [`UpwardBuckets`]: the bucket many-to-one sweep of Knopp et al.
//!   (`ChBuckets` / `CchBuckets`).
//!
//! Both refresh their metric snapshot at the start of every query, so a
//! re-customized hierarchy is picked up without rebuilding any scratch.

use crate::dijkstra::HeapEntry;
use mtshare_road::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Query counters every hierarchy keeps (profiling only).
#[derive(Debug, Default)]
pub struct SearchCounters {
    pub(crate) p2p_queries: AtomicU64,
    pub(crate) bucket_sweeps: AtomicU64,
    pub(crate) bucket_sources: AtomicU64,
}

/// What the kernels need to know about a hierarchy.
pub trait UpwardGraph: std::fmt::Debug {
    /// The weights one query reads: `()` when they are baked into the
    /// hierarchy, a pinned snapshot when they can be swapped at run time.
    type Metric: std::fmt::Debug;

    /// Whether a settled vertex may be skipped when a higher-ranked
    /// neighbour reaches it strictly cheaper. Sound only when every arc
    /// weight is an exact shortest-path distance.
    const STALL_ON_DEMAND: bool;

    /// Number of vertices.
    fn node_count(&self) -> usize;

    /// The hierarchy's query counters.
    fn counters(&self) -> &SearchCounters;

    /// The current metric.
    fn snapshot(&self) -> Self::Metric;

    /// Replaces `held` if the hierarchy's metric moved since it was taken.
    fn refresh(&self, held: &mut Self::Metric);

    /// `(head, weight)` of every arc the `forward` (from the source) or
    /// backward (from the target) search relaxes at `v`; all heads outrank
    /// `v`. An infinite weight stands for "no road in this direction".
    fn arcs(
        &self,
        metric: &Self::Metric,
        forward: bool,
        v: u32,
    ) -> impl Iterator<Item = (u32, f32)>;
}

/// Tentative costs and the heap of one search direction, cleared lazily
/// through an epoch counter.
#[derive(Debug)]
struct Frontier {
    dist: Vec<f32>,
    epoch_of: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl Frontier {
    fn new(n: usize) -> Self {
        Self {
            dist: vec![f32::INFINITY; n],
            epoch_of: vec![0; n],
            epoch: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Starts a fresh search rooted at `start`.
    fn begin(&mut self, start: u32) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.epoch_of.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
        self.heap.clear();
        self.reach(start, 0.0);
    }

    #[inline]
    fn dist(&self, v: u32) -> f32 {
        if self.epoch_of[v as usize] == self.epoch {
            self.dist[v as usize]
        } else {
            f32::INFINITY
        }
    }

    #[inline]
    fn reach(&mut self, v: u32, cost: f32) {
        self.epoch_of[v as usize] = self.epoch;
        self.dist[v as usize] = cost;
        self.heap.push(Reverse(HeapEntry { cost, node: NodeId(v) }));
    }

    /// Whether a higher-ranked neighbour already reaches `v` strictly
    /// cheaper than `cost`: `v` is then off every shortest up-down path
    /// through this direction. `entering` are the arcs the *opposite*
    /// direction relaxes at `v` — the same roads, seen from their heads.
    #[inline]
    fn stalled(&self, cost: f32, mut entering: impl Iterator<Item = (u32, f32)>) -> bool {
        entering.any(|(u, w)| self.dist(u) + w < cost)
    }

    /// Relaxes the `leaving` arcs of `v`, settled at `cost`, pushing only
    /// improvements strictly below `bound`.
    #[inline]
    fn relax(&mut self, cost: f32, bound: f32, leaving: impl Iterator<Item = (u32, f32)>) {
        for (t, w) in leaving {
            let nc = cost + w;
            if nc < self.dist(t) && nc < bound {
                self.reach(t, nc);
            }
        }
    }
}

/// Reusable point-to-point query scratch over a shared hierarchy.
#[derive(Debug)]
pub struct UpwardQuery<H: UpwardGraph> {
    hierarchy: Arc<H>,
    metric: H::Metric,
    /// Backward (from the target) and forward (from the source) searches,
    /// indexed by `forward as usize`.
    sides: [Frontier; 2],
    settled: usize,
}

impl<H: UpwardGraph> UpwardQuery<H> {
    /// Creates query scratch sized for `hierarchy`.
    pub fn new(hierarchy: Arc<H>) -> Self {
        let n = hierarchy.node_count();
        let metric = hierarchy.snapshot();
        Self { hierarchy, metric, sides: [Frontier::new(n), Frontier::new(n)], settled: 0 }
    }

    /// The shared hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Arc<H> {
        &self.hierarchy
    }

    /// One settle step of the `forward` or backward search, with
    /// stall-on-demand where the hierarchy allows it and μ-pruning:
    /// relaxations that cannot beat the best meeting cost found so far are
    /// skipped entirely.
    fn step(&mut self, forward: bool, best: &mut f32) {
        let (d, o) = (forward as usize, !forward as usize);
        let Some(Reverse(HeapEntry { cost, node })) = self.sides[d].heap.pop() else { return };
        let v = node.0;
        if cost > self.sides[d].dist(v) {
            return;
        }
        if H::STALL_ON_DEMAND
            && self.sides[d].stalled(cost, self.hierarchy.arcs(&self.metric, !forward, v))
        {
            return;
        }
        // Meeting update on settle.
        *best = best.min(cost + self.sides[o].dist(v));
        self.settled += 1;
        // nc ≥ μ ⇒ any meet through the head costs ≥ μ: prune the push.
        self.sides[d].relax(cost, *best, self.hierarchy.arcs(&self.metric, forward, v));
    }

    /// Runs the two upward searches interleaved (cheaper frontier first)
    /// and joins them online, returning the cost. Unlike plain
    /// bidirectional Dijkstra a hierarchy search cannot stop at the first
    /// meeting vertex, but each direction *can* stop once its heap minimum
    /// reaches the best meeting cost μ — no later settle can improve on μ.
    fn search(&mut self, source: NodeId, target: NodeId) -> Option<f32> {
        self.hierarchy.counters().p2p_queries.fetch_add(1, Relaxed);
        if source == target {
            return Some(0.0);
        }
        self.hierarchy.refresh(&mut self.metric);
        self.settled = 0;
        self.sides[1].begin(source.0);
        self.sides[0].begin(target.0);

        let mut best = f32::INFINITY;
        loop {
            let f_top = self.sides[1].heap.peek().map(|e| e.0.cost);
            let b_top = self.sides[0].heap.peek().map(|e| e.0.cost);
            let f_live = f_top.is_some_and(|c| c < best);
            let b_live = b_top.is_some_and(|c| c < best);
            let forward = match (f_live, b_live) {
                (false, false) => break,
                (true, false) => true,
                (false, true) => false,
                // Both live: advance the cheaper frontier, forward on ties.
                (true, true) => f_top <= b_top,
            };
            self.step(forward, &mut best);
        }
        best.is_finite().then_some(best)
    }

    /// Exact shortest-path cost on the hierarchy's current metric, or
    /// `None` when unreachable. Bit-identical to Dijkstra on that graph.
    pub fn cost(&mut self, source: NodeId, target: NodeId) -> Option<f64> {
        self.search(source, target).map(|c| c as f64)
    }

    /// Vertices settled by the last query (for the speedup benches).
    pub fn last_settled(&self) -> usize {
        self.settled
    }
}

/// Bucket-based many-to-one kernel: exact costs from K sources to one
/// target in K upward sweeps plus a *single* downward sweep, instead of K
/// independent bidirectional searches (Knopp et al.'s many-to-many
/// algorithm, specialized to the "candidate taxis → pickup" batch shape).
#[derive(Debug)]
pub struct UpwardBuckets<H: UpwardGraph> {
    hierarchy: Arc<H>,
    metric: H::Metric,
    buckets: Vec<Vec<(u32, f32)>>,
    touched: Vec<u32>,
    front: Frontier,
    settled: Vec<u32>,
}

impl<H: UpwardGraph> UpwardBuckets<H> {
    /// Creates bucket scratch sized for `hierarchy`.
    pub fn new(hierarchy: Arc<H>) -> Self {
        let n = hierarchy.node_count();
        let metric = hierarchy.snapshot();
        Self {
            hierarchy,
            metric,
            buckets: vec![Vec::new(); n],
            touched: Vec::new(),
            front: Frontier::new(n),
            settled: Vec::new(),
        }
    }

    /// The shared hierarchy.
    #[inline]
    pub fn hierarchy(&self) -> &Arc<H> {
        &self.hierarchy
    }

    /// One full upward sweep from `start`; `forward` picks the direction.
    /// Settled vertices land in `self.settled`.
    fn sweep(&mut self, forward: bool, start: u32) {
        self.front.begin(start);
        self.settled.clear();
        while let Some(Reverse(HeapEntry { cost, node })) = self.front.heap.pop() {
            let v = node.0;
            if cost > self.front.dist(v) {
                continue;
            }
            if H::STALL_ON_DEMAND
                && self.front.stalled(cost, self.hierarchy.arcs(&self.metric, !forward, v))
            {
                continue;
            }
            self.settled.push(v);
            let leaving = self.hierarchy.arcs(&self.metric, forward, v);
            self.front.relax(cost, f32::INFINITY, leaving);
        }
    }

    /// Exact shortest-path costs from every source to `target` on the
    /// hierarchy's current metric (`None` = unreachable). Bit-identical
    /// to per-pair Dijkstra on that graph.
    pub fn many_to_one(&mut self, sources: &[NodeId], target: NodeId) -> Vec<Option<f64>> {
        self.hierarchy.refresh(&mut self.metric);
        let counters = self.hierarchy.counters();
        counters.bucket_sweeps.fetch_add(1, Relaxed);
        counters.bucket_sources.fetch_add(sources.len() as u64, Relaxed);
        // Drop stale buckets from the previous batch.
        for &v in &self.touched {
            self.buckets[v as usize].clear();
        }
        self.touched.clear();

        // Upward sweeps: each source deposits (index, dist) at every
        // vertex of its search space.
        for (i, &s) in sources.iter().enumerate() {
            self.sweep(true, s.0);
            for &v in &self.settled {
                if self.buckets[v as usize].is_empty() {
                    self.touched.push(v);
                }
                self.buckets[v as usize].push((i as u32, self.front.dist(v)));
            }
        }

        // One downward sweep from the target scans the buckets it meets.
        let mut best = vec![f32::INFINITY; sources.len()];
        self.sweep(false, target.0);
        for &v in &self.settled {
            let dt = self.front.dist(v);
            for &(i, ds) in &self.buckets[v as usize] {
                let cand = ds + dt;
                if cand < best[i as usize] {
                    best[i as usize] = cand;
                }
            }
        }
        sources
            .iter()
            .zip(best)
            .map(|(&s, b)| if s == target { Some(0.0) } else { b.is_finite().then_some(b as f64) })
            .collect()
    }
}
