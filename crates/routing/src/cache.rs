//! Shared shortest-path cost cache.
//!
//! The paper precomputes the all-pairs shortest paths of the Chengdu graph
//! and serves them from memory so that every scheme enjoys O(1) queries
//! (Sec. V-A4). All-pairs storage is infeasible beyond toy graphs, so we
//! provide the equivalent amortized behaviour: a memoizing point-to-point
//! cache backed by bidirectional Dijkstra, shared by *all* schemes so the
//! response-time comparison stays fair.
//!
//! The cache is a cheaply cloned single-thread handle (`Rc`): the
//! simulator, its oracle and the scenario generator hold clones of one
//! cache, which keeps the memo, its counters and the one search engine in
//! a `RefCell`. Both the search and the memo quantize costs to `f32`, which
//! makes every answer independent of lookup history: hit or miss, a query
//! returns the same canonical value. That is what lets a warm restart,
//! whose memo starts empty, replay an uninterrupted run byte for byte.
//!
//! # Pluggable exact backend
//!
//! Cost misses are answered by a [`RouterBackend`]: plain bidirectional
//! Dijkstra (the default), a preprocessed [`ContractionHierarchy`], or a
//! [`CustomizableCh`]. All are exact, and because edge costs live on the
//! dyadic grid (`mtshare_road::COST_QUANTUM_S`) they return
//! *bit-identical* values, so switching backends can never change
//! simulator behaviour — only speed.
//!
//! The cache is the *cold* half of the leg-cost layer, and its only memo
//! and only miss path: dispatch prices legs from the pinned vectors of
//! [`crate::HotNodeOracle`], which sits in front of this cache and falls
//! through to [`PathCache::cost`] for an unpinned target, so whatever the
//! vectors cannot answer is answered — and memoized — here, by the
//! configured backend. The simulator loop otherwise asks this cache for
//! the routes a pinned vector cannot give ([`crate::HotNodeOracle::path`]:
//! unpinned targets), plus costs on the cold paths around dispatch
//! (ingestion, rejection classification, re-dispatch). The bucket kernel
//! behind [`PathCache::prime_many_to_one`] is kept for the benches; no
//! dispatch path calls it (`tests/lazy_leg_costs.rs` pins the sweep count
//! at zero).
//!
//! Every route is the canonical one, whatever the backend: the cost, then
//! a backward [`Sweep`] from the target out to that cost, then the walk
//! every pinned vector takes too ([`crate::path::walk`]: the
//! lexicographically smallest shortest path). A search's pick among tied
//! paths depends on its settle order; the walk's depends on nothing but
//! the metric, so a committed route — and with it every trace byte — is
//! the same under every backend and whether or not the target is pinned.
//! Costs are the hot query mix; paths are only materialized when a
//! schedule commits, so the sweep is built on the first path asked for.
//!
//! # Re-customization
//!
//! A regional traffic shift changes the metric mid-run. The bidir and
//! CCH backends support [`PathCache::recustomize`]: swap in the shifted
//! graph (re-customizing the CCH metric in milliseconds), clear the memo,
//! and every subsequent answer — cost, prime, or path — is exact on the
//! *shifted* graph. The plain-CH backend cannot (its order and shortcut
//! weights bake in the metric); callers gate on
//! [`PathCache::is_recustomizable`].

use crate::bidirectional::BidirDijkstra;
use crate::cch::{CchStats, CustomizableCh};
use crate::ch::{ChStats, ContractionHierarchy};
use crate::path::{walk, Path};
use crate::sweep::{quanta, Region, Sweep};
use crate::upward::{UpwardBuckets, UpwardGraph, UpwardQuery};
use mtshare_road::{NodeId, RoadNetwork};
use rustc_hash::FxHashMap;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// The exact engine a [`PathCache`] uses to answer cost misses.
#[derive(Debug, Clone, Default)]
pub enum RouterBackend {
    /// Bidirectional Dijkstra, no preprocessing (the seed behaviour).
    #[default]
    Bidir,
    /// Preprocessed contraction hierarchy (must be built from — or loaded
    /// against — the same [`RoadNetwork`] the cache serves).
    Ch(Arc<ContractionHierarchy>),
    /// Customizable contraction hierarchy (skeleton built from the same
    /// [`RoadNetwork`] the cache serves; metric re-customizable at run
    /// time via [`PathCache::recustomize`]).
    Cch(Arc<CustomizableCh>),
}

/// Everything a cache keeps per hierarchy: the shared structure, the
/// query scratch cost misses run on, and the bucket kernel.
#[derive(Debug)]
struct Scratch<H: UpwardGraph> {
    hierarchy: Arc<H>,
    query: RefCell<UpwardQuery<H>>,
    buckets: RefCell<UpwardBuckets<H>>,
}

impl<H: UpwardGraph> Scratch<H> {
    fn new(hierarchy: Arc<H>) -> Self {
        Self {
            query: RefCell::new(UpwardQuery::new(hierarchy.clone())),
            buckets: RefCell::new(UpwardBuckets::new(hierarchy.clone())),
            hierarchy,
        }
    }
}

/// The state behind a [`RouterBackend`].
#[derive(Debug)]
enum Backend {
    Bidir,
    Ch(Scratch<ContractionHierarchy>),
    Cch(Scratch<CustomizableCh>),
}

/// Hit/miss/evict counters of a [`PathCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that ran a graph search.
    pub misses: u64,
    /// Entries dropped to bound the memo. Always zero: the policy is to
    /// cache until the metric changes.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when no queries were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Memo {
    costs: FxHashMap<u64, f32>,
    /// Answers cost misses under [`RouterBackend::Bidir`].
    engine: BidirDijkstra,
    /// The backward sweep paths are walked down, on the live graph: built
    /// by the first [`PathCache::path`], rebuilt by a metric change.
    walker: Option<Sweep>,
    stats: CacheStats,
}

/// Memoizing shortest-path oracle over a road network.
///
/// Costs are cached until the metric changes: the paper assumes static
/// traffic (Sec. III-A), and under `--disruptions` a regional traffic
/// shift triggers [`PathCache::recustomize`], which clears the memo.
/// Paths are *not* cached — they are only needed when a schedule is
/// actually committed, which is orders of magnitude rarer than cost
/// probes.
#[derive(Debug, Clone)]
pub struct PathCache {
    /// The graph answers are exact on *right now* — swapped wholesale by
    /// [`PathCache::recustomize`]; readers snapshot the `Arc`.
    live: Rc<RefCell<Arc<RoadNetwork>>>,
    memo: Rc<RefCell<Memo>>,
    backend: Rc<Backend>,
}

impl PathCache {
    /// Creates an empty cache over `graph` with the default
    /// ([`RouterBackend::Bidir`]) backend.
    pub fn new(graph: Arc<RoadNetwork>) -> Self {
        Self::with_backend(graph, RouterBackend::Bidir)
    }

    /// Creates an empty cache over `graph` answering misses with `backend`.
    pub fn with_backend(graph: Arc<RoadNetwork>, backend: RouterBackend) -> Self {
        let backend = match backend {
            RouterBackend::Bidir => Backend::Bidir,
            RouterBackend::Ch(ch) => {
                assert_eq!(
                    ch.graph_digest(),
                    graph.digest(),
                    "contraction hierarchy was built for a different graph"
                );
                Backend::Ch(Scratch::new(ch))
            }
            RouterBackend::Cch(cch) => {
                assert_eq!(
                    cch.graph_digest(),
                    graph.digest(),
                    "customizable hierarchy was built for a different graph"
                );
                assert_eq!(
                    cch.metric_graph_digest(),
                    graph.digest(),
                    "customizable hierarchy carries a metric for a different graph"
                );
                Backend::Cch(Scratch::new(cch))
            }
        };
        let memo = Memo {
            costs: FxHashMap::default(),
            engine: BidirDijkstra::new(&graph),
            walker: None,
            stats: CacheStats::default(),
        };
        Self {
            live: Rc::new(RefCell::new(graph)),
            memo: Rc::new(RefCell::new(memo)),
            backend: Rc::new(backend),
        }
    }

    /// The shared hierarchy when the backend is [`RouterBackend::Ch`].
    pub fn hierarchy(&self) -> Option<&Arc<ContractionHierarchy>> {
        match &*self.backend {
            Backend::Ch(k) => Some(&k.hierarchy),
            _ => None,
        }
    }

    /// The shared hierarchy when the backend is [`RouterBackend::Cch`].
    pub fn customizable(&self) -> Option<&Arc<CustomizableCh>> {
        match &*self.backend {
            Backend::Cch(k) => Some(&k.hierarchy),
            _ => None,
        }
    }

    /// CH query/bucket counters, when the backend is [`RouterBackend::Ch`].
    pub fn ch_stats(&self) -> Option<ChStats> {
        self.hierarchy().map(|h| h.stats())
    }

    /// CCH query/customization counters, when the backend is
    /// [`RouterBackend::Cch`].
    pub fn cch_stats(&self) -> Option<CchStats> {
        self.customizable().map(|h| h.stats())
    }

    /// Whether [`PathCache::recustomize`] is supported (every backend
    /// except plain CH, whose order and weights bake in the metric).
    pub fn is_recustomizable(&self) -> bool {
        self.hierarchy().is_none()
    }

    /// Swaps the metric: all subsequent answers are exact on `graph`
    /// (same topology as the current graph, different edge costs — e.g.
    /// from [`mtshare_road::apply_traffic_shifts`]). Re-customizes the
    /// CCH metric when that backend is active and clears the memo.
    /// Returns the CCH metric generation, if any.
    ///
    /// Answers already handed out were exact on the previous metric
    /// (the simulator applies shifts between events).
    ///
    /// # Panics
    /// Panics under the plain-CH backend (gate on
    /// [`PathCache::is_recustomizable`]) or when `graph` has a different
    /// vertex count.
    pub fn recustomize(&self, graph: Arc<RoadNetwork>) -> Option<u64> {
        assert!(
            self.is_recustomizable(),
            "plain-ch backend cannot re-customize; rebuild the hierarchy instead"
        );
        assert_eq!(
            graph.node_count(),
            self.live.borrow().node_count(),
            "re-customization graph must share the topology"
        );
        let generation = self.customizable().map(|h| h.customize(&graph));
        let mut memo = self.memo.borrow_mut();
        memo.costs.clear();
        if let Some(walker) = &mut memo.walker {
            *walker = Sweep::backward(&graph);
        }
        *self.live.borrow_mut() = graph;
        generation
    }

    /// The road network answers are currently exact on (a snapshot: the
    /// cache may re-customize after this returns).
    #[inline]
    pub fn graph(&self) -> Arc<RoadNetwork> {
        self.live.borrow().clone()
    }

    #[inline]
    fn key(a: NodeId, b: NodeId) -> u64 {
        ((a.0 as u64) << 32) | b.0 as u64
    }

    /// Shortest-path cost in seconds from `a` to `b`, or `None` when
    /// unreachable. Unreachability is memoized too.
    pub fn cost(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if a == b {
            return Some(0.0);
        }
        let key = Self::key(a, b);
        let mut memo = self.memo.borrow_mut();
        if let Some(&c) = memo.costs.get(&key) {
            memo.stats.hits += 1;
            return c.is_finite().then_some(c as f64);
        }
        memo.stats.misses += 1;
        let cost = match &*self.backend {
            Backend::Bidir => memo.engine.cost(&self.live.borrow(), a, b),
            Backend::Ch(k) => k.query.borrow_mut().cost(a, b),
            Backend::Cch(k) => k.query.borrow_mut().cost(a, b),
        };
        memo.costs.insert(key, cost.map_or(f32::INFINITY, |c| c as f32));
        cost
    }

    /// Batch-primes the memo with the costs from every `source` to
    /// `target` using the bucket many-to-one kernel — one downward sweep
    /// instead of one search per source (bench/probe entry point, see the
    /// module docs). No-op (returns 0) under the
    /// bidirectional backend, where there is nothing cheaper than the
    /// per-pair search the memo already does; the values installed are
    /// bit-identical to what per-pair queries would produce, so callers
    /// never observe which path filled the memo. Returns the number of
    /// pairs computed (already-memoized pairs are skipped).
    pub fn prime_many_to_one(&self, sources: &[NodeId], target: NodeId) -> usize {
        let mut memo = self.memo.borrow_mut();
        let mut missing: Vec<NodeId> = sources
            .iter()
            .copied()
            .filter(|&s| s != target && !memo.costs.contains_key(&Self::key(s, target)))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return 0;
        }
        let costs = match &*self.backend {
            Backend::Bidir => return 0,
            Backend::Ch(k) => k.buckets.borrow_mut().many_to_one(&missing, target),
            Backend::Cch(k) => k.buckets.borrow_mut().many_to_one(&missing, target),
        };
        for (&s, c) in missing.iter().zip(&costs) {
            memo.costs.insert(Self::key(s, target), c.map_or(f32::INFINITY, |c| c as f32));
        }
        memo.stats.misses += missing.len() as u64;
        missing.len()
    }

    /// The canonical shortest path from `a` to `b` (module docs): its
    /// [`PathCache::cost`], then a backward sweep from `b` out to that cost,
    /// walked down from `a`. `None` when unreachable.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Path> {
        let cost = self.cost(a, b)?;
        let graph = self.graph();
        let mut memo = self.memo.borrow_mut();
        let walker = memo.walker.get_or_insert_with(|| Sweep::backward(&graph));
        let mut dist = Region::rooted(graph.node_count(), b);
        walker.grow(&mut dist, quanta(cost as f32), |_, _| true, |_, _| true);
        walk(&graph, &dist, a, b)
    }

    /// Snapshot of hit/miss/evict counters.
    pub fn stats(&self) -> CacheStats {
        self.memo.borrow().stats
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.memo.borrow().costs.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident memory of the memo in bytes.
    pub fn memory_bytes(&self) -> usize {
        // key (8) + value (4) + hashbrown overhead ≈ 1 ctrl byte + padding.
        self.memo.borrow().costs.capacity() * (8 + 4 + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::Dijkstra;
    use mtshare_road::{grid_city, GridCityConfig};

    fn cache() -> (Arc<RoadNetwork>, PathCache) {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let c = PathCache::new(g.clone());
        (g, c)
    }

    #[test]
    fn cost_matches_dijkstra_and_hits_on_repeat() {
        let (g, c) = cache();
        let mut d = Dijkstra::new(&g);
        let want = d.cost(&g, NodeId(0), NodeId(399)).unwrap();
        let got1 = c.cost(NodeId(0), NodeId(399)).unwrap();
        let got2 = c.cost(NodeId(0), NodeId(399)).unwrap();
        assert_eq!(got1.to_bits(), want.to_bits());
        assert_eq!(got1.to_bits(), got2.to_bits());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
        assert!(c.memory_bytes() > 0);
    }

    #[test]
    fn self_cost_is_zero_and_free() {
        let (_, c) = cache();
        assert_eq!(c.cost(NodeId(5), NodeId(5)), Some(0.0));
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn direction_matters_in_the_key() {
        let (_, c) = cache();
        let ab = c.cost(NodeId(0), NodeId(399)).unwrap();
        let ba = c.cost(NodeId(399), NodeId(0)).unwrap();
        // Jittered directed grid: costs differ between directions.
        assert_eq!(c.stats().misses, 2);
        assert!(ab > 0.0 && ba > 0.0);
    }

    #[test]
    fn path_agrees_with_cost() {
        let (_, c) = cache();
        let p = c.path(NodeId(3), NodeId(200)).unwrap();
        let cost = c.cost(NodeId(3), NodeId(200)).unwrap();
        assert_eq!(p.cost_s.to_bits(), cost.to_bits());
    }

    #[test]
    fn unreachable_memoized() {
        use mtshare_road::{EdgeSpec, GeoPoint};
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = Arc::new(RoadNetwork::new(pts, &edges).unwrap());
        let c = PathCache::new(g);
        assert_eq!(c.cost(NodeId(1), NodeId(0)), None);
        assert_eq!(c.cost(NodeId(1), NodeId(0)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn ch_backend_returns_bit_identical_costs_and_primes_the_memo() {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let ch = Arc::new(crate::ch::ContractionHierarchy::build(&g, 2));
        let bidir = PathCache::new(g.clone());
        let cached = PathCache::with_backend(g.clone(), RouterBackend::Ch(ch));
        assert!(bidir.hierarchy().is_none() && cached.hierarchy().is_some());

        // Bucket priming installs exactly the values per-pair queries find.
        let sources: Vec<NodeId> = (0..32).map(|i| NodeId(i * 7 % 400)).collect();
        let target = NodeId(399);
        let computed = cached.prime_many_to_one(&sources, target);
        assert!(computed > 0);
        // `bidir` never primes: the bucket kernel needs a hierarchy.
        assert_eq!(bidir.prime_many_to_one(&sources, target), 0);
        for &s in &sources {
            assert_eq!(cached.cost(s, target), bidir.cost(s, target), "{s}");
        }
        // Every probe above hit the primed memo (sources are distinct and
        // none equals the target, so all 32 were bucket-computed).
        assert_eq!(computed, sources.len());
        let st = cached.stats();
        assert_eq!(st.hits as usize, sources.len());
        let ch_stats = cached.ch_stats().unwrap();
        assert_eq!(ch_stats.bucket_sweeps, 1);
        // Re-priming the same batch computes nothing new.
        assert_eq!(cached.prime_many_to_one(&sources, target), 0);
        assert_eq!(cached.ch_stats().unwrap().bucket_sweeps, 1);

        // Plain cost misses route through the CH query path.
        assert_eq!(cached.cost(NodeId(1), NodeId(398)), bidir.cost(NodeId(1), NodeId(398)));
        assert!(cached.ch_stats().unwrap().p2p_queries > 0);
        // Paths are the canonical walk under every backend.
        assert_eq!(cached.path(NodeId(1), NodeId(398)), bidir.path(NodeId(1), NodeId(398)));
    }

    #[test]
    fn cch_backend_matches_bidir_and_recustomizes() {
        use mtshare_road::{apply_traffic_shifts, TrafficShiftSpec};
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cch = Arc::new(crate::cch::CustomizableCh::build(&g));
        let cached = PathCache::with_backend(g.clone(), RouterBackend::Cch(cch));
        let bidir = PathCache::new(g.clone());
        assert!(cached.customizable().is_some());
        assert!(cached.is_recustomizable() && bidir.is_recustomizable());
        assert!(cached.ch_stats().is_none());

        let sources: Vec<NodeId> = (0..24).map(|i| NodeId(i * 13 % 400)).collect();
        let target = NodeId(397);
        assert!(cached.prime_many_to_one(&sources, target) > 0);
        for &s in &sources {
            assert_eq!(cached.cost(s, target), bidir.cost(s, target), "{s}");
        }
        assert_eq!(cached.cost(NodeId(2), NodeId(391)), bidir.cost(NodeId(2), NodeId(391)));
        assert!(cached.cch_stats().unwrap().p2p_queries > 0);

        // Shift a region; both recustomizable backends agree bit-for-bit
        // with fresh Dijkstra on the shifted graph — cost, prime, & path.
        let spec = TrafficShiftSpec {
            center: NodeId(200),
            radius_m: 600.0,
            factor: 2.0,
            start_s: 0.0,
            duration_s: 1.0,
        };
        let shifted = Arc::new(apply_traffic_shifts(&g, &[spec]).unwrap());
        assert_eq!(cached.recustomize(shifted.clone()), Some(1));
        assert_eq!(bidir.recustomize(shifted.clone()), None);
        assert_eq!(cached.graph().digest(), shifted.digest());
        let mut d = Dijkstra::new(&shifted);
        for &s in sources.iter().take(8) {
            let want = d.cost(&shifted, s, target);
            assert_eq!(cached.cost(s, target), want, "{s}");
            assert_eq!(bidir.cost(s, target), want, "{s}");
        }
        assert!(cached.prime_many_to_one(&sources, NodeId(11)) > 0);
        for &s in sources.iter().take(8) {
            assert_eq!(cached.cost(s, NodeId(11)), d.cost(&shifted, s, NodeId(11)), "{s}");
        }
        let p = cached.path(NodeId(0), NodeId(399)).unwrap();
        assert_eq!(Some(p.cost_s), d.cost(&shifted, NodeId(0), NodeId(399)));
        assert_eq!(cached.cch_stats().unwrap().customizations, 2);
    }

    #[test]
    #[should_panic(expected = "cannot re-customize")]
    fn ch_backend_rejects_recustomize() {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let ch = Arc::new(crate::ch::ContractionHierarchy::build(&g, 1));
        let cached = PathCache::with_backend(g.clone(), RouterBackend::Ch(ch));
        assert!(!cached.is_recustomizable());
        cached.recustomize(g);
    }
}
