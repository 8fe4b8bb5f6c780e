//! Hot-node oracle: O(1) leg costs and search-free routes into active
//! request endpoints.
//!
//! The paper assumes every shortest-path query costs O(1) because the
//! all-pairs table is precomputed and cached in memory (Sec. IV-C, V-A4).
//! Storing all pairs is infeasible, but the query mix of insertion-based
//! scheduling only ever touches a small hot set: legs run *from* a taxi
//! position or a scheduled event node *to* another event node, and event
//! nodes are exactly the origins/destinations of active requests.
//!
//! So we pin, per hot node, one backward distance vector (one bucket-queue
//! [`Sweep`] over the in-arcs: the cost from every vertex *to* the node).
//! While a request is active, every leg cost *into* one of its endpoints is a
//! single array read — the amortized equivalent of the paper's cache,
//! shared by all schemes for fairness — and the vector doubles as the
//! routing table towards that endpoint ([`HotNodeOracle::pinned_path`]).
//! No forward vector is kept: every leg dispatch prices ends at a pinned
//! event node, so a forward vector would be computed per pin and never read.
//!
//! # One memo, one miss path
//!
//! The oracle owns no search engine for queries and no memo. It is the
//! pinned vectors *in front of* the shared [`PathCache`]: a cost query
//! whose target is not pinned falls through to [`PathCache::cost`], so the
//! cache's configured [`crate::RouterBackend`] answers it, the answer is
//! memoized once (in the cache), and a metric change has one memo to
//! clear. Routes go the same way: [`HotNodeOracle::path`] walks the
//! pinned vector and falls through to [`PathCache::path`] for an unpinned
//! target, which walks a backward sweep of its own; both take the one
//! canonical path, the lexicographically smallest shortest one
//! ([`crate::path::walk`]). The simulator builds its oracle over
//! its own cache handle ([`HotNodeOracle::over`]); [`HotNodeOracle::new`]
//! wraps a private default cache for tests and benches.
//!
//! # Ownership and determinism
//!
//! The simulator owns its oracle and drives it from one thread. Schemes
//! see it by `&` through `World`, so pins, queries and their counters
//! are interior state (`RefCell` / `Cell`); [`HotNodeOracle::batch`] holds
//! one shared borrow of the pinned map across a burst of queries. Every
//! query must return one canonical value regardless of which nodes happen
//! to be pinned — that is what makes a resumed run, whose pin history
//! differs, equal an uninterrupted one.
//!
//! # Pins stop at the deadline
//!
//! A holder pins a node with the radius it can still use (the simulator:
//! the request's remaining wait or trip budget), and the vector is swept
//! only that far ([`Sweep::run_within`]): entries up to the pin's
//! `covered` are exact, the rest read `covered` plus one quantum, a lower
//! bound. The batched reader ([`PinnedReader::pinned_cost`]) returns an
//! entry as stored, because every scheduling read past the radius is late
//! and the bound gives the same verdict; the public answers below treat
//! such an entry as not pinned. A pin a later holder needs farther is
//! re-swept in full. Bounds need a strongly connected graph — elsewhere
//! "past the radius" could be "unreachable", a different verdict — so on
//! any other graph every pin covers the whole graph. DESIGN.md, "Pins
//! stop at the deadline".
//!
//! Canonical lookup rule: the **backward vector of the target `b` where
//! the source lies within its radius, else the shared cache**. Edge costs
//! sit on the dyadic grid
//! (`mtshare_road::COST_QUANTUM_S`), so every f32 path sum is exact and
//! the vector entry, the memo entry and a fresh search by any backend are
//! the same bits
//! (`tests/routing_properties.rs::one_to_all_all_to_one_and_bidir_agree_bit_for_bit`).
//! The answer is therefore a function of `(a, b)` alone — pinning extra
//! nodes can never change a result. A query whose *source* alone is pinned
//! takes the cache path like any other unpinned pair.

use crate::cache::PathCache;
use crate::path::{walk, Path};
use crate::sweep::Sweep;
use mtshare_road::{NodeId, RoadNetwork};
use rustc_hash::FxHashMap;
use std::cell::{Cell, Ref, RefCell};
use std::sync::Arc;

#[derive(Debug)]
struct PinnedEntry {
    refs: u32,
    /// Entries of `bwd` up to here are exact, the rest lower bounds
    /// ([`Sweep::run_within`]); `INFINITY` = the whole graph.
    covered: f32,
    /// Cost from every vertex to the pinned node.
    bwd: Vec<f32>,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
/// Query counters of the oracle.
pub struct OracleStats {
    /// Queries answered from a pinned vector.
    pub vector_hits: u64,
    /// Queries that fell through to the shared [`PathCache`].
    pub searches: u64,
    /// One-to-all computations performed for pins.
    pub pin_computes: u64,
    /// Resident pins re-swept in full because a new holder needed them
    /// farther than they were swept.
    pub regrows: u64,
    /// Pinned vectors freed because their refcount dropped to zero.
    pub evictions: u64,
    /// Routes read off a pinned vector ([`HotNodeOracle::pinned_path`]).
    pub path_walks: u64,
    /// [`HotNodeOracle::path`] calls that fell through to [`PathCache::path`].
    pub path_searches: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    vector_hits: Cell<u64>,
    searches: Cell<u64>,
    pin_computes: Cell<u64>,
    regrows: Cell<u64>,
    evictions: Cell<u64>,
    path_walks: Cell<u64>,
    path_searches: Cell<u64>,
}

fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

/// Cost oracle with pinnable hot nodes, owned by one simulator.
#[derive(Debug)]
pub struct HotNodeOracle {
    /// Answers every query the pinned vectors cannot, and names the graph
    /// pins are computed on.
    cache: PathCache,
    pinned: RefCell<FxHashMap<u32, PinnedEntry>>,
    /// Fills pins from its own copy of the arcs; [`Self::retarget`] rebuilds it.
    pin_engine: RefCell<Sweep>,
    /// Whether pins honour their radius: only where every vertex reaches
    /// every other, so that an entry past `covered` is never "unreachable"
    /// (module docs).
    bounded: bool,
    stats: StatCells,
}

impl HotNodeOracle {
    /// Creates an empty oracle in front of `cache`: pins are computed on
    /// the cache's live graph and unpinned queries are the cache's.
    pub fn over(cache: PathCache) -> Self {
        let graph = cache.graph();
        Self {
            pin_engine: RefCell::new(Sweep::backward(&graph)),
            bounded: graph.is_strongly_connected(),
            pinned: RefCell::default(),
            stats: StatCells::default(),
            cache,
        }
    }

    /// Creates an empty oracle over `graph` with a private default cache.
    pub fn new(graph: Arc<RoadNetwork>) -> Self {
        Self::over(PathCache::new(graph))
    }

    /// Rebuilds the pin engine on the cache's live graph and recomputes
    /// every pinned vector out to its own `covered` (a distance, so still
    /// the radius its holders asked for), eagerly and in ascending node-id
    /// order, so answers are exact on the new metric and deterministic
    /// regardless of pin history. Call after [`PathCache::recustomize`]
    /// (which already cleared the one memo) and before the next
    /// [`Self::pin`], which would still sweep the old metric's arcs.
    /// Refcounts survive — active requests keep their O(1) fast path.
    ///
    /// Takes `&mut self` so re-targeting is exclusive by construction;
    /// the simulator owns its oracle and re-customizes between events.
    pub fn retarget(&mut self) {
        let pinned = self.pinned.get_mut();
        let mut nodes: Vec<u32> = pinned.keys().copied().collect();
        nodes.sort_unstable();
        let engine = self.pin_engine.get_mut();
        *engine = Sweep::backward(&self.cache.graph());
        for v in nodes {
            let e = pinned.get_mut(&v).expect("key collected above");
            e.covered = engine.run_within(NodeId(v), e.covered, &mut e.bwd);
            bump(&self.stats.pin_computes, 1);
        }
    }

    /// Pins `node` over the whole graph: [`Self::pin_within`] at `INFINITY`.
    pub fn pin(&self, node: NodeId) {
        self.pin_within(node, f32::INFINITY);
    }

    /// Pins `node` for a holder that reads its vector out to `radius`
    /// seconds, sweeping the backward distance vector if not already
    /// resident. Pins are reference-counted. A resident pin swept short of
    /// `radius` is re-swept in full (DESIGN.md, "Pins stop at the
    /// deadline").
    pub fn pin_within(&self, node: NodeId, radius: f32) {
        let radius = if self.bounded { radius } else { f32::INFINITY };
        let mut pinned = self.pinned.borrow_mut();
        if let Some(e) = pinned.get_mut(&node.0) {
            e.refs += 1;
            if radius > e.covered {
                e.covered =
                    self.pin_engine.borrow_mut().run_within(node, f32::INFINITY, &mut e.bwd);
                bump(&self.stats.regrows, 1);
            }
            return;
        }
        let mut bwd = Vec::new();
        let covered = self.pin_engine.borrow_mut().run_within(node, radius, &mut bwd);
        bump(&self.stats.pin_computes, 1);
        pinned.insert(node.0, PinnedEntry { refs: 1, covered, bwd });
    }

    /// Releases one pin of `node`; vectors are freed when the count drops
    /// to zero. Unpinning an unpinned node is a no-op.
    pub fn unpin(&self, node: NodeId) {
        let mut pinned = self.pinned.borrow_mut();
        if let Some(e) = pinned.get_mut(&node.0) {
            e.refs -= 1;
            if e.refs == 0 {
                pinned.remove(&node.0);
                bump(&self.stats.evictions, 1);
            }
        }
    }

    /// Shortest-path cost from `a` to `b` in seconds, `None` if
    /// unreachable. O(1) when the target `b` is pinned and `a` lies within
    /// its `covered` radius; otherwise the shared cache's (memoized)
    /// answer. Both return the same exact bits (see the module docs), so
    /// the answer for a pair is canonical: independent of pin state and
    /// lookup history.
    pub fn cost(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if let Some(c) = self.batch(|r| r.read(a, b, false)) {
            return c;
        }
        bump(&self.stats.searches, 1);
        self.cache.cost(a, b)
    }

    /// The canonical shortest path `a -> b` ([`walk`]) read off `b`'s
    /// pinned vector on the cache's live graph. `None` when `b` is not
    /// pinned, `a` cannot reach it, or `a` lies past the pin's `covered` (a
    /// lower bound is no distance to walk down); otherwise what
    /// [`PathCache::path`] returns.
    pub fn pinned_path(&self, a: NodeId, b: NodeId) -> Option<Path> {
        let pinned = self.pinned.borrow();
        let PinnedEntry { covered, bwd: d, .. } = pinned.get(&b.0)?;
        // Every vertex the walk enters is nearer `b` than `a`, so exact too,
        // and an entry past `covered` exceeds every exact one: it is never tight.
        if d[a.index()] > *covered {
            return None;
        }
        let path = walk(&self.cache.graph(), d, a, b)?;
        bump(&self.stats.path_walks, 1);
        Some(path)
    }

    /// Shortest path `a -> b`, `None` if unreachable: the route
    /// counterpart of [`HotNodeOracle::cost`] — [`Self::pinned_path`], else
    /// [`PathCache::path`]. Both walk the same canonical path, so the
    /// answer is a function of `(a, b)` alone.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Path> {
        self.pinned_path(a, b).or_else(|| {
            bump(&self.stats.path_searches, 1);
            self.cache.path(a, b)
        })
    }

    /// Runs `f` on `b`'s pinned backward vector (`None` when `b` is not
    /// pinned) without a copy; counts nothing. Every entry is a lower
    /// bound on the cost into `b`, exact within the pin's radius.
    pub fn with_vector<R>(&self, b: NodeId, f: impl FnOnce(Option<&[f32]>) -> R) -> R {
        f(self.pinned.borrow().get(&b.0).map(|e| &e.bwd[..]))
    }

    /// Runs `f` with a [`PinnedReader`]: a borrowed view of the pinned
    /// vectors that answers the `cost()` fast path without re-borrowing
    /// the map per query. Vector hits are counted locally and folded into
    /// the stats once at the end.
    ///
    /// Intended for query bursts that probe many legs against the same
    /// pin set — e.g. scoring one insertion candidate. The reader holds a
    /// shared borrow for the whole closure, and shared borrows nest, so
    /// `f` may fall back to `cost()` for unpinned pairs; a `pin`/`unpin`
    /// from inside `f` panics (dispatch already orders all pinning before
    /// scoring).
    pub fn batch<R>(&self, f: impl FnOnce(&mut PinnedReader<'_>) -> R) -> R {
        let mut reader = PinnedReader { pinned: self.pinned.borrow(), hits: 0 };
        let r = f(&mut reader);
        bump(&self.stats.vector_hits, reader.hits);
        r
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            vector_hits: self.stats.vector_hits.get(),
            searches: self.stats.searches.get(),
            pin_computes: self.stats.pin_computes.get(),
            regrows: self.stats.regrows.get(),
            evictions: self.stats.evictions.get(),
            path_walks: self.stats.path_walks.get(),
            path_searches: self.stats.path_searches.get(),
        }
    }

    /// Number of currently pinned nodes.
    pub fn pinned_count(&self) -> usize {
        self.pinned.borrow().len()
    }

    /// Approximate resident memory of the pinned vectors in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.pinned.borrow().len() * (self.cache.graph().node_count() * 4 + 16)
    }
}

/// Borrowed fast-path view of the oracle's pinned vectors — see
/// [`HotNodeOracle::batch`].
pub struct PinnedReader<'a> {
    pinned: Ref<'a, FxHashMap<u32, PinnedEntry>>,
    hits: u64,
}

impl PinnedReader<'_> {
    /// The scheduling fast path: `Some(answer)` when `a == b` or the
    /// target `b` is pinned, the vector entry as stored. Within the pin's
    /// radius that is [`HotNodeOracle::cost`]'s answer; past it, a lower
    /// bound at least one quantum beyond the radius, which every
    /// scheduling check reads as "late", the verdict the exact cost gives
    /// (DESIGN.md, "Pins stop at the deadline"). Returns `None` when the
    /// pair would need the cache path; the caller falls back to its full
    /// cost function (nested `cost()` reads are safe — see
    /// [`HotNodeOracle::batch`]).
    #[inline]
    pub fn pinned_cost(&mut self, a: NodeId, b: NodeId) -> Option<Option<f64>> {
        self.read(a, b, true)
    }

    /// The vector entry for `a -> b`, `None` when `b` is not pinned or,
    /// unless `past_radius`, the entry lies past the pin's `covered`.
    #[inline]
    fn read(&mut self, a: NodeId, b: NodeId, past_radius: bool) -> Option<Option<f64>> {
        if a == b {
            return Some(Some(0.0));
        }
        let e = self.pinned.get(&b.0)?;
        let c = e.bwd[a.index()];
        if !past_radius && c > e.covered {
            return None;
        }
        self.hits += 1;
        Some(c.is_finite().then_some(c as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig};

    fn oracle() -> HotNodeOracle {
        HotNodeOracle::new(Arc::new(grid_city(&GridCityConfig::tiny()).unwrap()))
    }

    #[test]
    fn pinned_costs_match_searches() {
        let o = oracle();
        let free = o.cost(NodeId(0), NodeId(399)).unwrap();
        o.pin(NodeId(399));
        let pinned = o.cost(NodeId(0), NodeId(399)).unwrap();
        assert_eq!(free.to_bits(), pinned.to_bits());
        let s = o.stats();
        assert_eq!((s.searches, s.vector_hits), (1, 1));
        // Only the target's vector answers: a pinned *source* takes the
        // memo/search path (and still returns the same bits).
        let back = o.cost(NodeId(399), NodeId(0)).unwrap();
        o.pin(NodeId(0));
        assert_eq!(o.cost(NodeId(399), NodeId(0)).unwrap().to_bits(), back.to_bits());
        let s = o.stats();
        assert_eq!((s.searches, s.vector_hits), (2, 2));
    }

    #[test]
    fn backward_vector_answers_into_pinned_node() {
        let o = oracle();
        o.pin(NodeId(399));
        let got = o.cost(NodeId(0), NodeId(399)).unwrap();
        assert_eq!(o.stats().searches, 0);
        // Cross-check against an unpinned fresh oracle.
        let o2 = oracle();
        let want = o2.cost(NodeId(0), NodeId(399)).unwrap();
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn pinning_extra_nodes_never_changes_an_answer() {
        // The determinism contract behind warm restart: a resumed run
        // re-holds its riders in a different order than the crashed run
        // pinned them, and both must read identical costs.
        let o = oracle();
        o.pin(NodeId(399));
        let canonical = o.cost(NodeId(17), NodeId(399));
        o.pin(NodeId(17)); // source becomes pinned too: still the target's vector
        assert_eq!(o.cost(NodeId(17), NodeId(399)), canonical);
        o.pin(NodeId(250)); // unrelated pin
        assert_eq!(o.cost(NodeId(17), NodeId(399)), canonical);
    }

    #[test]
    fn bounded_pins_answer_every_pair_as_an_unpinned_oracle_does() {
        let free = oracle();
        let o = oracle();
        let (mut past, mut reader_past) = (0, 0);
        for (b, radius) in [(399u32, 0.0f32), (17, 120.0), (250, 300.0), (7, 900.0)] {
            let b = NodeId(b);
            o.pin_within(b, radius);
            for a in o.cache.graph().nodes() {
                let want = free.cost(a, b);
                let searches = o.stats().searches;
                assert_eq!(o.cost(a, b), want, "{a}->{b}");
                past += (o.stats().searches > searches) as usize;
                assert_eq!(o.path(a, b), free.path(a, b), "{a}->{b}");
                // The reader returns the entry as stored: exact within the
                // radius, a lower bound past the quantum-rounded radius.
                let stored = o.batch(|r| r.pinned_cost(a, b)).unwrap().unwrap();
                let want = want.unwrap();
                assert!(stored <= want, "{a}->{b}: {stored} > {want}");
                if stored != want {
                    assert!(stored > radius as f64, "{a}->{b}: {stored} within {radius}");
                    reader_past += 1;
                }
            }
        }
        assert!(reader_past > 0 && past >= reader_past, "{past} misses, {reader_past} bounds");
        // A holder needing a pin farther regrows it over the whole graph.
        let s = o.stats();
        o.pin_within(NodeId(399), 60.0);
        assert_eq!((o.stats().pin_computes, o.stats().regrows), (s.pin_computes, 1));
        o.pin_within(NodeId(399), 30.0);
        assert_eq!(o.stats().regrows, 1, "a full pin covers every radius");
        let searches = o.stats().searches;
        assert_eq!(o.cost(NodeId(0), NodeId(399)), free.cost(NodeId(0), NodeId(399)));
        assert_eq!(o.stats().searches, searches);
    }

    #[test]
    fn refcounted_pinning() {
        let o = oracle();
        o.pin(NodeId(7));
        o.pin(NodeId(7));
        assert_eq!(o.pinned_count(), 1);
        let computes = o.stats().pin_computes;
        assert_eq!(computes, 1); // one backward vector, second pin free
        o.unpin(NodeId(7));
        assert_eq!(o.pinned_count(), 1);
        assert_eq!(o.stats().evictions, 0);
        o.unpin(NodeId(7));
        assert_eq!(o.pinned_count(), 0);
        assert_eq!(o.stats().evictions, 1);
        o.unpin(NodeId(7)); // no-op
        assert_eq!(o.pinned_count(), 0);
        assert_eq!(o.stats().evictions, 1);
    }

    #[test]
    fn batch_reader_matches_cost_bit_for_bit() {
        let o = oracle();
        o.pin(NodeId(0));
        o.pin(NodeId(399));
        let pairs = [(NodeId(5), NodeId(5)), (NodeId(17), NodeId(399)), (NodeId(250), NodeId(0))];
        for (a, b) in pairs {
            let want = o.cost(a, b);
            let got = o.batch(|r| r.pinned_cost(a, b)).expect("target pinned or a == b");
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{a:?}->{b:?}");
        }
        // Target not pinned (source pinned or neither): the reader defers
        // to the full path.
        assert!(o.batch(|r| r.pinned_cost(NodeId(0), NodeId(250))).is_none());
        assert!(o.batch(|r| r.pinned_cost(NodeId(40), NodeId(41))).is_none());
        // Hits were folded into the shared stats exactly once per answer.
        assert_eq!(o.stats().vector_hits, 2 * 2); // (17,399) and (250,0), via cost + batch
    }

    #[test]
    fn unpinned_targets_are_answered_and_memoized_by_the_shared_cache() {
        use crate::{ContractionHierarchy, CustomizableCh, Dijkstra, RouterBackend};
        use mtshare_road::{apply_traffic_shifts, TrafficShiftSpec};
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let spec = TrafficShiftSpec {
            center: NodeId(0),
            radius_m: 800.0,
            factor: 3.0,
            start_s: 0.0,
            duration_s: 1.0,
        };
        let shifted = Arc::new(apply_traffic_shifts(&g, &[spec]).unwrap());
        let (a, b) = (NodeId(0), NodeId(399));
        for backend in [
            RouterBackend::Bidir,
            RouterBackend::Ch(Arc::new(ContractionHierarchy::build(&g, 2))),
            RouterBackend::Cch(Arc::new(CustomizableCh::build(&g))),
        ] {
            let cache = PathCache::with_backend(g.clone(), backend);
            let mut o = HotNodeOracle::over(cache.clone());
            let p2p = || {
                cache.ch_stats().map(|s| s.p2p_queries).or(cache.cch_stats().map(|s| s.p2p_queries))
            };

            // Unpinned target: the configured backend answers, once.
            let free = o.cost(a, b).unwrap();
            assert_eq!(o.cost(a, b), Some(free));
            assert_eq!(o.stats().searches, 2);
            let cs = cache.stats();
            assert_eq!((cs.misses, cs.hits), (1, 1), "one miss, then the cache's own hit");
            assert!(matches!(p2p(), None | Some(1)), "one hierarchy query: {:?}", p2p());
            // Pinned target: the vector holds the same bits.
            o.pin(b);
            assert_eq!(o.cost(a, b).unwrap().to_bits(), free.to_bits());
            assert_eq!(o.stats().vector_hits, 1);
            o.unpin(b);

            if !cache.is_recustomizable() {
                continue;
            }
            // A metric change clears the cache's memo — the only one —
            // and re-targeting recomputes the pins on the cache's graph.
            o.pin(NodeId(7));
            cache.recustomize(shifted.clone());
            o.retarget();
            assert_eq!(o.stats().pin_computes, 3, "pin b, pin 7, recompute 7");
            let mut d = Dijkstra::new(&shifted);
            let after = o.cost(a, b).unwrap();
            assert!(after > free, "slowdown region must lengthen the trip");
            assert_eq!(Some(after), d.cost(&shifted, a, b));
            assert_eq!(o.cost(a, NodeId(7)), d.cost(&shifted, a, NodeId(7)));
            assert_eq!(cache.stats().misses, 2);
        }
    }

    #[test]
    fn self_cost_is_zero_and_free() {
        let o = oracle();
        assert_eq!(o.cost(NodeId(5), NodeId(5)), Some(0.0));
        assert_eq!(o.stats().searches, 0);
        o.pin(NodeId(1));
        assert!(o.memory_bytes() > 0);
    }
}
