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
//! # Pins grow where their holders read
//!
//! A holder pins a node with what it can still read (the simulator: the
//! ball of the request's remaining wait or trip budget, or at dispatch
//! the destination's ellipse about the origin), and the vector is
//! expanded only there ([`Sweep::grow`] into the pin's own [`Region`]):
//! the entries it expanded are exact, the rest read the first undrained
//! bucket's start, past every radius. The batched reader
//! ([`PinnedReader::pinned_cost`]) returns an entry as stored, because
//! every scheduling read outside its holder's region is late and `beyond`
//! gives the same verdict; the public answers below treat such an entry
//! as not pinned. A pin a later holder reads farther resumes its sweep.
//! Bounds need a strongly connected graph — elsewhere
//! "past the radius" could be "unreachable", a different verdict — so on
//! any other graph every pin covers the whole graph. DESIGN.md, "Pins
//! grow where their holders read".
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
use crate::sweep::{quanta, Region, Sweep};
use mtshare_road::geo::EARTH_RADIUS_M;
use mtshare_road::{NodeId, RoadNetwork, COST_QUANTUM_S};
use rustc_hash::FxHashMap;
use std::cell::{Cell, Ref, RefCell};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// A pin holding this many needs that meets one more it does not cover
/// grows over the whole graph, which covers every later need too. On the
/// 64×64 and 100×100 cities (DESIGN.md, "Pins grow where their holders
/// read") 1 settles the most and 8 regrows the most: a regrow of a small
/// lobe still scans the whole pin, which lifts the median hold.
const MAX_NEEDS: usize = 2;

/// What one holder reads of a pin, in quanta (DESIGN.md, "Pins grow
/// where their holders read").
#[derive(Debug, Clone, Copy, PartialEq)]
enum Need {
    /// Every vertex whose distance to the node lies in a bucket starting
    /// at or below the radius.
    Ball(u64),
    /// Every vertex `x` with `lb(origin, x) + d(x, node) ≤ budget`: the
    /// stops a schedule reaches after `origin` in time to be read.
    Ellipse { origin: u32, budget: u64 },
}

impl Need {
    fn radius(self) -> u64 {
        match self {
            Need::Ball(r) | Need::Ellipse { budget: r, .. } => r,
        }
    }
}

/// A pin's needs, held inline: a pin allocates nothing beside its region.
#[derive(Debug, Clone, Copy)]
struct Needs {
    held: [Need; MAX_NEEDS],
    len: usize,
}

impl Needs {
    fn one(need: Need) -> Self {
        Self { held: [need; MAX_NEEDS], len: 1 }
    }

    fn as_slice(&self) -> &[Need] {
        &self.held[..self.len]
    }

    /// Drops the needs `need` covers and appends it; the caller keeps
    /// `len` below [`MAX_NEEDS`] first.
    fn replace_covered(&mut self, need: Need, covered: impl Fn(Need) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            if !covered(self.held[i]) {
                self.held[kept] = self.held[i];
                kept += 1;
            }
        }
        self.held[kept] = need;
        self.len = kept + 1;
    }
}

#[derive(Debug)]
struct PinnedEntry {
    refs: u32,
    /// The needs of the holders the pin has served, none covering another.
    needs: Needs,
    /// Cost from every vertex to the pinned node: exact where expanded,
    /// [`Region::beyond`] elsewhere.
    bwd: Region,
}

/// Straight-line lower bounds on travel cost over the live metric.
#[derive(Debug)]
struct Crowfly {
    /// Planar coordinates in metres: equirectangular about the first
    /// vertex's latitude, so distances between them form a metric.
    xy: Vec<(f64, f64)>,
    /// Quanta per metre of straight line that no arc beats, shrunk by one
    /// part in 10⁶ so that rounding never lifts a bound past a distance; 0
    /// where some arc of positive length costs nothing.
    per_m: f64,
    /// `1 / per_m`, `INFINITY` where `per_m` is 0.
    m_per_q: f64,
}

impl Crowfly {
    fn new(graph: &RoadNetwork) -> Self {
        let cos = graph.points().first().map_or(0.0, |p| p.lat.to_radians().cos());
        let xy = graph.points().iter().map(|p| {
            (p.lng.to_radians() * cos * EARTH_RADIUS_M, p.lat.to_radians() * EARTH_RADIUS_M)
        });
        let mut fly = Self { xy: xy.collect(), per_m: 0.0, m_per_q: f64::INFINITY };
        fly.rescale(graph);
        fly
    }

    /// Re-derives the slowest quanta-per-metre over `graph`'s arcs.
    fn rescale(&mut self, graph: &RoadNetwork) {
        let mut per_m = f64::INFINITY;
        for v in graph.nodes() {
            for (head, cost_s) in graph.out_edges(v) {
                let m = self.metres(v.index(), head.index());
                if m > 0.0 {
                    per_m = per_m.min(cost_s as f64 / COST_QUANTUM_S / m);
                }
            }
        }
        self.per_m = if per_m.is_finite() { per_m * (1.0 - 1e-6) } else { 0.0 };
        self.m_per_q = 1.0 / self.per_m;
    }

    #[inline]
    fn metres(&self, a: usize, b: usize) -> f64 {
        let ((ax, ay), (bx, by)) = (self.xy[a], self.xy[b]);
        ((ax - bx) * (ax - bx) + (ay - by) * (ay - by)).sqrt()
    }

    /// `lb(a, b)`: a lower bound on the cost of every path between `a` and
    /// `b`, in whole quanta. It is consistent: `lb(a, c) ≤ lb(a, b) +
    /// d(b, c)` for a path cost `d` in whole quanta.
    #[inline]
    fn lb(&self, a: usize, b: usize) -> u64 {
        (self.metres(a, b) * self.per_m) as u64
    }

    /// Whether every vertex and key `need` accepts, `by` accepts too.
    fn covers(&self, by: Need, need: Need, shift: u32) -> bool {
        match (by, need) {
            (Need::Ball(r), need) => need.radius() >> shift <= r >> shift,
            (Need::Ellipse { .. }, Need::Ball(_)) => false,
            // One quantum pays for the floor in `lb(o, o')`, one for rounding.
            (Need::Ellipse { origin: o, budget: b }, Need::Ellipse { origin: p, budget: c }) => {
                c <= b && (o == p || self.lb(o as usize, p as usize) + 2 <= b - c)
            }
        }
    }

    /// Whether some need expands `v`, popped at `key`.
    #[inline]
    fn accepts(&self, needs: &[Need], shift: u32, v: usize, key: u32) -> bool {
        needs.iter().any(|&need| match need {
            Need::Ball(r) => key as u64 >> shift <= r >> shift,
            Need::Ellipse { origin, budget } => {
                key as u64 <= budget && self.within(origin as usize, v, budget - key as u64)
            }
        })
    }

    /// `lb(a, b) ≤ slack`, tested without the square root: the straight
    /// line is shorter than `slack + 1` quanta.
    #[inline]
    fn within(&self, a: usize, b: usize, slack: u64) -> bool {
        let ((ax, ay), (bx, by)) = (self.xy[a], self.xy[b]);
        let reach = (slack + 1) as f64 * self.m_per_q;
        (ax - bx) * (ax - bx) + (ay - by) * (ay - by) < reach * reach
    }
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
    /// Resident pins grown on because a new holder needed them farther
    /// than they were swept.
    pub regrows: u64,
    /// Vertices pin sweeps expanded: new pins, regrows and retargets.
    pub settled: u64,
    /// The most pins resident at once.
    pub resident_peak: u64,
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
    settled: Cell<u64>,
    resident_peak: Cell<u64>,
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
    /// every other, so that an entry not expanded is never "unreachable"
    /// (module docs).
    bounded: bool,
    /// Elliptic needs' bounds; [`Self::retarget`] re-derives its scale.
    crowfly: Crowfly,
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
            crowfly: Crowfly::new(&graph),
            pinned: RefCell::default(),
            stats: StatCells::default(),
            cache,
        }
    }

    /// Creates an empty oracle over `graph` with a private default cache.
    pub fn new(graph: Arc<RoadNetwork>) -> Self {
        Self::over(PathCache::new(graph))
    }

    /// Rebuilds the pin engine on the cache's live graph and re-grows
    /// every pinned vector from its root as a ball out to its largest
    /// budget (a distance, so still the radius its holders asked for; an
    /// ellipse's origin may lie behind its holder by now), eagerly and in
    /// ascending node-id order, so answers are exact on the new metric and
    /// deterministic regardless of pin history. Call after
    /// [`PathCache::recustomize`] (which already cleared the one memo) and
    /// before the next [`Self::pin`], which would still sweep the old
    /// metric's arcs. Refcounts survive — active requests keep their O(1)
    /// fast path.
    ///
    /// Takes `&mut self` so re-targeting is exclusive by construction;
    /// the simulator owns its oracle and re-customizes between events.
    pub fn retarget(&mut self) {
        let graph = self.cache.graph();
        self.crowfly.rescale(&graph);
        let pinned = self.pinned.get_mut();
        let mut nodes: Vec<u32> = pinned.keys().copied().collect();
        nodes.sort_unstable();
        let engine = self.pin_engine.get_mut();
        *engine = Sweep::backward(&graph);
        for v in nodes {
            let e = pinned.get_mut(&v).expect("key collected above");
            let radius = e.needs.as_slice().iter().map(|n| n.radius()).max().expect("a need");
            e.needs = Needs::one(Need::Ball(radius));
            e.bwd = Region::rooted(e.bwd.len(), NodeId(v));
            bump(&self.stats.settled, engine.grow(&mut e.bwd, radius, |_, _| true, |_, _| true));
            bump(&self.stats.pin_computes, 1);
        }
    }

    /// Pins `node` over the whole graph: [`Self::pin_within`] at `INFINITY`.
    pub fn pin(&self, node: NodeId) {
        self.pin_within(node, f32::INFINITY);
    }

    /// Pins `node` for a holder that reads its vector out to `radius`
    /// seconds, sweeping the backward distance vector if not already
    /// resident. Pins are reference-counted.
    pub fn pin_within(&self, node: NodeId, radius: f32) {
        self.hold(node, Need::Ball(quanta(radius)));
    }

    /// Pins `node` for a holder that reads its vector only from vertices
    /// a schedule reaches after `from`, and only while a leg from there
    /// can still arrive within `budget` seconds of the hold: the vertices
    /// `x` with `lb(from, x) + d(x, node) ≤ budget`, `lb` the straight-line
    /// bound. The dispatch hold of a request's destination, `from` its
    /// origin (DESIGN.md, "Pins grow where their holders read").
    pub fn pin_toward(&self, node: NodeId, from: NodeId, budget: f32) {
        self.hold(node, Need::Ellipse { origin: from.0, budget: quanta(budget) });
    }

    /// Takes one reference on `node`'s pin for a holder with `need`. A new
    /// pin sweeps as far as the need asks; a resident pin none of whose
    /// needs covers the new one adds it in place of the needs it covers
    /// (or, holding [`MAX_NEEDS`] already, takes the whole graph) and
    /// resumes its sweep.
    fn hold(&self, node: NodeId, need: Need) {
        let need = if self.bounded { need } else { Need::Ball(quanta(f32::INFINITY)) };
        let mut pinned = self.pinned.borrow_mut();
        let mut engine = self.pin_engine.borrow_mut();
        let (fly, shift, len) = (&self.crowfly, engine.shift(), pinned.len());
        let e = match pinned.entry(node.0) {
            Entry::Occupied(e) => {
                let e = e.into_mut();
                e.refs += 1;
                if e.needs.as_slice().iter().any(|&by| fly.covers(by, need, shift)) {
                    return;
                }
                bump(&self.stats.regrows, 1);
                if e.needs.len >= MAX_NEEDS {
                    e.needs = Needs::one(Need::Ball(quanta(f32::INFINITY)));
                } else {
                    e.needs.replace_covered(need, |held| fly.covers(need, held, shift));
                }
                e
            }
            Entry::Vacant(e) => {
                bump(&self.stats.pin_computes, 1);
                let peak = &self.stats.resident_peak;
                peak.set(peak.get().max(len as u64 + 1));
                let bwd = Region::rooted(self.cache.graph().node_count(), node);
                e.insert(PinnedEntry { refs: 1, needs: Needs::one(need), bwd })
            }
        };
        let PinnedEntry { needs, bwd, .. } = e;
        let needs = needs.as_slice();
        let radius = needs.iter().map(|n| n.radius()).max().expect("a need");
        let newest = [*needs.last().expect("a need")];
        let reopen = |v, key| fly.accepts(&newest, shift, v, key);
        let settled = engine.grow(bwd, radius, reopen, |v, key| fly.accepts(needs, shift, v, key));
        bump(&self.stats.settled, settled);
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
    /// its radius (the entry is exact); otherwise the shared cache's (memoized)
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
    /// pinned, `a` cannot reach it, or `a`'s entry is not exact (a
    /// lower bound is no distance to walk down); otherwise what
    /// [`PathCache::path`] returns.
    pub fn pinned_path(&self, a: NodeId, b: NodeId) -> Option<Path> {
        let pinned = self.pinned.borrow();
        let d = &pinned.get(&b.0)?.bwd;
        // Every vertex the walk enters lies on a shortest path from `a`, so
        // is exact too, and an entry not exact exceeds every exact one: it
        // is never tight.
        if !d.exact(a) {
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
    /// pinned) without a copy; counts nothing.
    pub fn with_vector<R>(&self, b: NodeId, f: impl FnOnce(Option<PinView<'_>>) -> R) -> R {
        let (fly, shift) = (&self.crowfly, self.pin_engine.borrow().shift());
        let pinned = self.pinned.borrow();
        f(pinned.get(&b.0).map(|e| PinView {
            bwd: &e.bwd,
            needs: e.needs.as_slice(),
            fly,
            node: b.index(),
            shift,
        }))
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
            settled: self.stats.settled.get(),
            resident_peak: self.stats.resident_peak.get(),
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

/// One pinned vector, borrowed ([`HotNodeOracle::with_vector`]).
#[derive(Clone, Copy)]
pub struct PinView<'a> {
    bwd: &'a Region,
    needs: &'a [Need],
    fly: &'a Crowfly,
    node: usize,
    shift: u32,
}

impl PinView<'_> {
    /// The entry as stored: the cost from `v` to the pinned node where
    /// exact, else the pin's [`Region::beyond`], past every radius its
    /// holders asked for.
    #[inline]
    pub fn entry(&self, v: NodeId) -> f32 {
        self.bwd.seconds(v)
    }

    /// An admissible lower bound on the cost from `v` to the pinned node,
    /// the exact cost where the entry is exact (Alg. 4's search bound).
    /// Elsewhere it is the largest of the region's floor, the
    /// straight-line bound and what each need's region test says of a
    /// vertex outside it; never [`Self::entry`]'s `beyond`, which a vertex
    /// left unexpanded inside the radius may undercut.
    #[inline]
    pub fn lower(&self, v: NodeId) -> f32 {
        let floor = self.bwd.floor(v);
        if self.bwd.exact(v) {
            return floor;
        }
        let (fly, shift) = (self.fly, self.shift);
        let outside = self.needs.iter().map(|&need| match need {
            // Outside a ball: past the bucket holding its radius.
            Need::Ball(r) => ((r >> shift) + 1) << shift,
            // Outside an ellipse: `lb(o, v) + d(v) > budget`; one quantum
            // more pays for rounding between the two ways `lb` is taken.
            Need::Ellipse { origin, budget } => {
                budget.saturating_sub(fly.lb(origin as usize, v.index()) + 1)
            }
        });
        let q = outside.fold(fly.lb(v.index(), self.node), u64::max);
        floor.max(q as f32 * COST_QUANTUM_S as f32)
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
    /// (DESIGN.md, "Pins grow where their holders read"). Returns `None` when the
    /// pair would need the cache path; the caller falls back to its full
    /// cost function (nested `cost()` reads are safe — see
    /// [`HotNodeOracle::batch`]).
    #[inline]
    pub fn pinned_cost(&mut self, a: NodeId, b: NodeId) -> Option<Option<f64>> {
        self.read(a, b, true)
    }

    /// The vector entry for `a -> b`, `None` when `b` is not pinned or,
    /// unless `past_radius`, the entry is not exact.
    #[inline]
    fn read(&mut self, a: NodeId, b: NodeId, past_radius: bool) -> Option<Option<f64>> {
        if a == b {
            return Some(Some(0.0));
        }
        let bwd = &self.pinned.get(&b.0)?.bwd;
        if !past_radius && !bwd.exact(a) {
            return None;
        }
        let c = bwd.seconds(a);
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
        // A holder needing a pin farther resumes its sweep out to its
        // radius, redoing nothing: it settles what a fresh pin there
        // settles beyond what the pin already held.
        let s = o.stats();
        o.pin_within(NodeId(399), 600.0);
        assert_eq!((o.stats().pin_computes, o.stats().regrows), (s.pin_computes, 1));
        o.pin_within(NodeId(399), 300.0);
        assert_eq!(o.stats().regrows, 1, "a wider pin covers a narrower radius");
        let (fresh, stepped) = (oracle(), oracle());
        fresh.pin_within(NodeId(399), 600.0);
        stepped.pin_within(NodeId(399), 0.0);
        stepped.pin_within(NodeId(399), 600.0);
        assert_eq!(stepped.stats().settled, fresh.stats().settled);
        let entries = |o: &HotNodeOracle| {
            let g = o.cache.graph();
            o.with_vector(NodeId(399), |d| {
                g.nodes().map(|v| d.unwrap().entry(v).to_bits()).collect::<Vec<_>>()
            })
        };
        assert_eq!(entries(&o), entries(&fresh));
        assert_eq!(entries(&stepped), entries(&fresh));
        let searches = o.stats().searches;
        for a in o.cache.graph().nodes().filter(|&a| free.cost(a, NodeId(399)).unwrap() <= 600.0) {
            assert_eq!(o.cost(a, NodeId(399)), free.cost(a, NodeId(399)));
        }
        assert_eq!(o.stats().searches, searches);
    }

    /// Pins grown through random ball and elliptic needs on random grid
    /// and ring-radial cities: every entry a holder's region holds is
    /// exact and answers `cost` and `path` as an unpinned oracle does,
    /// every other reads `beyond`, past every radius, and Alg. 4's bound
    /// never exceeds a distance.
    #[test]
    fn elliptic_pins_are_exact_on_their_regions_and_bounded_elsewhere() {
        use crate::dijkstra::Dijkstra;
        use mtshare_road::{ring_radial_city, RingRadialConfig};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(13);
        let (mut outside, mut regrows) = (0, 0);
        for seed in 0..12 {
            let g = Arc::new(
                if seed % 2 == 0 {
                    let side = rng.gen_range(6..=14);
                    grid_city(&GridCityConfig {
                        rows: side,
                        cols: side,
                        seed,
                        ..GridCityConfig::default()
                    })
                } else {
                    let (rings, spokes) = (rng.gen_range(3..=8), rng.gen_range(5..=16));
                    ring_radial_city(&RingRadialConfig {
                        rings,
                        spokes,
                        seed,
                        ..RingRadialConfig::default()
                    })
                }
                .unwrap(),
            );
            let n = g.node_count() as u32;
            let (o, free, mut dijkstra) =
                (HotNodeOracle::new(g.clone()), HotNodeOracle::new(g.clone()), Dijkstra::new(&g));
            let b = NodeId(rng.gen_range(0..n));
            let to_b: Vec<f64> = g.nodes().map(|v| dijkstra.cost(&g, v, b).unwrap()).collect();
            let top = to_b.iter().copied().fold(0.0, f64::max) as f32;
            let mut needs = Vec::new();
            for _ in 0..rng.gen_range(1..=4) {
                let radius = rng.gen_range(0.0..=top * 1.2);
                if rng.gen_bool(0.35) {
                    o.pin_within(b, radius);
                    needs.push(Need::Ball(quanta(radius)));
                } else {
                    let from = NodeId(rng.gen_range(0..n));
                    o.pin_toward(b, from, radius);
                    needs.push(Need::Ellipse { origin: from.0, budget: quanta(radius) });
                }
                let q = COST_QUANTUM_S;
                let widest = needs.iter().map(|n| n.radius()).max().unwrap() as f64 * q;
                for a in g.nodes().filter(|&a| a != b) {
                    let want = to_b[a.index()];
                    let held = needs.iter().any(|&need| match need {
                        Need::Ball(r) => want <= r as f64 * q,
                        Need::Ellipse { origin, budget } => {
                            let d = o.crowfly.lb(origin as usize, a.index()) as f64 * q + want;
                            d <= budget as f64 * q
                        }
                    });
                    let searches = o.stats().searches;
                    assert_eq!(o.cost(a, b), Some(want), "seed {seed} {a}->{b}");
                    let exact = o.stats().searches == searches;
                    assert!(exact || !held, "seed {seed} {a}->{b}: held but not exact");
                    let (stored, lower) = o.with_vector(b, |d| {
                        let d = d.unwrap();
                        (d.entry(a) as f64, d.lower(a) as f64)
                    });
                    assert!(lower <= want, "seed {seed} {a}->{b}: bound {lower} > {want}");
                    if exact {
                        assert_eq!((stored, lower), (want, want), "seed {seed} {a}->{b}");
                        assert_eq!(o.path(a, b), free.path(a, b), "seed {seed} {a}->{b}");
                    } else {
                        assert!(stored > widest, "seed {seed} {a}->{b}: {stored} within {widest}");
                        outside += 1;
                    }
                }
            }
            regrows += o.stats().regrows;
        }
        assert!(outside > 0 && regrows > 0, "{outside} entries outside, {regrows} regrows");
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
