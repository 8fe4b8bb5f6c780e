//! Property tests for the routing substrate: all engines agree with the
//! Bellman-Ford oracle, costs obey the triangle inequality, caches are
//! transparent, the exact searches the leg-cost layer mixes (bucket-queue
//! sweeps in both directions, bidirectional search) agree bit for bit with
//! plain Dijkstra on every metric, pins follow the metric through
//! re-customization, the contraction hierarchy is exact on the large
//! seed-7 grids where same-round cost ties occur, and every route — read
//! off a pinned vector or walked by the shared cache — is the
//! lexicographically smallest shortest path.

use mt_share::road::{
    apply_traffic_shifts, grid_city, ring_radial_city, EdgeSpec, GeoPoint, GridCityConfig, NodeId,
    RingRadialConfig, RoadNetwork, TrafficShiftSpec,
};
use mt_share::routing::{
    bellman_ford_cost, BidirDijkstra, ChQuery, ContractionHierarchy, Dijkstra, HotNodeOracle,
    MaskedDijkstra, NodeMask, PathCache, Sweep,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn city(seed: u64) -> Arc<RoadNetwork> {
    Arc::new(
        grid_city(&GridCityConfig { rows: 12, cols: 12, seed, ..GridCityConfig::default() })
            .unwrap(),
    )
}

/// The default-seed (7) grids on which a parallel build used to drop
/// shortcuts when two same-round vertices witnessed each other on a cost
/// tie. Built once per shape: the proptest samples sources, not cities.
fn seed7_grid(shape: usize) -> &'static (Arc<RoadNetwork>, Arc<ContractionHierarchy>) {
    static BUILT: [OnceLock<(Arc<RoadNetwork>, Arc<ContractionHierarchy>)>; 2] =
        [OnceLock::new(), OnceLock::new()];
    BUILT[shape].get_or_init(|| {
        let side = [64, 80][shape];
        let cfg = GridCityConfig { rows: side, cols: side, seed: 7, ..GridCityConfig::default() };
        let g = Arc::new(grid_city(&cfg).unwrap());
        let ch = Arc::new(ContractionHierarchy::build(&g, 2));
        (g, ch)
    })
}

/// A 10×10 two-way lattice with one length and one speed on every arc, so
/// almost every pair has several shortest paths (`grid_city` jitters every
/// arc length even at `jitter_frac = 0`).
fn uniform_lattice() -> RoadNetwork {
    const SIDE: u32 = 10;
    let at = |r: u32, c: u32| NodeId(r * SIDE + c);
    let mut points = Vec::new();
    let mut edges = Vec::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            points.push(GeoPoint::new(30.0 + 0.001 * f64::from(r), 104.0 + 0.001 * f64::from(c)));
            let right = (c + 1 < SIDE).then(|| at(r, c + 1));
            let up = (r + 1 < SIDE).then(|| at(r + 1, c));
            for to in right.into_iter().chain(up) {
                for (from, to) in [(at(r, c), to), (to, at(r, c))] {
                    edges.push(EdgeSpec { from, to, length_m: 100.0, speed_kmh: 36.0 });
                }
            }
        }
    }
    RoadNetwork::new(points, &edges).unwrap()
}

/// The three shapes the walk is tested on: jittered grid, jittered
/// ring-radial, uniform lattice.
fn walk_city(kind: usize, seed: u64) -> RoadNetwork {
    match kind {
        0 => grid_city(&GridCityConfig { rows: 12, cols: 12, seed, ..GridCityConfig::default() })
            .unwrap(),
        1 => ring_radial_city(&RingRadialConfig { seed, ..RingRadialConfig::default() }).unwrap(),
        _ => uniform_lattice(),
    }
}

/// `base` under one of four metrics: itself, a regional ×3.0 slowdown, a
/// regional ×0.25 speed-up, or `factor` composed with a second ×0.25 region
/// (arc costs then span ≈ 5–290 s, so the sweep's ring grows past the
/// cities' 8 buckets).
fn on_metric(
    base: RoadNetwork,
    which: usize,
    center: u32,
    radius_m: f64,
    factor: f64,
) -> RoadNetwork {
    let n = base.node_count() as u32;
    let spec = |center: u32, factor: f64| TrafficShiftSpec {
        center: NodeId(center % n),
        radius_m,
        factor,
        start_s: 0.0,
        duration_s: 1.0,
    };
    let specs = match which {
        0 => return base,
        1 => vec![spec(center, 3.0)],
        2 => vec![spec(center, 0.25)],
        _ => vec![spec(center, factor), spec(center / 7, 0.25)],
    };
    apply_traffic_shifts(&base, &specs).unwrap()
}

/// Every cost into the pinned `target` is a vector read, and the vector is
/// the one a fresh oracle fills on `graph` — entry for entry plain
/// Dijkstra's answer.
fn assert_pinned_vector_is_exact_on(
    oracle: &HotNodeOracle,
    graph: &Arc<RoadNetwork>,
    target: NodeId,
) {
    let fresh = HotNodeOracle::new(graph.clone());
    fresh.pin(target);
    let mut d = Dijkstra::new(graph);
    for v in graph.nodes() {
        let got = oracle.cost(v, target);
        assert_eq!(got, fresh.cost(v, target), "{v}->{target} vs a fresh oracle");
        assert_eq!(got, d.cost(graph, v, target), "{v}->{target} vs Dijkstra");
    }
}

/// Every shortest path `a -> b` on `graph`, by exhaustive search over the
/// arcs Bellman–Ford's distances to `b` call tight (exact: costs are
/// dyadic), so it shares no code with the routing engines.
fn all_shortest_paths(graph: &RoadNetwork, a: NodeId, b: NodeId) -> Vec<Vec<NodeId>> {
    let mut to_b = vec![f64::INFINITY; graph.node_count()];
    to_b[b.index()] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for x in graph.nodes() {
            for (y, w) in graph.out_edges(x) {
                if f64::from(w) + to_b[y.index()] < to_b[x.index()] {
                    to_b[x.index()] = f64::from(w) + to_b[y.index()];
                    changed = true;
                }
            }
        }
    }
    let mut paths = Vec::new();
    let mut stack = vec![vec![a]];
    while let Some(path) = stack.pop() {
        let x = *path.last().unwrap();
        if x == b {
            paths.push(path);
            continue;
        }
        for (y, w) in graph.out_edges(x) {
            if to_b[x.index()].is_finite() && f64::from(w) + to_b[y.index()] == to_b[x.index()] {
                let mut next = path.clone();
                next.push(y);
                stack.push(next);
            }
        }
    }
    paths
}

/// With `b` pinned on the oracle's live `graph`: `pinned_path`,
/// `HotNodeOracle::path` and `PathCache::path` all return the
/// lexicographically smallest of all shortest paths, at Dijkstra's cost.
/// Returns how many shortest paths there are.
fn assert_canonical_route(
    oracle: &HotNodeOracle,
    cache: &PathCache,
    graph: &RoadNetwork,
    a: NodeId,
    b: NodeId,
) -> usize {
    let all = all_shortest_paths(graph, a, b);
    let want = all.iter().min().expect("strongly connected");
    let cost = Dijkstra::new(graph).cost(graph, a, b).expect("strongly connected");
    for (who, got) in [
        ("pinned", oracle.pinned_path(a, b)),
        ("oracle", oracle.path(a, b)),
        ("cache", cache.path(a, b)),
    ] {
        let got = got.unwrap_or_else(|| panic!("{who} {a}->{b}: no path"));
        assert_eq!(&got.nodes, want, "{who} {a}->{b} of {} shortest paths", all.len());
        assert_eq!(got.cost_s.to_bits(), cost.to_bits(), "{who} {a}->{b}");
    }
    all.len()
}

/// On the jittered grid and ring-radial cities and the all-ties lattice,
/// before and after a traffic shift re-customizes the cache and re-targets
/// the pins, every route is the smallest shortest path and every pinned
/// target's route is read off its vector.
#[test]
fn every_route_is_the_smallest_shortest_path_before_and_after_a_shift() {
    for kind in 0..3 {
        let g = Arc::new(walk_city(kind, 7));
        let n = g.node_count() as u32;
        let shifted = Arc::new(on_metric((*g).clone(), 1, n / 3, 900.0, 3.0));
        let cache = PathCache::new(g.clone());
        let mut oracle = HotNodeOracle::over(cache.clone());
        let targets: Vec<NodeId> = (0..n).step_by(17).map(NodeId).collect();
        targets.iter().for_each(|&b| oracle.pin(b));
        let (mut pairs, mut tied) = (0u64, 0u64);
        for graph in [&g, &shifted] {
            if Arc::ptr_eq(graph, &shifted) {
                cache.recustomize(shifted.clone());
                oracle.retarget();
            }
            for &b in &targets {
                for a in (0..n).step_by(13).map(NodeId) {
                    pairs += 1;
                    tied += u64::from(assert_canonical_route(&oracle, &cache, graph, a, b) > 1);
                }
            }
        }
        let stats = oracle.stats();
        assert_eq!((stats.path_walks, stats.path_searches), (2 * pairs, 0), "kind {kind}");
        if kind == 2 {
            assert!(tied * 2 > pairs, "the lattice ties on most pairs: {tied} of {pairs}");
        }
    }
}

/// The two-vertex one-way graph of `dijkstra::tests::unreachable_returns_none`:
/// `d[1 -> 0] = ∞`, which must end the walk before `∞ == ∞` makes an arc
/// look tight.
#[test]
fn unreachable_pair_has_no_path_from_walk_or_search() {
    let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
    let edges = [EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
    let oracle = HotNodeOracle::new(Arc::new(RoadNetwork::new(pts, &edges).unwrap()));
    oracle.pin(NodeId(0));
    oracle.pin(NodeId(1));
    assert_eq!(oracle.pinned_path(NodeId(1), NodeId(0)), None);
    assert_eq!(oracle.path(NodeId(1), NodeId(0)), None);
    assert_eq!(oracle.path(NodeId(0), NodeId(1)).unwrap().nodes, [NodeId(0), NodeId(1)]);
}

/// Arc costs of one quantum (1/64 s) beside 4 096 s: a ratio of 2¹⁸ would
/// need that many buckets, so the ring is capped, the buckets grow wider
/// than the cheapest arc and the sweep label-corrects inside a bucket —
/// and is still exact. (A zero-cost arc cannot be built: `RoadNetwork::new`
/// rounds every cost up to at least one quantum; `routing::sweep`'s unit
/// tests feed the kernel zero-cost arcs directly.)
#[test]
fn sweep_is_exact_when_arc_costs_span_a_quantum_to_4096_s() {
    const N: u32 = 14;
    let points = (0..N).map(|i| GeoPoint::new(30.0 + 0.001 * f64::from(i), 104.0)).collect();
    // 1 m/s, so metres are seconds. A cheap one-way chain with dear
    // shortcuts and way back: shortest paths mix both kinds of arc.
    let arc = |from: u32, to: u32, length_m: f64| EdgeSpec {
        from: NodeId(from % N),
        to: NodeId(to % N),
        length_m,
        speed_kmh: 3.6,
    };
    let mut edges = Vec::new();
    for i in 0..N - 1 {
        edges.push(arc(i, i + 1, if i % 3 == 2 { 4096.0 } else { 1.0 / 64.0 }));
        edges.push(arc(i + 1, i, 4096.0));
        edges.push(arc(i, i * 5 + 3, if i % 2 == 0 { 1.0 / 64.0 } else { 4096.0 }));
    }
    let g = RoadNetwork::new(points, &edges).unwrap();
    let costs: Vec<f32> = g.nodes().flat_map(|v| g.out_edges(v).map(|(_, c)| c)).collect();
    assert!(costs.contains(&(1.0 / 64.0)) && costs.contains(&4096.0));
    let (mut fwd, mut bwd) = (Sweep::forward(&g), Sweep::backward(&g));
    let (mut from, mut to) = (Vec::new(), Vec::new());
    let finite = |c: f32| c.is_finite().then_some(f64::from(c));
    for root in g.nodes() {
        fwd.run(root, &mut from);
        bwd.run(root, &mut to);
        for v in g.nodes() {
            assert_eq!(finite(from[v.index()]), bellman_ford_cost(&g, root, v), "{root}->{v}");
            assert_eq!(finite(to[v.index()]), bellman_ford_cost(&g, v, root), "{v}->{root}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The route counterpart of the bit-for-bit cost contract below, on
    /// random pairs of random cities: the pinned vector and the cache's
    /// sweep both walk the smallest shortest path, on the base metric and
    /// after a traffic shift re-customized the cache and re-targeted the
    /// pins.
    #[test]
    fn oracle_path_is_cache_path_on_base_and_shifted_metrics(
        kind in 0usize..3,
        seed in 0u64..10_000,
        a in 0u32..10_000,
        b in 0u32..10_000,
        center in 0u32..10_000,
        radius_m in 150.0f64..2500.0,
        factor_x100 in 110u32..=500,
    ) {
        let g = Arc::new(walk_city(kind, seed));
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let cache = PathCache::new(g.clone());
        let mut oracle = HotNodeOracle::over(cache.clone());
        oracle.pin(b);
        assert_canonical_route(&oracle, &cache, &g, a, b);

        let spec = TrafficShiftSpec {
            center: NodeId(center % n),
            radius_m,
            factor: f64::from(factor_x100) / 100.0,
            start_s: 0.0,
            duration_s: 1.0,
        };
        let shifted = Arc::new(apply_traffic_shifts(&g, &[spec]).unwrap());
        cache.recustomize(shifted.clone());
        oracle.retarget();
        assert_canonical_route(&oracle, &cache, &shifted, a, b);
    }

    #[test]
    fn all_engines_agree_with_bellman_ford(
        seed in 0u64..8,
        s in 0u32..144,
        t in 0u32..144,
    ) {
        let g = city(seed);
        let (s, t) = (NodeId(s), NodeId(t));
        let oracle = bellman_ford_cost(&g, s, t).expect("strongly connected");
        let mut d = Dijkstra::new(&g);
        let mut bi = BidirDijkstra::new(&g);
        prop_assert!((d.cost(&g, s, t).unwrap() - oracle).abs() < 1e-2);
        prop_assert!((bi.cost(&g, s, t).unwrap() - oracle).abs() < 1e-2);
    }

    #[test]
    fn triangle_inequality_holds(
        seed in 0u64..4,
        a in 0u32..144,
        b in 0u32..144,
        c in 0u32..144,
    ) {
        let g = city(seed);
        let cache = PathCache::new(g);
        let ab = cache.cost(NodeId(a), NodeId(b)).unwrap();
        let bc = cache.cost(NodeId(b), NodeId(c)).unwrap();
        let ac = cache.cost(NodeId(a), NodeId(c)).unwrap();
        prop_assert!(ac <= ab + bc + 1e-2, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn cache_and_oracle_are_transparent(
        seed in 0u64..4,
        s in 0u32..144,
        t in 0u32..144,
        pin_src in proptest::bool::ANY,
        // Pairs over six vertices, so a sequence repeats pairs.
        queries in proptest::collection::vec((0u32..6, 0u32..6), 1..48),
    ) {
        let g = city(seed);
        let mut d = Dijkstra::new(&g);
        let want = d.cost(&g, NodeId(s), NodeId(t)).unwrap();

        let cache = PathCache::new(g.clone());
        prop_assert_eq!(cache.cost(NodeId(s), NodeId(t)).unwrap().to_bits(), want.to_bits());
        // Second query must return the identical memoized value.
        prop_assert_eq!(
            cache.cost(NodeId(s), NodeId(t)).unwrap().to_bits(),
            cache.cost(NodeId(s), NodeId(t)).unwrap().to_bits()
        );

        let oracle = HotNodeOracle::new(g.clone());
        if pin_src { oracle.pin(NodeId(s)); } else { oracle.pin(NodeId(t)); }
        prop_assert_eq!(oracle.cost(NodeId(s), NodeId(t)).unwrap().to_bits(), want.to_bits());

        // On a fresh cache: every answer is Dijkstra's bits, every
        // non-self query is one hit or one miss, each miss adds one memo
        // entry, and a replay is all hits with the same bits.
        let cache = PathCache::new(g.clone());
        let pairs: Vec<_> = queries.iter().map(|&(a, b)| (NodeId(a * 23), NodeId(b * 23))).collect();
        let asked = pairs.iter().filter(|(a, b)| a != b).count() as u64;
        let mut first_misses = None;
        for round in 1..=2 {
            for &(a, b) in &pairs {
                let got = cache.cost(a, b).map(f64::to_bits);
                prop_assert_eq!(got, d.cost(&g, a, b).map(f64::to_bits), "{}->{}", a, b);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, asked * round);
            prop_assert_eq!(cache.len() as u64, stats.misses);
            prop_assert_eq!(*first_misses.get_or_insert(stats.misses), stats.misses, "replay missed");
        }
    }

    /// The single-vector oracle contract: a leg cost is read from the
    /// target's backward vector when pinned and searched for otherwise,
    /// and a route is walked down whichever vector holds it — sound
    /// only if the forward sweep, the backward sweep, plain Dijkstra and
    /// bidirectional search return the *same bits*. Dyadic edge costs make
    /// every f32 path sum exact and every quanta sum the same number, on
    /// jittered and all-ties cities, on base and traffic-shifted
    /// (re-quantized) metrics: every entry of both vectors is the point
    /// query's answer.
    #[test]
    fn one_to_all_all_to_one_and_bidir_agree_bit_for_bit(
        kind in 0usize..3,
        seed in 0u64..10_000,
        a in 0u32..10_000,
        b in 0u32..10_000,
        metric in 0usize..4,
        center in 0u32..10_000,
        radius_m in 150.0f64..2500.0,
        factor_x100 in 110u32..=500,
    ) {
        let g = on_metric(
            walk_city(kind, seed), metric, center, radius_m, f64::from(factor_x100) / 100.0,
        );
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let (mut from_a, mut to_b) = (Vec::new(), Vec::new());
        Sweep::forward(&g).run(a, &mut from_a);
        Sweep::backward(&g).run(b, &mut to_b);
        prop_assert_eq!((from_a.len(), to_b.len()), (g.node_count(), g.node_count()));
        let finite = |c: f32| c.is_finite().then_some(f64::from(c));
        let mut d = Dijkstra::new(&g);
        for v in g.nodes() {
            prop_assert_eq!(finite(from_a[v.index()]), d.cost(&g, a, v), "{}->{}", a, v);
            prop_assert_eq!(finite(to_b[v.index()]), d.cost(&g, v, b), "{}->{}", v, b);
        }
        let mut bi = BidirDijkstra::new(&g);
        prop_assert_eq!(bi.cost(&g, a, b), finite(to_b[a.index()]), "bidir {}->{}", a, b);
    }

    /// The pin engine sweeps its own copy of the arcs, so the bug to rule
    /// out is an engine left on the old metric: after `recustomize` +
    /// `retarget`, vectors that were pinned before *and* vectors pinned
    /// afterwards equal a fresh oracle's on the live graph, there and back.
    #[test]
    fn pins_follow_the_metric_through_recustomize_and_retarget(
        kind in 0usize..3,
        seed in 0u64..10_000,
        before in 0u32..10_000,
        after in 0u32..10_000,
        metric in 1usize..4,
        center in 0u32..10_000,
        radius_m in 150.0f64..2500.0,
        factor_x100 in 110u32..=500,
    ) {
        let g = Arc::new(walk_city(kind, seed));
        let shifted = Arc::new(on_metric(
            (*g).clone(), metric, center, radius_m, f64::from(factor_x100) / 100.0,
        ));
        let n = g.node_count() as u32;
        let (before, after) = (NodeId(before % n), NodeId(after % n));
        let cache = PathCache::new(g.clone());
        let mut oracle = HotNodeOracle::over(cache.clone());
        oracle.pin(before);
        assert_pinned_vector_is_exact_on(&oracle, &g, before);

        cache.recustomize(shifted.clone());
        oracle.retarget();
        oracle.pin(after);
        assert_pinned_vector_is_exact_on(&oracle, &shifted, before);
        assert_pinned_vector_is_exact_on(&oracle, &shifted, after);

        cache.recustomize(g.clone());
        oracle.retarget();
        assert_pinned_vector_is_exact_on(&oracle, &g, before);
        assert_pinned_vector_is_exact_on(&oracle, &g, after);
        prop_assert_eq!(oracle.stats().searches, 0, "every read came off a vector");
    }

    /// CH vs the one-to-all kernel on the 64×64 and 80×80 seed-7 grids: one
    /// exact sweep per case, compared against a strided set of CH queries.
    #[test]
    fn ch_matches_dijkstra_on_large_seed7_grids(
        shape in 0usize..2,
        s in 0u32..4096,
        offset in 0usize..61,
    ) {
        let (g, ch) = seed7_grid(shape);
        let mut q = ChQuery::new(ch.clone());
        let mut want = Vec::new();
        Sweep::forward(g).run(NodeId(s), &mut want);
        for t in g.nodes().skip(offset).step_by(61) {
            let w = want[t.index()];
            prop_assert_eq!(
                q.cost(NodeId(s), t),
                w.is_finite().then_some(f64::from(w)),
                "shape {} {}->{}", shape, s, t
            );
        }
    }

    #[test]
    fn returned_paths_are_valid_walks_with_exact_cost(
        seed in 0u64..4,
        s in 0u32..144,
        t in 0u32..144,
    ) {
        let g = city(seed);
        let p = PathCache::new(g.clone()).path(NodeId(s), NodeId(t)).unwrap();
        prop_assert_eq!(p.start(), NodeId(s));
        prop_assert_eq!(p.end(), NodeId(t));
        let mut total = 0.0f64;
        for w in p.nodes.windows(2) {
            let c = g.direct_edge_cost(w[0], w[1]);
            prop_assert!(c.is_some(), "non-adjacent consecutive nodes");
            total += c.unwrap() as f64;
        }
        prop_assert!((total - p.cost_s).abs() < 1e-2);
    }

    #[test]
    fn masked_search_never_beats_unmasked(
        seed in 0u64..4,
        s in 0u32..144,
        t in 0u32..144,
        keep_fraction in 3u32..10,
    ) {
        let g = city(seed);
        let mut mask = NodeMask::new(&g);
        mask.clear();
        // Keep endpoints plus a pseudo-random subset of vertices.
        mask.allow(NodeId(s));
        mask.allow(NodeId(t));
        for n in g.nodes() {
            if (n.0.wrapping_mul(2654435761) >> 16) % 10 < keep_fraction {
                mask.allow(n);
            }
        }
        let mut md = MaskedDijkstra::new(&g);
        let mut d = Dijkstra::new(&g);
        let free = d.cost(&g, NodeId(s), NodeId(t)).unwrap();
        if let Some(p) = md.path_masked(&g, NodeId(s), NodeId(t), &mask) {
            prop_assert!(p.cost_s >= free - 1e-2, "masked {} < free {}", p.cost_s, free);
        }
    }
}
