//! Property tests for the routing substrate: all engines agree with the
//! Bellman-Ford oracle, costs obey the triangle inequality, caches are
//! transparent, the three exact searches the leg-cost layer mixes agree
//! bit for bit, the contraction hierarchy is exact on the large seed-7
//! grids where same-round cost ties occur, and a route read off a pinned
//! vector is the route the shared cache searches for.

use mt_share::road::{
    apply_traffic_shifts, grid_city, ring_radial_city, EdgeSpec, GeoPoint, GridCityConfig, NodeId,
    RingRadialConfig, RoadNetwork, TrafficShiftSpec,
};
use mt_share::routing::{
    bellman_ford_cost, BidirDijkstra, ChQuery, ContractionHierarchy, Dijkstra, HotNodeOracle,
    MaskedDijkstra, NodeMask, PathCache,
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

/// With `b` pinned, `oracle.path(a, b)` is `cache.path(a, b)` node for node
/// and cost bit for bit. Returns whether the vector alone answered.
fn assert_walk_is_the_search(
    oracle: &HotNodeOracle,
    cache: &PathCache,
    a: NodeId,
    b: NodeId,
) -> bool {
    let want = cache.path(a, b).expect("strongly connected");
    let got = oracle.path(a, b).expect("strongly connected");
    assert_eq!(got.nodes, want.nodes, "{a}->{b}");
    assert_eq!(got.cost_s.to_bits(), want.cost_s.to_bits(), "{a}->{b}");
    let walked = oracle.pinned_path(a, b);
    assert!(walked.iter().all(|p| *p == want), "{a}->{b}");
    walked.is_some()
}

/// Unique shortest paths are the rule on the jittered cities (the walk
/// answers) and the exception on the lattice (it gives up at the first tie
/// and the search answers); the oracle counts which arm ran.
#[test]
fn pinned_path_walks_jittered_cities_and_gives_up_on_lattice_ties() {
    for kind in 0..3 {
        let g = Arc::new(walk_city(kind, 7));
        let n = g.node_count() as u32;
        let cache = PathCache::new(g.clone());
        let oracle = HotNodeOracle::over(cache.clone());
        let (mut pairs, mut walked) = (0u64, 0u64);
        for b in (0..n).step_by(7) {
            oracle.pin(NodeId(b));
            for a in (0..n).step_by(5).filter(|&a| a != b) {
                pairs += 1;
                walked +=
                    u64::from(assert_walk_is_the_search(&oracle, &cache, NodeId(a), NodeId(b)));
            }
            oracle.unpin(NodeId(b));
        }
        let stats = oracle.stats();
        assert_eq!((stats.path_walks, stats.path_searches), (2 * walked, pairs - walked));
        if kind < 2 {
            assert!(walked * 10 >= pairs * 9, "kind {kind}: {walked} of {pairs} pairs walked");
        } else {
            assert!(walked < pairs, "the lattice has ties on almost every pair");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The route counterpart of the bit-for-bit cost contract below: the
    /// pinned vector of the target is a routing table, on the base metric
    /// and after a traffic shift re-customized the cache and re-targeted
    /// the pins.
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
        assert_walk_is_the_search(&oracle, &cache, a, b);

        let spec = TrafficShiftSpec {
            center: NodeId(center % n),
            radius_m,
            factor: f64::from(factor_x100) / 100.0,
            start_s: 0.0,
            duration_s: 1.0,
        };
        cache.recustomize(Arc::new(apply_traffic_shifts(&g, &[spec]).unwrap()));
        oracle.retarget();
        assert_walk_is_the_search(&oracle, &cache, a, b);
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
    ) {
        let g = city(seed);
        let mut d = Dijkstra::new(&g);
        let want = d.cost(&g, NodeId(s), NodeId(t)).unwrap();

        let cache = PathCache::new(g.clone());
        prop_assert!((cache.cost(NodeId(s), NodeId(t)).unwrap() - want).abs() < 1e-2);
        // Second query must return the identical memoized value.
        prop_assert_eq!(
            cache.cost(NodeId(s), NodeId(t)).unwrap(),
            cache.cost(NodeId(s), NodeId(t)).unwrap()
        );

        let oracle = HotNodeOracle::new(g);
        if pin_src { oracle.pin(NodeId(s)); } else { oracle.pin(NodeId(t)); }
        prop_assert!((oracle.cost(NodeId(s), NodeId(t)).unwrap() - want).abs() < 1e-2);
    }

    /// The single-vector oracle contract: a leg cost is read from the
    /// target's backward vector when pinned and searched for otherwise,
    /// and commit-time routing snaps to whichever the caller holds — sound
    /// only if forward Dijkstra, backward Dijkstra and bidirectional
    /// search return the *same bits*. Dyadic edge costs make every f32
    /// path sum exact, on base and traffic-shifted (re-quantized) metrics.
    #[test]
    fn one_to_all_all_to_one_and_bidir_agree_bit_for_bit(
        ring in proptest::bool::ANY,
        seed in 0u64..10_000,
        a in 0u32..10_000,
        b in 0u32..10_000,
        shifted in proptest::bool::ANY,
        center in 0u32..10_000,
        radius_m in 150.0f64..2500.0,
        factor_x100 in 110u32..=500,
    ) {
        let base = if ring {
            ring_radial_city(&RingRadialConfig { seed, ..RingRadialConfig::default() }).unwrap()
        } else {
            grid_city(&GridCityConfig { rows: 12, cols: 12, seed, ..GridCityConfig::default() })
                .unwrap()
        };
        let n = base.node_count() as u32;
        let g = if shifted {
            let spec = TrafficShiftSpec {
                center: NodeId(center % n),
                radius_m,
                factor: f64::from(factor_x100) / 100.0,
                start_s: 0.0,
                duration_s: 1.0,
            };
            apply_traffic_shifts(&base, &[spec]).unwrap()
        } else {
            base
        };
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let mut d = Dijkstra::new(&g);
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        d.one_to_all(&g, a, &mut fwd);
        d.all_to_one(&g, b, &mut bwd);
        prop_assert_eq!(fwd[b.index()].to_bits(), bwd[a.index()].to_bits(), "{}->{}", a, b);
        let finite = |c: f32| c.is_finite().then_some(f64::from(c));
        let mut bi = BidirDijkstra::new(&g);
        prop_assert_eq!(bi.cost(&g, a, b), finite(bwd[a.index()]), "bidir {}->{}", a, b);
        // ... and the full vectors against each other, the other way round.
        for v in g.nodes().step_by(7) {
            let mut col = Vec::new();
            d.all_to_one(&g, v, &mut col);
            prop_assert_eq!(col[a.index()].to_bits(), fwd[v.index()].to_bits(), "{}->{}", a, v);
        }
    }

    /// CH vs Dijkstra on the 64×64 and 80×80 seed-7 grids: one exact
    /// one-to-all per case, compared against a strided sweep of CH queries.
    #[test]
    fn ch_matches_dijkstra_on_large_seed7_grids(
        shape in 0usize..2,
        s in 0u32..4096,
        offset in 0usize..61,
    ) {
        let (g, ch) = seed7_grid(shape);
        let mut q = ChQuery::new(ch.clone());
        let mut d = Dijkstra::new(g);
        let mut want = Vec::new();
        d.one_to_all(g, NodeId(s), &mut want);
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
        let mut bi = BidirDijkstra::new(&g);
        let p = bi.path(&g, NodeId(s), NodeId(t)).unwrap();
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
        if let Some(p) = md.path_masked(&g, NodeId(s), NodeId(t), &mask, None) {
            prop_assert!(p.cost_s >= free - 1e-2, "masked {} < free {}", p.cost_s, free);
        }
    }
}
