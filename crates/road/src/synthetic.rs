//! Synthetic city generators.
//!
//! The paper evaluates on the OpenStreetMap road network of Chengdu's 2nd
//! Ring Road area. That asset is not available offline, so these generators
//! produce road networks with the same qualitative structure the mT-Share
//! algorithms exploit: planar local connectivity, heterogeneous edge costs
//! (arterials vs. side streets), and geographically meaningful travel
//! directions. All generators are deterministic given a seed and always
//! return strongly connected graphs (every street is two-way).

use crate::geo::GeoPoint;
use crate::graph::{EdgeSpec, GraphError, RoadNetwork};
use crate::ids::NodeId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`grid_city`].
#[derive(Debug, Clone)]
pub struct GridCityConfig {
    /// Number of node rows.
    pub rows: usize,
    /// Number of node columns.
    pub cols: usize,
    /// Block edge length in metres.
    pub spacing_m: f64,
    /// Every `arterial_every`-th row/column is an arterial road.
    pub arterial_every: usize,
    /// Speed on arterial segments, km/h.
    pub arterial_speed_kmh: f64,
    /// Speed on ordinary segments, km/h.
    pub street_speed_kmh: f64,
    /// Positional jitter as a fraction of spacing (0.0..0.5).
    pub jitter_frac: f64,
    /// Fraction of diagonal shortcut edges to sprinkle in (0.0..1.0),
    /// relative to the number of grid cells.
    pub diagonal_frac: f64,
    /// City centre coordinate (defaults to Chengdu).
    pub center: GeoPoint,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GridCityConfig {
    fn default() -> Self {
        Self {
            rows: 100,
            cols: 100,
            spacing_m: 120.0,
            arterial_every: 8,
            arterial_speed_kmh: 15.0,
            street_speed_kmh: 15.0,
            jitter_frac: 0.15,
            diagonal_frac: 0.03,
            center: GeoPoint::new(30.66, 104.06),
            seed: 7,
        }
    }
}

impl GridCityConfig {
    /// A small graph for unit tests (~400 nodes).
    pub fn tiny() -> Self {
        Self { rows: 20, cols: 20, ..Self::default() }
    }

    /// A larger graph for scalability experiments.
    pub fn large() -> Self {
        Self { rows: 200, cols: 200, ..Self::default() }
    }

    /// The city-scale tier (160 k nodes) for preprocessing benchmarks.
    pub fn huge() -> Self {
        Self { rows: 400, cols: 400, ..Self::default() }
    }
}

/// Generates a perturbed Manhattan grid city.
///
/// All streets are two-way so the network is strongly connected by
/// construction; forward and backward directions get independently jittered
/// lengths so the graph is genuinely directed.
pub fn grid_city(cfg: &GridCityConfig) -> Result<RoadNetwork, GraphError> {
    assert!(cfg.rows >= 2 && cfg.cols >= 2, "grid must be at least 2x2");
    assert!((0.0..0.5).contains(&cfg.jitter_frac), "jitter_frac must be in [0, 0.5)");
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    let meters_per_deg_lat = 111_195.0;
    let meters_per_deg_lng = 111_195.0 * cfg.center.lat.to_radians().cos();
    let dlat = cfg.spacing_m / meters_per_deg_lat;
    let dlng = cfg.spacing_m / meters_per_deg_lng;
    let lat0 = cfg.center.lat - dlat * (cfg.rows as f64 - 1.0) / 2.0;
    let lng0 = cfg.center.lng - dlng * (cfg.cols as f64 - 1.0) / 2.0;

    let node = |r: usize, c: usize| NodeId((r * cfg.cols + c) as u32);
    let mut points = Vec::with_capacity(cfg.rows * cfg.cols);
    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            let jl: f64 = rng.gen_range(-cfg.jitter_frac..=cfg.jitter_frac);
            let jg: f64 = rng.gen_range(-cfg.jitter_frac..=cfg.jitter_frac);
            points
                .push(GeoPoint::new(lat0 + (r as f64 + jl) * dlat, lng0 + (c as f64 + jg) * dlng));
        }
    }

    let is_arterial = |idx: usize| cfg.arterial_every > 0 && idx.is_multiple_of(cfg.arterial_every);
    let mut edges = Vec::with_capacity(cfg.rows * cfg.cols * 4);
    let mut add_two_way =
        |points: &[GeoPoint], rng: &mut SmallRng, a: NodeId, b: NodeId, speed: f64| {
            let base = points[a.index()].distance_m(&points[b.index()]).max(10.0);
            // Independent detour factors per direction make the graph directed.
            let fwd = base * rng.gen_range(1.0..1.15);
            let bwd = base * rng.gen_range(1.0..1.15);
            edges.push(EdgeSpec { from: a, to: b, length_m: fwd, speed_kmh: speed });
            edges.push(EdgeSpec { from: b, to: a, length_m: bwd, speed_kmh: speed });
        };

    for r in 0..cfg.rows {
        for c in 0..cfg.cols {
            if c + 1 < cfg.cols {
                let speed =
                    if is_arterial(r) { cfg.arterial_speed_kmh } else { cfg.street_speed_kmh };
                add_two_way(&points, &mut rng, node(r, c), node(r, c + 1), speed);
            }
            if r + 1 < cfg.rows {
                let speed =
                    if is_arterial(c) { cfg.arterial_speed_kmh } else { cfg.street_speed_kmh };
                add_two_way(&points, &mut rng, node(r, c), node(r + 1, c), speed);
            }
        }
    }

    // Diagonal shortcuts inside random cells.
    let n_diag = ((cfg.rows - 1) * (cfg.cols - 1)) as f64 * cfg.diagonal_frac;
    for _ in 0..n_diag as usize {
        let r = rng.gen_range(0..cfg.rows - 1);
        let c = rng.gen_range(0..cfg.cols - 1);
        let (a, b) = if rng.gen_bool(0.5) {
            (node(r, c), node(r + 1, c + 1))
        } else {
            (node(r, c + 1), node(r + 1, c))
        };
        add_two_way(&points, &mut rng, a, b, cfg.street_speed_kmh);
    }

    RoadNetwork::new(points, &edges)
}

/// Configuration for [`ring_radial_city`].
#[derive(Debug, Clone)]
pub struct RingRadialConfig {
    /// Number of concentric rings (≥ 1).
    pub rings: usize,
    /// Number of radial spokes (≥ 3).
    pub spokes: usize,
    /// Radial distance between rings in metres.
    pub ring_spacing_m: f64,
    /// Travel speed in km/h on every segment.
    pub speed_kmh: f64,
    /// City centre coordinate.
    pub center: GeoPoint,
    /// RNG seed for length perturbation.
    pub seed: u64,
}

impl Default for RingRadialConfig {
    fn default() -> Self {
        Self {
            rings: 8,
            spokes: 16,
            ring_spacing_m: 400.0,
            speed_kmh: 15.0,
            center: GeoPoint::new(30.66, 104.06),
            seed: 11,
        }
    }
}

/// Generates a ring-and-spoke city: a centre vertex, `rings` concentric
/// rings of `spokes` vertices each, ring edges between angular neighbours
/// and radial edges between consecutive rings. Strongly connected.
pub fn ring_radial_city(cfg: &RingRadialConfig) -> Result<RoadNetwork, GraphError> {
    assert!(cfg.rings >= 1 && cfg.spokes >= 3);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let meters_per_deg_lat = 111_195.0;
    let meters_per_deg_lng = 111_195.0 * cfg.center.lat.to_radians().cos();

    let mut points = vec![cfg.center];
    for ring in 1..=cfg.rings {
        let radius = ring as f64 * cfg.ring_spacing_m;
        for s in 0..cfg.spokes {
            let theta = std::f64::consts::TAU * s as f64 / cfg.spokes as f64;
            points.push(GeoPoint::new(
                cfg.center.lat + radius * theta.sin() / meters_per_deg_lat,
                cfg.center.lng + radius * theta.cos() / meters_per_deg_lng,
            ));
        }
    }
    let node = |ring: usize, s: usize| {
        if ring == 0 {
            NodeId(0)
        } else {
            NodeId((1 + (ring - 1) * cfg.spokes + s % cfg.spokes) as u32)
        }
    };

    let mut edges = Vec::new();
    let mut add_two_way = |points: &[GeoPoint], rng: &mut SmallRng, a: NodeId, b: NodeId| {
        let base = points[a.index()].distance_m(&points[b.index()]).max(10.0);
        edges.push(EdgeSpec {
            from: a,
            to: b,
            length_m: base * rng.gen_range(1.0..1.1),
            speed_kmh: cfg.speed_kmh,
        });
        edges.push(EdgeSpec {
            from: b,
            to: a,
            length_m: base * rng.gen_range(1.0..1.1),
            speed_kmh: cfg.speed_kmh,
        });
    };
    for s in 0..cfg.spokes {
        add_two_way(&points, &mut rng, node(0, 0), node(1, s));
        for ring in 1..cfg.rings {
            add_two_way(&points, &mut rng, node(ring, s), node(ring + 1, s));
        }
        for ring in 1..=cfg.rings {
            add_two_way(&points, &mut rng, node(ring, s), node(ring, s + 1));
        }
    }
    RoadNetwork::new(points, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_city_is_strongly_connected() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        assert_eq!(g.node_count(), 400);
        assert!(g.edge_count() > 1500);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn grid_city_is_deterministic() {
        let a = grid_city(&GridCityConfig::tiny()).unwrap();
        let b = grid_city(&GridCityConfig::tiny()).unwrap();
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for n in a.nodes().take(50) {
            assert_eq!(a.point(n), b.point(n));
        }
    }

    #[test]
    fn different_seed_different_city() {
        let a = grid_city(&GridCityConfig::tiny()).unwrap();
        let b = grid_city(&GridCityConfig { seed: 99, ..GridCityConfig::tiny() }).unwrap();
        let moved = a.nodes().take(100).filter(|n| a.point(*n) != b.point(*n)).count();
        assert!(moved > 50);
    }

    #[test]
    fn arterials_are_faster() {
        let cfg = GridCityConfig { arterial_speed_kmh: 40.0, ..GridCityConfig::tiny() };
        let g = grid_city(&cfg).unwrap();
        // At least one edge should be traversed at 40 km/h: cost = len / (40/3.6).
        let mut has_fast = false;
        for n in g.nodes() {
            for (t, cost, len, _) in g.out_edges_full(n) {
                let speed_kmh = len as f64 / cost as f64 * 3.6;
                if speed_kmh > 39.0 {
                    has_fast = true;
                }
                assert!(t != n, "no self loops");
            }
        }
        assert!(has_fast);
    }

    #[test]
    fn ring_radial_is_strongly_connected() {
        let g = ring_radial_city(&RingRadialConfig::default()).unwrap();
        assert_eq!(g.node_count(), 1 + 8 * 16);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn grid_city_spans_expected_extent() {
        let cfg = GridCityConfig::tiny();
        let g = grid_city(&cfg).unwrap();
        let want = cfg.spacing_m * (cfg.cols - 1) as f64;
        let got = g.bbox().width_m();
        assert!((got - want).abs() / want < 0.25, "want≈{want} got={got}");
    }
}
