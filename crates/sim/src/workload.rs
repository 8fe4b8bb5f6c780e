//! Synthetic Chengdu-like workload generation.
//!
//! Stands in for the Didi GAIA trace (see DESIGN.md substitutions): demand
//! is a mixture of K spatial hotspots plus a uniform background, with a
//! gravity-style OD structure (trips flow between hotspots with
//! attraction-weighted probabilities). The generator produces both the
//! *historical* trips that train the bipartite partitioner and the *live*
//! request streams of the peak / non-peak scenarios. Fully deterministic
//! given a seed.

use mtshare_mobility::Trip;
use mtshare_road::{GeoPoint, NodeId, RoadNetwork, SpatialGrid};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A generated request before deadline materialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawRequest {
    /// Release time, seconds from scenario start.
    pub release_time: f64,
    /// Origin vertex.
    pub origin: NodeId,
    /// Destination vertex.
    pub destination: NodeId,
    /// Riders travelling together.
    pub passengers: u8,
    /// Whether this request hails at the roadside (offline).
    pub offline: bool,
}

/// Configuration of the demand model.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of demand hotspots.
    pub hotspots: usize,
    /// Gaussian-ish spread of demand around a hotspot, metres.
    pub hotspot_spread_m: f64,
    /// Fraction of trips drawn uniformly instead of from hotspots.
    pub uniform_fraction: f64,
    /// Minimum straight-line trip length, metres (re-sampled below).
    pub min_trip_m: f64,
    /// Probability that a party has 2 riders (else 1).
    pub two_rider_fraction: f64,
    /// Probability that a trip's destination is drawn from the two
    /// heaviest hotspots (the "CBD pull" of a commute peak). The remainder
    /// follows the general gravity mixture.
    pub dest_concentration: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            hotspots: 8,
            hotspot_spread_m: 700.0,
            uniform_fraction: 0.2,
            // Drops the shortest trips. The paper's Fig. 5(b) has p50 ≈ 15
            // and p90 ≈ 30 min; on the default 7.2 km city this generator
            // measures p50 = 23.0 and p90 = 34.5 min (EXPERIMENTS.md,
            // fig5). ROADMAP item 19(b) owns calibrating trip length.
            min_trip_m: 1800.0,
            two_rider_fraction: 0.15,
            dest_concentration: 0.5,
            seed: 42,
        }
    }
}

/// Hotspot-mixture demand generator over a road network.
pub struct WorkloadGenerator {
    graph: Arc<RoadNetwork>,
    grid: SpatialGrid,
    hotspot_centers: Vec<GeoPoint>,
    hotspot_weights: Vec<f64>,
    cfg: WorkloadConfig,
    rng: SmallRng,
}

impl WorkloadGenerator {
    /// Creates a generator; hotspot locations are sampled from the graph.
    pub fn new(graph: Arc<RoadNetwork>, cfg: WorkloadConfig) -> Self {
        assert!(cfg.hotspots >= 1);
        assert!((0.0..=1.0).contains(&cfg.uniform_fraction));
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let grid = SpatialGrid::build(&graph, 300.0);
        let n = graph.node_count() as u32;
        let mut hotspot_centers = Vec::with_capacity(cfg.hotspots);
        let mut hotspot_weights = Vec::with_capacity(cfg.hotspots);
        for _ in 0..cfg.hotspots {
            hotspot_centers.push(graph.point(NodeId(rng.gen_range(0..n))));
            // Zipf-ish attraction weights.
            hotspot_weights.push(1.0 / (1.0 + hotspot_weights.len() as f64).sqrt());
        }
        Self { graph, grid, hotspot_centers, hotspot_weights, cfg, rng }
    }

    fn sample_hotspot(&mut self) -> usize {
        let total: f64 = self.hotspot_weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total);
        for (i, w) in self.hotspot_weights.iter().enumerate() {
            x -= w;
            if x <= 0.0 {
                return i;
            }
        }
        self.hotspot_weights.len() - 1
    }

    /// Samples a vertex near a point (uniform disc of the configured
    /// spread), falling back to the nearest vertex.
    fn sample_near(&mut self, center: GeoPoint) -> NodeId {
        let r = self.cfg.hotspot_spread_m * self.rng.gen_range(0.0f64..1.0).sqrt();
        let theta = self.rng.gen_range(0.0..std::f64::consts::TAU);
        let meters_per_deg = 111_195.0;
        let p = GeoPoint::new(
            center.lat + r * theta.sin() / meters_per_deg,
            center.lng + r * theta.cos() / (meters_per_deg * center.lat.to_radians().cos()),
        );
        self.grid.nearest_node(&self.graph, &p).expect("non-empty graph")
    }

    fn sample_uniform(&mut self) -> NodeId {
        NodeId(self.rng.gen_range(0..self.graph.node_count() as u32))
    }

    /// Samples one origin-destination pair under the gravity mixture.
    pub fn sample_od(&mut self) -> (NodeId, NodeId) {
        for _ in 0..32 {
            let origin = if self.rng.gen_bool(self.cfg.uniform_fraction) {
                self.sample_uniform()
            } else {
                let h = self.sample_hotspot();
                let c = self.hotspot_centers[h];
                self.sample_near(c)
            };
            let destination = if self.rng.gen_bool(self.cfg.dest_concentration) {
                // Commute pull: the two heaviest hotspots absorb a fixed
                // share of all trips (Chengdu-style CBD flow).
                let h = self.rng.gen_range(0..2.min(self.hotspot_centers.len()));
                let c = self.hotspot_centers[h];
                self.sample_near(c)
            } else if self.rng.gen_bool(self.cfg.uniform_fraction) {
                self.sample_uniform()
            } else {
                // Gravity: destinations pull toward (another) hotspot.
                let h = self.sample_hotspot();
                let c = self.hotspot_centers[h];
                self.sample_near(c)
            };
            if origin != destination
                && self.graph.point(origin).distance_m(&self.graph.point(destination))
                    >= self.cfg.min_trip_m
            {
                return (origin, destination);
            }
        }
        // Degenerate tiny graphs: accept whatever differs.
        let a = self.sample_uniform();
        let mut b = self.sample_uniform();
        while b == a {
            b = self.sample_uniform();
        }
        (a, b)
    }

    /// Generates `n` historical trips for training the partitioner.
    pub fn historical_trips(&mut self, n: usize) -> Vec<Trip> {
        (0..n)
            .map(|_| {
                let (origin, destination) = self.sample_od();
                Trip { origin, destination }
            })
            .collect()
    }

    /// Generates `n` live requests uniformly spread over
    /// `[start, start + duration_s)` (a Poisson stream conditioned on its
    /// count), with the given fraction marked offline. Sorted by release
    /// time.
    pub fn requests(
        &mut self,
        n: usize,
        start: f64,
        duration_s: f64,
        offline_fraction: f64,
    ) -> Vec<RawRequest> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let (origin, destination) = self.sample_od();
            let passengers = if self.rng.gen_bool(self.cfg.two_rider_fraction) { 2 } else { 1 };
            out.push(RawRequest {
                release_time: start + self.rng.gen_range(0.0..duration_s.max(1e-9)),
                origin,
                destination,
                passengers,
                offline: self.rng.gen_bool(offline_fraction),
            });
        }
        out.sort_by(|a, b| a.release_time.total_cmp(&b.release_time));
        out
    }

    /// Generates a multi-hour stream following an hourly demand profile
    /// (`counts[h]` requests in hour `h`). Used by the Fig. 5 / Fig. 21
    /// experiments.
    pub fn day_stream(&mut self, counts: &[usize], offline_fraction: f64) -> Vec<RawRequest> {
        let mut out = Vec::new();
        for (h, &c) in counts.iter().enumerate() {
            out.extend(self.requests(c, h as f64 * 3600.0, 3600.0, offline_fraction));
        }
        out.sort_by(|a, b| a.release_time.total_cmp(&b.release_time));
        out
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Arc<RoadNetwork> {
        &self.graph
    }
}

/// An hourly demand profile shaped like the paper's Fig. 5(a): morning and
/// evening workday peaks, scaled so the busiest hour has `peak` requests.
pub fn workday_profile(peak: usize) -> Vec<usize> {
    // Relative utilization by hour 0..23 (Fig. 5a workday shape).
    const SHAPE: [f64; 24] = [
        0.18, 0.12, 0.08, 0.06, 0.06, 0.10, 0.25, 0.55, 1.00, 0.90, 0.75, 0.72, 0.70, 0.72, 0.75,
        0.78, 0.82, 0.95, 0.92, 0.80, 0.65, 0.50, 0.38, 0.25,
    ];
    SHAPE.iter().map(|s| (s * peak as f64).round() as usize).collect()
}

/// Weekend profile: flatter, later rise (Fig. 5a weekend shape).
pub fn weekend_profile(peak: usize) -> Vec<usize> {
    const SHAPE: [f64; 24] = [
        0.30, 0.22, 0.15, 0.10, 0.08, 0.08, 0.12, 0.25, 0.45, 0.60, 0.70, 0.75, 0.78, 0.80, 0.80,
        0.80, 0.82, 0.85, 0.88, 1.00, 0.95, 0.85, 0.65, 0.45,
    ];
    SHAPE.iter().map(|s| (s * peak as f64).round() as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig};

    fn generator(seed: u64) -> WorkloadGenerator {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        WorkloadGenerator::new(g, WorkloadConfig { seed, ..Default::default() })
    }

    #[test]
    fn requests_sorted_and_in_window() {
        let mut w = generator(1);
        let reqs = w.requests(200, 100.0, 3600.0, 0.3);
        assert_eq!(reqs.len(), 200);
        assert!(reqs.windows(2).all(|p| p[0].release_time <= p[1].release_time));
        assert!(reqs.iter().all(|r| r.release_time >= 100.0 && r.release_time < 3700.0));
        let offline = reqs.iter().filter(|r| r.offline).count();
        assert!(offline > 20 && offline < 120, "offline count {offline}");
    }

    #[test]
    fn trips_have_min_length_and_distinct_endpoints() {
        let mut w = generator(2);
        let g = w.graph().clone();
        for t in w.historical_trips(300) {
            assert_ne!(t.origin, t.destination);
            let d = g.point(t.origin).distance_m(&g.point(t.destination));
            assert!(d >= 700.0, "trip too short: {d}");
        }
    }

    #[test]
    fn demand_is_spatially_concentrated() {
        let mut w = generator(3);
        let g = w.graph().clone();
        let trips = w.historical_trips(2000);
        // Count trips per node; hotspot structure ⇒ the top decile of
        // origin nodes carries a disproportionate share.
        let mut counts = vec![0u32; g.node_count()];
        for t in &trips {
            counts[t.origin.index()] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = counts.iter().take(g.node_count() / 10).sum();
        assert!(
            top as f64 / trips.len() as f64 > 0.2,
            "top-decile share {}",
            top as f64 / trips.len() as f64
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generator(7).requests(50, 0.0, 100.0, 0.5);
        let b = generator(7).requests(50, 0.0, 100.0, 0.5);
        assert_eq!(a, b);
    }

    #[test]
    fn day_profiles_have_expected_shape() {
        let wd = workday_profile(1000);
        let we = weekend_profile(1000);
        assert_eq!(wd.len(), 24);
        assert_eq!(*wd.iter().max().unwrap(), 1000);
        assert_eq!(wd[8], 1000, "workday peaks at 8am");
        assert_eq!(we[19], 1000, "weekend peaks in the evening");
        assert!(wd[3] < wd[8] / 5);
    }

    #[test]
    fn day_stream_follows_profile() {
        let mut w = generator(9);
        let stream = w.day_stream(&[10, 0, 30], 0.0);
        assert_eq!(stream.len(), 40);
        let hour0 = stream.iter().filter(|r| r.release_time < 3600.0).count();
        let hour2 = stream.iter().filter(|r| r.release_time >= 7200.0).count();
        assert_eq!(hour0, 10);
        assert_eq!(hour2, 30);
    }
}
