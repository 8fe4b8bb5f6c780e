//! Scenario presets mirroring Sec. V-A1 and request materialization.

use crate::workload::{RawRequest, WorkloadConfig, WorkloadGenerator};
use mtshare_baselines::{NoSharing, PGreedyDp, TShare};
use mtshare_core::{MobilityContext, MtShare, MtShareConfig, PartitionStrategy};
use mtshare_mobility::Trip;
use mtshare_model::{DispatchScheme, RequestId, RequestStore, RideRequest, Taxi, TaxiId};
use mtshare_road::{NodeId, RoadNetwork};
use mtshare_routing::PathCache;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which scenario of Sec. V-A1 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Workday rush hour: many online requests, no offline requests.
    Peak,
    /// Weekend mid-morning: fewer requests, a third of them offline.
    NonPeak,
}

/// Full scenario description (defaults scale Table II to the synthetic
/// city — see DESIGN.md).
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario kind.
    pub kind: ScenarioKind,
    /// Fleet size.
    pub n_taxis: usize,
    /// Seats per taxi.
    pub capacity: u8,
    /// Deadline flexibility factor ρ (Eq. 9).
    pub rho: f64,
    /// Number of live requests.
    pub n_requests: usize,
    /// Scenario duration in seconds.
    pub duration_s: f64,
    /// Fraction of requests that are offline.
    pub offline_fraction: f64,
    /// Historical trips used to train the partitioner.
    pub n_historical: usize,
    /// Demand-model configuration.
    pub workload: WorkloadConfig,
    /// RNG seed for taxi placement.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The peak scenario at the default scaled fleet size.
    pub fn peak(n_taxis: usize) -> Self {
        Self {
            kind: ScenarioKind::Peak,
            n_taxis,
            capacity: 4,
            rho: 1.3,
            // Scaled from 29 534 requests / 3000 taxis ≈ 10 requests per
            // taxi per hour.
            n_requests: n_taxis * 10,
            duration_s: 3600.0,
            offline_fraction: 0.0,
            n_historical: 6000,
            workload: WorkloadConfig::default(),
            seed: 99,
        }
    }

    /// The non-peak scenario: weekend demand with a third offline
    /// (5000 of 15 480 in the paper).
    pub fn nonpeak(n_taxis: usize) -> Self {
        Self {
            kind: ScenarioKind::NonPeak,
            n_taxis,
            capacity: 4,
            rho: 1.3,
            // Scaled from 15 480 requests / 3000 taxis ≈ 5 per taxi-hour.
            n_requests: n_taxis * 5,
            duration_s: 3600.0,
            offline_fraction: 5000.0 / 15480.0,
            n_historical: 6000,
            workload: WorkloadConfig { seed: 43, ..Default::default() },
            seed: 100,
        }
    }

    /// Places the fleet at random vertices (Sec. V-A4).
    pub fn make_fleet(&self, graph: &RoadNetwork) -> Vec<Taxi> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        (0..self.n_taxis)
            .map(|i| {
                Taxi::new(
                    TaxiId(i as u32),
                    self.capacity,
                    NodeId(rng.gen_range(0..graph.node_count() as u32)),
                )
            })
            .collect()
    }
}

/// A fully materialized scenario ready to simulate.
pub struct Scenario {
    /// Configuration it was built from.
    pub config: ScenarioConfig,
    /// Historical trips (partitioner training data).
    pub historical: Vec<Trip>,
    /// Live requests with deadlines, sorted by release time.
    pub requests: Vec<RideRequest>,
    /// Initial fleet.
    pub taxis: Vec<Taxi>,
}

impl Scenario {
    /// Generates the scenario over `graph`, using `cache` to compute the
    /// direct trip costs that define deadlines (Eq. 9:
    /// `e = t + cost(o, d) × ρ`). Requests with unreachable ODs are
    /// discarded (and logged in the count difference).
    pub fn generate(graph: Arc<RoadNetwork>, cache: &PathCache, config: ScenarioConfig) -> Self {
        let mut gen = WorkloadGenerator::new(graph.clone(), config.workload.clone());
        let historical = gen.historical_trips(config.n_historical);
        let raw = gen.requests(config.n_requests, 0.0, config.duration_s, config.offline_fraction);
        let requests = materialize(&raw, cache, config.rho);
        let taxis = config.make_fleet(&graph);
        Self { config, historical, requests, taxis }
    }

    /// Request store preloaded with every request (the simulator reveals
    /// them by release time).
    pub fn request_store(&self) -> RequestStore {
        let mut store = RequestStore::new();
        for r in &self.requests {
            store.push(r.clone());
        }
        store
    }
}

/// Converts raw requests into deadline-stamped ride requests, dropping
/// unreachable OD pairs.
pub fn materialize(raw: &[RawRequest], cache: &PathCache, rho: f64) -> Vec<RideRequest> {
    let mut out = Vec::with_capacity(raw.len());
    for r in raw {
        let Some(direct) = cache.cost(r.origin, r.destination) else { continue };
        if direct <= 0.0 {
            continue;
        }
        out.push(RideRequest {
            id: RequestId(out.len() as u32),
            release_time: r.release_time,
            origin: r.origin,
            destination: r.destination,
            passengers: r.passengers,
            deadline: r.release_time + direct * rho,
            direct_cost_s: direct,
            offline: r.offline,
        });
    }
    out
}

/// Every scheme of the Sec. V comparison, constructed uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Regular taxi service.
    NoSharing,
    /// T-Share baseline.
    TShare,
    /// pGreedyDP baseline.
    PGreedyDp,
    /// mT-Share with basic routing.
    MtShare,
    /// mT-Share with probabilistic routing enabled.
    MtSharePro,
    /// mT-Share scoring under rolling-horizon batch (LAP) dispatch.
    MtShareBatch,
}

impl SchemeKind {
    /// All schemes compared in the peak scenario.
    pub const PEAK_SET: [SchemeKind; 4] =
        [SchemeKind::NoSharing, SchemeKind::TShare, SchemeKind::PGreedyDp, SchemeKind::MtShare];

    /// All schemes compared in the non-peak scenario.
    pub const NONPEAK_SET: [SchemeKind; 5] = [
        SchemeKind::NoSharing,
        SchemeKind::TShare,
        SchemeKind::PGreedyDp,
        SchemeKind::MtShare,
        SchemeKind::MtSharePro,
    ];

    /// Display name used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchemeKind::NoSharing => "No-Sharing",
            SchemeKind::TShare => "T-Share",
            SchemeKind::PGreedyDp => "pGreedyDP",
            SchemeKind::MtShare => "mT-Share",
            SchemeKind::MtSharePro => "mT-Share_pro",
            SchemeKind::MtShareBatch => "mT-Share_batch",
        }
    }

    /// Whether this scheme needs the mobility context.
    pub fn needs_context(&self) -> bool {
        matches!(self, SchemeKind::MtShare | SchemeKind::MtSharePro | SchemeKind::MtShareBatch)
    }

    /// Instantiates the scheme for a fleet of `n_taxis` over `graph`.
    /// `ctx` must be `Some` for the mT-Share variants; `mt_cfg` overrides
    /// the mT-Share configuration (γ and λ sweeps).
    pub fn build(
        &self,
        graph: &RoadNetwork,
        n_taxis: usize,
        ctx: Option<Arc<MobilityContext>>,
        mt_cfg: Option<MtShareConfig>,
    ) -> Box<dyn DispatchScheme> {
        let base_cfg = mt_cfg.unwrap_or_default();
        let gamma_m = base_cfg.max_search_range_m;
        // The minimum-detour schemes score insertions through one engine
        // (`--scheduler dp|dtree`): mT-Share builds its own from the config,
        // pGreedyDP takes it explicitly. No-Sharing and T-Share take the
        // first valid instance and hold none.
        match self {
            SchemeKind::NoSharing => Box::new(NoSharing::new(graph, n_taxis, gamma_m)),
            SchemeKind::TShare => Box::new(TShare::new(graph, n_taxis, gamma_m)),
            SchemeKind::PGreedyDp => Box::new(
                PGreedyDp::new(graph, n_taxis, gamma_m)
                    .with_engine(mtshare_model::make_engine(base_cfg.scheduler, n_taxis)),
            ),
            SchemeKind::MtShare => {
                let ctx = ctx.expect("mT-Share needs a mobility context");
                let mut cfg = base_cfg;
                cfg.probabilistic = false;
                Box::new(MtShare::new(graph, ctx, cfg, n_taxis))
            }
            SchemeKind::MtSharePro => {
                let ctx = ctx.expect("mT-Share_pro needs a mobility context");
                let cfg = base_cfg.with_probabilistic();
                Box::new(MtShare::new(graph, ctx, cfg, n_taxis))
            }
            SchemeKind::MtShareBatch => {
                let ctx = ctx.expect("mT-Share_batch needs a mobility context");
                let mut cfg = base_cfg.with_batch();
                cfg.probabilistic = false;
                Box::new(MtShare::new(graph, ctx, cfg, n_taxis))
            }
        }
    }
}

/// Builds the mobility context for a scenario (bipartite by default).
pub fn build_context(
    graph: &RoadNetwork,
    historical: &[Trip],
    kappa: usize,
    strategy: PartitionStrategy,
) -> Arc<MobilityContext> {
    let kt = (kappa / 8).max(2);
    MobilityContext::build(graph, historical, kappa, kt, 17, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig};

    #[test]
    fn generate_peak_scenario() {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let s = Scenario::generate(graph, &cache, ScenarioConfig::peak(10));
        assert_eq!(s.taxis.len(), 10);
        assert!(s.requests.len() >= 95, "kept {}", s.requests.len());
        assert!(s.requests.iter().all(|r| !r.offline));
        // Deadlines follow Eq. 9.
        for r in &s.requests {
            assert!((r.deadline - (r.release_time + r.direct_cost_s * 1.3)).abs() < 1e-6);
            assert!(r.is_feasible());
        }
        let store = s.request_store();
        assert_eq!(store.len(), s.requests.len());
    }

    #[test]
    fn nonpeak_has_offline_share() {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let s = Scenario::generate(graph, &cache, ScenarioConfig::nonpeak(20));
        let offline = s.requests.iter().filter(|r| r.offline).count();
        let frac = offline as f64 / s.requests.len() as f64;
        assert!((0.2..0.45).contains(&frac), "offline fraction {frac}");
    }

    #[test]
    fn scheme_factory_builds_all() {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let s = Scenario::generate(graph.clone(), &cache, ScenarioConfig::peak(5));
        let ctx = build_context(&graph, &s.historical, 12, PartitionStrategy::Bipartite);
        for kind in SchemeKind::NONPEAK_SET {
            let scheme = kind.build(&graph, 5, Some(ctx.clone()), None);
            assert_eq!(scheme.name(), kind.label());
        }
        let batch = SchemeKind::MtShareBatch.build(&graph, 5, Some(ctx.clone()), None);
        assert_eq!(batch.name(), "mT-Share_batch");
        assert!(!SchemeKind::TShare.needs_context());
        assert!(SchemeKind::MtShare.needs_context());
        assert!(SchemeKind::MtShareBatch.needs_context());
    }
}
