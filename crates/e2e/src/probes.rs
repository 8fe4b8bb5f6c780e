//! Layer probes: timed calls to public functions of single layers, on
//! inputs sampled from the workload's own scenario. Traced pass only.

use crate::rep::Prepared;
use crate::stats::median;
use crate::workloads::WorkloadSpec;
use mtshare_core::{MtShareConfig, SegmentRouter};
use mtshare_road::NodeId;
use mtshare_routing::{HotNodeOracle, PathCache, RouterBackend};
use std::hint::black_box;
use std::time::Instant;

/// OD pairs priced by the point-to-point probe.
const P2P_PAIRS: usize = 2000;
/// Calls behind every other probe's median.
const CALLS: usize = 200;
/// Cost lookups per warm-memo sample (a single hit is too short to time).
const WARM_BATCH: usize = 10;
/// Taxi positions primed towards one pickup, the candidate-set size the
/// simulator sees.
const PRIME_SOURCES: usize = 40;
/// Metric customizations timed (each is a full bottom-up sweep).
const CUSTOMIZE_CALLS: usize = 5;

/// Median cost of one call into each probed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `CustomizableCh::customize`, ms (0 unless cch).
    pub customize_ms: f64,
    /// `PathCache::cost` on a fresh memo, µs.
    pub p2p_cold_us: f64,
    /// `PathCache::cost` on the same pairs again, µs.
    pub p2p_warm_us: f64,
    /// `PathCache::path`, µs.
    pub path_us: f64,
    /// `prime_many_to_one`, µs per source (0 under bidir, where it is a
    /// no-op).
    pub prime_us_per_source: f64,
    /// `HotNodeOracle::pin` + `unpin`, ms.
    pub pin_ms: f64,
    /// `SegmentRouter::basic_leg` (Alg. 3), µs.
    pub basic_leg_us: f64,
    /// `SegmentRouter::probabilistic_leg` (Alg. 4), µs.
    pub prob_leg_us: f64,
}

fn time_us<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64() * 1e6
}

/// Runs every probe against the prepared inputs of `spec`.
pub fn run_probes(spec: &WorkloadSpec, p: &Prepared) -> Probes {
    let graph = &p.graph;
    let requests = &p.scenario.requests;
    let pairs: Vec<(NodeId, NodeId)> =
        requests.iter().take(P2P_PAIRS).map(|r| (r.origin, r.destination)).collect();
    let few = &pairs[..pairs.len().min(CALLS)];

    // First, so a metric left shifted by the last repetition is the base
    // metric again before anything is priced on it.
    let customize_ms = match &p.backend {
        RouterBackend::Cch(cch) => {
            let ms: Vec<f64> =
                (0..CUSTOMIZE_CALLS).map(|_| time_us(|| cch.customize(graph)) / 1e3).collect();
            median(&ms)
        }
        _ => 0.0,
    };

    let cache = PathCache::with_backend(graph.clone(), p.backend.clone());
    let cold: Vec<f64> = pairs.iter().map(|&(a, b)| time_us(|| cache.cost(a, b))).collect();
    let warm: Vec<f64> = pairs
        .chunks(WARM_BATCH)
        .map(|chunk| {
            time_us(|| chunk.iter().filter_map(|&(a, b)| cache.cost(a, b)).sum::<f64>())
                / chunk.len() as f64
        })
        .collect();
    let path: Vec<f64> = few.iter().map(|&(a, b)| time_us(|| cache.path(a, b))).collect();

    let sources: Vec<NodeId> =
        p.scenario.taxis.iter().take(PRIME_SOURCES).map(|t| t.location).collect();
    let mut targets: Vec<NodeId> = requests.iter().map(|r| r.origin).collect();
    targets.dedup();
    let prime_cache = PathCache::with_backend(graph.clone(), p.backend.clone());
    let prime: Vec<f64> = targets
        .iter()
        .take(CALLS)
        .filter_map(|&target| {
            let t = Instant::now();
            let primed = prime_cache.prime_many_to_one(&sources, target);
            (primed > 0).then(|| t.elapsed().as_secs_f64() * 1e6 / primed as f64)
        })
        .collect();

    let oracle = HotNodeOracle::new(graph.clone());
    let pin: Vec<f64> = few
        .iter()
        .map(|&(a, _)| {
            time_us(|| {
                oracle.pin(a);
                oracle.unpin(a);
            }) / 1e3
        })
        .collect();

    let mut router = SegmentRouter::new(graph);
    let basic_cfg = MtShareConfig::default();
    let prob_cfg = MtShareConfig::default().with_probabilistic();
    let basic: Vec<f64> = few
        .iter()
        .map(|&(a, b)| time_us(|| router.basic_leg(graph, &p.ctx, &basic_cfg, &cache, a, b)))
        .collect();
    let prob: Vec<f64> = few
        .iter()
        .map(|&(a, b)| {
            let dir = graph.point(a).displacement_m(&graph.point(b));
            let budget_s = cache.cost(a, b).unwrap_or(0.0) * spec.rho;
            time_us(|| {
                router.probabilistic_leg(graph, &p.ctx, &prob_cfg, &cache, a, b, dir, budget_s)
            })
        })
        .collect();

    Probes {
        customize_ms,
        p2p_cold_us: median(&cold),
        p2p_warm_us: median(&warm),
        path_us: median(&path),
        prime_us_per_source: median(&prime),
        pin_ms: median(&pin),
        basic_leg_us: median(&basic),
        prob_leg_us: median(&prob),
    }
}

/// A fixed pure-CPU loop, milliseconds. Run before and after every
/// workload so that host-speed drift between two sets of runs is visible
/// instead of being mistaken for a change in the program.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0_u64;
    for _ in 0..30_000_000_u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}
