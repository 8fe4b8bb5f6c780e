//! Randomized mini-scenarios: for arbitrary (seeded) workloads, fleets,
//! deadline factors and disruption mixes, every scheme's run must pass the
//! auditor (`mtshare_sim::audit`). Catches event-ordering and replanning
//! bugs that fixed scenarios miss.

use mt_share::chaos::ChaosConfig;
use mt_share::core::PartitionStrategy;
use mt_share::road::{grid_city, GridCityConfig};
use mt_share::routing::PathCache;
use mt_share::sim::{
    audited_run, build_context, BatchConfig, Scenario, ScenarioConfig, SchemeKind, SimConfig,
    Simulator, WorkloadConfig,
};
use proptest::prelude::*;
use std::sync::Arc;

/// The non-peak comparison set plus the rolling-horizon batch dispatcher:
/// the fuzzers must cover the LAP window path alongside the greedy ones.
const FUZZ_SET: [SchemeKind; 6] = [
    SchemeKind::NoSharing,
    SchemeKind::TShare,
    SchemeKind::PGreedyDp,
    SchemeKind::MtShare,
    SchemeKind::MtSharePro,
    SchemeKind::MtShareBatch,
];

/// Batch sim-config for the batch scheme, `None` otherwise. Window width
/// varies with the seed so flush boundaries land in different places.
fn batch_cfg(kind: SchemeKind, seed: u64) -> Option<BatchConfig> {
    (kind == SchemeKind::MtShareBatch)
        .then_some(BatchConfig { window_s: 10.0 + (seed % 5) as f64 * 15.0, max_retries: 2 })
}

fn run_random(
    seed: u64,
    n_taxis: usize,
    n_requests: usize,
    rho: f64,
    offline_fraction: f64,
    kind: SchemeKind,
) -> (mt_share::sim::SimReport, Vec<String>) {
    let graph = Arc::new(
        grid_city(&GridCityConfig { rows: 16, cols: 16, seed: seed % 5, ..Default::default() })
            .unwrap(),
    );
    let cache = PathCache::new(graph.clone());
    let cfg = ScenarioConfig {
        kind: mt_share::sim::ScenarioKind::NonPeak,
        n_taxis,
        capacity: 2 + (seed % 3) as u8,
        rho,
        n_requests,
        duration_s: 1200.0,
        offline_fraction,
        n_historical: 400,
        workload: WorkloadConfig {
            seed: seed.wrapping_mul(31),
            min_trip_m: 400.0,
            ..Default::default()
        },
        seed,
    };
    let scenario = Scenario::generate(graph.clone(), &cache, cfg);
    let ctx = kind
        .needs_context()
        .then(|| build_context(&graph, &scenario.historical, 6, PartitionStrategy::Bipartite));
    let mut scheme = kind.build(&graph, scenario.taxis.len(), ctx, None);
    let sim_cfg = SimConfig { batch: batch_cfg(kind, seed), ..SimConfig::default() };
    audited_run(Simulator::new(graph, cache, &scenario, sim_cfg), scheme.as_mut())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_scenarios_uphold_invariants(
        seed in 0u64..1000,
        n_taxis in 2usize..10,
        n_requests in 5usize..40,
        rho_pct in 105u32..200,
        offline_pct in 0u32..50,
        scheme_pick in 0usize..6,
    ) {
        let kind = FUZZ_SET[scheme_pick];
        let (r, findings) = run_random(
            seed,
            n_taxis,
            n_requests,
            rho_pct as f64 / 100.0,
            offline_pct as f64 / 100.0,
            kind,
        );
        prop_assert!(findings.is_empty(), "{}: {:#?}", r.scheme, findings);
    }

    /// Under *any* seeded disruption sequence — breakdowns, cancels and
    /// traffic shifts in arbitrary mixes — the audit stays clean: every
    /// request ends in exactly one terminal state inside its deadlines as
    /// recovery renegotiated them, and the `--validate-every` sweep counts
    /// nothing.
    #[test]
    fn seeded_disruptions_leave_every_request_in_one_terminal_state(
        seed in 0u64..1000,
        chaos_seed in 0u64..1000,
        breakdowns in 0u32..4,
        cancels in 0u32..6,
        shifts in 0u32..3,
        n_taxis in 2usize..8,
        n_requests in 5usize..30,
        scheme_pick in 0usize..6,
    ) {
        let kind = FUZZ_SET[scheme_pick];
        let graph = Arc::new(
            grid_city(&GridCityConfig { rows: 16, cols: 16, seed: seed % 5, ..Default::default() })
                .unwrap(),
        );
        let cache = PathCache::new(graph.clone());
        let cfg = ScenarioConfig {
            kind: mt_share::sim::ScenarioKind::NonPeak,
            n_taxis,
            capacity: 2 + (seed % 3) as u8,
            rho: 1.6,
            n_requests,
            duration_s: 1200.0,
            offline_fraction: 0.2,
            n_historical: 400,
            workload: WorkloadConfig {
                seed: seed.wrapping_mul(31),
                min_trip_m: 400.0,
                ..Default::default()
            },
            seed,
        };
        let scenario = Scenario::generate(graph.clone(), &cache, cfg);
        let ctx = kind
            .needs_context()
            .then(|| build_context(&graph, &scenario.historical, 6, PartitionStrategy::Bipartite));
        let mut scheme = kind.build(&graph, scenario.taxis.len(), ctx, None);
        let mut chaos = ChaosConfig::with_seed(chaos_seed);
        chaos.breakdowns = breakdowns;
        chaos.cancellations = cancels;
        chaos.traffic_shifts = shifts;
        let sim_cfg = SimConfig {
            chaos: Some(chaos),
            validate_every: Some(90.0),
            batch: batch_cfg(kind, seed),
            ..SimConfig::default()
        };
        let sim = Simulator::new(graph, cache, &scenario, sim_cfg);
        let (r, findings) = audited_run(sim, scheme.as_mut());
        prop_assert!(findings.is_empty(), "{}: {:#?}", r.scheme, findings);
        prop_assert_eq!(r.invariant_violations, 0, "{}: {:?}", r.scheme, r);
    }
}
