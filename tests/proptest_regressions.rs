//! Guards for the checked-in `.proptest-regressions` files.
//!
//! The vendored proptest shim does not read regression files, so two
//! things keep them from rotting: (1) every file must stay syntactically
//! valid — a future migration back to upstream proptest must be able to
//! load them — and (2) each pinned counterexample is replayed here as an
//! explicit deterministic test, so the bug it once caught stays caught.
//! CI runs this suite alongside a deep-fuzz pass (`PROPTEST_CASES`) whose
//! fresh failures get folded back into the files and this list.

use mt_share::chaos::ChaosConfig;
use mt_share::core::{settle_episode, PartitionStrategy, PassengerTrip, PaymentConfig};
use mt_share::model::RequestId;
use mt_share::road::{grid_city, GridCityConfig};
use mt_share::routing::PathCache;
use mt_share::sim::{
    audited_run, build_context, Scenario, ScenarioConfig, SchemeKind, SimConfig, Simulator,
    WorkloadConfig,
};
use std::sync::Arc;

/// All regression files tracked in the repository. Listing them explicitly
/// (rather than globbing) means a new file must also come with replay
/// coverage below, or this test is updated consciously.
const REGRESSION_FILES: &[&str] = &[
    "tests/payment_properties.proptest-regressions",
    "tests/simulation_fuzz.proptest-regressions",
];

#[test]
fn regression_files_parse() {
    let root = env!("CARGO_MANIFEST_DIR");
    for rel in REGRESSION_FILES {
        let path = format!("{root}/{rel}");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {rel}: {e}"));
        let mut pinned = 0usize;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Upstream proptest's persistence format: `cc <64-hex-digest>`
            // optionally followed by a `# shrinks to ...` comment.
            let rest = line
                .strip_prefix("cc ")
                .unwrap_or_else(|| panic!("{rel}:{}: unknown directive `{line}`", i + 1));
            let digest = rest.split_whitespace().next().unwrap_or("");
            assert_eq!(digest.len(), 64, "{rel}:{}: digest `{digest}` is not 64 chars", i + 1);
            assert!(
                digest.chars().all(|c| c.is_ascii_hexdigit()),
                "{rel}:{}: digest `{digest}` is not hex",
                i + 1
            );
            if let Some(comment) = rest[digest.len()..].trim_start().strip_prefix('#') {
                assert!(
                    comment.trim_start().starts_with("shrinks to"),
                    "{rel}:{}: unexpected trailing comment `{comment}`",
                    i + 1
                );
            }
            pinned += 1;
        }
        assert!(pinned >= 1, "{rel}: no pinned cases — delete the file instead");
    }
}

/// Replays the pinned counterexample from
/// `payment_properties.proptest-regressions`: one rider with a large
/// detour, one on the direct path and one whose solo trip dwarfs the
/// shared route, settled with β ≈ 0.78 at the minimum η. Historically the
/// rebate clamp let rider 2's fare go negative here.
#[test]
fn payment_regression_case_settles_cleanly() {
    let trips = [
        PassengerTrip {
            request: RequestId(0),
            shared_cost_s: 742.7073117229244,
            direct_cost_s: 300.0,
        },
        PassengerTrip { request: RequestId(1), shared_cost_s: 300.0, direct_cost_s: 300.0 },
        PassengerTrip {
            request: RequestId(2),
            shared_cost_s: 2679.492525802072,
            direct_cost_s: 2679.492525802072,
        },
    ];
    let cfg = PaymentConfig { beta: 0.7814627481067329, eta: 0.001, ..Default::default() };
    let s = settle_episode(&trips, 300.0, &cfg);

    assert!(s.benefit >= 0.0);
    assert!(s.benefit <= s.no_share_total + 1e-9);
    let total: f64 = s.fares.iter().map(|(_, f)| f).sum();
    assert!((total - s.driver_income).abs() < 1e-6);
    assert!(s.driver_income >= s.no_share_total - cfg.beta * s.benefit - 1e-6);
    for (t, (_, fare)) in trips.iter().zip(&s.fares) {
        let solo = cfg.fare.fare_for_cost(t.direct_cost_s);
        assert!(*fare <= solo + 1e-9, "fare {fare} > solo {solo}");
        assert!(*fare >= 0.0, "negative fare {fare}");
    }
}

/// Replays the pinned counterexample from
/// `simulation_fuzz.proptest-regressions`: seed 820, a 2-taxi fleet under
/// 21 requests at ρ = 1.75 with mT-Share (scheme_pick = 3). Historically
/// a replanning race here delivered a rider after their deadline.
#[test]
fn simulation_fuzz_regression_case_upholds_invariants() {
    let seed = 820u64;
    let graph = Arc::new(
        grid_city(&GridCityConfig { rows: 16, cols: 16, seed: seed % 5, ..Default::default() })
            .unwrap(),
    );
    let cache = PathCache::new(graph.clone());
    let cfg = ScenarioConfig {
        kind: mt_share::sim::ScenarioKind::NonPeak,
        n_taxis: 2,
        capacity: 2 + (seed % 3) as u8,
        rho: 1.75,
        n_requests: 21,
        duration_s: 1200.0,
        offline_fraction: 0.0,
        n_historical: 400,
        workload: WorkloadConfig {
            seed: seed.wrapping_mul(31),
            min_trip_m: 400.0,
            ..Default::default()
        },
        seed,
    };
    let scenario = Scenario::generate(graph.clone(), &cache, cfg);
    let ctx = build_context(&graph, &scenario.historical, 6, PartitionStrategy::Bipartite);
    let mut scheme = SchemeKind::MtShare.build(&graph, scenario.taxis.len(), Some(ctx), None);
    let sim = Simulator::new(graph, cache, &scenario, SimConfig::default());
    let (_, findings) = audited_run(sim, scheme.as_mut());
    assert!(findings.is_empty(), "{findings:#?}");
}

/// Replays case 534 of `simulation_fuzz`'s
/// `seeded_disruptions_leave_every_request_in_one_terminal_state`, which
/// only a deep pass (`PROPTEST_CASES` ≥ 535) reaches: seed 802, chaos seed
/// 435, five cancels and two traffic shifts over 7 taxis and 26 requests
/// under mT-Share_pro. A cancel's schedule repair once committed a plan
/// that moved another rider's drop-off past their deadline.
#[test]
fn cancel_repair_case_keeps_every_deadline() {
    let seed = 802u64;
    let graph = Arc::new(
        grid_city(&GridCityConfig { rows: 16, cols: 16, seed: seed % 5, ..Default::default() })
            .unwrap(),
    );
    let cache = PathCache::new(graph.clone());
    let cfg = ScenarioConfig {
        kind: mt_share::sim::ScenarioKind::NonPeak,
        n_taxis: 7,
        capacity: 2 + (seed % 3) as u8,
        rho: 1.6,
        n_requests: 26,
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
    let ctx = build_context(&graph, &scenario.historical, 6, PartitionStrategy::Bipartite);
    let mut scheme = SchemeKind::MtSharePro.build(&graph, scenario.taxis.len(), Some(ctx), None);
    let mut chaos = ChaosConfig::with_seed(435);
    (chaos.breakdowns, chaos.cancellations, chaos.traffic_shifts) = (0, 5, 2);
    let sim_cfg =
        SimConfig { chaos: Some(chaos), validate_every: Some(90.0), ..SimConfig::default() };
    let sim = Simulator::new(graph, cache, &scenario, sim_cfg);
    let (r, findings) = audited_run(sim, scheme.as_mut());
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(r.invariant_violations, 0, "{r:?}");
}

/// Replays case 1352 of `simulation_fuzz`'s
/// `seeded_disruptions_leave_every_request_in_one_terminal_state`, which
/// only a deep pass (`PROPTEST_CASES` ≥ 1353) reaches: seed 87, chaos seed
/// 36, three breakdowns, one cancel and two traffic shifts over 6 taxis
/// and 23 requests under T-Share. An orphan re-priced its direct cost on
/// the slowed metric of a shift window, and a later, faster ride then
/// "beat" it (`r1 rode 460.546875 s < direct 629.859375`).
#[test]
fn orphan_direct_cost_ignores_the_shifted_metric() {
    let seed = 87u64;
    let graph = Arc::new(
        grid_city(&GridCityConfig { rows: 16, cols: 16, seed: seed % 5, ..Default::default() })
            .unwrap(),
    );
    let cache = PathCache::new(graph.clone());
    let cfg = ScenarioConfig {
        kind: mt_share::sim::ScenarioKind::NonPeak,
        n_taxis: 6,
        capacity: 2 + (seed % 3) as u8,
        rho: 1.6,
        n_requests: 23,
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
    let mut scheme = SchemeKind::TShare.build(&graph, scenario.taxis.len(), None, None);
    let mut chaos = ChaosConfig::with_seed(36);
    (chaos.breakdowns, chaos.cancellations, chaos.traffic_shifts) = (3, 1, 2);
    let sim_cfg =
        SimConfig { chaos: Some(chaos), validate_every: Some(90.0), ..SimConfig::default() };
    let sim = Simulator::new(graph, cache, &scenario, sim_cfg);
    let (r, findings) = audited_run(sim, scheme.as_mut());
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(r.invariant_violations, 0, "{r:?}");
}
