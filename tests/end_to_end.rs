//! End-to-end simulations for every scheme with invariant auditing: each
//! served passenger is delivered before their deadline, is picked up after
//! release, and the accounting adds up.

use mt_share::core::PartitionStrategy;
use mt_share::road::{grid_city, GridCityConfig};
use mt_share::routing::PathCache;
use mt_share::sim::{
    build_context, BatchConfig, Scenario, ScenarioConfig, SchemeKind, SimConfig, SimReport,
    Simulator,
};
use std::sync::Arc;

fn run(kind: SchemeKind, cfg: ScenarioConfig) -> (Scenario, SimReport) {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, cfg);
    let ctx = kind
        .needs_context()
        .then(|| build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite));
    let mut scheme = kind.build(&graph, scenario.taxis.len(), ctx, None);
    let batch = (kind == SchemeKind::MtShareBatch).then(BatchConfig::default);
    let sim_cfg = SimConfig { batch, ..SimConfig::default() };
    let report = Simulator::new(graph, cache, &scenario, sim_cfg).run(scheme.as_mut());
    (scenario, report)
}

fn audit(scenario: &Scenario, report: &SimReport) {
    assert_eq!(report.served, report.served_records.len(), "audit trail complete");
    assert_eq!(report.served + report.rejected, report.n_requests, "every request accounted for");
    for rec in &report.served_records {
        let req = &scenario.requests[rec.request as usize];
        assert!(rec.pickup_t >= req.release_time - 1e-6, "{:?} picked up before release", rec);
        assert!(rec.pickup_t <= rec.dropoff_t, "{rec:?} dropped before pickup");
        assert!(
            rec.dropoff_t <= req.deadline + 1e-3,
            "{:?} missed deadline {} (dropoff {})",
            rec,
            req.deadline,
            rec.dropoff_t
        );
        // Travel cannot beat the shortest path.
        assert!(
            rec.dropoff_t - rec.pickup_t >= req.direct_cost_s - 1.0,
            "{rec:?} beat the shortest path ({} < {})",
            rec.dropoff_t - rec.pickup_t,
            req.direct_cost_s
        );
        assert!(rec.taxi < report.n_taxis as u32);
    }
    // No request served twice.
    let mut ids: Vec<u32> = report.served_records.iter().map(|r| r.request).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), report.served_records.len(), "request served twice");
}

#[test]
fn peak_all_schemes_respect_invariants() {
    for kind in SchemeKind::PEAK_SET {
        let (scenario, report) = run(kind, ScenarioConfig::peak(14));
        assert!(report.served > 0, "{} served nothing", report.scheme);
        audit(&scenario, &report);
    }
}

#[test]
fn nonpeak_all_schemes_respect_invariants() {
    for kind in SchemeKind::NONPEAK_SET {
        let (scenario, report) = run(kind, ScenarioConfig::nonpeak(14));
        assert!(report.served > 0, "{} served nothing", report.scheme);
        audit(&scenario, &report);
    }
}

#[test]
fn sharing_beats_no_sharing_under_pressure() {
    // Fixed demand well above solo capacity.
    let mut cfg = ScenarioConfig::peak(10);
    cfg.n_requests = 220;
    let (_, ns) = run(SchemeKind::NoSharing, cfg.clone());
    let (_, mt) = run(SchemeKind::MtShare, cfg);
    assert!(
        mt.served as f64 >= ns.served as f64 * 1.1,
        "mT-Share {} should clearly beat No-Sharing {}",
        mt.served,
        ns.served
    );
}

#[test]
fn offline_requests_only_served_through_encounters() {
    let mut cfg = ScenarioConfig::nonpeak(16);
    cfg.offline_fraction = 0.5;
    let (scenario, report) = run(SchemeKind::MtSharePro, cfg);
    // Offline riders can never be picked up before a taxi could have
    // physically encountered them (pickup ≥ release already audited);
    // additionally, served_offline + served_online must equal served.
    audit(&scenario, &report);
    assert_eq!(report.served, report.served_online + report.served_offline);
    assert!(report.n_offline > 0);
}

#[test]
fn payment_conservation_across_schemes() {
    for kind in [SchemeKind::TShare, SchemeKind::PGreedyDp, SchemeKind::MtShare] {
        let (_, r) = run(kind, ScenarioConfig::peak(12));
        assert!(
            (r.total_passenger_fares - r.total_driver_income).abs() < 1e-6,
            "{}: rider payments {} != driver income {}",
            r.scheme,
            r.total_passenger_fares,
            r.total_driver_income
        );
        assert!(r.total_passenger_fares <= r.total_solo_fares + 1e-6, "{}", r.scheme);
        assert!(r.total_benefit >= 0.0);
    }
}

fn assert_repeats(kind: SchemeKind, cfg: ScenarioConfig) {
    let (_, a) = run(kind, cfg.clone());
    let (_, b) = run(kind, cfg);
    assert!(a.served > 0, "scenario must exercise the dispatcher: {a:?}");
    assert_eq!(a.served, b.served);
    assert_eq!(a.served_records, b.served_records);
    assert_eq!(a.rejected, b.rejected);
    assert_eq!(a.total_driver_income, b.total_driver_income);
}

#[test]
fn deterministic_given_seeds() {
    assert_repeats(SchemeKind::MtShare, ScenarioConfig::peak(10));
}

#[test]
fn batch_run_repeats_identically() {
    // Window flushes go through the LAP solve and the revalidated commit
    // path; they must be as reproducible as greedy dispatch.
    assert_repeats(SchemeKind::MtShareBatch, ScenarioConfig::peak(12));
}
