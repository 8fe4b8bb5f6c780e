//! End-to-end simulations for every scheme, each run under the auditor
//! (`mtshare_sim::audit`): every step keeps capacity and deadlines, every
//! committed leg is priced like plain Dijkstra, and the accounting closes.

use mt_share::core::{MtShareConfig, PartitionStrategy};
use mt_share::model::{DispatchScheme, SchedulerKind};
use mt_share::road::{grid_city, GridCityConfig};
use mt_share::routing::PathCache;
use mt_share::sim::{
    audited_run, build_context, BatchConfig, Scenario, ScenarioConfig, SchemeKind, SimConfig,
    SimReport, Simulator,
};
use std::sync::Arc;

const ALL_SCHEMES: [SchemeKind; 6] = [
    SchemeKind::NoSharing,
    SchemeKind::TShare,
    SchemeKind::PGreedyDp,
    SchemeKind::MtShare,
    SchemeKind::MtSharePro,
    SchemeKind::MtShareBatch,
];

fn setup(
    kind: SchemeKind,
    cfg: ScenarioConfig,
    scheduler: SchedulerKind,
) -> (Simulator, Box<dyn DispatchScheme>) {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, cfg);
    let ctx = kind
        .needs_context()
        .then(|| build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite));
    let mt_cfg = MtShareConfig::default().with_scheduler(scheduler);
    let scheme = kind.build(&graph, scenario.taxis.len(), ctx, Some(mt_cfg));
    let batch = (kind == SchemeKind::MtShareBatch).then(BatchConfig::default);
    let sim_cfg = SimConfig { batch, ..SimConfig::default() };
    (Simulator::new(graph, cache, &scenario, sim_cfg), scheme)
}

fn audited(kind: SchemeKind, cfg: ScenarioConfig, scheduler: SchedulerKind) -> SimReport {
    let (sim, mut scheme) = setup(kind, cfg, scheduler);
    let (report, findings) = audited_run(sim, scheme.as_mut());
    assert!(findings.is_empty(), "{} ({scheduler:?}): {findings:#?}", report.scheme);
    assert!(report.served_records.iter().all(|r| r.taxi < report.n_taxis as u32));
    report
}

fn run(kind: SchemeKind, cfg: ScenarioConfig) -> SimReport {
    audited(kind, cfg, SchedulerKind::Dp)
}

/// Every scheme under both insertion engines, peak and non-peak: the
/// audit finds nothing, and auditing a run does not change its outcome.
#[test]
fn every_scheme_audits_clean_and_unchanged_under_both_schedulers() {
    for scheduler in [SchedulerKind::Dp, SchedulerKind::Dtree] {
        for cfg in [ScenarioConfig::peak(10), ScenarioConfig::nonpeak(10)] {
            for kind in ALL_SCHEMES {
                let a = audited(kind, cfg.clone(), scheduler);
                let (sim, mut scheme) = setup(kind, cfg.clone(), scheduler);
                let b = sim.run(scheme.as_mut());
                assert_eq!(a.served_records, b.served_records, "{} ({scheduler:?})", a.scheme);
                assert_eq!((a.served, a.rejected), (b.served, b.rejected));
                assert_eq!(a.total_driver_income, b.total_driver_income);
            }
        }
    }
}

#[test]
fn peak_all_schemes_respect_invariants() {
    for kind in SchemeKind::PEAK_SET {
        let report = run(kind, ScenarioConfig::peak(14));
        assert!(report.served > 0, "{} served nothing", report.scheme);
    }
}

#[test]
fn nonpeak_all_schemes_respect_invariants() {
    for kind in SchemeKind::NONPEAK_SET {
        let report = run(kind, ScenarioConfig::nonpeak(14));
        assert!(report.served > 0, "{} served nothing", report.scheme);
    }
}

#[test]
fn sharing_beats_no_sharing_under_pressure() {
    // Fixed demand well above solo capacity.
    let mut cfg = ScenarioConfig::peak(10);
    cfg.n_requests = 220;
    let ns = run(SchemeKind::NoSharing, cfg.clone());
    let mt = run(SchemeKind::MtShare, cfg);
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
    let report = run(SchemeKind::MtSharePro, cfg);
    // Pickup ≥ release is audited; the split must also add up.
    assert_eq!(report.served, report.served_online + report.served_offline);
    assert!(report.n_offline > 0);
}

#[test]
fn payment_conservation_across_schemes() {
    for kind in [SchemeKind::TShare, SchemeKind::PGreedyDp, SchemeKind::MtShare] {
        // Fares ≤ solo fares and fares = driver income are audited in `run`.
        let r = run(kind, ScenarioConfig::peak(12));
        assert!(r.total_benefit >= 0.0, "{}", r.scheme);
    }
}

fn assert_repeats(kind: SchemeKind, cfg: ScenarioConfig) {
    let a = run(kind, cfg.clone());
    let b = run(kind, cfg);
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
