//! Failure injection: unreachable OD pairs, infeasible deadlines, empty
//! fleets, zero-capacity taxis, and degenerate graphs must degrade
//! gracefully — rejections, never panics or constraint violations.

use mt_share::baselines::{NoSharing, PGreedyDp, TShare};
use mt_share::chaos::{Disruption, DisruptionPlan, TimedDisruption};
use mt_share::core::{MobilityContext, MtShare, MtShareConfig, PartitionStrategy};
use mt_share::model::{DispatchScheme, RequestId, RequestStore, RideRequest, Taxi, TaxiId, World};
use mt_share::obs::{schema, MemorySink, Obs, RejectReason};
use mt_share::road::{grid_city, EdgeSpec, GeoPoint, GridCityConfig, NodeId, RoadNetwork};
use mt_share::routing::{HotNodeOracle, PathCache};
use mt_share::sim::{Scenario, ScenarioConfig, SimConfig, Simulator};
use std::sync::Arc;

fn one_way_pair() -> Arc<RoadNetwork> {
    // 0 -> 1 reachable, 1 -> 0 not.
    let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
    let edges = vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 100.0, speed_kmh: 15.0 }];
    Arc::new(RoadNetwork::new(pts, &edges).unwrap())
}

fn request(id: u32, origin: u32, dest: u32, direct: f64, deadline: f64) -> RideRequest {
    RideRequest {
        id: RequestId(id),
        release_time: 0.0,
        origin: NodeId(origin),
        destination: NodeId(dest),
        passengers: 1,
        deadline,
        direct_cost_s: direct,
        offline: false,
    }
}

#[test]
fn unreachable_destination_is_rejected_not_panicked() {
    let graph = one_way_pair();
    let cache = PathCache::new(graph.clone());
    let oracle = HotNodeOracle::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(1))];
    let mut requests = RequestStore::new();
    // 1 -> 0 is unreachable.
    let req = request(0, 1, 0, f64::INFINITY, 1e12);
    requests.push(req.clone());
    let world =
        World { graph: &graph, cache: &cache, oracle: &oracle, taxis: &taxis, requests: &requests };

    let ctx = MobilityContext::build(&graph, &[], 1, 1, 0, PartitionStrategy::Grid);
    let mut schemes: Vec<Box<dyn DispatchScheme>> = vec![
        Box::new(NoSharing::new(&graph, 1, 2500.0)),
        Box::new(TShare::new(&graph, 1, 2500.0)),
        Box::new(PGreedyDp::new(&graph, 1, 2500.0)),
        Box::new(MtShare::new(&graph, ctx, MtShareConfig::default(), 1)),
    ];
    for s in &mut schemes {
        s.install(&world);
        let out = s.dispatch(&req, 0.0, &world);
        assert!(out.assignment.is_none(), "{} must reject unreachable trips", s.name());
    }
}

#[test]
fn empty_fleet_rejects_everything() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let oracle = HotNodeOracle::new(graph.clone());
    let taxis: Vec<Taxi> = Vec::new();
    let mut requests = RequestStore::new();
    let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
    let req = request(0, 0, 399, direct, direct * 10.0);
    requests.push(req.clone());
    let world =
        World { graph: &graph, cache: &cache, oracle: &oracle, taxis: &taxis, requests: &requests };

    let ctx = MobilityContext::build(&graph, &[], 4, 2, 0, PartitionStrategy::Grid);
    let mut schemes: Vec<Box<dyn DispatchScheme>> = vec![
        Box::new(NoSharing::new(&graph, 0, 2500.0)),
        Box::new(TShare::new(&graph, 0, 2500.0)),
        Box::new(PGreedyDp::new(&graph, 0, 2500.0)),
        Box::new(MtShare::new(&graph, ctx, MtShareConfig::default(), 0)),
    ];
    for s in &mut schemes {
        s.install(&world);
        let out = s.dispatch(&req, 0.0, &world);
        assert!(out.assignment.is_none());
        assert_eq!(out.candidates_examined, 0, "{}", s.name());
    }
}

#[test]
fn zero_deadline_slack_is_infeasible_from_afar() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let oracle = HotNodeOracle::new(graph.clone());
    // Taxi at the far corner; the deadline leaves zero pickup budget.
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(399))];
    let mut requests = RequestStore::new();
    let direct = cache.cost(NodeId(0), NodeId(20)).unwrap();
    let req = request(0, 0, 20, direct, direct); // deadline == release + direct
    requests.push(req.clone());
    let world =
        World { graph: &graph, cache: &cache, oracle: &oracle, taxis: &taxis, requests: &requests };
    let ctx = MobilityContext::build(&graph, &[], 4, 2, 0, PartitionStrategy::Grid);
    let mut mt = MtShare::new(&graph, ctx, MtShareConfig::default(), 1);
    mt.install(&world);
    assert!(mt.dispatch(&req, 0.0, &world).assignment.is_none());
}

#[test]
fn zero_capacity_taxi_never_assigned() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let oracle = HotNodeOracle::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 0, NodeId(1))];
    let mut requests = RequestStore::new();
    let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
    let req = request(0, 0, 399, direct, direct * 3.0);
    requests.push(req.clone());
    let world =
        World { graph: &graph, cache: &cache, oracle: &oracle, taxis: &taxis, requests: &requests };
    let ctx = MobilityContext::build(&graph, &[], 4, 2, 0, PartitionStrategy::Grid);
    let mut schemes: Vec<Box<dyn DispatchScheme>> = vec![
        Box::new(TShare::new(&graph, 1, 2500.0)),
        Box::new(PGreedyDp::new(&graph, 1, 2500.0)),
        Box::new(MtShare::new(&graph, ctx, MtShareConfig::default(), 1)),
    ];
    for s in &mut schemes {
        s.install(&world);
        assert!(s.dispatch(&req, 0.0, &world).assignment.is_none(), "{}", s.name());
    }
}

/// Runs one request through a full simulation with telemetry attached
/// and returns the bus plus the JSONL trace. The request must end up
/// rejected — the tests below assert on the *reason* counter.
fn run_single_rejection(
    graph: &Arc<RoadNetwork>,
    cache: &PathCache,
    taxis: Vec<Taxi>,
    req: RideRequest,
) -> (Obs, String) {
    let n_taxis = taxis.len();
    let scenario = Scenario {
        config: ScenarioConfig::peak(n_taxis.max(1)),
        historical: Vec::new(),
        requests: vec![req],
        taxis,
    };
    let ctx = MobilityContext::build(graph, &[], 1, 1, 0, PartitionStrategy::Grid);
    let mut scheme = MtShare::new(graph, ctx, MtShareConfig::default(), n_taxis);
    let obs = Obs::enabled();
    let (sink, buf) = MemorySink::new();
    obs.add_sink(Box::new(sink));
    let report = Simulator::new(graph.clone(), cache.clone(), &scenario, SimConfig::default())
        .with_obs(obs.clone())
        .run(&mut scheme);
    assert_eq!(report.served, 0);
    assert_eq!(report.rejected, 1);
    let trace = buf.borrow().clone();
    schema::validate_trace(&trace).expect("rejection trace must be schema-valid");
    (obs, trace)
}

/// Asserts exactly one rejection was recorded, under `reason`.
fn assert_sole_reason(obs: &Obs, trace: &str, reason: RejectReason) {
    for r in RejectReason::ALL {
        let want = u64::from(r == reason);
        assert_eq!(obs.reject_count(r), want, "count for {}", r.label());
    }
    assert!(
        trace.contains(&format!("\"reason\":\"{}\"", reason.label())),
        "trace must name the reason:\n{trace}"
    );
}

#[test]
fn unreachable_od_increments_its_reason_counter() {
    let graph = one_way_pair();
    let cache = PathCache::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(1))];
    let req = request(0, 1, 0, f64::INFINITY, 1e12); // 1 -> 0 unreachable
    let (obs, trace) = run_single_rejection(&graph, &cache, taxis, req);
    assert_sole_reason(&obs, &trace, RejectReason::UnreachableOd);
}

#[test]
fn infeasible_deadline_increments_its_reason_counter() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(399))];
    let direct = cache.cost(NodeId(0), NodeId(20)).unwrap();
    // Deadline below the direct drive: infeasible even from the origin.
    let req = request(0, 0, 20, direct, direct * 0.5);
    let (obs, trace) = run_single_rejection(&graph, &cache, taxis, req);
    assert_sole_reason(&obs, &trace, RejectReason::InfeasibleDeadline);
}

#[test]
fn zero_capacity_increments_its_reason_counter() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 0, NodeId(1))];
    let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
    let req = request(0, 0, 399, direct, direct * 3.0);
    let (obs, trace) = run_single_rejection(&graph, &cache, taxis, req);
    assert_sole_reason(&obs, &trace, RejectReason::ZeroCapacity);
}

#[test]
fn empty_fleet_increments_its_reason_counter() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
    let req = request(0, 0, 399, direct, direct * 10.0);
    let (obs, trace) = run_single_rejection(&graph, &cache, Vec::new(), req);
    assert_sole_reason(&obs, &trace, RejectReason::EmptyFleet);
}

#[test]
fn honest_rejection_classifies_as_no_feasible_insertion() {
    // Serviceable in principle (reachable, feasible deadline, enough
    // seats) but the lone taxi is too far to make the pickup: the
    // fallback reason must be no_feasible_insertion, not a structural one.
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(399))];
    let direct = cache.cost(NodeId(0), NodeId(20)).unwrap();
    let req = request(0, 0, 20, direct, direct + 1.0); // 1 s of slack
    let (obs, trace) = run_single_rejection(&graph, &cache, taxis, req);
    assert_sole_reason(&obs, &trace, RejectReason::NoFeasibleInsertion);
}

/// Like [`run_single_rejection`], but with a hand-built disruption plan
/// injected — the rejection is *caused* by the disruption, and its reason
/// counter must name the cause rather than a world-state guess.
fn run_single_chaos_rejection(
    graph: &Arc<RoadNetwork>,
    cache: &PathCache,
    taxis: Vec<Taxi>,
    req: RideRequest,
    plan: DisruptionPlan,
) -> (Obs, String) {
    let n_taxis = taxis.len();
    let scenario = Scenario {
        config: ScenarioConfig::peak(n_taxis.max(1)),
        historical: Vec::new(),
        requests: vec![req],
        taxis,
    };
    let ctx = MobilityContext::build(graph, &[], 1, 1, 0, PartitionStrategy::Grid);
    let mut scheme = MtShare::new(graph, ctx, MtShareConfig::default(), n_taxis);
    let obs = Obs::enabled();
    let (sink, buf) = MemorySink::new();
    obs.add_sink(Box::new(sink));
    let report = Simulator::new(graph.clone(), cache.clone(), &scenario, SimConfig::default())
        .with_obs(obs.clone())
        .with_disruptions(plan)
        .run(&mut scheme);
    assert_eq!(report.served, 0);
    assert_eq!(report.rejected, 1);
    let trace = buf.borrow().clone();
    schema::validate_trace(&trace).expect("chaos rejection trace must be schema-valid");
    (obs, trace)
}

fn plan(at: f64, disruption: Disruption) -> DisruptionPlan {
    DisruptionPlan { events: vec![TimedDisruption { at, disruption }] }
}

#[test]
fn passenger_cancel_increments_its_reason_counter() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    // The taxi is ~10 hops from the origin, so the t = 2 s cancel lands
    // after the commit but before the pickup.
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(105))];
    let direct = cache.cost(NodeId(0), NodeId(15)).unwrap();
    let pickup_eta = cache.cost(NodeId(105), NodeId(0)).unwrap();
    let req = request(0, 0, 15, direct, pickup_eta + direct + 600.0);
    let cancel = plan(2.0, Disruption::Cancel { request: RequestId(0) });
    let (obs, trace) = run_single_chaos_rejection(&graph, &cache, taxis, req, cancel);
    assert_sole_reason(&obs, &trace, RejectReason::CancelledByPassenger);
}

#[test]
fn breakdown_without_survivors_increments_taxi_failed() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    // The lone taxi starts at the origin, picks the rider up immediately,
    // then breaks mid-trip with no fleet left to absorb the orphan.
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
    let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
    let req = request(0, 0, 399, direct, direct * 3.0);
    let breakdown = plan(direct * 0.5, Disruption::Breakdown { taxi: TaxiId(0) });
    let (obs, trace) = run_single_chaos_rejection(&graph, &cache, taxis, req, breakdown);
    assert_sole_reason(&obs, &trace, RejectReason::TaxiFailed);
}

#[test]
fn exhausted_redispatch_budget_increments_retries_exhausted() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    // A zero-capacity survivor keeps the fleet alive, so the orphan is
    // re-offered on the retry schedule — and every attempt must fail until
    // the budget runs out.
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0)), Taxi::new(TaxiId(1), 0, NodeId(1))];
    let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
    let req = request(0, 0, 399, direct, direct * 3.0);
    let breakdown = plan(direct * 0.5, Disruption::Breakdown { taxi: TaxiId(0) });
    let (obs, trace) = run_single_chaos_rejection(&graph, &cache, taxis, req, breakdown);
    assert_sole_reason(&obs, &trace, RejectReason::RetriesExhausted);
    // All three budgeted attempts were made and none succeeded.
    let failed_attempts =
        trace.lines().filter(|l| l.contains("\"ev\":\"redispatch\"") && l.contains("\"ok\":false"));
    assert_eq!(failed_attempts.count(), 3, "{trace}");
}

#[test]
fn single_partition_context_still_dispatches() {
    // Degenerate κ = 1: everything in one partition; mT-Share must still
    // work (filter returns the single partition).
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let oracle = HotNodeOracle::new(graph.clone());
    let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(20))];
    let mut requests = RequestStore::new();
    let direct = cache.cost(NodeId(21), NodeId(200)).unwrap();
    oracle.pin(NodeId(21));
    oracle.pin(NodeId(200));
    let req = request(0, 21, 200, direct, direct * 2.0);
    requests.push(req.clone());
    let world =
        World { graph: &graph, cache: &cache, oracle: &oracle, taxis: &taxis, requests: &requests };
    let ctx = MobilityContext::build(&graph, &[], 1, 1, 0, PartitionStrategy::Grid);
    assert_eq!(ctx.kappa(), 1);
    let mut mt = MtShare::new(&graph, ctx, MtShareConfig::default(), 1);
    mt.install(&world);
    assert!(mt.dispatch(&req, 0.0, &world).assignment.is_some());
}
