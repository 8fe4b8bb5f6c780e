//! Taxi scheduling (Algorithm 1).
//!
//! For every candidate taxi, enumerate all schedule instances obtained by
//! inserting the request's pick-up and drop-off into the existing schedule,
//! score feasible instances by detour cost (Eq. 4) against the O(1) cost
//! oracle, then materialize the best instance into actual routed legs
//! (basic or probabilistic mode) and re-verify before committing.

use crate::config::{MtShareConfig, PROB_IDLE_FRACTION};
use crate::context::MobilityContext;
use crate::routing::SegmentRouter;
use mtshare_model::{
    evaluate_schedule, Assignment, EvalContext, RideRequest, Schedule, ScheduleEngine, Scored,
    Taxi, TaxiId, Time, World,
};
use mtshare_obs::Obs;
use mtshare_road::NodeId;
use mtshare_routing::Path;

/// One scored insertion slot: where the request's pick-up (`i`) and
/// drop-off (`j`) land in the candidate's schedule, and at what detour.
/// The full [`Schedule`] is only materialized for the ranked winners —
/// slots live in a scratch buffer reused across `schedule_best` calls.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScoredSlot {
    taxi: TaxiId,
    i: usize,
    j: usize,
    detour_s: f64,
}

/// How many ranked instances to try materializing before giving up (only
/// probabilistic routing can invalidate an instance at materialization).
const MATERIALIZE_TRIES: usize = 8;

/// Counts one scoring pass in the summary: `attempted` candidate taxis
/// scored, `feasible` of them with an insertion passing every deadline
/// check, `pruned` of them ruled out by the reach bound before any DP or
/// tree work.
pub(crate) fn count_insertions(obs: &Obs, attempted: usize, feasible: usize, pruned: usize) {
    obs.add(
        "counters",
        &[
            ("insertions_attempted", attempted as u64),
            ("insertions_feasible", feasible as u64),
            ("insertions_pruned", pruned as u64),
        ],
    );
}

/// Whether `taxi` plans probabilistic routes under `cfg` ("a taxi with half
/// of the capacity in idle will enable the probabilistic routing",
/// Sec. V-A1).
pub fn probabilistic_enabled(taxi: &Taxi, cfg: &MtShareConfig, world: &World<'_>) -> bool {
    cfg.probabilistic
        && taxi.idle_seats(world.requests) as f64 >= PROB_IDLE_FRACTION * taxi.capacity as f64
}

/// Runs Algorithm 1: finds the candidate taxi and schedule instance with
/// the minimum detour cost that can serve `req`, returning the committed
/// assignment (or `None`), the number of candidates examined, and the
/// number of deadline-feasible schedule instances found.
#[allow(clippy::too_many_arguments)] // dispatch context threaded from the scheme
pub fn schedule_best(
    req: &RideRequest,
    candidates: &[TaxiId],
    now: Time,
    world: &World<'_>,
    ctx: &MobilityContext,
    cfg: &MtShareConfig,
    engine: &mut dyn ScheduleEngine,
    router: &mut SegmentRouter,
) -> (Option<Assignment>, usize, usize) {
    // Per candidate, the optimal schedule instance via the configured
    // engine — the O(m²) slack DP or the incremental dynamic tree, with
    // bit-identical results either way (identical to brute-force
    // enumeration; property-tested). Slots go into a scratch buffer
    // reused across calls; the full `Schedule` is allocated only for the
    // few ranked winners materialized below.
    let mut slots = router.take_slots();
    {
        let _span = router.obs().stage(engine.stage());
        let mut pruned = 0;
        for &taxi_id in candidates {
            let taxi = world.taxi(taxi_id);
            match engine.best_insertion(taxi, req, now, world, &mut |a, b| world.oracle.cost(a, b))
            {
                Scored::Feasible(ins) => slots.push(ScoredSlot {
                    taxi: taxi_id,
                    i: ins.i,
                    j: ins.j,
                    detour_s: ins.delta_s,
                }),
                Scored::OutOfReach => pruned += 1,
                Scored::Infeasible => {}
            }
        }
        count_insertions(router.obs(), candidates.len(), slots.len(), pruned);
    }
    let feasible = slots.len();

    // Rank by (detour, taxi id) — the same total order as
    // `mtshare_model::assignment_cmp`. The explicit taxi-id tie-break
    // (rather than relying on stable sort over the sorted candidate list)
    // is what makes the winner independent of the order candidates
    // were scored in.
    slots.sort_by(|a, b| a.detour_s.total_cmp(&b.detour_s).then(a.taxi.cmp(&b.taxi)));

    let mut assignment = None;
    for slot in slots.iter().take(MATERIALIZE_TRIES) {
        let schedule = world.taxi(slot.taxi).schedule.with_insertion(req, slot.i, slot.j);
        assignment = materialize(slot.taxi, schedule, now, world, ctx, cfg, router);
        if assignment.is_some() {
            break;
        }
    }
    router.put_slots(slots);
    (assignment, candidates.len(), feasible)
}

/// Routes every leg of the schedule instance (Algorithms 3/4) and
/// re-verifies it against the *actual* leg costs.
fn materialize(
    taxi_id: TaxiId,
    schedule: Schedule,
    now: Time,
    world: &World<'_>,
    ctx: &MobilityContext,
    cfg: &MtShareConfig,
    router: &mut SegmentRouter,
) -> Option<Assignment> {
    let taxi = world.taxi(taxi_id);
    let pos = taxi.position_at(now);
    let probabilistic = probabilistic_enabled(taxi, cfg, world);

    // Travel direction of the (hypothetical) taxi serving this schedule:
    // from its position toward the centroid of all scheduled drop-offs.
    let taxi_dir = if probabilistic {
        let drops: Vec<NodeId> = schedule
            .events()
            .iter()
            .filter(|e| e.kind == mtshare_model::EventKind::Dropoff)
            .map(|e| e.node)
            .collect();
        let (mut lat, mut lng) = (0.0, 0.0);
        for &d in &drops {
            let p = world.graph.point(d);
            lat += p.lat;
            lng += p.lng;
        }
        let n = drops.len().max(1) as f64;
        world.graph.point(pos).displacement_m(&mtshare_road::GeoPoint::new(lat / n, lng / n))
    } else {
        (0.0, 0.0)
    };

    // Shortest leg costs and deadline slack along the instance: the
    // probabilistic budget of each leg is the slack still unconsumed, so a
    // biased route can never invalidate the schedule it was planned for
    // (Alg. 4's validity requirement, enforced by construction).
    let requests = world.requests;
    let lookup = |id| requests.get(id);
    let ectx = EvalContext {
        start_node: pos,
        start_time: now,
        initial_load: taxi.onboard_load(world.requests),
        capacity: taxi.capacity as u32,
        requests: &lookup,
    };
    // Basic mode (Algorithm 3): every leg off its stop's pinned vector.
    let basic_legs = |router: &SegmentRouter| {
        let mut from = pos;
        let route = |ev: &mtshare_model::ScheduleEvent| {
            let leg = router.dispatch_leg(world, from, ev.node);
            from = ev.node;
            leg
        };
        schedule.events().iter().map(route).collect::<Option<Vec<Path>>>()
    };
    let mut legs = if probabilistic {
        let base = evaluate_schedule(&schedule, &ectx, |a, b| world.oracle.cost(a, b))?;
        let n = schedule.len();
        // slack_suffix[k] = max delay injectable before event k without
        // missing any later drop-off deadline.
        let mut slack_suffix = vec![f64::INFINITY; n + 1];
        for k in (0..n).rev() {
            let ev = &schedule.events()[k];
            let own = match ev.kind {
                mtshare_model::EventKind::Dropoff => {
                    world.requests.get(ev.request).deadline - base.arrival_times[k]
                }
                mtshare_model::EventKind::Pickup => f64::INFINITY,
            };
            slack_suffix[k] = own.min(slack_suffix[k + 1]);
        }
        let mut legs: Vec<Path> = Vec::with_capacity(n);
        let mut extra_used = 0.0f64;
        let mut from = pos;
        for (k, ev) in schedule.events().iter().enumerate() {
            let shortest = world.oracle.cost(from, ev.node)?;
            let available = (slack_suffix[k] - extra_used).max(0.0);
            // Cap wandering even when slack is huge.
            let budget = shortest + available.min(shortest * (1.0 + cfg.epsilon));
            let leg = router.probabilistic_leg_routed(
                world.graph,
                ctx,
                cfg,
                world.cache,
                Some(world.oracle),
                from,
                ev.node,
                taxi_dir,
                budget,
            )?;
            extra_used += (leg.cost_s - shortest).max(0.0);
            from = ev.node;
            legs.push(leg);
        }
        legs
    } else {
        basic_legs(router)?
    };

    // Re-verify with the actual leg costs; if a probabilistic plan still
    // misses a deadline (numerical edge), fall back to shortest legs,
    // which realize exactly the costs the enumeration proved feasible.
    let mut k = 0usize;
    let eval = match evaluate_schedule(&schedule, &ectx, |_, _| {
        let c = legs.get(k).map(|l| l.cost_s);
        k += 1;
        c
    }) {
        Some(e) => e,
        None => {
            legs = basic_legs(router)?;
            let mut k = 0usize;
            evaluate_schedule(&schedule, &ectx, |_, _| {
                let c = legs.get(k).map(|l| l.cost_s);
                k += 1;
                c
            })?
        }
    };

    let remaining = taxi.route.as_ref().map(|r| (r.end_time() - now).max(0.0)).unwrap_or(0.0);
    Some(Assignment { taxi: taxi_id, schedule, legs, detour_cost_s: eval.total_cost_s - remaining })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{MobilityContext, PartitionStrategy};
    use mtshare_mobility::Trip;
    use mtshare_model::{DpEngine, RequestId, RequestStore, TimedRoute};
    use mtshare_road::{grid_city, GridCityConfig, RoadNetwork};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    struct Fixture {
        graph: Arc<RoadNetwork>,
        cache: PathCache,
        oracle: HotNodeOracle,
        ctx: Arc<MobilityContext>,
        taxis: Vec<Taxi>,
        requests: RequestStore,
        cfg: MtShareConfig,
    }

    impl Fixture {
        fn new() -> Self {
            let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
            let mut rng = SmallRng::seed_from_u64(6);
            let trips: Vec<_> = (0..600)
                .map(|_| Trip {
                    origin: NodeId(rng.gen_range(0..400)),
                    destination: NodeId(rng.gen_range(0..400)),
                })
                .collect();
            let ctx = MobilityContext::build(&graph, &trips, 16, 4, 7, PartitionStrategy::Grid);
            let cache = PathCache::new(graph.clone());
            let oracle = HotNodeOracle::new(graph.clone());
            Self {
                graph,
                cache,
                oracle,
                ctx,
                taxis: Vec::new(),
                requests: RequestStore::new(),
                cfg: MtShareConfig::default(),
            }
        }

        fn world(&self) -> World<'_> {
            World {
                graph: &self.graph,
                cache: &self.cache,
                oracle: &self.oracle,
                taxis: &self.taxis,
                requests: &self.requests,
            }
        }

        fn request(&mut self, origin: u32, dest: u32, release: f64, rho: f64) -> RideRequest {
            let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
            self.oracle.pin(NodeId(origin));
            self.oracle.pin(NodeId(dest));
            let req = RideRequest {
                id: RequestId(self.requests.len() as u32),
                release_time: release,
                origin: NodeId(origin),
                destination: NodeId(dest),
                passengers: 1,
                deadline: release + direct * rho,
                direct_cost_s: direct,
                offline: false,
            };
            self.requests.push(req.clone());
            req
        }
    }

    #[test]
    fn assigns_vacant_taxi_with_direct_route() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(0)));
        let req = f.request(21, 399, 0.0, 1.5);
        let mut router = SegmentRouter::new(&f.graph);
        let (a, examined, feasible) = schedule_best(
            &req,
            &[TaxiId(0)],
            0.0,
            &f.world(),
            &f.ctx,
            &f.cfg,
            &mut DpEngine,
            &mut router,
        );
        let a = a.expect("assignment");
        assert_eq!(examined, 1);
        assert_eq!(feasible, 1);
        assert_eq!(a.taxi, TaxiId(0));
        assert_eq!(a.schedule.len(), 2);
        assert_eq!(a.legs.len(), 2);
        // Detour for a vacant taxi = pickup leg + direct trip.
        let pickup = f.cache.cost(NodeId(0), NodeId(21)).unwrap();
        assert!((a.detour_cost_s - (pickup + req.direct_cost_s)).abs() < 1.0);
        // Legs connect position -> origin -> destination.
        assert_eq!(a.legs[0].start(), NodeId(0));
        assert_eq!(a.legs[0].end(), NodeId(21));
        assert_eq!(a.legs[1].end(), NodeId(399));
    }

    #[test]
    fn picks_minimum_detour_taxi() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(399))); // far
        f.taxis.push(Taxi::new(TaxiId(1), 4, NodeId(22))); // near
        let req = f.request(21, 200, 0.0, 10.0);
        let mut router = SegmentRouter::new(&f.graph);
        let (a, examined, _) = schedule_best(
            &req,
            &[TaxiId(0), TaxiId(1)],
            0.0,
            &f.world(),
            &f.ctx,
            &f.cfg,
            &mut DpEngine,
            &mut router,
        );
        assert_eq!(examined, 2);
        assert_eq!(a.unwrap().taxi, TaxiId(1));
    }

    #[test]
    fn respects_existing_passenger_deadline() {
        let mut f = Fixture::new();
        // Taxi serving an onboard passenger with a tight deadline.
        let onboard = f.request(0, 19, 0.0, 1.02); // east along row 0, almost no slack
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        taxi.onboard.push(onboard.id);
        let mut sched = Schedule::new();
        sched.push(mtshare_model::ScheduleEvent {
            kind: mtshare_model::EventKind::Dropoff,
            request: onboard.id,
            node: NodeId(19),
        });
        let leg = f.cache.path(NodeId(0), NodeId(19)).unwrap();
        let route = TimedRoute::build_on(&f.graph, NodeId(0), 0.0, &[leg], &sched);
        taxi.set_plan(sched, route, 0.0);
        f.taxis.push(taxi);
        // A new request that would force a big detour north first.
        let req = f.request(380, 399, 0.0, 1.5);
        let mut router = SegmentRouter::new(&f.graph);
        let (a, _, _) = schedule_best(
            &req,
            &[TaxiId(0)],
            0.0,
            &f.world(),
            &f.ctx,
            &f.cfg,
            &mut DpEngine,
            &mut router,
        );
        // Any feasible instance must drop the onboard passenger first; if
        // an assignment exists, verify its ordering.
        if let Some(a) = a {
            assert_eq!(a.schedule.events()[0].request, onboard.id);
        }
    }

    #[test]
    fn rejects_when_no_feasible_instance() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(399)));
        // Deadline so tight not even a taxi at the origin could help if it
        // must first drive across the city.
        let req = f.request(0, 19, 0.0, 1.01);
        let mut router = SegmentRouter::new(&f.graph);
        let (a, examined, feasible) = schedule_best(
            &req,
            &[TaxiId(0)],
            0.0,
            &f.world(),
            &f.ctx,
            &f.cfg,
            &mut DpEngine,
            &mut router,
        );
        assert!(a.is_none());
        assert_eq!(examined, 1);
        assert_eq!(feasible, 0, "no instance can meet the deadline");
    }

    #[test]
    fn shares_ride_between_aligned_requests() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(0)));
        // First request: SW corner to NE corner.
        let r1 = f.request(0, 399, 0.0, 1.5);
        let mut router = SegmentRouter::new(&f.graph);
        let (a1, _, _) = schedule_best(
            &r1,
            &[TaxiId(0)],
            0.0,
            &f.world(),
            &f.ctx,
            &f.cfg,
            &mut DpEngine,
            &mut router,
        );
        let a1 = a1.unwrap();
        // Commit the plan.
        let route = TimedRoute::build_on(&f.graph, NodeId(0), 0.0, &a1.legs, &a1.schedule);
        f.taxis[0].assigned.push(r1.id);
        f.taxis[0].set_plan(a1.schedule, route, 0.0);
        // Second aligned request along the way.
        let r2 = f.request(42, 378, 10.0, 1.5);
        let (a2, _, _) = schedule_best(
            &r2,
            &[TaxiId(0)],
            10.0,
            &f.world(),
            &f.ctx,
            &f.cfg,
            &mut DpEngine,
            &mut router,
        );
        let a2 = a2.expect("aligned request should share");
        assert_eq!(a2.schedule.len(), 4);
        // Shared detour should be far below serving r2 from scratch.
        assert!(a2.detour_cost_s < r2.direct_cost_s * 2.0);
    }

    #[test]
    fn probabilistic_mode_gates_on_idle_seats() {
        let mut f = Fixture::new();
        f.cfg = f.cfg.clone().with_probabilistic();
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        f.taxis.push(taxi.clone());
        assert!(probabilistic_enabled(&f.taxis[0], &f.cfg, &f.world()));
        // Fill 3 of 4 seats: less than half idle.
        let r = f.request(0, 399, 0.0, 1.5);
        taxi.onboard.push(r.id);
        let mut r2 = f.request(1, 398, 0.0, 1.5);
        r2.passengers = 2;
        // Overwrite store entry passengers by rebuilding fixture state:
        // simpler — push two single riders.
        let r3 = f.request(2, 397, 0.0, 1.5);
        taxi.onboard.push(r2.id);
        taxi.onboard.push(r3.id);
        f.taxis[0] = taxi;
        assert!(!probabilistic_enabled(&f.taxis[0], &f.cfg, &f.world()));
    }
}
