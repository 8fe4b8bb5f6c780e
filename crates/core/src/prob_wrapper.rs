//! Grafts probabilistic routing onto any dispatch scheme.
//!
//! Fig. 16 of the paper combines basic or probabilistic routing with each
//! of T-Share, pGreedyDP and mT-Share. This wrapper leaves the inner
//! scheme's matching untouched and re-routes the committed legs with
//! Algorithm 4 whenever the chosen taxi has enough idle seats, falling
//! back to the original legs when the biased route would break a deadline.

use crate::config::MtShareConfig;
use crate::context::MobilityContext;
use crate::routing::SegmentRouter;
use crate::scheduling::probabilistic_enabled;
use mtshare_model::{
    evaluate_schedule, Assignment, DispatchOutcome, DispatchScheme, EvalContext, RideRequest, Taxi,
    TaxiId, Time, World,
};
use mtshare_routing::Path;
use std::sync::Arc;

/// A dispatch scheme whose committed routes are re-planned
/// probabilistically.
pub struct WithProbabilisticRouting<S: DispatchScheme> {
    inner: S,
    ctx: Arc<MobilityContext>,
    cfg: MtShareConfig,
    router: SegmentRouter,
    name: String,
}

impl<S: DispatchScheme> WithProbabilisticRouting<S> {
    /// Wraps `inner`, planning probabilistic routes with `ctx`/`cfg`.
    pub fn new(
        inner: S,
        graph: &mtshare_road::RoadNetwork,
        ctx: Arc<MobilityContext>,
        cfg: MtShareConfig,
    ) -> Self {
        let name = format!("{}+prob", inner.name());
        Self { inner, ctx, cfg: cfg.with_probabilistic(), router: SegmentRouter::new(graph), name }
    }

    /// Access to the wrapped scheme.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn reroute(&mut self, a: Assignment, now: Time, world: &World<'_>) -> Assignment {
        let taxi = world.taxi(a.taxi);
        if !probabilistic_enabled(taxi, &self.cfg, world) {
            return a;
        }
        let pos = taxi.position_at(now);
        // Taxi direction: toward the centroid of scheduled drop-offs.
        let drops: Vec<_> = a
            .schedule
            .events()
            .iter()
            .filter(|e| e.kind == mtshare_model::EventKind::Dropoff)
            .map(|e| world.graph.point(e.node))
            .collect();
        if drops.is_empty() {
            return a;
        }
        let centroid = mtshare_road::GeoPoint::new(
            drops.iter().map(|p| p.lat).sum::<f64>() / drops.len() as f64,
            drops.iter().map(|p| p.lng).sum::<f64>() / drops.len() as f64,
        );
        let dir = world.graph.point(pos).displacement_m(&centroid);

        let mut legs: Vec<Path> = Vec::with_capacity(a.schedule.len());
        let mut from = pos;
        for ev in a.schedule.events() {
            let Some(shortest) = world.oracle.cost(from, ev.node) else { return a };
            let budget = shortest * (1.0 + self.cfg.epsilon);
            let Some(leg) = self.router.probabilistic_leg_routed(
                world.graph,
                &self.ctx,
                &self.cfg,
                world.cache,
                Some(world.oracle),
                from,
                ev.node,
                dir,
                budget,
            ) else {
                return a;
            };
            from = ev.node;
            legs.push(leg);
        }
        // Verify deadlines with the biased legs; keep the original plan on
        // any violation.
        let requests = world.requests;
        let lookup = |id| requests.get(id);
        let ectx = EvalContext {
            start_node: pos,
            start_time: now,
            initial_load: taxi.onboard_load(world.requests),
            capacity: taxi.capacity as u32,
            requests: &lookup,
        };
        let mut k = 0usize;
        let Some(eval) = evaluate_schedule(&a.schedule, &ectx, |_, _| {
            let c = legs.get(k).map(|l| l.cost_s);
            k += 1;
            c
        }) else {
            return a;
        };
        let remaining = taxi.route.as_ref().map(|r| (r.end_time() - now).max(0.0)).unwrap_or(0.0);
        Assignment {
            taxi: a.taxi,
            schedule: a.schedule,
            legs,
            detour_cost_s: eval.total_cost_s - remaining,
        }
    }
}

impl<S: DispatchScheme> DispatchScheme for WithProbabilisticRouting<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn install(&mut self, world: &World<'_>) {
        self.inner.install(world);
    }

    fn set_obs(&mut self, obs: mtshare_obs::Obs) {
        self.router.set_obs(obs.clone());
        self.inner.set_obs(obs);
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let mut out = self.inner.dispatch(req, now, world);
        if let Some(a) = out.assignment.take() {
            out.assignment = Some(self.reroute(a, now, world));
        }
        out
    }

    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        let mut out = self.inner.dispatch_offline(req, encountered_by, now, world);
        if let Some(a) = out.assignment.take() {
            out.assignment = Some(self.reroute(a, now, world));
        }
        out
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.inner.after_assign(taxi, world);
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.inner.on_taxi_progress(taxi, now, world);
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.inner.on_taxi_removed(taxi, world);
    }

    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        self.inner.indexed_taxis()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // The wrapper itself is stateless (its router is scratch); the
        // inner scheme's indexes are the only state worth a checkpoint.
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8], world: &World<'_>) -> Result<(), String> {
        self.inner.restore_state(bytes, world)
    }

    fn index_memory_bytes(&self) -> usize {
        self.inner.index_memory_bytes() + self.ctx.memory_bytes()
    }

    fn uses_probabilistic_routing(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PartitionStrategy;
    use mtshare_mobility::Trip;
    use mtshare_model::{RequestId, RequestStore, Taxi};
    use mtshare_road::{grid_city, GridCityConfig, NodeId};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    /// Minimal inner scheme: always assigns taxi 0 with a direct schedule.
    struct Direct;
    impl DispatchScheme for Direct {
        fn name(&self) -> &str {
            "direct"
        }
        fn install(&mut self, _world: &World<'_>) {}
        fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
            let taxi = world.taxi(TaxiId(0));
            let pos = taxi.position_at(now);
            let schedule = taxi.schedule.with_insertion(req, 0, 1);
            let mut legs = Vec::new();
            let mut from = pos;
            for ev in schedule.events() {
                legs.push(if from == ev.node {
                    Path::trivial(from)
                } else {
                    world.cache.path(from, ev.node).unwrap()
                });
                from = ev.node;
            }
            let total: f64 = legs.iter().map(|l| l.cost_s).sum();
            DispatchOutcome {
                assignment: Some(Assignment {
                    taxi: TaxiId(0),
                    schedule,
                    legs,
                    detour_cost_s: total,
                }),
                candidates_examined: 1,
                feasible_instances: 1,
            }
        }
    }

    #[test]
    fn wrapper_keeps_validity_and_may_lengthen_route() {
        let graph = std::sync::Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let mut rng = SmallRng::seed_from_u64(11);
        let trips: Vec<_> = (0..600)
            .map(|_| Trip {
                origin: NodeId(rng.gen_range(0..400)),
                destination: NodeId(300 + rng.gen_range(0u32..100)),
            })
            .collect();
        let ctx = MobilityContext::build(&graph, &trips, 16, 4, 7, PartitionStrategy::Bipartite);
        let mut wrapped =
            WithProbabilisticRouting::new(Direct, &graph, ctx, MtShareConfig::default());
        assert_eq!(wrapped.name(), "direct+prob");
        assert!(wrapped.uses_probabilistic_routing());

        let cache = PathCache::new(graph.clone());
        let oracle = HotNodeOracle::new(graph.clone());
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        let mut requests = RequestStore::new();
        let direct_cost = cache.cost(NodeId(21), NodeId(399)).unwrap();
        oracle.pin(NodeId(21));
        oracle.pin(NodeId(399));
        let req = RideRequest {
            id: RequestId(0),
            release_time: 0.0,
            origin: NodeId(21),
            destination: NodeId(399),
            passengers: 1,
            deadline: 1e9,
            direct_cost_s: direct_cost,
            offline: false,
        };
        requests.push(req.clone());
        let world = World {
            graph: &graph,
            cache: &cache,
            oracle: &oracle,
            taxis: &taxis,
            requests: &requests,
        };
        let out = wrapped.dispatch(&req, 0.0, &world);
        let a = out.assignment.unwrap();
        // Legs still connect and total cost within the (1+ε) budget per leg.
        let mut from = NodeId(0);
        for (leg, ev) in a.legs.iter().zip(a.schedule.events()) {
            assert_eq!(leg.start(), from);
            assert_eq!(leg.end(), ev.node);
            let shortest = cache.cost(leg.start(), leg.end()).unwrap();
            assert!(leg.cost_s <= shortest * 2.0 + 1e-6);
            from = ev.node;
        }
        assert_eq!(wrapped.inner().name(), "direct");
    }

    /// `reroute` routes through dispatch's entry point — priced by the
    /// oracle, bounded by the target's pinned vector, the fallback walked
    /// off it; the public entry point searches all of that. Same legs.
    #[test]
    fn reroute_legs_equal_the_public_entry_points_legs() {
        let graph = std::sync::Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let mut rng = SmallRng::seed_from_u64(29);
        let mut node = || NodeId(rng.gen_range(0..400));
        let trips: Vec<_> =
            (0..600).map(|_| Trip { origin: node(), destination: node() }).collect();
        let ctx = MobilityContext::build(&graph, &trips, 16, 4, 7, PartitionStrategy::Bipartite);
        let cfg = MtShareConfig::default();
        let mut wrapped = WithProbabilisticRouting::new(Direct, &graph, ctx.clone(), cfg.clone());
        let cfg = cfg.with_probabilistic();
        let mut public = SegmentRouter::new(&graph);
        let cache = PathCache::new(graph.clone());
        let oracle = HotNodeOracle::over(cache.clone());
        let mut biased = 0;
        for i in 0..200 {
            let (start, origin, destination) = (node(), node(), node());
            let taxis = vec![Taxi::new(TaxiId(0), 4, start)];
            let Some(direct_cost_s) =
                cache.cost(origin, destination).filter(|_| origin != destination)
            else {
                continue;
            };
            let req = RideRequest {
                id: RequestId(0),
                release_time: 0.0,
                origin,
                destination,
                passengers: 1,
                deadline: 1e9,
                direct_cost_s,
                offline: false,
            };
            let mut requests = RequestStore::new();
            requests.push(req.clone());
            oracle.pin(origin);
            oracle.pin(destination);
            let world = World {
                graph: &graph,
                cache: &cache,
                oracle: &oracle,
                taxis: &taxis,
                requests: &requests,
            };
            let got = wrapped.dispatch(&req, 0.0, &world).assignment.unwrap();
            let dir = graph.point(start).displacement_m(&graph.point(destination));
            let mut from = start;
            for (leg, to) in got.legs.iter().zip([origin, destination]) {
                let shortest = cache.cost(from, to).unwrap();
                let budget = shortest * (1.0 + cfg.epsilon);
                let want = public
                    .probabilistic_leg(&graph, &ctx, &cfg, &cache, from, to, dir, budget)
                    .unwrap();
                assert_eq!(leg.nodes, want.nodes, "request {i}: {from}->{to}");
                assert_eq!(
                    leg.cost_s.to_bits(),
                    want.cost_s.to_bits(),
                    "request {i}: {from}->{to}"
                );
                biased += usize::from(leg.cost_s > shortest);
                from = to;
            }
            oracle.unpin(origin);
            oracle.unpin(destination);
        }
        assert!(biased >= 20, "only {biased} legs left the shortest path");
        assert!(oracle.stats().path_walks >= 40, "fallbacks were not walked: {:?}", oracle.stats());
    }
}
