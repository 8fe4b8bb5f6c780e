//! The mT-Share dispatch scheme: dual indexing + mobility-aware matching.

use crate::candidates::candidate_taxis;
use crate::config::{MtShareConfig, TMP_HORIZON_S};
use crate::context::MobilityContext;
use crate::index::{MobilityClusterIndex, PartitionTaxiIndex};
use crate::routing::SegmentRouter;
use crate::scheduling::{count_insertions, schedule_best};
use mtshare_model::{
    make_engine, DispatchOutcome, DispatchScheme, EngineStats, RideRequest, ScheduleEngine, Scored,
    Taxi, TaxiId, Time, WindowRow, World,
};
use mtshare_obs::{Obs, Stage};
use mtshare_persist::{Decoder, Encoder, Persist};
use mtshare_road::RoadNetwork;

/// The mT-Share system (Sec. IV). Construct with a prebuilt
/// [`MobilityContext`] (partitions + landmarks + transition statistics) so
/// the offline artifacts can be shared across experiment runs.
pub struct MtShare {
    cfg: MtShareConfig,
    ctx: std::sync::Arc<MobilityContext>,
    pindex: PartitionTaxiIndex,
    mindex: MobilityClusterIndex,
    /// Insertion-scoring engine behind `--scheduler dp|dtree`; results
    /// are bit-identical across engines.
    engine: Box<dyn ScheduleEngine>,
    router: SegmentRouter,
    obs: Obs,
    name: &'static str,
}

impl MtShare {
    /// Creates an mT-Share instance for a fleet of `n_taxis`.
    pub fn new(
        graph: &RoadNetwork,
        ctx: std::sync::Arc<MobilityContext>,
        cfg: MtShareConfig,
        n_taxis: usize,
    ) -> Self {
        let name = if cfg.batch {
            "mT-Share_batch"
        } else if cfg.probabilistic {
            "mT-Share_pro"
        } else {
            "mT-Share"
        };
        Self {
            pindex: PartitionTaxiIndex::new(ctx.kappa(), n_taxis),
            mindex: MobilityClusterIndex::new(cfg.lambda, n_taxis),
            engine: make_engine(cfg.scheduler, n_taxis),
            router: SegmentRouter::new(graph),
            obs: Obs::disabled(),
            cfg,
            ctx,
            name,
        }
    }

    /// The mobility context in use.
    pub fn context(&self) -> &MobilityContext {
        &self.ctx
    }

    /// The configuration in use.
    pub fn config(&self) -> &MtShareConfig {
        &self.cfg
    }

    fn reindex(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.pindex.update_taxi(taxi, &self.ctx, now, TMP_HORIZON_S);
        self.mindex.update_taxi(taxi, world.graph, world.requests, now);
    }

    fn candidates(&self, req: &RideRequest, now: Time, world: &World<'_>) -> Vec<TaxiId> {
        let _span = self.obs.stage(Stage::CandidateSearch);
        let (ctx, cfg) = (&self.ctx, &self.cfg);
        candidate_taxis(req, now, world, ctx, cfg, &self.pindex, &self.mindex, &self.obs)
    }

    /// Scores one batch-window row: the request's candidate set at the
    /// flush time `now` with the marginal insertion detour per candidate
    /// (`∞` when no deadline-feasible instance exists). Pure with respect
    /// to `(req, now, world)` — no scratch state survives the call.
    fn score_row(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> WindowRow {
        let candidates = self.candidates(req, now, world);
        let candidate_versions: Vec<u64> =
            candidates.iter().map(|&t| world.taxi(t).route_version).collect();
        let mut costs = Vec::with_capacity(candidates.len());
        let (mut feasible, mut pruned) = (0usize, 0usize);
        {
            let _span = self.obs.stage(self.engine.stage());
            for &taxi_id in &candidates {
                let taxi = world.taxi(taxi_id);
                let scored = self
                    .engine
                    .best_insertion(taxi, req, now, world, &mut |a, b| world.oracle.cost(a, b));
                match scored {
                    Scored::Feasible(_) => feasible += 1,
                    Scored::OutOfReach => pruned += 1,
                    Scored::Infeasible => {}
                }
                costs.push(scored.best().map_or(f64::INFINITY, |ins| ins.delta_s));
            }
            count_insertions(&self.obs, candidates.len(), feasible, pruned);
        }
        WindowRow { candidates, candidate_versions, costs, feasible }
    }
}

impl DispatchScheme for MtShare {
    fn name(&self) -> &str {
        self.name
    }

    fn install(&mut self, world: &World<'_>) {
        for taxi in world.taxis {
            self.reindex(taxi, 0.0, world);
        }
    }

    fn set_obs(&mut self, obs: Obs) {
        self.router.set_obs(obs.clone());
        self.obs = obs;
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let candidates = self.candidates(req, now, world);
        let (assignment, examined, feasible) = schedule_best(
            req,
            &candidates,
            now,
            world,
            &self.ctx,
            &self.cfg,
            &mut *self.engine,
            &mut self.router,
        );
        DispatchOutcome { assignment, candidates_examined: examined, feasible_instances: feasible }
    }

    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        // Per Sec. IV-C2: the encountering taxi is examined first; only if
        // it cannot validly serve the request does the server dispatch
        // another taxi.
        let (direct, _, feasible) = schedule_best(
            req,
            &[encountered_by],
            now,
            world,
            &self.ctx,
            &self.cfg,
            &mut *self.engine,
            &mut self.router,
        );
        if let Some(a) = direct {
            return DispatchOutcome {
                assignment: Some(a),
                candidates_examined: 1,
                feasible_instances: feasible,
            };
        }
        let mut out = self.dispatch(req, now, world);
        out.candidates_examined += 1;
        out
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.engine.after_assign(taxi, world);
        self.reindex(taxi, taxi.location_time.max(0.0), world);
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.engine.on_taxi_progress(taxi, world);
        self.reindex(taxi, now, world);
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi, _world: &World<'_>) {
        // Reconcile the dead taxi out of both indexes (`P_z.L_t` and
        // `C_a.L_t`) so candidate search never proposes it again, and drop
        // its incremental scheduling state.
        self.engine.on_taxi_removed(taxi);
        self.pindex.remove_taxi(taxi.id);
        self.mindex.remove_taxi(taxi.id);
    }

    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        let mut ids = self.pindex.indexed_taxis();
        ids.extend(self.mindex.indexed_taxis());
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // The cluster index is history-dependent (recycled slots) and that
        // history steers candidate sets, so a warm restart restores both
        // indexes byte-for-byte instead of re-running `install`.
        let mut enc = Encoder::new();
        self.pindex.encode(&mut enc);
        self.mindex.encode(&mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8], world: &World<'_>) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        let pindex =
            PartitionTaxiIndex::decode(&mut dec).map_err(|e| format!("partition index: {e}"))?;
        let mindex =
            MobilityClusterIndex::decode(&mut dec).map_err(|e| format!("cluster index: {e}"))?;
        if !dec.is_done() {
            return Err("trailing bytes in mT-Share index snapshot".into());
        }
        if pindex.partition_count() != self.ctx.kappa() {
            return Err(format!(
                "snapshot has {} partitions, context has {}",
                pindex.partition_count(),
                self.ctx.kappa()
            ));
        }
        if pindex.fleet_size() != world.taxis.len() || mindex.fleet_size() != world.taxis.len() {
            return Err(format!(
                "snapshot fleet size {}/{} does not match world fleet {}",
                pindex.fleet_size(),
                mindex.fleet_size(),
                world.taxis.len()
            ));
        }
        if mindex.lambda().to_bits() != self.cfg.lambda.to_bits() {
            return Err(format!(
                "snapshot lambda {} does not match configured {}",
                mindex.lambda(),
                self.cfg.lambda
            ));
        }
        self.pindex = pindex;
        self.mindex = mindex;
        // The snapshot carries no engine state: incremental trees are
        // rebuilt lazily from the restored plans, so the on-disk format is
        // identical under either scheduler.
        self.engine.invalidate_all();
        Ok(())
    }

    fn index_memory_bytes(&self) -> usize {
        self.pindex.memory_bytes() + self.mindex.memory_bytes() + self.ctx.memory_bytes()
    }

    fn uses_probabilistic_routing(&self) -> bool {
        self.cfg.probabilistic
    }

    fn scheduler_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    fn score_window(
        &mut self,
        reqs: &[RideRequest],
        now: Time,
        world: &World<'_>,
    ) -> Option<Vec<WindowRow>> {
        Some(reqs.iter().map(|r| self.score_row(r, now, world)).collect())
    }

    fn dispatch_to(
        &mut self,
        req: &RideRequest,
        taxi: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        // The assignment solver already chose the taxi; re-derive the best
        // insertion against the *current* world and materialize it — the
        // same revalidated-commit path Algorithm 1 uses, restricted to the
        // winner.
        let (assignment, examined, feasible) = schedule_best(
            req,
            &[taxi],
            now,
            world,
            &self.ctx,
            &self.cfg,
            &mut *self.engine,
            &mut self.router,
        );
        DispatchOutcome { assignment, candidates_examined: examined, feasible_instances: feasible }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PartitionStrategy;
    use mtshare_mobility::Trip;
    use mtshare_model::{RequestId, RequestStore, RideRequest, TimedRoute};
    use mtshare_road::{grid_city, GridCityConfig, NodeId};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    struct Sim {
        graph: Arc<RoadNetwork>,
        cache: PathCache,
        oracle: HotNodeOracle,
        taxis: Vec<Taxi>,
        requests: RequestStore,
        scheme: MtShare,
    }

    impl Sim {
        fn new(n_taxis: usize, probabilistic: bool) -> Self {
            let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
            let mut rng = SmallRng::seed_from_u64(7);
            let trips: Vec<_> = (0..800)
                .map(|_| Trip {
                    origin: NodeId(rng.gen_range(0..400)),
                    destination: NodeId(rng.gen_range(0..400)),
                })
                .collect();
            let ctx =
                MobilityContext::build(&graph, &trips, 16, 4, 7, PartitionStrategy::Bipartite);
            let cfg = if probabilistic {
                MtShareConfig::default().with_probabilistic()
            } else {
                MtShareConfig::default()
            };
            let scheme = MtShare::new(&graph, ctx, cfg, n_taxis);
            let mut taxis = Vec::new();
            for i in 0..n_taxis {
                taxis.push(Taxi::new(TaxiId(i as u32), 4, NodeId((i * 97 % 400) as u32)));
            }
            let cache = PathCache::new(graph.clone());
            let oracle = HotNodeOracle::new(graph.clone());
            Self { graph, cache, oracle, taxis, requests: RequestStore::new(), scheme }
        }

        fn make_request(&mut self, origin: u32, dest: u32, release: f64) -> RideRequest {
            let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
            self.oracle.pin(NodeId(origin));
            self.oracle.pin(NodeId(dest));
            let req = RideRequest {
                id: RequestId(self.requests.len() as u32),
                release_time: release,
                origin: NodeId(origin),
                destination: NodeId(dest),
                passengers: 1,
                deadline: release + direct * 1.3,
                direct_cost_s: direct,
                offline: false,
            };
            self.requests.push(req.clone());
            req
        }

        fn dispatch_and_commit(&mut self, req: &RideRequest, now: f64) -> bool {
            let out = {
                // Split borrows: World reads fleet state, scheme is mutated.
                let world = World {
                    graph: &self.graph,
                    cache: &self.cache,
                    oracle: &self.oracle,
                    taxis: &self.taxis,
                    requests: &self.requests,
                };
                self.scheme.dispatch(req, now, &world)
            };
            match out.assignment {
                None => false,
                Some(a) => {
                    let t = &mut self.taxis[a.taxi.index()];
                    let pos = t.position_at(now);
                    let route = TimedRoute::build_on(&self.graph, pos, now, &a.legs, &a.schedule);
                    t.assigned.push(req.id);
                    t.location = pos;
                    t.location_time = now;
                    t.set_plan(a.schedule, route, now);
                    let world = World {
                        graph: &self.graph,
                        cache: &self.cache,
                        oracle: &self.oracle,
                        taxis: &self.taxis,
                        requests: &self.requests,
                    };
                    let taxi = &self.taxis[a.taxi.index()];
                    self.scheme.after_assign(taxi, &world);
                    true
                }
            }
        }
    }

    #[test]
    fn install_indexes_the_fleet() {
        let mut sim = Sim::new(5, false);
        let world = World {
            graph: &sim.graph,
            cache: &sim.cache,
            oracle: &sim.oracle,
            taxis: &sim.taxis,
            requests: &sim.requests,
        };
        sim.scheme.install(&world);
        assert!(sim.scheme.index_memory_bytes() > 0);
        assert_eq!(sim.scheme.name(), "mT-Share");
    }

    #[test]
    fn end_to_end_dispatch_commit_cycle() {
        let mut sim = Sim::new(8, false);
        {
            let world = World {
                graph: &sim.graph,
                cache: &sim.cache,
                oracle: &sim.oracle,
                taxis: &sim.taxis,
                requests: &sim.requests,
            };
            sim.scheme.install(&world);
        }
        let mut served = 0;
        let specs = [(0u32, 399u32), (21, 380), (40, 350), (399, 0), (200, 10)];
        for (k, (o, d)) in specs.iter().enumerate() {
            let now = k as f64 * 30.0;
            let req = sim.make_request(*o, *d, now);
            if sim.dispatch_and_commit(&req, now) {
                served += 1;
            }
        }
        assert!(served >= 3, "only {served}/5 served");
        // Committed taxis must have consistent state.
        for t in &sim.taxis {
            if let Some(route) = &t.route {
                assert_eq!(route.event_node_idx.len(), t.schedule.len());
            }
            assert!(t.schedule.precedence_ok());
        }
    }

    #[test]
    fn removed_taxi_leaves_both_indexes_and_candidate_search() {
        let mut sim = Sim::new(5, false);
        {
            let world = World {
                graph: &sim.graph,
                cache: &sim.cache,
                oracle: &sim.oracle,
                taxis: &sim.taxis,
                requests: &sim.requests,
            };
            sim.scheme.install(&world);
        }
        let indexed = sim.scheme.indexed_taxis().unwrap();
        assert!(indexed.contains(&TaxiId(2)));
        // Break taxi 2 down and reconcile it out of the indexes.
        sim.taxis[2].fail(10.0);
        {
            let world = World {
                graph: &sim.graph,
                cache: &sim.cache,
                oracle: &sim.oracle,
                taxis: &sim.taxis,
                requests: &sim.requests,
            };
            let taxi = &sim.taxis[2];
            sim.scheme.on_taxi_removed(taxi, &world);
        }
        let indexed = sim.scheme.indexed_taxis().unwrap();
        assert!(!indexed.contains(&TaxiId(2)), "dead taxi still indexed");
        assert_eq!(indexed.len(), 4);
        // Dispatches after the breakdown never pick the dead taxi.
        for (k, (o, d)) in [(0u32, 399u32), (21, 380), (399, 0)].iter().enumerate() {
            let now = 20.0 + k as f64 * 30.0;
            let req = sim.make_request(*o, *d, now);
            let world = World {
                graph: &sim.graph,
                cache: &sim.cache,
                oracle: &sim.oracle,
                taxis: &sim.taxis,
                requests: &sim.requests,
            };
            let out = sim.scheme.dispatch(&req, now, &world);
            if let Some(a) = out.assignment {
                assert_ne!(a.taxi, TaxiId(2), "dead taxi assigned");
            }
        }
    }

    #[test]
    fn snapshot_restore_round_trips_on_a_fresh_scheme() {
        let mut sim = Sim::new(8, false);
        {
            let world = World {
                graph: &sim.graph,
                cache: &sim.cache,
                oracle: &sim.oracle,
                taxis: &sim.taxis,
                requests: &sim.requests,
            };
            sim.scheme.install(&world);
        }
        for (k, (o, d)) in [(0u32, 399u32), (21, 380), (40, 350)].iter().enumerate() {
            let now = k as f64 * 30.0;
            let req = sim.make_request(*o, *d, now);
            sim.dispatch_and_commit(&req, now);
        }
        let snap = sim.scheme.snapshot_state().expect("mT-Share snapshots its indexes");

        // A freshly constructed scheme (same deterministic context, no
        // `install`) restores to byte-identical index state.
        let mut sim2 = Sim::new(8, false);
        sim2.taxis = sim.taxis.clone();
        {
            let world = World {
                graph: &sim2.graph,
                cache: &sim2.cache,
                oracle: &sim2.oracle,
                taxis: &sim2.taxis,
                requests: &sim.requests,
            };
            sim2.scheme.restore_state(&snap, &world).expect("restore succeeds");
        }
        assert_eq!(sim2.scheme.snapshot_state().unwrap(), snap);
        assert_eq!(sim2.scheme.indexed_taxis(), sim.scheme.indexed_taxis());

        // A mismatched fleet is rejected, not mis-restored.
        let small = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        let world = World {
            graph: &sim2.graph,
            cache: &sim2.cache,
            oracle: &sim2.oracle,
            taxis: &small,
            requests: &sim.requests,
        };
        assert!(sim2.scheme.restore_state(&snap, &world).is_err());
    }

    #[test]
    fn probabilistic_variant_reports_name_and_flag() {
        let sim = Sim::new(2, true);
        assert_eq!(sim.scheme.name(), "mT-Share_pro");
        assert!(sim.scheme.uses_probabilistic_routing());
    }
}
