//! The leg-cost layer is demand-driven: dispatch computes only what a
//! decision reads. These tests pin that with exact counts so eager work
//! cannot creep back in unnoticed — no bucket priming sweep, no hierarchy
//! query and no `PathCache` search that depends on the router backend
//! inside the loop, no oracle query that misses the pinned vectors,
//! exactly one backward-vector computation per distinct pinned node, and
//! every route read off those vectors. The trace must not notice the
//! backend at all.

use mt_share::core::{MtShareConfig, PartitionStrategy};
use mt_share::model::{
    DispatchOutcome, DispatchScheme, EngineStats, RideRequest, Taxi, TaxiId, Time, World,
};
use mt_share::obs::{MemorySink, Obs};
use mt_share::road::{grid_city, GridCityConfig, RoadNetwork};
use mt_share::routing::{
    CacheStats, ContractionHierarchy, CustomizableCh, OracleStats, PathCache, RouterBackend,
};
use mt_share::sim::{build_context, Scenario, ScenarioConfig, SchemeKind, SimConfig, Simulator};
use std::sync::Arc;

/// Forwards every hook the sequential loop calls and, with the requests'
/// endpoints pinned, checks the oracle's pin accounting at each dispatch.
struct PinAudit {
    inner: Box<dyn DispatchScheme>,
    dispatches: u64,
    /// Oracle counters after the latest dispatch returned.
    last: OracleStats,
}

impl PinAudit {
    fn audit(&mut self, world: &World<'_>) {
        let s = world.oracle.stats();
        assert_eq!(
            s.pin_computes,
            s.evictions + world.oracle.pinned_count() as u64,
            "one vector computation per distinct pin: {s:?}"
        );
        self.dispatches += 1;
        self.last = s;
    }
}

impl DispatchScheme for PinAudit {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn install(&mut self, world: &World<'_>) {
        self.inner.install(world)
    }
    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }
    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        self.audit(world);
        let out = self.inner.dispatch(req, now, world);
        self.last = world.oracle.stats();
        out
    }
    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        self.audit(world);
        let out = self.inner.dispatch_offline(req, encountered_by, now, world);
        self.last = world.oracle.stats();
        out
    }
    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.inner.after_assign(taxi, world)
    }
    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.inner.on_taxi_progress(taxi, now, world)
    }
    fn on_taxi_removed(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.inner.on_taxi_removed(taxi, world)
    }
    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        self.inner.indexed_taxis()
    }
    fn uses_probabilistic_routing(&self) -> bool {
        self.inner.uses_probabilistic_routing()
    }
    fn scheduler_stats(&self) -> EngineStats {
        self.inner.scheduler_stats()
    }
}

struct Run {
    trace: String,
    served: usize,
    /// `PathCache` counters over the loop only (set-up queries excluded).
    loop_cache: CacheStats,
    cache: PathCache,
    oracle: OracleStats,
}

fn run(graph: &Arc<RoadNetwork>, backend: RouterBackend, kind: SchemeKind) -> Run {
    let cache = PathCache::with_backend(graph.clone(), backend);
    let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::nonpeak(16));
    let ctx = build_context(graph, &scenario.historical, 12, PartitionStrategy::Bipartite);
    let inner = kind.build(graph, scenario.taxis.len(), Some(ctx), Some(MtShareConfig::default()));
    let mut scheme = PinAudit { inner, dispatches: 0, last: OracleStats::default() };
    let obs = Obs::enabled();
    let (sink, buf) = MemorySink::new();
    obs.add_sink(Box::new(sink));
    let sim =
        Simulator::new(graph.clone(), cache.clone(), &scenario, SimConfig::default()).with_obs(obs);
    let before = cache.stats();
    let report = sim.run(&mut scheme);
    let after = cache.stats();
    assert!(scheme.dispatches > 0, "scenario must exercise the dispatcher");
    let trace = buf.borrow().clone();
    Run {
        trace,
        served: report.served,
        loop_cache: CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
        },
        cache,
        oracle: scheme.last,
    }
}

#[test]
fn no_backend_dependent_work_inside_the_loop() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let ch = RouterBackend::Ch(Arc::new(ContractionHierarchy::build(&graph, 2)));
    let cch = RouterBackend::Cch(Arc::new(CustomizableCh::build(&graph)));
    // mt-share-pro on a non-peak day covers both Alg. 3 and the Alg. 4
    // fallback, online and offline dispatch. The baselines read the oracle
    // outside the insertion engines too: t-share and no-sharing through
    // `first_feasible`, pgreedy-dp through its own scheme.
    for kind in [
        SchemeKind::MtShare,
        SchemeKind::MtSharePro,
        SchemeKind::TShare,
        SchemeKind::NoSharing,
        SchemeKind::PGreedyDp,
    ] {
        let bidir = run(&graph, RouterBackend::Bidir, kind);
        assert!(bidir.served > 0, "{kind:?}: nothing served");
        assert!(bidir.oracle.vector_hits > 0 && bidir.oracle.pin_computes > 0);
        // Every leg dispatch priced ended at a pinned node: nothing fell
        // through to the shared cache, under any backend (`r.oracle ==
        // bidir.oracle` below).
        assert_eq!(
            bidir.oracle.searches, 0,
            "{kind:?}: dispatch asked the oracle for an unpinned target"
        );
        // Routes come off the same vectors: every leg ends at a pinned stop
        // within its pin's radius, so none falls through to the cache.
        let (walks, searches) = (bidir.oracle.path_walks, bidir.oracle.path_searches);
        assert!(walks > 0, "{kind:?}: no route was read off a vector");
        assert_eq!(searches, 0, "{kind:?}: {walks} walks, {searches} searches");
        for (name, backend) in [("ch", ch.clone()), ("cch", cch.clone())] {
            let r = run(&graph, backend, kind);
            assert_eq!(r.trace, bidir.trace, "{kind:?}/{name}: trace differs from bidir");
            assert_eq!(r.loop_cache, bidir.loop_cache, "{kind:?}/{name}: PathCache loop counts");
            assert_eq!(r.oracle, bidir.oracle, "{kind:?}/{name}: oracle counts");
            let sweeps = match name {
                "ch" => r.cache.ch_stats().unwrap().bucket_sweeps,
                _ => r.cache.cch_stats().unwrap().bucket_sweeps,
            };
            assert_eq!(sweeps, 0, "{kind:?}/{name}: dispatch primed the memo");
        }
    }
}
