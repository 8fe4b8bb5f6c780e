//! The dispatch-scheme interface every ridesharing policy implements.
//!
//! The simulator owns the fleet and the clock; a scheme is a matcher that,
//! given a request and a read-only [`World`] view, proposes an
//! [`Assignment`] (a full new schedule + routed legs for one taxi). The
//! simulator commits the assignment and notifies the scheme so it can
//! refresh its indexes. mT-Share and all baselines implement this trait,
//! which is what keeps the Sec. V comparisons apples-to-apples.

use crate::request::{RequestStore, RideRequest};
use crate::schedule::Schedule;
use crate::taxi::{Taxi, TaxiId};
use crate::Time;
use mtshare_obs::Obs;
use mtshare_road::RoadNetwork;
use mtshare_routing::{HotNodeOracle, Path, PathCache};
use std::sync::Arc;

/// Read-only view of the simulation handed to schemes.
pub struct World<'a> {
    /// The road network.
    pub graph: &'a Arc<RoadNetwork>,
    /// Shared shortest-path cache for route materialization.
    pub cache: &'a PathCache,
    /// Shared O(1) leg-cost oracle over active request endpoints (the
    /// stand-in for the paper's cached all-pairs table; see DESIGN.md).
    pub oracle: &'a HotNodeOracle,
    /// Every taxi, indexed by [`TaxiId`].
    pub taxis: &'a [Taxi],
    /// Every request revealed so far, indexed by request id.
    pub requests: &'a RequestStore,
}

impl<'a> World<'a> {
    /// The taxi with id `id`.
    #[inline]
    pub fn taxi(&self, id: TaxiId) -> &'a Taxi {
        &self.taxis[id.index()]
    }
}

/// A committed match: the chosen taxi plus its complete new plan.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The taxi that will serve the request.
    pub taxi: TaxiId,
    /// The taxi's full new schedule (existing events + the new pick-up and
    /// drop-off).
    pub schedule: Schedule,
    /// One routed leg per schedule event, starting from the taxi's current
    /// position.
    pub legs: Vec<Path>,
    /// Detour cost `cost(R') − cost(R)` in seconds (Eq. 4).
    pub detour_cost_s: f64,
}

/// Result of a dispatch attempt, including instrumentation the evaluation
/// reports (Table III counts candidate taxis per request).
#[derive(Debug, Clone)]
pub struct DispatchOutcome {
    /// The match, if one was found.
    pub assignment: Option<Assignment>,
    /// Number of candidate taxis whose schedules were examined.
    pub candidates_examined: usize,
    /// Number of insertion instances that satisfied every constraint
    /// (deadline-feasible positions across all candidates). Purely
    /// informational telemetry; deterministic for a given request and
    /// world snapshot.
    pub feasible_instances: usize,
}

impl DispatchOutcome {
    /// A failed dispatch that examined `candidates_examined` taxis.
    pub fn rejected(candidates_examined: usize) -> Self {
        Self { assignment: None, candidates_examined, feasible_instances: 0 }
    }
}

/// Deterministic preference order between two scored assignments: lower
/// detour wins, ties broken by taxi id, so the chosen winner does not
/// depend on the order candidates were scored in; `f64::total_cmp` keeps
/// it total even for NaN scores.
pub fn assignment_cmp(a: &Assignment, b: &Assignment) -> std::cmp::Ordering {
    a.detour_cost_s.total_cmp(&b.detour_cost_s).then(a.taxi.cmp(&b.taxi))
}

/// Result type of the two caller-less speculative trait methods below.
/// Nothing in the workspace constructs it except `crates/e2e`'s frozen
/// `TimedScheme`; it leaves with the bench revision of ROADMAP item 1.
#[derive(Debug, Clone)]
pub struct SpeculativeOutcome {
    /// A dispatch result.
    pub outcome: DispatchOutcome,
    /// The candidate set examined.
    pub candidates: Vec<TaxiId>,
    /// Each candidate's `route_version`, parallel to `candidates`.
    pub candidate_versions: Vec<u64>,
}

/// One scored row of a rolling-horizon batch window's cost matrix: a
/// request's candidate taxis (in the scheme's deterministic order) with
/// the marginal insertion cost of each, plus each candidate's
/// `route_version` at scoring time.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Candidate taxis examined, in the scheme's deterministic order.
    pub candidates: Vec<TaxiId>,
    /// Each candidate's `route_version` at scoring time, parallel to
    /// `candidates`.
    pub candidate_versions: Vec<u64>,
    /// Marginal insertion detour per candidate, seconds, parallel to
    /// `candidates`; `f64::INFINITY` marks an infeasible insertion.
    pub costs: Vec<f64>,
    /// Number of finite (deadline-feasible) entries in `costs`.
    pub feasible: usize,
}

/// A ridesharing dispatch policy.
pub trait DispatchScheme {
    /// Human-readable scheme name (used in experiment tables).
    fn name(&self) -> &str;

    /// Called once before the scenario starts so the scheme can index the
    /// initial fleet.
    fn install(&mut self, world: &World<'_>);

    /// Hands the scheme a telemetry bus. Schemes that instrument their
    /// pipeline (stage spans, filter/insertion counters) keep the handle;
    /// the default ignores it. Called by the simulator before `install`.
    fn set_obs(&mut self, _obs: Obs) {}

    /// Matches an online request released at `now`.
    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome;

    /// Matches an offline request encountered by taxi `encountered_by` at
    /// `now`. Per Sec. IV-C2 the encountering taxi is tried first; the
    /// default falls back to a regular dispatch (the server assigns another
    /// taxi when the encountering one cannot serve it).
    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        _encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        self.dispatch(req, now, world)
    }

    /// Notifies the scheme that `taxi`'s plan changed (after an assignment
    /// was committed) so indexes can be refreshed.
    fn after_assign(&mut self, _taxi: &Taxi, _world: &World<'_>) {}

    /// Notifies the scheme that `taxi` completed a schedule event (its
    /// position and load changed).
    fn on_taxi_progress(&mut self, _taxi: &Taxi, _now: Time, _world: &World<'_>) {}

    /// Notifies the scheme that `taxi` permanently left service (e.g. a
    /// breakdown). The scheme must reconcile the taxi out of every index
    /// so candidate search never returns it again.
    fn on_taxi_removed(&mut self, _taxi: &Taxi, _world: &World<'_>) {}

    /// The taxis currently present in the scheme's candidate indexes, or
    /// `None` when the scheme keeps no enumerable index. The invariant
    /// sweep (`mtshare_sim::audit`) checks index/world agreement with it
    /// (a dead taxi must never be indexed).
    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        None
    }

    /// Serializes the scheme's private mutable index state for a
    /// checkpoint, or `None` when the scheme keeps no history-dependent
    /// state (recovery then re-runs [`DispatchScheme::install`] instead).
    ///
    /// Index internals — bucket order, recycled slots, running sums — leak
    /// into candidate-set composition, so a warm restart must restore them
    /// *faithfully* rather than rebuild them from world state: a rebuilt
    /// index could enumerate candidates in a different order and change
    /// every dispatch decision after the resume point.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state produced by [`DispatchScheme::snapshot_state`] on a
    /// freshly constructed scheme. Called instead of `install` when
    /// resuming from a checkpoint; `world` carries the already-restored
    /// fleet for validation. Must reject (not mis-restore) inconsistent or
    /// mismatched bytes.
    fn restore_state(&mut self, _bytes: &[u8], _world: &World<'_>) -> Result<(), String> {
        Err(format!("scheme `{}` has no state snapshot support", self.name()))
    }

    /// Approximate resident memory of the scheme's private indexes, bytes
    /// (Table IV).
    fn index_memory_bytes(&self) -> usize {
        0
    }

    /// Whether this scheme plans probabilistic routes to hunt offline
    /// requests (mT-Share_pro).
    fn uses_probabilistic_routing(&self) -> bool {
        false
    }

    /// Cumulative counters of the scheme's [`crate::ScheduleEngine`]
    /// for the summary's `profiling.dtree` block. All-zero under the
    /// plain DP engine (and for schemes without a pluggable engine).
    fn scheduler_stats(&self) -> crate::EngineStats {
        crate::EngineStats::default()
    }

    /// No caller and no implementer: kept only because `crates/e2e`'s
    /// frozen `TimedScheme` forwards it; leaves with the bench revision
    /// of ROADMAP item 1.
    fn dispatch_batch_speculative(
        &mut self,
        _reqs: &[RideRequest],
        _world: &World<'_>,
    ) -> Option<Vec<SpeculativeOutcome>> {
        None
    }

    /// No caller and no implementer; see
    /// [`DispatchScheme::dispatch_batch_speculative`].
    fn validate_speculative(
        &mut self,
        _req: &RideRequest,
        _now: Time,
        _world: &World<'_>,
        _spec: &SpeculativeOutcome,
    ) -> bool {
        false
    }

    /// Scores a whole batch window against the frozen `world`: one cost
    /// row per request, all evaluated at `now` (the window flush time).
    /// Rows must be a pure function of `(reqs, now, world)` — the
    /// simulator feeds them to a deterministic assignment solver and a
    /// resumed run must re-derive the same matches. Returns `None` when the
    /// scheme has no batch-window path (the simulator then dispatches
    /// the window members sequentially).
    fn score_window(
        &mut self,
        _reqs: &[RideRequest],
        _now: Time,
        _world: &World<'_>,
    ) -> Option<Vec<WindowRow>> {
        None
    }

    /// Dispatches `req` restricted to the single `taxi` an assignment
    /// solver picked for it, re-deriving and materializing the best
    /// insertion against the *current* world — the revalidated-commit
    /// path for batch winners. The default rejects, matching the
    /// [`DispatchScheme::score_window`] default of "no batch path".
    fn dispatch_to(
        &mut self,
        _req: &RideRequest,
        _taxi: TaxiId,
        _now: Time,
        _world: &World<'_>,
    ) -> DispatchOutcome {
        DispatchOutcome::rejected(1)
    }
}

impl DispatchScheme for Box<dyn DispatchScheme> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }
    fn install(&mut self, world: &World<'_>) {
        self.as_mut().install(world);
    }
    fn set_obs(&mut self, obs: Obs) {
        self.as_mut().set_obs(obs);
    }
    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        self.as_mut().dispatch(req, now, world)
    }
    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        self.as_mut().dispatch_offline(req, encountered_by, now, world)
    }
    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.as_mut().after_assign(taxi, world);
    }
    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.as_mut().on_taxi_progress(taxi, now, world);
    }
    fn on_taxi_removed(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.as_mut().on_taxi_removed(taxi, world);
    }
    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        self.as_ref().indexed_taxis()
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.as_ref().snapshot_state()
    }
    fn restore_state(&mut self, bytes: &[u8], world: &World<'_>) -> Result<(), String> {
        self.as_mut().restore_state(bytes, world)
    }
    fn index_memory_bytes(&self) -> usize {
        self.as_ref().index_memory_bytes()
    }
    fn uses_probabilistic_routing(&self) -> bool {
        self.as_ref().uses_probabilistic_routing()
    }
    fn scheduler_stats(&self) -> crate::EngineStats {
        self.as_ref().scheduler_stats()
    }
    // The two caller-less speculative methods are still forwarded:
    // `crates/e2e`'s frozen `every_trait_method_reaches_the_inner_scheme`
    // calls them through a `Box<dyn DispatchScheme>`.
    fn dispatch_batch_speculative(
        &mut self,
        reqs: &[RideRequest],
        world: &World<'_>,
    ) -> Option<Vec<SpeculativeOutcome>> {
        self.as_mut().dispatch_batch_speculative(reqs, world)
    }
    fn validate_speculative(
        &mut self,
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        spec: &SpeculativeOutcome,
    ) -> bool {
        self.as_mut().validate_speculative(req, now, world, spec)
    }
    fn score_window(
        &mut self,
        reqs: &[RideRequest],
        now: Time,
        world: &World<'_>,
    ) -> Option<Vec<WindowRow>> {
        self.as_mut().score_window(reqs, now, world)
    }
    fn dispatch_to(
        &mut self,
        req: &RideRequest,
        taxi: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        self.as_mut().dispatch_to(req, taxi, now, world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig, NodeId};

    struct Greedy;

    impl DispatchScheme for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn install(&mut self, _world: &World<'_>) {}
        fn dispatch(
            &mut self,
            _req: &RideRequest,
            _now: Time,
            world: &World<'_>,
        ) -> DispatchOutcome {
            DispatchOutcome::rejected(world.taxis.len())
        }
    }

    #[test]
    fn trait_object_safety_and_defaults() {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let oracle = HotNodeOracle::new(graph.clone());
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        let requests = RequestStore::new();
        let world = World {
            graph: &graph,
            cache: &cache,
            oracle: &oracle,
            taxis: &taxis,
            requests: &requests,
        };
        let mut s: Box<dyn DispatchScheme> = Box::new(Greedy);
        s.install(&world);
        assert_eq!(s.name(), "greedy");
        assert_eq!(s.index_memory_bytes(), 0);
        assert!(!s.uses_probabilistic_routing());
        let req = RideRequest {
            id: crate::request::RequestId(0),
            release_time: 0.0,
            origin: NodeId(0),
            destination: NodeId(1),
            passengers: 1,
            deadline: 1e9,
            direct_cost_s: 1.0,
            offline: true,
        };
        let out = s.dispatch_offline(&req, TaxiId(0), 0.0, &world);
        assert!(out.assignment.is_none());
        assert_eq!(out.candidates_examined, 1);
        assert_eq!(world.taxi(TaxiId(0)).id, TaxiId(0));
    }
}
