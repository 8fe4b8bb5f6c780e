//! `TimedScheme`: a `DispatchScheme` decorator that times scheme calls
//! from outside the program.
//!
//! It forwards **every** trait method, defaulted ones included: the
//! trait's defaults are behaviour (`dispatch_offline` falls back to
//! `dispatch`, `dispatch_to` rejects, `snapshot_state` is `None`), so a
//! missed override would silently change what the simulator does.

use mtshare_model::{
    DispatchOutcome, DispatchScheme, EngineStats, RideRequest, SpeculativeOutcome, Taxi, TaxiId,
    Time, WindowRow, World,
};
use mtshare_obs::Obs;
use std::cell::Cell;
use std::time::Instant;

/// Call count and total wall time of one group of scheme methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTime {
    /// Calls made.
    pub calls: u64,
    /// Total seconds inside them.
    pub secs: f64,
}

/// What the decorator measured.
#[derive(Debug, Clone, Default)]
pub struct SchemeTimes {
    /// Wall time of each `dispatch`/`dispatch_offline` call, seconds, in
    /// call order — the paper's response time.
    pub response_s: Vec<f64>,
    /// `dispatch` (online requests and recovery re-dispatches).
    pub dispatch: CallTime,
    /// `dispatch_offline` (encountered offline requests).
    pub dispatch_offline: CallTime,
    /// `after_assign`; timed only when every method is.
    pub after_assign: CallTime,
    /// `on_taxi_progress`; timed only when every method is.
    pub progress: CallTime,
    /// All remaining methods except `install` (which is set-up); timed
    /// only when every method is.
    pub other: CallTime,
}

impl SchemeTimes {
    /// Seconds spent in scheme calls of any kind.
    pub fn total_s(&self) -> f64 {
        self.dispatch.secs
            + self.dispatch_offline.secs
            + self.after_assign.secs
            + self.progress.secs
            + self.other.secs
    }
}

/// The decorator. With `all_methods` off only the two dispatch entry
/// points are timed (the end-to-end pass); with it on every method is
/// (the traced pass).
pub struct TimedScheme {
    inner: Box<dyn DispatchScheme>,
    all_methods: bool,
    times: SchemeTimes,
    /// `other` of the `&self` methods (checkpoint and validation reads).
    other_shared: Cell<CallTime>,
}

impl TimedScheme {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn DispatchScheme>, all_methods: bool) -> Self {
        Self { inner, all_methods, times: SchemeTimes::default(), other_shared: Cell::default() }
    }

    /// `dispatch` calls made so far.
    pub fn dispatch_calls(&self) -> u64 {
        self.times.dispatch.calls
    }

    /// Consumes the decorator, returning its measurements.
    pub fn into_times(mut self) -> SchemeTimes {
        let shared = self.other_shared.get();
        self.times.other.calls += shared.calls;
        self.times.other.secs += shared.secs;
        self.times
    }

    fn shared<R>(&self, f: impl FnOnce(&dyn DispatchScheme) -> R) -> R {
        let t = self.start();
        let out = f(self.inner.as_ref());
        let mut slot = self.other_shared.get();
        stop(&mut slot, t);
        self.other_shared.set(slot);
        out
    }

    fn start(&self) -> Option<Instant> {
        self.all_methods.then(Instant::now)
    }
}

fn stop(slot: &mut CallTime, started: Option<Instant>) {
    if let Some(t) = started {
        slot.calls += 1;
        slot.secs += t.elapsed().as_secs_f64();
    }
}

impl DispatchScheme for TimedScheme {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn install(&mut self, world: &World<'_>) {
        self.inner.install(world);
    }

    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs);
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let t = Instant::now();
        let out = self.inner.dispatch(req, now, world);
        let secs = t.elapsed().as_secs_f64();
        self.times.response_s.push(secs);
        self.times.dispatch.calls += 1;
        self.times.dispatch.secs += secs;
        out
    }

    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        let t = Instant::now();
        let out = self.inner.dispatch_offline(req, encountered_by, now, world);
        let secs = t.elapsed().as_secs_f64();
        self.times.response_s.push(secs);
        self.times.dispatch_offline.calls += 1;
        self.times.dispatch_offline.secs += secs;
        out
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        let t = self.start();
        self.inner.after_assign(taxi, world);
        stop(&mut self.times.after_assign, t);
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        let t = self.start();
        self.inner.on_taxi_progress(taxi, now, world);
        stop(&mut self.times.progress, t);
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi, world: &World<'_>) {
        let t = self.start();
        self.inner.on_taxi_removed(taxi, world);
        stop(&mut self.times.other, t);
    }

    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        self.shared(|s| s.indexed_taxis())
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.shared(|s| s.snapshot_state())
    }

    fn restore_state(&mut self, bytes: &[u8], world: &World<'_>) -> Result<(), String> {
        let t = self.start();
        let out = self.inner.restore_state(bytes, world);
        stop(&mut self.times.other, t);
        out
    }

    fn index_memory_bytes(&self) -> usize {
        self.shared(|s| s.index_memory_bytes())
    }

    fn uses_probabilistic_routing(&self) -> bool {
        self.shared(|s| s.uses_probabilistic_routing())
    }

    fn scheduler_stats(&self) -> EngineStats {
        self.shared(|s| s.scheduler_stats())
    }

    fn dispatch_batch_speculative(
        &mut self,
        reqs: &[RideRequest],
        world: &World<'_>,
    ) -> Option<Vec<SpeculativeOutcome>> {
        let t = self.start();
        let out = self.inner.dispatch_batch_speculative(reqs, world);
        stop(&mut self.times.other, t);
        out
    }

    fn validate_speculative(
        &mut self,
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        spec: &SpeculativeOutcome,
    ) -> bool {
        let t = self.start();
        let out = self.inner.validate_speculative(req, now, world, spec);
        stop(&mut self.times.other, t);
        out
    }

    fn score_window(
        &mut self,
        reqs: &[RideRequest],
        now: Time,
        world: &World<'_>,
    ) -> Option<Vec<WindowRow>> {
        let t = self.start();
        let out = self.inner.score_window(reqs, now, world);
        stop(&mut self.times.other, t);
        out
    }

    fn dispatch_to(
        &mut self,
        req: &RideRequest,
        taxi: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        let t = self.start();
        let out = self.inner.dispatch_to(req, taxi, now, world);
        stop(&mut self.times.other, t);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_model::{RequestId, RequestStore};
    use mtshare_road::{grid_city, GridCityConfig, NodeId};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    /// Records which methods ran and answers each with a value its trait
    /// default would never give.
    struct Spy(Rc<RefCell<Vec<&'static str>>>);

    impl Spy {
        fn saw(&self, name: &'static str) {
            self.0.borrow_mut().push(name);
        }
    }

    impl DispatchScheme for Spy {
        fn name(&self) -> &str {
            self.saw("name");
            "spy"
        }
        fn install(&mut self, _: &World<'_>) {
            self.saw("install");
        }
        fn set_obs(&mut self, _: Obs) {
            self.saw("set_obs");
        }
        fn dispatch(&mut self, _: &RideRequest, _: Time, _: &World<'_>) -> DispatchOutcome {
            self.saw("dispatch");
            DispatchOutcome::rejected(11)
        }
        fn dispatch_offline(
            &mut self,
            _: &RideRequest,
            _: TaxiId,
            _: Time,
            _: &World<'_>,
        ) -> DispatchOutcome {
            self.saw("dispatch_offline");
            DispatchOutcome::rejected(12)
        }
        fn after_assign(&mut self, _: &Taxi, _: &World<'_>) {
            self.saw("after_assign");
        }
        fn on_taxi_progress(&mut self, _: &Taxi, _: Time, _: &World<'_>) {
            self.saw("on_taxi_progress");
        }
        fn on_taxi_removed(&mut self, _: &Taxi, _: &World<'_>) {
            self.saw("on_taxi_removed");
        }
        fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
            self.saw("indexed_taxis");
            Some(vec![TaxiId(3)])
        }
        fn snapshot_state(&self) -> Option<Vec<u8>> {
            self.saw("snapshot_state");
            Some(vec![1, 2, 3])
        }
        fn restore_state(&mut self, _: &[u8], _: &World<'_>) -> Result<(), String> {
            self.saw("restore_state");
            Ok(())
        }
        fn index_memory_bytes(&self) -> usize {
            self.saw("index_memory_bytes");
            77
        }
        fn uses_probabilistic_routing(&self) -> bool {
            self.saw("uses_probabilistic_routing");
            true
        }
        fn scheduler_stats(&self) -> EngineStats {
            self.saw("scheduler_stats");
            EngineStats { scores: 5, ..EngineStats::default() }
        }
        fn dispatch_batch_speculative(
            &mut self,
            _: &[RideRequest],
            _: &World<'_>,
        ) -> Option<Vec<SpeculativeOutcome>> {
            self.saw("dispatch_batch_speculative");
            Some(Vec::new())
        }
        fn validate_speculative(
            &mut self,
            _: &RideRequest,
            _: Time,
            _: &World<'_>,
            _: &SpeculativeOutcome,
        ) -> bool {
            self.saw("validate_speculative");
            true
        }
        fn score_window(
            &mut self,
            _: &[RideRequest],
            _: Time,
            _: &World<'_>,
        ) -> Option<Vec<WindowRow>> {
            self.saw("score_window");
            Some(Vec::new())
        }
        fn dispatch_to(
            &mut self,
            _: &RideRequest,
            _: TaxiId,
            _: Time,
            _: &World<'_>,
        ) -> DispatchOutcome {
            self.saw("dispatch_to");
            DispatchOutcome::rejected(13)
        }
    }

    #[test]
    fn every_trait_method_reaches_the_inner_scheme() {
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
        let req = RideRequest {
            id: RequestId(0),
            release_time: 0.0,
            origin: NodeId(0),
            destination: NodeId(1),
            passengers: 1,
            deadline: 1e9,
            direct_cost_s: 1.0,
            offline: false,
        };
        let spec = SpeculativeOutcome {
            outcome: DispatchOutcome::rejected(0),
            candidates: Vec::new(),
            candidate_versions: Vec::new(),
        };
        for all_methods in [false, true] {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let mut s = TimedScheme::new(Box::new(Spy(seen.clone())), all_methods);
            assert_eq!(s.name(), "spy");
            s.set_obs(Obs::disabled());
            s.install(&world);
            assert_eq!(s.dispatch(&req, 0.0, &world).candidates_examined, 11);
            assert_eq!(s.dispatch_offline(&req, TaxiId(0), 0.0, &world).candidates_examined, 12);
            s.after_assign(&taxis[0], &world);
            s.on_taxi_progress(&taxis[0], 0.0, &world);
            s.on_taxi_removed(&taxis[0], &world);
            assert_eq!(s.indexed_taxis(), Some(vec![TaxiId(3)]));
            assert_eq!(s.snapshot_state(), Some(vec![1, 2, 3]));
            assert_eq!(s.restore_state(&[], &world), Ok(()));
            assert_eq!(s.index_memory_bytes(), 77);
            assert!(s.uses_probabilistic_routing());
            assert_eq!(s.scheduler_stats().scores, 5);
            assert!(s.dispatch_batch_speculative(&[], &world).is_some());
            assert!(s.validate_speculative(&req, 0.0, &world, &spec));
            assert!(s.score_window(&[], 0.0, &world).is_some());
            assert_eq!(s.dispatch_to(&req, TaxiId(0), 0.0, &world).candidates_examined, 13);
            assert_eq!(
                *seen.borrow(),
                [
                    "name",
                    "set_obs",
                    "install",
                    "dispatch",
                    "dispatch_offline",
                    "after_assign",
                    "on_taxi_progress",
                    "on_taxi_removed",
                    "indexed_taxis",
                    "snapshot_state",
                    "restore_state",
                    "index_memory_bytes",
                    "uses_probabilistic_routing",
                    "scheduler_stats",
                    "dispatch_batch_speculative",
                    "validate_speculative",
                    "score_window",
                    "dispatch_to",
                ]
            );
            let times = s.into_times();
            assert_eq!(times.response_s.len(), 2);
            assert_eq!((times.dispatch.calls, times.dispatch_offline.calls), (1, 1));
            // Everything but name, set_obs, install and the four groups above.
            assert_eq!(times.other.calls, if all_methods { 11 } else { 0 });
            assert_eq!(times.progress.calls, u64::from(all_methods));
        }
    }
}
