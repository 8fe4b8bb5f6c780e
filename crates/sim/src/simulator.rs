//! Event-driven ridesharing simulator.
//!
//! Owns the clock, the fleet and the request stream; a
//! [`DispatchScheme`] proposes assignments. Taxis move along their
//! committed [`TimedRoute`]s at constant speed, so positions and event
//! completions are read analytically — no ticking. Offline requests are
//! revealed only when a taxi *encounters* them: its route passes within
//! the encounter radius of the request origin while seats are idle
//! (Sec. IV-C2), upon which the driver reports the request to the server.

use crate::audit::{self, AuditView};
use crate::metrics::{Series, ServedRecord, SimReport};
use crate::scenario::Scenario;
use crate::telemetry::classify_rejection;
use mtshare_chaos::{ChaosConfig, DisruptionPlan};
use mtshare_core::{settle_episode, PassengerTrip, PaymentConfig};
use mtshare_model::{
    DispatchScheme, EventKind, RequestId, RequestStore, RideRequest, Taxi, TaxiId, Time,
    TimedRoute, World,
};
use mtshare_obs::{Event, Obs, RejectReason, RunInfo, Stage};
use mtshare_road::{apply_traffic_shifts, RoadNetwork, SpatialGrid, TrafficShiftSpec};
use mtshare_routing::{HotNodeOracle, PathCache};
use rustc_hash::{FxHashMap, FxHashSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

mod batch;
#[path = "checkpoint.rs"]
mod checkpoint;
mod recovery;
pub use checkpoint::{PersistConfig, RunOutcome};

/// A taxi perceives an offline request when its route passes within this
/// distance of the request origin, metres: half a default grid-city block.
const ENCOUNTER_RADIUS_M: f64 = 60.0;

/// Simulator knobs. Fares settle with [`PaymentConfig::default`] and
/// orphaned riders are re-dispatched under
/// [`RetryPolicy::default`](mtshare_chaos::RetryPolicy::default).
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Seeded disruption injection (breakdowns, cancellations, traffic
    /// shifts). `None` runs a fault-free simulation.
    pub chaos: Option<ChaosConfig>,
    /// Cadence (simulation seconds) of the runtime invariant checker;
    /// `None` disables it. Violations are reported through `mtshare-obs`
    /// and counted in the report.
    pub validate_every: Option<f64>,
    /// Checkpoint/WAL persistence (crash-consistent warm restart).
    /// `None` runs without any state directory.
    pub persist: Option<PersistConfig>,
    /// Rolling-horizon batch assignment: online arrivals are buffered
    /// per window and matched jointly through a Kuhn–Munkres solve at
    /// the window flush (see DESIGN.md, "Batch assignment"). `None`
    /// dispatches greedily per arrival.
    pub batch: Option<BatchConfig>,
}

/// Rolling-horizon batch dispatch knobs ([`SimConfig::batch`]).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Window length in simulated seconds: requests arriving within a
    /// window are matched together at its flush.
    pub window_s: f64,
    /// How many later windows an unmatched request re-enters before it
    /// is terminally rejected. `0` rejects at the first lost window.
    pub max_retries: u32,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self { window_s: 30.0, max_retries: 2 }
    }
}

/// What one [`Simulator::step_once`] call did. The service runtime
/// ([`crate::engine::SimEngine`]) paces its feed consumption off these;
/// the one-shot loop only ever sees `Progressed`, `Done` and `Crashed`
/// (its watermark is +∞, so it cannot go idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One unit of sequential work was consumed.
    Progressed,
    /// Nothing is processable below the watermark: ingest more of the
    /// feed (or close the stream) to make progress.
    Idle,
    /// Heap drained, arrival cursor exhausted, stream closed.
    Done,
    /// A planned in-process crash fired; the WAL is synced.
    Crashed {
        /// Steps fully processed before death.
        step: u64,
    },
    /// Strict durability stopped the run on a storage fault; the WAL
    /// was synced best-effort and the sinks flushed. The state dir is
    /// intact for `--resume`.
    StorageFault {
        /// Steps fully processed before the fault stopped the run.
        step: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// The next schedule event of a taxi completes.
    Taxi { taxi: TaxiId, version: u64 },
    /// A taxi's route passes an offline request's origin.
    Encounter { taxi: TaxiId, request: RequestId, version: u64 },
    /// The `idx`-th planned disruption fires.
    Disruption { idx: usize },
    /// A bounded-retry re-dispatch attempt for an orphaned rider.
    Redispatch { request: RequestId, attempt: u32 },
    /// Runtime invariant sweep (`validate_every` cadence).
    Validate,
    /// The open batch window flushes: its members are matched jointly
    /// (batch mode only; exactly one is pending while the window holds
    /// any member).
    BatchFlush,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueuedEv {
    time: Time,
    seq: u64,
    ev: Ev,
}

impl Eq for QueuedEv {}
impl Ord for QueuedEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for QueuedEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct Episode {
    trips: Vec<PassengerTrip>,
    onboard_since: Option<Time>,
    onboard_cost_s: f64,
}

/// The simulator. Construct once per run.
pub struct Simulator {
    graph: Arc<RoadNetwork>,
    cache: PathCache,
    oracle: HotNodeOracle,
    taxis: Vec<Taxi>,
    requests: RequestStore,
    cfg: SimConfig,
    // --- event machinery ---
    heap: BinaryHeap<Reverse<QueuedEv>>,
    seq: u64,
    /// Sequential-work counter: one per popped heap event, consumed
    /// arrival or validation sweep — the WAL's notion of position.
    step: u64,
    /// Cursor into the release-ordered request stream (a struct field,
    /// not a run-loop local, so snapshots capture it).
    next_arrival: usize,
    // --- streaming ingestion (service mode; see `crate::engine`) ---
    /// Largest release time the stream has revealed so far. The loop may
    /// only process work at times ≤ this bound: a later feed entry could
    /// still be released anywhere above it. One-shot runs pin it at +∞
    /// (the whole stream is known up front), which makes the gate
    /// vacuous and the loop byte-identical to the classic behavior.
    watermark: Time,
    /// Streaming construction: the request store starts empty and grows
    /// via [`Simulator::ingest_request`]. Snapshots tag the mode so
    /// service-mode state can never restore into a one-shot run.
    streaming: bool,
    /// Stream entries admitted only to be rejected at their arrival step
    /// (admission sheds, post-drain arrivals, unreachable ODs): the
    /// rejection is emitted at release time, not at the earlier decision
    /// time, which keeps the trace monotone in sim time.
    doomed: FxHashMap<RequestId, RejectReason>,
    /// Whether [`Simulator::begin`] restored a snapshot.
    was_resumed: bool,
    /// Armed by the strict durability policy when a storage operation
    /// fails mid-run: the step count at the fault. The run stops at the
    /// current step boundary with [`StepOutcome::StorageFault`].
    storage_fault: Option<u64>,
    // --- persistence ---
    /// Fingerprint of the immutable scenario inputs, taken at
    /// construction; snapshots refuse to load into a different scenario.
    scenario_digest: u64,
    /// Live checkpoint/WAL state (`None` without `SimConfig::persist`).
    persist: Option<checkpoint::PersistRt>,
    /// Future node→arrival map per taxi (rebuilt on commit).
    route_nodes: Vec<FxHashMap<u32, f64>>,
    // --- offline request machinery ---
    pending_offline: FxHashSet<RequestId>,
    /// node → offline requests watching it.
    offline_watch: FxHashMap<u32, Vec<RequestId>>,
    /// request → watched nodes (for cleanup).
    watched_nodes: FxHashMap<RequestId, Vec<u32>>,
    spatial: SpatialGrid,
    // --- disruption machinery ---
    /// The seeded disruption schedule (empty without chaos).
    plan: DisruptionPlan,
    /// The traffic shifts the routing metric currently reflects, with
    /// their plan indices (sorted). [`Simulator::sync_metric`] keeps it
    /// equal to the set active at the processed work unit's time. Not
    /// persisted — it is a pure function of the plan and the clock, so a
    /// restore installs the set active at the snapshot's clock.
    metric_shifts: Vec<(usize, TrafficShiftSpec)>,
    /// Per-request terminal-state flag: true once served or rejected.
    /// Guards double accounting across cancels, retries and expiry.
    resolved: Vec<bool>,
    /// Requests cancelled before their release time: rejected on arrival.
    cancelled_pre_release: FxHashSet<RequestId>,
    /// Members of the open batch window, in buffering order, with the
    /// number of windows each already lost. Non-empty iff exactly one
    /// `Ev::BatchFlush` is pending (batch mode only).
    window: Vec<(RequestId, u32)>,
    cancelled: usize,
    redispatched: usize,
    invariant_violations: usize,
    // --- observability ---
    /// Telemetry bus; disabled by default. Events are emitted only from
    /// the event loop, stamped with simulation time, so the stream is a
    /// function of the scenario alone (see `mtshare-obs` docs).
    obs: Obs,
    /// Latest simulation time processed; stamps end-of-run events so the
    /// emitted stream stays monotone in sim time.
    clock: Time,
    // --- metrics ---
    pickup_time: FxHashMap<RequestId, Time>,
    episodes: Vec<Episode>,
    response_ms: Series,
    waiting_s: Series,
    detour_s: Series,
    candidates: Series,
    served_online: usize,
    served_offline: usize,
    rejected: usize,
    fares_paid: f64,
    fares_solo: f64,
    driver_income: f64,
    benefit: f64,
    served_records: Vec<ServedRecord>,
}

impl Simulator {
    /// Builds a simulator for a materialized scenario. `cache` should be
    /// the one the scenario was generated with so direct costs are warm.
    pub fn new(
        graph: Arc<RoadNetwork>,
        cache: PathCache,
        scenario: &Scenario,
        cfg: SimConfig,
    ) -> Self {
        let oracle = HotNodeOracle::over(cache.clone());
        let spatial = SpatialGrid::build(&graph, 250.0);
        let n_taxis = scenario.taxis.len();
        let requests = scenario.request_store();
        let n_requests = requests.len();
        // The disruption plan is a pure function of the chaos config and
        // the scenario shape, generated once up front — never during the
        // run — so a resumed run faces the faults the crashed one did.
        let plan = match &cfg.chaos {
            Some(chaos) => {
                let horizon =
                    requests.iter().map(|r| r.release_time).fold(0.0_f64, f64::max).max(1.0);
                DisruptionPlan::generate(chaos, &graph, horizon, n_taxis, n_requests)
            }
            None => DisruptionPlan::default(),
        };
        assert_followable(&plan, &cache);
        let scenario_digest = checkpoint::scenario_digest(&scenario.taxis, &requests);
        Self {
            graph,
            cache,
            oracle,
            taxis: scenario.taxis.clone(),
            requests,
            cfg,
            heap: BinaryHeap::new(),
            seq: 0,
            step: 0,
            next_arrival: 0,
            watermark: f64::INFINITY,
            streaming: false,
            doomed: FxHashMap::default(),
            was_resumed: false,
            storage_fault: None,
            scenario_digest,
            persist: None,
            route_nodes: vec![FxHashMap::default(); n_taxis],
            pending_offline: FxHashSet::default(),
            offline_watch: FxHashMap::default(),
            watched_nodes: FxHashMap::default(),
            spatial,
            plan,
            metric_shifts: Vec::new(),
            resolved: vec![false; n_requests],
            cancelled_pre_release: FxHashSet::default(),
            window: Vec::new(),
            cancelled: 0,
            redispatched: 0,
            invariant_violations: 0,
            obs: Obs::disabled(),
            clock: 0.0,
            pickup_time: FxHashMap::default(),
            episodes: (0..n_taxis).map(|_| Episode::default()).collect(),
            response_ms: Series::default(),
            waiting_s: Series::default(),
            detour_s: Series::default(),
            candidates: Series::default(),
            served_online: 0,
            served_offline: 0,
            rejected: 0,
            fares_paid: 0.0,
            fares_solo: 0.0,
            driver_income: 0.0,
            benefit: 0.0,
            served_records: Vec::new(),
        }
    }

    /// Attaches a telemetry bus. Chainable; call before [`Simulator::run`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Replaces the disruption schedule with an explicit plan (targeted
    /// fault tests inject hand-built plans; `SimConfig::chaos` generates
    /// seeded ones). Chainable; call before [`Simulator::run`].
    pub fn with_disruptions(mut self, plan: DisruptionPlan) -> Self {
        assert_followable(&plan, &self.cache);
        self.plan = plan;
        self
    }

    /// Switches to streaming construction for the service runtime
    /// ([`crate::engine::SimEngine`]): the request stream is unknown up
    /// front, so the loop must never advance past the watermark (the
    /// largest ingested release time) until
    /// [`Simulator::close_stream`] declares the feed exhausted.
    /// Construct with an empty-request scenario; chainable.
    pub fn with_streaming(mut self) -> Self {
        self.streaming = true;
        self.watermark = f64::NEG_INFINITY;
        self
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

    /// Pins `req`'s endpoints in the hot-node oracle, each swept only as
    /// far as the request's deadlines still let a schedule read it at
    /// `now` ([`RideRequest::hold`]; DESIGN.md, "Pins grow where
    /// their holders read"). A radius taken at `now` serves every later read, since
    /// budgets only shrink — except where a deadline is renegotiated in
    /// place or the metric changes, and there [`Simulator::rehold`] widens
    /// the pins. A request is held from the moment a dispatch may read its
    /// vectors until it turns terminal or loses its taxi — i.e. while it
    /// is being dispatched and while it sits in some taxi's `assigned` or
    /// `onboard` list (which is what [`Simulator::rebuild_derived`]
    /// re-holds after a restore). Every hold is balanced by exactly one
    /// [`Simulator::release`]. The holds of [`Simulator::rehold`] and
    /// [`Simulator::rebuild_derived`] are balls; a dispatch holds with
    /// [`Simulator::hold_for_dispatch`].
    fn hold(&self, req: &RideRequest, now: Time) {
        let _span = self.obs.stage(Stage::OraclePin);
        req.hold(&self.oracle, now);
    }

    /// [`Simulator::hold`] for a dispatch of `req` at `now` — a new
    /// request, a batch flush, or a stranded rider re-originated at the
    /// failure position: its destination pin is the ellipse about its
    /// origin ([`RideRequest::hold_for_dispatch`]).
    fn hold_for_dispatch(&self, req: &RideRequest, now: Time) {
        let _span = self.obs.stage(Stage::OraclePin);
        req.hold_for_dispatch(&self.oracle, now);
    }

    /// Drops the hold [`Simulator::hold`] took on `req`'s endpoints.
    fn release(&self, req: &RideRequest) {
        req.release(&self.oracle);
    }

    /// The requests holding pins between events: those some taxi has
    /// assigned or on board.
    fn holders(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.taxis.iter().flat_map(|taxi| taxi.assigned.iter().chain(&taxi.onboard).copied())
    }

    /// Widens every holder's pins to the radii of its deadlines at `now`
    /// on the current metric (a hold and its release: refcounts stay).
    fn rehold(&self, now: Time) {
        for r in self.holders() {
            self.hold(self.requests.get(r), now);
            self.release(self.requests.get(r));
        }
    }

    fn push_ev(&mut self, time: Time, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse(QueuedEv { time, seq: self.seq, ev }));
    }

    /// Runs the scenario to completion and reports the metrics. Panics
    /// if a planned in-process crash point fires; persistence-aware
    /// callers use [`Simulator::run_to_outcome`].
    pub fn run(self, scheme: &mut dyn DispatchScheme) -> SimReport {
        self.run_to_outcome(scheme).report()
    }

    /// Runs the scenario, resuming from a checkpoint and/or stopping at
    /// a planned crash point when `SimConfig::persist` says so.
    pub fn run_to_outcome(mut self, scheme: &mut dyn DispatchScheme) -> RunOutcome {
        let start = std::time::Instant::now();
        self.begin(scheme);
        loop {
            match self.step_once(scheme) {
                StepOutcome::Progressed => {}
                StepOutcome::Idle | StepOutcome::Done => break,
                StepOutcome::Crashed { step } => return RunOutcome::Crashed { step },
                StepOutcome::StorageFault { step } => return RunOutcome::StorageFault { step },
            }
        }
        RunOutcome::Finished(self.finish(scheme, start.elapsed().as_secs_f64()))
    }

    /// Run setup: attaches the obs bus to the scheme and either restores
    /// a snapshot (resume) or installs the scheme, seeds the planned
    /// disruptions and writes the step-0 checkpoint. Must be called
    /// exactly once, before the first [`Simulator::step_once`].
    pub(crate) fn begin(&mut self, scheme: &mut dyn DispatchScheme) {
        scheme.set_obs(self.obs.clone());
        let resumed = self.setup_persistence(scheme);
        self.was_resumed = resumed;
        if !resumed {
            scheme.install(&self.world());

            // Seed the planned disruptions before anything else enters the
            // heap: their low sequence numbers order them ahead of same-time
            // taxi events, deterministically. On resume the restored heap
            // already holds whatever seeding survived, so this (and the
            // install above) must not run again.
            for idx in 0..self.plan.events.len() {
                let at = self.plan.events[idx].at;
                self.push_ev(at, Ev::Disruption { idx });
            }
            if let Some(every) = self.cfg.validate_every {
                self.push_ev(every, Ev::Validate);
            }
            self.initial_checkpoint(scheme);
        }
    }

    /// Consumes one unit of sequential work — the earliest of the next
    /// queued event and the next pending arrival, both gated by the
    /// watermark — or reports why it could not.
    pub(crate) fn step_once(&mut self, scheme: &mut dyn DispatchScheme) -> StepOutcome {
        self.maybe_checkpoint(scheme);
        if let Some(step) = self.storage_fault {
            // The strict durability policy armed the flag (possibly in
            // the checkpoint just attempted): stop at this boundary.
            return StepOutcome::StorageFault { step };
        }
        let t_req = if self.next_arrival < self.requests.len() {
            self.requests.get(RequestId(self.next_arrival as u32)).release_time
        } else {
            f64::INFINITY
        };
        let t_ev = self.heap.peek().map(|Reverse(e)| e.time).unwrap_or(f64::INFINITY);
        if !t_req.is_finite() && !t_ev.is_finite() {
            // No pending work at all. In streaming mode that is merely
            // idle until the stream closes and lifts the watermark to +∞.
            return if self.watermark == f64::INFINITY {
                StepOutcome::Done
            } else {
                StepOutcome::Idle
            };
        }
        if t_ev <= t_req.min(self.watermark) {
            let Reverse(q) = self.heap.pop().expect("peeked");
            self.clock = self.clock.max(q.time);
            self.sync_metric(q.time, scheme);
            let kind = if q.ev == Ev::Validate {
                // Handled here rather than in `process_event`: the
                // re-arm decision needs to know whether any work
                // remains, or the sweep would keep the run alive
                // forever. A finite watermark counts as pending work:
                // the stream is still open and more can arrive.
                for check in audit::sweep(&self.view(&*scheme)) {
                    self.invariant_violations += 1;
                    self.obs.emit(Event::InvariantViolation { t: q.time, check });
                }
                if let Some(every) = self.cfg.validate_every {
                    if !self.heap.is_empty() || t_req.is_finite() || self.watermark.is_finite() {
                        self.push_ev(q.time + every, Ev::Validate);
                    }
                }
                checkpoint::KIND_VALIDATE
            } else {
                self.process_event(q, scheme);
                checkpoint::KIND_HEAP
            };
            if self.complete_step(kind, q.time) {
                return self.stop_outcome();
            }
        } else if t_req.is_finite() {
            // An ingested request's release never exceeds the watermark,
            // so this arrival is safe to process ahead of any event past
            // the gate.
            self.clock = self.clock.max(t_req);
            self.sync_metric(t_req, scheme);
            let id = RequestId(self.next_arrival as u32);
            self.next_arrival += 1;
            self.process_arrival(id, scheme);
            if self.complete_step(checkpoint::KIND_ARRIVAL, t_req) {
                return self.stop_outcome();
            }
        } else {
            // The earliest queued event sits beyond the watermark and no
            // arrival is pending: a not-yet-ingested request could still
            // be released first, so the loop must wait for the stream.
            return StepOutcome::Idle;
        }
        StepOutcome::Progressed
    }

    /// The terminal outcome after [`Simulator::complete_step`] said the
    /// run must stop: a storage fault if the strict durability policy
    /// armed one, otherwise the planned crash.
    fn stop_outcome(&self) -> StepOutcome {
        match self.storage_fault {
            Some(step) => StepOutcome::StorageFault { step },
            None => StepOutcome::Crashed { step: self.step },
        }
    }

    /// The one place a traffic shift acts, before each work unit: a shift
    /// starts at its own disruption event and ends at the first work unit
    /// past it. On a change it announces each shift that opens, installs
    /// the new metric and re-times every committed route on it
    /// ([`Simulator::retime_routes`]).
    fn sync_metric(&mut self, t: Time, scheme: &mut dyn DispatchScheme) {
        let active = self.active_shifts(t);
        if active == self.metric_shifts {
            return;
        }
        for &(_, spec) in active.iter().filter(|s| !self.metric_shifts.contains(s)) {
            self.obs.emit(Event::TrafficShift {
                t,
                node: spec.center.0,
                radius_m: spec.radius_m,
                factor: spec.factor,
                duration_s: spec.duration_s,
            });
        }
        let was = self.cache.graph();
        self.install_metric(active);
        self.retime_routes(t, &was, scheme);
        // A faster metric shortens `cost(o, d)` and a renegotiated deadline
        // lengthens a budget: both widen the radii of the pins held.
        self.rehold(t);
    }

    /// The plan's traffic shifts active at `t`, with their plan indices.
    fn active_shifts(&self, t: Time) -> Vec<(usize, TrafficShiftSpec)> {
        self.plan.shifts().filter(|(_, s)| s.active_at(t)).collect()
    }

    /// Makes the base graph under the traffic shifts `active` the routing
    /// metric (re-customize, re-target the pins); routes are left alone.
    fn install_metric(&mut self, active: Vec<(usize, TrafficShiftSpec)>) {
        let live = if active.is_empty() {
            self.graph.clone()
        } else {
            let specs: Vec<TrafficShiftSpec> = active.iter().map(|&(_, s)| s).collect();
            let g = apply_traffic_shifts(&self.graph, &specs)
                .expect("traffic shift preserves graph validity");
            Arc::new(g)
        };
        let span = self.obs.stage(Stage::Customize);
        self.cache.recustomize(live);
        drop(span);
        let span = self.obs.stage(Stage::OraclePin);
        self.oracle.retarget();
        drop(span);
        self.metric_shifts = active;
    }

    // --- streaming ingestion (service mode; see `crate::engine`) ---

    /// Appends one stream entry to the request store with the next dense
    /// id, recomputing its direct cost, and raises the watermark to its
    /// release time. `doom` marks the entry admission-rejected: it still
    /// consumes its arrival step, where the rejection is emitted. An
    /// unreachable (or zero-cost) OD dooms the entry on its own — the
    /// one-shot generator filters those out at materialization, but a
    /// live feed can carry anything.
    pub(crate) fn ingest_request(
        &mut self,
        entry: crate::engine::IngestEntry,
        doom: Option<RejectReason>,
    ) -> RequestId {
        debug_assert!(self.streaming, "ingest into a one-shot simulator");
        let id = RequestId(self.requests.len() as u32);
        let mut doom = doom;
        let direct_cost_s = match self.cache.cost(entry.origin, entry.destination) {
            Some(c) if c > 0.0 => c,
            _ => {
                doom = doom.or(Some(RejectReason::UnreachableOd));
                0.0
            }
        };
        self.requests.push(RideRequest {
            id,
            release_time: entry.release,
            origin: entry.origin,
            destination: entry.destination,
            passengers: entry.passengers,
            deadline: entry.deadline,
            direct_cost_s,
            offline: entry.offline,
        });
        self.resolved.push(false);
        if let Some(reason) = doom {
            self.doomed.insert(id, reason);
        }
        self.watermark = self.watermark.max(entry.release);
        id
    }

    /// Declares the stream exhausted: lifts the watermark to +∞ so the
    /// loop can run everything still pending down to [`StepOutcome::Done`].
    pub(crate) fn close_stream(&mut self) {
        self.watermark = f64::INFINITY;
    }

    /// Latest simulation time processed.
    pub(crate) fn clock(&self) -> Time {
        self.clock
    }

    /// Sequential-work step counter (the WAL position).
    pub(crate) fn step_count(&self) -> u64 {
        self.step
    }

    /// Step at which the strict durability policy stopped the run, if a
    /// storage fault fired.
    pub(crate) fn storage_fault(&self) -> Option<u64> {
        self.storage_fault
    }

    /// Requests in the store — in streaming mode, exactly the entries
    /// ingested so far (restored ones included after a resume).
    pub(crate) fn n_ingested(&self) -> usize {
        self.requests.len()
    }

    /// Whether [`Simulator::begin`] restored a snapshot.
    pub(crate) fn was_resumed(&self) -> bool {
        self.was_resumed
    }

    /// Classifies and emits a rejection event (enabled-telemetry only:
    /// classification probes the path cache, which the accept path never
    /// pays for).
    fn emit_reject(&self, req: &RideRequest, now: Time) {
        if !self.obs.is_enabled() {
            return;
        }
        let reason = classify_rejection(req, &self.world());
        self.obs.emit(Event::Reject { t: now, req: req.id.0, reason });
    }

    fn process_arrival(&mut self, id: RequestId, scheme: &mut dyn DispatchScheme) {
        let req = self.requests.get(id).clone();
        self.obs.emit(Event::Arrival { t: req.release_time, req: req.id.0, offline: req.offline });
        if let Some(reason) = self.doomed.remove(&id) {
            // Admission-rejected stream entry: it consumed its arrival
            // step like any other request, and the rejection lands here —
            // at release time — so the trace stays monotone.
            self.reject_with(id, req.release_time, reason);
            return;
        }
        if self.cancelled_pre_release.remove(&id) {
            // Withdrawn before release: terminal on arrival, no dispatch.
            self.reject_with(id, req.release_time, RejectReason::CancelledByPassenger);
            return;
        }
        if req.offline {
            self.register_offline(&req);
        } else if let Some(window_s) = self.cfg.batch.as_ref().map(|b| b.window_s) {
            // Batch mode: buffer the arrival; the whole window is matched
            // at the flush. The first member of a window arms its flush —
            // the invariant is one pending flush iff the window is
            // non-empty, so an arrival can never arm a second one.
            if self.window.is_empty() {
                self.push_ev(req.release_time + window_s, Ev::BatchFlush);
            }
            self.window.push((id, 0));
        } else {
            self.try_dispatch(&req, req.release_time, None, true, scheme);
        }
    }

    /// Runs a (timed) dispatch and commits on success. Returns success.
    ///
    /// `account_reject` controls whether an online failure is terminal
    /// (counted + classified); recovery re-dispatch attempts pass `false`
    /// and do their own retry/exhaustion accounting.
    fn try_dispatch(
        &mut self,
        req: &RideRequest,
        now: Time,
        encountered_by: Option<TaxiId>,
        account_reject: bool,
        scheme: &mut dyn DispatchScheme,
    ) -> bool {
        // Pin before the timer starts: the paper's response times assume
        // the shortest-path cache is already resident (Sec. V-A4), so the
        // per-request vector precomputation is infrastructure, not
        // matching latency. The exclusion applies uniformly to all schemes.
        self.hold_for_dispatch(req, now);
        let t0 = std::time::Instant::now();
        let out = {
            let world = self.world();
            match encountered_by {
                Some(t) => scheme.dispatch_offline(req, t, now, &world),
                None => scheme.dispatch(req, now, &world),
            }
        };
        let elapsed = t0.elapsed().as_secs_f64();
        self.response_ms.push(elapsed * 1000.0);
        self.obs.record_response_s(elapsed);
        self.candidates.push(out.candidates_examined as f64);
        self.obs.emit(Event::Dispatch {
            t: now,
            req: req.id.0,
            candidates: out.candidates_examined as u32,
            feasible: out.feasible_instances as u32,
        });
        match out.assignment {
            Some(a) => {
                self.commit(req, a, now, scheme);
                true
            }
            None => {
                self.release(req);
                if encountered_by.is_none() && account_reject {
                    self.rejected += 1;
                    self.resolved[req.id.index()] = true;
                    self.emit_reject(req, now);
                }
                false
            }
        }
    }

    /// Terminally rejects `id` with an explicit (chaos-path) reason.
    fn reject_with(&mut self, id: RequestId, now: Time, reason: RejectReason) {
        self.rejected += 1;
        self.resolved[id.index()] = true;
        if reason == RejectReason::CancelledByPassenger {
            self.cancelled += 1;
        }
        self.obs.emit(Event::Reject { t: now, req: id.0, reason });
    }

    fn commit(
        &mut self,
        req: &RideRequest,
        a: mtshare_model::Assignment,
        now: Time,
        scheme: &mut dyn DispatchScheme,
    ) {
        let _span = self.obs.stage(Stage::Commit);
        self.obs.emit(Event::Commit {
            t: now,
            req: req.id.0,
            taxi: a.taxi.0,
            detour_s: a.detour_cost_s,
            schedule_len: a.schedule.len() as u32,
        });
        let taxi = &mut self.taxis[a.taxi.index()];
        let pos = taxi.position_at(now);
        taxi.location = pos;
        taxi.location_time = now;
        taxi.assigned.push(req.id);
        let route = TimedRoute::build_on(&self.cache.graph(), pos, now, &a.legs, &a.schedule);
        taxi.set_plan(a.schedule, route, now);
        self.arm_route(a.taxi);
        scheme.after_assign(&self.taxis[a.taxi.index()], &self.world());

        // New route may pass pending offline requests.
        self.scan_route_for_offline(a.taxi, now);
    }

    /// Refills the future-node map encounter detection reads from taxi
    /// `i`'s current route (first arrival per node).
    fn refill_route_nodes(&mut self, i: usize) {
        let map = &mut self.route_nodes[i];
        map.clear();
        if let Some(route) = &self.taxis[i].route {
            for (n, t) in route.nodes.iter().zip(&route.arrival_s) {
                map.entry(n.0).or_insert(*t);
            }
        }
    }

    /// After `taxi_id`'s plan changed: refreshes its encounter map and
    /// queues its next schedule event under the current route version.
    fn arm_route(&mut self, taxi_id: TaxiId) {
        let i = taxi_id.index();
        self.refill_route_nodes(i);
        let version = self.taxis[i].route_version;
        if let Some(t) = self.taxis[i].next_event_time() {
            self.push_ev(t, Ev::Taxi { taxi: taxi_id, version });
        }
    }

    /// Pushes encounter events for pending offline requests on this
    /// taxi's future route.
    fn scan_route_for_offline(&mut self, taxi: TaxiId, now: Time) {
        if self.pending_offline.is_empty() {
            return;
        }
        let version = self.taxis[taxi.index()].route_version;
        let mut hits: Vec<(Time, RequestId)> = Vec::new();
        for (&node, reqs) in &self.offline_watch {
            if let Some(&t) = self.route_nodes[taxi.index()].get(&node) {
                if t >= now {
                    for &r in reqs {
                        if self.pending_offline.contains(&r) {
                            hits.push((t, r));
                        }
                    }
                }
            }
        }
        // The watch table iterates in hash order; sort before queueing so
        // the `seq` numbers handed out are a function of world state, not
        // of container history (a rebuilt-after-restore map would
        // otherwise order same-time encounters differently).
        hits.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (t, r) in hits {
            let req = self.requests.get(r);
            if t <= req.pickup_deadline() && t >= req.release_time {
                self.push_ev(t, Ev::Encounter { taxi, request: r, version });
            }
        }
    }

    fn register_offline(&mut self, req: &RideRequest) {
        let origin_pt = self.graph.point(req.origin);
        let nodes = self.spatial.nodes_within(&self.graph, &origin_pt, ENCOUNTER_RADIUS_M);
        self.pending_offline.insert(req.id);
        let mut watched = Vec::with_capacity(nodes.len());
        for n in nodes {
            self.offline_watch.entry(n.0).or_default().push(req.id);
            watched.push(n.0);
        }
        self.watched_nodes.insert(req.id, watched);

        // Current fleet: parked taxis at the spot and busy taxis whose
        // committed routes will pass by.
        let now = req.release_time;
        for i in 0..self.taxis.len() {
            let taxi = &self.taxis[i];
            if !taxi.alive {
                continue; // a dead taxi is parked but never encounters
            }
            let id = taxi.id;
            let version = taxi.route_version;
            if taxi.route.is_none() {
                let pos = taxi.position_at(now);
                if self.graph.point(pos).distance_m(&origin_pt) <= ENCOUNTER_RADIUS_M {
                    self.push_ev(now, Ev::Encounter { taxi: id, request: req.id, version });
                }
            } else {
                let mut earliest: Option<Time> = None;
                for n in self.watched_nodes[&req.id].iter() {
                    if let Some(&t) = self.route_nodes[i].get(n) {
                        if t >= now && earliest.is_none_or(|e| t < e) {
                            earliest = Some(t);
                        }
                    }
                }
                if let Some(t) = earliest {
                    if t <= req.pickup_deadline() {
                        self.push_ev(t, Ev::Encounter { taxi: id, request: req.id, version });
                    }
                }
            }
        }
    }

    fn drop_offline_watch(&mut self, id: RequestId) {
        self.pending_offline.remove(&id);
        self.drop_offline_watch_only(id);
    }

    fn process_event(&mut self, q: QueuedEv, scheme: &mut dyn DispatchScheme) {
        match q.ev {
            Ev::Taxi { taxi, version } => self.process_taxi_event(q.time, taxi, version, scheme),
            Ev::Encounter { taxi, request, version } => {
                self.process_encounter(q.time, taxi, request, version, scheme)
            }
            Ev::Disruption { idx } => self.process_disruption(q.time, idx, scheme),
            Ev::Redispatch { request, attempt } => {
                self.process_redispatch(q.time, request, attempt, scheme)
            }
            Ev::BatchFlush => self.process_batch_flush(q.time, scheme),
            Ev::Validate => unreachable!("Validate is handled in the run loop"),
        }
    }

    fn process_taxi_event(
        &mut self,
        t: Time,
        taxi_id: TaxiId,
        version: u64,
        scheme: &mut dyn DispatchScheme,
    ) {
        {
            let taxi = &self.taxis[taxi_id.index()];
            if !taxi.alive || taxi.route_version != version || taxi.schedule.is_empty() {
                return; // superseded plan (or the taxi died: `fail` bumps
                        // the version, the alive check is belt and braces)
            }
        }
        let (ev, next_time) = {
            let taxi = &mut self.taxis[taxi_id.index()];
            let ev = taxi.complete_next_event(t);
            (ev, taxi.next_event_time())
        };
        let req = self.requests.get(ev.request).clone();
        match ev.kind {
            EventKind::Pickup => {
                self.waiting_s.push(t - req.release_time);
                self.obs.emit(Event::Pickup {
                    t,
                    req: req.id.0,
                    taxi: taxi_id.0,
                    wait_s: t - req.release_time,
                });
                self.pickup_time.insert(req.id, t);
                let ep = &mut self.episodes[taxi_id.index()];
                if ep.onboard_since.is_none() {
                    ep.onboard_since = Some(t);
                }
            }
            EventKind::Dropoff => {
                let picked = self.pickup_time.remove(&req.id).unwrap_or(req.release_time);
                let shared = t - picked;
                self.detour_s.push((shared - req.direct_cost_s).max(0.0));
                self.obs.emit(Event::Dropoff {
                    t,
                    req: req.id.0,
                    taxi: taxi_id.0,
                    detour_s: (shared - req.direct_cost_s).max(0.0),
                });
                if req.offline {
                    self.served_offline += 1;
                } else {
                    self.served_online += 1;
                }
                self.resolved[req.id.index()] = true;
                self.served_records.push(ServedRecord {
                    request: req.id.0,
                    taxi: taxi_id.0,
                    pickup_t: picked,
                    dropoff_t: t,
                });
                self.release(&req);
                let taxi = &self.taxis[taxi_id.index()];
                let ep = &mut self.episodes[taxi_id.index()];
                ep.trips.push(PassengerTrip {
                    request: req.id,
                    shared_cost_s: shared,
                    direct_cost_s: req.direct_cost_s,
                });
                if taxi.onboard.is_empty() {
                    if let Some(since) = ep.onboard_since.take() {
                        ep.onboard_cost_s += t - since;
                    }
                    if taxi.is_vacant() {
                        self.settle_taxi(taxi_id);
                    }
                }
            }
        }
        if let Some(nt) = next_time {
            self.push_ev(nt, Ev::Taxi { taxi: taxi_id, version });
        }
        scheme.on_taxi_progress(&self.taxis[taxi_id.index()], t, &self.world());
    }

    fn process_encounter(
        &mut self,
        t: Time,
        taxi_id: TaxiId,
        request: RequestId,
        version: u64,
        scheme: &mut dyn DispatchScheme,
    ) {
        if !self.pending_offline.contains(&request) {
            return;
        }
        let req = self.requests.get(request).clone();
        if t > req.pickup_deadline() {
            self.drop_offline_watch(request);
            self.rejected += 1;
            self.resolved[request.index()] = true;
            self.obs.emit(Event::Reject { t, req: req.id.0, reason: RejectReason::OfflineExpired });
            return;
        }
        {
            let taxi = &self.taxis[taxi_id.index()];
            if !taxi.alive || taxi.route_version != version {
                return; // route changed (or the taxi broke down); a rescan
                        // already queued any events that still apply
            }
            // The encountering taxi needs an idle seat to stop at all.
            if taxi.idle_seats(&self.requests) < req.passengers as u32 {
                return;
            }
        }
        // Driver reports the request; the server matches it (possibly to
        // another taxi).
        self.obs.emit(Event::Encounter { t, req: req.id.0, taxi: taxi_id.0 });
        self.pending_offline.remove(&request);
        if self.try_dispatch(&req, t, Some(taxi_id), true, scheme) {
            self.drop_offline_watch_only(request);
        } else {
            // Stays pending for future encounters.
            self.pending_offline.insert(request);
        }
    }

    fn drop_offline_watch_only(&mut self, id: RequestId) {
        if let Some(nodes) = self.watched_nodes.remove(&id) {
            for n in nodes {
                if let Some(v) = self.offline_watch.get_mut(&n) {
                    v.retain(|&r| r != id);
                    if v.is_empty() {
                        self.offline_watch.remove(&n);
                    }
                }
            }
        }
    }

    /// The world as the auditor reads it between steps.
    pub(crate) fn view<'a>(&'a self, scheme: &dyn DispatchScheme) -> AuditView<'a> {
        AuditView {
            graph: &self.graph,
            taxis: &self.taxis,
            requests: &self.requests,
            resolved: &self.resolved,
            indexed: scheme.indexed_taxis(),
            plan: &self.plan,
            outcomes: self.served_online + self.served_offline + self.rejected,
        }
    }

    fn settle_taxi(&mut self, taxi: TaxiId) {
        let ep = std::mem::take(&mut self.episodes[taxi.index()]);
        if ep.trips.is_empty() {
            return;
        }
        let s = settle_episode(&ep.trips, ep.onboard_cost_s, &PaymentConfig::default());
        self.fares_paid += s.fares.iter().map(|(_, f)| f).sum::<f64>();
        self.fares_solo += s.no_share_total;
        self.driver_income += s.driver_income;
        self.benefit += s.benefit;
    }

    pub(crate) fn finish(
        mut self,
        scheme: &mut dyn DispatchScheme,
        wall_clock_s: f64,
    ) -> SimReport {
        // Settle episodes still open at the horizon (all deliveries done —
        // the heap drained — so only bookkeeping remains).
        for i in 0..self.taxis.len() {
            self.settle_taxi(TaxiId(i as u32));
        }
        // Offline requests never served count as rejected. The pending
        // set iterates in hash order, so sort by id before emitting —
        // the event stream must not depend on FxHashSet iteration.
        let mut expired_ids: Vec<RequestId> = self.pending_offline.iter().copied().collect();
        expired_ids.sort_unstable();
        let expired = expired_ids.len();
        self.rejected += expired;
        // Stamp with the run horizon (never earlier than any emitted
        // event) so the stream stays monotone in sim time.
        let horizon = expired_ids
            .iter()
            .map(|&id| self.requests.get(id).pickup_deadline())
            .fold(self.clock, f64::max);
        for id in expired_ids {
            self.resolved[id.index()] = true;
            self.obs.emit(Event::Reject {
                t: horizon,
                req: id.0,
                reason: RejectReason::OfflineExpired,
            });
        }

        let n_offline = self.requests.iter().filter(|r| r.offline).count();

        if self.obs.is_enabled() {
            self.obs.set_run_info(RunInfo {
                scheme: scheme.name().to_string(),
                n_taxis: self.taxis.len(),
                n_requests: self.requests.len(),
                n_offline,
            });
            // End-of-run totals of the shared structures, one `profiling`
            // block each, named as in its row of `obs::schema::BLOCKS`.
            let obs = &self.obs;
            let cs = self.cache.stats();
            obs.add(
                "path_cache",
                &[("hits", cs.hits), ("misses", cs.misses), ("evictions", cs.evictions)],
            );
            let os = self.oracle.stats();
            obs.add(
                "oracle",
                &[
                    ("vector_hits", os.vector_hits),
                    ("searches", os.searches),
                    ("pin_computes", os.pin_computes),
                    ("regrows", os.regrows),
                    ("evictions", os.evictions),
                    ("settled", os.settled),
                    ("resident_peak", os.resident_peak),
                ],
            );
            obs.set_process(wall_clock_s, peak_rss_mb());
            if let Some(h) = self.cache.hierarchy() {
                let ch = h.stats();
                obs.add(
                    "ch",
                    &[
                        ("p2p_queries", ch.p2p_queries),
                        ("bucket_sweeps", ch.bucket_sweeps),
                        ("bucket_sources", ch.bucket_sources),
                        ("shortcuts", h.shortcut_count()),
                    ],
                );
            }
            if let Some(h) = self.cache.customizable() {
                let cch = h.stats();
                obs.add(
                    "cch",
                    &[
                        ("p2p_queries", cch.p2p_queries),
                        ("bucket_sweeps", cch.bucket_sweeps),
                        ("bucket_sources", cch.bucket_sources),
                        ("customizations", cch.customizations),
                        ("fill_arcs", h.fill_arc_count()),
                    ],
                );
            }
            obs.add("dtree", &scheme.scheduler_stats().counters());
            self.obs.flush();
        }

        SimReport {
            scheme: scheme.name().to_string(),
            n_taxis: self.taxis.len(),
            n_requests: self.requests.len(),
            n_offline,
            served: self.served_online + self.served_offline,
            served_online: self.served_online,
            served_offline: self.served_offline,
            rejected: self.rejected,
            cancelled: self.cancelled,
            redispatched: self.redispatched,
            invariant_violations: self.invariant_violations,
            avg_response_ms: self.response_ms.mean(),
            p95_response_ms: self.response_ms.quantile(0.95),
            avg_detour_min: self.detour_s.mean() / 60.0,
            avg_waiting_min: self.waiting_s.mean() / 60.0,
            p95_waiting_min: self.waiting_s.quantile(0.95) / 60.0,
            avg_candidates: self.candidates.mean(),
            total_passenger_fares: self.fares_paid,
            total_solo_fares: self.fares_solo,
            total_driver_income: self.driver_income,
            total_benefit: self.benefit,
            index_memory_bytes: scheme.index_memory_bytes(),
            shared_memory_bytes: self.oracle.memory_bytes()
                + self.cache.memory_bytes()
                + self.cache.hierarchy().map(|h| h.memory_bytes()).unwrap_or(0)
                + self.cache.customizable().map(|h| h.memory_bytes()).unwrap_or(0),
            wall_clock_s,
            served_records: self.served_records,
        }
    }
}

/// Refuses traffic shifts on a router that cannot re-customize (plain ch).
fn assert_followable(plan: &DisruptionPlan, cache: &PathCache) {
    assert!(
        plan.shifts().next().is_none() || cache.is_recustomizable(),
        "traffic shifts need a router that re-customizes its metric (bidir or cch): \
         plain ch cannot follow them"
    );
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is absent.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_context, Scenario, ScenarioConfig, SchemeKind};
    use mtshare_core::PartitionStrategy;
    use mtshare_road::{grid_city, GridCityConfig, NodeId};

    fn run_kind(kind: SchemeKind, scenario_cfg: ScenarioConfig) -> SimReport {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let scenario = Scenario::generate(graph.clone(), &cache, scenario_cfg);
        let ctx = kind
            .needs_context()
            .then(|| build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite));
        let mut scheme = kind.build(&graph, scenario.taxis.len(), ctx, None);
        let sim = Simulator::new(graph, cache, &scenario, SimConfig::default());
        sim.run(scheme.as_mut())
    }

    #[test]
    fn no_sharing_serves_and_accounts() {
        let r = run_kind(SchemeKind::NoSharing, ScenarioConfig::peak(12));
        assert!(r.served > 0, "{r:?}");
        assert_eq!(r.served + r.rejected, r.n_requests, "{r:?}");
        assert_eq!(r.served, r.served_online);
        // No sharing ⇒ no detour and no benefit.
        assert!(r.avg_detour_min < 0.2, "{r:?}");
        assert!(r.total_benefit.abs() < 1e-6);
        // Riders pay exactly solo fares.
        assert!((r.total_passenger_fares - r.total_solo_fares).abs() < 1e-6);
    }

    #[test]
    fn mtshare_serves_more_than_no_sharing_in_peak() {
        let ns = run_kind(SchemeKind::NoSharing, ScenarioConfig::peak(12));
        let mt = run_kind(SchemeKind::MtShare, ScenarioConfig::peak(12));
        assert!(mt.served > ns.served, "mT-Share {} vs No-Sharing {}", mt.served, ns.served);
    }

    #[test]
    fn deliveries_meet_deadlines() {
        // The accounting invariant: a served request implies its dropoff
        // occurred before its deadline; the simulator enforces this via
        // schedule feasibility. Spot-check by re-running with T-Share.
        let r = run_kind(SchemeKind::TShare, ScenarioConfig::peak(10));
        assert!(r.served > 0);
        assert!(r.avg_waiting_min >= 0.0 && r.avg_detour_min >= 0.0);
        assert!(r.avg_response_ms > 0.0);
    }

    #[test]
    fn nonpeak_offline_requests_get_served_by_mtshare_pro() {
        let r = run_kind(SchemeKind::MtSharePro, ScenarioConfig::nonpeak(16));
        assert!(r.n_offline > 0);
        assert!(r.served_offline > 0, "{r:?}");
        assert_eq!(r.served + r.rejected, r.n_requests, "{r:?}");
    }

    #[test]
    fn zero_slack_scenario_rejects_everything_gracefully() {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let mut cfg = ScenarioConfig::peak(6);
        cfg.rho = 1.0; // deadline == release + direct: nothing is servable
        let scenario = Scenario::generate(graph.clone(), &cache, cfg);
        let mut scheme = SchemeKind::NoSharing.build(&graph, scenario.taxis.len(), None, None);
        let sim = Simulator::new(graph, cache, &scenario, SimConfig::default());
        let r = sim.run(scheme.as_mut());
        assert_eq!(r.served, 0, "{r:?}");
        assert_eq!(r.rejected, r.n_requests);
        assert_eq!(r.avg_detour_min, 0.0);
    }

    #[test]
    fn replanning_midroute_preserves_first_passenger() {
        // With one taxi and two sequential aligned requests, the second
        // dispatch replans the route mid-flight; the audit must show both
        // riders delivered within their deadlines (version-guarded events
        // must not double-fire).
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let mut cfg = ScenarioConfig::peak(1);
        cfg.n_requests = 6;
        cfg.rho = 2.0;
        let scenario = Scenario::generate(graph.clone(), &cache, cfg);
        let ctx = crate::scenario::build_context(
            &graph,
            &scenario.historical,
            8,
            mtshare_core::PartitionStrategy::Bipartite,
        );
        let mut scheme = SchemeKind::MtShare.build(&graph, 1, Some(ctx), None);
        let sim = Simulator::new(graph, cache, &scenario, SimConfig::default());
        let r = sim.run(scheme.as_mut());
        assert!(r.served >= 1);
        // No duplicate deliveries.
        let mut ids: Vec<u32> = r.served_records.iter().map(|s| s.request).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
        for rec in &r.served_records {
            let req = &scenario.requests[rec.request as usize];
            assert!(rec.dropoff_t <= req.deadline + 1e-3);
        }
    }

    #[test]
    fn payment_is_conservative() {
        let r = run_kind(SchemeKind::MtShare, ScenarioConfig::peak(12));
        // Riders collectively never pay more than solo.
        assert!(r.total_passenger_fares <= r.total_solo_fares + 1e-6, "{r:?}");
        // Conservation: rider payments equal driver income.
        assert!((r.total_passenger_fares - r.total_driver_income).abs() < 1e-6, "{r:?}");
        assert!(r.fare_saving_pct() >= 0.0);
    }

    // ---- disruption injection & recovery ----

    use mtshare_chaos::{Disruption, TimedDisruption};
    use mtshare_obs::MemorySink;

    pub(super) fn tiny_city() -> (Arc<RoadNetwork>, PathCache) {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        (graph, cache)
    }

    pub(super) fn chaos_request(
        id: u32,
        od: (u32, u32),
        release: f64,
        direct: f64,
        deadline: f64,
    ) -> RideRequest {
        RideRequest {
            id: RequestId(id),
            release_time: release,
            origin: NodeId(od.0),
            destination: NodeId(od.1),
            passengers: 1,
            deadline,
            direct_cost_s: direct,
            offline: false,
        }
    }

    fn at(t: f64, disruption: Disruption) -> TimedDisruption {
        TimedDisruption { at: t, disruption }
    }

    /// Hand-built scenario + hand-built disruption plan under No-Sharing,
    /// with the invariant checker armed. Returns the report and the trace.
    fn run_with_plan(
        graph: Arc<RoadNetwork>,
        cache: PathCache,
        taxis: Vec<Taxi>,
        requests: Vec<RideRequest>,
        plan: DisruptionPlan,
    ) -> (SimReport, String) {
        let scenario = Scenario {
            config: ScenarioConfig::peak(taxis.len().max(1)),
            historical: Vec::new(),
            requests,
            taxis,
        };
        let mut scheme = SchemeKind::NoSharing.build(&graph, scenario.taxis.len(), None, None);
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        let cfg = SimConfig { validate_every: Some(30.0), ..SimConfig::default() };
        let report = Simulator::new(graph, cache, &scenario, cfg)
            .with_obs(obs.clone())
            .with_disruptions(plan)
            .run(scheme.as_mut());
        let trace = buf.borrow().clone();
        (report, trace)
    }

    #[test]
    fn cch_backend_recustomizes_at_shift_open_and_close() {
        use mtshare_routing::{CustomizableCh, RouterBackend};
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let base = PathCache::new(graph.clone());
        let direct_a = base.cost(NodeId(0), NodeId(399)).unwrap();
        let direct_b = base.cost(NodeId(19), NodeId(380)).unwrap();
        // A city-wide 3× slowdown opens at t=5 and closes at t=100.25,
        // *between* the two arrivals: the first must be scored on the
        // shifted metric, the second on the restored base one. The close
        // is not a heap event; `sync_metric` runs before every work unit.
        let spec = TrafficShiftSpec {
            center: NodeId(210),
            radius_m: 1e7,
            factor: 3.0,
            start_s: 5.0,
            duration_s: 95.25,
        };
        let plan = DisruptionPlan { events: vec![at(5.0, Disruption::TrafficShift(spec))] };
        let cch = Arc::new(CustomizableCh::build(&graph));
        let cache = PathCache::with_backend(graph.clone(), RouterBackend::Cch(cch.clone()));
        let scenario = Scenario {
            config: ScenarioConfig::peak(2),
            historical: Vec::new(),
            requests: vec![
                chaos_request(0, (0, 399), 100.0, direct_a, 100.0 + direct_a * 8.0),
                chaos_request(1, (19, 380), 100.5, direct_b, 100.5 + direct_b * 8.0),
            ],
            taxis: vec![Taxi::new(TaxiId(0), 4, NodeId(0)), Taxi::new(TaxiId(1), 4, NodeId(19))],
        };
        let mut scheme = SchemeKind::NoSharing.build(&graph, 2, None, None);
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        let r = Simulator::new(graph.clone(), cache, &scenario, SimConfig::default())
            .with_obs(obs.clone())
            .with_disruptions(plan)
            .run(scheme.as_mut());
        let trace = buf.borrow().clone();
        assert_eq!((r.served, r.rejected, r.invariant_violations), (2, 0, 0), "{trace}");
        // Base build + shift open + shift close (restore) = 3 customizations,
        // ending on metric generation 2.
        assert_eq!(cch.stats().customizations, 3);
        assert_eq!(cch.generation(), 2);
    }

    #[test]
    #[should_panic(expected = "plain ch cannot follow them")]
    fn plain_ch_refuses_traffic_shifts() {
        use mtshare_routing::{ContractionHierarchy, RouterBackend};
        let (graph, _) = tiny_city();
        let ch = RouterBackend::Ch(Arc::new(ContractionHierarchy::build(&graph, 1)));
        let cache = PathCache::with_backend(graph.clone(), ch);
        let scenario = Scenario {
            config: ScenarioConfig::peak(1),
            historical: Vec::new(),
            requests: Vec::new(),
            taxis: vec![Taxi::new(TaxiId(0), 4, NodeId(0))],
        };
        let cfg = SimConfig { chaos: Some(ChaosConfig::with_seed(3)), ..SimConfig::default() };
        let _ = Simulator::new(graph, cache, &scenario, cfg);
    }

    #[test]
    fn breakdown_without_survivors_rejects_rider_as_taxi_failed() {
        let (graph, cache) = tiny_city();
        let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
        let req = chaos_request(0, (0, 399), 0.0, direct, direct * 3.0);
        // The lone taxi starts at the origin, so the rider is onboard when
        // it breaks mid-trip; with nobody left alive the orphan must be
        // rejected as taxi_failed — never lost, never panicking.
        let plan = DisruptionPlan {
            events: vec![at(direct * 0.5, Disruption::Breakdown { taxi: TaxiId(0) })],
        };
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        let (r, trace) = run_with_plan(graph, cache, taxis, vec![req], plan);
        assert_eq!((r.served, r.rejected), (0, 1), "{r:?}");
        assert_eq!(r.invariant_violations, 0, "{trace}");
        assert!(
            trace.contains(r#""ev":"breakdown""#) && trace.contains(r#""orphans":1"#),
            "{trace}"
        );
        assert!(trace.contains(r#""reason":"taxi_failed""#), "{trace}");
    }

    #[test]
    fn breakdown_orphan_is_redispatched_to_a_survivor() {
        let (graph, cache) = tiny_city();
        let direct = cache.cost(NodeId(0), NodeId(15)).unwrap();
        let req = chaos_request(0, (0, 15), 0.0, direct, direct * 3.0 + 600.0);
        // Taxi 0 (nearest, 1 hop out) wins the dispatch, then breaks down
        // before the ~29 s pickup leg completes; the orphaned-but-waiting
        // rider must be re-dispatched onto taxi 1 after the retry delay.
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(1)), Taxi::new(TaxiId(1), 4, NodeId(2))];
        let plan =
            DisruptionPlan { events: vec![at(1.0, Disruption::Breakdown { taxi: TaxiId(0) })] };
        let (r, trace) = run_with_plan(graph, cache, taxis, vec![req], plan);
        assert_eq!((r.served, r.rejected), (1, 0), "{r:?}\n{trace}");
        assert_eq!(r.redispatched, 1, "{trace}");
        assert_eq!(r.invariant_violations, 0, "{trace}");
        assert!(
            trace.contains(r#""ev":"redispatch""#) && trace.contains(r#""ok":true"#),
            "{trace}"
        );
    }

    #[test]
    fn cancel_of_an_assigned_rider_repairs_the_plan() {
        let (graph, cache) = tiny_city();
        let direct = cache.cost(NodeId(0), NodeId(15)).unwrap();
        let pickup_eta = cache.cost(NodeId(105), NodeId(0)).unwrap();
        let req = chaos_request(0, (0, 15), 0.0, direct, pickup_eta + direct + 600.0);
        // Pickup is ~10 hops away, so the t = 2 s cancel lands while the
        // rider is assigned but not yet picked up.
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(105))];
        let plan =
            DisruptionPlan { events: vec![at(2.0, Disruption::Cancel { request: RequestId(0) })] };
        let (r, trace) = run_with_plan(graph, cache, taxis, vec![req], plan);
        assert_eq!((r.served, r.rejected, r.cancelled), (0, 1, 1), "{r:?}");
        assert_eq!(r.invariant_violations, 0, "{trace}");
        assert!(
            trace.contains(r#""ev":"cancel""#) && trace.contains(r#""assigned":true"#),
            "{trace}"
        );
        assert!(trace.contains(r#""reason":"cancelled_by_passenger""#), "{trace}");
    }

    #[test]
    fn cancel_before_release_rejects_on_arrival() {
        let (graph, cache) = tiny_city();
        let direct = cache.cost(NodeId(0), NodeId(15)).unwrap();
        let req = chaos_request(0, (0, 15), 30.0, direct, 30.0 + direct * 4.0);
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(1))];
        // The cancel fires before the request is even released; on arrival
        // the request must terminate immediately without a dispatch.
        let plan =
            DisruptionPlan { events: vec![at(1.0, Disruption::Cancel { request: RequestId(0) })] };
        let (r, trace) = run_with_plan(graph, cache, taxis, vec![req], plan);
        assert_eq!((r.served, r.rejected, r.cancelled), (0, 1, 1), "{r:?}");
        assert!(
            trace.contains(r#""ev":"cancel""#) && trace.contains(r#""assigned":false"#),
            "{trace}"
        );
        assert!(!trace.contains(r#""ev":"commit""#), "no dispatch for a cancelled rider:\n{trace}");
        assert!(trace.contains(r#""reason":"cancelled_by_passenger""#), "{trace}");
    }

    #[test]
    fn traffic_shift_retimes_routes_at_its_start_and_end() {
        let (graph, cache) = tiny_city();
        let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();
        let req = chaos_request(0, (0, 399), 0.0, direct, direct * 1.2);
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        // A city-wide 3× slowdown opens while the rider is on board. The
        // route re-timed on it reaches the drop-off far past the deadline,
        // which is renegotiated. The shift ends at t = 65; the validation
        // sweep at t = 90 is the first work unit past it, where the rest
        // of the route speeds up again.
        let spec = TrafficShiftSpec {
            center: NodeId(210),
            radius_m: 1e7,
            factor: 3.0,
            start_s: 5.0,
            duration_s: 60.0,
        };
        let plan = DisruptionPlan { events: vec![at(5.0, Disruption::TrafficShift(spec))] };
        let (r, trace) = run_with_plan(graph, cache, taxis, vec![req], plan);
        assert_eq!((r.served, r.rejected), (1, 0), "{r:?}\n{trace}");
        assert_eq!(r.invariant_violations, 0, "{trace}");
        let lines: Vec<&str> = trace.lines().collect();
        let at_5 = lines.iter().position(|l| l.contains(r#""ev":"traffic_shift""#)).unwrap();
        let reroutes: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].contains(r#""ev":"reroute""#)).collect();
        assert_eq!(reroutes.len(), 2, "{trace}");
        assert!(at_5 < reroutes[0], "the shift is announced before its reroute:\n{trace}");
        assert!(lines[reroutes[0]].contains(r#""t":5,"#), "{trace}");
        assert!(lines[reroutes[0]].contains(r#""renegotiated":1"#), "{trace}");
        assert!(lines[reroutes[1]].contains(r#""t":90"#), "{trace}");
        assert!(lines[reroutes[1]].contains(r#""renegotiated":0"#), "{trace}");
        // Slowed inside the window, on time again after it: 85 s at a third
        // of the speed cost about 57 s, plus the slowed hop under way at
        // t = 90, against the ≈ 3 × direct the re-timing at t = 5 foresaw.
        let dropoff = r.served_records[0].dropoff_t;
        assert!(dropoff > direct + 50.0 && dropoff < direct + 90.0, "{dropoff} vs {direct}");
    }

    #[test]
    fn seeded_chaos_on_generated_scenario_keeps_accounting() {
        // Satellite regression: a non-peak scenario exercises encounters
        // and offline watches against dead taxis; the accounting identity
        // and the runtime invariants must survive a full seeded mix.
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::nonpeak(10));
        let mut scheme = SchemeKind::TShare.build(&graph, scenario.taxis.len(), None, None);
        let cfg = SimConfig {
            chaos: Some(ChaosConfig::with_seed(11)),
            validate_every: Some(60.0),
            ..SimConfig::default()
        };
        let r = Simulator::new(graph, cache, &scenario, cfg).run(scheme.as_mut());
        assert_eq!(r.served + r.rejected, r.n_requests, "{r:?}");
        assert_eq!(r.invariant_violations, 0, "{r:?}");
    }

    #[test]
    fn batch_window_survives_checkpoint_crash_and_resume() {
        // A window much wider than the peak inter-arrival gap keeps the
        // window non-empty through the early steps, so the checkpoint at
        // step 16 and the crash at step 20 land mid-window: the snapshot
        // must carry the buffered members and the pending flush event, and
        // the resumed run must finish with the same outcomes as an
        // uninterrupted one.
        let dir = std::env::temp_dir().join(format!("mtshare-batchwin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let mut sc = ScenarioConfig::peak(8);
        sc.n_requests = 60;
        let scenario = Scenario::generate(graph.clone(), &cache, sc);
        let ctx = build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite);
        let batch = Some(BatchConfig { window_s: 60.0, max_retries: 2 });
        let build = || {
            SchemeKind::MtShareBatch.build(&graph, scenario.taxis.len(), Some(ctx.clone()), None)
        };
        let run = |persist: Option<PersistConfig>| {
            let cfg = SimConfig { batch: batch.clone(), persist, ..SimConfig::default() };
            let mut scheme = build();
            Simulator::new(graph.clone(), cache.clone(), &scenario, cfg)
                .run_to_outcome(scheme.as_mut())
        };

        let RunOutcome::Finished(full) = run(None) else { panic!("baseline must finish") };
        assert!(full.served > 0, "{full:?}");

        let mut pc = PersistConfig::new(dir.to_str().unwrap());
        pc.checkpoint_every = 8;
        pc.crash_at = Some(mtshare_chaos::CrashPoint::return_at(20));
        let outcome = run(Some(pc));
        assert!(matches!(outcome, RunOutcome::Crashed { step: 20 }), "{outcome:?}");

        let mut pc = PersistConfig::new(dir.to_str().unwrap());
        pc.checkpoint_every = 8;
        pc.resume = true;
        let RunOutcome::Finished(resumed) = run(Some(pc)) else { panic!("resume must finish") };

        assert_eq!(full.served, resumed.served);
        assert_eq!(full.rejected, resumed.rejected);
        assert_eq!(full.avg_detour_min, resumed.avg_detour_min);
        assert_eq!(full.avg_waiting_min, resumed.avg_waiting_min);
        assert_eq!(full.total_driver_income, resumed.total_driver_income);
        assert_eq!(full.served_records.len(), resumed.served_records.len());
        for (a, b) in full.served_records.iter().zip(&resumed.served_records) {
            assert_eq!((a.request, a.taxi), (b.request, b.taxi));
            assert_eq!((a.pickup_t, a.dropoff_t), (b.pickup_t, b.dropoff_t));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
