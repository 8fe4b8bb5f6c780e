//! The pluggable schedule-scoring engine behind `--scheduler dp|dtree`.
//!
//! The minimum-detour schemes (mT-Share, pGreedyDP, batch) score
//! candidate taxis through [`ScheduleEngine::best_insertion`]; T-Share and
//! NoSharing take the first valid instance instead
//! ([`crate::first_feasible`]) and hold no engine. Two engines exist:
//!
//! - [`DpEngine`] — the stateless per-request insertion DP
//!   (`crate::best_insertion`), re-enumerating every candidate schedule
//!   from scratch;
//! - [`DtreeEngine`] — per-taxi incremental dynamic trees
//!   (`mtshare-dtree`): committed spines with cached leg costs, synced
//!   to taxi plans by structural diff (advance / commit-splice /
//!   remove-splice / retime) and scored through memoized lookups.
//!
//! Both produce **bit-identical** results for every query — the dtree
//! scorer replicates the DP's control flow and floating-point operation
//! order exactly (property-tested in `tests/dtree_equivalence.rs`) — so
//! the engine choice affects only the profiling subtree of a run's
//! telemetry, never its trace.
//!
//! Both apply the reach bound ([`crate::reaches_pickup`]) first, on the
//! same lookup, so both rule out the same taxis ([`Scored::OutOfReach`])
//! before any DP or tree work, and both score through the oracle's
//! batched pinned reader: one borrow per taxi, every leg into a pinned
//! endpoint a direct vector read.

use crate::insertion::{insertion_dp, reaches_pickup, score_insertion, BestInsertion, Scored};
use crate::request::{RequestId, RideRequest};
use crate::schedule::{EventKind, ScheduleEvent};
use crate::taxi::Taxi;
use crate::{Time, World};
use mtshare_dtree::{DTree, Insertion, Probe, Stop};
use mtshare_obs::Stage;
use mtshare_road::NodeId;

/// Which scheduling engine scores insertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Per-request insertion DP (full re-enumeration per candidate).
    #[default]
    Dp,
    /// Incremental per-taxi dynamic trees with memoized scoring.
    Dtree,
}

impl SchedulerKind {
    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dp" => Some(Self::Dp),
            "dtree" => Some(Self::Dtree),
            _ => None,
        }
    }

    /// The CLI label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Dp => "dp",
            Self::Dtree => "dtree",
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Cumulative engine counters for the summary's `profiling.dtree`
/// block. All zero under the plain DP. Profiling only: the totals never
/// feed back into results.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Insertion scorings served by trees.
    pub scores: u64,
    /// Full spine rebuilds.
    pub rebuilds: u64,
    /// Completed-stop advances.
    pub advances: u64,
    /// Winning-branch promotions (commit splices).
    pub commits: u64,
    /// Request splice-outs (cancel/breakdown repair).
    pub removes: u64,
    /// Version refreshes after retiming.
    pub retimes: u64,
    /// Committed-leg costs served from spine caches.
    pub legs_reused: u64,
    /// Committed-leg costs filled by a fresh oracle query.
    pub legs_filled: u64,
    /// Per-evaluation memo hits.
    pub memo_reuses: u64,
    /// Per-evaluation memo fills (distinct oracle queries).
    pub memo_fills: u64,
}

impl EngineStats {
    /// The counters under their names in the summary's `profiling.dtree`
    /// block, ready for `Obs::add`.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("scores", self.scores),
            ("rebuilds", self.rebuilds),
            ("advances", self.advances),
            ("commits", self.commits),
            ("removes", self.removes),
            ("retimes", self.retimes),
            ("legs_reused", self.legs_reused),
            ("legs_filled", self.legs_filled),
            ("memo_reuses", self.memo_reuses),
            ("memo_fills", self.memo_fills),
        ]
    }
}

/// A schedule-scoring engine: the strategy object behind
/// `--scheduler dp|dtree`.
///
/// Each scheme owns its engine. Any state an engine keeps must stay
/// deterministic: results must be a pure function of the query.
pub trait ScheduleEngine {
    /// Which engine this is.
    fn kind(&self) -> SchedulerKind;

    /// The pipeline stage this engine's scoring time is recorded under
    /// (`insertion_dp` vs `dtree_update`).
    fn stage(&self) -> Stage;

    /// Finds the minimum-added-cost feasible insertion of `req` into
    /// `taxi`'s schedule — same contract as [`crate::best_insertion`],
    /// and bit-identical results across engines — and says whether the
    /// reach bound ruled the taxi out before it was scored.
    fn best_insertion(
        &mut self,
        taxi: &Taxi,
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        cost: &mut dyn FnMut(NodeId, NodeId) -> Option<f64>,
    ) -> Scored;

    /// `taxi`'s plan changed (assignment committed, chaos repair,
    /// retiming). Stateless engines ignore this; the dtree engine syncs
    /// the taxi's spine eagerly so the next score starts warm.
    fn after_assign(&mut self, _taxi: &Taxi, _world: &World<'_>) {}

    /// `taxi` completed a schedule event (front of plan popped).
    fn on_taxi_progress(&mut self, _taxi: &Taxi, _world: &World<'_>) {}

    /// `taxi` permanently left service.
    fn on_taxi_removed(&mut self, _taxi: &Taxi) {}

    /// Drops all incremental state (checkpoint restore: trees are
    /// rebuilt lazily from the restored plans, keeping the snapshot
    /// format unchanged).
    fn invalidate_all(&mut self) {}

    /// Cumulative counters.
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
}

/// The stateless insertion-DP engine (`--scheduler dp`).
#[derive(Debug, Default)]
pub struct DpEngine;

impl ScheduleEngine for DpEngine {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Dp
    }

    fn stage(&self) -> Stage {
        Stage::InsertionDp
    }

    fn best_insertion(
        &mut self,
        taxi: &Taxi,
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        cost: &mut dyn FnMut(NodeId, NodeId) -> Option<f64>,
    ) -> Scored {
        // The batched reader, as in `DtreeEngine::best_insertion`.
        world.oracle.batch(|fast| {
            score_insertion(taxi, req, now, world, |a, b| {
                fast.pinned_cost(a, b).unwrap_or_else(|| cost(a, b))
            })
        })
    }
}

/// The incremental dynamic-tree engine (`--scheduler dtree`): one
/// [`DTree`] per taxi (the sync step is a pure function of the taxi's
/// current plan).
pub struct DtreeEngine {
    trees: Vec<DTree>,
}

impl DtreeEngine {
    /// One empty tree per fleet slot.
    pub fn new(n_taxis: usize) -> Self {
        let mut trees = Vec::with_capacity(n_taxis);
        trees.resize_with(n_taxis, DTree::new);
        Self { trees }
    }
}

/// Converts a schedule event to a dtree stop (rider counts are
/// immutable per request, so they can live in the spine).
fn stop_of(ev: &ScheduleEvent, world: &World<'_>) -> Stop {
    Stop {
        node: ev.node.0,
        request: ev.request.0,
        pickup: ev.kind == EventKind::Pickup,
        riders: world.requests.get(ev.request).passengers as u32,
    }
}

fn same_stop(s: &Stop, ev: &ScheduleEvent) -> bool {
    s.node == ev.node.0 && s.request == ev.request.0 && s.pickup == (ev.kind == EventKind::Pickup)
}

/// If `new` is `old` plus exactly one request's pickup+dropoff pair
/// (order preserved), returns the pair's indices in `new`. Events are
/// unique per (request, kind), so the greedy alignment is exact.
fn diff_plus_pair(old: &[Stop], new: &[ScheduleEvent]) -> Option<(usize, usize)> {
    let mut extras = [0usize; 2];
    let mut n_extra = 0;
    let mut oi = 0;
    for (ni, ev) in new.iter().enumerate() {
        if oi < old.len() && same_stop(&old[oi], ev) {
            oi += 1;
        } else {
            if n_extra == 2 {
                return None;
            }
            extras[n_extra] = ni;
            n_extra += 1;
        }
    }
    if oi != old.len() || n_extra != 2 {
        return None;
    }
    let (i, j) = (extras[0], extras[1]);
    let (a, b) = (&new[i], &new[j]);
    (a.request == b.request && a.kind == EventKind::Pickup && b.kind == EventKind::Dropoff)
        .then_some((i, j))
}

/// If `new` is `old` minus every stop of exactly one request (order
/// preserved), returns that request id.
fn diff_minus_request(old: &[Stop], new: &[ScheduleEvent]) -> Option<u32> {
    let mut missing: Option<u32> = None;
    let mut ni = 0;
    for s in old {
        if ni < new.len() && same_stop(s, &new[ni]) {
            ni += 1;
        } else {
            match missing {
                None => missing = Some(s.request),
                Some(r) if r == s.request => {}
                Some(_) => return None,
            }
        }
    }
    if ni != new.len() {
        return None;
    }
    missing
}

/// Brings `tree` in sync with `taxi`'s committed plan, choosing the
/// cheapest structural update: advance (completed stops popped), retime
/// (version bump, identical sequence), commit splice (one request
/// added), remove splice (one request cancelled), else full rebuild.
/// Deterministic: a pure function of `(tree, taxi)` state.
fn sync_tree(tree: &mut DTree, taxi: &Taxi, world: &World<'_>) {
    let events = taxi.schedule.events();
    let version = taxi.route_version;
    if tree.is_synced(version, events.len()) {
        return;
    }
    if tree.is_built() {
        if tree.version() == version && events.len() < tree.len() {
            // Completed stops pop off the front without a version bump.
            let k = tree.len() - events.len();
            if events.iter().zip(&tree.stops()[k..]).all(|(ev, s)| same_stop(s, ev)) {
                tree.advance(k);
                return;
            }
        } else if tree.version() != version {
            if events.len() == tree.len()
                && events.iter().zip(tree.stops()).all(|(ev, s)| same_stop(s, ev))
            {
                // Retiming (traffic shift re-arms the route): the stop
                // sequence and the oracle metric are unchanged.
                tree.refresh_version(version);
                return;
            }
            if events.len() == tree.len() + 2 {
                if let Some((i, j)) = diff_plus_pair(tree.stops(), events) {
                    tree.commit(
                        version,
                        Insertion { i, j, delta_s: 0.0 },
                        stop_of(&events[i], world),
                        stop_of(&events[j], world),
                    );
                    return;
                }
            }
            if events.len() < tree.len() {
                if let Some(request) = diff_minus_request(tree.stops(), events) {
                    tree.remove(version, request);
                    return;
                }
            }
        }
    }
    tree.rebuild(version, events.iter().map(|ev| stop_of(ev, world)));
}

impl ScheduleEngine for DtreeEngine {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Dtree
    }

    fn stage(&self) -> Stage {
        Stage::DtreeUpdate
    }

    fn best_insertion(
        &mut self,
        taxi: &Taxi,
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        cost: &mut dyn FnMut(NodeId, NodeId) -> Option<f64>,
    ) -> Scored {
        // Score through the oracle's batched reader: every leg against a
        // pinned endpoint (in steady state, all of them — active request
        // endpoints are pinned) is a direct vector read with the map
        // borrowed once, bit-identical to `oracle.cost`. Anything else
        // falls back to the caller's cost function, so custom cost
        // closures (tests, alternate backends) keep exact dp parity.
        world.oracle.batch(|fast| {
            let mut cost = |a, b| fast.pinned_cost(a, b).unwrap_or_else(|| cost(a, b));
            // The reach bound before the tree is synced: most candidates
            // stop here.
            if !reaches_pickup(taxi, req, now, &mut cost) {
                return Scored::OutOfReach;
            }
            let Some(tree) = self.trees.get_mut(taxi.id.index()) else {
                // Fleet grew past the configured size: score via the DP.
                return insertion_dp(taxi, req, now, world, cost).into();
            };
            sync_tree(tree, taxi, world);
            let probe = Probe {
                origin: req.origin.0,
                destination: req.destination.0,
                passengers: req.passengers as u32,
                deadline: req.deadline,
                pickup_deadline: req.pickup_deadline(),
                now,
                pos: taxi.position_at(now).0,
                initial_load: taxi.onboard_load(world.requests),
                capacity: taxi.capacity as u32,
            };
            let ins = tree.score(
                &probe,
                &mut |r| world.requests.get(RequestId(r)).deadline,
                &mut |a, b| cost(NodeId(a), NodeId(b)),
            );
            ins.map(|ins| BestInsertion { i: ins.i, j: ins.j, delta_s: ins.delta_s }).into()
        })
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        if let Some(tree) = self.trees.get_mut(taxi.id.index()) {
            sync_tree(tree, taxi, world);
        }
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, world: &World<'_>) {
        if let Some(tree) = self.trees.get_mut(taxi.id.index()) {
            sync_tree(tree, taxi, world);
        }
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi) {
        if let Some(tree) = self.trees.get_mut(taxi.id.index()) {
            tree.clear();
        }
    }

    fn invalidate_all(&mut self) {
        self.trees.iter_mut().for_each(DTree::clear);
    }

    fn stats(&self) -> EngineStats {
        let mut out = EngineStats::default();
        for tree in &self.trees {
            let s = &tree.stats;
            out.scores += s.scores;
            out.rebuilds += s.rebuilds;
            out.advances += s.advances;
            out.commits += s.commits;
            out.removes += s.removes;
            out.retimes += s.retimes;
            out.legs_reused += s.legs_reused;
            out.legs_filled += s.legs_filled;
            out.memo_reuses += s.memo_reuses;
            out.memo_fills += s.memo_fills;
        }
        out
    }
}

/// Builds the engine for `kind` over a fleet of `n_taxis`.
pub fn make_engine(kind: SchedulerKind, n_taxis: usize) -> Box<dyn ScheduleEngine> {
    match kind {
        SchedulerKind::Dp => Box::new(DpEngine),
        SchedulerKind::Dtree => Box::new(DtreeEngine::new(n_taxis)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestStore;
    use crate::schedule::Schedule;
    use crate::taxi::TaxiId;
    use mtshare_road::{grid_city, GridCityConfig};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use std::sync::Arc;

    struct Fixture {
        graph: Arc<mtshare_road::RoadNetwork>,
        cache: PathCache,
        oracle: HotNodeOracle,
        requests: RequestStore,
    }

    impl Fixture {
        fn new() -> Self {
            let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
            let cache = PathCache::new(graph.clone());
            let oracle = HotNodeOracle::new(graph.clone());
            Self { graph, cache, oracle, requests: RequestStore::new() }
        }

        fn add_request(&mut self, origin: u32, dest: u32, rho: f64) -> RideRequest {
            let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
            let req = RideRequest {
                id: RequestId(self.requests.len() as u32),
                release_time: 0.0,
                origin: NodeId(origin),
                destination: NodeId(dest),
                passengers: 1,
                deadline: direct * rho,
                direct_cost_s: direct,
                offline: false,
            };
            self.requests.push(req.clone());
            self.oracle.pin(req.origin);
            self.oracle.pin(req.destination);
            req
        }

        fn world<'a>(&'a self, taxis: &'a [Taxi]) -> World<'a> {
            World {
                graph: &self.graph,
                cache: &self.cache,
                oracle: &self.oracle,
                taxis,
                requests: &self.requests,
            }
        }
    }

    #[test]
    fn engines_agree_bit_for_bit_on_fresh_and_busy_taxis() {
        let mut f = Fixture::new();
        let r0 = f.add_request(21, 200, 3.0);
        let r1 = f.add_request(42, 210, 3.0);
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        let mut dp = DpEngine;
        let mut dtree = DtreeEngine::new(1);
        for busy in [false, true] {
            if busy {
                taxi.schedule = Schedule::new().with_insertion(&r0, 0, 1);
                taxi.assigned.push(r0.id);
                taxi.route_version += 1;
            }
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            let a =
                dp.best_insertion(&taxis[0], &r1, 0.0, &world, &mut |x, y| world.oracle.cost(x, y));
            let b = dtree
                .best_insertion(&taxis[0], &r1, 0.0, &world, &mut |x, y| world.oracle.cost(x, y));
            match (a, b) {
                (Scored::Feasible(a), Scored::Feasible(b)) => {
                    assert_eq!((a.i, a.j), (b.i, b.j));
                    assert_eq!(a.delta_s.to_bits(), b.delta_s.to_bits());
                }
                (a, b) => assert_eq!(a, b, "engines disagree"),
            }
        }
        let stats = dtree.stats();
        assert!(stats.scores >= 2);
        assert!(stats.rebuilds >= 1);
    }

    #[test]
    fn sync_prefers_splices_over_rebuilds() {
        let mut f = Fixture::new();
        let r0 = f.add_request(21, 200, 4.0);
        let r1 = f.add_request(42, 210, 4.0);
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        let mut engine = DtreeEngine::new(1);
        let probe_req = f.add_request(60, 150, 4.0);

        // Initial build.
        taxi.schedule = Schedule::new().with_insertion(&r0, 0, 1);
        taxi.route_version = 1;
        {
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            engine.after_assign(&taxis[0], &world);
        }
        assert_eq!(engine.stats().rebuilds, 1);

        // One more request committed: splice, not rebuild.
        taxi.schedule = taxi.schedule.with_insertion(&r1, 1, 2);
        taxi.route_version = 2;
        {
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            engine.after_assign(&taxis[0], &world);
        }
        assert_eq!(engine.stats().rebuilds, 1);
        assert_eq!(engine.stats().commits, 1);

        // Version bump with unchanged sequence: retime.
        taxi.route_version = 3;
        {
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            engine.after_assign(&taxis[0], &world);
        }
        assert_eq!(engine.stats().retimes, 1);

        // Request cancelled: remove splice.
        taxi.schedule = taxi.schedule.without_request(r1.id);
        taxi.route_version = 4;
        {
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            engine.after_assign(&taxis[0], &world);
        }
        assert_eq!(engine.stats().removes, 1);
        assert_eq!(engine.stats().rebuilds, 1);

        // Front event completed (no version bump): advance.
        taxi.schedule.pop_front();
        {
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            engine.after_assign(&taxis[0], &world);
            // And the synced tree still scores identically to the DP.
            let a = DpEngine.best_insertion(&taxis[0], &probe_req, 10.0, &world, &mut |x, y| {
                world.oracle.cost(x, y)
            });
            let b = engine.best_insertion(&taxis[0], &probe_req, 10.0, &world, &mut |x, y| {
                world.oracle.cost(x, y)
            });
            assert_eq!(
                a.best().map(|v| (v.i, v.j, v.delta_s.to_bits())),
                b.best().map(|v| (v.i, v.j, v.delta_s.to_bits()))
            );
        }
        assert_eq!(engine.stats().advances, 1);

        // Invalidate drops everything; next touch rebuilds.
        engine.invalidate_all();
        {
            let taxis = vec![taxi.clone()];
            let world = f.world(&taxis);
            engine.after_assign(&taxis[0], &world);
        }
        assert_eq!(engine.stats().rebuilds, 2);
    }
}
