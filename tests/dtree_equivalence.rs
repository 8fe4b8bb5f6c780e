//! The incremental dynamic-tree engine must be **bit-identical** to the
//! per-request insertion DP: same feasibility verdict, same winning
//! `(i, j)` positions, same `delta_s` down to the last mantissa bit —
//! for arbitrary fleets, committed plans, and splice histories. This is
//! what entitles `--scheduler dtree` to byte-identical traces.

use mt_share::core::{MtShareConfig, PartitionStrategy};
use mt_share::dtree::{DTree, Stop};
use mt_share::model::{
    make_engine, BestInsertion, DpEngine, DtreeEngine, EventKind, RequestId, RequestStore,
    RideRequest, ScheduleEngine, SchedulerKind, Scored, Taxi, TaxiId, World,
};
use mt_share::obs::Obs;
use mt_share::road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
use mt_share::routing::{HotNodeOracle, PathCache};
use mt_share::sim::{build_context, Scenario, ScenarioConfig, SchemeKind, SimConfig, Simulator};
use proptest::prelude::*;
use std::sync::Arc;

struct Fixture {
    graph: Arc<RoadNetwork>,
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

    fn add_party(
        &mut self,
        origin: u32,
        dest: u32,
        rho: f64,
        release: f64,
        passengers: u8,
    ) -> RideRequest {
        let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
        let req = RideRequest {
            id: RequestId(self.requests.len() as u32),
            release_time: release,
            origin: NodeId(origin),
            destination: NodeId(dest),
            passengers,
            deadline: release + direct * rho,
            direct_cost_s: direct,
            offline: false,
        };
        self.requests.push(req.clone());
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

/// Collapses an engine answer to a bit-comparable key: whether the reach
/// bound ruled the taxi out, and the winning slot with its cost's bits.
fn key(s: Scored) -> (bool, Option<(usize, usize, u64)>) {
    (s == Scored::OutOfReach, s.best().map(|v| (v.i, v.j, v.delta_s.to_bits())))
}

/// The spine stop a schedule event maps to.
fn stop_of(ev: &mt_share::model::ScheduleEvent, requests: &RequestStore) -> Stop {
    Stop {
        node: ev.node.0,
        request: ev.request.0,
        pickup: ev.kind == EventKind::Pickup,
        riders: requests.get(ev.request).passengers as u32,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fleet-level equivalence: for every taxi the dtree returns the
    /// same `Option<BestInsertion>` as the DP (positions AND cost, bit
    /// for bit), so the fleet-wide winning instance — taxi, schedule,
    /// detour — is identical under either scheduler.
    #[test]
    fn dtree_matches_dp_bit_for_bit(
        positions in proptest::collection::vec(0u32..400, 1..7),
        existing in proptest::collection::vec((0u32..400, 0u32..400, 1u8..3, 0usize..6), 0..12),
        probe in (0u32..400, 0u32..400, 1u8..3),
        rho_pct in 115u32..250,
        capacity in 2u8..5,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxis: Vec<Taxi> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| Taxi::new(TaxiId(i as u32), capacity, NodeId(p)))
            .collect();

        // Commit up to 12 requests round-robin by the generated taxi
        // choice, each appended back-to-back (always precedence-valid).
        for &(o, d, seats, pick) in existing.iter() {
            if o == d || seats > capacity {
                continue;
            }
            let req = f.add_party(o, d, rho + 1.0, 0.0, seats);
            let taxi = &mut taxis[pick % positions.len()];
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.assigned.push(req.id);
            taxi.route_version += 1;
        }

        let (po, pd, seats) = probe;
        prop_assume!(po != pd);
        let req = f.add_party(po, pd, rho, 0.0, seats);

        let mut dp = DpEngine;
        let mut dtree = DtreeEngine::new(taxis.len());
        let world = f.world(&taxis);

        let mut winner_dp: Option<(u64, usize, usize, usize)> = None;
        let mut winner_dt: Option<(u64, usize, usize, usize)> = None;
        for (idx, taxi) in taxis.iter().enumerate() {
            let a = dp.best_insertion(taxi, &req, 0.0, &world, &mut |x, y| f.cache.cost(x, y));
            let b = dtree.best_insertion(taxi, &req, 0.0, &world, &mut |x, y| f.cache.cost(x, y));
            prop_assert_eq!(key(a), key(b), "engines disagree on taxi {}", idx);
            // Fleet winner under the pinned (detour, taxi) ordering.
            let consider = |slot: &mut Option<(u64, usize, usize, usize)>, v: BestInsertion| {
                let entry = (v.delta_s.to_bits(), idx, v.i, v.j);
                if slot.is_none_or(|w| {
                    let (wb, wi, _, _) = w;
                    f64::from_bits(entry.0).total_cmp(&f64::from_bits(wb))
                        .then(idx.cmp(&wi))
                        .is_lt()
                }) {
                    *slot = Some(entry);
                }
            };
            if let Some(v) = a.best() { consider(&mut winner_dp, v); }
            if let Some(v) = b.best() { consider(&mut winner_dt, v); }
        }
        prop_assert_eq!(winner_dp, winner_dt);

        // Same winner ⇒ same materialized schedule; it must be a valid
        // instance (precedence holds, probe pair present exactly once).
        if let Some((_, idx, i, j)) = winner_dp {
            let s = taxis[idx].schedule.with_insertion(&req, i, j);
            prop_assert!(s.precedence_ok());
            let stops: Vec<Stop> = s.events().iter().map(|ev| stop_of(ev, &f.requests)).collect();
            let pair: Vec<&Stop> = stops.iter().filter(|st| st.request == req.id.0).collect();
            prop_assert_eq!(pair.len(), 2);
            prop_assert!(pair[0].pickup && !pair[1].pickup);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Late evaluations, where the reach bound rules most taxis out and
    /// the pickup-tail break cuts the rest short: both engines still agree
    /// bit for bit, and on which taxis the bound ruled out (the `key`
    /// carries that verdict, so `insertions_pruned` counts equal).
    #[test]
    fn engines_agree_where_the_reach_bound_fires(
        positions in proptest::collection::vec(0u32..400, 1..7),
        existing in proptest::collection::vec((0u32..400, 0u32..400, 0usize..6), 0..12),
        probe in (0u32..400, 0u32..400),
        rho_pct in 115u32..250,
        spent_pct in 0u32..100,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxis: Vec<Taxi> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| Taxi::new(TaxiId(i as u32), 4, NodeId(p)))
            .collect();
        for &(o, d, pick) in existing.iter() {
            if o == d {
                continue;
            }
            let req = f.add_party(o, d, rho + 4.0, 0.0, 1);
            let taxi = &mut taxis[pick % positions.len()];
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.assigned.push(req.id);
            taxi.route_version += 1;
        }
        let (po, pd) = probe;
        prop_assume!(po != pd);
        let req = f.add_party(po, pd, rho, 0.0, 1);
        // `spent_pct` % of the pickup budget is gone when the fleet is scored.
        let now = req.pickup_deadline() * spent_pct as f64 / 100.0;

        let mut dtree = DtreeEngine::new(taxis.len());
        let world = f.world(&taxis);
        for (idx, taxi) in taxis.iter().enumerate() {
            let a = DpEngine.best_insertion(taxi, &req, now, &world, &mut |x, y| f.cache.cost(x, y));
            let b = dtree.best_insertion(taxi, &req, now, &world, &mut |x, y| f.cache.cost(x, y));
            prop_assert_eq!(key(a), key(b), "engines disagree on taxi {}", idx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pins swept only as far as `RideRequest::hold` and
    /// `hold_for_dispatch` ask score exactly as pins over the whole graph,
    /// under both engines: every read outside a holder's region is late,
    /// and the `beyond` it returns is late too (DESIGN.md, "Pins grow
    /// where their holders read"). Committed riders were held earlier
    /// than `now`, as in a run, so their radii are wider than they need to
    /// be at `now`, never narrower; half of them hold their destination's
    /// ellipse, as at their dispatch, half re-held balls.
    #[test]
    fn pins_bounded_at_the_hold_radii_score_as_full_pins(
        positions in proptest::collection::vec(0u32..400, 1..7),
        existing in proptest::collection::vec((0u32..400, 0u32..400, 0usize..6, 0u32..=100), 0..12),
        probe in (0u32..400, 0u32..400),
        rho_pct in 115u32..250,
        spent_pct in 0u32..100,
    ) {
        let mut f = Fixture::new();
        let bounded = HotNodeOracle::new(f.graph.clone());
        let rho = rho_pct as f64 / 100.0;
        let (po, pd) = probe;
        prop_assume!(po != pd);
        let req = f.add_party(po, pd, rho, 0.0, 1);
        let now = req.pickup_deadline() * spent_pct as f64 / 100.0;
        let mut taxis: Vec<Taxi> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| Taxi::new(TaxiId(i as u32), 4, NodeId(p)))
            .collect();
        for &(o, d, pick, held_pct) in existing.iter() {
            if o == d {
                continue;
            }
            let committed = f.add_party(o, d, rho + 1.0, 0.0, 1);
            // Dispatched at the hold time (an ellipse), or re-held there (balls).
            match held_pct % 2 {
                0 => committed.hold_for_dispatch(&bounded, now * held_pct as f64 / 100.0),
                _ => committed.hold(&bounded, now * held_pct as f64 / 100.0),
            }
            f.oracle.pin(committed.origin);
            f.oracle.pin(committed.destination);
            let taxi = &mut taxis[pick % positions.len()];
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&committed, m, m + 1);
            taxi.assigned.push(committed.id);
            taxi.route_version += 1;
        }
        req.hold_for_dispatch(&bounded, now);
        f.oracle.pin(req.origin);
        f.oracle.pin(req.destination);

        let full = f.world(&taxis);
        let cut = World { oracle: &bounded, ..f.world(&taxis) };
        for kind in [SchedulerKind::Dp, SchedulerKind::Dtree] {
            let (mut on_full, mut on_cut) = (make_engine(kind, taxis.len()), make_engine(kind, taxis.len()));
            for (idx, taxi) in taxis.iter().enumerate() {
                let a = on_full.best_insertion(taxi, &req, now, &full, &mut |x, y| f.cache.cost(x, y));
                let b = on_cut.best_insertion(taxi, &req, now, &cut, &mut |x, y| f.cache.cost(x, y));
                prop_assert_eq!(key(a), key(b), "{:?}: pins disagree on taxi {}", kind, idx);
            }
        }
        prop_assert_eq!(bounded.stats().searches, 0);
    }
}

/// Whole runs: mT-Share under either engine rules the same taxis out by
/// the reach bound — `insertions_pruned` is equal, and not zero — and
/// serves the same riders.
#[test]
fn both_engines_prune_the_same_taxis_in_a_run() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let scenario =
        Scenario::generate(graph.clone(), &PathCache::new(graph.clone()), ScenarioConfig::peak(12));
    let ctx = build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite);
    let run = |scheduler| {
        let cfg = MtShareConfig::default().with_scheduler(scheduler);
        let n = scenario.taxis.len();
        let mut scheme = SchemeKind::MtShare.build(&graph, n, Some(ctx.clone()), Some(cfg));
        let obs = Obs::enabled();
        let cache = PathCache::new(graph.clone());
        let report = Simulator::new(graph.clone(), cache, &scenario, SimConfig::default())
            .with_obs(obs.clone())
            .run(scheme.as_mut());
        let count = |name| obs.counter("counters", name);
        let counts =
            ["insertions_attempted", "insertions_feasible", "insertions_pruned"].map(count);
        (report.served_records, counts)
    };
    let (dp, dtree) = (run(SchedulerKind::Dp), run(SchedulerKind::Dtree));
    assert!(dp.1[2] > 0, "the reach bound never fired: {:?}", dp.1);
    assert_eq!(dp, dtree);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Insert → commit → remove round-trips on the raw tree: committing
    /// a scored winner splices exactly the probe's stop pair in at the
    /// winning positions, removing it restores the original spine, and
    /// the post-round-trip tree scores bit-identically to a tree rebuilt
    /// from scratch (no stale memo or leg-cache state survives).
    #[test]
    fn commit_remove_round_trip(
        taxi_pos in 0u32..400,
        existing in proptest::collection::vec((0u32..400, 0u32..400, 1u8..3), 0..4),
        probe in (0u32..400, 0u32..400, 1u8..3),
        recheck in (0u32..400, 0u32..400),
        rho_pct in 115u32..250,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let capacity = 4u8;
        let mut taxi = Taxi::new(TaxiId(0), capacity, NodeId(taxi_pos));
        for &(o, d, seats) in existing.iter() {
            if o == d {
                continue;
            }
            let req = f.add_party(o, d, rho + 1.0, 0.0, seats);
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.assigned.push(req.id);
        }
        let (po, pd, seats) = probe;
        prop_assume!(po != pd);
        let req = f.add_party(po, pd, rho, 0.0, seats);

        let spine: Vec<Stop> =
            taxi.schedule.events().iter().map(|ev| stop_of(ev, &f.requests)).collect();
        let mut tree = DTree::new();
        tree.rebuild(1, spine.iter().copied());

        let mk_probe = |taxi: &Taxi, req: &RideRequest, requests: &RequestStore| {
            mt_share::dtree::Probe {
                origin: req.origin.0,
                destination: req.destination.0,
                passengers: req.passengers as u32,
                deadline: req.deadline,
                pickup_deadline: req.pickup_deadline(),
                now: 0.0,
                pos: taxi.position_at(0.0).0,
                initial_load: taxi.onboard_load(requests),
                capacity: capacity as u32,
            }
        };
        let p = mk_probe(&taxi, &req, &f.requests);
        let won = tree.score(
            &p,
            &mut |r| f.requests.get(RequestId(r)).deadline,
            &mut |a, b| f.cache.cost(NodeId(a), NodeId(b)),
        );

        if let Some(ins) = won {
            // Commit: the spine must now equal the materialized schedule.
            let pickup = Stop { node: po, request: req.id.0, pickup: true, riders: seats as u32 };
            let dropoff = Stop { node: pd, request: req.id.0, pickup: false, riders: seats as u32 };
            tree.commit(2, ins, pickup, dropoff);
            let committed = taxi.schedule.with_insertion(&req, ins.i, ins.j);
            let expect: Vec<Stop> =
                committed.events().iter().map(|ev| stop_of(ev, &f.requests)).collect();
            prop_assert_eq!(tree.stops(), &expect[..]);

            // Remove: round-trips back to the original spine.
            tree.remove(3, req.id.0);
            prop_assert_eq!(tree.stops(), &spine[..]);

            // And the survivor scores exactly like a fresh rebuild.
            let (ro, rd) = recheck;
            prop_assume!(ro != rd);
            let req2 = f.add_party(ro, rd, rho, 0.0, 1);
            let p2 = mk_probe(&taxi, &req2, &f.requests);
            let incremental = tree.score(
                &p2,
                &mut |r| f.requests.get(RequestId(r)).deadline,
                &mut |a, b| f.cache.cost(NodeId(a), NodeId(b)),
            );
            let mut fresh = DTree::new();
            fresh.rebuild(3, spine.iter().copied());
            let scratch = fresh.score(
                &p2,
                &mut |r| f.requests.get(RequestId(r)).deadline,
                &mut |a, b| f.cache.cost(NodeId(a), NodeId(b)),
            );
            prop_assert_eq!(
                incremental.map(|v| (v.i, v.j, v.delta_s.to_bits())),
                scratch.map(|v| (v.i, v.j, v.delta_s.to_bits()))
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A mini dispatch loop over the engine hooks: commits (winning DP
    /// positions), cancels, completed-stop pops, and retimes — the exact
    /// splice stream `sync_tree` sees in the simulator. After every
    /// mutation both engines must agree bit for bit on a fresh probe,
    /// and the tree must absorb the whole history through splices
    /// (exactly one rebuild: the initial one).
    #[test]
    fn engine_agrees_through_splice_history(
        taxi_pos in 0u32..400,
        ops in proptest::collection::vec((0u8..4, 0u32..400, 0u32..400, 1u8..3), 1..12),
        rho_pct in 130u32..250,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(taxi_pos));
        let mut dp = DpEngine;
        let mut dtree = DtreeEngine::new(1);

        // Seed one committed request so every op kind has work to do.
        let seed = f.add_party(taxi_pos.wrapping_add(1) % 400, taxi_pos.wrapping_add(57) % 400, rho + 2.0, 0.0, 1);
        prop_assume!(seed.origin != seed.destination);
        taxi.schedule = taxi.schedule.with_insertion(&seed, 0, 1);
        taxi.assigned.push(seed.id);
        taxi.route_version = 1;
        {
            let taxis = std::slice::from_ref(&taxi);
            let world = f.world(taxis);
            dtree.after_assign(&taxi, &world);
        }

        for &(kind, o, d, seats) in ops.iter() {
            match kind {
                // Commit a new request at its DP-optimal positions.
                0 => {
                    if o == d {
                        continue;
                    }
                    let req = f.add_party(o, d, rho + 1.0, 0.0, seats);
                    let won = {
                        let taxis = std::slice::from_ref(&taxi);
                        let world = f.world(taxis);
                        dp.best_insertion(&taxi, &req, 0.0, &world, &mut |x, y| f.cache.cost(x, y))
                            .best()
                    };
                    if let Some(v) = won {
                        taxi.schedule = taxi.schedule.with_insertion(&req, v.i, v.j);
                        taxi.assigned.push(req.id);
                        taxi.route_version += 1;
                    }
                }
                // Cancel the oldest still-scheduled request.
                1 => {
                    let Some(victim) = taxi.schedule.events().first().map(|ev| ev.request) else {
                        continue;
                    };
                    taxi.schedule = taxi.schedule.without_request(victim);
                    taxi.assigned.retain(|&r| r != victim);
                    taxi.route_version += 1;
                }
                // Complete the front stop (no version bump — advance).
                2 => {
                    if taxi.schedule.is_empty() {
                        continue;
                    }
                    taxi.schedule.pop_front();
                }
                // Retime: version bump, identical stop sequence.
                _ => {
                    taxi.route_version += 1;
                }
            }
            // Both engines must agree on a fresh probe of this state.
            let probe = (o != d).then(|| f.add_party(d, o, rho, 0.0, 1));
            let taxis = std::slice::from_ref(&taxi);
            let world = f.world(taxis);
            dtree.after_assign(&taxi, &world);
            if let Some(probe) = probe {
                let a = dp.best_insertion(&taxi, &probe, 0.0, &world, &mut |x, y| f.cache.cost(x, y));
                let b = dtree.best_insertion(&taxi, &probe, 0.0, &world, &mut |x, y| f.cache.cost(x, y));
                prop_assert_eq!(key(a), key(b), "post-op disagreement (op kind {})", kind);
            }
        }

        let stats = dtree.stats();
        prop_assert_eq!(stats.rebuilds, 1, "splice history forced a rebuild: {:?}", stats);
    }
}
