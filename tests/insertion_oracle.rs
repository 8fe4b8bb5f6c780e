//! The O(m²) insertion DP must agree with brute-force enumeration over
//! `evaluate_schedule` on feasibility and minimum added cost — for
//! arbitrary committed schedules.

use mt_share::model::{
    best_insertion, evaluate_schedule, reaches_pickup, EvalContext, RequestId, RequestStore,
    RideRequest, Taxi, TaxiId, World,
};
use mt_share::road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
use mt_share::routing::{HotNodeOracle, PathCache};
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

    fn add_request(&mut self, origin: u32, dest: u32, rho: f64, release: f64) -> RideRequest {
        self.add_party(origin, dest, rho, release, 1)
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
}

/// Brute-force minimum-delta insertion with pickup-deadline enforcement,
/// over an arbitrary cost backend.
fn brute_force(
    taxi: &Taxi,
    req: &RideRequest,
    now: f64,
    world: &World<'_>,
    cost: impl Fn(NodeId, NodeId) -> Option<f64>,
) -> Option<f64> {
    let pos = taxi.position_at(now);
    let mut remaining = 0.0;
    let mut from = pos;
    for ev in taxi.schedule.events() {
        remaining += cost(from, ev.node)?;
        from = ev.node;
    }
    let requests = world.requests;
    let lookup = |r| requests.get(r);
    let ectx = EvalContext {
        start_node: pos,
        start_time: now,
        initial_load: taxi.onboard_load(world.requests),
        capacity: taxi.capacity as u32,
        requests: &lookup,
    };
    let m = taxi.schedule.len();
    let mut best: Option<f64> = None;
    for i in 0..=m {
        for j in (i + 1)..=(m + 1) {
            let s = taxi.schedule.with_insertion(req, i, j);
            if let Some(eval) = evaluate_schedule(&s, &ectx, &cost) {
                if eval.arrival_times[i] > req.pickup_deadline() + 1e-6 {
                    continue;
                }
                let delta = eval.total_cost_s - remaining;
                if best.is_none_or(|b| delta < b) {
                    best = Some(delta);
                }
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_matches_brute_force(
        taxi_pos in 0u32..400,
        existing in proptest::collection::vec((0u32..400, 0u32..400), 0..3),
        probe in (0u32..400, 0u32..400),
        rho_pct in 110u32..250,
        capacity in 1u8..5,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxi = Taxi::new(TaxiId(0), capacity, NodeId(taxi_pos));

        // Commit a schedule by inserting requests front-to-back (each must
        // be individually feasible; skip degenerate zero trips).
        for &(o, d) in existing.iter() {
            if o == d { continue; }
            let req = f.add_request(o, d, rho + 1.0, 0.0);
            let m = taxi.schedule.len();
            let candidate = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.schedule = candidate;
            taxi.assigned.push(req.id);
        }

        let (po, pd) = probe;
        prop_assume!(po != pd);
        let req = f.add_request(po, pd, rho, 0.0);

        let world = World {
            graph: &f.graph,
            cache: &f.cache,
            oracle: &f.oracle,
            taxis: std::slice::from_ref(&taxi),
            requests: &f.requests,
        };
        let dp = best_insertion(&taxi, &req, 0.0, &world, |a, b| f.cache.cost(a, b));
        let bf = brute_force(&taxi, &req, 0.0, &world, |a, b| f.cache.cost(a, b));
        match (dp, bf) {
            (Some(d), Some(b)) => {
                prop_assert!((d.delta_s - b).abs() < 1.0,
                    "dp {} vs brute force {}", d.delta_s, b);
                // The DP's positions must themselves be feasible.
                let s = taxi.schedule.with_insertion(&req, d.i, d.j);
                prop_assert!(s.precedence_ok());
            }
            (None, None) => {}
            (d, b) => prop_assert!(false, "feasibility disagreement: dp={d:?} brute={b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Capacity-3/4 taxis with multi-seat parties: the DP's range-maximum
    /// load check must agree with brute-force enumeration when committed
    /// requests occupy 1–3 seats each and the probe itself is a party.
    #[test]
    fn dp_matches_brute_force_multi_seat(
        taxi_pos in 0u32..400,
        existing in proptest::collection::vec((0u32..400, 0u32..400, 1u8..4), 0..3),
        probe in (0u32..400, 0u32..400, 1u8..4),
        rho_pct in 110u32..250,
        capacity in 3u8..5,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxi = Taxi::new(TaxiId(0), capacity, NodeId(taxi_pos));

        // Commit parties front-to-back, skipping any that would overload a
        // leg on their own (the committed plan must be feasible to start).
        for &(o, d, seats) in existing.iter() {
            if o == d || seats > capacity { continue; }
            let req = f.add_party(o, d, rho + 1.0, 0.0, seats);
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.assigned.push(req.id);
        }

        let (po, pd, seats) = probe;
        prop_assume!(po != pd);
        let req = f.add_party(po, pd, rho, 0.0, seats);

        let world = World {
            graph: &f.graph,
            cache: &f.cache,
            oracle: &f.oracle,
            taxis: std::slice::from_ref(&taxi),
            requests: &f.requests,
        };
        let dp = best_insertion(&taxi, &req, 0.0, &world, |a, b| f.cache.cost(a, b));
        let bf = brute_force(&taxi, &req, 0.0, &world, |a, b| f.cache.cost(a, b));
        match (dp, bf) {
            (Some(d), Some(b)) => {
                prop_assert!((d.delta_s - b).abs() < 1.0,
                    "dp {} vs brute force {}", d.delta_s, b);
                let s = taxi.schedule.with_insertion(&req, d.i, d.j);
                prop_assert!(s.precedence_ok());
            }
            (None, None) => {}
            (d, b) => prop_assert!(false, "feasibility disagreement: dp={d:?} brute={b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production configuration of Algorithm 1: the DP scored through
    /// the pinned [`HotNodeOracle`] (every probe an O(1) vector read, as
    /// the simulator runs it) must agree with brute-force enumeration over
    /// the cache — same feasibility verdict, same minimum added cost. This
    /// is what entitles the speculative batch path to reuse scores: oracle
    /// answers are canonical whatever is pinned.
    #[test]
    fn pinned_oracle_dp_matches_cache_brute_force(
        taxi_pos in 0u32..400,
        existing in proptest::collection::vec((0u32..400, 0u32..400), 0..3),
        probe in (0u32..400, 0u32..400),
        rho_pct in 110u32..250,
        extra_pin in 0u32..400,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(taxi_pos));
        for &(o, d) in existing.iter() {
            if o == d { continue; }
            let req = f.add_request(o, d, rho + 1.0, 0.0);
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.assigned.push(req.id);
            // Active requests keep their endpoints pinned, as in the
            // simulator.
            f.oracle.pin(NodeId(o));
            f.oracle.pin(NodeId(d));
        }
        let (po, pd) = probe;
        prop_assume!(po != pd);
        let req = f.add_request(po, pd, rho, 0.0);
        f.oracle.pin(req.origin);
        f.oracle.pin(req.destination);
        // The batch path additionally pins later arrivals' endpoints; this
        // must not perturb anything.
        f.oracle.pin(NodeId(extra_pin));

        let world = World {
            graph: &f.graph,
            cache: &f.cache,
            oracle: &f.oracle,
            taxis: std::slice::from_ref(&taxi),
            requests: &f.requests,
        };
        let before = f.oracle.stats();
        let dp = best_insertion(&taxi, &req, 0.0, &world, |a, b| f.oracle.cost(a, b));
        let after = f.oracle.stats();
        // Every probe's target is a schedule event node or a request
        // endpoint — pinned — so the DP ran entirely on O(1) vector reads.
        prop_assert_eq!(after.searches, before.searches, "DP fell back to a graph search");
        prop_assert!(after.vector_hits > before.vector_hits);

        // Same backend ⇒ exact agreement on feasibility and (near-)exact
        // on the minimum delta.
        let bf_oracle = brute_force(&taxi, &req, 0.0, &world, |a, b| f.oracle.cost(a, b));
        match (dp, bf_oracle) {
            (Some(d), Some(b)) => prop_assert!((d.delta_s - b).abs() < 1.0,
                "oracle dp {} vs oracle brute force {}", d.delta_s, b),
            (None, None) => {}
            (d, b) => prop_assert!(false, "feasibility disagreement: dp={d:?} brute={b:?}"),
        }
        // Cross-backend: edge costs are dyadic, so the pinned vector, the
        // cache's memo and its search return the same bits for every pair
        // (see the `oracle` module docs) — the verdict must agree too, and
        // so must the minimum added cost.
        let bf_cache = brute_force(&taxi, &req, 0.0, &world, |a, b| f.cache.cost(a, b));
        match (dp, bf_cache) {
            (Some(d), Some(b)) => prop_assert!((d.delta_s - b).abs() < 1e-6,
                "oracle dp {} vs cache brute force {}", d.delta_s, b),
            (None, None) => {}
            (d, b) => prop_assert!(false, "cross-backend disagreement: dp={d:?} brute={b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A taxi evaluated after its last chance to drive straight to the
    /// origin in time: the reach bound rules it out, and brute force over
    /// every insertion of its schedule agrees there is nothing to find.
    #[test]
    fn taxi_beyond_the_pickup_budget_has_no_insertion(
        taxi_pos in 0u32..400,
        existing in proptest::collection::vec((0u32..400, 0u32..400), 0..3),
        probe in (0u32..400, 0u32..400),
        rho_pct in 110u32..250,
        late_s in 0u32..600,
    ) {
        let mut f = Fixture::new();
        let rho = rho_pct as f64 / 100.0;
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(taxi_pos));
        for &(o, d) in existing.iter() {
            if o == d { continue; }
            let req = f.add_request(o, d, rho + 10.0, 0.0);
            let m = taxi.schedule.len();
            taxi.schedule = taxi.schedule.with_insertion(&req, m, m + 1);
            taxi.assigned.push(req.id);
        }
        let (po, pd) = probe;
        prop_assume!(po != pd);
        let req = f.add_request(po, pd, rho, 0.0);
        let straight = f.cache.cost(NodeId(taxi_pos), req.origin).unwrap_or(0.0);
        let now = req.pickup_deadline() - straight + 1e-3 + late_s as f64;

        let world = World {
            graph: &f.graph,
            cache: &f.cache,
            oracle: &f.oracle,
            taxis: std::slice::from_ref(&taxi),
            requests: &f.requests,
        };
        prop_assert!(!reaches_pickup(&taxi, &req, now, |a, b| f.cache.cost(a, b)));
        prop_assert_eq!(best_insertion(&taxi, &req, now, &world, |a, b| f.cache.cost(a, b)), None);
        prop_assert_eq!(brute_force(&taxi, &req, now, &world, |a, b| f.cache.cost(a, b)), None);
    }
}
