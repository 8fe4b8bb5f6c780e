//! Candidate taxi searching (Sec. IV-C1).
//!
//! For a request `r_i`, the searching range is `γ = speed × Δt` (Eq. 2).
//! The candidate set is the union of the partition taxi sets intersecting
//! the search circle, intersected with the mobility clusters sharing the
//! request's travel direction, plus vacant taxis in range (Eq. 3), refined
//! by the three filtering rules (direction, capacity, reachability).
//!
//! The union and Rule 1 run over the whole fleet at once, a word of 64
//! taxis at a time, on the dual index's bitsets: `union ∧ (¬busy ∨ ⋁
//! aligned clusters)`. Only the survivors are read one taxi at a time, in
//! ascending id order (the order of the result): Rule 2 from the index's
//! seat count, Rule 3 from the taxi's own entry for the request's home
//! partition, else from the landmark estimate.
//!
//! Selection itself uses only O(1) landmark estimates; the *exact*
//! candidate-position → pickup costs are read on demand by the scheduling
//! pass from the pickup's pinned vector in `mtshare_routing::HotNodeOracle`.

use crate::config::MtShareConfig;
use crate::context::MobilityContext;
use crate::index::{MobilityClusterIndex, PartitionTaxiIndex, TaxiSet};
use mtshare_model::{RideRequest, TaxiId, Time, World, TAXI_SPEED_MPS};
use mtshare_obs::Obs;

/// Runs the candidate search for `req` at time `now`. Candidates come back
/// in ascending id order; the size of the geographic union is counted as
/// `profiling.counters.candidate_union`.
#[allow(clippy::too_many_arguments)] // dispatch context threaded from the scheme
pub fn candidate_taxis(
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    ctx: &MobilityContext,
    cfg: &MtShareConfig,
    pindex: &PartitionTaxiIndex,
    mindex: &MobilityClusterIndex,
    obs: &Obs,
) -> Vec<TaxiId> {
    let gamma = cfg.search_range_m(req.wait_budget(now));
    if gamma <= 0.0 {
        return Vec::new();
    }
    let origin_pt = world.graph.point(req.origin);

    // Union of the in-range partition sets (the geographic side of Eq. 3).
    let fleet = pindex.fleet_size();
    let mut survivors = TaxiSet::new(fleet);
    for p in ctx.partitioning.intersecting_circle(&origin_pt, gamma) {
        survivors.union_with(pindex.partition_set(p));
    }
    obs.add("counters", &[("candidate_union", survivors.count() as u64)]);
    // Freshness (`crate::index`): the busy bits and seat counts of every
    // alive taxi in range are the world's.
    #[cfg(debug_assertions)]
    for (id, taxi) in survivors.iter().map(|t| (t, world.taxi(t))).filter(|(_, t)| t.alive) {
        let seats = MobilityClusterIndex::committed_seats(taxi, world.requests);
        assert_eq!(mindex.busy().contains(id), !taxi.is_vacant(), "stale busy bit, {id:?}");
        assert_eq!(mindex.seats(id), seats, "stale seat count, {id:?}");
    }

    // Rule 1 / Eq. 3: busy taxis must share the travel direction (belong
    // to some aligned cluster); vacant taxis in range are always eligible.
    let mut aligned = TaxiSet::new(fleet);
    for c in mindex.clusters_for(&req.mobility_vector(world.graph)) {
        aligned.union_with(mindex.cluster_set(c));
    }
    survivors.retain_vacant_or(mindex.busy(), &aligned);

    let home = ctx.partitioning.partition_of(req.origin);
    let pickup_deadline = req.pickup_deadline();
    // Slack: crossing the home partition from its landmark.
    let slack_s = ctx.partitioning.radius_m(home) / TAXI_SPEED_MPS;
    let mut out = Vec::with_capacity(survivors.count());
    for taxi_id in survivors.iter() {
        let taxi = world.taxi(taxi_id);
        // Defense in depth: broken-down taxis are reconciled out of the
        // indexes, but never propose one even if an entry leaks through.
        if !taxi.alive {
            continue;
        }
        // Rule 2: no idle capacity for this request's party.
        if mindex.seats(taxi_id) + req.passengers as u32 > taxi.capacity as u32 {
            continue;
        }
        // Rule 3: must be able to reach the request's partition before the
        // pick-up deadline. Prefer the arrival recorded in `P_i.L_t`;
        // otherwise estimate via the landmark cost table.
        let reachable = match pindex.recorded_arrival(taxi_id, home) {
            Some(at) => at <= pickup_deadline + slack_s,
            None => {
                let pos = taxi.position_at(now);
                let to_landmark = ctx.landmarks.cost_to_landmark(pos, home) as f64;
                to_landmark.is_finite() && now + to_landmark - slack_s <= pickup_deadline
            }
        };
        if reachable {
            out.push(taxi_id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TMP_HORIZON_S;
    use crate::context::{MobilityContext, PartitionStrategy};
    use mtshare_mobility::PartitionId;
    use mtshare_mobility::Trip;
    use mtshare_model::{RequestId, RequestStore, RideRequest, Schedule, Taxi, TimedRoute};
    use mtshare_persist::Persist;
    use mtshare_road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
    use mtshare_routing::{HotNodeOracle, Path, PathCache};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    /// The search one taxi at a time, as it stood before the bitsets: a
    /// taxi is in the union when one of its own partition entries is in
    /// range, and Rules 1 and 2 read vacancy and seats from the world, not
    /// from the index's caches. Returns the candidates and the union's
    /// size. The oracle of `search_equals_the_per_taxi_scan`.
    fn candidate_taxis_by_scan(
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        ctx: &MobilityContext,
        cfg: &MtShareConfig,
        pindex: &PartitionTaxiIndex,
        mindex: &MobilityClusterIndex,
    ) -> (Vec<TaxiId>, u64) {
        let gamma = cfg.search_range_m(req.wait_budget(now));
        if gamma <= 0.0 {
            return (Vec::new(), 0);
        }
        let origin_pt = world.graph.point(req.origin);
        let in_range = ctx.partitioning.intersecting_circle(&origin_pt, gamma);
        let aligned = mindex.clusters_for(&req.mobility_vector(world.graph));
        let home = ctx.partitioning.partition_of(req.origin);
        let pickup_deadline = req.pickup_deadline();
        let slack_s = ctx.partitioning.radius_m(home) / TAXI_SPEED_MPS;
        let (mut out, mut union) = (Vec::new(), 0);
        for (i, entries) in pindex.entries.iter().enumerate() {
            let taxi_id = TaxiId(i as u32);
            let taxi = world.taxi(taxi_id);
            if !entries.iter().any(|&(p, _)| in_range.contains(&PartitionId(p))) {
                continue;
            }
            union += 1;
            if !taxi.alive {
                continue;
            }
            if !taxi.is_vacant()
                && !mindex.cluster_of(taxi_id).is_some_and(|c| aligned.contains(&c))
            {
                continue;
            }
            let committed: u32 = taxi
                .onboard
                .iter()
                .chain(taxi.assigned.iter())
                .map(|&r| world.requests.get(r).passengers as u32)
                .sum();
            if committed + req.passengers as u32 > taxi.capacity as u32 {
                continue;
            }
            let reachable = match entries.iter().find(|&&(p, _)| p == home.0) {
                Some(&(_, at)) => at <= pickup_deadline + slack_s,
                None => {
                    let pos = taxi.position_at(now);
                    let to_landmark = ctx.landmarks.cost_to_landmark(pos, home) as f64;
                    to_landmark.is_finite() && now + to_landmark - slack_s <= pickup_deadline
                }
            };
            if reachable {
                out.push(taxi_id);
            }
        }
        (out, union)
    }

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
            let mut rng = SmallRng::seed_from_u64(5);
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

        fn request(&mut self, origin: u32, dest: u32, release: f64) -> RideRequest {
            self.party(origin, dest, release, 1)
        }

        fn party(&mut self, origin: u32, dest: u32, release: f64, passengers: u8) -> RideRequest {
            let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
            let req = RideRequest {
                id: RequestId(self.requests.len() as u32),
                release_time: release,
                origin: NodeId(origin),
                destination: NodeId(dest),
                passengers,
                deadline: release + direct * 1.3,
                direct_cost_s: direct,
                offline: false,
            };
            self.requests.push(req.clone());
            req
        }

        fn leg(&self, from: NodeId, to: NodeId) -> Path {
            if from == to {
                return Path::trivial(from);
            }
            self.cache.path(from, to).unwrap()
        }
    }

    fn indexes(f: &Fixture, horizon_s: f64) -> (PartitionTaxiIndex, MobilityClusterIndex) {
        let mut p = PartitionTaxiIndex::new(f.ctx.kappa(), f.taxis.len());
        let mut m = MobilityClusterIndex::new(f.cfg.lambda, f.taxis.len());
        for t in &f.taxis {
            p.update_taxi(t, &f.ctx, 0.0, horizon_s);
            m.update_taxi(t, &f.graph, &f.requests, 0.0);
        }
        (p, m)
    }

    fn search(
        f: &Fixture,
        req: &RideRequest,
        now: Time,
        p: &PartitionTaxiIndex,
        m: &MobilityClusterIndex,
    ) -> Vec<TaxiId> {
        candidate_taxis(req, now, &f.world(), &f.ctx, &f.cfg, p, m, &Obs::disabled())
    }

    /// Gives `t` 1–3 riders (the first possibly on board) of parties of
    /// 1–2, and a route from where it stands at `now` through the first
    /// rider's trip.
    fn board(f: &mut Fixture, rng: &mut SmallRng, t: &mut Taxi, now: Time) {
        let start = t.position_at(now);
        let riders: Vec<RideRequest> = (0..rng.gen_range(1..=3))
            .map(|_| {
                let (o, d) = (rng.gen_range(0..400), rng.gen_range(0..400));
                f.party(o, d, now, rng.gen_range(1..=2))
            })
            .collect();
        for (k, r) in riders.iter().enumerate() {
            if k == 0 && rng.gen_bool(0.5) {
                t.onboard.push(r.id);
            } else {
                t.assigned.push(r.id);
            }
        }
        let first = &riders[0];
        let schedule = Schedule::new().with_insertion(first, 0, 1);
        let legs = [f.leg(start, first.origin), f.leg(first.origin, first.destination)];
        let route = TimedRoute::build_on(&f.graph, start, now, &legs, &schedule);
        t.set_plan(schedule, route, now);
    }

    #[test]
    fn vacant_nearby_taxi_is_candidate() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(21))); // near origin 0
        let req = f.request(0, 399, 0.0);
        let (p, m) = indexes(&f, TMP_HORIZON_S);
        let c = search(&f, &req, 0.0, &p, &m);
        assert_eq!(c, vec![TaxiId(0)]);
    }

    #[test]
    fn far_taxi_excluded_by_range() {
        let mut f = Fixture::new();
        // Grid spans ~2.3 km; shrink γ to isolate.
        f.cfg.max_search_range_m = 200.0;
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(399))); // opposite corner
        let req = f.request(0, 20, 0.0);
        let (p, m) = indexes(&f, TMP_HORIZON_S);
        let c = search(&f, &req, 0.0, &p, &m);
        assert!(c.is_empty());
    }

    #[test]
    fn full_taxi_filtered_by_capacity_rule() {
        let mut f = Fixture::new();
        let mut t = Taxi::new(TaxiId(0), 1, NodeId(21));
        f.taxis.push(t.clone());
        // Give the taxi an onboard request that fills it.
        let onboard = f.request(22, 399, 0.0);
        t.onboard.push(onboard.id);
        f.taxis[0] = t;
        let req = f.request(0, 399, 0.0);
        let (mut p, mut m) = indexes(&f, TMP_HORIZON_S);
        p.update_taxi(&f.taxis[0], &f.ctx, 0.0, TMP_HORIZON_S);
        m.update_taxi(&f.taxis[0], &f.graph, &f.requests, 0.0);
        let c = search(&f, &req, 0.0, &p, &m);
        assert!(c.is_empty());
    }

    #[test]
    fn busy_taxi_with_opposite_direction_excluded() {
        let mut f = Fixture::new();
        // Taxi near the NE corner heading SW.
        let mut t = Taxi::new(TaxiId(0), 4, NodeId(378));
        f.taxis.push(t.clone());
        let onboard = f.request(378, 0, 0.0); // heading SW
        t.onboard.push(onboard.id);
        f.taxis[0] = t;
        // Request near the taxi but heading NE (opposite).
        let req = f.request(357, 399, 0.0);
        let (mut p, mut m) = indexes(&f, TMP_HORIZON_S);
        p.update_taxi(&f.taxis[0], &f.ctx, 0.0, TMP_HORIZON_S);
        m.update_taxi(&f.taxis[0], &f.graph, &f.requests, 0.0);
        let c = search(&f, &req, 0.0, &p, &m);
        assert!(c.is_empty(), "opposite-direction taxi must be filtered, got {c:?}");
    }

    #[test]
    fn busy_taxi_with_same_direction_included() {
        let mut f = Fixture::new();
        let mut t = Taxi::new(TaxiId(0), 4, NodeId(22));
        f.taxis.push(t.clone());
        let onboard = f.request(22, 399, 0.0); // heading NE
        t.onboard.push(onboard.id);
        f.taxis[0] = t;
        let req = f.request(0, 398, 0.0); // also NE
        let (mut p, mut m) = indexes(&f, TMP_HORIZON_S);
        p.update_taxi(&f.taxis[0], &f.ctx, 0.0, TMP_HORIZON_S);
        m.update_taxi(&f.taxis[0], &f.graph, &f.requests, 0.0);
        let c = search(&f, &req, 0.0, &p, &m);
        assert_eq!(c, vec![TaxiId(0)]);
    }

    #[test]
    fn expired_wait_budget_returns_nothing() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(0)));
        let req = f.request(0, 399, 0.0);
        let (p, m) = indexes(&f, TMP_HORIZON_S);
        // Query long after the pickup deadline has passed.
        let late = req.deadline + 100.0;
        let c = search(&f, &req, late, &p, &m);
        assert!(c.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random fleets on the tiny grid — vacant taxis and busy ones with
        /// 1–3 riders, capacities 1–4, busy taxis driving a route (so
        /// listed in every partition on the way), half the fleet
        /// re-indexed at a later time — then churn: riders dropped so busy
        /// taxis turn vacant and cluster slots empty, vacant taxis boarding
        /// riders into recycled slots, dead taxis both reconciled out of
        /// the indexes and leaked into them. The live bitsets must equal
        /// those a snapshot round trip rebuilds from the per-taxi state,
        /// and on both the live and the restored indexes, requests at
        /// random `now` (some past their pickup deadline) under three
        /// search ranges get exactly the per-taxi scan's `Vec`, order
        /// included, and count its union.
        #[test]
        fn search_equals_the_per_taxi_scan(seed in 0u64..1_000_000) {
            let mut f = Fixture::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            // Up to 70 taxis: the bitsets cross a word boundary.
            for id in 0..rng.gen_range(1..=70u32) {
                let mut t = Taxi::new(TaxiId(id), rng.gen_range(1..=4), NodeId(rng.gen_range(0..400)));
                if rng.gen_bool(0.6) {
                    board(&mut f, &mut rng, &mut t, 0.0);
                }
                f.taxis.push(t);
            }
            let horizon_s = [120.0, 600.0, 3600.0][rng.gen_range(0..3usize)];
            let (mut p, mut m) = indexes(&f, horizon_s);
            let later = rng.gen_range(1.0..300.0);
            for i in 0..f.taxis.len() {
                if rng.gen_bool(0.5) {
                    p.update_taxi(&f.taxis[i], &f.ctx, later, horizon_s);
                    m.update_taxi(&f.taxis[i], &f.graph, &f.requests, later);
                }
            }
            let churn = later + rng.gen_range(1.0..300.0);
            for i in 0..f.taxis.len() {
                let mut t = f.taxis[i].clone();
                if !t.is_vacant() && rng.gen_bool(0.4) {
                    // Drop every rider: the taxi parks where it stands.
                    t.location = t.position_at(churn);
                    t.onboard.clear();
                    t.assigned.clear();
                    t.schedule = Schedule::new();
                    t.route = None;
                } else if !t.is_vacant() && rng.gen_bool(0.3) {
                    // Drop one rider: still busy, fewer seats held.
                    if t.assigned.pop().is_none() {
                        t.onboard.pop();
                    }
                } else if t.is_vacant() && rng.gen_bool(0.4) {
                    board(&mut f, &mut rng, &mut t, churn);
                } else if rng.gen_bool(0.5) {
                    // Untouched taxis are re-indexed half the time.
                    continue;
                }
                f.taxis[i] = t;
                p.update_taxi(&f.taxis[i], &f.ctx, churn, horizon_s);
                m.update_taxi(&f.taxis[i], &f.graph, &f.requests, churn);
            }
            for i in 0..f.taxis.len() {
                if rng.gen_bool(0.12) {
                    f.taxis[i].alive = false;
                    if rng.gen_bool(0.5) {
                        p.remove_taxi(TaxiId(i as u32));
                        m.remove_taxi(TaxiId(i as u32));
                    }
                }
            }
            let (p_bytes, m_bytes) = (p.to_bytes(), m.to_bytes());
            let p2 = PartitionTaxiIndex::from_bytes(&p_bytes).expect("partition index decodes");
            let m2 = MobilityClusterIndex::from_bytes(&m_bytes).expect("cluster index decodes");
            prop_assert_eq!(p2.to_bytes(), p_bytes);
            prop_assert_eq!(m2.to_bytes(), m_bytes);
            // No bit outlives the per-taxi state it was set from.
            prop_assert!(p2.sets == p.sets, "partition bitsets differ from a rebuild");
            prop_assert!(m2.sets == m.sets && m2.busy == m.busy, "cluster bitsets differ");
            for _ in 0..8 {
                let (o, d) = (rng.gen_range(0..400), rng.gen_range(0..400));
                if o == d {
                    continue;
                }
                let release = churn + rng.gen_range(0.0..200.0);
                let req = f.party(o, d, release, rng.gen_range(1..=2));
                // From the release to a little past the pickup deadline.
                let now = release + rng.gen_range(0.0..1.2) * req.wait_budget(release);
                f.cfg.max_search_range_m = [250.0, 700.0, 2500.0][rng.gen_range(0..3usize)];
                let want = candidate_taxis_by_scan(&req, now, &f.world(), &f.ctx, &f.cfg, &p, &m);
                for (p, m) in [(&p, &m), (&p2, &m2)] {
                    let obs = Obs::enabled();
                    let got = candidate_taxis(&req, now, &f.world(), &f.ctx, &f.cfg, p, m, &obs);
                    let union = obs.counter("counters", "candidate_union");
                    prop_assert_eq!((got, union), want.clone(), "seed {} {:?} at {}", seed, req.id, now);
                }
            }
        }
    }
}
