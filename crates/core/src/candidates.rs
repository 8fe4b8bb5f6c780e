//! Candidate taxi searching (Sec. IV-C1).
//!
//! For a request `r_i`, the searching range is `γ = speed × Δt` (Eq. 2).
//! The candidate set is the union of the partition taxi lists intersecting
//! the search circle, intersected with the mobility cluster sharing the
//! request's travel direction, plus vacant taxis in range (Eq. 3), refined
//! by the three filtering rules (capacity, reachability).
//!
//! The search reads the two standing indexes in place. Its only working
//! state is three bitsets over the fleet: the union of the in-range
//! `P_z.L_t` lists (walked in ascending id order — the order of the
//! result) and, for Rule 3, whom the home partition's list records and who
//! of those arrives in time. Rule 1 tests the taxi's cluster id against the
//! few aligned clusters instead of materializing `C_a.L_t`.
//!
//! Selection itself uses only O(1) landmark estimates; the *exact*
//! candidate-position → pickup costs are read on demand by the scheduling
//! pass from the pickup's pinned vector in `mtshare_routing::HotNodeOracle`.

use crate::config::MtShareConfig;
use crate::context::MobilityContext;
use crate::index::{MobilityClusterIndex, PartitionTaxiIndex};
use mtshare_model::{RideRequest, TaxiId, Time, World, TAXI_SPEED_MPS};

/// A set of taxis, one bit per fleet slot.
struct TaxiSet(Vec<u64>);

impl TaxiSet {
    fn new(fleet: usize) -> Self {
        Self(vec![0; fleet.div_ceil(64)])
    }

    /// Adds `taxi`; whether it was absent.
    fn insert(&mut self, taxi: TaxiId) -> bool {
        let (word, bit) = (&mut self.0[taxi.index() / 64], 1u64 << (taxi.index() % 64));
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }

    fn contains(&self, taxi: TaxiId) -> bool {
        self.0[taxi.index() / 64] & 1 << (taxi.index() % 64) != 0
    }

    /// Members in ascending id order.
    fn iter(&self) -> impl Iterator<Item = TaxiId> + '_ {
        (0..self.0.len() as u32 * 64).map(TaxiId).filter(|&taxi| self.contains(taxi))
    }
}

/// Runs the candidate search for `req` at time `now`. Candidates come back
/// in ascending id order.
pub fn candidate_taxis(
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    ctx: &MobilityContext,
    cfg: &MtShareConfig,
    pindex: &PartitionTaxiIndex,
    mindex: &MobilityClusterIndex,
) -> Vec<TaxiId> {
    let gamma = cfg.search_range_m(req.wait_budget(now));
    if gamma <= 0.0 {
        return Vec::new();
    }
    let origin_pt = world.graph.point(req.origin);
    let in_range = ctx.partitioning.intersecting_circle(&origin_pt, gamma);

    // Union of the partition lists (the geographic side of Eq. 3).
    let fleet = pindex.fleet_size();
    let mut base = TaxiSet::new(fleet);
    for &p in &in_range {
        for &(_, taxi) in pindex.taxis_in(p) {
            base.insert(taxi);
        }
    }

    // Directional side: every mobility cluster aligned with the request.
    let aligned = mindex.clusters_for(&req.mobility_vector(world.graph));

    let home = ctx.partitioning.partition_of(req.origin);
    let pickup_deadline = req.pickup_deadline();
    // Slack: crossing the home partition from its landmark.
    let slack_s = ctx.partitioning.radius_m(home) / TAXI_SPEED_MPS;
    // Rule 3's recorded arrivals, read off `P_home.L_t` once: who is
    // listed, and whose earliest (first) entry makes the deadline.
    let (mut listed, mut on_time) = (TaxiSet::new(fleet), TaxiSet::new(fleet));
    for &(at, taxi) in pindex.taxis_in(home) {
        if listed.insert(taxi) && at <= pickup_deadline + slack_s {
            on_time.insert(taxi);
        }
    }

    let mut out = Vec::new();
    for taxi_id in base.iter() {
        let taxi = world.taxi(taxi_id);
        // Defense in depth: broken-down taxis are reconciled out of the
        // indexes, but never propose one even if an entry leaks through.
        if !taxi.alive {
            continue;
        }
        // Rule 1 / Eq. 3: busy taxis must share the travel direction;
        // vacant taxis in range are always eligible.
        if !taxi.is_vacant() && !mindex.cluster_of(taxi_id).is_some_and(|c| aligned.contains(&c)) {
            continue;
        }
        // Rule 2: no idle capacity for this request's party.
        let committed: u32 = taxi
            .onboard
            .iter()
            .chain(taxi.assigned.iter())
            .map(|&r| world.requests.get(r).passengers as u32)
            .sum();
        if committed + req.passengers as u32 > taxi.capacity as u32 {
            continue;
        }
        // Rule 3: must be able to reach the request's partition before the
        // pick-up deadline. Prefer the recorded arrival time in `P_i.L_t`;
        // otherwise estimate via the landmark cost table.
        let reachable = if listed.contains(taxi_id) {
            on_time.contains(taxi_id)
        } else {
            let pos = taxi.position_at(now);
            let to_landmark = ctx.landmarks.cost_to_landmark(pos, home) as f64;
            to_landmark.is_finite() && now + to_landmark - slack_s <= pickup_deadline
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
    use mtshare_mobility::Trip;
    use mtshare_model::{RequestId, RequestStore, RideRequest, Schedule, Taxi, TimedRoute};
    use mtshare_road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
    use mtshare_routing::{HotNodeOracle, Path, PathCache};
    use proptest::prelude::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use rustc_hash::FxHashSet;
    use std::sync::Arc;

    /// The search as it stood before it read the indexes in place: two
    /// hash sets per request (the partition-list union, and every member
    /// of every aligned cluster), a linear `arrival_at` scan per survivor,
    /// a final sort. The oracle of `search_equals_the_set_based_search`.
    fn candidate_taxis_by_sets(
        req: &RideRequest,
        now: Time,
        world: &World<'_>,
        ctx: &MobilityContext,
        cfg: &MtShareConfig,
        pindex: &PartitionTaxiIndex,
        mindex: &MobilityClusterIndex,
    ) -> Vec<TaxiId> {
        let gamma = cfg.search_range_m(req.wait_budget(now));
        if gamma <= 0.0 {
            return Vec::new();
        }
        let origin_pt = world.graph.point(req.origin);
        let in_range = ctx.partitioning.intersecting_circle(&origin_pt, gamma);
        let mut base: FxHashSet<TaxiId> = FxHashSet::default();
        for &p in &in_range {
            for &(_, taxi) in pindex.taxis_in(p) {
                base.insert(taxi);
            }
        }
        if base.is_empty() {
            return Vec::new();
        }
        let mut cluster_members: FxHashSet<TaxiId> = FxHashSet::default();
        for c in mindex.clusters_for(&req.mobility_vector(world.graph)) {
            cluster_members.extend(mindex.taxis_in(c).iter().copied());
        }
        let home = ctx.partitioning.partition_of(req.origin);
        let pickup_deadline = req.pickup_deadline();
        let slack_s = ctx.partitioning.radius_m(home) / TAXI_SPEED_MPS;
        let mut out = Vec::with_capacity(base.len().min(64));
        for taxi_id in base {
            let taxi = world.taxi(taxi_id);
            if !taxi.alive {
                continue;
            }
            if !taxi.is_vacant() && !cluster_members.contains(&taxi_id) {
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
            let reachable = match pindex.arrival_at(home, taxi_id) {
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
        out.sort();
        out
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

    #[test]
    fn vacant_nearby_taxi_is_candidate() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(21))); // near origin 0
        let req = f.request(0, 399, 0.0);
        let (p, m) = indexes(&f, TMP_HORIZON_S);
        let c = candidate_taxis(&req, 0.0, &f.world(), &f.ctx, &f.cfg, &p, &m);
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
        let c = candidate_taxis(&req, 0.0, &f.world(), &f.ctx, &f.cfg, &p, &m);
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
        let c = candidate_taxis(&req, 0.0, &f.world(), &f.ctx, &f.cfg, &p, &m);
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
        let c = candidate_taxis(&req, 0.0, &f.world(), &f.ctx, &f.cfg, &p, &m);
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
        let c = candidate_taxis(&req, 0.0, &f.world(), &f.ctx, &f.cfg, &p, &m);
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
        let c = candidate_taxis(&req, late, &f.world(), &f.ctx, &f.cfg, &p, &m);
        assert!(c.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random fleets on the tiny grid — vacant taxis and busy ones with
        /// 1–3 riders, capacities 1–4, parties of 1–2, dead taxis both
        /// reconciled out of the indexes and leaked into them, busy taxis
        /// driving a route (so listed in every partition on the way), half
        /// the fleet re-indexed at a later time — queried by requests at
        /// random `now`, some past their pickup deadline, under three
        /// search ranges: exactly the oracle's `Vec`, order included.
        #[test]
        fn search_equals_the_set_based_search(seed in 0u64..1_000_000) {
            let mut f = Fixture::new();
            let mut rng = SmallRng::seed_from_u64(seed);
            let node = |rng: &mut SmallRng| rng.gen_range(0..400u32);
            // Up to 70 taxis: the bitsets cross a word boundary.
            for id in 0..rng.gen_range(1..=70u32) {
                let start = NodeId(node(&mut rng));
                let mut t = Taxi::new(TaxiId(id), rng.gen_range(1..=4), start);
                if rng.gen_bool(0.6) {
                    let riders: Vec<RideRequest> = (0..rng.gen_range(1..=3))
                        .map(|_| {
                            let (o, d) = (node(&mut rng), node(&mut rng));
                            f.party(o, d, 0.0, rng.gen_range(1..=2))
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
                    let legs =
                        [f.leg(start, first.origin), f.leg(first.origin, first.destination)];
                    let route = TimedRoute::build(start, 0.0, &legs, &schedule);
                    t.set_plan(schedule, route, 0.0);
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
                if rng.gen_bool(0.12) {
                    f.taxis[i].alive = false;
                    if rng.gen_bool(0.5) {
                        p.remove_taxi(TaxiId(i as u32));
                        m.remove_taxi(TaxiId(i as u32));
                    }
                }
            }
            for _ in 0..8 {
                let (o, d) = (node(&mut rng), node(&mut rng));
                if o == d {
                    continue;
                }
                let release = later + rng.gen_range(0.0..200.0);
                let req = f.party(o, d, release, rng.gen_range(1..=2));
                // From the release to a little past the pickup deadline.
                let now = release + rng.gen_range(0.0..1.2) * req.wait_budget(release);
                f.cfg.max_search_range_m = [250.0, 700.0, 2500.0][rng.gen_range(0..3usize)];
                let got = candidate_taxis(&req, now, &f.world(), &f.ctx, &f.cfg, &p, &m);
                let want = candidate_taxis_by_sets(&req, now, &f.world(), &f.ctx, &f.cfg, &p, &m);
                prop_assert_eq!(got, want, "seed {} request {:?} at {}", seed, req.id, now);
            }
        }
    }
}
