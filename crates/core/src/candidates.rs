//! Candidate taxi searching (Sec. IV-C1).
//!
//! For a request `r_i`, the searching range is `γ = speed × Δt` (Eq. 2).
//! The candidate set is the union of the partition taxi lists intersecting
//! the search circle, intersected with the mobility cluster sharing the
//! request's travel direction, plus vacant taxis in range (Eq. 3), refined
//! by the three filtering rules (capacity, reachability).
//!
//! Selection itself uses only O(1) landmark estimates; the *exact*
//! candidate-position → pickup costs are read on demand by the scheduling
//! pass from the pickup's pinned vector in `mtshare_routing::HotNodeOracle`.

use crate::config::MtShareConfig;
use crate::context::MobilityContext;
use crate::index::{MobilityClusterIndex, PartitionTaxiIndex};
use mtshare_model::{RideRequest, TaxiId, Time, World};
use rustc_hash::FxHashSet;

/// Runs the candidate search for `req` at time `now`.
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
    let mut base: FxHashSet<TaxiId> = FxHashSet::default();
    for &p in &in_range {
        for &(_, taxi) in pindex.taxis_in(p) {
            base.insert(taxi);
        }
    }
    if base.is_empty() {
        return Vec::new();
    }

    // Directional side: every mobility cluster aligned with the request.
    let mut cluster_members: FxHashSet<TaxiId> = FxHashSet::default();
    for c in mindex.clusters_for(&req.mobility_vector(world.graph)) {
        cluster_members.extend(mindex.taxis_in(c).iter().copied());
    }

    let home = ctx.partitioning.partition_of(req.origin);
    let pickup_deadline = req.pickup_deadline();
    // Slack: crossing the home partition from its landmark.
    let slack_s = ctx.partitioning.radius_m(home) / cfg.speed_mps();

    let mut out = Vec::with_capacity(base.len().min(64));
    for taxi_id in base {
        let taxi = world.taxi(taxi_id);
        // Defense in depth: broken-down taxis are reconciled out of the
        // indexes, but never propose one even if an entry leaks through.
        if !taxi.alive {
            continue;
        }
        // Rule 1 / Eq. 3: busy taxis must share the travel direction;
        // vacant taxis in range are always eligible.
        if !taxi.is_vacant() && !cluster_members.contains(&taxi_id) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{MobilityContext, PartitionStrategy};
    use mtshare_mobility::Trip;
    use mtshare_model::{RequestId, RequestStore, RideRequest, Taxi};
    use mtshare_road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

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
            let direct = self.cache.cost(NodeId(origin), NodeId(dest)).unwrap();
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
    }

    fn indexes(f: &Fixture) -> (PartitionTaxiIndex, MobilityClusterIndex) {
        let mut p = PartitionTaxiIndex::new(f.ctx.kappa(), f.taxis.len());
        let mut m = MobilityClusterIndex::new(f.cfg.lambda, f.taxis.len());
        for t in &f.taxis {
            p.update_taxi(t, &f.ctx, 0.0, f.cfg.tmp_horizon_s);
            m.update_taxi(t, &f.graph, &f.requests, 0.0);
        }
        (p, m)
    }

    #[test]
    fn vacant_nearby_taxi_is_candidate() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(21))); // near origin 0
        let req = f.request(0, 399, 0.0);
        let (p, m) = indexes(&f);
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
        let (p, m) = indexes(&f);
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
        let (mut p, mut m) = indexes(&f);
        p.update_taxi(&f.taxis[0], &f.ctx, 0.0, f.cfg.tmp_horizon_s);
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
        let (mut p, mut m) = indexes(&f);
        p.update_taxi(&f.taxis[0], &f.ctx, 0.0, f.cfg.tmp_horizon_s);
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
        let (mut p, mut m) = indexes(&f);
        p.update_taxi(&f.taxis[0], &f.ctx, 0.0, f.cfg.tmp_horizon_s);
        m.update_taxi(&f.taxis[0], &f.graph, &f.requests, 0.0);
        let c = candidate_taxis(&req, 0.0, &f.world(), &f.ctx, &f.cfg, &p, &m);
        assert_eq!(c, vec![TaxiId(0)]);
    }

    #[test]
    fn expired_wait_budget_returns_nothing() {
        let mut f = Fixture::new();
        f.taxis.push(Taxi::new(TaxiId(0), 4, NodeId(0)));
        let req = f.request(0, 399, 0.0);
        let (p, m) = indexes(&f);
        // Query long after the pickup deadline has passed.
        let late = req.deadline + 100.0;
        let c = candidate_taxis(&req, late, &f.world(), &f.ctx, &f.cfg, &p, &m);
        assert!(c.is_empty());
    }
}
