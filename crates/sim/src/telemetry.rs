//! Rejection-reason classification for the observability event stream.
//!
//! The dispatcher itself only reports *that* a request could not be placed
//! (an empty [`mtshare_model::DispatchOutcome`]); the reason taxonomy the
//! summary JSON breaks rejections down by is recovered here from the world
//! state the decision was made against. Classification is a pure function
//! of the request and the world snapshot, so it is deterministic and
//! adds zero cost on the accept path.

use mtshare_model::{RideRequest, World};
use mtshare_obs::RejectReason;

/// Explains why `req` was rejected, given the world it was dispatched
/// against.
///
/// Checks run from the most structural cause to the most situational one,
/// and the first match wins:
///
/// 1. [`RejectReason::EmptyFleet`] — there are no taxis at all;
/// 2. [`RejectReason::UnreachableOd`] — no path connects origin to
///    destination, so no taxi could ever serve it;
/// 3. [`RejectReason::InfeasibleDeadline`] — the deadline is violated even
///    by a taxi standing on the origin at release time;
/// 4. [`RejectReason::ZeroCapacity`] — no taxi in the fleet has enough
///    seats for the rider group, regardless of schedules;
/// 5. [`RejectReason::NoFeasibleInsertion`] — the request was serviceable
///    in principle but no current schedule admitted it (the "honest"
///    rejection the paper's Sec. V measures).
///
/// [`RejectReason::OfflineExpired`] is never returned here: expiry is
/// detected by the simulator clock, not by a dispatch attempt.
pub fn classify_rejection(req: &RideRequest, world: &World<'_>) -> RejectReason {
    if world.taxis.is_empty() {
        return RejectReason::EmptyFleet;
    }
    if world.cache.cost(req.origin, req.destination).is_none() {
        return RejectReason::UnreachableOd;
    }
    if !req.is_feasible() {
        return RejectReason::InfeasibleDeadline;
    }
    if world.taxis.iter().all(|t| t.capacity < req.passengers) {
        return RejectReason::ZeroCapacity;
    }
    RejectReason::NoFeasibleInsertion
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_model::{RequestId, RequestStore, Taxi, TaxiId};
    use mtshare_road::{grid_city, EdgeSpec, GeoPoint, GridCityConfig, NodeId, RoadNetwork};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use std::sync::Arc;

    fn req(origin: u32, destination: u32, direct: f64, slack: f64) -> RideRequest {
        RideRequest {
            id: RequestId(0),
            release_time: 0.0,
            origin: NodeId(origin),
            destination: NodeId(destination),
            passengers: 1,
            deadline: direct + slack,
            direct_cost_s: direct,
            offline: false,
        }
    }

    fn world_over<'a>(
        graph: &'a Arc<RoadNetwork>,
        cache: &'a PathCache,
        oracle: &'a HotNodeOracle,
        taxis: &'a [Taxi],
        requests: &'a RequestStore,
    ) -> World<'a> {
        World { graph, cache, oracle, taxis, requests }
    }

    #[test]
    fn empty_fleet_wins_over_everything() {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(g.clone());
        let oracle = HotNodeOracle::new(g.clone());
        let requests = RequestStore::new();
        let w = world_over(&g, &cache, &oracle, &[], &requests);
        // Even an outright infeasible request classifies as empty-fleet.
        let r = req(0, 399, f64::INFINITY, -1e9);
        assert_eq!(classify_rejection(&r, &w), RejectReason::EmptyFleet);
    }

    #[test]
    fn unreachable_od_detected_from_the_cache() {
        // One-way pair: 0 → 1 exists, 1 → 0 does not.
        let pts = vec![GeoPoint::new(30.0, 104.0), GeoPoint::new(30.001, 104.0)];
        let edges =
            vec![EdgeSpec { from: NodeId(0), to: NodeId(1), length_m: 10.0, speed_kmh: 15.0 }];
        let g = Arc::new(RoadNetwork::new(pts, &edges).unwrap());
        let cache = PathCache::new(g.clone());
        let oracle = HotNodeOracle::new(g.clone());
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        let requests = RequestStore::new();
        let w = world_over(&g, &cache, &oracle, &taxis, &requests);
        let r = req(1, 0, f64::INFINITY, 1e9);
        assert_eq!(classify_rejection(&r, &w), RejectReason::UnreachableOd);
    }

    #[test]
    fn deadline_capacity_and_fallback_in_order() {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(g.clone());
        let oracle = HotNodeOracle::new(g.clone());
        let taxis = vec![Taxi::new(TaxiId(0), 2, NodeId(0))];
        let requests = RequestStore::new();
        let w = world_over(&g, &cache, &oracle, &taxis, &requests);
        let direct = cache.cost(NodeId(0), NodeId(399)).unwrap();

        let late = req(0, 399, direct, -1.0);
        assert_eq!(classify_rejection(&late, &w), RejectReason::InfeasibleDeadline);

        let mut bus = req(0, 399, direct, 600.0);
        bus.passengers = 5; // larger than any taxi's capacity
        assert_eq!(classify_rejection(&bus, &w), RejectReason::ZeroCapacity);

        let plain = req(0, 399, direct, 600.0);
        assert_eq!(classify_rejection(&plain, &w), RejectReason::NoFeasibleInsertion);
    }
}
