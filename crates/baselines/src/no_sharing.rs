//! No-Sharing: the regular taxi service baseline (Sec. V-A2).
//!
//! Assigns each request to the geographically nearest *vacant* taxi within
//! the searching range γ; the taxi serves the trip exclusively and becomes
//! available again after the drop-off.

use crate::common::shortest_legs;
use crate::grid_index::GridTaxiIndex;
use mtshare_model::{
    first_feasible, Assignment, DispatchOutcome, DispatchScheme, RideRequest, Taxi, TaxiId, Time,
    World, TAXI_SPEED_MPS,
};
use mtshare_road::RoadNetwork;

/// The No-Sharing baseline.
pub struct NoSharing {
    index: GridTaxiIndex,
    /// Searching range γ in metres (paper default 2.5 km).
    gamma_m: f64,
}

impl NoSharing {
    /// Creates the scheme with the searching range γ capped at `gamma_m`.
    pub fn new(graph: &RoadNetwork, n_taxis: usize, gamma_m: f64) -> Self {
        Self { index: GridTaxiIndex::new(graph, 500.0, n_taxis), gamma_m }
    }

    /// The searching range γ for a request at `now` (bounded by the rider's
    /// waiting budget like all schemes).
    fn gamma(&self, req: &RideRequest, now: Time) -> f64 {
        (TAXI_SPEED_MPS * req.wait_budget(now).max(0.0)).min(self.gamma_m)
    }
}

impl DispatchScheme for NoSharing {
    fn name(&self) -> &str {
        "No-Sharing"
    }

    fn install(&mut self, world: &World<'_>) {
        for t in world.taxis {
            self.index.update_taxi(t, world.graph, 0.0);
        }
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let origin_pt = world.graph.point(req.origin);
        let gamma = self.gamma(req, now);
        // Vacant taxis in range, nearest first.
        let mut candidates: Vec<(f64, TaxiId)> = Vec::new();
        self.index.visit_in_range(&origin_pt, gamma, |id| {
            let taxi = world.taxi(id);
            if taxi.alive && taxi.is_vacant() {
                let d = world.graph.point(taxi.position_at(now)).distance_m(&origin_pt);
                if d <= gamma {
                    candidates.push((d, id));
                }
            }
        });
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));

        let examined = candidates.len();
        for (_, id) in candidates {
            let taxi = world.taxi(id);
            let pos = taxi.position_at(now);
            // A vacant taxi has exactly one insertion pair (pickup then
            // drop-off at the front), so `first_feasible` evaluates the
            // direct-trip schedule the historical inline code built.
            let mut routed = None;
            let found = first_feasible(taxi, req, now, world, |schedule, _| {
                match shortest_legs(world, pos, schedule) {
                    Some(legs) => {
                        routed = Some(legs);
                        true
                    }
                    None => false,
                }
            });
            if let Some((schedule, eval)) = found {
                return DispatchOutcome {
                    assignment: Some(Assignment {
                        taxi: id,
                        schedule,
                        legs: routed.expect("accepted instance was routed"),
                        detour_cost_s: eval.total_cost_s,
                    }),
                    candidates_examined: examined,
                    feasible_instances: 1,
                };
            }
        }
        DispatchOutcome::rejected(examined)
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.index.update_taxi(taxi, world.graph, taxi.location_time);
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.index.update_taxi(taxi, world.graph, now);
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi, _world: &World<'_>) {
        self.index.remove_taxi(taxi.id);
    }

    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        Some(self.index.indexed_taxis())
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.index.snapshot_occupancy())
    }

    fn restore_state(&mut self, bytes: &[u8], _world: &World<'_>) -> Result<(), String> {
        self.index.restore_occupancy(bytes)
    }

    fn index_memory_bytes(&self) -> usize {
        self.index.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Bench;
    use mtshare_road::NodeId;

    #[test]
    fn assigns_nearest_vacant_taxi() {
        let mut b = Bench::new();
        b.add_taxi(NodeId(399)); // far
        b.add_taxi(NodeId(22)); // near
        let mut s = NoSharing::new(&b.graph, 2, 2500.0);
        b.install(&mut s);
        let req = b.make_request(21, 200, 0.0, 1.3);
        let out = b.dispatch(&mut s, &req, 0.0);
        let a = out.assignment.expect("nearest vacant taxi serves");
        assert_eq!(a.taxi, TaxiId(1));
        assert_eq!(a.schedule.len(), 2);
    }

    #[test]
    fn busy_taxis_never_selected() {
        let mut b = Bench::new();
        b.add_taxi(NodeId(22));
        let mut s = NoSharing::new(&b.graph, 1, 2500.0);
        b.install(&mut s);
        let r1 = b.make_request(21, 399, 0.0, 1.3);
        let out = b.dispatch_and_commit(&mut s, &r1, 0.0);
        assert!(out);
        // Second request while the only taxi is busy: rejected.
        let r2 = b.make_request(23, 300, 1.0, 1.3);
        let out = b.dispatch(&mut s, &r2, 1.0);
        assert!(out.assignment.is_none());
    }

    #[test]
    fn respects_search_range() {
        let mut b = Bench::new();
        b.add_taxi(NodeId(399));
        let mut s = NoSharing::new(&b.graph, 1, 150.0);
        b.install(&mut s);
        let req = b.make_request(0, 40, 0.0, 2.0);
        let out = b.dispatch(&mut s, &req, 0.0);
        assert!(out.assignment.is_none());
        assert_eq!(out.candidates_examined, 0);
    }
}
