//! T-Share (Ma et al., ICDE'13 / TKDE'15): the grid + dual-side-search
//! baseline (Sec. V-A2).
//!
//! Candidate taxis are found with a **dual-side search**: the taxi must be
//! within the searching range γ of the request's *origin* and within the
//! delivery window's reach of its *destination*. This double constraint is
//! what "mistakenly removes many possible taxis" (Sec. V-B1, Table III).
//! T-Share then returns the **first valid** candidate (nearest first), not
//! the minimum-detour one.

use crate::common::{committed_load, remaining_cost, shortest_legs};
use crate::grid_index::GridTaxiIndex;
use mtshare_model::{
    first_feasible, Assignment, DispatchOutcome, DispatchScheme, RideRequest, Taxi, TaxiId, Time,
    World, TAXI_SPEED_MPS,
};
use mtshare_road::RoadNetwork;

/// The T-Share baseline.
pub struct TShare {
    index: GridTaxiIndex,
    gamma_m: f64,
}

impl TShare {
    /// Creates the scheme with the searching range γ capped at `gamma_m`.
    pub fn new(graph: &RoadNetwork, n_taxis: usize, gamma_m: f64) -> Self {
        Self { index: GridTaxiIndex::new(graph, 500.0, n_taxis), gamma_m }
    }
}

impl DispatchScheme for TShare {
    fn name(&self) -> &str {
        "T-Share"
    }

    fn install(&mut self, world: &World<'_>) {
        for t in world.taxis {
            self.index.update_taxi(t, world.graph, 0.0);
        }
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let origin_pt = world.graph.point(req.origin);
        let dest_pt = world.graph.point(req.destination);
        let gamma = (TAXI_SPEED_MPS * req.wait_budget(now).max(0.0)).min(self.gamma_m);
        // Destination-side reach: how far a taxi may currently be from the
        // destination and still deliver before the deadline.
        let dest_reach = TAXI_SPEED_MPS * (req.deadline - now).max(0.0);

        let mut candidates: Vec<(f64, TaxiId)> = Vec::new();
        self.index.visit_in_range(&origin_pt, gamma, |id| {
            let taxi = world.taxi(id);
            if !taxi.alive {
                return;
            }
            let p = world.graph.point(taxi.position_at(now));
            let d_origin = p.distance_m(&origin_pt);
            if d_origin > gamma {
                return;
            }
            // Dual side. Vacant taxis: the destination must be reachable
            // from their position inside the delivery window. Busy taxis:
            // their *committed route* must approach the destination within
            // γ — projected routes are all the destination-side grid
            // search sees, which is exactly why the dual-side search
            // "mistakenly removes many possible taxis" (Sec. V-B1).
            match &taxi.route {
                None => {
                    if p.distance_m(&dest_pt) > dest_reach {
                        return;
                    }
                }
                Some(route) => {
                    let near_dest = route
                        .nodes_in_window(now, req.deadline)
                        .step_by(3)
                        .any(|(n, _)| world.graph.point(n).distance_m(&dest_pt) <= gamma);
                    if !near_dest {
                        return;
                    }
                }
            }
            if committed_load(taxi, world) + req.passengers as u32 > taxi.capacity as u32 {
                return;
            }
            candidates.push((d_origin, id));
        });
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let examined = candidates.len();

        // First valid candidate wins; within a candidate, the first
        // feasible insertion in pinned `(i, j)` order wins (no min-detour
        // optimization). Rejecting an instance whose legs cannot be routed
        // abandons pickup position `i` — `first_feasible`
        // replicates the historical `continue 'positions` behaviour.
        for &(_, id) in &candidates {
            let taxi = world.taxi(id);
            let pos = taxi.position_at(now);
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
                        detour_cost_s: eval.total_cost_s - remaining_cost(taxi, now),
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
    fn serves_simple_request() {
        let mut b = Bench::new();
        b.add_taxi(NodeId(22));
        let mut s = TShare::new(&b.graph, 1, 2500.0);
        b.install(&mut s);
        let req = b.make_request(21, 120, 0.0, 1.5);
        let out = b.dispatch(&mut s, &req, 0.0);
        assert!(out.assignment.is_some());
        assert_eq!(out.candidates_examined, 1);
    }

    #[test]
    fn returns_first_valid_not_best() {
        let mut b = Bench::new();
        // Taxi 0 sits exactly at the origin; taxi 1 a block away.
        b.add_taxi(NodeId(42));
        b.add_taxi(NodeId(22));
        let mut s = TShare::new(&b.graph, 2, 2500.0);
        b.install(&mut s);
        let req = b.make_request(42, 200, 0.0, 2.0);
        let out = b.dispatch(&mut s, &req, 0.0);
        let a = out.assignment.unwrap();
        // Nearest-by-distance candidate is tried first and is valid.
        assert_eq!(a.taxi, TaxiId(0));
    }

    #[test]
    fn dual_side_search_removes_far_destination_taxis() {
        let mut b = Bench::new();
        b.add_taxi(NodeId(21));
        let mut s = TShare::new(&b.graph, 1, 2500.0);
        b.install(&mut s);
        // Tight deadline: taxi near the origin but the destination-side
        // window cannot be met from its current position.
        let req = b.make_request(20, 399, 0.0, 1.01);
        let out = b.dispatch(&mut s, &req, 0.0);
        // The candidate either fails the dual-side test or the deadline.
        assert!(out.assignment.is_none());
    }

    #[test]
    fn shares_when_capacity_allows() {
        let mut b = Bench::new();
        b.add_taxi(NodeId(0));
        let mut s = TShare::new(&b.graph, 1, 2500.0);
        b.install(&mut s);
        let r1 = b.make_request(1, 399, 0.0, 2.0);
        assert!(b.dispatch_and_commit(&mut s, &r1, 0.0));
        let r2 = b.make_request(23, 380, 5.0, 2.0);
        let out = b.dispatch(&mut s, &r2, 5.0);
        assert!(out.assignment.is_some(), "aligned second rider should share");
        assert_eq!(out.assignment.unwrap().schedule.len(), 4);
    }
}
