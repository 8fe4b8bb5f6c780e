//! pGreedyDP (Tong et al., VLDB'18): grid index + dynamic-programming
//! insertion (Sec. V-A2).
//!
//! Candidates are *all* taxis within γ of the request's origin (no
//! direction or destination filtering — the largest candidate sets of
//! Table III). For each candidate the optimal insertion positions are found
//! with the O(m²) DP of the unified route-planning framework: prefix
//! arrival times, suffix deadline slacks, and range load maxima let every
//! (i, j) pair be checked in O(1).

use crate::common::{remaining_cost, shortest_legs};
use crate::grid_index::GridTaxiIndex;
use mtshare_model::{
    Assignment, DispatchOutcome, DispatchScheme, DpEngine, EngineStats, RideRequest,
    ScheduleEngine, Scored, Taxi, TaxiId, Time, World, TAXI_SPEED_MPS,
};
use mtshare_road::RoadNetwork;

/// The pGreedyDP baseline.
pub struct PGreedyDp {
    index: GridTaxiIndex,
    engine: Box<dyn ScheduleEngine>,
    gamma_m: f64,
}

pub use mtshare_model::{best_insertion as best_insertion_dp, BestInsertion};

impl PGreedyDp {
    /// Creates the scheme with the searching range γ capped at `gamma_m`.
    pub fn new(graph: &RoadNetwork, n_taxis: usize, gamma_m: f64) -> Self {
        Self {
            index: GridTaxiIndex::new(graph, 500.0, n_taxis),
            engine: Box::new(DpEngine),
            gamma_m,
        }
    }

    /// This scheme scoring through `engine` (`--scheduler dp|dtree`);
    /// results are bit-identical across engines.
    pub fn with_engine(mut self, engine: Box<dyn ScheduleEngine>) -> Self {
        self.engine = engine;
        self
    }
}

impl DispatchScheme for PGreedyDp {
    fn name(&self) -> &str {
        "pGreedyDP"
    }

    fn install(&mut self, world: &World<'_>) {
        for t in world.taxis {
            self.index.update_taxi(t, world.graph, 0.0);
        }
    }

    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        let origin_pt = world.graph.point(req.origin);
        let gamma = (TAXI_SPEED_MPS * req.wait_budget(now).max(0.0)).min(self.gamma_m);
        let mut candidates: Vec<TaxiId> = Vec::new();
        self.index.visit_in_range(&origin_pt, gamma, |id| {
            let taxi = world.taxi(id);
            if taxi.alive
                && world.graph.point(taxi.position_at(now)).distance_m(&origin_pt) <= gamma
            {
                candidates.push(id);
            }
        });
        let examined = candidates.len();

        let mut best: Option<(TaxiId, BestInsertion)> = None;
        for &id in &candidates {
            let taxi = world.taxi(id);
            if let Scored::Feasible(ins) =
                self.engine
                    .best_insertion(taxi, req, now, world, &mut |a, b| world.oracle.cost(a, b))
            {
                if best.is_none_or(|(_, b)| ins.delta_s < b.delta_s) {
                    best = Some((id, ins));
                }
            }
        }

        let Some((id, ins)) = best else {
            return DispatchOutcome::rejected(examined);
        };
        let taxi = world.taxi(id);
        let pos = taxi.position_at(now);
        let schedule = taxi.schedule.with_insertion(req, ins.i, ins.j);
        let Some(legs) = shortest_legs(world, pos, &schedule) else {
            return DispatchOutcome::rejected(examined);
        };
        let total: f64 = legs.iter().map(|l| l.cost_s).sum();
        DispatchOutcome {
            assignment: Some(Assignment {
                taxi: id,
                schedule,
                legs,
                detour_cost_s: total - remaining_cost(taxi, now),
            }),
            candidates_examined: examined,
            feasible_instances: 1,
        }
    }

    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.engine.after_assign(taxi, world);
        self.index.update_taxi(taxi, world.graph, taxi.location_time);
    }

    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.engine.on_taxi_progress(taxi, world);
        self.index.update_taxi(taxi, world.graph, now);
    }

    fn on_taxi_removed(&mut self, taxi: &Taxi, _world: &World<'_>) {
        self.engine.on_taxi_removed(taxi);
        self.index.remove_taxi(taxi.id);
    }

    fn indexed_taxis(&self) -> Option<Vec<TaxiId>> {
        Some(self.index.indexed_taxis())
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.index.snapshot_occupancy())
    }

    fn restore_state(&mut self, bytes: &[u8], _world: &World<'_>) -> Result<(), String> {
        self.engine.invalidate_all();
        self.index.restore_occupancy(bytes)
    }

    fn index_memory_bytes(&self) -> usize {
        self.index.memory_bytes()
    }

    fn scheduler_stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::Bench;
    use mtshare_model::{evaluate_schedule, EvalContext};

    /// Brute-force oracle: enumerate every insertion with
    /// `evaluate_schedule` and return the min added cost.
    fn brute_force(
        taxi: &Taxi,
        req: &RideRequest,
        now: f64,
        world: &World<'_>,
    ) -> Option<(usize, usize, f64)> {
        let pos = taxi.position_at(now);
        let remaining: f64 = {
            let mut c = 0.0;
            let mut from = pos;
            for ev in taxi.schedule.events() {
                c += world.oracle.cost(from, ev.node)?;
                from = ev.node;
            }
            c
        };
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
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..=m {
            for j in (i + 1)..=(m + 1) {
                let s = taxi.schedule.with_insertion(req, i, j);
                if let Some(eval) = evaluate_schedule(&s, &ectx, |a, b| world.oracle.cost(a, b)) {
                    // Also require the pickup deadline (the DP enforces it).
                    let pickup_idx = i;
                    if eval.arrival_times[pickup_idx] > req.pickup_deadline() + 1e-6 {
                        continue;
                    }
                    let delta = eval.total_cost_s - remaining;
                    if best.is_none_or(|(_, _, b)| delta < b) {
                        best = Some((i, j, delta));
                    }
                }
            }
        }
        best
    }

    #[test]
    fn dp_matches_brute_force_on_busy_taxi() {
        let mut b = Bench::new();
        let tid = b.add_taxi(mtshare_road::NodeId(0));
        let mut s = PGreedyDp::new(&b.graph, 1, 2500.0);
        b.install(&mut s);
        // Build up a schedule with two committed requests.
        let r1 = b.make_request(1, 399, 0.0, 2.0);
        assert!(b.dispatch_and_commit(&mut s, &r1, 0.0));
        let r2 = b.make_request(22, 380, 1.0, 2.0);
        assert!(b.dispatch_and_commit(&mut s, &r2, 1.0));
        // Probe DP vs brute force for a third request.
        let r3 = b.make_request(44, 360, 2.0, 2.0);
        let world = b.world();
        let taxi = world.taxi(tid);
        let dp = best_insertion_dp(taxi, &r3, 2.0, &world, |x, y| world.oracle.cost(x, y));
        let bf = brute_force(taxi, &r3, 2.0, &world);
        match (dp, bf) {
            (Some(d), Some((_, _, bcost))) => {
                assert!(
                    (d.delta_s - bcost).abs() < 1.0,
                    "dp delta {} vs brute force {}",
                    d.delta_s,
                    bcost
                );
            }
            (None, None) => {}
            (d, f) => panic!("dp {d:?} vs brute {f:?} disagree on feasibility"),
        }
    }

    #[test]
    fn dp_on_vacant_taxi_is_direct_trip() {
        let mut b = Bench::new();
        let tid = b.add_taxi(mtshare_road::NodeId(0));
        let req = b.make_request(21, 200, 0.0, 1.5);
        let world = b.world();
        let taxi = world.taxi(tid);
        let ins =
            best_insertion_dp(taxi, &req, 0.0, &world, |x, y| world.oracle.cost(x, y)).unwrap();
        assert_eq!((ins.i, ins.j), (0, 1));
        let expect = world.oracle.cost(mtshare_road::NodeId(0), req.origin).unwrap()
            + world.oracle.cost(req.origin, req.destination).unwrap();
        assert!((ins.delta_s - expect).abs() < 1e-6);
    }

    #[test]
    fn dp_rejects_infeasible_deadline() {
        let mut b = Bench::new();
        let tid = b.add_taxi(mtshare_road::NodeId(399));
        let req = b.make_request(0, 20, 0.0, 1.01);
        let world = b.world();
        let taxi = world.taxi(tid);
        assert!(
            best_insertion_dp(taxi, &req, 0.0, &world, |x, y| world.oracle.cost(x, y)).is_none()
        );
    }

    #[test]
    fn scheme_picks_global_minimum_detour() {
        let mut b = Bench::new();
        b.add_taxi(mtshare_road::NodeId(45));
        b.add_taxi(mtshare_road::NodeId(22));
        let mut s = PGreedyDp::new(&b.graph, 2, 2500.0);
        b.install(&mut s);
        let req = b.make_request(21, 200, 0.0, 2.0);
        let out = b.dispatch(&mut s, &req, 0.0);
        let a = out.assignment.unwrap();
        assert_eq!(out.candidates_examined, 2);
        // Taxi 1 at node 22 is closer to origin 21 → smaller detour.
        assert_eq!(a.taxi, TaxiId(1));
    }

    #[test]
    fn candidate_set_ignores_direction() {
        // A taxi heading opposite is still a candidate for pGreedyDP
        // (unlike mT-Share) — it is only rejected if infeasible.
        let mut b = Bench::new();
        let tid = b.add_taxi(mtshare_road::NodeId(22));
        let mut s = PGreedyDp::new(&b.graph, 1, 2500.0);
        b.install(&mut s);
        let r1 = b.make_request(22, 0, 0.0, 2.0); // heading SW
        assert!(b.dispatch_and_commit(&mut s, &r1, 0.0));
        let _ = tid;
        let r2 = b.make_request(23, 399, 1.0, 3.0); // heading NE
        let out = b.dispatch(&mut s, &r2, 1.0);
        assert_eq!(out.candidates_examined, 1, "opposite-direction taxi still examined");
    }
}
