//! The O(m²) optimal-insertion operator.
//!
//! Given a taxi's committed schedule, finds the cheapest feasible pair of
//! positions for a new request's pick-up and drop-off while keeping the
//! existing event order — the primitive both mT-Share's taxi scheduling
//! (Alg. 1 of the paper) and pGreedyDP's DP insertion evaluate per
//! candidate. Prefix arrival times, suffix deadline slacks and running
//! load maxima make every (i, j) pair an O(1) check; results are
//! identical to brute-force enumeration over `evaluate_schedule`
//! (property-tested in `tests/insertion_oracle.rs`).

use crate::request::RideRequest;
use crate::schedule::{evaluate_schedule, EvalContext, EventKind, Schedule, ScheduleEvaluation};
use crate::taxi::Taxi;
use crate::{Time, World};
use mtshare_road::NodeId;

/// Best feasible insertion found for one taxi.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestInsertion {
    /// Pickup position for [`crate::Schedule::with_insertion`].
    pub i: usize,
    /// Drop-off position in the resulting sequence.
    pub j: usize,
    /// Added route cost in seconds (the detour ω of Eq. 4).
    pub delta_s: f64,
}

/// Finds the minimum-added-cost feasible insertion of `req` into `taxi`'s
/// schedule, or `None` when no feasible pair exists. `cost` is the
/// shortest-path oracle (`None` = unreachable).
pub fn best_insertion(
    taxi: &Taxi,
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    mut cost: impl FnMut(NodeId, NodeId) -> Option<f64>,
) -> Option<BestInsertion> {
    let events = taxi.schedule.events();
    let m = events.len();
    let capacity = taxi.capacity as u32;
    let p = req.passengers as u32;

    // Node sequence n_0..n_m and arrival times a_0..a_m.
    let mut nodes = Vec::with_capacity(m + 1);
    nodes.push(taxi.position_at(now));
    let mut arrivals = vec![now];
    for ev in events {
        let c = cost(*nodes.last().expect("non-empty"), ev.node)?;
        arrivals.push(arrivals.last().expect("non-empty") + c);
        nodes.push(ev.node);
    }

    // Load after each prefix (index 0 = before any event).
    let mut loads = Vec::with_capacity(m + 1);
    loads.push(taxi.onboard_load(world.requests));
    for ev in events {
        let riders = world.requests.get(ev.request).passengers as u32;
        let prev = *loads.last().expect("non-empty");
        loads.push(match ev.kind {
            EventKind::Pickup => prev + riders,
            EventKind::Dropoff => prev.saturating_sub(riders),
        });
    }
    if loads[0] + p > capacity && m == 0 {
        return None;
    }

    // Suffix slack: slack[k] = min over q ≥ k of (deadline_q − arrival_q):
    // the maximum delay injectable before event k.
    let mut slack = vec![f64::INFINITY; m + 2];
    for k in (1..=m).rev() {
        let ev = &events[k - 1];
        let own = match ev.kind {
            EventKind::Dropoff => world.requests.get(ev.request).deadline - arrivals[k],
            EventKind::Pickup => f64::INFINITY,
        };
        slack[k] = own.min(slack[k + 1]);
        if slack[k] < 0.0 {
            return None; // committed plan already violates a deadline
        }
    }

    let pickup_delta =
        |cost: &mut dyn FnMut(NodeId, NodeId) -> Option<f64>, i: usize| -> Option<f64> {
            let prev = nodes[i - 1];
            if i <= m {
                Some(cost(prev, req.origin)? + cost(req.origin, nodes[i])? - cost(prev, nodes[i])?)
            } else {
                cost(prev, req.origin)
            }
        };

    let mut best: Option<BestInsertion> = None;

    for i in 1..=m + 1 {
        if loads[i - 1] + p > capacity {
            continue;
        }
        // A genuinely negative detour is impossible (triangle inequality);
        // a tiny negative here means the origin sits *on* the shortest
        // path and f32 rounding leaked through — the best possible pickup
        // spot, not an infeasible one. Clamp instead of skipping.
        let Some(dp) = pickup_delta(&mut cost, i) else { continue };
        let dp = dp.max(0.0);
        let arrival_pickup = if i <= m {
            arrivals[i - 1] + cost(nodes[i - 1], req.origin)?
        } else {
            arrivals[m] + cost(nodes[m], req.origin)?
        };
        if arrival_pickup > req.pickup_deadline() + 1e-6 {
            continue;
        }

        // j == i: drop-off immediately after pickup.
        {
            let leg_od = cost(req.origin, req.destination)?;
            let (pair_delta, arrive_d) = if i <= m {
                let d = cost(nodes[i - 1], req.origin)? + leg_od + cost(req.destination, nodes[i])?
                    - cost(nodes[i - 1], nodes[i])?;
                (d, arrival_pickup + leg_od)
            } else {
                (cost(nodes[m], req.origin)? + leg_od, arrival_pickup + leg_od)
            };
            let ok = arrive_d <= req.deadline + 1e-6 && pair_delta <= slack[i] + 1e-6;
            if ok && best.is_none_or(|b| pair_delta < b.delta_s) {
                best = Some(BestInsertion { i: i - 1, j: i, delta_s: pair_delta });
            }
        }

        // j > i: drop-off later; the pickup delay dp must fit every
        // mid-window event's slack, the pair total must fit slack[j].
        if i <= m {
            let mut mid_slack_ok = dp <= slack[i] + 1e-6;
            for j in (i + 1)..=(m + 1) {
                if loads[j - 1] + p > capacity {
                    break;
                }
                if !mid_slack_ok {
                    break;
                }
                let dd = if j <= m {
                    cost(nodes[j - 1], req.destination)? + cost(req.destination, nodes[j])?
                        - cost(nodes[j - 1], nodes[j])?
                } else {
                    cost(nodes[m], req.destination)?
                };
                let arrive_d = arrivals[j - 1] + dp + cost(nodes[j - 1], req.destination)?;
                let total = dp + dd.max(0.0);
                let ok = arrive_d <= req.deadline + 1e-6 && total <= slack[j] + 1e-6;
                if ok && best.is_none_or(|b| total < b.delta_s) {
                    best = Some(BestInsertion { i: i - 1, j, delta_s: total });
                }
                if j <= m {
                    let ev = &events[j - 1];
                    if ev.kind == EventKind::Dropoff {
                        let own = world.requests.get(ev.request).deadline - arrivals[j];
                        if dp > own + 1e-6 {
                            mid_slack_ok = false;
                        }
                    }
                }
            }
        }
    }
    best
}

/// First-valid insertion enumeration shared by the T-Share and NoSharing
/// baselines: walks `(i, j)` pairs in pinned order, evaluates each instance
/// over the oracle, and offers feasible ones to `accept`. Returning `true`
/// accepts (the pair is the result); returning `false` abandons the pickup
/// position `i` and advances to `i + 1` (the baselines' historical
/// `continue 'positions` when leg materialization fails).
pub fn first_feasible(
    taxi: &Taxi,
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    mut accept: impl FnMut(&Schedule, &ScheduleEvaluation) -> bool,
) -> Option<(Schedule, ScheduleEvaluation)> {
    let requests = world.requests;
    let lookup = |r| requests.get(r);
    let ectx = EvalContext {
        start_node: taxi.position_at(now),
        start_time: now,
        initial_load: taxi.onboard_load(world.requests),
        capacity: taxi.capacity as u32,
        requests: &lookup,
    };
    let m = taxi.schedule.len();
    for i in 0..=m {
        for j in (i + 1)..=(m + 1) {
            let schedule = taxi.schedule.with_insertion(req, i, j);
            let Some(eval) = evaluate_schedule(&schedule, &ectx, |a, b| world.oracle.cost(a, b))
            else {
                continue;
            };
            if accept(&schedule, &eval) {
                return Some((schedule, eval));
            }
            break; // abandon this pickup position
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, RequestStore};
    use crate::taxi::TaxiId;
    use mtshare_road::{grid_city, GridCityConfig};
    use mtshare_routing::{HotNodeOracle, PathCache};
    use std::sync::Arc;

    #[test]
    fn vacant_taxi_direct_insertion() {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let oracle = HotNodeOracle::new(graph.clone());
        let taxis = vec![Taxi::new(TaxiId(0), 4, NodeId(0))];
        let mut requests = RequestStore::new();
        let direct = cache.cost(NodeId(21), NodeId(200)).unwrap();
        let req = RideRequest {
            id: RequestId(0),
            release_time: 0.0,
            origin: NodeId(21),
            destination: NodeId(200),
            passengers: 1,
            deadline: direct * 1.5,
            direct_cost_s: direct,
            offline: false,
        };
        requests.push(req.clone());
        let world = World {
            graph: &graph,
            cache: &cache,
            oracle: &oracle,
            taxis: &taxis,
            requests: &requests,
        };
        let ins = best_insertion(&taxis[0], &req, 0.0, &world, |a, b| cache.cost(a, b)).unwrap();
        assert_eq!((ins.i, ins.j), (0, 1));
        let expect = cache.cost(NodeId(0), NodeId(21)).unwrap() + direct;
        assert!((ins.delta_s - expect).abs() < 1e-6);
    }
}
