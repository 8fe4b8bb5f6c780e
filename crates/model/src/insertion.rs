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
//!
//! Most candidates cannot make the pickup at all, so two exact cuts come
//! first (DESIGN.md, "Taxis that cannot make the pickup are not scored"):
//! the reach bound ([`reaches_pickup`]) rejects a taxi on one lookup
//! before any other work, and the position loop stops at the first
//! pickup position that is [`late_for_good`] — every later one is late
//! too.

use crate::request::RideRequest;
use crate::schedule::{evaluate_schedule, EvalContext, EventKind, Schedule, ScheduleEvaluation};
use crate::taxi::Taxi;
use crate::{Time, World};
use mtshare_dtree::late_for_good;
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

/// What scoring one candidate taxi found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scored {
    /// The reach bound ruled the taxi out before anything else was
    /// computed: it cannot make the pickup even driving straight there.
    OutOfReach,
    /// Scored in full; no feasible insertion exists.
    Infeasible,
    /// The cheapest feasible insertion.
    Feasible(BestInsertion),
}

impl Scored {
    /// The insertion, when one is feasible.
    pub fn best(self) -> Option<BestInsertion> {
        match self {
            Scored::Feasible(ins) => Some(ins),
            Scored::OutOfReach | Scored::Infeasible => None,
        }
    }
}

impl From<Option<BestInsertion>> for Scored {
    fn from(ins: Option<BestInsertion>) -> Self {
        ins.map_or(Scored::Infeasible, Scored::Feasible)
    }
}

/// The reach bound: whether `taxi`, driving straight from where it is at
/// `now`, reaches `req`'s origin by the pickup deadline. One `cost`
/// lookup, `d(pos, o)` — in dispatch a read of the origin's pinned
/// vector. When it does not, no insertion is feasible: every pickup
/// arrival along the schedule is at least `now + d(pos, o)`
/// ([`late_for_good`]), and an unreachable origin stays unreachable from
/// every stop the taxi can reach.
pub fn reaches_pickup(
    taxi: &Taxi,
    req: &RideRequest,
    now: Time,
    cost: impl FnOnce(NodeId, NodeId) -> Option<f64>,
) -> bool {
    let d = cost(taxi.position_at(now), req.origin);
    d.is_some_and(|d| !late_for_good(now + d, req.pickup_deadline()))
}

/// Finds the minimum-added-cost feasible insertion of `req` into `taxi`'s
/// schedule, or `None` when no feasible pair exists. `cost` is the
/// shortest-path oracle (`None` = unreachable).
pub fn best_insertion(
    taxi: &Taxi,
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    cost: impl FnMut(NodeId, NodeId) -> Option<f64>,
) -> Option<BestInsertion> {
    score_insertion(taxi, req, now, world, cost).best()
}

/// [`best_insertion`], telling a taxi the reach bound ruled out apart
/// from one scored in full.
pub(crate) fn score_insertion(
    taxi: &Taxi,
    req: &RideRequest,
    now: Time,
    world: &World<'_>,
    mut cost: impl FnMut(NodeId, NodeId) -> Option<f64>,
) -> Scored {
    if !reaches_pickup(taxi, req, now, &mut cost) {
        return Scored::OutOfReach;
    }
    insertion_dp(taxi, req, now, world, cost).into()
}

/// The DP behind [`best_insertion`], for a taxi that passed the reach bound.
pub(crate) fn insertion_dp(
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
    let pickup_deadline = req.pickup_deadline();

    // Node sequence n_0..n_m, arrival times a_0..a_m and the committed
    // leg costs legs[k] = cost(n_k, n_{k+1}).
    let mut nodes = Vec::with_capacity(m + 1);
    nodes.push(taxi.position_at(now));
    let mut arrivals = Vec::with_capacity(m + 1);
    arrivals.push(now);
    let mut legs = Vec::with_capacity(m);
    for ev in events {
        let c = cost(*nodes.last().expect("non-empty"), ev.node)?;
        legs.push(c);
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

    let mut best: Option<BestInsertion> = None;

    for i in 1..=m + 1 {
        if loads[i - 1] + p > capacity {
            continue;
        }
        // d(n_{i-1}, o), read once: the pickup arrival and both deltas
        // below use it.
        let Some(to_o) = cost(nodes[i - 1], req.origin) else { continue };
        let arrival_pickup = arrivals[i - 1] + to_o;
        if arrival_pickup > pickup_deadline + 1e-6 {
            if late_for_good(arrival_pickup, pickup_deadline) {
                break; // and so is every later position
            }
            continue;
        }
        // Pickup delta. A genuinely negative detour is impossible
        // (triangle inequality); a tiny negative here means the origin
        // sits *on* the shortest path and f32 rounding leaked through —
        // the best possible pickup spot, not an infeasible one. Clamp
        // instead of skipping.
        let dp = if i <= m {
            let Some(from_o) = cost(req.origin, nodes[i]) else { continue };
            to_o + from_o - legs[i - 1]
        } else {
            to_o
        };
        let dp = dp.max(0.0);

        // j == i: drop-off immediately after pickup.
        {
            let leg_od = cost(req.origin, req.destination)?;
            let (pair_delta, arrive_d) = if i <= m {
                let d = to_o + leg_od + cost(req.destination, nodes[i])? - legs[i - 1];
                (d, arrival_pickup + leg_od)
            } else {
                (to_o + leg_od, arrival_pickup + leg_od)
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
                let to_d = cost(nodes[j - 1], req.destination)?;
                let dd = if j <= m {
                    to_d + cost(req.destination, nodes[j])? - legs[j - 1]
                } else {
                    to_d
                };
                let arrive_d = arrivals[j - 1] + dp + to_d;
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
/// over the oracle's batched reader, and offers feasible ones to `accept`.
/// Returning `true` accepts (the pair is the result); returning `false`
/// abandons the pickup position `i` and advances to `i + 1` (the
/// baselines' historical `continue 'positions` when leg materialization
/// fails).
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
    // Through the batched reader, as the engines score: a leg past its
    // pin's radius reads a lower bound that is late, as the exact cost is.
    world.oracle.batch(|fast| {
        let mut cost = |a, b| fast.pinned_cost(a, b).unwrap_or_else(|| world.oracle.cost(a, b));
        for i in 0..=m {
            for j in (i + 1)..=(m + 1) {
                let schedule = taxi.schedule.with_insertion(req, i, j);
                let Some(eval) = evaluate_schedule(&schedule, &ectx, &mut cost) else {
                    continue;
                };
                if accept(&schedule, &eval) {
                    return Some((schedule, eval));
                }
                break; // abandon this pickup position
            }
        }
        None
    })
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

    #[test]
    fn pickup_tail_break_stops_short_of_a_dead_end() {
        use crate::engine::{DtreeEngine, ScheduleEngine};
        use crate::schedule::ScheduleEvent;
        use mtshare_road::{EdgeSpec, GeoPoint, RoadNetwork};

        // 0 — 1 — 2 — 3 — 4 → 5, and a spur 1 — 6; every arc 10 s. Node 5
        // is a one-way dead end: nothing leaves it.
        let points = (0..7).map(|i| GeoPoint::new(30.0, 104.0 + 0.001 * i as f64)).collect();
        let arc = |a: u32, b: u32| EdgeSpec {
            from: NodeId(a),
            to: NodeId(b),
            length_m: 100.0,
            speed_kmh: 36.0,
        };
        let mut edges = vec![arc(4, 5)];
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (1, 6)] {
            edges.extend([arc(a, b), arc(b, a)]);
        }
        let graph = Arc::new(RoadNetwork::new(points, &edges).unwrap());
        let cache = PathCache::new(graph.clone());
        let oracle = HotNodeOracle::new(graph.clone());

        let mut requests = RequestStore::new();
        let mut request = |origin: u32, destination: u32, passengers: u8, deadline: f64| {
            let req = RideRequest {
                id: RequestId(requests.len() as u32),
                release_time: 0.0,
                origin: NodeId(origin),
                destination: NodeId(destination),
                passengers,
                deadline,
                direct_cost_s: cache.cost(NodeId(origin), NodeId(destination)).unwrap(),
                offline: false,
            };
            requests.push(req.clone());
            req
        };
        let onboard = request(0, 5, 1, 1e4);
        let pair = request(3, 4, 2, 1e4);
        // Pickup deadline 45 − 20 = 25 s after now = 0.
        let probe = request(6, 2, 1, 45.0);
        let relaxed = request(6, 2, 1, 1e3);

        // Capacity 3 with one rider on board: the plan drives 0 → 3 (pick
        // up two), → 4 (drop them), → 5 (drop the first), loads 1, 3, 1, 0.
        let mut taxi = Taxi::new(TaxiId(0), 3, NodeId(0));
        taxi.onboard.push(onboard.id);
        taxi.assigned.push(pair.id);
        for (kind, req) in [
            (EventKind::Pickup, &pair),
            (EventKind::Dropoff, &pair),
            (EventKind::Dropoff, &onboard),
        ] {
            let node = if kind == EventKind::Pickup { req.origin } else { req.destination };
            taxi.schedule.push(ScheduleEvent { kind, request: req.id, node });
        }
        let taxis = vec![taxi];
        let world = World {
            graph: &graph,
            cache: &cache,
            oracle: &oracle,
            taxis: &taxis,
            requests: &requests,
        };

        // Position 1 (before stop 3): pickup at 20 s, drop-off right after
        // at 40 s, detour 20 s; the load cap ends its drop-off scan there.
        // Position 2 is full. Position 3 (after stop 4) picks up at 80 s:
        // late for good, so the scan breaks before position 4, behind the
        // dead end, which cannot reach the origin at all. The DP without
        // the break returns the same slot: it skips both positions.
        let cost = |a, b| cache.cost(a, b);
        assert!(reaches_pickup(&taxis[0], &probe, 0.0, cost));
        let want = BestInsertion { i: 0, j: 1, delta_s: 20.0 };
        assert_eq!(best_insertion(&taxis[0], &probe, 0.0, &world, cost), Some(want));
        let mut dtree = DtreeEngine::new(1);
        let scored = dtree.best_insertion(&taxis[0], &probe, 0.0, &world, &mut |a, b| cost(a, b));
        assert_eq!(scored, Scored::Feasible(want));

        // With time to spare, position 3 is on time and its drop-off scan
        // reaches the dead end, which cannot reach the destination either:
        // the DP's unreachable-leg abort fires, break or no break.
        assert_eq!(best_insertion(&taxis[0], &relaxed, 0.0, &world, cost), None);
        let scored = dtree.best_insertion(&taxis[0], &relaxed, 0.0, &world, &mut |a, b| cost(a, b));
        assert_eq!(scored, Scored::Infeasible);
    }
}
