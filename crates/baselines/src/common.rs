//! Helpers shared by the baseline schemes.

use mtshare_model::{Schedule, Taxi, Time, World};
use mtshare_road::NodeId;
use mtshare_routing::Path;

/// Materializes shortest-path legs for `schedule` starting at `pos`
/// (baselines always route legs as shortest paths, Sec. III-A).
pub(crate) fn shortest_legs(
    world: &World<'_>,
    pos: NodeId,
    schedule: &Schedule,
) -> Option<Vec<Path>> {
    let mut legs = Vec::with_capacity(schedule.len());
    let mut from = pos;
    for ev in schedule.events() {
        let leg =
            if from == ev.node { Path::trivial(from) } else { world.oracle.path(from, ev.node)? };
        from = ev.node;
        legs.push(leg);
    }
    Some(legs)
}

/// Remaining travel cost of the taxi's current plan from `now` (the
/// `cost(R_tj)` term of Eq. 4).
pub(crate) fn remaining_cost(taxi: &Taxi, now: Time) -> f64 {
    taxi.route.as_ref().map(|r| (r.end_time() - now).max(0.0)).unwrap_or(0.0)
}

/// Committed rider load (onboard + assigned) of a taxi.
pub(crate) fn committed_load(taxi: &Taxi, world: &World<'_>) -> u32 {
    taxi.onboard
        .iter()
        .chain(taxi.assigned.iter())
        .map(|&r| world.requests.get(r).passengers as u32)
        .sum()
}
