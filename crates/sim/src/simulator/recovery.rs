//! Disruption injection and recovery: breakdowns, cancellations, traffic
//! shifts and the bounded re-dispatch of the riders they strand (see
//! DESIGN.md, "Fault model & recovery"). An `impl Simulator` child module
//! like `checkpoint.rs`: it reads and repairs the simulator's state in
//! place and commits through the parent's `try_dispatch` / `arm_route`.

use super::{Ev, Simulator};
use crate::audit::TOLERANCE_S;
use mtshare_chaos::{Disruption, RetryPolicy};
use mtshare_model::{
    DispatchScheme, EventKind, RequestId, RequestStore, Schedule, ScheduleEvent, TaxiId, Time,
    TimedRoute,
};
use mtshare_obs::{Event, RejectReason};
use mtshare_road::{NodeId, RoadNetwork};
use mtshare_routing::{Dijkstra, Path};

/// Extra slack granted when an orphaned rider's deadline is renegotiated:
/// the new deadline is at least `now + RENEG_SLACK × direct`.
const RENEG_SLACK: f64 = 1.5;

impl Simulator {
    pub(super) fn process_disruption(
        &mut self,
        t: Time,
        idx: usize,
        scheme: &mut dyn DispatchScheme,
    ) {
        match self.plan.events[idx].disruption {
            Disruption::Breakdown { taxi } => self.process_breakdown(t, taxi, scheme),
            Disruption::Cancel { request } => self.process_cancel(t, request, scheme),
            Disruption::TrafficShift(_) => {} // landed in `sync_metric`
        }
    }

    /// A taxi drops out of service: park it, settle its episode, reconcile
    /// it out of the scheme's indexes and re-enqueue its stranded riders.
    fn process_breakdown(&mut self, t: Time, taxi_id: TaxiId, scheme: &mut dyn DispatchScheme) {
        if !self.taxis[taxi_id.index()].alive {
            return;
        }
        // Close the running occupancy window before the plan is torn down
        // so the episode settles over the cost actually driven.
        if let Some(since) = self.episodes[taxi_id.index()].onboard_since.take() {
            self.episodes[taxi_id.index()].onboard_cost_s += t - since;
        }
        let (onboard, assigned) = self.taxis[taxi_id.index()].fail(t);
        self.route_nodes[taxi_id.index()].clear();
        self.settle_taxi(taxi_id);
        self.obs.emit(Event::Breakdown {
            t,
            taxi: taxi_id.0,
            orphans: (onboard.len() + assigned.len()) as u32,
        });
        scheme.on_taxi_removed(&self.taxis[taxi_id.index()], &self.world());
        let fail_node = self.taxis[taxi_id.index()].location;
        for r in onboard {
            self.enqueue_orphan(r, t, Some(fail_node));
        }
        for r in assigned {
            self.enqueue_orphan(r, t, None);
        }
    }

    /// Detaches an orphaned rider from its (gone) plan and schedules the
    /// first bounded-retry re-dispatch attempt. Riders already picked up
    /// pass the node they are stranded at: the request re-enters the
    /// queue from there, with its deadline renegotiated to keep the
    /// remaining trip feasible. The direct cost never follows a traffic
    /// shift, or a later, faster ride could beat it: a waiting rider keeps
    /// its own, a stranded one is priced on the base graph, the lower
    /// bound of every metric (shifts only slow arcs).
    fn enqueue_orphan(&mut self, request: RequestId, now: Time, stranded_at: Option<NodeId>) {
        if self.resolved[request.index()] {
            return;
        }
        // Balance the commit-time hold; each retry attempt holds again.
        self.release(self.requests.get(request));
        self.pickup_time.remove(&request);
        let req = self.requests.get(request);
        let direct = match stranded_at {
            Some(node) => Dijkstra::new(&self.graph).cost(&self.graph, node, req.destination),
            None => Some(req.direct_cost_s),
        };
        let Some(direct) = direct else {
            // No road leads onward from the breakdown position.
            self.reject_with(request, now, RejectReason::TaxiFailed);
            return;
        };
        {
            let req = self.requests.get_mut(request);
            if let Some(node) = stranded_at {
                req.origin = node;
            }
            req.direct_cost_s = direct;
            req.deadline = req.deadline.max(now + RENEG_SLACK * direct);
        }
        if !self.taxis.iter().any(|x| x.alive) {
            // Nothing is left to retry against, and nothing will revive.
            self.reject_with(request, now, RejectReason::TaxiFailed);
            return;
        }
        self.push_ev(
            now + RetryPolicy::default().delay_s(1),
            Ev::Redispatch { request, attempt: 1 },
        );
    }

    /// A rider withdraws before pickup. The terminal accounting is a
    /// `CancelledByPassenger` rejection (so `served + rejected` still
    /// covers every request); an informational `cancel` event precedes it.
    fn process_cancel(&mut self, t: Time, request: RequestId, scheme: &mut dyn DispatchScheme) {
        if self.resolved[request.index()] || self.pickup_time.contains_key(&request) {
            return; // already terminal, or onboard: too late to cancel
        }
        let req = self.requests.get(request).clone();
        if req.release_time > t {
            // Not yet released: reject at arrival, keeping the event
            // stream in request order.
            self.cancelled_pre_release.insert(request);
            self.obs.emit(Event::Cancel { t, req: request.0, assigned: false });
            return;
        }
        if self.pending_offline.contains(&request) {
            self.drop_offline_watch(request);
            self.obs.emit(Event::Cancel { t, req: request.0, assigned: false });
            self.reject_with(request, t, RejectReason::CancelledByPassenger);
            return;
        }
        match self.taxis.iter().position(|x| x.assigned.contains(&request)) {
            Some(i) => {
                let taxi_id = TaxiId(i as u32);
                self.taxis[i].assigned.retain(|&r| r != request);
                let schedule = self.taxis[i].schedule.without_request(request);
                if !self.rebuild_plan(taxi_id, schedule, t, scheme) {
                    self.taxis[i].assigned.push(request);
                    return; // repair impossible; the committed plan stands
                }
                self.release(&req);
                self.obs.emit(Event::Cancel { t, req: request.0, assigned: true });
                self.reject_with(request, t, RejectReason::CancelledByPassenger);
            }
            None => {
                // Waiting unassigned (an orphan between retry attempts):
                // terminal now, the pending retry no-ops via `resolved`.
                self.obs.emit(Event::Cancel { t, req: request.0, assigned: false });
                self.reject_with(request, t, RejectReason::CancelledByPassenger);
            }
        }
    }

    /// Re-times every committed route at `t` from the metric `was` to the
    /// live one, and repairs the riders a re-timed plan makes late: a late
    /// drop-off's deadline is renegotiated just past it; a late pick-up is
    /// dropped, the plan rebuilt without it and the rider re-enqueued. When
    /// that rebuild fails the re-timed plan stands and the dropped riders'
    /// deadlines are extended instead. One `reroute` per re-timed taxi.
    pub(super) fn retime_routes(
        &mut self,
        t: Time,
        was: &RoadNetwork,
        scheme: &mut dyn DispatchScheme,
    ) {
        let live = self.cache.graph();
        // Moves each late rider's deadline just past its drop-off; returns
        // how many deadlines it renegotiated.
        let extend_to = |requests: &mut RequestStore, late: Vec<(RequestId, Time)>| {
            let mut renegotiated = 0u32;
            for (r, when) in late {
                let req = requests.get_mut(r);
                if req.deadline < when + 1.0 {
                    req.deadline = when + 1.0;
                    renegotiated += 1;
                }
            }
            renegotiated
        };
        for i in 0..self.taxis.len() {
            let Some(route) = self.taxis[i].route.as_mut() else { continue };
            if !route.retime(was, &live, t) {
                continue;
            }
            let taxi_id = TaxiId(i as u32);
            // Late pick-ups, then the drop-offs of those riders and the
            // late drop-offs of the others.
            let (mut dropped, mut theirs, mut late) = (Vec::new(), Vec::new(), Vec::new());
            let taxi = &self.taxis[i];
            let route = taxi.route.as_ref().expect("re-timed");
            for (k, ev) in taxi.schedule.events().iter().enumerate() {
                let (req, when) = (self.requests.get(ev.request), route.event_time(k));
                match ev.kind {
                    EventKind::Pickup if when > req.pickup_deadline() => dropped.push(req.id),
                    EventKind::Dropoff if dropped.contains(&req.id) => theirs.push((req.id, when)),
                    EventKind::Dropoff if when > req.deadline => late.push((req.id, when)),
                    _ => {}
                }
            }
            let mut renegotiated = extend_to(&mut self.requests, late);
            let mut n_dropped = 0;
            if !dropped.is_empty() {
                let mut schedule = self.taxis[i].schedule.clone();
                for &r in &dropped {
                    schedule = schedule.without_request(r);
                    self.taxis[i].assigned.retain(|&x| x != r);
                }
                if self.rebuild_plan(taxi_id, schedule, t, scheme) {
                    for &r in &dropped {
                        self.enqueue_orphan(r, t, None);
                    }
                    n_dropped = dropped.len() as u32;
                } else {
                    // Repair impossible: keep the re-timed plan and
                    // extend the dropped riders' deadlines instead.
                    self.taxis[i].assigned.extend(dropped.iter().copied());
                    renegotiated += extend_to(&mut self.requests, theirs);
                }
            }
            if n_dropped == 0 {
                self.rearm(taxi_id, t, scheme);
            }
            self.obs.emit(Event::Reroute { t, taxi: taxi_id.0, renegotiated, dropped: n_dropped });
        }
    }

    /// Re-arms a taxi whose route was re-timed in place: bumps the version
    /// (queued events carry stale times), refreshes the encounter map,
    /// re-queues the next schedule event and the encounters ahead.
    fn rearm(&mut self, taxi_id: TaxiId, now: Time, scheme: &mut dyn DispatchScheme) {
        let i = taxi_id.index();
        self.taxis[i].route_version += 1;
        self.arm_route(taxi_id);
        scheme.on_taxi_progress(&self.taxis[i], now, &self.world());
        self.scan_route_for_offline(taxi_id, now);
    }

    /// Replaces `taxi_id`'s plan with `schedule`, routing every leg from
    /// its position at `now`. Returns `false` — world untouched — when some
    /// leg cannot be routed or the new plan would make a remaining pick-up
    /// or drop-off late against the request's current deadlines.
    fn rebuild_plan(
        &mut self,
        taxi_id: TaxiId,
        schedule: Schedule,
        now: Time,
        scheme: &mut dyn DispatchScheme,
    ) -> bool {
        let i = taxi_id.index();
        let pos = self.taxis[i].position_at(now);
        let mut legs: Vec<Path> = Vec::with_capacity(schedule.len());
        let mut prev = pos;
        for ev in schedule.events() {
            match self.oracle.path(prev, ev.node) {
                Some(p) => {
                    legs.push(p);
                    prev = ev.node;
                }
                None => return false,
            }
        }
        let route = (!schedule.is_empty())
            .then(|| TimedRoute::build_on(&self.cache.graph(), pos, now, &legs, &schedule));
        if let Some(route) = &route {
            let late = |(k, ev): (usize, &ScheduleEvent)| {
                let req = self.requests.get(ev.request);
                let due = match ev.kind {
                    EventKind::Pickup => req.pickup_deadline(),
                    EventKind::Dropoff => req.deadline,
                };
                route.event_time(k) > due + TOLERANCE_S
            };
            if schedule.events().iter().enumerate().any(late) {
                return false;
            }
        }
        {
            let taxi = &mut self.taxis[i];
            taxi.location = pos;
            taxi.location_time = now;
            match route {
                Some(route) => taxi.set_plan(schedule, route, now),
                None => {
                    taxi.schedule = Schedule::new();
                    taxi.route = None;
                    taxi.route_version += 1;
                }
            }
        }
        self.arm_route(taxi_id);
        scheme.after_assign(&self.taxis[i], &self.world());
        self.scan_route_for_offline(taxi_id, now);
        true
    }

    /// One bounded-retry re-dispatch attempt for an orphaned rider.
    pub(super) fn process_redispatch(
        &mut self,
        t: Time,
        request: RequestId,
        attempt: u32,
        scheme: &mut dyn DispatchScheme,
    ) {
        if self.resolved[request.index()] {
            return; // cancelled (or otherwise settled) while waiting
        }
        let req = self.requests.get(request).clone();
        let ok = self.try_dispatch(&req, t, None, false, scheme);
        self.obs.emit(Event::Redispatch { t, req: request.0, attempt, ok });
        if ok {
            self.redispatched += 1;
        } else if RetryPolicy::default().exhausted(attempt + 1) {
            self.reject_with(request, t, RejectReason::RetriesExhausted);
        } else {
            let next = attempt + 1;
            self.push_ev(
                t + RetryPolicy::default().delay_s(next),
                Ev::Redispatch { request, attempt: next },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{chaos_request, tiny_city};
    use super::*;
    use crate::{Scenario, ScenarioConfig, SchemeKind, SimConfig};
    use mtshare_model::Taxi;

    /// A repair is judged on costs alone, so shortest-path ties cannot
    /// decide it: re-planning the committed plan at its own start keeps
    /// every event time, and is refused, world untouched, exactly when the
    /// rider's current deadline falls before the planned drop-off.
    #[test]
    fn a_repair_that_makes_a_rider_late_leaves_the_plan_alone() {
        let (graph, cache) = tiny_city();
        let direct = cache.cost(NodeId(0), NodeId(15)).unwrap();
        let scenario = Scenario {
            config: ScenarioConfig::peak(1),
            historical: Vec::new(),
            requests: vec![chaos_request(0, (0, 15), 0.0, direct, 4.0 * direct + 600.0)],
            taxis: vec![Taxi::new(TaxiId(0), 4, NodeId(105))],
        };
        let mut scheme = SchemeKind::NoSharing.build(&graph, 1, None, None);
        let mut sim = Simulator::new(graph, cache, &scenario, SimConfig::default());
        sim.begin(scheme.as_mut());
        while sim.taxis[0].assigned.is_empty() {
            sim.step_once(scheme.as_mut());
        }
        let taxi = sim.taxis[0].clone();
        let route = taxi.route.clone().expect("assigned taxi has a route");
        let (now, dropoff) = (route.start_time(), route.event_time(1));

        sim.requests.get_mut(RequestId(0)).deadline = dropoff - 1.0;
        assert!(!sim.rebuild_plan(TaxiId(0), taxi.schedule.clone(), now, scheme.as_mut()));
        assert_eq!(sim.taxis[0].route.as_ref(), Some(&route));
        assert_eq!(sim.taxis[0].route_version, taxi.route_version);

        sim.requests.get_mut(RequestId(0)).deadline = dropoff;
        assert!(sim.rebuild_plan(TaxiId(0), taxi.schedule.clone(), now, scheme.as_mut()));
        assert_eq!(sim.taxis[0].route.as_ref().map(|r| r.event_time(1)), Some(dropoff));
    }
}
