//! The auditor: each request is served "subject to taxi capacity and
//! per-request delivery deadlines" (PAPER.md) and ends in exactly one
//! terminal state. [`sweep`] checks one instant in O(taxis + scheduled
//! events + requests); the `--validate-every` cadence runs it. [`Auditor`]
//! observes every step of a run ([`audited_run`]): the sweep, then each
//! direct cost re-priced by plain [`Dijkstra`] on the base graph and each
//! newly committed leg on the metric of the traffic shifts active when it
//! was planned, then the report's accounting. It shares nothing with
//! dispatch beyond `mtshare-road` and [`Dijkstra`].

use crate::engine::SimEngine;
use crate::metrics::SimReport;
use crate::scenario::SchemeKind;
use crate::simulator::{Simulator, StepOutcome};
use mtshare_chaos::DisruptionPlan;
use mtshare_model::{DispatchScheme, EventKind, RequestId, RequestStore, Taxi, TaxiId, TimedRoute};
use mtshare_road::{apply_traffic_shifts, RoadNetwork};
use mtshare_routing::Dijkstra;
use rustc_hash::FxHashMap;

/// The slack of every comparison, seconds (and fares): the insertion DP's.
pub const TOLERANCE_S: f64 = 1e-6;

/// A read-only view of the world between two steps ([`SimEngine::view`]).
pub struct AuditView<'a> {
    /// The base road graph; traffic shifts never modify it.
    pub graph: &'a RoadNetwork,
    /// The fleet.
    pub taxis: &'a [Taxi],
    /// Every request ingested so far, deadlines as recovery renegotiated them.
    pub requests: &'a RequestStore,
    /// Per request: whether it has reached its terminal state.
    pub resolved: &'a [bool],
    /// The taxis the scheme's indexes hold, when it keeps any.
    pub indexed: Option<Vec<TaxiId>>,
    /// The disruption schedule, whose traffic-shift windows set leg prices.
    pub plan: &'a DisruptionPlan,
    /// Terminal outcomes so far: requests served plus requests rejected.
    pub outcomes: usize,
}

/// Checks the world's invariants at one instant: one line per violation.
pub fn sweep(view: &AuditView<'_>) -> Vec<String> {
    let mut findings: Vec<String> =
        view.taxis.iter().filter_map(|taxi| check_plan(taxi, view.requests).err()).collect();
    // Passenger conservation: an unresolved rider sits in at most one
    // taxi, a terminal one in none, and each took one terminal outcome.
    let mut holders = vec![0u32; view.requests.len()];
    for taxi in view.taxis {
        for r in taxi.assigned.iter().chain(&taxi.onboard) {
            holders[r.index()] += 1;
        }
    }
    for (i, &n) in holders.iter().enumerate() {
        if n > 1 {
            findings.push(format!("r{i} held by {n} taxis"));
        } else if n > 0 && view.resolved[i] {
            findings.push(format!("r{i} is terminal but still scheduled"));
        }
    }
    let resolved = view.resolved.iter().filter(|&&r| r).count();
    if view.outcomes != resolved {
        findings.push(format!("{} outcomes for {resolved} resolved requests", view.outcomes));
    }
    for &id in view.indexed.iter().flatten().filter(|id| !view.taxis[id.index()].alive) {
        findings.push(format!("dead {id} still indexed"));
    }
    findings
}

/// One taxi's first inconsistency: death, precedence, pick-ups ↔ assigned,
/// drop-offs ↔ assigned + onboard, route/schedule agreement, monotone
/// arrivals, and each planned event by its deadline and within capacity.
fn check_plan(taxi: &Taxi, requests: &RequestStore) -> Result<(), String> {
    let (id, capacity) = (taxi.id, taxi.capacity as i64);
    if !taxi.alive && (!taxi.schedule.is_empty() || taxi.route.is_some() || !taxi.is_vacant()) {
        return Err(format!("{id}: dead taxi still holds a plan or passengers"));
    }
    if !taxi.schedule.precedence_ok() {
        return Err(format!("{id}: schedule violates pickup-before-dropoff"));
    }
    let events = taxi.schedule.events();
    // Per request: (pick-ups, events). Assigned riders have (1, 2), onboard (0, 1).
    let seen = |r: &RequestId| {
        let mine = events.iter().filter(|e| e.request == *r);
        (mine.clone().filter(|e| e.kind == EventKind::Pickup).count(), mine.count())
    };
    if events.len() != 2 * taxi.assigned.len() + taxi.onboard.len()
        || taxi.assigned.iter().any(|r| seen(r) != (1, 2))
        || taxi.onboard.iter().any(|r| seen(r) != (0, 1))
    {
        let (assigned, onboard) = (&taxi.assigned, &taxi.onboard);
        return Err(format!("{id}: schedule disagrees with {assigned:?} + {onboard:?}"));
    }
    let route = match &taxi.route {
        None if events.is_empty() => return Ok(()),
        Some(route) if route.event_node_idx.len() == events.len() => route,
        _ => return Err(format!("{id}: route disagrees with its {} events", events.len())),
    };
    if route.arrival_s.windows(2).any(|w| w[1] < w[0] - TOLERANCE_S) {
        return Err(format!("{id}: route arrival times decrease"));
    }
    // Checked before each event: the load on board, then after each pick-up.
    let mut load = taxi.onboard_load(requests) as i64;
    for (k, ev) in events.iter().enumerate() {
        if load > capacity {
            return Err(format!("{id}: load {load} exceeds capacity {capacity}"));
        }
        let (req, at) = (requests.get(ev.request), route.event_time(k));
        let (due, what, seats) = match ev.kind {
            EventKind::Pickup => (req.pickup_deadline(), "pickup", req.passengers as i64),
            EventKind::Dropoff => (req.deadline, "dropoff", -(req.passengers as i64)),
        };
        if at > due + TOLERANCE_S {
            return Err(format!("{id}: {what} of {} at {at} after deadline {due}", req.id));
        }
        load += seats;
    }
    Ok(())
}

/// The observer: [`Auditor::observe`] after every step, [`Auditor::close`]
/// once the run is done, [`Auditor::finish`] on its report.
pub struct Auditor {
    dijkstra: Dijkstra,
    /// Legs must be shortest paths: all but mT-Share_pro (Alg. 4 detours).
    exact_legs: bool,
    /// Requests whose direct cost has been priced.
    priced: usize,
    /// Per taxi, the route last seen and its version. A new version with
    /// the same start and nodes and a suffix of the markers (events done
    /// since pop theirs) is a re-timing: it moved only times.
    plans: Vec<Option<(u64, TimedRoute)>>,
    /// The base graph under each set of active traffic shifts (plan indices).
    metrics: FxHashMap<Vec<usize>, RoadNetwork>,
    /// The drained world's requests, from [`Auditor::close`].
    end: Option<RequestStore>,
    findings: Vec<String>,
}

impl Auditor {
    /// An auditor for a run of `scheme` on `graph`.
    pub fn new(graph: &RoadNetwork, scheme: &dyn DispatchScheme) -> Self {
        Self {
            dijkstra: Dijkstra::new(graph),
            exact_legs: scheme.name() != SchemeKind::MtSharePro.label(),
            priced: 0,
            plans: Vec::new(),
            metrics: FxHashMap::default(),
            end: None,
            findings: Vec::new(),
        }
    }

    /// Checks the world after one step: the [`sweep`], the direct cost of
    /// each request not seen before and the legs of each new route.
    pub fn observe(&mut self, view: &AuditView<'_>) {
        self.findings.extend(sweep(view));
        for req in view.requests.iter().skip(self.priced) {
            // An unreachable or empty trip is priced 0 and rejected on arrival.
            let best = self.dijkstra.cost(view.graph, req.origin, req.destination);
            let (have, best) = (req.direct_cost_s, best.filter(|&c| c > 0.0).unwrap_or(0.0));
            if (have - best).abs() > TOLERANCE_S {
                self.findings.push(format!("{}: direct cost {have} != Dijkstra {best}", req.id));
            }
        }
        self.priced = view.requests.len();

        // A route already under way at the first observation (a resumed
        // run) may have popped markers: its leading segment is no leg.
        let resumed = self.plans.is_empty();
        self.plans.resize_with(view.taxis.len(), || None);
        for taxi in view.taxis {
            let seen = &mut self.plans[taxi.id.index()];
            let Some(route) = &taxi.route else {
                *seen = None;
                continue;
            };
            let fresh = match seen {
                Some((version, _)) if *version == taxi.route_version => continue,
                Some((_, old)) => {
                    old.start_time() != route.start_time()
                        || old.nodes != route.nodes
                        || !old.event_node_idx.ends_with(&route.event_node_idx)
                }
                None => true,
            };
            *seen = Some((taxi.route_version, route.clone()));
            if fresh {
                self.price_legs(view, taxi.id, route, resumed);
            }
        }
    }

    /// Prices each leg of a new route on the metric of the traffic shifts
    /// active at its start: a walk over its arcs whose span re-sums their
    /// costs and, for exact schemes, equals Dijkstra. A resumed run's first
    /// look at a route may find it re-timed (a shift boundary past its
    /// start): then only the walk and its price are checked.
    fn price_legs(&mut self, view: &AuditView<'_>, id: TaxiId, route: &TimedRoute, resumed: bool) {
        let t0 = route.start_time();
        let shifts = view.plan.shifts();
        let retimed = resumed && shifts.clone().any(|(_, s)| s.end_s() > t0);
        let (active, specs): (Vec<usize>, Vec<_>) = shifts.filter(|(_, s)| s.active_at(t0)).unzip();
        let graph = if active.is_empty() {
            view.graph
        } else {
            self.metrics.entry(active).or_insert_with(|| {
                apply_traffic_shifts(view.graph, &specs).expect("a shifted graph stays valid")
            })
        };
        let (mut from, markers) = match route.event_node_idx.split_first() {
            Some((&first, rest)) if resumed => (first, rest),
            _ => (0, &route.event_node_idx[..]),
        };
        for &to in markers {
            let (a, b) = (route.nodes[from], route.nodes[to]);
            let span = route.arrival_s[to] - route.arrival_s[from];
            let arcs: Option<f64> = route.nodes[from..=to]
                .windows(2)
                .map(|w| graph.direct_edge_cost(w[0], w[1]).map(f64::from))
                .sum();
            let best = self.dijkstra.cost(graph, a, b).unwrap_or(f64::INFINITY);
            let leg = format!("{id}: leg {}->{} planned at {t0}", a.0, b.0);
            let finding = match arcs {
                None => Some(format!("{leg} is not a walk over the graph")),
                Some(arcs) if !retimed && (span - arcs).abs() > TOLERANCE_S => {
                    Some(format!("{leg} takes {span} s, its arcs sum to {arcs}"))
                }
                Some(arcs) => (self.exact_legs && (arcs - best).abs() > TOLERANCE_S)
                    .then(|| format!("{leg} costs {arcs} != Dijkstra {best}")),
            };
            self.findings.extend(finding);
            from = to;
        }
    }

    /// Records the drained world: no taxi may hold a rider, and only
    /// pending offline requests (the report expires them) may be open.
    pub fn close(&mut self, view: &AuditView<'_>) {
        for taxi in view.taxis.iter().filter(|t| !t.is_vacant()) {
            self.findings.push(format!("{} still holds riders after the run", taxi.id));
        }
        for req in view.requests.iter().filter(|r| !view.resolved[r.id.index()] && !r.offline) {
            self.findings.push(format!("{} never reached a terminal state", req.id));
        }
        self.end = Some(view.requests.clone());
    }

    /// Checks the report's accounting: one terminal state per request, each
    /// delivery inside its (current) deadlines and no faster than its direct
    /// cost, riders paying no more than solo and exactly the drivers'
    /// income. Returns every finding of the run.
    pub fn finish(mut self, report: &SimReport) -> Vec<String> {
        let requests = self.end.take().expect("close before finish");
        let mut push = |finding: String| self.findings.push(finding);
        let (served, rejected, n) = (report.served, report.rejected, report.n_requests);
        let records = &report.served_records;
        if served + rejected != n || n != requests.len() || served != records.len() {
            let m = records.len();
            push(format!("{served} served ({m} records) + {rejected} rejected != {n} requests"));
        }
        let mut ids: Vec<u32> = records.iter().map(|r| r.request).collect();
        ids.sort_unstable();
        for twice in ids.windows(2).filter(|w| w[0] == w[1]) {
            push(format!("r{} served twice", twice[0]));
        }
        for rec in records {
            let req = requests.get(RequestId(rec.request));
            let (pickup, dropoff, ride) =
                (rec.pickup_t, rec.dropoff_t, rec.dropoff_t - rec.pickup_t);
            if pickup < req.release_time - TOLERANCE_S {
                push(format!("{} picked up at {pickup} before release", req.id));
            }
            if dropoff > req.deadline + TOLERANCE_S {
                push(format!("{} dropped off at {dropoff} after {}", req.id, req.deadline));
            }
            if ride < req.direct_cost_s - TOLERANCE_S {
                push(format!("{} rode {ride} s < direct {}", req.id, req.direct_cost_s));
            }
        }
        let (paid, solo, income) =
            (report.total_passenger_fares, report.total_solo_fares, report.total_driver_income);
        if paid > solo + TOLERANCE_S || (paid - income).abs() > TOLERANCE_S {
            push(format!("riders paid {paid}: solo fares {solo}, driver income {income}"));
        }
        self.findings
    }
}

/// Runs `sim` to completion under an [`Auditor`]: the report (equal to
/// [`Simulator::run`]'s) and every finding. Panics if a planned crash or a
/// storage fault stops the run.
pub fn audited_run(sim: Simulator, scheme: &mut dyn DispatchScheme) -> (SimReport, Vec<String>) {
    let mut engine = SimEngine::new(sim, scheme);
    let mut auditor = Auditor::new(engine.view(scheme).graph, scheme);
    auditor.observe(&engine.view(scheme));
    loop {
        match engine.step(scheme) {
            StepOutcome::Progressed => auditor.observe(&engine.view(scheme)),
            StepOutcome::Done => break,
            stop => panic!("audited run stopped early: {stop:?}"),
        }
    }
    auditor.close(&engine.view(scheme));
    let report = engine.finalize(scheme).expect("audited run hit a storage fault");
    let findings = auditor.finish(&report);
    (report, findings)
}

#[cfg(test)]
mod tests {
    //! One planted defect per class, each of which the auditor must name.
    use super::*;
    use crate::metrics::ServedRecord;
    use mtshare_model::{RideRequest, Schedule};
    use mtshare_road::{grid_city, GridCityConfig, NodeId};
    use mtshare_routing::Path;

    fn city() -> RoadNetwork {
        grid_city(&GridCityConfig::tiny()).unwrap()
    }

    fn shortest(graph: &RoadNetwork, a: u32, b: u32) -> Path {
        Dijkstra::new(graph).path(graph, NodeId(a), NodeId(b)).unwrap()
    }

    /// Request 0 from `o` to `d`, released at 0 with `slack` × its direct
    /// cost as deadline.
    fn request(graph: &RoadNetwork, (o, d): (u32, u32), slack: f64, passengers: u8) -> RideRequest {
        let direct = shortest(graph, o, d).cost_s;
        RideRequest {
            id: RequestId(0),
            release_time: 0.0,
            origin: NodeId(o),
            destination: NodeId(d),
            passengers,
            deadline: direct * slack,
            direct_cost_s: direct,
            offline: false,
        }
    }

    /// Taxi 0 at `start`, planned at t = 0 to carry `req` along `legs`.
    fn planned(graph: &RoadNetwork, req: &RideRequest, start: u32, legs: &[Path]) -> Taxi {
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(start));
        let schedule = Schedule::new().with_insertion(req, 0, 1);
        let route = TimedRoute::build_on(graph, NodeId(start), 0.0, legs, &schedule);
        taxi.assigned.push(req.id);
        taxi.set_plan(schedule, route, 0.0);
        taxi
    }

    /// A healthy plan: 0 → 45 (pick up) → 250 (drop off) on shortest legs.
    fn healthy(graph: &RoadNetwork) -> (Taxi, RideRequest) {
        let req = request(graph, (45, 250), 3.0, 1);
        let taxi = planned(graph, &req, 0, &[shortest(graph, 0, 45), shortest(graph, 45, 250)]);
        (taxi, req)
    }

    /// The auditor's findings once `taxi` committed its plan for `req`
    /// (one step after the world with the taxi still idle).
    fn audit(graph: &RoadNetwork, taxi: &Taxi, req: &RideRequest) -> Vec<String> {
        audit_under(graph, &DisruptionPlan::default(), taxi, req)
    }

    /// [`audit`] in a world disrupted by `plan`.
    fn audit_under(
        graph: &RoadNetwork,
        plan: &DisruptionPlan,
        taxi: &Taxi,
        req: &RideRequest,
    ) -> Vec<String> {
        let mut requests = RequestStore::new();
        requests.push(req.clone());
        let idle = Taxi::new(TaxiId(0), 4, NodeId(0));
        let scheme = SchemeKind::NoSharing.build(graph, 1, None, None);
        let mut auditor = Auditor::new(graph, scheme.as_ref());
        for taxi in [&idle, taxi] {
            auditor.observe(&AuditView {
                graph,
                taxis: std::slice::from_ref(taxi),
                requests: &requests,
                resolved: &[false],
                indexed: None,
                plan,
                outcomes: 0,
            });
        }
        auditor.findings
    }

    fn assert_names(findings: &[String], needle: &str) {
        assert!(findings.iter().any(|f| f.contains(needle)), "`{needle}` not in {findings:#?}");
    }

    #[test]
    fn healthy_world_has_no_findings() {
        let g = city();
        let (taxi, req) = healthy(&g);
        assert_eq!(audit(&g, &taxi, &req), Vec::<String>::new());
        assert_eq!(audit(&g, &Taxi::new(TaxiId(0), 4, NodeId(0)), &req), Vec::<String>::new());
    }

    #[test]
    fn late_pickup() {
        let g = city();
        // Picked up ~20 hops out with a pickup budget of a tenth of the trip.
        let req = request(&g, (399, 380), 1.1, 1);
        let taxi = planned(&g, &req, 0, &[shortest(&g, 0, 399), shortest(&g, 399, 380)]);
        assert_names(&audit(&g, &taxi, &req), "pickup of r0 at");
    }

    #[test]
    fn over_capacity() {
        let g = city();
        let req = request(&g, (45, 250), 3.0, 5);
        let taxi = planned(&g, &req, 0, &[shortest(&g, 0, 45), shortest(&g, 45, 250)]);
        assert_names(&audit(&g, &taxi, &req), "load 5 exceeds capacity 4");
        // Seats already taken count too.
        let mut onboard = taxi.clone();
        onboard.complete_next_event(0.0);
        assert_names(&audit(&g, &onboard, &req), "load 5 exceeds capacity 4");
    }

    #[test]
    fn non_walk_leg() {
        let g = city();
        let (mut taxi, req) = healthy(&g);
        // The pickup leg jumps straight from node 0 to node 45: no such arc.
        let route = taxi.route.as_mut().unwrap();
        let hops = route.event_node_idx[0];
        route.nodes.drain(1..hops);
        route.arrival_s.drain(1..hops);
        route.event_node_idx.iter_mut().for_each(|k| *k -= hops - 1);
        assert_names(&audit(&g, &taxi, &req), "leg 0->45 planned at 0 is not a walk");
    }

    #[test]
    fn mispriced_leg() {
        let g = city();
        let (mut taxi, req) = healthy(&g);
        // The pick-up comes a second sooner than the arcs allow.
        let route = taxi.route.as_mut().unwrap();
        route.arrival_s[route.event_node_idx[0]] -= 1.0;
        assert_names(&audit(&g, &taxi, &req), "its arcs sum to");
    }

    #[test]
    fn leg_timed_on_the_wrong_metric() {
        use mtshare_chaos::{Disruption::TrafficShift, TimedDisruption};
        use mtshare_road::TrafficShiftSpec;
        let g = city();
        // A city-wide 2× slowdown is active when the plan is made.
        let spec = TrafficShiftSpec {
            center: NodeId(45),
            radius_m: 1e7,
            factor: 2.0,
            start_s: 0.0,
            duration_s: 1e4,
        };
        let plan = DisruptionPlan {
            events: vec![TimedDisruption { at: 0.0, disruption: TrafficShift(spec) }],
        };
        let live = apply_traffic_shifts(&g, &[spec]).unwrap();
        let req = request(&g, (45, 250), 6.0, 1);
        // Timed on base arcs inside the window: every leg is too fast.
        let (base_taxi, _) = healthy(&g);
        assert_names(&audit_under(&g, &plan, &base_taxi, &req), "its arcs sum to");
        // Timed on the live metric: clean.
        let legs = [shortest(&live, 0, 45), shortest(&live, 45, 250)];
        let taxi = planned(&live, &req, 0, &legs);
        assert_eq!(audit_under(&g, &plan, &taxi, &req), Vec::<String>::new());
    }

    #[test]
    fn non_shortest_leg() {
        let g = city();
        let req = request(&g, (45, 250), 6.0, 1);
        // 0 → 399 → 45: a walk, priced at its arcs, far from shortest.
        let (a, b) = (shortest(&g, 0, 399), shortest(&g, 399, 45));
        let nodes = [&a.nodes[..], &b.nodes[1..]].concat();
        let detour = Path { nodes, cost_s: a.cost_s + b.cost_s };
        let taxi = planned(&g, &req, 0, &[detour, shortest(&g, 45, 250)]);
        let findings = audit(&g, &taxi, &req);
        assert_names(&findings, "!= Dijkstra");
        assert!(!findings.iter().any(|f| f.contains("arcs sum")), "{findings:#?}");
    }

    #[test]
    fn wrong_direct_cost() {
        let g = city();
        let (taxi, mut req) = healthy(&g);
        req.direct_cost_s += 1.0;
        assert_names(&audit(&g, &taxi, &req), "r0: direct cost");
    }

    #[test]
    fn double_terminal() {
        let g = city();
        let (_, req) = healthy(&g);
        let mut requests = RequestStore::new();
        requests.push(req);
        let plan = DisruptionPlan::default();
        let view = |resolved: &'static [bool], outcomes| AuditView {
            graph: &g,
            taxis: &[],
            requests: &requests,
            resolved,
            indexed: None,
            plan: &plan,
            outcomes,
        };
        let scheme = SchemeKind::NoSharing.build(&g, 0, None, None);
        let mut auditor = Auditor::new(&g, scheme.as_ref());
        // One step both serves and rejects r0.
        auditor.observe(&view(&[true], 2));
        assert_names(&auditor.findings, "2 outcomes for 1 resolved requests");
        // A report that delivers it twice.
        let rec = ServedRecord { request: 0, taxi: 0, pickup_t: 0.0, dropoff_t: 1e4 };
        let report = SimReport {
            n_requests: 1,
            served: 2,
            served_records: vec![rec, rec],
            ..SimReport::default()
        };
        auditor.close(&view(&[true], 2));
        let findings = auditor.finish(&report);
        assert_names(&findings, "r0 served twice");
        assert_names(&findings, "2 served (2 records) + 0 rejected != 1 requests");
    }

    #[test]
    fn structural_defects() {
        let g = city();
        let (taxi, req) = healthy(&g);
        let mut dead = taxi.clone();
        dead.alive = false;
        assert_names(&audit(&g, &dead, &req), "dead taxi still holds");
        let mut swapped = taxi.clone();
        swapped.assigned.clear();
        swapped.onboard.push(req.id);
        assert_names(&audit(&g, &swapped, &req), "t0: schedule disagrees");
        let mut backwards = taxi;
        backwards.route.as_mut().unwrap().arrival_s[2] = -1.0;
        assert_names(&audit(&g, &backwards, &req), "arrival times decrease");
    }
}
