//! Ride requests (Def. 2).

use crate::Time;
use mtshare_mobility::MobilityVector;
use mtshare_road::{NodeId, RoadNetwork, COST_QUANTUM_S};
use mtshare_routing::HotNodeOracle;

/// Headroom added to every pin radius, past the budget rounded up to
/// whole quanta: one quantum, far above `late_for_good`'s 1.1e-6 s and the
/// f64 and f32 rounding of a budget below 2^18 s (DESIGN.md, "Pins stop
/// at the deadline").
const PIN_MARGIN_S: f64 = COST_QUANTUM_S;

/// The pin radius for a time budget: rounded up to whole quanta, plus
/// [`PIN_MARGIN_S`]; a spent budget still pins the node itself.
fn pin_radius(budget_s: f64) -> f32 {
    ((budget_s.max(0.0) / COST_QUANTUM_S).ceil() * COST_QUANTUM_S + PIN_MARGIN_S) as f32
}

/// Identifier of a ride request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u32);

impl RequestId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A ride request `r_i = <t, o, d, e>` (Def. 2), extended with the rider
/// count and the offline flag (Sec. III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct RideRequest {
    /// Identifier.
    pub id: RequestId,
    /// Release time `t_ri`.
    pub release_time: Time,
    /// Trip origin `o_ri`.
    pub origin: NodeId,
    /// Trip destination `d_ri`.
    pub destination: NodeId,
    /// Number of riders travelling together.
    pub passengers: u8,
    /// Delivery deadline `e_ri`.
    pub deadline: Time,
    /// Shortest-path travel cost `cost(o_ri, d_ri)` in seconds.
    pub direct_cost_s: f64,
    /// Whether this is an offline (roadside-hailing) request `r̄_i`,
    /// invisible to the system until a taxi encounters it.
    pub offline: bool,
}

impl RideRequest {
    /// Pick-up deadline `e_ri − cost(o_ri, d_ri)` (Sec. III-A).
    #[inline]
    pub fn pickup_deadline(&self) -> Time {
        self.deadline - self.direct_cost_s
    }

    /// Remaining waiting budget `Δt` at time `now` (Eq. 2 evaluates this at
    /// the release time).
    #[inline]
    pub fn wait_budget(&self, now: Time) -> f64 {
        self.pickup_deadline() - now
    }

    /// Whether the deadline is achievable at all (a taxi at the origin at
    /// release time could make it).
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.direct_cost_s.is_finite() && self.deadline >= self.release_time + self.direct_cost_s
    }

    /// Pins the request's endpoints in `oracle` out to the radii a
    /// schedule can still use at `now` (DESIGN.md, "Pins grow where
    /// their holders read"): the destination to the trip budget `deadline − now`,
    /// the origin to the wait budget `pickup_deadline − now`. The origin's
    /// budget is `deadline − now − cost(o, d)` wherever the current metric
    /// prices the trip below `direct_cost_s` (a direct cost priced during
    /// a traffic shift that has since ended), so that a committed pickup
    /// read past the radius is late through its drop-off. Balance with
    /// [`Self::release`]. Both pins are balls: this is the hold of a rider
    /// who may be on board, whose origin lies behind the taxi.
    pub fn hold(&self, oracle: &HotNodeOracle, now: Time) {
        self.hold_from(oracle, now, false);
    }

    /// [`Self::hold`] for a dispatch at `now`: no taxi has reached the
    /// origin yet, so the destination is read only from the origin or a
    /// stop after it, and its pin is the ellipse of the trip budget about
    /// the origin ([`HotNodeOracle::pin_toward`]; DESIGN.md, "Pins grow
    /// where their holders read").
    pub fn hold_for_dispatch(&self, oracle: &HotNodeOracle, now: Time) {
        self.hold_from(oracle, now, true);
    }

    fn hold_from(&self, oracle: &HotNodeOracle, now: Time, dispatch: bool) {
        let trip = self.deadline - now;
        match dispatch {
            true => oracle.pin_toward(self.destination, self.origin, pin_radius(trip)),
            false => oracle.pin_within(self.destination, pin_radius(trip)),
        }
        let od = oracle.with_vector(self.destination, |d| d.map(|d| d.entry(self.origin)));
        let od = od.map_or(self.direct_cost_s, |od| self.direct_cost_s.min(od as f64));
        oracle.pin_within(self.origin, pin_radius(trip - od));
    }

    /// Drops the pins [`Self::hold`] took.
    pub fn release(&self, oracle: &HotNodeOracle) {
        oracle.unpin(self.origin);
        oracle.unpin(self.destination);
    }

    /// The request's mobility vector (Def. 9).
    pub fn mobility_vector(&self, graph: &RoadNetwork) -> MobilityVector {
        MobilityVector::new(graph.point(self.origin), graph.point(self.destination))
    }
}

/// Append-only store of all requests seen by a scenario, indexed by
/// [`RequestId`].
#[derive(Debug, Clone, Default)]
pub struct RequestStore {
    all: Vec<RideRequest>,
}

impl RequestStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a request; its id must equal its position.
    pub fn push(&mut self, req: RideRequest) {
        assert_eq!(req.id.index(), self.all.len(), "request ids must be dense");
        self.all.push(req);
    }

    /// Looks up a request.
    #[inline]
    pub fn get(&self, id: RequestId) -> &RideRequest {
        &self.all[id.index()]
    }

    /// Mutable lookup, for recovery-time renegotiation: a breakdown
    /// re-originates stranded onboard riders at the failure position and
    /// recomputes their deadlines before re-dispatch.
    #[inline]
    pub fn get_mut(&mut self, id: RequestId) -> &mut RideRequest {
        &mut self.all[id.index()]
    }

    /// Number of stored requests.
    #[inline]
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Iterator over all requests.
    pub fn iter(&self) -> impl Iterator<Item = &RideRequest> {
        self.all.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RideRequest {
        RideRequest {
            id: RequestId(0),
            release_time: 100.0,
            origin: NodeId(1),
            destination: NodeId(2),
            passengers: 1,
            deadline: 100.0 + 600.0 * 1.3,
            direct_cost_s: 600.0,
            offline: false,
        }
    }

    #[test]
    fn pickup_deadline_and_wait_budget() {
        let r = req();
        assert!((r.pickup_deadline() - (100.0 + 780.0 - 600.0)).abs() < 1e-9);
        assert!((r.wait_budget(100.0) - 180.0).abs() < 1e-9);
        assert!((r.wait_budget(200.0) - 80.0).abs() < 1e-9);
    }

    #[test]
    fn feasibility() {
        let r = req();
        assert!(r.is_feasible());
        let mut tight = req();
        tight.deadline = 100.0 + 599.0;
        assert!(!tight.is_feasible());
        let mut unreachable = req();
        unreachable.direct_cost_s = f64::INFINITY;
        assert!(!unreachable.is_feasible());
    }

    #[test]
    fn store_roundtrip() {
        let mut s = RequestStore::new();
        s.push(req());
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert_eq!(s.get(RequestId(0)).origin, NodeId(1));
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn store_rejects_sparse_ids() {
        let mut s = RequestStore::new();
        let mut r = req();
        r.id = RequestId(5);
        s.push(r);
    }
}
