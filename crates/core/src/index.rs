//! The dual taxi indexes of mT-Share (Sec. IV-B3).
//!
//! - **Partition index**: per map partition `P_z`, the list `P_z.L_t` of
//!   taxis that are in or will reach `P_z` within the horizon `T_mp`,
//!   sorted by arrival time.
//! - **Mobility-cluster index**: per mobility cluster `C_a`, the list
//!   `C_a.L_t` of busy taxis travelling in that direction.
//!
//! Memory complexity is O((x+1)·M + R) as analyzed in the paper: each taxi
//! appears in x partitions and at most one mobility cluster.

use crate::context::MobilityContext;
use mtshare_mobility::{ClusterId, MobilityClusterer, MobilityVector, PartitionId};
use mtshare_model::{RequestStore, Taxi, TaxiId, Time};
use mtshare_road::{GeoPoint, RoadNetwork};

/// Per-partition arrival-sorted taxi lists.
#[derive(Debug)]
pub struct PartitionTaxiIndex {
    /// `lists[p]` = (arrival_time, taxi), ascending by arrival.
    pub(crate) lists: Vec<Vec<(Time, TaxiId)>>,
    /// Partitions each taxi is currently indexed in (for O(x) removal).
    pub(crate) taxi_partitions: Vec<Vec<u16>>,
}

impl PartitionTaxiIndex {
    /// Creates an empty index for `kappa` partitions and `n_taxis` taxis.
    pub fn new(kappa: usize, n_taxis: usize) -> Self {
        Self { lists: vec![Vec::new(); kappa], taxi_partitions: vec![Vec::new(); n_taxis] }
    }

    /// Re-indexes `taxi` after its plan or position changed: removes stale
    /// entries, then records the partition arrival times along its current
    /// route within the `T_mp` horizon (idle taxis are indexed at their
    /// parked partition with arrival = `now`).
    pub fn update_taxi(&mut self, taxi: &Taxi, ctx: &MobilityContext, now: Time, horizon_s: f64) {
        self.remove_taxi(taxi.id);
        let id = taxi.id;
        match &taxi.route {
            None => {
                let p = ctx.partitioning.partition_of(taxi.location);
                self.push_entry(p, now, id);
            }
            Some(route) => {
                // Current partition first.
                let here = route.position_at(now);
                let p0 = ctx.partitioning.partition_of(here);
                self.push_entry(p0, now, id);
                let mut last = p0;
                for (node, at) in route.nodes_in_window(now, now + horizon_s) {
                    let p = ctx.partitioning.partition_of(node);
                    if p != last && !self.taxi_partitions[id.index()].contains(&p.0) {
                        self.push_entry(p, at, id);
                    }
                    last = p;
                }
            }
        }
    }

    fn push_entry(&mut self, p: PartitionId, at: Time, id: TaxiId) {
        let list = &mut self.lists[p.index()];
        let pos = list.partition_point(|&(t, _)| t <= at);
        list.insert(pos, (at, id));
        self.taxi_partitions[id.index()].push(p.0);
    }

    /// Removes every entry of `taxi`.
    pub fn remove_taxi(&mut self, taxi: TaxiId) {
        let touched = std::mem::take(&mut self.taxi_partitions[taxi.index()]);
        for p in touched {
            self.lists[p as usize].retain(|&(_, t)| t != taxi);
        }
    }

    /// The arrival-sorted taxi list of partition `p` (`P_z.L_t`).
    #[inline]
    pub fn taxis_in(&self, p: PartitionId) -> &[(Time, TaxiId)] {
        &self.lists[p.index()]
    }

    /// Earliest recorded arrival of `taxi` at partition `p`, if indexed.
    pub fn arrival_at(&self, p: PartitionId, taxi: TaxiId) -> Option<Time> {
        self.lists[p.index()].iter().find(|&&(_, t)| t == taxi).map(|&(at, _)| at)
    }

    /// Approximate resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.lists.iter().map(|l| l.len() * 12).sum::<usize>()
            + self.taxi_partitions.iter().map(|p| p.len() * 2).sum::<usize>()
    }

    /// Every taxi with at least one entry, sorted by id (for invariant
    /// checks: a removed taxi must not appear here).
    pub fn indexed_taxis(&self) -> Vec<TaxiId> {
        self.taxi_partitions
            .iter()
            .enumerate()
            .filter(|(_, ps)| !ps.is_empty())
            .map(|(i, _)| TaxiId(i as u32))
            .collect()
    }

    /// Number of partitions (`κ`) the index was built for.
    pub fn partition_count(&self) -> usize {
        self.lists.len()
    }

    /// Fleet size the index was built for.
    pub fn fleet_size(&self) -> usize {
        self.taxi_partitions.len()
    }
}

/// Mobility-cluster index over busy taxis.
#[derive(Debug)]
pub struct MobilityClusterIndex {
    pub(crate) clusterer: MobilityClusterer,
    /// `members[c]` = taxis currently in cluster `c` (slots align with the
    /// clusterer's slots and are recycled with them).
    pub(crate) members: Vec<Vec<TaxiId>>,
    /// Per taxi: the cluster and vector it is registered under.
    pub(crate) taxi_entry: Vec<Option<(ClusterId, MobilityVector)>>,
}

impl MobilityClusterIndex {
    /// Creates an empty index with direction threshold `lambda`.
    pub fn new(lambda: f64, n_taxis: usize) -> Self {
        Self {
            clusterer: MobilityClusterer::new(lambda),
            members: Vec::new(),
            taxi_entry: vec![None; n_taxis],
        }
    }

    /// The taxi's mobility vector per Def. 9: origin = current location,
    /// destination = centroid of the destinations of all passengers it
    /// serves (onboard + assigned). `None` for vacant taxis, which carry no
    /// travel direction.
    pub fn taxi_vector(
        taxi: &Taxi,
        graph: &RoadNetwork,
        requests: &RequestStore,
        now: Time,
    ) -> Option<MobilityVector> {
        let served = taxi.onboard.iter().chain(taxi.assigned.iter());
        let mut n = 0usize;
        let (mut lat, mut lng) = (0.0f64, 0.0f64);
        for &r in served {
            let d = graph.point(requests.get(r).destination);
            lat += d.lat;
            lng += d.lng;
            n += 1;
        }
        if n == 0 {
            return None;
        }
        let origin = graph.point(taxi.position_at(now));
        Some(MobilityVector::new(origin, GeoPoint::new(lat / n as f64, lng / n as f64)))
    }

    /// Re-registers `taxi` under its current mobility vector (or removes it
    /// when vacant).
    pub fn update_taxi(
        &mut self,
        taxi: &Taxi,
        graph: &RoadNetwork,
        requests: &RequestStore,
        now: Time,
    ) {
        self.remove_taxi(taxi.id);
        if let Some(v) = Self::taxi_vector(taxi, graph, requests, now) {
            let c = self.clusterer.insert(&v);
            if self.members.len() <= c.index() {
                self.members.resize_with(c.index() + 1, Vec::new);
            }
            self.members[c.index()].push(taxi.id);
            self.taxi_entry[taxi.id.index()] = Some((c, v));
        }
    }

    /// Removes `taxi` from its cluster, if registered.
    pub fn remove_taxi(&mut self, taxi: TaxiId) {
        if let Some((c, v)) = self.taxi_entry[taxi.index()].take() {
            self.clusterer.remove(c, &v);
            let m = &mut self.members[c.index()];
            if let Some(pos) = m.iter().position(|&t| t == taxi) {
                m.swap_remove(pos);
            }
        }
    }

    /// Every live cluster whose general vector is within λ of `v`.
    ///
    /// Incremental clustering can fragment one travel direction into
    /// several parallel clusters; restricting Eq. 3 to the single best
    /// match would then drop aligned taxis, so the candidate search unions
    /// all matching clusters.
    pub fn clusters_for(&self, v: &MobilityVector) -> Vec<ClusterId> {
        self.clusterer
            .live_clusters()
            .filter(|&c| {
                self.clusterer
                    .general_vector(c)
                    .is_some_and(|g| v.cos_to(&g) >= self.clusterer.lambda())
            })
            .collect()
    }

    /// Taxis registered in cluster `c` (`C_a.L_t`).
    pub fn taxis_in(&self, c: ClusterId) -> &[TaxiId] {
        self.members.get(c.index()).map_or(&[], |m| m.as_slice())
    }

    /// The cluster `taxi` is registered in, if busy.
    pub fn cluster_of(&self, taxi: TaxiId) -> Option<ClusterId> {
        self.taxi_entry[taxi.index()].map(|(c, _)| c)
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusterer.len()
    }

    /// Direction threshold λ the index was built with.
    pub fn lambda(&self) -> f64 {
        self.clusterer.lambda()
    }

    /// Fleet size the index was built for.
    pub fn fleet_size(&self) -> usize {
        self.taxi_entry.len()
    }

    /// Every registered taxi, sorted by id (for invariant checks: a
    /// removed taxi must not appear here).
    pub fn indexed_taxis(&self) -> Vec<TaxiId> {
        self.taxi_entry
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| TaxiId(i as u32))
            .collect()
    }

    /// Approximate resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.clusterer.memory_bytes()
            + self.members.iter().map(|m| m.len() * 4).sum::<usize>()
            + self.taxi_entry.len() * std::mem::size_of::<Option<(ClusterId, MobilityVector)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PartitionStrategy;
    use mtshare_model::{RequestId, RideRequest, Schedule, TimedRoute};
    use mtshare_road::{grid_city, GridCityConfig, NodeId};
    use mtshare_routing::{Dijkstra, Path};
    use std::sync::Arc;

    fn setup() -> (Arc<RoadNetwork>, Arc<MobilityContext>) {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let trips: Vec<_> = (0..300)
            .map(|i| mtshare_mobility::Trip {
                origin: NodeId(i % 400),
                destination: NodeId((i * 7 + 13) % 400),
            })
            .collect();
        let ctx = MobilityContext::build(&g, &trips, 9, 3, 5, PartitionStrategy::Grid);
        (g, ctx)
    }

    fn mkreq(id: u32, origin: u32, dest: u32) -> RideRequest {
        RideRequest {
            id: RequestId(id),
            release_time: 0.0,
            origin: NodeId(origin),
            destination: NodeId(dest),
            passengers: 1,
            deadline: 1e9,
            direct_cost_s: 100.0,
            offline: false,
        }
    }

    #[test]
    fn idle_taxi_indexed_in_home_partition() {
        let (_, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 2);
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(42));
        idx.update_taxi(&taxi, &ctx, 10.0, 3600.0);
        let home = ctx.partitioning.partition_of(NodeId(42));
        assert_eq!(idx.arrival_at(home, TaxiId(0)), Some(10.0));
        assert_eq!(idx.taxis_in(home).len(), 1);
    }

    #[test]
    fn busy_taxi_indexed_along_route_in_arrival_order() {
        let (g, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        let r = mkreq(0, 399, 399);
        let mut d = Dijkstra::new(&g);
        let leg: Path = d.path(&g, NodeId(0), NodeId(399)).unwrap();
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![leg, Path::trivial(NodeId(399))];
        let route = TimedRoute::build(NodeId(0), 0.0, &legs, &s);
        taxi.set_plan(s, route, 0.0);
        idx.update_taxi(&taxi, &ctx, 0.0, 1e9);
        // The taxi crosses several partitions; each list must stay sorted.
        let mut seen = 0;
        for p in ctx.partitioning.partitions() {
            let l = idx.taxis_in(p);
            seen += l.len();
            assert!(l.windows(2).all(|w| w[0].0 <= w[1].0));
        }
        assert!(seen >= 2, "route should cross ≥2 partitions, saw {seen}");
        // Destination partition must be indexed.
        let dest_p = ctx.partitioning.partition_of(NodeId(399));
        assert!(idx.arrival_at(dest_p, TaxiId(0)).is_some());
    }

    #[test]
    fn horizon_limits_indexing() {
        let (g, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        let r = mkreq(0, 399, 399);
        let mut d = Dijkstra::new(&g);
        let leg = d.path(&g, NodeId(0), NodeId(399)).unwrap();
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![leg, Path::trivial(NodeId(399))];
        let route = TimedRoute::build(NodeId(0), 0.0, &legs, &s);
        taxi.set_plan(s, route, 0.0);
        // Tiny horizon: only the current partition (and perhaps one more).
        idx.update_taxi(&taxi, &ctx, 0.0, 1.0);
        let total: usize = ctx.partitioning.partitions().map(|p| idx.taxis_in(p).len()).sum();
        assert!(total <= 2, "horizon should limit entries, got {total}");
    }

    #[test]
    fn remove_taxi_clears_entries() {
        let (_, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(42));
        idx.update_taxi(&taxi, &ctx, 0.0, 3600.0);
        idx.remove_taxi(TaxiId(0));
        let total: usize = ctx.partitioning.partitions().map(|p| idx.taxis_in(p).len()).sum();
        assert_eq!(total, 0);
        assert!(idx.memory_bytes() < 64);
    }

    #[test]
    fn update_is_idempotent() {
        let (_, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(42));
        idx.update_taxi(&taxi, &ctx, 0.0, 3600.0);
        idx.update_taxi(&taxi, &ctx, 5.0, 3600.0);
        let home = ctx.partitioning.partition_of(NodeId(42));
        assert_eq!(idx.taxis_in(home).len(), 1);
        assert_eq!(idx.arrival_at(home, TaxiId(0)), Some(5.0));
    }

    #[test]
    fn cluster_index_tracks_busy_taxis_only() {
        let (g, _) = setup();
        let mut reqs = RequestStore::new();
        reqs.push(mkreq(0, 100, 399));
        let mut idx = MobilityClusterIndex::new(0.7, 2);
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        // Vacant: not registered.
        idx.update_taxi(&taxi, &g, &reqs, 0.0);
        assert_eq!(idx.cluster_of(TaxiId(0)), None);
        assert_eq!(idx.cluster_count(), 0);
        // Busy: registered.
        taxi.assigned.push(RequestId(0));
        idx.update_taxi(&taxi, &g, &reqs, 0.0);
        let c = idx.cluster_of(TaxiId(0)).expect("registered");
        assert_eq!(idx.taxis_in(c), &[TaxiId(0)]);
        assert_eq!(idx.cluster_count(), 1);
        // Vacant again: removed and cluster recycled.
        taxi.assigned.clear();
        idx.update_taxi(&taxi, &g, &reqs, 0.0);
        assert_eq!(idx.cluster_of(TaxiId(0)), None);
        assert_eq!(idx.cluster_count(), 0);
    }

    #[test]
    fn similar_taxis_share_cluster_and_match_requests() {
        let (g, _) = setup();
        let mut reqs = RequestStore::new();
        // Both requests head from the SW corner to the NE corner.
        reqs.push(mkreq(0, 0, 399));
        reqs.push(mkreq(1, 21, 398));
        let mut idx = MobilityClusterIndex::new(0.7, 2);
        let mut t0 = Taxi::new(TaxiId(0), 4, NodeId(0));
        t0.assigned.push(RequestId(0));
        let mut t1 = Taxi::new(TaxiId(1), 4, NodeId(21));
        t1.assigned.push(RequestId(1));
        idx.update_taxi(&t0, &g, &reqs, 0.0);
        idx.update_taxi(&t1, &g, &reqs, 0.0);
        let c0 = idx.cluster_of(TaxiId(0)).unwrap();
        assert_eq!(idx.cluster_of(TaxiId(1)), Some(c0));
        // A request with the same direction finds this cluster.
        let v = MobilityVector::new(g.point(NodeId(1)), g.point(NodeId(399)));
        assert_eq!(idx.clusters_for(&v), [c0]);
        // An opposite request does not.
        let v_opp = MobilityVector::new(g.point(NodeId(399)), g.point(NodeId(0)));
        assert_eq!(idx.clusters_for(&v_opp), []);
        assert!(idx.memory_bytes() > 0);
    }
}
