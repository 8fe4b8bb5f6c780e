//! The dual taxi indexes of mT-Share (Sec. IV-B3), as fleet bitsets.
//!
//! - **Partition index**: per partition `P_z`, the set `P_z.L_t` of taxis
//!   in or reaching `P_z` within the horizon `T_mp`; per taxi, its
//!   `(partition, arrival)` entries, at most one per partition.
//! - **Mobility-cluster index**: per cluster `C_a`, the set `C_a.L_t` of
//!   busy taxis travelling that way; the busy set; per taxi, its seats.
//!
//! The paper sorts each `P_z.L_t` by arrival; nothing reads that order,
//! so the union and Rule 1 are word-wise ORs and ANDs (`crate::candidates`).
//!
//! **Freshness.** The sets and seat counts describe each taxi as of its
//! last `update_taxi`. The simulator follows every change to `onboard` /
//! `assigned` (commit, advance, cancel and its repair, traffic shifts,
//! breakdown) with `after_assign`, `on_taxi_progress` or
//! `on_taxi_removed`, so at every search they equal the world's. Debug
//! builds assert this in the search.

use crate::context::MobilityContext;
use mtshare_mobility::{ClusterId, MobilityClusterer, MobilityVector, PartitionId};
use mtshare_model::{RequestStore, Taxi, TaxiId, Time};
use mtshare_road::{GeoPoint, RoadNetwork};
use std::mem::size_of;

/// A set of taxis, one bit per fleet slot: the set type of both indexes
/// and of the candidate search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TaxiSet(Vec<u64>);

impl TaxiSet {
    /// The empty set over a fleet of `fleet` taxis.
    pub fn new(fleet: usize) -> Self {
        Self(vec![0; fleet.div_ceil(64)])
    }

    /// Adds `taxi`.
    pub fn insert(&mut self, taxi: TaxiId) {
        self.0[taxi.index() / 64] |= 1 << (taxi.index() % 64);
    }

    /// Removes `taxi`.
    pub fn remove(&mut self, taxi: TaxiId) {
        self.0[taxi.index() / 64] &= !(1 << (taxi.index() % 64));
    }

    /// Whether `taxi` is a member.
    pub fn contains(&self, taxi: TaxiId) -> bool {
        self.0[taxi.index() / 64] & 1 << (taxi.index() % 64) != 0
    }

    /// Number of members.
    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Adds every member of `other` (same fleet).
    pub fn union_with(&mut self, other: &TaxiSet) {
        self.0.iter_mut().zip(&other.0).for_each(|(w, o)| *w |= o);
    }

    /// Keeps the members of `self` that are outside `busy` or inside
    /// `aligned` (same fleet): `self ∧ (¬busy ∨ aligned)`, Rule 1 of the
    /// candidate search.
    pub fn retain_vacant_or(&mut self, busy: &TaxiSet, aligned: &TaxiSet) {
        for ((w, b), a) in self.0.iter_mut().zip(&busy.0).zip(&aligned.0) {
            *w &= !b | a;
        }
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> Members<'_> {
        Members { words: self.0.iter(), next_base: 0, rest: 0 }
    }

    fn memory_bytes(&self) -> usize {
        self.0.len() * size_of::<u64>()
    }
}

/// The members of a [`TaxiSet`], in ascending id order: `rest` holds the
/// unreturned members of the word before `next_base`.
pub(crate) struct Members<'a> {
    words: std::slice::Iter<'a, u64>,
    next_base: u32,
    rest: u64,
}

impl Iterator for Members<'_> {
    type Item = TaxiId;

    fn next(&mut self) -> Option<TaxiId> {
        while self.rest == 0 {
            self.rest = *self.words.next()?;
            self.next_base += 64;
        }
        let bit = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        Some(TaxiId(self.next_base - 64 + bit))
    }
}

/// Per-partition taxi sets plus each taxi's own arrival entries.
#[derive(Debug)]
pub struct PartitionTaxiIndex {
    /// `sets[p]` = the taxis of `P_z.L_t`.
    pub(crate) sets: Vec<TaxiSet>,
    /// Per taxi: `(partition, arrival)` for every partition it is indexed
    /// in, current partition first, at most one entry per partition.
    pub(crate) entries: Vec<Vec<(u16, Time)>>,
}

impl PartitionTaxiIndex {
    /// Creates an empty index for `kappa` partitions and `n_taxis` taxis.
    pub fn new(kappa: usize, n_taxis: usize) -> Self {
        Self { sets: vec![TaxiSet::new(n_taxis); kappa], entries: vec![Vec::new(); n_taxis] }
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
                    if p != last && !self.sets[p.index()].contains(id) {
                        self.push_entry(p, at, id);
                    }
                    last = p;
                }
            }
        }
    }

    fn push_entry(&mut self, p: PartitionId, at: Time, id: TaxiId) {
        self.sets[p.index()].insert(id);
        self.entries[id.index()].push((p.0, at));
    }

    /// Removes every entry of `taxi`.
    pub fn remove_taxi(&mut self, taxi: TaxiId) {
        let entries = &mut self.entries[taxi.index()];
        for &(p, _) in entries.iter() {
            self.sets[p as usize].remove(taxi);
        }
        entries.clear();
    }

    /// The taxis of partition `p` (`P_z.L_t`).
    #[inline]
    pub(crate) fn partition_set(&self, p: PartitionId) -> &TaxiSet {
        &self.sets[p.index()]
    }

    /// The arrival of `taxi` at partition `p` recorded at its last
    /// update, if it is indexed there (a bit test spares the entry scan).
    pub(crate) fn recorded_arrival(&self, taxi: TaxiId, p: PartitionId) -> Option<Time> {
        let entries = self.sets[p.index()].contains(taxi).then(|| &self.entries[taxi.index()])?;
        entries.iter().find(|&&(q, _)| q == p.0).map(|&(_, at)| at)
    }

    /// Resident memory of the bitsets and entries, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.sets.iter().map(TaxiSet::memory_bytes).sum::<usize>()
            + self.entries.iter().map(|e| e.len() * size_of::<(u16, Time)>()).sum::<usize>()
    }

    /// Every taxi with at least one entry, sorted by id (for invariant
    /// checks: a removed taxi must not appear here).
    pub fn indexed_taxis(&self) -> Vec<TaxiId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_empty())
            .map(|(i, _)| TaxiId(i as u32))
            .collect()
    }

    /// Number of partitions (`κ`) the index was built for.
    pub fn partition_count(&self) -> usize {
        self.sets.len()
    }

    /// Fleet size the index was built for.
    pub fn fleet_size(&self) -> usize {
        self.entries.len()
    }
}

/// Mobility-cluster index over busy taxis.
#[derive(Debug)]
pub struct MobilityClusterIndex {
    pub(crate) clusterer: MobilityClusterer,
    /// `sets[c]` = the taxis of cluster `c` (slots align with the
    /// clusterer's slots and are recycled with them).
    pub(crate) sets: Vec<TaxiSet>,
    /// Every registered taxi: the non-vacant ones.
    pub(crate) busy: TaxiSet,
    /// Per taxi: the cluster and vector it is registered under.
    pub(crate) taxi_entry: Vec<Option<(ClusterId, MobilityVector)>>,
    /// Per taxi: the seats its onboard and assigned riders hold (Rule 2).
    pub(crate) seats: Vec<u32>,
}

impl MobilityClusterIndex {
    /// Creates an empty index with direction threshold `lambda`.
    pub fn new(lambda: f64, n_taxis: usize) -> Self {
        Self {
            clusterer: MobilityClusterer::new(lambda),
            sets: Vec::new(),
            busy: TaxiSet::new(n_taxis),
            taxi_entry: vec![None; n_taxis],
            seats: vec![0; n_taxis],
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

    /// Seats held by the riders `taxi` carries or is assigned.
    pub(crate) fn committed_seats(taxi: &Taxi, requests: &RequestStore) -> u32 {
        taxi.onboard.iter().chain(&taxi.assigned).map(|&r| requests.get(r).passengers as u32).sum()
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
            if self.sets.len() <= c.index() {
                self.sets.resize(c.index() + 1, TaxiSet::new(self.fleet_size()));
            }
            self.sets[c.index()].insert(taxi.id);
            self.busy.insert(taxi.id);
            self.taxi_entry[taxi.id.index()] = Some((c, v));
            self.seats[taxi.id.index()] = Self::committed_seats(taxi, requests);
        }
    }

    /// Removes `taxi` from its cluster, if registered.
    pub fn remove_taxi(&mut self, taxi: TaxiId) {
        if let Some((c, v)) = self.taxi_entry[taxi.index()].take() {
            self.clusterer.remove(c, &v);
            self.sets[c.index()].remove(taxi);
            self.busy.remove(taxi);
            self.seats[taxi.index()] = 0;
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

    /// The taxis of cluster `c` (`C_a.L_t`).
    pub(crate) fn cluster_set(&self, c: ClusterId) -> &TaxiSet {
        &self.sets[c.index()]
    }

    /// Every busy (registered) taxi.
    pub(crate) fn busy(&self) -> &TaxiSet {
        &self.busy
    }

    /// Seats `taxi`'s riders held at its last update (0 when vacant).
    pub(crate) fn seats(&self, taxi: TaxiId) -> u32 {
        self.seats[taxi.index()]
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
        self.busy.iter().collect()
    }

    /// Resident memory of the clusterer, bitsets, entries and seat counts,
    /// in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.clusterer.memory_bytes()
            + self.sets.iter().chain([&self.busy]).map(TaxiSet::memory_bytes).sum::<usize>()
            + self.taxi_entry.len() * size_of::<Option<(ClusterId, MobilityVector)>>()
            + self.seats.len() * size_of::<u32>()
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
    fn taxi_set_algebra_crosses_word_boundaries() {
        let ids = |s: &TaxiSet| s.iter().map(|t| t.0).collect::<Vec<_>>();
        let set = |members: &[u32]| {
            let mut s = TaxiSet::new(130);
            members.iter().for_each(|&t| s.insert(TaxiId(t)));
            s
        };
        let mut a = set(&[0, 63, 64, 129]);
        assert_eq!((a.count(), ids(&a)), (4, vec![0, 63, 64, 129]));
        // Rule 1: busy 63 goes, busy but aligned 64 stays, vacant 0 and 129 stay.
        a.retain_vacant_or(&set(&[63, 64, 100]), &set(&[64]));
        assert_eq!(ids(&a), [0, 64, 129]);
        a.remove(TaxiId(0));
        a.union_with(&set(&[63, 100]));
        assert_eq!(ids(&a), [63, 64, 100, 129]);
        assert!(a.contains(TaxiId(100)) && !a.contains(TaxiId(0)));
        assert_eq!(TaxiSet::new(130).count(), 0);
    }

    #[test]
    fn idle_taxi_indexed_in_home_partition() {
        let (_, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 2);
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(42));
        idx.update_taxi(&taxi, &ctx, 10.0, 3600.0);
        let home = ctx.partitioning.partition_of(NodeId(42));
        assert_eq!(idx.recorded_arrival(TaxiId(0), home), Some(10.0));
        assert_eq!(idx.partition_set(home).iter().collect::<Vec<_>>(), [TaxiId(0)]);
    }

    #[test]
    fn busy_taxi_indexed_along_route_once_per_partition() {
        let (g, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let mut taxi = Taxi::new(TaxiId(0), 4, NodeId(0));
        let r = mkreq(0, 399, 399);
        let mut d = Dijkstra::new(&g);
        let leg: Path = d.path(&g, NodeId(0), NodeId(399)).unwrap();
        let s = Schedule::new().with_insertion(&r, 0, 1);
        let legs = vec![leg, Path::trivial(NodeId(399))];
        let route = TimedRoute::build_on(&g, NodeId(0), 0.0, &legs, &s);
        taxi.set_plan(s, route, 0.0);
        idx.update_taxi(&taxi, &ctx, 0.0, 1e9);
        // The taxi crosses several partitions: one entry each, in route
        // (so arrival) order, and exactly those partitions' sets hold it.
        let entries = &idx.entries[0];
        assert!(entries.len() >= 2, "route should cross ≥2 partitions, saw {}", entries.len());
        assert!(entries.windows(2).all(|w| w[0].1 <= w[1].1));
        for p in ctx.partitioning.partitions() {
            let listed = entries.iter().filter(|&&(q, _)| q == p.0).count();
            assert!(listed <= 1);
            assert_eq!(idx.partition_set(p).contains(TaxiId(0)), listed == 1);
        }
        // Destination partition must be indexed.
        let dest_p = ctx.partitioning.partition_of(NodeId(399));
        assert!(idx.recorded_arrival(TaxiId(0), dest_p).is_some());
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
        let route = TimedRoute::build_on(&g, NodeId(0), 0.0, &legs, &s);
        taxi.set_plan(s, route, 0.0);
        // Tiny horizon: only the current partition (and perhaps one more).
        idx.update_taxi(&taxi, &ctx, 0.0, 1.0);
        let total: usize =
            ctx.partitioning.partitions().map(|p| idx.partition_set(p).count()).sum();
        assert!(total <= 2, "horizon should limit entries, got {total}");
    }

    #[test]
    fn remove_taxi_clears_entries() {
        let (_, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(42));
        idx.update_taxi(&taxi, &ctx, 0.0, 3600.0);
        idx.remove_taxi(TaxiId(0));
        let total: usize =
            ctx.partitioning.partitions().map(|p| idx.partition_set(p).count()).sum();
        assert_eq!(total, 0);
        assert!(idx.indexed_taxis().is_empty());
        // What stays is one empty one-word bitset per partition.
        assert_eq!(idx.memory_bytes(), ctx.kappa() * 8);
    }

    #[test]
    fn update_is_idempotent() {
        let (_, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 1);
        let taxi = Taxi::new(TaxiId(0), 4, NodeId(42));
        idx.update_taxi(&taxi, &ctx, 0.0, 3600.0);
        idx.update_taxi(&taxi, &ctx, 5.0, 3600.0);
        let home = ctx.partitioning.partition_of(NodeId(42));
        assert_eq!(idx.partition_set(home).count(), 1);
        assert_eq!(idx.recorded_arrival(TaxiId(0), home), Some(5.0));
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
        assert_eq!(idx.cluster_set(c).iter().collect::<Vec<_>>(), [TaxiId(0)]);
        assert!(idx.busy().contains(TaxiId(0)));
        assert_eq!(idx.seats(TaxiId(0)), 1);
        assert_eq!(idx.cluster_count(), 1);
        // Vacant again: removed and cluster recycled.
        taxi.assigned.clear();
        idx.update_taxi(&taxi, &g, &reqs, 0.0);
        assert_eq!(idx.cluster_of(TaxiId(0)), None);
        assert_eq!(idx.busy().count() + idx.cluster_set(c).count(), 0);
        assert_eq!(idx.seats(TaxiId(0)), 0);
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
