//! [`Persist`] impls for the dual mT-Share taxi indexes.
//!
//! The partition index is a function of each taxi's last update, but the
//! mobility-cluster index is *history-dependent*: its slots (plus the
//! clusterer's recycled free list) depend on the exact insert/remove
//! sequence. Slot history decides which taxis a later vector joins, so it
//! leaks into candidate-set composition and therefore into dispatch
//! decisions. A warm restart therefore snapshots the indexes faithfully
//! instead of re-running `install`, which could cluster differently and
//! diverge from the uninterrupted run at the first post-resume dispatch.
//!
//! Only the per-taxi state is encoded: partition entries, cluster entries
//! and seat counts. Every bitset is rebuilt from it on decode. Decoding
//! validates cross-structure invariants (partitions in range and once per
//! taxi; every registered taxi in a live slot; slot popcounts equal to the
//! clusterer's per-slot counts; seats only on registered taxis) so
//! corrupted snapshot payloads are rejected rather than mis-restored.

use crate::index::{MobilityClusterIndex, PartitionTaxiIndex, TaxiSet};
use crate::payment::PassengerTrip;
use mtshare_mobility::{ClusterId, MobilityClusterer, MobilityVector};
use mtshare_model::{RequestId, TaxiId, Time};
use mtshare_persist::{DecodeError, Decoder, Encoder, Persist};

impl Persist for PassengerTrip {
    fn encode(&self, enc: &mut Encoder) {
        self.request.encode(enc);
        enc.f64(self.shared_cost_s);
        enc.f64(self.direct_cost_s);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PassengerTrip {
            request: RequestId::decode(dec)?,
            shared_cost_s: dec.f64()?,
            direct_cost_s: dec.f64()?,
        })
    }
}

impl Persist for PartitionTaxiIndex {
    fn encode(&self, enc: &mut Encoder) {
        enc.usize(self.sets.len());
        enc.usize(self.entries.len());
        for e in &self.entries {
            enc.seq(e);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let kappa = dec.usize()?;
        if kappa > u16::MAX as usize + 1 {
            return Err(DecodeError::Invalid("partition count exceeds u16 id space"));
        }
        let n_taxis = dec.usize()?;
        let mut entries: Vec<Vec<(u16, Time)>> = Vec::with_capacity(n_taxis.min(1 << 20));
        for _ in 0..n_taxis {
            entries.push(dec.seq()?);
        }
        let mut sets = vec![TaxiSet::new(n_taxis); kappa];
        for (i, taxi_entries) in entries.iter().enumerate() {
            let taxi = TaxiId(i as u32);
            for &(p, _) in taxi_entries {
                let set = sets.get_mut(p as usize);
                let set =
                    set.ok_or(DecodeError::Invalid("taxi indexed in out-of-range partition"))?;
                if set.contains(taxi) {
                    return Err(DecodeError::Invalid("taxi indexed twice in one partition"));
                }
                set.insert(taxi);
            }
        }
        Ok(PartitionTaxiIndex { sets, entries })
    }
}

impl Persist for MobilityClusterIndex {
    fn encode(&self, enc: &mut Encoder) {
        self.clusterer.encode(enc);
        enc.usize(self.taxi_entry.len());
        for e in &self.taxi_entry {
            e.encode(enc);
        }
        enc.seq(&self.seats);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let clusterer = MobilityClusterer::decode(dec)?;
        let n_taxis = dec.usize()?;
        let mut taxi_entry: Vec<Option<(ClusterId, MobilityVector)>> =
            Vec::with_capacity(n_taxis.min(1 << 20));
        for _ in 0..n_taxis {
            taxi_entry.push(Option::<(ClusterId, MobilityVector)>::decode(dec)?);
        }
        let seats: Vec<u32> = dec.seq()?;
        if seats.len() != n_taxis {
            return Err(DecodeError::Invalid("seat counts disagree with fleet size"));
        }

        // Cross-consistency: every registered taxi sits in a live slot,
        // each slot holds exactly the clusterer's count of taxis, and only
        // registered taxis hold seats.
        let mut sets = vec![TaxiSet::new(n_taxis); clusterer.slot_count()];
        let mut busy = TaxiSet::new(n_taxis);
        for (i, entry) in taxi_entry.iter().enumerate() {
            let taxi = TaxiId(i as u32);
            match entry {
                Some((c, _)) => {
                    let set = sets.get_mut(c.index());
                    set.ok_or(DecodeError::Invalid("taxi registered in a missing slot"))?
                        .insert(taxi);
                    busy.insert(taxi);
                }
                None if seats[i] != 0 => {
                    return Err(DecodeError::Invalid("seats held by an unregistered taxi"));
                }
                None => {}
            }
        }
        for (c, set) in sets.iter().enumerate() {
            if set.count() != clusterer.member_count(ClusterId(c as u32)) as usize {
                return Err(DecodeError::Invalid("slot members disagree with clusterer count"));
            }
        }
        Ok(MobilityClusterIndex { clusterer, sets, busy, taxi_entry, seats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{MobilityContext, PartitionStrategy};
    use mtshare_model::{RequestId, RequestStore, RideRequest, Schedule, Taxi, TimedRoute};
    use mtshare_road::{grid_city, GridCityConfig, NodeId, RoadNetwork};
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

    fn busy_taxi(g: &RoadNetwork, id: u32, from: u32, req: &RideRequest) -> Taxi {
        let mut taxi = Taxi::new(mtshare_model::TaxiId(id), 4, NodeId(from));
        let mut d = Dijkstra::new(g);
        let leg: Path = d.path(g, NodeId(from), req.destination).unwrap();
        let s = Schedule::new().with_insertion(req, 0, 1);
        let legs = vec![leg, Path::trivial(req.destination)];
        let route = TimedRoute::build_on(g, NodeId(from), 0.0, &legs, &s);
        taxi.assigned.push(req.id);
        taxi.set_plan(s, route, 0.0);
        taxi
    }

    #[test]
    fn partition_index_round_trips_canonically() {
        let (g, ctx) = setup();
        let mut idx = PartitionTaxiIndex::new(ctx.kappa(), 3);
        let r = mkreq(0, 399, 399);
        let taxis = [
            busy_taxi(&g, 0, 0, &r),
            Taxi::new(mtshare_model::TaxiId(1), 4, NodeId(42)),
            Taxi::new(mtshare_model::TaxiId(2), 4, NodeId(200)),
        ];
        for t in &taxis {
            idx.update_taxi(t, &ctx, 0.0, 3600.0);
        }
        // Remove one so a taxi with an empty set is covered too.
        idx.remove_taxi(mtshare_model::TaxiId(2));

        let bytes = idx.to_bytes();
        let back = PartitionTaxiIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "canonical bytes round trip");
        assert_eq!(back.partition_count(), idx.partition_count());
        assert_eq!(back.fleet_size(), idx.fleet_size());
        assert_eq!(back.indexed_taxis(), idx.indexed_taxis());
        for p in 0..ctx.kappa() {
            let p = mtshare_mobility::PartitionId(p as u16);
            assert_eq!(back.partition_set(p), idx.partition_set(p));
        }
        assert_eq!(back.memory_bytes(), idx.memory_bytes());
    }

    #[test]
    fn partition_index_rejects_inconsistent_payloads() {
        // A taxi indexed twice in one partition.
        let mut enc = Encoder::new();
        enc.usize(1); // kappa = 1
        enc.usize(1); // one taxi...
        enc.seq(&[(0u16, 5.0f64), (0u16, 1.0f64)]); // ...listed in partition 0 twice
        assert!(PartitionTaxiIndex::from_bytes(&enc.into_bytes()).is_err());

        // Out-of-range partition id.
        let mut enc = Encoder::new();
        enc.usize(1);
        enc.usize(1);
        enc.seq(&[(7u16, 5.0f64)]);
        assert!(PartitionTaxiIndex::from_bytes(&enc.into_bytes()).is_err());

        // The same taxi in range decodes.
        let mut enc = Encoder::new();
        enc.usize(1);
        enc.usize(1);
        enc.seq(&[(0u16, 5.0f64)]);
        assert!(PartitionTaxiIndex::from_bytes(&enc.into_bytes()).is_ok());
    }

    #[test]
    fn cluster_index_round_trips_with_recycled_slots() {
        let (g, _) = setup();
        let mut reqs = RequestStore::new();
        reqs.push(mkreq(0, 0, 399));
        reqs.push(mkreq(1, 21, 398));
        reqs.push(mkreq(2, 399, 0));
        let mut idx = MobilityClusterIndex::new(0.7, 3);
        let mut taxis = Vec::new();
        for (i, (o, r)) in [(0u32, 0u32), (21, 1), (399, 2)].iter().enumerate() {
            let mut t = Taxi::new(mtshare_model::TaxiId(i as u32), 4, NodeId(*o));
            t.assigned.push(RequestId(*r));
            taxis.push(t);
        }
        for t in &taxis {
            idx.update_taxi(t, &g, &reqs, 0.0);
        }
        // Recycle: taxi 2 goes vacant, freeing its cluster slot.
        taxis[2].assigned.clear();
        idx.update_taxi(&taxis[2], &g, &reqs, 0.0);

        let bytes = idx.to_bytes();
        let back = MobilityClusterIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "canonical bytes round trip");
        assert_eq!(back.cluster_count(), idx.cluster_count());
        assert_eq!(back.lambda(), idx.lambda());
        assert_eq!(back.indexed_taxis(), idx.indexed_taxis());
        for t in &taxis {
            assert_eq!(back.cluster_of(t.id), idx.cluster_of(t.id));
            assert_eq!(back.seats(t.id), idx.seats(t.id));
        }
        assert_eq!(back.busy(), idx.busy());
        assert_eq!(back.memory_bytes(), idx.memory_bytes());
        // The recycled slot is reused identically after restore.
        let mut a = idx;
        let mut b = back;
        taxis[2].assigned.push(RequestId(2));
        a.update_taxi(&taxis[2], &g, &reqs, 0.0);
        b.update_taxi(&taxis[2], &g, &reqs, 0.0);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    #[test]
    fn cluster_index_rejects_mismatched_slots_and_seats() {
        let (g, _) = setup();
        let mut reqs = RequestStore::new();
        reqs.push(mkreq(0, 0, 399));
        let mut idx = MobilityClusterIndex::new(0.7, 2);
        let mut t = Taxi::new(mtshare_model::TaxiId(0), 4, NodeId(0));
        t.assigned.push(RequestId(0));
        idx.update_taxi(&t, &g, &reqs, 0.0);
        assert!(MobilityClusterIndex::from_bytes(&idx.to_bytes()).is_ok());
        let entry = idx.taxi_entry[0];
        // A registered taxi the clusterer does not count.
        idx.taxi_entry[1] = entry;
        assert!(MobilityClusterIndex::from_bytes(&idx.to_bytes()).is_err());
        // A counted member that is not registered.
        idx.taxi_entry[1] = None;
        idx.taxi_entry[0] = None;
        assert!(MobilityClusterIndex::from_bytes(&idx.to_bytes()).is_err());
        // Seats held by a vacant taxi.
        idx.taxi_entry[0] = entry;
        idx.seats[1] = 2;
        assert!(MobilityClusterIndex::from_bytes(&idx.to_bytes()).is_err());
    }
}
