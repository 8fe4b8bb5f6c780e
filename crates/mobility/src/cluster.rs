//! Mobility vectors and incremental mobility clustering (Sec. IV-B2).
//!
//! A mobility vector points from a trip origin to its destination (Def. 9).
//! Requests and busy taxis are grouped into clusters of similar travel
//! direction: a new vector joins the best-matching cluster whose general
//! vector lies within `cos θ ≥ λ`, otherwise it founds a new cluster.
//! Cluster membership updates are O(#clusters), matching the paper's
//! "negligible overheads" claim.

use mtshare_road::{direction_cosine, GeoPoint};

/// A travel intent from an origin to a destination (Def. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilityVector {
    /// Trip origin.
    pub origin: GeoPoint,
    /// Trip destination.
    pub destination: GeoPoint,
}

impl MobilityVector {
    /// Creates a mobility vector.
    pub fn new(origin: GeoPoint, destination: GeoPoint) -> Self {
        Self { origin, destination }
    }

    /// Planar direction (east, north) in metres.
    #[inline]
    pub fn direction(&self) -> (f64, f64) {
        self.origin.displacement_m(&self.destination)
    }

    /// Cosine of the travel-direction difference to `other` (Eq. 1).
    #[inline]
    pub fn cos_to(&self, other: &MobilityVector) -> f64 {
        direction_cosine(self.direction(), other.direction())
    }
}

/// Identifier of a mobility cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Default)]
struct ClusterState {
    count: u32,
    sum_o_lat: f64,
    sum_o_lng: f64,
    sum_d_lat: f64,
    sum_d_lng: f64,
}

impl ClusterState {
    fn general_vector(&self) -> MobilityVector {
        let n = self.count as f64;
        MobilityVector::new(
            GeoPoint::new(self.sum_o_lat / n, self.sum_o_lng / n),
            GeoPoint::new(self.sum_d_lat / n, self.sum_d_lng / n),
        )
    }
}

/// [`MobilityClusterer::snapshot_parts`] output: `(lambda, slots as
/// (count, [Σo_lat, Σo_lng, Σd_lat, Σd_lng]), free list, live count)`.
pub type ClustererParts = (f64, Vec<(u32, [f64; 4])>, Vec<u32>, usize);

/// Incremental clusterer over mobility vectors.
#[derive(Debug, Clone)]
pub struct MobilityClusterer {
    lambda: f64,
    clusters: Vec<ClusterState>,
    free: Vec<u32>,
    live: usize,
}

impl MobilityClusterer {
    /// Creates a clusterer with direction threshold `lambda = cos θ`
    /// (paper default 0.707, i.e. θ = 45°).
    pub fn new(lambda: f64) -> Self {
        assert!((-1.0..=1.0).contains(&lambda), "lambda must be a cosine");
        Self { lambda, clusters: Vec::new(), free: Vec::new(), live: 0 }
    }

    /// The direction threshold λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Number of live (non-empty) clusters.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no clusters exist.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The best-matching live cluster for `v` with `cos ≥ λ`, if any.
    pub fn best_match(&self, v: &MobilityVector) -> Option<ClusterId> {
        let mut best: Option<(f64, ClusterId)> = None;
        for (i, c) in self.clusters.iter().enumerate() {
            if c.count == 0 {
                continue;
            }
            let cos = v.cos_to(&c.general_vector());
            if cos >= self.lambda && best.is_none_or(|(b, _)| cos > b) {
                best = Some((cos, ClusterId(i as u32)));
            }
        }
        best.map(|(_, id)| id)
    }

    /// Inserts `v`, joining the best-matching cluster or founding a new one.
    /// Returns the cluster it landed in.
    pub fn insert(&mut self, v: &MobilityVector) -> ClusterId {
        if let Some(id) = self.best_match(v) {
            self.add_to(id, v);
            id
        } else {
            let id = match self.free.pop() {
                Some(slot) => ClusterId(slot),
                None => {
                    self.clusters.push(ClusterState::default());
                    ClusterId(self.clusters.len() as u32 - 1)
                }
            };
            self.live += 1;
            self.add_to(id, v);
            id
        }
    }

    fn add_to(&mut self, id: ClusterId, v: &MobilityVector) {
        let c = &mut self.clusters[id.index()];
        c.count += 1;
        c.sum_o_lat += v.origin.lat;
        c.sum_o_lng += v.origin.lng;
        c.sum_d_lat += v.destination.lat;
        c.sum_d_lng += v.destination.lng;
    }

    /// Removes a previously inserted vector from cluster `id` (e.g. when
    /// its ride request completes). Empty clusters are recycled.
    pub fn remove(&mut self, id: ClusterId, v: &MobilityVector) {
        let c = &mut self.clusters[id.index()];
        assert!(c.count > 0, "removing from an empty cluster");
        c.count -= 1;
        c.sum_o_lat -= v.origin.lat;
        c.sum_o_lng -= v.origin.lng;
        c.sum_d_lat -= v.destination.lat;
        c.sum_d_lng -= v.destination.lng;
        if c.count == 0 {
            *c = ClusterState::default();
            self.free.push(id.0);
            self.live -= 1;
        }
    }

    /// General mobility vector of a live cluster.
    pub fn general_vector(&self, id: ClusterId) -> Option<MobilityVector> {
        let c = self.clusters.get(id.index())?;
        (c.count > 0).then(|| c.general_vector())
    }

    /// Number of slots, live or recycled: every id `insert` has returned
    /// is below it.
    pub fn slot_count(&self) -> usize {
        self.clusters.len()
    }

    /// Member count of a cluster (0 for recycled slots).
    pub fn member_count(&self, id: ClusterId) -> u32 {
        self.clusters.get(id.index()).map_or(0, |c| c.count)
    }

    /// Iterator over live cluster ids.
    pub fn live_clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.count > 0)
            .map(|(i, _)| ClusterId(i as u32))
    }

    /// Approximate resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.clusters.len() * std::mem::size_of::<ClusterState>() + self.free.len() * 4
    }

    /// The clusterer's complete internal state, slot for slot, for
    /// persistence (see [`ClustererParts`]). Slot positions and free-list
    /// order are part of the state — cluster *identity* is the slot
    /// index, and recycled slots must be reused in the same order after
    /// a restore for dispatch decisions to replay identically.
    pub fn snapshot_parts(&self) -> ClustererParts {
        let slots = self
            .clusters
            .iter()
            .map(|c| (c.count, [c.sum_o_lat, c.sum_o_lng, c.sum_d_lat, c.sum_d_lng]))
            .collect();
        (self.lambda, slots, self.free.clone(), self.live)
    }

    /// Rebuilds a clusterer from [`MobilityClusterer::snapshot_parts`]
    /// output, validating internal consistency (free list ↔ empty slots
    /// ↔ live count) so a corrupt snapshot cannot produce a clusterer
    /// that panics later.
    pub fn from_snapshot_parts(
        lambda: f64,
        slots: Vec<(u32, [f64; 4])>,
        free: Vec<u32>,
        live: usize,
    ) -> Result<Self, &'static str> {
        let n_live = slots.iter().filter(|(count, _)| *count > 0).count();
        if n_live != live {
            return Err("live count disagrees with non-empty slots");
        }
        for &slot in &free {
            match slots.get(slot as usize) {
                Some((0, _)) => {}
                Some(_) => return Err("free list references a non-empty slot"),
                None => return Err("free list references a missing slot"),
            }
        }
        let n_free: std::collections::HashSet<u32> = free.iter().copied().collect();
        if n_free.len() != free.len() {
            return Err("free list contains duplicates");
        }
        if n_free.len() + live != slots.len() {
            return Err("every slot must be live or free");
        }
        let clusters = slots
            .into_iter()
            .map(|(count, [sum_o_lat, sum_o_lng, sum_d_lat, sum_d_lng])| ClusterState {
                count,
                sum_o_lat,
                sum_o_lng,
                sum_d_lat,
                sum_d_lng,
            })
            .collect();
        Ok(Self { lambda, clusters, free, live })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(o: (f64, f64), d: (f64, f64)) -> MobilityVector {
        MobilityVector::new(GeoPoint::new(o.0, o.1), GeoPoint::new(d.0, d.1))
    }

    const LAMBDA_45: f64 = std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn similar_directions_share_a_cluster() {
        let mut c = MobilityClusterer::new(LAMBDA_45);
        // Both head roughly north-east.
        let a = mv((30.0, 104.0), (30.01, 104.01));
        let b = mv((30.001, 104.001), (30.012, 104.009));
        let ca = c.insert(&a);
        let cb = c.insert(&b);
        assert_eq!(ca, cb);
        assert_eq!(c.len(), 1);
        assert_eq!(c.member_count(ca), 2);
    }

    #[test]
    fn opposite_directions_split() {
        let mut c = MobilityClusterer::new(LAMBDA_45);
        let north = mv((30.0, 104.0), (30.01, 104.0));
        let south = mv((30.0, 104.0), (29.99, 104.0));
        let cn = c.insert(&north);
        let cs = c.insert(&south);
        assert_ne!(cn, cs);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn best_match_prefers_closest_direction() {
        let mut c = MobilityClusterer::new(0.8);
        let east = mv((30.0, 104.0), (30.0, 104.02));
        let north = mv((30.0, 104.0), (30.02, 104.0));
        let ce = c.insert(&east);
        let cn = c.insert(&north);
        // North-north-east probe: nearer to north than east.
        let probe = mv((30.0, 104.0), (30.02, 104.005));
        assert_eq!(c.best_match(&probe), Some(cn));
        assert_ne!(ce, cn);
    }

    #[test]
    fn remove_recycles_empty_clusters() {
        let mut c = MobilityClusterer::new(LAMBDA_45);
        let a = mv((30.0, 104.0), (30.01, 104.0));
        let id = c.insert(&a);
        c.remove(id, &a);
        assert_eq!(c.len(), 0);
        assert_eq!(c.general_vector(id), None);
        // Next insert reuses the slot.
        let b = mv((30.0, 104.0), (29.99, 104.0));
        let id2 = c.insert(&b);
        assert_eq!(id2, id);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn general_vector_is_mean_of_members() {
        let mut c = MobilityClusterer::new(0.5);
        let a = mv((30.0, 104.0), (30.02, 104.0));
        let b = mv((30.01, 104.0), (30.05, 104.0));
        let id = c.insert(&a);
        assert_eq!(c.insert(&b), id);
        let g = c.general_vector(id).unwrap();
        assert!((g.origin.lat - 30.005).abs() < 1e-9);
        assert!((g.destination.lat - 30.035).abs() < 1e-9);
    }

    #[test]
    fn member_within_threshold_at_admission() {
        // Property sampled over a fan of directions.
        let mut c = MobilityClusterer::new(LAMBDA_45);
        for i in 0..36 {
            let theta = i as f64 * 10f64.to_radians();
            let v = mv((30.0, 104.0), (30.0 + 0.01 * theta.cos(), 104.0 + 0.01 * theta.sin()));
            let id = c.insert(&v);
            // After insertion the member's cosine to its own cluster mean
            // should be high (mean moved toward it).
            let g = c.general_vector(id).unwrap();
            assert!(v.cos_to(&g) >= 0.5, "i={i} cos={}", v.cos_to(&g));
        }
        assert!(c.len() >= 4, "a 45° threshold splits the circle into ≥4 fans, got {}", c.len());
    }

    #[test]
    fn degenerate_zero_length_vector_forms_own_cluster() {
        let mut c = MobilityClusterer::new(LAMBDA_45);
        let p = GeoPoint::new(30.0, 104.0);
        let z = MobilityVector::new(p, p);
        let n = mv((30.0, 104.0), (30.01, 104.0));
        let cz = c.insert(&z);
        let cn = c.insert(&n);
        assert_ne!(cz, cn);
    }
}
