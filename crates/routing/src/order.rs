//! Metric-independent contraction orders for customizable hierarchies.
//!
//! A plain CH picks its order from the *metric* (edge-difference keys),
//! which is what makes re-weighting expensive: change a cost, rebuild
//! the world. A customizable CH instead fixes the order from graph
//! *topology* alone — here a nested-dissection order computed from the
//! road geometry ([`mtshare_road::nested_dissection_order`]) — so the
//! shortcut skeleton survives any metric change and only the weights
//! need recomputing. This module holds the order/rank bookkeeping shared
//! by skeleton construction, customization, and queries.

use mtshare_road::RoadNetwork;

/// A contraction order: a permutation of vertex ids plus its inverse.
///
/// `order[k]` is the vertex contracted at position `k` (so later
/// positions are *more* important); `rank[v]` is vertex `v`'s position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOrder {
    order: Vec<u32>,
    rank: Vec<u32>,
}

impl NodeOrder {
    /// Wraps an explicit elimination order.
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of `0..order.len()`.
    pub fn from_order(order: Vec<u32>) -> Self {
        let n = order.len();
        let mut rank = vec![u32::MAX; n];
        for (k, &v) in order.iter().enumerate() {
            assert!((v as usize) < n, "vertex {v} out of range");
            assert!(rank[v as usize] == u32::MAX, "vertex {v} appears twice");
            rank[v as usize] = k as u32;
        }
        Self { order, rank }
    }

    /// The nested-dissection order of `graph` — a pure function of the
    /// graph topology and geometry, independent of edge costs.
    pub fn nested_dissection(graph: &RoadNetwork) -> Self {
        Self::from_order(mtshare_road::nested_dissection_order(graph))
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the order is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position of vertex `v` in the elimination order.
    #[inline]
    pub fn rank(&self, v: u32) -> u32 {
        self.rank[v as usize]
    }

    /// The rank array, indexed by vertex id.
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }

    /// The order array (vertices in elimination sequence).
    #[inline]
    pub fn nodes(&self) -> &[u32] {
        &self.order
    }

    /// Consumes the order into its `(order, rank)` arrays.
    pub fn into_parts(self) -> (Vec<u32>, Vec<u32>) {
        (self.order, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig};

    #[test]
    fn rank_inverts_order() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let ord = NodeOrder::nested_dissection(&g);
        assert_eq!(ord.len(), g.node_count());
        assert!(!ord.is_empty());
        for (k, &v) in ord.order.iter().enumerate() {
            assert_eq!(ord.rank(v), k as u32);
        }
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn rejects_duplicates() {
        let _ = NodeOrder::from_order(vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = NodeOrder::from_order(vec![0, 3]);
    }
}
