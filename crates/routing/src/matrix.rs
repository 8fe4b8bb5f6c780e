//! Dense cost matrices for small source sets.
//!
//! The landmark graph needs exact travel costs between every pair of
//! landmarks (Sec. IV-B1) and from each landmark to every vertex
//! (partition filtering, Alg. 2). With κ ≈ 10²–10³ landmarks these are
//! cheap to precompute: one forward and one backward bucket-queue
//! [`Sweep`] per landmark.

use crate::sweep::Sweep;
use mtshare_road::{NodeId, RoadNetwork};
use rustc_hash::FxHashMap;

/// Precomputed costs from a fixed source set to all vertices, and from all
/// vertices back to each source.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    sources: Vec<NodeId>,
    index_of: FxHashMap<NodeId, u32>,
    /// `from_rows[i][v]` = cost from `sources[i]` to vertex `v`.
    from_rows: Vec<Vec<f32>>,
    /// `to_rows[i][v]` = cost from vertex `v` to `sources[i]`.
    to_rows: Vec<Vec<f32>>,
}

impl CostMatrix {
    /// Runs 2·|sources| sweeps (one forward, one backward engine). Duplicate
    /// sources are collapsed to one row (first occurrence keeps its
    /// position), so repeated landmarks don't pay for repeated searches.
    pub fn compute(graph: &RoadNetwork, sources: &[NodeId]) -> Self {
        let mut index_of: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut unique: Vec<NodeId> = Vec::with_capacity(sources.len());
        for &s in sources {
            index_of.entry(s).or_insert_with(|| {
                unique.push(s);
                unique.len() as u32 - 1
            });
        }
        let (mut forward, mut backward) = (Sweep::forward(graph), Sweep::backward(graph));
        let mut from_rows = Vec::with_capacity(unique.len());
        let mut to_rows = Vec::with_capacity(unique.len());
        for &s in &unique {
            let mut fwd = Vec::new();
            forward.run(s, &mut fwd);
            from_rows.push(fwd);
            let mut bwd = Vec::new();
            backward.run(s, &mut bwd);
            to_rows.push(bwd);
        }
        Self { sources: unique, index_of, from_rows, to_rows }
    }

    /// The source set in construction order.
    #[inline]
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Row index of a source vertex, if it is in the set.
    #[inline]
    pub fn source_index(&self, s: NodeId) -> Option<usize> {
        self.index_of.get(&s).map(|&i| i as usize)
    }

    /// Cost from source `s` (must be in the set) to any vertex `v`.
    /// `f32::INFINITY` when unreachable.
    #[inline]
    pub fn cost_from(&self, s: NodeId, v: NodeId) -> f32 {
        self.from_rows[self.index_of[&s] as usize][v.index()]
    }

    /// Cost between two sources.
    #[inline]
    pub fn between(&self, a: NodeId, b: NodeId) -> f32 {
        self.cost_from(a, b)
    }

    /// Cost from source row `i` to vertex `v` (index-based fast path).
    #[inline]
    pub fn cost_from_idx(&self, i: usize, v: NodeId) -> f32 {
        self.from_rows[i][v.index()]
    }

    /// Cost from vertex `v` to source row `i` (index-based fast path).
    #[inline]
    pub fn cost_to_idx(&self, v: NodeId, i: usize) -> f32 {
        self.to_rows[i][v.index()]
    }

    /// Approximate resident memory in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.from_rows.iter().chain(self.to_rows.iter()).map(|r| r.len() * 4).sum::<usize>()
            + self.sources.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::Dijkstra;
    use mtshare_road::{grid_city, GridCityConfig};

    #[test]
    fn matrix_matches_point_queries() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let sources = vec![NodeId(0), NodeId(200), NodeId(399)];
        let m = CostMatrix::compute(&g, &sources);
        let mut d = Dijkstra::new(&g);
        for &s in &sources {
            for t in [NodeId(5), NodeId(123), NodeId(398)] {
                let want = d.cost(&g, s, t).unwrap();
                assert!((m.cost_from(s, t) as f64 - want).abs() < 1e-2);
                let back = d.cost(&g, t, s).unwrap();
                let row = m.source_index(s).unwrap();
                assert!((m.cost_to_idx(t, row) as f64 - back).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn duplicate_sources_collapse_to_one_row() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let dup = vec![NodeId(0), NodeId(200), NodeId(0), NodeId(200), NodeId(399)];
        let m = CostMatrix::compute(&g, &dup);
        let clean = CostMatrix::compute(&g, &[NodeId(0), NodeId(200), NodeId(399)]);
        assert_eq!(m.sources(), clean.sources());
        assert_eq!(m.memory_bytes(), clean.memory_bytes());
        assert_eq!(m.source_index(NodeId(200)), Some(1));
        assert_eq!(m.source_index(NodeId(399)), Some(2));
        for t in [NodeId(5), NodeId(123), NodeId(398)] {
            assert_eq!(m.cost_from(NodeId(0), t), clean.cost_from(NodeId(0), t));
            assert_eq!(m.cost_to_idx(t, 2), clean.cost_to_idx(t, 2));
        }
    }

    #[test]
    fn between_is_symmetric_with_rows() {
        let g = grid_city(&GridCityConfig::tiny()).unwrap();
        let sources = vec![NodeId(10), NodeId(350)];
        let m = CostMatrix::compute(&g, &sources);
        assert_eq!(m.between(NodeId(10), NodeId(350)), m.cost_from(NodeId(10), NodeId(350)));
        assert_eq!(m.between(NodeId(10), NodeId(10)), 0.0);
        assert_eq!(m.source_index(NodeId(350)), Some(1));
        assert_eq!(m.source_index(NodeId(11)), None);
        assert!(m.memory_bytes() > 0);
        assert_eq!(m.sources().len(), 2);
    }
}
