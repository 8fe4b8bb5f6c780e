//! Path representation shared by all search engines, and the one way a
//! route is read off distances ([`walk`]).

use crate::sweep::Region;
use mtshare_road::{NodeId, RoadNetwork};

/// A walk through the road network with its total travel cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Visited vertices in order, including both endpoints. A trivial path
    /// from a vertex to itself contains that vertex once.
    pub nodes: Vec<NodeId>,
    /// Total travel cost in seconds.
    pub cost_s: f64,
}

impl Path {
    /// A zero-cost path staying at `node`.
    pub fn trivial(node: NodeId) -> Self {
        Self { nodes: vec![node], cost_s: 0.0 }
    }

    /// First vertex of the path.
    #[inline]
    pub fn start(&self) -> NodeId {
        *self.nodes.first().expect("paths are never empty")
    }

    /// Last vertex of the path.
    #[inline]
    pub fn end(&self) -> NodeId {
        *self.nodes.last().expect("paths are never empty")
    }

    /// Number of edges traversed.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Appends `other` onto this path. `other` must start where this path
    /// ends (the paper's `⊎` concatenation in Algorithms 3–4).
    pub fn concat(&mut self, other: &Path) {
        assert_eq!(self.end(), other.start(), "concatenated paths must share an endpoint");
        self.nodes.extend_from_slice(&other.nodes[1..]);
        self.cost_s += other.cost_s;
    }
}

/// The canonical shortest path `a -> b`, read off `d`, a backward region
/// of `b` on `graph` (`d.seconds(v)` = the cost from `v` to `b`): from `a`,
/// step to the smallest-id head `y` of an arc `(x, y)` with `w(x, y) +
/// d[y] == d[x]` until `b`. Every tight arc starts a shortest path to `b`,
/// so greedily taking the smallest next vertex yields the
/// lexicographically smallest node sequence among all shortest paths — a
/// function of `(a, b)` and the metric alone. Dyadic costs make the
/// equality exact, and positive arc costs make `d` fall at every step.
///
/// `d` must be exact at `a` and at every vertex of a shortest path from
/// `a` to `b`; any other entry reads [`Region::beyond`], which exceeds
/// every exact one, so it is never tight. `None` when `d[a]` is infinite:
/// `∞ == ∞` would make every arc look tight.
pub(crate) fn walk(graph: &RoadNetwork, d: &Region, a: NodeId, b: NodeId) -> Option<Path> {
    if !d.seconds(a).is_finite() {
        return None;
    }
    let mut nodes = vec![a];
    let mut x = a;
    while x != b {
        let tight = graph.out_edges(x).filter(|&(y, w)| w + d.seconds(y) == d.seconds(x));
        x = tight.map(|(y, _)| y).min()?;
        nodes.push(x);
    }
    Some(Path { nodes, cost_s: d.seconds(a) as f64 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId(3));
        assert_eq!(p.start(), NodeId(3));
        assert_eq!(p.end(), NodeId(3));
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.cost_s, 0.0);
    }

    #[test]
    fn concat_joins_and_sums() {
        let mut a = Path { nodes: vec![NodeId(0), NodeId(1)], cost_s: 5.0 };
        let b = Path { nodes: vec![NodeId(1), NodeId(2), NodeId(3)], cost_s: 7.0 };
        a.concat(&b);
        assert_eq!(a.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(a.cost_s, 12.0);
    }

    #[test]
    #[should_panic(expected = "share an endpoint")]
    fn concat_rejects_disjoint() {
        let mut a = Path::trivial(NodeId(0));
        a.concat(&Path::trivial(NodeId(1)));
    }
}
