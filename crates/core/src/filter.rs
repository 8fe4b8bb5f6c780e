//! Partition filtering (Algorithm 2, Sec. IV-C2 Phase 1).
//!
//! For a consecutive event pair `(s_z, s_{z+1})`, prune the κ map
//! partitions down to those plausibly on a good route between them, using
//! only O(1) landmark-table lookups per partition:
//!
//! - **travel-direction rule**: the vector `ℓ_z → ℓ_i` must be within
//!   `cos θ ≥ λ` of the leg direction `ℓ_z → ℓ_{z+1}`;
//! - **travel-cost rule**: `cost(ℓ_z, ℓ_i) + cost(ℓ_i, ℓ_{z+1}) ≤ (1+ε) ·
//!   cost(ℓ_z, ℓ_{z+1})`.

use crate::context::MobilityContext;
use mtshare_mobility::PartitionId;
use mtshare_obs::{Obs, Stage};
use mtshare_road::{direction_cosine, NodeId, RoadNetwork};

/// Output of one partition-filter invocation.
#[derive(Debug, Clone, Default)]
pub struct FilteredPartitions {
    /// Retained partitions (always includes both endpoints' partitions).
    pub partitions: Vec<PartitionId>,
    /// Landmark-estimated leg cost `cost(ℓ_z, ℓ_{z+1})`, seconds.
    pub landmark_cost_s: f64,
}

/// [`filter_partitions`] with telemetry: times the filter as a
/// [`Stage::PartitionFilter`] span and records how many of the κ
/// partitions survived the prune.
pub fn filter_partitions_observed(
    graph: &RoadNetwork,
    ctx: &MobilityContext,
    from: NodeId,
    to: NodeId,
    lambda: f64,
    epsilon: f64,
    obs: &Obs,
) -> FilteredPartitions {
    let _span = obs.stage(Stage::PartitionFilter);
    let out = filter_partitions(graph, ctx, from, to, lambda, epsilon);
    let (considered, kept) = (ctx.kappa() as u64, out.partitions.len() as u64);
    obs.add(
        "counters",
        &[("filter_partitions_considered", considered), ("filter_partitions_kept", kept)],
    );
    out
}

/// Runs Algorithm 2 for the leg `from → to`.
pub fn filter_partitions(
    graph: &RoadNetwork,
    ctx: &MobilityContext,
    from: NodeId,
    to: NodeId,
    lambda: f64,
    epsilon: f64,
) -> FilteredPartitions {
    let pz = ctx.partitioning.partition_of(from);
    let pz1 = ctx.partitioning.partition_of(to);
    let lz = ctx.partitioning.landmark(pz);
    let lz1 = ctx.partitioning.landmark(pz1);
    let base = ctx.landmarks.cost_between(pz, pz1) as f64;
    let mut out = FilteredPartitions { partitions: Vec::new(), landmark_cost_s: base };

    if pz == pz1 || !base.is_finite() {
        // Same-partition leg (or disconnected landmarks): keep the
        // endpoints' partitions and their immediate neighbours so the
        // segment search has room to connect.
        out.partitions.push(pz);
        if pz1 != pz {
            out.partitions.push(pz1);
        }
        for &n in ctx.landmarks.neighbors(pz) {
            if !out.partitions.contains(&n) {
                out.partitions.push(n);
            }
        }
        return out;
    }

    let dir_z = graph.point(lz).displacement_m(&graph.point(lz1));
    for pi in ctx.partitioning.partitions() {
        if pi == pz || pi == pz1 {
            out.partitions.push(pi);
            continue;
        }
        // Travel-cost rule.
        let via =
            ctx.landmarks.cost_between(pz, pi) as f64 + ctx.landmarks.cost_between(pi, pz1) as f64;
        if !via.is_finite() || via > (1.0 + epsilon) * base {
            continue;
        }
        // Travel-direction rule. The angular error of a landmark as a proxy
        // for its partition scales with (partition radius / baseline), so
        // measure the leg direction on the longer baseline: the approach
        // `ℓ_z → ℓ_i` for partitions nearer the destination, the departure
        // `ℓ_i → ℓ_{z+1}` for partitions nearer the source.
        let li = ctx.partitioning.landmark(pi);
        let approach = graph.point(lz).displacement_m(&graph.point(li));
        let departure = graph.point(li).displacement_m(&graph.point(lz1));
        let longer = if approach.0 * approach.0 + approach.1 * approach.1
            >= departure.0 * departure.0 + departure.1 * departure.1
        {
            approach
        } else {
            departure
        };
        if direction_cosine(longer, dir_z) < lambda {
            continue;
        }
        out.partitions.push(pi);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PartitionStrategy;
    use mtshare_mobility::Trip;
    use mtshare_road::{grid_city, GridCityConfig};
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    use std::sync::Arc;

    fn setup() -> (Arc<RoadNetwork>, Arc<MobilityContext>) {
        let g = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let mut rng = SmallRng::seed_from_u64(3);
        let trips: Vec<_> = (0..800)
            .map(|_| Trip {
                origin: NodeId(rng.gen_range(0..400)),
                destination: NodeId(rng.gen_range(0..400)),
            })
            .collect();
        let ctx = MobilityContext::build(&g, &trips, 16, 4, 7, PartitionStrategy::Grid);
        (g, ctx)
    }

    #[test]
    fn endpoints_always_retained() {
        let (g, ctx) = setup();
        let f = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), 0.707, 1.0);
        assert!(f.partitions.contains(&ctx.partitioning.partition_of(NodeId(0))));
        assert!(f.partitions.contains(&ctx.partitioning.partition_of(NodeId(399))));
        assert!(f.landmark_cost_s > 0.0);
    }

    #[test]
    fn filter_prunes_most_partitions_for_long_legs() {
        let (g, ctx) = setup();
        // Opposite grid corners: partitions far off the diagonal corridor
        // must be dropped. λ = 0.9 sits in a gap of this grid's discrete
        // landmark-cosine spectrum ({≈0.98, ≈0.95, ≈0.89, ≈0.71}), so the
        // outcome is robust to landmark jitter; 0.707 would be degenerate
        // here because every grid-edge partition lies at exactly 45°.
        let f = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), 0.9, 0.3);
        assert!(
            f.partitions.len() < ctx.kappa(),
            "kept {} of {} partitions",
            f.partitions.len(),
            ctx.kappa()
        );
    }

    #[test]
    fn epsilon_zero_keeps_a_thin_corridor() {
        let (g, ctx) = setup();
        let tight = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), 0.707, 0.0);
        let loose = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), 0.707, 2.0);
        assert!(tight.partitions.len() <= loose.partitions.len());
    }

    #[test]
    fn lambda_restricts_direction() {
        let (g, ctx) = setup();
        let loose = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), -1.0, 1.0);
        let strict = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), 0.95, 1.0);
        assert!(strict.partitions.len() <= loose.partitions.len());
    }

    #[test]
    fn same_partition_leg_keeps_neighbourhood() {
        let (g, ctx) = setup();
        // Two nodes in the same partition.
        let p0 = ctx.partitioning.partition_of(NodeId(0));
        let mate = *ctx
            .partitioning
            .members(p0)
            .iter()
            .find(|&&v| v != NodeId(0))
            .expect("partition has >1 member");
        let f = filter_partitions(&g, &ctx, NodeId(0), mate, 0.707, 1.0);
        assert!(f.partitions.contains(&p0));
        // Neighbourhood included.
        assert!(f.partitions.len() >= 2);
        assert_eq!(f.landmark_cost_s, 0.0);
    }

    #[test]
    fn retained_partitions_cover_the_true_shortest_path_mostly() {
        let (g, ctx) = setup();
        let mut d = mtshare_routing::Dijkstra::new(&g);
        let p = d.path(&g, NodeId(0), NodeId(399)).unwrap();
        let f = filter_partitions(&g, &ctx, NodeId(0), NodeId(399), 0.707, 1.0);
        let kept: std::collections::HashSet<_> = f.partitions.iter().copied().collect();
        let covered =
            p.nodes.iter().filter(|&&n| kept.contains(&ctx.partitioning.partition_of(n))).count();
        // ε = 1.0 is the paper's conservative setting: expect the vast
        // majority of true-shortest-path vertices inside the filter.
        assert!(
            covered as f64 / p.nodes.len() as f64 > 0.9,
            "only {covered}/{} shortest-path nodes covered",
            p.nodes.len()
        );
    }
}
