//! Routing microbenches + the partition-filtering ablation (DESIGN.md
//! decision #2): full-graph Dijkstra vs bidirectional vs the contraction
//! hierarchy vs the filtered-subgraph search, and cold-vs-warm cache
//! behaviour.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mtshare_core::{MobilityContext, MtShareConfig, PartitionStrategy, SegmentRouter};
use mtshare_mobility::Trip;
use mtshare_road::{grid_city, GridCityConfig, NodeId};
use mtshare_routing::{BidirDijkstra, ChQuery, ContractionHierarchy, Dijkstra, PathCache};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

fn random_pairs(n_nodes: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (NodeId(rng.gen_range(0..n_nodes as u32)), NodeId(rng.gen_range(0..n_nodes as u32)))
        })
        .collect()
}

fn bench_point_to_point(c: &mut Criterion) {
    let graph =
        Arc::new(grid_city(&GridCityConfig { rows: 60, cols: 60, ..Default::default() }).unwrap());
    let pairs = random_pairs(graph.node_count(), 64, 1);
    let mut group = c.benchmark_group("point_to_point");

    let mut d = Dijkstra::new(&graph);
    group.bench_function("dijkstra", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            d.cost(&graph, s, t)
        })
    });

    let mut bi = BidirDijkstra::new(&graph);
    group.bench_function("bidirectional", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            bi.cost(&graph, s, t)
        })
    });

    // Contraction hierarchy (preprocessing excluded from timing).
    let ch = Arc::new(ContractionHierarchy::build(&graph, 4));
    let mut chq = ChQuery::new(ch);
    group.bench_function("contraction_hierarchy", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            chq.cost(s, t)
        })
    });
    group.finish();
}

fn bench_filtered_vs_full(c: &mut Criterion) {
    let graph =
        Arc::new(grid_city(&GridCityConfig { rows: 60, cols: 60, ..Default::default() }).unwrap());
    let mut rng = SmallRng::seed_from_u64(2);
    let trips: Vec<_> = (0..4000)
        .map(|_| Trip {
            origin: NodeId(rng.gen_range(0..graph.node_count() as u32)),
            destination: NodeId(rng.gen_range(0..graph.node_count() as u32)),
        })
        .collect();
    let ctx = MobilityContext::build(&graph, &trips, 48, 8, 7, PartitionStrategy::Bipartite);
    let cfg = MtShareConfig::default();
    let cache = PathCache::new(graph.clone());
    let pairs = random_pairs(graph.node_count(), 64, 3);

    let mut group = c.benchmark_group("segment_routing");
    let mut router = SegmentRouter::new(&graph);
    group.bench_function("filtered_basic_leg", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            router.basic_leg(&graph, &ctx, &cfg, &cache, s, t)
        })
    });
    let mut full = BidirDijkstra::new(&graph);
    group.bench_function("full_graph_leg", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            full.path(&graph, s, t)
        })
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let graph =
        Arc::new(grid_city(&GridCityConfig { rows: 60, cols: 60, ..Default::default() }).unwrap());
    let pairs = random_pairs(graph.node_count(), 256, 4);
    let mut group = c.benchmark_group("path_cache");

    group.bench_function("cold", |b| {
        b.iter_batched(
            || PathCache::new(graph.clone()),
            |cache| {
                for &(s, t) in pairs.iter().take(16) {
                    let _ = cache.cost(s, t);
                }
            },
            BatchSize::SmallInput,
        )
    });

    let warm = PathCache::new(graph.clone());
    for &(s, t) in &pairs {
        let _ = warm.cost(s, t);
    }
    group.bench_function("warm", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            warm.cost(s, t)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_point_to_point, bench_filtered_vs_full, bench_cache);
criterion_main!(benches);
