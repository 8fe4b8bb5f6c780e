//! Per-request matching latency (the Fig. 7/11 metric as a microbench):
//! candidate searching + taxi scheduling for each scheme against the same
//! fleet snapshot.

use criterion::{criterion_group, criterion_main, Criterion};
use mtshare_core::PartitionStrategy;
use mtshare_model::{DispatchScheme, RequestStore, World};
use mtshare_road::grid_city;
use mtshare_routing::{HotNodeOracle, PathCache};
use mtshare_sim::{build_context, Scenario, ScenarioConfig, SchemeKind};
use std::sync::Arc;

fn bench_dispatch(c: &mut Criterion) {
    let cfg = ScenarioConfig::peak(60);
    let graph = Arc::new(
        grid_city(&mtshare_road::GridCityConfig { rows: 60, cols: 60, ..Default::default() })
            .unwrap(),
    );
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, cfg);
    let ctx = build_context(&graph, &scenario.historical, 48, PartitionStrategy::Bipartite);
    let oracle = HotNodeOracle::new(graph.clone());

    // Pin every request endpoint so leg-cost probes are O(1), as in the
    // simulator.
    let mut requests = RequestStore::new();
    for r in &scenario.requests {
        oracle.pin(r.origin);
        oracle.pin(r.destination);
        requests.push(r.clone());
    }
    let taxis = scenario.taxis.clone();

    let mut group = c.benchmark_group("dispatch_per_request");
    for kind in SchemeKind::NONPEAK_SET {
        let mut scheme =
            kind.build(&graph, taxis.len(), kind.needs_context().then(|| ctx.clone()), None);
        {
            let world = World {
                graph: &graph,
                cache: &cache,
                oracle: &oracle,
                taxis: &taxis,
                requests: &requests,
            };
            scheme.install(&world);
        }
        group.bench_function(kind.label(), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let req = &scenario.requests[i % scenario.requests.len()];
                i += 1;
                let world = World {
                    graph: &graph,
                    cache: &cache,
                    oracle: &oracle,
                    taxis: &taxis,
                    requests: &requests,
                };
                scheme.dispatch(req, req.release_time, &world)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
