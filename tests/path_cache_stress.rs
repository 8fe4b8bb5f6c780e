//! Multi-thread stress test for the shared [`PathCache`]: many threads
//! hammer one shared cache with overlapping seeded query streams, and
//! every single answer is checked against an independent per-thread
//! Dijkstra reference. Afterwards the aggregate stats and the cache's
//! post-hoc answers must be consistent with what the threads saw.

use mt_share::road::{grid_city, GridCityConfig, NodeId};
use mt_share::routing::{Dijkstra, PathCache};
use rand::prelude::*;
use std::sync::Arc;

const THREADS: usize = 8;
const QUERIES_PER_THREAD: usize = 300;

#[test]
fn concurrent_queries_agree_with_dijkstra_reference() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let n = graph.node_count() as u32;
    let cache = PathCache::new(graph.clone());

    // Each thread returns its (pair -> cost) observations so the main
    // thread can cross-check threads against each other afterwards.
    let observations: Vec<Vec<((u32, u32), f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = cache.clone();
                let graph = graph.clone();
                s.spawn(move || {
                    // Overlapping seeds (t / 2): half the threads replay
                    // another thread's exact stream, maximising same-pair
                    // contention.
                    let mut rng = SmallRng::seed_from_u64(0xC0FFEE + (t / 2) as u64);
                    let mut reference = Dijkstra::new(&graph);
                    let mut seen = Vec::with_capacity(QUERIES_PER_THREAD);
                    let mut issued = 0usize;
                    while issued < QUERIES_PER_THREAD {
                        let a = rng.gen_range(0u32..n);
                        let b = rng.gen_range(0u32..n);
                        if a == b {
                            // Self-queries short-circuit without touching
                            // the memo; keep the accounting below exact.
                            continue;
                        }
                        issued += 1;
                        let got = cache.cost(NodeId(a), NodeId(b));
                        let want = reference.cost(&graph, NodeId(a), NodeId(b));
                        match (got, want) {
                            (Some(g), Some(w)) => {
                                // Both engines run f32 searches; different
                                // relaxation orders can differ by rounding.
                                assert!(
                                    (g - w).abs() <= 1e-2 + 1e-4 * w,
                                    "cache {g} vs dijkstra {w} for ({a},{b})"
                                );
                                seen.push(((a, b), g));
                            }
                            (None, None) => {}
                            (g, w) => {
                                panic!("reachability disagreement for ({a},{b}): cache={g:?} dijkstra={w:?}")
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Cross-thread consistency: any pair observed by several threads must
    // have produced the *same bits* everywhere — the memoised f32 value is
    // canonical no matter which thread computed it first.
    let mut canonical: rustc_hash::FxHashMap<(u32, u32), f64> = Default::default();
    let mut repeats = 0usize;
    for per_thread in &observations {
        for &(pair, cost) in per_thread {
            match canonical.get(&pair) {
                Some(&c) => {
                    repeats += 1;
                    assert_eq!(c.to_bits(), cost.to_bits(), "pair {pair:?} not canonical");
                }
                None => {
                    canonical.insert(pair, cost);
                }
            }
        }
    }
    assert!(repeats > 0, "seed overlap must produce repeated pairs");

    // Replaying every observed pair now must be all hits, bit-identical.
    for (&(a, b), &cost) in &canonical {
        let again = cache.cost(NodeId(a), NodeId(b)).unwrap();
        assert_eq!(again.to_bits(), cost.to_bits());
    }

    // Aggregate accounting: every non-self query landed exactly once in
    // hit or miss, a miss inserts exactly one memo entry, and repeated
    // observations plus the replay were necessarily hits.
    let stats = cache.stats();
    let replay = canonical.len() as u64;
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * QUERIES_PER_THREAD) as u64 + replay,
        "lost or double-counted queries: {stats:?}"
    );
    assert!(stats.hits >= repeats as u64 + replay, "{stats:?}");
    assert_eq!(cache.len() as u64, stats.misses, "{} entries, {stats:?}", cache.len());
    assert!(cache.memory_bytes() > 0);
}

#[test]
fn warm_then_concurrent_reads_are_all_hits() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let n = graph.node_count() as u32;
    let cache = PathCache::new(graph.clone());
    let sources: Vec<NodeId> = (0..24).map(|i| NodeId(i * 13 % n)).collect();
    let targets: Vec<NodeId> = (0..24).map(|i| NodeId(i * 7 % n + 1)).collect();
    cache.warm(&sources, &targets);
    let warmed = cache.stats();

    let reads: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = cache.clone();
                let sources = &sources;
                let targets = &targets;
                s.spawn(move || {
                    let mut reads = 0u64;
                    for (i, &a) in sources.iter().enumerate() {
                        let b = targets[(i + t) % targets.len()];
                        if a == b {
                            continue; // self-queries bypass the memo
                        }
                        reads += 1;
                        assert!(cache.cost(a, b).is_some());
                    }
                    reads
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let after = cache.stats();
    assert_eq!(after.misses, warmed.misses, "warmed reads must not recompute");
    assert_eq!(after.hits - warmed.hits, reads, "every concurrent read must be a hit");
}
