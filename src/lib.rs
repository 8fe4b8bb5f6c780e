//! # mT-Share — Mobility-Aware Dynamic Taxi Ridesharing
//!
//! A from-scratch Rust reproduction of *"Mobility-Aware Dynamic Taxi
//! Ridesharing"* (ICDE 2020; journal version IEEE IoT-J 2022). This
//! umbrella crate re-exports the whole stack:
//!
//! - [`road`]: road-network substrate (graph, geometry, synthetic cities);
//! - [`routing`]: shortest-path engines and shared cost oracles;
//! - [`mobility`]: k-means, bipartite map partitioning, landmark graph,
//!   mobility clustering;
//! - [`model`]: requests, taxis, schedules, routes, fares, the
//!   `DispatchScheme` trait;
//! - [`dtree`]: incremental dynamic trees of stop sequences — the
//!   `--scheduler dtree` engine's data structure;
//! - [`core`]: the mT-Share system (dual indexing, matching, basic +
//!   probabilistic routing, payment model);
//! - [`baselines`]: No-Sharing, T-Share, pGreedyDP;
//! - [`sim`]: workload generator and the event-driven simulator;
//! - [`obs`]: structured observability (events, counters, histograms,
//!   stage spans, JSONL export) — see DESIGN.md, "Observability";
//! - [`serve`]: long-lived service runtime (JSONL request feed, bounded
//!   admission queue, graceful drain) — see DESIGN.md, "Service mode";
//! - [`chaos`]: seeded disruption plans, retry policy and runtime
//!   invariant checks — see DESIGN.md, "Fault model & recovery".
//!
//! See `examples/quickstart.rs` for a five-minute tour and `DESIGN.md` for
//! the paper-to-module map.

pub use mtshare_baselines as baselines;
pub use mtshare_chaos as chaos;
pub use mtshare_core as core;
pub use mtshare_dtree as dtree;
pub use mtshare_mobility as mobility;
pub use mtshare_model as model;
pub use mtshare_obs as obs;
pub use mtshare_persist as persist;
pub use mtshare_road as road;
pub use mtshare_routing as routing;
pub use mtshare_serve as serve;
pub use mtshare_sim as sim;
