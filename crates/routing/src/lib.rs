//! Shortest-path engines for mT-Share.
//!
//! Route planning "usually bottlenecks the efficiency of taxi scheduling"
//! (Sec. IV-C2), so this crate provides a family of engines tuned for the
//! query mix the system issues:
//!
//! - [`Sweep`]: the one one-to-all kernel, a bucket-queue sweep (fills the
//!   oracle's pinned vectors, the vector every [`PathCache::path`] walks
//!   down, and the landmark [`CostMatrix`]);
//! - [`Path`]: a route; every route in the program is the canonical walk
//!   down a backward vector, the lexicographically smallest shortest path;
//! - [`Dijkstra`]: plain point-to-point search, the tests' reference;
//! - [`BidirDijkstra`]: point-to-point costs (the shared cache's misses
//!   under the default backend);
//! - [`MaskedDijkstra`] + [`NodeMask`]: subgraph search with vertex
//!   weights and a budget, for probabilistic routing (Algorithm 4) inside
//!   the partitions the filter keeps;
//! - [`ContractionHierarchy`] and [`CustomizableCh`]: preprocessed exact
//!   hierarchies, persistable as CRC-framed artifacts (see the [`ch`] and
//!   [`cch`] module docs). Both are searched by one kernel:
//!   [`ChQuery`]/[`CchQuery`] alias its bidirectional upward search,
//!   [`ChBuckets`]/[`CchBuckets`] its bucket many-to-one sweep;
//! - [`PathCache`]: the one memo and the one miss path standing in for the
//!   paper's cached all-pairs table, with a pluggable exact backend
//!   ([`RouterBackend`]);
//! - [`HotNodeOracle`]: pinned backward vectors in front of that cache —
//!   O(1) leg costs and search-free routes into active request endpoints;
//! - [`CostMatrix`]: dense landmark-to-everything cost tables.

#![warn(missing_docs)]

pub mod bidirectional;
pub mod cache;
pub mod cch;
pub mod ch;
pub mod dijkstra;
pub mod masked;
pub mod matrix;
pub mod oracle;
pub mod order;
pub mod path;
pub mod sweep;
mod upward;

pub use bidirectional::BidirDijkstra;
pub use cache::{CacheStats, PathCache, RouterBackend};
pub use cch::{CchBuckets, CchMetric, CchQuery, CchStats, CustomizableCh};
pub use ch::{ChBuckets, ChQuery, ChStats, ContractionHierarchy};
pub use dijkstra::{bellman_ford_cost, Dijkstra};
pub use masked::{MaskedDijkstra, NodeMask};
pub use matrix::CostMatrix;
pub use oracle::{HotNodeOracle, OracleStats, PinView, PinnedReader};
pub use order::NodeOrder;
pub use path::Path;
pub use sweep::{Region, Sweep};
