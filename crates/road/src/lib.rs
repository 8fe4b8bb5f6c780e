//! Road-network substrate for mT-Share (Definition 1 of the paper).
//!
//! A road network is a directed graph `G(V, E)` whose vertices are
//! geolocations and whose edges are road segments weighted by travel cost.
//! This crate provides:
//!
//! - [`geo`]: geographic primitives (points, distances, direction cosines);
//! - [`ids`]: compact typed vertex/edge identifiers;
//! - [`graph`]: the CSR [`RoadNetwork`] with forward + reverse adjacency;
//! - [`spatial`]: a uniform-grid index for nearest-vertex and range queries;
//! - [`synthetic`]: deterministic city generators standing in for the
//!   paper's OpenStreetMap Chengdu graph (see DESIGN.md, substitutions).

#![warn(missing_docs)]

pub mod dissect;
pub mod geo;
pub mod graph;
pub mod ids;
pub mod io;
pub mod persist;
pub mod spatial;
pub mod synthetic;
pub mod traffic;

pub use dissect::nested_dissection_order;
pub use geo::{direction_cosine, BoundingBox, GeoPoint};
pub use graph::{quantize_cost_s, EdgeSpec, GraphError, RoadNetwork, COST_QUANTUM_S};
pub use ids::{EdgeId, NodeId};
pub use spatial::SpatialGrid;
pub use synthetic::{grid_city, ring_radial_city, GridCityConfig, RingRadialConfig};
pub use traffic::{apply_traffic, apply_traffic_shifts, TrafficShiftSpec};
