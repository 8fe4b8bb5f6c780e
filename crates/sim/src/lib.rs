//! Event-driven ridesharing simulator and synthetic workload substrate
//! (the Sec. V evaluation harness).
//!
//! - [`audit`]: the invariant sweep and the run auditor that re-prices
//!   every committed leg against plain Dijkstra;
//! - [`workload`]: hotspot-mixture demand generator standing in for the
//!   Didi GAIA Chengdu trace;
//! - [`scenario`]: peak / non-peak scenario presets (Sec. V-A1) and the
//!   scheme factory;
//! - [`simulator`]: the analytic-motion, event-driven simulator with
//!   offline-request encounter detection;
//! - [`metrics`]: per-run reports (served / response / detour / waiting /
//!   fares / memory);
//! - [`stats`]: dataset statistics (Fig. 5);
//! - [`trace`]: loader for real GAIA-format transaction traces;
//! - [`telemetry`]: rejection-reason classification for the `mtshare-obs`
//!   event stream.

#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod metrics;
pub mod scenario;
pub mod simulator;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod workload;

pub use audit::{audited_run, Auditor};
pub use engine::{IngestEntry, SimEngine};
pub use metrics::{Series, SimReport};
pub use mtshare_persist::Durability;
pub use scenario::{
    build_context, materialize, Scenario, ScenarioConfig, ScenarioKind, SchemeKind,
};
pub use simulator::{BatchConfig, PersistConfig, RunOutcome, SimConfig, Simulator, StepOutcome};
pub use telemetry::classify_rejection;
pub use trace::{parse_trace, snap_trace, SnappedTrace, TraceParse, TraceRecord, MAX_TRACE_ERRORS};
pub use workload::{
    weekend_profile, workday_profile, RawRequest, WorkloadConfig, WorkloadGenerator,
};
