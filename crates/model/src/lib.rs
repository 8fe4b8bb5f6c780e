//! Domain model for mT-Share: the vocabulary of Sec. III.
//!
//! - [`request`]: ride requests (Def. 2) and the request store;
//! - [`taxi`]: taxi status (Def. 3) and in-simulation state;
//! - [`schedule`]: taxi schedules (Def. 4), insertion enumeration and the
//!   shared feasibility evaluator;
//! - [`route`]: timed taxi routes (Def. 5);
//! - [`fare`]: the regular-taxi tariff the payment model prices against;
//! - [`scheme`]: the [`DispatchScheme`] trait implemented by mT-Share and
//!   every baseline, plus the read-only [`World`] view;
//! - [`engine`]: the [`ScheduleEngine`] strategy behind
//!   `--scheduler dp|dtree` (insertion DP vs incremental dynamic trees).

#![warn(missing_docs)]

pub mod engine;
pub mod fare;
pub mod insertion;
pub mod persist;
pub mod request;
pub mod route;
pub mod schedule;
pub mod scheme;
pub mod taxi;

/// Simulation time in seconds since scenario start.
pub type Time = f64;

/// Constant taxi speed in metres per second: 15 km/h (Sec. V-A4). It turns
/// a waiting budget into a search radius and a travel cost into a fare
/// distance.
pub const TAXI_SPEED_MPS: f64 = 15.0 / 3.6;

pub use engine::{make_engine, DpEngine, DtreeEngine, EngineStats, ScheduleEngine, SchedulerKind};
pub use fare::FareTable;
pub use insertion::{best_insertion, first_feasible, reaches_pickup, BestInsertion, Scored};
pub use request::{RequestId, RequestStore, RideRequest};
pub use route::TimedRoute;
pub use schedule::{
    evaluate_schedule, EvalContext, EventKind, Schedule, ScheduleEvaluation, ScheduleEvent,
};
pub use scheme::{
    assignment_cmp, Assignment, DispatchOutcome, DispatchScheme, SpeculativeOutcome, WindowRow,
    World,
};
pub use taxi::{Taxi, TaxiId};
