//! Deterministic disruption injection and recovery policies.
//!
//! The paper's dispatcher assumes committed schedules execute faithfully;
//! a production system must survive taxis breaking down mid-route,
//! passengers cancelling, and travel times drifting until committed
//! deadlines become infeasible. This crate supplies the *pure* half of
//! that robustness story — the simulator threads it through its event
//! loop:
//!
//! - [`plan`]: a seeded, deterministic disruption schedule (breakdowns,
//!   pre-pickup cancellations, localized traffic shifts) generated from a
//!   `--chaos-seed` through the workspace `rand` shim. Same seed, same
//!   plan — the injected events ride the simulator's ordinary
//!   `(time, seq)` heap order, so determinism is preserved.
//! - [`failpoint`]: seeded storage/feed failpoints (`--failpoints`) —
//!   ENOSPC, lost fsyncs, torn frames, read-back corruption, feed
//!   disconnects — generated once up front and threaded through the
//!   `mtshare-persist` fault-injection seam, so every injected I/O
//!   fault is a pure function of the seed.
//! - [`retry`]: the bounded retry/backoff policy for re-dispatching
//!   orphaned passengers — reused by `mtshare serve --supervise` as the
//!   restart-backoff schedule.

#![warn(missing_docs)]

pub mod crash;
pub mod failpoint;
pub mod persist;
pub mod plan;
pub mod retry;

pub use crash::{CrashMode, CrashPoint, CRASH_EXIT_CODE};
pub use failpoint::{Failpoint, FailpointPlan, FailpointSpec, FeedFaultPlan};
pub use mtshare_persist::fault::{FaultInjector, IoFault, IoOp};
pub use plan::{ChaosConfig, Disruption, DisruptionPlan, TimedDisruption};
pub use retry::RetryPolicy;
