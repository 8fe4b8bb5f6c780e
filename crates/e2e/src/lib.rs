//! End-to-end benchmark of the mT-Share simulator loop.
//!
//! Five workloads, eight gated end-to-end metrics and a per-layer
//! attribution, all measured from outside the program through its public
//! APIs: a closed loop with one client, `parallelism` 1 everywhere. See
//! `README.md` in this crate for why each workload exists and which
//! end-to-end metric each per-layer metric should move.
//!
//! - [`workloads`]: the workload table and the seed derivation;
//! - [`timed`]: the `DispatchScheme` decorator that times scheme calls;
//! - [`rep`]: one repetition — full set-up, stepped loop, digest;
//! - [`probes`]: timed calls into single layers, and the host calibration
//!   loop;
//! - [`run`]: a workload run — repetitions, checks, aggregation;
//! - [`metrics`]: metric tables and the driver's result line;
//! - [`stats`]: medians, tail-safe percentiles, quartiles, the seed mixer.

#![warn(missing_docs)]

pub mod metrics;
pub mod probes;
pub mod rep;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workloads;
