//! mT-Share core: the paper's primary contribution (Sec. IV).
//!
//! - [`context`]: precomputed mobility artifacts (bipartite partitions,
//!   landmark graph, transition statistics);
//! - [`index`]: the dual taxi indexes (partition and mobility-cluster
//!   fleet bitsets);
//! - [`candidates`]: candidate taxi searching (Eq. 2–3 + refinement rules);
//! - [`scheduling`]: insertion-based taxi scheduling (Algorithm 1);
//! - [`filter`]: partition filtering (Algorithm 2);
//! - [`routing`]: basic + probabilistic segment routing (Algorithms 3–4);
//! - [`payment`]: the benefit-sharing payment model (Eqs. 5–8);
//! - [`scheme`]: [`MtShare`], the `DispatchScheme` implementation.

#![warn(missing_docs)]

pub mod candidates;
pub mod config;
pub mod context;
pub mod filter;
pub mod index;
pub mod payment;
pub mod persist;
pub mod prob_wrapper;
pub mod routing;
pub mod scheduling;
pub mod scheme;

pub use candidates::candidate_taxis;
pub use config::MtShareConfig;
pub use context::{MobilityContext, PartitionStrategy};
pub use filter::{filter_partitions, filter_partitions_observed, FilteredPartitions};
pub use index::{MobilityClusterIndex, PartitionTaxiIndex};
pub use payment::{settle_episode, PassengerTrip, PaymentConfig, Settlement};
pub use prob_wrapper::WithProbabilisticRouting;
pub use routing::SegmentRouter;
pub use scheduling::{probabilistic_enabled, schedule_best};
pub use scheme::MtShare;
