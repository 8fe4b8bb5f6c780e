//! Configuration of the mT-Share scheme (Table II defaults), and the
//! parameters the paper fixes, as constants.

use mtshare_model::{SchedulerKind, TAXI_SPEED_MPS};

/// Partition-index horizon `T_mp` in seconds: a taxi is indexed in every
/// partition it will reach within this long (Sec. IV-B3, whose example
/// uses 1 h).
pub const TMP_HORIZON_S: f64 = 3600.0;

/// A taxi plans probabilistic routes only when at least this fraction of
/// its seats is idle (Sec. V-A1: half the capacity).
pub const PROB_IDLE_FRACTION: f64 = 0.5;

/// Partition paths Alg. 4 tries for a valid probabilistic leg before it
/// falls back to the basic route (Alg. 4, Sec. IV-C2: five).
pub const PROB_ATTEMPTS: usize = 5;

/// Cap on enumerated landmark paths per leg in Alg. 4 step ②. Not a paper
/// parameter: it bounds the enumeration on large κ.
pub const PROB_MAX_PATHS: usize = 64;

/// Hop cap for the landmark-path enumeration. Not a paper parameter: it
/// keeps the DFS bounded on adversarial partition shapes.
pub const PROB_MAX_HOPS: usize = 12;

/// Per-vertex bias weight (seconds) of probabilistic routing: entering a
/// zero-demand vertex costs this much extra in the weighted search, a
/// demand-rich vertex close to nothing. The paper weights vertices by
/// `1/ψ_c` (Sec. IV-C2) without a scale; this one is calibrated so biased
/// routes detour 10-20% — strong enough to hug demand corridors, weak
/// enough to stay within the deadline budget.
pub const PROB_BIAS_WEIGHT_S: f32 = 6.0;

/// Tunables of mT-Share. Defaults follow Table II of the paper.
#[derive(Debug, Clone)]
pub struct MtShareConfig {
    /// Travel-direction threshold λ = cos θ (default 0.707, θ = 45°).
    pub lambda: f64,
    /// Partition-filter travel-cost slack ε (default 1.0).
    pub epsilon: f64,
    /// Cap on the candidate searching range γ in metres (paper default
    /// 2.5 km, equivalent to Δt = 10 min at 15 km/h).
    pub max_search_range_m: f64,
    /// Enable probabilistic routing (mT-Share_pro).
    pub probabilistic: bool,
    /// Rolling-horizon batch assignment (mT-Share_batch): requests are
    /// collected per window and matched jointly through a Kuhn–Munkres
    /// assignment solve instead of greedy per-arrival insertion.
    pub batch: bool,
    /// Which schedule-scoring engine serves insertion queries
    /// (`--scheduler dp|dtree`); results are bit-identical either way.
    pub scheduler: SchedulerKind,
}

impl Default for MtShareConfig {
    fn default() -> Self {
        Self {
            lambda: std::f64::consts::FRAC_1_SQRT_2,
            epsilon: 1.0,
            max_search_range_m: 2500.0,
            probabilistic: false,
            batch: false,
            scheduler: SchedulerKind::default(),
        }
    }
}

impl MtShareConfig {
    /// The searching range γ for a waiting budget `Δt` (Eq. 2):
    /// `γ = speed × Δt`, capped at [`MtShareConfig::max_search_range_m`].
    #[inline]
    pub fn search_range_m(&self, wait_budget_s: f64) -> f64 {
        (TAXI_SPEED_MPS * wait_budget_s.max(0.0)).min(self.max_search_range_m)
    }

    /// The mT-Share_pro variant of this configuration.
    pub fn with_probabilistic(mut self) -> Self {
        self.probabilistic = true;
        self
    }

    /// The rolling-horizon batch-assignment variant (mT-Share_batch).
    pub fn with_batch(mut self) -> Self {
        self.batch = true;
        self
    }

    /// This configuration with the given schedule-scoring engine.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = MtShareConfig::default();
        assert!((c.lambda - 0.707).abs() < 1e-3);
        assert_eq!(c.epsilon, 1.0);
        assert_eq!(c.max_search_range_m, 2500.0);
        assert!(!c.probabilistic);
        assert!(!c.batch);
        assert!(c.clone().with_batch().batch);
        assert_eq!(c.scheduler, SchedulerKind::Dp);
        assert_eq!(c.clone().with_scheduler(SchedulerKind::Dtree).scheduler, SchedulerKind::Dtree);
        assert!(c.with_probabilistic().probabilistic);
    }

    #[test]
    fn search_range_caps_at_gamma() {
        let c = MtShareConfig::default();
        // 10 min budget at 15 km/h = 2.5 km (the paper's default γ).
        assert!((c.search_range_m(600.0) - 2500.0).abs() < 1.0);
        // Larger budgets stay capped.
        assert_eq!(c.search_range_m(6000.0), 2500.0);
        // Negative budget clamps to zero.
        assert_eq!(c.search_range_m(-5.0), 0.0);
    }
}
