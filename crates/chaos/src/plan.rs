//! Seeded disruption plans.
//!
//! A plan is generated once, up front, from a single seed — never during
//! the run — so the injected faults are a pure function of
//! `(seed, mix, fleet size, request count)` and a resumed run faces the
//! faults the interrupted one did.

use mtshare_model::{RequestId, TaxiId, Time};
use mtshare_road::{NodeId, RoadNetwork, TrafficShiftSpec};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disruption {
    /// The taxi breaks down and never moves again; its passengers are
    /// orphaned and re-dispatched.
    Breakdown {
        /// The failing taxi.
        taxi: TaxiId,
    },
    /// The passenger cancels before pick-up. Cancels targeting a rider
    /// already picked up (or already rejected) are no-ops.
    Cancel {
        /// The cancelling request.
        request: RequestId,
    },
    /// A localized, windowed travel-time shift of the routing metric.
    TrafficShift(TrafficShiftSpec),
}

/// A disruption stamped with its injection time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedDisruption {
    /// Simulation time at which the fault fires.
    pub at: Time,
    /// The fault.
    pub disruption: Disruption,
}

/// Disruption-generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the deterministic plan.
    pub seed: u64,
    /// Number of taxi breakdowns to inject (capped at the fleet size).
    pub breakdowns: u32,
    /// Number of passenger cancellations to inject (capped at the request
    /// count).
    pub cancellations: u32,
    /// Number of traffic shifts to inject.
    pub traffic_shifts: u32,
    /// Radius of each shift's affected region, metres.
    pub shift_radius_m: f64,
    /// Travel-time multiplier of each shift (above 1 slows traffic).
    pub shift_factor: f64,
    /// Duration of each shift, seconds.
    pub shift_duration_s: f64,
}

impl ChaosConfig {
    /// A default mix for `--chaos-seed` without `--disruptions`: a few of
    /// every kind.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            breakdowns: 2,
            cancellations: 4,
            traffic_shifts: 2,
            shift_radius_m: 600.0,
            shift_factor: 2.0,
            shift_duration_s: 600.0,
        }
    }

    /// Parses a `--disruptions` mix spec of the form
    /// `breakdowns=2,cancels=4,shifts=1` (any subset, any order; unnamed
    /// kinds keep their current value). Returns an error message for
    /// unknown keys or unparsable counts.
    pub fn parse_mix(&mut self, spec: &str) -> Result<(), String> {
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("disruption spec `{part}` is not key=count"))?;
            let n: u32 = val
                .trim()
                .parse()
                .map_err(|_| format!("disruption count `{val}` is not a non-negative integer"))?;
            match key.trim() {
                "breakdowns" => self.breakdowns = n,
                "cancels" | "cancellations" => self.cancellations = n,
                "shifts" | "traffic_shifts" => self.traffic_shifts = n,
                other => return Err(format!("unknown disruption kind `{other}`")),
            }
        }
        Ok(())
    }
}

/// A complete, time-sorted disruption schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisruptionPlan {
    /// The disruptions in injection order (ascending time; generation
    /// order breaks ties).
    pub events: Vec<TimedDisruption>,
}

impl DisruptionPlan {
    /// Generates the plan for a scenario of `horizon_s` seconds over
    /// `n_taxis` taxis and `n_requests` requests on `graph`.
    ///
    /// Breakdowns hit distinct taxis and cancellations distinct requests
    /// (sampled without replacement), so every injected fault is
    /// observable. Injection times land in the first 80% of the horizon —
    /// late faults would outlive every request and test nothing.
    pub fn generate(
        cfg: &ChaosConfig,
        graph: &RoadNetwork,
        horizon_s: f64,
        n_taxis: usize,
        n_requests: usize,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let window = (horizon_s * 0.8).max(1.0);
        let mut events = Vec::new();

        for taxi in sample_distinct(&mut rng, n_taxis, cfg.breakdowns as usize) {
            events.push(TimedDisruption {
                at: rng.gen_range(0.0..window),
                disruption: Disruption::Breakdown { taxi: TaxiId(taxi as u32) },
            });
        }
        for request in sample_distinct(&mut rng, n_requests, cfg.cancellations as usize) {
            events.push(TimedDisruption {
                at: rng.gen_range(0.0..window),
                disruption: Disruption::Cancel { request: RequestId(request as u32) },
            });
        }
        for _ in 0..cfg.traffic_shifts {
            let at = rng.gen_range(0.0..window);
            let center = NodeId(rng.gen_range(0..graph.node_count() as u32));
            events.push(TimedDisruption {
                at,
                disruption: Disruption::TrafficShift(TrafficShiftSpec {
                    center,
                    radius_m: cfg.shift_radius_m,
                    factor: cfg.shift_factor,
                    start_s: at,
                    duration_s: cfg.shift_duration_s,
                }),
            });
        }

        // Stable sort: ties keep generation order, which is itself
        // deterministic under the seeded rng.
        events.sort_by(|a, b| a.at.total_cmp(&b.at));
        Self { events }
    }

    /// Number of planned disruptions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The traffic shifts, with their indices in `events`.
    pub fn shifts(&self) -> impl Iterator<Item = (usize, TrafficShiftSpec)> + Clone + '_ {
        self.events.iter().enumerate().filter_map(|(i, e)| match e.disruption {
            Disruption::TrafficShift(spec) => Some((i, spec)),
            _ => None,
        })
    }
}

/// `k` distinct values from `0..n` (fewer when `n < k`), in draw order.
fn sample_distinct(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_road::{grid_city, GridCityConfig};

    fn graph() -> RoadNetwork {
        grid_city(&GridCityConfig::tiny()).unwrap()
    }

    #[test]
    fn same_seed_same_plan() {
        let g = graph();
        let cfg = ChaosConfig::with_seed(42);
        let a = DisruptionPlan::generate(&cfg, &g, 3600.0, 50, 200);
        let b = DisruptionPlan::generate(&cfg, &g, 3600.0, 50, 200);
        assert_eq!(a.events, b.events);
        assert_eq!(a.len(), 8);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_different_plan() {
        let g = graph();
        let a = DisruptionPlan::generate(&ChaosConfig::with_seed(1), &g, 3600.0, 50, 200);
        let b = DisruptionPlan::generate(&ChaosConfig::with_seed(2), &g, 3600.0, 50, 200);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn plan_is_sorted_within_window_and_targets_are_distinct() {
        let g = graph();
        let mut cfg = ChaosConfig::with_seed(7);
        cfg.breakdowns = 10;
        cfg.cancellations = 20;
        cfg.traffic_shifts = 5;
        let plan = DisruptionPlan::generate(&cfg, &g, 1000.0, 10, 20);
        assert!(plan.events.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(plan.events.iter().all(|e| e.at >= 0.0 && e.at < 800.0));
        let mut taxis: Vec<_> = plan
            .events
            .iter()
            .filter_map(|e| match e.disruption {
                Disruption::Breakdown { taxi } => Some(taxi),
                _ => None,
            })
            .collect();
        taxis.sort_unstable();
        let n = taxis.len();
        taxis.dedup();
        assert_eq!(n, 10, "breakdowns capped at fleet size");
        assert_eq!(taxis.len(), n, "breakdown targets must be distinct");
        // Shift specs carry their own start time.
        for e in &plan.events {
            if let Disruption::TrafficShift(s) = e.disruption {
                assert_eq!(s.start_s, e.at);
                assert!(s.factor > 1.0 && s.radius_m > 0.0 && s.duration_s > 0.0);
                assert!(s.active_at(e.at) && !s.active_at(e.at + s.duration_s));
            }
        }
    }

    #[test]
    fn mix_spec_parses_and_rejects_garbage() {
        let mut cfg = ChaosConfig::with_seed(0);
        cfg.parse_mix("breakdowns=3,cancels=7,shifts=0").unwrap();
        assert_eq!((cfg.breakdowns, cfg.cancellations, cfg.traffic_shifts), (3, 7, 0));
        cfg.parse_mix("cancellations=9").unwrap();
        assert_eq!(cfg.cancellations, 9);
        assert!(cfg.parse_mix("meteors=1").is_err());
        assert!(cfg.parse_mix("breakdowns").is_err());
        assert!(cfg.parse_mix("breakdowns=-2").is_err());
    }
}
