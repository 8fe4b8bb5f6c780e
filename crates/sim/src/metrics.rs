//! Metric collection matching Sec. V-A3.
//!
//! The scalar accumulator lives in `mtshare-obs` now (it backs the summary
//! statistics there too); it is re-exported here so existing call sites and
//! downstream users keep compiling unchanged. The obs version fixes the
//! quadratic clone-and-sort that the old in-crate `Series::quantile` paid on
//! every call by keeping a lazily rebuilt sorted cache.

pub use mtshare_obs::Series;

/// One delivered request, for external invariant auditing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServedRecord {
    /// The request (index into the scenario's request list).
    pub request: u32,
    /// Taxi that served it.
    pub taxi: u32,
    /// Pick-up completion time, seconds.
    pub pickup_t: f64,
    /// Drop-off completion time, seconds.
    pub dropoff_t: f64,
}

/// Everything one simulation run reports (the rows of the Sec. V figures).
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Scheme label.
    pub scheme: String,
    /// Fleet size.
    pub n_taxis: usize,
    /// Requests materialized (online + offline).
    pub n_requests: usize,
    /// Offline requests among them.
    pub n_offline: usize,
    /// Requests delivered before their deadlines.
    pub served: usize,
    /// Served split: online.
    pub served_online: usize,
    /// Served split: offline.
    pub served_offline: usize,
    /// Requests the dispatcher could not place.
    pub rejected: usize,
    /// Rejections that were passenger withdrawals (a subset of
    /// `rejected`; only injected disruption runs produce them).
    pub cancelled: usize,
    /// Orphaned riders (taxi breakdowns, traffic-shift plan drops)
    /// successfully placed again by the recovery layer.
    pub redispatched: usize,
    /// Invariant violations detected by the `validate_every` runtime
    /// checker (healthy runs report zero).
    pub invariant_violations: usize,
    /// Mean dispatcher latency per request, milliseconds (Fig. 7/11).
    pub avg_response_ms: f64,
    /// 95th-percentile dispatcher latency, milliseconds.
    pub p95_response_ms: f64,
    /// Mean detour time of served requests, minutes (Fig. 8/12).
    pub avg_detour_min: f64,
    /// Mean waiting time of served requests, minutes (Fig. 9/13).
    pub avg_waiting_min: f64,
    /// 95th-percentile waiting time of served requests, minutes.
    pub p95_waiting_min: f64,
    /// Mean candidate-set size per request (Table III).
    pub avg_candidates: f64,
    /// Σ fares actually paid by riders.
    pub total_passenger_fares: f64,
    /// Σ regular (solo) fares of the served trips.
    pub total_solo_fares: f64,
    /// Σ driver incomes.
    pub total_driver_income: f64,
    /// Σ ridesharing benefit B.
    pub total_benefit: f64,
    /// Scheme-private index memory, bytes (Table IV).
    pub index_memory_bytes: usize,
    /// Shared oracle + cache memory, bytes.
    pub shared_memory_bytes: usize,
    /// Wall-clock of the whole run, seconds (Fig. 21a).
    pub wall_clock_s: f64,
    /// Per-request delivery audit trail.
    pub served_records: Vec<ServedRecord>,
}

impl SimReport {
    /// Percentage of taxi fare saved by riders vs. the regular service.
    pub fn fare_saving_pct(&self) -> f64 {
        if self.total_solo_fares <= 0.0 {
            0.0
        } else {
            (1.0 - self.total_passenger_fares / self.total_solo_fares) * 100.0
        }
    }

    /// Served ratio over all materialized requests.
    pub fn served_ratio(&self) -> f64 {
        if self.n_requests == 0 {
            0.0
        } else {
            self.served as f64 / self.n_requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let mut s = Series::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.sum(), 15.0);
    }

    #[test]
    fn report_ratios() {
        let r = SimReport {
            scheme: "x".into(),
            n_taxis: 10,
            n_requests: 100,
            n_offline: 0,
            served: 80,
            served_online: 80,
            served_offline: 0,
            rejected: 20,
            cancelled: 0,
            redispatched: 0,
            invariant_violations: 0,
            avg_response_ms: 1.0,
            p95_response_ms: 2.0,
            avg_detour_min: 1.5,
            avg_waiting_min: 2.5,
            p95_waiting_min: 4.0,
            avg_candidates: 7.0,
            total_passenger_fares: 900.0,
            total_solo_fares: 1000.0,
            total_driver_income: 950.0,
            total_benefit: 100.0,
            index_memory_bytes: 1,
            shared_memory_bytes: 2,
            wall_clock_s: 0.5,
            served_records: Vec::new(),
        };
        assert!((r.fare_saving_pct() - 10.0).abs() < 1e-9);
        assert!((r.served_ratio() - 0.8).abs() < 1e-9);
    }
}
