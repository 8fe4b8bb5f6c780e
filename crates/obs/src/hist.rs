//! Two observation containers with different trade-offs:
//!
//! * [`Series`] — exact values, single-writer, cheap amortized
//!   quantiles via a lazily rebuilt sorted cache. Used for the
//!   deterministic outcome metrics (candidates, waiting, detour) where
//!   bit-exact statistics matter.
//! * [`Histogram`] — log-bucketed counts in fixed memory. Used for
//!   wall-clock stage timings, where approximate quantiles are fine and
//!   the number of observations is unbounded.

use std::cell::RefCell;

/// Simple accumulator for a scalar metric with exact quantiles.
///
/// `quantile` used to clone and sort the full vector on every call;
/// it now keeps a sorted copy that is invalidated on `push` and rebuilt
/// at most once per flush of observations, so k quantile queries after
/// n pushes cost one sort instead of k.
#[derive(Debug, Clone, Default)]
pub struct Series {
    values: Vec<f64>,
    /// Lazily rebuilt sorted view; emptied whenever `values` grows.
    sorted: RefCell<Vec<f64>>,
}

impl Series {
    /// Adds an observation (invalidates the sorted cache).
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted.borrow_mut().clear();
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `q`-quantile (nearest-rank; 0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.sorted.borrow_mut();
        if sorted.len() != self.values.len() {
            sorted.clear();
            sorted.extend_from_slice(&self.values);
            sorted.sort_by(|a, b| a.total_cmp(b));
        }
        let idx = ((sorted.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        self.quantile(0.0)
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        self.quantile(1.0)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The raw observations in push order (checkpointing: a series is
    /// restored value-for-value so bit-exact quantiles survive a warm
    /// restart).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Rebuilds a series from observations previously taken from
    /// [`Series::values`], preserving push order.
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values, sorted: RefCell::new(Vec::new()) }
    }
}

/// Buckets per octave (factor-of-two range): 32 makes a bucket ~2.2 %
/// wide, so two stages whose tails differ by a tenth no longer report the
/// same p95 *and* p99 (at 4 per octave, ~19 % wide, they did).
const SUB: f64 = 32.0;
/// log2 of the smallest representable value (~1 ns when recording
/// seconds). Everything smaller lands in bucket 0.
const MIN_EXP: f64 = -30.0;
/// 2 048 buckets span 2^-30 .. 2^34 — nanoseconds to centuries; 16 KiB a
/// histogram, allocated only behind an enabled `Obs`.
const BUCKETS: usize = 2048;

/// Log-bucketed histogram of non-negative f64 observations.
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self { buckets: vec![0; BUCKETS], count: 0, sum: 0.0, max: 0.0 }
    }

    fn index(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        let raw = (v.log2() - MIN_EXP) * SUB;
        raw.max(0.0).min((BUCKETS - 1) as f64) as usize
    }

    /// Midpoint value represented by bucket `i`.
    fn representative(i: usize) -> f64 {
        2f64.powf(MIN_EXP + (i as f64 + 0.5) / SUB)
    }

    /// Records one non-negative observation.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest recorded observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate `q`-quantile: the representative value of the bucket
    /// holding the nearest-rank observation, clamped to [`Histogram::max`]
    /// (a bucket midpoint can lie above everything recorded in it). 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        Self::quantile_of(&self.buckets, q).min(self.max)
    }

    fn quantile_of(counts: &[u64], q: f64) -> f64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::representative(i);
            }
        }
        Self::representative(BUCKETS - 1)
    }

    /// Freezes the current bucket counts, for later interval-delta
    /// queries (steady-state reports subtract two snapshots to get the
    /// distribution of just the last interval).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot { counts: self.buckets.clone() }
    }

    /// Approximate `q`-quantile over only the observations recorded
    /// since `prev` was taken (0 when the interval is empty), clamped to
    /// the all-time maximum like [`Histogram::quantile`]. Buckets are
    /// monotone, so the delta is a well-formed histogram.
    pub fn quantile_since(&self, prev: &HistogramSnapshot, q: f64) -> f64 {
        let counts: Vec<u64> =
            self.buckets.iter().zip(&prev.counts).map(|(&b, &p)| b.saturating_sub(p)).collect();
        Self::quantile_of(&counts, q).min(self.max)
    }
}

/// Frozen bucket counts of a [`Histogram`] ([`Histogram::snapshot`]).
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(n={}, sum={:.6}, max={:.6})", self.count(), self.sum(), self.max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics_match_previous_behavior() {
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
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn series_cache_invalidates_on_push() {
        let mut s = Series::default();
        s.push(10.0);
        assert_eq!(s.quantile(0.5), 10.0); // builds the cache
        s.push(1.0); // must invalidate it
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 10.0);
        // Repeated queries reuse the cache (covered by behavior, not
        // timing: a stale cache would return 10.0 for q=0 above).
    }

    #[test]
    fn histogram_quantiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 1ms .. 1s
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 500.5).abs() < 1e-3);
        assert_eq!(h.max(), 1.0);
        let p50 = h.quantile(0.5);
        // One bucket is a factor of 2^(1/32) ≈ 1.022; the representative
        // midpoint is at most half a bucket from anything in it.
        assert!(p50 > 0.5 / 1.03 && p50 < 0.5 * 1.03, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 > 0.99 / 1.03 && p99 < 0.99 * 1.03, "p99 = {p99}");
    }

    #[test]
    fn distributions_a_tenth_apart_differ_in_p95_and_p99() {
        // Two unrelated stages used to report identical p95 *and* p99
        // because both tails fell into the same ~19 %-wide buckets.
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        for i in 1..=1000 {
            let v = 50e-6 + 134e-6 * i as f64 / 1000.0; // 50 .. 184 µs
            a.record(v);
            b.record(v * 1.1);
        }
        // One straggler each, as real stages have: the clamp to the maximum
        // must not be what tells the tails apart.
        a.record(1e-3);
        b.record(1e-3);
        for h in [&a, &b] {
            let q = [h.quantile(0.5), h.quantile(0.95), h.quantile(0.99), h.max()];
            assert!(q.windows(2).all(|w| w[0] <= w[1]), "{q:?}");
        }
        assert!(a.quantile(0.95) < b.quantile(0.95));
        assert!(a.quantile(0.99) < b.quantile(0.99));
    }

    #[test]
    fn histogram_quantiles_never_exceed_the_recorded_maximum() {
        // 0.311 s sits in the lower half of its bucket: unclamped, the
        // midpoint representative (~0.314) would be reported as p50 > max.
        let mut h = Histogram::new();
        let snap = h.snapshot();
        h.record(0.311);
        for q in [0.5, 0.99] {
            assert_eq!(h.quantile(q), h.max(), "q = {q}");
            assert_eq!(h.quantile_since(&snap, q), h.max(), "q = {q} over the interval");
        }
    }

    #[test]
    fn histogram_handles_degenerate_inputs() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_snapshot_deltas_cover_only_the_interval() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(0.001); // 1 ms
        }
        let snap = h.snapshot();
        assert_eq!(h.quantile_since(&snap, 0.95), 0.0);
        for _ in 0..50 {
            h.record(1.0); // 1 s, only in the second interval
        }
        let p95 = h.quantile_since(&snap, 0.95);
        assert!(p95 > 1.0 / 1.03 && p95 <= 1.0, "interval p95 = {p95}");
        // The cumulative quantile still sees the old mass.
        assert!(h.quantile(0.5) < 0.01);
    }
}
