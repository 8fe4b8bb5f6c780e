//! The mT-Share payment model (Sec. IV-D, Eqs. 5–8).
//!
//! The ridesharing benefit `B = Σ f^s_ri − F` (Eq. 5) — the fare the riders
//! would have paid separately minus the regular fare of the shared route —
//! is split between the driver (share `1−β`) and the riders (share `β`),
//! with each rider compensated in proportion to their detour rate
//! `σ_i = η + detour/shortest` (Eq. 6). Eq. 8 then prices each ride as
//! `f_ri = f^s_ri − β·B·σ_i/Σσ`.

use mtshare_model::{FareTable, RequestId};

/// Payment-model parameters (Table II: β = 0.8, η = 0.01).
#[derive(Debug, Clone, Copy)]
pub struct PaymentConfig {
    /// Riders' share of the benefit β.
    pub beta: f64,
    /// Base detour rate η guaranteeing zero-detour riders a discount.
    pub eta: f64,
    /// Regular taxi tariff.
    pub fare: FareTable,
}

impl Default for PaymentConfig {
    fn default() -> Self {
        Self { beta: 0.8, eta: 0.01, fare: FareTable::default() }
    }
}

/// One completed passenger trip within a shared episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassengerTrip {
    /// The ride request.
    pub request: RequestId,
    /// Travel cost the rider actually experienced on the shared route
    /// (pick-up to drop-off), seconds.
    pub shared_cost_s: f64,
    /// Shortest-path travel cost of the rider's own trip, seconds.
    pub direct_cost_s: f64,
}

impl PassengerTrip {
    /// Detour rate σ_i (Eq. 6). Clamped at η when rounding makes the
    /// shared cost marginally below the shortest.
    pub fn detour_rate(&self, eta: f64) -> f64 {
        let detour = (self.shared_cost_s - self.direct_cost_s).max(0.0);
        eta + if self.direct_cost_s > 0.0 { detour / self.direct_cost_s } else { 0.0 }
    }
}

/// Settled fares for one shared episode.
#[derive(Debug, Clone, PartialEq)]
pub struct Settlement {
    /// Final fare per rider (Eq. 8), aligned with the input trips.
    pub fares: Vec<(RequestId, f64)>,
    /// Driver income: `F + (1−β)·B` when no fare clamp binds (always
    /// equals Σ fares).
    pub driver_income: f64,
    /// The ridesharing benefit B (clamped at 0 — see note).
    pub benefit: f64,
    /// Σ f^s_ri: what the riders would have paid without ridesharing.
    pub no_share_total: f64,
    /// F: the regular fare of the shared route.
    pub shared_route_fare: f64,
}

/// Settles a shared episode: `trips` are all riders the taxi served during
/// the episode, `shared_route_cost_s` the total travel cost of the shared
/// route that served them.
///
/// When the shared route is *longer* than the sum of solo trips (possible
/// with aggressive probabilistic detours), B would be negative and Eq. 8
/// would charge riders more than solo fares; following the paper's "a
/// passenger will not pay more than the regular taxi service", we clamp B
/// at zero — riders pay solo fares and the driver keeps Σ f^s.
///
/// Conversely, Eq. 8 can drive an individual fare *negative* when one
/// rider's detour rate dominates σ while the pooled benefit is large
/// (their rebate then exceeds their own solo fare) — a corner the paper
/// does not address. We clamp each fare at zero; the unspent rebate stays
/// with the driver, so conservation (Σ fares = driver income) holds by
/// construction.
pub fn settle_episode(
    trips: &[PassengerTrip],
    shared_route_cost_s: f64,
    cfg: &PaymentConfig,
) -> Settlement {
    let no_share_total: f64 = trips.iter().map(|t| cfg.fare.fare_for_cost(t.direct_cost_s)).sum();
    let shared_route_fare = cfg.fare.fare_for_cost(shared_route_cost_s.max(0.0));
    let benefit = (no_share_total - shared_route_fare).max(0.0);

    let sigma: Vec<f64> = trips.iter().map(|t| t.detour_rate(cfg.eta)).collect();
    let sigma_sum: f64 = sigma.iter().sum();

    let fares: Vec<(RequestId, f64)> = trips
        .iter()
        .zip(&sigma)
        .map(|(t, &s)| {
            let solo = cfg.fare.fare_for_cost(t.direct_cost_s);
            let rebate = if sigma_sum > 0.0 { cfg.beta * benefit * s / sigma_sum } else { 0.0 };
            (t.request, (solo - rebate).max(0.0))
        })
        .collect();

    // Conservation by construction: the driver receives exactly what the
    // riders pay (= Σf^s − β·B when no fare clamps bind, more otherwise).
    let driver_income = fares.iter().map(|(_, f)| f).sum();
    Settlement { fares, driver_income, benefit, no_share_total, shared_route_fare }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(id: u32, shared: f64, direct: f64) -> PassengerTrip {
        PassengerTrip { request: RequestId(id), shared_cost_s: shared, direct_cost_s: direct }
    }

    fn cfg() -> PaymentConfig {
        PaymentConfig::default()
    }

    #[test]
    fn conservation_fares_plus_driver() {
        // Two riders sharing: each solo 4 km (960 s), shared route 6 km.
        let trips = [trip(0, 1100.0, 960.0), trip(1, 1000.0, 960.0)];
        let s = settle_episode(&trips, 1440.0, &cfg());
        let total_fares: f64 = s.fares.iter().map(|(_, f)| f).sum();
        // Σ fares = Σ f^s − β·B here (no clamp binds), equalling the
        // driver's income.
        assert!((total_fares - s.driver_income).abs() < 1e-9);
        assert!((s.driver_income - (s.no_share_total - 0.8 * s.benefit)).abs() < 1e-9);
        // Driver earns at least the shared-route fare.
        assert!(s.driver_income >= s.shared_route_fare - 1e-9);
    }

    #[test]
    fn no_rider_pays_more_than_solo() {
        let trips = [trip(0, 1400.0, 960.0), trip(1, 980.0, 960.0), trip(2, 2000.0, 1800.0)];
        let s = settle_episode(&trips, 2400.0, &cfg());
        let c = cfg();
        for (t, (_, fare)) in trips.iter().zip(&s.fares) {
            let solo = c.fare.fare_for_cost(t.direct_cost_s);
            assert!(*fare <= solo + 1e-9, "rider pays {fare} > solo {solo}");
            assert!(*fare > 0.0);
        }
    }

    #[test]
    fn larger_detour_gets_larger_rebate() {
        let trips = [trip(0, 1400.0, 960.0), trip(1, 980.0, 960.0)];
        let c = cfg();
        let s = settle_episode(&trips, 1700.0, &c);
        let solo0 = c.fare.fare_for_cost(960.0);
        let rebate0 = solo0 - s.fares[0].1;
        let rebate1 = solo0 - s.fares[1].1;
        assert!(rebate0 > rebate1, "rebates {rebate0} vs {rebate1}");
        assert!(rebate1 > 0.0, "η guarantees even near-zero detour earns a rebate");
    }

    #[test]
    fn driver_earns_more_than_shared_route_fare_when_beneficial() {
        let trips = [trip(0, 1100.0, 960.0), trip(1, 1000.0, 960.0)];
        let s = settle_episode(&trips, 1300.0, &cfg());
        assert!(s.benefit > 0.0);
        assert!(s.driver_income > s.shared_route_fare);
        assert!(s.driver_income < s.no_share_total);
    }

    #[test]
    fn negative_benefit_clamped() {
        // Shared route absurdly long: B would be negative.
        let trips = [trip(0, 5000.0, 960.0)];
        let c = cfg();
        let s = settle_episode(&trips, 20_000.0, &c);
        assert_eq!(s.benefit, 0.0);
        let solo = c.fare.fare_for_cost(960.0);
        assert!((s.fares[0].1 - solo).abs() < 1e-9);
        assert!((s.driver_income - s.no_share_total).abs() < 1e-9);
    }

    #[test]
    fn zero_detour_riders_still_benefit_via_eta() {
        // Identical pick-up/drop-off pairs: zero detour for both.
        let trips = [trip(0, 960.0, 960.0), trip(1, 960.0, 960.0)];
        let c = cfg();
        let s = settle_episode(&trips, 960.0, &c);
        assert!(s.benefit > 0.0, "two solo fares vs one route fare");
        let solo = c.fare.fare_for_cost(960.0);
        for (_, f) in &s.fares {
            assert!(*f < solo, "η must distribute the benefit");
        }
        // Equal σ → equal fares.
        assert!((s.fares[0].1 - s.fares[1].1).abs() < 1e-9);
    }

    #[test]
    fn empty_episode_is_neutral() {
        let s = settle_episode(&[], 0.0, &cfg());
        assert!(s.fares.is_empty());
        assert_eq!(s.no_share_total, 0.0);
        // Flag-fall for a zero-length route; benefit clamped at 0.
        assert_eq!(s.benefit, 0.0);
    }

    #[test]
    fn detour_rate_formula() {
        let t = trip(0, 1200.0, 1000.0);
        assert!((t.detour_rate(0.01) - 0.21).abs() < 1e-12);
        // Shared marginally below direct (numerical noise) clamps at η.
        let t2 = trip(0, 999.0, 1000.0);
        assert!((t2.detour_rate(0.01) - 0.01).abs() < 1e-12);
    }
}
