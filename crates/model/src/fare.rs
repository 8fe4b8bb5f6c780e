//! Regular taxi fares.
//!
//! The payment model (Sec. IV-D) prices rides against the *regular* taxi
//! fare for a distance. Defaults mimic a Chengdu-style tariff: a flag-fall
//! covering the first 2 km, then a per-kilometre rate. Constants affect
//! absolute amounts only; the paper's ±% results depend on the distance
//! structure of shared routes.

/// Distance-based regular taxi tariff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FareTable {
    /// Flag-fall charge (currency units).
    pub base_fare: f64,
    /// Distance covered by the flag-fall, metres.
    pub base_distance_m: f64,
    /// Charge per kilometre beyond the flag-fall.
    pub per_km: f64,
}

impl Default for FareTable {
    fn default() -> Self {
        Self { base_fare: 8.0, base_distance_m: 2000.0, per_km: 1.9 }
    }
}

impl FareTable {
    /// Regular taxi fare for a trip of `distance_m` metres.
    pub fn fare_for_distance(&self, distance_m: f64) -> f64 {
        assert!(distance_m >= 0.0 && distance_m.is_finite(), "invalid distance");
        if distance_m <= self.base_distance_m {
            self.base_fare
        } else {
            self.base_fare + (distance_m - self.base_distance_m) / 1000.0 * self.per_km
        }
    }

    /// Fare for a travel cost in seconds at the constant
    /// [`TAXI_SPEED_MPS`](crate::TAXI_SPEED_MPS).
    pub fn fare_for_cost(&self, cost_s: f64) -> f64 {
        self.fare_for_distance(cost_s * crate::TAXI_SPEED_MPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_fall_covers_short_trips() {
        let f = FareTable::default();
        assert_eq!(f.fare_for_distance(0.0), 8.0);
        assert_eq!(f.fare_for_distance(1999.0), 8.0);
        assert_eq!(f.fare_for_distance(2000.0), 8.0);
    }

    #[test]
    fn per_km_beyond_base() {
        let f = FareTable::default();
        assert!((f.fare_for_distance(3000.0) - (8.0 + 1.9)).abs() < 1e-9);
        assert!((f.fare_for_distance(12_000.0) - (8.0 + 19.0)).abs() < 1e-9);
    }

    #[test]
    fn fare_is_monotone_in_distance() {
        let f = FareTable::default();
        let mut prev = 0.0;
        for d in (0..30).map(|i| i as f64 * 700.0) {
            let fare = f.fare_for_distance(d);
            assert!(fare >= prev);
            prev = fare;
        }
    }

    #[test]
    fn fare_for_cost_converts_speed() {
        let f = FareTable::default();
        // 960 s at 15 km/h = 4 km.
        let got = f.fare_for_cost(960.0);
        assert!((got - f.fare_for_distance(4000.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid distance")]
    fn rejects_negative_distance() {
        let _ = FareTable::default().fare_for_distance(-1.0);
    }
}
