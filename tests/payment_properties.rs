//! Property tests for the payment model (Eqs. 5–8): conservation, rider
//! protection, and monotone rebate sharing — for arbitrary episodes.

use mt_share::core::{settle_episode, PassengerTrip, PaymentConfig};
use mt_share::model::RequestId;
use proptest::prelude::*;

fn trips_strategy() -> impl Strategy<Value = Vec<PassengerTrip>> {
    proptest::collection::vec(
        (300.0f64..3600.0, 0.0f64..1200.0).prop_map(|(direct, extra)| (direct, direct + extra)),
        1..6,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (direct, shared))| PassengerTrip {
                request: RequestId(i as u32),
                shared_cost_s: shared,
                direct_cost_s: direct,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn settlement_invariants(
        trips in trips_strategy(),
        route_cost in 300.0f64..10_000.0,
        beta in 0.1f64..0.95,
        eta in 0.001f64..0.1,
    ) {
        let cfg = PaymentConfig { beta, eta, ..Default::default() };
        let s = settle_episode(&trips, route_cost, &cfg);

        // Benefit is non-negative (clamped) and bounded by the solo total.
        prop_assert!(s.benefit >= 0.0);
        prop_assert!(s.benefit <= s.no_share_total + 1e-9);

        // Conservation: riders' payments fund exactly the driver income,
        // which is at least Σf^s − β·B (more when zero-fare clamps bind).
        let total: f64 = s.fares.iter().map(|(_, f)| f).sum();
        prop_assert!((total - s.driver_income).abs() < 1e-6);
        prop_assert!(s.driver_income >= s.no_share_total - beta * s.benefit - 1e-6);

        // No rider pays more than their solo fare; no rider is charged a
        // negative fare (the clamp documented in `settle_episode`).
        for (t, (_, fare)) in trips.iter().zip(&s.fares) {
            let solo = cfg.fare.fare_for_cost(t.direct_cost_s);
            prop_assert!(*fare <= solo + 1e-9, "fare {fare} > solo {solo}");
            prop_assert!(*fare >= 0.0);
        }

        // When the benefit is positive, the driver earns more than the
        // plain route fare and riders pay strictly less than solo.
        if s.benefit > 1e-6 {
            prop_assert!(s.driver_income > s.shared_route_fare - 1e-9);
            let solo_total: f64 = trips
                .iter()
                .map(|t| cfg.fare.fare_for_cost(t.direct_cost_s))
                .sum();
            prop_assert!(total < solo_total);
        }
    }

    #[test]
    fn rebates_ordered_by_detour_rate(
        direct in 600.0f64..3600.0,
        extra_small in 0.0f64..300.0,
        extra_gap in 10.0f64..600.0,
        route_cost in 600.0f64..4000.0,
    ) {
        let cfg = PaymentConfig::default();
        let trips = [
            PassengerTrip {
                request: RequestId(0),
                shared_cost_s: direct + extra_small + extra_gap,
                direct_cost_s: direct,
            },
            PassengerTrip {
                request: RequestId(1),
                shared_cost_s: direct + extra_small,
                direct_cost_s: direct,
            },
        ];
        let s = settle_episode(&trips, route_cost, &cfg);
        if s.benefit > 1e-6 {
            // Equal solo fares, bigger detour ⇒ bigger rebate ⇒ lower fare.
            prop_assert!(
                s.fares[0].1 <= s.fares[1].1 + 1e-9,
                "bigger detour pays more: {} vs {}",
                s.fares[0].1,
                s.fares[1].1
            );
        }
    }
}
