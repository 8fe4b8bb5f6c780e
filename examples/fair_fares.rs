//! The mT-Share payment model (Sec. IV-D): settle a shared episode and
//! show how the ridesharing benefit is split between riders and driver.
//!
//! Run with: `cargo run --release --example fair_fares`

use mt_share::core::{settle_episode, PassengerTrip, PaymentConfig};
use mt_share::model::RequestId;

fn main() {
    let cfg = PaymentConfig::default();
    println!(
        "tariff: flag-fall {:.1} (first {:.1} km), then {:.1}/km; benefit split β = {:.2}, base rate η = {:.2}",
        cfg.fare.base_fare,
        cfg.fare.base_distance_m / 1000.0,
        cfg.fare.per_km,
        cfg.beta,
        cfg.eta
    );

    // Three riders share one taxi. Solo trips would have taken 16, 16 and
    // 24 minutes; on the shared route they experience 19, 16.3 and 27 min.
    let min = 60.0;
    let trips = [
        PassengerTrip {
            request: RequestId(0),
            shared_cost_s: 19.0 * min,
            direct_cost_s: 16.0 * min,
        },
        PassengerTrip {
            request: RequestId(1),
            shared_cost_s: 16.3 * min,
            direct_cost_s: 16.0 * min,
        },
        PassengerTrip {
            request: RequestId(2),
            shared_cost_s: 27.0 * min,
            direct_cost_s: 24.0 * min,
        },
    ];
    // The shared route drives 38 minutes in total while occupied.
    let shared_route_cost = 38.0 * min;

    let s = settle_episode(&trips, shared_route_cost, &cfg);
    println!("\nwithout ridesharing the riders would pay {:.2} in total", s.no_share_total);
    println!("the shared route's regular fare is {:.2}", s.shared_route_fare);
    println!("ridesharing benefit B = {:.2}\n", s.benefit);

    for (t, (id, fare)) in trips.iter().zip(&s.fares) {
        let solo = cfg.fare.fare_for_cost(t.direct_cost_s);
        println!(
            "rider {id}: detour rate σ = {:.3}  solo fare {:>6.2} → shared fare {:>6.2} (saves {:>4.1}%)",
            t.detour_rate(cfg.eta),
            solo,
            fare,
            (1.0 - fare / solo) * 100.0
        );
    }
    let total: f64 = s.fares.iter().map(|(_, f)| f).sum();
    println!(
        "\ndriver income {:.2} = route fare {:.2} + (1-β)·B {:.2}; riders pay {:.2} in total",
        s.driver_income,
        s.shared_route_fare,
        (1.0 - cfg.beta) * s.benefit,
        total
    );
    assert!((total - s.driver_income).abs() < 1e-9, "conservation holds");
}
