//! Fig. 21 — scalability with the amount of taxi data: total execution
//! time (a) and response time (b) vs. hours of simulated demand.

use super::ExperimentResult;
use crate::runner::Env;
use crate::table::{fmt, Table};
use mtshare_core::PartitionStrategy;
use mtshare_sim::{materialize, Scenario, SchemeKind, WorkloadConfig, WorkloadGenerator};

/// Builds an `hours`-long scenario from a demand profile and runs the
/// given scheme, returning (wall-clock s, response ms, served).
fn run_hours(
    env: &Env,
    kind: SchemeKind,
    hours: usize,
    profile: &[usize],
    offline_fraction: f64,
    seed: u64,
) -> (f64, f64, usize) {
    let fleet = env.scale.default_fleet;
    let mut cfg = env.peak(fleet);
    cfg.offline_fraction = offline_fraction;
    cfg.duration_s = hours as f64 * 3600.0;
    let mut gen =
        WorkloadGenerator::new(env.graph.clone(), WorkloadConfig { seed, ..Default::default() });
    let historical = gen.historical_trips(cfg.n_historical);
    let raw = gen.day_stream(&profile[..hours], offline_fraction);
    let requests = materialize(&raw, &env.cache, cfg.rho);
    let taxis = cfg.make_fleet(&env.graph);
    let scenario = Scenario { config: cfg, historical, requests, taxis };
    let ctx = env.context(&scenario.historical, env.scale.kappa, PartitionStrategy::Bipartite);
    let r = env.run(&scenario, kind, Some(ctx), None);
    (r.wall_clock_s, r.avg_response_ms, r.served)
}

/// Runs the data-amount sweep for mT-Share (workday) and mT-Share_pro
/// (weekend with 1/3 offline, as Sec. V-C8 assumes).
pub fn run(env: &Env) -> ExperimentResult {
    let fleet = env.scale.default_fleet;
    // Hourly demand ≈ 6 requests per taxi-hour keeps day-long runs tractable.
    let hourly = fleet * 6;
    let profile = vec![hourly; 13];
    let hour_steps: &[usize] =
        if env.scale.name == "small" { &[1, 2, 3] } else { &[1, 4, 7, 10, 13] };

    let mut table = Table::new(vec![
        "hours",
        "mT-Share exec s",
        "mT-Share resp ms",
        "pro exec s",
        "pro resp ms",
    ]);
    let mut execs = Vec::new();
    let mut resp_last = (0.0, 0.0);
    for &h in hour_steps {
        let (wd_exec, wd_resp, _) = run_hours(env, SchemeKind::MtShare, h, &profile, 0.0, 77);
        let (we_exec, we_resp, _) =
            run_hours(env, SchemeKind::MtSharePro, h, &profile, 1.0 / 3.0, 78);
        eprintln!(
            "[fig21] {h}h: mT {wd_exec:.1}s/{wd_resp:.3}ms, pro {we_exec:.1}s/{we_resp:.3}ms"
        );
        execs.push((h, wd_exec));
        resp_last = (wd_resp, we_resp);
        table.row(vec![
            h.to_string(),
            fmt(wd_exec, 2),
            fmt(wd_resp, 3),
            fmt(we_exec, 2),
            fmt(we_resp, 3),
        ]);
    }
    let (h0, e0) = execs[0];
    let (h1, e1) = *execs.last().unwrap();
    ExperimentResult {
        id: "fig21",
        title: "scalability with the amount of taxi data (hours of demand)".into(),
        paper_expectation:
            "total execution time grows linearly with hours of data; response time stays flat (paper: 110 ms workday, 420 ms weekend)"
                .into(),
        table,
        notes: vec![format!(
            "execution-time growth {:.2}x over a {:.1}x data increase (linear ⇒ ratios match); final response times {:.3} / {:.3} ms",
            e1 / e0.max(1e-9),
            h1 as f64 / h0 as f64,
            resp_last.0,
            resp_last.1
        )],
    }
}
