//! Non-peak-scenario sweep: Figs. 10–13 from one fleet sweep.

use super::ExperimentResult;
use crate::runner::Env;
use crate::table::{fmt, Table};
use mtshare_core::PartitionStrategy;
use mtshare_sim::{SchemeKind, SimReport};

/// Runs the non-peak fleet sweep once and derives Figs. 10–13.
pub fn run(env: &Env) -> Vec<ExperimentResult> {
    let mut matrix: Vec<(usize, Vec<SimReport>)> = Vec::new();
    let mut ctx = None;
    for &fleet in &env.scale.fleets {
        let scenario = env.scenario(env.nonpeak(fleet));
        let ctx_ref = ctx
            .get_or_insert_with(|| {
                env.context(&scenario.historical, env.scale.kappa, PartitionStrategy::Bipartite)
            })
            .clone();
        let mut reports = Vec::new();
        for kind in SchemeKind::NONPEAK_SET {
            let c = kind.needs_context().then(|| ctx_ref.clone());
            reports.push(env.run(&scenario, kind, c, None));
        }
        eprintln!(
            "[nonpeak] fleet {fleet}: {}",
            reports
                .iter()
                .map(|r| format!(
                    "{}={}({}on+{}off)",
                    r.scheme, r.served, r.served_online, r.served_offline
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
        matrix.push((fleet, reports));
    }

    let labels: Vec<&str> = SchemeKind::NONPEAK_SET.iter().map(|k| k.label()).collect();
    let header = |metric: &str| {
        let mut h = vec![format!("taxis \\ {metric}")];
        h.extend(labels.iter().map(|s| s.to_string()));
        h
    };
    let mk_table = |metric: &str, f: &dyn Fn(&SimReport) -> String| {
        let mut t = Table::new(header(metric));
        for (fleet, reports) in &matrix {
            let mut row = vec![fleet.to_string()];
            row.extend(reports.iter().map(f));
            t.row(row);
        }
        t
    };

    let last = &matrix.last().expect("non-empty sweep").1;
    let get = |name: &str| last.iter().find(|r| r.scheme == name).expect("scheme ran");
    let mt = get("mT-Share");
    let pro = get("mT-Share_pro");
    let ts = get("T-Share");
    let pg = get("pGreedyDP");

    vec![
        ExperimentResult {
            id: "fig10",
            title: "served requests in the non-peak scenario vs. fleet size".into(),
            paper_expectation: "sharing advantage over No-Sharing shrinks; mT-Share_pro serves the most (+13-24% over mT-Share; +62% vs T-Share, +58% vs pGreedyDP)".into(),
            table: mk_table("served", &|r| r.served.to_string()),
            notes: vec![format!(
                "at max fleet: pro/mT = {:.2} (paper 1.13-1.24), pro/T-Share = {:.2} (paper 1.62), pro/pGreedyDP = {:.2} (paper 1.58)",
                pro.served as f64 / mt.served as f64,
                pro.served as f64 / ts.served as f64,
                pro.served as f64 / pg.served as f64,
            )],
        },
        ExperimentResult {
            id: "fig11",
            title: "response time in the non-peak scenario (ms)".into(),
            paper_expectation: "similar to peak for the four basic schemes; mT-Share_pro is 2.5-4.5x slower than mT-Share but still faster than pGreedyDP".into(),
            table: mk_table("resp ms", &|r| fmt(r.avg_response_ms, 3)),
            notes: vec![format!(
                "at max fleet: pro/mT response ratio = {:.2} (paper 2.5-4.5); pGreedyDP/pro = {:.2} (paper >1)",
                pro.avg_response_ms / mt.avg_response_ms.max(1e-9),
                pg.avg_response_ms / pro.avg_response_ms.max(1e-9)
            )],
        },
        ExperimentResult {
            id: "fig12",
            title: "detour time in the non-peak scenario (min)".into(),
            paper_expectation: "like the peak scenario for basic schemes; mT-Share_pro largest, but within ~0.5 min of pGreedyDP".into(),
            table: mk_table("detour min", &|r| fmt(r.avg_detour_min, 2)),
            notes: vec![format!(
                "at max fleet: pro − pGreedyDP detour gap = {:.2} min (paper ≤ 0.5)",
                pro.avg_detour_min - pg.avg_detour_min
            )],
        },
        ExperimentResult {
            id: "fig13",
            title: "waiting time in the non-peak scenario (min)".into(),
            paper_expectation: "larger than peak (fewer requests, longer pickups); decreases with fleet; mT-Share_pro largest (~2 min above pGreedyDP)".into(),
            table: mk_table("waiting min", &|r| fmt(r.avg_waiting_min, 2)),
            notes: vec![format!(
                "at max fleet: pro waiting {:.2} vs pGreedyDP {:.2} min",
                pro.avg_waiting_min, pg.avg_waiting_min
            )],
        },
    ]
}
