//! Peak-scenario sweep: Figs. 6–9 and Table III from one fleet sweep.

use super::ExperimentResult;
use crate::runner::Env;
use crate::table::{fmt, Table};
use mtshare_core::PartitionStrategy;
use mtshare_sim::{SchemeKind, SimReport};
use std::cmp::Ordering;
use std::fmt::Write as _;

/// Runs the peak fleet sweep once and derives all five results.
pub fn run(env: &Env) -> Vec<ExperimentResult> {
    let mut matrix: Vec<(usize, Vec<SimReport>)> = Vec::new();
    let mut ctx = None;
    for &fleet in &env.scale.fleets {
        let scenario = env.scenario(env.peak(fleet));
        let ctx_ref = ctx
            .get_or_insert_with(|| {
                env.context(&scenario.historical, env.scale.kappa, PartitionStrategy::Bipartite)
            })
            .clone();
        let mut reports = Vec::new();
        for kind in SchemeKind::PEAK_SET {
            let c = kind.needs_context().then(|| ctx_ref.clone());
            reports.push(env.run(&scenario, kind, c, None));
        }
        eprintln!(
            "[peak] fleet {fleet}: {}",
            reports
                .iter()
                .map(|r| format!("{}={}", r.scheme, r.served))
                .collect::<Vec<_>>()
                .join(" ")
        );
        matrix.push((fleet, reports));
    }

    let labels: Vec<&str> = SchemeKind::PEAK_SET.iter().map(|k| k.label()).collect();
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
    let ts = get("T-Share");
    let pg = get("pGreedyDP");
    let ns = get("No-Sharing");

    vec![
        ExperimentResult {
            id: "fig6",
            title: "served requests in the peak scenario vs. fleet size".into(),
            paper_expectation: "all grow with fleet; mT-Share serves the most (+42% vs T-Share, +36% vs pGreedyDP at max fleet); ridesharing ≫ No-Sharing".into(),
            table: mk_table("served", &|r| r.served.to_string()),
            notes: vec![format!(
                "at max fleet: mT-Share/T-Share = {:.2} (paper 1.42), mT-Share/pGreedyDP = {:.2} (paper 1.36), mT-Share/No-Sharing = {:.2}",
                mt.served as f64 / ts.served as f64,
                mt.served as f64 / pg.served as f64,
                mt.served as f64 / ns.served as f64,
            )],
        },
        ExperimentResult {
            id: "fig7",
            title: "response time in the peak scenario (ms)".into(),
            paper_expectation: "No-Sharing < T-Share < mT-Share ≪ pGreedyDP (mT-Share 4-10x faster than pGreedyDP); grows with fleet".into(),
            table: mk_table("resp ms", &|r| fmt(r.avg_response_ms, 3)),
            notes: vec![format!(
                "at max fleet: pGreedyDP/mT-Share response ratio = {:.2} (paper 4-10)",
                pg.avg_response_ms / mt.avg_response_ms.max(1e-9)
            )],
        },
        ExperimentResult {
            id: "tab3",
            title: "average number of candidate taxis per request (peak)".into(),
            paper_expectation: "No-Sharing < T-Share < mT-Share < pGreedyDP at every fleet size".into(),
            table: mk_table("candidates", &|r| fmt(r.avg_candidates, 1)),
            notes: vec![format!(
                "at max fleet: {}",
                ordering(&["NS", "TS", "mT", "pG"], [ns, ts, mt, pg].map(|r| r.avg_candidates), 1)
            )],
        },
        ExperimentResult {
            id: "fig8",
            title: "detour time in the peak scenario (min)".into(),
            paper_expectation: "No-Sharing ≈ 0; T-Share smallest among sharing; mT-Share close second; pGreedyDP ≈ 2× T-Share; decreases with fleet".into(),
            table: mk_table("detour min", &|r| fmt(r.avg_detour_min, 2)),
            notes: vec![format!(
                "at max fleet: {} min",
                ordering(&["T-Share", "mT-Share", "pGreedyDP"], [ts, mt, pg].map(|r| r.avg_detour_min), 2)
            )],
        },
        ExperimentResult {
            id: "fig9",
            title: "waiting time in the peak scenario (min)".into(),
            paper_expectation: "decreases with fleet; T-Share smallest; mT-Share slightly above pGreedyDP (< 0.5 min gap); No-Sharing ~1 min".into(),
            table: mk_table("waiting min", &|r| fmt(r.avg_waiting_min, 2)),
            notes: vec![format!(
                "at max fleet: gap mT-Share − pGreedyDP = {:.2} min (paper < 0.5)",
                mt.avg_waiting_min - pg.avg_waiting_min
            )],
        },
    ]
}

/// Each label with its value at `decimals` places, neighbours joined by the
/// relation their printed values have: a note states the order the run
/// measured, not the order the paper reports.
fn ordering<const N: usize>(labels: &[&str; N], values: [f64; N], decimals: usize) -> String {
    let shown = values.map(|v| fmt(v, decimals));
    let mut out = format!("{} {}", labels[0], shown[0]);
    for (i, pair) in shown.windows(2).enumerate() {
        let [a, b] = [&pair[0], &pair[1]].map(|s| s.parse::<f64>().expect("printed by `fmt`"));
        let sign = match a.total_cmp(&b) {
            Ordering::Less => '<',
            Ordering::Equal => '=',
            Ordering::Greater => '>',
        };
        let _ = write!(out, " {sign} {} {}", labels[i + 1], pair[1]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_prints_the_relation_the_numbers_have() {
        let candidates = ordering(&["NS", "TS", "mT", "pG"], [1.04, 2.0, 5.7, 4.7], 1);
        assert_eq!(candidates, "NS 1.0 < TS 2.0 < mT 5.7 > pG 4.7");
        // Equal as printed is `=`, whatever the digits past the last shown.
        assert_eq!(ordering(&["a", "b"], [0.501, 0.499], 2), "a 0.50 = b 0.50");
    }
}
