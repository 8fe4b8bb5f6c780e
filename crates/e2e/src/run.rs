//! One workload run: repetitions on fresh state until the time budget
//! is used, the correctness checks, and the aggregation of repetitions
//! into reported metrics.

use crate::metrics::{LayerKind, MetricValue, END_TO_END, PER_LAYER, UNGATED};
use crate::probes::{calib_ms, run_probes, Probes};
use crate::rep::{reference_digest, run_rep, RepResult};
use crate::stats::{mean, median, percentile_capped, rel_spread, sorted};
use crate::workloads::{Seeds, WorkloadSpec};
use mtshare_obs::json::Value;
use std::collections::HashMap;
use std::time::Instant;

/// `run_seconds` of `BENCHMARK.json`: how long one run keeps starting
/// repetitions.
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Fewest repetitions behind an end-to-end median.
pub const MIN_REPS: usize = 3;

/// Options of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Command-line seed.
    pub seed: u64,
    /// Time budget: repetitions start until this much has elapsed.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Fewest measured repetitions.
    pub min_reps: usize,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The values compared.
    pub detail: String,
}

/// Result of one workload run.
pub struct WorkloadRun {
    /// Workload name.
    pub workload: &'static str,
    /// Measured repetitions (traced ones in a traced pass).
    pub reps: usize,
    /// Requests per repetition.
    pub requests: usize,
    /// Outcome digest shared by every repetition.
    pub digest: u64,
    /// Event-stream digest of the traced repetitions (0 when untraced).
    pub trace_digest: u64,
    /// Operations attempted: requests over all repetitions.
    pub attempted: u64,
    /// Requests without exactly one terminal state, invariant violations
    /// and repetitions whose digest differs.
    pub failed: u64,
    /// The reported metrics: end-to-end, or per-layer in a traced pass.
    pub metrics: Vec<MetricValue>,
    /// End-to-end pass only: the issue's metrics that are too noisy to
    /// gate, for the human-readable report.
    pub ungated: Vec<MetricValue>,
    /// Every check made.
    pub checks: Vec<Check>,
    /// `calib_ms` before and after the run.
    pub calib: (f64, f64),
}

impl WorkloadRun {
    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// `VmHWM` of this process, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn value_of(
    name: &'static str,
    unit: &'static str,
    per_rep: &[f64],
    samples: usize,
) -> MetricValue {
    MetricValue { name, unit, value: median(per_rep), samples, rep_spread: rel_spread(per_rep) }
}

/// One end-to-end metric (gated or not) over the repetitions of a run:
/// percentiles per repetition, then the median across repetitions.
fn end_to_end_value(name: &'static str, unit: &'static str, reps: &[RepResult]) -> MetricValue {
    let n = reps.len();
    let per_rep = |f: &dyn Fn(&RepResult) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let response =
        |q: f64| (per_rep(&|r| percentile_capped(&r.response_ms, q)), reps[0].response_ms.len());
    let service =
        |q: f64| (per_rep(&|r| percentile_capped(&r.service_ms, q)), reps[0].service_ms.len());
    let (values, samples) = match name {
        "setup_s" => (per_rep(&|r| r.setup_s), n),
        "loop_wall_s" => (per_rep(&|r| r.loop_wall_s), n),
        "req_per_s" => (per_rep(&|r| r.requests as f64 / r.loop_wall_s), n),
        "response_mean_ms" => (per_rep(&|r| mean(&r.response_ms)), reps[0].response_ms.len()),
        "response_p50_ms" => response(0.50),
        "response_p95_ms" => response(0.95),
        "response_p99_ms" => response(0.99),
        "service_p50_ms" => service(0.50),
        "service_p99_ms" => service(0.99),
        // One high-water mark for the whole process.
        "peak_rss_mb" => (vec![peak_rss_mb()], 1),
        "served_ratio" => (per_rep(&|r| r.served_ratio), n),
        other => unreachable!("end-to-end metric `{other}` has no definition"),
    };
    value_of(name, unit, &values, samples)
}

fn dig(v: &Value, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_num)
        .ok_or_else(|| format!("summary lacks {}", path.join(".")))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer values of one traced repetition.
fn layer_values(rep: &RepResult) -> Result<Vec<(&'static str, f64)>, String> {
    let t = rep.traced.as_ref().ok_or("repetition was not traced")?;
    let s = &t.summary;
    let stage = |label: &str| dig(s, &["profiling", "stages", label, "total_s"]);
    let counter = |name: &str| dig(s, &["profiling", "counters", name]);
    let oracle = |name: &str| dig(s, &["profiling", "oracle", name]);
    let dtree = |name: &str| dig(s, &["profiling", "dtree", name]);
    let persist = |path: &[&str]| dig(s, &[&["profiling", "persistence"], path].concat());
    let spine = sorted(&t.trace.spine_lens);
    let r = &t.routing;
    Ok(vec![
        ("sim.steps", t.step_us.len() as f64),
        ("sim.step_p50_us", percentile_capped(&t.step_us, 0.50)),
        ("sim.step_p99_us", percentile_capped(&t.step_us, 0.99)),
        ("sim.traced_loop_wall_s", rep.loop_wall_s),
        ("sim.loop_self_s", rep.loop_wall_s - t.times.total_s()),
        ("sim.drain_s", t.drain_s),
        ("sim.service_p99_ms", percentile_capped(&rep.service_ms, 0.99)),
        ("core.dispatch_s", t.times.dispatch.secs),
        ("core.dispatch_calls", t.times.dispatch.calls as f64),
        ("core.dispatch_offline_s", t.times.dispatch_offline.secs),
        ("core.dispatch_offline_calls", t.times.dispatch_offline.calls as f64),
        ("core.after_assign_s", t.times.after_assign.secs),
        ("core.progress_s", t.times.progress.secs),
        ("core.progress_calls", t.times.progress.calls as f64),
        ("core.other_s", t.times.other.secs),
        ("core.response_p50_ms", percentile_capped(&rep.response_ms, 0.50)),
        ("core.response_p99_ms", percentile_capped(&rep.response_ms, 0.99)),
        ("core.candidate_search_s", stage("candidate_search")?),
        ("core.partition_filter_s", stage("partition_filter")?),
        ("core.routing_s", stage("routing")?),
        ("core.commit_s", stage("commit")?),
        ("core.candidates_avg", dig(s, &["candidates", "mean"])?),
        (
            "core.filter_keep_ratio",
            ratio(counter("filter_partitions_kept")?, counter("filter_partitions_considered")?),
        ),
        ("model.insertion_dp_s", stage("insertion_dp")?),
        ("model.insertions_attempted", counter("insertions_attempted")?),
        (
            "model.insertion_feasible_ratio",
            ratio(counter("insertions_feasible")?, counter("insertions_attempted")?),
        ),
        ("model.spine_len_p50", percentile_capped(&spine, 0.50)),
        ("model.spine_len_p95", percentile_capped(&spine, 0.95)),
        ("dtree.update_s", stage("dtree_update")?),
        ("dtree.scores", dtree("scores")?),
        ("dtree.rebuilds", dtree("rebuilds")?),
        (
            "dtree.legs_reused_ratio",
            ratio(dtree("legs_reused")?, dtree("legs_reused")? + dtree("legs_filled")?),
        ),
        ("dtree.memo_fills", dtree("memo_fills")?),
        ("routing.memo_hits", r.memo_hits as f64),
        ("routing.memo_misses", r.memo_misses as f64),
        ("routing.memo_hit_ratio", ratio(r.memo_hits as f64, (r.memo_hits + r.memo_misses) as f64)),
        ("routing.memo_entries", r.memo_entries as f64),
        ("routing.memo_bytes", r.memo_bytes as f64),
        ("routing.oracle_vector_hits", oracle("vector_hits")?),
        ("routing.oracle_pin_computes", oracle("pin_computes")?),
        ("routing.oracle_evictions", oracle("evictions")?),
        ("routing.p2p_queries", r.p2p_queries as f64),
        ("routing.bucket_sweeps", r.bucket_sweeps as f64),
        ("routing.bucket_sources", r.bucket_sources as f64),
        ("routing.customizations", r.customizations as f64),
        ("routing.customize_s", stage("customize")?),
        ("persist.snapshots", persist(&["checkpoints"])?),
        ("persist.snapshot_write_ms_p50", persist(&["checkpoint_write_ms", "p50_ms"])?),
        ("persist.snapshot_kib_p50", persist(&["checkpoint_bytes", "p50_b"])? / 1024.0),
        ("persist.wal_appends", persist(&["wal_records"])?),
        ("persist.wal_bytes", persist(&["wal_bytes"])?),
        ("chaos.redispatched", rep.recovery.0 as f64),
        ("chaos.cancelled", rep.recovery.1 as f64),
        ("chaos.shift_events", t.trace.shift_events as f64),
    ])
}

/// Aggregates the per-layer metrics of a traced pass. `all` holds every
/// repetition (the untraced baseline first). Loop timings are those of
/// one traced repetition — the one with the median loop wall — so that
/// they add up (`sim.loop_self_s` + Σ decorator times = its loop wall);
/// set-up phases are medians over all repetitions.
fn per_layer(
    all: &[RepResult],
    probes: &Probes,
    calib: (f64, f64),
    checks: &mut Vec<Check>,
) -> Result<Vec<MetricValue>, String> {
    let mut traced: Vec<&RepResult> = all.iter().filter(|r| r.traced.is_some()).collect();
    traced.sort_by(|a, b| a.loop_wall_s.total_cmp(&b.loop_wall_s));
    let representative = (traced.len() - 1) / 2;
    let mut rep_level: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for rep in &traced {
        for (name, value) in layer_values(rep)? {
            rep_level.entry(name).or_default().push(value);
        }
    }
    let phase = |f: &dyn Fn(&RepResult) -> f64| all.iter().map(f).collect::<Vec<f64>>();
    let untraced_loop: Vec<f64> =
        all.iter().filter(|r| r.traced.is_none()).map(|r| r.loop_wall_s).collect();
    let run_level: HashMap<&'static str, Vec<f64>> = HashMap::from([
        ("sim.begin_s", phase(&|r| r.phases.begin_s)),
        ("sim.scenario_generate_s", phase(&|r| r.phases.scenario_s)),
        ("road.grid_build_ms", phase(&|r| r.phases.grid_s * 1e3)),
        ("routing.preprocess_s", phase(&|r| r.phases.preprocess_s)),
        ("mobility.context_build_s", phase(&|r| r.phases.context_s)),
        ("routing.customize_ms", vec![probes.customize_ms]),
        ("routing.p2p_cold_us", vec![probes.p2p_cold_us]),
        ("routing.p2p_warm_us", vec![probes.p2p_warm_us]),
        ("routing.path_us", vec![probes.path_us]),
        ("routing.prime_us_per_source", vec![probes.prime_us_per_source]),
        ("routing.pin_ms", vec![probes.pin_ms]),
        ("core.basic_leg_us", vec![probes.basic_leg_us]),
        ("core.prob_leg_us", vec![probes.prob_leg_us]),
        (
            "obs.trace_overhead_ratio",
            vec![ratio(traced[representative].loop_wall_s, median(&untraced_loop))],
        ),
        ("host.calib_ms", vec![calib.0, calib.1]),
    ]);

    let mut unequal = Vec::new();
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for def in &PER_LAYER {
        let value = if let Some(values) = rep_level.get(def.name) {
            if def.kind == LayerKind::Exact && values.iter().any(|v| *v != values[0]) {
                unequal.push(def.name);
            }
            MetricValue {
                value: values[representative],
                ..value_of(def.name, def.unit, values, values.len())
            }
        } else {
            let values =
                run_level.get(def.name).ok_or_else(|| format!("no value for `{}`", def.name))?;
            value_of(def.name, def.unit, values, values.len())
        };
        out.push(value);
    }
    checks.push(Check {
        name: "traced_counts_repeat",
        ok: unequal.is_empty(),
        detail: format!("{} traced repetitions; differing: {unequal:?}", traced.len()),
    });
    Ok(out)
}

/// Runs `spec` under `opts` in this process.
pub fn run_workload(spec: &WorkloadSpec, opts: &RunOptions) -> Result<WorkloadRun, String> {
    let seeds = Seeds::derive(opts.seed);
    let calib_before = calib_ms();
    let start = Instant::now();
    let mut all: Vec<RepResult> = Vec::new();
    // A traced pass starts with one untraced repetition: the baseline of
    // `obs.trace_overhead_ratio` and of the traced-equals-untraced check.
    let baseline = usize::from(opts.trace);
    let prepared = loop {
        let traced = opts.trace && !all.is_empty();
        let (rep, prepared) = run_rep(spec, &seeds, traced)?;
        all.push(rep);
        let measured = all.len() - baseline;
        if measured >= opts.min_reps.max(1) && start.elapsed().as_secs_f64() >= opts.seconds {
            break prepared;
        }
    };

    let mut checks = Vec::new();
    let digest = all[0].digest;
    let differing = all.iter().filter(|r| r.digest != digest).count() as u64;
    checks.push(Check {
        name: "digest_repeats",
        ok: differing == 0,
        detail: format!("{} repetitions, {differing} differ from {digest:#018x}", all.len()),
    });
    let reference = reference_digest(spec, &prepared);
    let (router, scheduler) = spec.reference();
    checks.push(Check {
        name: "matches_plain_run",
        ok: reference == digest,
        detail: format!(
            "plain Simulator::run under {router:?}+{} gave {reference:#018x}",
            scheduler.label()
        ),
    });
    let unaccounted: u64 = all.iter().map(|r| r.failed).sum();
    checks.push(Check {
        name: "one_terminal_state",
        ok: unaccounted == 0,
        detail: format!("{unaccounted} requests or invariants off over {} repetitions", all.len()),
    });

    let measured = &all[baseline..];
    let mut trace_digest = 0;
    if opts.trace {
        let hashes: Vec<u64> = measured
            .iter()
            .filter_map(|r| r.traced.as_ref())
            .map(|t| t.trace.hash.digest())
            .collect();
        trace_digest = hashes[0];
        checks.push(Check {
            name: "trace_repeats",
            ok: hashes.iter().all(|h| *h == trace_digest),
            detail: format!("{} event streams hash to {trace_digest:#018x}", hashes.len()),
        });
    }
    let probes = opts.trace.then(|| run_probes(spec, &prepared));
    let calib = (calib_before, calib_ms());
    let (metrics, ungated) = match &probes {
        Some(probes) => (per_layer(&all, probes, calib, &mut checks)?, Vec::new()),
        None => (
            END_TO_END.iter().map(|d| end_to_end_value(d.name, d.unit, measured)).collect(),
            UNGATED.iter().map(|&(name, unit)| end_to_end_value(name, unit, measured)).collect(),
        ),
    };

    Ok(WorkloadRun {
        workload: spec.name,
        reps: measured.len(),
        requests: all[0].requests,
        digest,
        trace_digest,
        attempted: all.iter().map(|r| r.requests as u64).sum(),
        failed: unaccounted + differing,
        metrics,
        ungated,
        checks,
        calib,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::result_line;
    use crate::workloads::find;
    use mtshare_obs::json::parse;

    fn smoke(workload: &str, trace: bool) -> WorkloadRun {
        let spec = find(workload).expect("known workload").shrunk(20);
        let opts = RunOptions { seed: 7, seconds: 0.0, trace, min_reps: 1 };
        run_workload(&spec, &opts).expect("run completes")
    }

    #[test]
    fn end_to_end_pass_reports_every_metric_and_parses() {
        let run = smoke("dense_share", false);
        assert!(run.correct(), "{:?}", run.checks);
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|d| d.name));
        assert!(
            run.metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()),
            "{:?}",
            run.metrics
        );
        let line = result_line(run.correct(), run.attempted, run.failed, &run.metrics);
        let v = parse(&line).expect("result line is JSON");
        assert_eq!(
            v.get("metrics").and_then(Value::as_obj).map(<[_]>::len),
            Some(END_TO_END.len())
        );
        assert_eq!(run.attempted, run.requests as u64);
    }

    #[test]
    fn traced_pass_reports_every_layer_metric_and_reconciles() {
        let run = smoke("shift_cch", true);
        assert!(run.correct(), "{:?}", run.checks);
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.map(|d| d.name));
        let get = |name: &str| run.metrics.iter().find(|m| m.name == name).unwrap().value;
        let parts = get("sim.loop_self_s")
            + get("core.dispatch_s")
            + get("core.dispatch_offline_s")
            + get("core.after_assign_s")
            + get("core.progress_s")
            + get("core.other_s");
        let wall = get("sim.traced_loop_wall_s");
        assert!((parts - wall).abs() <= 0.01 * wall, "{parts} vs {wall}");
        assert!(get("routing.customizations") > 0.0 && get("chaos.shift_events") > 0.0);
        assert_ne!(run.trace_digest, 0);
    }
}
