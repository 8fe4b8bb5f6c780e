//! The metric tables — names, units, directions and bounds — and the
//! result line the driver reads. `BENCHMARK.json` is a copy of these
//! tables; a unit test keeps the two from drifting apart.

use mtshare_obs::json::{escape, fmt_f64};
use std::fmt::Write as _;

/// A gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse:
    /// three times the widest inter-quartile spread seen over ten seeds
    /// on the 2-core reference box, rounded up and capped at the 25 % the
    /// driver allows (see "Bounds" in the README for the measurements).
    pub bound: f64,
}

/// The gated end-to-end metrics, identical on every workload.
///
/// Three of the issue's ten are reported but not gated, following its
/// rule for a metric that needs more than its ceiling; they are the
/// per-layer metrics `core.response_p50_ms`, `core.response_p99_ms` and
/// `sim.service_p99_ms`, and the end-to-end pass prints them too:
///
/// - `response_p50_ms`: with about half of the requests served, the
///   median dispatch sits on the cliff between the cheap reject path and
///   the expensive insert-and-route path and moves by 25–45 % from one
///   day to the next on `peak_bidir` and `nonpeak_pro`.
///   `response_mean_ms` stands in its place.
/// - `response_p99_ms`, `service_p99_ms`: 18–19 % inter-quartile spread
///   over ten seeds on three workloads, too close to the 25 % the driver
///   allows as a bound.
pub const END_TO_END: [EndToEndDef; 8] = [
    EndToEndDef { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEndDef { name: "loop_wall_s", unit: "s", higher_is_better: false, bound: 0.25 },
    EndToEndDef { name: "req_per_s", unit: "1/s", higher_is_better: true, bound: 0.25 },
    EndToEndDef { name: "response_mean_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEndDef { name: "response_p95_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEndDef { name: "service_p50_ms", unit: "ms", higher_is_better: false, bound: 0.25 },
    EndToEndDef { name: "peak_rss_mb", unit: "MiB", higher_is_better: false, bound: 0.1 },
    EndToEndDef { name: "served_ratio", unit: "ratio", higher_is_better: true, bound: 0.12 },
];

/// Names and units of the issue's end-to-end metrics that are reported
/// ungated (see [`END_TO_END`]).
pub const UNGATED: [(&str, &str); 3] =
    [("response_p50_ms", "ms"), ("response_p99_ms", "ms"), ("service_p99_ms", "ms")];

/// How a per-layer metric is aggregated over the traced repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// A count or a ratio of counts: must repeat exactly for a fixed seed.
    Exact,
    /// A wall-clock measurement: median over the traced repetitions.
    Timing,
}

/// An ungated per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    /// Metric name, `<crate>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Aggregation rule.
    pub kind: LayerKind,
}

const fn exact(name: &'static str, unit: &'static str, higher_is_better: bool) -> LayerDef {
    LayerDef { name, unit, higher_is_better, kind: LayerKind::Exact }
}

const fn timing(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef { name, unit, higher_is_better: false, kind: LayerKind::Timing }
}

/// Every per-layer metric, in reporting order.
pub const PER_LAYER: [LayerDef; 69] = [
    // sim: the event loop outside the scheme.
    exact("sim.steps", "count", false),
    timing("sim.step_p50_us", "us"),
    timing("sim.step_p99_us", "us"),
    timing("sim.traced_loop_wall_s", "s"),
    timing("sim.loop_self_s", "s"),
    timing("sim.drain_s", "s"),
    timing("sim.service_p99_ms", "ms"),
    timing("sim.begin_s", "s"),
    timing("sim.scenario_generate_s", "s"),
    // core: scheme calls, timed by the decorator.
    timing("core.dispatch_s", "s"),
    exact("core.dispatch_calls", "count", false),
    timing("core.dispatch_offline_s", "s"),
    exact("core.dispatch_offline_calls", "count", false),
    timing("core.after_assign_s", "s"),
    timing("core.progress_s", "s"),
    exact("core.progress_calls", "count", false),
    timing("core.other_s", "s"),
    timing("core.response_p50_ms", "ms"),
    timing("core.response_p99_ms", "ms"),
    // core: dispatch stages, from the program's own summary.
    timing("core.candidate_search_s", "s"),
    timing("core.partition_filter_s", "s"),
    timing("core.routing_s", "s"),
    timing("core.commit_s", "s"),
    exact("core.candidates_avg", "count", false),
    exact("core.filter_keep_ratio", "ratio", false),
    // model: insertion scoring.
    timing("model.insertion_dp_s", "s"),
    exact("model.insertions_attempted", "count", false),
    exact("model.insertion_feasible_ratio", "ratio", true),
    exact("model.spine_len_p50", "count", false),
    exact("model.spine_len_p95", "count", false),
    // dtree: incremental scoring.
    timing("dtree.update_s", "s"),
    exact("dtree.scores", "count", false),
    exact("dtree.rebuilds", "count", false),
    exact("dtree.legs_reused_ratio", "ratio", true),
    exact("dtree.memo_fills", "count", false),
    // routing: memo, oracle and hierarchy counters over the loop.
    exact("routing.memo_hits", "count", true),
    exact("routing.memo_misses", "count", false),
    exact("routing.memo_hit_ratio", "ratio", true),
    exact("routing.memo_entries", "count", false),
    exact("routing.memo_bytes", "B", false),
    exact("routing.oracle_vector_hits", "count", true),
    exact("routing.oracle_pin_computes", "count", false),
    exact("routing.oracle_evictions", "count", false),
    exact("routing.p2p_queries", "count", false),
    exact("routing.bucket_sweeps", "count", false),
    exact("routing.bucket_sources", "count", false),
    exact("routing.customizations", "count", false),
    timing("routing.customize_s", "s"),
    // layer probes.
    timing("road.grid_build_ms", "ms"),
    timing("routing.preprocess_s", "s"),
    timing("routing.customize_ms", "ms"),
    timing("routing.p2p_cold_us", "us"),
    timing("routing.p2p_warm_us", "us"),
    timing("routing.path_us", "us"),
    timing("routing.prime_us_per_source", "us"),
    timing("routing.pin_ms", "ms"),
    timing("core.basic_leg_us", "us"),
    timing("core.prob_leg_us", "us"),
    timing("mobility.context_build_s", "s"),
    // persist: snapshot and WAL traffic.
    exact("persist.snapshots", "count", false),
    timing("persist.snapshot_write_ms_p50", "ms"),
    exact("persist.snapshot_kib_p50", "KiB", false),
    exact("persist.wal_appends", "count", false),
    exact("persist.wal_bytes", "B", false),
    // chaos: recovery work.
    exact("chaos.redispatched", "count", false),
    exact("chaos.cancelled", "count", false),
    exact("chaos.shift_events", "count", false),
    // the instrument itself.
    timing("obs.trace_overhead_ratio", "ratio"),
    timing("host.calib_ms", "ms"),
];

/// One reported value.
#[derive(Debug, Clone)]
pub struct MetricValue {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value: a median over repetitions unless the metric is exact.
    pub value: f64,
    /// Samples behind the value (repetitions, or calls per repetition
    /// for percentiles).
    pub samples: usize,
    /// `(max − min) / median` over the repetitions.
    pub rep_spread: f64,
}

/// The single JSON object the driver reads from the last line of
/// standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[MetricValue]) -> String {
    let mut s = String::with_capacity(64 + metrics.len() * 64);
    let _ = write!(
        s,
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{"#
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#""{}":{{"value":{},"unit":"{}"}}"#,
            escape(m.name),
            fmt_f64(m.value),
            escape(m.unit)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtshare_obs::json::{parse, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        assert!(units.into_iter().all(valid_unit));
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
    }

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let metrics: Vec<MetricValue> = END_TO_END
            .iter()
            .map(|m| MetricValue {
                name: m.name,
                unit: m.unit,
                value: 1.2034,
                samples: 3,
                rep_spread: 0.0,
            })
            .collect();
        let v = parse(&result_line(true, 3600, 0, &metrics)).expect("valid JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_num), Some(3600.0));
        let got = v.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(got.len(), END_TO_END.len());
        for ((name, m), def) in got.iter().zip(&END_TO_END) {
            assert_eq!(name, def.name);
            assert_eq!(m.get("value").and_then(Value::as_num), Some(1.2034));
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
        }
    }

    /// `BENCHMARK.json` at the repository root is a copy of the tables
    /// above and of the workload list.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = parse(&text).expect("BENCHMARK.json parses");
        let arr = |key: &str| match v.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        };
        let text_of =
            |item: &Value, key: &str| item.get(key).and_then(Value::as_str).map(String::from);
        let better = |higher: bool| Some(String::from(if higher { "higher" } else { "lower" }));

        let e2e = arr("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(item, "name").as_deref(), Some(def.name));
            assert_eq!(text_of(item, "unit").as_deref(), Some(def.unit));
            assert_eq!(text_of(item, "better"), better(def.higher_is_better));
            assert_eq!(item.get("bound").and_then(Value::as_num), Some(def.bound), "{}", def.name);
        }
        let layers = arr("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (item, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(item, "name").as_deref(), Some(def.name));
            assert_eq!(text_of(item, "unit").as_deref(), Some(def.unit));
            assert_eq!(text_of(item, "better"), better(def.higher_is_better));
        }
        let workloads = arr("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (item, spec) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(text_of(item, "name").as_deref(), Some(spec.name));
            let why = text_of(item, "why").expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(v.get("run_seconds").and_then(Value::as_num), Some(crate::run::DEFAULT_SECONDS));
    }
}
