//! End-to-end observability: a full simulation with telemetry enabled
//! must emit a schema-valid JSONL event stream and a summary whose
//! numbers are internally consistent with the simulation report.

use mt_share::core::PartitionStrategy;
use mt_share::obs::{json, schema, MemorySink, Obs, Stage, EVENT_KINDS};
use mt_share::road::{grid_city, GridCityConfig};
use mt_share::routing::PathCache;
use mt_share::sim::{
    build_context, BatchConfig, Scenario, ScenarioConfig, SchemeKind, SimConfig, SimReport,
    Simulator,
};
use std::sync::Arc;

fn observed_run(kind: SchemeKind, cfg: ScenarioConfig) -> (SimReport, Obs, String) {
    let obs = Obs::enabled();
    let (sink, buf) = MemorySink::new();
    obs.add_sink(Box::new(sink));
    let report = run_with(kind, cfg, obs.clone());
    let trace = buf.borrow().clone();
    (report, obs, trace)
}

fn run_with(kind: SchemeKind, cfg: ScenarioConfig, obs: Obs) -> SimReport {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, cfg);
    let ctx = kind
        .needs_context()
        .then(|| build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite));
    let mut scheme = kind.build(&graph, scenario.taxis.len(), ctx, None);
    let batch = (kind == SchemeKind::MtShareBatch).then(BatchConfig::default);
    let sim_cfg = SimConfig { batch, ..SimConfig::default() };
    Simulator::new(graph, cache, &scenario, sim_cfg).with_obs(obs).run(scheme.as_mut())
}

fn count_kind(trace: &str, kind: &str) -> usize {
    let needle = format!("\"ev\":\"{kind}\"");
    trace.lines().filter(|l| l.contains(&needle)).count()
}

#[test]
fn trace_is_schema_valid_and_consistent_with_the_report() {
    let (report, obs, trace) = observed_run(SchemeKind::MtShare, ScenarioConfig::peak(12));
    let n_events = schema::validate_trace(&trace).expect("schema-valid trace");
    assert!(n_events > 0);

    // Every request arrives exactly once; lifecycle counts reconcile
    // with the report.
    assert_eq!(count_kind(&trace, "arrival"), report.n_requests);
    assert_eq!(count_kind(&trace, "commit"), count_kind(&trace, "pickup"));
    assert_eq!(count_kind(&trace, "dropoff"), report.served);
    assert_eq!(count_kind(&trace, "reject"), report.rejected);

    // The aggregate counters agree with the stream.
    let counts = obs.event_counts();
    for (i, kind) in EVENT_KINDS.iter().enumerate() {
        assert_eq!(counts[i] as usize, count_kind(&trace, kind), "count for {kind}");
    }
}

#[test]
fn summary_reports_stage_quantiles_and_cache_rates() {
    let started = std::time::Instant::now();
    let (report, obs, _) = observed_run(SchemeKind::MtShare, ScenarioConfig::peak(12));
    let wall_s = started.elapsed().as_secs_f64();
    let summary = obs.summary_json().expect("enabled");
    schema::validate_summary(&summary).expect("schema-valid summary");
    let v = json::parse(&summary).unwrap();

    let run = v.get("run").unwrap();
    assert_eq!(run.get("requests").and_then(|n| n.as_num()), Some(report.n_requests as f64));
    assert_eq!(run.get("taxis").and_then(|n| n.as_num()), Some(report.n_taxis as f64));

    // Every pipeline stage was actually timed during the run...
    for stage in [Stage::CandidateSearch, Stage::InsertionDp, Stage::Routing, Stage::Commit] {
        assert!(obs.stage_count(stage) > 0, "{} never recorded", stage.label());
    }
    // ...and its quantiles appear in the summary.
    let stages = v.get("profiling").and_then(|p| p.get("stages")).unwrap();
    for stage in Stage::ALL {
        let block = stages.get(stage.label()).unwrap();
        for q in ["p50_us", "p95_us", "p99_us"] {
            let val = block.get(q).and_then(|n| n.as_num()).unwrap();
            assert!(val >= 0.0, "{}::{q}", stage.label());
        }
    }

    // Pins are a timed layer of their own: one span per request held
    // for dispatch, and their total is real time spent inside the run.
    let pins = stages.get("oracle_pin").unwrap();
    let pin_total_s = pins.get("total_s").and_then(|n| n.as_num()).unwrap();
    assert!(pins.get("count").and_then(|n| n.as_num()).unwrap() >= report.n_requests as f64);
    assert!(0.0 < pin_total_s && pin_total_s < wall_s, "{pin_total_s} s of {wall_s} s");

    // The shared path cache was exercised and its rates surfaced.
    let cache = v.get("profiling").and_then(|p| p.get("path_cache")).unwrap();
    let hits = cache.get("hits").and_then(|n| n.as_num()).unwrap();
    let ratio = cache.get("hit_ratio").and_then(|n| n.as_num()).unwrap();
    assert!(hits > 0.0);
    assert!((0.0..=1.0).contains(&ratio));
    let oracle = v.get("profiling").and_then(|p| p.get("oracle")).unwrap();
    assert!(oracle.get("vector_hits").and_then(|n| n.as_num()).unwrap() > 0.0);
    // Requests were pinned and released: evictions track completed pins.
    assert!(oracle.get("evictions").and_then(|n| n.as_num()).unwrap() > 0.0);

    // Rejection taxonomy totals reconcile with the report.
    let rej = v.get("rejections").unwrap();
    assert_eq!(rej.get("total").and_then(|n| n.as_num()), Some(report.rejected as f64));

    // The insertion DP recorded work (the partition filter is Alg. 4's:
    // `alg4_block_appears_only_when_probabilistic_routing_ran`).
    assert!(obs.counter("counters", "insertions_attempted") > 0);
}

#[test]
fn batch_telemetry_is_schema_valid() {
    // The batch scheme's event stream (window-flush dispatches) and its
    // summary (profiling.lap block, batch_solve stage histogram) must
    // satisfy the schemas too.
    let (_, obs, trace) = observed_run(SchemeKind::MtShareBatch, ScenarioConfig::peak(12));
    assert!(!trace.is_empty(), "scenario must emit events");
    schema::validate_trace(&trace).expect("trace schema");
    schema::validate_summary(&obs.summary_json().expect("enabled")).expect("summary schema");
    assert!(obs.counter("lap", "solves") > 0, "batch runs must record LAP solves");
}

#[test]
fn telemetry_does_not_change_outcomes() {
    // Observing the run must not perturb it: reports with and without
    // the bus attached agree on every outcome, bit for bit.
    let cfg = ScenarioConfig::peak(12);
    let plain = run_with(SchemeKind::MtShare, cfg.clone(), Obs::disabled());
    let observed = run_with(SchemeKind::MtShare, cfg, Obs::enabled());
    assert!(plain.served > 0, "scenario must exercise the dispatcher: {plain:?}");
    assert_eq!(plain.served_records, observed.served_records);
    assert_eq!(
        (plain.served, plain.rejected, plain.avg_candidates, plain.total_driver_income),
        (observed.served, observed.rejected, observed.avg_candidates, observed.total_driver_income)
    );
}

#[test]
fn alg4_block_appears_only_when_probabilistic_routing_ran() {
    let field = |summary: &str, name: &str| {
        let v = json::parse(summary).unwrap();
        let alg4 = v.get("profiling").and_then(|p| p.get("alg4").cloned())?;
        alg4.get(name).and_then(|n| n.as_num())
    };
    // mT-Share_pro on a non-peak day plans probabilistic legs: the block is
    // there and its two identities hold (the schema validator checks them
    // too — this is the test that it is given a block to check).
    let cfg = ScenarioConfig::nonpeak(12);
    let (report, obs, _) = observed_run(SchemeKind::MtSharePro, cfg.clone());
    let summary = obs.summary_json().expect("enabled");
    schema::validate_summary(&summary).expect("schema-valid summary");
    let n = |name| field(&summary, name).unwrap_or_else(|| panic!("alg4.{name} in {summary}"));
    assert!(n("legs") > 0.0 && n("searches") > 0.0 && n("accepted") > 0.0, "{summary}");
    assert_eq!(n("corridors"), n("unreachable") + n("searches"));
    assert_eq!(n("legs"), n("accepted") + n("fallbacks"));
    // Alg. 2 filters the partitions of Alg. 4 legs and of nothing else.
    assert!(obs.counter("counters", "filter_partitions_considered") > 0);
    // Counting the corridors does not move a route.
    let plain = run_with(SchemeKind::MtSharePro, cfg, Obs::disabled());
    assert_eq!(plain.served_records, report.served_records);
    assert_eq!(plain.total_driver_income, report.total_driver_income);
    // Plain mT-Share never runs Alg. 4: no block, not a block of zeros,
    // and no partition filter.
    let (_, obs, _) = observed_run(SchemeKind::MtShare, ScenarioConfig::nonpeak(12));
    let summary = obs.summary_json().expect("enabled");
    schema::validate_summary(&summary).expect("schema-valid summary");
    assert_eq!(field(&summary, "legs"), None, "{summary}");
    assert!(!summary.contains("alg4"), "{summary}");
    assert_eq!(obs.counter("counters", "filter_partitions_considered"), 0);
}

/// Every key of `v` in document order, objects as `key{...}`.
fn shape(v: &json::Value) -> String {
    let fields = v.as_obj().expect("an object");
    let keys = fields.iter().map(|(k, v)| match v.as_obj() {
        Some(_) => format!("{k}{{{}}}", shape(v)),
        None => k.clone(),
    });
    keys.collect::<Vec<_>>().join(" ")
}

#[test]
fn summary_key_paths_are_golden() {
    // The full key sequence, deterministic part and `profiling`, in order —
    // consumers (`crates/e2e`, archived perf trajectories) read by path.
    let stat = "count mean p50 p95 p99 min max";
    let hist = |u: &str| format!("count total_s p50_{u} p95_{u} p99_{u} max_{u}");
    let stages = Stage::ALL.map(|s| format!("{}{{{}}}", s.label(), hist("us"))).join(" ");
    let golden = |alg4: &str| {
        format!(
            "schema run{{scheme taxis requests offline}} \
             events{{arrival dispatch commit reject encounter pickup dropoff breakdown cancel \
             traffic_shift reroute redispatch invariant_violation checkpoint restore \
             storage_fault durability_degraded feed_fault}} \
             rejections{{empty_fleet unreachable_od infeasible_deadline zero_capacity \
             no_feasible_insertion offline_expired cancelled_by_passenger taxi_failed \
             retries_exhausted queue_shed queue_rejected drain_rejected total}} \
             candidates{{{stat}}} feasible{{{stat}}} waiting_s{{{stat}}} detour_s{{{stat}}} \
             profiling{{stages{{{stages}}} \
             counters{{filter_partitions_considered filter_partitions_kept \
             insertions_attempted insertions_feasible insertions_pruned candidate_union}} \
             path_cache{{hits misses evictions hit_ratio}} \
             oracle{{vector_hits searches pin_computes regrows evictions settled resident_peak \
             hit_ratio}} \
             ch{{p2p_queries bucket_sweeps bucket_sources shortcuts}} \
             cch{{p2p_queries bucket_sweeps bucket_sources customizations fill_arcs}} \
             persistence{{checkpoints restores wal_records wal_bytes \
             checkpoint_bytes{{{}}} checkpoint_write_ms{{{}}}}} \
             faults{{wal snapshot feed dir_sync_unsupported quarantines}} \
             lap{{solves rows cols assigned augmentations relaxations skipped_rows}} \
             dtree{{scores rebuilds advances commits removes retimes legs_reused legs_filled \
             memo_reuses memo_fills}} \
             {alg4}process{{loop_wall_s peak_rss_mb}} response_ms{{{}}}}}",
            hist("b"),
            hist("ms"),
            hist("ms")
        )
    };
    let shape_of = |kind| {
        let (_, obs, _) = observed_run(kind, ScenarioConfig::nonpeak(12));
        shape(&json::parse(&obs.summary_json().expect("enabled")).unwrap())
    };
    let alg4 = "alg4{legs corridors unreachable searches accepted fallbacks} ";
    assert_eq!(shape_of(SchemeKind::MtSharePro), golden(alg4));
    // No Alg. 4 leg, no block.
    assert_eq!(shape_of(SchemeKind::MtShare), golden(""));
}

#[test]
fn disabled_bus_emits_nothing() {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::peak(10));
    let mut scheme = SchemeKind::NoSharing.build(&graph, scenario.taxis.len(), None, None);
    let obs = Obs::disabled();
    let report = Simulator::new(graph, cache, &scenario, SimConfig::default())
        .with_obs(obs.clone())
        .run(scheme.as_mut());
    assert!(report.served > 0);
    assert!(obs.summary_json().is_none());
    assert_eq!(obs.event_counts(), [0; EVENT_KINDS.len()]);
}
