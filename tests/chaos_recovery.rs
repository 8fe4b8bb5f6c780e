//! Chaos acceptance: a seeded disruption mix (breakdowns, cancellations,
//! traffic shifts) must be survived end-to-end — every request accounted
//! in exactly one terminal state, at least one orphan successfully
//! re-dispatched, zero invariant violations — and the event trace must
//! stay byte-identical across same-seed reruns.

use mt_share::chaos::ChaosConfig;
use mt_share::core::PartitionStrategy;
use mt_share::obs::{schema, MemorySink, Obs};
use mt_share::road::{grid_city, GridCityConfig};
use mt_share::routing::PathCache;
use mt_share::sim::{
    build_context, BatchConfig, Scenario, ScenarioConfig, SchemeKind, SimConfig, SimReport,
    Simulator,
};
use std::sync::Arc;

fn chaos_run(chaos_seed: u64) -> (SimReport, String) {
    chaos_run_kind(SchemeKind::MtShare, chaos_seed)
}

fn chaos_run_kind(kind: SchemeKind, chaos_seed: u64) -> (SimReport, String) {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::peak(12));
    let ctx = build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite);
    let mut scheme = kind.build(&graph, scenario.taxis.len(), Some(ctx), None);
    let obs = Obs::enabled();
    let (sink, buf) = MemorySink::new();
    obs.add_sink(Box::new(sink));
    // A wide window keeps requests buffered for long stretches, so the
    // seeded disruptions overlap open windows often.
    let batch = (kind == SchemeKind::MtShareBatch)
        .then_some(BatchConfig { window_s: 45.0, max_retries: 2 });
    let cfg = SimConfig {
        chaos: Some(ChaosConfig::with_seed(chaos_seed)),
        validate_every: Some(60.0),
        batch,
        ..SimConfig::default()
    };
    let report =
        Simulator::new(graph, cache, &scenario, cfg).with_obs(obs.clone()).run(scheme.as_mut());
    let trace = buf.borrow().clone();
    (report, trace)
}

fn count_kind(trace: &str, kind: &str) -> usize {
    let needle = format!("\"ev\":\"{kind}\"");
    trace.lines().filter(|l| l.contains(&needle)).count()
}

/// The `"req":N` id on a trace line, when present.
fn req_id(line: &str) -> Option<u32> {
    let rest = &line[line.find("\"req\":")? + 6..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A chaos seed whose plan visibly exercises all three disruption kinds
/// *and* wins at least one successful re-dispatch on this scenario. The
/// scan is deterministic, so the chosen seed is stable across test runs.
fn interesting_seed() -> u64 {
    for seed in 0..32 {
        let (report, trace) = chaos_run(seed);
        if report.redispatched >= 1
            && count_kind(&trace, "breakdown") >= 1
            && count_kind(&trace, "cancel") >= 1
            && count_kind(&trace, "traffic_shift") >= 1
        {
            return seed;
        }
    }
    panic!("no chaos seed in 0..32 produced a successful re-dispatch");
}

#[test]
fn seeded_chaos_recovers_and_accounts_every_request() {
    let (report, trace) = chaos_run(interesting_seed());
    schema::validate_trace(&trace).expect("chaos trace must be schema-valid");
    assert_eq!(report.served + report.rejected, report.n_requests, "{report:?}");
    assert!(report.redispatched >= 1, "{report:?}");
    assert_eq!(report.invariant_violations, 0, "{report:?}");
    assert_eq!(count_kind(&trace, "dropoff"), report.served);
    assert_eq!(count_kind(&trace, "reject"), report.rejected);

    // Exactly one terminal event (dropoff or reject) per request.
    let mut terminals = vec![0usize; report.n_requests];
    for line in trace.lines() {
        if line.contains("\"ev\":\"dropoff\"") || line.contains("\"ev\":\"reject\"") {
            terminals[req_id(line).expect("terminal events carry a request id") as usize] += 1;
        }
    }
    for (req, n) in terminals.iter().enumerate() {
        assert_eq!(*n, 1, "request {req} terminated {n} times");
    }
}

#[test]
fn chaos_traces_are_byte_identical_across_reruns() {
    let seed = interesting_seed();
    let (a, trace_a) = chaos_run(seed);
    let (b, trace_b) = chaos_run(seed);
    assert_eq!(trace_a, trace_b, "same seed must reproduce the trace byte-for-byte");
    assert_eq!(
        (a.served, a.rejected, a.cancelled, a.redispatched),
        (b.served, b.rejected, b.cancelled, b.redispatched)
    );
}

/// A chaos seed whose plan, under the batch scheme, cancels at least one
/// request while it sits *unassigned* (i.e. buffered in an open window —
/// under batch dispatch a released, unresolved, unassigned request is by
/// definition window-buffered) and breaks at least one taxi. Deterministic
/// scan, so the choice is stable.
fn interesting_batch_seed() -> u64 {
    for seed in 0..32 {
        let (report, trace) = chaos_run_kind(SchemeKind::MtShareBatch, seed);
        let unassigned_cancel = trace
            .lines()
            .any(|l| l.contains("\"ev\":\"cancel\"") && l.contains("\"assigned\":false"));
        if unassigned_cancel && count_kind(&trace, "breakdown") >= 1 && report.served > 0 {
            return seed;
        }
    }
    panic!("no chaos seed in 0..32 cancelled a window-buffered request under batch dispatch");
}

#[test]
fn batch_chaos_open_window_disruptions_terminate_exactly_once() {
    // The satellite case from the issue: a breakdown or cancel hitting a
    // taxi/request involved in an *open* batch window must leave every
    // request in exactly one terminal state — never lost in the window
    // buffer, never double-terminated by both the cancel path and the
    // flush path.
    let (report, trace) = chaos_run_kind(SchemeKind::MtShareBatch, interesting_batch_seed());
    schema::validate_trace(&trace).expect("batch chaos trace must be schema-valid");
    assert_eq!(report.served + report.rejected, report.n_requests, "{report:?}");
    assert_eq!(report.invariant_violations, 0, "{report:?}");
    assert_eq!(count_kind(&trace, "dropoff"), report.served);
    assert_eq!(count_kind(&trace, "reject"), report.rejected);
    let mut terminals = vec![0usize; report.n_requests];
    for line in trace.lines() {
        if line.contains("\"ev\":\"dropoff\"") || line.contains("\"ev\":\"reject\"") {
            terminals[req_id(line).expect("terminal events carry a request id") as usize] += 1;
        }
    }
    for (req, n) in terminals.iter().enumerate() {
        assert_eq!(*n, 1, "request {req} terminated {n} times");
    }
}

#[test]
fn batch_chaos_traces_are_byte_identical_across_reruns() {
    let seed = interesting_batch_seed();
    let (a, trace_a) = chaos_run_kind(SchemeKind::MtShareBatch, seed);
    let (b, trace_b) = chaos_run_kind(SchemeKind::MtShareBatch, seed);
    assert_eq!(trace_a, trace_b, "same seed must reproduce the batch trace byte-for-byte");
    assert_eq!(
        (a.served, a.rejected, a.cancelled, a.redispatched),
        (b.served, b.rejected, b.cancelled, b.redispatched)
    );
}
