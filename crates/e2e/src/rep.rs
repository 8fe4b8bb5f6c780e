//! One repetition of a workload: full set-up on fresh state, then the
//! one-shot simulator driven step by step with the scheme wrapped in
//! [`TimedScheme`]. Everything is measured from outside through public
//! APIs.

use crate::stats::sorted;
use crate::timed::{SchemeTimes, TimedScheme};
use crate::workloads::{sample_day, Router, Seeds, WorkloadSpec, DAY_POOL};
use mtshare_core::{MobilityContext, MtShareConfig, PartitionStrategy};
use mtshare_model::SchedulerKind;
use mtshare_obs::json::{self, Value};
use mtshare_obs::{Event, EventSink, Obs};
use mtshare_persist::Fnv64;
use mtshare_road::{grid_city, RoadNetwork};
use mtshare_routing::{ContractionHierarchy, CustomizableCh, PathCache, RouterBackend};
use mtshare_sim::{
    build_context, materialize, PersistConfig, RawRequest, Scenario, ScenarioConfig, SimConfig,
    SimEngine, SimReport, Simulator, StepOutcome, WorkloadGenerator,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `--kappa` of the CLI default: partitions in the mobility context.
const KAPPA: usize = 24;
/// Snapshot cadence of the persistent workload, steps.
const CHECKPOINT_EVERY: u64 = 256;
/// Invariant-sweep cadence of the traced pass, simulated seconds.
const VALIDATE_EVERY_S: f64 = 60.0;

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    /// `grid_city`.
    pub grid_s: f64,
    /// Router preprocessing (`ContractionHierarchy::build` /
    /// `CustomizableCh::build`; nothing under bidir).
    pub preprocess_s: f64,
    /// Scenario generation (demand pool, the day's sample, direct costs,
    /// fleet).
    pub scenario_s: f64,
    /// `build_context`.
    pub context_s: f64,
    /// `SimEngine::new`: scheme install, disruption seeding, step-0
    /// checkpoint.
    pub begin_s: f64,
}

/// The inputs a repetition was run on, kept for the reference run and
/// the layer probes.
pub struct Prepared {
    /// The city.
    pub graph: Arc<RoadNetwork>,
    /// The preprocessed cost engine.
    pub backend: RouterBackend,
    /// Requests, fleet and historical trips.
    pub scenario: Scenario,
    /// Mobility context.
    pub ctx: Arc<MobilityContext>,
}

/// Routing-layer counters over the loop only (set-up queries excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutingCounts {
    /// `PathCache` memo hits.
    pub memo_hits: u64,
    /// `PathCache` memo misses.
    pub memo_misses: u64,
    /// Memo entries alive at the end of the loop.
    pub memo_entries: u64,
    /// Approximate memo bytes at the end of the loop.
    pub memo_bytes: u64,
    /// Hierarchy point-to-point searches.
    pub p2p_queries: u64,
    /// Bucket many-to-one sweeps.
    pub bucket_sweeps: u64,
    /// Sources over all bucket sweeps.
    pub bucket_sources: u64,
    /// Metric customizations (cch).
    pub customizations: u64,
}

/// What the event stream of a traced repetition showed.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// FNV-1a over the canonical JSONL lines.
    pub hash: Fnv64,
    /// Terminal events (drop-off or reject) per request id.
    pub terminal: Vec<u32>,
    /// `Commit.schedule_len` of every commit: the committed spine
    /// length distribution.
    pub spine_lens: Vec<f64>,
    /// Traffic-shift events.
    pub shift_events: u64,
}

struct HashSink(Arc<Mutex<TraceStats>>);

impl EventSink for HashSink {
    fn on_event(&mut self, ev: &Event, line: &str) {
        let mut s = self.0.lock().expect("trace stats poisoned");
        s.hash.write(line.as_bytes());
        s.hash.write(b"\n");
        match ev {
            Event::Dropoff { req, .. } | Event::Reject { req, .. } => {
                let i = *req as usize;
                if s.terminal.len() <= i {
                    s.terminal.resize(i + 1, 0);
                }
                s.terminal[i] += 1;
            }
            Event::Commit { schedule_len, .. } => s.spine_lens.push(f64::from(*schedule_len)),
            Event::TrafficShift { .. } => s.shift_events += 1,
            _ => {}
        }
    }
}

/// Extra measurements of a traced repetition.
pub struct TracedRep {
    /// Wall time of every `step()`, microseconds, ascending.
    pub step_us: Vec<f64>,
    /// Time from the last online dispatch step to the end of `finalize`.
    pub drain_s: f64,
    /// The decorator's per-method times.
    pub times: SchemeTimes,
    /// The program's own end-of-run summary.
    pub summary: Value,
    /// Event-stream statistics.
    pub trace: TraceStats,
    /// Routing counters over the loop.
    pub routing: RoutingCounts,
}

/// Everything one repetition measured.
pub struct RepResult {
    /// Graph build through `SimEngine::new`, seconds.
    pub setup_s: f64,
    /// Set-up broken down.
    pub phases: SetupPhases,
    /// First `step()` through `finalize`, seconds.
    pub loop_wall_s: f64,
    /// Requests materialized.
    pub requests: usize,
    /// Wall time of each `dispatch`/`dispatch_offline` call, ms, ascending.
    pub response_ms: Vec<f64>,
    /// Per online dispatch step: wall time since the previous one ended,
    /// ms, ascending.
    pub service_ms: Vec<f64>,
    /// `SimReport::served_ratio()`.
    pub served_ratio: f64,
    /// Outcome digest.
    pub digest: u64,
    /// Requests without exactly one terminal state plus invariant
    /// violations.
    pub failed: u64,
    /// Recovery counters from the report: (redispatched, cancelled).
    pub recovery: (u64, u64),
    /// Present when the repetition ran traced.
    pub traced: Option<TracedRep>,
}

/// FNV over the delivery audit trail, the terminal-state counts and the
/// fare sums: equal digests mean equal outcomes, bit for bit.
pub fn outcome_digest(r: &SimReport) -> u64 {
    let mut h = Fnv64::new();
    for s in &r.served_records {
        h.write_u64(u64::from(s.request));
        h.write_u64(u64::from(s.taxi));
        h.write_f64(s.pickup_t);
        h.write_f64(s.dropoff_t);
    }
    for n in [r.served, r.served_online, r.served_offline, r.rejected, r.cancelled, r.redispatched]
    {
        h.write_u64(n as u64);
    }
    for v in [r.total_passenger_fares, r.total_solo_fares, r.total_driver_income, r.total_benefit] {
        h.write_f64(v);
    }
    h.digest()
}

/// Requests the report leaves without exactly one terminal state.
fn accounting_failures(r: &SimReport) -> u64 {
    let mut failed = (r.served + r.rejected).abs_diff(r.n_requests) as u64;
    failed += r.served.abs_diff(r.served_records.len()) as u64;
    let mut ids: Vec<u32> = r.served_records.iter().map(|s| s.request).collect();
    ids.sort_unstable();
    let n = ids.len();
    ids.dedup();
    failed + (n - ids.len()) as u64
}

/// A state directory unique to one repetition, removed on drop (so also
/// when a check fails or the run panics). It lives beside the executable
/// — inside the build directory — so the benchmark writes nothing
/// outside its checkout and nothing into tracked parts of the repo.
struct TempStateDir(PathBuf);

impl TempStateDir {
    fn new(workload: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_else(std::env::temp_dir);
        let name = format!(
            "mtshare-e2e-state-{}-{workload}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        Self(base.join(name))
    }
}

impl Drop for TempStateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_backend(router: Router, graph: &Arc<RoadNetwork>) -> RouterBackend {
    match router {
        Router::Bidir => RouterBackend::Bidir,
        Router::Ch => RouterBackend::Ch(Arc::new(ContractionHierarchy::build(graph, 1))),
        Router::Cch => RouterBackend::Cch(Arc::new(CustomizableCh::build(graph))),
    }
}

/// `Scenario::generate` with one step added: the demand model generates
/// a pool of [`DAY_POOL`] times the requests and the day seed picks the
/// ones that arrive today (hotspots and historical trips are the demand
/// model's own and do not change with the day).
fn generate_scenario(
    graph: &Arc<RoadNetwork>,
    cache: &PathCache,
    config: ScenarioConfig,
    day_seed: u64,
) -> Scenario {
    let mut gen = WorkloadGenerator::new(graph.clone(), config.workload.clone());
    let historical = gen.historical_trips(config.n_historical);
    let pool =
        gen.requests(config.n_requests * DAY_POOL, 0.0, config.duration_s, config.offline_fraction);
    let day: Vec<RawRequest> =
        sample_day(pool.len(), config.n_requests, day_seed).into_iter().map(|i| pool[i]).collect();
    let requests = materialize(&day, cache, config.rho);
    let taxis = config.make_fleet(graph);
    Scenario { config, historical, requests, taxis }
}

fn scheme_config(scheduler: SchedulerKind) -> MtShareConfig {
    MtShareConfig::default().with_scheduler(scheduler)
}

fn sim_config(spec: &WorkloadSpec, state_dir: Option<&TempStateDir>, validate: bool) -> SimConfig {
    SimConfig {
        chaos: spec.chaos_config(),
        validate_every: validate.then_some(VALIDATE_EVERY_S),
        persist: state_dir.map(|d| PersistConfig {
            checkpoint_every: CHECKPOINT_EVERY,
            ..PersistConfig::new(&d.0)
        }),
        ..SimConfig::default()
    }
}

fn routing_counts(cache: &PathCache) -> RoutingCounts {
    let memo = cache.stats();
    let ch = cache.ch_stats().unwrap_or_default();
    let cch = cache.cch_stats().unwrap_or_default();
    RoutingCounts {
        memo_hits: memo.hits,
        memo_misses: memo.misses,
        memo_entries: cache.len() as u64,
        memo_bytes: cache.memory_bytes() as u64,
        p2p_queries: ch.p2p_queries + cch.p2p_queries,
        bucket_sweeps: ch.bucket_sweeps + cch.bucket_sweeps,
        bucket_sources: ch.bucket_sources + cch.bucket_sources,
        customizations: cch.customizations,
    }
}

/// Runs one repetition of `spec` on fresh state. `traced` switches on
/// the program's telemetry, the hashing event sink, per-method and
/// per-step timing and the runtime invariant sweep.
pub fn run_rep(
    spec: &WorkloadSpec,
    seeds: &Seeds,
    traced: bool,
) -> Result<(RepResult, Prepared), String> {
    let mut phases = SetupPhases::default();
    let setup_start = Instant::now();

    let graph = Arc::new(grid_city(&spec.city_config()).map_err(|e| format!("city: {e}"))?);
    phases.grid_s = setup_start.elapsed().as_secs_f64();

    let t = Instant::now();
    let backend = build_backend(spec.router, &graph);
    phases.preprocess_s = t.elapsed().as_secs_f64();
    let cache = PathCache::with_backend(graph.clone(), backend.clone());

    let t = Instant::now();
    let scenario = generate_scenario(&graph, &cache, spec.scenario_config(seeds), seeds.requests);
    phases.scenario_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ctx = build_context(&graph, &scenario.historical, KAPPA, PartitionStrategy::Bipartite);
    phases.context_s = t.elapsed().as_secs_f64();

    let scheme = spec.scheme.build(
        &graph,
        scenario.taxis.len(),
        Some(ctx.clone()),
        Some(scheme_config(spec.scheduler)),
    );
    let mut timed = TimedScheme::new(scheme, traced);

    let trace = Arc::new(Mutex::new(TraceStats::default()));
    let obs = if traced {
        let obs = Obs::enabled();
        obs.add_sink(Box::new(HashSink(trace.clone())));
        obs
    } else {
        Obs::disabled()
    };
    let state_dir = spec.persist.then(|| TempStateDir::new(spec.name));
    let sim_cfg = sim_config(spec, state_dir.as_ref(), traced);
    let sim =
        Simulator::new(graph.clone(), cache.clone(), &scenario, sim_cfg).with_obs(obs.clone());
    let t = Instant::now();
    let mut engine = SimEngine::new(sim, &mut timed);
    phases.begin_s = t.elapsed().as_secs_f64();
    let setup_s = setup_start.elapsed().as_secs_f64();

    let routing_before = routing_counts(&cache);
    let mut service_s: Vec<f64> = Vec::with_capacity(scenario.requests.len());
    let mut step_us: Vec<f64> = Vec::new();
    let loop_start = Instant::now();
    let mut last = loop_start;
    let mut service_from = loop_start;
    loop {
        let calls = timed.dispatch_calls();
        let outcome = engine.step(&mut timed);
        let now = Instant::now();
        if traced {
            step_us.push((now - last).as_secs_f64() * 1e6);
        }
        if timed.dispatch_calls() != calls {
            service_s.push((now - service_from).as_secs_f64());
            service_from = now;
        }
        last = now;
        match outcome {
            StepOutcome::Progressed => {}
            StepOutcome::Done => break,
            other => return Err(format!("{}: loop stopped with {other:?}", spec.name)),
        }
    }
    let report = engine
        .finalize(&mut timed)
        .map_err(|step| format!("{}: storage fault at step {step}", spec.name))?;
    let loop_end = Instant::now();
    let loop_wall_s = (loop_end - loop_start).as_secs_f64();
    drop(state_dir);

    let times = timed.into_times();
    let to_ms = |v: &[f64]| sorted(&v.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let response_ms = to_ms(&times.response_s);
    let mut failed = accounting_failures(&report) + report.invariant_violations as u64;
    let traced_rep = if traced {
        let trace = trace.lock().expect("trace stats poisoned").clone();
        failed += (0..report.n_requests)
            .filter(|&i| trace.terminal.get(i).copied().unwrap_or(0) != 1)
            .count() as u64;
        let summary = obs.summary_json().ok_or("telemetry was enabled")?;
        let after = routing_counts(&cache);
        Some(TracedRep {
            step_us: sorted(&step_us),
            drain_s: (loop_end - service_from).as_secs_f64(),
            times,
            summary: json::parse(&summary).map_err(|e| format!("summary does not parse: {e}"))?,
            trace,
            routing: RoutingCounts {
                memo_hits: after.memo_hits - routing_before.memo_hits,
                memo_misses: after.memo_misses - routing_before.memo_misses,
                p2p_queries: after.p2p_queries - routing_before.p2p_queries,
                bucket_sweeps: after.bucket_sweeps - routing_before.bucket_sweeps,
                bucket_sources: after.bucket_sources - routing_before.bucket_sources,
                customizations: after.customizations - routing_before.customizations,
                ..after
            },
        })
    } else {
        None
    };

    let result = RepResult {
        setup_s,
        phases,
        loop_wall_s,
        requests: report.n_requests,
        response_ms,
        service_ms: to_ms(&service_s),
        served_ratio: report.served_ratio(),
        digest: outcome_digest(&report),
        failed,
        recovery: (report.redispatched as u64, report.cancelled as u64),
        traced: traced_rep,
    };
    Ok((result, Prepared { graph, backend, scenario, ctx }))
}

/// Digest of a plain `Simulator::run` — no decorator, no stepping — of
/// the workload's reference configuration on the prepared scenario. The
/// timed repetitions must reproduce it.
pub fn reference_digest(spec: &WorkloadSpec, prepared: &Prepared) -> u64 {
    let (router, scheduler) = spec.reference();
    let cache =
        PathCache::with_backend(prepared.graph.clone(), build_backend(router, &prepared.graph));
    let mut scheme = spec.scheme.build(
        &prepared.graph,
        prepared.scenario.taxis.len(),
        Some(prepared.ctx.clone()),
        Some(scheme_config(scheduler)),
    );
    let state_dir = spec.persist.then(|| TempStateDir::new(spec.name));
    let sim_cfg = sim_config(spec, state_dir.as_ref(), false);
    let report = Simulator::new(prepared.graph.clone(), cache, &prepared.scenario, sim_cfg)
        .run(scheme.as_mut());
    outcome_digest(&report)
}
