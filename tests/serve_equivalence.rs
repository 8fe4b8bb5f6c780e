//! Service-mode contract tests.
//!
//! The core invariant: a recorded feed replayed through `mtshare serve`
//! produces an event trace byte-identical to the one-shot run of the
//! same scenario — under either pacing mode and across a
//! kill-and-resume. Admission-queue edge cases (zero
//! capacity, shed-under-burst, drain with an open batch window,
//! drain-while-resuming) and the fail-fast CLI flag validation ride
//! along.

use mt_share::chaos::CrashPoint;
use mt_share::core::PartitionStrategy;
use mt_share::model::DispatchScheme;
use mt_share::obs::{Obs, RejectReason};
use mt_share::road::{grid_city, GridCityConfig, RoadNetwork};
use mt_share::routing::PathCache;
use mt_share::serve::{
    record_feed, serve, AdmissionPolicy, AdmissionQueue, FeedReader, Pace, ServeOptions,
    ServeOutcome,
};
use mt_share::sim::{
    build_context, Auditor, BatchConfig, PersistConfig, Scenario, ScenarioConfig, SchemeKind,
    SimConfig, SimEngine, SimReport, Simulator, StepOutcome,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

// ---------------------------------------------------------------- CLI --

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn mtshare(dir: &Path, argv: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .current_dir(dir)
        .args(argv)
        .output()
        .expect("spawn mtshare")
}

const SCENARIO: &[&str] =
    &["--scheme", "mt-share", "--taxis", "15", "--requests", "150", "--nonpeak"];

#[test]
fn recorded_feed_replays_byte_identically_through_serve() {
    let dir = tmpdir("replay");
    let rec = mtshare(
        &dir,
        &[
            &["simulate"],
            SCENARIO,
            &["--trace-out", "oneshot.jsonl", "--feed-record", "feed.jsonl"],
        ]
        .concat(),
    );
    assert!(rec.status.success(), "record: {}", String::from_utf8_lossy(&rec.stderr));
    let oneshot = std::fs::read(dir.join("oneshot.jsonl")).unwrap();
    assert!(!oneshot.is_empty());

    for pace in ["free", "45"] {
        let out = format!("serve-{pace}.jsonl");
        let run = mtshare(
            &dir,
            &[&["serve"], SCENARIO, &["--feed", "feed.jsonl", "--pace", pace, "--trace-out", &out]]
                .concat(),
        );
        assert!(
            run.status.success(),
            "serve pace={pace}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let trace = std::fs::read(dir.join(&out)).unwrap();
        assert_eq!(trace, oneshot, "serve trace diverged (pace={pace})");
    }
}

#[test]
fn serve_kill_and_resume_joins_byte_identically() {
    let dir = tmpdir("resume");
    let rec = mtshare(
        &dir,
        &[
            &["simulate"],
            SCENARIO,
            &["--trace-out", "oneshot.jsonl", "--feed-record", "feed.jsonl"],
        ]
        .concat(),
    );
    assert!(rec.status.success(), "{}", String::from_utf8_lossy(&rec.stderr));

    let common: Vec<&str> =
        [&["serve"], SCENARIO, &["--feed", "feed.jsonl", "--pace", "45", "--state-dir", "state"]]
            .concat();
    let crash = mtshare(
        &dir,
        &[
            &common[..],
            &["--trace-out", "head.jsonl", "--checkpoint-every", "25", "--crash-at", "150"],
        ]
        .concat(),
    );
    assert_eq!(
        crash.status.code(),
        Some(42),
        "planned crash exit: {}",
        String::from_utf8_lossy(&crash.stderr)
    );
    let resume = mtshare(&dir, &[&common[..], &["--trace-out", "tail.jsonl", "--resume"]].concat());
    assert!(resume.status.success(), "resume: {}", String::from_utf8_lossy(&resume.stderr));

    let mut joined = std::fs::read(dir.join("head.jsonl")).unwrap();
    joined.extend(std::fs::read(dir.join("tail.jsonl")).unwrap());
    let oneshot = std::fs::read(dir.join("oneshot.jsonl")).unwrap();
    assert_eq!(joined, oneshot, "killed+resumed serve trace diverged from one-shot");
}

#[test]
fn bad_flag_combinations_fail_fast_with_exit_2() {
    let dir = tmpdir("flags");
    let cases: &[(&[&str], &str)] = &[
        (&["serve", "--resume"], "--resume requires --state-dir"),
        (&["simulate", "--crash-at", "10"], "--crash-at requires --state-dir"),
        (&["simulate", "--batch-retries", "2"], "--batch-retries requires --scheme batch"),
        (&["serve", "--batch-window", "30"], "--batch-window requires --scheme batch"),
        (&["simulate", "--ch-artifact", "ch.bin"], "--ch-artifact requires --router ch"),
        (&["simulate", "--router", "dijkstra"], "unknown router: dijkstra"),
        (&["simulate", "--router", "ch", "--chaos-seed", "3"], "--router ch cannot follow traffic"),
        (&["simulate", "--disruptions", "cancels=2"], "--disruptions requires --chaos-seed"),
        (&["serve", "--report-every", "30"], "--report-every requires --report-out"),
        (&["serve", "--admission", "block", "--queue-capacity", "0"], "can never admit"),
        (&["serve", "--admission", "sometimes"], "unknown admission policy"),
        (&["serve", "--pace", "-3"], "--pace must be"),
        (&["serve", "--disruptions", "cancels=2"], "unknown flag --disruptions"),
        (&["simulate", "--totally-bogus"], "unknown flag --totally-bogus"),
        (&["simulate", "--failpoints", "wal-sync-fail=1"], "--failpoints requires --chaos-seed"),
        (&["serve", "--durability", "degrade"], "--durability requires --state-dir"),
        (&["serve", "--supervise"], "--supervise requires --state-dir"),
        (&["serve", "--supervise-backoff-ms", "10"], "--supervise-backoff-ms requires --supervise"),
        // Numeric flags never fall back to a default silently.
        (&["simulate", "--taxis", "abc"], "--taxis: cannot parse `abc`"),
        (&["simulate", "--requests", "1e3"], "--requests: cannot parse `1e3`"),
        (&["simulate", "--chaos-seed", "x"], "--chaos-seed: cannot parse `x`"),
        (&["simulate", "--requests"], "--requests needs a value"),
        // Dispatch is sequential only; the knob is gone, not ignored.
        (&["simulate", "--parallelism", "4"], "unknown flag --parallelism"),
        (&["serve", "--parallelism", "4"], "unknown flag --parallelism"),
        // Every subcommand checks its flags against its own table.
        (&["stats", "--hourz", "1"], "unknown flag --hourz for `mtshare stats`"),
        (&["partition", "--kapa", "3"], "unknown flag --kapa for `mtshare partition`"),
        (&["trace", "f.csv", "--bogus"], "unknown flag --bogus for `mtshare trace`"),
        (&["stats", "--scheme", "t-share"], "unknown flag --scheme for `mtshare stats`"),
        (&["stats", "--hours", "two"], "--hours: cannot parse `two`"),
        (&["partition", "--historical", "many"], "--historical: cannot parse `many`"),
    ];
    for (argv, needle) in cases {
        let out = mtshare(&dir, argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "`{argv:?}` should exit 2: {stderr}");
        assert!(stderr.contains(needle), "`{argv:?}` stderr missing `{needle}`: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    let dir = tmpdir("help");
    for argv in [&["--help"][..], &["-h"], &["simulate", "--help"]] {
        let out = mtshare(&dir, argv);
        assert_eq!(out.status.code(), Some(0), "`{argv:?}`");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage:") && stdout.contains("mtshare serve"), "{stdout}");
        // Accepted long before they were listed: the usage text is now
        // generated from the tables the flag check reads.
        for flag in ["[--rho X]", "[--kappa N]", "[--historical N]", "[--taxis N]", "[--rows N]"] {
            assert!(stdout.contains(flag), "`{flag}` missing from {stdout}");
        }
        assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
    }
}

// --------------------------------------------------------- in-process --

struct World {
    graph: Arc<RoadNetwork>,
    scenario: Scenario,
}

fn world() -> World {
    let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
    let cache = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::peak(8));
    World { graph, scenario }
}

struct ServeRun {
    outcome: ServeOutcome,
    obs: Obs,
}

/// Builds a streaming engine over `w`'s fleet with an emptied request
/// store, exactly as `mtshare serve` does.
fn build_engine(
    w: &World,
    batch: Option<BatchConfig>,
    persist: Option<PersistConfig>,
) -> (SimEngine, Box<dyn DispatchScheme>, Obs) {
    let empty = Scenario {
        config: w.scenario.config.clone(),
        historical: w.scenario.historical.clone(),
        requests: Vec::new(),
        taxis: w.scenario.taxis.clone(),
    };
    let kind = if batch.is_some() { SchemeKind::MtShareBatch } else { SchemeKind::MtShare };
    let ctx = build_context(&w.graph, &w.scenario.historical, 12, PartitionStrategy::Bipartite);
    let mut scheme = kind.build(&w.graph, w.scenario.taxis.len(), Some(ctx), None);
    let obs = Obs::enabled();
    let cfg = SimConfig { batch, persist, ..SimConfig::default() };
    let sim = Simulator::new(w.graph.clone(), PathCache::new(w.graph.clone()), &empty, cfg)
        .with_obs(obs.clone())
        .with_streaming();
    let engine = SimEngine::new(sim, scheme.as_mut());
    (engine, scheme, obs)
}

fn run_serve(
    w: &World,
    feed_text: &str,
    queue: AdmissionQueue,
    pace: Pace,
    batch: Option<BatchConfig>,
    persist: Option<PersistConfig>,
) -> ServeRun {
    let (engine, mut scheme, obs) = build_engine(w, batch, persist);
    let opts = ServeOptions {
        queue,
        pace,
        report_every_s: None,
        n_nodes: w.graph.node_count() as u32,
        heartbeat: None,
        feed_faults: None,
    };
    let outcome =
        serve(engine, scheme.as_mut(), Cursor::new(feed_text.to_string()), opts, &obs, None)
            .expect("serve run");
    ServeRun { outcome, obs }
}

fn finished(run: &ServeRun) -> &SimReport {
    match &run.outcome {
        ServeOutcome::Finished(r) => r,
        ServeOutcome::Crashed { step } => panic!("unexpected crash at step {step}"),
        ServeOutcome::StorageFault { step } => panic!("unexpected storage fault at step {step}"),
    }
}

const LOSSLESS: AdmissionQueue = AdmissionQueue { capacity: 1024, policy: AdmissionPolicy::Block };

/// Steps `engine` until it stops progressing, auditing after every step.
fn audited_steps(
    engine: &mut SimEngine,
    auditor: &mut Auditor,
    scheme: &mut dyn DispatchScheme,
) -> StepOutcome {
    loop {
        match engine.step(scheme) {
            StepOutcome::Progressed => auditor.observe(&engine.view(scheme)),
            stop => return stop,
        }
    }
}

/// `serve`'s feed loop (admission, ingestion, drain) driven by hand under
/// the auditor: the report and the auditor's findings.
fn audited_serve(
    w: &World,
    feed_text: &str,
    queue: AdmissionQueue,
    pace: Pace,
) -> (SimReport, Vec<String>) {
    let (mut engine, mut scheme, _) = build_engine(w, None, None);
    let scheme = scheme.as_mut();
    let mut auditor = Auditor::new(&w.graph, scheme);
    auditor.observe(&engine.view(scheme));
    let n_nodes = w.graph.node_count() as u32;
    let mut reader = FeedReader::new(Cursor::new(feed_text.to_string()), pace, n_nodes, 0);
    while let Some(burst) = reader.next_burst().expect("clean feed") {
        let admission = queue.admit_burst(burst.len());
        for (entry, decision) in burst.into_iter().zip(admission.decisions) {
            match decision {
                None => engine.ingest(entry),
                Some(reason) => engine.ingest_doomed(entry, reason),
            };
        }
        assert_eq!(audited_steps(&mut engine, &mut auditor, scheme), StepOutcome::Idle);
    }
    for (entry, reason) in reader.leftovers().expect("clean feed") {
        engine.ingest_doomed(entry, reason);
    }
    engine.close_stream();
    assert_eq!(audited_steps(&mut engine, &mut auditor, scheme), StepOutcome::Done);
    auditor.close(&engine.view(scheme));
    let report = engine.finalize(scheme).expect("no persistence, no storage faults");
    let findings = auditor.finish(&report);
    (report, findings)
}

#[test]
fn shed_under_burst_is_deterministic() {
    let w = world();
    let feed = record_feed(&w.scenario.requests);
    let queue = AdmissionQueue { capacity: 4, policy: AdmissionPolicy::ShedOldest };
    let pace = Pace::Virtual { quantum_s: 120.0 };
    let a = run_serve(&w, &feed, queue, pace, None, None);
    let b = run_serve(&w, &feed, queue, pace, None, None);
    let shed = a.obs.reject_count(RejectReason::QueueShed);
    assert!(shed > 0, "bursts of 120 s against capacity 4 must shed something");
    assert_eq!(shed, b.obs.reject_count(RejectReason::QueueShed));
    assert_eq!(a.obs.event_counts(), b.obs.event_counts());
    let (ra, rb) = (finished(&a), finished(&b));
    assert_eq!(ra.served, rb.served);
    assert_eq!(ra.rejected, rb.rejected);
    assert_eq!(ra.total_passenger_fares, rb.total_passenger_fares);
    // The same feed under the auditor: streamed direct costs are priced
    // like Dijkstra and every shed entry ends in exactly one terminal state.
    let (audited, findings) = audited_serve(&w, &feed, queue, pace);
    assert!(findings.is_empty(), "{findings:#?}");
    assert_eq!(audited.served_records, ra.served_records);
    assert_eq!((audited.served, audited.rejected), (ra.served, ra.rejected));
}

#[test]
fn zero_capacity_queue_rejects_every_request() {
    let w = world();
    let feed = record_feed(&w.scenario.requests);
    let queue = AdmissionQueue { capacity: 0, policy: AdmissionPolicy::RejectNew };
    let run = run_serve(&w, &feed, queue, Pace::Free, None, None);
    let n = w.scenario.requests.len();
    assert_eq!(run.obs.reject_count(RejectReason::QueueRejected), n as u64);
    let report = finished(&run);
    assert_eq!(report.served, 0);
    assert_eq!(report.rejected, n);
}

#[test]
fn drain_command_with_an_open_batch_window() {
    let w = world();
    // Split the feed mid-stream: the drain command lands while the
    // rolling batch window still holds undecided members; the post-
    // drain entries must surface as deterministic `drain_rejected`.
    let mid = w.scenario.requests.len() / 2;
    let mut feed = record_feed(&w.scenario.requests[..mid]);
    feed.push_str("{\"cmd\":\"drain\"}\n");
    feed.push_str(&record_feed(&w.scenario.requests[mid..]));
    let batch = Some(BatchConfig::default());
    let run = run_serve(&w, &feed, LOSSLESS, Pace::Free, batch, None);
    let report = finished(&run);
    let n = w.scenario.requests.len();
    assert_eq!(report.n_requests, n, "post-drain entries still enter the trace");
    assert_eq!(
        run.obs.reject_count(RejectReason::DrainRejected),
        (n - mid) as u64,
        "everything after the drain command is drain-rejected"
    );
    assert!(report.served > 0, "the open window must still flush and serve");
    assert_eq!(report.served + report.rejected, n, "no request may leak from the window");
}

#[test]
fn drain_while_resuming_completes_and_matches() {
    let w = world();
    let feed = record_feed(&w.scenario.requests);
    let pace = Pace::Virtual { quantum_s: 60.0 };

    // Baseline probe: drive the loop by hand to learn where the drain
    // phase sits in the step sequence (serve() hides the counter).
    let (mut engine, mut scheme, base_obs) = build_engine(&w, None, None);
    let mut reader =
        FeedReader::new(Cursor::new(feed.clone()), pace, w.graph.node_count() as u32, 0);
    while let Some(burst) = reader.next_burst().unwrap() {
        for entry in burst {
            engine.ingest(entry);
        }
        assert!(matches!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Idle));
    }
    engine.close_stream();
    let close_step = engine.step_count();
    assert!(matches!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Done));
    let done_step = engine.step_count();
    assert!(done_step > close_step, "this workload must leave in-flight work to drain");
    let full = engine.finalize(scheme.as_mut()).expect("no persistence, no storage faults");

    let dir = tmpdir("drain-resume");
    let state = dir.join("state");
    let mut persist = PersistConfig::new(state.to_str().unwrap());
    persist.checkpoint_every = 25;
    // Aim the crash squarely inside the post-close drain phase.
    persist.crash_at = Some(CrashPoint::return_at(close_step + (done_step - close_step) / 2));
    let crashed = run_serve(&w, &feed, LOSSLESS, pace, None, Some(persist));
    let step = match crashed.outcome {
        ServeOutcome::Crashed { step } => step,
        _ => panic!("crash point never fired"),
    };
    assert!(step >= close_step, "crash fell before the drain phase");

    let mut resume = PersistConfig::new(state.to_str().unwrap());
    resume.resume = true;
    let resumed = run_serve(&w, &feed, LOSSLESS, pace, None, Some(resume));
    let report = finished(&resumed);
    assert_eq!(report.served, full.served);
    assert_eq!(report.rejected, full.rejected);
    assert_eq!(report.total_passenger_fares, full.total_passenger_fares);
    assert_eq!(resumed.obs.event_counts(), base_obs.event_counts());
}
