//! I/O torture harness.
//!
//! Three layers of storage-fault coverage:
//!
//! 1. **Kill-at-every-boundary sweep**: a small scenario is killed at
//!    *every* step boundary in turn and resumed; the concatenation of
//!    the two traces must be byte-identical to the uninterrupted run at
//!    each of them — not just at a few hand-picked steps.
//! 2. **Deterministic failpoints**: exact fault schedules (ENOSPC, lost
//!    fsync) are injected into the WAL/snapshot paths and must end in
//!    the documented policy outcome — a typed `StorageFault` stop under
//!    strict durability (resumable), or quarantine-and-continue under
//!    degrade (canonical trace unchanged). Never a panic.
//! 3. **Feed faults end-to-end**: an oversized feed line and a real
//!    mid-line TCP disconnect must exit the `mtshare serve` process
//!    with the typed feed-fault code, and a WAL wedged by a failpoint
//!    during the graceful drain must not lose the drain.

use mt_share::chaos::{FailpointPlan, IoFault, IoOp};
use mt_share::core::PartitionStrategy;
use mt_share::model::DispatchScheme;
use mt_share::obs::{MemorySink, Obs};
use mt_share::road::{grid_city, GridCityConfig, RoadNetwork};
use mt_share::routing::PathCache;
use mt_share::serve::{
    record_feed, serve, AdmissionPolicy, AdmissionQueue, FeedReader, Pace, ServeOptions,
    ServeOutcome,
};
use mt_share::sim::{
    build_context, Durability, PersistConfig, RunOutcome, Scenario, ScenarioConfig, SchemeKind,
    SimConfig, SimEngine, SimReport, Simulator, StepOutcome,
};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("iotort-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ----------------------------------------------------------- in-process --

struct World {
    graph: Arc<RoadNetwork>,
    scenario: Scenario,
    kind: SchemeKind,
}

impl World {
    /// Small fixed workload: big enough to cross several checkpoint
    /// boundaries, small enough that a per-step sweep stays cheap in
    /// debug builds.
    fn build(kind: SchemeKind, n_requests: usize) -> Self {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let mut cfg = ScenarioConfig::nonpeak(8);
        cfg.n_requests = n_requests;
        let scenario = Scenario::generate(graph.clone(), &cache, cfg);
        Self { graph, scenario, kind }
    }

    fn scheme(&self) -> Box<dyn DispatchScheme> {
        let ctx = self.kind.needs_context().then(|| {
            build_context(&self.graph, &self.scenario.historical, 12, PartitionStrategy::Bipartite)
        });
        self.kind.build(&self.graph, self.scenario.taxis.len(), ctx, None)
    }

    /// One-shot run capturing the canonical JSONL trace.
    fn run(&self, persist: Option<PersistConfig>) -> (RunOutcome, String) {
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        let mut scheme = self.scheme();
        let cfg = SimConfig { persist, ..SimConfig::default() };
        let out = Simulator::new(
            self.graph.clone(),
            PathCache::new(self.graph.clone()),
            &self.scenario,
            cfg,
        )
        .with_obs(obs)
        .run_to_outcome(scheme.as_mut());
        let trace = buf.borrow().clone();
        (out, trace)
    }
}

fn fresh(dir: &Path) -> PersistConfig {
    PersistConfig { checkpoint_every: 7, ..PersistConfig::new(dir) }
}

fn resume(dir: &Path) -> PersistConfig {
    PersistConfig { checkpoint_every: 7, resume: true, ..PersistConfig::new(dir) }
}

/// The quarantined sibling a degrade-mode run leaves behind
/// (`<state>.quarantine-1` for a fresh test directory).
fn quarantine_of(state: &Path) -> PathBuf {
    let mut name = state.file_name().unwrap().to_os_string();
    name.push(".quarantine-1");
    state.with_file_name(name)
}

#[test]
fn kill_at_every_step_boundary_resumes_byte_identically() {
    let w = World::build(SchemeKind::NoSharing, 25);
    let (base_out, base_trace) = w.run(None);
    let RunOutcome::Finished(_) = base_out else { panic!("baseline must finish") };

    let root = tmpdir("sweep");
    let mut step = 1u64;
    loop {
        assert!(step <= 600, "scenario unexpectedly long for a per-step sweep");
        let dir = root.join(format!("s{step}"));
        let mut pc = fresh(&dir);
        pc.crash_at = Some(mt_share::chaos::CrashPoint::return_at(step));
        let (out, head) = w.run(Some(pc));
        match out {
            // The crash step lies beyond the end of the run: the sweep
            // has covered every boundary.
            RunOutcome::Finished(_) => {
                assert_eq!(head, base_trace, "persisted run must trace identically");
                break;
            }
            RunOutcome::Crashed { step: died_at } => {
                assert_eq!(died_at, step);
                let (out, tail) = w.run(Some(resume(&dir)));
                let RunOutcome::Finished(_) = out else {
                    panic!("resume after kill at step {step} must finish, got {out:?}")
                };
                assert_eq!(
                    format!("{head}{tail}"),
                    base_trace,
                    "kill at step {step}: concatenated trace diverged"
                );
            }
            RunOutcome::StorageFault { step } => panic!("unexpected storage fault at {step}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
        step += 1;
    }
    assert!(step > 10, "sweep must cover a meaningful number of boundaries");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn checkpoint_boundary_faults_stop_typed_and_resume_byte_identically() {
    // Both checkpoint-path faults: the WAL sync that precedes the
    // snapshot, and the snapshot write itself. Call 1 is the step-0
    // checkpoint, call 2 the first periodic one — a clean boundary, so
    // strict durability must stop with nothing half-traced.
    let cases: &[(&str, IoOp, IoFault)] = &[
        ("wal-sync", IoOp::WalSync, IoFault::SyncFailed),
        ("snap-write", IoOp::SnapshotWrite, IoFault::NoSpace),
    ];
    let w = World::build(SchemeKind::MtShare, 25);
    let (base_out, base_trace) = w.run(None);
    let RunOutcome::Finished(base_report) = base_out else { panic!("baseline must finish") };

    for (name, op, fault) in cases {
        let dir = tmpdir(&format!("boundary-{name}"));
        let mut pc = fresh(&dir);
        pc.fault_injector = Some(Rc::new(FailpointPlan::exact(&[(*op, 2, *fault)])));
        let (out, head) = w.run(Some(pc));
        let RunOutcome::StorageFault { step } = out else {
            panic!("{name}: strict durability must stop on the fault, got {out:?}")
        };
        assert_eq!(step, 7, "{name}: the fault fires at the first periodic checkpoint");

        let (out, tail) = w.run(Some(resume(&dir)));
        let RunOutcome::Finished(report) = out else { panic!("{name}: resume must finish") };
        assert_eq!(format!("{head}{tail}"), base_trace, "{name}: boundary fault must be seamless");
        assert_eq!(report.served, base_report.served, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn midstep_append_fault_strict_stops_and_resume_recovers_the_report() {
    // A WAL-append fault lands *inside* a step, so the head trace may
    // overlap the tail by at most that one step — the resume contract
    // here is the final report, not byte-identity (see DESIGN.md).
    let w = World::build(SchemeKind::MtShare, 25);
    let (base_out, _) = w.run(None);
    let RunOutcome::Finished(base_report) = base_out else { panic!("baseline must finish") };

    let dir = tmpdir("midstep-strict");
    let mut pc = fresh(&dir);
    pc.fault_injector =
        Some(Rc::new(FailpointPlan::exact(&[(IoOp::WalAppend, 11, IoFault::NoSpace)])));
    let (out, _) = w.run(Some(pc));
    let RunOutcome::StorageFault { step } = out else {
        panic!("strict durability must stop on ENOSPC, got {out:?}")
    };
    assert_eq!(step, 11, "the fault hits while step 11's record is being appended");

    let (out, _) = w.run(Some(resume(&dir)));
    let RunOutcome::Finished(report) = out else { panic!("resume must finish") };
    assert_eq!(report.served, base_report.served);
    assert_eq!(report.rejected, base_report.rejected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degrade_mode_quarantines_and_finishes_with_the_canonical_trace() {
    let w = World::build(SchemeKind::MtShare, 25);
    let (base_out, base_trace) = w.run(None);
    let RunOutcome::Finished(base_report) = base_out else { panic!("baseline must finish") };

    let dir = tmpdir("degrade").join("state");
    let mut pc = fresh(&dir);
    pc.durability = Durability::Degrade;
    pc.fault_injector =
        Some(Rc::new(FailpointPlan::exact(&[(IoOp::WalAppend, 11, IoFault::NoSpace)])));
    let (out, trace) = w.run(Some(pc));
    let RunOutcome::Finished(report) = out else {
        panic!("degrade mode must ride out the fault, got {out:?}")
    };
    assert_eq!(trace, base_trace, "degrade must not perturb the canonical trace");
    assert_eq!(report.served, base_report.served);
    assert!(!dir.exists(), "the faulted state dir must have been moved aside");
    assert!(quarantine_of(&dir).exists(), "the bad generation must be quarantined, not deleted");
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

// ------------------------------------------------------------ serve loop --

fn serve_world() -> World {
    World::build(SchemeKind::MtShare, 25)
}

fn build_engine(
    w: &World,
    persist: Option<PersistConfig>,
) -> (SimEngine, Box<dyn DispatchScheme>, Obs, Rc<std::cell::RefCell<String>>) {
    let empty = Scenario {
        config: w.scenario.config.clone(),
        historical: w.scenario.historical.clone(),
        requests: Vec::new(),
        taxis: w.scenario.taxis.clone(),
    };
    let mut scheme = w.scheme();
    let obs = Obs::enabled();
    let (sink, buf) = MemorySink::new();
    obs.add_sink(Box::new(sink));
    let cfg = SimConfig { persist, ..SimConfig::default() };
    let sim = Simulator::new(w.graph.clone(), PathCache::new(w.graph.clone()), &empty, cfg)
        .with_obs(obs.clone())
        .with_streaming();
    let engine = SimEngine::new(sim, scheme.as_mut());
    (engine, scheme, obs, buf)
}

fn serve_opts(w: &World, pace: Pace) -> ServeOptions {
    ServeOptions {
        queue: AdmissionQueue { capacity: 1024, policy: AdmissionPolicy::Block },
        pace,
        report_every_s: None,
        n_nodes: w.graph.node_count() as u32,
        heartbeat: None,
        feed_faults: None,
    }
}

fn finished(outcome: ServeOutcome) -> SimReport {
    match outcome {
        ServeOutcome::Finished(r) => *r,
        ServeOutcome::Crashed { step } => panic!("unexpected crash at step {step}"),
        ServeOutcome::StorageFault { step } => panic!("unexpected storage fault at step {step}"),
    }
}

#[test]
fn drain_continues_while_wal_is_wedged_under_degrade() {
    let w = serve_world();
    let feed = record_feed(&w.scenario.requests);
    let pace = Pace::Virtual { quantum_s: 60.0 };

    // Probe where the post-EOF drain phase sits in the step sequence.
    let (mut engine, mut scheme, _, _) = build_engine(&w, None);
    let mut reader =
        FeedReader::new(Cursor::new(feed.clone()), pace, w.graph.node_count() as u32, 0);
    while let Some(burst) = reader.next_burst().unwrap() {
        for e in burst {
            engine.ingest(e);
        }
        assert!(matches!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Idle));
    }
    engine.close_stream();
    let close_step = engine.step_count();
    assert!(matches!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Done));
    let done_step = engine.step_count();
    assert!(done_step > close_step, "workload must leave in-flight work to drain");
    let base_report = engine.finalize(scheme.as_mut()).expect("no persistence, no storage faults");

    // Fault-free serve baseline trace.
    let (engine, mut scheme, _, base_buf) = build_engine(&w, None);
    finished(
        serve(
            engine,
            scheme.as_mut(),
            Cursor::new(feed.clone()),
            serve_opts(&w, pace),
            &Obs::disabled(),
            None,
        )
        .expect("baseline serve"),
    );
    let base_trace = base_buf.borrow().clone();

    // Wedge the WAL mid-drain: ENOSPC on the append of a step squarely
    // inside the drain phase, degrade policy. The drain must complete
    // and the canonical trace must be unchanged.
    let dir = tmpdir("drain-wedged").join("state");
    let mid_drain = close_step + (done_step - close_step) / 2;
    let mut pc = fresh(&dir);
    pc.durability = Durability::Degrade;
    pc.fault_injector = Some(Rc::new(FailpointPlan::exact(&[(
        IoOp::WalAppend,
        mid_drain as u32,
        IoFault::NoSpace,
    )])));
    let (engine, mut scheme, _, buf) = build_engine(&w, Some(pc));
    let report = finished(
        serve(
            engine,
            scheme.as_mut(),
            Cursor::new(feed),
            serve_opts(&w, pace),
            &Obs::disabled(),
            None,
        )
        .expect("degrade serve must not error"),
    );
    assert_eq!(buf.borrow().clone(), base_trace, "drain trace diverged under the wedge");
    assert_eq!(report.served, base_report.served);
    assert_eq!(report.rejected, base_report.rejected);
    assert!(quarantine_of(&dir).exists(), "wedged WAL generation must be quarantined");
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

// ------------------------------------------------------------------ CLI --

const FEED_FAULT_EXIT: i32 = 43;
const STORAGE_FAULT_EXIT: i32 = 44;

fn mtshare(dir: &Path, argv: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .current_dir(dir)
        .args(argv)
        .output()
        .expect("spawn mtshare")
}

// `--chaos-seed` rides along on every run (not just the faulted one):
// the seed is part of the snapshot's configuration digest, so a resume
// must present the same seed even though `--failpoints` is dropped.
const SMALL_CITY: &[&str] =
    &["--rows", "8", "--cols", "8", "--taxis", "5", "--requests", "30", "--chaos-seed", "11"];

#[test]
fn cli_seeded_storage_fault_exits_typed_and_resumes_byte_identically() {
    let dir = tmpdir("cli-storage");
    let full = mtshare(&dir, &[&["simulate", "--trace-out", "full.jsonl"], SMALL_CITY].concat());
    assert!(full.status.success(), "{}", String::from_utf8_lossy(&full.stderr));

    let faulted = mtshare(
        &dir,
        &[
            &[
                "simulate",
                "--trace-out",
                "head.jsonl",
                "--state-dir",
                "state",
                "--checkpoint-every",
                "5",
                "--failpoints",
                "wal-sync-fail=1",
            ],
            SMALL_CITY,
        ]
        .concat(),
    );
    let stderr = String::from_utf8_lossy(&faulted.stderr);
    assert_eq!(
        faulted.status.code(),
        Some(STORAGE_FAULT_EXIT),
        "strict durability must exit {STORAGE_FAULT_EXIT}: {stderr}"
    );
    assert!(stderr.contains("storage fault"), "{stderr}");

    let resumed = mtshare(
        &dir,
        &[
            &[
                "simulate",
                "--trace-out",
                "tail.jsonl",
                "--state-dir",
                "state",
                "--checkpoint-every",
                "5",
                "--resume",
            ],
            SMALL_CITY,
        ]
        .concat(),
    );
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));

    let full_trace = std::fs::read(dir.join("full.jsonl")).unwrap();
    let mut joined = std::fs::read(dir.join("head.jsonl")).unwrap();
    joined.extend(std::fs::read(dir.join("tail.jsonl")).unwrap());
    assert_eq!(
        joined, full_trace,
        "checkpoint-boundary fault + resume must reproduce the uninterrupted trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_oversized_feed_line_exits_with_the_feed_fault_code() {
    let dir = tmpdir("cli-oversized");
    std::fs::write(dir.join("feed.jsonl"), "x".repeat(70 * 1024)).unwrap();
    let out = mtshare(&dir, &[&["serve", "--feed", "feed.jsonl"], SMALL_CITY].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(FEED_FAULT_EXIT), "{stderr}");
    assert!(stderr.contains("oversized_line"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_tcp_disconnect_mid_line_exits_with_the_feed_fault_code() {
    use std::io::Write;
    let dir = tmpdir("cli-tcp");
    let port = 41000 + (std::process::id() % 20000) as u16;
    let addr = format!("127.0.0.1:{port}");
    let child = std::process::Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .current_dir(&dir)
        .args([&["serve", "--feed", &format!("tcp:{addr}")], SMALL_CITY].concat())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mtshare serve");

    // The listener comes up after scenario construction; retry connect.
    let mut stream = None;
    for _ in 0..200 {
        match std::net::TcpStream::connect(&addr) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let mut stream = stream.expect("serve never opened its feed socket");
    // One complete entry, then half a line, then a hard disconnect.
    stream.write_all(b"{\"t\":1,\"origin\":0,\"dest\":5,\"deadline\":600}\n").unwrap();
    stream.write_all(b"{\"t\":2,\"origin\":1,\"de").unwrap();
    drop(stream);

    let out = child.wait_with_output().expect("wait for serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(FEED_FAULT_EXIT),
        "mid-line disconnect must exit {FEED_FAULT_EXIT}: {stderr}"
    );
    assert!(stderr.contains("feed fault"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
