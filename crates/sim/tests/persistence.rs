//! Crash-consistent warm restart: kill a run at an arbitrary step,
//! resume from the state directory, and require the concatenation of the
//! two traces to be byte-identical to an uninterrupted run — across
//! every dispatch scheme — and the resumed run to be as warm as the
//! uninterrupted one (its riders' oracle pins are re-held on restore).

use mtshare_chaos::{ChaosConfig, CrashPoint};
use mtshare_core::{MobilityContext, PartitionStrategy};
use mtshare_model::{DispatchOutcome, DispatchScheme, RideRequest, Taxi, TaxiId, Time, World};
use mtshare_obs::{json, MemorySink, Obs};
use mtshare_road::{grid_city, GridCityConfig, RoadNetwork};
use mtshare_routing::PathCache;
use mtshare_sim::{
    audited_run, build_context, PersistConfig, RunOutcome, Scenario, ScenarioConfig, SchemeKind,
    SimConfig, SimReport, Simulator,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A scenario plus everything needed to instantiate identical fresh
/// simulators for it repeatedly.
struct TestWorld {
    graph: Arc<RoadNetwork>,
    scenario: Scenario,
    kind: SchemeKind,
    ctx: Option<Arc<MobilityContext>>,
}

impl TestWorld {
    fn build(kind: SchemeKind) -> Self {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::nonpeak(10));
        let ctx = kind
            .needs_context()
            .then(|| build_context(&graph, &scenario.historical, 12, PartitionStrategy::Bipartite));
        Self { graph, scenario, kind, ctx }
    }

    /// Runs a fresh simulator over the shared scenario, capturing the
    /// canonical JSONL trace.
    fn run(&self, cfg: SimConfig) -> (RunOutcome, String) {
        let (out, trace, _) = self.run_scheme(cfg, self.scheme().as_mut());
        (out, trace)
    }

    /// [`TestWorld::run`] under the auditor: the report, the auditor's
    /// findings and the trace.
    fn run_audited(&self, cfg: SimConfig) -> (SimReport, Vec<String>, String) {
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        let cache = PathCache::new(self.graph.clone());
        let sim = Simulator::new(self.graph.clone(), cache, &self.scenario, cfg).with_obs(obs);
        let (report, findings) = audited_run(sim, self.scheme().as_mut());
        let trace = buf.borrow().clone();
        (report, findings, trace)
    }

    fn scheme(&self) -> Box<dyn DispatchScheme> {
        self.kind.build(&self.graph, self.scenario.taxis.len(), self.ctx.clone(), None)
    }

    fn run_scheme(
        &self,
        cfg: SimConfig,
        scheme: &mut dyn DispatchScheme,
    ) -> (RunOutcome, String, Obs) {
        let obs = Obs::enabled();
        let (sink, buf) = MemorySink::new();
        obs.add_sink(Box::new(sink));
        let cache = PathCache::new(self.graph.clone());
        let out = Simulator::new(self.graph.clone(), cache, &self.scenario, cfg)
            .with_obs(obs.clone())
            .run_to_outcome(scheme);
        let trace = buf.borrow().clone();
        (out, trace, obs)
    }
}

/// Chaos + the invariant sweep armed, so recovery replays through
/// breakdowns, cancels, traffic shifts and validation steps too.
fn base_cfg() -> SimConfig {
    SimConfig {
        chaos: Some(ChaosConfig::with_seed(7)),
        validate_every: Some(60.0),
        ..SimConfig::default()
    }
}

/// Fresh per-test state directory (the workspace target dir, so `cargo
/// clean` collects leftovers from killed test processes).
fn state_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("persist-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fresh_persist(dir: &Path, crash_step: u64) -> PersistConfig {
    PersistConfig {
        state_dir: dir.to_path_buf(),
        checkpoint_every: 16,
        resume: false,
        crash_at: Some(CrashPoint::return_at(crash_step)),
        ..PersistConfig::new(dir)
    }
}

fn resume_persist(dir: &Path) -> PersistConfig {
    PersistConfig {
        state_dir: dir.to_path_buf(),
        checkpoint_every: 16,
        resume: true,
        crash_at: None,
        ..PersistConfig::new(dir)
    }
}

/// Kills a run at `crash_step`, resumes it under the auditor, and checks
/// the concatenated trace (and the final report) against an uninterrupted
/// baseline run. The audit covers the resumed steps and the whole run's
/// accounting, across the crash boundary.
fn crash_and_resume(world: &TestWorld, name: &str) {
    let (base_out, base_trace) = world.run(base_cfg());
    let RunOutcome::Finished(base_report) = base_out else {
        panic!("baseline run must finish");
    };

    let dir = state_dir(name);
    let mut cfg = base_cfg();
    cfg.persist = Some(fresh_persist(&dir, 57));
    let (crash_out, head) = world.run(cfg);
    let RunOutcome::Crashed { step } = crash_out else {
        panic!("crash run must die at the planned point");
    };
    assert_eq!(step, 57);

    let mut cfg = base_cfg();
    cfg.persist = Some(resume_persist(&dir));
    let (report, findings, tail) = world.run_audited(cfg);
    assert!(findings.is_empty(), "{name}: {findings:#?}");

    assert_eq!(
        format!("{head}{tail}"),
        base_trace,
        "concatenated crash+resume trace must be byte-identical ({name})"
    );
    assert_eq!(report.served, base_report.served, "{name}");
    assert_eq!(report.rejected, base_report.rejected, "{name}");
    assert_eq!(report.cancelled, base_report.cancelled, "{name}");
    assert_eq!(report.redispatched, base_report.redispatched, "{name}");
    assert_eq!(report.invariant_violations, 0, "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_resume_matrix_over_all_schemes() {
    for (kind, name) in [
        (SchemeKind::NoSharing, "no-sharing"),
        (SchemeKind::TShare, "t-share"),
        (SchemeKind::PGreedyDp, "pgreedy"),
        (SchemeKind::MtShare, "mt-share"),
    ] {
        let world = TestWorld::build(kind);
        crash_and_resume(&world, name);
    }
}

#[test]
fn torn_wal_tail_is_truncated_on_recovery() {
    let world = TestWorld::build(SchemeKind::TShare);
    let (_, base_trace) = world.run(base_cfg());

    let dir = state_dir("torn-tail");
    let mut cfg = base_cfg();
    cfg.persist = Some(fresh_persist(&dir, 57));
    let (_, head) = world.run(cfg);

    // A crash torn mid-append leaves a partial record at the tail; the
    // recovery scan must drop it and resume from the last full record.
    use std::io::Write;
    let wal = dir.join("wal.mtwal");
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0xde, 0xad, 0xbe]).unwrap();
    drop(f);

    let mut cfg = base_cfg();
    cfg.persist = Some(resume_persist(&dir));
    let (out, tail) = world.run(cfg);
    assert!(matches!(out, RunOutcome::Finished(_)));
    assert_eq!(format!("{head}{tail}"), base_trace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_snapshot_falls_back_to_previous_checkpoint() {
    let world = TestWorld::build(SchemeKind::MtShare);
    let (_, base_trace) = world.run(base_cfg());

    let dir = state_dir("corrupt-snap");
    let mut cfg = base_cfg();
    cfg.persist = Some(fresh_persist(&dir, 57));
    let (_, head) = world.run(cfg);

    // Flip a payload byte in the newest snapshot: its CRC fails, and
    // recovery must fall back to the previous valid one and replay a
    // longer WAL suffix — still byte-identical.
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "mtsnap"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "expected multiple checkpoints, got {snaps:?}");
    let newest = snaps.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(newest, bytes).unwrap();

    let mut cfg = base_cfg();
    cfg.persist = Some(resume_persist(&dir));
    let (out, tail) = world.run(cfg);
    assert!(matches!(out, RunOutcome::Finished(_)));
    assert_eq!(format!("{head}{tail}"), base_trace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_meta_events_stay_out_of_the_canonical_trace() {
    let world = TestWorld::build(SchemeKind::NoSharing);
    let dir = state_dir("meta-events");

    let obs = Obs::enabled();
    let (sink, canonical) = MemorySink::new();
    let (meta_sink, meta) = MemorySink::new_with_meta();
    obs.add_sink(Box::new(sink));
    obs.add_sink(Box::new(meta_sink));
    let cache = PathCache::new(world.graph.clone());
    let mut scheme =
        world.kind.build(&world.graph, world.scenario.taxis.len(), world.ctx.clone(), None);
    let mut cfg = base_cfg();
    cfg.persist = Some(PersistConfig {
        state_dir: dir.clone(),
        checkpoint_every: 16,
        resume: false,
        crash_at: None,
        ..PersistConfig::new(&dir)
    });
    let out = Simulator::new(world.graph.clone(), cache, &world.scenario, cfg)
        .with_obs(obs)
        .run_to_outcome(scheme.as_mut());
    assert!(matches!(out, RunOutcome::Finished(_)));

    let canonical = canonical.borrow().clone();
    let meta = meta.borrow().clone();
    assert!(!canonical.contains(r#""ev":"checkpoint""#), "meta leaked into canonical trace");
    assert!(meta.contains(r#""ev":"checkpoint""#), "meta sink must see checkpoints:\n{meta}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[should_panic(expected = "snapshot was taken under scheme")]
fn resuming_under_a_different_scheme_refuses() {
    let mut world = TestWorld::build(SchemeKind::NoSharing);
    let dir = state_dir("wrong-scheme");
    let mut cfg = base_cfg();
    cfg.persist = Some(fresh_persist(&dir, 57));
    let _ = world.run(cfg);

    // Same scenario, different dispatcher: the manifest check must trip.
    world.kind = SchemeKind::TShare;
    world.ctx = None;
    let mut cfg = base_cfg();
    cfg.persist = Some(resume_persist(&dir));
    let _ = world.run(cfg);
}

/// Forwards everything the loop and the checkpoints call and checks the
/// pin accounting at every dispatch.
struct OracleTap {
    inner: Box<dyn DispatchScheme>,
}

impl OracleTap {
    fn audit(&self, world: &World<'_>) {
        let s = world.oracle.stats();
        assert_eq!(
            s.pin_computes,
            s.evictions + world.oracle.pinned_count() as u64,
            "one vector computation per distinct pin: {s:?}"
        );
    }
}

impl DispatchScheme for OracleTap {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn install(&mut self, world: &World<'_>) {
        self.inner.install(world)
    }
    fn set_obs(&mut self, obs: Obs) {
        self.inner.set_obs(obs)
    }
    fn dispatch(&mut self, req: &RideRequest, now: Time, world: &World<'_>) -> DispatchOutcome {
        self.audit(world);
        self.inner.dispatch(req, now, world)
    }
    fn dispatch_offline(
        &mut self,
        req: &RideRequest,
        encountered_by: TaxiId,
        now: Time,
        world: &World<'_>,
    ) -> DispatchOutcome {
        self.audit(world);
        self.inner.dispatch_offline(req, encountered_by, now, world)
    }
    fn after_assign(&mut self, taxi: &Taxi, world: &World<'_>) {
        self.inner.after_assign(taxi, world)
    }
    fn on_taxi_progress(&mut self, taxi: &Taxi, now: Time, world: &World<'_>) {
        self.inner.on_taxi_progress(taxi, now, world)
    }
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, bytes: &[u8], world: &World<'_>) -> Result<(), String> {
        self.inner.restore_state(bytes, world)
    }
}

#[test]
fn resumed_run_rebuilds_the_oracle_pins_of_riders_in_flight() {
    // No chaos: every leg an uninterrupted run prices ends at a pinned
    // endpoint (`tests/lazy_leg_costs.rs`), so any oracle search after a
    // resume means the restore lost the pins of riders already assigned
    // or on board.
    let world = TestWorld::build(SchemeKind::MtShare);
    // The run's `profiling.oracle` summary block.
    let tapped = |cfg: SimConfig| {
        let mut tap = OracleTap { inner: world.scheme() };
        let (out, trace, obs) = world.run_scheme(cfg, &mut tap);
        let summary = json::parse(&obs.summary_json().expect("enabled")).unwrap();
        let oracle = summary.get("profiling").and_then(|p| p.get("oracle")).cloned().unwrap();
        let count = move |name: &str| oracle.get(name).and_then(|n| n.as_num()).unwrap() as u64;
        (out, trace, count)
    };

    let (out, base_trace, oracle) = tapped(SimConfig::default());
    assert!(matches!(out, RunOutcome::Finished(_)));
    assert!(oracle("vector_hits") > 0, "scenario must exercise the dispatcher");
    assert_eq!(oracle("searches"), 0, "baseline");

    let dir = state_dir("resume-pins");
    let cfg = SimConfig { persist: Some(fresh_persist(&dir, 57)), ..SimConfig::default() };
    let (out, head, _) = tapped(cfg);
    assert!(matches!(out, RunOutcome::Crashed { step: 57 }), "{out:?}");

    let cfg = SimConfig { persist: Some(resume_persist(&dir)), ..SimConfig::default() };
    let (out, tail, oracle) = tapped(cfg);
    assert!(matches!(out, RunOutcome::Finished(_)));
    assert_eq!(format!("{head}{tail}"), base_trace);
    assert!(oracle("vector_hits") > 0, "the resumed run must still dispatch");
    assert_eq!(oracle("searches"), 0, "a leg into a held rider's stop fell through to a search");
    // Pinned at the end is `pin_computes - evictions`: every hold is
    // released by the end of the run.
    assert_eq!(oracle("pin_computes"), oracle("evictions"));
    let _ = std::fs::remove_dir_all(&dir);
}
