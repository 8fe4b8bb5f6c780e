//! Reusable stepper API over the simulator for long-lived service mode.
//!
//! The one-shot runner owns its whole request store up front and runs
//! [`crate::Simulator::run_to_outcome`] to completion. A service process
//! instead interleaves *ingestion* (feed entries arriving over a socket
//! or stdin) with *stepping* (draining everything processable below the
//! ingestion watermark). [`SimEngine`] packages that protocol:
//!
//! 1. [`SimEngine::new`] runs begin-of-run setup (scheme install or
//!    snapshot restore, disruption seeding, step-0 checkpoint);
//! 2. the caller alternates [`SimEngine::ingest`] /
//!    [`SimEngine::run_until_idle`] as feed entries arrive;
//! 3. on drain, [`SimEngine::close_stream`] lifts the watermark to +∞,
//!    one final [`SimEngine::run_until_idle`] reaches
//!    [`StepOutcome::Done`], and [`SimEngine::finalize`] writes the
//!    final checkpoint and builds the [`SimReport`].
//!
//! Determinism contract: the engine's event trace depends only on the
//! ingested entries and their order — never on *when* they were
//! ingested. The watermark gate guarantees an event is processed only
//! once no future ingestion could precede it, so a recorded feed
//! replayed through the engine is byte-identical to the one-shot run.

use crate::audit::AuditView;
use crate::metrics::SimReport;
use crate::simulator::{Simulator, StepOutcome};
use mtshare_model::{DispatchScheme, Time};
use mtshare_obs::RejectReason;
use mtshare_road::NodeId;
use std::time::Instant;

/// One feed entry, before it is assigned a dense [`RequestId`]
/// (`mtshare_model::RequestId`) by ingestion. Mirrors the fields of a
/// ride request minus the id and the derived direct cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestEntry {
    /// Release (request) time in seconds of virtual time. Feeds must be
    /// non-decreasing in this field; the engine's watermark is the max
    /// release seen so far.
    pub release: Time,
    /// Pickup node.
    pub origin: NodeId,
    /// Drop-off node.
    pub destination: NodeId,
    /// Party size.
    pub passengers: u8,
    /// Latest acceptable drop-off time.
    pub deadline: Time,
    /// Offline request (matched by encounter, not dispatch).
    pub offline: bool,
}

/// Incremental driver over a streaming [`Simulator`].
///
/// Construct the simulator with [`Simulator::with_streaming`] over an
/// empty-request scenario; `SimEngine::new` takes it from there.
pub struct SimEngine {
    sim: Simulator,
    start: Instant,
}

impl SimEngine {
    /// Wraps `sim` and performs begin-of-run setup (or snapshot restore
    /// when the simulator is configured to resume).
    pub fn new(mut sim: Simulator, scheme: &mut dyn DispatchScheme) -> Self {
        let start = Instant::now();
        sim.begin(scheme);
        Self { sim, start }
    }

    /// Ingests one admitted feed entry; returns its dense request id
    /// index. Entries must arrive in non-decreasing `release` order.
    pub fn ingest(&mut self, entry: IngestEntry) -> u32 {
        self.sim.ingest_request(entry, None).0
    }

    /// Ingests an admission-rejected entry (shed, rejected at the queue,
    /// or past the drain point). It still consumes an arrival step at
    /// its release time, where `reason` is emitted as the rejection —
    /// this keeps the trace monotone and replay-stable.
    pub fn ingest_doomed(&mut self, entry: IngestEntry, reason: RejectReason) -> u32 {
        self.sim.ingest_request(entry, Some(reason)).0
    }

    /// Declares the feed exhausted: everything still pending becomes
    /// processable and the next [`SimEngine::run_until_idle`] runs to
    /// [`StepOutcome::Done`].
    pub fn close_stream(&mut self) {
        self.sim.close_stream();
    }

    /// Consumes one unit of sequential work, if any is processable.
    pub fn step(&mut self, scheme: &mut dyn DispatchScheme) -> StepOutcome {
        self.sim.step_once(scheme)
    }

    /// Steps until the engine goes idle (needs more feed), completes, or
    /// crashes; returns the terminal (non-`Progressed`) outcome.
    pub fn run_until_idle(&mut self, scheme: &mut dyn DispatchScheme) -> StepOutcome {
        loop {
            match self.sim.step_once(scheme) {
                StepOutcome::Progressed => {}
                terminal => return terminal,
            }
        }
    }

    /// Ends the run: writes the final checkpoint (when persistence is
    /// configured) and builds the report. Call only after
    /// [`SimEngine::run_until_idle`] returned [`StepOutcome::Done`].
    /// `Err(step)` means the final checkpoint hit a storage fault under
    /// strict durability: the WAL is synced, the sinks are flushed and
    /// the state dir is resumable, but no report exists.
    pub fn finalize(mut self, scheme: &mut dyn DispatchScheme) -> Result<SimReport, u64> {
        self.sim.final_checkpoint(&*scheme);
        if let Some(step) = self.sim.storage_fault() {
            return Err(step);
        }
        Ok(self.sim.finish(scheme, self.start.elapsed().as_secs_f64()))
    }

    /// Best-effort durability point for abnormal exits (feed faults):
    /// syncs the WAL and flushes the obs sinks so a typed exit is
    /// crash-consistent and a later `--resume` continues the trace.
    pub fn sync_persistence(&mut self) {
        self.sim.sync_persistence();
    }

    /// A read-only view of the world for the [`crate::audit::Auditor`].
    pub fn view<'a>(&'a self, scheme: &dyn DispatchScheme) -> AuditView<'a> {
        self.sim.view(scheme)
    }

    /// Latest simulation time processed.
    pub fn clock(&self) -> Time {
        self.sim.clock()
    }

    /// Sequential-work step counter (the WAL position).
    pub fn step_count(&self) -> u64 {
        self.sim.step_count()
    }

    /// Entries ingested so far, restored ones included — a resumed serve
    /// loop skips this many leading feed entries before continuing.
    pub fn ingested(&self) -> usize {
        self.sim.n_ingested()
    }

    /// Whether construction restored a snapshot instead of starting
    /// fresh.
    pub fn resumed(&self) -> bool {
        self.sim.was_resumed()
    }

    /// Whether the engine is still replaying its WAL suffix after a
    /// restore (obs sinks are muted until replay completes).
    pub fn is_replaying(&self) -> bool {
        self.sim.is_replaying()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build_context, Scenario, ScenarioConfig, SchemeKind};
    use crate::simulator::{SimConfig, Simulator};
    use mtshare_core::PartitionStrategy;
    use mtshare_model::RideRequest;
    use mtshare_obs::Obs;
    use mtshare_road::{grid_city, GridCityConfig, RoadNetwork};
    use mtshare_routing::PathCache;
    use std::sync::Arc;

    fn setup() -> (Arc<RoadNetwork>, Scenario) {
        let graph = Arc::new(grid_city(&GridCityConfig::tiny()).unwrap());
        let cache = PathCache::new(graph.clone());
        let scenario = Scenario::generate(graph.clone(), &cache, ScenarioConfig::peak(8));
        (graph, scenario)
    }

    /// The same scenario with an empty request store — the shape a
    /// streaming run is constructed with (requests come from the feed).
    fn emptied(scenario: &Scenario) -> Scenario {
        Scenario {
            config: scenario.config.clone(),
            historical: scenario.historical.clone(),
            requests: Vec::new(),
            taxis: scenario.taxis.clone(),
        }
    }

    fn scheme_for(graph: &Arc<RoadNetwork>, scenario: &Scenario) -> Box<dyn DispatchScheme> {
        let ctx = build_context(graph, &scenario.historical, 12, PartitionStrategy::Bipartite);
        SchemeKind::MtShare.build(graph, scenario.taxis.len(), Some(ctx), None)
    }

    fn entry_of(r: &RideRequest) -> IngestEntry {
        IngestEntry {
            release: r.release_time,
            origin: r.origin,
            destination: r.destination,
            passengers: r.passengers,
            deadline: r.deadline,
            offline: r.offline,
        }
    }

    fn streamed_report(graph: &Arc<RoadNetwork>, scenario: &Scenario, chunk: usize) -> SimReport {
        let empty = emptied(scenario);
        let mut scheme = scheme_for(graph, scenario);
        let cache = PathCache::new(graph.clone());
        let sim =
            Simulator::new(graph.clone(), cache, &empty, SimConfig::default()).with_streaming();
        let mut engine = SimEngine::new(sim, scheme.as_mut());
        for batch in scenario.requests.chunks(chunk.max(1)) {
            for r in batch {
                engine.ingest(entry_of(r));
            }
            assert_eq!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Idle);
        }
        engine.close_stream();
        assert_eq!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Done);
        engine.finalize(scheme.as_mut()).expect("no persistence, no storage faults")
    }

    #[test]
    fn streamed_run_matches_one_shot() {
        let (graph, scenario) = setup();
        let mut scheme = scheme_for(&graph, &scenario);
        let cache = PathCache::new(graph.clone());
        let one_shot = Simulator::new(graph.clone(), cache, &scenario, SimConfig::default())
            .run(scheme.as_mut());
        for chunk in [1, 7, usize::MAX] {
            let streamed = streamed_report(&graph, &scenario, chunk);
            assert_eq!(streamed.served, one_shot.served, "chunk {chunk}");
            assert_eq!(streamed.rejected, one_shot.rejected, "chunk {chunk}");
            assert_eq!(
                streamed.total_passenger_fares, one_shot.total_passenger_fares,
                "chunk {chunk}"
            );
        }
    }

    #[test]
    fn empty_stream_completes_immediately() {
        let (graph, scenario) = setup();
        let empty = emptied(&scenario);
        let mut scheme = scheme_for(&graph, &scenario);
        let cache = PathCache::new(graph.clone());
        let sim =
            Simulator::new(graph.clone(), cache, &empty, SimConfig::default()).with_streaming();
        let mut engine = SimEngine::new(sim, scheme.as_mut());
        // Open stream, nothing ingested yet: idle, not done.
        assert_eq!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Idle);
        assert_eq!(engine.ingested(), 0);
        engine.close_stream();
        assert_eq!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Done);
        let report = engine.finalize(scheme.as_mut()).expect("no persistence, no storage faults");
        assert_eq!(report.served, 0);
    }

    #[test]
    fn doomed_entries_are_rejected_at_release_time() {
        let (graph, scenario) = setup();
        let empty = emptied(&scenario);
        let mut scheme = scheme_for(&graph, &scenario);
        let obs = Obs::enabled();
        let cache = PathCache::new(graph.clone());
        let sim = Simulator::new(graph.clone(), cache, &empty, SimConfig::default())
            .with_streaming()
            .with_obs(obs.clone());
        let mut engine = SimEngine::new(sim, scheme.as_mut());
        for (i, r) in scenario.requests.iter().take(10).enumerate() {
            if i % 2 == 0 {
                engine.ingest_doomed(entry_of(r), RejectReason::QueueShed);
            } else {
                engine.ingest(entry_of(r));
            }
        }
        engine.close_stream();
        assert_eq!(engine.run_until_idle(scheme.as_mut()), StepOutcome::Done);
        assert_eq!(obs.reject_count(RejectReason::QueueShed), 5);
        engine.finalize(scheme.as_mut()).expect("no persistence, no storage faults");
    }
}
