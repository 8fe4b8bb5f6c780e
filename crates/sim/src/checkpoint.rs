//! Checkpoint/WAL persistence for the simulator: crash-consistent warm
//! restart (see DESIGN.md, "Persistence & warm restart").
//!
//! The simulator's position in a run is its **step counter**: one step
//! per committed unit of sequential work — a popped heap event, a
//! consumed arrival, or a validation sweep. The loop is deterministic,
//! so a step index names the same world state in every run of a scenario.
//!
//! Three artifacts live in the state directory:
//!
//! - `snap-{step}.mtsnap`: a full snapshot of the dispatcher state at a
//!   step boundary — taxis with their plans, the mutable request store,
//!   the pending event queue, the disruption plan, money/metric
//!   accumulators, the scheme's index snapshot and the obs aggregates.
//!   Derived structures (route-node maps, offline watches, the oracle's
//!   pins) are rebuilt on restore; the path cache restarts cold — costs
//!   are canonical, so neither can change a decision.
//! - `wal.mtwal`: one record per completed step — `step | kind | sim
//!   time | state digest` — spanning the whole run. Recovery replays the
//!   records past the newest valid snapshot by *re-executing* the run
//!   loop with sinks muted, verifying each digest, which re-derives the
//!   exact pre-crash state (aggregates included) without duplicating
//!   trace output.
//! - Nothing else: the trace itself is the caller's sink.
//!
//! A planned crash ([`mtshare_chaos::CrashPoint`]) syncs the WAL and
//! flushes sinks, then dies *without* a final snapshot — recovery must
//! come from the last checkpoint plus the log, which is exactly what the
//! crash-restart CI job exercises.

use super::{Episode, Ev, QueuedEv, Simulator, ENCOUNTER_RADIUS_M};
use crate::metrics::{Series, ServedRecord, SimReport};
use mtshare_chaos::{ChaosConfig, CrashMode, CrashPoint, DisruptionPlan, CRASH_EXIT_CODE};
use mtshare_core::PassengerTrip;
use mtshare_model::{DispatchScheme, RequestId, RequestStore, Taxi, TaxiId, Time};
use mtshare_obs::{Event, RejectReason};
use mtshare_persist::{
    fnv1a_64, DecodeError, Decoder, Durability, Encoder, FaultInjector, Fnv64, Persist,
    PersistError, StateDir, WalWriter,
};
use std::cmp::Reverse;
use std::path::PathBuf;
use std::rc::Rc;

/// WAL record kind: a popped heap event.
pub(super) const KIND_HEAP: u8 = 0;
/// WAL record kind: a consumed request arrival.
pub(super) const KIND_ARRIVAL: u8 = 1;
/// WAL record kind: a runtime-invariant validation sweep.
pub(super) const KIND_VALIDATE: u8 = 2;

/// Persistence knobs carried in [`super::SimConfig`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding the WAL and snapshots. Created if missing;
    /// wiped on a fresh (non-resume) run.
    pub state_dir: PathBuf,
    /// Write a snapshot every this many steps (checked at run-loop
    /// boundaries). `0` writes only the initial step-0 snapshot.
    pub checkpoint_every: u64,
    /// Recover from the newest valid snapshot + WAL instead of starting
    /// fresh. Panics if the state directory holds no valid snapshot.
    pub resume: bool,
    /// Planned dispatcher death for crash-restart testing.
    pub crash_at: Option<CrashPoint>,
    /// What to do when a storage operation fails *mid-run* (startup
    /// failures are config errors and always fatal): `Strict` stops the
    /// run with a typed outcome, `Degrade` quarantines the state dir and
    /// keeps serving from memory.
    pub durability: Durability,
    /// Deterministic fault injection seam consulted by every WAL and
    /// snapshot operation (`--failpoints`); `None` in production.
    pub fault_injector: Option<Rc<dyn FaultInjector>>,
}

impl PersistConfig {
    /// Persistence into `state_dir` with a default checkpoint cadence,
    /// no resume, no planned crash, strict durability, no fault
    /// injection.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            state_dir: state_dir.into(),
            checkpoint_every: 256,
            resume: false,
            crash_at: None,
            durability: Durability::Strict,
            fault_injector: None,
        }
    }
}

/// How a [`Simulator::run_to_outcome`] call ended.
// One value exists per run and it is consumed immediately; boxing the
// report would buy nothing but indirection at every call site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RunOutcome {
    /// The scenario ran to completion.
    Finished(SimReport),
    /// A planned crash ([`PersistConfig::crash_at`], `CrashMode::Return`)
    /// stopped the run after this many steps. The WAL is synced and the
    /// sinks flushed; resume with [`PersistConfig::resume`].
    Crashed {
        /// Steps fully processed before death.
        step: u64,
    },
    /// Strict durability ([`Durability::Strict`]) stopped the run after
    /// a storage fault. The WAL was synced best-effort and the sinks
    /// flushed; the state dir was left in place for `--resume`.
    StorageFault {
        /// Steps fully processed before the fault stopped the run.
        step: u64,
    },
}

impl RunOutcome {
    /// Unwraps the report of a completed run; panics on a crash or a
    /// storage fault.
    pub fn report(self) -> SimReport {
        match self {
            RunOutcome::Finished(r) => r,
            RunOutcome::Crashed { step } => {
                panic!("simulation died at planned crash point (step {step})")
            }
            RunOutcome::StorageFault { step } => {
                panic!("simulation stopped on a storage fault (step {step})")
            }
        }
    }
}

/// One WAL record: the position and a cheap state digest of a completed
/// step, enough for replay to verify it re-derived the same state.
struct WalRecord {
    step: u64,
    kind: u8,
    t: Time,
    digest: u64,
}

impl Persist for WalRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.u64(self.step);
        enc.u8(self.kind);
        enc.f64(self.t);
        enc.u64(self.digest);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(WalRecord { step: dec.u64()?, kind: dec.u8()?, t: dec.f64()?, digest: dec.u64()? })
    }
}

/// WAL records still to be re-executed after a snapshot restore.
struct ReplayPlan {
    records: Vec<WalRecord>,
    idx: usize,
    snapshot_step: u64,
}

/// Live persistence state of a running simulator (not itself persisted).
pub(super) struct PersistRt {
    dir: StateDir,
    wal: WalWriter,
    every: u64,
    crash_at: Option<CrashPoint>,
    last_checkpoint_step: u64,
    replay: Option<ReplayPlan>,
}

// ---- Persist impls for the simulator's private event/metric types ----

impl Persist for Ev {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Ev::Taxi { taxi, version } => {
                enc.u8(0);
                taxi.encode(enc);
                enc.u64(*version);
            }
            Ev::Encounter { taxi, request, version } => {
                enc.u8(1);
                taxi.encode(enc);
                request.encode(enc);
                enc.u64(*version);
            }
            Ev::Disruption { idx } => {
                enc.u8(2);
                enc.usize(*idx);
            }
            Ev::Redispatch { request, attempt } => {
                enc.u8(3);
                request.encode(enc);
                enc.u32(*attempt);
            }
            Ev::Validate => enc.u8(4),
            Ev::BatchFlush => enc.u8(5),
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.u8()? {
            0 => Ok(Ev::Taxi { taxi: TaxiId::decode(dec)?, version: dec.u64()? }),
            1 => Ok(Ev::Encounter {
                taxi: TaxiId::decode(dec)?,
                request: RequestId::decode(dec)?,
                version: dec.u64()?,
            }),
            2 => Ok(Ev::Disruption { idx: dec.usize()? }),
            3 => Ok(Ev::Redispatch { request: RequestId::decode(dec)?, attempt: dec.u32()? }),
            4 => Ok(Ev::Validate),
            5 => Ok(Ev::BatchFlush),
            _ => Err(DecodeError::Invalid("unknown Ev tag")),
        }
    }
}

impl Persist for QueuedEv {
    fn encode(&self, enc: &mut Encoder) {
        enc.f64(self.time);
        enc.u64(self.seq);
        self.ev.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(QueuedEv { time: dec.f64()?, seq: dec.u64()?, ev: Ev::decode(dec)? })
    }
}

impl Persist for Episode {
    fn encode(&self, enc: &mut Encoder) {
        enc.seq(&self.trips);
        self.onboard_since.encode(enc);
        enc.f64(self.onboard_cost_s);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Episode {
            trips: dec.seq::<PassengerTrip>()?,
            onboard_since: Option::<f64>::decode(dec)?,
            onboard_cost_s: dec.f64()?,
        })
    }
}

impl Persist for ServedRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(self.request);
        enc.u32(self.taxi);
        enc.f64(self.pickup_t);
        enc.f64(self.dropoff_t);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ServedRecord {
            request: dec.u32()?,
            taxi: dec.u32()?,
            pickup_t: dec.f64()?,
            dropoff_t: dec.f64()?,
        })
    }
}

/// Fingerprint of the immutable scenario inputs, computed at
/// construction *before* the run mutates requests (recovery renegotiates
/// deadlines), so a snapshot can refuse to load into the wrong scenario.
pub(super) fn scenario_digest(taxis: &[Taxi], requests: &RequestStore) -> u64 {
    let mut enc = Encoder::new();
    enc.seq(taxis);
    requests.encode(&mut enc);
    fnv1a_64(&enc.into_bytes())
}

impl Simulator {
    /// Opens/resets the state directory and, on resume, restores the
    /// newest valid snapshot and arms WAL replay. Returns whether the
    /// run is resuming (in which case install/seeding must be skipped —
    /// the restored heap already holds the seeded events).
    pub(super) fn setup_persistence(&mut self, scheme: &mut dyn DispatchScheme) -> bool {
        let Some(pc) = self.cfg.persist.clone() else { return false };
        let mut dir = StateDir::create(&pc.state_dir)
            .unwrap_or_else(|e| panic!("persist: cannot open state dir: {e}"));
        if let Some(inj) = &pc.fault_injector {
            dir = dir.with_fault_injector(inj.clone());
        }
        if !pc.resume {
            dir.reset().unwrap_or_else(|e| panic!("persist: cannot reset state dir: {e}"));
            let mut wal = WalWriter::create(&dir.wal_path())
                .unwrap_or_else(|e| panic!("persist: cannot create wal: {e}"));
            if let Some(inj) = &pc.fault_injector {
                wal.set_fault_injector(inj.clone());
            }
            self.persist = Some(PersistRt {
                dir,
                wal,
                every: pc.checkpoint_every,
                crash_at: pc.crash_at,
                last_checkpoint_step: 0,
                replay: None,
            });
            return false;
        }

        let (snap_step, payload) = dir
            .load_newest_valid()
            .unwrap_or_else(|e| panic!("persist: snapshot scan failed: {e}"))
            .unwrap_or_else(|| panic!("--resume: no valid snapshot in {}", pc.state_dir.display()));
        let (recovery, mut wal) = WalWriter::open_recover(&dir.wal_path())
            .unwrap_or_else(|e| panic!("persist: wal recovery failed: {e}"));
        if let Some(inj) = &pc.fault_injector {
            wal.set_fault_injector(inj.clone());
        }
        self.apply_snapshot(&payload, snap_step, scheme)
            .unwrap_or_else(|e| panic!("--resume: {e}"));
        self.rebuild_derived();

        let records: Vec<WalRecord> = recovery
            .records
            .iter()
            .map(|raw| {
                WalRecord::from_bytes(raw)
                    .unwrap_or_else(|e| panic!("persist: undecodable wal record: {e}"))
            })
            .filter(|r| r.step > snap_step)
            .collect();
        for (i, r) in records.iter().enumerate() {
            let expected = snap_step + 1 + i as u64;
            if r.step != expected {
                panic!("persist: wal gap after snapshot {snap_step}: expected step {expected}, found {}", r.step);
            }
        }

        let replay = if records.is_empty() {
            // The snapshot already is the newest state: no re-execution.
            self.obs.add("persistence", &[("restores", 1)]);
            self.obs.emit_meta(Event::Restore {
                t: self.clock,
                step: self.step,
                snapshot_step: snap_step,
                wal_replayed: 0,
            });
            None
        } else {
            // Mute sinks for the replayed span: the pre-crash run already
            // wrote those trace lines. Aggregates keep accumulating so
            // they re-derive the exact pre-crash totals.
            self.obs.set_muted(true);
            Some(ReplayPlan { records, idx: 0, snapshot_step: snap_step })
        };
        self.persist = Some(PersistRt {
            dir,
            wal,
            every: pc.checkpoint_every,
            crash_at: pc.crash_at,
            last_checkpoint_step: snap_step,
            replay,
        });
        true
    }

    /// Writes the step-0 snapshot of a fresh persist-enabled run (after
    /// install and disruption seeding, so the heap contents are in it).
    pub(super) fn initial_checkpoint(&mut self, scheme: &dyn DispatchScheme) {
        if self.persist.is_some() {
            self.write_checkpoint(scheme);
        }
    }

    /// Writes the drain-time final snapshot of a service-mode run, so a
    /// later `--resume` warm-restarts from the fully drained state
    /// instead of replaying the tail of the WAL.
    pub(crate) fn final_checkpoint(&mut self, scheme: &dyn DispatchScheme) {
        if self.persist.is_some() {
            self.write_checkpoint(scheme);
        }
    }

    /// Whether WAL replay after a warm restart is still re-executing
    /// (trace sinks are muted until it completes).
    pub(crate) fn is_replaying(&self) -> bool {
        self.persist.as_ref().is_some_and(|rt| rt.replay.is_some())
    }

    /// Writes a snapshot at a run-loop boundary when the cadence is due
    /// (live mode only — replay never re-snapshots ground it already has).
    pub(super) fn maybe_checkpoint(&mut self, scheme: &dyn DispatchScheme) {
        let due = match &self.persist {
            Some(rt) => {
                rt.replay.is_none()
                    && rt.every > 0
                    && self.step - rt.last_checkpoint_step >= rt.every
            }
            None => false,
        };
        if due {
            self.write_checkpoint(scheme);
        }
    }

    /// Marks one unit of sequential work complete: bumps the step
    /// counter, appends (or, during replay, verifies) the WAL record and
    /// triggers a planned crash when due. Returns `true` when the run
    /// must stop (crash with `CrashMode::Return`).
    pub(super) fn complete_step(&mut self, kind: u8, t: Time) -> bool {
        self.step += 1;
        if self.persist.is_none() {
            return false;
        }
        let digest = self.state_digest();
        let step = self.step;
        let clock = self.clock;

        let rt = self.persist.as_mut().expect("checked above");
        let mut finished_replay = None;
        if let Some(rp) = rt.replay.as_mut() {
            let rec = &rp.records[rp.idx];
            if rec.step != step
                || rec.kind != kind
                || rec.t.to_bits() != t.to_bits()
                || rec.digest != digest
            {
                panic!(
                    "persist: replay diverged at step {step}: wal has (step {}, kind {}, \
                     t {}, digest {:#018x}), re-execution produced (kind {kind}, t {t}, \
                     digest {digest:#018x})",
                    rec.step, rec.kind, rec.t, rec.digest
                );
            }
            rp.idx += 1;
            if rp.idx == rp.records.len() {
                finished_replay = Some((rp.snapshot_step, rp.records.len() as u64));
                rt.replay = None;
            }
        } else {
            let mut enc = Encoder::new();
            WalRecord { step, kind, t, digest }.encode(&mut enc);
            let rec = enc.into_bytes();
            match rt.wal.append(&rec) {
                Ok(()) => {
                    let bytes = rec.len() as u64;
                    self.obs.add("persistence", &[("wal_records", 1), ("wal_bytes", bytes)]);
                }
                Err(e) => {
                    // Mid-step fault: the step's effects are already in
                    // the trace but its WAL record is not, so a strict
                    // resume may re-emit up to one step (documented in
                    // DESIGN.md). Degrade keeps running without the WAL.
                    self.handle_persist_error("wal_append", e);
                    return self.storage_fault.is_some();
                }
            }
        }
        if let Some((snapshot_step, wal_replayed)) = finished_replay {
            self.obs.set_muted(false);
            self.obs.add("persistence", &[("restores", 1)]);
            self.obs.emit_meta(Event::Restore { t: clock, step, snapshot_step, wal_replayed });
        }

        let crash_due =
            self.persist.as_ref().and_then(|rt| rt.crash_at).filter(|cp| cp.at_step == step);
        if let Some(cp) = crash_due {
            let sync_res = self.persist.as_mut().expect("crash point needs persistence").wal.sync();
            if let Err(e) = sync_res {
                self.handle_persist_error("wal_sync", e);
                if self.storage_fault.is_some() {
                    return true;
                }
            }
            self.obs.flush();
            match cp.mode {
                CrashMode::ExitProcess => std::process::exit(CRASH_EXIT_CODE),
                CrashMode::Return => return true,
            }
        }
        false
    }

    /// Routes a mid-run storage failure through the durability policy.
    /// Every fault is surfaced (obs counter + meta event) and ends in a
    /// documented terminal state — never a panic or silent corruption:
    ///
    /// - [`Durability::Strict`]: best-effort WAL sync and sink flush,
    ///   then arm the storage-fault flag so the run stops at the current
    ///   step boundary with a typed outcome (exit code 44 at the CLI).
    /// - [`Durability::Degrade`]: quarantine the state-dir generation
    ///   for post-mortem, drop persistence, keep serving from memory.
    pub(super) fn handle_persist_error(&mut self, op: &'static str, err: PersistError) {
        let class = err.class().label();
        // WAL ops count against the `wal` bucket, everything else (snapshot
        // read/write, directory sync) against `snapshot`.
        let bucket = if op.starts_with("wal") { "wal" } else { "snapshot" };
        self.obs.add("faults", &[(bucket, 1)]);
        self.obs.emit_meta(Event::StorageFault { t: self.clock, step: self.step, op, class });
        let durability = self.cfg.persist.as_ref().map(|pc| pc.durability).unwrap_or_default();
        match durability {
            Durability::Degrade => {
                // Close the WAL handle before renaming the directory out
                // from under it.
                let quarantined = match self.persist.take() {
                    Some(rt) => {
                        drop(rt.wal);
                        rt.dir.quarantine().is_ok()
                    }
                    None => false,
                };
                if quarantined {
                    self.obs.add("faults", &[("quarantines", 1)]);
                }
                self.obs.emit_meta(Event::DurabilityDegraded {
                    t: self.clock,
                    step: self.step,
                    quarantined,
                });
            }
            Durability::Strict => {
                if let Some(rt) = self.persist.as_mut() {
                    let _ = rt.wal.sync();
                }
                self.persist = None;
                self.obs.flush();
                self.storage_fault = Some(self.step);
            }
        }
    }

    /// Best-effort durability point for abnormal exits (feed faults,
    /// supervisor-requested stops): syncs the WAL and flushes the obs
    /// sinks so the typed exit is crash-consistent and a later
    /// `--resume` continues byte-identically.
    pub(crate) fn sync_persistence(&mut self) {
        if let Some(rt) = self.persist.as_mut() {
            let _ = rt.wal.sync();
        }
        self.obs.flush();
    }

    /// FNV digest over the cheap state counters — enough to catch a
    /// divergent replay at the first bad step without hashing the world.
    fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.seq);
        h.write_f64(self.clock);
        // Constant +∞ in one-shot runs; in streaming runs it ties the
        // WAL position to the ingestion progress, so a resumed serve
        // loop must re-ingest the feed at the same step boundaries.
        h.write_f64(self.watermark);
        h.write_u64(self.served_online as u64);
        h.write_u64(self.served_offline as u64);
        h.write_u64(self.rejected as u64);
        h.write_u64(self.cancelled as u64);
        h.write_u64(self.redispatched as u64);
        h.write_u64(self.heap.len() as u64);
        h.write_u64(self.next_arrival as u64);
        h.write_u64(self.window.len() as u64);
        h.digest()
    }

    /// Writes a snapshot of the current state, syncing the WAL first so
    /// every record up to this boundary is durable before the snapshot
    /// that supersedes them exists. Failures route through the
    /// durability policy instead of panicking — since this runs at a
    /// step boundary (no half-traced step), a strict stop here resumes
    /// byte-identically.
    fn write_checkpoint(&mut self, scheme: &dyn DispatchScheme) {
        let t0 = std::time::Instant::now();
        let payload = self.encode_snapshot(scheme);
        let step = self.step;
        let sync_err =
            self.persist.as_mut().expect("write_checkpoint without persist").wal.sync().err();
        if let Some(e) = sync_err {
            self.handle_persist_error("wal_sync", e);
            return;
        }
        let write_res =
            self.persist.as_mut().expect("synced above").dir.write_snapshot(step, &payload);
        match write_res {
            Ok(stats) => {
                self.persist.as_mut().expect("synced above").last_checkpoint_step = step;
                if stats.dir_sync_unsupported {
                    self.obs.add("faults", &[("dir_sync_unsupported", 1)]);
                }
                self.obs.add("persistence", &[("checkpoints", 1)]);
                self.obs.record_checkpoint(stats.bytes, t0.elapsed().as_secs_f64());
                self.obs.emit_meta(Event::Checkpoint { t: self.clock, step, bytes: stats.bytes });
            }
            Err(e) => self.handle_persist_error("snapshot_write", e),
        }
    }

    /// Serializes the full dispatcher state. Hash-ordered containers are
    /// sorted first so the payload is canonical: the same world state
    /// always produces the same bytes.
    fn encode_snapshot(&self, scheme: &dyn DispatchScheme) -> Vec<u8> {
        let mut enc = Encoder::new();
        // Manifest: refuse to restore into the wrong run.
        enc.str(scheme.name());
        enc.u64(self.taxis.len() as u64);
        enc.u64(self.requests.len() as u64);
        self.cfg.chaos.encode(&mut enc);
        enc.u64(self.scenario_digest);
        enc.bool(self.streaming);
        // Position.
        enc.u64(self.step);
        enc.f64(self.clock);
        enc.u64(self.seq);
        enc.usize(self.next_arrival);
        enc.f64(self.watermark);
        // World.
        enc.seq(&self.taxis);
        self.requests.encode(&mut enc);
        let mut heap: Vec<QueuedEv> = self.heap.iter().map(|Reverse(q)| *q).collect();
        heap.sort_unstable();
        enc.seq(&heap);
        let mut pending: Vec<RequestId> = self.pending_offline.iter().copied().collect();
        pending.sort_unstable();
        enc.seq(&pending);
        enc.seq(&self.resolved);
        let mut cancelled_pre: Vec<RequestId> =
            self.cancelled_pre_release.iter().copied().collect();
        cancelled_pre.sort_unstable();
        enc.seq(&cancelled_pre);
        let mut doomed: Vec<(RequestId, u8)> =
            self.doomed.iter().map(|(&r, &reason)| (r, reason.index() as u8)).collect();
        doomed.sort_unstable_by_key(|&(r, _)| r);
        enc.seq(&doomed);
        enc.usize(self.cancelled);
        enc.usize(self.redispatched);
        enc.usize(self.invariant_violations);
        let mut pickups: Vec<(RequestId, f64)> =
            self.pickup_time.iter().map(|(&r, &t)| (r, t)).collect();
        pickups.sort_by_key(|&(r, _)| r);
        enc.seq(&pickups);
        enc.seq(&self.episodes);
        enc.f64(self.fares_paid);
        enc.f64(self.fares_solo);
        enc.f64(self.driver_income);
        enc.f64(self.benefit);
        enc.seq(self.response_ms.values());
        enc.seq(self.waiting_s.values());
        enc.seq(self.detour_s.values());
        enc.seq(self.candidates.values());
        enc.usize(self.served_online);
        enc.usize(self.served_offline);
        enc.usize(self.rejected);
        enc.seq(&self.served_records);
        self.plan.encode(&mut enc);
        // The open batch window (buffering order is semantic: it is the
        // matrix row order at the next flush).
        enc.seq(&self.window);
        // Scheme index state and obs aggregates, as opaque sub-payloads.
        match scheme.snapshot_state() {
            Some(b) => {
                enc.bool(true);
                enc.bytes(&b);
            }
            None => enc.bool(false),
        }
        match self.obs.snapshot_aggregates() {
            Some(b) => {
                enc.bool(true);
                enc.bytes(&b);
            }
            None => enc.bool(false),
        }
        enc.into_bytes()
    }

    /// Restores a snapshot payload into a freshly constructed simulator
    /// for the *same* scenario. Validates the manifest before touching
    /// anything; derived structures still need [`Self::rebuild_derived`].
    fn apply_snapshot(
        &mut self,
        payload: &[u8],
        snap_step: u64,
        scheme: &mut dyn DispatchScheme,
    ) -> Result<(), String> {
        let e = |e: DecodeError| format!("snapshot payload: {e}");
        let mut dec = Decoder::new(payload);
        let name = dec.str().map_err(e)?;
        if name != scheme.name() {
            return Err(format!(
                "snapshot was taken under scheme `{name}`, resuming with `{}`",
                scheme.name()
            ));
        }
        let n_taxis = dec.u64().map_err(e)? as usize;
        let n_requests = dec.u64().map_err(e)? as usize;
        // A streaming run is constructed with an empty store (the feed
        // is re-consumed after restore), so only one-shot runs can check
        // the request count before decoding.
        if n_taxis != self.taxis.len() || (!self.streaming && n_requests != self.requests.len()) {
            return Err(format!(
                "snapshot world is {n_taxis} taxis / {n_requests} requests, this scenario is {} / {}",
                self.taxis.len(),
                self.requests.len()
            ));
        }
        let chaos = Option::<ChaosConfig>::decode(&mut dec).map_err(e)?;
        if chaos != self.cfg.chaos {
            return Err("snapshot chaos configuration differs from this run's".into());
        }
        let digest = dec.u64().map_err(e)?;
        if digest != self.scenario_digest {
            return Err("snapshot belongs to a different scenario".into());
        }
        let streaming = dec.bool().map_err(e)?;
        if streaming != self.streaming {
            return Err(if streaming {
                "snapshot was taken by a streaming (serve) run, this run is one-shot".into()
            } else {
                "snapshot was taken by a one-shot run, this run is streaming (serve)".into()
            });
        }
        let step = dec.u64().map_err(e)?;
        if step != snap_step {
            return Err(format!("snapshot file for step {snap_step} claims step {step} inside"));
        }
        self.step = step;
        self.clock = dec.f64().map_err(e)?;
        self.seq = dec.u64().map_err(e)?;
        self.next_arrival = dec.usize().map_err(e)?;
        self.watermark = dec.f64().map_err(e)?;
        if self.next_arrival > n_requests {
            return Err("snapshot arrival cursor past the request stream".into());
        }
        let taxis: Vec<Taxi> = dec.seq().map_err(e)?;
        if taxis.len() != n_taxis {
            return Err("snapshot fleet length disagrees with its manifest".into());
        }
        self.taxis = taxis;
        self.requests = RequestStore::decode(&mut dec).map_err(e)?;
        if self.requests.len() != n_requests {
            return Err("snapshot request store disagrees with its manifest".into());
        }
        let heap: Vec<QueuedEv> = dec.seq().map_err(e)?;
        self.heap = heap.into_iter().map(Reverse).collect();
        self.pending_offline = dec.seq::<RequestId>().map_err(e)?.into_iter().collect();
        self.resolved = dec.seq().map_err(e)?;
        if self.resolved.len() != n_requests {
            return Err("snapshot resolved-flag vector has the wrong length".into());
        }
        self.cancelled_pre_release = dec.seq::<RequestId>().map_err(e)?.into_iter().collect();
        self.doomed = dec
            .seq::<(RequestId, u8)>()
            .map_err(e)?
            .into_iter()
            .map(|(r, idx)| {
                RejectReason::ALL
                    .get(idx as usize)
                    .map(|&reason| (r, reason))
                    .ok_or("snapshot doomed entry has an unknown reject reason")
            })
            .collect::<Result<_, _>>()?;
        self.cancelled = dec.usize().map_err(e)?;
        self.redispatched = dec.usize().map_err(e)?;
        self.invariant_violations = dec.usize().map_err(e)?;
        self.pickup_time = dec.seq::<(RequestId, f64)>().map_err(e)?.into_iter().collect();
        let episodes: Vec<Episode> = dec.seq().map_err(e)?;
        if episodes.len() != n_taxis {
            return Err("snapshot episode vector has the wrong length".into());
        }
        self.episodes = episodes;
        self.fares_paid = dec.f64().map_err(e)?;
        self.fares_solo = dec.f64().map_err(e)?;
        self.driver_income = dec.f64().map_err(e)?;
        self.benefit = dec.f64().map_err(e)?;
        self.response_ms = Series::from_values(dec.seq().map_err(e)?);
        self.waiting_s = Series::from_values(dec.seq().map_err(e)?);
        self.detour_s = Series::from_values(dec.seq().map_err(e)?);
        self.candidates = Series::from_values(dec.seq().map_err(e)?);
        self.served_online = dec.usize().map_err(e)?;
        self.served_offline = dec.usize().map_err(e)?;
        self.rejected = dec.usize().map_err(e)?;
        self.served_records = dec.seq().map_err(e)?;
        self.plan = DisruptionPlan::decode(&mut dec).map_err(e)?;
        self.window = dec.seq::<(RequestId, u32)>().map_err(e)?;
        let scheme_state =
            if dec.bool().map_err(e)? { Some(dec.bytes().map_err(e)?.to_vec()) } else { None };
        let obs_state =
            if dec.bool().map_err(e)? { Some(dec.bytes().map_err(e)?.to_vec()) } else { None };
        if !dec.is_done() {
            return Err("trailing bytes in snapshot payload".into());
        }
        if let Some(bytes) = scheme_state {
            let world = self.world();
            scheme.restore_state(&bytes, &world).map_err(|err| format!("scheme state: {err}"))?;
        }
        if let Some(bytes) = obs_state {
            self.obs.restore_aggregates(&bytes).map_err(|err| format!("obs aggregates: {err}"))?;
        }
        Ok(())
    }

    /// Rebuilds every derived structure a snapshot deliberately omits:
    /// the routing metric, per-taxi route-node maps, the offline watch
    /// tables and the oracle's holds on riders that are assigned or on
    /// board — without those every leg into their stops would fall
    /// through to a search for the rest of the run, and their later
    /// releases would free other requests' vectors early. (The path cache
    /// restarts cold; costs are canonical, so cold lookups return the same
    /// answers the warm run saw.) The metric is the one the crashed run
    /// installed at its last work unit, at the snapshot's clock (none ran
    /// before step 0), and routes are not re-timed: they already follow it.
    fn rebuild_derived(&mut self) {
        let active = self.active_shifts(self.clock);
        if self.step > 0 && !active.is_empty() {
            self.install_metric(active);
        }
        for r in self.holders() {
            self.hold(self.requests.get(r), self.clock);
        }
        for i in 0..self.taxis.len() {
            self.refill_route_nodes(i);
        }
        self.offline_watch.clear();
        self.watched_nodes.clear();
        let mut pending: Vec<RequestId> = self.pending_offline.iter().copied().collect();
        pending.sort_unstable();
        for id in pending {
            let origin_pt = self.graph.point(self.requests.get(id).origin);
            let nodes = self.spatial.nodes_within(&self.graph, &origin_pt, ENCOUNTER_RADIUS_M);
            let mut watched = Vec::with_capacity(nodes.len());
            for n in nodes {
                self.offline_watch.entry(n.0).or_default().push(id);
                watched.push(n.0);
            }
            self.watched_nodes.insert(id, watched);
        }
    }
}
