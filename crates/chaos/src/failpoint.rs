//! Seeded, plan-driven I/O failpoints.
//!
//! Mirrors the [`crate::plan`] contract for storage and feed faults: a
//! [`FailpointPlan`] is generated once, up front, from `--chaos-seed`
//! and a `--failpoints` mix spec — never during the run — so the fault
//! schedule is a pure function of `(seed, spec)` and reruns are
//! byte-identical. The plan implements
//! [`mtshare_persist::fault::FaultInjector`]: the storage layer asks it
//! before every WAL append/sync, snapshot write/read and directory
//! fsync, and the plan fires when that operation's call counter hits a
//! pre-sampled index. Feed faults (mid-line disconnect, consumer
//! stalls) are carried as a [`FeedFaultPlan`] the serve feed reader
//! consumes by line number.
//!
//! Call counters are the determinism coordinate: "the 7th WAL append"
//! names the same moment in every run, because every durable I/O call
//! rides the sequential step order.

use mtshare_persist::fault::{FaultInjector, IoFault, IoOp};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::cell::Cell;
use std::collections::BTreeMap;

/// The fault kinds a `--failpoints` spec can request, in the fixed
/// generation order (spec order does not matter; generation order
/// does, so the plan is a pure function of the seed and the counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failpoint {
    /// ENOSPC on a WAL append.
    WalAppendEnospc,
    /// Torn WAL frame: a prefix of the frame reaches disk, then EIO.
    WalAppendShort,
    /// Lost fsync on a WAL sync (data reaches the OS, durability lost).
    WalSyncFail,
    /// ENOSPC on a snapshot write.
    SnapWriteEnospc,
    /// Torn snapshot temp file, then EIO (final name stays atomic).
    SnapWriteShort,
    /// One flipped byte on a snapshot read-back.
    SnapReadCorrupt,
    /// Failed directory fsync after a snapshot rename.
    DirSyncFail,
    /// Mid-line TCP-style disconnect in the serve feed.
    FeedDisconnect,
    /// Slow-consumer stall in the serve feed (wall-clock only; virtual
    /// time, and therefore the trace, is unaffected).
    FeedStall,
}

impl Failpoint {
    /// Every failpoint, in generation order.
    pub const ALL: [Failpoint; 9] = [
        Failpoint::WalAppendEnospc,
        Failpoint::WalAppendShort,
        Failpoint::WalSyncFail,
        Failpoint::SnapWriteEnospc,
        Failpoint::SnapWriteShort,
        Failpoint::SnapReadCorrupt,
        Failpoint::DirSyncFail,
        Failpoint::FeedDisconnect,
        Failpoint::FeedStall,
    ];

    /// The spec key naming this failpoint.
    pub fn label(self) -> &'static str {
        match self {
            Failpoint::WalAppendEnospc => "wal-append-enospc",
            Failpoint::WalAppendShort => "wal-append-short",
            Failpoint::WalSyncFail => "wal-sync-fail",
            Failpoint::SnapWriteEnospc => "snap-write-enospc",
            Failpoint::SnapWriteShort => "snap-write-short",
            Failpoint::SnapReadCorrupt => "snap-read-corrupt",
            Failpoint::DirSyncFail => "dir-sync-fail",
            Failpoint::FeedDisconnect => "feed-disconnect",
            Failpoint::FeedStall => "feed-stall",
        }
    }

    /// The storage operation this failpoint fires on, when it is a
    /// storage failpoint ([`Failpoint::FeedDisconnect`]/
    /// [`Failpoint::FeedStall`] live in the feed reader instead).
    fn op(self) -> Option<IoOp> {
        match self {
            Failpoint::WalAppendEnospc | Failpoint::WalAppendShort => Some(IoOp::WalAppend),
            Failpoint::WalSyncFail => Some(IoOp::WalSync),
            Failpoint::SnapWriteEnospc | Failpoint::SnapWriteShort => Some(IoOp::SnapshotWrite),
            Failpoint::SnapReadCorrupt => Some(IoOp::SnapshotRead),
            Failpoint::DirSyncFail => Some(IoOp::DirSync),
            Failpoint::FeedDisconnect | Failpoint::FeedStall => None,
        }
    }

    /// Call-index sampling window `lo..=hi` for this failpoint.
    ///
    /// Appends happen once per step, so they get a wide window; sync/
    /// checkpoint operations happen once per checkpoint interval and
    /// get a narrow one so a short run still reaches the sampled index.
    /// Windows start at 2 — call 1 is the step-0 bootstrap (initial
    /// checkpoint, first sync), and failing a run before it has begun
    /// tests configuration handling, not fault recovery. Snapshot
    /// *reads* only happen on resume, so index 1 must stay eligible.
    fn window(self) -> (u32, u32) {
        match self {
            Failpoint::WalAppendEnospc | Failpoint::WalAppendShort => (2, 65),
            Failpoint::WalSyncFail | Failpoint::SnapWriteEnospc | Failpoint::SnapWriteShort => {
                (2, 9)
            }
            Failpoint::SnapReadCorrupt => (1, 2),
            Failpoint::DirSyncFail => (2, 9),
            Failpoint::FeedDisconnect | Failpoint::FeedStall => (2, 33),
        }
    }
}

/// How many times each failpoint fires: the parsed `--failpoints` spec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailpointSpec {
    counts: Vec<(Failpoint, u32)>,
}

impl FailpointSpec {
    /// Parses a `--failpoints` spec of the form
    /// `wal-append-enospc=1,feed-disconnect=1` (any subset, any order).
    /// Returns an error message for unknown keys or unparsable counts.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut counts: Vec<(Failpoint, u32)> = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("failpoint spec `{part}` is not key=count"))?;
            let n: u32 = val
                .trim()
                .parse()
                .map_err(|_| format!("failpoint count `{val}` is not a non-negative integer"))?;
            let key = key.trim();
            let fp = Failpoint::ALL
                .into_iter()
                .find(|fp| fp.label() == key)
                .ok_or_else(|| format!("unknown failpoint `{key}`"))?;
            match counts.iter_mut().find(|(f, _)| *f == fp) {
                Some((_, c)) => *c = n,
                None => counts.push((fp, n)),
            }
        }
        Ok(Self { counts })
    }

    /// Requested fire count for `fp`.
    pub fn count(&self, fp: Failpoint) -> u32 {
        self.counts.iter().find(|(f, _)| *f == fp).map_or(0, |(_, n)| *n)
    }

    /// Whether the spec requests no faults at all.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|(_, n)| *n == 0)
    }
}

/// Feed faults by 1-based feed line number, extracted from a
/// [`FailpointPlan`] for the serve feed reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedFaultPlan {
    /// Sever the feed mid-line when this line would be read.
    pub disconnect_at_line: Option<u64>,
    /// Stall (wall-clock sleep, milliseconds) before reading this line.
    pub stall: Option<(u64, u64)>,
}

impl FeedFaultPlan {
    /// Whether any feed fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.disconnect_at_line.is_none() && self.stall.is_none()
    }
}

/// Wall-clock milliseconds a generated feed stall sleeps for — also the
/// ceiling the feed reader clamps any planned stall to, so an injected
/// slow-consumer fault can never wedge a test run.
pub const STALL_MS: u64 = 50;

/// A generated fault schedule: per-operation call indices mapped to
/// faults, plus the feed-fault lines. Implements
/// [`FaultInjector`], counting calls internally.
#[derive(Debug, Default)]
pub struct FailpointPlan {
    /// `schedules[op.index()]` maps a 1-based call number to its fault.
    schedules: [BTreeMap<u32, IoFault>; 5],
    /// Live call counters, one per [`IoOp`].
    counters: [Cell<u32>; 5],
    feed: FeedFaultPlan,
}

impl FailpointPlan {
    /// Generates the schedule for `spec` from `seed`. Pure: the same
    /// `(seed, spec)` always yields the same plan. Call indices are
    /// sampled without replacement per operation, in the fixed
    /// [`Failpoint::ALL`] order.
    pub fn generate(seed: u64, spec: &FailpointSpec) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut plan = Self::default();
        for fp in Failpoint::ALL {
            let count = spec.count(fp);
            if count == 0 {
                continue;
            }
            let (lo, hi) = fp.window();
            match fp.op() {
                Some(op) => {
                    let sched = &mut plan.schedules[op.index()];
                    for _ in 0..count {
                        let call = sample_free_index(&mut rng, lo, hi, sched);
                        let Some(call) = call else { break };
                        sched.insert(call, fault_of(fp, &mut rng));
                    }
                }
                None => {
                    let line = u64::from(rng.gen_range(lo..=hi));
                    match fp {
                        Failpoint::FeedDisconnect => {
                            plan.feed.disconnect_at_line = Some(line);
                        }
                        Failpoint::FeedStall => plan.feed.stall = Some((line, STALL_MS)),
                        _ => unreachable!("storage failpoints have an op"),
                    }
                }
            }
        }
        plan
    }

    /// A hand-built plan for tests: fire `fault` on the `call`-th
    /// invocation of `op` (1-based), for each entry.
    pub fn exact(entries: &[(IoOp, u32, IoFault)]) -> Self {
        let mut plan = Self::default();
        for &(op, call, fault) in entries {
            plan.schedules[op.index()].insert(call, fault);
        }
        plan
    }

    /// The feed-fault lines for the serve feed reader.
    pub fn feed_faults(&self) -> FeedFaultPlan {
        self.feed
    }

    /// Whether any storage fault is scheduled.
    pub fn has_storage_faults(&self) -> bool {
        self.schedules.iter().any(|s| !s.is_empty())
    }

    /// Calls observed so far for `op`.
    pub fn calls(&self, op: IoOp) -> u32 {
        self.counters[op.index()].get()
    }
}

impl FaultInjector for FailpointPlan {
    fn check(&self, op: IoOp) -> Option<IoFault> {
        let calls = &self.counters[op.index()];
        calls.set(calls.get() + 1);
        self.schedules[op.index()].get(&calls.get()).copied()
    }
}

/// The concrete fault a failpoint materialises as, with its random
/// parameters (torn-frame offset, corrupted byte position/mask) drawn
/// from the plan rng.
fn fault_of(fp: Failpoint, rng: &mut SmallRng) -> IoFault {
    match fp {
        Failpoint::WalAppendEnospc | Failpoint::SnapWriteEnospc => IoFault::NoSpace,
        Failpoint::WalAppendShort | Failpoint::SnapWriteShort => {
            IoFault::ShortWrite { keep_permille: rng.gen_range(0..1000) }
        }
        Failpoint::WalSyncFail | Failpoint::DirSyncFail => IoFault::SyncFailed,
        Failpoint::SnapReadCorrupt => {
            IoFault::CorruptByte { offset: rng.gen_range(0..4096), mask: rng.gen_range(1..=255) }
        }
        Failpoint::FeedDisconnect | Failpoint::FeedStall => {
            unreachable!("feed failpoints are not storage faults")
        }
    }
}

/// A call index in `lo..=hi` not yet scheduled in `taken`; `None` when
/// the window is exhausted.
fn sample_free_index(
    rng: &mut SmallRng,
    lo: u32,
    hi: u32,
    taken: &BTreeMap<u32, IoFault>,
) -> Option<u32> {
    let free: Vec<u32> = (lo..=hi).filter(|i| !taken.contains_key(i)).collect();
    if free.is_empty() {
        return None;
    }
    Some(free[rng.gen_range(0..free.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> FailpointSpec {
        FailpointSpec::parse(s).unwrap()
    }

    #[test]
    fn spec_parses_and_rejects_garbage() {
        let s = spec("wal-append-enospc=2,feed-disconnect=1");
        assert_eq!(s.count(Failpoint::WalAppendEnospc), 2);
        assert_eq!(s.count(Failpoint::FeedDisconnect), 1);
        assert_eq!(s.count(Failpoint::WalSyncFail), 0);
        assert!(!s.is_empty());
        assert!(FailpointSpec::parse("").unwrap().is_empty());
        assert!(FailpointSpec::parse("meteors=1").is_err());
        assert!(FailpointSpec::parse("wal-sync-fail").is_err());
        assert!(FailpointSpec::parse("wal-sync-fail=-1").is_err());
    }

    #[test]
    fn every_label_round_trips_through_parse() {
        for fp in Failpoint::ALL {
            let s = spec(&format!("{}=1", fp.label()));
            assert_eq!(s.count(fp), 1, "{}", fp.label());
        }
    }

    /// The acceptance criterion: the schedule is a pure function of the
    /// seed — two generations agree call-for-call over a long horizon.
    #[test]
    fn same_seed_same_schedule() {
        let s = spec("wal-append-enospc=1,wal-sync-fail=1,snap-write-enospc=1,feed-stall=1");
        let a = FailpointPlan::generate(7, &s);
        let b = FailpointPlan::generate(7, &s);
        assert_eq!(a.feed_faults(), b.feed_faults());
        for op in IoOp::ALL {
            for _ in 0..200 {
                assert_eq!(a.check(op), b.check(op), "{op:?}");
            }
        }
        let c = FailpointPlan::generate(8, &s);
        let mut diverged = c.feed_faults() != a.feed_faults();
        let a2 = FailpointPlan::generate(7, &s);
        for op in IoOp::ALL {
            for _ in 0..200 {
                diverged |= a2.check(op) != c.check(op);
            }
        }
        assert!(diverged, "a different seed must move at least one fault");
    }

    #[test]
    fn requested_counts_fire_exactly() {
        let s = spec("wal-append-enospc=3,wal-append-short=2,snap-read-corrupt=1");
        let plan = FailpointPlan::generate(11, &s);
        assert!(plan.has_storage_faults());
        let mut fired = Vec::new();
        for _ in 0..200 {
            if let Some(f) = plan.check(IoOp::WalAppend) {
                fired.push(f);
            }
        }
        assert_eq!(fired.len(), 5, "3 enospc + 2 short writes on the append path");
        assert_eq!(fired.iter().filter(|f| matches!(f, IoFault::NoSpace)).count(), 3);
        let reads: Vec<_> = (0..10).filter_map(|_| plan.check(IoOp::SnapshotRead)).collect();
        assert_eq!(reads.len(), 1);
        assert!(matches!(reads[0], IoFault::CorruptByte { mask, .. } if mask != 0));
        assert_eq!(plan.calls(IoOp::WalAppend), 200);
    }

    #[test]
    fn feed_lines_are_sampled_in_window() {
        let s = spec("feed-disconnect=1,feed-stall=1");
        let plan = FailpointPlan::generate(3, &s);
        let feed = plan.feed_faults();
        let line = feed.disconnect_at_line.unwrap();
        assert!((2..=33).contains(&line));
        let (stall_line, ms) = feed.stall.unwrap();
        assert!((2..=33).contains(&stall_line));
        assert_eq!(ms, STALL_MS);
        assert!(!feed.is_empty());
        assert!(!plan.has_storage_faults());
    }

    #[test]
    fn exact_plan_fires_on_the_named_call() {
        let plan = FailpointPlan::exact(&[(IoOp::WalSync, 3, IoFault::SyncFailed)]);
        assert_eq!(plan.check(IoOp::WalSync), None);
        assert_eq!(plan.check(IoOp::WalSync), None);
        assert_eq!(plan.check(IoOp::WalSync), Some(IoFault::SyncFailed));
        assert_eq!(plan.check(IoOp::WalSync), None);
    }
}
