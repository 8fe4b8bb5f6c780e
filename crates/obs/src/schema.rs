//! The telemetry formats — one table each — and their validators.
//!
//! What a trace line, a `profiling` counter block of the summary and a
//! steady line look like is decided here and nowhere else:
//! [`EVENT_SCHEMA`], [`BLOCKS`] and [`STEADY_FIELDS`] are the source, the
//! writers (`Event::to_jsonl`, `Obs::summary_json`,
//! `SteadyTracker::report_line`) and the validators below walk the same
//! rows. A new event key or counter is one row here plus the one call
//! that supplies its value (see DESIGN.md, "Event schema" and "Summary
//! layout").
//!
//! The validators back the `obs_check` CLI binary and the CI
//! observability job, which confirm that an emitted trace/summary pair
//! matches the contract before it is archived as a perf-trajectory
//! artifact.

use crate::event::RejectReason;
use crate::json::{self, Value};
use crate::span::Stage;
use crate::{STEADY_SCHEMA, SUMMARY_SCHEMA};
use std::fmt::Write as _;
use Ty::{Bool, Num, Obj, Str};

/// JSON type of a documented field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ty {
    Num,
    Bool,
    Str,
    Obj,
}

/// One field value on its way into a line; its key comes from a table.
#[derive(Clone, Copy)]
pub(crate) enum Val<'a> {
    /// A float, in [`json::fmt_f64`] form.
    F(f64),
    /// A counter or id.
    U(u64),
    B(bool),
    /// A string, escaped on the way out.
    S(&'a str),
    /// An object already rendered as JSON.
    Raw(&'a str),
}

impl Val<'_> {
    pub(crate) fn ty(&self) -> Ty {
        match self {
            Val::F(_) | Val::U(_) => Ty::Num,
            Val::B(_) => Ty::Bool,
            Val::S(_) => Ty::Str,
            Val::Raw(_) => Ty::Obj,
        }
    }
}

/// Appends `"key":value` for each row field, comma-separated, no braces.
pub(crate) fn write_fields(out: &mut String, fields: &[(&str, Ty)], vals: &[Val<'_>]) {
    debug_assert_eq!(fields.len(), vals.len(), "values do not fill the row");
    for (i, ((key, ty), val)) in fields.iter().zip(vals).enumerate() {
        debug_assert_eq!(val.ty(), *ty, "value of the wrong type for \"{key}\"");
        // Plain pushes, not one `write!` per field: this runs per event.
        out.push_str(if i > 0 { ",\"" } else { "\"" });
        out.push_str(key);
        out.push_str("\":");
        match *val {
            Val::F(v) => json::write_f64(out, v),
            Val::U(v) => drop(write!(out, "{v}")),
            Val::B(v) => out.push_str(if v { "true" } else { "false" }),
            Val::S(v) => drop(write!(out, "\"{}\"", json::escape(v))),
            Val::Raw(v) => out.push_str(v),
        }
    }
}

/// One event kind: its `"ev"` label, whether it is a persistence/fault
/// meta kind, and its keys after `"ev"` in serialization order.
pub(crate) struct KindSpec {
    pub label: &'static str,
    pub meta: bool,
    pub fields: &'static [(&'static str, Ty)],
}

const fn kind(label: &'static str, fields: &'static [(&'static str, Ty)]) -> KindSpec {
    KindSpec { label, meta: false, fields }
}

const fn meta(label: &'static str, fields: &'static [(&'static str, Ty)]) -> KindSpec {
    KindSpec { label, meta: true, fields }
}

/// The trace format. Row order is `Event::kind_index` and the order of
/// the summary's `events` table; the meta kinds sit at the end so the
/// indices of the canonical kinds (and the snapshot encoding of their
/// counts) are stable. `Event::with_row` supplies each row's values.
pub(crate) const EVENT_SCHEMA: [KindSpec; 18] = [
    kind("arrival", &[("t", Num), ("req", Num), ("offline", Bool)]),
    kind("dispatch", &[("t", Num), ("req", Num), ("candidates", Num), ("feasible", Num)]),
    kind(
        "commit",
        &[("t", Num), ("req", Num), ("taxi", Num), ("detour_s", Num), ("schedule_len", Num)],
    ),
    kind("reject", &[("t", Num), ("req", Num), ("reason", Str)]),
    kind("encounter", &[("t", Num), ("req", Num), ("taxi", Num)]),
    kind("pickup", &[("t", Num), ("req", Num), ("taxi", Num), ("wait_s", Num)]),
    kind("dropoff", &[("t", Num), ("req", Num), ("taxi", Num), ("detour_s", Num)]),
    kind("breakdown", &[("t", Num), ("taxi", Num), ("orphans", Num)]),
    kind("cancel", &[("t", Num), ("req", Num), ("assigned", Bool)]),
    kind(
        "traffic_shift",
        &[("t", Num), ("node", Num), ("radius_m", Num), ("factor", Num), ("duration_s", Num)],
    ),
    kind("reroute", &[("t", Num), ("taxi", Num), ("renegotiated", Num), ("dropped", Num)]),
    kind("redispatch", &[("t", Num), ("req", Num), ("attempt", Num), ("ok", Bool)]),
    kind("invariant_violation", &[("t", Num), ("check", Str)]),
    meta("checkpoint", &[("t", Num), ("step", Num), ("bytes", Num)]),
    meta("restore", &[("t", Num), ("step", Num), ("snapshot_step", Num), ("wal_replayed", Num)]),
    meta("storage_fault", &[("t", Num), ("step", Num), ("op", Str), ("class", Str)]),
    meta("durability_degraded", &[("t", Num), ("step", Num), ("quarantined", Bool)]),
    meta("feed_fault", &[("t", Num), ("line", Num), ("kind", Str)]),
];

/// What a `profiling` counter block carries after its counters.
#[derive(Clone, Copy)]
pub(crate) enum Extra {
    None,
    /// `hit_ratio` = first counter / (first + second), 0 when both are 0.
    HitRatio,
    /// The two snapshot histograms, [`CHECKPOINT_HISTS`].
    CheckpointHists,
}

/// One `profiling` block of counters, in summary order.
#[derive(Clone, Copy)]
pub(crate) struct BlockSpec {
    pub name: &'static str,
    pub counters: &'static [&'static str],
    /// Written only once its first counter is non-zero.
    pub when_active: bool,
    /// Identities `counters[a] == counters[b] + counters[c]`, as `[a, b, c]`.
    pub sums: &'static [[usize; 3]],
    /// Bounds `counters[a] >= sum of counters[b]`, as `(a, &[b, ...])`.
    pub parts: &'static [(usize, &'static [usize])],
    pub extra: Extra,
}

const fn block(name: &'static str, counters: &'static [&'static str]) -> BlockSpec {
    BlockSpec { name, counters, when_active: false, sums: &[], parts: &[], extra: Extra::None }
}

/// Key of the derived ratio of an [`Extra::HitRatio`] block.
pub(crate) const HIT_RATIO: &str = "hit_ratio";

/// `(key, scale, unit)` of the histograms closing the `persistence` block.
pub(crate) const CHECKPOINT_HISTS: [(&str, f64, &str); 2] =
    [("checkpoint_bytes", 1.0, "b"), ("checkpoint_write_ms", 1e3, "ms")];

/// Keys of `profiling.process`, written before the closing histogram.
pub(crate) const PROCESS_FIELDS: [&str; 2] = ["loop_wall_s", "peak_rss_mb"];

/// `(key, scale, unit)` of the histogram closing `profiling`.
pub(crate) const RESPONSE_HIST: (&str, f64, &str) = ("response_ms", 1e3, "ms");

/// The counter blocks of `profiling`, between `stages` and `response_ms`.
/// `Obs::add(block, &[(counter, n)])` is the one way in; the counters live
/// in one flat array in this order.
pub(crate) const BLOCKS: [BlockSpec; 10] = [
    // Of the candidate taxis scored (`insertions_attempted`), some had a
    // feasible insertion and some were ruled out by the reach bound
    // before any DP or tree work (`insertions_pruned`); never both.
    // `candidate_union` sums the taxis in range before the search's rules.
    BlockSpec {
        parts: &[(2, &[3, 4])],
        ..block(
            "counters",
            &[
                "filter_partitions_considered",
                "filter_partitions_kept",
                "insertions_attempted",
                "insertions_feasible",
                "insertions_pruned",
                "candidate_union",
            ],
        )
    },
    BlockSpec { extra: Extra::HitRatio, ..block("path_cache", &["hits", "misses", "evictions"]) },
    // Every eviction frees a vector some pin computed; a pin re-swept for
    // a farther holder is a regrow, not a compute.
    BlockSpec {
        extra: Extra::HitRatio,
        parts: &[(2, &[4])],
        ..block(
            "oracle",
            &[
                "vector_hits",
                "searches",
                "pin_computes",
                "regrows",
                "evictions",
                "settled",
                "resident_peak",
            ],
        )
    },
    block("ch", &["p2p_queries", "bucket_sweeps", "bucket_sources", "shortcuts"]),
    block(
        "cch",
        &["p2p_queries", "bucket_sweeps", "bucket_sources", "customizations", "fill_arcs"],
    ),
    BlockSpec {
        extra: Extra::CheckpointHists,
        ..block("persistence", &["checkpoints", "restores", "wal_records", "wal_bytes"])
    },
    block("faults", &["wal", "snapshot", "feed", "dir_sync_unsupported", "quarantines"]),
    block(
        "lap",
        &["solves", "rows", "cols", "assigned", "augmentations", "relaxations", "skipped_rows"],
    ),
    block(
        "dtree",
        &[
            "scores",
            "rebuilds",
            "advances",
            "commits",
            "removes",
            "retimes",
            "legs_reused",
            "legs_filled",
            "memo_reuses",
            "memo_fills",
        ],
    ),
    // Probabilistic routing: corridors == unreachable + searches and
    // legs == accepted + fallbacks. The first block present only when its
    // feature ran; the others follow once `crates/e2e` reads them as
    // optional (ROADMAP item 5(c)).
    BlockSpec {
        when_active: true,
        sums: &[[1, 2, 3], [0, 4, 5]],
        ..block("alg4", &["legs", "corridors", "unreachable", "searches", "accepted", "fallbacks"])
    },
];

/// Counters in all of [`BLOCKS`].
pub(crate) const N_COUNTERS: usize = {
    let (mut n, mut i) = (0, 0);
    while i < BLOCKS.len() {
        n += BLOCKS[i].counters.len();
        i += 1;
    }
    n
};

/// Position of `counter` in the flat counter array, for a counter of the
/// block called `block`; `None` when the tables have no such pair.
pub(crate) fn slot(block: &str, counter: &str) -> Option<usize> {
    let at = BLOCKS.iter().position(|b| b.name == block)?;
    let base: usize = BLOCKS[..at].iter().map(|b| b.counters.len()).sum();
    BLOCKS[at].counters.iter().position(|c| *c == counter).map(|i| base + i)
}

/// The steady line, in key order.
pub(crate) const STEADY_FIELDS: [(&str, Ty); 12] = [
    ("schema", Str),
    ("t", Num),
    ("interval_s", Num),
    ("arrivals", Num),
    ("commits", Num),
    ("rejects", Num),
    ("shed", Num),
    ("queue_peak", Num),
    ("ingested", Num),
    ("steps", Num),
    ("stage_p95_us", Obj),
    ("rss_bytes", Num),
];

fn check_fields(v: &Value, required: &[(&str, Ty)], context: &str) -> Result<(), String> {
    let Some(fields) = v.as_obj() else {
        return Err(format!("{context}: not an object"));
    };
    for (name, ty) in required {
        let Some(val) = v.get(name) else {
            return Err(format!("{context}: missing field \"{name}\""));
        };
        let ok = match ty {
            Ty::Num => matches!(val, Value::Num(_)),
            Ty::Bool => matches!(val, Value::Bool(_)),
            Ty::Str => matches!(val, Value::Str(_)),
            Ty::Obj => matches!(val, Value::Obj(_)),
        };
        if !ok {
            return Err(format!("{context}: field \"{name}\" has wrong type"));
        }
    }
    // No undocumented fields: the stream is a contract, not a dumping
    // ground. (Additions require a schema bump.)
    for (k, _) in fields {
        if !required.iter().any(|(name, _)| name == k) {
            return Err(format!("{context}: unexpected field \"{k}\""));
        }
    }
    Ok(())
}

/// Validates one JSONL trace line against its [`EVENT_SCHEMA`] row.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let kind = v
        .get("ev")
        .and_then(|k| k.as_str())
        .ok_or_else(|| "missing string field \"ev\"".to_string())?;
    let row = EVENT_SCHEMA
        .iter()
        .find(|row| row.label == kind)
        .ok_or_else(|| format!("unknown event kind \"{kind}\""))?;
    let mut fields = vec![("ev", Ty::Str)];
    fields.extend_from_slice(row.fields);
    check_fields(&v, &fields, kind)?;
    match v.get("reason").and_then(|r| r.as_str()) {
        Some(reason) if RejectReason::from_label(reason).is_none() => {
            Err(format!("{kind}: unknown reason \"{reason}\""))
        }
        _ => Ok(()),
    }
}

/// Validates a whole JSONL trace; returns the number of valid lines.
/// Blank lines are not allowed (the writer never produces them).
pub fn validate_trace(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    let mut last_t = f64::NEG_INFINITY;
    for (i, line) in text.lines().enumerate() {
        validate_event_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        // Sim-time stamps must be non-decreasing: events are emitted in
        // commit order.
        let v = json::parse(line).expect("validated above");
        let t = v.get("t").and_then(|t| t.as_num()).expect("validated above");
        if t < last_t {
            return Err(format!("line {}: sim time went backwards ({t} < {last_t})", i + 1));
        }
        last_t = t;
        n += 1;
    }
    Ok(n)
}

fn require_num(v: &Value, ctx: &str, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|n| n.as_num())
        .ok_or_else(|| format!("{ctx}: missing numeric field \"{key}\""))
}

fn require_stat_block(v: &Value, key: &str) -> Result<(), String> {
    let block = v.get(key).ok_or_else(|| format!("missing stat block \"{key}\""))?;
    for f in ["count", "mean", "p50", "p95", "p99", "min", "max"] {
        require_num(block, key, f)?;
    }
    Ok(())
}

fn require_hist_block(v: &Value, key: &str, unit: &str) -> Result<(), String> {
    let block = v.get(key).ok_or_else(|| format!("missing histogram block \"{key}\""))?;
    let count = require_num(block, key, "count")?;
    require_num(block, key, "total_s")?;
    // Quantiles are clamped to the recorded maximum, so a populated block
    // must read p50 ≤ p95 ≤ p99 ≤ max (a bucket midpoint used to exceed it).
    let mut prev = ("", 0.0);
    for q in ["p50", "p95", "p99", "max"] {
        let value = require_num(block, key, &format!("{q}_{unit}"))?;
        if count > 0.0 && value < prev.1 {
            return Err(format!("{key}: {q}_{unit} {value} < {}_{unit} {}", prev.0, prev.1));
        }
        prev = (q, value);
    }
    Ok(())
}

/// Checks one `profiling` counter block against its [`BLOCKS`] row: every
/// counter a number, the row's identities, and what follows the counters.
fn check_block(block: &Value, b: &BlockSpec) -> Result<(), String> {
    let name = b.name;
    let mut c = Vec::with_capacity(b.counters.len());
    for f in b.counters {
        c.push(require_num(block, name, f)?);
    }
    if b.when_active && c[0] == 0.0 {
        return Err(format!("{name}: present with {} == 0", b.counters[0]));
    }
    let n = b.counters;
    if let Some(&[t, x, y]) = b.sums.iter().find(|&&[t, x, y]| c[t] != c[x] + c[y]) {
        return Err(format!("{name}: {c:?} breaks {} == {} + {}", n[t], n[x], n[y]));
    }
    if let Some((t, xs)) = b.parts.iter().find(|(t, xs)| c[*t] < xs.iter().map(|&x| c[x]).sum()) {
        let xs: Vec<&str> = xs.iter().map(|&x| n[x]).collect();
        return Err(format!("{name}: {c:?} breaks {} >= {}", n[*t], xs.join(" + ")));
    }
    match b.extra {
        Extra::None => {}
        // hit_ratio = hits / lookups: in [0, 1], and exactly 1 when nothing
        // missed (it used to read 0 there — hits were divided by searches).
        Extra::HitRatio => {
            let ratio = require_num(block, name, HIT_RATIO)?;
            if !(0.0..=1.0).contains(&ratio) {
                return Err(format!("{name}: {HIT_RATIO} {ratio} outside [0, 1]"));
            }
            if c[1] == 0.0 && c[0] > 0.0 && ratio != 1.0 {
                return Err(format!("{name}: {HIT_RATIO} {ratio} with {} hits, no misses", c[0]));
            }
        }
        Extra::CheckpointHists => {
            for (key, _, unit) in CHECKPOINT_HISTS {
                require_hist_block(block, key, unit)?;
            }
        }
    }
    Ok(())
}

/// Validates a summary JSON document against the documented layout.
pub fn validate_summary(text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some(SUMMARY_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema \"{other}\"")),
        None => return Err("missing \"schema\"".to_string()),
    }
    let run = v.get("run").ok_or("missing \"run\"")?;
    if run.get("scheme").and_then(|s| s.as_str()).is_none() {
        return Err("run: missing string field \"scheme\"".to_string());
    }
    for f in ["taxis", "requests", "offline"] {
        require_num(run, "run", f)?;
    }
    let events = v.get("events").ok_or("missing \"events\"")?;
    for kind in &EVENT_SCHEMA {
        require_num(events, "events", kind.label)?;
    }
    let rej = v.get("rejections").ok_or("missing \"rejections\"")?;
    let mut total = 0.0;
    for reason in RejectReason::ALL {
        total += require_num(rej, "rejections", reason.label())?;
    }
    if require_num(rej, "rejections", "total")? != total {
        return Err("rejections: total does not equal the sum of reasons".to_string());
    }
    if require_num(events, "events", "reject")? != total {
        return Err("events.reject does not match rejections.total".to_string());
    }
    for block in ["candidates", "feasible", "waiting_s", "detour_s"] {
        require_stat_block(&v, block)?;
    }
    let prof = v.get("profiling").ok_or("missing \"profiling\"")?;
    let stages = prof.get("stages").ok_or("profiling: missing \"stages\"")?;
    for stage in Stage::ALL {
        require_hist_block(stages, stage.label(), "us")?;
    }
    for b in &BLOCKS {
        match prof.get(b.name) {
            Some(block) => check_block(block, b)?,
            None if b.when_active => {}
            None => return Err(format!("profiling: missing \"{}\"", b.name)),
        }
    }
    let process = prof.get("process").ok_or("profiling: missing \"process\"")?;
    for key in PROCESS_FIELDS {
        if require_num(process, "process", key)? < 0.0 {
            return Err(format!("process: negative {key}"));
        }
    }
    require_hist_block(prof, RESPONSE_HIST.0, RESPONSE_HIST.2)?;
    Ok(())
}

/// Validates one steady-state report JSONL line.
pub fn validate_steady_line(line: &str) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    match v.get("schema").and_then(|s| s.as_str()) {
        Some(STEADY_SCHEMA) => {}
        Some(other) => return Err(format!("unknown steady schema \"{other}\"")),
        None => return Err("missing \"schema\"".to_string()),
    }
    check_fields(&v, &STEADY_FIELDS, "steady")?;
    let stages = v.get("stage_p95_us").expect("checked above");
    for stage in Stage::ALL {
        require_num(stages, "stage_p95_us", stage.label())?;
    }
    Ok(())
}

/// Validates a whole steady-state JSONL stream: every line against
/// [`validate_steady_line`], virtual time non-decreasing, the
/// `ingested`/`steps` gauges monotone. Returns the line count.
pub fn validate_steady(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    let mut last_t = f64::NEG_INFINITY;
    let mut last_ingested = 0.0f64;
    let mut last_steps = 0.0f64;
    for (i, line) in text.lines().enumerate() {
        validate_steady_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let v = json::parse(line).expect("validated above");
        let t = v.get("t").and_then(|t| t.as_num()).expect("validated above");
        if t < last_t {
            return Err(format!("line {}: virtual time went backwards ({t} < {last_t})", i + 1));
        }
        last_t = t;
        for (key, last) in [("ingested", &mut last_ingested), ("steps", &mut last_steps)] {
            let g = v.get(key).and_then(|g| g.as_num()).expect("validated above");
            if g < *last {
                return Err(format!("line {}: gauge \"{key}\" went backwards", i + 1));
            }
            *last = g;
        }
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::steady::{SteadyExtra, SteadyTracker};
    use crate::{Obs, RunInfo};

    #[test]
    fn writer_output_passes_event_validation() {
        let evs = [
            Event::Arrival { t: 0.0, req: 0, offline: false },
            Event::Dispatch { t: 0.0, req: 0, candidates: 3, feasible: 1 },
            Event::Commit { t: 0.0, req: 0, taxi: 5, detour_s: 1.25, schedule_len: 2 },
            Event::Reject { t: 1.0, req: 1, reason: RejectReason::ZeroCapacity },
            Event::Encounter { t: 2.0, req: 2, taxi: 5 },
            Event::Pickup { t: 3.0, req: 0, taxi: 5, wait_s: 3.0 },
            Event::Dropoff { t: 4.0, req: 0, taxi: 5, detour_s: 1.25 },
            Event::Breakdown { t: 5.0, taxi: 5, orphans: 2 },
            Event::Cancel { t: 5.5, req: 3, assigned: false },
            Event::TrafficShift {
                t: 6.0,
                node: 17,
                radius_m: 500.0,
                factor: 0.6,
                duration_s: 300.0,
            },
            Event::Reroute { t: 6.5, taxi: 5, renegotiated: 0, dropped: 1 },
            Event::Redispatch { t: 7.0, req: 2, attempt: 1, ok: true },
            Event::Reject { t: 7.0, req: 2, reason: RejectReason::TaxiFailed },
            Event::InvariantViolation { t: 8.0, check: "passenger_conservation".to_string() },
            Event::Checkpoint { t: 9.0, step: 128, bytes: 4096 },
            Event::Restore { t: 9.5, step: 150, snapshot_step: 128, wal_replayed: 22 },
            Event::StorageFault { t: 9.75, step: 160, op: "snapshot_write", class: "no_space" },
            Event::DurabilityDegraded { t: 9.75, step: 160, quarantined: true },
            Event::FeedFault { t: 10.0, line: 321, kind: "oversized_line" },
        ];
        let trace: String = evs.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(validate_trace(&trace), Ok(evs.len()));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "not json",
            r#"{"t":1}"#,                                              // no ev
            r#"{"ev":"warp","t":1}"#,                                  // unknown kind
            r#"{"ev":"arrival","t":1,"req":2}"#,                       // missing offline
            r#"{"ev":"arrival","t":1,"req":2,"offline":"yes"}"#,       // wrong type
            r#"{"ev":"arrival","t":1,"req":2,"offline":true,"x":1}"#,  // extra field
            r#"{"ev":"reject","t":1,"req":2,"reason":"cosmic_rays"}"#, // unknown reason
            r#"{"ev":"breakdown","t":1,"taxi":2}"#,                    // missing orphans
            r#"{"ev":"redispatch","t":1,"req":2,"attempt":1,"ok":1}"#, // wrong type
            r#"{"ev":"checkpoint","t":1,"step":2}"#,                   // missing bytes
            r#"{"ev":"restore","t":1,"step":2,"snapshot_step":"a","wal_replayed":0}"#, // wrong type
            r#"{"ev":"storage_fault","t":1,"step":2,"op":"wal_append"}"#, // missing class
            r#"{"ev":"durability_degraded","t":1,"step":2,"quarantined":"yes"}"#, // wrong type
            r#"{"ev":"feed_fault","t":1,"line":2}"#,                   // missing kind
        ] {
            assert!(validate_event_line(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn time_must_be_non_decreasing() {
        let good = "{\"ev\":\"encounter\",\"t\":1,\"req\":0,\"taxi\":0}\n\
                    {\"ev\":\"encounter\",\"t\":1,\"req\":1,\"taxi\":0}\n";
        assert_eq!(validate_trace(good), Ok(2));
        let bad = "{\"ev\":\"encounter\",\"t\":2,\"req\":0,\"taxi\":0}\n\
                   {\"ev\":\"encounter\",\"t\":1,\"req\":1,\"taxi\":0}\n";
        assert!(validate_trace(bad).is_err());
    }

    #[test]
    fn real_summary_passes_validation() {
        let obs = Obs::enabled();
        obs.set_run_info(RunInfo {
            scheme: "mt-share".into(),
            n_taxis: 2,
            n_requests: 3,
            n_offline: 0,
        });
        obs.emit(Event::Reject { t: 0.0, req: 0, reason: RejectReason::EmptyFleet });
        let summary = obs.summary_json().unwrap();
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
    }

    #[test]
    fn real_steady_stream_passes_validation() {
        let obs = Obs::enabled();
        let mut tracker = SteadyTracker::new(&obs);
        obs.emit(Event::Arrival { t: 1.0, req: 0, offline: false });
        let mut stream = String::new();
        let extra = SteadyExtra { queue_peak: 1, ingested: 1, steps: 2 };
        stream.push_str(&tracker.report_line(&obs, 10.0, &extra).unwrap());
        stream.push('\n');
        obs.emit(Event::Reject { t: 12.0, req: 0, reason: RejectReason::QueueShed });
        let extra = SteadyExtra { queue_peak: 0, ingested: 1, steps: 3 };
        stream.push_str(&tracker.report_line(&obs, 20.0, &extra).unwrap());
        stream.push('\n');
        assert_eq!(validate_steady(&stream), Ok(2), "{stream}");
    }

    #[test]
    fn malformed_steady_lines_are_rejected() {
        let obs = Obs::enabled();
        let mut tracker = SteadyTracker::new(&obs);
        let good = tracker.report_line(&obs, 5.0, &SteadyExtra::default()).unwrap();
        assert!(validate_steady_line(&good).is_ok());
        for bad in [
            "not json".to_string(),
            good.replace(crate::STEADY_SCHEMA, "mtshare-obs-steady/v0"), // wrong schema
            good.replace("\"arrivals\":0,", ""),                         // missing field
            good.replace("\"shed\":0", "\"shed\":0,\"extra\":1"),        // undocumented field
            good.replace("\"commit\":0", "\"commit\":\"fast\""),         // stage not a number
        ] {
            assert!(validate_steady_line(&bad).is_err(), "{bad} should fail");
        }
        // Time or gauges going backwards fail the stream check.
        let later = tracker.report_line(&obs, 9.0, &SteadyExtra::default()).unwrap();
        let backwards = format!("{later}\n{good}\n");
        assert!(validate_steady(&backwards).is_err());
        let regress = tracker
            .report_line(&obs, 11.0, &SteadyExtra { queue_peak: 0, ingested: 5, steps: 9 })
            .unwrap();
        let shrink = tracker
            .report_line(&obs, 12.0, &SteadyExtra { queue_peak: 0, ingested: 4, steps: 9 })
            .unwrap();
        assert!(validate_steady(&format!("{regress}\n{shrink}\n")).is_err());
    }

    #[test]
    fn inconsistent_summary_totals_are_rejected() {
        let obs = Obs::enabled();
        obs.emit(Event::Reject { t: 0.0, req: 0, reason: RejectReason::EmptyFleet });
        let summary = obs.summary_json().unwrap();
        // Forge the total.
        let forged = summary.replace("\"total\":1", "\"total\":2");
        assert!(validate_summary(&forged).is_err());
    }

    #[test]
    fn alg4_block_is_present_only_after_a_leg_and_holds_its_identities() {
        let obs = Obs::enabled();
        let quiet = obs.summary_json().unwrap();
        assert!(!quiet.contains("\"alg4\""), "{quiet}");
        validate_summary(&quiet).unwrap();
        let leg = |unreachable, searches, accepted| {
            [
                ("legs", 1),
                ("corridors", unreachable + searches),
                ("unreachable", unreachable),
                ("searches", searches),
                ("accepted", accepted),
                ("fallbacks", 1 - accepted),
            ]
        };
        obs.add("alg4", &leg(2, 3, 0));
        obs.add("alg4", &leg(1, 1, 1));
        let summary = obs.summary_json().unwrap();
        let block = r#""alg4":{"legs":2,"corridors":7,"unreachable":3,"searches":4,"accepted":1,"fallbacks":1},"#;
        assert!(summary.contains(block), "{summary}");
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
        for forged in ["\"searches\":5", "\"fallbacks\":0", "\"legs\":0"] {
            let field = &forged[..forged.len() - 1];
            let at = summary.rfind(field).unwrap();
            let bad = format!("{}{forged}{}", &summary[..at], &summary[at + forged.len()..]);
            assert!(validate_summary(&bad).unwrap_err().starts_with("alg4:"), "{bad}");
        }
    }

    #[test]
    fn pruned_and_feasible_taxis_are_parts_of_the_attempted() {
        let obs = Obs::enabled();
        let counts =
            [("insertions_attempted", 5), ("insertions_feasible", 2), ("insertions_pruned", 3)];
        obs.add("counters", &counts);
        let summary = obs.summary_json().unwrap();
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
        let forged = summary.replace("\"insertions_pruned\":3", "\"insertions_pruned\":4");
        let err = validate_summary(&forged).unwrap_err();
        assert!(err.contains("insertions_attempted >= insertions_feasible + insertions_pruned"));
    }

    #[test]
    fn stage_quantiles_must_be_ordered_below_the_maximum() {
        let obs = Obs::enabled();
        drop(obs.stage(Stage::Commit));
        let summary = obs.summary_json().unwrap();
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
        // A populated stage whose maximum reads below its quantiles (the
        // unclamped writer's `p50 324 ms > max 317 ms`) is refused.
        let block = summary.find("\"commit\":{\"count\":1,").expect("commit stage recorded");
        let max = block + summary[block..].find("\"max_us\":").unwrap() + "\"max_us\":".len();
        let end = max + summary[max..].find('}').unwrap();
        let forged = format!("{}-1{}", &summary[..max], &summary[end..]);
        let err = validate_summary(&forged).unwrap_err();
        assert!(err.contains("commit: max_us"), "{err}");
    }

    #[test]
    fn oracle_hit_ratio_must_be_one_when_nothing_missed() {
        let obs = Obs::enabled();
        obs.add("oracle", &[("vector_hits", 9)]);
        let summary = obs.summary_json().unwrap();
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
        // The pre-fix writer's output (hits / searches → 0) is refused,
        // and so is anything outside [0, 1].
        let needle = "\"resident_peak\":0,\"hit_ratio\":1}";
        assert!(summary.contains(needle), "{summary}");
        for bad in ["0", "1.5"] {
            let forged =
                summary.replace(needle, &format!("\"resident_peak\":0,\"hit_ratio\":{bad}}}"));
            assert!(validate_summary(&forged).is_err(), "hit_ratio {bad} accepted");
        }
    }

    #[test]
    fn oracle_evictions_never_outnumber_pin_computes() {
        let obs = Obs::enabled();
        obs.add("oracle", &[("pin_computes", 3), ("regrows", 2), ("evictions", 3)]);
        let summary = obs.summary_json().unwrap();
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
        let forged = summary.replace("\"evictions\":3", "\"evictions\":4");
        let err = validate_summary(&forged).unwrap_err();
        assert!(err.contains("oracle: ") && err.contains("pin_computes >= evictions"), "{err}");
    }
}
