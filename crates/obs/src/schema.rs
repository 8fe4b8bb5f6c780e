//! Validators for the documented telemetry schema (see DESIGN.md).
//!
//! Used by the `obs_check` CLI binary and the CI observability job to
//! confirm that an emitted trace/summary pair matches the contract
//! before it is archived as a perf-trajectory artifact.

use crate::event::{RejectReason, EVENT_KINDS};
use crate::json::{self, Value};
use crate::span::Stage;
use crate::{ALG4_FIELDS, STEADY_SCHEMA, SUMMARY_SCHEMA};

/// Field spec: name, expected type.
#[derive(Clone, Copy)]
enum Ty {
    Num,
    Bool,
    Str,
    Obj,
}

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

/// Validates one JSONL trace line against the event schema.
pub fn validate_event_line(line: &str) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let kind = v
        .get("ev")
        .and_then(|k| k.as_str())
        .ok_or_else(|| "missing string field \"ev\"".to_string())?
        .to_string();
    match kind.as_str() {
        "arrival" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("req", Ty::Num), ("offline", Ty::Bool)],
            "arrival",
        ),
        "dispatch" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("req", Ty::Num),
                ("candidates", Ty::Num),
                ("feasible", Ty::Num),
            ],
            "dispatch",
        ),
        "commit" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("req", Ty::Num),
                ("taxi", Ty::Num),
                ("detour_s", Ty::Num),
                ("schedule_len", Ty::Num),
            ],
            "commit",
        ),
        "reject" => {
            check_fields(
                &v,
                &[("ev", Ty::Str), ("t", Ty::Num), ("req", Ty::Num), ("reason", Ty::Str)],
                "reject",
            )?;
            let reason = v.get("reason").and_then(|r| r.as_str()).unwrap_or("");
            if RejectReason::from_label(reason).is_none() {
                return Err(format!("reject: unknown reason \"{reason}\""));
            }
            Ok(())
        }
        "encounter" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("req", Ty::Num), ("taxi", Ty::Num)],
            "encounter",
        ),
        "pickup" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("req", Ty::Num),
                ("taxi", Ty::Num),
                ("wait_s", Ty::Num),
            ],
            "pickup",
        ),
        "dropoff" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("req", Ty::Num),
                ("taxi", Ty::Num),
                ("detour_s", Ty::Num),
            ],
            "dropoff",
        ),
        "breakdown" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("taxi", Ty::Num), ("orphans", Ty::Num)],
            "breakdown",
        ),
        "cancel" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("req", Ty::Num), ("assigned", Ty::Bool)],
            "cancel",
        ),
        "traffic_shift" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("node", Ty::Num),
                ("radius_m", Ty::Num),
                ("factor", Ty::Num),
                ("duration_s", Ty::Num),
            ],
            "traffic_shift",
        ),
        "reroute" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("taxi", Ty::Num),
                ("renegotiated", Ty::Num),
                ("dropped", Ty::Num),
            ],
            "reroute",
        ),
        "redispatch" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("req", Ty::Num),
                ("attempt", Ty::Num),
                ("ok", Ty::Bool),
            ],
            "redispatch",
        ),
        "invariant_violation" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("check", Ty::Str)],
            "invariant_violation",
        ),
        "checkpoint" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("step", Ty::Num), ("bytes", Ty::Num)],
            "checkpoint",
        ),
        "restore" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("step", Ty::Num),
                ("snapshot_step", Ty::Num),
                ("wal_replayed", Ty::Num),
            ],
            "restore",
        ),
        "storage_fault" => check_fields(
            &v,
            &[
                ("ev", Ty::Str),
                ("t", Ty::Num),
                ("step", Ty::Num),
                ("op", Ty::Str),
                ("class", Ty::Str),
            ],
            "storage_fault",
        ),
        "durability_degraded" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("step", Ty::Num), ("quarantined", Ty::Bool)],
            "durability_degraded",
        ),
        "feed_fault" => check_fields(
            &v,
            &[("ev", Ty::Str), ("t", Ty::Num), ("line", Ty::Num), ("kind", Ty::Str)],
            "feed_fault",
        ),
        other => Err(format!("unknown event kind \"{other}\"")),
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
    for kind in EVENT_KINDS {
        require_num(events, "events", kind)?;
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
    let counters = prof.get("counters").ok_or("profiling: missing \"counters\"")?;
    for f in [
        "filter_partitions_considered",
        "filter_partitions_kept",
        "insertions_attempted",
        "insertions_feasible",
    ] {
        require_num(counters, "counters", f)?;
    }
    let cache = prof.get("path_cache").ok_or("profiling: missing \"path_cache\"")?;
    for f in ["hits", "misses", "evictions", "hit_ratio"] {
        require_num(cache, "path_cache", f)?;
    }
    let oracle = prof.get("oracle").ok_or("profiling: missing \"oracle\"")?;
    for f in ["pin_computes", "evictions"] {
        require_num(oracle, "oracle", f)?;
    }
    // hit_ratio = hits / lookups: in [0, 1], and exactly 1 when nothing
    // missed (it used to read 0 there — hits were divided by searches).
    let num = |f| require_num(oracle, "oracle", f);
    let (hits, searches, ratio) = (num("vector_hits")?, num("searches")?, num("hit_ratio")?);
    if !(0.0..=1.0).contains(&ratio) {
        return Err(format!("oracle: hit_ratio {ratio} outside [0, 1]"));
    }
    if searches == 0.0 && hits > 0.0 && ratio != 1.0 {
        return Err(format!("oracle: hit_ratio {ratio} with {hits} hits and no searches"));
    }
    let ch = prof.get("ch").ok_or("profiling: missing \"ch\"")?;
    for f in ["p2p_queries", "bucket_sweeps", "bucket_sources", "shortcuts"] {
        require_num(ch, "ch", f)?;
    }
    let cch = prof.get("cch").ok_or("profiling: missing \"cch\"")?;
    for f in ["p2p_queries", "bucket_sweeps", "bucket_sources", "customizations", "fill_arcs"] {
        require_num(cch, "cch", f)?;
    }
    let persist = prof.get("persistence").ok_or("profiling: missing \"persistence\"")?;
    for f in ["checkpoints", "restores", "wal_records", "wal_bytes"] {
        require_num(persist, "persistence", f)?;
    }
    require_hist_block(persist, "checkpoint_bytes", "b")?;
    require_hist_block(persist, "checkpoint_write_ms", "ms")?;
    let faults = prof.get("faults").ok_or("profiling: missing \"faults\"")?;
    for f in ["wal", "snapshot", "feed", "dir_sync_unsupported", "quarantines"] {
        require_num(faults, "faults", f)?;
    }
    let lap = prof.get("lap").ok_or("profiling: missing \"lap\"")?;
    for f in ["solves", "rows", "cols", "assigned", "augmentations", "relaxations", "skipped_rows"]
    {
        require_num(lap, "lap", f)?;
    }
    let dtree = prof.get("dtree").ok_or("profiling: missing \"dtree\"")?;
    for f in [
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
    ] {
        require_num(dtree, "dtree", f)?;
    }
    // Present only when Alg. 4 routed a leg.
    if let Some(alg4) = prof.get("alg4") {
        let mut n = [0.0; 6];
        for (slot, f) in n.iter_mut().zip(ALG4_FIELDS) {
            *slot = require_num(alg4, "alg4", f)?;
        }
        if n[0] == 0.0 || n[1] != n[2] + n[3] || n[0] != n[4] + n[5] {
            return Err(format!("alg4: {n:?} breaks legs > 0, corridors == unreachable + searches or legs == accepted + fallbacks"));
        }
    }
    require_hist_block(prof, "response_ms", "ms")?;
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
    check_fields(
        &v,
        &[
            ("schema", Ty::Str),
            ("t", Ty::Num),
            ("interval_s", Ty::Num),
            ("arrivals", Ty::Num),
            ("commits", Ty::Num),
            ("rejects", Ty::Num),
            ("shed", Ty::Num),
            ("queue_peak", Ty::Num),
            ("ingested", Ty::Num),
            ("steps", Ty::Num),
            ("stage_p95_us", Ty::Obj),
            ("rss_bytes", Ty::Num),
        ],
        "steady",
    )?;
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
    use crate::{ExternalStats, Obs, RunInfo};

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
        obs.set_external_stats(ExternalStats::default());
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
        obs.add_alg4(2, 3, false);
        obs.add_alg4(1, 1, true);
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
        obs.set_external_stats(ExternalStats { oracle_vector_hits: 9, ..Default::default() });
        let summary = obs.summary_json().unwrap();
        validate_summary(&summary).unwrap_or_else(|e| panic!("{e}\n{summary}"));
        // The pre-fix writer's output (hits / searches → 0) is refused,
        // and so is anything outside [0, 1].
        let needle = "\"evictions\":0,\"hit_ratio\":1}";
        assert!(summary.contains(needle), "{summary}");
        for bad in ["0", "1.5"] {
            let forged = summary.replace(needle, &format!("\"evictions\":0,\"hit_ratio\":{bad}}}"));
            assert!(validate_summary(&forged).is_err(), "hit_ratio {bad} accepted");
        }
    }
}
