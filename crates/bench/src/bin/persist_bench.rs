//! Persistence overhead bench: the default peak scenario with and
//! without checkpoint/WAL persistence, written to `BENCH_persist.json`.
//!
//! Reports checkpoint write latency (from the obs persistence
//! histograms), snapshot sizes, WAL volume, and the steady-state wall
//! clock overhead of running with `--checkpoint-every` at a realistic
//! cadence — the budget is ≤ 5%.
//!
//! Usage: `persist_bench [OUT.json]` (default: `BENCH_persist.json` at
//! the workspace root). `MTSHARE_BENCH_RUNS` overrides the per-config
//! repetition count (default 3; best-of is reported).

use mtshare_core::PartitionStrategy;
use mtshare_obs::Obs;
use mtshare_road::{grid_city, GridCityConfig};
use mtshare_routing::PathCache;
use mtshare_sim::{
    build_context, PersistConfig, Scenario, ScenarioConfig, SchemeKind, SimConfig, Simulator,
};
use std::fmt::Write as _;
use std::sync::Arc;

const TAXIS: usize = 60;
const CHECKPOINT_EVERY: u64 = 256;
const TARGET_OVERHEAD_PCT: f64 = 5.0;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(default_out);
    let runs: usize =
        std::env::var("MTSHARE_BENCH_RUNS").ok().and_then(|v| v.parse().ok()).unwrap_or(3).max(1);

    let graph = Arc::new(grid_city(&GridCityConfig::default()).expect("city"));
    let warm = PathCache::new(graph.clone());
    let scenario = Scenario::generate(graph.clone(), &warm, ScenarioConfig::peak(TAXIS));
    let ctx = build_context(&graph, &scenario.historical, 24, PartitionStrategy::Bipartite);

    let state_dir =
        std::env::temp_dir().join(format!("mtshare-persist-bench-{}", std::process::id()));

    eprintln!(
        "[persist_bench] {} runs per config, {TAXIS} taxis, {} requests",
        runs,
        scenario.requests.len()
    );
    let mut base_wall = f64::INFINITY;
    for _ in 0..runs {
        let (wall, _) = run_once(&graph, &scenario, &ctx, None);
        base_wall = base_wall.min(wall);
    }
    let mut persist_wall = f64::INFINITY;
    let mut summary = String::new();
    for _ in 0..runs {
        let pc =
            PersistConfig { checkpoint_every: CHECKPOINT_EVERY, ..PersistConfig::new(&state_dir) };
        let (wall, s) = run_once(&graph, &scenario, &ctx, Some(pc));
        if wall < persist_wall {
            persist_wall = wall;
            summary = s.expect("telemetry enabled");
        }
    }
    let _ = std::fs::remove_dir_all(&state_dir);

    let overhead_pct = (persist_wall - base_wall) / base_wall * 100.0;
    let persistence = section(&summary, "\"persistence\":");
    let checkpoints = field(persistence, "\"checkpoints\":");
    let wal_records = field(persistence, "\"wal_records\":");
    let wal_bytes = field(persistence, "\"wal_bytes\":");
    let bytes_block = section(persistence, "\"checkpoint_bytes\":");
    let write_block = section(persistence, "\"checkpoint_write_ms\":");

    let mut json = String::new();
    let _ = write!(
        json,
        r#"{{"schema":"mtshare-bench-persist/v1","scenario":{{"taxis":{TAXIS},"requests":{},"checkpoint_every":{CHECKPOINT_EVERY}}},"baseline_wall_s":{base_wall:.4},"persist_wall_s":{persist_wall:.4},"overhead_pct":{overhead_pct:.2},"target_overhead_pct":{TARGET_OVERHEAD_PCT},"within_target":{},"checkpoints":{checkpoints},"wal_records":{wal_records},"wal_bytes":{wal_bytes},"checkpoint_bytes":{{"p50":{},"max":{}}},"checkpoint_write_ms":{{"p50":{},"p95":{},"max":{}}}}}"#,
        scenario.requests.len(),
        overhead_pct <= TARGET_OVERHEAD_PCT,
        field(bytes_block, "\"p50_b\":"),
        field(bytes_block, "\"max_b\":"),
        field(write_block, "\"p50_ms\":"),
        field(write_block, "\"p95_ms\":"),
        field(write_block, "\"max_ms\":"),
    );
    json.push('\n');
    std::fs::write(&out_path, &json).expect("write bench output");
    eprintln!(
        "[persist_bench] baseline {base_wall:.3}s, with persistence {persist_wall:.3}s \
         ({overhead_pct:+.2}% vs ≤{TARGET_OVERHEAD_PCT}% target)"
    );
    eprintln!("[persist_bench] wrote {out_path}");
}

/// One full simulation; telemetry aggregates are enabled in *both*
/// configurations (no sinks) so the comparison is apples-to-apples.
fn run_once(
    graph: &Arc<mtshare_road::RoadNetwork>,
    scenario: &Scenario,
    ctx: &Arc<mtshare_core::MobilityContext>,
    persist: Option<PersistConfig>,
) -> (f64, Option<String>) {
    let obs = Obs::enabled();
    let cache = PathCache::new(graph.clone());
    let mut scheme =
        SchemeKind::MtShare.build(graph, scenario.taxis.len(), Some(ctx.clone()), None);
    let cfg = SimConfig { persist, ..SimConfig::default() };
    let report = Simulator::new(graph.clone(), cache, scenario, cfg)
        .with_obs(obs.clone())
        .run(scheme.as_mut());
    (report.wall_clock_s, obs.summary_json())
}

/// Slice of `json` starting right after `key` (panics if absent: the
/// summary schema is ours, and silence would hide a broken extraction).
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let i = json.find(key).unwrap_or_else(|| panic!("summary lacks {key}"));
    &json[i + key.len()..]
}

/// The numeric literal following `key` (digits, sign, dot, exponent).
fn field(json: &str, key: &str) -> f64 {
    let s = section(json, key);
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(s.len());
    s[..end].parse().unwrap_or_else(|e| panic!("bad number after {key}: {e}"))
}

fn default_out() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("BENCH_persist.json")
        .to_string_lossy()
        .into_owned()
}
