//! `mtshare` — command-line front end for the reproduction.
//!
//! ```text
//! mtshare simulate --scheme mt-share --taxis 120 --requests 1200 [--nonpeak]
//! mtshare serve --feed requests.jsonl [--pace 30] [--admission shed-oldest]
//! mtshare partition --kappa 32 --out partitions.geojson [--grid]
//! mtshare stats [--hours 24]
//! mtshare trace <file.csv>     # GAIA-format trace sanity check
//! ```
//!
//! Everything runs on the synthetic city (`--rows/--cols` to resize);
//! `trace` additionally snaps a real GAIA CSV onto it and reports
//! coverage. Deterministic given `--seed`.
//!
//! `serve` is the long-lived service mode: requests arrive over a
//! line-delimited JSON feed (stdin, a file replay, or `tcp:ADDR`),
//! pass a bounded admission queue, and drive the same simulator the
//! one-shot `simulate` uses — a recorded feed (`simulate
//! --feed-record`) replays to a byte-identical event trace.

use mt_share::chaos::failpoint::{FailpointPlan, FailpointSpec};
use mt_share::chaos::RetryPolicy;
use mt_share::core::PartitionStrategy;
use mt_share::mobility::Trip;
use mt_share::persist::{PersistError, StateDir};
use mt_share::road::{grid_city, io as road_io, GridCityConfig, SpatialGrid};
use mt_share::routing::{ContractionHierarchy, CustomizableCh, PathCache, RouterBackend};
use mt_share::serve::{
    open_feed, record_feed, supervise, AdmissionPolicy, AdmissionQueue, Pace, ServeError,
    ServeOptions, ServeOutcome, SuperviseConfig, FEED_FAULT_EXIT, STORAGE_FAULT_EXIT,
};
use mt_share::sim::{
    build_context, parse_trace, snap_trace, stats, BatchConfig, Durability, RunOutcome, Scenario,
    ScenarioConfig, SchemeKind, SimConfig, SimEngine, Simulator, WorkloadConfig, WorkloadGenerator,
};
use std::io::Write as _;
use std::rc::Rc;
use std::sync::Arc;

struct Args {
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = raw.peek().filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    raw.next();
                }
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Self { flags, positional }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name` parsed as `T`, `None` when the flag is
    /// absent. A flag given without a value, or with one that does not
    /// parse, exits 2 naming both — never a silent fall-back to a default.
    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let (_, value) = self.flags.iter().find(|(n, _)| n == name)?;
        let Some(v) = value else { flag_error(&format!("--{name} needs a value")) };
        Some(v.parse().unwrap_or_else(|_| {
            flag_error(&format!("--{name}: cannot parse `{v}` as {}", std::any::type_name::<T>()))
        }))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name).unwrap_or(default)
    }
}

/// An accepted flag: name, value placeholder (empty for a switch) and the
/// comment `--help` prints beside it.
type Flag = (&'static str, &'static str, &'static str);

/// Every subcommand builds the synthetic city.
const CITY: &[Flag] = &[
    ("rows", "N", "grid rows (default 40)"),
    ("cols", "N", "grid columns (default 40)"),
    ("seed", "N", "city seed (default 7)"),
];

/// Scenario, telemetry and persistence flags of `simulate` and `serve`.
const SCENARIO: &[Flag] = &[
    ("scheme", "no-sharing|t-share|pgreedy-dp|mt-share|mt-share-pro|batch", ""),
    ("taxis", "N", "fleet size (default 60)"),
    ("requests", "N", "default 10 per taxi, 5 with --nonpeak"),
    ("nonpeak", "", "weekend demand, a third of the riders hailing offline"),
    ("rho", "X", "deadline flexibility factor (default 1.3)"),
    ("kappa", "N", "map partitions (default 24)"),
    ("capacity", "N", "seats per taxi (1-8, default 4)"),
    ("scheduler", "dp|dtree", "insertion scoring engine; traces identical either way"),
    ("batch-window", "S", "rolling-horizon window in sim seconds (with --scheme batch)"),
    ("batch-retries", "N", "re-queue budget for losing requests (with --scheme batch)"),
    ("router", "bidir|ch|cch", "exact cost engine; same world under all (shifts: not ch)"),
    ("ch-artifact", "FILE", "persist/reuse the preprocessing (with --router ch|cch)"),
    ("metrics-out", "FILE.json", "end-of-run summary (stages, caches, rejections)"),
    ("trace-out", "FILE.jsonl", "dispatch-lifecycle event stream"),
    ("chaos-seed", "N", "inject seeded disruptions (breakdowns/cancels/shifts)"),
    ("validate-every", "SECONDS", "runtime invariant checker cadence"),
    ("state-dir", "DIR", "checkpoint/WAL persistence (crash-consistent restart)"),
    ("checkpoint-every", "N", "snapshot cadence in steps (default 256)"),
    ("resume", "", "warm-restart from the newest valid checkpoint + WAL"),
    ("crash-at", "STEP", "die (exit 42) after STEP steps, for restart testing"),
    ("durability", "strict|degrade", "on a storage fault: exit 44, or quarantine and go on"),
    ("failpoints", "SPEC", "seeded I/O faults, e.g. wal-sync-fail=1,snap-write-enospc=1"),
];

const SIMULATE: &[Flag] = &[
    ("feed-record", "FILE.jsonl", "dump the arrival stream in the serve feed format"),
    ("disruptions", "breakdowns=2,cancels=4,shifts=2", "mix (with --chaos-seed)"),
];

/// Over a recorded feed `serve` produces the one-shot run's exact trace.
const SERVE: &[Flag] = &[
    ("feed", "-|FILE|tcp:ADDR", "line-delimited JSON request feed (default stdin)"),
    ("queue-capacity", "N", "bounded admission queue (default 64)"),
    ("admission", "block|shed-oldest|reject-new", ""),
    ("pace", "free|QUANTUM_S", "burst entries per virtual-time quantum (default free)"),
    ("report-out", "FILE.jsonl", "periodic steady-state reports"),
    ("report-every", "SECONDS", "report cadence in virtual seconds (default 60)"),
    ("heartbeat-file", "FILE", "liveness file rewritten every burst"),
    ("supervise", "", "watchdog: restart on crash/fault/stall with backoff"),
    ("supervise-max-restarts", "N", ""),
    ("supervise-backoff-ms", "MS", ""),
    ("supervise-stall-ms", "MS", ""),
];

const PARTITION: &[Flag] = &[
    ("kappa", "N", "map partitions (default 24)"),
    ("grid", "", "uniform grid instead of bipartite partitioning"),
    ("historical", "N", "historical trips to learn from (default 5000)"),
    ("out", "FILE.geojson|FILE.csv", "default partitions.geojson"),
];

const STATS: &[Flag] = &[
    ("hours", "N", "hours of the workday to report (default 24)"),
    ("taxis", "N", "fleet size utilization is measured against (default 300)"),
];

/// A subcommand accepts `own`, `CITY` and, if `scenario`, `SCENARIO`;
/// the flag check and `--help` both read that from here.
struct Command {
    name: &'static str,
    operand: &'static str,
    own: &'static [Flag],
    scenario: bool,
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    Command { name: "simulate", operand: "", own: SIMULATE, scenario: true, run: simulate },
    Command { name: "serve", operand: "", own: SERVE, scenario: true, run: serve_cmd },
    Command { name: "partition", operand: "", own: PARTITION, scenario: false, run: partition },
    Command { name: "stats", operand: "", own: STATS, scenario: false, run: stats_cmd },
    // Snaps a GAIA-format trace onto the city and reports coverage.
    Command { name: "trace", operand: " FILE.csv", own: &[], scenario: false, run: trace_cmd },
];

/// `(flag, needs, why)`: `--flag` without `--needs` exits 2.
const REQUIRES: &[(&str, &str, &str)] = &[
    ("resume", "state-dir", " (there is no checkpoint to resume from)"),
    ("checkpoint-every", "state-dir", ""),
    ("crash-at", "state-dir", ""),
    ("disruptions", "chaos-seed", ""),
    ("failpoints", "chaos-seed", " (fault schedules are seeded)"),
    ("durability", "state-dir", " (there is no storage to protect)"),
    ("report-every", "report-out", " (there is nowhere to write reports)"),
    ("supervise", "state-dir", " (restarts resume from the checkpoint state)"),
    ("supervise-max-restarts", "supervise", ""),
    ("supervise-backoff-ms", "supervise", ""),
    ("supervise-stall-ms", "supervise", ""),
    ("supervise-stall-ms", "heartbeat-file", " (the stall watchdog watches it)"),
];

fn usage_text() -> String {
    fn list(out: &mut String, flags: &[Flag]) {
        for (name, value, help) in flags {
            let sep = if value.is_empty() { "" } else { " " };
            let head = format!("[--{name}{sep}{value}]");
            let line = if help.is_empty() { head } else { format!("{head:<30} # {help}") };
            out.push_str(&format!("      {line}\n"));
        }
    }
    let mut out = String::from("usage:\n");
    for c in COMMANDS {
        let scenario = if c.scenario { " [scenario flags]" } else { "" };
        out.push_str(&format!("  mtshare {}{}{scenario} [city flags]\n", c.name, c.operand));
        list(&mut out, c.own);
    }
    out.push_str("  scenario flags:\n");
    list(&mut out, SCENARIO);
    out.push_str("  city flags:\n");
    list(&mut out, CITY);
    out
}

fn usage() -> ! {
    eprint!("{}", usage_text());
    std::process::exit(2)
}

fn city(args: &Args) -> Arc<mt_share::road::RoadNetwork> {
    let cfg = GridCityConfig {
        rows: args.num("rows", 40usize),
        cols: args.num("cols", 40usize),
        seed: args.num("seed", 7u64),
        ..GridCityConfig::default()
    };
    Arc::new(grid_city(&cfg).expect("valid city config"))
}

/// Exits 2 with a clear message: `why` names the flag combination that
/// cannot work.
fn flag_error(why: &str) -> ! {
    eprintln!("{why}");
    std::process::exit(2)
}

/// Early validation of flag names and combinations, before any
/// expensive construction: unknown flags and impossible combinations
/// fail in milliseconds with a message naming the offending flags.
fn validate_flags(cmd: &Command, args: &Args) {
    let scenario = if cmd.scenario { SCENARIO } else { &[] };
    for (name, _) in &args.flags {
        if !cmd.own.iter().chain(CITY).chain(scenario).any(|f| f.0 == name) {
            eprintln!("unknown flag --{name} for `mtshare {}`", cmd.name);
            usage();
        }
    }
    for (flag, needs, why) in REQUIRES {
        if args.has(flag) && !args.has(needs) {
            flag_error(&format!("--{flag} requires --{needs}{why}"));
        }
    }
    let batch_scheme = matches!(args.get("scheme"), Some("batch" | "mt-share-batch"));
    for f in ["batch-window", "batch-retries"] {
        if args.has(f) && !batch_scheme {
            flag_error(&format!("--{f} requires --scheme batch"));
        }
    }
    if args.has("ch-artifact") && !matches!(args.get("router"), Some("ch" | "cch")) {
        flag_error("--ch-artifact requires --router ch or --router cch");
    }
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        // Not `println!`: `mtshare --help | head` closes the pipe early,
        // and that is not worth a panic.
        let _ = write!(std::io::stdout(), "{}", usage_text());
        return;
    }
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next().and_then(|c| COMMANDS.iter().find(|k| k.name == c)) else {
        usage()
    };
    let args = Args::parse(argv);
    validate_flags(cmd, &args);
    (cmd.run)(&args)
}

/// Telemetry bus: enabled iff at least one output was asked for.
/// Created before the path cache so CH preprocessing lands in the
/// `preprocess_ch` stage span.
fn build_obs(args: &Args) -> mt_share::obs::Obs {
    let wants = args.has("metrics-out") || args.has("trace-out") || args.has("report-out");
    if !wants {
        return mt_share::obs::Obs::disabled();
    }
    let obs = mt_share::obs::Obs::enabled();
    if let Some(path) = args.get("trace-out") {
        let f = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        });
        obs.add_sink(Box::new(mt_share::obs::JsonlSink::new(std::io::BufWriter::new(f))));
    }
    obs
}

fn build_cache(
    args: &Args,
    graph: &Arc<mt_share::road::RoadNetwork>,
    obs: &mt_share::obs::Obs,
) -> PathCache {
    let backend = match args.get("router").unwrap_or("bidir") {
        "bidir" => RouterBackend::Bidir,
        "ch" => {
            let _span = obs.stage(mt_share::obs::Stage::PreprocessCh);
            // CH preprocessing is the one parallel stage left; its
            // artifacts are byte-identical across worker counts, so the
            // host decides.
            let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
            let ch = match args.get("ch-artifact") {
                Some(path) => {
                    let (ch, rebuilt) = ContractionHierarchy::load_or_build(
                        std::path::Path::new(path),
                        graph,
                        workers,
                    )
                    .unwrap_or_else(|e| artifact_error(path, e));
                    if rebuilt {
                        eprintln!("built contraction hierarchy, saved artifact to {path}");
                    } else {
                        eprintln!("loaded contraction hierarchy artifact from {path}");
                    }
                    ch
                }
                None => ContractionHierarchy::build(graph, workers),
            };
            RouterBackend::Ch(Arc::new(ch))
        }
        "cch" => {
            let _span = obs.stage(mt_share::obs::Stage::PreprocessCh);
            let cch = match args.get("ch-artifact") {
                Some(path) => {
                    let (cch, rebuilt) =
                        CustomizableCh::load_or_build(std::path::Path::new(path), graph)
                            .unwrap_or_else(|e| artifact_error(path, e));
                    if rebuilt {
                        eprintln!("built customizable hierarchy, saved artifact to {path}");
                    } else {
                        eprintln!("loaded customizable hierarchy artifact from {path}");
                    }
                    cch
                }
                None => CustomizableCh::build(graph),
            };
            RouterBackend::Cch(Arc::new(cch))
        }
        other => {
            eprintln!("unknown router: {other}");
            usage()
        }
    };
    PathCache::with_backend(graph.clone(), backend)
}

/// A routing artifact that must not be silently clobbered (today: a
/// healthy file from an incompatible format version). Exit code 2
/// distinguishes "operator must intervene" from usage errors.
fn artifact_error(path: &str, e: PersistError) -> ! {
    match e {
        PersistError::UnsupportedVersion { found, expected } => eprintln!(
            "routing artifact {path}: format version {found}, this build reads v{expected}; \
             delete the file or regenerate it with a matching binary"
        ),
        other => eprintln!("routing artifact {path}: {other}"),
    }
    std::process::exit(2);
}

fn scenario_config(args: &Args) -> ScenarioConfig {
    let taxis = args.num("taxis", 60usize);
    let mut cfg = if args.has("nonpeak") {
        ScenarioConfig::nonpeak(taxis)
    } else {
        ScenarioConfig::peak(taxis)
    };
    cfg.n_requests = args.num("requests", cfg.n_requests);
    cfg.rho = args.num("rho", cfg.rho);
    if let Some(s) = args.get("capacity") {
        let cap: u8 = s.parse().unwrap_or(0);
        if !(1..=8).contains(&cap) {
            flag_error(&format!("--capacity must be between 1 and 8 seats, got `{s}`"));
        }
        cfg.capacity = cap;
    }
    cfg
}

/// The insertion-scoring engine (`--scheduler dp|dtree`, default `dp`).
fn scheduler_kind(args: &Args) -> mt_share::model::SchedulerKind {
    match args.get("scheduler") {
        None => mt_share::model::SchedulerKind::default(),
        Some(s) => mt_share::model::SchedulerKind::parse(s).unwrap_or_else(|| {
            eprintln!("unknown scheduler: {s} (expected dp|dtree)");
            usage()
        }),
    }
}

/// The scheme configuration: Table II defaults plus what the CLI can
/// override (`--scheduler`).
fn mt_config(args: &Args) -> mt_share::core::MtShareConfig {
    mt_share::core::MtShareConfig::default().with_scheduler(scheduler_kind(args))
}

fn scheme_kind(args: &Args) -> SchemeKind {
    match args.get("scheme").unwrap_or("mt-share") {
        "no-sharing" => SchemeKind::NoSharing,
        "t-share" => SchemeKind::TShare,
        "pgreedy-dp" => SchemeKind::PGreedyDp,
        "mt-share" => SchemeKind::MtShare,
        "mt-share-pro" => SchemeKind::MtSharePro,
        "batch" | "mt-share-batch" => SchemeKind::MtShareBatch,
        other => {
            eprintln!("unknown scheme: {other}");
            usage()
        }
    }
}

fn build_scheme(
    args: &Args,
    kind: SchemeKind,
    graph: &Arc<mt_share::road::RoadNetwork>,
    scenario: &Scenario,
) -> Box<dyn mt_share::model::DispatchScheme> {
    let kappa = args.num("kappa", 24usize);
    let ctx = kind
        .needs_context()
        .then(|| build_context(graph, &scenario.historical, kappa, PartitionStrategy::Bipartite));
    kind.build(graph, scenario.taxis.len(), ctx, Some(mt_config(args)))
}

fn batch_config(args: &Args, kind: SchemeKind) -> Option<BatchConfig> {
    (kind == SchemeKind::MtShareBatch).then(|| {
        let mut bc = BatchConfig::default();
        if let Some(s) = args.get("batch-window") {
            bc.window_s = s.parse().unwrap_or(0.0);
            if bc.window_s.is_nan() || bc.window_s <= 0.0 {
                eprintln!("--batch-window must be a positive number of seconds, got `{s}`");
                std::process::exit(2);
            }
        }
        bc.max_retries = args.num("batch-retries", bc.max_retries);
        bc
    })
}

fn validate_every(args: &Args) -> Option<f64> {
    args.get("validate-every").map(|s| {
        let every: f64 = s.parse().unwrap_or(0.0);
        if every.is_nan() || every <= 0.0 {
            eprintln!("--validate-every must be a positive number of seconds, got `{s}`");
            std::process::exit(2);
        }
        every
    })
}

/// Seeded failpoint plan (`--failpoints`, schedule derived from
/// `--chaos-seed`): one shared plan drives both the storage-fault
/// injector and the serve feed faults, so a single seed reproduces the
/// whole fault schedule.
fn failpoint_plan(args: &Args) -> Option<Rc<FailpointPlan>> {
    args.get("failpoints").map(|spec| {
        let spec = FailpointSpec::parse(spec)
            .unwrap_or_else(|e| flag_error(&format!("bad --failpoints spec: {e}")));
        let seed =
            args.parsed("chaos-seed").expect("validated: --failpoints requires --chaos-seed");
        let plan = FailpointPlan::generate(seed, &spec);
        if plan.has_storage_faults() && !args.has("state-dir") {
            flag_error("--failpoints with storage faults requires --state-dir");
        }
        Rc::new(plan)
    })
}

fn persist_config(
    args: &Args,
    injector: Option<Rc<FailpointPlan>>,
) -> Option<mt_share::sim::PersistConfig> {
    args.get("state-dir").map(|dir| {
        let mut pc = mt_share::sim::PersistConfig::new(dir);
        pc.checkpoint_every = args.num("checkpoint-every", pc.checkpoint_every);
        pc.resume = args.has("resume");
        if pc.resume {
            refuse_other_snapshot_format(dir);
            eprintln!("resuming from checkpoint state in {dir}");
        }
        pc.crash_at = args.parsed("crash-at").map(mt_share::chaos::CrashPoint::exit_at);
        if let Some(s) = args.get("durability") {
            pc.durability = Durability::parse(s).unwrap_or_else(|e| flag_error(&e));
        }
        if let Some(p) = injector {
            pc.fault_injector = Some(p);
        }
        pc
    })
}

/// `--resume` from a state dir whose snapshots this build cannot read
/// exits 2 and leaves the files as they are.
fn refuse_other_snapshot_format(dir: &str) {
    let scan = StateDir::create(dir).and_then(|d| d.load_newest_valid());
    if let Err(PersistError::UnsupportedVersion { found, expected }) = scan {
        eprintln!(
            "state dir {dir}: snapshot format version {found}, this build reads v{expected}; \
             resume with the binary that wrote it, or start afresh without --resume"
        );
        std::process::exit(2);
    }
}

fn write_metrics(args: &Args, obs: &mt_share::obs::Obs) {
    if let Some(path) = args.get("metrics-out") {
        let summary = obs.summary_json().expect("telemetry enabled");
        std::fs::write(path, summary + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote summary to {path}");
    }
    if let Some(path) = args.get("trace-out") {
        eprintln!("wrote event trace to {path}");
    }
}

fn simulate(args: &Args) {
    let graph = city(args);
    let obs = build_obs(args);
    let cache = build_cache(args, &graph, &obs);
    let scenario = Scenario::generate(graph.clone(), &cache, scenario_config(args));

    if let Some(path) = args.get("feed-record") {
        std::fs::write(path, record_feed(&scenario.requests)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("recorded {} feed entries to {path}", scenario.requests.len());
    }

    let kind = scheme_kind(args);
    let batch = batch_config(args, kind);
    let mut scheme = build_scheme(args, kind, &graph, &scenario);
    let chaos = args.parsed("chaos-seed").map(|seed| {
        let mut chaos = mt_share::chaos::ChaosConfig::with_seed(seed);
        if let Some(mix) = args.get("disruptions") {
            if let Err(e) = chaos.parse_mix(mix) {
                eprintln!("bad --disruptions spec: {e}");
                std::process::exit(2);
            }
        }
        chaos
    });
    if args.get("router") == Some("ch") && chaos.as_ref().is_some_and(|c| c.traffic_shifts > 0) {
        flag_error(
            "--router ch cannot follow traffic shifts (it cannot re-customize): \
             use --router bidir or cch, or --disruptions shifts=0",
        );
    }
    let validate_every = validate_every(args);
    let persist = persist_config(args, failpoint_plan(args));
    let chaos_on = chaos.is_some();
    let sim_cfg = SimConfig { chaos, validate_every, persist, batch };

    let outcome = Simulator::new(graph, cache, &scenario, sim_cfg)
        .with_obs(obs.clone())
        .run_to_outcome(scheme.as_mut());
    let report = match outcome {
        RunOutcome::Finished(report) => report,
        RunOutcome::Crashed { step } => {
            eprintln!("planned crash after step {step}");
            std::process::exit(42);
        }
        RunOutcome::StorageFault { step } => {
            write_metrics(args, &obs);
            eprintln!(
                "storage fault stopped the run after step {step} (strict durability); \
                 the state dir is resumable with --resume"
            );
            std::process::exit(STORAGE_FAULT_EXIT);
        }
    };

    write_metrics(args, &obs);

    println!("scheme          {}", report.scheme);
    println!("taxis           {}", report.n_taxis);
    println!("requests        {} ({} offline)", report.n_requests, report.n_offline);
    println!(
        "served          {} ({:.1}%) = {} online + {} offline",
        report.served,
        report.served_ratio() * 100.0,
        report.served_online,
        report.served_offline
    );
    println!("rejected        {}", report.rejected);
    if chaos_on {
        println!("cancelled       {}", report.cancelled);
        println!("redispatched    {}", report.redispatched);
    }
    if validate_every.is_some() {
        println!("violations      {}", report.invariant_violations);
    }
    println!(
        "response        {:.2} ms avg, {:.2} ms p95",
        report.avg_response_ms, report.p95_response_ms
    );
    println!("detour          {:.2} min avg", report.avg_detour_min);
    println!("waiting         {:.2} min avg", report.avg_waiting_min);
    println!("candidates      {:.1} avg", report.avg_candidates);
    println!("fare saving     {:.1}%", report.fare_saving_pct());
    println!("driver income   {:.1} total", report.total_driver_income);
    println!("index memory    {:.1} KiB", report.index_memory_bytes as f64 / 1024.0);
    println!("wall clock      {:.2} s", report.wall_clock_s);
}

/// Re-executes `mtshare serve` (minus the `--supervise*` family) under
/// the supervisor and exits with its verdict. The first incarnation
/// keeps `--crash-at`/`--failpoints` — those are exactly the faults the
/// supervisor exists to ride out; restarts strip them and resume.
fn supervise_cmd(args: &Args) -> ! {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("supervise: cannot determine the engine executable: {e}");
        std::process::exit(1);
    });
    let mut child_args: Vec<String> = vec!["serve".into()];
    let mut skip_value = false;
    for arg in std::env::args().skip(2) {
        if skip_value {
            skip_value = false;
            continue;
        }
        if arg == "--supervise" {
            continue;
        }
        if matches!(
            arg.as_str(),
            "--supervise-max-restarts" | "--supervise-backoff-ms" | "--supervise-stall-ms"
        ) {
            skip_value = true;
            continue;
        }
        child_args.push(arg);
    }
    let cfg = SuperviseConfig {
        retry: RetryPolicy {
            max_attempts: args.num("supervise-max-restarts", 3u32),
            base_delay_s: args.num("supervise-backoff-ms", 200u64) as f64 / 1000.0,
            backoff_factor: 2.0,
        },
        stall_timeout: args.parsed("supervise-stall-ms").map(std::time::Duration::from_millis),
        heartbeat: args.get("heartbeat-file").map(std::path::PathBuf::from),
    };
    std::process::exit(supervise(exe.as_os_str(), &child_args, &cfg));
}

fn serve_cmd(args: &Args) {
    if args.has("supervise") {
        supervise_cmd(args);
    }
    // Admission configuration fails fast, before the city is built.
    let queue = AdmissionQueue {
        capacity: args.num("queue-capacity", 64usize),
        policy: match args.get("admission") {
            None => AdmissionPolicy::Block,
            Some(s) => AdmissionPolicy::parse(s).unwrap_or_else(|e| flag_error(&e)),
        },
    };
    queue.validate().unwrap_or_else(|e| flag_error(&e));
    let pace = match args.get("pace").unwrap_or("free") {
        "free" => Pace::Free,
        s => {
            let quantum_s: f64 = s.parse().unwrap_or(0.0);
            if quantum_s.is_nan() || quantum_s <= 0.0 {
                flag_error(&format!("--pace must be `free` or a positive quantum, got `{s}`"));
            }
            Pace::Virtual { quantum_s }
        }
    };
    let report_every_s = args.has("report-out").then(|| {
        let every: f64 = args.num("report-every", 60.0);
        if every.is_nan() || every <= 0.0 {
            flag_error("--report-every must be a positive number of virtual seconds");
        }
        every
    });

    let graph = city(args);
    let obs = build_obs(args);
    let cache = build_cache(args, &graph, &obs);
    // The same generation as `simulate`, so the fleet and historical
    // trips are identical — only the arrival stream is replaced by the
    // feed. The generated requests are discarded.
    let mut scenario = Scenario::generate(graph.clone(), &cache, scenario_config(args));
    scenario.requests = Vec::new();

    let kind = scheme_kind(args);
    let batch = batch_config(args, kind);
    let mut scheme = build_scheme(args, kind, &graph, &scenario);
    let failplan = failpoint_plan(args);
    let feed_faults = failplan.as_ref().map(|p| p.feed_faults()).filter(|f| !f.is_empty());
    let sim_cfg = SimConfig {
        validate_every: validate_every(args),
        persist: persist_config(args, failplan),
        batch,
        ..SimConfig::default()
    };

    let n_nodes = graph.node_count() as u32;
    let sim =
        Simulator::new(graph, cache, &scenario, sim_cfg).with_obs(obs.clone()).with_streaming();
    let engine = SimEngine::new(sim, scheme.as_mut());
    if engine.resumed() {
        eprintln!("restored {} ingested requests; continuing the feed", engine.ingested());
    }

    let feed = open_feed(args.get("feed").unwrap_or("-")).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let mut report_file = args.get("report-out").map(|path| {
        std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(1);
        }))
    });

    let opts = ServeOptions {
        queue,
        pace,
        report_every_s,
        n_nodes,
        heartbeat: args.get("heartbeat-file").map(std::path::PathBuf::from),
        feed_faults,
    };
    let outcome = mt_share::serve::serve(
        engine,
        scheme.as_mut(),
        feed,
        opts,
        &obs,
        report_file.as_mut().map(|w| w as &mut dyn std::io::Write),
    );
    match outcome {
        Ok(ServeOutcome::Finished(report)) => {
            drop(report_file);
            write_metrics(args, &obs);
            if args.has("report-out") {
                eprintln!("wrote steady-state reports to {}", args.get("report-out").unwrap());
            }
            println!("scheme          {}", report.scheme);
            println!("taxis           {}", report.n_taxis);
            println!("requests        {} ({} offline)", report.n_requests, report.n_offline);
            println!("served          {} ({:.1}%)", report.served, report.served_ratio() * 100.0);
            println!("rejected        {}", report.rejected);
            println!("wall clock      {:.2} s", report.wall_clock_s);
        }
        Ok(ServeOutcome::Crashed { step }) => {
            eprintln!("planned crash after step {step}");
            std::process::exit(42);
        }
        Ok(ServeOutcome::StorageFault { step }) => {
            drop(report_file);
            write_metrics(args, &obs);
            eprintln!(
                "storage fault stopped the serve loop after step {step} (strict durability); \
                 the state dir is resumable with --resume"
            );
            std::process::exit(STORAGE_FAULT_EXIT);
        }
        Err(ServeError::Feed { line, kind, msg }) => {
            drop(report_file);
            write_metrics(args, &obs);
            eprintln!("serve: feed fault ({kind}) at line {line}: {msg}");
            eprintln!("the state dir (if any) is crash-consistent; restart with --resume");
            std::process::exit(FEED_FAULT_EXIT);
        }
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(1);
        }
    }
}

fn partition(args: &Args) {
    let graph = city(args);
    let kappa = args.num("kappa", 24usize);
    let strategy =
        if args.has("grid") { PartitionStrategy::Grid } else { PartitionStrategy::Bipartite };
    let mut gen = WorkloadGenerator::new(graph.clone(), WorkloadConfig::default());
    let historical: Vec<Trip> = gen.historical_trips(args.num("historical", 5000usize));
    let ctx = build_context(&graph, &historical, kappa, strategy);
    eprintln!(
        "{strategy:?} partitioning: {} partitions over {} vertices",
        ctx.kappa(),
        graph.node_count()
    );
    let labels = ctx.partitioning.labels_u32();
    let out = args.get("out").unwrap_or("partitions.geojson");
    let body = if out.ends_with(".csv") {
        road_io::nodes_to_csv(&graph, Some(&labels))
    } else {
        road_io::labelled_nodes_to_geojson(&graph, &labels)
    };
    std::fs::write(out, body).expect("write output file");
    eprintln!("wrote {out}");
}

fn stats_cmd(args: &Args) {
    let graph = city(args);
    let cache = PathCache::new(graph.clone());
    let hours = args.num("hours", 24usize).min(24);
    let taxis = args.num("taxis", 300usize);
    let mut gen = WorkloadGenerator::new(graph.clone(), WorkloadConfig::default());
    let profile = mt_share::sim::workday_profile(taxis * 2);
    let stream = gen.day_stream(&profile[..hours], 0.0);
    println!("hour  requests  utilization");
    let util = stats::hourly_utilization(&stream, &cache, taxis, hours);
    for (h, u) in util.iter().enumerate().take(hours) {
        let count = stream
            .iter()
            .filter(|r| {
                r.release_time >= h as f64 * 3600.0 && r.release_time < (h + 1) as f64 * 3600.0
            })
            .count();
        println!("{h:>4}  {count:>8}  {u:>10.3}");
    }
    let q = stats::travel_time_distribution(&stream, &cache, &[0.1, 0.5, 0.9]);
    println!(
        "trip travel time: p10 {:.1} min, p50 {:.1} min, p90 {:.1} min",
        q[0].1, q[1].1, q[2].1
    );
}

fn trace_cmd(args: &Args) {
    let Some(file) = args.positional.first() else { usage() };
    let f = std::fs::File::open(file).unwrap_or_else(|e| {
        eprintln!("cannot open {file}: {e}");
        std::process::exit(1);
    });
    let parsed = parse_trace(std::io::BufReader::new(f)).expect("read trace");
    println!("records  {}", parsed.records.len());
    println!("errors   {}", parsed.total_errors);
    for (line, msg) in parsed.errors.iter().take(5) {
        println!("  line {line}: {msg}");
    }
    if parsed.total_errors > parsed.errors.len() {
        println!(
            "  ... ({} more, first {} retained)",
            parsed.total_errors - 5,
            parsed.errors.len()
        );
    }
    let graph = city(args);
    let grid = SpatialGrid::build(&graph, 250.0);
    let snapped = snap_trace(&parsed.records, &graph, &grid);
    println!("snapped  {} trips ({} dropped)", snapped.trips.len(), snapped.dropped);
}
