//! `e2e_bench` — the one command of the end-to-end benchmark.
//!
//! ```text
//! e2e_bench [--seed S] [--traced] [--quick] [--out FILE]   every workload, each in a
//!                                                          fresh child process
//! e2e_bench --selfcheck [N]                                two sets of N seeds per workload,
//!                                                          compared against the bounds
//! e2e_bench --workload NAME --seed S --seconds T --trace 0|1
//!                                                          one workload in this process (the
//!                                                          form the benchmark driver calls)
//! ```
//!
//! A single-workload run ends with one JSON line holding exactly
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check makes
//! the exit code non-zero.

use mtshare_e2e::metrics::{result_line, END_TO_END, UNGATED};
use mtshare_e2e::run::{run_workload, RunOptions, WorkloadRun, DEFAULT_SECONDS, MIN_REPS};
use mtshare_e2e::stats::{median, quartiles};
use mtshare_e2e::workloads::{find, WORKLOADS};
use mtshare_obs::json::{escape, fmt_f64, parse, Value};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `--quick` divides taxi and request counts by this.
const QUICK_DIVISOR: usize = 10;
/// Prefix of the machine-readable line a child prints for its parent.
const DETAIL_PREFIX: &str = "#detail ";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    selfcheck: Option<usize>,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: e2e_bench [--seed S] [--traced] [--quick] [--out FILE]\n       \
         e2e_bench --selfcheck [SEEDS_PER_SET] [--seed S]\n       \
         e2e_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        traced: false,
        selfcheck: None,
        quick: false,
        out: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")),
            "--seed" => cli.seed = value("an integer").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cli.seconds = value("a number of seconds").parse().unwrap_or_else(|_| usage());
                if !(0.0..=600.0).contains(&cli.seconds) {
                    usage()
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(value("a file"))),
            "--selfcheck" => {
                let seeds = args.peek().and_then(|v| v.parse::<usize>().ok());
                if seeds.is_some() {
                    args.next();
                }
                cli.selfcheck = Some(seeds.unwrap_or(1).max(1));
            }
            _ => {
                eprintln!("unknown argument {flag}");
                usage()
            }
        }
    }
    cli
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let ok = match (&cli.workload, cli.selfcheck) {
        (Some(name), _) => single(name, &cli),
        (None, Some(seeds)) => selfcheck(&cli, seeds),
        (None, None) => all_workloads(&cli),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One workload, in this process.
// ---------------------------------------------------------------------

fn single(name: &str, cli: &Cli) -> bool {
    let Some(spec) = find(name) else {
        eprintln!("unknown workload {name}");
        usage()
    };
    let (spec, opts) = if cli.quick {
        (
            spec.shrunk(QUICK_DIVISOR),
            RunOptions { seed: cli.seed, seconds: 0.0, trace: cli.trace, min_reps: 1 },
        )
    } else {
        let min_reps = if cli.trace { 1 } else { MIN_REPS };
        (spec, RunOptions { seed: cli.seed, seconds: cli.seconds, trace: cli.trace, min_reps })
    };
    let run = match run_workload(&spec, &opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{name}: {e}");
            return false;
        }
    };
    print!("{}", human(&run, cli));
    println!("{DETAIL_PREFIX}{}", detail_json(&run, cli.seed));
    println!("{}", result_line(run.correct(), run.attempted, run.failed, &run.metrics));
    run.correct()
}

fn human(run: &WorkloadRun, cli: &Cli) -> String {
    let mut s = String::new();
    let pass = if cli.trace { "traced" } else { "end_to_end" };
    let _ = writeln!(
        s,
        "workload {}  seed {}  pass {pass}  reps {}  requests {}  digest {:#018x}",
        run.workload, cli.seed, run.reps, run.requests, run.digest
    );
    let gated = run.metrics.iter().map(|m| (m, ""));
    for (m, note) in gated.chain(run.ungated.iter().map(|m| (m, "  (ungated)"))) {
        let _ = writeln!(
            s,
            "  {:<30} {:>14.6} {:<6} n={:<6} rep spread {:>5.1} %{note}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.rep_spread * 100.0
        );
    }
    if cli.trace {
        let get = |name: &str| run.metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
        let parts = get("sim.loop_self_s")
            + ["dispatch", "dispatch_offline", "after_assign", "progress", "other"]
                .map(|k| get(&format!("core.{k}_s")))
                .iter()
                .sum::<f64>();
        let wall = get("sim.traced_loop_wall_s");
        let _ = writeln!(
            s,
            "  reconcile: sim.loop_self_s + core.{{dispatch,dispatch_offline,after_assign,\
             progress,other}}_s = {parts:.6} s vs traced loop wall {wall:.6} s ({:+.3} %)",
            (parts - wall) / wall * 100.0
        );
        let _ = writeln!(s, "  trace digest {:#018x}", run.trace_digest);
    }
    for c in &run.checks {
        let _ = writeln!(
            s,
            "  check {:<22} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let _ = writeln!(
        s,
        "  host.calib_ms before {:.3} after {:.3}  attempted {}  failed {}",
        run.calib.0, run.calib.1, run.attempted, run.failed
    );
    s
}

fn detail_json(run: &WorkloadRun, seed: u64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"workload":"{}","seed":{seed},"reps":{},"requests":{},"digest":"{:#018x}","trace_digest":"{:#018x}","correct":{},"attempted":{},"failed":{},"calib_ms":[{},{}],"metrics":{{"#,
        run.workload,
        run.reps,
        run.requests,
        run.digest,
        run.trace_digest,
        run.correct(),
        run.attempted,
        run.failed,
        fmt_f64(run.calib.0),
        fmt_f64(run.calib.1)
    );
    for (i, m) in run.metrics.iter().chain(&run.ungated).enumerate() {
        let _ = write!(
            s,
            r#"{}"{}":{{"value":{},"unit":"{}","samples":{},"rep_spread":{}}}"#,
            if i > 0 { "," } else { "" },
            m.name,
            fmt_f64(m.value),
            m.unit,
            m.samples,
            fmt_f64(m.rep_spread)
        );
    }
    s.push_str(r#"},"checks":["#);
    for (i, c) in run.checks.iter().enumerate() {
        let _ = write!(
            s,
            r#"{}{{"name":"{}","ok":{},"detail":"{}"}}"#,
            if i > 0 { "," } else { "" },
            c.name,
            c.ok,
            escape(&c.detail)
        );
    }
    s.push_str("]}");
    s
}

// ---------------------------------------------------------------------
// Every workload, each in a fresh child process.
// ---------------------------------------------------------------------

/// What a child process reported.
struct Child {
    detail: Value,
    correct: bool,
}

impl Child {
    fn text(&self, key: &str) -> &str {
        self.detail.get(key).and_then(Value::as_str).unwrap_or("")
    }

    fn metric(&self, name: &str, field: &str) -> f64 {
        self.detail
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get(field))
            .and_then(Value::as_num)
            .unwrap_or(f64::NAN)
    }
}

/// Runs one workload in a child process (so `peak_rss_mb` is its own),
/// echoes its report and parses its machine-readable lines.
fn spawn(workload: &str, cli: &Cli, seed: u64, trace: bool, echo: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &fmt_f64(cli.seconds), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    let mut result = None;
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix(DETAIL_PREFIX) {
            detail = Some(parse(json).map_err(|e| format!("{workload}: bad detail line: {e}"))?);
        } else if line.starts_with('{') {
            result = Some(parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?);
        } else if echo {
            println!("{line}");
        }
    }
    let (Some(detail), Some(result)) = (detail, result) else {
        return Err(format!("{workload}: child printed no result (exit {})", output.status));
    };
    let correct = result.get("correct") == Some(&Value::Bool(true)) && output.status.success();
    Ok(Child { detail, correct })
}

fn all_workloads(cli: &Cli) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for spec in &WORKLOADS {
        let passes: &[bool] = if cli.traced { &[false, true] } else { &[false] };
        let mut children = Vec::new();
        for &trace in passes {
            match spawn(spec.name, cli, cli.seed, trace, true) {
                Ok(child) => {
                    if !child.correct {
                        failures.push(format!("{}: a check failed", spec.name));
                    }
                    children.push(child);
                }
                Err(e) => failures.push(e),
            }
        }
        if children.len() == passes.len() {
            rows.push(children);
        }
    }

    // Cross-workload check: the two peak configurations must agree.
    let digest_of = |name: &str| {
        rows.iter().find(|r| r[0].text("workload") == name).map(|r| r[0].text("digest"))
    };
    if let (Some(a), Some(b)) = (digest_of("peak_bidir"), digest_of("peak_ch")) {
        println!(
            "check peak_ch == peak_bidir   {}  {a} vs {b}",
            if a == b { "ok  " } else { "FAIL" }
        );
        if a != b {
            failures.push(format!("peak_ch digest {b} differs from peak_bidir {a}"));
        }
    }
    for row in rows.iter().filter(|r| r.len() == 2) {
        let (a, b) = (row[0].text("digest"), row[1].text("digest"));
        if a != b {
            failures
                .push(format!("{}: traced digest {b} differs from {a}", row[0].text("workload")));
        }
    }
    println!("digests:");
    for row in &rows {
        println!("  {:<12} {}", row[0].text("workload"), row[0].text("digest"));
    }
    for f in &failures {
        println!("FAILED: {f}");
        ok = false;
    }
    ok &= rows.len() == WORKLOADS.len();

    let mut summary = String::new();
    let _ = write!(
        summary,
        r#"{{"schema":"mtshare-e2e/v1","seed":{},"quick":{},"correct":{ok},"workloads":["#,
        cli.seed, cli.quick
    );
    for (i, row) in rows.iter().enumerate() {
        let mut entry = row[0].detail.clone();
        // The traced pass rides along as `per_layer` of the same workload.
        if let (Value::Obj(fields), Some(traced)) = (&mut entry, row.get(1)) {
            let layers = traced.detail.get("metrics").cloned().unwrap_or(Value::Null);
            fields.push(("per_layer".into(), layers));
        }
        let _ = write!(summary, "{}{}", if i > 0 { "," } else { "" }, entry.to_json());
    }
    let _ = write!(summary, r#"],"claim":null}}"#);
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, format!("{summary}\n")) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("{summary}");
    ok
}

// ---------------------------------------------------------------------
// --selfcheck: two sets of runs of the same code against the bounds.
// ---------------------------------------------------------------------

/// Inter-quartile distance as a share of the median (the driver's
/// spread); `None` below two values.
fn iqr_spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| {
        let (q1, q3) = quartiles(values);
        (q3 - q1) / median(values)
    })
}

fn selfcheck(cli: &Cli, seeds_per_set: usize) -> bool {
    let mut ok = true;
    let seeds: Vec<u64> = (0..seeds_per_set as u64).map(|i| cli.seed + i).collect();
    println!(
        "selfcheck: 2 sets x {} seed(s) {seeds:?} x {} workloads, end-to-end pass",
        seeds.len(),
        WORKLOADS.len()
    );
    for spec in &WORKLOADS {
        // sets[set][seed] = child
        let mut sets: [Vec<Child>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for &seed in &seeds {
                match spawn(spec.name, cli, seed, false, false) {
                    Ok(child) => {
                        ok &= child.correct;
                        set.push(child);
                    }
                    Err(e) => {
                        println!("FAILED: {e}");
                        return false;
                    }
                }
            }
        }
        println!("{}", spec.name);
        for (k, set) in sets.iter().enumerate() {
            let calib: Vec<String> = set
                .iter()
                .filter_map(|c| match c.detail.get("calib_ms") {
                    Some(Value::Arr(v)) => Some(
                        v.iter()
                            .filter_map(Value::as_num)
                            .map(|x| format!("{x:.2}"))
                            .collect::<Vec<_>>()
                            .join("/"),
                    ),
                    _ => None,
                })
                .collect();
            println!("  set {} host.calib_ms before/after: {}", k + 1, calib.join(" "));
        }
        println!(
            "  {:<18} {:>13} {:>13} {:>8} {:>8} {:>8} {:>7}",
            "metric", "median 1", "median 2", "2 vs 1", "spread1", "spread2", "bound"
        );
        // Gated metrics get a verdict; the ungated ones are shown beside
        // them so that the case for leaving them ungated can be re-read.
        let gated = END_TO_END.iter().map(|d| (d.name, d.higher_is_better, Some(d.bound)));
        for (name, higher_is_better, bound) in
            gated.chain(UNGATED.iter().map(|&(name, _)| (name, false, None)))
        {
            let column = |set: &[Child], field: &str| {
                set.iter().map(|c| c.metric(name, field)).collect::<Vec<f64>>()
            };
            let (a, b) = (column(&sets[0], "value"), column(&sets[1], "value"));
            let (med_a, med_b) = (median(&a), median(&b));
            let drift = if higher_is_better { med_a - med_b } else { med_b - med_a } / med_a;
            // With one seed per set there is no spread over runs to take;
            // show the spread over repetitions inside the run instead.
            let spread = |values: &[f64], set: &[Child]| {
                iqr_spread(values).unwrap_or_else(|| column(set, "rep_spread")[0])
            };
            let widest = spread(&a, &sets[0]).max(spread(&b, &sets[1]));
            let verdict = match bound {
                None => "ungated",
                Some(bound) if drift.is_nan() || drift.abs() > bound => "FAIL medians disagree",
                Some(bound) if seeds.len() >= 2 && name != "setup_s" && widest > bound => {
                    "FAIL spread over bound"
                }
                Some(bound) if seeds.len() >= 2 && widest > bound / 3.0 => {
                    "ok (spread over a third of the bound)"
                }
                Some(_) => "ok",
            };
            ok &= !verdict.starts_with("FAIL");
            println!(
                "  {:<18} {:>13.6} {:>13.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>7}  {verdict}",
                name,
                med_a,
                med_b,
                drift * 100.0,
                spread(&a, &sets[0]) * 100.0,
                spread(&b, &sets[1]) * 100.0,
                bound.map_or_else(|| "-".into(), |b| format!("{:.1}%", b * 100.0))
            );
        }
        let digests: Vec<&str> = sets.iter().flatten().map(|c| c.text("digest")).collect();
        let repeat = (0..seeds.len()).all(|i| digests[i] == digests[i + seeds.len()]);
        println!("  digests repeat across sets: {}", if repeat { "ok" } else { "FAIL" });
        ok &= repeat;
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}
