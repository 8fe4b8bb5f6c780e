//! The CI workflow cannot run here, so what can break it silently is
//! checked as text. GitHub rejects a workflow that defines a job key twice,
//! and then none of its jobs run: the keys indented by exactly two spaces
//! under `jobs:` must be unique. And `mtshare` exits 2 on a flag it does
//! not know, so a step that still passes a removed flag fails its job — as
//! does a step that names a binary, test, example, package or `tools/`
//! script that has been deleted (or a script that lost its executable bit).
//! The A/B tool's awk reading of BENCHMARK.json's gate is held to the file.
//! A step that arms the invariant sweep must read the count it prints. And
//! the program runs on one thread, so its code takes no locks.

use std::path::{Path, PathBuf};

/// The root package's directory and every `crates/*` member's.
fn package_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let members = std::fs::read_dir(root.join("crates")).expect("crates/").flatten();
    std::iter::once(root.to_path_buf()).chain(members.map(|e| e.path())).collect()
}

/// File stems of the `.rs` files under `dir` of every package: the
/// auto-discovered (and here also the declared) `--bin` / `--test` /
/// `--example` targets.
fn targets(dir: &str) -> Vec<String> {
    let files = package_dirs().into_iter().filter_map(|p| std::fs::read_dir(p.join(dir)).ok());
    files
        .flat_map(|entries| entries.flatten().map(|e| e.path()))
        .filter(|f| f.extension().is_some_and(|x| x == "rs"))
        .filter_map(|f| Some(f.file_stem()?.to_str()?.to_string()))
        .collect()
}

/// The first `name = "…"` of every manifest, which is `[package]`'s.
fn packages() -> Vec<String> {
    let manifests = package_dirs()
        .into_iter()
        .filter_map(|p| std::fs::read_to_string(p.join("Cargo.toml")).ok());
    manifests
        .filter_map(|m| {
            let name = m.lines().find_map(|l| l.strip_prefix("name = \""))?;
            Some(name.trim_end_matches('"').to_string())
        })
        .collect()
}

fn workflow() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    std::fs::read_to_string(path).expect("the CI workflow is part of the repo")
}

/// Every `run:` step's script: an inline `run: cmd`, or a `run: |` block
/// of the lines indented deeper than its key.
fn run_blocks(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let indent = |l: &str| l.len() - l.trim_start().len();
    let mut blocks = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let key = line.trim_start().trim_start_matches("- ");
        let Some(inline) = key.strip_prefix("run:") else { continue };
        let body = lines[i + 1..]
            .iter()
            .take_while(|l| l.trim().is_empty() || indent(l) > indent(line))
            .fold(inline.trim().trim_start_matches('|').to_string(), |b, l| b + "\n" + l);
        blocks.push(body);
    }
    blocks
}

#[test]
fn validated_runs_read_their_violation_count() {
    // `--validate-every` only counts; the count fails nothing unless read.
    let blocks = run_blocks(&workflow());
    let validated: Vec<&String> =
        blocks.iter().filter(|b| b.contains("--validate-every")).collect();
    assert!(validated.len() >= 5, "the chaos, crash-restart and dtree steps validate");
    for block in validated {
        let grep = r#"grep -q "violations      0""#;
        assert!(block.contains(grep), "`--validate-every` without `{grep}`:\n{block}");
    }
}

#[test]
fn ci_never_passes_the_removed_parallelism_flag() {
    let text = workflow();
    let hits: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, l)| l.contains("--parallelism")).collect();
    assert!(hits.is_empty(), "`--parallelism` is an unknown flag (exit 2): {hits:?}");
}

#[test]
fn ci_job_keys_are_unique() {
    let text = workflow();
    let jobs: Vec<&str> = text
        .lines()
        .skip_while(|line| line.trim_end() != "jobs:")
        .skip(1)
        .take_while(|line| line.is_empty() || line.starts_with([' ', '#']))
        .filter_map(|line| line.strip_prefix("  ")?.trim_end().strip_suffix(':'))
        .filter(|key| !key.starts_with([' ', '#']))
        .collect();
    assert!(!jobs.is_empty(), "no job keys found under `jobs:`");
    let mut unique = jobs.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), jobs.len(), "duplicate job key among {jobs:?}");
}

#[test]
fn ci_names_only_targets_and_packages_of_this_workspace() {
    let text = workflow();
    let words: Vec<&str> = text.split_whitespace().collect();
    for pair in words.windows(2) {
        let known = match pair[0] {
            "--bin" => targets("src/bin"),
            "--test" => targets("tests"),
            "--example" => targets("examples"),
            "-p" => packages(),
            _ => continue,
        };
        assert!(
            known.iter().any(|k| k == pair[1]),
            "ci.yml says `{} {}`, which is none of {known:?}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn e2e_ab_reads_the_benchmark_gate_from_benchmark_json() {
    // `tools/e2e_ab.sh` parses BENCHMARK.json with awk: what `--bounds`
    // prints must be the `end_to_end` entries (name, direction, bound) and
    // the workload order `all` runs in.
    use mt_share::obs::json::{self, Value};
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new("bash")
        .arg(root.join("tools/e2e_ab.sh"))
        .arg("--bounds")
        .output()
        .expect("bash runs");
    assert!(out.status.success(), "{out:?}");
    let printed = String::from_utf8(out.stdout).expect("utf-8");
    let mut lines: Vec<&str> = printed.lines().collect();
    let workloads = lines.pop().and_then(|l| l.strip_prefix("workloads ")).expect("workloads row");
    let got: Vec<(String, String, f64)> = lines
        .iter()
        .map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
            [name, better, bound] => (name.into(), better.into(), bound.parse().expect("a number")),
            _ => panic!("not a `metric better bound` row: {l:?}"),
        })
        .collect();

    let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = json::parse(&text).expect("BENCHMARK.json parses");
    let entries = |key| match bench.get(key) {
        Some(Value::Arr(entries)) => entries.clone(),
        other => panic!("BENCHMARK.json `{key}`: {other:?}"),
    };
    let field = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).unwrap().to_string();
    let want: Vec<(String, String, f64)> = entries("end_to_end")
        .iter()
        .map(|e| (field(e, "name"), field(e, "better"), e.get("bound").unwrap().as_num().unwrap()))
        .collect();
    assert_eq!(got, want);
    let names: Vec<String> = entries("workloads").iter().map(|e| field(e, "name")).collect();
    assert_eq!(workloads, names.join(" "));
}

#[test]
fn ci_runs_only_tool_scripts_that_exist_and_are_executable() {
    use std::os::unix::fs::PermissionsExt;
    let text = workflow();
    let scripts: Vec<&str> =
        text.split_whitespace().filter(|w| w.starts_with("tools/") && w.ends_with(".sh")).collect();
    assert!(scripts.contains(&"tools/size.sh"), "the lint job prints the size metric");
    for script in scripts {
        let meta = std::fs::metadata(Path::new(env!("CARGO_MANIFEST_DIR")).join(script))
            .unwrap_or_else(|e| panic!("ci.yml runs `{script}`: {e}"));
        assert!(meta.permissions().mode() & 0o111 != 0, "`{script}` is not executable");
    }
}

/// Non-test code outside these paths is single-owner: one thread, so no
/// locks, atomics, `Send` or `Sync` bounds, or spawned threads. Each
/// exclusion says why, and each must still match a flagged line.
const SHARED_ACROSS_THREADS: [(&str, &str); 5] = [
    ("crates/routing/src/cch.rs", "`crates/e2e` shares the hierarchy by `Arc`, so it stays `Sync`"),
    ("crates/routing/src/upward.rs", "hierarchy counters, shared as `cch.rs` is"),
    ("crates/routing/src/ch.rs", "reads `upward.rs`'s atomic counters"),
    ("crates/par/", "the worker pool of the CH build"),
    ("crates/e2e/", "the benchmark, which changes on its own schedule"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Whether `line` names a lock, an atomic, a `Send` or `Sync` bound, or
/// spawns threads.
fn shares_across_threads(line: &str) -> bool {
    let word = |w: &str| {
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        line.match_indices(w)
            .any(|(i, _)| !line[..i].ends_with(ident) && !line[i + w.len()..].starts_with(ident))
    };
    ["Mutex", "RwLock", "Relaxed", "thread::spawn", "thread::scope"]
        .iter()
        .any(|w| line.contains(w))
        || word("Send")
        || word("Sync")
        || line
            .match_indices("Atomic")
            .any(|(i, _)| line[i + "Atomic".len()..].starts_with(|c: char| c.is_ascii_uppercase()))
}

#[test]
fn the_thread_lint_flags_whole_words_only() {
    assert!(shares_across_threads("pub trait EventSink: Send {"));
    assert!(shares_across_threads("impl<W: Write + Send + Sync> Sink for W {}"));
    assert!(shares_across_threads("let h = std::thread::spawn(move || work());"));
    assert!(shares_across_threads("std::thread::scope(|s| {"));
    assert!(!shares_across_threads("let (tx, rx): (Sender<u8>, _) = channel(); // Syncing"));
    assert!(!shares_across_threads("SendError, Synchronous, resend, async"));
}

#[test]
fn single_owner_code_takes_no_locks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/").flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    let (mut hits, mut used) = (Vec::new(), [false; SHARED_ACROSS_THREADS.len()]);
    for file in files {
        let rel = file.strip_prefix(root).unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&file).unwrap();
        // `tools/size.sh`'s rule: code before the first `#[cfg(test)]`.
        let code = text.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
        let flagged: Vec<String> = code
            .enumerate()
            .filter(|(_, l)| shares_across_threads(l))
            .map(|(i, l)| format!("{rel}:{}: {}", i + 1, l.trim()))
            .collect();
        match SHARED_ACROSS_THREADS.iter().position(|(prefix, _)| rel.starts_with(prefix)) {
            Some(k) => used[k] |= !flagged.is_empty(),
            None => hits.extend(flagged),
        }
    }
    assert!(hits.is_empty(), "thread-safety in single-owner code:\n{}", hits.join("\n"));
    let stale: Vec<_> =
        SHARED_ACROSS_THREADS.iter().zip(used).filter(|(_, u)| !u).map(|((p, _), _)| p).collect();
    assert!(stale.is_empty(), "exemptions that match no flagged line: {stale:?}");
}
