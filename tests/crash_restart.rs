//! Full-process crash/restart harness: runs the `mtshare` binary, kills
//! it with `--crash-at` (hard `exit(42)`, no clean shutdown), restarts
//! it with `--resume`, and requires the concatenation of the two trace
//! files to be byte-identical to an uninterrupted run — the same check
//! the CI crash-restart job performs, kept here so it runs under plain
//! `cargo test` too.

use std::path::{Path, PathBuf};
use std::process::Command;

fn mtshare(dir: &Path, scheme: &[&str], extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mtshare"))
        .current_dir(dir)
        .args(["simulate"])
        .args(scheme)
        .args([
            "--taxis",
            "15",
            "--requests",
            "150",
            "--nonpeak",
            "--chaos-seed",
            "7",
            "--validate-every",
            "120",
        ])
        .args(extra)
        .output()
        .expect("spawn mtshare")
}

fn crash_restart_scheme(name: &str, scheme: &[&str], crash_at: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let full = mtshare(&dir, scheme, &["--trace-out", "full.jsonl"]);
    assert!(full.status.success(), "baseline: {}", String::from_utf8_lossy(&full.stderr));

    let crash = mtshare(
        &dir,
        scheme,
        &[
            "--trace-out",
            "head.jsonl",
            "--state-dir",
            "state",
            "--checkpoint-every",
            "25",
            "--crash-at",
            crash_at,
        ],
    );
    assert_eq!(
        crash.status.code(),
        Some(42),
        "planned crash must exit with the crash code: {}",
        String::from_utf8_lossy(&crash.stderr)
    );

    let resume =
        mtshare(&dir, scheme, &["--trace-out", "tail.jsonl", "--state-dir", "state", "--resume"]);
    assert!(resume.status.success(), "resume: {}", String::from_utf8_lossy(&resume.stderr));

    let full_trace = std::fs::read(dir.join("full.jsonl")).unwrap();
    let mut joined = std::fs::read(dir.join("head.jsonl")).unwrap();
    joined.extend(std::fs::read(dir.join("tail.jsonl")).unwrap());
    assert!(
        joined == full_trace,
        "concatenated crash+resume trace differs from uninterrupted run ({name})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn process_crash_and_restart_sequential() {
    crash_restart_scheme("seq", &["--scheme", "mt-share"], "80");
}

/// Traffic shifts re-customize bidir's metric too: a resumed run must
/// re-enter the shifted metric at the same work units.
#[test]
fn bidir_crash_and_restart_under_traffic_shifts() {
    let scheme = &["--scheme", "mt-share", "--router", "bidir", "--disruptions", "shifts=3"];
    crash_restart_scheme("bidir-shifts", scheme, "80");
}

/// Step 120 of this run lands inside a traffic-shift window, and so does
/// the snapshot it resumes from (step 100): the restore must install the
/// shifted metric without re-timing the routes the snapshot already timed
/// on it, under both routers that follow shifts.
#[test]
fn crash_and_restart_inside_a_traffic_shift_window() {
    for router in ["bidir", "cch"] {
        let scheme = &["--scheme", "mt-share", "--router", router, "--disruptions", "shifts=3"];
        crash_restart_scheme(&format!("{router}-in-window"), scheme, "120");
    }
}

// The batch scheme keeps an open request window between flushes; a wide
// `--batch-window` makes the fixed crash step land while the window is
// non-empty, so the snapshot/WAL must carry the buffered members and the
// pending flush event across the restart.
const BATCH: &[&str] = &["--scheme", "batch", "--batch-window", "45"];

#[test]
fn batch_crash_and_restart_sequential() {
    crash_restart_scheme("batch-seq", BATCH, "60");
}

#[test]
fn batch_crash_mid_window_various_steps() {
    // Sweep crash points so at least one lands between an arrival being
    // buffered and its window's flush — the checkpoint-boundary-mid-window
    // case — regardless of workload drift.
    for (i, step) in ["40", "75", "110"].iter().enumerate() {
        crash_restart_scheme(&format!("batch-step{i}"), BATCH, step);
    }
}

#[test]
fn resume_refuses_an_older_snapshot_format() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-old-format");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let scheme = &["--scheme", "mt-share"];
    let state = ["--state-dir", "state", "--checkpoint-every", "25", "--crash-at", "80"];
    let crash = mtshare(&dir, scheme, &state);
    assert_eq!(crash.status.code(), Some(42), "{}", String::from_utf8_lossy(&crash.stderr));

    // Stamp every snapshot with format version 1 (bytes 4..8 of the header).
    let mut stamped = Vec::new();
    for entry in std::fs::read_dir(dir.join("state")).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        if bytes.starts_with(b"MTSN") {
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            stamped.push((path, bytes));
        }
    }
    assert!(!stamped.is_empty(), "the crashed run left no snapshot");

    let resume = mtshare(&dir, scheme, &["--state-dir", "state", "--resume"]);
    let stderr = String::from_utf8_lossy(&resume.stderr);
    assert_eq!(resume.status.code(), Some(2), "old format must be refused: {stderr}");
    assert!(stderr.contains("format version 1"), "{stderr}");
    for (path, bytes) in stamped {
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{} was touched", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
