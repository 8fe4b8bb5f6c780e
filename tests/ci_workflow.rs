//! The CI workflow cannot run here, so what can break it silently is
//! checked as text. GitHub rejects a workflow that defines a job key twice,
//! and then none of its jobs run: the keys indented by exactly two spaces
//! under `jobs:` must be unique. And `mtshare` exits 2 on a flag it does
//! not know, so a step that still passes a removed flag fails its job.

fn workflow() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    std::fs::read_to_string(path).expect("the CI workflow is part of the repo")
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
