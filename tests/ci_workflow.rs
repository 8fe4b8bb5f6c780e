//! GitHub rejects a workflow that defines a job key twice, and then none of
//! its jobs run. Nothing else local parses the file, so this does — as
//! text: the keys indented by exactly two spaces under `jobs:`.

#[test]
fn ci_job_keys_are_unique() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
    let text = std::fs::read_to_string(path).expect("the CI workflow is part of the repo");
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
