//! Pipeline stages instrumented with wall-clock span timers.

/// The dispatch pipeline stages whose wall-clock latency is tracked.
/// These populate the summary's `profiling.stages` subtree only —
/// wall-clock is nondeterministic and excluded from equivalence checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Grid/index probe producing the candidate taxi set.
    CandidateSearch,
    /// Mobility-cluster partition filtering (Sec. IV-B).
    PartitionFilter,
    /// Schedule-insertion dynamic program over candidates.
    InsertionDp,
    /// Shortest-path / probabilistic routing legs.
    Routing,
    /// Sequential commit (validation + plan install).
    Commit,
    /// One-off contraction-hierarchy preprocessing (build or artifact
    /// load) before the simulation starts.
    PreprocessCh,
    /// Kuhn–Munkres assignment solve over a batch window's cost matrix.
    BatchSolve,
    /// Incremental dynamic-tree scheduling update (`--scheduler dtree`):
    /// spine sync + memoized insertion scoring.
    DtreeUpdate,
    /// CCH metric re-customization when a traffic-shift window opens or
    /// closes (`--router cch` under `--disruptions`): the hierarchy's own
    /// work only — re-filling the pins afterwards is [`Stage::OraclePin`].
    Customize,
    /// Filling pinned vectors in the hot-node oracle, outside the response
    /// time by design: one span per request held (dispatch, batch flush,
    /// re-holds after a restore), one per re-targeting after a metric change.
    OraclePin,
}

impl Stage {
    /// Number of stages (size of per-stage arrays).
    pub const COUNT: usize = 10;

    /// All stages in stable (serialization) order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::CandidateSearch,
        Stage::PartitionFilter,
        Stage::InsertionDp,
        Stage::Routing,
        Stage::Commit,
        Stage::PreprocessCh,
        Stage::BatchSolve,
        Stage::DtreeUpdate,
        Stage::Customize,
        Stage::OraclePin,
    ];

    /// Index into per-stage arrays: the position in [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake_case label used in the summary JSON.
    pub fn label(self) -> &'static str {
        match self {
            Stage::CandidateSearch => "candidate_search",
            Stage::PartitionFilter => "partition_filter",
            Stage::InsertionDp => "insertion_dp",
            Stage::Routing => "routing",
            Stage::Commit => "commit",
            Stage::PreprocessCh => "preprocess_ch",
            Stage::BatchSolve => "batch_solve",
            Stage::DtreeUpdate => "dtree_update",
            Stage::Customize => "customize",
            Stage::OraclePin => "oracle_pin",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_match_all_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }
}
