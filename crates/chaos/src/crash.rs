//! Dispatcher-death injection: the one disruption the in-world chaos
//! plan cannot model. A [`CrashPoint`] kills the *process itself* after
//! a fixed number of simulator steps, so a harness (or the CI
//! crash-restart job) can restart it with `--resume` and verify the
//! continued trace is byte-identical to an uninterrupted run.
//!
//! The step counter — not wall clock or sim time — defines the crash
//! position: one step per committed unit of work in the sequential event
//! order (a heap event, a consumed arrival, or a validation sweep), so
//! a step index names the same world state in every run of a scenario.

/// How the simulator should die when the crash step is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Hard-exit the process with [`CRASH_EXIT_CODE`] after flushing the
    /// WAL and trace sinks — the CLI/harness path. Deliberately *not* a
    /// clean shutdown: no final snapshot is written, recovery must come
    /// from the last checkpoint plus the WAL.
    ExitProcess,
    /// Return control to the caller instead of exiting — the in-process
    /// test path, so a single test can crash, resume and compare.
    Return,
}

/// Exit code of a run killed by `--crash-at`, distinct from success (0)
/// and ordinary errors (1/2) so restart harnesses can tell a planned
/// crash from a real failure.
pub const CRASH_EXIT_CODE: i32 = 42;

/// A planned dispatcher death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Die once this many steps have been fully processed.
    pub at_step: u64,
    /// Process-exit (CLI) or in-process return (tests).
    pub mode: CrashMode,
}

impl CrashPoint {
    /// A process-exiting crash after `at_step` steps.
    pub fn exit_at(at_step: u64) -> Self {
        Self { at_step, mode: CrashMode::ExitProcess }
    }

    /// An in-process crash after `at_step` steps (for tests).
    pub fn return_at(at_step: u64) -> Self {
        Self { at_step, mode: CrashMode::Return }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_mode() {
        assert_eq!(CrashPoint::exit_at(10).mode, CrashMode::ExitProcess);
        assert_eq!(CrashPoint::return_at(10).mode, CrashMode::Return);
        assert_eq!(CrashPoint::exit_at(10).at_step, 10);
    }
}
