//! State-directory management: where a run keeps its snapshots and WAL.
//!
//! Layout inside the directory:
//!
//! ```text
//! snap-000000000000.mtsnap    snapshot taken at step 0
//! snap-000000004096.mtsnap    snapshot taken at step 4096
//! ...
//! wal.mtwal                   one log for the whole run; records carry
//!                             their step number, so recovery replays
//!                             only those past the chosen snapshot
//! ```
//!
//! Recovery walks snapshots newest-first and returns the first one that
//! validates, skipping corrupt files instead of failing — the previous
//! checkpoint plus the (longer-lived) WAL still reach the crash point.

use crate::fault::FaultInjector;
use crate::snapshot::{read_snapshot_with, write_snapshot_with, SnapshotStats};
use crate::PersistError;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// Extension of snapshot files.
const SNAP_EXT: &str = "mtsnap";
/// File name of the write-ahead log.
const WAL_NAME: &str = "wal.mtwal";

/// A directory holding one run's recoverable state.
#[derive(Debug, Clone)]
pub struct StateDir {
    root: PathBuf,
    injector: Option<Rc<dyn FaultInjector>>,
}

impl StateDir {
    /// Opens `root`, creating the directory if needed.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, PersistError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root, injector: None })
    }

    /// Installs a fault injector consulted by snapshot reads/writes.
    pub fn with_fault_injector(mut self, injector: Rc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Path of the write-ahead log.
    pub fn wal_path(&self) -> PathBuf {
        self.root.join(WAL_NAME)
    }

    /// Path of the snapshot taken at `step`.
    pub fn snapshot_path(&self, step: u64) -> PathBuf {
        self.root.join(format!("snap-{step:012}.{SNAP_EXT}"))
    }

    /// Steps with a snapshot file present, ascending. Unparseable file
    /// names are ignored.
    pub fn snapshot_steps(&self) -> Result<Vec<u64>, PersistError> {
        let mut steps = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(&format!(".{SNAP_EXT}")) else { continue };
            let Some(digits) = stem.strip_prefix("snap-") else { continue };
            if let Ok(step) = digits.parse::<u64>() {
                steps.push(step);
            }
        }
        steps.sort_unstable();
        Ok(steps)
    }

    /// Writes `payload` as the snapshot for `step`.
    pub fn write_snapshot(&self, step: u64, payload: &[u8]) -> Result<SnapshotStats, PersistError> {
        write_snapshot_with(&self.snapshot_path(step), payload, self.injector.as_deref())
    }

    /// Loads the newest snapshot that validates, as `(step, payload)`.
    /// Corrupt or unreadable snapshots are skipped (newest-first), so a
    /// damaged latest checkpoint falls back to the one before it.
    /// `Ok(None)` means no snapshot exists at all; when none validates but
    /// some carry another format version, that typed
    /// [`PersistError::UnsupportedVersion`] comes back instead.
    pub fn load_newest_valid(&self) -> Result<Option<(u64, Vec<u8>)>, PersistError> {
        let mut steps = self.snapshot_steps()?;
        steps.reverse();
        let mut other_version = None;
        for step in steps {
            match read_snapshot_with(&self.snapshot_path(step), self.injector.as_deref()) {
                Ok(payload) => return Ok(Some((step, payload))),
                Err(e @ PersistError::UnsupportedVersion { .. }) => {
                    other_version.get_or_insert(e);
                }
                Err(_) => continue, // missing or corrupt: fall back to an older one
            }
        }
        other_version.map_or(Ok(None), Err)
    }

    /// Quarantines this state-dir generation: renames the whole
    /// directory to a `<root>.quarantine-N` sibling (first free `N`),
    /// preserving the bad state for post-mortem while freeing the path
    /// for a fresh generation. The degrade durability policy calls this
    /// when the storage layer fails mid-run.
    pub fn quarantine(&self) -> Result<PathBuf, PersistError> {
        let name = self.root.file_name().and_then(|s| s.to_str()).unwrap_or("state");
        for n in 1..10_000u32 {
            let dest = self.root.with_file_name(format!("{name}.quarantine-{n}"));
            if !dest.exists() {
                fs::rename(&self.root, &dest)?;
                return Ok(dest);
            }
        }
        Err(PersistError::Io(std::io::Error::other("too many quarantined generations")))
    }

    /// Removes every snapshot and the WAL — the fresh-run path, so a
    /// reused directory cannot mix state from two runs.
    pub fn reset(&self) -> Result<(), PersistError> {
        for step in self.snapshot_steps()? {
            let _ = fs::remove_file(self.snapshot_path(step));
        }
        let wal = self.wal_path();
        if wal.exists() {
            fs::remove_file(&wal)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mtshare-dir-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn newest_valid_snapshot_wins() {
        let sd = StateDir::create(tmpdir("newest")).unwrap();
        sd.write_snapshot(0, b"at step 0").unwrap();
        sd.write_snapshot(128, b"at step 128").unwrap();
        sd.write_snapshot(64, b"at step 64").unwrap();
        let (step, payload) = sd.load_newest_valid().unwrap().unwrap();
        assert_eq!(step, 128);
        assert_eq!(payload, b"at step 128");
        let _ = fs::remove_dir_all(sd.path());
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let sd = StateDir::create(tmpdir("fallback")).unwrap();
        sd.write_snapshot(0, b"good old").unwrap();
        sd.write_snapshot(100, b"doomed").unwrap();
        // Scribble over the newest snapshot's payload.
        let p = sd.snapshot_path(100);
        let mut bytes = fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();
        let (step, payload) = sd.load_newest_valid().unwrap().unwrap();
        assert_eq!(step, 0);
        assert_eq!(payload, b"good old");
        let _ = fs::remove_dir_all(sd.path());
    }

    #[test]
    fn snapshots_of_another_format_are_refused_typed_and_kept() {
        let sd = StateDir::create(tmpdir("version")).unwrap();
        sd.write_snapshot(0, b"old format").unwrap();
        let p = sd.snapshot_path(0);
        let mut bytes = fs::read(&p).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&p, &bytes).unwrap();
        let err = sd.load_newest_valid().unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion { found: 1, .. }));
        assert_eq!(fs::read(&p).unwrap(), bytes);
        // A snapshot this build reads still wins over the old one.
        sd.write_snapshot(50, b"current").unwrap();
        assert_eq!(sd.load_newest_valid().unwrap().unwrap().0, 50);
        let _ = fs::remove_dir_all(sd.path());
    }

    #[test]
    fn empty_directory_has_no_snapshot() {
        let sd = StateDir::create(tmpdir("empty")).unwrap();
        assert!(sd.load_newest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(sd.path());
    }

    #[test]
    fn reset_clears_snapshots_and_wal() {
        let sd = StateDir::create(tmpdir("reset")).unwrap();
        sd.write_snapshot(0, b"x").unwrap();
        fs::write(sd.wal_path(), b"records").unwrap();
        sd.reset().unwrap();
        assert!(sd.snapshot_steps().unwrap().is_empty());
        assert!(!sd.wal_path().exists());
        let _ = fs::remove_dir_all(sd.path());
    }

    #[test]
    fn quarantine_moves_the_generation_aside() {
        let sd = StateDir::create(tmpdir("quarantine")).unwrap();
        sd.write_snapshot(0, b"bad generation").unwrap();
        fs::write(sd.wal_path(), b"records").unwrap();
        let root = sd.path().to_path_buf();
        let q1 = sd.quarantine().unwrap();
        assert!(!root.exists(), "original path must be freed");
        assert!(q1.exists());
        assert!(q1.join(WAL_NAME).exists(), "quarantined state is preserved");
        // A second generation at the same root quarantines to -2.
        let sd2 = StateDir::create(&root).unwrap();
        let q2 = sd2.quarantine().unwrap();
        assert_ne!(q1, q2);
        for d in [q1, q2] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn foreign_files_are_ignored() {
        let sd = StateDir::create(tmpdir("foreign")).unwrap();
        fs::write(sd.path().join("notes.txt"), b"hello").unwrap();
        fs::write(sd.path().join("snap-bogus.mtsnap"), b"junk").unwrap();
        sd.write_snapshot(7, b"real").unwrap();
        assert_eq!(sd.snapshot_steps().unwrap(), vec![7]);
        let _ = fs::remove_dir_all(sd.path());
    }
}
