//! The snapshot container: one self-validating file per checkpoint.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MTSN"
//! 4       4     format version (FORMAT_VERSION)
//! 8       8     payload length in bytes
//! 16      4     CRC32 of the payload
//! 20      n     payload (opaque to this layer)
//! ```
//!
//! Writes go to a `.tmp` sibling first and are renamed into place after
//! `sync_all`, so under the final name a snapshot either exists in full
//! or not at all — a crash mid-checkpoint leaves the previous snapshot
//! untouched and at worst a stray temp file that the next write
//! replaces.

use crate::crc::crc32;
use crate::fault::{self, FaultInjector, IoFault, IoOp};
use crate::PersistError;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"MTSN";

/// Container format version written by this build. v2: the mT-Share index
/// payload holds per-taxi partition entries and seat counts instead of
/// arrival-sorted partition lists and cluster member lists.
pub const FORMAT_VERSION: u32 = 2;

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 20;

/// Outcome of a successful snapshot write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Total file size in bytes (header + payload).
    pub bytes: u64,
    /// The filesystem refused to fsync the parent directory
    /// (`Unsupported`): the rename's durability is best-effort on this
    /// filesystem. Tolerated, but surfaced so callers can count it —
    /// any *other* directory-fsync failure is propagated as an error.
    pub dir_sync_unsupported: bool,
}

/// Writes `payload` as a snapshot at `path`, atomically.
pub fn write_snapshot(path: &Path, payload: &[u8]) -> Result<SnapshotStats, PersistError> {
    write_snapshot_with(path, payload, None)
}

/// [`write_snapshot`] with an optional fault injector consulted before
/// the temp-file write (`SnapshotWrite`) and the directory fsync
/// (`DirSync`).
pub fn write_snapshot_with(
    path: &Path,
    payload: &[u8],
    injector: Option<&dyn FaultInjector>,
) -> Result<SnapshotStats, PersistError> {
    let mut file_bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    file_bytes.extend_from_slice(&MAGIC);
    file_bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file_bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file_bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    file_bytes.extend_from_slice(payload);

    let tmp = path.with_extension("tmp");
    if let Some(f) = injector.and_then(|i| i.check(IoOp::SnapshotWrite)) {
        return Err(inject_write_fault(f, &tmp, &file_bytes));
    }
    {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(&file_bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Directory fsync makes the rename itself durable. "This filesystem
    // cannot fsync a directory" is tolerated and reported via the
    // stats; a real failure means the snapshot's existence may not
    // survive a power cut — that is propagated, not swallowed.
    let mut dir_sync_unsupported = false;
    if let Some(parent) = path.parent() {
        let injected = injector.and_then(|i| i.check(IoOp::DirSync));
        match injected {
            Some(IoFault::Unsupported) => dir_sync_unsupported = true,
            Some(_) => return Err(PersistError::SyncFailed(fault::eio())),
            None => match File::open(parent).and_then(|d| d.sync_all()) {
                Ok(()) => {}
                Err(e) if dir_sync_is_unsupported(&e) => dir_sync_unsupported = true,
                Err(e) => return Err(PersistError::SyncFailed(e)),
            },
        }
    }
    Ok(SnapshotStats { bytes: file_bytes.len() as u64, dir_sync_unsupported })
}

/// Whether a directory-fsync error means "this filesystem does not
/// support the operation" (ENOTSUP/EINVAL/`Unsupported`) rather than a
/// real durability failure.
fn dir_sync_is_unsupported(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::Unsupported || matches!(e.raw_os_error(), Some(95 | 22))
}

/// Materialises an injected snapshot-write fault. A short write leaves
/// a partial *temp* file and never renames — demonstrating that the
/// final name stays atomic even under a torn write.
fn inject_write_fault(f: IoFault, tmp: &Path, file_bytes: &[u8]) -> PersistError {
    match f {
        IoFault::ShortWrite { keep_permille } => {
            let keep = file_bytes.len() * usize::from(keep_permille.min(999)) / 1000;
            let _ = fs::write(tmp, &file_bytes[..keep]);
            PersistError::Io(fault::eio())
        }
        IoFault::NoSpace => PersistError::Io(fault::enospc()),
        IoFault::SyncFailed => PersistError::SyncFailed(fault::eio()),
        IoFault::Unsupported | IoFault::CorruptByte { .. } => PersistError::Io(fault::eio()),
    }
}

/// Reads and validates the snapshot at `path`, returning its payload.
pub fn read_snapshot(path: &Path) -> Result<Vec<u8>, PersistError> {
    read_snapshot_with(path, None)
}

/// [`read_snapshot`] with an optional fault injector: a `CorruptByte`
/// fault flips one byte of the raw file image before validation, so
/// the CRC/format checks are exercised against real corruption.
pub fn read_snapshot_with(
    path: &Path,
    injector: Option<&dyn FaultInjector>,
) -> Result<Vec<u8>, PersistError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    if let Some(f) = injector.and_then(|i| i.check(IoOp::SnapshotRead)) {
        match f {
            IoFault::CorruptByte { offset, mask } if !raw.is_empty() => {
                let i = (offset % raw.len() as u64) as usize;
                raw[i] ^= if mask == 0 { 0x40 } else { mask };
            }
            IoFault::CorruptByte { .. } => {}
            _ => return Err(PersistError::Io(fault::eio())),
        }
    }
    if raw.len() < HEADER_LEN {
        return Err(PersistError::Corrupt(format!(
            "{}: {} bytes is shorter than the header",
            path.display(),
            raw.len()
        )));
    }
    if raw[0..4] != MAGIC {
        return Err(PersistError::Corrupt(format!("{}: bad magic", path.display())));
    }
    let version = u32::from_le_bytes(raw[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: version, expected: FORMAT_VERSION });
    }
    let len = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes"));
    let stored_crc = u32::from_le_bytes(raw[16..20].try_into().expect("4 bytes"));
    let payload = &raw[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(PersistError::Corrupt(format!(
            "{}: header claims {len} payload bytes, file holds {}",
            path.display(),
            payload.len()
        )));
    }
    if crc32(payload) != stored_crc {
        return Err(PersistError::Corrupt(format!(
            "{}: payload checksum mismatch",
            path.display()
        )));
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mtshare-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_payload() {
        let dir = tmpdir("rt");
        let p = dir.join("a.mtsnap");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let stats = write_snapshot(&p, &payload).unwrap();
        assert_eq!(stats.bytes as usize, HEADER_LEN + payload.len());
        assert!(!stats.dir_sync_unsupported, "tmpfs supports directory fsync");
        assert_eq!(read_snapshot(&p).unwrap(), payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let dir = tmpdir("rw");
        let p = dir.join("a.mtsnap");
        write_snapshot(&p, b"old state").unwrap();
        write_snapshot(&p, b"new state").unwrap();
        assert_eq!(read_snapshot(&p).unwrap(), b"new state");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let dir = tmpdir("flip");
        let p = dir.join("a.mtsnap");
        write_snapshot(&p, b"state that must not silently change").unwrap();
        let good = fs::read(&p).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            fs::write(&p, &bad).unwrap();
            assert!(read_snapshot(&p).is_err(), "corruption at byte {i} was not rejected");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = tmpdir("trunc");
        let p = dir.join("a.mtsnap");
        write_snapshot(&p, b"0123456789").unwrap();
        let good = fs::read(&p).unwrap();
        for keep in 0..good.len() {
            fs::write(&p, &good[..keep]).unwrap();
            assert!(read_snapshot(&p).is_err(), "truncation to {keep} bytes accepted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_1_snapshot_is_rejected() {
        let dir = tmpdir("v1");
        let p = dir.join("a.mtsnap");
        write_snapshot(&p, b"payload").unwrap();
        let mut raw = fs::read(&p).unwrap();
        raw[4..8].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&p, &raw).unwrap();
        let err = read_snapshot(&p).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedVersion { found: 1, expected: 2 }));
        assert_eq!(fs::read(&p).unwrap(), raw, "a refused snapshot is left intact");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_format_version_is_rejected() {
        let dir = tmpdir("ver");
        let p = dir.join("a.mtsnap");
        write_snapshot(&p, b"payload").unwrap();
        let mut raw = fs::read(&p).unwrap();
        raw[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&p, &raw).unwrap();
        assert!(matches!(read_snapshot(&p), Err(PersistError::UnsupportedVersion { .. })));
        let _ = fs::remove_dir_all(&dir);
    }
}
