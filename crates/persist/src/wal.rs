//! The write-ahead log: a flat sequence of checksummed records.
//!
//! Record framing (little-endian):
//!
//! ```text
//! [payload length: u32] [CRC32 of payload: u32] [payload bytes]
//! ```
//!
//! Appends are buffered; [`WalWriter::sync`] flushes and fsyncs. A crash
//! mid-append leaves a *torn tail*: a final record whose header or body
//! is incomplete, or whose checksum does not match. Recovery scans from
//! the front, keeps every valid record, and truncates the file at the
//! first invalid byte — so the log never resurrects a half-written
//! record, and a re-opened writer continues from the last good one.

use crate::crc::crc32;
use crate::fault::{self, FaultInjector, IoFault, IoOp};
use crate::PersistError;
use std::fs::OpenOptions;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::rc::Rc;

/// Per-record header bytes.
const RECORD_HEADER: usize = 8;

/// Records larger than this are treated as corruption, not data — the
/// dispatcher's records are tens of bytes; a huge length is a scrambled
/// header.
const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// The valid prefix of a WAL file.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the valid prefix (the offset recovery truncated to).
    pub valid_len: u64,
    /// Whether a torn or corrupt tail was dropped.
    pub tail_truncated: bool,
}

/// Scans `bytes`, splitting the valid record prefix from any torn tail.
fn scan(bytes: &[u8]) -> WalRecovery {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = bytes.len() - pos;
        if rest == 0 {
            return WalRecovery { records, valid_len: pos as u64, tail_truncated: false };
        }
        if rest < RECORD_HEADER {
            break; // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD {
            break; // scrambled header
        }
        let body_start = pos + RECORD_HEADER;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            break; // torn body
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != stored_crc {
            break; // corrupt body (or a header overwritten mid-crash)
        }
        records.push(body.to_vec());
        pos = body_end;
    }
    WalRecovery { records, valid_len: pos as u64, tail_truncated: true }
}

/// Append handle for a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    out: BufWriter<std::fs::File>,
    injector: Option<Rc<dyn FaultInjector>>,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path` and returns an empty
    /// writer — the start-of-run path.
    pub fn create(path: &Path) -> Result<Self, PersistError> {
        let f = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self { out: BufWriter::new(f), injector: None })
    }

    /// Installs a fault injector consulted before every append/sync.
    pub fn set_fault_injector(&mut self, injector: Rc<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Opens the log at `path`, recovering its valid prefix: intact
    /// records are returned, any torn tail is physically truncated away,
    /// and the writer is positioned to append after the last good
    /// record.
    pub fn open_recover(path: &Path) -> Result<(WalRecovery, Self), PersistError> {
        // `truncate(false)` is the point: the valid prefix must survive.
        let mut f =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)?;
        let recovery = scan(&bytes);
        if recovery.tail_truncated {
            f.set_len(recovery.valid_len)?;
            f.sync_all()?;
        }
        f.seek(SeekFrom::Start(recovery.valid_len))?;
        Ok((recovery, Self { out: BufWriter::new(f), injector: None }))
    }

    /// Appends one record. Buffered — call [`WalWriter::sync`] to make
    /// it durable.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        assert!(payload.len() as u64 <= u64::from(MAX_RECORD), "WAL record too large");
        if let Some(f) = self.injector.as_ref().and_then(|i| i.check(IoOp::WalAppend)) {
            return Err(self.inject_append_fault(f, payload));
        }
        self.out.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.out.write_all(&crc32(payload).to_le_bytes())?;
        self.out.write_all(payload)?;
        Ok(())
    }

    /// Materialises an injected append fault. A short write leaves a
    /// genuinely torn frame on disk — the same bytes a crash mid-append
    /// would leave — so recovery paths see the real thing.
    fn inject_append_fault(&mut self, f: IoFault, payload: &[u8]) -> PersistError {
        match f {
            IoFault::ShortWrite { keep_permille } => {
                let mut frame = Vec::with_capacity(RECORD_HEADER + payload.len());
                frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                frame.extend_from_slice(&crc32(payload).to_le_bytes());
                frame.extend_from_slice(payload);
                let keep = frame.len() * usize::from(keep_permille.min(999)) / 1000;
                let _ = self.out.flush();
                let mut raw = self.out.get_ref();
                let _ = raw.write_all(&frame[..keep]);
                let _ = raw.sync_all();
                PersistError::Io(fault::eio())
            }
            IoFault::NoSpace => PersistError::Io(fault::enospc()),
            IoFault::SyncFailed | IoFault::Unsupported | IoFault::CorruptByte { .. } => {
                PersistError::Io(fault::eio())
            }
        }
    }

    /// Flushes buffered appends and fsyncs the file. A failed flush is
    /// an ordinary [`PersistError::Io`]; a failed fsync is the typed
    /// [`PersistError::SyncFailed`] — the bytes reached the OS, their
    /// durability did not.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.out.flush()?;
        if let Some(f) = self.injector.as_ref().and_then(|i| i.check(IoOp::WalSync)) {
            // The flush above succeeded: data is in the OS page cache,
            // exactly the state a real lost fsync leaves behind.
            let _ = f;
            return Err(PersistError::SyncFailed(fault::eio()));
        }
        self.out.get_ref().sync_all().map_err(PersistError::SyncFailed)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpfile(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mtshare-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d.join("log.mtwal")
    }

    fn write_records(path: &Path, records: &[&[u8]]) {
        let mut w = WalWriter::create(path).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
    }

    #[test]
    fn append_then_recover_round_trips() {
        let p = tmpfile("rt");
        write_records(&p, &[b"one", b"", b"three records"]);
        let (rec, _w) = WalWriter::open_recover(&p).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"".to_vec(), b"three records".to_vec()]);
        assert!(!rec.tail_truncated);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let p = tmpfile("torn");
        write_records(&p, &[b"alpha", b"beta", b"gamma"]);
        let full = fs::read(&p).unwrap();
        // Cut the file at every possible length: recovery must keep
        // exactly the records whose bytes survive in full.
        for cut in 0..full.len() {
            fs::write(&p, &full[..cut]).unwrap();
            let (rec, mut w) = WalWriter::open_recover(&p).unwrap();
            let expect: usize = [b"alpha".len(), b"beta".len(), b"gamma".len()]
                .iter()
                .scan(0usize, |acc, n| {
                    *acc += RECORD_HEADER + n;
                    Some(*acc)
                })
                .filter(|&end| end <= cut)
                .count();
            assert_eq!(rec.records.len(), expect, "cut at {cut}");
            assert_eq!(fs::metadata(&p).unwrap().len(), rec.valid_len, "cut at {cut}");
            // The recovered writer must be able to continue the log.
            w.append(b"resumed").unwrap();
            w.sync().unwrap();
            let (rec2, _) = WalWriter::open_recover(&p).unwrap();
            assert_eq!(rec2.records.len(), expect + 1, "cut at {cut}");
            assert_eq!(rec2.records.last().unwrap(), b"resumed");
        }
    }

    #[test]
    fn corrupt_middle_record_drops_the_suffix() {
        let p = tmpfile("mid");
        write_records(&p, &[b"keep me", b"corrupt me", b"unreachable"]);
        let mut bytes = fs::read(&p).unwrap();
        let second_body = RECORD_HEADER + b"keep me".len() + RECORD_HEADER;
        bytes[second_body] ^= 0xFF;
        fs::write(&p, &bytes).unwrap();
        let (rec, _w) = WalWriter::open_recover(&p).unwrap();
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
        assert!(rec.tail_truncated);
    }

    #[test]
    fn scrambled_length_header_is_treated_as_torn() {
        let p = tmpfile("len");
        write_records(&p, &[b"good"]);
        let mut bytes = fs::read(&p).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
        bytes.extend_from_slice(&0u32.to_le_bytes());
        fs::write(&p, &bytes).unwrap();
        let (rec, _w) = WalWriter::open_recover(&p).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert!(rec.tail_truncated);
    }

    #[test]
    fn create_truncates_previous_log() {
        let p = tmpfile("fresh");
        write_records(&p, &[b"stale"]);
        let _w = WalWriter::create(&p).unwrap();
        let (rec, _) = WalWriter::open_recover(&p).unwrap();
        assert!(rec.records.is_empty());
    }
}
