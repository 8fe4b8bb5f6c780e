//! Fault-injection seam for the storage layer.
//!
//! Every durable I/O operation in this crate (WAL appends/syncs,
//! snapshot writes/reads, directory fsyncs) funnels through an optional
//! [`FaultInjector`] before touching the filesystem. Production runs
//! carry no injector and pay one `Option` check; test harnesses and the
//! CLI's `--failpoints` flag install a deterministic plan (see
//! `mtshare-chaos`'s `failpoint` module) that makes a chosen call fail
//! in a chosen way — ENOSPC, a lost fsync, a torn frame, a flipped
//! byte on read-back.
//!
//! The injector lives *here*, not in `mtshare-chaos`, because this
//! crate is dependency-free and everything else depends on it: the
//! trait is the seam, the chaos crate supplies the seeded plan.

use std::fmt;
use std::io;

/// The durable I/O operations that can be failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// One `WalWriter::append` call (buffered frame write).
    WalAppend,
    /// One `WalWriter::sync` call (flush + fsync).
    WalSync,
    /// One atomic snapshot write (temp file + rename).
    SnapshotWrite,
    /// One snapshot read-back (validation included).
    SnapshotRead,
    /// The directory fsync making a snapshot rename durable.
    DirSync,
}

impl IoOp {
    /// Every operation, in a fixed order (stable indices for counters).
    pub const ALL: [IoOp; 5] =
        [IoOp::WalAppend, IoOp::WalSync, IoOp::SnapshotWrite, IoOp::SnapshotRead, IoOp::DirSync];

    /// Dense index into [`IoOp::ALL`].
    pub fn index(self) -> usize {
        match self {
            IoOp::WalAppend => 0,
            IoOp::WalSync => 1,
            IoOp::SnapshotWrite => 2,
            IoOp::SnapshotRead => 3,
            IoOp::DirSync => 4,
        }
    }

    /// Stable label for telemetry events.
    pub fn label(self) -> &'static str {
        match self {
            IoOp::WalAppend => "wal_append",
            IoOp::WalSync => "wal_sync",
            IoOp::SnapshotWrite => "snapshot_write",
            IoOp::SnapshotRead => "snapshot_read",
            IoOp::DirSync => "dir_sync",
        }
    }
}

/// How an injected operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// ENOSPC before any byte reaches the file.
    NoSpace,
    /// The data reaches the OS (flush succeeds) but the fsync is lost —
    /// the durability guarantee fails, not the write itself.
    SyncFailed,
    /// The filesystem does not support the operation (directory fsync
    /// on certain filesystems) — tolerated and counted, never fatal.
    Unsupported,
    /// Only a prefix of the frame reaches the file before EIO: a torn
    /// frame at an arbitrary byte offset. `keep_permille` selects how
    /// much of the frame survives (0..=999, thousandths).
    ShortWrite {
        /// Thousandths of the frame written before the failure.
        keep_permille: u16,
    },
    /// On read-back, XOR `mask` into the byte at `offset` (wrapped into
    /// the file length) before validation — a silent-corruption probe
    /// that the CRC/format checks must catch.
    CorruptByte {
        /// Byte position, taken modulo the file length.
        offset: u64,
        /// Non-zero XOR mask applied to that byte.
        mask: u8,
    },
}

/// A deterministic fault source consulted by the storage layer.
///
/// `check` is called once per I/O operation *before* the real work; a
/// `Some(fault)` makes that call fail as described by the fault. The
/// injector owns whatever call-counting it needs — the storage layer
/// carries no schedule state.
pub trait FaultInjector: fmt::Debug {
    /// Returns the fault the current `op` call should suffer, if any.
    fn check(&self, op: IoOp) -> Option<IoFault>;
}

/// ENOSPC as a real `io::Error` (raw errno 28 — `ErrorKind::StorageFull`
/// needs a newer MSRV than this workspace pins).
pub fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28)
}

/// EIO as a real `io::Error` (raw errno 5).
pub fn eio() -> io::Error {
    io::Error::from_raw_os_error(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_indices_match_all_order() {
        for (i, op) in IoOp::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
        }
    }

    #[test]
    fn errno_constructors_classify() {
        assert_eq!(enospc().raw_os_error(), Some(28));
        assert_eq!(eio().raw_os_error(), Some(5));
    }
}
