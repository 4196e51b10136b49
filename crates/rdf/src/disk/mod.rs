//! Persistent dictionary-encoded storage: mmap segments + WAL deltas.
//!
//! The engine is otherwise memory-only — restart means re-parsing the
//! corpus and re-running OWL materialization. This module adds a second
//! backend under the [`GraphView`](crate::view::GraphView) seam:
//!
//! - [`segment`] — a write-once, dictionary-encoded segment file: term
//!   dictionary (dense id order, with a byte-sorted permutation for
//!   lookups) plus SPO/POS/OSP sorted runs that memory-map for
//!   zero-copy range scans, and the persisted [`GraphStats`] so the
//!   cost-based planner plans identically over disk and memory.
//! - [`wal`] — a write-ahead delta log holding every committed ledger
//!   layer since the segment was written, replayed on open so the
//!   ledger's epoch structure survives restart exactly.
//! - [`store`] — the on-disk directory tying both together (MANIFEST +
//!   active segment + WAL), with crash-safe tmp+rename publication and
//!   torn-tail WAL recovery.
//! - [`codec`] / [`mmap`] — the shared term byte codec and a minimal
//!   `mmap(2)` wrapper (with a plain read fallback).
//!
//! Corruption surfaces as typed [`StoreError`]s (wrapped in
//! [`RdfError::Store`](crate::RdfError::Store)); nothing in this module
//! panics on malformed bytes.
//!
//! [`GraphStats`]: crate::stats::GraphStats

pub mod codec;
pub mod mmap;
pub mod segment;
mod source;
pub mod store;
pub mod wal;

pub use segment::Segment;
pub use store::{DiskStore, OpenedStore};
pub use wal::{WalRecord, WalReplay};

use std::fmt;
use std::path::{Path, PathBuf};

/// The on-disk format version of the segment, the WAL and the MANIFEST,
/// the only one this build reads and writes (2: word-at-a-time
/// checksums, the base's triple sum in the segment). A file with another
/// version byte is refused with [`StoreError::UnsupportedVersion`], never
/// misread or migrated.
pub const FORMAT_VERSION: u8 = 2;

/// Typed failure surface of the persistent store. Every corrupt or
/// unreadable byte pattern maps to one of these — the module never
/// panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O failure (open, read, write, rename, …).
    Io {
        /// The operation that failed (static description).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error rendered as text (`std::io::Error` is neither
        /// `Clone` nor `PartialEq`, so we keep its message).
        detail: String,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic { path: PathBuf },
    /// The file's format version byte is not one this build supports.
    UnsupportedVersion { path: PathBuf, found: u8 },
    /// The file ends before a structure it promised (header, offset
    /// table, run, record) — typically a truncated write.
    Truncated { what: &'static str },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch { what: &'static str },
    /// A structural invariant does not hold (offsets not monotone, runs
    /// unsorted, an id out of range, undecodable term bytes, …).
    Corrupt { what: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, detail } => {
                write!(f, "store i/o: {op} {}: {detail}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "not a feo store file: {}", path.display())
            }
            StoreError::UnsupportedVersion { path, found } => write!(
                f,
                "unsupported store format version {found} (this build reads v{FORMAT_VERSION} \
                 only; rebuild the store from source): {}",
                path.display()
            ),
            StoreError::Truncated { what } => write!(f, "truncated store file: {what}"),
            StoreError::ChecksumMismatch { what } => {
                write!(f, "store checksum mismatch: {what}")
            }
            StoreError::Corrupt { what } => write!(f, "corrupt store file: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Wraps an `std::io::Error` with its operation and path.
    pub(crate) fn io(op: &'static str, path: &Path, e: std::io::Error) -> StoreError {
        StoreError::Io {
            op,
            path: path.to_path_buf(),
            detail: e.to_string(),
        }
    }
}

/// Options for opening a segment / store.
#[derive(Debug, Clone, Copy)]
pub struct OpenOptions {
    /// Verify the segment's whole-body checksum at open: one pass, word
    /// at a time, over the mapped bytes — vastly cheaper than the parse +
    /// materialize it replaces, but skippable for huge read-mostly
    /// deployments that trust the medium.
    pub verify_checksum: bool,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            verify_checksum: true,
        }
    }
}
