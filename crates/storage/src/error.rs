//! Storage-layer errors.

use std::fmt;
use std::io;

/// Errors from the storage substrate.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying file I/O failure.
    Io(io::Error),
    /// A record larger than a page's usable space.
    RecordTooLarge { size: usize, max: usize },
    /// A record id that does not name a live record.
    BadRecordId,
    /// A page id beyond the end of its file.
    BadPageId,
    /// An unknown file id (never created or already dropped).
    BadFileId,
    /// The write-ahead log is corrupt (torn record, bad checksum).
    CorruptLog(String),
    /// A catalog/format violation.
    Corrupt(String),
    /// A transaction lost a concurrency race (write-write conflict,
    /// lock wait timeout, or wound by an older transaction). The
    /// transaction was or must be aborted; the operation is safe to
    /// retry in a fresh transaction.
    TxnConflict(String),
    /// A transaction id that is not currently active (never begun,
    /// already committed, or already aborted).
    UnknownTxn(u64),
    /// Every buffer frame is pinned. Transactions pin each page they
    /// dirty until they end (no-steal), so one that touches more pages
    /// than the pool holds cannot commit at this pool size; abort it.
    PoolExhausted { frames: usize },
}

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::RecordTooLarge { size, max } => {
                write!(f, "record of {size} bytes exceeds page capacity {max}")
            }
            StorageError::BadRecordId => f.write_str("dangling record id"),
            StorageError::BadPageId => f.write_str("page id out of range"),
            StorageError::BadFileId => f.write_str("unknown file id"),
            StorageError::CorruptLog(m) => write!(f, "corrupt write-ahead log: {m}"),
            StorageError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
            StorageError::TxnConflict(m) => write!(f, "transaction conflict (retryable): {m}"),
            StorageError::UnknownTxn(id) => write!(f, "unknown transaction id {id}"),
            StorageError::PoolExhausted { frames } => {
                write!(f, "buffer pool exhausted: all {frames} frames pinned")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> StorageError {
        StorageError::Io(e)
    }
}
