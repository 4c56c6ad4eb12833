//! Write-ahead log: atomic multi-page commit and crash recovery.
//!
//! The paper delegates "transactions and concurrency control" to the
//! EXODUS toolkit (§2); this module is the minimal substitute. The buffer
//! pool runs a no-steal policy for transactional pages (they are pinned
//! until commit), so the log is redo-only: at commit, the after-images of
//! every touched page are appended and fsynced; recovery replays the
//! images of committed transactions in order; a checkpoint (taken after
//! flushing the data files) truncates the log.
//!
//! Record format (little-endian):
//!
//! ```text
//! [len: u32][kind: u8][payload][checksum: u64]
//! kind 1 = Commit   payload: txn u64, n_pages u32,
//!                            n × (file u32, page u64, image PAGE_SIZE)
//! kind 2 = Checkpoint  payload: empty
//! ```
//!
//! The checksum is a FNV-1a over kind+payload; a torn or corrupt tail
//! record ends recovery (standard WAL semantics), and recovery truncates
//! such a tail away so replay is idempotent.
//!
//! ## Failed appends
//!
//! An append that errors part-way leaves bytes of an *unacknowledged*
//! record in the file. That record must never become visible to recovery:
//! if it did, a transaction whose commit returned `Err` (and which the
//! caller therefore rolled back) could resurrect after a crash, diverging
//! from every state the caller ever observed. So on append failure the
//! log truncates back to the last acknowledged record and syncs; if even
//! that cannot be made durable the log is poisoned — further commits are
//! refused until a successful [`Wal::checkpoint`] rebuilds the log from
//! scratch (safe because checkpoint first makes the data files durable).

use crate::error::{StorageError, StorageResult};
use crate::file::PageId;
use crate::page::PAGE_SIZE;
use crate::vfs::{StdVfs, StorageFile, Vfs};
use coral_profile::Counter;
use std::path::{Path, PathBuf};

const KIND_COMMIT: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One transaction's page after-images as logged at commit:
/// `(stable file number, page, image)` triples.
pub type TxnPages = Vec<(u32, PageId, Box<[u8]>)>;

/// A committed transaction recovered from the log.
#[derive(Debug, PartialEq, Eq)]
pub struct RecoveredTxn {
    /// Transaction id.
    pub txn: u64,
    /// `(stable file number, page, after-image)` triples.
    pub pages: Vec<(u32, PageId, Vec<u8>)>,
}

/// An append-only write-ahead log file.
pub struct Wal {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    /// End offset of the last acknowledged record. Appends always go
    /// here, overwriting any torn garbage from a failed earlier append.
    good_len: u64,
    /// Set when a failed append could not be durably erased; cleared by a
    /// successful checkpoint.
    poisoned: bool,
}

impl Wal {
    /// Open (creating if necessary) the log at `path` on the real file
    /// system.
    pub fn open(path: &Path) -> StorageResult<Wal> {
        Self::open_with(&StdVfs, path)
    }

    /// Open (creating if necessary) the log at `path` through `vfs`.
    pub fn open_with(vfs: &dyn Vfs, path: &Path) -> StorageResult<Wal> {
        let mut file = vfs.open(path)?;
        let good_len = file.len()?;
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            good_len,
            poisoned: false,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&mut self, kind: u8, payload: &[u8]) -> StorageResult<()> {
        if self.poisoned {
            return Err(StorageError::CorruptLog(
                "write-ahead log poisoned by an earlier append failure; \
                 checkpoint to recover"
                    .into(),
            ));
        }
        coral_profile::bump(Counter::WalAppends, 1);
        let len = 1 + payload.len();
        let mut buf = Vec::with_capacity(4 + len + 8);
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        buf.push(kind);
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&fnv1a(&buf[4..]).to_le_bytes());
        let res = self
            .file
            .write_at(self.good_len, &buf)
            .and_then(|()| self.file.sync());
        match res {
            Ok(()) => {
                self.good_len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Erase the unacknowledged record so it cannot be taken
                // for committed after a crash. Only a *durable* erase
                // counts; otherwise refuse further appends.
                let erased = self
                    .file
                    .truncate(self.good_len)
                    .and_then(|()| self.file.sync());
                if erased.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Append and fsync a *batch* of commit records with a single write
    /// and a single sync — the group-commit fast path. The records land
    /// in slice order, which recovery (and therefore the commit-timestamp
    /// assignment that follows a successful batch) preserves. All-or-
    /// nothing at the acknowledgement level: on failure the whole batch
    /// is truncated back (or the log poisoned), exactly like a failed
    /// single append, so no caller ever sees a half-acknowledged batch.
    pub fn log_commit_batch(&mut self, batch: &[(u64, TxnPages)]) -> StorageResult<()> {
        if self.poisoned {
            return Err(StorageError::CorruptLog(
                "write-ahead log poisoned by an earlier append failure; \
                 checkpoint to recover"
                    .into(),
            ));
        }
        let mut buf = Vec::new();
        for (txn, pages) in batch {
            coral_profile::bump(Counter::WalAppends, 1);
            let mut payload = Vec::with_capacity(12 + pages.len() * (12 + PAGE_SIZE));
            payload.extend_from_slice(&txn.to_le_bytes());
            payload.extend_from_slice(&(pages.len() as u32).to_le_bytes());
            for (file_no, pid, image) in pages {
                debug_assert_eq!(image.len(), PAGE_SIZE);
                payload.extend_from_slice(&file_no.to_le_bytes());
                payload.extend_from_slice(&pid.0.to_le_bytes());
                payload.extend_from_slice(image);
            }
            let start = buf.len();
            buf.extend_from_slice(&(1 + payload.len() as u32).to_le_bytes());
            buf.push(KIND_COMMIT);
            buf.extend_from_slice(&payload);
            let sum = fnv1a(&buf[start + 4..]);
            buf.extend_from_slice(&sum.to_le_bytes());
        }
        let res = self
            .file
            .write_at(self.good_len, &buf)
            .and_then(|()| self.file.sync());
        match res {
            Ok(()) => {
                self.good_len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                let erased = self
                    .file
                    .truncate(self.good_len)
                    .and_then(|()| self.file.sync());
                if erased.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Truncate the log and write a checkpoint marker. The caller must
    /// have flushed the data files first. Clears any poison: the data
    /// files are durable, so an empty log is a correct log.
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        self.file.truncate(0)?;
        self.good_len = 0;
        self.poisoned = false;
        self.append(KIND_CHECKPOINT, &[])
    }

    /// Read the committed transactions recorded since the last
    /// checkpoint, in commit order. A torn/corrupt tail record stops the
    /// scan (it was never acknowledged as committed) and is truncated
    /// away, so running recovery twice — e.g. after a crash mid-recovery
    /// — sees the same committed prefix both times.
    pub fn recover(&mut self) -> StorageResult<Vec<RecoveredTxn>> {
        let total = self.file.len()?;
        let mut data = vec![0u8; total as usize];
        self.file.read_at(0, &mut data)?;
        let mut txns = Vec::new();
        let mut off = 0usize;
        while off + 4 <= data.len() {
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
            if off + 4 + len + 8 > data.len() {
                break; // torn tail
            }
            let body = &data[off + 4..off + 4 + len];
            let stored =
                u64::from_le_bytes(data[off + 4 + len..off + 4 + len + 8].try_into().unwrap());
            if fnv1a(body) != stored {
                break; // corrupt tail
            }
            if body.is_empty() {
                break; // zero-length record: torn length prefix
            }
            match body[0] {
                KIND_CHECKPOINT => txns.clear(),
                KIND_COMMIT => {
                    let payload = &body[1..];
                    if payload.len() < 12 {
                        return Err(StorageError::CorruptLog("short commit record".into()));
                    }
                    let txn = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                    let n = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
                    let mut pages = Vec::with_capacity(n);
                    let mut p = 12;
                    for _ in 0..n {
                        if p + 12 + PAGE_SIZE > payload.len() {
                            return Err(StorageError::CorruptLog(
                                "truncated page image in commit record".into(),
                            ));
                        }
                        let file_no = u32::from_le_bytes(payload[p..p + 4].try_into().unwrap());
                        let pid = u64::from_le_bytes(payload[p + 4..p + 12].try_into().unwrap());
                        let image = payload[p + 12..p + 12 + PAGE_SIZE].to_vec();
                        pages.push((file_no, PageId(pid), image));
                        p += 12 + PAGE_SIZE;
                    }
                    txns.push(RecoveredTxn { txn, pages });
                }
                k => return Err(StorageError::CorruptLog(format!("unknown record kind {k}"))),
            }
            off += 4 + len + 8;
        }
        if (off as u64) < total {
            self.file.truncate(off as u64)?;
        }
        self.good_len = off as u64;
        Ok(txns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wal(name: &str) -> Wal {
        let d = std::env::temp_dir().join(format!("coral-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        Wal::open(&p).unwrap()
    }

    fn image(fill: u8) -> Vec<u8> {
        vec![fill; PAGE_SIZE]
    }

    /// Log one transaction as a batch of one.
    fn log_commit(w: &mut Wal, txn: u64, pages: &[(u32, PageId, &[u8])]) -> StorageResult<()> {
        let pages = pages
            .iter()
            .map(|&(f, p, img)| (f, p, img.into()))
            .collect();
        w.log_commit_batch(&[(txn, pages)])
    }

    #[test]
    fn commit_then_recover() {
        let mut w = wal("basic.wal");
        let img1 = image(1);
        let img2 = image(2);
        log_commit(&mut w, 7, &[(0, PageId(3), &img1), (1, PageId(0), &img2)]).unwrap();
        let txns = w.recover().unwrap();
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 7);
        assert_eq!(txns[0].pages.len(), 2);
        assert_eq!(txns[0].pages[0], (0, PageId(3), img1));
        assert_eq!(txns[0].pages[1], (1, PageId(0), img2));
    }

    #[test]
    fn checkpoint_clears_history() {
        let mut w = wal("ckpt.wal");
        log_commit(&mut w, 1, &[(0, PageId(0), &image(1))]).unwrap();
        w.checkpoint().unwrap();
        log_commit(&mut w, 2, &[(0, PageId(1), &image(2))]).unwrap();
        let txns = w.recover().unwrap();
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].txn, 2);
    }

    #[test]
    fn torn_tail_is_ignored_and_trimmed() {
        let path = {
            let mut w = wal("torn.wal");
            log_commit(&mut w, 1, &[(0, PageId(0), &image(9))]).unwrap();
            log_commit(&mut w, 2, &[(0, PageId(1), &image(8))]).unwrap();
            w.path().to_path_buf()
        };
        // Chop bytes off the tail, simulating a crash mid-write.
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 100]).unwrap();
        let mut w = Wal::open(&path).unwrap();
        let txns = w.recover().unwrap();
        assert_eq!(txns.len(), 1, "only the fully written txn survives");
        assert_eq!(txns[0].txn, 1);
        // The torn tail was truncated: a second recovery pass (crash
        // mid-recovery) sees the identical committed prefix, and a new
        // commit starts cleanly after record 1.
        let len_after = std::fs::metadata(&path).unwrap().len();
        assert!(len_after < data.len() as u64 - 100);
        assert_eq!(w.recover().unwrap().len(), 1);
        log_commit(&mut w, 3, &[(0, PageId(2), &image(7))]).unwrap();
        let txns = w.recover().unwrap();
        assert_eq!(
            txns.iter().map(|t| t.txn).collect::<Vec<_>>(),
            vec![1, 3],
            "new commit appends after the trimmed tail"
        );
    }

    #[test]
    fn corrupt_checksum_stops_recovery() {
        let path = {
            let mut w = wal("crc.wal");
            log_commit(&mut w, 1, &[(0, PageId(0), &image(1))]).unwrap();
            log_commit(&mut w, 2, &[(0, PageId(1), &image(2))]).unwrap();
            w.path().to_path_buf()
        };
        let mut data = std::fs::read(&path).unwrap();
        // Flip a byte inside the *second* record's payload.
        let rec1_len = 4 + (1 + 8 + 4 + 12 + PAGE_SIZE) + 8;
        data[rec1_len + 40] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let mut w = Wal::open(&path).unwrap();
        let txns = w.recover().unwrap();
        assert_eq!(txns.len(), 1);
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let mut w = wal("empty.wal");
        assert!(w.recover().unwrap().is_empty());
    }

    #[test]
    fn batch_commit_recovers_in_order() {
        let mut w = wal("batch.wal");
        let batch: Vec<(u64, super::TxnPages)> = (0..4u64)
            .map(|t| {
                (
                    t + 10,
                    vec![(0u32, PageId(t), image(t as u8).into_boxed_slice())],
                )
            })
            .collect();
        w.log_commit_batch(&batch).unwrap();
        let txns = w.recover().unwrap();
        assert_eq!(
            txns.iter().map(|t| t.txn).collect::<Vec<_>>(),
            vec![10, 11, 12, 13],
            "batch preserves commit order"
        );
        assert_eq!(txns[2].pages[0].2, image(2));
    }

    #[test]
    fn multiple_commits_in_order() {
        let mut w = wal("order.wal");
        for t in 0..5u64 {
            log_commit(&mut w, t, &[(0, PageId(t), &image(t as u8))]).unwrap();
        }
        let txns = w.recover().unwrap();
        assert_eq!(
            txns.iter().map(|t| t.txn).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }
}
