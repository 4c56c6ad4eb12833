//! Write-ahead log: atomic multi-page commit and crash recovery.
//!
//! The paper delegates "transactions and concurrency control" to the
//! EXODUS toolkit (§2); this module is the minimal substitute. The buffer
//! pool runs a no-steal policy for transactional pages (they are pinned
//! until commit), so the log is redo-only: at commit, one record carries
//! every touched page's change and is fsynced; recovery replays the
//! committed records in order; a checkpoint (taken after flushing the
//! data files) truncates the log.
//!
//! A commit logs each page as either a full after-image or a *delta*:
//! the byte runs where the after-image differs from the transaction's
//! before-image. A page's first logging after a checkpoint is always a
//! full image (the buffer pool decides, see `BufferPool::tx_prepare`),
//! so replay always has a base to apply deltas to, and a page torn by
//! the next checkpoint's flush is rebuilt whole from the log. A delta
//! whose page has no full image earlier in the log is
//! [`StorageError::CorruptLog`].
//!
//! Record format (little-endian):
//!
//! ```text
//! [len: u32][kind: u8][payload][checksum: u64]
//! kind 2 = Checkpoint  payload: empty
//! kind 3 = Commit      payload: txn u64, n_pages u32, n × page
//!   page  = file u32, page u64, tag u8, then
//!           tag 0 (image): PAGE_SIZE bytes
//!           tag 1 (delta): n_runs u16, n_runs × (offset u16, len u16, bytes)
//! ```
//!
//! Kind 1 (an earlier commit record of full images only) is not reused,
//! so a log written by an older build is refused rather than misread.
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
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const KIND_CHECKPOINT: u8 = 2;
const KIND_COMMIT: u8 = 3;
const TAG_IMAGE: u8 = 0;
const TAG_DELTA: u8 = 1;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// What a commit record carries for one page.
#[derive(Debug, PartialEq, Eq)]
pub enum PageRecord {
    /// The whole after-image.
    Image(Box<[u8]>),
    /// `(offset, bytes)` runs where the after-image differs from the
    /// before-image; every other byte is unchanged.
    Delta(Vec<(u16, Vec<u8>)>),
}

impl PageRecord {
    /// The runs where `after` differs from `before`. Equal stretches
    /// shorter than a run header are folded into the surrounding run.
    pub fn delta(before: &[u8], after: &[u8]) -> PageRecord {
        const BRIDGE: usize = 4;
        let n = after.len().min(before.len());
        let mut runs = Vec::new();
        let mut i = 0;
        while i < n {
            if i + 8 <= n && before[i..i + 8] == after[i..i + 8] {
                i += 8;
                continue;
            }
            if before[i] == after[i] {
                i += 1;
                continue;
            }
            let start = i;
            let mut end = i + 1;
            let mut j = end;
            while j < n && j - end <= BRIDGE {
                if before[j] != after[j] {
                    end = j + 1;
                }
                j += 1;
            }
            runs.push((start as u16, after[start..end].to_vec()));
            i = end;
        }
        PageRecord::Delta(runs)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PageRecord::Image(image) => {
                debug_assert_eq!(image.len(), PAGE_SIZE);
                out.push(TAG_IMAGE);
                out.extend_from_slice(image);
            }
            PageRecord::Delta(runs) => {
                out.push(TAG_DELTA);
                out.extend_from_slice(&(runs.len() as u16).to_le_bytes());
                for (off, bytes) in runs {
                    out.extend_from_slice(&off.to_le_bytes());
                    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
            }
        }
    }
}

/// One transaction's pages as logged at commit:
/// `(stable file number, page, record)` triples.
pub type TxnPages = Vec<(u32, PageId, PageRecord)>;

/// What recovery found in the log since the last checkpoint.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// Committed transaction ids, in commit order.
    pub txns: Vec<u64>,
    /// Every logged page's state after the last committed transaction:
    /// its full image with the later deltas applied in log order.
    pub pages: BTreeMap<(u32, PageId), Box<[u8]>>,
}

/// Reads little-endian fields out of one checksummed commit payload; a
/// field that runs past the end is a `CorruptLog`.
struct Fields<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or_else(|| StorageError::CorruptLog("truncated commit record".into()))?;
        self.pos += n;
        Ok(bytes)
    }

    fn u16(&mut self) -> StorageResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Apply one commit payload to the page states recovered so far.
fn replay_commit(payload: &[u8], rec: &mut Recovery) -> StorageResult<()> {
    let mut f = Fields {
        buf: payload,
        pos: 0,
    };
    rec.txns.push(f.u64()?);
    for _ in 0..f.u32()? {
        let key = (f.u32()?, PageId(f.u64()?));
        match f.take(1)?[0] {
            TAG_IMAGE => {
                rec.pages.insert(key, f.take(PAGE_SIZE)?.into());
            }
            TAG_DELTA => {
                let page = rec.pages.get_mut(&key).ok_or_else(|| {
                    StorageError::CorruptLog(format!(
                        "delta for page {}:{} with no full image earlier in the log",
                        key.0, key.1 .0
                    ))
                })?;
                for _ in 0..f.u16()? {
                    let off = f.u16()? as usize;
                    let len = f.u16()? as usize;
                    let dst = page.get_mut(off..off + len).ok_or_else(|| {
                        StorageError::CorruptLog(format!("delta run [{off}, +{len}) outside page"))
                    })?;
                    dst.copy_from_slice(f.take(len)?);
                }
            }
            t => return Err(StorageError::CorruptLog(format!("unknown page tag {t}"))),
        }
    }
    Ok(())
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
            let start = buf.len();
            buf.extend_from_slice(&[0; 4]); // length, patched below
            buf.push(KIND_COMMIT);
            buf.extend_from_slice(&txn.to_le_bytes());
            buf.extend_from_slice(&(pages.len() as u32).to_le_bytes());
            for (file_no, pid, record) in pages {
                buf.extend_from_slice(&file_no.to_le_bytes());
                buf.extend_from_slice(&pid.0.to_le_bytes());
                record.encode(&mut buf);
            }
            let len = (buf.len() - start - 4) as u32;
            buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
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

    /// Replay the committed transactions recorded since the last
    /// checkpoint, in commit order, into final page states. A
    /// torn/corrupt tail record stops the scan (it was never
    /// acknowledged as committed) and is truncated away, so running
    /// recovery twice — e.g. after a crash mid-recovery — sees the same
    /// committed prefix both times.
    pub fn recover(&mut self) -> StorageResult<Recovery> {
        let total = self.file.len()?;
        let mut data = vec![0u8; total as usize];
        self.file.read_at(0, &mut data)?;
        let mut rec = Recovery::default();
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
                KIND_CHECKPOINT => rec = Recovery::default(),
                KIND_COMMIT => replay_commit(&body[1..], &mut rec)?,
                k => return Err(StorageError::CorruptLog(format!("unknown record kind {k}"))),
            }
            off += 4 + len + 8;
        }
        if (off as u64) < total {
            self.file.truncate(off as u64)?;
        }
        self.good_len = off as u64;
        Ok(rec)
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

    /// Log one transaction of full page images as a batch of one.
    fn log_commit(w: &mut Wal, txn: u64, pages: &[(u32, PageId, &[u8])]) -> StorageResult<()> {
        let pages = pages
            .iter()
            .map(|&(f, p, img)| (f, p, PageRecord::Image(img.into())))
            .collect();
        w.log_commit_batch(&[(txn, pages)])
    }

    /// Log one transaction that changes page `(f, p)` from `before` to
    /// `after`, as a delta.
    fn log_delta(w: &mut Wal, txn: u64, key: (u32, PageId), before: &[u8], after: &[u8]) {
        let record = PageRecord::delta(before, after);
        w.log_commit_batch(&[(txn, vec![(key.0, key.1, record)])])
            .unwrap();
    }

    #[test]
    fn commit_then_recover() {
        let mut w = wal("basic.wal");
        let img1 = image(1);
        let img2 = image(2);
        log_commit(&mut w, 7, &[(0, PageId(3), &img1), (1, PageId(0), &img2)]).unwrap();
        let rec = w.recover().unwrap();
        assert_eq!(rec.txns, vec![7]);
        assert_eq!(rec.pages.len(), 2);
        assert_eq!(&rec.pages[&(0, PageId(3))][..], &img1[..]);
        assert_eq!(&rec.pages[&(1, PageId(0))][..], &img2[..]);
    }

    #[test]
    fn checkpoint_clears_history() {
        let mut w = wal("ckpt.wal");
        log_commit(&mut w, 1, &[(0, PageId(0), &image(1))]).unwrap();
        w.checkpoint().unwrap();
        log_commit(&mut w, 2, &[(0, PageId(1), &image(2))]).unwrap();
        let rec = w.recover().unwrap();
        assert_eq!(rec.txns, vec![2]);
        assert_eq!(rec.pages.keys().collect::<Vec<_>>(), vec![&(0, PageId(1))]);
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
        let rec = w.recover().unwrap();
        assert_eq!(rec.txns, vec![1], "only the fully written txn survives");
        // The torn tail was truncated: a second recovery pass (crash
        // mid-recovery) sees the identical committed prefix, and a new
        // commit starts cleanly after record 1.
        let len_after = std::fs::metadata(&path).unwrap().len();
        assert!(len_after < data.len() as u64 - 100);
        assert_eq!(w.recover().unwrap(), rec);
        log_commit(&mut w, 3, &[(0, PageId(2), &image(7))]).unwrap();
        assert_eq!(
            w.recover().unwrap().txns,
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
        let rec1_len = 4 + (1 + 8 + 4 + 13 + PAGE_SIZE) + 8;
        data[rec1_len + 40] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let mut w = Wal::open(&path).unwrap();
        assert_eq!(w.recover().unwrap().txns, vec![1]);
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let mut w = wal("empty.wal");
        assert_eq!(w.recover().unwrap(), Recovery::default());
    }

    #[test]
    fn batch_commit_recovers_in_order() {
        let mut w = wal("batch.wal");
        let batch: Vec<(u64, super::TxnPages)> = (0..4u64)
            .map(|t| {
                let img = PageRecord::Image(image(t as u8).into_boxed_slice());
                (t + 10, vec![(0u32, PageId(t % 2), img)])
            })
            .collect();
        w.log_commit_batch(&batch).unwrap();
        let rec = w.recover().unwrap();
        assert_eq!(
            rec.txns,
            vec![10, 11, 12, 13],
            "batch preserves commit order"
        );
        // Later commits of a page win: page 0 ends as txn 12 left it.
        assert_eq!(&rec.pages[&(0, PageId(0))][..], &image(2)[..]);
        assert_eq!(&rec.pages[&(0, PageId(1))][..], &image(3)[..]);
    }

    #[test]
    fn multiple_commits_in_order() {
        let mut w = wal("order.wal");
        for t in 0..5u64 {
            log_commit(&mut w, t, &[(0, PageId(t), &image(t as u8))]).unwrap();
        }
        assert_eq!(w.recover().unwrap().txns, vec![0, 1, 2, 3, 4]);
    }

    /// A page's bytes after a sequence of small edits.
    fn edited(base: &[u8], edits: &[(usize, &[u8])]) -> Vec<u8> {
        let mut page = base.to_vec();
        for &(off, bytes) in edits {
            page[off..off + bytes.len()].copy_from_slice(bytes);
        }
        page
    }

    #[test]
    fn delta_holds_only_the_changed_runs() {
        let before = image(0);
        let after = edited(&before, &[(10, b"ab"), (14, b"c"), (4000, b"xyz")]);
        let PageRecord::Delta(runs) = PageRecord::delta(&before, &after) else {
            panic!("a delta");
        };
        // A 1-byte equal gap is cheaper inside the run than as a header.
        assert_eq!(
            runs,
            vec![(10, b"ab\0\0c".to_vec()), (4000, b"xyz".to_vec())]
        );
        assert_eq!(PageRecord::delta(&after, &after), PageRecord::Delta(vec![]));
    }

    #[test]
    fn images_and_deltas_round_trip_in_log_order() {
        let mut w = wal("mixed.wal");
        let p0 = image(1);
        let p1 = edited(&p0, &[(0, b"one")]);
        let p2 = edited(&p1, &[(100, b"two"), (4093, b"end")]);
        let q0 = image(5);
        log_commit(&mut w, 1, &[(0, PageId(0), &p0), (1, PageId(4), &q0)]).unwrap();
        log_delta(&mut w, 2, (0, PageId(0)), &p0, &p1);
        log_delta(&mut w, 3, (0, PageId(0)), &p1, &p2);
        let q1 = edited(&q0, &[(7, b"q")]);
        log_delta(&mut w, 4, (1, PageId(4)), &q0, &q1);
        // A fresh image after deltas replaces the page outright.
        let p3 = image(9);
        log_commit(&mut w, 5, &[(0, PageId(0), &p3)]).unwrap();
        let p4 = edited(&p3, &[(2048, b"last")]);
        log_delta(&mut w, 6, (0, PageId(0)), &p3, &p4);
        let rec = w.recover().unwrap();
        assert_eq!(rec.txns, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(&rec.pages[&(0, PageId(0))][..], &p4[..]);
        assert_eq!(&rec.pages[&(1, PageId(4))][..], &q1[..]);
        // Replay is idempotent: a second pass lands on the same pages.
        assert_eq!(w.recover().unwrap(), rec);
    }

    #[test]
    fn torn_delta_tail_is_trimmed() {
        let path = {
            let mut w = wal("torn-delta.wal");
            let p0 = image(3);
            log_commit(&mut w, 1, &[(0, PageId(0), &p0)]).unwrap();
            let p1 = edited(&p0, &[(50, b"kept")]);
            log_delta(&mut w, 2, (0, PageId(0)), &p0, &p1);
            let p2 = edited(&p1, &[(60, b"torn")]);
            log_delta(&mut w, 3, (0, PageId(0)), &p1, &p2);
            w.path().to_path_buf()
        };
        let data = std::fs::read(&path).unwrap();
        // The last delta record is 4 + 1 + 8 + 4 + 13 + 2 + 4 + 4 + 8
        // = 48 bytes; cut it in half.
        std::fs::write(&path, &data[..data.len() - 24]).unwrap();
        let mut w = Wal::open(&path).unwrap();
        let rec = w.recover().unwrap();
        assert_eq!(rec.txns, vec![1, 2]);
        assert_eq!(&rec.pages[&(0, PageId(0))][50..54], b"kept");
        assert_eq!(&rec.pages[&(0, PageId(0))][60..64], &[3; 4]);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            data.len() as u64 - 48,
            "the torn record is gone"
        );
    }

    #[test]
    fn delta_without_a_base_image_is_a_corrupt_log() {
        let mut w = wal("no-base.wal");
        log_commit(&mut w, 1, &[(0, PageId(0), &image(1))]).unwrap();
        // Page 1 of file 0 never had a full image in this log.
        log_delta(&mut w, 2, (0, PageId(1)), &image(0), &image(1)[..]);
        assert!(matches!(w.recover(), Err(StorageError::CorruptLog(_))));
        // A checkpoint ends the log segment the base image belonged to.
        let mut w = wal("base-before-checkpoint.wal");
        log_commit(&mut w, 1, &[(0, PageId(0), &image(1))]).unwrap();
        w.checkpoint().unwrap();
        log_delta(&mut w, 2, (0, PageId(0)), &image(1), &image(2));
        assert!(matches!(w.recover(), Err(StorageError::CorruptLog(_))));
    }
}
