//! Heap files: unordered record storage.
//!
//! A [`HeapFile`] stores variable-length records in slotted pages and
//! addresses them by [`RecordId`] `(page, slot)`. Persistent CORAL
//! relations keep their tuples in a heap file and index them with B+-trees
//! (§3.2); a relation scan walks the heap page by page through the buffer
//! pool — each `get-next-tuple` request that crosses a page boundary
//! becomes a page-level I/O request, exactly as §2 describes.

use crate::buffer::{BufferPool, SnapshotGuard};
use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageId};
use crate::page::{SlotId, SlottedPage};
use crate::server::StorageClient;
use crate::tx::View;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Address of a record in a heap file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct RecordId {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: SlotId,
}

/// An unordered file of records over the buffer pool.
pub struct HeapFile {
    store: StorageClient,
    fid: FileId,
    /// Insertion hint: the page most recently found to have space.
    hint: AtomicU64,
    /// The page of the most recent delete: it has room to reclaim.
    freed: AtomicU64,
    /// The MVCC view every access goes through (`Live` by default; the
    /// relation layer points it at a transaction or a snapshot). A write
    /// in `Live` is a mutation of the server's implicit transaction.
    view: Mutex<View>,
}

impl HeapFile {
    /// Wrap file `fid` (already registered with `store`) as a heap file.
    pub fn new(store: StorageClient, fid: FileId) -> HeapFile {
        HeapFile {
            store,
            fid,
            hint: AtomicU64::new(0),
            freed: AtomicU64::new(0),
            view: Mutex::new(View::Live),
        }
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.fid
    }

    /// The view subsequent accesses use.
    pub fn view(&self) -> View {
        *self.view.lock().unwrap()
    }

    /// Route subsequent accesses through `view`.
    pub fn set_view(&self, view: View) {
        *self.view.lock().unwrap() = view;
    }

    /// Attach this handle to a transaction (`None` = back to `Live`).
    pub fn set_txn(&self, txn: Option<u64>) {
        self.set_view(txn.map_or(View::Live, View::Txn));
    }

    fn pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> StorageResult<u64> {
        self.pool().num_pages(self.fid)
    }

    /// Insert a record, returning its id.
    pub fn insert(&self, rec: &[u8]) -> StorageResult<RecordId> {
        self.store
            .write(self.view(), |txn| self.insert_in(txn, rec))
    }

    fn insert_in(&self, txn: u64, rec: &[u8]) -> StorageResult<RecordId> {
        let pool = self.pool();
        let pages = pool.num_pages(self.fid)?;
        // Try the hint page, the page of the last delete, then the last
        // page, then allocate.
        let mut candidates: Vec<u64> = Vec::with_capacity(3);
        if pages > 0 {
            for pid in [
                self.hint.load(Ordering::Relaxed),
                self.freed.load(Ordering::Relaxed),
                pages - 1,
            ] {
                let pid = pid.min(pages - 1);
                if !candidates.contains(&pid) {
                    candidates.push(pid);
                }
            }
        }
        for pid in candidates.into_iter().map(PageId) {
            // Look before writing: a written page stays pinned until the
            // transaction ends.
            if !pool.with_page(self.fid, pid, |d| SlottedPage::read(d).has_room(rec.len()))? {
                continue;
            }
            let slot = pool.with_page_mut(self.fid, pid, txn, |data| {
                SlottedPage::attach(data).insert(rec)
            })??;
            if let Some(slot) = slot {
                self.hint.store(pid.0, Ordering::Relaxed);
                return Ok(RecordId { page: pid, slot });
            }
        }
        let pid = pool.allocate_page(self.fid)?;
        let slot = pool.with_page_mut(self.fid, pid, txn, |data| {
            SlottedPage::format(data).insert(rec)
        })??;
        self.hint.store(pid.0, Ordering::Relaxed);
        let slot = slot.ok_or(StorageError::Corrupt("fresh page refused a record".into()))?;
        Ok(RecordId { page: pid, slot })
    }

    /// Read a record by id.
    pub fn get(&self, rid: RecordId) -> StorageResult<Vec<u8>> {
        self.pool()
            .with_page_view(self.fid, rid.page, self.view(), |data| {
                SlottedPage::read(data).get(rid.slot).map(|r| r.to_vec())
            })?
            .ok_or(StorageError::BadRecordId)
    }

    /// Delete a record by id.
    pub fn delete(&self, rid: RecordId) -> StorageResult<()> {
        self.store
            .write(self.view(), |txn| self.delete_in(txn, rid))
    }

    fn delete_in(&self, txn: u64, rid: RecordId) -> StorageResult<()> {
        let ok = self.pool().with_page_mut(self.fid, rid.page, txn, |data| {
            SlottedPage::attach(data).delete(rid.slot)
        })?;
        if !ok {
            return Err(StorageError::BadRecordId);
        }
        self.freed.store(rid.page.0, Ordering::Relaxed);
        Ok(())
    }

    /// Replace the record at `rid`, returning its id afterwards. The
    /// record stays where it is whenever its page can hold the new bytes
    /// (compacting the page if need be); only as a last resort is it
    /// deleted and inserted elsewhere, under a new id.
    pub fn update(&self, rid: RecordId, rec: &[u8]) -> StorageResult<RecordId> {
        self.store.write(self.view(), |txn| {
            let in_place = self
                .pool()
                .with_page_mut(self.fid, rid.page, txn, |data| {
                    SlottedPage::attach(data).update(rid.slot, rec)
                })??;
            if in_place {
                return Ok(rid);
            }
            self.delete_in(txn, rid)?;
            self.insert_in(txn, rec)
        })
    }

    /// Structural integrity check: every page's slot directory and record
    /// extents must validate (see [`SlottedPage::validate`]). Read-only;
    /// returns the violations (empty = clean).
    pub fn check(&self) -> StorageResult<Vec<String>> {
        let mut problems = Vec::new();
        for pid in 0..self.pool().num_pages(self.fid)? {
            let res = self
                .pool()
                .with_page_view(self.fid, PageId(pid), self.view(), |data| {
                    SlottedPage::read(data).validate().err()
                })?;
            if let Some(err) = res {
                problems.push(format!("heap page {pid}: {err}"));
            }
        }
        Ok(problems)
    }

    /// Scan all records. The iterator copies one page's records at a time
    /// out of the buffer pool, so the page is touched exactly once per
    /// pass (and re-reads after eviction show up in pool statistics).
    pub fn scan(&self) -> HeapScan {
        self.scan_with(self.view(), None)
    }

    /// Scan through an explicit view, optionally holding a snapshot pin
    /// alive for the iterator's lifetime.
    pub fn scan_with(&self, view: View, guard: Option<Arc<SnapshotGuard>>) -> HeapScan {
        HeapScan {
            pool: Arc::clone(self.pool()),
            fid: self.fid,
            view,
            _guard: guard,
            next_page: 0,
            buffered: Vec::new(),
            buf_pos: 0,
            failed: false,
        }
    }
}

/// Iterator over a heap file's records.
pub struct HeapScan {
    pool: Arc<BufferPool>,
    fid: FileId,
    view: View,
    /// Keeps the snapshot this scan reads through pinned.
    _guard: Option<Arc<SnapshotGuard>>,
    next_page: u64,
    buffered: Vec<(RecordId, Vec<u8>)>,
    buf_pos: usize,
    failed: bool,
}

impl Iterator for HeapScan {
    type Item = StorageResult<(RecordId, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            if self.buf_pos < self.buffered.len() {
                let item = self.buffered[self.buf_pos].clone();
                self.buf_pos += 1;
                return Some(Ok(item));
            }
            let pages = match self.pool.num_pages(self.fid) {
                Ok(p) => p,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            };
            if self.next_page >= pages {
                return None;
            }
            let pid = PageId(self.next_page);
            self.next_page += 1;
            let res = self.pool.with_page_view(self.fid, pid, self.view, |data| {
                SlottedPage::read(data)
                    .iter()
                    .map(|(slot, rec)| (RecordId { page: pid, slot }, rec.to_vec()))
                    .collect::<Vec<_>>()
            });
            match res {
                Ok(recs) => {
                    self.buffered = recs;
                    self.buf_pos = 0;
                }
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StorageServer;

    fn heap(name: &str, frames: usize) -> HeapFile {
        let d = std::env::temp_dir().join(format!("coral-heap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        StorageServer::open(&d, frames).unwrap().heap("h").unwrap()
    }

    #[test]
    fn insert_get_delete() {
        let h = heap("igd.heap", 4);
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap(), b"beta");
        h.delete(a).unwrap();
        assert!(matches!(h.get(a), Err(StorageError::BadRecordId)));
        assert!(matches!(h.delete(a), Err(StorageError::BadRecordId)));
        assert_eq!(h.get(b).unwrap(), b"beta");
    }

    #[test]
    fn spans_many_pages() {
        let h = heap("many.heap", 4);
        let rids: Vec<_> = (0..500u32)
            .map(|i| h.insert(format!("record-{i:05}").as_bytes()).unwrap())
            .collect();
        assert!(h.num_pages().unwrap() > 1);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), format!("record-{i:05}").as_bytes());
        }
    }

    #[test]
    fn scan_sees_all_live_records() {
        let h = heap("scan.heap", 4);
        let rids: Vec<_> = (0..200u32)
            .map(|i| h.insert(format!("r{i}").as_bytes()).unwrap())
            .collect();
        for rid in rids.iter().step_by(3) {
            h.delete(*rid).unwrap();
        }
        let seen: Vec<Vec<u8>> = h.scan().map(|r| r.unwrap().1).collect();
        let expect: Vec<Vec<u8>> = (0..200u32)
            .filter(|i| i % 3 != 0)
            .map(|i| format!("r{i}").into_bytes())
            .collect();
        let mut seen_sorted = seen.clone();
        seen_sorted.sort();
        let mut expect_sorted = expect.clone();
        expect_sorted.sort();
        assert_eq!(seen_sorted, expect_sorted);
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let h = heap("empty.heap", 2);
        assert_eq!(h.scan().count(), 0);
    }

    #[test]
    fn large_records_fill_pages() {
        let h = heap("large.heap", 4);
        let rec = vec![9u8; 1500];
        let rids: Vec<_> = (0..10).map(|_| h.insert(&rec).unwrap()).collect();
        // Two 1500-byte records per 4 KiB page.
        assert!(h.num_pages().unwrap() >= 5);
        for rid in rids {
            assert_eq!(h.get(rid).unwrap().len(), 1500);
        }
        let huge = vec![1u8; crate::page::MAX_RECORD + 1];
        assert!(matches!(
            h.insert(&huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn deleted_space_reused_on_hint_page() {
        let h = heap("reuse.heap", 4);
        let rid = h.insert(&[1u8; 1000]).unwrap();
        h.delete(rid).unwrap();
        let rid2 = h.insert(&[2u8; 1000]).unwrap();
        assert_eq!(rid.page, rid2.page, "hint page space reused");
    }

    #[test]
    fn update_stays_in_place_and_moves_only_when_the_page_is_full() {
        let h = heap("update.heap", 4);
        let a = h.insert(&[1u8; 1500]).unwrap();
        let b = h.insert(&[2u8; 1500]).unwrap();
        assert_eq!(h.update(a, &[3u8; 1400]).unwrap(), a);
        assert_eq!(h.update(a, &[4u8; 2000]).unwrap(), a, "compacted in place");
        assert_eq!(h.get(a).unwrap(), vec![4u8; 2000]);
        // 2000 + 2600 bytes cannot share one page: the record moves.
        let moved = h.update(b, &[5u8; 2600]).unwrap();
        assert_ne!(moved.page, b.page);
        assert_eq!(h.get(moved).unwrap(), vec![5u8; 2600]);
        assert!(matches!(h.get(b), Err(StorageError::BadRecordId)));
        assert_eq!(h.scan().count(), 2);
    }

    #[test]
    fn page_of_last_delete_takes_the_next_insert() {
        let h = heap("freed.heap", 4);
        // Two 2000-byte records fill a page: six fill pages 0..3.
        let rids: Vec<_> = (0..6).map(|_| h.insert(&[3u8; 2000]).unwrap()).collect();
        assert_eq!(h.num_pages().unwrap(), 3);
        h.delete(rids[0]).unwrap();
        let rid = h.insert(&[4u8; 2000]).unwrap();
        assert_eq!(rid.page, rids[0].page, "freed page reused, not a new one");
        assert_eq!(h.num_pages().unwrap(), 3);
        assert_eq!(h.get(rids[1]).unwrap(), vec![3u8; 2000]);
    }
}
