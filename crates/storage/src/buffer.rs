//! The buffer pool.
//!
//! "Data stored using the EXODUS storage manager is paged into EXODUS
//! buffers on demand … the data can be accessed purely out of pages in
//! the EXODUS buffer pool" (§2). This pool caches pages of registered
//! [`PageFile`]s in a fixed number of frames with CLOCK (second-chance)
//! eviction, write-back of dirty frames, pin counts, and hit/miss
//! statistics — the statistics are what experiment E9 observes.
//!
//! Access is closure-scoped: [`BufferPool::with_page`] pins the frame for
//! the duration of the closure. Calls must not nest (the pool is behind a
//! single mutex); callers copy what they need out of the page instead of
//! holding two pages at once. Transactions pin the pages they dirty until
//! they end (a no-steal policy that keeps the write-ahead log redo-only).
//!
//! ## MVCC
//!
//! The pool layers the [`crate::tx`] concurrency manager over the
//! frames. Every page read carries a [`View`]:
//!
//! * `Live` reads the frame (newest state).
//! * `Snapshot(ts)` serves the newest committed image at or below `ts`
//!   from the version store, a zero page for pages born later, or the
//!   frame when the page has no versions (then the frame *is* the
//!   committed state — every page with an uncommitted writer has its
//!   latest committed image in the store). Snapshot reads never block
//!   and never take locks.
//! * `Txn(id)` reads the transaction's own writes from the frames and
//!   everything else as of its begin snapshot, recording the read set.
//!
//! Every page write names its transaction ([`BufferPool::with_page_mut`]
//! takes the id): it acquires the per-page write lock (wound-or-timeout),
//! checks first-updater-wins, and pins the dirtied frame until
//! commit/abort. There is no other way to change a page. Writers without
//! a transaction of their own join the storage server's implicit one
//! (see [`crate::server`]).
//!
//! Commit is split for group commit: [`BufferPool::tx_prepare`]
//! validates the read set and builds the log record of every written
//! page (the storage server logs them), then [`BufferPool::tx_install`]
//! assigns the commit timestamp, publishes the new versions and releases
//! the locks — in WAL order, which is what makes commit timestamps a
//! serialisation order.
//!
//! A page's log record is a delta against the transaction's
//! before-image (the version abort restores) when the log since the last
//! checkpoint already rebuilds that before-image, and a full image on
//! the page's first commit after a checkpoint.

use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageFile, PageId};
use crate::page::PAGE_SIZE;
use crate::tx::{LockTable, MvccState, PageKey, TxStats, TxnState, View};
use crate::wal::PageRecord;
use coral_profile::Counter;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Buffer pool counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from a resident frame.
    pub hits: u64,
    /// Page requests that required a disk read.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Physical page reads.
    pub page_reads: u64,
    /// Physical page writes.
    pub page_writes: u64,
}

/// A page's address and its log record, as returned by
/// [`BufferPool::tx_prepare`].
pub type PageWrite = ((FileId, PageId), PageRecord);

/// The image served for a page that did not exist at a snapshot's
/// timestamp (files only grow; trailing pages read as empty).
static ZERO_PAGE: [u8; PAGE_SIZE] = [0u8; PAGE_SIZE];

struct Frame {
    key: Option<(FileId, PageId)>,
    data: Box<[u8]>,
    dirty: bool,
    pins: u32,
    referenced: bool,
}

struct Inner {
    frames: Vec<Frame>,
    map: HashMap<(FileId, PageId), usize>,
    files: HashMap<FileId, PageFile>,
    hand: usize,
    stats: BufferStats,
    /// Multi-transaction MVCC state.
    mvcc: MvccState,
    /// Pages whose committed bytes the write-ahead log rebuilds on its
    /// own: a full image of each is in the log since the last checkpoint
    /// and every later change to it was logged. Their next commit logs
    /// a delta.
    logged: HashSet<PageKey>,
}

/// A fixed-capacity page cache over a set of registered files.
pub struct BufferPool {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Per-page write locks (wound-or-timeout). Lives outside `inner`:
    /// waiting for a lock must not block other sessions' page traffic.
    locks: LockTable,
}

/// Refcounted snapshot pin: holds a commit-timestamp snapshot alive for
/// the lifetime of lazy iterators reading through it.
pub struct SnapshotGuard {
    pool: Arc<BufferPool>,
    ts: u64,
}

impl SnapshotGuard {
    /// Pin the current committed state; reads through
    /// [`View::Snapshot`]`(guard.ts())` stay repeatable until dropped.
    pub fn pin(pool: &Arc<BufferPool>) -> Arc<SnapshotGuard> {
        Arc::new(SnapshotGuard {
            pool: Arc::clone(pool),
            ts: pool.pin_snapshot(),
        })
    }

    /// The pinned commit timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        self.pool.release_snapshot(self.ts);
    }
}

impl BufferPool {
    /// Create a pool with `capacity` frames (at least 1).
    pub fn new(capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        let frames = (0..capacity)
            .map(|_| Frame {
                key: None,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                dirty: false,
                pins: 0,
                referenced: false,
            })
            .collect();
        BufferPool {
            inner: Mutex::new(Inner {
                frames,
                map: HashMap::new(),
                files: HashMap::new(),
                hand: 0,
                stats: BufferStats::default(),
                mvcc: MvccState::default(),
                logged: HashSet::new(),
            }),
            capacity,
            locks: LockTable::new(Duration::from_millis(200)),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Set the write-lock wait budget. Zero makes contended acquisitions
    /// fail immediately with [`StorageError::TxnConflict`] — the
    /// deterministic mode the simulator runs in.
    pub fn set_lock_timeout(&self, timeout: Duration) {
        self.locks.set_timeout(timeout);
    }

    /// Register an open file under `fid`.
    pub fn register_file(&self, fid: FileId, file: PageFile) {
        let mut inner = self.inner.lock().unwrap();
        inner.files.insert(fid, file);
    }

    /// Number of pages in a registered file.
    pub fn num_pages(&self, fid: FileId) -> StorageResult<u64> {
        let inner = self.inner.lock().unwrap();
        inner
            .files
            .get(&fid)
            .map(|f| f.num_pages())
            .ok_or(StorageError::BadFileId)
    }

    /// Append a fresh zeroed page to `fid` and cache it.
    pub fn allocate_page(&self, fid: FileId) -> StorageResult<PageId> {
        let mut inner = self.inner.lock().unwrap();
        let pid = inner
            .files
            .get_mut(&fid)
            .ok_or(StorageError::BadFileId)?
            .allocate()?;
        inner.stats.page_writes += 1; // the zero-fill write
        let frame = self.find_frame(&mut inner, fid, pid, false)?;
        inner.frames[frame].data.fill(0);
        inner.frames[frame].dirty = false;
        Ok(pid)
    }

    fn find_frame(
        &self,
        inner: &mut Inner,
        fid: FileId,
        pid: PageId,
        load: bool,
    ) -> StorageResult<usize> {
        if let Some(&idx) = inner.map.get(&(fid, pid)) {
            inner.stats.hits += 1;
            coral_profile::bump(Counter::PoolHits, 1);
            inner.frames[idx].referenced = true;
            return Ok(idx);
        }
        inner.stats.misses += 1;
        coral_profile::bump(Counter::PoolMisses, 1);
        // CLOCK sweep for a victim (unpinned frame; clear ref bits as we
        // pass). Two full sweeps guarantee progress unless all pinned.
        let cap = inner.frames.len();
        let mut victim = None;
        for _ in 0..2 * cap {
            let i = inner.hand;
            inner.hand = (inner.hand + 1) % cap;
            let f = &mut inner.frames[i];
            if f.pins > 0 {
                continue;
            }
            if f.key.is_none() || !f.referenced {
                victim = Some(i);
                break;
            }
            f.referenced = false;
        }
        let idx = victim.ok_or(StorageError::PoolExhausted { frames: cap })?;
        // Write back the evicted page if dirty. On an I/O error the
        // frame's buffer is restored and the frame stays mapped and
        // dirty, so the error costs this one request, not pool
        // integrity (the write can be retried or the txn aborted).
        // Transaction-dirtied pages are pinned (no-steal), so a dirty
        // victim always holds committed bytes.
        if let Some((efid, epid)) = inner.frames[idx].key {
            if inner.frames[idx].dirty {
                let data = std::mem::take(&mut inner.frames[idx].data);
                let res = inner
                    .files
                    .get_mut(&efid)
                    .ok_or(StorageError::BadFileId)
                    .and_then(|f| f.write_page(epid, &data));
                inner.frames[idx].data = data;
                res?;
                inner.stats.page_writes += 1;
            }
            inner.map.remove(&(efid, epid));
            inner.stats.evictions += 1;
            coral_profile::bump(Counter::PoolEvictions, 1);
        }
        if load {
            let mut data = std::mem::take(&mut inner.frames[idx].data);
            let res = inner
                .files
                .get_mut(&fid)
                .ok_or(StorageError::BadFileId)
                .and_then(|f| f.read_page(pid, &mut data));
            inner.frames[idx].data = data;
            if let Err(e) = res {
                // The old occupant is already unmapped; leaving its key
                // on the frame would later remove a *reloaded* copy's
                // map entry. Mark the frame free before bailing.
                let f = &mut inner.frames[idx];
                f.key = None;
                f.dirty = false;
                f.pins = 0;
                return Err(e);
            }
            inner.stats.page_reads += 1;
        }
        let f = &mut inner.frames[idx];
        f.key = Some((fid, pid));
        f.dirty = false;
        f.pins = 0;
        f.referenced = true;
        inner.map.insert((fid, pid), idx);
        Ok(idx)
    }

    /// Run `body` with read access to the page through the live view.
    /// Do not nest `with_page*` calls.
    pub fn with_page<R>(
        &self,
        fid: FileId,
        pid: PageId,
        body: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<R> {
        self.with_page_view(fid, pid, View::Live, body)
    }

    /// Run `body` with read access to the page as seen by `view`. Do not
    /// nest `with_page*` calls.
    pub fn with_page_view<R>(
        &self,
        fid: FileId,
        pid: PageId,
        view: View,
        body: impl FnOnce(&[u8]) -> R,
    ) -> StorageResult<R> {
        let mut inner = self.inner.lock().unwrap();
        let snapshot = match view {
            View::Live => None,
            View::Snapshot(s) => Some(s),
            View::Txn(id) => {
                let st = inner
                    .mvcc
                    .active
                    .get_mut(&id)
                    .ok_or(StorageError::UnknownTxn(id))?;
                if st.write_set.contains(&(fid, pid)) {
                    None // own uncommitted write: read the frame
                } else {
                    st.read_set.insert((fid, pid));
                    Some(st.snapshot)
                }
            }
        };
        if let Some(s) = snapshot {
            if let Some(list) = inner.mvcc.versions.get(&(fid, pid)) {
                return Ok(match list.iter().rposition(|&(ts, _)| ts <= s) {
                    Some(i) => {
                        coral_profile::bump(Counter::PoolHits, 1);
                        body(&list[i].1)
                    }
                    // Versions exist but all postdate the snapshot: the
                    // page was born after it. Files only grow, so serve
                    // "empty".
                    None => body(&ZERO_PAGE),
                });
            }
            // No versions: the frame holds committed bytes.
        }
        let idx = self.find_frame(&mut inner, fid, pid, true)?;
        Ok(body(&inner.frames[idx].data))
    }

    /// Run `body` with write access to the page on behalf of transaction
    /// `txn`: acquire the page write lock (blocking up to the lock
    /// timeout, wound-or-timeout on contention), check first-updater-wins
    /// against the writer's snapshot, save the committed before-image
    /// into the version store, and pin the frame until commit/abort. Do
    /// not nest `with_page*` calls.
    pub fn with_page_mut<R>(
        &self,
        fid: FileId,
        pid: PageId,
        txn: u64,
        body: impl FnOnce(&mut [u8]) -> R,
    ) -> StorageResult<R> {
        let key = (fid, pid);
        let mut inner = self.inner.lock().unwrap();
        let st = inner.mvcc.active.get(&txn);
        let st = st.ok_or(StorageError::UnknownTxn(txn))?;
        if !st.write_set.contains(&key) {
            // May block (wound-or-timeout), so it runs outside the pool
            // mutex; on conflict the caller aborts the transaction, which
            // releases whatever it already holds.
            let seq = st.seq;
            drop(inner);
            self.locks.acquire(txn, seq, key)?;
            inner = self.inner.lock().unwrap();
        }
        let idx = self.find_frame(&mut inner, fid, pid, true)?;
        let Inner {
            frames, mvcc: m, ..
        } = &mut *inner;
        let st = m
            .active
            .get_mut(&txn)
            .ok_or(StorageError::UnknownTxn(txn))?;
        let cur_ts = m.page_ts.get(&key).copied().unwrap_or(0);
        let first = !st.write_set.contains(&key);
        if let Some(sp) = &mut st.savepoint {
            sp.entry(key)
                .or_insert_with(|| (!first).then(|| frames[idx].data.clone()));
        }
        if first {
            // First-updater-wins: a commit after our snapshot beat us.
            if cur_ts > st.snapshot {
                m.stats.conflicts += 1;
                return Err(StorageError::TxnConflict(format!(
                    "page {}:{} committed at ts {cur_ts} after snapshot {}",
                    fid.0, pid.0, st.snapshot
                )));
            }
            // Publish the committed before-image so snapshot readers
            // (and our abort path) can still see it.
            let list = m.versions.entry(key).or_default();
            if list.last().map(|&(ts, _)| ts) != Some(cur_ts) {
                list.push((cur_ts, frames[idx].data.clone()));
            }
            st.write_set.insert(key);
            frames[idx].pins += 1; // no-steal until commit/abort
        }
        frames[idx].dirty = true;
        Ok(body(&mut frames[idx].data))
    }

    // -----------------------------------------------------------------
    // MVCC transactions.
    // -----------------------------------------------------------------

    /// Begin transaction `id` (id allocation is the server's job): its
    /// snapshot is the current commit timestamp.
    pub fn tx_begin(&self, id: u64) -> StorageResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let m = &mut inner.mvcc;
        m.next_seq += 1;
        let st = TxnState {
            seq: m.next_seq,
            snapshot: m.commit_ts,
            read_set: HashSet::new(),
            write_set: HashSet::new(),
            savepoint: None,
        };
        if m.active.insert(id, st).is_some() {
            return Err(StorageError::Corrupt(format!(
                "transaction {id} already active"
            )));
        }
        m.stats.begun += 1;
        Ok(())
    }

    /// Validate `id` for commit and build the log record of every page it
    /// wrote, without closing it: a delta against the before-image for a
    /// page the log already rebuilds, a full after-image otherwise.
    /// Backward validation: every page read outside the write set
    /// must still carry a commit timestamp at or below the transaction's
    /// snapshot, and must not have been written by an earlier transaction
    /// of the same group-commit batch (`batch_written`) — those commits
    /// are ordered before ours but not yet installed. A read-only
    /// transaction has nothing to validate: it read one snapshot, which
    /// is its place in the serial order. Locks stay held; a conflict
    /// leaves the transaction active for [`Self::tx_abort`].
    pub fn tx_prepare(
        &self,
        id: u64,
        batch_written: &HashSet<PageKey>,
    ) -> StorageResult<Vec<PageWrite>> {
        if self.locks.is_wounded(id) {
            self.locks.conflicts.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::TxnConflict(format!(
                "transaction {id} wounded by an older transaction"
            )));
        }
        let mut inner = self.inner.lock().unwrap();
        let Inner {
            frames,
            map,
            mvcc: m,
            logged,
            ..
        } = &mut *inner;
        let st = m.active.get(&id).ok_or(StorageError::UnknownTxn(id))?;
        if st.write_set.is_empty() {
            return Ok(Vec::new());
        }
        for key in &st.read_set {
            if st.write_set.contains(key) {
                continue;
            }
            let committed_after = m.page_ts.get(key).copied().unwrap_or(0) > st.snapshot;
            if committed_after || batch_written.contains(key) {
                m.stats.conflicts += 1;
                return Err(StorageError::TxnConflict(format!(
                    "read page {}:{} modified by a transaction committing after \
                     snapshot {}",
                    key.0 .0, key.1 .0, st.snapshot
                )));
            }
        }
        let mut writes = Vec::with_capacity(st.write_set.len());
        for &key in &st.write_set {
            let idx = *map.get(&key).ok_or_else(|| {
                StorageError::Corrupt("transaction page evicted despite pin".into())
            })?;
            let after = &frames[idx].data;
            // The before-image is the newest version: the page lock keeps
            // every other commit off the page until this one ends.
            let before = m.versions.get(&key).and_then(|l| l.last());
            let record = match before {
                Some((_, before)) if logged.contains(&key) => PageRecord::delta(before, after),
                _ => PageRecord::Image(after.clone()),
            };
            writes.push((key, record));
        }
        writes.sort_by_key(|(k, _)| *k);
        Ok(writes)
    }

    /// Install `id`'s writes as committed: assign the next commit
    /// timestamp, publish the after-images as versions, unpin, release
    /// locks. Must be called in WAL order (the group-commit leader's
    /// ordering barrier) so commit timestamps agree with the log, and
    /// only once the records [`Self::tx_prepare`] built are durable: the
    /// pages count as logged from here on.
    pub fn tx_install(&self, id: u64) -> StorageResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let Inner {
            frames,
            map,
            mvcc: m,
            logged,
            ..
        } = &mut *inner;
        let st = m.active.remove(&id).ok_or(StorageError::UnknownTxn(id))?;
        m.commit_ts += 1;
        let ts = m.commit_ts;
        let mut pages: Vec<PageKey> = st.write_set.into_iter().collect();
        pages.sort();
        for &key in &pages {
            let idx = *map.get(&key).ok_or_else(|| {
                StorageError::Corrupt("transaction page evicted despite pin".into())
            })?;
            m.versions
                .entry(key)
                .or_default()
                .push((ts, frames[idx].data.clone()));
            m.page_ts.insert(key, ts);
            frames[idx].pins = frames[idx].pins.saturating_sub(1);
            logged.insert(key);
        }
        for key in pages {
            m.gc_page(key);
        }
        m.stats.committed += 1;
        drop(inner);
        self.locks.release_all(id);
        Ok(())
    }

    /// Roll transaction `id` back: restore the committed before-images
    /// into the frames, unpin, release locks.
    pub fn tx_abort(&self, id: u64) -> StorageResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let Inner {
            frames,
            map,
            mvcc: m,
            ..
        } = &mut *inner;
        let st = m.active.remove(&id).ok_or(StorageError::UnknownTxn(id))?;
        let mut broken = None;
        for key in &st.write_set {
            let (Some(&idx), Some((_, image))) =
                (map.get(key), m.versions.get(key).and_then(|l| l.last()))
            else {
                broken = Some(*key);
                continue;
            };
            frames[idx].data.copy_from_slice(image);
            frames[idx].dirty = true;
            frames[idx].pins = frames[idx].pins.saturating_sub(1);
        }
        m.stats.aborted += 1;
        drop(inner);
        self.locks.release_all(id);
        match broken {
            Some((fid, pid)) => Err(StorageError::Corrupt(format!(
                "no before-image for aborted page {}:{}",
                fid.0, pid.0
            ))),
            None => Ok(()),
        }
    }

    /// The write-ahead log is about to be truncated: from here on every
    /// page's first commit logs a full image again. Called by a
    /// checkpoint, after the data files are durable.
    pub fn note_checkpoint(&self) {
        self.inner.lock().unwrap().logged.clear();
    }

    /// Pin the current committed state; returns the snapshot timestamp.
    pub fn pin_snapshot(&self) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        let m = &mut inner.mvcc;
        let ts = m.commit_ts;
        *m.pins.entry(ts).or_insert(0) += 1;
        m.stats.snapshots += 1;
        ts
    }

    /// Release one pin of snapshot `ts`.
    pub fn release_snapshot(&self, ts: u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(n) = inner.mvcc.pins.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                inner.mvcc.pins.remove(&ts);
            }
        }
    }

    /// Mark a savepoint in transaction `id`, returning how many pages it
    /// has written (each pinned in its frame until the transaction
    /// ends): [`Self::tx_rollback_savepoint`] undoes every page write
    /// after it.
    pub(crate) fn tx_savepoint(&self, id: u64) -> StorageResult<usize> {
        let mut inner = self.inner.lock().unwrap();
        let st = inner.mvcc.active.get_mut(&id);
        let st = st.ok_or(StorageError::UnknownTxn(id))?;
        st.savepoint = Some(HashMap::new());
        Ok(st.write_set.len())
    }

    /// Undo the page writes transaction `id` made since its savepoint:
    /// a page it had written before gets that image back; a page first
    /// written since gets its committed image back and leaves the write
    /// set, unpinned (its write lock is kept until the transaction ends).
    pub(crate) fn tx_rollback_savepoint(&self, id: u64) -> StorageResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let Inner {
            frames,
            map,
            mvcc: m,
            ..
        } = &mut *inner;
        let st = m.active.get_mut(&id).ok_or(StorageError::UnknownTxn(id))?;
        let mut fresh = Vec::new();
        for (key, found) in st.savepoint.take().unwrap_or_default() {
            let idx = *map.get(&key).ok_or_else(|| {
                StorageError::Corrupt("transaction page evicted despite pin".into())
            })?;
            if let Some(image) = found {
                frames[idx].data.copy_from_slice(&image);
                continue;
            }
            let (_, image) = m.versions.get(&key).and_then(|l| l.last()).ok_or_else(|| {
                StorageError::Corrupt("no before-image for a rolled-back page".into())
            })?;
            frames[idx].data.copy_from_slice(image);
            frames[idx].pins = frames[idx].pins.saturating_sub(1);
            st.write_set.remove(&key);
            fresh.push(key);
        }
        for key in fresh {
            m.gc_page(key);
        }
        Ok(())
    }

    /// Transaction counters.
    pub fn tx_stats(&self) -> TxStats {
        let mut s = self.inner.lock().unwrap().mvcc.stats;
        s.conflicts += self.locks.conflicts.load(Ordering::Relaxed);
        s.wounds += self.locks.wounds.load(Ordering::Relaxed);
        s
    }

    /// Record one group-commit batch of `txns` transactions.
    pub fn note_group_commit(&self, txns: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.mvcc.stats.group_commits += 1;
        inner.mvcc.stats.group_committed_txns += txns;
    }

    /// Write back every dirty frame and sync all files. A page a
    /// transaction is writing holds uncommitted bytes: its latest
    /// committed image (from the version store) is written instead, and
    /// the frame stays dirty for the commit or abort. Also sweeps the
    /// version store down to what live snapshots still need.
    pub fn flush_all(&self) -> StorageResult<()> {
        let mut inner = self.inner.lock().unwrap();
        let Inner {
            frames,
            files,
            mvcc,
            stats,
            ..
        } = &mut *inner;
        let active = mvcc.active.values();
        let written: HashSet<PageKey> = active.flat_map(|t| t.write_set.iter().copied()).collect();
        for frame in frames.iter_mut().filter(|f| f.dirty) {
            let Some(key) = frame.key else { continue };
            let locked = written.contains(&key);
            let image = match locked {
                false => &frame.data,
                true => match mvcc.versions.get(&key).and_then(|l| l.last()) {
                    Some((_, image)) => image,
                    None => {
                        return Err(StorageError::Corrupt(
                            "write-locked page has no committed image".into(),
                        ))
                    }
                },
            };
            let file = files.get_mut(&key.0).ok_or(StorageError::BadFileId)?;
            file.write_page(key.1, image)?;
            stats.page_writes += 1;
            frame.dirty = locked;
        }
        for file in files.values_mut() {
            file.sync()?;
        }
        mvcc.gc_all();
        Ok(())
    }

    /// Flush and drop every unpinned frame (cold-cache experiment setup).
    pub fn evict_all(&self) -> StorageResult<()> {
        self.flush_all()?;
        let mut inner = self.inner.lock().unwrap();
        for f in inner.frames.iter_mut() {
            if f.pins == 0 {
                f.key = None;
                f.dirty = false;
                f.referenced = false;
            }
        }
        let keep: Vec<(FileId, PageId)> = inner
            .frames
            .iter()
            .filter(|f| f.pins > 0)
            .filter_map(|f| f.key)
            .collect();
        inner.map.retain(|k, _| keep.contains(k));
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> BufferStats {
        self.inner.lock().unwrap().stats
    }

    /// Zero the counters (between experiment phases).
    pub fn reset_stats(&self) {
        self.inner.lock().unwrap().stats = BufferStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("coral-buffer-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn pool_with_file(name: &str, frames: usize, pages: u64) -> (BufferPool, FileId) {
        let pool = BufferPool::new(frames);
        let fid = FileId(0);
        pool.register_file(fid, PageFile::open(&tmpfile(name)).unwrap());
        for _ in 0..pages {
            pool.allocate_page(fid).unwrap();
        }
        pool.evict_all().unwrap();
        pool.reset_stats();
        (pool, fid)
    }

    /// Write one page in a transaction of its own and commit it (these
    /// tests drive the pool without a server, so nothing is logged).
    fn committed_write(
        pool: &BufferPool,
        txn: u64,
        fid: FileId,
        pid: PageId,
        body: impl FnOnce(&mut [u8]),
    ) {
        pool.tx_begin(txn).unwrap();
        pool.with_page_mut(fid, pid, txn, body).unwrap();
        pool.tx_prepare(txn, &HashSet::new()).unwrap();
        pool.tx_install(txn).unwrap();
    }

    /// A warm pool with zero lock timeout, so contended writes fail
    /// immediately instead of waiting.
    fn txn_pool(name: &str, frames: usize, pages: u64) -> (BufferPool, FileId) {
        let pool = BufferPool::new(frames);
        pool.set_lock_timeout(Duration::from_millis(0));
        let fid = FileId(0);
        pool.register_file(fid, PageFile::open(&tmpfile(name)).unwrap());
        for _ in 0..pages {
            pool.allocate_page(fid).unwrap();
        }
        (pool, fid)
    }

    #[test]
    fn hit_after_miss() {
        let (pool, fid) = pool_with_file("hits.pages", 4, 2);
        pool.with_page(fid, PageId(0), |_| ()).unwrap();
        pool.with_page(fid, PageId(0), |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn writes_survive_eviction() {
        let (pool, fid) = pool_with_file("evict.pages", 2, 8);
        for i in 0..8u64 {
            committed_write(&pool, i + 1, fid, PageId(i), |d| d[0] = i as u8 + 1);
        }
        // Working set exceeds capacity: pages 0..6 were evicted.
        for i in 0..8u64 {
            let v = pool.with_page(fid, PageId(i), |d| d[0]).unwrap();
            assert_eq!(v, i as u8 + 1);
        }
        assert!(pool.stats().evictions >= 6);
    }

    #[test]
    fn small_working_set_all_hits() {
        let (pool, fid) = pool_with_file("wset.pages", 8, 4);
        for _ in 0..10 {
            for i in 0..4u64 {
                pool.with_page(fid, PageId(i), |_| ()).unwrap();
            }
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4, "one miss per page");
        assert_eq!(s.hits, 36);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let (pool, fid) = pool_with_file("pin.pages", 2, 4);
        pool.tx_begin(1).unwrap();
        pool.with_page_mut(fid, PageId(0), 1, |d| d[1] = 99)
            .unwrap();
        // Touch the other pages, forcing eviction pressure on frame 2.
        for i in 1..4u64 {
            pool.with_page(fid, PageId(i), |_| ()).unwrap();
        }
        // Page 0 must still be resident: reading it is a hit.
        let before = pool.stats().hits;
        let v = pool.with_page(fid, PageId(0), |d| d[1]).unwrap();
        assert_eq!(v, 99);
        assert_eq!(pool.stats().hits, before + 1);
        pool.tx_abort(1).unwrap();
    }

    #[test]
    fn all_pinned_pool_errors() {
        let (pool, fid) = pool_with_file("full.pages", 2, 3);
        for (txn, pid) in [(1, 0), (2, 1)] {
            pool.tx_begin(txn).unwrap();
            pool.with_page_mut(fid, PageId(pid), txn, |_| ()).unwrap();
        }
        assert!(matches!(
            pool.with_page(fid, PageId(2), |_| ()),
            Err(StorageError::PoolExhausted { frames: 2 })
        ));
        pool.tx_abort(2).unwrap();
        assert!(pool.with_page(fid, PageId(2), |_| ()).is_ok());
    }

    #[test]
    fn flush_writes_dirty_pages() {
        let path = tmpfile("flush.pages");
        let pool = BufferPool::new(4);
        let fid = FileId(3);
        pool.register_file(fid, PageFile::open(&path).unwrap());
        let pid = pool.allocate_page(fid).unwrap();
        committed_write(&pool, 1, fid, pid, |d| d[7] = 77);
        pool.flush_all().unwrap();
        // Read the file directly, bypassing the pool.
        let mut f = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read_page(pid, &mut buf).unwrap();
        assert_eq!(buf[7], 77);
    }

    #[test]
    fn txn_abort_restores_before_images() {
        let (pool, fid) = pool_with_file("txn.pages", 4, 2);
        committed_write(&pool, 1, fid, PageId(0), |d| d[0] = 1);
        pool.tx_begin(2).unwrap();
        for (pid, v) in [(0, 2), (1, 3)] {
            pool.with_page_mut(fid, PageId(pid), 2, |d| d[0] = v)
                .unwrap();
        }
        pool.tx_abort(2).unwrap();
        assert_eq!(pool.with_page(fid, PageId(0), |d| d[0]).unwrap(), 1);
        assert_eq!(pool.with_page(fid, PageId(1), |d| d[0]).unwrap(), 0);
    }

    #[test]
    fn txn_prepare_returns_after_images() {
        let (pool, fid) = pool_with_file("txn2.pages", 4, 2);
        pool.tx_begin(1).unwrap();
        pool.with_page_mut(fid, PageId(1), 1, |d| d[9] = 9).unwrap();
        pool.with_page_mut(fid, PageId(1), 1, |d| d[10] = 10)
            .unwrap();
        let images = pool.tx_prepare(1, &HashSet::new()).unwrap();
        pool.tx_install(1).unwrap();
        assert_eq!(pool.tx_stats().committed, 1);
        assert_eq!(images.len(), 1, "one touched page, logged once");
        assert_eq!(images[0].0, (fid, PageId(1)));
        let PageRecord::Image(image) = &images[0].1 else {
            panic!("a page's first commit logs a full image");
        };
        assert_eq!(image[9], 9);
        assert_eq!(image[10], 10);
    }

    #[test]
    fn later_commits_log_deltas_until_a_checkpoint() {
        let (pool, fid) = pool_with_file("txn-delta.pages", 4, 2);
        let commit = |txn: u64, at: usize, v: u8| {
            pool.tx_begin(txn).unwrap();
            pool.with_page_mut(fid, PageId(0), txn, |d| d[at] = v)
                .unwrap();
            let mut writes = pool.tx_prepare(txn, &HashSet::new()).unwrap();
            pool.tx_install(txn).unwrap();
            writes.pop().unwrap().1
        };
        assert!(matches!(commit(1, 5, 1), PageRecord::Image(_)));
        assert_eq!(commit(2, 6, 2), PageRecord::Delta(vec![(6, vec![2])]));
        pool.note_checkpoint();
        assert!(matches!(commit(3, 7, 3), PageRecord::Image(_)));
        assert_eq!(commit(4, 8, 4), PageRecord::Delta(vec![(8, vec![4])]));
    }

    #[test]
    fn duplicate_and_unknown_txn_ids_rejected() {
        let (pool, _) = pool_with_file("txn3.pages", 4, 1);
        pool.tx_begin(1).unwrap();
        assert!(pool.tx_begin(1).is_err());
        pool.tx_install(1).unwrap();
        assert!(matches!(
            pool.tx_install(1),
            Err(StorageError::UnknownTxn(1))
        ));
        assert!(matches!(pool.tx_abort(1), Err(StorageError::UnknownTxn(1))));
    }

    #[test]
    fn unknown_file_is_an_error() {
        let pool = BufferPool::new(2);
        assert!(matches!(
            pool.with_page(FileId(9), PageId(0), |_| ()),
            Err(StorageError::BadFileId)
        ));
        assert!(matches!(
            pool.allocate_page(FileId(9)),
            Err(StorageError::BadFileId)
        ));
    }

    // ----------------- snapshots, locks, validation ------------------

    #[test]
    fn snapshot_does_not_see_uncommitted_writes() {
        let (pool, fid) = txn_pool("mv-snap.pages", 8, 2);
        committed_write(&pool, 9, fid, PageId(0), |d| d[0] = 1);
        pool.tx_begin(1).unwrap();
        let snap = pool.pin_snapshot();
        pool.with_page_mut(fid, PageId(0), 1, |d| d[0] = 2).unwrap();
        // Snapshot still sees the committed value; the txn sees its own.
        let s = pool
            .with_page_view(fid, PageId(0), View::Snapshot(snap), |d| d[0])
            .unwrap();
        assert_eq!(s, 1);
        let t = pool
            .with_page_view(fid, PageId(0), View::Txn(1), |d| d[0])
            .unwrap();
        assert_eq!(t, 2);
        pool.tx_install(1).unwrap();
        // The pinned snapshot still reads the old image after commit.
        let s = pool
            .with_page_view(fid, PageId(0), View::Snapshot(snap), |d| d[0])
            .unwrap();
        assert_eq!(s, 1);
        // A fresh snapshot sees the commit.
        let snap2 = pool.pin_snapshot();
        let s2 = pool
            .with_page_view(fid, PageId(0), View::Snapshot(snap2), |d| d[0])
            .unwrap();
        assert_eq!(s2, 2);
        pool.release_snapshot(snap);
        pool.release_snapshot(snap2);
    }

    #[test]
    fn abort_restores_committed_image_and_releases_locks() {
        let (pool, fid) = txn_pool("mv-abort.pages", 8, 2);
        committed_write(&pool, 9, fid, PageId(0), |d| d[0] = 7);
        pool.tx_begin(1).unwrap();
        pool.with_page_mut(fid, PageId(0), 1, |d| d[0] = 8).unwrap();
        pool.tx_abort(1).unwrap();
        assert_eq!(pool.with_page(fid, PageId(0), |d| d[0]).unwrap(), 7);
        // The lock is free again.
        pool.tx_begin(2).unwrap();
        pool.with_page_mut(fid, PageId(0), 2, |d| d[0] = 9).unwrap();
        pool.tx_install(2).unwrap();
        assert_eq!(pool.with_page(fid, PageId(0), |d| d[0]).unwrap(), 9);
    }

    #[test]
    fn write_write_conflict_is_retryable() {
        let (pool, fid) = txn_pool("mv-ww.pages", 8, 2);
        pool.tx_begin(1).unwrap();
        pool.tx_begin(2).unwrap();
        pool.with_page_mut(fid, PageId(0), 1, |d| d[0] = 1).unwrap();
        let err = pool
            .with_page_mut(fid, PageId(0), 2, |d| d[0] = 2)
            .unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)), "{err}");
        pool.tx_abort(2).unwrap();
        pool.tx_install(1).unwrap();
        let stats = pool.tx_stats();
        assert_eq!(stats.committed, 1);
        assert_eq!(stats.aborted, 1);
        assert!(stats.conflicts >= 1);
    }

    #[test]
    fn first_updater_wins_after_snapshot() {
        let (pool, fid) = txn_pool("mv-fuw.pages", 8, 2);
        pool.tx_begin(1).unwrap();
        // Txn 2 commits a write to page 0 after txn 1's snapshot.
        pool.tx_begin(2).unwrap();
        pool.with_page_mut(fid, PageId(0), 2, |d| d[0] = 2).unwrap();
        pool.tx_install(2).unwrap();
        let err = pool
            .with_page_mut(fid, PageId(0), 1, |d| d[0] = 1)
            .unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)));
        pool.tx_abort(1).unwrap();
    }

    #[test]
    fn read_validation_catches_rw_conflict() {
        let (pool, fid) = txn_pool("mv-bocc.pages", 8, 2);
        pool.tx_begin(1).unwrap();
        // Txn 1 reads page 0.
        pool.with_page_view(fid, PageId(0), View::Txn(1), |_| ())
            .unwrap();
        // Txn 1 writes page 1 (so it has something to commit).
        pool.with_page_mut(fid, PageId(1), 1, |d| d[0] = 1).unwrap();
        // Txn 2 writes page 0 and commits first.
        pool.tx_begin(2).unwrap();
        pool.with_page_mut(fid, PageId(0), 2, |d| d[0] = 2).unwrap();
        pool.tx_install(2).unwrap();
        // Txn 1's validation must fail: its read is stale in commit order.
        let err = pool.tx_prepare(1, &HashSet::new()).unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)));
        pool.tx_abort(1).unwrap();
    }

    #[test]
    fn write_outside_an_open_transaction_is_refused() {
        let (pool, fid) = txn_pool("mv-notxn.pages", 8, 2);
        assert!(matches!(
            pool.with_page_mut(fid, PageId(0), 9, |d| d[0] = 5),
            Err(StorageError::UnknownTxn(9))
        ));
        assert_eq!(pool.with_page(fid, PageId(0), |d| d[0]).unwrap(), 0);
    }

    #[test]
    fn checkpoint_flushes_committed_image_under_active_writer() {
        let path = tmpfile("mv-ckpt.pages");
        let pool = BufferPool::new(8);
        let fid = FileId(0);
        pool.register_file(fid, PageFile::open(&path).unwrap());
        pool.allocate_page(fid).unwrap();
        committed_write(&pool, 9, fid, PageId(0), |d| d[0] = 1);
        pool.tx_begin(1).unwrap();
        pool.with_page_mut(fid, PageId(0), 1, |d| d[0] = 2).unwrap();
        pool.flush_all().unwrap();
        // Disk has the committed value, not the uncommitted one.
        let mut f = PageFile::open(&path).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        f.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[0], 1);
        // The txn's bytes survived the flush in the frame.
        pool.tx_install(1).unwrap();
        assert_eq!(pool.with_page(fid, PageId(0), |d| d[0]).unwrap(), 2);
    }

    #[test]
    fn snapshot_of_page_born_later_reads_zeros() {
        let (pool, fid) = txn_pool("mv-born.pages", 8, 1);
        let snap = pool.pin_snapshot();
        pool.tx_begin(1).unwrap();
        let pid = pool.allocate_page(fid).unwrap();
        pool.with_page_mut(fid, pid, 1, |d| d[0] = 9).unwrap();
        pool.tx_install(1).unwrap();
        let v = pool
            .with_page_view(fid, pid, View::Snapshot(snap), |d| d[0])
            .unwrap();
        assert_eq!(v, 0, "page postdates the snapshot");
        pool.release_snapshot(snap);
    }
}
