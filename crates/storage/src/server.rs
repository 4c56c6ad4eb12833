//! The storage server and its client handle.
//!
//! EXODUS "has a client-server architecture; CORAL is the client process,
//! and maintains buffers for persistent relations" (§3.2). In this
//! substitute the server is an in-process object owning the catalog of
//! named page files, the buffer pool and the write-ahead log;
//! [`StorageClient`] (a shared handle) is the only way the engine touches
//! persistent data, preserving Figure 1's boundary. "Multiple CORAL
//! processes could interact by accessing persistent data stored using the
//! EXODUS storage manager" — here, multiple engine components share the
//! one server through cloned handles.
//!
//! On open, the server recovers: committed transactions found in the log
//! are replayed into the data files before anything is cached.
//!
//! ## The implicit transaction
//!
//! Every page write belongs to a transaction. A writer with none of its
//! own (a structure handle in the `Live` view, an unattached
//! `PersistentRelation`) runs each mutation through
//! [`StorageServer::autocommit`]: one at a time, in one *implicit*
//! transaction. It commits at [`StorageServer::checkpoint`], at
//! [`StorageServer::begin`], at [`StorageServer::snapshot`] (an
//! untransacted reader's), when the server is dropped, at the end of a
//! mutation made while another transaction is open (so a conflict
//! reaches that caller as [`StorageError::TxnConflict`]), and at the end
//! of a mutation that leaves it pinning three quarters of the pool (its
//! pages stay in their frames until it commits). A failed mutation is
//! undone alone, from a savepoint; one that ran out of frames beside
//! the earlier mutations' pins runs again after they commit. A crash
//! loses the uncommitted suffix of the writes, and so does a failed
//! commit, whose error reaches the call that committed.

use crate::btree::BTree;
use crate::buffer::{BufferPool, BufferStats, SnapshotGuard};
use crate::check::CheckReport;
use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageFile};
use crate::heap::HeapFile;
use crate::tx::{PageKey, TxStats, View};
use crate::vfs::{StdVfs, Vfs};
use crate::wal::Wal;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Shared handle to a storage server.
pub type StorageClient = Arc<StorageServer>;

struct ServerState {
    catalog: HashMap<String, u32>,
    next_file: u32,
    wal: Wal,
    next_txn: u64,
    /// Transactions begun and not yet committed/aborted. Commit and
    /// abort refuse ids that are not here ([`StorageError::UnknownTxn`]),
    /// catching double-aborts and mismatched begin/commit pairs.
    active: HashSet<u64>,
}

/// Group-commit rendezvous: the first committer becomes the leader and
/// flushes everyone queued behind it with one WAL write+fsync.
#[derive(Default)]
struct GcInner {
    queue: Vec<u64>,
    leader_active: bool,
    results: HashMap<u64, StorageResult<()>>,
}

/// A single-directory storage server: catalog + page files + buffer pool
/// + write-ahead log.
pub struct StorageServer {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    pool: Arc<BufferPool>,
    state: Mutex<ServerState>,
    /// Held for the whole of each untransacted mutation, and by
    /// whatever commits the implicit transaction from outside one (see
    /// [`StorageServer::autocommit`]).
    mutations: Mutex<()>,
    /// The implicit transaction's id, 0 while none is open.
    implicit: AtomicU64,
    /// Group-commit queue.
    gc: Mutex<GcInner>,
    gc_cv: Condvar,
    /// Serializes commit-batch install against checkpoint, so the WAL is
    /// never truncated between logging a commit and installing it.
    commit_mx: Mutex<()>,
    /// Per-relation mutation epochs: bumped by `coral-rel` on every
    /// insert/delete so cross-session observers (the maintained-state
    /// machinery of `coral-core`) can tell whether they saw every change.
    epochs: Mutex<HashMap<String, u64>>,
}

impl StorageServer {
    /// Open (creating if necessary) a server over `dir`, with a buffer
    /// pool of `frames` pages, on the real file system. Runs crash
    /// recovery.
    pub fn open(dir: &Path, frames: usize) -> StorageResult<StorageClient> {
        Self::open_with_vfs(dir, frames, Arc::new(StdVfs))
    }

    /// Open a server over `dir` through `vfs`. All file access — data
    /// pages, the write-ahead log, and the catalog — goes through the
    /// VFS, so a simulated file system (the `coral-sim` crate) can inject
    /// faults and crash points under every byte the server persists.
    pub fn open_with_vfs(
        dir: &Path,
        frames: usize,
        vfs: Arc<dyn Vfs>,
    ) -> StorageResult<StorageClient> {
        vfs.create_dir_all(dir)?;
        let catalog = Self::read_catalog(vfs.as_ref(), &dir.join("catalog"))?;
        let mut wal = Wal::open_with(vfs.as_ref(), &dir.join("wal.log"))?;

        // Recovery: rebuild each logged page from its full image and
        // later deltas, write the result straight into the data files,
        // then checkpoint. Replay is idempotent: the pages are rebuilt
        // from the log alone and written whole at fixed offsets, so
        // running it twice — e.g. after a crash mid-recovery — converges
        // on the same state.
        let recovered = wal.recover()?;
        if !recovered.txns.is_empty() {
            let mut files: HashMap<u32, PageFile> = HashMap::new();
            for ((file_no, pid), image) in &recovered.pages {
                let f = match files.entry(*file_no) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => e.insert(PageFile::open_with(
                        vfs.as_ref(),
                        &Self::file_path(dir, *file_no),
                    )?),
                };
                while f.num_pages() <= pid.0 {
                    f.allocate()?;
                }
                f.write_page(*pid, image)?;
            }
            for f in files.values_mut() {
                f.sync()?;
            }
            wal.checkpoint()?;
        }

        let pool = Arc::new(BufferPool::new(frames));
        let mut next_file = 0;
        for &no in catalog.values() {
            let pf = PageFile::open_with(vfs.as_ref(), &Self::file_path(dir, no))?;
            pool.register_file(FileId(no), pf);
            next_file = next_file.max(no + 1);
        }
        Ok(Arc::new(StorageServer {
            dir: dir.to_path_buf(),
            vfs,
            pool,
            state: Mutex::new(ServerState {
                catalog,
                next_file,
                wal,
                next_txn: 1,
                active: HashSet::new(),
            }),
            mutations: Mutex::new(()),
            implicit: AtomicU64::new(0),
            gc: Mutex::new(GcInner::default()),
            gc_cv: Condvar::new(),
            commit_mx: Mutex::new(()),
            epochs: Mutex::new(HashMap::new()),
        }))
    }

    fn file_path(dir: &Path, no: u32) -> PathBuf {
        dir.join(format!("f{no}.pages"))
    }

    fn read_catalog(vfs: &dyn Vfs, path: &Path) -> StorageResult<HashMap<String, u32>> {
        let mut catalog = HashMap::new();
        if let Some(text) = vfs.read_to_string(path)? {
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let (no, name) = line
                    .split_once(' ')
                    .ok_or_else(|| StorageError::Corrupt(format!("bad catalog line: {line:?}")))?;
                let no: u32 = no.parse().map_err(|_| {
                    StorageError::Corrupt(format!("bad catalog file number: {line:?}"))
                })?;
                catalog.insert(name.to_string(), no);
            }
        }
        Ok(catalog)
    }

    fn write_catalog(&self, state: &ServerState) -> StorageResult<()> {
        let mut lines: Vec<String> = state
            .catalog
            .iter()
            .map(|(name, no)| format!("{no} {name}"))
            .collect();
        lines.sort();
        self.vfs.replace(
            &self.dir.join("catalog"),
            (lines.join("\n") + "\n").as_bytes(),
        )
    }

    /// The server's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Bump and return the mutation epoch of `rel` (called by the
    /// relation layer after every applied insert/delete).
    pub fn bump_epoch(&self, rel: &str) -> u64 {
        let mut epochs = self.epochs.lock().unwrap();
        let e = epochs.entry(rel.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// Current mutation epoch of `rel` (0 = never mutated this run).
    pub fn epoch(&self, rel: &str) -> u64 {
        self.epochs.lock().unwrap().get(rel).copied().unwrap_or(0)
    }

    /// Key for the schema (index-set) epoch of `rel` in the shared
    /// epochs map. The NUL separator cannot appear in a relation name
    /// that reaches storage (file names reject control characters at
    /// the catalog layer), so the keyspaces cannot collide.
    fn schema_epoch_key(rel: &str) -> String {
        format!("{rel}\u{0}schema")
    }

    /// Bump and return the schema epoch of `rel` (called by the
    /// relation layer after persisting a changed index set). Handles
    /// opened by other sessions compare this against the epoch they
    /// last loaded the schema at, and re-read the index list on a
    /// mismatch — otherwise their writes would silently skip an index
    /// another session created after they opened.
    pub fn bump_schema_epoch(&self, rel: &str) -> u64 {
        let mut epochs = self.epochs.lock().unwrap();
        let e = epochs.entry(Self::schema_epoch_key(rel)).or_insert(0);
        *e += 1;
        *e
    }

    /// Raise `rel`'s schema epoch to at least `at_least`. Called at
    /// relation open with the generation stamped in the persisted schema
    /// record: the epoch counter is in-memory and restarts at zero, so
    /// without seeding, post-restart bumps could stay below a generation
    /// an earlier run persisted and stale-handle detection would miss
    /// real changes.
    pub fn seed_schema_epoch(&self, rel: &str, at_least: u64) {
        let mut epochs = self.epochs.lock().unwrap();
        let e = epochs.entry(Self::schema_epoch_key(rel)).or_insert(0);
        *e = (*e).max(at_least);
    }

    /// Current schema epoch of `rel` (0 = unchanged this run).
    pub fn schema_epoch(&self, rel: &str) -> u64 {
        self.epochs
            .lock()
            .unwrap()
            .get(&Self::schema_epoch_key(rel))
            .copied()
            .unwrap_or(0)
    }

    /// Look up or create the named page file.
    pub fn file(&self, name: &str) -> StorageResult<FileId> {
        if name.contains('\n') || name.contains(' ') {
            return Err(StorageError::Corrupt(format!(
                "file names may not contain spaces or newlines: {name:?}"
            )));
        }
        let mut state = self.state.lock().unwrap();
        if let Some(&no) = state.catalog.get(name) {
            return Ok(FileId(no));
        }
        let no = state.next_file;
        state.next_file += 1;
        state.catalog.insert(name.to_string(), no);
        self.write_catalog(&state)?;
        let pf = PageFile::open_with(self.vfs.as_ref(), &Self::file_path(&self.dir, no))?;
        self.pool.register_file(FileId(no), pf);
        Ok(FileId(no))
    }

    /// True iff a file with this name exists.
    pub fn file_exists(&self, name: &str) -> bool {
        self.state.lock().unwrap().catalog.contains_key(name)
    }

    /// Named files in the catalog.
    pub fn list_files(&self) -> Vec<String> {
        let mut names: Vec<String> = self.state.lock().unwrap().catalog.keys().cloned().collect();
        names.sort();
        names
    }

    /// Open the named heap file (creating its page file if needed).
    pub fn heap(self: &Arc<Self>, name: &str) -> StorageResult<HeapFile> {
        let fid = self.file(name)?;
        Ok(HeapFile::new(Arc::clone(self), fid))
    }

    /// Open the named B+-tree (creating/initializing if needed; a new
    /// tree's initialization is a mutation of the implicit transaction).
    pub fn btree(self: &Arc<Self>, name: &str) -> StorageResult<BTree> {
        self.btree_with_view(name, View::Live)
    }

    /// Open the named B+-tree with all accesses — including a new file's
    /// meta initialization — routed through `view`. A transaction that
    /// creates a tree (an index build, a relation's creation) passes its
    /// own `View::Txn` so the initialization writes belong to it; inside
    /// an [`StorageServer::autocommit`] mutation that is the only way to
    /// create one.
    pub fn btree_with_view(self: &Arc<Self>, name: &str, view: View) -> StorageResult<BTree> {
        let fid = self.file(name)?;
        BTree::open(Arc::clone(self), fid, view)
    }

    /// Set the page write-lock wait budget. Zero makes
    /// contended acquisitions fail immediately — deterministic for the
    /// simulator.
    pub fn set_lock_timeout(&self, timeout: Duration) {
        self.pool.set_lock_timeout(timeout);
    }

    /// Transaction counters.
    pub fn tx_stats(&self) -> TxStats {
        self.pool.tx_stats()
    }

    /// Number of transactions begun and not yet committed/aborted.
    pub fn active_txn_count(&self) -> usize {
        self.state.lock().unwrap().active.len()
    }

    /// Begin a transaction. Any number may be open, each reading a
    /// snapshot taken here. The implicit transaction commits first, so
    /// the new one sees every untransacted write made before it.
    pub fn begin(&self) -> StorageResult<u64> {
        let _turn = self.mutations.lock().unwrap();
        self.end_implicit()?;
        self.begin_txn()
    }

    /// Commit the implicit transaction, if one is open.
    fn commit_implicit(&self) -> StorageResult<()> {
        let _turn = self.mutations.lock().unwrap();
        self.end_implicit()
    }

    /// Pin the committed state for a reader with no transaction of its
    /// own. The implicit transaction commits first, so the snapshot
    /// holds every untransacted write made before this call.
    pub fn snapshot(&self) -> StorageResult<Arc<SnapshotGuard>> {
        if self.implicit_txn().is_some() {
            self.commit_implicit()?;
        }
        Ok(SnapshotGuard::pin(&self.pool))
    }

    /// Commit the implicit transaction, if open. Caller holds `mutations`.
    fn end_implicit(&self) -> StorageResult<()> {
        match self.implicit.swap(0, Ordering::SeqCst) {
            0 => Ok(()),
            txn => self.commit(txn),
        }
    }

    /// The implicit transaction's id, if one is open.
    pub fn implicit_txn(&self) -> Option<u64> {
        match self.implicit.load(Ordering::SeqCst) {
            0 => None,
            txn => Some(txn),
        }
    }

    fn begin_txn(&self) -> StorageResult<u64> {
        let mut state = self.state.lock().unwrap();
        let id = state.next_txn;
        self.pool.tx_begin(id)?;
        state.next_txn += 1;
        state.active.insert(id);
        Ok(id)
    }

    /// Run `body` as one mutation of the implicit transaction, whose id
    /// it receives: every page it writes must be written under that id
    /// (a structure handle gets it through `View::Txn`). Untransacted
    /// mutations are serialised; `body` must not start another one.
    /// See the module docs for when the implicit transaction commits.
    ///
    /// A failed mutation is undone alone. If earlier mutations' pages
    /// were pinned when it failed, they commit and `body` runs once
    /// more, with the whole pool: a mutation fails for want of frames
    /// only when it needs more than the pool holds.
    pub fn autocommit<R, E: From<StorageError>>(
        &self,
        mut body: impl FnMut(u64) -> Result<R, E>,
    ) -> Result<R, E> {
        let _turn = self.mutations.lock().unwrap();
        loop {
            let txn = self.implicit_txn().map_or_else(|| self.begin_txn(), Ok)?;
            self.implicit.store(txn, Ordering::SeqCst);
            // Nobody can begin while this runs (`begin` waits for the
            // turn), so this is everyone it runs beside.
            let shared = self.active_txn_count() > 1;
            let earlier = self.pool.tx_savepoint(txn)?;
            let result = body(txn);
            if result.is_err() && self.pool.tx_rollback_savepoint(txn).is_err() {
                self.implicit.store(0, Ordering::SeqCst);
                let _ = self.abort(txn);
                return result;
            }
            // Moving the savepoint here frees this mutation's images.
            let pinned = self.pool.tx_savepoint(txn)?;
            if pinned == 0 || shared || pinned >= self.pool.capacity() * 3 / 4 || result.is_err() {
                self.end_implicit()?;
            }
            if result.is_ok() || earlier == 0 {
                return result;
            }
        }
    }

    /// Run one write of a structure handle in `view`: inside its
    /// transaction, or as one mutation of the implicit transaction.
    pub(crate) fn write<R>(
        &self,
        view: View,
        mut body: impl FnMut(u64) -> StorageResult<R>,
    ) -> StorageResult<R> {
        match view {
            View::Txn(txn) => body(txn),
            View::Live => self.autocommit(body),
            View::Snapshot(_) => Err(StorageError::Corrupt(
                "write through a read-only snapshot view".into(),
            )),
        }
    }

    /// Commit transaction `txn`: log its page changes, fsync, release.
    ///
    /// The log write happens *before* the pool transaction is closed: if
    /// appending to the log fails, the pool rolls back to the
    /// before-images and the commit returns the error — the caller
    /// observes a clean abort. (Closing the pool transaction first would
    /// leave unlogged dirty pages unpinned and free to reach disk, a
    /// state recovery knows nothing about.)
    ///
    /// Commits are *grouped*: the first session to arrive becomes the
    /// leader and flushes every transaction queued behind it with one
    /// WAL write and one fsync, then installs them in log order
    /// (the commit-ordering barrier: commit timestamps are assigned in
    /// the order the WAL persisted). A validation failure
    /// ([`StorageError::TxnConflict`]) aborts that transaction only; the
    /// caller retries in a fresh transaction.
    ///
    /// Either way the transaction is *over* when this returns: committed
    /// on `Ok`, aborted on `Err`.
    pub fn commit(&self, txn: u64) -> StorageResult<()> {
        {
            let state = self.state.lock().unwrap();
            if !state.active.contains(&txn) {
                return Err(StorageError::UnknownTxn(txn));
            }
        }
        let result = self.group_commit(txn);
        self.state.lock().unwrap().active.remove(&txn);
        result
    }

    /// Queue `txn` for commit; lead a batch or wait for the leader.
    fn group_commit(&self, txn: u64) -> StorageResult<()> {
        let mut g = self.gc.lock().unwrap();
        g.queue.push(txn);
        while g.leader_active {
            if let Some(res) = g.results.remove(&txn) {
                return res;
            }
            g = self.gc_cv.wait(g).unwrap();
        }
        // The last leader exited; it may already have flushed us.
        if let Some(res) = g.results.remove(&txn) {
            return res;
        }
        g.leader_active = true;
        let mut mine = None;
        while !g.queue.is_empty() {
            let batch = std::mem::take(&mut g.queue);
            drop(g);
            let outcomes = self.commit_batch(&batch);
            g = self.gc.lock().unwrap();
            for (id, res) in outcomes {
                if id == txn {
                    mine = Some(res);
                } else {
                    g.results.insert(id, res);
                }
            }
            self.gc_cv.notify_all();
        }
        g.leader_active = false;
        self.gc_cv.notify_all();
        drop(g);
        mine.unwrap_or_else(|| {
            Err(StorageError::Corrupt(format!(
                "group-commit leader lost its own transaction {txn}"
            )))
        })
    }

    /// Validate, log (one fsync) and install a batch of transactions.
    fn commit_batch(&self, batch: &[u64]) -> Vec<(u64, StorageResult<()>)> {
        // Exclude checkpoint for the whole batch: the WAL must not be
        // truncated between logging these commits and installing them.
        let _ckpt_guard = self.commit_mx.lock().unwrap();
        let mut outcomes = Vec::with_capacity(batch.len());
        let mut batch_written: HashSet<PageKey> = HashSet::new();
        let mut prepared: Vec<u64> = Vec::new();
        // Read-only transactions have nothing to redo; they get no log
        // record but are still installed (ends the txn, orders it).
        let mut log_batch: Vec<(u64, crate::wal::TxnPages)> = Vec::new();
        for &id in batch {
            match self.pool.tx_prepare(id, &batch_written) {
                Ok(writes) => {
                    batch_written.extend(writes.iter().map(|(k, _)| *k));
                    prepared.push(id);
                    if !writes.is_empty() {
                        let pages = writes
                            .into_iter()
                            .map(|((fid, pid), record)| (fid.0, pid, record))
                            .collect();
                        log_batch.push((id, pages));
                    }
                }
                Err(e) => {
                    let _ = self.pool.tx_abort(id);
                    outcomes.push((id, Err(e)));
                }
            }
        }
        if prepared.is_empty() {
            return outcomes;
        }
        let logged = if log_batch.is_empty() {
            Ok(())
        } else {
            self.state.lock().unwrap().wal.log_commit_batch(&log_batch)
        };
        match logged {
            Ok(()) => {
                self.pool.note_group_commit(prepared.len() as u64);
                for id in prepared {
                    outcomes.push((id, self.pool.tx_install(id)));
                }
            }
            Err(e) => {
                // The WAL acknowledged none of the batch: abort all.
                let msg = e.to_string();
                let mut first = Some(e);
                for id in prepared {
                    let _ = self.pool.tx_abort(id);
                    let err = first.take().unwrap_or_else(|| {
                        StorageError::TxnConflict(format!("group commit failed: {msg}"))
                    });
                    outcomes.push((id, Err(err)));
                }
            }
        }
        outcomes
    }

    /// Abort transaction `txn`, restoring before-images. Errors with
    /// [`StorageError::UnknownTxn`] on an id that was never begun or was
    /// already committed/aborted.
    pub fn abort(&self, txn: u64) -> StorageResult<()> {
        {
            let mut state = self.state.lock().unwrap();
            if !state.active.remove(&txn) {
                return Err(StorageError::UnknownTxn(txn));
            }
        }
        self.pool.tx_abort(txn)
    }

    /// Commit the implicit transaction, flush all data files and
    /// truncate the log. Serialized against
    /// group-commit batches: a logged-but-not-installed commit must not
    /// be truncated away. Every page's next commit logs a full image
    /// again, so the new log segment never holds a delta without a base.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.commit_implicit()?;
        let _gc_guard = self.commit_mx.lock().unwrap();
        self.pool.flush_all()?;
        self.pool.note_checkpoint();
        self.state.lock().unwrap().wal.checkpoint()
    }

    /// Structural integrity check over every cataloged file (see
    /// [`crate::check`]).
    pub fn check(self: &Arc<Self>) -> StorageResult<CheckReport> {
        crate::check::check_server(self)
    }

    /// Buffer pool counters.
    pub fn stats(&self) -> BufferStats {
        self.pool.stats()
    }

    /// Zero the buffer pool counters.
    pub fn reset_stats(&self) {
        self.pool.reset_stats()
    }
}

impl Drop for StorageServer {
    /// A clean shutdown commits the implicit transaction.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.end_implicit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("coral-server-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn heap_and_btree_roundtrip_through_server() {
        let dir = fresh_dir("basic");
        let srv = StorageServer::open(&dir, 32).unwrap();
        let heap = srv.heap("edges.data").unwrap();
        let rid = heap.insert(b"a->b").unwrap();
        let idx = srv.btree("edges.idx0").unwrap();
        idx.insert(b"a:0").unwrap();
        assert_eq!(heap.get(rid).unwrap(), b"a->b");
        assert!(idx.contains(b"a:0").unwrap());
        assert_eq!(srv.list_files(), vec!["edges.data", "edges.idx0"]);
        assert!(srv.file_exists("edges.data"));
        assert!(!srv.file_exists("nothing"));
    }

    #[test]
    fn data_survives_checkpoint_and_reopen() {
        let dir = fresh_dir("reopen");
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            for i in 0..100u32 {
                heap.insert(format!("tuple-{i}").as_bytes()).unwrap();
            }
            srv.checkpoint().unwrap();
        }
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            assert_eq!(heap.scan().count(), 100);
        }
    }

    #[test]
    fn committed_txn_survives_crash_without_checkpoint() {
        let dir = fresh_dir("crash");
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            let txn = srv.begin().unwrap();
            heap.set_txn(Some(txn));
            heap.insert(b"committed-tuple").unwrap();
            srv.commit(txn).unwrap();
            // No checkpoint: dirty pages are only in the pool + WAL.
            // Dropping the server simulates a crash (nothing flushed).
        }
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            let all: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap().1).collect();
            assert_eq!(all, vec![b"committed-tuple".to_vec()]);
        }
    }

    #[test]
    fn aborted_txn_leaves_no_trace() {
        let dir = fresh_dir("abort");
        let srv = StorageServer::open(&dir, 16).unwrap();
        let heap = srv.heap("r.data").unwrap();
        let rid = heap.insert(b"keep").unwrap();
        srv.checkpoint().unwrap();
        let txn = srv.begin().unwrap();
        heap.set_txn(Some(txn));
        heap.insert(b"discard").unwrap();
        srv.abort(txn).unwrap();
        heap.set_txn(None);
        let all: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(all, vec![b"keep".to_vec()]);
        assert_eq!(heap.get(rid).unwrap(), b"keep");
    }

    #[test]
    fn uncommitted_txn_lost_on_crash() {
        let dir = fresh_dir("uncommitted");
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            heap.insert(b"base").unwrap();
            srv.checkpoint().unwrap();
            let txn = srv.begin().unwrap();
            heap.set_txn(Some(txn));
            heap.insert(b"in-flight").unwrap();
            // Crash: neither commit nor abort nor checkpoint.
        }
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            let all: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap().1).collect();
            assert_eq!(all, vec![b"base".to_vec()]);
        }
    }

    #[test]
    fn file_ids_stable_across_reopen() {
        let dir = fresh_dir("stable");
        let (a1, b1) = {
            let srv = StorageServer::open(&dir, 8).unwrap();
            (srv.file("alpha").unwrap(), srv.file("beta").unwrap())
        };
        let srv = StorageServer::open(&dir, 8).unwrap();
        assert_eq!(srv.file("alpha").unwrap(), a1);
        assert_eq!(srv.file("beta").unwrap(), b1);
        assert_ne!(a1, b1);
    }

    #[test]
    fn bad_file_names_rejected() {
        let dir = fresh_dir("names");
        let srv = StorageServer::open(&dir, 8).unwrap();
        assert!(srv.file("has space").is_err());
        assert!(srv.file("has\nnewline").is_err());
    }

    #[test]
    fn unknown_and_double_abort_rejected() {
        let dir = fresh_dir("abort-ids");
        let srv = StorageServer::open(&dir, 8).unwrap();
        assert!(matches!(srv.abort(42), Err(StorageError::UnknownTxn(42))));
        let txn = srv.begin().unwrap();
        assert_eq!(srv.active_txn_count(), 1);
        srv.abort(txn).unwrap();
        assert_eq!(srv.active_txn_count(), 0);
        assert!(matches!(
            srv.abort(txn),
            Err(StorageError::UnknownTxn(t)) if t == txn
        ));
    }

    #[test]
    fn mismatched_commit_id_rejected() {
        let dir = fresh_dir("commit-ids");
        let srv = StorageServer::open(&dir, 8).unwrap();
        let heap = srv.heap("r.data").unwrap();
        let txn = srv.begin().unwrap();
        heap.set_txn(Some(txn));
        heap.insert(b"x").unwrap();
        heap.set_txn(None);
        // Committing a different (never-begun) id must not touch txn.
        assert!(matches!(
            srv.commit(txn + 7),
            Err(StorageError::UnknownTxn(_))
        ));
        srv.commit(txn).unwrap();
        // Double commit.
        assert!(matches!(
            srv.commit(txn),
            Err(StorageError::UnknownTxn(t)) if t == txn
        ));
        assert_eq!(heap.scan().count(), 1);
    }

    /// Untransacted writes share the implicit transaction: the live
    /// view sees them at once, a crash drops the uncommitted ones, and
    /// `begin` commits them before the explicit transaction starts.
    #[test]
    fn implicit_transaction_commits_at_begin() {
        let dir = fresh_dir("implicit");
        {
            let srv = StorageServer::open(&dir, 16).unwrap();
            let heap = srv.heap("r.data").unwrap();
            heap.insert(b"before-begin").unwrap();
            assert!(srv.implicit_txn().is_some());
            assert_eq!(heap.scan().count(), 1, "live reads see it");
            let txn = srv.begin().unwrap();
            assert_eq!(srv.implicit_txn(), None);
            srv.commit(txn).unwrap();
            heap.insert(b"after-commit").unwrap();
            std::mem::forget(srv); // a crash: no drop, no commit
        }
        let srv = StorageServer::open(&dir, 16).unwrap();
        let all: Vec<Vec<u8>> = srv
            .heap("r.data")
            .unwrap()
            .scan()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(all, vec![b"before-begin".to_vec()]);
        assert!(srv.check().unwrap().is_clean());
    }

    /// No-steal pins every page the implicit transaction writes, so it
    /// commits once it holds three quarters of the pool: a load many
    /// times the pool's size goes through untransacted, and survives a
    /// crash right after up to its last commit.
    #[test]
    fn implicit_transaction_commits_before_it_fills_the_pool() {
        let row = |i: u32| format!("row-{i:04}-{}", "x".repeat(100));
        let dir = fresh_dir("implicit-bulk");
        let loaded = {
            let srv = StorageServer::open(&dir, 8).unwrap();
            let heap = srv.heap("r.data").unwrap();
            for i in 0..2000u32 {
                heap.insert(row(i).as_bytes()).unwrap();
                assert!(
                    srv.pool()
                        .tx_savepoint(srv.implicit_txn().unwrap_or(0))
                        .unwrap_or(0)
                        < 6
                );
            }
            assert!(heap.num_pages().unwrap() > 8);
            assert!(srv.tx_stats().committed > 0);
            let loaded = heap.scan().count();
            std::mem::forget(srv);
            loaded
        };
        let srv = StorageServer::open(&dir, 8).unwrap();
        let found: Vec<Vec<u8>> = srv
            .heap("r.data")
            .unwrap()
            .scan()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(loaded, 2000);
        assert!(
            !found.is_empty() && found.len() < 2000,
            "{} rows",
            found.len()
        );
        let mut sorted = found.clone();
        sorted.sort();
        let prefix: Vec<Vec<u8>> = (0..found.len() as u32)
            .map(|i| row(i).into_bytes())
            .collect();
        assert_eq!(sorted, prefix, "a crash loses a suffix");
        assert!(srv.check().unwrap().is_clean());
    }

    /// A failed mutation is undone alone, and one that fails while
    /// earlier mutations pin the pool runs again once they commit.
    #[test]
    fn failed_mutation_is_undone_alone() {
        use crate::file::PageId;
        let srv = StorageServer::open(&fresh_dir("implicit-undo"), 8).unwrap();
        let fid = srv.file("pages").unwrap();
        for _ in 0..10 {
            srv.pool().allocate_page(fid).unwrap();
        }
        let write = |pages: std::ops::Range<u64>, byte: u8, fail: bool| {
            srv.autocommit(|txn| {
                for p in pages.clone() {
                    srv.pool()
                        .with_page_mut(fid, PageId(p), txn, |d| d[0] = byte)?;
                }
                match fail {
                    true => Err(StorageError::BadRecordId),
                    false => Ok(()),
                }
            })
        };
        let byte = |p: u64| srv.pool().with_page(fid, PageId(p), |d| d[0]).unwrap();
        write(0..5, 1, false).unwrap();
        let first = srv.implicit_txn().expect("5 of 8 frames: still open");
        // Four more pinned pages do not fit beside five: the first try
        // runs out of frames, the five commit, the rerun fits.
        write(5..10, 2, false).unwrap();
        assert_ne!(srv.implicit_txn(), Some(first));
        assert_eq!(
            (0..10).map(byte).collect::<Vec<_>>(),
            [1, 1, 1, 1, 1, 2, 2, 2, 2, 2]
        );
        srv.checkpoint().unwrap();
        write(0..2, 3, false).unwrap();
        assert!(write(1..4, 4, true).is_err());
        assert_eq!((0..5).map(byte).collect::<Vec<_>>(), [3, 3, 1, 1, 1]);
        assert!(write(0..1, 5, true).is_err());
        assert_eq!(byte(0), 3);
        assert_eq!(srv.implicit_txn(), None);
    }

    #[test]
    fn epochs_track_mutations() {
        let dir = fresh_dir("epochs");
        let srv = StorageServer::open(&dir, 8).unwrap();
        assert_eq!(srv.epoch("r"), 0);
        assert_eq!(srv.bump_epoch("r"), 1);
        assert_eq!(srv.bump_epoch("r"), 2);
        assert_eq!(srv.epoch("r"), 2);
        assert_eq!(srv.epoch("other"), 0);
    }

    #[test]
    fn concurrent_txns_on_disjoint_relations_commit() {
        let dir = fresh_dir("mvcc-two");
        let srv = StorageServer::open(&dir, 32).unwrap();
        let a = srv.heap("a.data").unwrap();
        let b = srv.heap("b.data").unwrap();
        let ta = srv.begin().unwrap();
        let tb = srv.begin().unwrap();
        a.set_txn(Some(ta));
        b.set_txn(Some(tb));
        a.insert(b"alpha").unwrap();
        b.insert(b"beta").unwrap();
        srv.commit(ta).unwrap();
        srv.commit(tb).unwrap();
        a.set_txn(None);
        b.set_txn(None);
        assert_eq!(a.scan().count(), 1);
        assert_eq!(b.scan().count(), 1);
        let stats = srv.tx_stats();
        assert_eq!(stats.committed, 2);
    }

    #[test]
    fn conflicting_txns_one_wins_one_retries() {
        let dir = fresh_dir("mvcc-conflict");
        let srv = StorageServer::open(&dir, 32).unwrap();
        srv.set_lock_timeout(Duration::from_millis(0));
        let heap = srv.heap("r.data").unwrap();
        let t0 = srv.begin().unwrap();
        heap.set_txn(Some(t0));
        heap.insert(b"seed").unwrap(); // page 0 exists
        srv.commit(t0).unwrap();
        let t1 = srv.begin().unwrap();
        let t2 = srv.begin().unwrap();
        heap.set_txn(Some(t1));
        heap.insert(b"from-t1").unwrap();
        heap.set_txn(Some(t2));
        let err = heap.insert(b"from-t2").unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)), "{err}");
        srv.abort(t2).unwrap();
        srv.commit(t1).unwrap();
        heap.set_txn(None);
        assert_eq!(heap.scan().count(), 2);
        assert!(srv.tx_stats().conflicts >= 1);
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let dir = fresh_dir("mvcc-group");
        let srv = StorageServer::open(&dir, 64).unwrap();
        let threads: Vec<_> = (0..8u32)
            .map(|i| {
                let client: StorageClient = Arc::clone(&srv);
                std::thread::spawn(move || {
                    let heap = client.heap(&format!("g{i}.data")).unwrap();
                    for j in 0..20u32 {
                        let txn = client.begin().unwrap();
                        heap.set_txn(Some(txn));
                        heap.insert(format!("t{i}-{j}").as_bytes()).unwrap();
                        heap.set_txn(None);
                        client.commit(txn).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for i in 0..8u32 {
            let heap = srv.heap(&format!("g{i}.data")).unwrap();
            assert_eq!(heap.scan().count(), 20);
        }
        let stats = srv.tx_stats();
        assert_eq!(stats.committed, 160);
        // With 8 threads committing concurrently at least one batch
        // should have carried more than one transaction — but the
        // scheduler makes no promises, so only assert accounting.
        assert_eq!(stats.group_committed_txns, 160);
        assert!(stats.group_commits <= 160);
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn fresh_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("coral-server-mt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// "Multiple CORAL processes could interact by accessing persistent
    /// data stored using the EXODUS storage manager" (§2): here multiple
    /// threads share one server through cloned client handles.
    #[test]
    fn concurrent_heap_writers_and_readers() {
        let srv = StorageServer::open(&fresh_dir("rw"), 32).unwrap();
        let writers: Vec<_> = (0..4u32)
            .map(|w| {
                let client: StorageClient = Arc::clone(&srv);
                std::thread::spawn(move || {
                    let heap = client.heap(&format!("shard{w}.data")).unwrap();
                    let mut rids = Vec::new();
                    for i in 0..200u32 {
                        rids.push(heap.insert(format!("w{w}-r{i}").as_bytes()).unwrap());
                    }
                    (w, rids)
                })
            })
            .collect();
        let results: Vec<_> = writers.into_iter().map(|h| h.join().unwrap()).collect();
        // Every record is readable with the written content.
        for (w, rids) in results {
            let heap = srv.heap(&format!("shard{w}.data")).unwrap();
            for (i, rid) in rids.iter().enumerate() {
                assert_eq!(heap.get(*rid).unwrap(), format!("w{w}-r{i}").as_bytes());
            }
            assert_eq!(heap.scan().count(), 200);
        }
    }

    #[test]
    fn concurrent_btree_readers() {
        let srv = StorageServer::open(&fresh_dir("bt"), 16).unwrap();
        let tree = srv.btree("shared.bt").unwrap();
        for i in 0..500u32 {
            tree.insert(format!("k{i:05}").as_bytes()).unwrap();
        }
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let client: StorageClient = Arc::clone(&srv);
                std::thread::spawn(move || {
                    let tree = client.btree("shared.bt").unwrap();
                    let mut hits = 0;
                    for i in (0..500u32).step_by(7) {
                        if tree.contains(format!("k{i:05}").as_bytes()).unwrap() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        for h in readers {
            assert_eq!(h.join().unwrap(), 72);
        }
    }
}
