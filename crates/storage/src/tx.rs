//! Transaction concurrency manager: MVCC snapshots, write latching, and
//! the shared state behind group commit.
//!
//! The paper delegates "transactions and concurrency control" to the
//! EXODUS toolkit (§2). This module is the store's one concurrency
//! manager; every page write runs inside one of its transactions:
//!
//! * **Page-versioned MVCC snapshots.** A version store layered over the
//!   buffer pool keeps, per page, the committed images newer than the
//!   oldest live snapshot. Readers pin a commit-timestamp snapshot
//!   ([`View::Snapshot`]) and are served the newest version at or below
//!   their timestamp — no relation or page locks, so readers never block
//!   behind writers.
//! * **Fine-grained write latching.** A lock table hands out per-page
//!   write locks held until commit/abort. Acquisition resolves deadlocks
//!   by *wound-or-timeout*: an older transaction wounds a younger lock
//!   holder (the victim's next operation fails retryably); a younger
//!   requester waits up to the configured timeout. Both outcomes surface
//!   as [`StorageError::TxnConflict`], the retryable conflict error.
//! * **First-updater-wins + read validation.** A write to a page
//!   committed after the writer's snapshot conflicts immediately; at
//!   commit the transaction's read set is validated against the commit
//!   timestamps (backward optimistic concurrency control), so the
//!   committed history is serialisable *in commit order* — the property
//!   the coral-sim serialisability oracle replays and checks.
//!
//! The structures here are data only; the buffer pool (which owns the
//! frames the versions shadow) drives them, and the storage server adds
//! group commit on top. The split mirrors krdlab/simpledb's `tx/`
//! (concurrency manager / lock table / recovery manager).

use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageId};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A page address, the unit of versioning and locking.
pub type PageKey = (FileId, PageId);

/// Which state of the database a page access observes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum View {
    /// The live frames: newest state, including any uncommitted writes.
    /// A structure handle in this view writes through the storage
    /// server's implicit transaction.
    #[default]
    Live,
    /// A frozen commit-timestamp snapshot: committed state as of the
    /// timestamp, uncommitted writes invisible. Never blocks.
    Snapshot(u64),
    /// Inside transaction: own uncommitted writes visible, everything
    /// else as of the transaction's begin snapshot. Reads are recorded
    /// for commit-time validation; writes take page write locks.
    Txn(u64),
}

/// Transaction-manager counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct TxStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed (including read-only).
    pub committed: u64,
    /// Transactions aborted (explicitly or after a conflict).
    pub aborted: u64,
    /// Retryable conflicts surfaced (first-updater, validation, lock
    /// timeout, wounds taking effect).
    pub conflicts: u64,
    /// Wound-or-timeout: younger lock holders wounded by older waiters.
    pub wounds: u64,
    /// Snapshots pinned by readers.
    pub snapshots: u64,
    /// Group-commit batches fsynced.
    pub group_commits: u64,
    /// Transactions carried by those batches (≥ `group_commits`; the
    /// difference is the fsyncs saved by batching).
    pub group_committed_txns: u64,
}

/// Per-transaction bookkeeping while active.
pub(crate) struct TxnState {
    /// Begin order; smaller = older, and older wounds younger.
    pub seq: u64,
    /// Commit timestamp the transaction reads at.
    pub snapshot: u64,
    /// Pages read outside the write set (validated at commit).
    pub read_set: HashSet<PageKey>,
    /// Pages write-locked and dirtied (pinned no-steal until close).
    pub write_set: HashSet<PageKey>,
    /// Set while one mutation of the implicit transaction runs: each
    /// page it wrote, with the image the mutation found (`None`: the
    /// page was not in the write set yet), so a failed mutation is
    /// undone alone.
    pub savepoint: Option<HashMap<PageKey, Option<Box<[u8]>>>>,
}

/// One page's committed images, oldest first, each tagged with the
/// commit timestamp that produced it.
pub(crate) type VersionChain = Vec<(u64, Box<[u8]>)>;

/// MVCC state owned by the buffer pool (behind its mutex): the version
/// store, per-page commit timestamps, active transactions, snapshot
/// pins, and counters.
#[derive(Default)]
pub(crate) struct MvccState {
    /// Last assigned commit timestamp (0 = state at server open).
    pub commit_ts: u64,
    /// Begin-sequence source for wound-or-timeout ordering.
    pub next_seq: u64,
    /// Committed page images, oldest first. Every page with an
    /// uncommitted writer has an entry holding its latest committed
    /// image, so "no entry" always means "the frame is committed".
    pub versions: HashMap<PageKey, VersionChain>,
    /// Commit timestamp of each page's newest committed image.
    pub page_ts: HashMap<PageKey, u64>,
    /// Active transactions by id.
    pub active: HashMap<u64, TxnState>,
    /// Snapshot pin counts by timestamp (readers holding iterators).
    pub pins: HashMap<u64, usize>,
    pub stats: TxStats,
}

impl MvccState {
    /// Oldest timestamp any live reader can still demand: versions at or
    /// below the horizon collapse to the newest one.
    pub fn horizon(&self) -> u64 {
        let snaps = self
            .active
            .values()
            .map(|t| t.snapshot)
            .chain(self.pins.keys().copied());
        snaps.min().unwrap_or(self.commit_ts).min(self.commit_ts)
    }

    /// Drop versions of `key` no live or future snapshot can read. When
    /// every reader would be served the newest one and no transaction
    /// is writing the page, the frame (or the disk) holds that image
    /// too, and the page leaves the version store.
    pub fn gc_page(&mut self, key: PageKey) {
        let horizon = self.horizon();
        let written = self.active.values().any(|t| t.write_set.contains(&key));
        let Some(list) = self.versions.get_mut(&key) else {
            return;
        };
        match list.iter().rposition(|&(ts, _)| ts <= horizon) {
            Some(i) if i + 1 == list.len() && !written => {
                self.versions.remove(&key);
            }
            Some(i) => {
                list.drain(..i);
            }
            None => {}
        }
    }

    /// Sweep the whole version store (called at checkpoint).
    pub fn gc_all(&mut self) {
        let keys: Vec<PageKey> = self.versions.keys().copied().collect();
        for k in keys {
            self.gc_page(k);
        }
    }
}

/// What a lock request resolved to.
enum LockOutcome {
    Granted,
    /// Held by another transaction and the timeout is zero: immediate
    /// retryable conflict (the deterministic mode coral-sim runs in).
    Busy,
}

/// The per-page write-lock table with wound-or-timeout resolution.
///
/// Lives beside (not inside) the buffer pool's mutex: waiting on the
/// condition variable must not hold up page traffic of other sessions.
pub(crate) struct LockTable {
    state: Mutex<LockMap>,
    cv: Condvar,
    /// Wait budget in milliseconds; 0 = fail immediately (no wait, no
    /// wound) for deterministic single-threaded schedules.
    timeout_ms: AtomicU64,
    pub conflicts: AtomicU64,
    pub wounds: AtomicU64,
}

#[derive(Default)]
struct LockMap {
    /// Holder and its begin sequence, per locked page.
    holders: HashMap<PageKey, (u64, u64)>,
    /// Transactions wounded by an older waiter; their next lock
    /// acquisition or commit fails retryably.
    wounded: HashSet<u64>,
}

impl LockTable {
    pub fn new(timeout: Duration) -> LockTable {
        LockTable {
            state: Mutex::new(LockMap::default()),
            cv: Condvar::new(),
            timeout_ms: AtomicU64::new(timeout.as_millis() as u64),
            conflicts: AtomicU64::new(0),
            wounds: AtomicU64::new(0),
        }
    }

    pub fn set_timeout(&self, timeout: Duration) {
        self.timeout_ms
            .store(timeout.as_millis() as u64, Ordering::Relaxed);
    }

    fn conflict(&self, msg: String) -> StorageError {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        StorageError::TxnConflict(msg)
    }

    /// Acquire the write lock on `key` for transaction `txn` (begin
    /// sequence `seq`). Re-entrant. Blocks up to the configured timeout;
    /// an older requester wounds a younger holder while waiting.
    pub fn acquire(&self, txn: u64, seq: u64, key: PageKey) -> StorageResult<()> {
        let mut m = self.state.lock().unwrap();
        let timeout = self.timeout_ms.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_millis(timeout);
        loop {
            if m.wounded.contains(&txn) {
                return Err(
                    self.conflict(format!("transaction {txn} wounded by an older transaction"))
                );
            }
            match self.try_acquire(&mut m, txn, seq, key) {
                LockOutcome::Granted => return Ok(()),
                LockOutcome::Busy if timeout == 0 => {
                    let holder = m.holders.get(&key).map(|&(h, _)| h).unwrap_or(0);
                    return Err(self.conflict(format!(
                        "page {}:{} write-locked by transaction {holder}",
                        key.0 .0, key.1 .0
                    )));
                }
                LockOutcome::Busy => {
                    let now = Instant::now();
                    if now >= deadline {
                        let holder = m.holders.get(&key).map(|&(h, _)| h).unwrap_or(0);
                        return Err(self.conflict(format!(
                            "timed out after {timeout}ms waiting for page {}:{} \
                             held by transaction {holder}",
                            key.0 .0, key.1 .0
                        )));
                    }
                    let (g, _res) = self.cv.wait_timeout(m, deadline - now).unwrap();
                    m = g;
                }
            }
        }
    }

    /// One non-blocking attempt; wounds a younger holder on behalf of an
    /// older requester.
    fn try_acquire(&self, m: &mut LockMap, txn: u64, seq: u64, key: PageKey) -> LockOutcome {
        match m.holders.get(&key) {
            None => {
                m.holders.insert(key, (txn, seq));
                LockOutcome::Granted
            }
            Some(&(holder, _)) if holder == txn => LockOutcome::Granted,
            Some(&(holder, holder_seq)) => {
                if seq < holder_seq && m.wounded.insert(holder) {
                    self.wounds.fetch_add(1, Ordering::Relaxed);
                    // Wake the victim if it is itself waiting on a lock,
                    // so wound-wait cycles unwind instead of deadlocking.
                    self.cv.notify_all();
                }
                LockOutcome::Busy
            }
        }
    }

    /// True iff `txn` has been wounded (checked again at commit, so a
    /// wound between last write and commit still aborts the victim).
    pub fn is_wounded(&self, txn: u64) -> bool {
        self.state.lock().unwrap().wounded.contains(&txn)
    }

    /// Release every lock held by `txn` and clear its wound flag.
    pub fn release_all(&self, txn: u64) {
        let mut m = self.state.lock().unwrap();
        m.holders.retain(|_, &mut (h, _)| h != txn);
        m.wounded.remove(&txn);
        self.cv.notify_all();
    }

    #[cfg(test)]
    pub fn held(&self) -> usize {
        self.state.lock().unwrap().holders.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{FileId, PageId};
    use std::sync::Arc;

    fn key(p: u64) -> PageKey {
        (FileId(0), PageId(p))
    }

    #[test]
    fn reentrant_and_release() {
        let lt = LockTable::new(Duration::from_millis(0));
        lt.acquire(1, 1, key(0)).unwrap();
        lt.acquire(1, 1, key(0)).unwrap();
        lt.acquire(1, 1, key(1)).unwrap();
        assert_eq!(lt.held(), 2);
        lt.release_all(1);
        assert_eq!(lt.held(), 0);
        lt.acquire(2, 2, key(0)).unwrap();
    }

    #[test]
    fn zero_timeout_fails_immediately() {
        let lt = LockTable::new(Duration::from_millis(0));
        lt.acquire(1, 1, key(0)).unwrap();
        let err = lt.acquire(2, 2, key(0)).unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)), "{err}");
        // Zero-timeout mode never wounds: deterministic for the sim.
        assert!(!lt.is_wounded(1));
        assert_eq!(lt.wounds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn younger_requester_times_out() {
        let lt = LockTable::new(Duration::from_millis(20));
        lt.acquire(1, 1, key(0)).unwrap();
        let err = lt.acquire(2, 2, key(0)).unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)));
        assert!(!lt.is_wounded(1), "younger requester must not wound");
    }

    #[test]
    fn older_requester_wounds_younger_holder() {
        let lt = Arc::new(LockTable::new(Duration::from_millis(5000)));
        lt.acquire(2, 2, key(0)).unwrap();
        let lt2 = Arc::clone(&lt);
        let waiter = std::thread::spawn(move || lt2.acquire(1, 1, key(0)));
        // The older waiter wounds txn 2; once 2 aborts (releases), 1
        // gets the lock.
        while !lt.is_wounded(2) {
            std::thread::yield_now();
        }
        lt.release_all(2);
        waiter.join().unwrap().unwrap();
        assert!(!lt.is_wounded(2), "release clears the wound");
    }

    #[test]
    fn wounded_txn_fails_next_acquisition() {
        let lt = Arc::new(LockTable::new(Duration::from_millis(5000)));
        lt.acquire(2, 2, key(0)).unwrap();
        let lt2 = Arc::clone(&lt);
        let waiter = std::thread::spawn(move || lt2.acquire(1, 1, key(0)));
        while !lt.is_wounded(2) {
            std::thread::yield_now();
        }
        let err = lt.acquire(2, 2, key(1)).unwrap_err();
        assert!(matches!(err, StorageError::TxnConflict(_)));
        lt.release_all(2);
        waiter.join().unwrap().unwrap();
    }

    #[test]
    fn horizon_gc_keeps_needed_versions() {
        let mut st = MvccState {
            commit_ts: 10,
            ..Default::default()
        };
        let k = key(0);
        st.versions.insert(
            k,
            vec![
                (0, vec![0u8; 4].into_boxed_slice()),
                (3, vec![3u8; 4].into_boxed_slice()),
                (7, vec![7u8; 4].into_boxed_slice()),
            ],
        );
        // A pinned snapshot at 5 needs the ts=3 image.
        st.pins.insert(5, 1);
        st.gc_page(k);
        let list = &st.versions[&k];
        assert_eq!(
            list.iter().map(|&(ts, _)| ts).collect::<Vec<_>>(),
            vec![3, 7]
        );
        // No pins, but a writer holds the page: its latest committed
        // image stays (abort restores it).
        st.pins.clear();
        let writer = TxnState {
            seq: 1,
            snapshot: 10,
            read_set: HashSet::new(),
            write_set: HashSet::from([k]),
            savepoint: None,
        };
        st.active.insert(1, writer);
        st.gc_page(k);
        assert_eq!(st.versions[&k].len(), 1);
        assert_eq!(st.versions[&k][0].0, 7);
        // No reader and no writer: the frame holds the newest image.
        st.active.clear();
        st.gc_page(k);
        assert!(!st.versions.contains_key(&k));
    }
}
