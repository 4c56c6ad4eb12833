//! Non-crash fault injection: fsync failures and I/O errors must surface
//! as clean `StorageError`s on the request path — a failed commit is an
//! observable abort, never a panic and never a corrupted log.

use coral_sim::SimVfs;
use coral_storage::{StorageServer, Vfs};
use std::path::Path;
use std::sync::Arc;

fn open(vfs: &SimVfs) -> coral_storage::StorageClient {
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    StorageServer::open_with_vfs(Path::new("/db"), 16, v).unwrap()
}

/// One fsync failure: the commit reports an error and rolls back, the
/// log self-heals (the half-written record is erased), and later commits
/// — and recovery — behave as if the failed one never happened.
#[test]
fn failed_commit_fsync_is_a_clean_abort() {
    let vfs = SimVfs::new(1);
    {
        let srv = open(&vfs);
        let heap = srv.heap("r.data").unwrap();

        let txn = srv.begin().unwrap();

        heap.set_txn(Some(txn));
        heap.insert(b"first").unwrap();
        srv.commit(txn).unwrap();

        let txn = srv.begin().unwrap();

        heap.set_txn(Some(txn));
        heap.insert(b"doomed").unwrap();
        vfs.fail_next_syncs(1);
        let err = srv.commit(txn).unwrap_err();
        assert!(err.to_string().contains("fsync"), "unexpected error: {err}");
        heap.set_txn(None);

        // The rollback restored the pool: the tuple is gone already.
        let live: Vec<Vec<u8>> = heap.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(live, vec![b"first".to_vec()]);

        // The log accepts new commits (it erased the torn record).
        let txn = srv.begin().unwrap();
        heap.set_txn(Some(txn));
        heap.insert(b"second").unwrap();
        srv.commit(txn).unwrap();
    }
    // Crash without checkpoint: recovery must replay exactly the two
    // successful commits.
    vfs.power_cycle();
    let srv = open(&vfs);
    let mut live: Vec<Vec<u8>> = srv
        .heap("r.data")
        .unwrap()
        .scan()
        .map(|r| r.unwrap().1)
        .collect();
    live.sort();
    assert_eq!(live, vec![b"first".to_vec(), b"second".to_vec()]);
    assert!(srv.check().unwrap().is_clean());
}

/// If even erasing a failed append fails (two fsync errors in a row
/// during a group commit), the log is poisoned: commits keep failing
/// loudly instead of silently layering records over a torn tail. Later
/// transactions' commits are refused with a clear error *and cleanly
/// aborted* (no transaction leaks, no partial state), a checkpoint heals
/// the log, and a post-heal crash recovers exactly the committed state.
#[test]
fn poisoned_log_aborts_group_commits_until_checkpoint_then_recovers() {
    let vfs = SimVfs::new(7);
    {
        let srv = open(&vfs);
        let heap = srv.heap("r.data").unwrap();

        let txn = srv.begin().unwrap();

        heap.set_txn(Some(txn));
        heap.insert(b"keep").unwrap();
        srv.commit(txn).unwrap();

        let txn = srv.begin().unwrap();

        heap.set_txn(Some(txn));
        heap.insert(b"doomed").unwrap();
        vfs.fail_next_syncs(2);
        assert!(srv.commit(txn).is_err());

        // Poisoned: the next transaction's commit is refused loudly and
        // the transaction is aborted, not leaked.
        let txn = srv.begin().unwrap();
        heap.set_txn(Some(txn));
        heap.insert(b"refused").unwrap();
        let err = srv.commit(txn).unwrap_err();
        assert!(
            err.to_string().contains("poisoned"),
            "unexpected error: {err}"
        );
        let tx = srv.tx_stats();
        assert_eq!(
            tx.begun,
            tx.committed + tx.aborted,
            "transaction leaked through the poisoned log: {tx:?}"
        );

        // A checkpoint rebuilds the log and clears the poison.
        srv.checkpoint().unwrap();
        let txn = srv.begin().unwrap();
        heap.set_txn(Some(txn));
        heap.insert(b"after-heal").unwrap();
        srv.commit(txn).unwrap();
    }
    // Crash after the heal: recovery must replay exactly the two
    // successful commits — nothing from the poisoned window.
    vfs.power_cycle();
    let srv = open(&vfs);
    let mut live: Vec<Vec<u8>> = srv
        .heap("r.data")
        .unwrap()
        .scan()
        .map(|r| r.unwrap().1)
        .collect();
    live.sort();
    assert_eq!(live, vec![b"after-heal".to_vec(), b"keep".to_vec()]);
    assert!(srv.check().unwrap().is_clean());
}

/// An injected write error (disk full, EIO) on the request path comes
/// back as an error from the operation that hit it; the server object
/// stays usable.
#[test]
fn io_error_surfaces_without_killing_the_server() {
    let vfs = SimVfs::new(3);
    let srv = open(&vfs);
    let heap = srv.heap("r.data").unwrap();
    let txn = srv.begin().unwrap();
    heap.set_txn(Some(txn));
    heap.insert(b"x").unwrap();
    vfs.inject_error_at(vfs.ops());
    assert!(srv.commit(txn).is_err());
    // Not crashed — the next transaction goes through.
    let txn = srv.begin().unwrap();
    heap.set_txn(Some(txn));
    heap.insert(b"y").unwrap();
    srv.commit(txn).unwrap();
    heap.set_txn(None);
    assert_eq!(heap.scan().count(), 1);
}

/// Read errors during recovery surface as `Err` from open, not a panic.
#[test]
fn read_error_during_recovery_fails_open_cleanly() {
    let vfs = SimVfs::new(4);
    {
        let srv = open(&vfs);
        let heap = srv.heap("r.data").unwrap();
        let txn = srv.begin().unwrap();
        heap.set_txn(Some(txn));
        heap.insert(b"z").unwrap();
        srv.commit(txn).unwrap();
    }
    vfs.power_cycle();
    vfs.set_fail_reads(true);
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    assert!(StorageServer::open_with_vfs(Path::new("/db"), 16, v).is_err());
    vfs.set_fail_reads(false);
    let srv = open(&vfs);
    assert_eq!(srv.heap("r.data").unwrap().scan().count(), 1);
}
