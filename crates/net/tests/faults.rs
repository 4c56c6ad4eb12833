//! Network-layer fault injection: I/O failures in the storage stack
//! underneath a live server, and client misbehaviour on the wire. In
//! every case the blast radius must be one request (or one connection),
//! never the server: the client sees a clean `Err`, the connection
//! bookkeeping frees the slot, and the next request succeeds.
//!
//! The storage faults come from `coral-sim`'s [`SimVfs`], threaded under
//! the server with [`Server::start_with_storage`].

use coral_net::{Client, ErrorCode, NetError, Server, ServerConfig};
use coral_rel::{PersistentRelation, Relation};
use coral_sim::SimVfs;
use coral_storage::{StorageClient, StorageServer, Vfs};
use coral_term::{Term, Tuple};
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn sim_storage(seed: u64, frames: usize) -> (SimVfs, StorageClient) {
    let vfs = SimVfs::new(seed);
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let srv = StorageServer::open_with_vfs(Path::new("/db"), frames, v).unwrap();
    (vfs, srv)
}

/// A client that dies mid-frame — length prefix sent, payload cut short
/// — must not wedge a worker or leak its connection slot.
#[test]
fn mid_frame_disconnect_frees_connection_slot() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    {
        // Announce a 64-byte frame, send 3 bytes, hang up.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&64u32.to_be_bytes()).unwrap();
        raw.write_all(&[0x01, 0x00, 0x00]).unwrap();
        raw.flush().unwrap();
    }
    // Give the worker a moment to observe the EOF mid-frame.
    std::thread::sleep(Duration::from_millis(250));

    // The slot is free: a real client is served normally.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    client.quit().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.connections_active, 0, "leaked slot: {stats}");
    assert!(stats.connections_accepted >= 2, "{stats}");
}

/// An injected storage read error while a client is streaming answers
/// from a persistent relation: the stream ends in a clean remote `Err`,
/// the connection stays usable once the fault clears, and no slot leaks.
#[test]
fn storage_read_error_mid_answer_stream_is_a_clean_error() {
    // Tiny pool (4 frames) + ~30 KiB of tuples: a scan must keep going
    // back to the (simulated) disk, so a read fault mid-stream hits it.
    // The load runs on a larger pool: a write pins its pages until it
    // commits, and one insert of these wide rows can touch more than 4.
    let (vfs, storage) = sim_storage(0xFA_17, 16);
    {
        let rel = PersistentRelation::open(&storage, "pdata", 2).unwrap();
        let filler = "x".repeat(400);
        for k in 0..64i64 {
            rel.insert(Tuple::ground(vec![
                Term::int(k),
                Term::str(&format!("{filler}{k}")),
            ]))
            .unwrap();
        }
        storage.checkpoint().unwrap();
    }
    drop(storage);
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let storage = StorageServer::open_with_vfs(Path::new("/db"), 4, v).unwrap();

    let server = Server::start_with_storage(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::clone(&storage),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Sanity: the relation is served in full while the disk is healthy.
    assert_eq!(client.query_all("?- pdata(X, Y).").unwrap().len(), 64);

    // Pull one answer, then fail every subsequent disk read.
    let mut stream = client.query_batched("?- pdata(X, Y).", 1).unwrap();
    assert!(stream.next().unwrap().is_ok());
    vfs.set_fail_reads(true);
    let outcome = stream.find(|a| a.is_err());
    match outcome {
        Some(Err(NetError::Remote { msg, .. })) => {
            assert!(msg.contains("read"), "unexpected remote error: {msg}")
        }
        other => panic!("expected a remote read error mid-stream, got {other:?}"),
    }
    drop(stream);

    // Fault cleared: the same connection serves the query again.
    vfs.set_fail_reads(false);
    client.ping().unwrap();
    assert_eq!(client.query_all("?- pdata(X, Y).").unwrap().len(), 64);
    client.quit().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.connections_active, 0, "leaked slot: {stats}");
}

/// An fsync failure during a remote checkpoint costs that one request —
/// a remote `Err` — not the connection, and certainly not the server.
#[test]
fn checkpoint_fsync_failure_costs_one_request() {
    let (vfs, storage) = sim_storage(0xFA_18, 16);
    {
        let rel = PersistentRelation::open(&storage, "pfact", 1).unwrap();
        rel.insert(Tuple::ground(vec![Term::int(1)])).unwrap();
        storage.checkpoint().unwrap();
    }
    let server = Server::start_with_storage(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&storage),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Make the pool dirty so the checkpoint has something to flush.
    client.consult_str("pfact(2).").unwrap();
    vfs.fail_next_syncs(1);
    match client.checkpoint() {
        Err(NetError::Remote { msg, .. }) => {
            assert!(msg.contains("fsync"), "unexpected remote error: {msg}")
        }
        other => panic!("expected a remote fsync error, got {other:?}"),
    }

    // Same connection, next request: fine.
    client.ping().unwrap();
    client.checkpoint().unwrap();
    assert_eq!(client.query_all("?- pfact(X).").unwrap().len(), 2);

    // The remote `:check` sees a healthy store.
    let report = client.check().unwrap();
    assert!(report.contains("no problems"), "{report}");
    client.quit().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.connections_active, 0, "leaked slot: {stats}");
}

/// A stored relation whose schema record is unreadable must not be
/// replaced by an in-memory stand-in: a fact written to it over the
/// wire gets a `Rel` error that names it, never an acknowledgement.
#[test]
fn unopenable_relation_refuses_writes() {
    let (_vfs, storage) = sim_storage(0xFA_19, 16);
    {
        let rel = PersistentRelation::open(&storage, "pbad", 2).unwrap();
        rel.insert(Tuple::ground(vec![Term::int(1), Term::int(2)]))
            .unwrap();
        let schema = storage.heap("pbad.schema").unwrap();
        let txn = storage.begin().unwrap();
        schema.set_txn(Some(txn));
        let (rid, _) = schema.scan().next().unwrap().unwrap();
        schema.update(rid, b"garbage").unwrap();
        storage.commit(txn).unwrap();
        storage.checkpoint().unwrap();
    }
    assert!(PersistentRelation::stored_arity(&storage, "pbad").is_err());
    let server = Server::start_with_storage(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&storage),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    match client.consult_str("pbad(3, 4).") {
        Err(NetError::Remote { code, msg }) => {
            assert_eq!(code, ErrorCode::Rel, "{msg}");
            assert!(
                msg.contains("pbad"),
                "error does not name the relation: {msg}"
            );
        }
        other => panic!("expected a remote error for pbad, got {other:?}"),
    }
    assert!(client.query_all("?- pbad(X, Y).").is_err(), "no stand-in");

    // The connection keeps serving writes to other relations.
    client.consult_str("pgood(1).").unwrap();
    assert_eq!(client.query_all("?- pgood(X).").unwrap().len(), 1);
    client.quit().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.connections_active, 0, "leaked slot: {stats}");
}
