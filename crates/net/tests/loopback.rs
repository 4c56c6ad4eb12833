//! Loopback integration tests: a real server on 127.0.0.1 with real
//! client connections, covering the acceptance criteria of the
//! network layer — concurrent clients over shared persistent storage,
//! streamed answer batches identical to in-process evaluation,
//! oversized-frame rejection, request timeouts, and clean shutdown.

use coral_core::Session;
use coral_net::{Client, ErrorCode, NetError, Server, ServerConfig};
use coral_storage::StorageServer;
use std::path::PathBuf;
use std::time::Duration;

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("coral-net-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

const TC_PROGRAM: &str = "edge(1, 2). edge(2, 3). edge(2, 4). edge(4, 5).\n\
     module tc.\n\
     export path(bf).\n\
     path(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\n\
     end_module.\n";

/// The acceptance test: one serve instance over a persistent store,
/// four concurrent clients each consulting a program and streaming
/// pipelined queries; every stream must match the in-process
/// `Session::query_all` answers exactly, all sessions must see the
/// same persistent relation, and after graceful shutdown the storage
/// directory must be reopenable (WAL recovery included).
#[test]
fn concurrent_clients_match_in_process_sessions() {
    let dir = test_dir("concurrent");

    // Seed a persistent relation through a plain local session.
    {
        let local = Session::new();
        local.attach_storage(&dir, 64).unwrap();
        local.create_persistent("pedge", 2).unwrap();
        local
            .consult_str("pedge(10, 20). pedge(20, 30). pedge(30, 40).")
            .unwrap();
        local.checkpoint().unwrap();
    }

    // The expected answers, computed entirely in-process.
    let reference = Session::new();
    reference.consult_str(TC_PROGRAM).unwrap();
    let expected_path = reference.query_all("path(1, X)").unwrap();
    let expected_from2 = reference.query_all("path(2, Y)").unwrap();
    assert!(!expected_path.is_empty() && !expected_from2.is_empty());

    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            data_dir: Some(dir.clone()),
            frames: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let expected_path = expected_path.clone();
            let expected_from2 = expected_from2.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                client.consult_str(TC_PROGRAM).unwrap();

                // Stream with a tiny batch size so the query is pulled
                // across several NextAnswer round trips.
                let mut streamed = Vec::new();
                for a in client.query_batched("?- path(1, X).", 2).unwrap() {
                    streamed.push(a.unwrap());
                }
                assert_eq!(
                    streamed, expected_path,
                    "client {i}: streamed batches differ"
                );
                assert_eq!(
                    client.query_all("?- path(2, Y).").unwrap(),
                    expected_from2,
                    "client {i}: second query form differs"
                );

                // Every session sees the same shared persistent data.
                let pedge = client.query_all("?- pedge(X, Y).").unwrap();
                assert_eq!(pedge.len(), 3, "client {i}: persistent relation");

                // Abandoning a stream mid-way must leave the
                // connection reusable (Drop cancels the open query).
                {
                    let mut partial = client.query_batched("?- path(1, X).", 1).unwrap();
                    assert!(partial.next().unwrap().is_ok());
                }
                client.ping().unwrap();
                client.quit().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections_active, 0);
    assert!(stats.connections_accepted >= 4, "{stats}");
    assert!(stats.requests >= 4 * 6, "{stats}");

    // The storage directory is reopenable after shutdown.
    {
        let reopened = Session::new();
        reopened.attach_storage(&dir, 16).unwrap();
        reopened.create_persistent("pedge", 2).unwrap();
        assert_eq!(reopened.query_all("pedge(X, Y)").unwrap().len(), 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Answers are a snapshot taken at open, through the wire too: a stream
/// that has delivered its first batch delivers the rest of the closure
/// as it stood, although another connection writes the shared base
/// relation between the batches; the next query sees the write.
#[test]
fn streamed_answers_are_a_snapshot_across_batches() {
    let dir = test_dir("snapshot");
    {
        let local = Session::new();
        local.attach_storage(&dir, 64).unwrap();
        local.create_persistent("pedge", 2).unwrap();
        local
            .consult_str("pedge(10, 20). pedge(20, 30). pedge(30, 40).")
            .unwrap();
        local.checkpoint().unwrap();
    }
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            data_dir: Some(dir.clone()),
            frames: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut reader = Client::connect(server.addr()).unwrap();
    let mut writer = Client::connect(server.addr()).unwrap();
    reader
        .consult_str(
            "module ptc.\nexport ppath(ff).\n@maintain dred.\n\
             ppath(X, Y) :- pedge(X, Y).\n\
             ppath(X, Y) :- pedge(X, Z), ppath(Z, Y).\nend_module.\n",
        )
        .unwrap();

    let mut stream = reader.query_batched("?- ppath(X, Y).", 2).unwrap();
    let mut streamed = vec![stream.next().unwrap().unwrap()];
    writer.consult_str("pedge(40, 50).").unwrap();
    for a in stream {
        streamed.push(a.unwrap());
    }
    assert_eq!(
        streamed.len(),
        6,
        "the closure of the 3-edge chain: {streamed:?}"
    );
    assert_eq!(reader.query_all("?- ppath(X, Y).").unwrap().len(), 10);

    reader.quit().unwrap();
    writer.quit().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_frame_is_rejected_and_connection_closed() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_frame: 1024,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let huge = format!("p({}).", "a".repeat(2000));
    match client.consult_str(&huge) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge rejection, got {other:?}"),
    }
    // The stream cannot be resynchronised, so the server hangs up.
    assert!(client.ping().is_err());

    // A fresh connection works fine.
    let mut client2 = Client::connect(server.addr()).unwrap();
    client2.ping().unwrap();
    client2.quit().unwrap();
    server.shutdown();
}

#[test]
fn request_timeout_cancels_runaway_query_but_keeps_connection() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            request_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .consult_str(
            "zero(z).\n\
             module inf.\n\
             export nat(f).\n\
             nat(X) :- zero(X).\n\
             nat(s(X)) :- nat(X).\n\
             end_module.\n",
        )
        .unwrap();
    // The materialized fixpoint is infinite: only the watchdog's
    // cancellation makes this return.
    match client.query_all("?- nat(X).") {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Cancelled),
        other => panic!("expected remote Cancelled, got {other:?}"),
    }
    // The connection survives the timeout and serves fast queries.
    client.ping().unwrap();
    assert_eq!(client.query_all("?- zero(X).").unwrap().len(), 1);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn graceful_shutdown_with_active_connections() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Two live connections: one idle, one with an open (undrained)
    // query stream.
    let mut idle = Client::connect(addr).unwrap();
    idle.ping().unwrap();
    let mut draining = Client::connect(addr).unwrap();
    draining.consult_str(TC_PROGRAM).unwrap();
    {
        let mut stream = draining.query_batched("?- path(1, X).", 1).unwrap();
        assert!(stream.next().unwrap().is_ok());
        // Keep the query open server-side: forget the stream without
        // letting Drop cancel it, emulating a stalled client.
        std::mem::forget(stream);
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections_active, 0, "{stats}");

    // Both clients observe the close on their next request...
    assert!(idle.ping().is_err());
    assert!(draining.ping().is_err());
    // ...and the listener is gone.
    assert!(Client::connect(addr).is_err());
}

/// Remote answers are the embedded answers, bindings included: equal
/// under `==` and rendered alike, for patterns with a constant, a
/// repeated variable and `_` over a program whose answers include
/// non-ground ones.
#[test]
fn remote_answers_equal_embedded_answers_with_bindings() {
    const PROGRAM: &str = "t(1, 2, 2, a). t(1, 3, 4, b). t(2, 5, 5, c).\n\
         t(1, W, W, d). t(1, f(V), f(V), V).\n\
         module m.\n\
         export q(ffff).\n\
         q(K, X, Y, L) :- t(K, X, Y, L).\n\
         end_module.\n";
    let local = Session::new();
    local.consult_str(PROGRAM).unwrap();
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.consult_str(PROGRAM).unwrap();
    for text in ["q(1, X, X, _)", "q(K, X, Y, L)", "t(1, X, X, _)"] {
        let remote = client.query_all(text).unwrap();
        let embedded = local.query_all(text).unwrap();
        assert!(
            embedded.iter().any(|a| !a.tuple.is_ground()),
            "{text}: a non-ground answer"
        );
        assert_eq!(remote, embedded, "{text}");
        let shown = |answers: &[coral_core::Answer]| -> Vec<String> {
            answers.iter().map(|a| a.to_string()).collect()
        };
        assert_eq!(shown(&remote), shown(&embedded), "{text}");
    }
    client.quit().unwrap();
    server.shutdown();
}

/// Profiling round trip: the remote flag reaches the engine and the
/// profile JSON comes back parseable. Runs in both feature configs —
/// with counters compiled out the server reports whatever the local
/// engine would, so remote and local sessions must agree.
#[test]
fn remote_profiling_matches_local_availability() {
    let local = Session::new();
    local.set_profiling(true);
    local.consult_str(TC_PROGRAM).unwrap();
    local.query_all("path(1, X)").unwrap();
    let local_has_profile = local.last_profile().is_some();

    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_profiling(true).unwrap();
    client.consult_str(TC_PROGRAM).unwrap();
    client.query_all("?- path(1, X).").unwrap();
    let json = client.profile_json().unwrap();
    assert_eq!(json.is_some(), local_has_profile);
    if let Some(j) = json {
        let p = coral_core::profile::EngineProfile::from_json(&j).unwrap();
        assert_eq!(p.answers, 4);
    }
    client.quit().unwrap();
    server.shutdown();
}

/// A second storage-sharing scenario: two clients connected at the
/// same time both insert into the same persistent relation; a third
/// session (after a checkpoint) sees the union. Exercises concurrent
/// writes through the shared buffer pool and WAL.
#[test]
fn concurrent_writers_share_persistent_state() {
    let dir = test_dir("writers");
    {
        let local = Session::new();
        local.attach_storage(&dir, 64).unwrap();
        local.create_persistent("pfact", 1).unwrap();
        local.checkpoint().unwrap();
    }
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            data_dir: Some(dir.clone()),
            frames: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let writers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for j in 0..25 {
                    client
                        .consult_str(&format!("pfact({}).", i * 100 + j))
                        .unwrap();
                }
                client.quit().unwrap();
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let mut reader = Client::connect(addr).unwrap();
    assert_eq!(reader.query_all("?- pfact(X).").unwrap().len(), 100);
    reader.checkpoint().unwrap();
    reader.quit().unwrap();
    server.shutdown();

    // And the data survives a cold reopen.
    let reopened = StorageServer::open(&dir, 16).unwrap();
    drop(reopened);
    let check = Session::new();
    check.attach_storage(&dir, 16).unwrap();
    check.create_persistent("pfact", 1).unwrap();
    assert_eq!(check.query_all("pfact(X)").unwrap().len(), 100);
    let _ = std::fs::remove_dir_all(&dir);
}
