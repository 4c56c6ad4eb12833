//! Multi-session transaction soak: several loopback clients concurrently
//! consult mutating programs against one storage-backed server, so their
//! request transactions genuinely race on the same persistent relation.
//! Losers are answered with `Retry` and the client replays after backoff
//! — from the caller's point of view every consult succeeds. The
//! assertions are structural: zero panics or unexpected errors, zero
//! leaked connection slots, no inserted fact lost or duplicated, and the
//! conflict machinery demonstrably engaged (nonzero `txn_conflicts`).
//!
//! The per-client round count is small by default so the tier-1 suite
//! stays fast; CI sets `CORAL_SOAK_SECS` for a longer soak.

use coral_net::{Client, Server, ServerConfig};
use coral_rel::PersistentRelation;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

const CLIENTS: u64 = 6;

fn rounds() -> u64 {
    std::env::var("CORAL_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(|s| (s * 15).clamp(30, 600))
        .unwrap_or(30)
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("coral-txn-soak-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn concurrent_mutating_consults_conflict_retryably_and_lose_nothing() {
    let dir = fresh_dir("main");
    let storage = coral_storage::StorageServer::open(&dir, 128).unwrap();
    // Short lock waits make write-write races surface as conflicts
    // instead of quietly queueing behind the 200 ms default.
    storage.set_lock_timeout(Duration::from_millis(2));
    // Pre-create the shared relation so every session registers it.
    PersistentRelation::open(&storage, "pdata", 2).unwrap();

    let server = Server::start_with_storage(
        "127.0.0.1:0",
        ServerConfig {
            workers: CLIENTS as usize + 2,
            shed_backoff_ms: 5,
            ..ServerConfig::default()
        },
        storage.clone(),
    )
    .unwrap();
    let addr = server.addr();
    let rounds = rounds();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap_or_else(|e| {
                    panic!("client {i}: connect failed: {e}");
                });
                client.set_max_retries(16);
                for round in 0..rounds {
                    // A batch of distinct facts per consult keeps the
                    // transaction open across several page writes, so
                    // concurrent batches genuinely overlap.
                    let mut program = String::new();
                    for k in 0..8u64 {
                        let _ = writeln!(program, "pdata({}, {k}).", i * 100_000 + round * 10 + k);
                    }
                    client.consult_str(&program).unwrap_or_else(|e| {
                        panic!("client {i} round {round}: consult failed: {e}")
                    });
                }
                let _ = client.quit();
            })
        })
        .collect();
    for t in clients {
        t.join().expect("soak client panicked");
    }

    // Every committed batch is fully present, nothing lost to a rolled-
    // back loser or duplicated by a replay.
    let mut reader = Client::connect(addr).unwrap();
    let answers = reader.query_all("?- pdata(X, Y).").unwrap();
    assert_eq!(
        answers.len() as u64,
        CLIENTS * rounds * 8,
        "inserted facts lost or duplicated across retries"
    );
    let _ = reader.quit();

    let stats = server.shutdown();
    assert_eq!(
        stats.connections_active, 0,
        "leaked connection slots: {stats}"
    );
    assert!(
        stats.txn_conflicts > 0,
        "no transaction ever conflicted — the soak never actually raced: {stats}"
    );
    // The storage layer agrees: conflicts were raised and every begun
    // transaction was resolved.
    let tx = storage.tx_stats();
    assert!(tx.conflicts > 0, "storage saw no conflicts: {tx:?}");
    assert_eq!(
        tx.begun,
        tx.committed + tx.aborted,
        "transaction leaked (begun != committed + aborted): {tx:?}"
    );

    // The relation survives a structural + cross-structure check.
    let rel = PersistentRelation::open(&storage, "pdata", 2).unwrap();
    assert!(rel.check().unwrap().is_empty(), "relation check failed");
}
