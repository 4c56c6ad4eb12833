//! Per-server counters: cheap, always on, read through an explicit
//! snapshot type. They sit outside the engine's counter registry
//! (`coral-profile`), whose counters are thread-local cells, because
//! connections are served from many worker threads: these are
//! process-wide atomics.

use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters shared by all workers of one [`crate::Server`].
#[derive(Default)]
pub struct NetStats {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) connections_active: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) budget_killed: AtomicU64,
    pub(crate) txn_conflicts: AtomicU64,
}

/// A point-in-time copy of a server's [`NetStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Request frames handled (including ones answered with an error).
    pub requests: u64,
    /// Requests answered with an `Error` frame.
    pub errors: u64,
    /// Payload bytes received.
    pub bytes_in: u64,
    /// Payload bytes sent.
    pub bytes_out: u64,
    /// Requests shed under overload (answered with `Retry`).
    pub shed: u64,
    /// Requests killed by the resource governor (`BudgetExceeded`
    /// errors and truncated answer streams).
    pub budget_killed: u64,
    /// Mutating requests that lost a storage transaction conflict and
    /// were answered with `Retry` (the client backs off and replays).
    pub txn_conflicts: u64,
}

impl NetStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            budget_killed: self.budget_killed.load(Ordering::Relaxed),
            txn_conflicts: self.txn_conflicts.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Display for NetStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "connections: {} accepted, {} active; requests: {} ({} errors, {} shed, \
             {} budget-killed, {} txn-conflicts); bytes: {} in, {} out",
            self.connections_accepted,
            self.connections_active,
            self.requests,
            self.errors,
            self.shed,
            self.budget_killed,
            self.txn_conflicts,
            self.bytes_in,
            self.bytes_out
        )
    }
}
