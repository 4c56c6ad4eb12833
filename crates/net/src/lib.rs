//! # coral-net — the CORAL client-server network layer
//!
//! §3.2 of the paper describes CORAL processes sharing persistent data
//! through the EXODUS storage manager, with EXODUS running as "a
//! separate server process" that CORAL talks to. This crate provides
//! the equivalent boundary for this implementation: a [`Server`] that
//! listens on a TCP socket and serves each connection with its own
//! CORAL [`Session`](coral_core::Session), all sessions sharing one
//! [`StorageServer`](coral_storage::StorageServer) (buffer pool + WAL)
//! — so many interactive users or programs can consult modules and
//! run queries concurrently against the same persistent database.
//!
//! The pieces:
//!
//! * [`proto`] — the length-prefixed binary wire protocol. Terms ride
//!   on the transport extension of `coral-rel`'s storage encoding, so
//!   bignums, variables and nested functor terms all cross the wire.
//! * [`Server`] — bounded worker pool, per-request timeouts, frame
//!   size limits, graceful shutdown, and per-server [`NetStats`]
//!   counters (process-wide atomics, outside the thread-local
//!   `coral-profile` registry).
//! * [`Client`] — a blocking client whose typed methods mirror the
//!   `Session` API; [`RemoteAnswers`] streams answers in batches, so
//!   the §5.6 get-next-tuple laziness of pipelined evaluation is
//!   preserved end to end across the connection.
//!
//! The `coral` binary exposes both ends as `coral serve` and
//! `coral connect`.

#![allow(clippy::mutable_key_type)]

pub mod client;
pub mod error;
pub mod proto;
pub mod server;
pub mod stats;

pub use client::{Client, RemoteAnswers, DEFAULT_BATCH, DEFAULT_MAX_RETRIES};
pub use error::{ErrorCode, NetError, NetResult};
pub use proto::{Request, Response, DEFAULT_MAX_FRAME};
pub use server::{Server, ServerConfig};
pub use stats::{NetStats, NetStatsSnapshot};
