//! # coral-sim — deterministic fault injection and crash-matrix testing
//!
//! The storage engine promises that committed transactions survive power
//! loss and uncommitted ones vanish (DESIGN.md "Fault model & recovery
//! contract"). This crate tests that promise the only way it can be
//! tested: by crashing, at *every* I/O operation, a workload running on
//! a simulated disk, then recovering and checking the oracle.
//!
//! * [`simfs`] — [`SimVfs`], an in-memory implementation of the storage
//!   layer's [`Vfs`](coral_storage::Vfs)/[`StorageFile`](coral_storage::StorageFile)
//!   seam with seeded fault injection: hard crash points (the "process"
//!   dies at mutating operation N and the disk keeps only what was
//!   synced, plus a possibly-torn prefix of what was not), one-shot I/O
//!   errors, fsync failures, and read failures.
//! * [`harness`] — recorded workloads over a persistent relation and the
//!   crash matrix: run the workload, crash at operation N, power-cycle,
//!   reopen (replaying the WAL), and assert that no committed tuple was
//!   lost, no uncommitted tuple is visible, and every on-disk structure
//!   passes its integrity check.
//! * [`mtx`] — multi-session workloads: seeded interleavings of
//!   concurrent transactions (insert/delete/index-build/checkpoint) over
//!   shared relations, the crash matrix applied per committed
//!   transaction, and a serialisability oracle that replays the
//!   committed history serially in commit order and demands identical
//!   final contents and statistics.
//!
//! Everything is seed-reproducible and runs offline with no real disk
//! I/O. A failure report always includes the seed and the crash-point
//! index so the exact run can be replayed with
//! [`harness::run_crash_point`].

pub mod harness;
pub mod mtx;
pub mod simfs;

pub use harness::{count_ops, gen_workload, run_crash_matrix, run_crash_point, Shape};
pub use mtx::{mtx_count_ops, run_mtx_crash_matrix, run_mtx_crash_point, run_mtx_oracle};
pub use simfs::SimVfs;
