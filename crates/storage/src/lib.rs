//! # coral-storage — the persistent-storage substrate
//!
//! CORAL stores persistent data "using the EXODUS storage manager, which
//! has a client-server architecture" (§2): each CORAL process is a client
//! whose buffer pool pages data in from the server on demand, with
//! indexing and scan facilities, and transactions/concurrency handled by
//! the EXODUS toolkit. EXODUS is a closed-source 1990s C toolkit, so this
//! crate is a from-scratch substitute that preserves the behaviour the
//! CORAL engine depends on:
//!
//! * fixed-size **slotted pages** ([`page`]) holding variable-length
//!   records;
//! * a **buffer pool** with clock eviction, pin counts and hit/miss
//!   statistics ([`buffer`]) — a `get-next-tuple` request on a persistent
//!   relation becomes a page-level request here, exactly as §2 describes;
//! * **heap files** of records addressed by `(page, slot)` record ids
//!   ([`heap`]);
//! * a **B+-tree** over byte-string keys for the persistent indices of
//!   §3.3 ([`btree`]);
//! * a minimal **write-ahead log** giving atomic multi-page commit and
//!   crash recovery ([`wal`]) — standing in for the EXODUS transaction
//!   toolkit;
//! * a **storage server** fronted by a cloneable client handle
//!   ([`server`]), preserving Figure 1's client/server boundary as an API
//!   boundary in a single process.
//!
//! The crate is deliberately byte-oriented: term encoding lives in
//! `coral-rel`, keeping this layer reusable and the paper's layering
//! intact.

pub mod btree;
pub mod buffer;
pub mod check;
pub mod error;
pub mod file;
pub mod heap;
pub mod page;
pub mod server;
pub mod tx;
pub mod vfs;
pub mod wal;

pub use btree::BTree;
pub use buffer::{BufferPool, BufferStats, SnapshotGuard};
pub use check::CheckReport;
pub use error::{StorageError, StorageResult};
pub use file::{FileId, PageId};
pub use heap::{HeapFile, RecordId};
pub use page::{SlotId, PAGE_SIZE};
pub use server::{StorageClient, StorageServer};
pub use tx::{TxStats, View};
pub use vfs::{StdVfs, StorageFile, Vfs};
