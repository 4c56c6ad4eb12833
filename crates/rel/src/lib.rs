//! # coral-rel — CORAL relations and indices
//!
//! Implements §3.2–§3.3 of the paper plus the relation-level half of
//! §5.5.2 (aggregate selections) and §7.2 (extensible access structures):
//!
//! * The generic [`Relation`] interface — the paper's `class Relation`
//!   with virtual `insert`, `delete` and an iterator, here a trait whose
//!   scan objects are the "TupleIterator … used to store the state or
//!   position of a scan" (§3);
//! * [`ListRelation`] — relations organized as linked lists (§7.2);
//! * [`HashRelation`] — the workhorse in-memory hash relation with
//!   **marks** and subsidiary relations (§3.2), argument-form and
//!   pattern-form hash indices (§3.3), set/multiset duplicate semantics
//!   with subsumption checks (§4.2), and insert-time aggregate
//!   selections (§5.5.2);
//! * [`PersistentRelation`] — relations stored through the
//!   `coral-storage` server (the EXODUS substitute), restricted to
//!   primitive-typed fields exactly as §3.1 requires, with B+-tree
//!   indices and an order-preserving field encoding ([`encoding`]);
//! * [`Database`] — the catalog mapping predicate names to relations.

// `Tuple` contains `Arc<App>` whose hash-consing slot is atomically
// mutable; mutation never changes `Eq`/`Hash` (structurally-equal terms
// always receive equal identifiers), so tuples are sound map keys.
#![allow(clippy::mutable_key_type)]

pub mod columnar;
pub mod counts;
pub mod database;
pub mod encoding;
pub mod error;
pub mod hash_rel;
pub mod joinhash;
pub mod list_rel;
pub mod meter;
pub mod persistent;
pub mod relation;

pub use columnar::{ColVal, ColumnarBatch};
pub use counts::{CountChange, CountStore};
pub use database::Database;
pub use error::{RelError, RelResult};
pub use hash_rel::{AggSelKind, AggregateSelection, HashRelation, Mark};
pub use joinhash::{JoinHashTable, Probe};
pub use list_rel::ListRelation;
pub use persistent::PersistentRelation;
pub use relation::{DupSemantics, IndexSpec, Relation, TupleIter};

pub use coral_stats::RelStats;
