//! # coral-core — the CORAL query optimizer and evaluation engine
//!
//! The centre of Figure 1: this crate takes parsed program modules and
//! queries, rewrites them for the query forms in use (§4.1), and
//! evaluates them with the paper's full menu of strategies (§5):
//!
//! * **Rewriting** ([`rewrite`]): adornment with left-to-right sideways
//!   information passing, Magic Templates, Supplementary Magic Templates
//!   (the default), Supplementary Magic with GoalId indexing, Context
//!   Factoring for left-/right-linear programs, and Existential Query
//!   Rewriting (projection pushing). Rewritten programs can be dumped as
//!   text, as the paper's optimizer does.
//! * **Materialized evaluation** ([`seminaive`]): Basic Semi-Naive and
//!   Predicate Semi-Naive fixpoints over the mark/subsidiary machinery of
//!   `coral-rel`, with nested-loops-with-indexing joins, a binding trail,
//!   and intelligent backtracking (§4.2, §5.3).
//! * **Pipelined evaluation** ([`pipeline`]): a suspend/resume top-down
//!   machine behind the same scan interface (§5.2).
//! * **Module-level controls** (§5.4): Ordered Search
//!   ([`ordered_search`]) for left-to-right modularly stratified negation
//!   and aggregation, the save-module facility ([`save_module`]), and
//!   lazy evaluation.
//! * **Predicate-level controls** (§5.5): index annotations and
//!   aggregate selections.
//! * **Inter-module calls** ([`engine`], [`scan`]): every relation —
//!   base, derived, or computed — is consumed through the uniform
//!   `get-next-tuple` scan interface of §5.6; modules with different
//!   evaluation modes mix freely.
//!
//! The user-facing entry point is [`session::Session`]: consult programs
//! and data (text files or the persistent store), pose queries, iterate
//! answers.

// `Tuple` contains `Arc<App>` whose hash-consing slot is atomically
// mutable; mutation never changes `Eq`/`Hash` (structurally-equal terms
// always receive equal identifiers), so tuples are sound map keys.
#![allow(clippy::mutable_key_type)]

pub mod adorn;
pub mod aggregate;
pub mod arith;
pub mod budget;
pub mod compile;
pub mod depgraph;
pub mod engine;
pub mod error;
pub mod explain;
pub mod join;
pub mod maintain;
pub mod ordered_search;
pub mod pipeline;
pub mod planner;
pub mod profile;
pub mod rewrite;
pub mod save_module;
pub mod scan;
pub mod seminaive;
pub mod session;

pub use budget::{Budget, BudgetResource, BudgetUsage};
pub use engine::{CancelToken, Engine};
pub use error::{EvalError, EvalResult};
pub use maintain::MaintainTotals;
pub use scan::AnswerScan;
pub use session::{Answer, Answers, Session};
