//! # coral — the CORAL deductive database system, in Rust
//!
//! A from-scratch reproduction of *"Implementation of the CORAL Deductive
//! Database System"* (Ramakrishnan, Srivastava, Sudarshan, Seshadri —
//! SIGMOD 1993): a deductive database combining declarative Datalog-with-
//! extensions programs (complex terms, non-ground facts, negation,
//! aggregation), a module system mixing bottom-up *materialized* and
//! top-down *pipelined* evaluation, the full menu of magic rewritings,
//! in-memory and persistent relations, and an embedding API.
//!
//! ## Quick start
//!
//! ```
//! use coral::Session;
//!
//! let session = Session::new();
//! session
//!     .consult_str(
//!         "edge(1, 2). edge(2, 3). edge(2, 4).\n\
//!          module tc.\n\
//!          export path(bf).\n\
//!          path(X, Y) :- edge(X, Y).\n\
//!          path(X, Y) :- edge(X, Z), path(Z, Y).\n\
//!          end_module.\n",
//!     )
//!     .unwrap();
//! let answers = session.query_all("path(1, X)").unwrap();
//! assert_eq!(answers.len(), 3);
//! assert_eq!(answers[0].to_string(), "X = 2");
//! let (name, value) = answers[0].bindings().next().unwrap();
//! assert_eq!((name, value), ("X", &coral::Term::int(2)));
//! ```
//!
//! ## Crate map (Figure 1 of the paper)
//!
//! | Crate | Subsystem |
//! |---|---|
//! | [`term`] | Data manager: terms, unification, bindenvs, hash-consing |
//! | [`rel`] | Relations: hash/list/persistent, marks, indices |
//! | [`storage`] | The EXODUS-substitute storage server |
//! | [`lang`] | The declarative language front end |
//! | [`core`] | Optimizer (rewritings) + evaluator (semi-naive, pipelining, ordered search) |
//! | [`embed`] | The C++-interface analog: embedding + extensibility |
//! | [`net`] | Client-server network layer: `coral serve` / `coral connect` |

pub use coral_core as core;
pub use coral_embed as embed;
pub use coral_lang as lang;
pub use coral_net as net;
pub use coral_rel as rel;
pub use coral_storage as storage;
pub use coral_term as term;

pub use coral_core::session::{Answer, Answers, Session};
pub use coral_core::{Engine, EvalError, EvalResult};
pub use coral_embed::{args, CoralDb};
pub use coral_term::{Term, Tuple};
