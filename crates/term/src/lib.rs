//! # coral-term — the CORAL data manager's term layer
//!
//! This crate implements Section 3 of the CORAL paper ("The Data Manager"):
//!
//! * **Primitive types** (§3.1): integers, doubles, strings and arbitrary
//!   precision integers ([`Term`], [`bignum::BigInt`]). The paper's BigNum
//!   package is replaced by a from-scratch implementation.
//! * **Symbols**: a global interner for strings, functor and predicate
//!   names ([`Symbol`]), mirroring CORAL's shared-constant design.
//! * **Terms** (§3.1, Fig. 2): constants, variables and functor
//!   applications ([`Term`]). Lists are functor terms over `'.'/2` and
//!   `'[]'/0` with helpers for construction and iteration.
//! * **Hash-consing** (§3.1): lazy assignment of unique identifiers to
//!   ground functor terms so that two ground terms unify iff their
//!   identifiers are equal ([`hashcons`]).
//! * **Binding environments** (§3.1, §5.3): structure-shared variable
//!   bindings with a trail for backtracking ([`bindenv::EnvSet`]).
//! * **Unification** (§3.1): full structural unification over
//!   (term, environment) pairs with a hash-consing fast path, one-way
//!   matching, subsumption and variant checks ([`mod@unify`]).
//! * **Tuples** (§3): self-contained facts, possibly non-ground — CORAL
//!   allows facts with universally quantified variables ([`tuple::Tuple`]).
//! * **Extensibility** (§7.1): user-defined abstract data types as trait
//!   objects standing in for the paper's C++ virtual-method interface
//!   ([`adt::AdtValue`]).

pub mod adt;
pub mod bignum;
pub mod bindenv;
pub mod hashcons;
pub mod meter;
pub mod symbol;
pub mod term;
pub mod testutil;
pub mod tuple;
pub mod unify;

pub use adt::AdtValue;
pub use bignum::BigInt;
pub use bindenv::{EnvId, EnvSet, TrailMark};
pub use hashcons::HcId;
pub use symbol::Symbol;
pub use term::{OrderedF64, Term, VarId};
pub use tuple::Tuple;
pub use unify::{match_args, subsumes, unifies_with, unify, unify_all, variant};
