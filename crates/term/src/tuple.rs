//! Tuples — self-contained facts (§3).
//!
//! "The class `Tuple` defines tuples of `Arg`s." A CORAL fact may contain
//! universally quantified variables (§3.1); a stored [`Tuple`] is
//! therefore *self-contained*: its variables are numbered compactly
//! `0..nvars` in first-occurrence order. That normalization makes
//! structural equality coincide with the variant (alpha-equivalence)
//! check, so hash-based duplicate elimination works uniformly for ground
//! and non-ground facts.

use crate::fasthash::FastHasher;
use crate::term::{Term, VarId};
use crate::unify;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A stored fact: an argument list with compactly numbered variables.
///
/// The hash of the arguments is computed once, at construction, and
/// kept in the four bytes after `nvars` that would otherwise be padding:
/// every map a tuple is later a key of — duplicate checks, aggregate
/// groups, maintenance sets — hashes those four bytes instead of walking
/// the terms again, and equality rejects most unequal tuples on them.
#[derive(Clone)]
pub struct Tuple {
    args: Arc<[Term]>,
    nvars: u32,
    hash: u32,
}

impl Tuple {
    /// Build a tuple, renumbering variables to first-occurrence order.
    pub fn new(args: Vec<Term>) -> Tuple {
        let mut order: Vec<VarId> = Vec::new();
        for a in &args {
            a.collect_vars(&mut order);
        }
        let canonical = order.iter().enumerate().all(|(i, v)| v.0 == i as u32);
        let nvars = order.len() as u32;
        if canonical {
            return Tuple::from_parts(args.into(), nvars);
        }
        let remap = |v: VarId| VarId(order.iter().position(|x| *x == v).unwrap() as u32);
        let args: Vec<Term> = args.iter().map(|t| t.map_vars(&remap)).collect();
        Tuple::from_parts(args.into(), nvars)
    }

    /// Build a ground tuple without the renumbering scan.
    pub fn ground(args: Vec<Term>) -> Tuple {
        debug_assert!(args.iter().all(|t| t.is_ground()));
        Tuple::from_parts(args.into(), 0)
    }

    fn from_parts(args: Arc<[Term]>, nvars: u32) -> Tuple {
        let mut h = FastHasher::default();
        args.hash(&mut h);
        Tuple {
            args,
            nvars,
            hash: h.finish() as u32,
        }
    }

    /// The argument terms.
    pub fn args(&self) -> &[Term] {
        &self.args
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// Number of distinct variables in the tuple.
    pub fn nvars(&self) -> u32 {
        self.nvars
    }

    /// True iff the tuple contains no variables.
    pub fn is_ground(&self) -> bool {
        self.nvars == 0
    }

    /// Intern the ground functor-term arguments (lazy hash-consing
    /// trigger; called by relations on insert so later unifications take
    /// the id path). Atoms — integers, doubles, strings, bignums — are
    /// skipped: their equality is already O(1) or a value comparison, and
    /// nothing would ever read an id assigned to them.
    pub fn intern_ground(&self) {
        for t in self.args.iter() {
            if matches!(t, Term::App(_)) {
                crate::hashcons::intern(t);
            }
        }
    }

    /// This tuple subsumes `other`: some substitution of this tuple's
    /// variables yields `other` exactly.
    pub fn subsumes(&self, other: &Tuple) -> bool {
        unify::subsumes(&self.args, &other.args)
    }

    /// Project to the argument positions in `cols`.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(cols.iter().map(|&c| self.args[c].clone()).collect())
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.args, &other.args) || self.args == other.args)
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.hash);
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_tuples_compare() {
        let a = Tuple::new(vec![Term::int(1), Term::str("x")]);
        let b = Tuple::new(vec![Term::int(1), Term::str("x")]);
        let c = Tuple::new(vec![Term::int(2), Term::str("x")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_ground());
    }

    #[test]
    fn variant_tuples_are_equal_after_normalization() {
        // p(X, Y, X) with any var numbering normalizes to the same tuple.
        let a = Tuple::new(vec![Term::var(7), Term::var(2), Term::var(7)]);
        let b = Tuple::new(vec![Term::var(0), Term::var(5), Term::var(0)]);
        assert_eq!(a, b);
        assert_eq!(a.nvars(), 2);
        // But a different sharing pattern differs.
        let c = Tuple::new(vec![Term::var(0), Term::var(0), Term::var(1)]);
        assert_ne!(a, c);
    }

    #[test]
    fn canonical_tuples_skip_renumbering() {
        let t = Tuple::new(vec![Term::var(0), Term::var(1)]);
        assert_eq!(t.args()[0], Term::var(0));
        assert_eq!(t.nvars(), 2);
    }

    #[test]
    fn subsumption_between_tuples() {
        let gen = Tuple::new(vec![Term::var(0), Term::var(1)]);
        let mid = Tuple::new(vec![Term::var(0), Term::var(0)]);
        let spec = Tuple::new(vec![Term::int(1), Term::int(1)]);
        assert!(gen.subsumes(&mid));
        assert!(gen.subsumes(&spec));
        assert!(mid.subsumes(&spec));
        assert!(!mid.subsumes(&gen));
        assert!(!spec.subsumes(&mid));
        assert!(gen.subsumes(&gen));
    }

    #[test]
    fn projection() {
        let t = Tuple::new(vec![Term::int(1), Term::int(2), Term::int(3)]);
        assert_eq!(
            t.project(&[2, 0]),
            Tuple::new(vec![Term::int(3), Term::int(1)])
        );
        let nv = Tuple::new(vec![Term::var(3), Term::int(2), Term::var(3)]);
        assert_eq!(nv.project(&[0, 2]).nvars(), 1);
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Term::str("a"), Term::var(9), Term::int(3)]);
        assert_eq!(t.to_string(), "(a, V0, 3)");
    }

    #[test]
    fn nonground_with_nested_vars() {
        let t = Tuple::new(vec![Term::apps("f", vec![Term::var(4), Term::var(1)])]);
        assert_eq!(t.nvars(), 2);
        assert_eq!(t.args()[0].to_string(), "f(V0, V1)");
    }
}
