//! List relations (§7.2: "relations organized as linked lists").
//!
//! The simplest relation implementation: an insertion-ordered sequence
//! with linear duplicate checks and no indices. Useful for tiny relations
//! and as the reference implementation the fancier structures are tested
//! against.

use crate::error::{RelError, RelResult};
use crate::relation::{iter_from_vec, DupSemantics, IndexSpec, Relation, TupleIter};
use coral_term::{unifies_with, Term, Tuple};
use std::cell::RefCell;

/// An insertion-ordered, unindexed relation.
pub struct ListRelation {
    arity: usize,
    dup: DupSemantics,
    tuples: RefCell<Vec<Tuple>>,
}

impl ListRelation {
    /// An empty list relation with the given arity and CORAL's default
    /// subsumption-checking set semantics.
    pub fn new(arity: usize) -> ListRelation {
        ListRelation::with_semantics(arity, DupSemantics::SetSubsuming)
    }

    /// An empty list relation with explicit duplicate semantics.
    pub fn with_semantics(arity: usize, dup: DupSemantics) -> ListRelation {
        ListRelation {
            arity,
            dup,
            tuples: RefCell::new(Vec::new()),
        }
    }

    fn check_arity(&self, t: &Tuple) -> RelResult<()> {
        if t.arity() != self.arity {
            return Err(RelError::Arity {
                expected: self.arity,
                got: t.arity(),
            });
        }
        Ok(())
    }
}

impl Relation for ListRelation {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn len(&self) -> usize {
        self.tuples.borrow().len()
    }

    fn insert(&self, tuple: Tuple) -> RelResult<bool> {
        self.check_arity(&tuple)?;
        let mut ts = self.tuples.borrow_mut();
        match self.dup {
            DupSemantics::Multiset => {}
            DupSemantics::Set => {
                if ts.contains(&tuple) {
                    return Ok(false);
                }
            }
            DupSemantics::SetSubsuming => {
                if ts.iter().any(|t| t.subsumes(&tuple)) {
                    return Ok(false);
                }
            }
        }
        tuple.intern_ground();
        ts.push(tuple);
        crate::meter::add_tuples(1);
        Ok(true)
    }

    fn delete(&self, tuple: &Tuple) -> RelResult<bool> {
        self.check_arity(tuple)?;
        let mut ts = self.tuples.borrow_mut();
        match ts.iter().position(|t| t == tuple) {
            Some(i) => {
                ts.remove(i);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn scan(&self) -> TupleIter {
        iter_from_vec(self.tuples.borrow().clone())
    }

    fn lookup(&self, pattern: &[Term]) -> TupleIter {
        // No index: filter tuples that unify with the pattern. Non-ground
        // stored tuples always qualify as candidates.
        let candidates: Vec<Tuple> = self
            .tuples
            .borrow()
            .iter()
            .filter(|t| !t.is_ground() || unifies_with(pattern, t))
            .cloned()
            .collect();
        iter_from_vec(candidates)
    }

    fn make_index(&self, _spec: IndexSpec) -> RelResult<()> {
        Err(RelError::BadIndex(
            "list relations do not support indices".into(),
        ))
    }

    fn describe(&self) -> String {
        format!("list relation, arity {}, {} tuples", self.arity, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Term::int(a), Term::int(b)])
    }

    #[test]
    fn insert_scan_preserves_order() {
        let r = ListRelation::new(2);
        assert!(r.insert(t2(1, 2)).unwrap());
        assert!(r.insert(t2(3, 4)).unwrap());
        let got: Vec<Tuple> = r.scan().map(|x| x.unwrap()).collect();
        assert_eq!(got, vec![t2(1, 2), t2(3, 4)]);
    }

    #[test]
    fn set_semantics_rejects_duplicates() {
        let r = ListRelation::new(2);
        assert!(r.insert(t2(1, 2)).unwrap());
        assert!(!r.insert(t2(1, 2)).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn subsumption_rejects_instances() {
        let r = ListRelation::new(2);
        // p(X, X) then p(5, 5): the latter is subsumed.
        assert!(r
            .insert(Tuple::new(vec![Term::var(0), Term::var(0)]))
            .unwrap());
        assert!(!r.insert(t2(5, 5)).unwrap());
        assert!(r.insert(t2(5, 6)).unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn multiset_keeps_copies() {
        let r = ListRelation::with_semantics(1, DupSemantics::Multiset);
        let t = Tuple::new(vec![Term::int(7)]);
        assert!(r.insert(t.clone()).unwrap());
        assert!(r.insert(t.clone()).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.delete(&t).unwrap());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_returns_presence() {
        let r = ListRelation::new(2);
        r.insert(t2(1, 2)).unwrap();
        assert!(r.delete(&t2(1, 2)).unwrap());
        assert!(!r.delete(&t2(1, 2)).unwrap());
        assert!(r.is_empty());
    }

    #[test]
    fn lookup_filters_by_ground_pattern() {
        let r = ListRelation::new(2);
        r.insert(t2(1, 2)).unwrap();
        r.insert(t2(1, 3)).unwrap();
        r.insert(t2(2, 3)).unwrap();
        let hits: Vec<Tuple> = r
            .lookup(&[Term::int(1), Term::var(0)])
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(hits, vec![t2(1, 2), t2(1, 3)]);
        // Fully open pattern returns everything.
        assert_eq!(r.lookup(&[Term::var(0), Term::var(1)]).count(), 3);
    }

    #[test]
    fn lookup_keeps_nonground_candidates() {
        let r = ListRelation::new(2);
        r.insert(Tuple::new(vec![Term::var(0), Term::int(9)]))
            .unwrap();
        let hits = r.lookup(&[Term::int(4), Term::var(0)]).count();
        assert_eq!(hits, 1, "non-ground fact must remain a candidate");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let r = ListRelation::new(2);
        assert!(matches!(
            r.insert(Tuple::new(vec![Term::int(1)])),
            Err(RelError::Arity { .. })
        ));
    }

    #[test]
    fn indices_not_supported() {
        let r = ListRelation::new(2);
        assert!(r.make_index(IndexSpec::Args(vec![0])).is_err());
    }
}
