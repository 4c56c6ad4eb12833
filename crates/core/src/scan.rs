//! The `get-next-tuple` interface (§2, §5.6).
//!
//! "The query evaluation system has a well defined 'get-next-tuple'
//! interface with the data manager for access to relations. This
//! interface is independent of how the relation is defined (as a base
//! relation, declaratively through rules, or through … user-defined …
//! code)." [`AnswerScan`] is that interface: every producer — base
//! relation lookups, eager and lazy materialized module calls, pipelined
//! module calls, computed predicates — is consumed one tuple at a time
//! through it, which is what lets modules with different evaluation
//! strategies interact transparently.

use crate::error::EvalResult;
use coral_rel::TupleIter;
use coral_term::Tuple;

/// A cursor producing answer tuples on demand.
pub trait AnswerScan {
    /// Produce the next answer, or `None` when exhausted.
    fn next_answer(&mut self) -> EvalResult<Option<Tuple>>;
}

/// A scan over any infallible tuple iterator: an owned relation cursor
/// pulled lazily, a filtered index lookup, a precomputed vector.
pub struct TupleScan<I>(pub I);

impl<I: Iterator<Item = Tuple>> AnswerScan for TupleScan<I> {
    fn next_answer(&mut self) -> EvalResult<Option<Tuple>> {
        Ok(self.0.next())
    }
}

/// A scan over a relation-layer tuple iterator.
pub struct IterScan {
    iter: TupleIter,
}

impl IterScan {
    /// Wrap a relation iterator.
    pub fn new(iter: TupleIter) -> IterScan {
        IterScan { iter }
    }
}

impl AnswerScan for IterScan {
    fn next_answer(&mut self) -> EvalResult<Option<Tuple>> {
        match self.iter.next() {
            Some(Ok(t)) => Ok(Some(t)),
            Some(Err(e)) => Err(e.into()),
            None => Ok(None),
        }
    }
}

/// Adapt an [`AnswerScan`] into a relation-layer [`TupleIter`], so module
/// answers flow into joins exactly like base-relation candidates (§5.6's
/// uniform interface).
pub fn scan_to_iter(scan: Box<dyn AnswerScan>) -> TupleIter {
    struct Adapter {
        scan: Box<dyn AnswerScan>,
        failed: bool,
    }
    impl Iterator for Adapter {
        type Item = coral_rel::RelResult<Tuple>;
        fn next(&mut self) -> Option<Self::Item> {
            if self.failed {
                return None;
            }
            match self.scan.next_answer() {
                Ok(Some(t)) => Some(Ok(t)),
                Ok(None) => None,
                Err(e) => {
                    self.failed = true;
                    // Squeeze the engine error through the relation error
                    // channel; the consumer surfaces it as-is.
                    Some(Err(coral_rel::RelError::BadIndex(format!(
                        "nested evaluation failed: {e}"
                    ))))
                }
            }
        }
    }
    Box::new(Adapter {
        scan,
        failed: false,
    })
}

/// Drain a scan into a vector (tests and small callers).
pub fn collect(scan: &mut dyn AnswerScan) -> EvalResult<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(t) = scan.next_answer()? {
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_term::Term;

    #[test]
    fn tuple_scan_yields_in_order() {
        let items = vec![
            Tuple::new(vec![Term::int(1)]),
            Tuple::new(vec![Term::int(2)]),
        ];
        let mut s = TupleScan(items.into_iter());
        assert_eq!(s.next_answer().unwrap().unwrap().to_string(), "(1)");
        assert_eq!(s.next_answer().unwrap().unwrap().to_string(), "(2)");
        assert!(s.next_answer().unwrap().is_none());
        assert!(s.next_answer().unwrap().is_none());
    }

    #[test]
    fn adapter_roundtrip() {
        let scan = TupleScan(vec![Tuple::new(vec![Term::int(7)])].into_iter());
        let mut iter = scan_to_iter(Box::new(scan));
        assert_eq!(iter.next().unwrap().unwrap().to_string(), "(7)");
        assert!(iter.next().is_none());
    }
}
