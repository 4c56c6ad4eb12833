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

use crate::error::{EvalError, EvalResult};
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

/// Candidate tuples for one body literal, pulled one at a time: a
/// relation cursor or a called module's answer scan. Joins read both
/// through this one type, so an error a module raises mid-pull — a
/// cancellation, a budget kill, an unsafe comparison — reaches the
/// caller as the same [`EvalError`] variant.
pub enum Candidates {
    /// A relation lookup: base, local or builtin rows.
    Rel(TupleIter),
    /// A module call's answers.
    Answers(Box<dyn AnswerScan>),
}

impl From<TupleIter> for Candidates {
    fn from(iter: TupleIter) -> Candidates {
        Candidates::Rel(iter)
    }
}

impl Iterator for Candidates {
    type Item = EvalResult<Tuple>;

    fn next(&mut self) -> Option<EvalResult<Tuple>> {
        match self {
            Candidates::Rel(iter) => iter.next().map(|r| r.map_err(EvalError::from)),
            Candidates::Answers(scan) => scan.next_answer().transpose(),
        }
    }
}

impl AnswerScan for Candidates {
    fn next_answer(&mut self) -> EvalResult<Option<Tuple>> {
        self.next().transpose()
    }
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
        // `Candidates` adapts a module's answer scan and a relation
        // iterator to one candidate stream; the scan's error keeps its
        // type.
        /// One answer, then a failure mid-pull.
        struct FailsSecond(bool);
        impl AnswerScan for FailsSecond {
            fn next_answer(&mut self) -> EvalResult<Option<Tuple>> {
                if std::mem::replace(&mut self.0, true) {
                    return Err(EvalError::Cancelled);
                }
                Ok(Some(Tuple::new(vec![Term::int(7)])))
            }
        }
        let mut c = Candidates::Answers(Box::new(FailsSecond(false)));
        assert_eq!(c.next().unwrap().unwrap().to_string(), "(7)");
        assert!(matches!(c.next(), Some(Err(EvalError::Cancelled))));
        let rows = vec![Ok(Tuple::new(vec![Term::int(1)]))];
        let mut c = Candidates::from(Box::new(rows.into_iter()) as TupleIter);
        assert_eq!(c.next_answer().unwrap().unwrap().to_string(), "(1)");
        assert!(c.next_answer().unwrap().is_none());
    }
}
