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
//! strategies interact transparently. Joins read relation candidates
//! and a called module's answers through this one stream, so an error a
//! module raises mid-pull — a cancellation, a budget kill, an unsafe
//! comparison — reaches the caller as the same [`EvalError`] variant.

use crate::error::{EvalError, EvalResult};
use coral_rel::TupleIter;
use coral_term::Tuple;

/// A cursor producing tuples on demand: one `next()` per get-next-tuple
/// request.
pub type AnswerScan = Box<dyn Iterator<Item = EvalResult<Tuple>>>;

/// A relation cursor as an answer stream, its storage errors carried as
/// [`EvalError::Rel`].
pub fn rel_scan(iter: TupleIter) -> AnswerScan {
    Box::new(iter.map(|r| r.map_err(EvalError::from)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_rel::RelError;
    use coral_term::Term;

    #[test]
    fn adapter_roundtrip() {
        // A relation cursor keeps its order, and its error keeps its
        // type as the evaluator's relation error.
        let rows = vec![
            Ok(Tuple::new(vec![Term::int(1)])),
            Err(RelError::Decode("torn row".into())),
        ];
        let mut s = rel_scan(Box::new(rows.into_iter()));
        assert_eq!(s.next().unwrap().unwrap().to_string(), "(1)");
        assert!(matches!(s.next(), Some(Err(EvalError::Rel(_)))));
        assert!(s.next().is_none());
    }
}
