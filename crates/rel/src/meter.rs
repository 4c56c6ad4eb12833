//! Thread-local tuple-insert meter for the resource governor.
//!
//! The governor (coral-core) bounds how many tuples one query may
//! materialize. Every successful relation insert bumps this counter;
//! the governor captures a baseline when a query is armed and compares
//! `tuples_inserted() - baseline` against the budget at its poll sites —
//! an O(1) thread-local read, never a scan.
//!
//! The counter is *thread-local*, not process-wide, and that is load
//! bearing: a query evaluates entirely on one thread, so the meter is
//! exact per query, and concurrent server sessions on other worker
//! threads never cross-charge each other. Unlike the `profile` counters
//! it counts whether or not profiling is on.

use std::cell::Cell;

thread_local! {
    static TUPLES: Cell<u64> = const { Cell::new(0) };
    static DELETED: Cell<u64> = const { Cell::new(0) };
}

/// Charge `n` successful tuple inserts to this thread's meter.
#[inline]
pub fn add_tuples(n: u64) {
    TUPLES.with(|c| c.set(c.get() + n));
}

/// Monotone total of successful inserts performed by this thread.
#[inline]
pub fn tuples_inserted() -> u64 {
    TUPLES.with(|c| c.get())
}

/// Charge `n` successful tuple deletes to this thread's meter. Deletes
/// are metered symmetrically with inserts so maintenance propagation is
/// observable, but they do NOT refund the insert meter: the governor's
/// materialization budget bounds total work, and work already done stays
/// charged.
#[inline]
pub fn add_deleted(n: u64) {
    DELETED.with(|c| c.set(c.get() + n));
}

/// Monotone total of successful deletes performed by this thread.
#[inline]
pub fn tuples_deleted() -> u64 {
    DELETED.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_successful_inserts_only() {
        use crate::hash_rel::HashRelation;
        use crate::relation::Relation;
        use coral_term::{Term, Tuple};
        let r = HashRelation::new(1);
        let before = tuples_inserted();
        assert!(r.insert(Tuple::new(vec![Term::int(1)])).unwrap());
        assert!(!r.insert(Tuple::new(vec![Term::int(1)])).unwrap());
        assert!(r.insert(Tuple::new(vec![Term::int(2)])).unwrap());
        assert_eq!(tuples_inserted() - before, 2);
    }

    #[test]
    fn meter_counts_successful_deletes_only() {
        use crate::hash_rel::HashRelation;
        use crate::relation::Relation;
        use coral_term::{Term, Tuple};
        let r = HashRelation::new(1);
        r.insert(Tuple::new(vec![Term::int(1)])).unwrap();
        r.insert(Tuple::new(vec![Term::int(2)])).unwrap();
        let (ins, del) = (tuples_inserted(), tuples_deleted());
        assert!(r.delete(&Tuple::new(vec![Term::int(1)])).unwrap());
        assert!(!r.delete(&Tuple::new(vec![Term::int(1)])).unwrap());
        assert!(!r.delete(&Tuple::new(vec![Term::int(9)])).unwrap());
        assert_eq!(tuples_deleted() - del, 1, "only the real removal charges");
        assert_eq!(
            tuples_inserted(),
            ins,
            "deletes never touch the insert meter"
        );
    }

    #[test]
    fn meter_is_thread_local() {
        add_tuples(5);
        let here = tuples_inserted();
        let there = std::thread::spawn(tuples_inserted).join().unwrap();
        assert!(here >= 5);
        assert_eq!(there, 0);
    }
}
