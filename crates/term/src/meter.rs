//! Process-wide resource meters for the term layer.
//!
//! The resource governor (coral-core) bounds per-query term-memory growth
//! without scanning any table: the hashcons layer charges this monotone
//! byte counter whenever it allocates a new interned entry, and the
//! governor diffs the counter against a baseline captured at query start.
//! Unlike the `profile` counters these count whether or not profiling
//! is on — they are a single relaxed atomic add on the interning *miss*
//! path only (hits never touch them), so the hot path is unaffected.
//!
//! The counter is process-wide, not per-query: concurrent sessions
//! interning terms all advance it, so a diff against a baseline is a
//! conservative over-estimate of one query's own allocations. That is the
//! right direction for an overload defense — under contention the
//! governor errs towards killing sooner, never later.

use std::sync::atomic::{AtomicU64, Ordering};

static TERM_BYTES: AtomicU64 = AtomicU64::new(0);

/// Charge `n` bytes of term-layer allocation to the process meter.
#[inline]
pub fn add_term_bytes(n: u64) {
    TERM_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Monotone total of term-layer bytes allocated since process start.
#[inline]
pub fn term_bytes() -> u64 {
    TERM_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_is_monotone() {
        let before = term_bytes();
        add_term_bytes(128);
        let after = term_bytes();
        assert!(after >= before + 128);
    }

    #[test]
    fn interning_fresh_terms_advances_meter() {
        use crate::term::Term;
        let before = term_bytes();
        // A fresh, never-before-seen structure must allocate table entries.
        let t = Term::apps(
            "meter_probe_unique_functor",
            vec![Term::int(0xC0FFEE), Term::str("meter-probe-payload")],
        );
        crate::hashcons::intern(&t).unwrap();
        assert!(
            term_bytes() > before,
            "interning a fresh term charged 0 bytes"
        );
        // Re-interning the same term is a hit and charges nothing further.
        let mid = term_bytes();
        crate::hashcons::intern(&t).unwrap();
        assert_eq!(term_bytes(), mid);
    }
}
