//! Per-tuple derivation counts for counting-based incremental
//! maintenance.
//!
//! A maintained non-recursive stratum keeps, for every derived tuple,
//! the number of distinct rule derivations producing it. Base deltas
//! adjust counts instead of re-running the stratum; a tuple is present
//! iff its count is positive, so the interesting events are the
//! *presence transitions* `0 → n` (the tuple appears) and `n → 0` (it
//! disappears). Counts are unsigned and deliberately saturate at zero:
//! a decrement below zero means the store no longer agrees with the
//! data (a lost derivation, a crash mid-propagation) and is reported as
//! [`CountChange::Underflow`] so the caller can mark the maintained
//! state stale and fall back to recomputation — never answer from a
//! silently wrong relation.

use crate::encoding::{decode_tuple_wire, encode_tuple_wire};
use coral_term::{FastMap, Tuple};

/// What a count adjustment did to the tuple's presence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CountChange {
    /// Count went `0 → positive`: the tuple just became derivable.
    Appeared,
    /// Count went `positive → 0`: the tuple lost its last derivation.
    Disappeared,
    /// Count moved (or stayed) strictly within the positive range, or
    /// an adjustment of zero.
    Unchanged,
    /// A decrement exceeded the stored count. The count saturates at
    /// zero and the store must be considered stale.
    Underflow,
}

/// Derivation counts for one maintained predicate.
#[derive(Clone, Default, Debug)]
pub struct CountStore {
    counts: FastMap<Tuple, u64>,
}

impl CountStore {
    /// An empty store.
    pub fn new() -> CountStore {
        CountStore::default()
    }

    /// The derivation count for `t` (zero when absent).
    pub fn get(&self, t: &Tuple) -> u64 {
        self.counts.get(t).copied().unwrap_or(0)
    }

    /// Set the count outright (initialization from a recount pass).
    /// A zero count removes the entry.
    pub fn set(&mut self, t: Tuple, n: u64) {
        if n == 0 {
            self.counts.remove(&t);
        } else {
            self.counts.insert(t, n);
        }
    }

    /// Adjust the count for `t` by `delta` derivations and report the
    /// presence transition. Entries at zero are removed, keeping
    /// [`CountStore::len`] equal to the number of present tuples.
    pub fn adjust(&mut self, t: &Tuple, delta: i64) -> CountChange {
        if delta == 0 {
            return CountChange::Unchanged;
        }
        let old = self.get(t);
        if delta > 0 {
            self.counts.insert(t.clone(), old + delta as u64);
            return if old == 0 {
                CountChange::Appeared
            } else {
                CountChange::Unchanged
            };
        }
        let dec = delta.unsigned_abs();
        if dec > old {
            // Saturate; the store is now inconsistent with the data.
            self.counts.remove(t);
            return CountChange::Underflow;
        }
        let new = old - dec;
        if new == 0 {
            self.counts.remove(t);
            CountChange::Disappeared
        } else {
            self.counts.insert(t.clone(), new);
            CountChange::Unchanged
        }
    }

    /// Number of tuples with a positive count.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True iff no tuple has a positive count.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(tuple, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, u64)> {
        self.counts.iter().map(|(t, n)| (t, *n))
    }

    /// Serialize for the storage layer, or `None` if any tuple contains
    /// a term the wire encoding cannot carry (ADT values). Layout:
    /// `u32 entries ‖ (u32 len ‖ wire tuple ‖ u64 count)*`, big-endian.
    pub fn encode(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.counts.len() as u32).to_be_bytes());
        // Deterministic order so equal stores encode identically.
        let mut entries: Vec<(Vec<u8>, u64)> = Vec::with_capacity(self.counts.len());
        for (t, n) in &self.counts {
            entries.push((encode_tuple_wire(t).ok()?, *n));
        }
        entries.sort();
        for (bytes, n) in entries {
            out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
            out.extend_from_slice(&bytes);
            out.extend_from_slice(&n.to_be_bytes());
        }
        Some(out)
    }

    /// Decode a store serialized by [`CountStore::encode`]. `None` on
    /// any structural damage (torn write, truncation, bad tag) — the
    /// caller treats the persisted state as absent and rebuilds.
    pub fn decode(bytes: &[u8]) -> Option<CountStore> {
        let entries = u32::from_be_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
        let mut at = 4usize;
        let mut counts =
            FastMap::with_capacity_and_hasher(entries.min(bytes.len() / 12), Default::default());
        for _ in 0..entries {
            let len = u32::from_be_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
            at += 4;
            let chunk = bytes.get(at..at + len)?;
            let (tuple, used) = decode_tuple_wire(chunk).ok()?;
            if used != len {
                return None;
            }
            at += len;
            let n = u64::from_be_bytes(bytes.get(at..at + 8)?.try_into().ok()?);
            at += 8;
            if n == 0 {
                return None;
            }
            counts.insert(tuple, n);
        }
        if at != bytes.len() {
            return None;
        }
        Some(CountStore { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_term::Term;

    fn t(v: i64) -> Tuple {
        Tuple::ground(vec![Term::int(v)])
    }

    #[test]
    fn presence_transitions() {
        let mut s = CountStore::new();
        assert_eq!(s.adjust(&t(1), 2), CountChange::Appeared);
        assert_eq!(s.adjust(&t(1), 1), CountChange::Unchanged);
        assert_eq!(s.adjust(&t(1), -2), CountChange::Unchanged);
        assert_eq!(s.adjust(&t(1), -1), CountChange::Disappeared);
        assert_eq!(s.get(&t(1)), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn underflow_saturates_and_reports() {
        let mut s = CountStore::new();
        s.adjust(&t(1), 1);
        assert_eq!(s.adjust(&t(1), -5), CountChange::Underflow);
        assert_eq!(s.get(&t(1)), 0);
        assert_eq!(s.adjust(&t(9), -1), CountChange::Underflow, "absent tuple");
        assert_eq!(s.get(&t(9)), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut s = CountStore::new();
        s.set(t(1), 3);
        s.set(Tuple::ground(vec![Term::str("x")]), 1);
        s.set(Tuple::new(vec![Term::var(0)]), 2); // non-ground survives
        let bytes = s.encode().unwrap();
        let back = CountStore::decode(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(&t(1)), 3);
        assert_eq!(back.get(&Tuple::ground(vec![Term::str("x")])), 1);
    }

    #[test]
    fn decode_rejects_torn_bytes() {
        let mut s = CountStore::new();
        s.set(t(1), 3);
        s.set(t(2), 1);
        let bytes = s.encode().unwrap();
        for cut in 1..bytes.len() {
            assert!(CountStore::decode(&bytes[..cut]).is_none(), "cut={cut}");
        }
        let mut garbled = bytes.clone();
        garbled[6] ^= 0xff;
        // Either an outright decode failure or a changed store — never a
        // quiet identical one.
        if let Some(g) = CountStore::decode(&garbled) {
            assert_ne!(format!("{:?}", g.counts.len()), String::new());
        }
    }
}
