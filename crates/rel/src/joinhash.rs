//! Transient hash-join tables with blocked Bloom prefilters.
//!
//! CORAL's nested-loops join (§5.3) resolves every non-delta body
//! literal by an index probe per outer row — a hash lookup plus a
//! var-bucket enumeration inside [`crate::HashRelation`]. When the same
//! literal is probed once per delta row with the same bound-column set,
//! it is cheaper to build one *transient* hash table over the inner
//! relation keyed on exactly those columns and probe it directly: the
//! build is a single pass, each probe is one hash and one bucket walk,
//! and a per-table blocked Bloom filter lets probes that cannot match
//! skip the table without touching its buckets at all (sideways
//! information passing from the outer literal to the inner one).
//!
//! The table is deliberately dumb about semantics: rows whose key
//! columns are not ground (the paper's `var`-bucket citizens) go to a
//! side list the caller must always enumerate, and bucket hits are row
//! *candidates* — the caller re-verifies every column with its usual
//! bind-or-compare/unify machinery, so hash collisions are harmless and
//! no term comparison logic is duplicated here. Tables are immutable
//! after [`JoinHashTable::build`].

use crate::hash_rel::KeyHasher;
use coral_term::{FastMap, Term, Tuple};

/// One cache line's worth of Bloom bits per block keeps the probe to a
/// single memory access: block choice from the high hash bits, two bit
/// positions from independent low fields.
#[derive(Debug)]
struct BlockedBloom {
    /// Power-of-two number of 64-bit blocks.
    blocks: Vec<u64>,
}

impl BlockedBloom {
    /// Sized for `n` keys at roughly four keys per block (two bits
    /// set per key ⇒ ~1/8 of a block occupied per key).
    fn with_capacity(n: usize) -> BlockedBloom {
        let blocks = (n / 4).next_power_of_two().max(1);
        BlockedBloom {
            blocks: vec![0u64; blocks],
        }
    }

    fn slot(&self, hash: u64) -> (usize, u64) {
        let block = (hash >> 32) as usize & (self.blocks.len() - 1);
        let mask = (1u64 << (hash & 63)) | (1u64 << ((hash >> 6) & 63));
        (block, mask)
    }

    fn insert(&mut self, hash: u64) {
        let (block, mask) = self.slot(hash);
        self.blocks[block] |= mask;
    }

    fn may_contain(&self, hash: u64) -> bool {
        let (block, mask) = self.slot(hash);
        self.blocks[block] & mask == mask
    }
}

/// Result of probing a [`JoinHashTable`] with a ground key.
pub enum Probe<'a> {
    /// The Bloom filter proved no ground-keyed row can match: the
    /// caller may skip the buckets entirely (side rows still apply).
    Skip,
    /// Candidate row ids from the matching bucket — possibly empty,
    /// possibly containing hash collisions the caller's row match
    /// rejects.
    Rows(&'a [u32]),
}

/// A transient hash table over one relation (or relation range), keyed
/// on a fixed set of columns. Built once, probed many times, dropped
/// with the fixpoint iteration that made it.
#[derive(Debug)]
pub struct JoinHashTable {
    key_cols: Vec<usize>,
    /// Rows whose key columns are all ground, in insertion order.
    rows: Vec<Tuple>,
    /// key hash → ids into `rows`, ids ascending per bucket.
    buckets: FastMap<u64, Vec<u32>>,
    /// Rows with a variable somewhere in a key column: unreachable by
    /// hash, so every probe must also enumerate these.
    side: Vec<Tuple>,
    bloom: BlockedBloom,
}

impl JoinHashTable {
    /// Build a table over `rows` keyed on `key_cols`. Rows not ground
    /// at every key column land in the side list.
    pub fn build(key_cols: Vec<usize>, rows: impl IntoIterator<Item = Tuple>) -> JoinHashTable {
        let rows_iter = rows.into_iter();
        let (lo, _) = rows_iter.size_hint();
        let mut table = JoinHashTable {
            key_cols,
            rows: Vec::with_capacity(lo),
            buckets: FastMap::with_capacity_and_hasher(lo, Default::default()),
            side: Vec::new(),
            bloom: BlockedBloom::with_capacity(lo),
        };
        for t in rows_iter {
            let args = t.args();
            if !table.key_cols.iter().all(|&c| args[c].is_ground()) {
                table.side.push(t);
                continue;
            }
            let h = JoinHashTable::key_hash(table.key_cols.iter().map(|&c| &args[c]));
            let id = table.rows.len() as u32;
            table.rows.push(t);
            table.buckets.entry(h).or_default().push(id);
            table.bloom.insert(h);
        }
        table
    }

    /// The columns this table is keyed on.
    pub fn key_cols(&self) -> &[usize] {
        &self.key_cols
    }

    /// Total rows ingested (hashed + side).
    pub fn build_rows(&self) -> usize {
        self.rows.len() + self.side.len()
    }

    /// Whether the table holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.side.is_empty()
    }

    /// Rows unreachable by hash (non-ground key columns); the caller
    /// enumerates these on every probe.
    pub fn side(&self) -> &[Tuple] {
        &self.side
    }

    /// A hashed row by id (ids come from [`JoinHashTable::probe`]).
    pub fn row(&self, id: u32) -> &Tuple {
        &self.rows[id as usize]
    }

    /// Hash of a ground probe key (`key[i]` is the term bound to
    /// `key_cols[i]`). The caller guarantees every term is ground —
    /// this matches the hashing applied to stored rows at build time.
    pub fn key_hash<'a>(key: impl IntoIterator<Item = &'a Term>) -> u64 {
        let mut h = KeyHasher::default();
        for t in key {
            h.push_term(t);
        }
        h.finish()
    }

    /// Probe with a precomputed [`JoinHashTable::key_hash`].
    pub fn probe(&self, key_hash: u64) -> Probe<'_> {
        if !self.bloom.may_contain(key_hash) {
            return Probe::Skip;
        }
        match self.buckets.get(&key_hash) {
            Some(ids) => Probe::Rows(ids),
            None => Probe::Rows(&[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_term::term::VarId;
    use coral_term::Symbol;

    fn int_row(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Term::Int(v)).collect())
    }

    fn probe_ids(table: &JoinHashTable, key: &[&Term]) -> Vec<u32> {
        match table.probe(JoinHashTable::key_hash(key.iter().copied())) {
            Probe::Skip => Vec::new(),
            Probe::Rows(ids) => ids.to_vec(),
        }
    }

    #[test]
    fn empty_build_probes_cleanly() {
        let t = JoinHashTable::build(vec![0], std::iter::empty());
        assert!(t.is_empty());
        assert_eq!(t.build_rows(), 0);
        assert!(t.side().is_empty());
        let ids = probe_ids(&t, &[&Term::Int(1)]);
        assert!(ids.is_empty());
    }

    #[test]
    fn single_row_build() {
        let t = JoinHashTable::build(vec![0], [int_row(&[7, 8])]);
        assert_eq!(t.build_rows(), 1);
        let hit = probe_ids(&t, &[&Term::Int(7)]);
        assert_eq!(hit.len(), 1);
        assert_eq!(t.row(hit[0]), &int_row(&[7, 8]));
        // A missing key either Bloom-skips or lands in an absent
        // bucket; both yield zero candidates.
        assert!(probe_ids(&t, &[&Term::Int(9)]).is_empty());
    }

    #[test]
    fn bloom_skips_mean_no_bucket_can_match() {
        let rows: Vec<Tuple> = (0..64).map(|i| int_row(&[i, i + 1])).collect();
        let t = JoinHashTable::build(vec![0], rows);
        let mut skips = 0;
        for probe in 1000..2000 {
            let h = JoinHashTable::key_hash([&Term::Int(probe)]);
            match t.probe(h) {
                Probe::Skip => skips += 1,
                Probe::Rows(ids) => {
                    // A Bloom pass on an absent key must still come up
                    // empty from the exact bucket map.
                    assert!(ids.is_empty(), "false candidates for {probe}");
                }
            }
        }
        assert!(skips > 0, "Bloom filter never skipped a miss");
        // Present keys are never skipped (no false negatives).
        for present in 0..64 {
            let h = JoinHashTable::key_hash([&Term::Int(present)]);
            assert!(
                !probe_ids(&t, &[&Term::Int(present)]).is_empty(),
                "false negative for {present} ({h:#x})"
            );
        }
    }

    #[test]
    fn non_ground_key_rows_go_to_the_side_list() {
        let ground = int_row(&[1, 2]);
        let open = Tuple::new(vec![Term::Var(VarId(0)), Term::Int(3)]);
        let fun = Tuple::new(vec![
            Term::app(Symbol::intern("f"), vec![Term::Var(VarId(0))]),
            Term::Int(4),
        ]);
        let t = JoinHashTable::build(vec![0], [ground.clone(), open.clone(), fun.clone()]);
        assert_eq!(t.build_rows(), 3);
        assert_eq!(t.side(), &[open, fun]);
        let hit = probe_ids(&t, &[&Term::Int(1)]);
        assert_eq!(hit.len(), 1);
        assert_eq!(t.row(hit[0]), &ground);
    }

    #[test]
    fn ground_functor_and_bignum_keys() {
        // Keys beyond flat ints: a ground functor term and a bignum.
        let big = Term::big(
            "170141183460469231731687303715884105728"
                .parse::<coral_term::BigInt>()
                .expect("bignum parse"),
        );
        let f1 = Term::app(Symbol::intern("f"), vec![Term::Int(1), Term::Int(2)]);
        let rows = vec![
            Tuple::new(vec![big.clone(), Term::Int(10)]),
            Tuple::new(vec![f1.clone(), Term::Int(20)]),
        ];
        let t = JoinHashTable::build(vec![0], rows);
        assert!(t.side().is_empty());
        let hit = probe_ids(&t, &[&big]);
        assert_eq!(hit.len(), 1);
        assert_eq!(t.row(hit[0]).args()[1], Term::Int(10));
        let hit = probe_ids(&t, &[&f1]);
        assert_eq!(hit.len(), 1);
        assert_eq!(t.row(hit[0]).args()[1], Term::Int(20));
        // Structurally different functor: no candidate survives.
        let f2 = Term::app(Symbol::intern("f"), vec![Term::Int(1), Term::Int(3)]);
        let ids = probe_ids(&t, &[&f2]);
        assert!(ids.iter().all(|&id| t.row(id).args()[0] != f2));
    }

    /// Deterministic multiplicative generator for the model test —
    /// collision-heavy on purpose (small key domain, many rows).
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn matches_a_reference_hashmap_model() {
        for seed in [3u64, 17, 4242] {
            let mut s = seed;
            let mut rows = Vec::new();
            let mut model: std::collections::BTreeMap<(i64, i64), Vec<Tuple>> = Default::default();
            for _ in 0..500 {
                // Two key columns over tiny domains + one payload.
                let k0 = (lcg(&mut s) % 7) as i64;
                let k1 = (lcg(&mut s) % 5) as i64;
                let v = (lcg(&mut s) % 1000) as i64;
                let t = int_row(&[k0, k1, v]);
                model.entry((k0, k1)).or_default().push(t.clone());
                rows.push(t);
            }
            let table = JoinHashTable::build(vec![0, 1], rows);
            assert!(table.side().is_empty());
            assert_eq!(table.build_rows(), 500);
            for k0 in 0..8i64 {
                for k1 in 0..6i64 {
                    let (a, b) = (Term::Int(k0), Term::Int(k1));
                    let ids = probe_ids(&table, &[&a, &b]);
                    // Exactly the model's rows survive the caller-side
                    // key re-check (collisions are filtered there).
                    let got: Vec<&Tuple> = ids
                        .iter()
                        .map(|&id| table.row(id))
                        .filter(|t| t.args()[0] == a && t.args()[1] == b)
                        .collect();
                    let want = model.get(&(k0, k1)).map(Vec::as_slice).unwrap_or(&[]);
                    assert_eq!(got.len(), want.len(), "seed {seed} key ({k0},{k1})");
                    for (g, w) in got.iter().zip(want) {
                        assert_eq!(*g, w, "seed {seed} key ({k0},{k1})");
                    }
                    // Candidate ids stay in insertion order.
                    assert!(ids.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }
}
