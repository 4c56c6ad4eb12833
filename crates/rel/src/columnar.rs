//! A columnar copy of a run of tuples.
//!
//! [`ColumnarBatch::from_tuples`] stores ground primitive rows *flat*,
//! one [`ColVal`] vector per column, and keeps the exceptional rows —
//! tuples containing variables, functor terms or ADT values — in a
//! sparse side-table keyed by row index. Bignums go to a per-batch pool
//! so columns stay one machine word wide.
//!
//! No engine path reads a batch any more: the semi-naive join reads
//! every candidate as a stored tuple. `from_tuples` and the storage it
//! fills stay only because the end-to-end benchmark replays it as a
//! per-layer cost; they go once that replay is retired. A columnar layout pays
//! off only when relations are stored column-major end to end, not as a
//! copy of each delta.

use coral_term::bignum::BigInt;
use coral_term::{OrderedF64, Symbol, Term, Tuple};
use std::sync::Arc;

/// One flat column entry: a ground primitive constant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColVal {
    /// Machine integer.
    Int(i64),
    /// Double with total ordering.
    Dbl(OrderedF64),
    /// Interned string/atom.
    Sym(Symbol),
    /// Handle into the batch's bignum pool.
    Big(u32),
}

/// A columnar copy of a run of tuples, in order.
#[derive(Clone, Debug)]
pub struct ColumnarBatch {
    nrows: usize,
    /// `arity` columns; each holds one entry per *fast* row, in row order.
    /// Written for the benchmark's `from_tuples` replay and read by no
    /// engine path (see the module doc), hence the `dead_code` allowance
    /// here and on `bigs`.
    #[allow(dead_code)]
    cols: Vec<Vec<ColVal>>,
    /// `(row index, tuple)` for non-flat rows, sorted by row index.
    side: Vec<(u32, Tuple)>,
    /// Bignum pool referenced by `ColVal::Big` handles.
    #[allow(dead_code)]
    bigs: Vec<Arc<BigInt>>,
}

impl ColumnarBatch {
    /// Build a batch from tuples in order. Rows whose arguments are all
    /// ground primitives go to the flat columns; everything else goes to
    /// the side-table.
    pub fn from_tuples<I: IntoIterator<Item = Tuple>>(arity: usize, tuples: I) -> ColumnarBatch {
        let mut cols: Vec<Vec<ColVal>> = (0..arity).map(|_| Vec::new()).collect();
        let mut side: Vec<(u32, Tuple)> = Vec::new();
        let mut bigs: Vec<Arc<BigInt>> = Vec::new();
        let mut nrows = 0usize;
        for t in tuples {
            debug_assert_eq!(t.arity(), arity, "batch arity mismatch");
            let flat = t.args().iter().all(|a| a.is_ground_primitive());
            if flat {
                for (c, a) in cols.iter_mut().zip(t.args()) {
                    c.push(match a {
                        Term::Int(v) => ColVal::Int(*v),
                        Term::Double(v) => ColVal::Dbl(*v),
                        Term::Str(s) => ColVal::Sym(*s),
                        Term::Big(b) => {
                            bigs.push(Arc::clone(b));
                            ColVal::Big((bigs.len() - 1) as u32)
                        }
                        _ => unreachable!("non-primitive arg in flat row"),
                    });
                }
            } else {
                side.push((nrows as u32, t));
            }
            nrows += 1;
        }
        ColumnarBatch {
            nrows,
            cols,
            side,
            bigs,
        }
    }

    /// Total rows (flat + side).
    pub fn len(&self) -> usize {
        self.nrows
    }

    /// True iff the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.nrows == 0
    }

    /// Rows stored flat in the columns.
    pub fn fast_rows(&self) -> usize {
        self.nrows - self.side.len()
    }

    /// Rows in the sparse side-table.
    pub fn side_rows(&self) -> usize {
        self.side.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_term::testutil::TestRng;

    fn big(s: &str) -> Term {
        Term::big(s.parse().unwrap())
    }

    /// The rows a batch stores, rebuilt in order from its columns, its
    /// bignum pool and its side-table.
    fn rows(b: &ColumnarBatch) -> Vec<Tuple> {
        let mut side = b.side.iter().peekable();
        let mut fast = 0;
        (0..b.nrows)
            .map(|r| match side.next_if(|(i, _)| *i as usize == r) {
                Some((_, t)) => t.clone(),
                None => {
                    let args = b.cols.iter().map(|c| match c[fast] {
                        ColVal::Int(v) => Term::Int(v),
                        ColVal::Dbl(v) => Term::Double(v),
                        ColVal::Sym(s) => Term::Str(s),
                        ColVal::Big(h) => Term::Big(Arc::clone(&b.bigs[h as usize])),
                    });
                    let t = Tuple::ground(args.collect());
                    fast += 1;
                    t
                }
            })
            .collect()
    }

    /// A random tuple; ~60% all-primitive, the rest mix in variables,
    /// nested functors and bignums.
    fn random_tuple(rng: &mut TestRng, arity: usize) -> Tuple {
        let args = (0..arity)
            .map(|_| match rng.gen_range(0, 10) {
                0..=3 => Term::int(rng.gen_range(0, 50) as i64),
                4 => Term::double(rng.gen_range(0, 100) as f64 / 4.0),
                5 => Term::str(["a", "b", "c"][rng.gen_range(0, 3)]),
                6 => big(["123456789012345678901", "99999999999999999999"][rng.gen_range(0, 2)]),
                7 => Term::var(rng.gen_range(0, 3) as u32),
                8 => Term::apps("f", vec![Term::int(rng.gen_range(0, 5) as i64)]),
                _ => Term::apps("g", vec![Term::var(0), Term::list(vec![Term::int(1)])]),
            })
            .collect();
        Tuple::new(args)
    }

    #[test]
    fn empty_and_single_row_batches() {
        let b = ColumnarBatch::from_tuples(2, Vec::new());
        assert!(b.is_empty());
        assert_eq!(rows(&b), Vec::new());

        let g = Tuple::new(vec![Term::int(1), Term::str("x")]);
        let b = ColumnarBatch::from_tuples(2, vec![g.clone()]);
        assert_eq!((b.len(), b.fast_rows(), b.side_rows()), (1, 1, 0));
        assert_eq!(rows(&b), vec![g]);

        let nv = Tuple::new(vec![Term::var(0), Term::int(2)]);
        let b = ColumnarBatch::from_tuples(2, vec![nv.clone()]);
        assert_eq!((b.len(), b.fast_rows(), b.side_rows()), (1, 0, 1));
        assert_eq!(rows(&b), vec![nv]);
    }

    #[test]
    fn zero_arity_rows_are_flat() {
        let t = Tuple::new(Vec::new());
        let b = ColumnarBatch::from_tuples(0, vec![t.clone(), t.clone(), t.clone()]);
        assert_eq!((b.len(), b.fast_rows(), b.side_rows()), (3, 3, 0));
        assert_eq!(rows(&b), vec![t.clone(), t.clone(), t]);
    }

    #[test]
    fn functor_and_bignum_rows_go_to_the_side_table_or_pool() {
        let input = vec![
            Tuple::new(vec![Term::int(1), big("123456789012345678901")]),
            Tuple::new(vec![Term::apps("f", vec![Term::int(2)]), Term::int(3)]),
            Tuple::new(vec![Term::int(4), Term::var(0)]),
            Tuple::new(vec![Term::int(5), Term::str("s")]),
        ];
        let b = ColumnarBatch::from_tuples(2, input.clone());
        // Bignums are flat (pooled); functors and variables are side rows.
        assert_eq!((b.fast_rows(), b.side_rows()), (2, 2));
        assert_eq!(b.bigs.len(), 1);
        assert_eq!(b.cols[0], vec![ColVal::Int(1), ColVal::Int(5)]);
        assert_eq!(rows(&b), input);
    }

    #[test]
    fn mixed_batches_round_trip_exactly() {
        for seed in 0..20u64 {
            let mut rng = TestRng::new(seed);
            let arity = rng.gen_range(1, 5);
            let n = rng.gen_range(0, 60);
            let input: Vec<Tuple> = (0..n).map(|_| random_tuple(&mut rng, arity)).collect();
            let b = ColumnarBatch::from_tuples(arity, input.clone());
            assert_eq!(b.len(), input.len());
            assert_eq!(b.fast_rows() + b.side_rows(), b.len());
            assert_eq!(rows(&b), input, "seed {seed}");
        }
    }
}
