//! Property tests for the term layer over seeded [`TestRng`] inputs:
//! bignum algebra, unification symmetry and trail restore, hash-consing
//! ids agreeing with structural equality, hashes agreeing with equality,
//! and the relation/answer pattern test agreeing with the unifier.

use coral_term::bignum::BigInt;
use coral_term::bindenv::EnvSet;
use coral_term::term::Term;
use coral_term::testutil::TestRng;
use coral_term::{hashcons, match_args, unifies_with, unify, unify_all, FastState, Tuple};
use std::hash::BuildHasher;

const CASES: u64 = 256;

/// Up to five random 32-bit limbs, random sign.
fn bigint(rng: &mut TestRng) -> BigInt {
    let mut b = BigInt::zero();
    for _ in 0..rng.gen_range(0, 6) {
        let limb = BigInt::from_i64((rng.next_u64() >> 32) as i64);
        b = &(&b * &BigInt::from_i64(1i64 << 32)) + &limb;
    }
    if rng.gen_bool(0.5) {
        -b
    } else {
        b
    }
}

/// A term of depth ≤ `depth` over ints, strings, doubles, `f/g/h`
/// applications and (when `vars`) variables 0..4.
fn term(rng: &mut TestRng, depth: u32, vars: bool) -> Term {
    if depth > 0 && rng.gen_bool(0.4) {
        let name = ["f", "g", "h"][rng.gen_range(0, 3)];
        let args = (0..rng.gen_range(0, 3))
            .map(|_| term(rng, depth - 1, vars))
            .collect();
        return Term::apps(name, args);
    }
    match rng.gen_range(0, if vars { 4 } else { 3 }) {
        0 => Term::int(rng.gen_range(0, 6) as i64 - 3),
        1 => Term::str(["a", "b", "c"][rng.gen_range(0, 3)]),
        2 => Term::double(rng.gen_range(0, 4) as f64 / 2.0),
        _ => Term::var(rng.gen_range(0, 4) as u32),
    }
}

#[test]
fn bignum_algebra() {
    let mut rng = TestRng::new(1);
    for case in 0..CASES {
        let (a, b, c) = (bigint(&mut rng), bigint(&mut rng), bigint(&mut rng));
        assert_eq!(&a + &b, &b + &a, "case {case}: + commutes");
        assert_eq!(&(&a + &b) - &b, a, "case {case}: - undoes +");
        assert_eq!(
            &a * &(&b + &c),
            &(&a * &b) + &(&a * &c),
            "case {case}: * distributes"
        );
        if !b.is_zero() {
            let (q, r) = a.divmod(&b);
            assert_eq!(&(&q * &b) + &r, a, "case {case}: q*b + r = a");
            assert!(r.abs() < b.abs(), "case {case}: |r| < |b|");
        }
        let back: BigInt = a.to_string().parse().unwrap();
        assert_eq!(back, a, "case {case}: print/parse round trip");
        let (x, y) = (rng.next_u64() as i32 as i64, rng.next_u64() as i32 as i64);
        let (bx, by) = (BigInt::from_i64(x), BigInt::from_i64(y));
        assert_eq!((&bx + &by).to_i64(), Some(x + y));
        assert_eq!((&bx - &by).to_i64(), Some(x - y));
        assert_eq!((&bx * &by).to_i64(), Some(x * y));
        assert_eq!(bx.cmp(&by), x.cmp(&y));
    }
}

#[test]
fn unify_is_symmetric() {
    let mut rng = TestRng::new(2);
    for _ in 0..CASES {
        let (a, b) = (term(&mut rng, 3, true), term(&mut rng, 3, true));
        let mut fwd = EnvSet::new();
        let (ea, eb) = (fwd.push_frame(4), fwd.push_frame(4));
        let mut bwd = EnvSet::new();
        let (ea2, eb2) = (bwd.push_frame(4), bwd.push_frame(4));
        assert_eq!(
            unify(&mut fwd, &a, ea, &b, eb),
            unify(&mut bwd, &b, eb2, &a, ea2),
            "{a} vs {b}"
        );
    }
}

#[test]
fn unify_failure_restores_trail() {
    let mut rng = TestRng::new(3);
    for _ in 0..CASES {
        let (a, b) = (term(&mut rng, 3, true), term(&mut rng, 3, true));
        let mut envs = EnvSet::new();
        let (ea, eb) = (envs.push_frame(4), envs.push_frame(4));
        let m = envs.mark();
        if !unify(&mut envs, &a, ea, &b, eb) {
            envs.undo(m);
            assert_eq!(envs.mark(), m, "{a} vs {b}");
            // After undo the same attempt behaves identically.
            assert!(!unify(&mut envs, &a, ea, &b, eb), "{a} vs {b}");
        }
    }
}

#[test]
fn hashcons_ids_agree_with_equality() {
    let mut rng = TestRng::new(4);
    for _ in 0..CASES {
        // A third of the pairs rebuild `a` from the same stream: equal
        // terms in separate allocations.
        let twin = rng.clone();
        let a = term(&mut rng, 2, false);
        let b = if rng.gen_bool(0.33) {
            term(&mut twin.clone(), 2, false)
        } else {
            term(&mut rng, 2, false)
        };
        let (ia, ib) = (hashcons::intern(&a).unwrap(), hashcons::intern(&b).unwrap());
        assert_eq!(ia == ib, a == b, "{a} vs {b}");
    }
}

/// A term of depth ≤ `depth` whose constants include the values hashing
/// must treat with care: `+0.0`/`-0.0`, NaNs of either sign, and bignums.
fn hash_term(rng: &mut TestRng, depth: u32, vars: bool) -> Term {
    if depth > 0 && rng.gen_bool(0.4) {
        let name = ["f", "g"][rng.gen_range(0, 2)];
        let args = (0..rng.gen_range(0, 3))
            .map(|_| hash_term(rng, depth - 1, vars))
            .collect();
        return Term::apps(name, args);
    }
    match rng.gen_range(0, if vars { 5 } else { 4 }) {
        0 => Term::int(rng.gen_range(0, 4) as i64 - 2),
        1 => Term::str(["a", "b"][rng.gen_range(0, 2)]),
        2 => Term::double([0.0, -0.0, f64::NAN, -f64::NAN, 1.5][rng.gen_range(0, 5)]),
        3 => {
            Term::big(&BigInt::from_i64(1i64 << 62) * &BigInt::from_i64(rng.gen_range(1, 3) as i64))
        }
        _ => Term::var(rng.gen_range(0, 3) as u32),
    }
}

fn term_hash(t: &Term) -> u64 {
    FastState::default().hash_one(t)
}

fn tuple_hash(t: &Tuple) -> u64 {
    FastState::default().hash_one(t)
}

#[test]
fn tuples_stay_three_words() {
    // The cached hash lives in what was padding after `nvars`, and the
    // `Arc` niche keeps `Option<Tuple>` (a tombstoned slot) free.
    assert_eq!(std::mem::size_of::<Tuple>(), 24);
    assert_eq!(std::mem::size_of::<Option<Tuple>>(), 24);
}

#[test]
fn hashes_agree_with_equality() {
    let mut rng = TestRng::new(6);
    let mut equal_pairs = 0;
    for case in 0..4 * CASES {
        // Half the pairs rebuild `a` from the same stream: equal terms
        // in separate allocations, of which only `a` gets interned.
        let twin = rng.clone();
        let a: Vec<Term> = (0..2).map(|_| hash_term(&mut rng, 3, false)).collect();
        let b: Vec<Term> = if rng.gen_bool(0.5) {
            let mut t = twin.clone();
            (0..2).map(|_| hash_term(&mut t, 3, false)).collect()
        } else {
            (0..2).map(|_| hash_term(&mut rng, 3, false)).collect()
        };
        for t in &a {
            hashcons::intern(t);
        }
        for (x, y) in a.iter().zip(&b) {
            if x == y {
                assert_eq!(term_hash(x), term_hash(y), "case {case}: {x} vs {y}");
            }
        }
        let (ta, tb) = (Tuple::new(a), Tuple::new(b));
        if ta == tb {
            equal_pairs += 1;
            assert_eq!(
                tuple_hash(&ta),
                tuple_hash(&tb),
                "case {case}: {ta} vs {tb}"
            );
        }
    }
    assert!(equal_pairs >= CASES, "only {equal_pairs} equal pairs drawn");
}

#[test]
fn signed_zeros_and_nans_hash_alike() {
    let zero = Tuple::ground(vec![Term::double(0.0)]);
    let neg_zero = Tuple::ground(vec![Term::double(-0.0)]);
    assert_eq!(zero, neg_zero);
    assert_eq!(tuple_hash(&zero), tuple_hash(&neg_zero));
    let nan = Tuple::ground(vec![Term::double(f64::NAN)]);
    let neg_nan = Tuple::ground(vec![Term::double(-f64::NAN)]);
    assert_eq!(nan, neg_nan);
    assert_eq!(tuple_hash(&nan), tuple_hash(&neg_nan));
}

#[test]
fn renumbered_variants_hash_alike() {
    let mut rng = TestRng::new(7);
    for case in 0..CASES {
        let args: Vec<Term> = (0..3).map(|_| hash_term(&mut rng, 2, true)).collect();
        let shift = rng.gen_range(1, 40) as u32;
        let shifted: Vec<Term> = args.iter().map(|t| t.shift_vars(shift)).collect();
        let (a, b) = (Tuple::new(args), Tuple::new(shifted));
        assert_eq!(a, b, "case {case}");
        assert_eq!(tuple_hash(&a), tuple_hash(&b), "case {case}: {a}");
    }
}

/// Set in the child process of [`hash_seed_varies_per_process`], which
/// then prints its hash of a fixed tuple instead of spawning.
const PRINT_HASH_ENV: &str = "PROP_TERM_PRINT_TUPLE_HASH";

#[test]
fn hash_seed_varies_per_process() {
    let fixed = Tuple::ground(vec![Term::int(1), Term::str("edge"), Term::int(2)]);
    if std::env::var_os(PRINT_HASH_ENV).is_some() {
        println!("tuple-hash={}", tuple_hash(&fixed));
        return;
    }
    let child_hash = || {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "hash_seed_varies_per_process", "--nocapture"])
            .env(PRINT_HASH_ENV, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}");
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("tuple-hash="))
            .unwrap_or_else(|| panic!("no hash printed: {stdout}"))
            .parse::<u64>()
            .unwrap()
    };
    // Within this process the hash is stable; across processes the seed
    // differs, so a client cannot precompute colliding keys.
    assert_eq!(tuple_hash(&fixed), tuple_hash(&fixed.clone()));
    assert_ne!(child_hash(), child_hash());
}

/// `t` with every variable `v` replaced by `vals[v]`.
fn instantiate(t: &Term, vals: &[Term]) -> Term {
    match t {
        Term::Var(v) => vals[v.0 as usize].clone(),
        Term::App(a) => Term::app(
            a.sym(),
            a.args().iter().map(|x| instantiate(x, vals)).collect(),
        ),
        _ => t.clone(),
    }
}

#[test]
fn unifies_with_agrees_with_the_unifier() {
    // Patterns mix constants, repeated variables and functor terms;
    // half the targets instantiate the pattern (so most unify), the rest
    // are independent draws, and half of both may keep variables.
    let mut rng = TestRng::new(5);
    let (mut hits, mut ground) = (0, 0);
    for case in 0..4 * CASES {
        let arity = rng.gen_range(1, 4);
        let pattern = Tuple::new((0..arity).map(|_| term(&mut rng, 2, true)).collect());
        let vars = rng.gen_bool(0.5);
        let target = Tuple::new(if rng.gen_bool(0.5) {
            let vals: Vec<Term> = (0..4).map(|_| term(&mut rng, 1, vars)).collect();
            pattern
                .args()
                .iter()
                .map(|p| instantiate(p, &vals))
                .collect()
        } else {
            (0..arity).map(|_| term(&mut rng, 2, vars)).collect()
        });
        let mut envs = EnvSet::new();
        let (ep, et) = (envs.push_frame(4), envs.push_frame(4));
        let want = unify_all(&mut envs, pattern.args(), ep, target.args(), et);
        let got = unifies_with(pattern.args(), &target);
        assert_eq!(got, want, "case {case}: {pattern} vs {target}");
        if target.is_ground() {
            let matched = match_args(pattern.args(), target.args()).is_some();
            assert_eq!(got, matched, "case {case}: {pattern} vs ground {target}");
            ground += 1;
        }
        hits += usize::from(want);
    }
    // Both outcomes, and both kinds of target, must be exercised.
    let n = (4 * CASES) as usize;
    assert!(hits > n / 4 && hits < 3 * n / 4, "{hits} of {n} unified");
    assert!(ground > n / 2 && ground < n, "{ground} of {n} ground");
}
