//! Property tests for the term layer over seeded [`TestRng`] inputs:
//! bignum algebra, unification symmetry and trail restore, and
//! hash-consing ids agreeing with structural equality.

use coral_term::bignum::BigInt;
use coral_term::bindenv::EnvSet;
use coral_term::term::Term;
use coral_term::testutil::TestRng;
use coral_term::{hashcons, unify};

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
