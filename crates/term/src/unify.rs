//! Unification, matching, variants and subsumption (§3.1).
//!
//! [`unify`] is the engine's inference primitive: it unifies two
//! `(term, env)` pairs under an [`EnvSet`], binding variables through the
//! trail so a failed or exhausted join step can undo them. Ground functor
//! terms that have been hash-consed compare by identifier — the paper's
//! O(1) fast path for large terms.
//!
//! Like CORAL (and Prolog), unification performs no occurs check; the
//! copy-out routine in [`crate::bindenv`] detects the (pathological)
//! cyclic case.
//!
//! [`match_one_way`], [`variant`] and [`subsumes`] operate on
//! self-contained terms (as stored in relations) and implement the
//! subsumption checks of §4.2: a relation under set semantics discards a
//! new fact if an existing fact subsumes it.

use crate::bindenv::{EnvId, EnvSet};
use crate::hashcons;
use crate::term::{Term, VarId};
use coral_profile::Counter;

/// Unify `(t1, e1)` with `(t2, e2)`, binding variables in `envs`.
///
/// On failure, bindings made during the attempt are *not* undone — the
/// caller brackets attempts with [`EnvSet::mark`]/[`EnvSet::undo`], which
/// is what the nested-loops join does for every candidate tuple.
pub fn unify(envs: &mut EnvSet, t1: &Term, e1: EnvId, t2: &Term, e2: EnvId) -> bool {
    let ok = unify_inner(envs, t1, e1, t2, e2);
    coral_profile::bump(Counter::UnifyAttempts, 1);
    coral_profile::bump(Counter::UnifyFailures, u64::from(!ok));
    ok
}

// The recursive worker: counted once per top-level attempt, not per
// subterm visited.
fn unify_inner(envs: &mut EnvSet, t1: &Term, e1: EnvId, t2: &Term, e2: EnvId) -> bool {
    let (t1, e1) = envs.deref(t1, e1);
    let (t2, e2) = envs.deref(t2, e2);
    match (&t1, &t2) {
        (Term::Var(v1), Term::Var(v2)) => {
            if e1 == e2 && v1 == v2 {
                true
            } else {
                envs.bind(e1, *v1, t2.clone(), e2);
                true
            }
        }
        (Term::Var(v1), _) => {
            envs.bind(e1, *v1, t2.clone(), e2);
            true
        }
        (_, Term::Var(v2)) => {
            envs.bind(e2, *v2, t1.clone(), e1);
            true
        }
        (Term::App(a1), Term::App(a2)) => {
            // Hash-consing fast path: identified ground terms unify iff
            // their ids are equal.
            if let (Some(x), Some(y)) = (hashcons::cached_id(a1), hashcons::cached_id(a2)) {
                return x == y;
            }
            if a1.sym() != a2.sym() || a1.arity() != a2.arity() {
                return false;
            }
            for (x, y) in a1.args().iter().zip(a2.args()) {
                if !unify_inner(envs, x, e1, y, e2) {
                    return false;
                }
            }
            true
        }
        _ => t1 == t2,
    }
}

/// Unify a whole argument list pairwise (rule head against a subquery,
/// body literal against a fact).
pub fn unify_all(envs: &mut EnvSet, ts1: &[Term], e1: EnvId, ts2: &[Term], e2: EnvId) -> bool {
    debug_assert_eq!(ts1.len(), ts2.len());
    ts1.iter().zip(ts2).all(|(a, b)| unify(envs, a, e1, b, e2))
}

/// A substitution for one-way matching over self-contained terms.
type Subst = Vec<(VarId, Term)>;

fn subst_lookup(s: &Subst, v: VarId) -> Option<&Term> {
    s.iter().find(|(k, _)| *k == v).map(|(_, t)| t)
}

/// One-way matching: find a substitution θ for the variables of `pattern`
/// such that `pattern·θ == target` *syntactically* (variables in `target`
/// are treated as constants). Returns the substitution on success.
///
/// This is the primitive behind pattern-form indices (§3.3) and
/// subsumption checks.
pub fn match_one_way(pattern: &Term, target: &Term) -> Option<Subst> {
    let mut subst = Vec::new();
    if match_into(pattern, target, &mut subst) {
        Some(subst)
    } else {
        None
    }
}

fn match_into(pattern: &Term, target: &Term, subst: &mut Subst) -> bool {
    match pattern {
        Term::Var(v) => match subst_lookup(subst, *v) {
            Some(bound) => bound == target,
            None => {
                subst.push((*v, target.clone()));
                true
            }
        },
        Term::App(pa) => match target {
            Term::App(ta) => {
                if let (Some(x), Some(y)) = (hashcons::cached_id(pa), hashcons::cached_id(ta)) {
                    return x == y;
                }
                pa.sym() == ta.sym()
                    && pa.arity() == ta.arity()
                    && pa
                        .args()
                        .iter()
                        .zip(ta.args())
                        .all(|(p, t)| match_into(p, t, subst))
            }
            _ => false,
        },
        _ => pattern == target,
    }
}

/// Match a pattern argument list against a target argument list.
pub fn match_args(pattern: &[Term], target: &[Term]) -> Option<Subst> {
    if pattern.len() != target.len() {
        return None;
    }
    let mut subst = Vec::new();
    for (p, t) in pattern.iter().zip(target) {
        if !match_into(p, t, &mut subst) {
            return None;
        }
    }
    Some(subst)
}

/// Variant check (alpha-equivalence): `a` and `b` are equal up to a
/// bijective renaming of variables.
pub fn variant(a: &Term, b: &Term) -> bool {
    let mut fwd: Vec<(VarId, VarId)> = Vec::new();
    let mut bwd: Vec<(VarId, VarId)> = Vec::new();
    variant_into(a, b, &mut fwd, &mut bwd)
}

fn variant_into(
    a: &Term,
    b: &Term,
    fwd: &mut Vec<(VarId, VarId)>,
    bwd: &mut Vec<(VarId, VarId)>,
) -> bool {
    match (a, b) {
        (Term::Var(x), Term::Var(y)) => {
            let f = fwd.iter().find(|(k, _)| k == x).map(|(_, v)| *v);
            let g = bwd.iter().find(|(k, _)| k == y).map(|(_, v)| *v);
            match (f, g) {
                (None, None) => {
                    fwd.push((*x, *y));
                    bwd.push((*y, *x));
                    true
                }
                (Some(fy), Some(gx)) => fy == *y && gx == *x,
                _ => false,
            }
        }
        (Term::App(aa), Term::App(ba)) => {
            if let (Some(x), Some(y)) = (hashcons::cached_id(aa), hashcons::cached_id(ba)) {
                return x == y;
            }
            aa.sym() == ba.sym()
                && aa.arity() == ba.arity()
                && aa
                    .args()
                    .iter()
                    .zip(ba.args())
                    .all(|(p, q)| variant_into(p, q, fwd, bwd))
        }
        _ => a == b,
    }
}

/// Subsumption over argument lists: `general` subsumes `specific` iff some
/// substitution θ makes `general·θ` syntactically equal to `specific`.
/// A more general (non-ground) fact subsumes all its instances — CORAL's
/// set-semantics duplicate check for relations with non-ground facts.
pub fn subsumes(general: &[Term], specific: &[Term]) -> bool {
    match_args(general, specific).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_envs(nvars: usize) -> (EnvSet, EnvId) {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(nvars);
        (envs, e)
    }

    #[test]
    fn unify_var_with_constant() {
        let (mut envs, e) = fresh_envs(1);
        assert!(unify(&mut envs, &Term::var(0), e, &Term::int(5), e));
        assert_eq!(envs.resolve(&Term::var(0), e), Term::int(5));
    }

    #[test]
    fn unify_structures() {
        let (mut envs, e) = fresh_envs(2);
        // f(X, 10) = f(25, Y)
        let e2 = envs.push_frame(1);
        let t1 = Term::apps("f", vec![Term::var(0), Term::int(10)]);
        let t2 = Term::apps("f", vec![Term::int(25), Term::var(0)]);
        assert!(unify(&mut envs, &t1, e, &t2, e2));
        assert_eq!(envs.resolve(&t1, e).to_string(), "f(25, 10)");
        assert_eq!(envs.resolve(&t2, e2).to_string(), "f(25, 10)");
    }

    #[test]
    fn unify_fails_on_clash() {
        let (mut envs, e) = fresh_envs(1);
        let t1 = Term::apps("f", vec![Term::int(1)]);
        let t2 = Term::apps("f", vec![Term::int(2)]);
        assert!(!unify(&mut envs, &t1, e, &t2, e));
        assert!(!unify(
            &mut envs,
            &Term::apps("f", vec![]),
            e,
            &Term::apps("g", vec![]),
            e
        ));
        assert!(!unify(&mut envs, &Term::int(1), e, &Term::str("1"), e));
    }

    #[test]
    fn unify_aliased_vars() {
        let (mut envs, e) = fresh_envs(3);
        // X = Y, Y = Z, Z = 7 => X = 7
        assert!(unify(&mut envs, &Term::var(0), e, &Term::var(1), e));
        assert!(unify(&mut envs, &Term::var(1), e, &Term::var(2), e));
        assert!(unify(&mut envs, &Term::var(2), e, &Term::int(7), e));
        assert_eq!(envs.resolve(&Term::var(0), e), Term::int(7));
        // Self-unification of the same variable is a no-op success.
        let m = envs.mark();
        assert!(unify(&mut envs, &Term::var(0), e, &Term::var(0), e));
        assert_eq!(envs.mark(), m);
    }

    #[test]
    fn unify_hashconsed_fast_path() {
        let big1 = Term::list((0..500).map(Term::int).collect::<Vec<_>>());
        let big2 = Term::list((0..500).map(Term::int).collect::<Vec<_>>());
        let big3 = Term::list((1..501).map(Term::int).collect::<Vec<_>>());
        crate::hashcons::intern(&big1);
        crate::hashcons::intern(&big2);
        crate::hashcons::intern(&big3);
        let (mut envs, e) = fresh_envs(0);
        assert!(unify(&mut envs, &big1, e, &big2, e));
        assert!(!unify(&mut envs, &big1, e, &big3, e));
    }

    #[test]
    fn unify_undone_by_trail() {
        let (mut envs, e) = fresh_envs(2);
        let m = envs.mark();
        let t1 = Term::apps("f", vec![Term::var(0), Term::int(1)]);
        let t2 = Term::apps("f", vec![Term::int(9), Term::int(2)]);
        // Fails after binding V0; undo must restore it.
        assert!(!unify(&mut envs, &t1, e, &t2, e));
        envs.undo(m);
        assert!(envs.lookup(e, VarId(0)).is_none());
        assert!(unify(
            &mut envs,
            &t1,
            e,
            &Term::apps("f", vec![Term::int(3), Term::int(1)]),
            e
        ));
        assert_eq!(envs.resolve(&Term::var(0), e), Term::int(3));
    }

    #[test]
    fn one_way_match_binds_pattern_only() {
        // append pattern from §3.3: first argument matching [X|[1,2,3]]
        let pat = Term::cons(
            Term::var(0),
            Term::list(vec![Term::int(1), Term::int(2), Term::int(3)]),
        );
        let target = Term::list(vec![Term::int(5), Term::int(1), Term::int(2), Term::int(3)]);
        let subst = match_one_way(&pat, &target).unwrap();
        assert_eq!(subst, vec![(VarId(0), Term::int(5))]);
        // Target variables are constants: f(X) does not match f(1) in reverse.
        assert!(match_one_way(&target, &pat).is_none());
    }

    #[test]
    fn one_way_match_repeated_vars() {
        let pat = Term::apps("p", vec![Term::var(0), Term::var(0)]);
        assert!(match_one_way(&pat, &Term::apps("p", vec![Term::int(1), Term::int(1)])).is_some());
        assert!(match_one_way(&pat, &Term::apps("p", vec![Term::int(1), Term::int(2)])).is_none());
    }

    #[test]
    fn variant_checks() {
        let a = Term::apps("f", vec![Term::var(0), Term::var(1), Term::var(0)]);
        let b = Term::apps("f", vec![Term::var(5), Term::var(3), Term::var(5)]);
        let c = Term::apps("f", vec![Term::var(5), Term::var(3), Term::var(3)]);
        assert!(variant(&a, &b));
        assert!(!variant(&a, &c));
        // Non-injective renaming is rejected both ways.
        assert!(!variant(&c, &a));
        assert!(variant(&Term::int(1), &Term::int(1)));
        assert!(!variant(&Term::int(1), &Term::int(2)));
    }

    #[test]
    fn subsumption() {
        // p(X, Y) subsumes p(1, 2); p(X, X) does not.
        let gen = [Term::var(0), Term::var(1)];
        let dup = [Term::var(0), Term::var(0)];
        let spec = [Term::int(1), Term::int(2)];
        assert!(subsumes(&gen, &spec));
        assert!(!subsumes(&dup, &spec));
        assert!(subsumes(&dup, &[Term::int(3), Term::int(3)]));
        // Ground subsumes only itself.
        assert!(subsumes(&spec, &[Term::int(1), Term::int(2)]));
        assert!(!subsumes(&spec, &[Term::int(1), Term::int(3)]));
    }
}
