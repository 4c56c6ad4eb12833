//! Arithmetic evaluation and comparison built-ins.
//!
//! Figure 3 relies on `C1 = C + EC`; this module evaluates arithmetic
//! functor terms (`+ - * / mod`, unary `-`) over integers, doubles and
//! arbitrary-precision integers, with the usual numeric promotions
//! (int → bigint on overflow, int/bigint → double when mixed with a
//! double).

use crate::error::{EvalError, EvalResult};
use coral_lang::{CmpOp, Literal};
use coral_term::bindenv::{EnvId, EnvSet};
use coral_term::{unify, BigInt, Term};

fn is_arith_op(name: &str, arity: usize) -> bool {
    matches!(
        (name, arity),
        ("+", 2) | ("-", 2) | ("*", 2) | ("/", 2) | ("mod", 2) | ("-", 1)
    )
}

fn to_f64(t: &Term) -> Option<f64> {
    match t {
        Term::Int(v) => Some(*v as f64),
        Term::Double(d) => Some(d.get()),
        Term::Big(b) => b.to_string().parse().ok(),
        _ => None,
    }
}

fn big_of(t: &Term) -> Option<BigInt> {
    match t {
        Term::Int(v) => Some(BigInt::from_i64(*v)),
        Term::Big(b) => Some((**b).clone()),
        _ => None,
    }
}

/// Normalize a bigint result back to `Int` when it fits.
fn norm_big(b: BigInt) -> Term {
    match b.to_i64() {
        Some(v) => Term::int(v),
        None => Term::big(b),
    }
}

fn apply_binop(op: &str, a: &Term, b: &Term) -> EvalResult<Term> {
    // Double contaminates: if either side is a double, compute in f64.
    if matches!(a, Term::Double(_)) || matches!(b, Term::Double(_)) {
        let (x, y) = (to_f64(a), to_f64(b));
        let (x, y) = match (x, y) {
            (Some(x), Some(y)) => (x, y),
            _ => {
                return Err(EvalError::Arith(format!(
                    "non-numeric operand in {a} {op} {b}"
                )))
            }
        };
        return Ok(Term::double(match op {
            "+" => x + y,
            "-" => x - y,
            "*" => x * y,
            "/" => {
                if y == 0.0 {
                    return Err(EvalError::Arith("division by zero".into()));
                }
                x / y
            }
            "mod" => {
                if y == 0.0 {
                    return Err(EvalError::Arith("division by zero".into()));
                }
                x % y
            }
            _ => unreachable!(),
        }));
    }
    // Integer fast path with overflow promotion to bigint.
    if let (Term::Int(x), Term::Int(y)) = (a, b) {
        let r = match op {
            "+" => x.checked_add(*y),
            "-" => x.checked_sub(*y),
            "*" => x.checked_mul(*y),
            "/" => {
                if *y == 0 {
                    return Err(EvalError::Arith("division by zero".into()));
                }
                x.checked_div(*y)
            }
            "mod" => {
                if *y == 0 {
                    return Err(EvalError::Arith("division by zero".into()));
                }
                x.checked_rem(*y)
            }
            _ => unreachable!(),
        };
        if let Some(r) = r {
            return Ok(Term::int(r));
        }
        // Fall through to bigint on overflow.
    }
    let (x, y) = match (big_of(a), big_of(b)) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(EvalError::Arith(format!(
                "non-numeric operand in {a} {op} {b}"
            )))
        }
    };
    Ok(match op {
        "+" => norm_big(&x + &y),
        "-" => norm_big(&x - &y),
        "*" => norm_big(&x * &y),
        "/" => {
            if y.is_zero() {
                return Err(EvalError::Arith("division by zero".into()));
            }
            norm_big(x.divmod(&y).0)
        }
        "mod" => {
            if y.is_zero() {
                return Err(EvalError::Arith("division by zero".into()));
            }
            norm_big(x.divmod(&y).1)
        }
        _ => unreachable!(),
    })
}

/// Evaluate a term under its binding environment: dereference variables
/// and reduce arithmetic functor applications whose operands are numeric.
/// Non-arithmetic structure is returned as-is (still environment-bound —
/// callers unify with the result rather than resolving it).
///
/// Returns `Ok(None)` if the term contains an unbound variable inside an
/// arithmetic operator (the caller decides whether that is an unsafe
/// rule or a residual unification).
pub fn eval_arith(envs: &EnvSet, term: &Term, env: EnvId) -> EvalResult<Option<(Term, EnvId)>> {
    let (t, e) = envs.deref(term, env);
    match &t {
        Term::App(a) if is_arith_op(&a.sym().as_str(), a.arity()) => {
            let op = a.sym().as_str();
            if a.arity() == 1 {
                // Unary minus.
                let inner = match eval_arith(envs, &a.args()[0], e)? {
                    Some((t, _)) => t,
                    None => return Ok(None),
                };
                let r = match inner {
                    Term::Int(v) => Term::int(-v),
                    Term::Double(d) => Term::double(-d.get()),
                    Term::Big(b) => norm_big(-(*b).clone()),
                    other => {
                        return Err(EvalError::Arith(format!(
                            "non-numeric operand in -({other})"
                        )))
                    }
                };
                return Ok(Some((r, e)));
            }
            let lhs = match eval_arith(envs, &a.args()[0], e)? {
                Some((t, _)) => t,
                None => return Ok(None),
            };
            let rhs = match eval_arith(envs, &a.args()[1], e)? {
                Some((t, _)) => t,
                None => return Ok(None),
            };
            if !is_numeric(&lhs) || !is_numeric(&rhs) {
                return Err(EvalError::Arith(format!(
                    "non-numeric operand in {lhs} {op} {rhs}"
                )));
            }
            Ok(Some((apply_binop(&op, &lhs, &rhs)?, e)))
        }
        Term::Var(_) => Ok(None),
        _ => Ok(Some((t, e))),
    }
}

fn is_numeric(t: &Term) -> bool {
    matches!(t, Term::Int(_) | Term::Double(_) | Term::Big(_))
}

/// Evaluate the body comparison `lhs op rhs` under `env` — the one
/// evaluator the join and the pipelined machine share. `=` evaluates
/// arithmetic on either side and unifies, leaving its bindings on the
/// trail; `\=` succeeds iff the sides do not unify and leaves no
/// bindings; `< =< > >=` need both sides ground after arithmetic and
/// compare numbers numerically, strings lexicographically. `head` names
/// the rule in the unsafe-operand error.
pub fn eval_compare(
    envs: &mut EnvSet,
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
    env: EnvId,
    head: &Literal,
) -> EvalResult<bool> {
    let evaluated = |envs: &EnvSet, t: &Term| -> EvalResult<(Term, EnvId)> {
        Ok(eval_arith(envs, t, env)?.unwrap_or_else(|| (t.clone(), env)))
    };
    match op {
        CmpOp::Unify => {
            let (lt, le) = evaluated(envs, lhs)?;
            let (rt, re) = evaluated(envs, rhs)?;
            Ok(unify(envs, &lt, le, &rt, re))
        }
        CmpOp::NotUnify => {
            let m = envs.mark();
            let unified = unify(envs, lhs, env, rhs, env);
            envs.undo(m);
            Ok(!unified)
        }
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let ground = |t: &Term| -> EvalResult<Term> {
                let value = eval_arith(envs, t, env)?.map(|(v, e)| envs.resolve(&v, e));
                value.filter(Term::is_ground).ok_or_else(|| {
                    EvalError::Unsafe(format!(
                        "comparison operand not ground: {t} in rule {}",
                        head.pred
                    ))
                })
            };
            let ord = ground(lhs)?.order_cmp(&ground(rhs)?);
            Ok(match op {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_lang::parse_term;
    use coral_term::VarId;

    fn eval(src: &str) -> EvalResult<Option<Term>> {
        let (t, names) = parse_term(src).unwrap();
        let mut envs = EnvSet::new();
        let e = envs.push_frame(names.len());
        Ok(eval_arith(&envs, &t, e)?.map(|(t, _)| t))
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(eval("1 + 2 * 3").unwrap(), Some(Term::int(7)));
        assert_eq!(eval("10 - 4 - 3").unwrap(), Some(Term::int(3)));
        assert_eq!(eval("7 / 2").unwrap(), Some(Term::int(3)));
        assert_eq!(eval("7 mod 2").unwrap(), Some(Term::int(1)));
        assert_eq!(eval("-(3 + 4)").unwrap(), Some(Term::int(-7)));
    }

    #[test]
    fn double_arithmetic() {
        assert_eq!(eval("1.5 + 2").unwrap(), Some(Term::double(3.5)));
        assert_eq!(eval("3 * 0.5").unwrap(), Some(Term::double(1.5)));
        assert_eq!(eval("7.0 / 2").unwrap(), Some(Term::double(3.5)));
    }

    #[test]
    fn overflow_promotes_to_bigint() {
        let r = eval(&format!("{} * {}", i64::MAX, 2)).unwrap().unwrap();
        assert_eq!(r.to_string(), "18446744073709551614");
        // And bigint results that fit come back as Int.
        let r = eval("123456789012345678901234567890 mod 7")
            .unwrap()
            .unwrap();
        assert!(matches!(r, Term::Int(_)));
    }

    #[test]
    fn division_by_zero() {
        assert!(matches!(eval("1 / 0"), Err(EvalError::Arith(_))));
        assert!(matches!(eval("1 mod 0"), Err(EvalError::Arith(_))));
        assert!(matches!(eval("1.0 / 0.0"), Err(EvalError::Arith(_))));
    }

    #[test]
    fn non_numeric_is_an_error() {
        assert!(matches!(eval("foo + 1"), Err(EvalError::Arith(_))));
        assert!(matches!(eval("[1] * 2"), Err(EvalError::Arith(_))));
    }

    #[test]
    fn unbound_var_yields_none() {
        assert_eq!(eval("X + 1").unwrap(), None);
    }

    #[test]
    fn bound_var_participates() {
        let (t, names) = parse_term("X + 1").unwrap();
        let mut envs = EnvSet::new();
        let e = envs.push_frame(names.len());
        envs.bind(e, VarId(0), Term::int(41), e);
        let (r, _) = eval_arith(&envs, &t, e).unwrap().unwrap();
        assert_eq!(r, Term::int(42));
    }

    #[test]
    fn non_arith_structure_passes_through() {
        assert_eq!(eval("f(1, 2)").unwrap().unwrap().to_string(), "f(1, 2)");
        // Evaluation is not deep inside non-arith functors.
        assert_eq!(
            eval("g(1 + 2)").unwrap().unwrap().to_string(),
            "g(\"+\"(1, 2))"
        );
    }

    #[test]
    fn comparisons() {
        use coral_lang::CmpOp::*;
        let head = Literal {
            pred: coral_term::Symbol::intern("r"),
            args: Vec::new(),
        };
        let mut envs = EnvSet::new();
        let e = envs.push_frame(1);
        let mut cmp = |op, a: Term, b: Term| eval_compare(&mut envs, op, &a, &b, e, &head);
        assert!(cmp(Lt, Term::int(1), Term::double(1.5)).unwrap());
        assert!(cmp(Ge, Term::int(2), Term::int(2)).unwrap());
        assert!(!cmp(Gt, Term::str("a"), Term::str("b")).unwrap());
        assert!(cmp(Le, Term::str("a"), Term::str("b")).unwrap());
        let unsafe_operand = cmp(Lt, Term::var(0), Term::int(1)).unwrap_err();
        assert!(unsafe_operand.to_string().contains("in rule r"));
        // `\=` leaves no binding behind; `=` evaluates and binds.
        assert!(!cmp(NotUnify, Term::var(0), Term::int(1)).unwrap());
        let sum = Term::apps("+", vec![Term::int(1), Term::int(2)]);
        assert!(cmp(Unify, Term::var(0), sum).unwrap());
        assert!(cmp(Ge, Term::var(0), Term::int(3)).unwrap());
    }
}
