//! Grouping and aggregation rules.
//!
//! A rule head may contain aggregate terms — Figure 3's
//! `s_p_length(X, Y, min(C)) :- p(X, Y, P, C)` — meaning: group the body
//! solutions by the non-aggregate head arguments and emit one fact per
//! group with the aggregate applied. CORAL supports `min`, `max`,
//! `count`, `sum`, `avg` and `any`. Aggregate rules are evaluated after
//! their body predicates' SCCs complete (stratified aggregation); the
//! modularly stratified cases go through Ordered Search.
//!
//! Duplicate semantics: solutions are deduplicated on
//! (group key, aggregate value) before accumulation — `count`/`sum` are
//! over the *distinct* values of the aggregated variable within the
//! group, consistent with the engine's set semantics.

use crate::compile::{CompiledRule, SnVersion};
use crate::error::{EvalError, EvalResult};
use crate::join::{eval_rule, JoinCtx};
use coral_lang::AggFn;
use coral_term::bindenv::EnvSet;
use coral_term::{BigInt, FastMap, FastSet, Term, Tuple};

struct Acc {
    f: AggFn,
    /// Current best/witness for min/max/any.
    best: Option<Term>,
    /// Distinct values seen (count/sum/avg).
    values: Vec<Term>,
}

impl Acc {
    fn new(f: AggFn) -> Acc {
        Acc {
            f,
            best: None,
            values: Vec::new(),
        }
    }

    fn add(&mut self, v: Term) {
        match self.f {
            AggFn::Min => {
                if self.best.as_ref().map(|b| v.order_cmp(b).is_lt()) != Some(false) {
                    self.best = Some(v);
                }
            }
            AggFn::Max => {
                if self.best.as_ref().map(|b| v.order_cmp(b).is_gt()) != Some(false) {
                    self.best = Some(v);
                }
            }
            AggFn::Any => {
                if self.best.is_none() {
                    self.best = Some(v);
                }
            }
            AggFn::Count | AggFn::Sum | AggFn::Avg => self.values.push(v),
        }
    }

    fn finish(self) -> EvalResult<Term> {
        match self.f {
            AggFn::Min | AggFn::Max | AggFn::Any => Ok(self.best.expect("non-empty group")),
            AggFn::Count => Ok(Term::int(self.values.len() as i64)),
            AggFn::Sum | AggFn::Avg => {
                let mut int_sum = BigInt::zero();
                let mut f_sum = 0.0f64;
                let mut any_double = false;
                for v in &self.values {
                    match v {
                        Term::Int(i) => {
                            int_sum = &int_sum + &BigInt::from_i64(*i);
                            f_sum += *i as f64;
                        }
                        Term::Big(b) => {
                            int_sum = &int_sum + b;
                            f_sum += b.to_string().parse::<f64>().unwrap_or(f64::NAN);
                        }
                        Term::Double(d) => {
                            any_double = true;
                            f_sum += d.get();
                        }
                        other => {
                            return Err(EvalError::Arith(format!(
                                "cannot sum non-numeric value {other}"
                            )))
                        }
                    }
                }
                if self.f == AggFn::Avg {
                    let n = self.values.len() as f64;
                    return Ok(Term::double(f_sum / n));
                }
                if any_double {
                    Ok(Term::double(f_sum))
                } else {
                    match int_sum.to_i64() {
                        Some(v) => Ok(Term::int(v)),
                        None => Ok(Term::big(int_sum)),
                    }
                }
            }
        }
    }
}

/// Evaluate one aggregate rule over the complete body relations,
/// emitting one head fact per group via `emit`.
pub fn eval_agg_rule(
    ctx: &JoinCtx<'_>,
    rule: &CompiledRule,
    envs: &mut EnvSet,
    emit: &mut dyn FnMut(Tuple) -> EvalResult<()>,
) -> EvalResult<()> {
    let agg = rule.agg.as_ref().expect("aggregate rule");
    // group key -> (accumulators, seen (key, values) dedup set)
    let mut groups: FastMap<Tuple, Vec<Acc>> = FastMap::default();
    let mut seen: FastSet<(Tuple, Tuple)> = FastSet::default();

    eval_rule(
        ctx,
        rule,
        SnVersion { delta_idx: None },
        envs,
        &mut |envs, env| {
            // Resolve group key and aggregate values under one varmap so
            // shared variables stay consistent.
            let mut varmap = Vec::new();
            let mut next = 0;
            let key = Tuple::new(
                agg.group_positions
                    .iter()
                    .map(|&p| envs.resolve_with(&rule.head.args[p], env, &mut varmap, &mut next))
                    .collect(),
            );
            let vals = Tuple::new(
                agg.aggs
                    .iter()
                    .map(|(_, _, v)| envs.resolve_with(&Term::Var(*v), env, &mut varmap, &mut next))
                    .collect(),
            );
            if !vals.is_ground() {
                return Err(EvalError::Unsafe(format!(
                    "aggregated variable not ground in rule for {}",
                    rule.head.pred
                )));
            }
            if !seen.insert((key.clone(), vals.clone())) {
                return Ok(());
            }
            let accs = groups
                .entry(key)
                .or_insert_with(|| agg.aggs.iter().map(|(_, f, _)| Acc::new(*f)).collect());
            for (acc, v) in accs.iter_mut().zip(vals.args()) {
                acc.add(v.clone());
            }
            Ok(())
        },
    )?;

    for (key, accs) in groups {
        let mut finished = Vec::with_capacity(accs.len());
        for acc in accs {
            finished.push(acc.finish()?);
        }
        // Rebuild the full head tuple: group args in their positions,
        // aggregate results in theirs.
        let arity = rule.head.args.len();
        let mut args = vec![Term::int(0); arity];
        for (k, &p) in agg.group_positions.iter().enumerate() {
            args[p] = key.args()[k].clone();
        }
        for (k, (p, _, _)) in agg.aggs.iter().enumerate() {
            args[*p] = finished[k].clone();
        }
        emit(Tuple::new(args))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::BodyElem;
    use crate::join::{ExternalResolver, LocalRels, Ranges};
    use crate::scan::{rel_scan, AnswerScan};
    use coral_lang::{Literal, PredRef};
    use coral_rel::{HashRelation, Relation};
    use coral_term::Symbol;
    use std::rc::Rc;

    struct OneRel {
        pred: PredRef,
        rel: Rc<HashRelation>,
    }

    impl ExternalResolver for OneRel {
        fn candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan> {
            assert_eq!(lit.pred_ref(), self.pred);
            Ok(rel_scan(self.rel.lookup(pattern)))
        }
    }

    /// s(X, <agg>(C)) :- p(X, C).
    fn agg_rule(f: AggFn) -> CompiledRule {
        CompiledRule {
            head: Literal {
                pred: Symbol::intern("s"),
                args: vec![Term::var(0), Term::apps(f.name(), vec![Term::var(1)])],
            },
            agg: Some(crate::compile::AggHead {
                group_positions: vec![0],
                aggs: vec![(1, f, coral_term::VarId(1))],
            }),
            body: vec![BodyElem::External {
                lit: Literal {
                    pred: Symbol::intern("p"),
                    args: vec![Term::var(0), Term::var(1)],
                },
            }],
            nvars: 2,
            var_names: vec!["X".into(), "C".into()],
            versions: vec![SnVersion { delta_idx: None }],
            backtrack: vec![None],
        }
    }

    fn run(f: AggFn, facts: &[(i64, i64)]) -> Vec<String> {
        let rel = Rc::new(HashRelation::new(2));
        for (x, c) in facts {
            rel.insert(Tuple::ground(vec![Term::int(*x), Term::int(*c)]))
                .unwrap();
        }
        let resolver = OneRel {
            pred: PredRef::new("p", 2),
            rel,
        };
        let locals = LocalRels::new();
        let ranges = Ranges::default();
        let ctx = JoinCtx {
            locals: &locals,
            external: &resolver,
            ranges: &ranges,
            hashjoin: None,
        };
        let mut envs = EnvSet::new();
        let rule = agg_rule(f);
        let mut out = Vec::new();
        eval_agg_rule(&ctx, &rule, &mut envs, &mut |t| {
            out.push(t.to_string());
            Ok(())
        })
        .unwrap();
        out.sort();
        out
    }

    #[test]
    fn min_max_groupwise() {
        let facts = [(1, 5), (1, 3), (1, 9), (2, 7)];
        assert_eq!(run(AggFn::Min, &facts), vec!["(1, 3)", "(2, 7)"]);
        assert_eq!(run(AggFn::Max, &facts), vec!["(1, 9)", "(2, 7)"]);
    }

    #[test]
    fn count_and_sum_distinct() {
        let facts = [(1, 5), (1, 5), (1, 3), (2, 7)];
        // (1,5) deduplicated by set semantics before aggregation.
        assert_eq!(run(AggFn::Count, &facts), vec!["(1, 2)", "(2, 1)"]);
        assert_eq!(run(AggFn::Sum, &facts), vec!["(1, 8)", "(2, 7)"]);
    }

    #[test]
    fn avg_is_double() {
        assert_eq!(run(AggFn::Avg, &[(1, 3), (1, 5)]), vec!["(1, 4.0)"]);
    }

    #[test]
    fn any_picks_one_witness() {
        let out = run(AggFn::Any, &[(1, 3), (1, 5)]);
        assert_eq!(out.len(), 1);
        assert!(out[0] == "(1, 3)" || out[0] == "(1, 5)");
    }

    #[test]
    fn empty_body_produces_no_groups() {
        assert!(run(AggFn::Min, &[]).is_empty());
        assert!(
            run(AggFn::Count, &[]).is_empty(),
            "no group, no count-0 row"
        );
    }
}
