//! Ordered Search (§5.4.1).
//!
//! "Ordered Search is an evaluation mechanism that orders the use of
//! generated subgoals … and thereby provides an important strategy for
//! handling programs with negation … that are left-to-right modularly
//! stratified. … the computation is ordered by 'hiding' subgoals … a
//! 'context' … stores subgoals in an ordered fashion, and … decides at
//! each stage in the evaluation which subgoal to make available for use
//! next."
//!
//! Implementation, following the paper's two required changes:
//!
//! 1. **Rewriting** ([`rewrite_ordered`]): plain Magic Templates where
//!    *every* derived literal gets a magic guard (even with no bound
//!    arguments). Magic-rule heads are renamed to `pending_…` predicates,
//!    so newly generated subgoals are *captured* rather than released,
//!    and every negated derived literal is guarded by a `done_…` literal:
//!    "the rewriting phase … must be modified to introduce 'done'
//!    literals guarding negated literals".
//! 2. **Evaluation** ([`evaluate`]): a context stack of subgoal nodes.
//!    The top node's magic facts are released into the real magic
//!    relations and the (re-entrant) semi-naive fixpoint runs; captured
//!    `pending_` facts become new nodes pushed on top (depth-first, like
//!    a top-down evaluation); a re-generated subgoal found deeper in the
//!    context collapses the intervening nodes into one (they are mutually
//!    dependent and complete together); a fully processed top node pops,
//!    and its goals' `done_` facts are released — "the evaluation must
//!    add a goal to the corresponding 'done' predicate when (and only
//!    when) all answers to it have been generated" — unblocking the
//!    guarded negations.
//!
//! Subgoals generated *through negation* are flagged; if such a goal
//!    participates in a collapse the program is not left-to-right
//!    modularly stratified and evaluation stops with an error. Head
//!    aggregation under Ordered Search is not supported in this
//!    implementation (stratified aggregation covers Figure 3; the engine
//!    rejects the combination at load).

use crate::adorn::{adorn_module, bound_sets};
use crate::compile::CompiledModule;
use crate::engine::{answers_scan, Engine, ModuleDef};
use crate::error::{EvalError, EvalResult};
use crate::rewrite::{MagicSeed, Rewritten};
use crate::scan::AnswerScan;
use crate::seminaive::{FixpointState, Strategy};
use coral_lang::{Adornment, BodyItem, Literal, Module, PredRef, Rule};
use coral_profile::Counter;
use coral_rel::Mark;
use coral_term::{Symbol, Term, Tuple};
use std::collections::HashMap;
use std::rc::Rc;

fn magic_pred(p: PredRef, adorn: &Adornment) -> PredRef {
    PredRef {
        name: Symbol::intern(&format!("m_{}", p.name)),
        arity: adorn.bound_positions().len(),
    }
}

fn pending_pred(magic: PredRef, negated: bool) -> PredRef {
    let prefix = if negated { "pendingneg_" } else { "pending_" };
    PredRef {
        name: Symbol::intern(&format!("{prefix}{}", magic.name)),
        arity: magic.arity,
    }
}

fn done_pred(magic: PredRef) -> PredRef {
    PredRef {
        name: Symbol::intern(&format!("done_{}", magic.name)),
        arity: magic.arity,
    }
}

/// The magic predicate a pending predicate feeds, if `p` is pending.
fn magic_of_pending(p: PredRef) -> Option<(PredRef, bool)> {
    let name = p.name.as_str();
    if let Some(rest) = name.strip_prefix("pendingneg_") {
        return Some((
            PredRef {
                name: Symbol::intern(rest),
                arity: p.arity,
            },
            true,
        ));
    }
    if let Some(rest) = name.strip_prefix("pending_") {
        return Some((
            PredRef {
                name: Symbol::intern(rest),
                arity: p.arity,
            },
            false,
        ));
    }
    None
}

/// Ordered-search rewriting: always-guarded plain magic with pending
/// capture and done guards.
pub fn rewrite_ordered(module: &Module, pred: PredRef, adorn: &Adornment) -> Rewritten {
    let a = adorn_module(module, pred, adorn);
    let adornment_of = |renamed: PredRef| a.original.get(&renamed).map(|(_, ad)| ad.clone());
    let magic_literal = |lit: &Literal, ad: &Adornment| -> Literal {
        let mp = magic_pred(lit.pred_ref(), ad);
        Literal {
            pred: mp.name,
            args: ad
                .bound_positions()
                .iter()
                .map(|&i| lit.args[i].clone())
                .collect(),
        }
    };
    let mut out = Module {
        name: a.module.name.clone(),
        exports: Vec::new(),
        rules: Vec::new(),
        annotations: a.module.annotations.clone(),
    };
    let mut extra: Vec<PredRef> = Vec::new();
    let note = |p: PredRef, extra: &mut Vec<PredRef>| {
        if !extra.contains(&p) {
            extra.push(p);
        }
    };
    for rule in &a.module.rules {
        let head_adorn = adornment_of(rule.head.pred_ref()).expect("adorned head");
        let head_magic = magic_pred(rule.head.pred_ref(), &head_adorn);
        note(head_magic, &mut extra);
        // Guarded rule with done guards before negated derived literals.
        let mut body = vec![BodyItem::Literal(magic_literal(&rule.head, &head_adorn))];
        for item in &rule.body {
            if let BodyItem::Negated(l) = item {
                if let Some(la) = adornment_of(l.pred_ref()) {
                    let mlit = magic_literal(l, &la);
                    let dp = done_pred(PredRef {
                        name: mlit.pred,
                        arity: mlit.args.len(),
                    });
                    note(
                        PredRef {
                            name: mlit.pred,
                            arity: mlit.args.len(),
                        },
                        &mut extra,
                    );
                    note(dp, &mut extra);
                    body.push(BodyItem::Literal(Literal {
                        pred: dp.name,
                        args: mlit.args.clone(),
                    }));
                }
            }
            body.push(item.clone());
        }
        out.rules.push(Rule {
            head: rule.head.clone(),
            body,
            nvars: rule.nvars,
            var_names: rule.var_names.clone(),
        });
        // Pending (captured magic) rules for derived body literals.
        let bounds = bound_sets(rule, &head_adorn);
        let _ = bounds;
        for (i, item) in rule.body.iter().enumerate() {
            let (lit, negated) = match item {
                BodyItem::Literal(l) => (l, false),
                BodyItem::Negated(l) => (l, true),
                BodyItem::Compare { .. } => continue,
            };
            let Some(la) = adornment_of(lit.pred_ref()) else {
                continue;
            };
            let mlit = magic_literal(lit, &la);
            let target = pending_pred(
                PredRef {
                    name: mlit.pred,
                    arity: mlit.args.len(),
                },
                negated,
            );
            note(
                PredRef {
                    name: mlit.pred,
                    arity: mlit.args.len(),
                },
                &mut extra,
            );
            let mut body = vec![BodyItem::Literal(magic_literal(&rule.head, &head_adorn))];
            body.extend(rule.body[0..i].iter().cloned());
            out.rules.push(Rule {
                head: Literal {
                    pred: target.name,
                    args: mlit.args,
                },
                body,
                nvars: rule.nvars,
                var_names: rule.var_names.clone(),
            });
        }
    }
    let seed_pred = magic_pred(a.query_pred, &a.query_adornment);
    let origin = a.original.iter().map(|(r, (o, _))| (*r, *o)).collect();
    Rewritten {
        module: out,
        answer_pred: a.query_pred,
        seed: Some(MagicSeed {
            pred: seed_pred,
            bound_positions: a.query_adornment.bound_positions(),
            goal_id: false,
        }),
        adornment: a.query_adornment,
        origin,
        extra_local_preds: extra,
        dontcare: Vec::new(),
    }
}

struct Node {
    goals: Vec<(PredRef, Tuple, bool)>,
    released: bool,
}

/// Evaluate an ordered-search module call.
pub fn evaluate(
    engine: &Engine,
    mdef: &Rc<ModuleDef>,
    cm: Rc<CompiledModule>,
    pattern: &[Term],
) -> EvalResult<AnswerScan> {
    let mut state = FixpointState::new(Rc::clone(&cm), &mdef.setup)?
        .with_strategy(Strategy::from(mdef.controls.fixpoint));
    let seed = cm
        .rewritten
        .seed
        .as_ref()
        .expect("ordered search always has a seed");
    let root_goal = seed.seed_tuple(pattern);
    let mut context: Vec<Node> = vec![Node {
        goals: vec![(seed.pred, root_goal.clone(), false)],
        released: false,
    }];
    coral_profile::bump(Counter::OsContextPushes, 1);
    coral_profile::bump(Counter::OsMaxContextDepth, 1);
    let governor = engine.governor();
    governor.note_depth(1)?;
    let mut seen: Vec<(PredRef, Tuple)> = vec![(seed.pred, root_goal)];
    // Pending-drain watermarks.
    let pending_preds: Vec<PredRef> = cm
        .local_preds
        .iter()
        .copied()
        .filter(|p| magic_of_pending(*p).is_some())
        .collect();
    let mut watermarks: HashMap<PredRef, Mark> =
        pending_preds.iter().map(|p| (*p, Mark(0))).collect();

    while let Some(top_idx) = context.len().checked_sub(1) {
        use crate::join::ExternalResolver as _;
        if engine.cancelled() {
            return Err(EvalError::Cancelled);
        }
        engine.check_budget()?;
        // Release the top node's goals into their magic relations.
        if !context[top_idx].released {
            for (mp, fact, _) in &context[top_idx].goals {
                state.insert_local(*mp, fact.clone())?;
            }
            context[top_idx].released = true;
        }
        state.run(engine)?;
        // Drain captured subgoals.
        let mut fresh: Vec<(PredRef, Tuple, bool)> = Vec::new();
        let mut collapse_to: Option<usize> = None;
        let mut neg_involved = false;
        for pp in &pending_preds {
            let rel = state.locals().require(*pp);
            let cur = rel.current_mark();
            let from = watermarks[pp];
            if cur <= from {
                continue;
            }
            let (mp, negated) = magic_of_pending(*pp).unwrap();
            for fact in rel.scan_range(from, Some(cur)) {
                let fact = fact?;
                let key = (mp, fact.clone());
                if let Some(pos) = seen.iter().position(|k| *k == key) {
                    let _ = pos;
                    // Re-generated: if it is still in the context below
                    // the top, the nodes in between are mutually
                    // dependent.
                    for (ni, node) in context.iter().enumerate() {
                        if node.goals.iter().any(|(p, t, _)| (*p, t) == (mp, &fact)) {
                            if ni < top_idx {
                                collapse_to = Some(collapse_to.map_or(ni, |c: usize| c.min(ni)));
                                neg_involved |= negated;
                            }
                            break;
                        }
                    }
                    continue;
                }
                seen.push(key);
                fresh.push((mp, fact, negated));
            }
            watermarks.insert(*pp, cur);
        }
        if let Some(k) = collapse_to {
            // Nodes k..top complete together.
            if neg_involved
                || context[k..]
                    .iter()
                    .any(|n| n.goals.iter().any(|(_, _, neg)| *neg))
            {
                return Err(EvalError::Unstratified(
                    "subgoal cycle through negation: the program is not left-to-right \
                     modularly stratified"
                        .into(),
                ));
            }
            let mut merged = context.split_off(k);
            let mut base = merged.remove(0);
            for n in merged {
                base.goals.extend(n.goals);
            }
            // New goals discovered in the same round still go on top.
            context.push(base);
        }
        if !fresh.is_empty() {
            // Depth-first: each captured subgoal becomes its own node.
            for goal in fresh {
                context.push(Node {
                    goals: vec![goal],
                    released: false,
                });
                let depth = context.len() as u64;
                coral_profile::bump(Counter::OsContextPushes, 1);
                coral_profile::bump(Counter::OsMaxContextDepth, depth);
                governor.note_depth(depth)?;
            }
            continue;
        }
        if collapse_to.is_some() {
            continue;
        }
        // Quiescent top: all its answers are computed. Pop and mark done.
        let node = context.pop().expect("top exists");
        for (mp, fact, _) in node.goals {
            state.insert_local(done_pred(mp), fact)?;
        }
        // The released done facts may enable guarded rules; the next loop
        // iteration (or the final run below) picks them up.
        if context.is_empty() {
            state.run(engine)?;
        }
    }
    Ok(answers_scan(&state, pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_lang::parse_program;
    use coral_lang::pretty::rule_to_string;

    fn module_of(src: &str) -> Module {
        parse_program(src)
            .unwrap()
            .modules()
            .next()
            .unwrap()
            .clone()
    }

    #[test]
    fn rewrite_captures_magic_and_guards_negation() {
        let m = module_of(
            "module g. export win(b).\n\
             win(X) :- move(X, Y), not win(Y).\n\
             end_module.",
        );
        let rw = rewrite_ordered(&m, PredRef::new("win", 1), &Adornment::parse("b").unwrap());
        let texts: Vec<String> = rw.module.rules.iter().map(rule_to_string).collect();
        // The guarded rule carries the done guard before the negation.
        assert!(
            texts
                .iter()
                .any(|t| t.contains("done_m_win__b(Y), not win__b(Y)")),
            "{texts:#?}"
        );
        // Subgoal generation is captured into the pending predicate (the
        // negative flavour, since it feeds a negated literal).
        assert!(
            texts
                .iter()
                .any(|t| t.starts_with("pendingneg_m_win__b(Y) :- m_win__b(X), move(X, Y).")),
            "{texts:#?}"
        );
        // The real magic predicate has no defining rules: it is fed by
        // the context.
        assert!(
            !texts.iter().any(|t| t.starts_with("m_win__b(")),
            "{texts:#?}"
        );
        // Feed predicates are declared local.
        assert!(rw
            .extra_local_preds
            .iter()
            .any(|p| p.name.as_str() == "m_win__b"));
        assert!(rw
            .extra_local_preds
            .iter()
            .any(|p| p.name.as_str() == "done_m_win__b"));
        assert_eq!(rw.seed.as_ref().unwrap().pred.name.as_str(), "m_win__b");
    }

    #[test]
    fn pending_name_roundtrip() {
        let m = PredRef::new("m_p__bf", 2);
        let (back, neg) = magic_of_pending(pending_pred(m, false)).unwrap();
        assert_eq!(back, m);
        assert!(!neg);
        let (back, neg) = magic_of_pending(pending_pred(m, true)).unwrap();
        assert_eq!(back, m);
        assert!(neg);
        assert!(magic_of_pending(PredRef::new("plain", 1)).is_none());
    }

    #[test]
    fn positive_subgoals_use_plain_pending() {
        let m = module_of(
            "module g. export reach(b).\n\
             reach(X) :- edge(X, Y), reach(Y).\n\
             reach(X) :- sink(X).\n\
             end_module.",
        );
        let rw = rewrite_ordered(
            &m,
            PredRef::new("reach", 1),
            &Adornment::parse("b").unwrap(),
        );
        let texts: Vec<String> = rw.module.rules.iter().map(rule_to_string).collect();
        assert!(
            texts.iter().any(|t| t.starts_with("pending_m_reach__b(Y)")),
            "{texts:#?}"
        );
        assert!(
            !texts.iter().any(|t| t.contains("pendingneg_")),
            "{texts:#?}"
        );
    }
}
