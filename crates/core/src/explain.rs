//! The Explanation tool: derivation trees for derived facts.
//!
//! The paper's acknowledgements credit Bill Roth with "the Explanation
//! tool": given a derived fact, show *why* it holds — which rule fired,
//! with which body facts, recursively down to base facts. This module
//! reconstructs such a derivation after the fact: the module is evaluated
//! without magic rewriting (so the rule structure users wrote is the rule
//! structure shown), and a well-founded proof is searched rule by rule,
//! first matching the head against the fact and then re-joining the body
//! over the completed relations.
//!
//! Cyclic justifications (a fact "explained" by itself, possible in
//! recursive programs) are rejected by tracking the facts on the current
//! proof path, so the tree returned is always well-founded.

use crate::compile::{BodyElem, CompiledRule, SnVersion};
use crate::engine::Engine;
use crate::error::{EvalError, EvalResult};
use crate::join::{eval_rule, ExternalResolver as _, JoinCtx, Ranges};
use crate::rewrite::rewrite_module;
use crate::seminaive::{FixpointState, Strategy};
use coral_lang::pretty::rule_to_string;
use coral_lang::{Adornment, CmpOp, Literal, PredRef, RewriteKind};
use coral_rel::Relation;
use coral_term::bindenv::EnvSet;
use coral_term::{Term, Tuple};
use std::collections::HashSet;
use std::rc::Rc;

/// One node of a derivation tree.
#[derive(Debug, Clone)]
pub struct Derivation {
    /// The derived (or base) fact, with its user-facing predicate name.
    pub pred: PredRef,
    /// The fact itself.
    pub fact: Tuple,
    /// The source rule that produced it (`None` for base facts,
    /// builtins, and facts from other modules).
    pub rule: Option<String>,
    /// Derivations of the body facts used, in body order.
    pub children: Vec<Derivation>,
}

impl Derivation {
    fn fact_text(&self) -> String {
        let args: Vec<String> = self.fact.args().iter().map(|t| t.to_string()).collect();
        if args.is_empty() {
            self.pred.name.to_string()
        } else {
            format!("{}({})", self.pred.name, args.join(", "))
        }
    }

    /// Render the tree with box-drawing indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, "", true, true);
        out
    }

    fn render_into(&self, out: &mut String, prefix: &str, last: bool, root: bool) {
        if root {
            out.push_str(&self.fact_text());
        } else {
            out.push_str(prefix);
            out.push_str(if last { "└─ " } else { "├─ " });
            out.push_str(&self.fact_text());
        }
        match &self.rule {
            Some(rule) => {
                out.push_str(&format!("   [{rule}]"));
            }
            None => out.push_str("   (base)"),
        }
        out.push('\n');
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        for (i, c) in self.children.iter().enumerate() {
            c.render_into(out, &child_prefix, i + 1 == self.children.len(), false);
        }
    }
}

/// A body fact used by a rule application, as discovered by the re-join.
struct Use {
    pred: PredRef,
    fact: Tuple,
    local: bool,
}

struct Explainer<'e> {
    engine: &'e Engine,
    state: FixpointState,
}

impl Explainer<'_> {
    fn original(&self, renamed: PredRef) -> PredRef {
        self.state
            .compiled()
            .rewritten
            .origin
            .get(&renamed)
            .copied()
            .unwrap_or(renamed)
    }

    /// Find candidate rule applications producing `fact` for renamed
    /// pred `rp`, excluding applications that directly cite a fact on
    /// the current proof `path` (deeper cycles are handled by the
    /// caller's backtracking). Bounded per rule to keep pathological
    /// fan-outs in check.
    fn find_applications(
        &mut self,
        rp: PredRef,
        fact: &Tuple,
        path: &HashSet<(PredRef, Tuple)>,
    ) -> EvalResult<Vec<(usize, Vec<Use>)>> {
        const PER_RULE_LIMIT: usize = 64;
        let mut out: Vec<(usize, Vec<Use>)> = Vec::new();
        let cm = Rc::clone(self.state.compiled());
        // Collect candidate rules in a stable order across SCCs.
        let mut candidates: Vec<(usize, &CompiledRule)> = Vec::new();
        let mut idx = 0usize;
        for scc in &cm.sccs {
            for r in scc.rules.iter().chain(&scc.agg_rules) {
                if r.head.pred_ref() == rp {
                    candidates.push((idx, r));
                }
                idx += 1;
            }
        }
        for (rule_idx, crule) in candidates {
            if crule.agg.is_some() {
                // Aggregate rules: the group members are the
                // justification; show the contributing body facts.
                if let Some(uses) = self.agg_uses(crule, fact)? {
                    out.push((rule_idx, uses));
                }
                continue;
            }
            // Synthesize: head :- (head_arg_i = fact_arg_i)…, body.
            let fact_shifted: Vec<Term> = fact
                .args()
                .iter()
                .map(|t| t.shift_vars(crule.nvars))
                .collect();
            let mut body: Vec<BodyElem> = fact_shifted
                .iter()
                .zip(&crule.head.args)
                .map(|(f, h)| BodyElem::Compare {
                    op: CmpOp::Unify,
                    lhs: h.clone(),
                    rhs: f.clone(),
                })
                .collect();
            let guards = body.len();
            body.extend(crule.body.iter().cloned());
            let probe = CompiledRule::synthesized(crule, crule.nvars + fact.nvars(), body);
            let ranges = Ranges::default();
            let ctx = JoinCtx {
                locals: self.state.locals(),
                external: self.engine,
                ranges: &ranges,
                hashjoin: None,
            };
            let mut envs = EnvSet::new();
            let crule_body = &crule.body;
            let mut collected = 0usize;
            let result = eval_rule(
                &ctx,
                &probe,
                SnVersion { delta_idx: None },
                &mut envs,
                &mut |envs, env| {
                    let mut uses = Vec::with_capacity(crule_body.len());
                    let mut acyclic = true;
                    for elem in &probe.body[guards..] {
                        let (lit, local) = match elem {
                            BodyElem::Local { lit, .. } => (lit, true),
                            BodyElem::External { lit } => (lit, false),
                            BodyElem::Negated { .. } | BodyElem::Compare { .. } => continue,
                        };
                        let used =
                            Tuple::new(lit.args.iter().map(|t| envs.resolve(t, env)).collect());
                        let upred = lit.pred_ref();
                        if local && path.contains(&(upred, used.clone())) {
                            acyclic = false;
                            break;
                        }
                        uses.push(Use {
                            pred: upred,
                            fact: used,
                            local,
                        });
                    }
                    if acyclic {
                        out.push((rule_idx, uses));
                        collected += 1;
                        if collected >= PER_RULE_LIMIT {
                            return Err(EvalError::Interrupted);
                        }
                    }
                    Ok(())
                },
            );
            match result {
                Ok(_) => {}
                Err(EvalError::Interrupted) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// For aggregate rules: collect the group's contributing body facts.
    fn agg_uses(&mut self, crule: &CompiledRule, fact: &Tuple) -> EvalResult<Option<Vec<Use>>> {
        let agg = crule.agg.as_ref().unwrap();
        // Match the group columns of the fact against the head.
        let mut envs = EnvSet::new();
        let env = envs.push_frame(crule.nvars as usize);
        let fenv = envs.push_frame(fact.nvars() as usize);
        for &p in &agg.group_positions {
            if !coral_term::unify(&mut envs, &crule.head.args[p], env, &fact.args()[p], fenv) {
                return Ok(None);
            }
        }
        drop(envs);
        // Re-join the body gathering contributors.
        let ranges = Ranges::default();
        let ctx = JoinCtx {
            locals: self.state.locals(),
            external: self.engine,
            ranges: &ranges,
            hashjoin: None,
        };
        let mut envs = EnvSet::new();
        let mut uses: Vec<Use> = Vec::new();
        // Bind group columns by synthesizing guards as in the plain case.
        let fact_shifted: Vec<Term> = fact
            .args()
            .iter()
            .map(|t| t.shift_vars(crule.nvars))
            .collect();
        let mut body: Vec<BodyElem> = agg
            .group_positions
            .iter()
            .map(|&p| BodyElem::Compare {
                op: CmpOp::Unify,
                lhs: crule.head.args[p].clone(),
                rhs: fact_shifted[p].clone(),
            })
            .collect();
        let guards = body.len();
        body.extend(crule.body.iter().cloned());
        let probe = CompiledRule::synthesized(crule, crule.nvars + fact.nvars(), body);
        eval_rule(
            &ctx,
            &probe,
            SnVersion { delta_idx: None },
            &mut envs,
            &mut |envs, env| {
                for elem in &probe.body[guards..] {
                    let (lit, local) = match elem {
                        BodyElem::Local { lit, .. } => (lit, true),
                        BodyElem::External { lit } => (lit, false),
                        _ => continue,
                    };
                    let used = Tuple::new(lit.args.iter().map(|t| envs.resolve(t, env)).collect());
                    if !uses
                        .iter()
                        .any(|u| u.pred == lit.pred_ref() && u.fact == used)
                    {
                        uses.push(Use {
                            pred: lit.pred_ref(),
                            fact: used,
                            local,
                        });
                    }
                }
                Ok(())
            },
        )?;
        if uses.is_empty() {
            Ok(None)
        } else {
            Ok(Some(uses))
        }
    }

    /// Search for a well-founded proof, backtracking across alternative
    /// rule applications when a chosen child cannot itself be proved
    /// without revisiting a fact on the path.
    fn explain_rec(
        &mut self,
        rp: PredRef,
        fact: &Tuple,
        path: &mut HashSet<(PredRef, Tuple)>,
        depth: usize,
    ) -> EvalResult<Option<Derivation>> {
        let orig = self.original(rp);
        if depth > 2_000 {
            return Err(EvalError::ModuleProtocol(
                "derivation deeper than 2000; giving up".into(),
            ));
        }
        let applications = self.find_applications(rp, fact, path)?;
        path.insert((rp, fact.clone()));
        'apps: for (rule_idx, uses) in applications {
            let rule_text = self.rule_text(rp, rule_idx);
            let mut children = Vec::with_capacity(uses.len());
            for u in &uses {
                if u.local {
                    match self.explain_rec(u.pred, &u.fact, path, depth + 1)? {
                        Some(child) => children.push(child),
                        None => continue 'apps,
                    }
                } else {
                    children.push(Derivation {
                        pred: u.pred,
                        fact: u.fact.clone(),
                        rule: None,
                        children: Vec::new(),
                    });
                }
            }
            path.remove(&(rp, fact.clone()));
            return Ok(Some(Derivation {
                pred: orig,
                fact: fact.clone(),
                rule: rule_text,
                children,
            }));
        }
        path.remove(&(rp, fact.clone()));
        Ok(None)
    }

    fn rule_text(&self, rp: PredRef, rule_idx: usize) -> Option<String> {
        // Use the rewritten module's own rules (no magic: structure is
        // the user's, names adorned); strip the adornment suffixes back
        // to the originals for display. `rule_idx` is the global rule
        // position assigned by `find_application`'s scan order.
        let cm = self.state.compiled();
        let mut k = 0usize;
        for scc in &cm.sccs {
            for r in scc.rules.iter().chain(&scc.agg_rules) {
                if k != rule_idx {
                    k += 1;
                    continue;
                }
                {
                    debug_assert_eq!(r.head.pred_ref(), rp);
                    // Find the matching AST rule in the rewritten module.
                    let mut rule = coral_lang::Rule {
                        head: r.head.clone(),
                        body: r
                            .body
                            .iter()
                            .map(|e| match e {
                                BodyElem::Local { lit, .. } | BodyElem::External { lit } => {
                                    coral_lang::BodyItem::Literal(lit.clone())
                                }
                                BodyElem::Negated { lit, .. } => {
                                    coral_lang::BodyItem::Negated(lit.clone())
                                }
                                BodyElem::Compare { op, lhs, rhs } => {
                                    coral_lang::BodyItem::Compare {
                                        op: *op,
                                        lhs: lhs.clone(),
                                        rhs: rhs.clone(),
                                    }
                                }
                            })
                            .collect(),
                        nvars: r.nvars,
                        var_names: r.var_names.clone(),
                    };
                    // De-adorn predicate names for display.
                    rule.head.pred = self.original(rule.head.pred_ref()).name;
                    for item in &mut rule.body {
                        match item {
                            coral_lang::BodyItem::Literal(l) | coral_lang::BodyItem::Negated(l) => {
                                l.pred = self.original(l.pred_ref()).name;
                            }
                            _ => {}
                        }
                    }
                    return Some(rule_to_string(&rule));
                }
            }
        }
        None
    }
}

/// Explain a ground fact over an exported predicate: evaluate its module
/// (without magic, so the user's rule structure is preserved) and return
/// a well-founded derivation tree, or `None` if the fact does not hold.
pub fn explain_fact(engine: &Engine, literal: &Literal) -> EvalResult<Option<Derivation>> {
    let pred = literal.pred_ref();
    let fact = Tuple::new(literal.args.clone());
    if !fact.is_ground() {
        return Err(EvalError::ModuleProtocol(
            "explanation requires a ground fact".into(),
        ));
    }
    // Base relation: leaf if present.
    if engine.module_of(pred).is_none() {
        let present = engine
            .candidates(literal, fact.args())?
            .collect::<EvalResult<Vec<Tuple>>>()?
            .contains(&fact);
        return Ok(present.then(|| Derivation {
            pred,
            fact,
            rule: None,
            children: Vec::new(),
        }));
    }
    let mdef = engine.module_of(pred).unwrap();
    let rewritten = rewrite_module(
        &mdef.ast,
        pred,
        &Adornment::all_free(pred.arity),
        RewriteKind::None,
        &HashSet::new(),
        &[],
    );
    let cm = Rc::new(crate::compile::compile(
        rewritten,
        coral_lang::FixpointKind::Bsn,
        &[],
        false,
    )?);
    let mut state = FixpointState::new(Rc::clone(&cm), &mdef.setup)?.with_strategy(Strategy::Bsn);
    state.run(engine)?;
    let rp = cm.rewritten.answer_pred;
    // Does the fact hold at all?
    let holds = state
        .locals()
        .require(rp)
        .lookup(fact.args())
        .flatten()
        .any(|t| t == fact);
    if !holds {
        return Ok(None);
    }
    let mut explainer = Explainer { engine, state };
    let mut path = HashSet::new();
    match explainer.explain_rec(rp, &fact, &mut path, 0)? {
        Some(d) => Ok(Some(d)),
        // The fact holds but the bounded search missed a well-founded
        // proof (only possible past the per-rule solution cap): report
        // it as an unexplained leaf rather than failing.
        None => Ok(Some(Derivation {
            pred,
            fact,
            rule: None,
            children: Vec::new(),
        })),
    }
}
