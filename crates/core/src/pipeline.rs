//! Pipelined (top-down) module evaluation (§5.2).
//!
//! "For pipelining, which is essentially top-down evaluation, the rule
//! evaluation code is designed to work in a co-routining fashion — when
//! rule evaluation is invoked, using the get-next-tuple interface, it
//! generates an answer (if there is one) and transfers control back to
//! the consumer of answers. … If the rule evaluation of the queried
//! predicate succeeds, the state of the computation is frozen, and the
//! generated answer is returned. A subsequent request for the next answer
//! tuple results in the reactivation of the frozen computation."
//!
//! The frozen computation is an explicit AND/OR tree: a `GoalNode`
//! tries the rules defining its predicate in source order (an OR node); a
//! `RuleAttempt` satisfies one rule's body left-to-right (an AND node)
//! with chronological backtracking. Local predicates recurse into child
//! goal nodes; external predicates (base relations, other modules,
//! builtins) open candidate scans through the engine — so a pipelined
//! module consuming a materialized module's export works transparently,
//! and vice versa (§5.6). Pipelining "guarantees a particular evaluation
//! strategy and order of execution": rule order and left-to-right body
//! order, like Prolog — including Prolog's non-termination on
//! left-recursive programs.

use crate::arith::eval_compare;
use crate::engine::{rules_of, Engine, ModuleDef};
use crate::error::{EvalError, EvalResult};
use crate::join::{literal_pattern, match_row, ExternalResolver as _};
use crate::scan::AnswerScan;
use coral_lang::{BodyItem, Literal, PredRef, Rule};
use coral_term::bindenv::{EnvId, EnvSet, FrameMark, TrailMark};
use coral_term::{unify_all, Tuple};
use std::rc::Rc;

/// The pipelined scan over one module call.
pub struct PipelinedScan {
    engine: Engine,
    mdef: Rc<ModuleDef>,
    envs: EnvSet,
    query: Literal,
    qenv: EnvId,
    root: Option<GoalNode>,
    exhausted: bool,
}

impl PipelinedScan {
    /// Open the scan; `query.args` are the caller's pattern terms.
    pub fn new(engine: Engine, mdef: Rc<ModuleDef>, query: Literal) -> PipelinedScan {
        let mut envs = EnvSet::new();
        let nvars = query.args.iter().map(|t| t.var_bound()).max().unwrap_or(0);
        let qenv = envs.push_frame(nvars as usize);
        PipelinedScan {
            engine,
            mdef,
            envs,
            query,
            qenv,
            root: None,
            exhausted: false,
        }
    }
}

impl Iterator for PipelinedScan {
    type Item = EvalResult<Tuple>;

    fn next(&mut self) -> Option<EvalResult<Tuple>> {
        self.next_tuple().transpose()
    }
}

impl PipelinedScan {
    fn next_tuple(&mut self) -> EvalResult<Option<Tuple>> {
        if self.exhausted {
            return Ok(None);
        }
        if self.root.is_none() {
            self.root = Some(GoalNode::new(
                &mut self.envs,
                self.query.clone(),
                self.qenv,
                &self.mdef,
            ));
        }
        let ctx = PipeCtx {
            engine: &self.engine,
            mdef: &self.mdef,
            steps: std::cell::Cell::new(0),
        };
        let root = self.root.as_mut().unwrap();
        if root.next(&ctx, &mut self.envs)? {
            let mut varmap = Vec::new();
            let mut next = 0;
            let answer = Tuple::new(
                self.query
                    .args
                    .iter()
                    .map(|t| self.envs.resolve_with(t, self.qenv, &mut varmap, &mut next))
                    .collect(),
            );
            Ok(Some(answer))
        } else {
            self.exhausted = true;
            self.root = None;
            Ok(None)
        }
    }
}

struct PipeCtx<'a> {
    engine: &'a Engine,
    mdef: &'a Rc<ModuleDef>,
    /// Backtrack steps since the scan was (re)entered, for amortized
    /// stop-signal polling.
    steps: std::cell::Cell<u32>,
}

impl PipeCtx<'_> {
    /// Stop-signal poll on rule-body backtrack steps. A body that
    /// backtracks for a long time between derived answers (nested
    /// scans whose final check keeps failing, say) would otherwise
    /// never observe cancellation or the budget — the only other poll
    /// sits in [`GoalNode::next`], which such a body never returns
    /// to. Amortized: an atomic load every step would dominate the
    /// cheap unify/undo work.
    fn poll_step(&self) -> EvalResult<()> {
        let n = self.steps.get().wrapping_add(1);
        self.steps.set(n);
        if n.is_multiple_of(256) {
            if self.engine.cancelled() {
                return Err(EvalError::Cancelled);
            }
            self.engine.check_budget()?;
        }
        Ok(())
    }

    fn is_local(&self, pred: PredRef) -> bool {
        self.mdef
            .ast
            .rules
            .iter()
            .any(|r| r.head.pred_ref() == pred)
    }
}

/// An OR node: solve `lit` (under `call_env`) with the module's rules.
struct GoalNode {
    lit: Literal,
    call_env: EnvId,
    rules: Vec<Rc<Rule>>,
    rule_idx: usize,
    cur: Option<RuleAttempt>,
    trail0: TrailMark,
    frames0: FrameMark,
}

impl GoalNode {
    fn new(envs: &mut EnvSet, lit: Literal, call_env: EnvId, mdef: &Rc<ModuleDef>) -> GoalNode {
        let rules = rules_of(&mdef.ast, lit.pred_ref());
        GoalNode {
            lit,
            call_env,
            rules,
            rule_idx: 0,
            cur: None,
            trail0: envs.mark(),
            frames0: envs.frame_mark(),
        }
    }

    /// Produce the next solution (bindings live in `envs` on success).
    fn next(&mut self, ctx: &PipeCtx<'_>, envs: &mut EnvSet) -> EvalResult<bool> {
        loop {
            if ctx.engine.cancelled() {
                return Err(crate::error::EvalError::Cancelled);
            }
            ctx.engine.check_budget()?;
            if let Some(att) = &mut self.cur {
                if att.next(ctx, envs)? {
                    return Ok(true);
                }
                self.cur = None;
            }
            // Reset to entry state and try the next rule.
            envs.undo(self.trail0);
            envs.pop_frames(self.frames0);
            let Some(rule) = self.rules.get(self.rule_idx) else {
                return Ok(false);
            };
            self.rule_idx += 1;
            let rule = Rc::clone(rule);
            let trail = envs.mark();
            let frames = envs.frame_mark();
            let renv = envs.push_frame(rule.nvars as usize);
            if unify_all(envs, &rule.head.args, renv, &self.lit.args, self.call_env) {
                self.cur = Some(RuleAttempt::new(rule, renv, trail, frames));
            } else {
                envs.undo(trail);
                envs.pop_frames(frames);
            }
        }
    }
}

/// The state of one body element in a rule attempt.
enum ItemState {
    /// A subgoal on a module-local predicate.
    Goal(Box<GoalNode>),
    /// An external literal's candidate scan.
    Scan {
        iter: AnswerScan,
        trail: TrailMark,
        frames: FrameMark,
    },
    /// A deterministic check that succeeded (fails on retry).
    CheckDone { trail: TrailMark, frames: FrameMark },
}

/// An AND node: one rule activation.
struct RuleAttempt {
    rule: Rc<Rule>,
    renv: EnvId,
    trail: TrailMark,
    frames: FrameMark,
    items: Vec<Option<ItemState>>,
    /// Empty-body rules succeed exactly once.
    emitted: bool,
    started: bool,
}

impl RuleAttempt {
    fn new(rule: Rc<Rule>, renv: EnvId, trail: TrailMark, frames: FrameMark) -> RuleAttempt {
        let n = rule.body.len();
        RuleAttempt {
            rule,
            renv,
            trail,
            frames,
            items: (0..n).map(|_| None).collect(),
            emitted: false,
            started: false,
        }
    }

    fn close_item(&mut self, envs: &mut EnvSet, pos: usize) {
        if let Some(state) = self.items[pos].take() {
            match state {
                ItemState::Goal(g) => {
                    envs.undo(g.trail0);
                    envs.pop_frames(g.frames0);
                }
                ItemState::Scan { trail, frames, .. } | ItemState::CheckDone { trail, frames } => {
                    envs.undo(trail);
                    envs.pop_frames(frames);
                }
            }
        }
    }

    fn next(&mut self, ctx: &PipeCtx<'_>, envs: &mut EnvSet) -> EvalResult<bool> {
        let n = self.rule.body.len();
        if n == 0 {
            if self.emitted {
                envs.undo(self.trail);
                envs.pop_frames(self.frames);
                return Ok(false);
            }
            self.emitted = true;
            return Ok(true);
        }
        // Resume: first entry starts at 0; re-entry backtracks into the
        // deepest item.
        let mut pos = if self.started { n - 1 } else { 0 };
        self.started = true;
        loop {
            ctx.poll_step()?;
            let advanced = self.advance_item(ctx, envs, pos)?;
            if advanced {
                if pos + 1 == n {
                    return Ok(true);
                }
                pos += 1;
            } else {
                self.close_item(envs, pos);
                if pos == 0 {
                    envs.undo(self.trail);
                    envs.pop_frames(self.frames);
                    return Ok(false);
                }
                pos -= 1;
            }
        }
    }

    /// Next solution of the body element at `pos` (opening it if fresh).
    fn advance_item(
        &mut self,
        ctx: &PipeCtx<'_>,
        envs: &mut EnvSet,
        pos: usize,
    ) -> EvalResult<bool> {
        if self.items[pos].is_none() {
            let item = &self.rule.body[pos];
            match item {
                // Side-effect predicates (§5.2: "pipelining guarantees a
                // particular evaluation strategy … programmers can
                // exploit this guarantee and use predicates like updates
                // that involve side-effects"): assert/1 and retract/1
                // mutate base relations, succeeding deterministically.
                BodyItem::Literal(l)
                    if l.args.len() == 1
                        && matches!(l.pred.as_str().as_str(), "assert" | "retract")
                        && !ctx.is_local(l.pred_ref()) =>
                {
                    let trail = envs.mark();
                    let frames = envs.frame_mark();
                    let ok = self.eval_update(ctx, envs, l)?;
                    if ok {
                        self.items[pos] = Some(ItemState::CheckDone { trail, frames });
                        return Ok(true);
                    }
                    envs.undo(trail);
                    envs.pop_frames(frames);
                    return Ok(false);
                }
                BodyItem::Literal(l) if ctx.is_local(l.pred_ref()) => {
                    self.items[pos] = Some(ItemState::Goal(Box::new(GoalNode::new(
                        envs,
                        l.clone(),
                        self.renv,
                        ctx.mdef,
                    ))));
                }
                BodyItem::Literal(l) => {
                    let trail = envs.mark();
                    let frames = envs.frame_mark();
                    let pattern = literal_pattern(envs, l, self.renv);
                    let iter = ctx.engine.candidates(l, &pattern)?;
                    self.items[pos] = Some(ItemState::Scan {
                        iter,
                        trail,
                        frames,
                    });
                }
                BodyItem::Negated(_) | BodyItem::Compare { .. } => {
                    let trail = envs.mark();
                    let frames = envs.frame_mark();
                    let ok = self.eval_check(ctx, envs, pos)?;
                    if ok {
                        self.items[pos] = Some(ItemState::CheckDone { trail, frames });
                        return Ok(true);
                    }
                    envs.undo(trail);
                    envs.pop_frames(frames);
                    return Ok(false);
                }
            }
        } else if matches!(self.items[pos], Some(ItemState::CheckDone { .. })) {
            // Deterministic: single success.
            return Ok(false);
        }
        match self.items[pos].as_mut().unwrap() {
            ItemState::Goal(g) => g.next(ctx, envs),
            ItemState::Scan {
                iter,
                trail,
                frames,
            } => {
                let BodyItem::Literal(l) = &self.rule.body[pos] else {
                    unreachable!()
                };
                loop {
                    ctx.poll_step()?;
                    envs.undo(*trail);
                    envs.pop_frames(*frames);
                    match iter.next() {
                        None => return Ok(false),
                        Some(cand) => {
                            if match_row(envs, &l.args, self.renv, &cand?) {
                                return Ok(true);
                            }
                        }
                    }
                }
            }
            ItemState::CheckDone { .. } => unreachable!(),
        }
    }

    /// `assert(p(args))` / `retract(p(args))`: update a base relation.
    /// The argument must resolve to a functor term naming the relation;
    /// asserted facts must not leave the module's own namespace (derived
    /// relations are not updatable).
    fn eval_update(
        &self,
        ctx: &PipeCtx<'_>,
        envs: &mut EnvSet,
        l: &coral_lang::Literal,
    ) -> EvalResult<bool> {
        let resolved = envs.resolve(&l.args[0], self.renv);
        let Some(app) = resolved.as_app() else {
            return Err(EvalError::Unsafe(format!(
                "{}’s argument must be a predicate term, got {resolved}",
                l.pred
            )));
        };
        let pred = coral_lang::PredRef {
            name: app.sym(),
            arity: app.arity(),
        };
        if ctx.is_local(pred) || ctx.engine.module_of(pred).is_some() {
            return Err(EvalError::ModuleProtocol(format!(
                "{} {}: only base relations are updatable",
                l.pred, pred
            )));
        }
        let fact = Tuple::new(app.args().to_vec());
        if l.pred.as_str() == "assert" {
            ctx.engine.add_fact(pred, fact)?;
            Ok(true)
        } else {
            let Some(rel) = ctx.engine.db().get(pred.name, pred.arity) else {
                return Ok(false);
            };
            Ok(rel.delete(&fact)?)
        }
    }

    fn eval_check(&self, ctx: &PipeCtx<'_>, envs: &mut EnvSet, pos: usize) -> EvalResult<bool> {
        match &self.rule.body[pos] {
            BodyItem::Compare { op, lhs, rhs } => {
                eval_compare(envs, *op, lhs, rhs, self.renv, &self.rule.head)
            }
            BodyItem::Negated(l) => {
                // Negation as failure: one solution attempt, fully undone.
                let trail = envs.mark();
                let frames = envs.frame_mark();
                let found = if ctx.is_local(l.pred_ref()) {
                    let mut g = GoalNode::new(envs, l.clone(), self.renv, ctx.mdef);
                    g.next(ctx, envs)?
                } else {
                    let pattern = literal_pattern(envs, l, self.renv);
                    let mut hit = false;
                    for cand in ctx.engine.candidates(l, &pattern)? {
                        ctx.poll_step()?;
                        hit = match_row(envs, &l.args, self.renv, &cand?);
                        envs.undo(trail);
                        envs.pop_frames(frames);
                        if hit {
                            break;
                        }
                    }
                    hit
                };
                envs.undo(trail);
                envs.pop_frames(frames);
                Ok(!found)
            }
            BodyItem::Literal(_) => unreachable!(),
        }
    }
}
