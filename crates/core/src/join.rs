//! Rule evaluation: nested-loops join with indexing (§5.3, §4.2).
//!
//! "The basic join mechanism in CORAL is nested-loops with indexing. In a
//! manner similar to Prolog, CORAL maintains a trail of variable bindings
//! when a rule is evaluated; this is used to undo variable bindings when
//! the nested-loops join considers the next tuple in any loop."
//!
//! [`eval_rule`] evaluates one semi-naive version of one compiled rule:
//! body elements are satisfied left-to-right. A literal element iterates
//! stored candidate tuples — from its relation through the best index, or
//! from a called module's answer scan — or probes a transient hash table;
//! either way each candidate is matched under the shared [`EnvSet`] (the
//! frame-free ground matcher for ground rows, the unifier otherwise).
//! Comparison and negation elements are deterministic checks. On
//! exhaustion the join backs up — to the previous element if this one
//! ever matched, otherwise directly to the precomputed *intelligent
//! backtracking* point (§4.2), skipping independent elements that cannot
//! change the outcome.

use crate::arith::eval_compare;
use crate::compile::{BodyElem, CompiledRule, SnVersion};
use crate::error::EvalResult;
use crate::scan::{rel_scan, AnswerScan};
use coral_lang::{Literal, PredRef};
use coral_profile::Counter;
use coral_rel::joinhash::{JoinHashTable, Probe};
use coral_rel::{HashRelation, Mark, Relation, TupleIter};
use coral_term::bindenv::{EnvId, EnvSet, FrameMark, TrailMark};
use coral_term::{unify, Term, Tuple};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The relations local to one module evaluation.
#[derive(Default)]
pub struct LocalRels {
    map: HashMap<PredRef, Rc<HashRelation>>,
}

impl LocalRels {
    /// Empty set.
    pub fn new() -> LocalRels {
        LocalRels::default()
    }

    /// Register the relation for a local predicate.
    pub fn insert(&mut self, pred: PredRef, rel: Rc<HashRelation>) {
        self.map.insert(pred, rel);
    }

    /// The relation for `pred`.
    pub fn get(&self, pred: PredRef) -> Option<&Rc<HashRelation>> {
        self.map.get(&pred)
    }

    /// The relation for `pred`, panicking on unknown locals (compiler
    /// registers every local predicate up front).
    pub fn require(&self, pred: PredRef) -> &Rc<HashRelation> {
        self.map
            .get(&pred)
            .unwrap_or_else(|| panic!("unregistered local predicate {pred}"))
    }

    /// Iterate all `(pred, relation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PredRef, &Rc<HashRelation>)> {
        self.map.iter()
    }
}

/// Source of candidate tuples for literals not local to the module:
/// base relations, other modules' exports, computed predicates. The
/// engine implements this; tests stub it.
pub trait ExternalResolver {
    /// Candidate tuples possibly unifying with `pattern` for `lit`'s
    /// predicate. `pattern` is self-contained (variables renumbered).
    fn candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan>;

    /// Cooperative cancellation: the fixpoint, Ordered Search and
    /// pipelining inner loops poll this between rule evaluations and
    /// abort with [`crate::EvalError::Cancelled`] when it returns `true`.
    /// The default (no cancellation source) never cancels.
    fn cancelled(&self) -> bool {
        false
    }

    /// Resource-governor poll, checked at the same sites as
    /// [`ExternalResolver::cancelled`]: returns
    /// [`crate::EvalError::BudgetExceeded`] once the active query's
    /// [`crate::Budget`] is exhausted. The default (no governor) never
    /// fires.
    fn check_budget(&self) -> EvalResult<()> {
        Ok(())
    }

    /// Charge one fixpoint iteration to the active query's budget (the
    /// iteration limit). The default (no governor) never fires.
    fn charge_iteration(&self) -> EvalResult<()> {
        Ok(())
    }

    /// Stop signals (cancel flag + budget deadline) for parallel
    /// workers to poll mid-chunk. `None` (the default) means workers
    /// run each chunk to completion before the coordinator notices a
    /// cancellation or an expired deadline.
    fn parallel_brake(&self) -> Option<crate::parallel::Brake> {
        None
    }

    /// A frozen, `Sync` candidate source for `lit`, if one exists: base
    /// `HashRelation`s can be snapshotted and pure builtins evaluate on
    /// any thread. `None` (the default) means workers cannot read this
    /// literal, so any rule version reading it stays serial.
    fn parallel_source(&self, lit: &Literal) -> Option<crate::parallel::ParallelSource> {
        let _ = lit;
        None
    }

    /// Planner statistics for an external predicate (base relations in
    /// the engine's catalog). `None` (the default) means unknown — the
    /// planner assumes [`crate::planner::PredStats::unknown`].
    fn pred_stats(&self, pred: &PredRef) -> Option<crate::planner::PredStats> {
        let _ = pred;
        None
    }
}

/// Per-predicate delta boundaries for the current iteration:
/// `(prev, cur)` — delta is `[prev, cur)`, "old" is `[0, prev)`, and the
/// iteration-consistent full view is `[0, cur)`.
pub type Ranges = HashMap<PredRef, (Mark, Mark)>;

/// Candidate sourcing for one rule evaluation. [`eval_rule`] is written
/// against this trait so the same nested-loops join runs over live
/// relations ([`JoinCtx`], the serial evaluator) or over frozen
/// [`coral_rel::RelSnapshot`] views with a chunk override for the
/// driving delta slot (the parallel evaluator's worker environment).
pub trait RuleEnv {
    /// Candidate tuples for a local literal at body position `pos`
    /// under the current semi-naive version.
    fn local_candidates(
        &self,
        pred: PredRef,
        recursive: bool,
        pos: usize,
        version: SnVersion,
        pattern: &[Term],
    ) -> EvalResult<TupleIter>;

    /// Candidate tuples for an external literal.
    fn external_candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan>;

    /// Full-view candidates for a negated local literal (negation reads
    /// the whole relation; stratification keeps it stable).
    fn negated_local(&self, pred: PredRef, pattern: &[Term]) -> EvalResult<TupleIter>;

    /// A transient hash table for the positive literal at `pos`, keyed
    /// on exactly `key_cols` (the pattern's ground columns). `None`
    /// keeps the slot on the index-probe path — hash joins are opt-in
    /// per environment and cost-gated per literal.
    fn hash_table(
        &self,
        lit: &Literal,
        local: bool,
        recursive: bool,
        pos: usize,
        version: SnVersion,
        key_cols: &[usize],
    ) -> Option<Arc<JoinHashTable>> {
        let _ = (lit, local, recursive, pos, version, key_cols);
        None
    }
}

/// Key of one transient hash-join table: predicate, bound-column set,
/// and the mark range it was built over. Relation growth moves the
/// range, so stale entries simply stop being requested.
#[derive(Clone, PartialEq, Eq, Hash)]
struct TableKey {
    pred: PredRef,
    cols: Vec<usize>,
    lo: usize,
    hi: usize,
}

/// Per-fixpoint cache of transient hash-join tables, shared by every
/// rule evaluation of one [`crate::seminaive::FixpointState`] run.
/// Tables over relations frozen for the whole fixpoint (external base
/// relations, locals from earlier SCCs) are built once and amortize
/// across iterations; tables over the current SCC's own predicates are
/// evicted at each iteration boundary ([`HashJoinState::begin_iteration`])
/// because their ranges move, so the cost gate re-decides them with the
/// freshly observed delta size — the same adaptive loop as the
/// mid-fixpoint replanner.
#[derive(Default)]
pub struct HashJoinState {
    cache: RefCell<HashMap<TableKey, Arc<JoinHashTable>>>,
    /// Observed probe-side (delta) rows for the version currently being
    /// evaluated; what the cost gate weighs builds against.
    outer_rows: Cell<f64>,
}

impl HashJoinState {
    /// Empty cache; the outer-rows estimate starts at the planner's
    /// no-information default.
    pub fn new() -> HashJoinState {
        let s = HashJoinState::default();
        s.outer_rows.set(crate::planner::DEFAULT_CARD);
        s
    }

    /// Record the observed probe-side cardinality (the driving delta's
    /// row count) before evaluating a rule version.
    pub fn set_outer_rows(&self, rows: f64) {
        self.outer_rows.set(rows);
    }

    /// A new fixpoint iteration began: evict tables over the recursive
    /// predicates (`ranges` keys) — their build ranges moved.
    pub fn begin_iteration(&self, ranges: &Ranges) {
        self.cache
            .borrow_mut()
            .retain(|k, _| !ranges.contains_key(&k.pred));
    }

    /// Cached table for `key`, building it when the cost gate approves:
    /// a build is one pass over `inner_rows()` rows, probes save ~one
    /// index traversal per outer row, and `frozen` sources amortize the
    /// build across the remaining fixpoint iterations.
    fn get_or_build(
        &self,
        key: TableKey,
        frozen: bool,
        inner_rows: impl FnOnce() -> usize,
        build: impl FnOnce() -> Vec<Tuple>,
    ) -> Option<Arc<JoinHashTable>> {
        if let Some(t) = self.cache.borrow().get(&key) {
            return Some(t.clone());
        }
        if !crate::planner::hash_join_profitable(inner_rows() as f64, self.outer_rows.get(), frozen)
        {
            return None;
        }
        let table = Arc::new(JoinHashTable::build(key.cols.clone(), build()));
        coral_profile::bump(Counter::JoinhashTablesBuilt, 1);
        coral_profile::bump(Counter::JoinhashBuildRows, table.build_rows() as u64);
        self.cache.borrow_mut().insert(key, table.clone());
        Some(table)
    }
}

/// Everything a serial rule evaluation needs.
pub struct JoinCtx<'a> {
    /// Local relations.
    pub locals: &'a LocalRels,
    /// Resolver for external literals.
    pub external: &'a dyn ExternalResolver,
    /// Delta boundaries for recursive predicates this iteration.
    pub ranges: &'a Ranges,
    /// Transient hash-join table cache (`None` = index probes only: the
    /// `@naive` reference evaluator and the aggregate pass).
    pub hashjoin: Option<&'a HashJoinState>,
}

impl RuleEnv for JoinCtx<'_> {
    fn local_candidates(
        &self,
        pred: PredRef,
        recursive: bool,
        pos: usize,
        version: SnVersion,
        pattern: &[Term],
    ) -> EvalResult<TupleIter> {
        let rel = self.locals.require(pred);
        if !recursive {
            return Ok(rel.lookup(pattern));
        }
        let (prev, cur) = self
            .ranges
            .get(&pred)
            .copied()
            .unwrap_or((Mark(0), rel.current_mark()));
        Ok(match version.delta_idx {
            Some(d) if pos == d => rel.lookup_range(pattern, prev, Some(cur)),
            Some(d) if pos < d => rel.lookup_range(pattern, Mark(0), Some(prev)),
            _ => rel.lookup_range(pattern, Mark(0), Some(cur)),
        })
    }

    fn external_candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan> {
        self.external.candidates(lit, pattern)
    }

    fn negated_local(&self, pred: PredRef, pattern: &[Term]) -> EvalResult<TupleIter> {
        Ok(self.locals.require(pred).lookup(pattern))
    }

    fn hash_table(
        &self,
        lit: &Literal,
        local: bool,
        recursive: bool,
        pos: usize,
        version: SnVersion,
        key_cols: &[usize],
    ) -> Option<Arc<JoinHashTable>> {
        let hj = self.hashjoin?;
        let pred = lit.pred_ref();
        if !local {
            // External literals: only base hash relations have a frozen
            // snapshot view (module exports and persistent relations
            // stay on the resolver's candidate path).
            let snap = match self.external.parallel_source(lit)? {
                crate::parallel::ParallelSource::Snapshot(s) => s,
                crate::parallel::ParallelSource::Builtin => return None,
            };
            let key = TableKey {
                pred,
                cols: key_cols.to_vec(),
                lo: 0,
                hi: snap.end_mark().0,
            };
            return hj.get_or_build(
                key,
                true,
                || snap.len_range(Mark(0), None),
                || snap.scan_range(Mark(0), None),
            );
        }
        let rel = self.locals.require(pred);
        // Aggregate selections evict rows in place — even from ranges a
        // frozen mark would protect — so a cached table over such a
        // relation can go stale mid-fixpoint. Keep those on the live
        // index-probe path.
        if rel.has_aggregate_selections() {
            return None;
        }
        if !recursive {
            // Locals from earlier SCCs are frozen for this fixpoint.
            let key = TableKey {
                pred,
                cols: key_cols.to_vec(),
                lo: 0,
                hi: rel.current_mark().0,
            };
            return hj.get_or_build(
                key,
                true,
                || rel.len(),
                || rel.snapshot().scan_range(Mark(0), None),
            );
        }
        // Recursive predicates: hash the range the semi-naive version
        // reads at this slot. When the delta literal itself is probed
        // with bound columns (it is *not* the leftmost driving slot —
        // e.g. right-linear tc where the open `edge` scan drives and
        // `path`'s delta is the inner side), its `[prev, cur)` window is
        // frozen for the iteration and hashes like any other range; the
        // iteration-boundary eviction discards it when the marks move.
        let (prev, cur) = self
            .ranges
            .get(&pred)
            .copied()
            .unwrap_or((Mark(0), rel.current_mark()));
        let (lo, hi) = match version.delta_idx {
            Some(d) if pos == d => (prev, cur),
            Some(d) if pos < d => (Mark(0), prev),
            _ => (Mark(0), cur),
        };
        let key = TableKey {
            pred,
            cols: key_cols.to_vec(),
            lo: lo.0,
            hi: hi.0,
        };
        hj.get_or_build(
            key,
            false,
            || rel.len_range(lo, Some(hi)),
            || rel.snapshot().scan_range(lo, Some(hi)),
        )
    }
}

/// Build a self-contained lookup pattern for a literal: arguments
/// resolved under the environment with a shared variable numbering, so
/// repeated unbound variables stay correlated in the pattern.
pub fn literal_pattern(envs: &EnvSet, lit: &Literal, env: EnvId) -> Vec<Term> {
    let mut varmap = Vec::new();
    let mut next = 0;
    lit.args
        .iter()
        .map(|t| envs.resolve_with(t, env, &mut varmap, &mut next))
        .collect()
}

enum SlotState {
    /// A literal iterating candidates.
    Scan {
        iter: AnswerScan,
        /// Whether any candidate unified since the slot opened.
        matched: bool,
    },
    /// A literal probed against a transient hash table: the matching
    /// bucket's row ids first, then the table's side list (rows
    /// non-ground at the key columns, which hashing cannot exclude).
    HashProbe {
        table: Arc<JoinHashTable>,
        bucket: Vec<u32>,
        next: usize,
        side: usize,
        matched: bool,
    },
    /// A deterministic check (comparison, negation) that already
    /// succeeded once.
    CheckDone,
}

/// Try to open the positive literal at `pos` as a hash-table probe.
/// `None` falls back to the index-probe candidate path: a hash key needs
/// at least one ground pattern column, an environment that sources
/// tables for this literal, and the cost gate's approval. A Bloom-filter
/// miss proves no hashed row can match, so the bucket comes back empty —
/// but the table's side rows are still iterated by the advance loop,
/// since non-ground rows are invisible to the filter.
fn hash_probe_slot(
    ctx: &dyn RuleEnv,
    lit: &Literal,
    local: bool,
    recursive: bool,
    pos: usize,
    version: SnVersion,
    pattern: &[Term],
) -> Option<SlotState> {
    let key_cols: Vec<usize> = pattern
        .iter()
        .enumerate()
        .filter(|(_, t)| t.is_ground())
        .map(|(i, _)| i)
        .collect();
    if key_cols.is_empty() {
        return None;
    }
    let table = ctx.hash_table(lit, local, recursive, pos, version, &key_cols)?;
    let key: Vec<&Term> = key_cols.iter().map(|&c| &pattern[c]).collect();
    let bucket = match table.probe(JoinHashTable::key_hash(&key)) {
        Probe::Skip => {
            coral_profile::bump(Counter::JoinhashProbes, 1);
            coral_profile::bump(Counter::JoinhashBloomSkips, 1);
            Vec::new()
        }
        Probe::Rows(ids) => {
            coral_profile::bump(Counter::JoinhashProbes, 1);
            ids.to_vec()
        }
    };
    Some(SlotState::HashProbe {
        table,
        bucket,
        next: 0,
        side: 0,
        matched: false,
    })
}

/// General row match: a fresh frame for the candidate's variables, then
/// unification argument by argument.
fn unify_row(envs: &mut EnvSet, lit_args: &[Term], env: EnvId, t: &Tuple) -> bool {
    let tenv = envs.push_frame(t.nvars() as usize);
    lit_args
        .iter()
        .zip(t.args())
        .all(|(a, b)| unify(envs, a, env, b, tenv))
}

/// Fast path for a fully ground candidate: bind pattern variables
/// directly and compare ground pattern arguments by term
/// equality — exactly the decision unifying two ground terms makes —
/// skipping the candidate frame and the unifier. Returns `None` when a
/// pattern argument dereferences to a non-ground functor term, in which
/// case the caller must take the general path; bindings made before the
/// bail-out are harmless (the general unifier re-derefs them, and the
/// per-candidate trail reset discards them).
fn fast_match_ground(
    envs: &mut EnvSet,
    lit_args: &[Term],
    env: EnvId,
    cand: &[Term],
) -> Option<bool> {
    let mut ops = 0u64;
    let r = 'row: {
        for (a, b) in lit_args.iter().zip(cand) {
            ops += 1;
            let (pt, pe) = envs.deref(a, env);
            match pt {
                Term::Var(v) => envs.bind(pe, v, b.clone(), pe),
                ref g if g.is_ground() => {
                    if g != b {
                        break 'row Some(false);
                    }
                }
                _ => break 'row None,
            }
        }
        Some(true)
    };
    coral_profile::bump(Counter::VectorizedProbes, ops);
    coral_profile::bump(
        match r {
            Some(_) => Counter::BatchedRows,
            None => Counter::FallbackRows,
        },
        1,
    );
    r
}

/// Match one materialized candidate against a literal: fully ground
/// candidates need no frame and (usually) no unifier; everything else
/// takes the general path.
pub(crate) fn match_row(envs: &mut EnvSet, lit_args: &[Term], env: EnvId, t: &Tuple) -> bool {
    if t.is_ground() {
        if let Some(ok) = fast_match_ground(envs, lit_args, env, t.args()) {
            return ok;
        }
    } else {
        coral_profile::bump(Counter::FallbackRows, 1);
    }
    unify_row(envs, lit_args, env, t)
}

struct Slot {
    state: SlotState,
    trail: TrailMark,
    frames: FrameMark,
}

/// Evaluate one semi-naive version of `rule`, calling `emit` for every
/// solution of the body. `emit` receives the environment and the rule's
/// frame so it can resolve the head. Returns the number of solutions.
pub fn eval_rule(
    ctx: &dyn RuleEnv,
    rule: &CompiledRule,
    version: SnVersion,
    envs: &mut EnvSet,
    emit: &mut dyn FnMut(&mut EnvSet, EnvId) -> EvalResult<()>,
) -> EvalResult<usize> {
    let base_frames = envs.frame_mark();
    let base_trail = envs.mark();
    let env = envs.push_frame(rule.nvars as usize);
    let n = rule.body.len();
    let mut solutions = 0usize;

    if n == 0 {
        emit(envs, env)?;
        envs.undo(base_trail);
        envs.pop_frames(base_frames);
        return Ok(1);
    }

    let mut slots: Vec<Option<Slot>> = (0..n).map(|_| None).collect();
    let mut pos = 0usize;
    'outer: loop {
        // Open the slot at `pos` if needed.
        if slots[pos].is_none() {
            let trail = envs.mark();
            let frames = envs.frame_mark();
            let state = match &rule.body[pos] {
                BodyElem::Local { lit, recursive } => {
                    let pattern = literal_pattern(envs, lit, env);
                    match hash_probe_slot(ctx, lit, true, *recursive, pos, version, &pattern) {
                        Some(state) => state,
                        None => SlotState::Scan {
                            iter: rel_scan(ctx.local_candidates(
                                lit.pred_ref(),
                                *recursive,
                                pos,
                                version,
                                &pattern,
                            )?),
                            matched: false,
                        },
                    }
                }
                BodyElem::External { lit } => {
                    let pattern = literal_pattern(envs, lit, env);
                    match hash_probe_slot(ctx, lit, false, false, pos, version, &pattern) {
                        Some(state) => state,
                        None => SlotState::Scan {
                            iter: ctx.external_candidates(lit, &pattern)?,
                            matched: false,
                        },
                    }
                }
                BodyElem::Negated { .. } | BodyElem::Compare { .. } => {
                    // Deterministic: evaluated on first advance.
                    let ok = advance_check(ctx, rule, pos, envs, env)?;
                    if ok {
                        slots[pos] = Some(Slot {
                            state: SlotState::CheckDone,
                            trail,
                            frames,
                        });
                        if pos + 1 == n {
                            solutions += 1;
                            emit(envs, env)?;
                            // Retry this check slot: it is deterministic,
                            // so fall through to backtracking below.
                        } else {
                            pos += 1;
                            continue 'outer;
                        }
                    }
                    // Failed (or solution emitted): backtrack.
                    envs.undo(trail);
                    envs.pop_frames(frames);
                    slots[pos] = None;
                    match backtrack_from(rule, &mut slots, envs, pos, ok) {
                        Some(p) => {
                            pos = p;
                            continue 'outer;
                        }
                        None => break 'outer,
                    }
                }
            };
            slots[pos] = Some(Slot {
                state,
                trail,
                frames,
            });
        }

        // A deterministic check being re-entered has exhausted its
        // single success: unwind it and backtrack chronologically.
        if matches!(slots[pos].as_ref().unwrap().state, SlotState::CheckDone) {
            let slot = slots[pos].take().unwrap();
            envs.undo(slot.trail);
            envs.pop_frames(slot.frames);
            match backtrack_from(rule, &mut slots, envs, pos, true) {
                Some(p) => {
                    pos = p;
                    continue 'outer;
                }
                None => break 'outer,
            }
        }
        // Advance a candidate slot.
        let slot = slots[pos].as_mut().unwrap();
        let (lit_args, _) = match &rule.body[pos] {
            BodyElem::Local { lit, .. } | BodyElem::External { lit } => (&lit.args, ()),
            _ => unreachable!("check slots handled above"),
        };
        let (trail, frames) = (slot.trail, slot.frames);
        let mut advanced = false;
        match &mut slot.state {
            SlotState::Scan { iter, matched } => loop {
                // Reset to the slot's entry state before trying the next
                // candidate.
                envs.undo(trail);
                envs.pop_frames(frames);
                match iter.next() {
                    None => break,
                    Some(cand) => {
                        coral_profile::bump(Counter::JoinProbes, 1);
                        let t = cand?;
                        if match_row(envs, lit_args, env, &t) {
                            *matched = true;
                            advanced = true;
                            break;
                        }
                    }
                }
            },
            SlotState::HashProbe {
                table,
                bucket,
                next,
                side,
                matched,
            } => loop {
                envs.undo(trail);
                envs.pop_frames(frames);
                let t: Tuple = if *next < bucket.len() {
                    let id = bucket[*next];
                    *next += 1;
                    table.row(id).clone()
                } else if *side < table.side().len() {
                    let i = *side;
                    *side += 1;
                    coral_profile::bump(Counter::JoinhashFallbackProbes, 1);
                    table.side()[i].clone()
                } else {
                    break;
                };
                coral_profile::bump(Counter::JoinProbes, 1);
                if match_row(envs, lit_args, env, &t) {
                    *matched = true;
                    advanced = true;
                    break;
                }
            },
            SlotState::CheckDone => unreachable!("check slots handled above"),
        }
        if advanced {
            if pos + 1 == n {
                solutions += 1;
                emit(envs, env)?;
                // Chronological backtrack into this slot for the next
                // candidate.
                continue 'outer;
            }
            pos += 1;
            continue 'outer;
        }
        // Exhausted.
        let had_match = match &slots[pos].as_ref().unwrap().state {
            SlotState::Scan { matched, .. } | SlotState::HashProbe { matched, .. } => *matched,
            SlotState::CheckDone => true,
        };
        {
            let slot = slots[pos].as_ref().unwrap();
            envs.undo(slot.trail);
            envs.pop_frames(slot.frames);
        }
        slots[pos] = None;
        match backtrack_from(rule, &mut slots, envs, pos, had_match) {
            Some(p) => {
                pos = p;
                continue 'outer;
            }
            None => break 'outer,
        }
    }

    envs.undo(base_trail);
    envs.pop_frames(base_frames);
    Ok(solutions)
}

/// Choose where to resume after position `pos` exhausts. Chronological
/// (`pos - 1`) if the element ever matched; otherwise the precomputed
/// intelligent-backtracking point. Closes the slots in between.
fn backtrack_from(
    rule: &CompiledRule,
    slots: &mut [Option<Slot>],
    envs: &mut EnvSet,
    pos: usize,
    had_match: bool,
) -> Option<usize> {
    let target = if had_match {
        pos.checked_sub(1)
    } else {
        rule.backtrack[pos]
    }?;
    // Close intervening slots (deeper first) so the trail and frame
    // stacks unwind in order.
    for p in (target + 1..pos).rev() {
        if let Some(slot) = slots[p].take() {
            envs.undo(slot.trail);
            envs.pop_frames(slot.frames);
        }
    }
    Some(target)
}

/// Evaluate a deterministic body element (comparison or negation).
fn advance_check(
    ctx: &dyn RuleEnv,
    rule: &CompiledRule,
    pos: usize,
    envs: &mut EnvSet,
    env: EnvId,
) -> EvalResult<bool> {
    match &rule.body[pos] {
        BodyElem::Compare { op, lhs, rhs } => eval_compare(envs, *op, lhs, rhs, env, &rule.head),
        BodyElem::Negated { lit, local } => {
            let pattern = literal_pattern(envs, lit, env);
            let iter = if *local {
                rel_scan(ctx.negated_local(lit.pred_ref(), &pattern)?)
            } else {
                ctx.external_candidates(lit, &pattern)?
            };
            let m = envs.mark();
            let fm = envs.frame_mark();
            for cand in iter {
                let ok = match_row(envs, &lit.args, env, &cand?);
                envs.undo(m);
                envs.pop_frames(fm);
                if ok {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        _ => unreachable!(),
    }
}

/// Resolve a rule head under a solution environment into a fact.
pub fn resolve_head(envs: &EnvSet, head: &Literal, env: EnvId) -> Tuple {
    let mut varmap = Vec::new();
    let mut next = 0;
    Tuple::new(
        head.args
            .iter()
            .map(|t| envs.resolve_with(t, env, &mut varmap, &mut next))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{BodyElem, CompiledRule, SnVersion};
    use crate::error::EvalError;
    use coral_lang::parse_program;
    use coral_rel::Relation;
    use coral_term::testutil::TestRng;
    use coral_term::{Symbol, VarId};

    /// External resolver over a plain map of relations.
    pub struct MapResolver {
        pub rels: HashMap<PredRef, Rc<HashRelation>>,
    }

    impl ExternalResolver for MapResolver {
        fn candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan> {
            match self.rels.get(&lit.pred_ref()) {
                Some(r) => Ok(rel_scan(r.lookup(pattern))),
                None => Err(EvalError::UnknownPredicate(lit.pred_ref().to_string())),
            }
        }
    }

    fn compile_rule(src: &str) -> CompiledRule {
        // Parse a one-rule module; treat all body literals as external.
        let prog = parse_program(&format!("module t. export t(ff).\n{src}\nend_module.")).unwrap();
        let rule = prog.modules().next().unwrap().rules[0].clone();
        let body: Vec<BodyElem> = rule
            .body
            .iter()
            .map(|item| match item {
                coral_lang::BodyItem::Literal(l) => BodyElem::External { lit: l.clone() },
                coral_lang::BodyItem::Negated(l) => BodyElem::Negated {
                    lit: l.clone(),
                    local: false,
                },
                coral_lang::BodyItem::Compare { op, lhs, rhs } => BodyElem::Compare {
                    op: *op,
                    lhs: lhs.clone(),
                    rhs: rhs.clone(),
                },
            })
            .collect();
        let backtrack = crate::compile::chronological(body.len());
        CompiledRule {
            head: rule.head.clone(),
            agg: None,
            body,
            nvars: rule.nvars,
            var_names: rule.var_names.clone(),
            versions: vec![SnVersion { delta_idx: None }],
            backtrack,
        }
    }

    fn rel_of(name: &str, tuples: &[Vec<i64>]) -> (PredRef, Rc<HashRelation>) {
        let arity = tuples.first().map(|t| t.len()).unwrap_or(2);
        let r = Rc::new(HashRelation::new(arity));
        for t in tuples {
            r.insert(Tuple::ground(t.iter().map(|v| Term::int(*v)).collect()))
                .unwrap();
        }
        (PredRef::new(name, arity), r)
    }

    fn run(rule: &CompiledRule, resolver: &MapResolver) -> Vec<String> {
        let locals = LocalRels::new();
        let ranges = Ranges::new();
        let ctx = JoinCtx {
            locals: &locals,
            external: resolver,
            ranges: &ranges,
            hashjoin: None,
        };
        let mut envs = EnvSet::new();
        let mut out = Vec::new();
        eval_rule(
            &ctx,
            rule,
            SnVersion { delta_idx: None },
            &mut envs,
            &mut |envs, env| {
                out.push(resolve_head(envs, &rule.head, env).to_string());
                Ok(())
            },
        )
        .unwrap();
        out.sort();
        out
    }

    #[test]
    fn two_way_join() {
        let rule = compile_rule("t(X, Z) :- e(X, Y), e(Y, Z).");
        let (p, r) = rel_of("e", &[vec![1, 2], vec![2, 3], vec![2, 4]]);
        let resolver = MapResolver {
            rels: [(p, r)].into(),
        };
        assert_eq!(run(&rule, &resolver), vec!["(1, 3)", "(1, 4)"]);
    }

    #[test]
    fn join_with_arithmetic_and_comparison() {
        let rule = compile_rule("t(X, C) :- e(X, Y), C = X + Y, C >= 5.");
        let (p, r) = rel_of("e", &[vec![1, 2], vec![2, 3], vec![4, 4]]);
        let resolver = MapResolver {
            rels: [(p, r)].into(),
        };
        assert_eq!(run(&rule, &resolver), vec!["(2, 5)", "(4, 8)"]);
    }

    #[test]
    fn negation_filters() {
        let rule = compile_rule("t(X, X) :- e(X, _), not f(X, X).");
        let (pe, re) = rel_of("e", &[vec![1, 9], vec![2, 9], vec![3, 9]]);
        let (pf, rf) = rel_of("f", &[vec![2, 2]]);
        let resolver = MapResolver {
            rels: [(pe, re), (pf, rf)].into(),
        };
        assert_eq!(run(&rule, &resolver), vec!["(1, 1)", "(3, 3)"]);
    }

    #[test]
    fn not_unify_builtin() {
        let rule = compile_rule("t(X, Y) :- e(X, Y), X \\= Y.");
        let (p, r) = rel_of("e", &[vec![1, 1], vec![1, 2]]);
        let resolver = MapResolver {
            rels: [(p, r)].into(),
        };
        assert_eq!(run(&rule, &resolver), vec!["(1, 2)"]);
    }

    #[test]
    fn unify_binds_either_direction() {
        let rule = compile_rule("t(X, Y) :- e(X, _), 10 = Y.");
        let (p, r) = rel_of("e", &[vec![3, 0]]);
        let resolver = MapResolver {
            rels: [(p, r)].into(),
        };
        assert_eq!(run(&rule, &resolver), vec!["(3, 10)"]);
    }

    #[test]
    fn ungrounded_comparison_is_unsafe() {
        let rule = compile_rule("t(X, Y) :- e(X, _), Y > 3.");
        let (p, r) = rel_of("e", &[vec![1, 0]]);
        let resolver = MapResolver {
            rels: [(p, r)].into(),
        };
        let locals = LocalRels::new();
        let ranges = Ranges::new();
        let ctx = JoinCtx {
            locals: &locals,
            external: &resolver,
            ranges: &ranges,
            hashjoin: None,
        };
        let mut envs = EnvSet::new();
        let err = eval_rule(
            &ctx,
            &rule,
            SnVersion { delta_idx: None },
            &mut envs,
            &mut |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::Unsafe(_)));
    }

    #[test]
    fn empty_body_emits_once() {
        let rule = compile_rule("t(1, 2).");
        let resolver = MapResolver { rels: [].into() };
        assert_eq!(run(&rule, &resolver), vec!["(1, 2)"]);
    }

    #[test]
    fn cartesian_product_when_independent() {
        let rule = compile_rule("t(X, Y) :- a(X, X), b(Y, Y).");
        let (pa, ra) = rel_of("a", &[vec![1, 1], vec![2, 2]]);
        let (pb, rb) = rel_of("b", &[vec![8, 8], vec![9, 9]]);
        let resolver = MapResolver {
            rels: [(pa, ra), (pb, rb)].into(),
        };
        assert_eq!(
            run(&rule, &resolver),
            vec!["(1, 8)", "(1, 9)", "(2, 8)", "(2, 9)"]
        );
    }

    #[test]
    fn trail_restored_across_candidates() {
        // Repeated variable in the pattern must not leak bindings from a
        // failed candidate into the next attempt.
        let rule = compile_rule("t(X, Y) :- e(X, X), e(X, Y).");
        let (p, r) = rel_of("e", &[vec![1, 2], vec![2, 2], vec![2, 5]]);
        let resolver = MapResolver {
            rels: [(p, r)].into(),
        };
        assert_eq!(run(&rule, &resolver), vec!["(2, 2)", "(2, 5)"]);
    }

    #[test]
    fn local_literal_reads_delta_range() {
        let pred = PredRef::new("p", 1);
        let rel = Rc::new(HashRelation::new(1));
        rel.insert(Tuple::ground(vec![Term::int(1)])).unwrap();
        let m1 = rel.mark();
        rel.insert(Tuple::ground(vec![Term::int(2)])).unwrap();
        let m2 = rel.mark();
        let mut locals = LocalRels::new();
        locals.insert(pred, Rc::clone(&rel));
        let mut ranges = Ranges::new();
        ranges.insert(pred, (m1, m2));
        let resolver = MapResolver { rels: [].into() };
        let ctx = JoinCtx {
            locals: &locals,
            external: &resolver,
            ranges: &ranges,
            hashjoin: None,
        };
        // Rule t(X) :- p(X) with p recursive: delta version sees only 2.
        let rule = CompiledRule {
            head: Literal {
                pred: Symbol::intern("t"),
                args: vec![Term::var(0)],
            },
            agg: None,
            body: vec![BodyElem::Local {
                lit: Literal {
                    pred: Symbol::intern("p"),
                    args: vec![Term::var(0)],
                },
                recursive: true,
            }],
            nvars: 1,
            var_names: vec!["X".into()],
            versions: vec![SnVersion { delta_idx: Some(0) }],
            backtrack: vec![None],
        };
        let mut envs = EnvSet::new();
        let mut got = Vec::new();
        eval_rule(
            &ctx,
            &rule,
            SnVersion { delta_idx: Some(0) },
            &mut envs,
            &mut |envs, env| {
                got.push(resolve_head(envs, &rule.head, env).to_string());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, vec!["(2)"]);
    }

    /// A random term for the matcher property test: small ints, ground
    /// functors, and (when `vars > 0`) variables / non-ground functors.
    fn gen_term(rng: &mut TestRng, vars: u32) -> Term {
        match rng.gen_range(0, if vars > 0 { 6 } else { 3 }) {
            0 | 1 => Term::int(rng.gen_range(0, 3) as i64),
            2 => Term::apps("f", vec![Term::int(rng.gen_range(0, 2) as i64)]),
            3 | 4 => Term::var(rng.gen_range(0, vars as usize) as u32),
            _ => Term::apps("f", vec![Term::var(rng.gen_range(0, vars as usize) as u32)]),
        }
    }

    #[test]
    fn fast_matchers_agree_with_the_unifier() {
        // The ground matcher is the one kernel the `@naive` reference
        // shares with the optimised engine, so it is pinned here against
        // general unification: `Some(b)` must be the unifier's verdict
        // with identical resulting bindings, and `None` is only allowed
        // (and, when the row does unify, required) if a pattern argument
        // dereferences to a non-ground functor term.
        const NVARS: u32 = 4;
        let (mut hits, mut misses, mut bails, mut nonground_rows) = (0, 0, 0, 0);
        for seed in 0..200u64 {
            let mut rng = TestRng::new(seed);
            let arity = rng.gen_range(1, 4);
            let lit_args: Vec<Term> = (0..arity).map(|_| gen_term(&mut rng, NVARS)).collect();
            let rows: Vec<Tuple> = (0..8)
                .map(|_| {
                    let nonground = rng.gen_bool(0.2);
                    Tuple::new(
                        (0..arity)
                            .map(|_| gen_term(&mut rng, if nonground { 2 } else { 0 }))
                            .collect(),
                    )
                })
                .collect();
            let mut envs = EnvSet::new();
            let env = envs.push_frame(NVARS as usize);
            // Pre-bind some pattern variables: to ground terms, and to a
            // non-ground functor over a later variable.
            for v in 0..NVARS - 1 {
                match rng.gen_range(0, 6) {
                    0 => envs.bind(env, VarId(v), gen_term(&mut rng, 0), env),
                    1 => envs.bind(env, VarId(v), Term::apps("f", vec![Term::var(v + 1)]), env),
                    _ => {}
                }
            }
            let bails_expected = lit_args.iter().any(|a| {
                let (t, _) = envs.deref(a, env);
                !matches!(t, Term::Var(_)) && !t.is_ground()
            });
            let trail = envs.mark();
            let frames = envs.frame_mark();
            let bindings = |envs: &EnvSet| -> Vec<Term> {
                (0..NVARS)
                    .map(|v| envs.resolve(&Term::var(v), env))
                    .collect()
            };
            for t in &rows {
                let reset = |envs: &mut EnvSet| {
                    envs.undo(trail);
                    envs.pop_frames(frames);
                };
                let expect = unify_row(&mut envs, &lit_args, env, t);
                let expect_binds = expect.then(|| bindings(&envs));
                reset(&mut envs);
                // The dispatcher `eval_rule` calls.
                let got = match_row(&mut envs, &lit_args, env, t);
                assert_eq!(got, expect, "seed {seed} row {t}");
                assert_eq!(
                    got.then(|| bindings(&envs)),
                    expect_binds,
                    "seed {seed} row {t}"
                );
                reset(&mut envs);
                // The kernel's own contract, on the rows it accepts.
                if !t.is_ground() {
                    nonground_rows += 1;
                    continue;
                }
                let v = fast_match_ground(&mut envs, &lit_args, env, t.args());
                reset(&mut envs);
                match v {
                    Some(b) => {
                        assert_eq!(b, expect, "seed {seed} row {t}");
                        assert!(!(b && bails_expected), "seed {seed} row {t}");
                        if b {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                    None => {
                        assert!(bails_expected, "seed {seed} row {t}");
                        bails += 1;
                    }
                }
                if expect && bails_expected {
                    assert_eq!(v, None, "seed {seed} row {t}");
                }
            }
        }
        assert!(
            hits > 0 && misses > 0 && bails > 0 && nonground_rows > 0,
            "vacuous: {hits} hits, {misses} misses, {bails} bails, {nonground_rows} non-ground rows"
        );
    }

    #[test]
    fn open_delta_slot_replays_the_range_in_insertion_order() {
        // Mixed delta: ground rows, a non-ground row and a functor row.
        // An open pattern at the delta slot reads the range scan, so the
        // join emits them in insertion order and excludes the pre-mark
        // fact. Multiset semantics keep every row (under subsumption the
        // Var row would swallow the later ground ones).
        let pred = PredRef::new("p", 1);
        let rel = Rc::new(HashRelation::with_semantics(
            1,
            coral_rel::DupSemantics::Multiset,
        ));
        rel.insert(Tuple::ground(vec![Term::int(1)])).unwrap();
        let m1 = rel.mark();
        rel.insert(Tuple::ground(vec![Term::int(2)])).unwrap();
        rel.insert(Tuple::new(vec![Term::var(0)])).unwrap();
        rel.insert(Tuple::ground(vec![Term::apps("f", vec![Term::int(3)])]))
            .unwrap();
        rel.insert(Tuple::ground(vec![Term::int(4)])).unwrap();
        let m2 = rel.mark();
        let mut locals = LocalRels::new();
        locals.insert(pred, Rc::clone(&rel));
        let mut ranges = Ranges::new();
        ranges.insert(pred, (m1, m2));
        let resolver = MapResolver { rels: [].into() };
        let rule = CompiledRule {
            head: Literal {
                pred: Symbol::intern("t"),
                args: vec![Term::var(0)],
            },
            agg: None,
            body: vec![BodyElem::Local {
                lit: Literal {
                    pred: Symbol::intern("p"),
                    args: vec![Term::var(0)],
                },
                recursive: true,
            }],
            nvars: 1,
            var_names: vec!["X".into()],
            versions: vec![SnVersion { delta_idx: Some(0) }],
            backtrack: vec![None],
        };
        let hj = HashJoinState::new();
        let ctx = JoinCtx {
            locals: &locals,
            external: &resolver,
            ranges: &ranges,
            hashjoin: Some(&hj),
        };
        let mut envs = EnvSet::new();
        let mut got = Vec::new();
        eval_rule(
            &ctx,
            &rule,
            SnVersion { delta_idx: Some(0) },
            &mut envs,
            &mut |envs, env| {
                got.push(resolve_head(envs, &rule.head, env).to_string());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, vec!["(2)", "(V0)", "(f(3))", "(4)"]);
    }
}
