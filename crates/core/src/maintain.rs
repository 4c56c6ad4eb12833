//! Incremental maintenance of derived relations.
//!
//! A maintained module keeps the materialized result of each exported
//! predicate alive between queries and repairs it when base facts are
//! inserted or deleted, instead of recomputing the whole module. Two
//! repair strategies are implemented, chosen per SCC of the compiled
//! module:
//!
//! * **Counting** (non-recursive SCCs): every derived tuple carries the
//!   number of distinct rule derivations producing it (a
//!   [`coral_rel::CountStore`]). A base delta is translated, by finite
//!   differencing of each rule body, into signed per-tuple count
//!   adjustments; a tuple is inserted when its count appears and deleted
//!   when it disappears, with no re-evaluation of the stratum.
//! * **DRed** (recursive SCCs): delete-rederive. Deletions first
//!   *overdelete* everything whose derivation cone touches a deleted
//!   tuple, then *rederive* the survivors from the remaining database,
//!   then insertions propagate semi-naively.
//!
//! Strategy selection is per module via `@maintain counting`,
//! `@maintain dred`, `@maintain recompute`, or the default
//! `@maintain auto` (cost-gated: tiny base relations recompute).
//!
//! Safety discipline: a maintained state is **stale** from the moment a
//! propagation starts until it completes; any anomaly the algebra cannot
//! model (non-ground tuples, count underflow, an insert or delete whose
//! outcome contradicts the repair's bookkeeping) leaves the state stale,
//! and a stale state is discarded and rebuilt on the next query — never
//! answered from.
//!
//! Cost discipline: a maintained state is the kept [`FixpointState`] and
//! nothing per tuple beside it (derivation counts for counting SCCs
//! excepted). Membership is decided by the relation's own
//! exact-duplicate map ([`HashRelation::contains_exact`] and the `bool`
//! results of `insert`/`delete`), a repair records its net delta where
//! each change happens, and the propagation indexes are built when the
//! first change arrives — so a query costs nothing beyond the fixpoint
//! and a repair allocates in proportion to what it changes.

use crate::compile::{BodyElem, CompiledModule, CompiledRule, CompiledScc, SnVersion};
use crate::engine::{Engine, ModuleDef};
use crate::error::EvalResult;
use crate::join::{eval_rule, resolve_head, ExternalResolver, JoinCtx, Ranges};
use crate::rewrite::rewrite_module;
use crate::scan::{rel_scan, AnswerScan};
use crate::seminaive::{FixpointState, Strategy};
use coral_lang::{Adornment, FixpointKind, Literal, MaintainKind, PredRef, RewriteKind};
use coral_profile::Counter;
use coral_rel::{CountChange, CountStore, HashRelation, IndexSpec, Relation};
use coral_term::bindenv::EnvSet;
use coral_term::{unifies_with, Term, Tuple, VarId};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Cumulative engine-level maintenance counters (always on, unlike the
/// per-query `profile` counters, which count only while profiling is
/// enabled; the `:maintain` REPL command and the differential tests'
/// non-vacuousness assertions read these).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MaintainTotals {
    /// Base-fact changes propagated through at least one maintained
    /// state.
    pub propagated: u64,
    /// Tuples overdeleted by DRed phase one.
    pub overdeleted: u64,
    /// Overdeleted tuples rederived by DRed phase two.
    pub rederived: u64,
    /// Per-tuple derivation-count adjustments applied by counting
    /// propagation.
    pub count_updates: u64,
    /// Maintained states built (or rebuilt after staleness).
    pub rebuilds: u64,
}

/// Repair strategy for one SCC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SccStrategy {
    /// Derivation counting (non-recursive SCCs only).
    Counting,
    /// Delete-rederive.
    Dred,
}

/// A canonical set-level delta: `ins` and `del` are disjoint and every
/// tuple is a genuine presence transition of its relation.
#[derive(Clone, Default, Debug)]
struct Delta {
    ins: Rc<Vec<Tuple>>,
    del: Rc<Vec<Tuple>>,
}

impl Delta {
    fn new(ins: Vec<Tuple>, del: Vec<Tuple>) -> Delta {
        Delta {
            ins: Rc::new(ins),
            del: Rc::new(del),
        }
    }

    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }
}

/// Per-predicate deltas accumulated while a propagation walks the SCCs.
type Changes = HashMap<PredRef, Delta>;

/// How a sentinel predicate resolves during transformed-rule evaluation.
#[derive(Clone)]
enum View {
    /// Enumerate exactly these tuples (a delta or round list).
    List(Rc<Vec<Tuple>>),
    /// Existence witness: yield at most one tuple unifying with the
    /// pattern. Appended at body end where the pattern is fully bound,
    /// this makes the variant count each transition exactly once.
    Witness(Rc<Vec<Tuple>>),
    /// The pre-change contents of a changed predicate, reconstructed
    /// from its current contents: `current ∖ ins ∪ del`.
    Old {
        orig: PredRef,
        ins: Rc<HashSet<Tuple>>,
        del: Rc<Vec<Tuple>>,
    },
    /// The current contents of `orig` (a module-local relation or an
    /// engine-resolved base predicate).
    Cur { orig: PredRef },
}

type Views = HashMap<PredRef, View>;

/// The sentinel predicate for `(tag, pred)`. The `~` prefix cannot be
/// parsed as a user predicate name, so sentinels never collide with
/// program or rewritten predicates.
fn sent(tag: &str, p: PredRef) -> PredRef {
    PredRef::new(&format!("~mnt:{tag}:{p}"), p.arity)
}

fn relit(lit: &Literal, to: PredRef) -> Literal {
    Literal {
        pred: to.name,
        args: lit.args.clone(),
    }
}

fn ext(lit: &Literal, to: PredRef) -> BodyElem {
    BodyElem::External {
        lit: relit(lit, to),
    }
}

fn neg(lit: &Literal, to: PredRef) -> BodyElem {
    BodyElem::Negated {
        lit: relit(lit, to),
        local: false,
    }
}

/// `(literal, negated)` of a literal element, `None` for comparisons.
fn elem_lit(e: &BodyElem) -> Option<(&Literal, bool)> {
    match e {
        BodyElem::Local { lit, .. } | BodyElem::External { lit } => Some((lit, false)),
        BodyElem::Negated { lit, .. } => Some((lit, true)),
        BodyElem::Compare { .. } => None,
    }
}

/// Rewrite one body element for a non-delta position: `old = true` reads
/// the pre-change view of changed predicates, otherwise the current one.
/// Local literals always become sentinel externals so the transformed
/// rule needs no delta-range bookkeeping.
fn baseline(e: &BodyElem, changed: &HashSet<PredRef>, old: bool) -> BodyElem {
    match e {
        BodyElem::Compare { .. } => e.clone(),
        BodyElem::Local { lit, .. } => {
            let p = lit.pred_ref();
            if old && changed.contains(&p) {
                ext(lit, sent("old", p))
            } else {
                ext(lit, sent("cur", p))
            }
        }
        BodyElem::External { lit } => {
            let p = lit.pred_ref();
            if old && changed.contains(&p) {
                ext(lit, sent("old", p))
            } else {
                e.clone()
            }
        }
        BodyElem::Negated { lit, local } => {
            let p = lit.pred_ref();
            if old && changed.contains(&p) {
                neg(lit, sent("old", p))
            } else if *local {
                neg(lit, sent("cur", p))
            } else {
                e.clone()
            }
        }
    }
}

/// Which non-delta positions read the old database.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Telescoped finite differencing: positions before the delta read
    /// new, positions after it read old — exact for simultaneous
    /// multi-predicate changes.
    Exact,
    /// Every other position reads old (DRed overdeletion: derivations
    /// are counted against the pre-change database).
    AllOld,
    /// Every other position reads current (DRed insertion propagation
    /// and rederivation).
    AllCur,
}

/// Which change effects to generate variants for: derivations created
/// (`+1`), destroyed (`-1`), or both.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Effects {
    Positive,
    Negative,
    Both,
}

/// One transformed rule variant plus the sign of the derivations it
/// enumerates.
struct Variant {
    rule: CompiledRule,
    sign: i64,
}

/// Build one delta variant of `rule`: position `k` becomes `delta_elem`
/// (plus an optional witness appended at body end), every other position
/// is rewritten per `phase` against `changed`.
///
/// A *positive* delta element moves to the front of the body: the delta
/// list is tiny (often one tuple), so driving the join from it — with
/// every other literal probed under the bindings it provides — is the
/// difference between per-update and per-relation propagation cost.
/// The move is safe because a list enumeration needs no bound
/// arguments, and every other element still follows the same elements
/// it followed in the source order. A negated delta element stays in
/// place: negation must only run once its arguments are bound.
fn make_variant(
    rule: &CompiledRule,
    k: usize,
    delta_elem: BodyElem,
    extra: Option<BodyElem>,
    changed: &HashSet<PredRef>,
    phase: Phase,
) -> CompiledRule {
    let delta_first = matches!(delta_elem, BodyElem::External { .. });
    let mut body = Vec::with_capacity(rule.body.len() + 1);
    if delta_first {
        body.push(delta_elem.clone());
    }
    for (i, e) in rule.body.iter().enumerate() {
        if i == k {
            if !delta_first {
                body.push(delta_elem.clone());
            }
        } else {
            let old = match phase {
                Phase::Exact => i > k,
                Phase::AllOld => true,
                Phase::AllCur => false,
            };
            body.push(baseline(e, changed, old));
        }
    }
    if let Some(w) = extra {
        body.push(w);
    }
    CompiledRule::synthesized(rule, rule.nvars, body)
}

/// Generate the delta variants of `rule` for the predicates in
/// `delta_preds` (the set driving the delta positions), with non-delta
/// positions rewritten against `changed` (the set with old views).
fn delta_variants(
    rule: &CompiledRule,
    delta_preds: &HashSet<PredRef>,
    changed: &HashSet<PredRef>,
    phase: Phase,
    effects: Effects,
) -> Vec<Variant> {
    let mut out = Vec::new();
    for (k, e) in rule.body.iter().enumerate() {
        let Some((lit, negated)) = elem_lit(e) else {
            continue;
        };
        let p = lit.pred_ref();
        if !delta_preds.contains(&p) {
            continue;
        }
        // Positive occurrence: insertions create derivations, deletions
        // destroy them. Negated occurrence: a *deletion* from `p`
        // creates derivations (`¬p` holds now, witnessed by the deleted
        // tuple), an *insertion* destroys them (`¬p` held before,
        // witnessed by the inserted tuple). The witness sits at body end
        // where its arguments are fully bound, and yields at most one
        // tuple, so each transition counts exactly once.
        let variants = if negated {
            [
                (1, neg(lit, sent("cur", p)), Some(ext(lit, sent("wd", p)))),
                (-1, neg(lit, sent("old", p)), Some(ext(lit, sent("wi", p)))),
            ]
        } else {
            [
                (1, ext(lit, sent("di", p)), None),
                (-1, ext(lit, sent("dd", p)), None),
            ]
        };
        for (sign, delta_elem, witness) in variants {
            let wanted = match effects {
                Effects::Positive => sign > 0,
                Effects::Negative => sign < 0,
                Effects::Both => true,
            };
            if wanted {
                out.push(Variant {
                    rule: make_variant(rule, k, delta_elem, witness, changed, phase),
                    sign,
                });
            }
        }
    }
    out
}

/// The full-evaluation variant: every position at current. Used to
/// recount derivations when a counting state is built.
fn full_variant(rule: &CompiledRule) -> CompiledRule {
    let none = HashSet::new();
    let body = rule
        .body
        .iter()
        .map(|e| baseline(e, &none, false))
        .collect();
    CompiledRule::synthesized(rule, rule.nvars, body)
}

fn term_bound(t: &Term, bound: &HashSet<VarId>) -> bool {
    let mut vs = Vec::new();
    t.collect_vars(&mut vs);
    vs.iter().all(|v| bound.contains(v))
}

/// Create the indexes the delta-first propagation joins will probe: for
/// every rule and every potential delta position, walk the transformed
/// evaluation order (delta first, then the remaining elements in source
/// order) accumulating bound variables, and index each probed local or
/// base relation on the argument columns that arrive bound — the exact
/// analogue of the optimizer's automatic index selection (§5.3) for the
/// synthetic delta rules. Also covers the rederivation order, where the
/// head's arguments bind first. Over-approximation is harmless (lookup
/// only uses an index whose columns are actually bound by the query
/// pattern), creation is idempotent, and the relations are in-memory,
/// so this is cheap one-time work — done when a state's first change
/// arrives, never for a state that is only queried.
fn ensure_propagation_indexes(engine: &Engine, state: &FixpointState, cm: &CompiledModule) {
    let local: HashSet<PredRef> = cm.local_preds.iter().copied().collect();
    let mut wanted: HashSet<(PredRef, Vec<usize>)> = HashSet::new();
    for scc in &cm.sccs {
        for rule in &scc.rules {
            let n = rule.body.len();
            // Delta position `k`, or `n` for the rederivation order.
            for k in 0..=n {
                let mut bound: HashSet<VarId> = HashSet::new();
                let mut vs = Vec::new();
                if k == n {
                    for t in &rule.head.args {
                        t.collect_vars(&mut vs);
                    }
                } else {
                    let Some((lit, _)) = elem_lit(&rule.body[k]) else {
                        continue;
                    };
                    for t in &lit.args {
                        t.collect_vars(&mut vs);
                    }
                }
                bound.extend(vs);
                for (i, e) in rule.body.iter().enumerate() {
                    if i == k {
                        continue;
                    }
                    let Some((lit, _)) = elem_lit(e) else {
                        continue;
                    };
                    let cols: Vec<usize> = lit
                        .args
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| term_bound(a, &bound))
                        .map(|(c, _)| c)
                        .collect();
                    if !cols.is_empty() {
                        wanted.insert((lit.pred_ref(), cols));
                    }
                    // Negation binds nothing; a positive literal binds
                    // all its variables for the elements after it.
                    if !matches!(e, BodyElem::Negated { .. }) {
                        bound.extend(e.vars());
                    }
                }
            }
        }
    }
    for (p, cols) in wanted {
        if local.contains(&p) {
            if let Some(rel) = state.locals().get(p) {
                let _ = rel.make_index(IndexSpec::Args(cols));
            }
        } else if let Some(rel) = engine.db().get(p.name, p.arity) {
            let _ = rel.make_index(IndexSpec::Args(cols));
        }
    }
}

/// Build the sentinel views for the accumulated `changes` plus current
/// views for every module-local predicate.
fn make_views(cm: &CompiledModule, changes: &Changes) -> Views {
    let mut views = Views::new();
    for p in &cm.local_preds {
        views.insert(sent("cur", *p), View::Cur { orig: *p });
    }
    for (p, d) in changes {
        views.insert(sent("di", *p), View::List(Rc::clone(&d.ins)));
        views.insert(sent("dd", *p), View::List(Rc::clone(&d.del)));
        views.insert(sent("wi", *p), View::Witness(Rc::clone(&d.ins)));
        views.insert(sent("wd", *p), View::Witness(Rc::clone(&d.del)));
        views.insert(
            sent("old", *p),
            View::Old {
                orig: *p,
                ins: Rc::new(d.ins.iter().cloned().collect()),
                del: Rc::clone(&d.del),
            },
        );
        views.insert(sent("cur", *p), View::Cur { orig: *p });
    }
    views
}

/// Resolver serving sentinel views during transformed-rule evaluation;
/// everything else (unchanged base predicates, builtins) delegates to
/// the engine.
struct MaintainResolver<'a> {
    engine: &'a Engine,
    state: &'a FixpointState,
    views: &'a Views,
}

impl MaintainResolver<'_> {
    fn current(&self, orig: PredRef, pattern: &[Term]) -> EvalResult<AnswerScan> {
        if let Some(rel) = self.state.locals().get(orig) {
            return Ok(rel_scan(rel.lookup(pattern)));
        }
        let lit = Literal {
            pred: orig.name,
            args: pattern.to_vec(),
        };
        self.engine.candidates(&lit, pattern)
    }
}

impl ExternalResolver for MaintainResolver<'_> {
    fn cancelled(&self) -> bool {
        self.engine.cancelled()
    }

    fn check_budget(&self) -> EvalResult<()> {
        self.engine.check_budget()
    }

    fn charge_iteration(&self) -> EvalResult<()> {
        self.engine.charge_iteration()
    }

    fn candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan> {
        let pred = lit.pred_ref();
        let Some(view) = self.views.get(&pred) else {
            return self.engine.candidates(lit, pattern);
        };
        match view {
            View::List(v) => {
                let v = Rc::clone(v);
                Ok(Box::new((0..v.len()).map(move |i| Ok(v[i].clone()))))
            }
            View::Witness(v) => {
                let first = v.iter().find(|t| unifies_with(pattern, t)).cloned();
                Ok(Box::new(first.into_iter().map(Ok)))
            }
            View::Old { orig, ins, del } => {
                let mut out = Vec::new();
                for t in self.current(*orig, pattern)? {
                    let t = t?;
                    if !ins.contains(&t) {
                        out.push(t);
                    }
                }
                for t in del.iter() {
                    if unifies_with(pattern, t) {
                        out.push(t.clone());
                    }
                }
                Ok(Box::new(out.into_iter().map(Ok)))
            }
            View::Cur { orig } => self.current(*orig, pattern),
        }
    }
}

/// Evaluate one transformed rule against the views, feeding every head
/// solution to `emit`.
fn eval_variant(
    engine: &Engine,
    state: &FixpointState,
    views: &Views,
    rule: &CompiledRule,
    emit: &mut dyn FnMut(Tuple) -> EvalResult<()>,
) -> EvalResult<()> {
    let resolver = MaintainResolver {
        engine,
        state,
        views,
    };
    let ranges = Ranges::new();
    let ctx = JoinCtx {
        locals: state.locals(),
        external: &resolver,
        ranges: &ranges,
        hashjoin: None,
    };
    let mut envs = EnvSet::new();
    let head = rule.head.clone();
    eval_rule(&ctx, rule, SnVersion { delta_idx: None }, &mut envs, &mut {
        let emit = &mut *emit;
        move |envs, env| emit(resolve_head(envs, &head, env))
    })?;
    Ok(())
}

/// Gate for the `auto` strategy: modules whose base dependencies hold
/// fewer tuples than this recompute (the fixpoint is cheaper than the
/// bookkeeping). `auto` only ever maintains when cost statistics are on
/// — an unannotated module must not silently trade the query form's
/// binding propagation for an all-free materialization unless the
/// cost model asked for it.
const AUTO_MIN_BASE: usize = 16;

/// Gate for DRed's overdeletion phase: once the cone passes
/// `max(DRED_MIN_CONE, stored / 2)` tuples of the SCC, rederiving it
/// costs more than recomputing the module, so the repair gives up
/// (relations still untouched) and the next query rebuilds. The floor
/// keeps small relations on the repair path whatever the cone's share.
const DRED_MIN_CONE: usize = 4096;

/// A maintained materialization of one exported predicate: the kept
/// fixpoint state, per-SCC repair strategies, and derivation counts for
/// the counting SCCs. Every local relation is a set of ground tuples
/// (checked at build), so its own duplicate map decides membership.
pub(crate) struct MaintainedState {
    state: FixpointState,
    strategies: Vec<SccStrategy>,
    counts: HashMap<PredRef, CountStore>,
    /// Whether the propagation indexes exist yet (built by the first
    /// `propagate`; a state that is only queried never pays for them).
    indexed: bool,
    /// Base predicates (external, non-builtin) this module reads;
    /// sorted for deterministic fingerprints.
    base_deps: Vec<PredRef>,
    /// Per-relation mutation epochs of the *persistent* base deps, as
    /// of the last change this state saw. Persistent relations are
    /// shared across sessions, and another session's writes never reach
    /// this engine's `on_base_change` — the server-side epoch counter
    /// does advance, so any unseen interleaved write shows up as a gap
    /// and the state is discarded rather than read (see
    /// [`MaintainedState::propagate`] and `epochs_current`).
    base_epochs: HashMap<PredRef, u64>,
    /// True from propagation start to completion, and permanently on
    /// any anomaly: a stale state is discarded and rebuilt, never read.
    stale: bool,
}

/// The server-side mutation epoch of `pred`'s relation, if it is a
/// persistent relation. In-memory relations have no epoch: they are
/// private to this engine, which sees every change directly.
fn persistent_epoch(engine: &Engine, pred: PredRef) -> Option<u64> {
    let rel = engine.db().get(pred.name, pred.arity)?;
    rel.as_any()
        .downcast_ref::<coral_rel::PersistentRelation>()
        .map(|p| p.epoch())
}

/// Snapshot the epochs of every persistent base dependency. Taken
/// *before* the state reads the base relations, so a write racing the
/// build makes the recorded epoch lag the actual one — detected as a
/// gap later, forcing a rebuild (over-discarding is safe).
fn base_epochs_now(engine: &Engine, base_deps: &[PredRef]) -> HashMap<PredRef, u64> {
    base_deps
        .iter()
        .filter_map(|p| persistent_epoch(engine, *p).map(|e| (*p, e)))
        .collect()
}

/// The compile-time half of building a maintained state: rewrite with
/// no binding propagation, compile, and run every refusal gate that can
/// be decided before evaluation. `None` means the module (or this
/// export) is not maintainable — cached so the decision is made once.
fn prepare(
    engine: &Engine,
    mdef: &ModuleDef,
    pred: PredRef,
    kind: MaintainKind,
) -> Option<(Rc<CompiledModule>, Vec<SccStrategy>, Vec<PredRef>)> {
    let c = &mdef.controls;
    if c.pipelined || c.ordered || c.save || c.lazy {
        return None;
    }
    if !mdef.setup.multiset.is_empty() || !mdef.setup.aggsels.is_empty() {
        return None;
    }
    let adorn = Adornment::all_free(pred.arity);
    let protected: HashSet<PredRef> = mdef.setup.user_indexes.iter().map(|(p, _)| *p).collect();
    let rewritten = rewrite_module(&mdef.ast, pred, &adorn, RewriteKind::None, &protected, &[]);
    let opts = crate::compile::CompileOptions {
        fixpoint: c.fixpoint,
        ordered_search: false,
        intelligent_backtracking: !c.no_intelligent_backtracking,
        auto_index: !c.no_auto_index,
    };
    // Unstratified (or otherwise uncompilable) programs recompute.
    let mut cm = crate::compile::compile_with(rewritten, opts, &[]).ok()?;
    // Mirror the engine's compile-time planning: the maintained state
    // must evaluate the same cost-based join orders a direct call
    // would, or answering from it silently undoes the planner.
    crate::planner::plan_module(
        &mut cm,
        &crate::engine::DbStats {
            db: engine.db().as_ref(),
        },
        opts.intelligent_backtracking,
        opts.auto_index,
    );
    // Aggregation invalidates both algebras (a count or a rederivation
    // cannot see through a group).
    if cm
        .sccs
        .iter()
        .any(|s| !s.agg_rules.is_empty() || s.rules.iter().any(|r| r.agg.is_some()))
    {
        return None;
    }
    // Base dependencies; cross-module reads are refused (propagation
    // would have to re-enter other modules' evaluation mid-repair).
    let mut base_deps: Vec<PredRef> = Vec::new();
    for scc in &cm.sccs {
        for rule in &scc.rules {
            for e in &rule.body {
                let p = match e {
                    BodyElem::External { lit } | BodyElem::Negated { lit, local: false } => {
                        lit.pred_ref()
                    }
                    _ => continue,
                };
                if crate::engine::builtins::is_builtin(p) {
                    continue;
                }
                if engine.module_of(p).is_some() {
                    return None;
                }
                if !base_deps.contains(&p) {
                    base_deps.push(p);
                }
            }
        }
    }
    base_deps.sort_by_key(|p| (p.name.as_str().as_str().to_owned(), p.arity));
    // Multiset base relations have no set-level delta semantics.
    for p in &base_deps {
        if let Some(rel) = engine.db().get(p.name, p.arity) {
            if let Some(h) = rel.as_any().downcast_ref::<HashRelation>() {
                if h.dup_semantics() == coral_rel::DupSemantics::Multiset {
                    return None;
                }
            }
        }
    }
    // The cost-based default: tiny modules recompute.
    if kind == MaintainKind::Auto {
        let total: usize = base_deps
            .iter()
            .filter_map(|p| engine.db().get(p.name, p.arity))
            .map(|r| r.len())
            .sum();
        if total < AUTO_MIN_BASE {
            return None;
        }
    }
    let strategies: Vec<SccStrategy> = cm
        .sccs
        .iter()
        .map(|s| {
            if s.recursive || kind == MaintainKind::Dred {
                SccStrategy::Dred
            } else {
                SccStrategy::Counting
            }
        })
        .collect();
    Some((Rc::new(cm), strategies, base_deps))
}

impl MaintainedState {
    /// Build a fresh maintained state by running the module's fixpoint
    /// to completion, then checking every local relation is a ground set
    /// and initializing derivation counts.
    /// `Ok(None)` means unmaintainable (cached); `Err` is a genuine
    /// evaluation error the ordinary call path would also hit.
    fn build(
        engine: &Engine,
        mdef: &ModuleDef,
        pred: PredRef,
        kind: MaintainKind,
    ) -> EvalResult<Option<MaintainedState>> {
        let Some((cm, strategies, base_deps)) = prepare(engine, mdef, pred, kind) else {
            return Ok(None);
        };
        let base_epochs = base_epochs_now(engine, &base_deps);
        let mut state = FixpointState::new(Rc::clone(&cm), &mdef.setup)?
            .with_strategy(Strategy::from(mdef.controls.fixpoint))
            .with_threads(engine.threads());
        state.seed(&vec![Term::var(0); pred.arity])?;
        state.run(engine)?;
        // Non-ground, duplicate-collapsed or subsumed contents: neither
        // algebra models them.
        if !cm
            .local_preds
            .iter()
            .all(|p| state.locals().require(*p).is_ground_set())
        {
            return Ok(None);
        }
        // Recount derivations for every counting SCC and cross-check
        // against the fixpoint's contents. The recount joins the rules as
        // compiled, probing base relations the fixpoint read through
        // transient hash tables: give it the indexes a plain call gets.
        if strategies.contains(&SccStrategy::Counting) {
            engine.apply_external_indexes(mdef, &cm);
        }
        let mut counts: HashMap<PredRef, CountStore> = HashMap::new();
        let empty = Changes::new();
        let views = make_views(&cm, &empty);
        for (si, scc) in cm.sccs.iter().enumerate() {
            if strategies[si] != SccStrategy::Counting {
                continue;
            }
            let mut acc: HashMap<PredRef, HashMap<Tuple, u64>> = HashMap::new();
            for p in &scc.preds {
                acc.insert(*p, HashMap::new());
            }
            for rule in &scc.rules {
                let h = rule.head.pred_ref();
                let fv = full_variant(rule);
                eval_variant(engine, &state, &views, &fv, &mut |t| {
                    *acc.get_mut(&h).expect("scc head").entry(t).or_insert(0) += 1;
                    Ok(())
                })?;
            }
            for (p, m) in acc {
                let mut store = CountStore::new();
                for (t, n) in m {
                    store.set(t, n);
                }
                // The counted support must be exactly the relation (a
                // non-ground derivation is in no ground set).
                if !counts_mirror(&store, state.locals().require(p)) {
                    return Ok(None);
                }
                counts.insert(p, store);
            }
        }
        Ok(Some(MaintainedState {
            state,
            strategies,
            counts,
            indexed: false,
            base_deps,
            base_epochs,
            stale: false,
        }))
    }

    /// Propagate one base-fact change (`is_insert` = the tuple was just
    /// inserted, else just deleted; the base relation already reflects
    /// it). On any anomaly the state is left stale.
    pub(crate) fn propagate(
        &mut self,
        engine: &Engine,
        pred: PredRef,
        tuple: &Tuple,
        is_insert: bool,
    ) {
        if self.stale {
            return;
        }
        // Persistent base relations are shared across sessions. This
        // change bumped the server epoch by one; if the actual epoch
        // advanced further, another session wrote in between and this
        // state never saw it — discard rather than repair from a base
        // we did not observe completely.
        if let Some(recorded) = self.base_epochs.get_mut(&pred) {
            match persistent_epoch(engine, pred) {
                Some(actual) if actual == *recorded + 1 => *recorded = actual,
                _ => {
                    self.stale = true;
                    return;
                }
            }
        }
        self.stale = true;
        if !tuple.is_ground() {
            return;
        }
        // Indexes are access paths: building them after the base change
        // is as good as before it.
        if !self.indexed {
            ensure_propagation_indexes(engine, &self.state, self.state.compiled());
            self.indexed = true;
        }
        if let Ok(true) = self.propagate_inner(engine, pred, tuple, is_insert) {
            self.stale = false;
        }
    }

    /// Whether every persistent base dependency is still at the epoch
    /// this state last saw. A lagging epoch means another session wrote
    /// the shared relation behind our back; the state must be rebuilt
    /// before answering.
    pub(crate) fn epochs_current(&self, engine: &Engine) -> bool {
        self.base_epochs
            .iter()
            .all(|(p, &e)| persistent_epoch(engine, *p) == Some(e))
    }

    /// Returns `Ok(true)` on a complete, consistent propagation;
    /// `Ok(false)` on a modeling anomaly (stay stale); `Err` on an
    /// evaluation error (stay stale).
    fn propagate_inner(
        &mut self,
        engine: &Engine,
        pred: PredRef,
        tuple: &Tuple,
        is_insert: bool,
    ) -> EvalResult<bool> {
        let mut changes = Changes::new();
        let (ins, del) = if is_insert {
            (vec![tuple.clone()], Vec::new())
        } else {
            (Vec::new(), vec![tuple.clone()])
        };
        changes.insert(pred, Delta::new(ins, del));
        let cm = Rc::clone(self.state.compiled());
        for (si, scc) in cm.sccs.iter().enumerate() {
            let affected = scc.rules.iter().any(|r| {
                r.body
                    .iter()
                    .any(|e| elem_lit(e).is_some_and(|(l, _)| changes.contains_key(&l.pred_ref())))
            });
            if !affected {
                continue;
            }
            engine.check_budget()?;
            let out = match self.strategies[si] {
                SccStrategy::Counting => {
                    counting_scc(engine, &self.state, &cm, scc, &changes, &mut self.counts)?
                }
                SccStrategy::Dred => dred_scc(engine, &self.state, &cm, scc, &changes)?,
            };
            let Some(derived) = out else {
                return Ok(false);
            };
            changes.extend(derived);
        }
        engine.maintain_charge(|t| t.propagated += 1);
        coral_profile::bump(Counter::MaintainPropagated, 1);
        Ok(true)
    }
}

/// Counting repair of one non-recursive SCC: accumulate signed
/// derivation-count adjustments across every rule variant, apply each
/// tuple's net adjustment once, and turn the presence transitions into
/// the SCC's output delta. `Ok(None)` = anomaly, caller stays stale.
fn counting_scc(
    engine: &Engine,
    state: &FixpointState,
    cm: &CompiledModule,
    scc: &CompiledScc,
    changes: &Changes,
    counts: &mut HashMap<PredRef, CountStore>,
) -> EvalResult<Option<Changes>> {
    let views = make_views(cm, changes);
    let changed: HashSet<PredRef> = changes.keys().copied().collect();
    let mut acc: HashMap<PredRef, HashMap<Tuple, i64>> = HashMap::new();
    for p in &scc.preds {
        acc.insert(*p, HashMap::new());
    }
    let mut tainted = false;
    for rule in &scc.rules {
        let h = rule.head.pred_ref();
        for v in delta_variants(rule, &changed, &changed, Phase::Exact, Effects::Both) {
            engine.check_budget()?;
            eval_variant(engine, state, &views, &v.rule, &mut |t| {
                if !t.is_ground() {
                    tainted = true;
                    return Ok(());
                }
                *acc.get_mut(&h).expect("scc head").entry(t).or_insert(0) += v.sign;
                Ok(())
            })?;
        }
    }
    if tainted {
        return Ok(None);
    }
    let mut out = Changes::new();
    for (p, m) in acc {
        let store = counts.entry(p).or_default();
        let rel = state.locals().require(p);
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        let mut updates = 0u64;
        for (t, d) in m {
            if d == 0 {
                continue;
            }
            updates += 1;
            match store.adjust(&t, d) {
                CountChange::Appeared => {
                    if !rel.insert(t.clone())? {
                        return Ok(None);
                    }
                    ins.push(t);
                }
                CountChange::Disappeared => {
                    if !rel.delete(&t)? {
                        return Ok(None);
                    }
                    del.push(t);
                }
                CountChange::Unchanged => {}
                CountChange::Underflow => return Ok(None),
            }
        }
        if updates > 0 {
            engine.maintain_charge(|tot| tot.count_updates += updates);
            coral_profile::bump(Counter::MaintainCountUpdates, updates);
        }
        let delta = Delta::new(ins, del);
        if !delta.is_empty() {
            out.insert(p, delta);
        }
    }
    Ok(Some(out))
}

/// Whether `store`'s counted support is exactly `rel`'s contents.
fn counts_mirror(store: &CountStore, rel: &HashRelation) -> bool {
    store.len() == rel.len() && store.iter().all(|(t, _)| rel.contains_exact(t))
}

/// Semi-naive closure of one DRed phase: evaluate the `effects` delta
/// variants of the SCC's rules against the upstream changes, then round
/// by round against the head tuples `emit` accepted (it returns whether
/// the tuple is new to the phase), served through the `tag` sentinel.
/// Returns early, between variants, once `emit` has set `failed`.
#[allow(clippy::too_many_arguments)]
fn delta_closure(
    engine: &Engine,
    state: &FixpointState,
    scc: &CompiledScc,
    base_views: &Views,
    upstream: &HashSet<PredRef>,
    (phase, effects, tag): (Phase, Effects, &str),
    failed: &Cell<bool>,
    emit: &mut dyn FnMut(PredRef, &Tuple) -> EvalResult<bool>,
) -> EvalResult<()> {
    let mut delta_preds = upstream.clone();
    let mut views = base_views.clone();
    loop {
        let mut next: HashMap<PredRef, Vec<Tuple>> = HashMap::new();
        for rule in &scc.rules {
            let h = rule.head.pred_ref();
            for v in delta_variants(rule, &delta_preds, upstream, phase, effects) {
                engine.check_budget()?;
                eval_variant(engine, state, &views, &v.rule, &mut |t| {
                    if emit(h, &t)? {
                        next.entry(h).or_default().push(t);
                    }
                    Ok(())
                })?;
                if failed.get() {
                    return Ok(());
                }
            }
        }
        if next.is_empty() {
            return Ok(());
        }
        delta_preds = next.keys().copied().collect();
        views = base_views.clone();
        for (p, list) in next {
            views.insert(sent(tag, p), View::List(Rc::new(list)));
        }
    }
}

/// The SCC's relations as sets (the debug oracle's before/after).
fn scc_contents(state: &FixpointState, scc: &CompiledScc) -> HashMap<PredRef, HashSet<Tuple>> {
    let scan = |p: &PredRef| state.locals().require(*p).scan().flatten().collect();
    scc.preds.iter().map(|p| (*p, scan(p))).collect()
}

/// DRed repair of one recursive SCC: overdelete the cone of the
/// upstream deletions, physically delete it, rederive survivors from
/// the remaining database, then propagate upstream insertions
/// semi-naively. The net delta is recorded where each change happens:
/// what is left of the cone after phase 3 was deleted, a phase-3 insert
/// from outside the cone was inserted, and an overdeleted tuple that
/// comes back in phase 2 or 3 cancels to nothing. `Ok(None)` = not
/// repaired in place (an anomaly, or a cone past the gate); the caller
/// stays stale.
fn dred_scc(
    engine: &Engine,
    state: &FixpointState,
    cm: &CompiledModule,
    scc: &CompiledScc,
    changes: &Changes,
) -> EvalResult<Option<Changes>> {
    let rel_of = |p: PredRef| state.locals().require(p);
    let upstream: HashSet<PredRef> = changes.keys().copied().collect();
    let base_views = make_views(cm, changes);
    let stored: usize = scc.preds.iter().map(|p| rel_of(*p).len()).sum();
    // Debug builds check the recorded net delta against a before/after
    // scan — bounded, so that large relations keep the repair's
    // complexity there too.
    let before =
        (cfg!(debug_assertions) && stored <= DRED_MIN_CONE).then(|| scc_contents(state, scc));
    let failed = Cell::new(false);

    // Phase 1 — overdeletion fixpoint against the OLD database. The
    // SCC's own relations are physically untouched here, so their
    // "cur" views *are* the old contents; upstream changed predicates
    // read their adjusted old views.
    let cone_limit = DRED_MIN_CONE.max(stored / 2);
    let mut overdel: HashMap<PredRef, HashSet<Tuple>> =
        scc.preds.iter().map(|p| (*p, HashSet::new())).collect();
    let mut n_overdel = 0usize;
    delta_closure(
        engine,
        state,
        scc,
        &base_views,
        &upstream,
        (Phase::AllOld, Effects::Negative, "dd"),
        &failed,
        &mut |h, t| {
            if failed.get() || !t.is_ground() {
                failed.set(true);
                return Ok(false);
            }
            let od = overdel.get_mut(&h).expect("scc pred");
            if !rel_of(h).contains_exact(t) || !od.insert(t.clone()) {
                return Ok(false);
            }
            n_overdel += 1;
            if n_overdel > cone_limit {
                failed.set(true);
            }
            Ok(true)
        },
    )?;
    if failed.get() {
        return Ok(None);
    }

    // Phase 2 — physically delete the overdeleted cone, then rederive
    // survivors: an overdeleted head tuple that is still derivable from
    // the remaining (current) database goes back in. Loop until no
    // progress, since each rederived tuple may support others.
    for (p, set) in &overdel {
        for t in set {
            if !rel_of(*p).delete(t)? {
                return Ok(None);
            }
        }
    }
    let mut remaining = overdel;
    let mut rederived = 0u64;
    loop {
        engine.check_budget()?;
        let mut progress = false;
        for rule in &scc.rules {
            let h = rule.head.pred_ref();
            let rem = remaining.get_mut(&h).expect("scc pred");
            if rem.is_empty() {
                continue;
            }
            let mut views = base_views.clone();
            views.insert(
                sent("rd", h),
                View::List(Rc::new(rem.iter().cloned().collect())),
            );
            // rd(head args) binds a candidate, then the body checks
            // derivability from the current database.
            let mut body = vec![BodyElem::External {
                lit: Literal {
                    pred: sent("rd", h).name,
                    args: rule.head.args.clone(),
                },
            }];
            let none = HashSet::new();
            body.extend(rule.body.iter().map(|e| baseline(e, &none, false)));
            let rrule = CompiledRule::synthesized(rule, rule.nvars, body);
            let mut found: Vec<Tuple> = Vec::new();
            eval_variant(engine, state, &views, &rrule, &mut |t| {
                found.push(t);
                Ok(())
            })?;
            for t in found {
                if !t.is_ground() {
                    return Ok(None);
                }
                if rem.remove(&t) {
                    if !rel_of(h).insert(t)? {
                        return Ok(None);
                    }
                    rederived += 1;
                    progress = true;
                }
            }
        }
        if !progress {
            break;
        }
    }
    if n_overdel > 0 {
        engine.maintain_charge(|t| {
            t.overdeleted += n_overdel as u64;
            t.rederived += rederived;
        });
        coral_profile::bump(Counter::MaintainOverdeleted, n_overdel as u64);
        coral_profile::bump(Counter::MaintainRederived, rederived);
    }

    // Phase 3 — insertion propagation, semi-naive over the current
    // database (over-derivation is harmless under set semantics). A
    // tuple the relation already holds is no change; one that phase 2
    // left deleted and this phase brings back cancels out of the delta.
    let mut inserted: HashMap<PredRef, Vec<Tuple>> = HashMap::new();
    delta_closure(
        engine,
        state,
        scc,
        &base_views,
        &upstream,
        (Phase::AllCur, Effects::Positive, "di"),
        &failed,
        &mut |h, t| {
            if !t.is_ground() {
                failed.set(true);
                return Ok(false);
            }
            if !rel_of(h).insert(t.clone())? {
                return Ok(false);
            }
            if !remaining.get_mut(&h).expect("scc pred").remove(t) {
                inserted.entry(h).or_default().push(t.clone());
            }
            Ok(true)
        },
    )?;
    if failed.get() {
        return Ok(None);
    }

    // Net presence transitions of this SCC feed the downstream SCCs.
    let mut out = Changes::new();
    for (p, rem) in remaining {
        let d = Delta::new(
            inserted.remove(&p).unwrap_or_default(),
            rem.into_iter().collect(),
        );
        if !d.is_empty() {
            out.insert(p, d);
        }
    }
    if let Some(before) = before {
        let after = scc_contents(state, scc);
        for p in &scc.preds {
            let d = out.get(p).cloned().unwrap_or_default();
            let set = |v: &[Tuple]| v.iter().cloned().collect::<HashSet<Tuple>>();
            assert_eq!(set(&d.ins), &after[p] - &before[p], "{p}: recorded ins");
            assert_eq!(set(&d.del), &before[p] - &after[p], "{p}: recorded del");
            assert_eq!(
                (d.ins.len(), d.del.len()),
                (set(&d.ins).len(), set(&d.del).len())
            );
        }
    }
    Ok(Some(out))
}

// ---------------------------------------------------------------------
// Persistence: snapshots and the maintenance catalog.
// ---------------------------------------------------------------------

const SNAP_MAGIC: &[u8; 5] = b"CMNT1";
const CAT_MAGIC: &[u8; 5] = b"CCAT1";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Order-independent fingerprint of the module's base dependencies: a
/// snapshot is only restored when the base relations it was computed
/// from are byte-identical. `None` when a base tuple cannot be wire
/// encoded (ADT values) — such states are simply not persisted.
fn base_fingerprint(engine: &Engine, base_deps: &[PredRef]) -> Option<u64> {
    let mut h = 0xcbf29ce484222325u64;
    for p in base_deps {
        h = fnv1a(p.name.as_str().as_bytes(), h);
        h = fnv1a(&(p.arity as u64).to_be_bytes(), h);
        let Some(rel) = engine.db().get(p.name, p.arity) else {
            continue;
        };
        // Per-tuple hashes combine by wrapping sum, so scan order (and
        // therefore hash-map iteration order) cannot matter.
        let mut sum = 0u64;
        for t in rel.scan() {
            let t = t.ok()?;
            let wire = coral_rel::encoding::encode_tuple_wire(&t).ok()?;
            sum = sum.wrapping_add(fnv1a(&wire, 0xcbf29ce484222325));
        }
        h = fnv1a(&sum.to_be_bytes(), h);
    }
    Some(h)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_be_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_be_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).ok().map(str::to_owned)
    }

    fn blob(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

/// The catalog key for one maintained export.
pub(crate) fn snapshot_key(module: &str, pred: PredRef) -> String {
    format!("{module}\u{0}{}\u{0}{}", pred.name, pred.arity)
}

impl MaintainedState {
    /// Serialize this state for the maintenance catalog, or `None` when
    /// it cannot be persisted (stale, or carries non-wire-encodable
    /// terms).
    pub(crate) fn snapshot(&self, engine: &Engine) -> Option<Vec<u8>> {
        if self.stale {
            return None;
        }
        let fp = base_fingerprint(engine, &self.base_deps)?;
        let cm = self.state.compiled();
        let mut out = Vec::new();
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&fp.to_be_bytes());
        out.extend_from_slice(&(self.strategies.len() as u32).to_be_bytes());
        for s in &self.strategies {
            out.push(match s {
                SccStrategy::Counting => b'C',
                SccStrategy::Dred => b'D',
            });
        }
        let mut locals: Vec<PredRef> = cm.local_preds.clone();
        locals.sort_by_key(|p| (p.name.as_str().as_str().to_owned(), p.arity));
        out.extend_from_slice(&(locals.len() as u32).to_be_bytes());
        for p in &locals {
            put_str(&mut out, p.name.as_str().as_str());
            out.extend_from_slice(&(p.arity as u32).to_be_bytes());
            let rel = self.state.locals().get(*p)?;
            let mut tuples: Vec<Vec<u8>> = Vec::with_capacity(rel.len());
            for t in rel.scan_owned() {
                tuples.push(coral_rel::encoding::encode_tuple_wire(&t).ok()?);
            }
            tuples.sort();
            out.extend_from_slice(&(tuples.len() as u32).to_be_bytes());
            for w in tuples {
                put_bytes(&mut out, &w);
            }
        }
        let mut counting: Vec<(&PredRef, &CountStore)> = self.counts.iter().collect();
        counting.sort_by_key(|(p, _)| (p.name.as_str().as_str().to_owned(), p.arity));
        out.extend_from_slice(&(counting.len() as u32).to_be_bytes());
        for (p, store) in counting {
            put_str(&mut out, p.name.as_str().as_str());
            out.extend_from_slice(&(p.arity as u32).to_be_bytes());
            put_bytes(&mut out, &store.encode()?);
        }
        Some(out)
    }

    /// Rebuild a maintained state from a snapshot without running the
    /// fixpoint. Validates the magic, the base fingerprint, the SCC
    /// strategies, and the local-predicate set; any mismatch or damage
    /// returns `None` and the caller builds fresh — a torn or stale
    /// snapshot can cost a recomputation, never a wrong answer.
    fn restore(
        engine: &Engine,
        mdef: &ModuleDef,
        pred: PredRef,
        kind: MaintainKind,
        bytes: &[u8],
    ) -> Option<MaintainedState> {
        let (cm, strategies, base_deps) = prepare(engine, mdef, pred, kind)?;
        let base_epochs = base_epochs_now(engine, &base_deps);
        let mut r = Reader { bytes, at: 0 };
        if r.take(5)? != SNAP_MAGIC {
            return None;
        }
        let fp = r.u64()?;
        if base_fingerprint(engine, &base_deps)? != fp {
            return None;
        }
        let nsccs = r.u32()? as usize;
        if nsccs != strategies.len() {
            return None;
        }
        for s in &strategies {
            let tag = r.take(1)?[0];
            let want = match s {
                SccStrategy::Counting => b'C',
                SccStrategy::Dred => b'D',
            };
            if tag != want {
                return None;
            }
        }
        let state = FixpointState::new(Rc::clone(&cm), &mdef.setup).ok()?;
        // Every local predicate exactly once, each a set of ground
        // tuples (a repeated predicate or tuple fails its insert).
        let npreds = r.u32()? as usize;
        if npreds != cm.local_preds.len() {
            return None;
        }
        for _ in 0..npreds {
            let name = r.str()?;
            let arity = r.u32()? as usize;
            let p = PredRef::new(&name, arity);
            let rel = state.locals().get(p)?;
            if !rel.is_empty() {
                return None;
            }
            let n = r.u32()? as usize;
            for _ in 0..n {
                let wire = r.blob()?;
                let (t, used) = coral_rel::encoding::decode_tuple_wire(wire).ok()?;
                if used != wire.len() || !rel.insert(t).ok()? {
                    return None;
                }
            }
            if !rel.is_ground_set() {
                return None;
            }
        }
        let ncount = r.u32()? as usize;
        let mut counts: HashMap<PredRef, CountStore> = HashMap::new();
        for _ in 0..ncount {
            let name = r.str()?;
            let arity = r.u32()? as usize;
            let p = PredRef::new(&name, arity);
            let store = CountStore::decode(r.blob()?)?;
            // The counted support must mirror the restored relation.
            if !counts_mirror(&store, state.locals().get(p)?) {
                return None;
            }
            counts.insert(p, store);
        }
        if !r.done() {
            return None;
        }
        // Every counting SCC must have its store.
        for (si, s) in strategies.iter().enumerate() {
            if *s == SccStrategy::Counting {
                for p in &cm.sccs[si].preds {
                    counts.get(p)?;
                }
            }
        }
        Some(MaintainedState {
            state,
            strategies,
            counts,
            indexed: false,
            base_deps,
            base_epochs,
            stale: false,
        })
    }
}

/// Encode all live snapshots into one catalog blob for the storage
/// layer.
pub fn encode_catalog(snapshots: &HashMap<String, Vec<u8>>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CAT_MAGIC);
    out.extend_from_slice(&(snapshots.len() as u32).to_be_bytes());
    let mut keys: Vec<&String> = snapshots.keys().collect();
    keys.sort();
    for k in keys {
        put_str(&mut out, k);
        put_bytes(&mut out, &snapshots[k]);
    }
    out
}

/// Decode a catalog blob; `None` on any structural damage (the whole
/// catalog is then treated as absent and every state rebuilds).
pub fn decode_catalog(bytes: &[u8]) -> Option<HashMap<String, Vec<u8>>> {
    let mut r = Reader { bytes, at: 0 };
    if r.take(5)? != CAT_MAGIC {
        return None;
    }
    let n = r.u32()? as usize;
    let mut out = HashMap::with_capacity(n.min(1024));
    for _ in 0..n {
        let k = r.str()?;
        let v = r.blob()?.to_vec();
        out.insert(k, v);
    }
    if !r.done() {
        return None;
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Engine entry points.
// ---------------------------------------------------------------------

/// Maintained dispatch for a materialized module call: answer from (or
/// first build) the maintained state for `pred`. `Ok(None)` falls back
/// to ordinary evaluation — `@maintain recompute`, an incompatible
/// module, or an export decided unmaintainable.
pub(crate) fn try_maintained_call(
    engine: &Engine,
    mdef: &Rc<ModuleDef>,
    pred: PredRef,
    pattern: &[Term],
) -> EvalResult<Option<AnswerScan>> {
    let c = &mdef.controls;
    // `@naive` is the reference evaluator: it always recomputes.
    if c.pipelined || c.ordered || c.save || c.lazy || c.fixpoint == FixpointKind::Naive {
        return Ok(None);
    }
    let kind = c.maintain.unwrap_or(MaintainKind::Auto);
    if kind == MaintainKind::Recompute {
        return Ok(None);
    }
    let mut map = mdef.maintained.borrow_mut();
    let needs_build = match map.get(&pred) {
        Some(None) => return Ok(None),
        Some(Some(st)) => st.stale || !st.epochs_current(engine),
        None => true,
    };
    // `auto` must never trade a bound query's binding propagation
    // (magic rewriting) for an all-free materialization: it only ever
    // builds for query forms that materialize everything anyway. An
    // explicit `@maintain counting`/`dred` opts in for every form. An
    // already-built live state answers any form — that's a lookup, not
    // a fixpoint.
    if needs_build
        && kind == MaintainKind::Auto
        && !pattern.iter().all(|t| matches!(t, Term::Var(_)))
    {
        return Ok(None);
    }
    if needs_build {
        // A snapshot offered by the storage layer restores without a
        // fixpoint; fingerprint or shape mismatches build fresh.
        let restored = engine
            .offered_snapshot(&snapshot_key(&mdef.ast.name, pred))
            .and_then(|bytes| MaintainedState::restore(engine, mdef, pred, kind, &bytes));
        let built = match restored {
            Some(st) => Some(st),
            None => {
                let st = MaintainedState::build(engine, mdef, pred, kind)?;
                if st.is_some() {
                    engine.maintain_charge(|t| t.rebuilds += 1);
                }
                st
            }
        };
        map.insert(pred, built);
    }
    match map.get(&pred) {
        Some(Some(st)) => Ok(Some(crate::engine::answers_scan(&st.state, pattern))),
        _ => Ok(None),
    }
}

/// Propagate one base-fact change into every maintained state that
/// reads `pred`. Called by the engine after the base relation reported
/// a genuine presence transition.
pub(crate) fn on_base_change(engine: &Engine, pred: PredRef, tuple: &Tuple, is_insert: bool) {
    for mdef in engine.modules_snapshot() {
        let mut map = mdef.maintained.borrow_mut();
        for st in map.values_mut().flatten() {
            if st.base_deps.contains(&pred) {
                st.propagate(engine, pred, tuple, is_insert);
            }
        }
    }
}
