//! The engine: modules, inter-module calls, base relations, builtins.
//!
//! This is the run-time half of Figure 1's "query evaluation system".
//! The engine owns the base-relation catalog and the loaded program
//! modules; every literal evaluation goes through
//! [`Engine::candidates`], which dispatches to a base relation, a
//! computed (builtin) predicate, or a *module call* — and a module call
//! honours §5.6's contract: "The calling module will wait until the
//! called module returns answers to the subquery. The called module
//! presents a scan-like interface, and returns all answers to the
//! subquery upon repeated 'get-next-tuple' requests", with the point at
//! which answers appear depending on the callee's evaluation mode
//! (eager, lazy, pipelined, saved, ordered search).

use crate::budget::{Budget, BudgetUsage, Governor};
use crate::compile::CompiledModule;
use crate::error::{EvalError, EvalResult};
use crate::join::ExternalResolver;
use crate::planner::StatsSource;
use crate::rewrite::rewrite_module;
use crate::scan::{rel_scan, AnswerScan};
use crate::seminaive::{FixpointState, LocalSetup, Strategy};
use coral_lang::{
    Adornment, AggFn, Annotation, Binding, FixpointKind, Literal, MaintainKind, Module, PredRef,
    Query, RewriteKind, Rule,
};
use coral_profile::Counter;
use coral_rel::{
    AggSelKind, AggregateSelection, Database, DupSemantics, HashRelation, IndexSpec, Relation,
};
use coral_term::{unifies_with, Term, Tuple, VarId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A thread-safe handle that cancels in-flight evaluation on the engine
/// it was taken from. Cloneable and `Send`: a watchdog thread (or a
/// signal handler) can trigger it while the owning thread is inside a
/// fixpoint; the semi-naive, Ordered Search and pipelining inner loops
/// poll the flag and abort with [`EvalError::Cancelled`].
#[derive(Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Request cancellation of whatever the engine is evaluating.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested and not yet cleared.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Clear the flag so the engine can evaluate again.
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }
}

/// A snapshot of the engine's module catalog, used to roll back a failed
/// consult so it cannot leave modules (or their export entries)
/// partially registered.
pub struct CatalogSnapshot {
    n_modules: usize,
    exports: HashMap<PredRef, usize>,
    n_base_multiset: usize,
}

/// Evaluation controls for one module, from its annotations (§4, §5.4).
#[derive(Clone, Debug)]
pub struct ModuleControls {
    /// Pipelined (top-down) instead of materialized.
    pub pipelined: bool,
    /// Fixpoint variant for materialized evaluation.
    pub fixpoint: FixpointKind,
    /// Rewriting technique.
    pub rewrite: RewriteKind,
    /// `rewrite` came from an explicit `@rewrite` annotation (the
    /// cost-based optimizer only second-guesses the default).
    pub rewrite_explicit: bool,
    /// Return answers at iteration boundaries (§5.4.3).
    pub lazy: bool,
    /// Retain state between calls (§5.4.2).
    pub save: bool,
    /// Ordered Search evaluation (§5.4.1).
    pub ordered: bool,
    /// Ablation: disable intelligent backtracking.
    pub no_intelligent_backtracking: bool,
    /// Ablation: disable automatic index selection.
    pub no_auto_index: bool,
    /// Collect an [`crate::profile::EngineProfile`] for calls into this
    /// module (`@profile`).
    pub profile: bool,
    /// Incremental-maintenance strategy (`@maintain`); `None` = the
    /// `auto` default.
    pub maintain: Option<MaintainKind>,
}

impl Default for ModuleControls {
    fn default() -> ModuleControls {
        ModuleControls {
            pipelined: false,
            fixpoint: FixpointKind::Bsn,
            rewrite: RewriteKind::SupplementaryMagic,
            rewrite_explicit: false,
            lazy: false,
            save: false,
            ordered: false,
            no_intelligent_backtracking: false,
            no_auto_index: false,
            profile: false,
            maintain: None,
        }
    }
}

type CacheKey = (PredRef, String, Vec<usize>);

/// A loaded module.
pub struct ModuleDef {
    /// The source AST.
    pub ast: Module,
    /// Evaluation controls.
    pub controls: ModuleControls,
    /// Relation setup (multiset/aggregate selections/user indexes).
    pub setup: LocalSetup,
    compiled: RefCell<HashMap<CacheKey, Rc<CompiledModule>>>,
    /// Save-module facility: retained fixpoint states.
    pub(crate) saved: RefCell<HashMap<CacheKey, FixpointState>>,
    /// Incrementally maintained materializations per exported predicate
    /// (`None` = decided unmaintainable, cached).
    pub(crate) maintained: RefCell<HashMap<PredRef, Option<crate::maintain::MaintainedState>>>,
    /// Reentrancy guard (the save-module restriction of §5.4.2, also
    /// used to detect accidental cross-module recursion cycles).
    pub(crate) active: Cell<bool>,
}

struct EngineInner {
    db: Rc<Database>,
    modules: RefCell<Vec<Rc<ModuleDef>>>,
    exports: RefCell<HashMap<PredRef, usize>>,
    /// Multiset-declared base predicates (applied at relation creation).
    base_multiset: RefCell<Vec<PredRef>>,
    /// Engine-level runtime profiling flag (profiles every module call).
    profiling: Cell<bool>,
    /// Worker-pool size for partitioned delta evaluation (1 = serial;
    /// seeded from `CORAL_THREADS`, overridable per engine).
    threads: Cell<usize>,
    /// Profile of the most recently completed profiled call.
    last_profile: RefCell<Option<crate::profile::EngineProfile>>,
    /// Cooperative cancellation flag (shared with [`CancelToken`]s).
    cancel: Arc<AtomicBool>,
    /// Per-query resource budget applied to each top-level query
    /// (seeded from `CORAL_BUDGET_*`, overridable per engine).
    budget: Cell<Budget>,
    /// Budget enforcer, polled at the cancellation poll sites; shared
    /// with parallel workers via `Arc`.
    governor: Arc<Governor>,
    /// Cumulative maintenance counters (always on).
    maintain_totals: Cell<crate::maintain::MaintainTotals>,
    /// Snapshots offered by the storage layer at attach time, consumed
    /// when a maintained state is first needed.
    offered_snapshots: RefCell<HashMap<String, Vec<u8>>>,
}

/// The CORAL engine (cheaply cloneable handle).
#[derive(Clone)]
pub struct Engine {
    inner: Rc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine with an empty base-relation catalog.
    pub fn new() -> Engine {
        Engine {
            inner: Rc::new(EngineInner {
                db: Rc::new(Database::new()),
                modules: RefCell::new(Vec::new()),
                exports: RefCell::new(HashMap::new()),
                base_multiset: RefCell::new(Vec::new()),
                profiling: Cell::new(false),
                threads: Cell::new(crate::parallel::resolve_threads(None)),
                last_profile: RefCell::new(None),
                cancel: Arc::new(AtomicBool::new(false)),
                budget: Cell::new(Budget::from_env(Budget::unlimited())),
                governor: Arc::new(Governor::new()),
                maintain_totals: Cell::new(crate::maintain::MaintainTotals::default()),
                offered_snapshots: RefCell::new(HashMap::new()),
            }),
        }
    }

    /// A [`CancelToken`] for this engine. Tokens are `Send`: hand one to
    /// another thread to interrupt a runaway evaluation on this one.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.inner.cancel),
        }
    }

    /// Clear a pending cancellation request (servers call this before
    /// each request so a stale flag cannot cancel fresh work).
    pub fn clear_cancel(&self) {
        self.inner.cancel.store(false, Ordering::Relaxed);
    }

    /// Set the budget applied to each subsequent top-level query
    /// ([`Budget::unlimited`] turns the governor off).
    pub fn set_budget(&self, budget: Budget) {
        self.inner.budget.set(budget);
    }

    /// The configured per-query budget.
    pub fn budget(&self) -> Budget {
        self.inner.budget.get()
    }

    /// Arm the governor for one query under the configured budget:
    /// capture meter baselines, zero charged counters, start the
    /// deadline clock. [`Engine::query`] arms automatically; servers
    /// arm at each request boundary (next to [`Engine::clear_cancel`])
    /// so the deadline covers the whole request, and nested module
    /// calls inside one query never re-arm.
    pub fn arm_budget(&self) {
        self.inner.governor.arm(&self.inner.budget.get());
    }

    /// Turn every limit off until the next [`Engine::arm_budget`] (used
    /// around work that must not be billed to a query, e.g. consults).
    pub fn disarm_budget(&self) {
        self.inner.governor.disarm();
    }

    /// Live usage of the currently (or most recently) armed query.
    pub fn budget_usage(&self) -> BudgetUsage {
        self.inner.governor.usage()
    }

    /// The budget enforcer (shared with parallel workers).
    pub(crate) fn governor(&self) -> Arc<Governor> {
        Arc::clone(&self.inner.governor)
    }

    /// Snapshot the module catalog (loaded modules, export table,
    /// multiset declarations) for rollback via
    /// [`Engine::restore_catalog`].
    pub fn catalog_snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            n_modules: self.inner.modules.borrow().len(),
            exports: self.inner.exports.borrow().clone(),
            n_base_multiset: self.inner.base_multiset.borrow().len(),
        }
    }

    /// Restore the module catalog to a snapshot taken before a failed
    /// consult: modules loaded since are dropped and the export table is
    /// put back exactly, so no export can dangle into a rolled-back
    /// module. Base-relation *facts* are not rolled back (consulted data
    /// is append-only, and set semantics absorb re-consulted facts).
    pub fn restore_catalog(&self, snapshot: CatalogSnapshot) {
        self.inner.modules.borrow_mut().truncate(snapshot.n_modules);
        *self.inner.exports.borrow_mut() = snapshot.exports;
        self.inner
            .base_multiset
            .borrow_mut()
            .truncate(snapshot.n_base_multiset);
    }

    /// Enable or disable profiling for every subsequent module call (the
    /// runtime flag; counters are a no-op while it is off). When on,
    /// each top-level call leaves its [`crate::profile::EngineProfile`]
    /// in [`Engine::last_profile`].
    pub fn set_profiling(&self, on: bool) {
        self.inner.profiling.set(on);
        crate::profile::set_profiling(on);
    }

    /// Set the worker-pool size for partitioned delta evaluation
    /// (clamped to at least 1; 1 = fully serial).
    pub fn set_threads(&self, threads: usize) {
        self.inner
            .threads
            .set(crate::parallel::resolve_threads(Some(threads)));
    }

    /// The configured worker-pool size.
    pub fn threads(&self) -> usize {
        self.inner.threads.get()
    }

    /// Refresh statistics for every base relation with a full scan
    /// (the `ANALYZE` operation) and invalidate cached plans so the
    /// next call is costed against the fresh numbers. Returns the
    /// number of relations analyzed.
    pub fn analyze(&self) -> EvalResult<usize> {
        let mut n = 0;
        for (name, arity) in self.inner.db.list() {
            if let Some(rel) = self.inner.db.get(name, arity) {
                rel.analyze()?;
                n += 1;
            }
        }
        self.invalidate_plans();
        Ok(n)
    }

    /// Drop every module's compiled-plan cache (plans embed join orders
    /// chosen from statistics that may have changed), along with the
    /// maintained states built on those plans.
    fn invalidate_plans(&self) {
        for mdef in self.inner.modules.borrow().iter() {
            mdef.compiled.borrow_mut().clear();
            mdef.maintained.borrow_mut().clear();
        }
    }

    /// Cumulative maintenance counters since the engine was created.
    pub fn maintain_totals(&self) -> crate::maintain::MaintainTotals {
        self.inner.maintain_totals.get()
    }

    /// Fold an update into the cumulative maintenance counters.
    pub(crate) fn maintain_charge(&self, f: impl FnOnce(&mut crate::maintain::MaintainTotals)) {
        let mut t = self.inner.maintain_totals.get();
        f(&mut t);
        self.inner.maintain_totals.set(t);
    }

    /// Offer persisted maintenance snapshots (keyed by
    /// `maintain::snapshot_key`) for restoration when the
    /// corresponding states are first needed.
    pub fn offer_maintained_snapshots(&self, snapshots: HashMap<String, Vec<u8>>) {
        *self.inner.offered_snapshots.borrow_mut() = snapshots;
    }

    /// A previously offered snapshot for `key`, if any.
    pub(crate) fn offered_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.offered_snapshots.borrow().get(key).cloned()
    }

    /// Serialize every live (non-stale) maintained state for the
    /// storage layer's maintenance catalog.
    pub fn maintained_snapshots(&self) -> HashMap<String, Vec<u8>> {
        let mut out = HashMap::new();
        for mdef in self.modules_snapshot() {
            for (pred, st) in mdef.maintained.borrow().iter() {
                if let Some(st) = st {
                    if let Some(bytes) = st.snapshot(self) {
                        out.insert(crate::maintain::snapshot_key(&mdef.ast.name, *pred), bytes);
                    }
                }
            }
        }
        out
    }

    /// The loaded modules (cloned handles, so callers never hold the
    /// catalog borrow while evaluating).
    pub(crate) fn modules_snapshot(&self) -> Vec<Rc<ModuleDef>> {
        self.inner.modules.borrow().iter().cloned().collect()
    }

    /// Whether the engine-level runtime profiling flag is on.
    pub fn profiling(&self) -> bool {
        self.inner.profiling.get()
    }

    /// The profile of the most recently completed profiled call
    /// (`@profile` module or [`Engine::set_profiling`]).
    pub fn last_profile(&self) -> Option<crate::profile::EngineProfile> {
        self.inner.last_profile.borrow().clone()
    }

    /// The base-relation catalog.
    pub fn db(&self) -> &Rc<Database> {
        &self.inner.db
    }

    /// Insert a fact into a base relation (created on first use). A
    /// genuine presence transition propagates into every maintained
    /// state reading the relation.
    pub fn add_fact(&self, pred: PredRef, tuple: Tuple) -> EvalResult<bool> {
        let rel = self.base_relation(pred);
        let changed = rel.insert(tuple.clone())?;
        if changed {
            crate::maintain::on_base_change(self, pred, &tuple, true);
        }
        Ok(changed)
    }

    /// Delete a fact from a base relation; `false` when the relation or
    /// the tuple does not exist. A genuine removal propagates into
    /// every maintained state reading the relation.
    pub fn delete_fact(&self, pred: PredRef, tuple: &Tuple) -> EvalResult<bool> {
        let Some(rel) = self.inner.db.get(pred.name, pred.arity) else {
            return Ok(false);
        };
        let changed = rel.delete(tuple)?;
        if changed {
            crate::maintain::on_base_change(self, pred, tuple, false);
        }
        Ok(changed)
    }

    fn base_relation(&self, pred: PredRef) -> Rc<dyn Relation> {
        if let Some(r) = self.inner.db.get(pred.name, pred.arity) {
            return r;
        }
        let dup = if self.inner.base_multiset.borrow().contains(&pred) {
            DupSemantics::Multiset
        } else {
            DupSemantics::SetSubsuming
        };
        let r: Rc<dyn Relation> = Rc::new(HashRelation::with_semantics(pred.arity, dup));
        self.inner.db.register(pred.name, Rc::clone(&r));
        r
    }

    /// Register an externally built relation (e.g. a persistent relation
    /// or a computed relation from the embedding API) as a base relation.
    pub fn register_relation(&self, name: coral_term::Symbol, rel: Rc<dyn Relation>) {
        self.inner.db.register(name, rel);
    }

    /// Load a program module: parse controls from its annotations,
    /// validate, and register its exports.
    pub fn load_module(&self, ast: Module) -> EvalResult<()> {
        let mut controls = ModuleControls::default();
        let mut setup = LocalSetup::default();
        for ann in &ast.annotations {
            match ann {
                Annotation::Pipelining => controls.pipelined = true,
                Annotation::Materialize => controls.pipelined = false,
                Annotation::Fixpoint(k) => controls.fixpoint = *k,
                Annotation::Rewrite(k) => {
                    controls.rewrite = *k;
                    controls.rewrite_explicit = true;
                }
                Annotation::OrderedSearch => controls.ordered = true,
                Annotation::SaveModule => controls.save = true,
                Annotation::Lazy => controls.lazy = true,
                Annotation::NoIntelligentBacktracking => {
                    controls.no_intelligent_backtracking = true
                }
                Annotation::NoAutoIndex => controls.no_auto_index = true,
                // Read by the adornment phase (`adorn::adorn_module_opt`).
                Annotation::ReorderJoins => {}
                Annotation::Profile => controls.profile = true,
                Annotation::Maintain(k) => controls.maintain = Some(*k),
                Annotation::Multiset(p) => {
                    setup.multiset.insert(*p);
                }
                Annotation::AggregateSelection { .. } => {
                    let (pred, sel) = convert_aggsel(ann)?;
                    setup.aggsels.push((pred, sel));
                }
                Annotation::MakeIndex { .. } => {
                    let (pred, spec) = convert_make_index(ann);
                    setup.user_indexes.push((pred, spec));
                }
            }
        }
        let has_agg_heads = ast
            .rules
            .iter()
            .any(|r| !crate::depgraph::head_agg_positions(r).is_empty());
        if controls.save && has_agg_heads {
            return Err(EvalError::ModuleProtocol(format!(
                "module {}: @save_module cannot be combined with head aggregation \
                 (saved aggregates would go stale across calls)",
                ast.name
            )));
        }
        if controls.ordered && has_agg_heads {
            return Err(EvalError::ModuleProtocol(format!(
                "module {}: this implementation's Ordered Search handles negation; \
                 aggregate rules must live in stratified modules",
                ast.name
            )));
        }
        if controls.pipelined && has_agg_heads {
            return Err(EvalError::ModuleProtocol(format!(
                "module {}: head aggregation needs materialized evaluation \
                 (a pipelined rule cannot see the whole group)",
                ast.name
            )));
        }
        if controls.pipelined && controls.ordered {
            return Err(EvalError::ModuleProtocol(format!(
                "module {}: @pipelining and @ordered_search are mutually exclusive",
                ast.name
            )));
        }
        if matches!(controls.maintain, Some(k) if k != MaintainKind::Recompute) {
            let conflict = if controls.pipelined {
                Some("@pipelining")
            } else if controls.ordered {
                Some("@ordered_search")
            } else if controls.save {
                Some("@save_module")
            } else if controls.lazy {
                Some("@lazy")
            } else if controls.fixpoint == FixpointKind::Naive {
                Some("@naive")
            } else {
                None
            };
            if let Some(c) = conflict {
                return Err(EvalError::ModuleProtocol(format!(
                    "module {}: @maintain needs plain materialized evaluation \
                     and cannot be combined with {c}",
                    ast.name
                )));
            }
            if has_agg_heads {
                return Err(EvalError::ModuleProtocol(format!(
                    "module {}: @maintain cannot be combined with head aggregation \
                     (counts/DRed do not model group recomputation)",
                    ast.name
                )));
            }
        }
        // A new module can change which rules feed an already-maintained
        // export (cross-module calls), so maintained states start over.
        for mdef in self.inner.modules.borrow().iter() {
            mdef.maintained.borrow_mut().clear();
        }
        let def = Rc::new(ModuleDef {
            ast,
            controls,
            setup,
            compiled: RefCell::new(HashMap::new()),
            saved: RefCell::new(HashMap::new()),
            maintained: RefCell::new(HashMap::new()),
            active: Cell::new(false),
        });
        let idx = self.inner.modules.borrow().len();
        for export in &def.ast.exports {
            self.inner.exports.borrow_mut().insert(export.pred, idx);
        }
        // Modules without explicit exports export every defined pred.
        if def.ast.exports.is_empty() {
            for pred in def.ast.defined_preds() {
                self.inner.exports.borrow_mut().insert(pred, idx);
            }
        }
        self.inner.modules.borrow_mut().push(def);
        Ok(())
    }

    /// Apply a top-level (base relation) annotation.
    pub fn apply_annotation(&self, ann: &Annotation) -> EvalResult<()> {
        match ann {
            Annotation::MakeIndex { pred, .. } => {
                let (p, spec) = convert_make_index(ann);
                debug_assert_eq!(p, *pred);
                let rel = self.base_relation(*pred);
                rel.make_index(spec)?;
                Ok(())
            }
            Annotation::AggregateSelection { pred, .. } => {
                let (_, sel) = convert_aggsel(ann)?;
                let rel = self.base_relation(*pred);
                // Only hash relations accept insert-time selections.
                match self.inner.db.get(pred.name, pred.arity) {
                    Some(_) => {
                        let hash = rel_as_hash(&rel).ok_or_else(|| {
                            EvalError::ModuleProtocol(format!(
                                "aggregate selections apply to in-memory relations ({pred})"
                            ))
                        })?;
                        hash.add_aggregate_selection(sel)?;
                        Ok(())
                    }
                    None => unreachable!("base_relation registers"),
                }
            }
            Annotation::Multiset(pred) => {
                if self.inner.db.get(pred.name, pred.arity).is_some() {
                    return Err(EvalError::ModuleProtocol(format!(
                        "@multiset must precede facts for {pred}"
                    )));
                }
                self.inner.base_multiset.borrow_mut().push(*pred);
                Ok(())
            }
            other => Err(EvalError::ModuleProtocol(format!(
                "annotation {other:?} is only meaningful inside a module"
            ))),
        }
    }

    /// The module exporting `pred`, if any.
    pub fn module_of(&self, pred: PredRef) -> Option<Rc<ModuleDef>> {
        let idx = *self.inner.exports.borrow().get(&pred)?;
        Some(Rc::clone(&self.inner.modules.borrow()[idx]))
    }

    /// Dump the rewritten program the optimizer produced for a query
    /// form, "stored as a text file — useful as a debugging aid" (§2).
    pub fn explain(&self, pred: PredRef, adornment: &Adornment) -> EvalResult<String> {
        let mdef = self
            .module_of(pred)
            .ok_or_else(|| EvalError::UnknownPredicate(pred.to_string()))?;
        let cm = self.compiled_for(&mdef, pred, adornment, &[])?;
        Ok(coral_lang::pretty::module_to_string(&cm.rewritten.module))
    }

    fn compiled_for(
        &self,
        mdef: &Rc<ModuleDef>,
        pred: PredRef,
        adornment: &Adornment,
        dontcare: &[usize],
    ) -> EvalResult<Rc<CompiledModule>> {
        let key: CacheKey = (pred, adornment.to_string(), dontcare.to_vec());
        if let Some(cm) = mdef.compiled.borrow().get(&key) {
            return Ok(Rc::clone(cm));
        }
        let protected: std::collections::HashSet<PredRef> = mdef
            .setup
            .aggsels
            .iter()
            .map(|(p, _)| *p)
            .chain(mdef.setup.user_indexes.iter().map(|(p, _)| *p))
            .collect();
        let rewritten = if mdef.controls.ordered {
            // Ordered Search uses its own always-guarded magic variant
            // with pending capture and done guards (§5.4.1).
            crate::ordered_search::rewrite_ordered(&mdef.ast, pred, adornment)
        } else {
            rewrite_module(
                &mdef.ast,
                pred,
                adornment,
                mdef.controls.rewrite,
                &protected,
                dontcare,
            )
        };
        // User argument-form indexes feed compile's index table for
        // renamed local predicates through their origin names; pattern
        // indexes are applied at relation construction.
        let opts = crate::compile::CompileOptions {
            fixpoint: mdef.controls.fixpoint,
            ordered_search: mdef.controls.ordered,
            intelligent_backtracking: !mdef.controls.no_intelligent_backtracking,
            auto_index: !mdef.controls.no_auto_index,
        };
        let compiled = crate::compile::compile_with(rewritten, opts, &[]);
        let mut retreated = false;
        let mut cm = match compiled {
            Ok(cm) => cm,
            Err(EvalError::Unstratified(_)) if !mdef.controls.ordered => {
                // Magic rewriting can entangle an aggregate/negation
                // stratum with the magic predicates of its consumers,
                // making a stratified module unstratified (the classic
                // magic-sets/stratification conflict). If the *original*
                // module is stratified, retreat to evaluating it without
                // binding propagation — the query selection becomes a
                // post-filter, exactly the all-free semantics of §4.1.
                let original = crate::depgraph::analyze(&mdef.ast);
                if original.sccs.iter().any(|s| s.unstratified) {
                    return Err(EvalError::Unstratified(format!(
                        "module {} is not stratified; use @ordered_search",
                        mdef.ast.name
                    )));
                }
                let rw2 = rewrite_module(
                    &mdef.ast,
                    pred,
                    adornment,
                    RewriteKind::None,
                    &protected,
                    dontcare,
                );
                retreated = true;
                crate::compile::compile_with(
                    rw2,
                    crate::compile::CompileOptions {
                        ordered_search: false,
                        ..opts
                    },
                    &[],
                )?
            }
            Err(e) => return Err(e),
        };
        // `@naive` modules are the reference evaluator and keep their
        // source-order joins; Ordered Search fixes its own order.
        if !mdef.controls.ordered && mdef.controls.fixpoint != FixpointKind::Naive {
            let src = DbStats { db: &self.inner.db };
            // Strategy selection: the default rewriting is a guess, so
            // cost the factoring alternative and keep whichever module
            // plans cheaper (ties keep supplementary magic; factoring
            // falls back to it internally when the program's shape does
            // not factor, making this a no-op there). An explicit
            // `@rewrite` annotation is respected as written.
            if !retreated
                && !mdef.controls.rewrite_explicit
                && matches!(mdef.controls.rewrite, RewriteKind::SupplementaryMagic)
            {
                let rw_fact = rewrite_module(
                    &mdef.ast,
                    pred,
                    adornment,
                    RewriteKind::Factoring,
                    &protected,
                    dontcare,
                );
                if let Ok(cm_fact) = crate::compile::compile_with(rw_fact, opts, &[]) {
                    if crate::planner::module_cost(&cm_fact, &src)
                        < crate::planner::module_cost(&cm, &src)
                    {
                        cm = cm_fact;
                    }
                }
            }
            crate::planner::plan_module(
                &mut cm,
                &src,
                opts.intelligent_backtracking,
                opts.auto_index,
            );
        }
        let cm = Rc::new(cm);
        mdef.compiled.borrow_mut().insert(key, Rc::clone(&cm));
        Ok(cm)
    }

    /// Choose the query form for a call: the declared form with the most
    /// bound positions that only binds what the query actually grounds;
    /// without declarations, the induced adornment itself.
    fn choose_adornment(
        &self,
        mdef: &ModuleDef,
        pred: PredRef,
        pattern: &[Term],
    ) -> EvalResult<Adornment> {
        let induced = Adornment(
            pattern
                .iter()
                .map(|t| {
                    if t.is_ground() {
                        Binding::Bound
                    } else {
                        Binding::Free
                    }
                })
                .collect(),
        );
        match mdef.ast.export_of(pred) {
            None => Ok(induced),
            Some(export) => {
                let ground: Vec<usize> = induced.bound_positions();
                let mut best: Option<&Adornment> = None;
                for form in &export.forms {
                    if form.bound_positions().iter().all(|p| ground.contains(p)) {
                        let better = match best {
                            None => true,
                            Some(b) => form.bound_positions().len() > b.bound_positions().len(),
                        };
                        if better {
                            best = Some(form);
                        }
                    }
                }
                best.cloned().ok_or_else(|| {
                    EvalError::BadQueryForm(format!(
                        "query {pred} with pattern {induced} matches none of the declared forms {:?}",
                        export.forms.iter().map(|f| f.to_string()).collect::<Vec<_>>()
                    ))
                })
            }
        }
    }

    /// Apply the optimizer's index recommendations to base relations
    /// (idempotent; silently skipped for relation implementations that
    /// do not take indices, e.g. computed relations).
    pub(crate) fn apply_external_indexes(&self, mdef: &ModuleDef, cm: &CompiledModule) {
        for (pred, cols) in &cm.external_indexes {
            if let Some(rel) = self.inner.db.get(pred.name, pred.arity) {
                let _ = rel.make_index(IndexSpec::Args(cols.clone()));
            }
        }
        // User `@make_index` annotations naming base relations (local
        // predicates get theirs at relation construction).
        for (pred, spec) in &mdef.setup.user_indexes {
            if self.module_of(*pred).is_none() {
                if let Some(rel) = self.inner.db.get(pred.name, pred.arity) {
                    let _ = rel.make_index(spec.clone());
                }
            }
        }
    }

    /// Evaluate a call on an exported predicate, returning the scan of
    /// its answers (§5.6). `dontcare` marks query positions whose
    /// bindings the caller discards.
    pub fn module_call(
        &self,
        pred: PredRef,
        pattern: &[Term],
        dontcare: &[usize],
    ) -> EvalResult<AnswerScan> {
        let mdef = self
            .module_of(pred)
            .ok_or_else(|| EvalError::UnknownPredicate(pred.to_string()))?;
        let want_profile = mdef.controls.profile || self.inner.profiling.get();
        if !want_profile && !crate::profile::profiling() {
            return self.module_call_inner(&mdef, pred, pattern, dontcare);
        }
        // Outermost profiled call: diff all counters and gather per-SCC
        // sections around the call; nested calls fold into it (begin
        // returns None) but still count module-boundary pulls.
        let collector = if want_profile {
            crate::profile::Collector::begin()
        } else {
            None
        };
        let query = format!(
            "{}({})",
            pred.name,
            pattern
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        match self.module_call_inner(&mdef, pred, pattern, dontcare) {
            Ok(scan) => Ok(Box::new(ProfiledScan {
                inner: scan,
                engine: self.clone(),
                collector,
                query,
                answers: 0,
            })),
            Err(e) => {
                // The call failed (cancellation, budget kill, bad
                // program): still publish the partial profile so the
                // caller can see where the resources went. `finish`
                // restores the runtime flag.
                if let Some(c) = collector {
                    self.store_profile(c, query, 0);
                }
                Err(e)
            }
        }
    }

    /// Finish `collector` and publish the result as the engine's last
    /// profile, attaching budget usage when a budget is configured.
    fn store_profile(&self, collector: crate::profile::Collector, query: String, answers: u64) {
        let mut profile = collector.finish(query, answers);
        let budget = self.budget();
        if !budget.is_unlimited() {
            profile.budget = crate::profile::BudgetStats::new(&budget, &self.budget_usage());
        }
        *self.inner.last_profile.borrow_mut() = Some(profile);
    }

    fn module_call_inner(
        &self,
        mdef: &Rc<ModuleDef>,
        pred: PredRef,
        pattern: &[Term],
        dontcare: &[usize],
    ) -> EvalResult<AnswerScan> {
        let mdef = Rc::clone(mdef);
        if mdef.controls.pipelined {
            return Ok(Box::new(crate::pipeline::PipelinedScan::new(
                self.clone(),
                mdef,
                Literal {
                    pred: pred.name,
                    args: pattern.to_vec(),
                },
            )));
        }
        let adornment = self.choose_adornment(&mdef, pred, pattern)?;
        // Incrementally maintained exports answer from the maintained
        // state without re-running the fixpoint.
        if let Some(scan) = crate::maintain::try_maintained_call(self, &mdef, pred, pattern)? {
            return Ok(scan);
        }
        let cm = self.compiled_for(&mdef, pred, &adornment, dontcare)?;
        self.apply_external_indexes(&mdef, &cm);
        if mdef.controls.ordered {
            return crate::ordered_search::evaluate(self, &mdef, cm, pattern);
        }
        if mdef.controls.save {
            return crate::save_module::call(self, &mdef, cm, pred, &adornment, pattern);
        }
        // Plain materialized call: fresh state, discarded afterwards
        // ("CORAL … discards all intermediate facts and subgoals computed
        // by a module at the end of a call", §5.4.2); an all-free answer
        // scan keeps just the answers' subsidiaries alive.
        let mut state = FixpointState::new(Rc::clone(&cm), &mdef.setup)?
            .with_strategy(Strategy::from(mdef.controls.fixpoint))
            .with_threads(self.threads());
        state.seed(pattern)?;
        if mdef.controls.lazy {
            return Ok(Box::new(crate::save_module::LazyScan::new(
                self.clone(),
                state,
                pattern.to_vec(),
            )));
        }
        state.run(self)?;
        Ok(answers_scan(&state, pattern))
    }

    /// Run a top-level query: returns the scan of full-arity answer
    /// tuples. Query variables whose names begin with `_` are treated as
    /// existential (projection pushing, §4.1).
    pub fn query(&self, q: &Query) -> EvalResult<AnswerScan> {
        self.arm_budget();
        let pred = q.literal.pred_ref();
        let pattern = Tuple::new(q.literal.args.clone());
        let dontcare: Vec<usize> = q
            .literal
            .args
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Var(v) => q
                    .var_names
                    .get(v.0 as usize)
                    .is_some_and(|n| n.starts_with('_')),
                _ => false,
            })
            .map(|(i, _)| i)
            .collect();
        if self.module_of(pred).is_some() {
            self.module_call(pred, pattern.args(), &dontcare)
        } else {
            // Base relation or builtin: filtered lookup.
            let iter = self.candidates(&q.literal, pattern.args())?;
            Ok(unifying(iter, pattern.args()))
        }
    }
}

/// Re-expansion of projected answers to the query arity: kept columns
/// back in place, a fresh variable at every don't-care position.
pub(crate) fn expander(full_arity: usize, dontcare: &[usize]) -> impl Fn(Tuple) -> Tuple {
    let dontcare = dontcare.to_vec();
    move |t| {
        if dontcare.is_empty() {
            return t;
        }
        let mut fresh = t.nvars()..;
        let mut kept = t.args().iter().cloned();
        let arg = |j| match dontcare.contains(&j) {
            true => Term::Var(VarId(fresh.next().expect("unbounded"))),
            false => kept.next().expect("one stored column per kept position"),
        };
        Tuple::new((0..full_arity).map(arg).collect())
    }
}

/// The one read path of a materialized answers relation, maintained or
/// not: the answers unifying with `pattern`, re-expanded over the
/// positions the rewriting projected away. The scan is a copy-on-write
/// snapshot taken at open, and keeps the subsidiaries it reads alive, so
/// the caller may drop `state`. An all-distinct-variables pattern
/// streams the relation — nothing is copied or unified per tuple before
/// it is pulled; any other pattern filters (an indexed lookup, when
/// nothing was projected away), which applies the bindings the chosen
/// query form did not propagate as a post-selection; a lookup's errors
/// reach the caller.
pub(crate) fn answers_scan(state: &FixpointState, pattern: &[Term]) -> AnswerScan {
    let rel = state.answers();
    let dontcare = &state.compiled().rewritten.dontcare;
    let all_free = pattern
        .iter()
        .enumerate()
        .all(|(i, t)| matches!(t, Term::Var(_)) && !pattern[..i].contains(t));
    if dontcare.is_empty() && !all_free {
        return unifying(rel_scan(rel.lookup(pattern)), pattern);
    }
    let scan = rel.scan_owned().map(expander(pattern.len(), dontcare));
    if all_free {
        Box::new(scan.map(Ok))
    } else {
        unifying(scan.map(Ok), pattern)
    }
}

/// The tuples of `scan` that unify with `pattern`; errors pass through.
fn unifying(
    scan: impl Iterator<Item = EvalResult<Tuple>> + 'static,
    pattern: &[Term],
) -> AnswerScan {
    let pattern = pattern.to_vec();
    Box::new(scan.filter(move |r| match r {
        Ok(t) => unifies_with(&pattern, t),
        Err(_) => true,
    }))
}

/// Wraps a module call's answer scan: counts the §5.6 get-next-tuple
/// requests and, for the outermost profiled call, finalizes the
/// [`crate::profile::EngineProfile`] when the scan is exhausted (or
/// dropped early).
struct ProfiledScan {
    inner: AnswerScan,
    engine: Engine,
    collector: Option<crate::profile::Collector>,
    query: String,
    answers: u64,
}

impl ProfiledScan {
    fn finalize(&mut self) {
        if let Some(c) = self.collector.take() {
            self.engine
                .store_profile(c, std::mem::take(&mut self.query), self.answers);
        }
    }
}

impl Iterator for ProfiledScan {
    type Item = EvalResult<Tuple>;

    fn next(&mut self) -> Option<EvalResult<Tuple>> {
        let r = self.inner.next();
        coral_profile::bump(Counter::GetNextTuple, 1);
        match &r {
            Some(Ok(_)) => self.answers += 1,
            // Exhausted or failed: the call is over either way.
            None | Some(Err(_)) => self.finalize(),
        }
        r
    }
}

impl Drop for ProfiledScan {
    fn drop(&mut self) {
        self.finalize();
    }
}

impl ExternalResolver for Engine {
    fn cancelled(&self) -> bool {
        self.inner.cancel.load(Ordering::Relaxed)
    }

    fn check_budget(&self) -> EvalResult<()> {
        self.inner.governor.check()
    }

    fn charge_iteration(&self) -> EvalResult<()> {
        self.inner.governor.charge_iteration()
    }

    fn parallel_brake(&self) -> Option<crate::parallel::Brake> {
        Some(crate::parallel::Brake::new(
            Arc::clone(&self.inner.cancel),
            Arc::clone(&self.inner.governor),
        ))
    }

    fn candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<AnswerScan> {
        let pred = lit.pred_ref();
        // 1. Module exports take precedence (a module may redefine a
        //    builtin name).
        if self.module_of(pred).is_some() {
            return self.module_call(pred, pattern, &[]);
        }
        // 2. Base relations.
        if let Some(rel) = self.inner.db.get(pred.name, pred.arity) {
            return Ok(rel_scan(rel.lookup(pattern)));
        }
        // 3. Builtins.
        if let Some(tuples) = builtins::eval(pred, pattern)? {
            return Ok(Box::new(tuples.into_iter().map(Ok)));
        }
        Err(EvalError::UnknownPredicate(format!(
            "{pred} is neither a base relation, an exported predicate, nor a builtin"
        )))
    }

    fn pred_stats(&self, pred: &PredRef) -> Option<crate::planner::PredStats> {
        DbStats { db: &self.inner.db }.pred_stats(pred)
    }

    fn parallel_source(&self, lit: &Literal) -> Option<crate::parallel::ParallelSource> {
        use crate::parallel::ParallelSource;
        let pred = lit.pred_ref();
        // Mirror `candidates` precedence exactly: a module export or a
        // non-hash (persistent, list) relation re-enters the engine, so
        // workers cannot read it.
        if self.module_of(pred).is_some() {
            return None;
        }
        if let Some(rel) = self.inner.db.get(pred.name, pred.arity) {
            return rel_as_hash(&rel).map(|h| ParallelSource::Snapshot(h.snapshot()));
        }
        if builtins::is_builtin(pred) {
            return Some(ParallelSource::Builtin);
        }
        None
    }
}

fn rel_as_hash(rel: &Rc<dyn Relation>) -> Option<&HashRelation> {
    rel.as_any().downcast_ref::<HashRelation>()
}

/// Planner statistics source over the engine's base-relation catalog.
/// Derived predicates and relations without maintained statistics
/// resolve to `None` (the planner's no-information default).
pub(crate) struct DbStats<'a> {
    pub(crate) db: &'a Database,
}

impl crate::planner::StatsSource for DbStats<'_> {
    fn pred_stats(&self, pred: &PredRef) -> Option<crate::planner::PredStats> {
        let rel = self.db.get(pred.name, pred.arity)?;
        rel.stats()
            .map(|s| crate::planner::PredStats::from_rel_stats(&s))
    }
}

fn convert_aggsel(ann: &Annotation) -> EvalResult<(PredRef, AggregateSelection)> {
    let Annotation::AggregateSelection {
        pred,
        group_vars,
        agg,
        agg_var,
        pattern_vars,
    } = ann
    else {
        unreachable!()
    };
    let pos_of = |v: &coral_term::Symbol| pattern_vars.iter().position(|p| p == v).unwrap();
    let kind = match agg {
        AggFn::Min => AggSelKind::Min,
        AggFn::Max => AggSelKind::Max,
        AggFn::Any => AggSelKind::Any,
        other => {
            return Err(EvalError::ModuleProtocol(format!(
                "@aggregate_selection supports min/max/any, not {}",
                other.name()
            )))
        }
    };
    Ok((
        *pred,
        AggregateSelection {
            group_cols: group_vars.iter().map(pos_of).collect(),
            kind,
            target_col: pos_of(agg_var),
        },
    ))
}

fn convert_make_index(ann: &Annotation) -> (PredRef, IndexSpec) {
    let Annotation::MakeIndex {
        pred,
        pattern,
        key_vars,
    } = ann
    else {
        unreachable!()
    };
    // All-distinct-variable patterns are argument-form indices.
    let mut simple_positions = Vec::new();
    let all_plain_vars = pattern.iter().all(|t| matches!(t, Term::Var(_)));
    if all_plain_vars {
        for kv in key_vars {
            if let Some(pos) = pattern
                .iter()
                .position(|t| matches!(t, Term::Var(v) if v == kv))
            {
                simple_positions.push(pos);
            }
        }
        if simple_positions.len() == key_vars.len() {
            return (*pred, IndexSpec::Args(simple_positions));
        }
    }
    (
        *pred,
        IndexSpec::Pattern {
            pattern: pattern.clone(),
            key_vars: key_vars.clone(),
        },
    )
}

/// Rules defining a predicate within a module AST (pipelining walks the
/// original rules).
pub fn rules_of(ast: &Module, pred: PredRef) -> Vec<Rc<Rule>> {
    ast.rules
        .iter()
        .filter(|r| r.head.pred_ref() == pred)
        .map(|r| Rc::new(r.clone()))
        .collect()
}

/// Built-in computed predicates (list manipulation; the paper's system
/// libraries).
pub mod builtins {
    use super::*;

    /// Evaluate a builtin: `Ok(Some(tuples))` with the candidate tuples,
    /// `Ok(None)` if `pred` is not a builtin.
    pub fn eval(pred: PredRef, pattern: &[Term]) -> EvalResult<Option<Vec<Tuple>>> {
        let name = pred.name.as_str();
        match (name.as_str(), pred.arity) {
            ("append", 3) => append3(pattern).map(Some),
            ("member", 2) => member2(pattern).map(Some),
            ("length", 2) => length2(pattern).map(Some),
            ("reverse", 2) => reverse2(pattern).map(Some),
            ("nth1", 3) => nth1_3(pattern).map(Some),
            ("between", 3) => between3(pattern).map(Some),
            ("sum_list", 2) => sum_list2(pattern).map(Some),
            ("sort", 2) => sort2(pattern).map(Some),
            _ => Ok(None),
        }
    }

    /// The binding modes of builtin `pred`: each entry lists argument
    /// positions that, once all bound, make a call safe (any one entry
    /// suffices). `None` when `pred` is not a builtin. This mirrors the
    /// `Unsafe` conditions of the evaluators below; the planner uses it
    /// to keep a builtin behind the literals that bind its inputs.
    pub fn modes(pred: PredRef) -> Option<&'static [&'static [usize]]> {
        let name = pred.name.as_str();
        Some(match (name.as_str(), pred.arity) {
            ("append", 3) => &[&[0, 1], &[2]],
            ("member", 2) => &[&[1]],
            ("length", 2) => &[&[0], &[1]],
            ("reverse", 2) => &[&[0], &[1]],
            ("nth1", 3) => &[&[1]],
            ("between", 3) => &[&[0, 1]],
            ("sum_list", 2) => &[&[0]],
            ("sort", 2) => &[&[0]],
            _ => return None,
        })
    }

    /// Whether `pred` names a builtin, without evaluating it. Builtins
    /// are pure functions of their pattern, so parallel workers may call
    /// [`eval`] directly on any thread.
    pub fn is_builtin(pred: PredRef) -> bool {
        modes(pred).is_some()
    }

    fn list_of(t: &Term) -> Option<Vec<Term>> {
        t.list_elems().map(|v| v.into_iter().cloned().collect())
    }

    fn append3(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        let (a, b, c) = (&pattern[0], &pattern[1], &pattern[2]);
        if let (Some(xs), Some(ys)) = (list_of(a), list_of(b)) {
            let zs: Vec<Term> = xs.iter().chain(&ys).cloned().collect();
            return Ok(vec![Tuple::new(vec![
                Term::list(xs),
                Term::list(ys),
                Term::list(zs),
            ])]);
        }
        if let Some(zs) = list_of(c) {
            // All splits of zs.
            let mut out = Vec::with_capacity(zs.len() + 1);
            for i in 0..=zs.len() {
                out.push(Tuple::new(vec![
                    Term::list(zs[..i].to_vec()),
                    Term::list(zs[i..].to_vec()),
                    Term::list(zs.clone()),
                ]));
            }
            return Ok(out);
        }
        Err(EvalError::Unsafe(
            "append/3 needs its first two or its last argument to be a proper list".into(),
        ))
    }

    fn member2(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        match list_of(&pattern[1]) {
            Some(elems) => Ok(elems
                .iter()
                .map(|e| Tuple::new(vec![e.clone(), pattern[1].clone()]))
                .collect()),
            None => Err(EvalError::Unsafe(
                "member/2 needs its second argument to be a proper list".into(),
            )),
        }
    }

    fn reverse2(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        if let Some(mut xs) = list_of(&pattern[0]) {
            xs.reverse();
            return Ok(vec![Tuple::new(vec![pattern[0].clone(), Term::list(xs)])]);
        }
        if let Some(mut ys) = list_of(&pattern[1]) {
            ys.reverse();
            return Ok(vec![Tuple::new(vec![Term::list(ys), pattern[1].clone()])]);
        }
        Err(EvalError::Unsafe(
            "reverse/2 needs one argument to be a proper list".into(),
        ))
    }

    fn nth1_3(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        let Some(xs) = list_of(&pattern[1]) else {
            return Err(EvalError::Unsafe(
                "nth1/3 needs its second argument to be a proper list".into(),
            ));
        };
        let mk = |i: usize, e: &Term| {
            Tuple::new(vec![Term::int(i as i64), pattern[1].clone(), e.clone()])
        };
        if let Term::Int(n) = pattern[0] {
            let idx = n as usize;
            return Ok(if n >= 1 && idx <= xs.len() {
                vec![mk(idx, &xs[idx - 1])]
            } else {
                Vec::new()
            });
        }
        Ok(xs.iter().enumerate().map(|(i, e)| mk(i + 1, e)).collect())
    }

    fn between3(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        let (Term::Int(lo), Term::Int(hi)) = (&pattern[0], &pattern[1]) else {
            return Err(EvalError::Unsafe(
                "between/3 needs ground integer bounds".into(),
            ));
        };
        if hi - lo > 10_000_000 {
            return Err(EvalError::Unsafe("between/3 range larger than 10^7".into()));
        }
        Ok((*lo..=*hi)
            .map(|v| Tuple::new(vec![Term::int(*lo), Term::int(*hi), Term::int(v)]))
            .collect())
    }

    fn sum_list2(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        let Some(xs) = list_of(&pattern[0]) else {
            return Err(EvalError::Unsafe(
                "sum_list/2 needs its first argument to be a proper list".into(),
            ));
        };
        let mut int_sum = 0i64;
        let mut f_sum = 0.0f64;
        let mut any_double = false;
        for x in &xs {
            match x {
                Term::Int(v) => {
                    int_sum = int_sum
                        .checked_add(*v)
                        .ok_or_else(|| EvalError::Arith("sum_list/2 overflow".into()))?;
                    f_sum += *v as f64;
                }
                Term::Double(d) => {
                    any_double = true;
                    f_sum += d.get();
                }
                other => {
                    return Err(EvalError::Arith(format!(
                        "sum_list/2: non-numeric element {other}"
                    )))
                }
            }
        }
        let total = if any_double {
            Term::double(f_sum)
        } else {
            Term::int(int_sum)
        };
        Ok(vec![Tuple::new(vec![pattern[0].clone(), total])])
    }

    fn sort2(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        let Some(mut xs) = list_of(&pattern[0]) else {
            return Err(EvalError::Unsafe(
                "sort/2 needs its first argument to be a proper list".into(),
            ));
        };
        xs.sort_by(|a, b| a.order_cmp(b));
        xs.dedup();
        Ok(vec![Tuple::new(vec![pattern[0].clone(), Term::list(xs)])])
    }

    fn length2(pattern: &[Term]) -> EvalResult<Vec<Tuple>> {
        if let Some(elems) = list_of(&pattern[0]) {
            return Ok(vec![Tuple::new(vec![
                pattern[0].clone(),
                Term::int(elems.len() as i64),
            ])]);
        }
        if let Term::Int(n) = pattern[1] {
            if n >= 0 {
                let elems: Vec<Term> = (0..n as u32).map(Term::var).collect();
                return Ok(vec![Tuple::new(vec![Term::list(elems), Term::int(n)])]);
            }
        }
        Err(EvalError::Unsafe(
            "length/2 needs a proper list or a non-negative length".into(),
        ))
    }
}
