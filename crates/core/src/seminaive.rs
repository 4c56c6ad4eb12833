//! Materialized evaluation: fixpoints over the mark machinery (§5.3).
//!
//! "Bottom-up evaluation iterates on a set of rules, repeatedly
//! evaluating them until a fixpoint is reached. In order to perform
//! incremental evaluation of rules across multiple iterations, CORAL uses
//! the semi-naive evaluation technique … The delta relations contain
//! changes in relations since the last iteration." Delta relations here
//! are mark ranges over `HashRelation` subsidiaries (§3.2).
//!
//! Three strategies are provided:
//!
//! * [`Strategy::Naive`] — re-evaluate every rule over the full relations
//!   each iteration (the baseline semi-naive is measured against);
//! * [`Strategy::Bsn`] — Basic Semi-Naive: one delta version per
//!   recursive body literal, iteration-synchronized marks;
//! * [`Strategy::Psn`] — Predicate Semi-Naive (§4.2, paper ref \[22\]): within a
//!   sweep, each predicate's rules run in order and its marks advance
//!   immediately, so facts propagate to later predicates in the *same*
//!   sweep — "better for programs with many mutually recursive
//!   predicates".
//!
//! [`FixpointState`] is re-entrant: facts inserted into local relations
//! between runs (new magic seeds for the save-module facility §5.4.2,
//! context/done facts for Ordered Search §5.4.1) are picked up through
//! the persistent per-SCC marks, and no derivation is repeated.

use crate::aggregate::eval_agg_rule;
use crate::compile::{BodyElem, CompiledModule, CompiledRule, CompiledScc, SnVersion};
use crate::error::{EvalError, EvalResult};
use crate::join::{
    eval_rule, resolve_head, ExternalResolver, HashJoinState, JoinCtx, LocalRels, Ranges,
};
use crate::parallel::{
    eval_chunk, partition, run_tasks, JobCtx, LocalView, ParallelSource, MIN_CHUNK,
};
use crate::profile::ParallelStats;
use coral_lang::{FixpointKind, PredRef};
use coral_profile::Counter;
use coral_rel::{AggregateSelection, DupSemantics, HashRelation, IndexSpec, Mark, Relation};
use coral_term::bindenv::EnvSet;
use coral_term::Tuple;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// The fixpoint strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Naive re-evaluation (baseline).
    Naive,
    /// Basic Semi-Naive.
    Bsn,
    /// Predicate Semi-Naive.
    Psn,
}

impl From<FixpointKind> for Strategy {
    fn from(k: FixpointKind) -> Strategy {
        match k {
            FixpointKind::Bsn => Strategy::Bsn,
            FixpointKind::Psn => Strategy::Psn,
            FixpointKind::Naive => Strategy::Naive,
        }
    }
}

/// Per-module relation setup derived from annotations: multiset
/// semantics, aggregate selections and user indices, keyed by the
/// *original* (pre-rewriting) predicate.
#[derive(Default, Clone)]
pub struct LocalSetup {
    /// Predicates with `@multiset` semantics.
    pub multiset: HashSet<PredRef>,
    /// `@aggregate_selection` filters.
    pub aggsels: Vec<(PredRef, AggregateSelection)>,
    /// `@make_index` pattern/argument indices.
    pub user_indexes: Vec<(PredRef, IndexSpec)>,
}

/// Evaluation statistics (observed by the benchmark harness).
#[derive(Default, Clone, Copy, Debug)]
pub struct FixpointStats {
    /// Fixpoint iterations executed.
    pub iterations: u64,
    /// Rule (version) evaluations.
    pub rule_firings: u64,
    /// Facts inserted (new, after duplicate checks).
    pub facts_derived: u64,
    /// Solutions produced by rule bodies (before duplicate checks).
    pub solutions: u64,
}

/// Re-entrant fixpoint state for one materialized module call.
pub struct FixpointState {
    cm: Rc<CompiledModule>,
    locals: LocalRels,
    strategy: Strategy,
    /// Per (SCC, predicate) delta boundaries, persistent across runs.
    marks: HashMap<(usize, PredRef), (Mark, Mark)>,
    /// Non-recursive rule versions already evaluated, per SCC.
    none_done: HashSet<(usize, usize)>,
    /// Aggregate rules already evaluated, per SCC.
    agg_done: Vec<bool>,
    /// Naive strategy: SCCs whose last iteration derived nothing.
    naive_done: Vec<bool>,
    /// Statistics.
    pub stats: FixpointStats,
    /// Identity for the profiler's per-SCC sections (distinguishes
    /// nested module calls within one collected profile).
    profile_id: u64,
    /// Worker-pool size for partitioned delta evaluation (1 = serial).
    threads: usize,
    /// The transient hash-table cache for this fixpoint.
    hj: HashJoinState,
    /// Adaptive plan overrides, keyed by (SCC, rule index, version
    /// index): a reordered copy of the rule plus the remapped delta
    /// version, installed by [`FixpointState::maybe_replan`] when the
    /// observed delta cardinalities make a different join order cheaper.
    overrides: HashMap<(usize, usize, usize), Rc<PlannedVersion>>,
    envs: EnvSet,
}

/// One adaptive plan override: a rule with its body reordered for the
/// observed statistics, and the matching semi-naive version (the delta
/// literal's new position).
struct PlannedVersion {
    rule: CompiledRule,
    version: SnVersion,
    /// The permutation that produced `rule` (`perm[new] = old`), kept to
    /// detect when a re-cost converges on the same order.
    perm: Vec<usize>,
}

/// Label of one semi-naive rule version for the profile's per-rule rows.
fn rule_version_label(rule: &crate::compile::CompiledRule, version: &SnVersion) -> String {
    match version.delta_idx {
        Some(d) => format!("{} δ{d}", rule.head.pred_ref()),
        None => format!("{} (non-delta)", rule.head.pred_ref()),
    }
}

impl FixpointState {
    /// Build the state: creates every local relation with its semantics,
    /// selections and indices.
    pub fn new(cm: Rc<CompiledModule>, setup: &LocalSetup) -> EvalResult<FixpointState> {
        let mut locals = LocalRels::new();
        for pred in &cm.local_preds {
            let origin = cm.rewritten.origin.get(pred).copied();
            let dup = if origin.is_some_and(|o| setup.multiset.contains(&o)) {
                DupSemantics::Multiset
            } else {
                DupSemantics::SetSubsuming
            };
            let rel = Rc::new(HashRelation::with_semantics(pred.arity, dup));
            if let Some(o) = origin {
                for (p, sel) in &setup.aggsels {
                    if *p == o {
                        rel.add_aggregate_selection(sel.clone())?;
                    }
                }
                for (p, spec) in &setup.user_indexes {
                    if *p == o {
                        rel.make_index(spec.clone())?;
                    }
                }
            }
            for (p, cols) in &cm.indexes {
                if p == pred {
                    rel.make_index(IndexSpec::Args(cols.clone()))?;
                }
            }
            locals.insert(*pred, rel);
        }
        let agg_done = vec![false; cm.sccs.len()];
        let naive_done = vec![false; cm.sccs.len()];
        Ok(FixpointState {
            cm,
            locals,
            strategy: Strategy::Bsn,
            marks: HashMap::new(),
            none_done: HashSet::new(),
            agg_done,
            naive_done,
            stats: FixpointStats::default(),
            profile_id: crate::profile::new_state_id(),
            threads: 1,
            hj: HashJoinState::new(),
            overrides: HashMap::new(),
            envs: EnvSet::new(),
        })
    }

    /// Select the strategy (defaults to BSN).
    pub fn with_strategy(mut self, strategy: Strategy) -> FixpointState {
        self.strategy = strategy;
        self
    }

    /// Set the worker-pool size for partitioned delta evaluation
    /// (defaults to 1 = fully serial). Ordered Search callers must not
    /// set this: their derivation order is semantically significant.
    pub fn with_threads(mut self, threads: usize) -> FixpointState {
        self.threads = threads.max(1);
        self
    }

    /// The compiled module.
    pub fn compiled(&self) -> &Rc<CompiledModule> {
        &self.cm
    }

    /// The local relations (answers live in
    /// `locals().require(answer_pred)`).
    pub fn locals(&self) -> &LocalRels {
        &self.locals
    }

    /// The answers relation.
    pub fn answers(&self) -> Rc<HashRelation> {
        Rc::clone(self.locals.require(self.cm.rewritten.answer_pred))
    }

    /// Insert the magic seed built from the query's arguments. Returns
    /// `false` if this exact seed was already present (save-module reuse).
    pub fn seed(&self, query_args: &[coral_term::Term]) -> EvalResult<bool> {
        match &self.cm.rewritten.seed {
            Some(seed) => {
                let t = seed.seed_tuple(query_args);
                Ok(self.locals.require(seed.pred).insert(t)?)
            }
            None => Ok(false),
        }
    }

    /// Insert a fact into a local relation (Ordered Search's context and
    /// done feeds).
    pub fn insert_local(&self, pred: PredRef, t: Tuple) -> EvalResult<bool> {
        Ok(self.locals.require(pred).insert(t)?)
    }

    /// Run every SCC to fixpoint. Re-entrant: call again after inserting
    /// new seed/feed facts.
    pub fn run(&mut self, external: &dyn ExternalResolver) -> EvalResult<()> {
        for scc_idx in 0..self.cm.sccs.len() {
            self.run_scc(scc_idx, external)?;
        }
        Ok(())
    }

    /// Lazy evaluation (§5.4.3): advance by a single iteration of the
    /// first SCC that still has work; returns `false` when everything is
    /// at fixpoint.
    pub fn step(&mut self, external: &dyn ExternalResolver) -> EvalResult<bool> {
        let cm = Rc::clone(&self.cm);
        for (scc_idx, scc) in cm.sccs.iter().enumerate() {
            self.refresh_marks(scc_idx, scc);
            if self.has_work(scc_idx, scc) {
                self.iterate_once(scc_idx, scc, external)?;
                return Ok(true);
            }
            if !self.agg_done[scc_idx] {
                self.eval_aggregates(scc_idx, scc, external)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn range_preds(&self, scc: &CompiledScc) -> Vec<PredRef> {
        // Predicates whose marks this SCC tracks: its own members plus
        // every delta-tracked local predicate its rules read (lower-SCC
        // locals, magic seeds, Ordered Search feeds).
        let mut preds = scc.preds.clone();
        for rule in &scc.rules {
            for e in &rule.body {
                if let crate::compile::BodyElem::Local { lit, recursive } = e {
                    let p = lit.pred_ref();
                    if *recursive && !preds.contains(&p) {
                        preds.push(p);
                    }
                }
            }
        }
        preds
    }

    /// Ensure marks exist and extend `cur` over facts inserted since the
    /// last run (seeds, OS feeds).
    fn refresh_marks(&mut self, scc_idx: usize, scc: &CompiledScc) {
        for pred in self.range_preds(scc) {
            let rel = Rc::clone(self.locals.require(pred));
            let entry = self
                .marks
                .entry((scc_idx, pred))
                .or_insert((Mark(0), Mark(0)));
            entry.1 = rel.mark();
        }
    }

    fn ranges_snapshot(&self, scc_idx: usize, scc: &CompiledScc) -> Ranges {
        let mut ranges = Ranges::new();
        for pred in self.range_preds(scc) {
            if let Some(&(prev, cur)) = self.marks.get(&(scc_idx, pred)) {
                ranges.insert(pred, (prev, cur));
            }
        }
        ranges
    }

    fn has_work(&self, scc_idx: usize, scc: &CompiledScc) -> bool {
        if self.strategy == Strategy::Naive {
            return !self.naive_done[scc_idx];
        }
        // Pending non-recursive rules?
        for (ri, rule) in scc.rules.iter().enumerate() {
            if rule.versions == [SnVersion { delta_idx: None }]
                && !self.none_done.contains(&(scc_idx, ri))
            {
                return true;
            }
        }
        // Non-empty deltas?
        self.range_preds(scc).iter().any(|pred| {
            let (prev, cur) = self.marks[&(scc_idx, *pred)];
            self.locals.require(*pred).len_range(prev, Some(cur)) > 0
        })
    }

    fn run_scc(&mut self, scc_idx: usize, external: &dyn ExternalResolver) -> EvalResult<()> {
        let cm = Rc::clone(&self.cm);
        let scc = &cm.sccs[scc_idx];
        self.refresh_marks(scc_idx, scc);
        while self.has_work(scc_idx, scc) {
            self.iterate_once(scc_idx, scc, external)?;
            // Adaptive re-costing (iteration boundary only, so serial
            // and parallel runs see identical plans): compare
            // the observed delta cardinalities against the live relation
            // statistics and reorder next iteration's delta joins when a
            // cheaper order emerges.
            if scc.recursive && self.strategy != Strategy::Naive {
                self.maybe_replan(scc_idx, scc, external);
            }
        }
        if !self.agg_done[scc_idx] {
            self.eval_aggregates(scc_idx, scc, external)?;
        }
        Ok(())
    }

    /// One iteration of one SCC under the selected strategy.
    fn iterate_once(
        &mut self,
        scc_idx: usize,
        scc: &CompiledScc,
        external: &dyn ExternalResolver,
    ) -> EvalResult<()> {
        if external.cancelled() {
            return Err(EvalError::Cancelled);
        }
        external.check_budget()?;
        external.charge_iteration()?;
        self.stats.iterations += 1;
        let timed = crate::profile::collecting();
        if timed {
            crate::profile::scc_iteration(self.profile_id, scc_idx, || {
                scc.preds.iter().map(|p| p.to_string()).collect()
            });
        }
        let t0 = timed.then(std::time::Instant::now);
        let r = match self.strategy {
            Strategy::Naive => self.iterate_naive(scc_idx, scc, external),
            Strategy::Bsn => self.iterate_bsn(scc_idx, scc, external),
            Strategy::Psn => self.iterate_psn(scc_idx, scc, external),
        };
        if let Some(t0) = t0 {
            crate::profile::scc_time(self.profile_id, scc_idx, t0.elapsed().as_nanos() as u64);
        }
        r
    }

    fn eval_rule_versions(
        &mut self,
        scc_idx: usize,
        scc: &CompiledScc,
        rule_indices: &[usize],
        ranges: &Ranges,
        external: &dyn ExternalResolver,
        naive: bool,
    ) -> EvalResult<()> {
        // `@naive` is the reference evaluator: source-order joins over
        // index/scan candidates only — no hash tables, no plan
        // overrides, no parallel dispatch.
        if !naive {
            // Recursive predicates' delta boundaries moved since the
            // last sweep: evict their tables so the cost gate re-decides
            // hash-build vs index-probe with fresh cardinalities.
            self.hj.begin_iteration(ranges);
        }
        for &ri in rule_indices {
            let base = &scc.rules[ri];
            let versions: Vec<SnVersion> = if naive {
                vec![SnVersion { delta_idx: None }]
            } else {
                base.versions.clone()
            };
            for (vi, version) in versions.into_iter().enumerate() {
                // Adaptive override: a reordered rule body (with the
                // delta literal's position remapped) installed between
                // iterations by `maybe_replan`.
                let planned: Option<Rc<PlannedVersion>> = if naive {
                    None
                } else {
                    self.overrides.get(&(scc_idx, ri, vi)).cloned()
                };
                let (rule, version) = match planned.as_deref() {
                    Some(p) => (&p.rule, p.version),
                    None => (base, version),
                };
                if external.cancelled() {
                    return Err(EvalError::Cancelled);
                }
                external.check_budget()?;
                if !naive && version.delta_idx.is_none() {
                    if self.none_done.contains(&(scc_idx, ri)) {
                        continue;
                    }
                    self.none_done.insert((scc_idx, ri));
                }
                // Skip delta versions whose delta is empty; the observed
                // delta cardinality doubles as the hash-join cost gate's
                // probe-side estimate for this version.
                let mut delta_rows = None;
                if let Some(d) = version.delta_idx {
                    if let crate::compile::BodyElem::Local { lit, .. } = &rule.body[d] {
                        let p = lit.pred_ref();
                        if let Some(&(prev, cur)) = ranges.get(&p) {
                            let rows = self.locals.require(p).len_range(prev, Some(cur));
                            if rows == 0 {
                                continue;
                            }
                            delta_rows = Some(rows);
                        }
                    }
                }
                self.hj
                    .set_outer_rows(delta_rows.map_or(crate::planner::DEFAULT_CARD, |r| r as f64));
                self.stats.rule_firings += 1;
                let collecting = crate::profile::collecting();
                let probes_before = if collecting {
                    coral_profile::snapshot().get(Counter::JoinProbes)
                } else {
                    0
                };
                let mut derived = 0u64;
                let mut solutions = 0u64;
                let parallel = if naive {
                    None
                } else {
                    self.eval_version_parallel(scc_idx, rule, version, ranges, external)?
                };
                if let Some((par_solutions, par_derived)) = parallel {
                    solutions = par_solutions;
                    derived = par_derived;
                } else {
                    let head_rel = Rc::clone(self.locals.require(rule.head.pred_ref()));
                    let ctx = JoinCtx {
                        locals: &self.locals,
                        external,
                        ranges,
                        hashjoin: (!naive).then_some(&self.hj),
                    };
                    let head = rule.head.clone();
                    eval_rule(&ctx, rule, version, &mut self.envs, &mut |envs, env| {
                        solutions += 1;
                        let fact = resolve_head(envs, &head, env);
                        if head_rel.insert(fact)? {
                            derived += 1;
                            // Per-insert budget poll: fires at the same
                            // successful-insert count as the parallel
                            // merge loop (which replays this order), so
                            // tuple limits are deterministic across
                            // worker counts.
                            external.check_budget()?;
                        }
                        Ok(())
                    })?;
                }
                self.stats.facts_derived += derived;
                self.stats.solutions += solutions;
                if collecting {
                    let probes = coral_profile::snapshot()
                        .get(Counter::JoinProbes)
                        .saturating_sub(probes_before);
                    crate::profile::scc_rule(
                        self.profile_id,
                        scc_idx,
                        || rule_version_label(rule, &version),
                        solutions,
                        derived,
                        probes,
                    );
                }
            }
        }
        Ok(())
    }

    /// Try to evaluate one delta rule version on the worker pool:
    /// freeze every relation the rule reads, partition the driving
    /// delta, evaluate chunks in parallel, then merge output buffers in
    /// chunk order through the ordinary insert path. Returns `Ok(None)`
    /// when the version must run serially: thread count 1, a small
    /// delta, an order-sensitive head (multiset, aggregate selections),
    /// an external literal with no frozen source, or — detected after
    /// the fact — non-ground output under subsumption semantics.
    fn eval_version_parallel(
        &mut self,
        scc_idx: usize,
        rule: &CompiledRule,
        version: SnVersion,
        ranges: &Ranges,
        external: &dyn ExternalResolver,
    ) -> EvalResult<Option<(u64, u64)>> {
        if self.threads < 2 {
            return Ok(None);
        }
        let Some(delta_pos) = version.delta_idx else {
            return Ok(None);
        };
        let BodyElem::Local {
            lit: delta_lit,
            recursive: true,
        } = &rule.body[delta_pos]
        else {
            return Ok(None);
        };
        let delta_pred = delta_lit.pred_ref();
        let Some(&(prev, cur)) = ranges.get(&delta_pred) else {
            return Ok(None);
        };
        let delta_rel = Rc::clone(self.locals.require(delta_pred));
        // Small deltas are not worth the dispatch; this is not a
        // "fallback" in the profile's sense, just the serial fast path.
        if delta_rel.len_range(prev, Some(cur)) < 2 * MIN_CHUNK {
            return Ok(None);
        }
        let fallback = |me: &Self| {
            crate::profile::scc_parallel(
                me.profile_id,
                scc_idx,
                ParallelStats {
                    serial_fallbacks: 1,
                    ..ParallelStats::default()
                },
            );
        };
        // Order-sensitive heads stay serial.
        let head_pred = rule.head.pred_ref();
        let head_rel = Rc::clone(self.locals.require(head_pred));
        if rule.agg.is_some()
            || head_rel.dup_semantics() == DupSemantics::Multiset
            || head_rel.has_aggregate_selections()
        {
            fallback(self);
            return Ok(None);
        }
        // Classify the body: every external literal needs a frozen
        // source; local literals freeze below.
        let mut local_preds: Vec<PredRef> = vec![head_pred];
        let mut externals: HashMap<PredRef, ParallelSource> = HashMap::new();
        for e in &rule.body {
            match e {
                BodyElem::Local { lit, .. } => local_preds.push(lit.pred_ref()),
                BodyElem::Negated { lit, local: true } => local_preds.push(lit.pred_ref()),
                BodyElem::Negated { lit, local: false } | BodyElem::External { lit } => {
                    let p = lit.pred_ref();
                    if externals.contains_key(&p) {
                        continue;
                    }
                    match external.parallel_source(lit) {
                        Some(src) => {
                            externals.insert(p, src);
                        }
                        None => {
                            fallback(self);
                            return Ok(None);
                        }
                    }
                }
                BodyElem::Compare { .. } => {}
            }
        }
        let t_start = std::time::Instant::now();
        let mut locals_map: HashMap<PredRef, LocalView> = HashMap::new();
        for p in local_preds {
            if locals_map.contains_key(&p) {
                continue;
            }
            let rel = Rc::clone(self.locals.require(p));
            let (lp, lc) = ranges
                .get(&p)
                .copied()
                .unwrap_or((Mark(0), rel.current_mark()));
            locals_map.insert(
                p,
                LocalView {
                    snap: rel.snapshot(),
                    prev: lp,
                    cur: lc,
                },
            );
        }
        // Materialize the driving delta from its frozen view, in
        // insertion order (the order a serial delta scan would visit),
        // and hand workers contiguous chunks of it.
        let delta = locals_map[&delta_pred].snap.scan_range(prev, Some(cur));
        let delta_tuples = delta.len() as u64;
        let chunks = partition(delta, self.threads);
        let nchunks = chunks.len();
        if nchunks < 2 {
            return Ok(None);
        }
        let min_chunk = chunks.iter().map(|c| c.len()).min().unwrap_or(0) as u64;
        let max_chunk = chunks.iter().map(|c| c.len()).max().unwrap_or(0) as u64;
        // Prebuild hash-join tables on the coordinator (through the same
        // per-fixpoint cache the serial path uses, so frozen sources
        // amortize across dispatches), then share each via `Arc` with
        // every worker of the dispatch. Key columns come from the static
        // binding walk the planner uses; workers verify the runtime
        // pattern agrees before taking a table.
        let mut hash_tables: HashMap<usize, Arc<coral_rel::JoinHashTable>> = HashMap::new();
        {
            use crate::join::RuleEnv as _;
            let probe_ctx = JoinCtx {
                locals: &self.locals,
                external,
                ranges,
                hashjoin: Some(&self.hj),
            };
            let mut bound: std::collections::HashSet<coral_term::VarId> =
                std::collections::HashSet::new();
            for (pos, elem) in rule.body.iter().enumerate() {
                if pos != delta_pos {
                    match elem {
                        BodyElem::Local { lit, recursive } => {
                            let cols = crate::planner::bound_cols(lit, &bound);
                            if !cols.is_empty() {
                                if let Some(t) =
                                    probe_ctx.hash_table(lit, true, *recursive, pos, version, &cols)
                                {
                                    hash_tables.insert(pos, t);
                                }
                            }
                        }
                        BodyElem::External { lit } => {
                            let cols = crate::planner::bound_cols(lit, &bound);
                            if !cols.is_empty() {
                                if let Some(t) =
                                    probe_ctx.hash_table(lit, false, false, pos, version, &cols)
                                {
                                    hash_tables.insert(pos, t);
                                }
                            }
                        }
                        _ => {}
                    }
                }
                bound.extend(elem.vars());
            }
        }
        let job = Arc::new(JobCtx {
            rule: rule.clone(),
            version,
            delta_pos,
            delta_pred,
            delta_index_specs: delta_rel.index_specs(),
            locals: locals_map,
            externals,
            head_pred,
            profiling: crate::profile::profiling(),
            hash_tables,
            brake: external.parallel_brake(),
        });
        let tasks: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let job = Arc::clone(&job);
                move || eval_chunk(&job, chunk)
            })
            .collect();
        let results = run_tasks(nchunks, tasks);
        // Release the coordinator's snapshot handle before merging, so
        // head-relation inserts stay on the copy-on-write fast path.
        drop(job);
        // Drain ALL chunk results before propagating any error: a
        // mid-dispatch kill (cancellation, budget) must still fold the
        // successful chunks' worker counters and busy time, and must not
        // leave later chunks' results unconsumed.
        let mut outs = Vec::with_capacity(nchunks);
        let mut busy_ns = 0u64;
        let mut first_err: Option<EvalError> = None;
        for r in results {
            match r {
                Ok(out) => {
                    busy_ns += out.busy_ns;
                    if let Some(c) = &out.counters {
                        coral_profile::add(c);
                    }
                    outs.push(out);
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if let Some(e) = first_err {
            crate::profile::scc_parallel(
                self.profile_id,
                scc_idx,
                ParallelStats {
                    parallel_firings: 1,
                    threads: nchunks as u64,
                    chunks: nchunks as u64,
                    delta_tuples,
                    min_chunk,
                    max_chunk,
                    busy_ns,
                    wall_ns: t_start.elapsed().as_nanos() as u64,
                    ..ParallelStats::default()
                },
            );
            return Err(e);
        }
        if outs.iter().any(|o| o.nonground) {
            // Non-ground facts under subsumption: insertion order decides
            // which facts subsume which, so replay the version serially.
            fallback(self);
            return Ok(None);
        }
        let merge_start = std::time::Instant::now();
        let mut solutions = 0u64;
        let mut derived = 0u64;
        let merge = || -> EvalResult<()> {
            for out in outs {
                solutions += out.solutions as u64;
                for fact in out.facts {
                    if head_rel.insert(fact)? {
                        derived += 1;
                        // Same per-successful-insert poll as the serial
                        // emit callback; the merge replays the serial
                        // insertion order, so tuple limits fire at the
                        // identical count regardless of worker count.
                        external.check_budget()?;
                    }
                }
            }
            Ok(())
        };
        let merge_result = merge();
        let merge_ns = merge_start.elapsed().as_nanos() as u64;
        // Record the dispatch even when the merge was cut short (budget
        // or relation error): worker busy time is real and must not
        // vanish from the profile.
        crate::profile::scc_parallel(
            self.profile_id,
            scc_idx,
            ParallelStats {
                parallel_firings: 1,
                serial_fallbacks: 0,
                threads: nchunks as u64,
                chunks: nchunks as u64,
                delta_tuples,
                min_chunk,
                max_chunk,
                merge_ns,
                busy_ns,
                wall_ns: t_start.elapsed().as_nanos() as u64,
            },
        );
        match merge_result {
            Ok(()) => Ok(Some((solutions, derived))),
            Err(e) => {
                // The caller only folds stats on the Ok path; keep the
                // partial merge visible in the totals before unwinding.
                self.stats.facts_derived += derived;
                self.stats.solutions += solutions;
                Err(e)
            }
        }
    }

    /// Re-cost every delta rule version of a recursive SCC against the
    /// *observed* statistics: the live incremental statistics of the
    /// local relations plus the actual delta cardinality of the driving
    /// literal (in place of the compile-time estimates). When the
    /// cheapest order differs from the one currently in effect, install
    /// (or retire) a [`PlannedVersion`] override for the next iteration.
    fn maybe_replan(&mut self, scc_idx: usize, scc: &CompiledScc, external: &dyn ExternalResolver) {
        use crate::planner::{apply_order, order_body, order_label, PredStats, StatsSource};

        struct LiveStats<'a> {
            locals: &'a LocalRels,
            local_preds: &'a [PredRef],
            external: &'a dyn ExternalResolver,
        }
        impl StatsSource for LiveStats<'_> {
            fn pred_stats(&self, pred: &PredRef) -> Option<PredStats> {
                if self.local_preds.contains(pred) {
                    Some(PredStats::from_rel_stats(
                        &self.locals.require(*pred).stats()?,
                    ))
                } else {
                    self.external.pred_stats(pred)
                }
            }
        }
        let mut updates: Vec<((usize, usize, usize), Option<PlannedVersion>)> = Vec::new();
        {
            let src = LiveStats {
                locals: &self.locals,
                local_preds: &self.cm.local_preds,
                external,
            };
            for (ri, base) in scc.rules.iter().enumerate() {
                for (vi, version) in base.versions.iter().enumerate() {
                    let Some(d) = version.delta_idx else { continue };
                    let BodyElem::Local { lit, .. } = &base.body[d] else {
                        continue;
                    };
                    let p = lit.pred_ref();
                    let Some(&(prev, cur)) = self.marks.get(&(scc_idx, p)) else {
                        continue;
                    };
                    let observed = self.locals.require(p).len_range(prev, Some(cur)) as f64;
                    let mut over = HashMap::new();
                    over.insert(d, observed);
                    let initial = HashSet::new();
                    let plan = order_body(&base.body, &initial, &src, &over);
                    let key = (scc_idx, ri, vi);
                    let cur_perm = self.overrides.get(&key).map(|p| p.perm.as_slice());
                    if plan.is_identity() {
                        // Converged back on the source order: retire any
                        // override.
                        if cur_perm.is_some() {
                            updates.push((key, None));
                        }
                    } else if cur_perm != Some(plan.perm.as_slice()) {
                        // Preserve the compile-time backtracking policy:
                        // a chronological base vector means intelligent
                        // backtracking was off.
                        let ib = base.backtrack != crate::compile::chronological(base.body.len());
                        let rule = apply_order(base, &plan.perm, ib);
                        let delta_idx = plan
                            .perm
                            .iter()
                            .position(|&o| o == d)
                            .expect("delta literal survives permutation");
                        updates.push((
                            key,
                            Some(PlannedVersion {
                                rule,
                                version: SnVersion {
                                    delta_idx: Some(delta_idx),
                                },
                                perm: plan.perm,
                            }),
                        ));
                    }
                }
            }
        }
        for (key, pv) in updates {
            coral_profile::bump(Counter::PlanReplans, 1);
            match pv {
                Some(pv) => {
                    crate::profile::plan_note(&format!("replan: {}", order_label(&pv.rule)));
                    self.overrides.insert(key, Rc::new(pv));
                }
                None => {
                    self.overrides.remove(&key);
                }
            }
        }
    }

    fn advance_marks(&mut self, scc_idx: usize, preds: &[PredRef]) {
        for pred in preds {
            let rel = Rc::clone(self.locals.require(*pred));
            let entry = self.marks.get_mut(&(scc_idx, *pred)).expect("marks exist");
            entry.0 = entry.1;
            entry.1 = rel.mark();
        }
    }

    fn iterate_bsn(
        &mut self,
        scc_idx: usize,
        scc: &CompiledScc,
        external: &dyn ExternalResolver,
    ) -> EvalResult<()> {
        let ranges = self.ranges_snapshot(scc_idx, scc);
        let all: Vec<usize> = (0..scc.rules.len()).collect();
        self.eval_rule_versions(scc_idx, scc, &all, &ranges, external, false)?;
        let preds = self.range_preds(scc);
        self.advance_marks(scc_idx, &preds);
        Ok(())
    }

    fn iterate_naive(
        &mut self,
        scc_idx: usize,
        scc: &CompiledScc,
        external: &dyn ExternalResolver,
    ) -> EvalResult<()> {
        // Full-range evaluation of every rule; the SCC is done when an
        // iteration derives nothing new.
        let before = self.stats.facts_derived;
        let ranges = self.ranges_snapshot(scc_idx, scc);
        let all: Vec<usize> = (0..scc.rules.len()).collect();
        self.eval_rule_versions(scc_idx, scc, &all, &ranges, external, true)?;
        let preds = self.range_preds(scc);
        self.advance_marks(scc_idx, &preds);
        if self.stats.facts_derived == before {
            self.naive_done[scc_idx] = true;
        }
        Ok(())
    }

    fn iterate_psn(
        &mut self,
        scc_idx: usize,
        scc: &CompiledScc,
        external: &dyn ExternalResolver,
    ) -> EvalResult<()> {
        // Sweep predicates in order; advance each predicate's marks right
        // after its rules fire, so later predicates in the sweep consume
        // the fresh facts immediately (§4.2, paper ref \[22\]).
        let preds = self.range_preds(scc);
        for p in &scc.preds {
            let rule_indices: Vec<usize> = scc
                .rules
                .iter()
                .enumerate()
                .filter(|(_, r)| r.head.pred_ref() == *p)
                .map(|(i, _)| i)
                .collect();
            let ranges = self.ranges_snapshot(scc_idx, scc);
            self.eval_rule_versions(scc_idx, scc, &rule_indices, &ranges, external, false)?;
            self.advance_marks(scc_idx, &[*p]);
        }
        // Feed predicates advance at sweep end.
        let feeds: Vec<PredRef> = preds
            .iter()
            .filter(|p| !scc.preds.contains(p))
            .copied()
            .collect();
        self.advance_marks(scc_idx, &feeds);
        Ok(())
    }

    fn eval_aggregates(
        &mut self,
        scc_idx: usize,
        scc: &CompiledScc,
        external: &dyn ExternalResolver,
    ) -> EvalResult<()> {
        self.agg_done[scc_idx] = true;
        if scc.agg_rules.is_empty() {
            return Ok(());
        }
        let ranges = Ranges::new();
        for rule in &scc.agg_rules {
            self.stats.rule_firings += 1;
            let head_rel = Rc::clone(self.locals.require(rule.head.pred_ref()));
            let ctx = JoinCtx {
                locals: &self.locals,
                external,
                ranges: &ranges,
                hashjoin: None,
            };
            let mut derived = 0u64;
            eval_agg_rule(&ctx, rule, &mut self.envs, &mut |fact| {
                if head_rel.insert(fact)? {
                    derived += 1;
                }
                Ok(())
            })?;
            self.stats.facts_derived += derived;
            if crate::profile::collecting() {
                crate::profile::scc_rule(
                    self.profile_id,
                    scc_idx,
                    || format!("{} (aggregate)", rule.head.pred_ref()),
                    derived,
                    derived,
                    0,
                );
            }
        }
        // Aggregates may feed later rules of *this* SCC only in
        // unstratified programs, which compile rejected; nothing to redo.
        Ok(())
    }

    /// The profiler identity of this state (sections of nested module
    /// calls stay separate in one collected profile).
    pub fn profile_id(&self) -> u64 {
        self.profile_id
    }

    /// Reset aggregate bookkeeping for re-entrant runs that must not
    /// re-aggregate (checked by the engine: save-module + aggregation is
    /// rejected at load).
    pub fn assert_no_aggregates(&self) -> EvalResult<()> {
        if self.cm.sccs.iter().any(|s| !s.agg_rules.is_empty()) {
            return Err(EvalError::ModuleProtocol(
                "this module facility cannot be combined with head aggregation".into(),
            ));
        }
        Ok(())
    }
}
