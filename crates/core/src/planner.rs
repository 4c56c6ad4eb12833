//! Cost-based join planning over coral-stats.
//!
//! CORAL's optimizer (§4.2) orders joins with a static heuristic (see
//! [`crate::adorn::reorder_body`], the `@reorder_joins` opt-in). This
//! module replaces that guess with estimates: per-relation cardinality
//! and per-column distinct counts (coral-stats, maintained on every
//! insert/delete) yield a selectivity for each candidate probe, and the
//! planner greedily orders each rule body by estimated intermediate
//! result size. The same cost model runs twice:
//!
//! * at **compile time** ([`plan_module`]), over the rewritten rules,
//!   with base-relation statistics from the engine's catalog; and
//! * **between fixpoint iterations** ([`FixpointState`]'s replan hook in
//!   [`crate::seminaive`]), where the observed delta cardinalities and
//!   the live statistics of the local relations replace the compile-time
//!   guesses — the adaptive re-costing loop.
//!
//! Reordering is safety-preserving by construction: only runs of
//! consecutive *positive* literals between negation/comparison barriers
//! are permuted (the same rule as the `@reorder_joins` heuristic), a
//! builtin is held back until its binding requirements are met, and
//! the permuted rule's semi-naive versions and backtrack points are
//! recomputed so the evaluator sees a self-consistent [`CompiledRule`].
//! Ties break by source position, so planning is deterministic given
//! the statistics — and the statistics are deterministic functions of
//! relation contents, which semi-naive evaluation fixes independently
//! of thread count.

use crate::compile::{BodyElem, CompiledModule, CompiledRule};
use coral_lang::PredRef;
use coral_profile::Counter;
use coral_stats::RelStats;
use coral_term::VarId;
use std::collections::{HashMap, HashSet};

/// Cardinality assumed for predicates with no statistics (derived
/// predicates at compile time, unknown externals).
pub const DEFAULT_CARD: f64 = 1000.0;

/// Planner-facing statistics for one predicate.
#[derive(Debug, Clone)]
pub struct PredStats {
    /// Estimated (or exact) tuple count.
    pub cardinality: f64,
    /// Per-column distinct estimates; empty = unknown columns.
    pub distincts: Vec<f64>,
}

impl PredStats {
    /// The no-information default: [`DEFAULT_CARD`] rows, distincts
    /// unknown.
    pub fn unknown() -> PredStats {
        PredStats {
            cardinality: DEFAULT_CARD,
            distincts: Vec::new(),
        }
    }

    /// A known row count with unknown column distributions.
    pub fn with_cardinality(card: f64) -> PredStats {
        PredStats {
            cardinality: card.max(0.0),
            distincts: Vec::new(),
        }
    }

    /// Convert maintained relation statistics.
    pub fn from_rel_stats(s: &RelStats) -> PredStats {
        PredStats {
            cardinality: s.cardinality() as f64,
            distincts: (0..s.arity()).map(|c| s.distinct(c) as f64).collect(),
        }
    }

    /// Distinct values in `col`; unknown columns assume `sqrt(card)`
    /// (the classic square-root rule for missing statistics).
    pub fn distinct(&self, col: usize) -> f64 {
        match self.distincts.get(col) {
            Some(&d) if d > 0.0 => d,
            _ => self.cardinality.max(1.0).sqrt(),
        }
    }

    /// Estimated matches of an equality probe binding `bound_cols`.
    pub fn estimate(&self, bound_cols: &[usize]) -> f64 {
        let mut est = self.cardinality;
        for &c in bound_cols {
            est /= self.distinct(c).max(1.0);
        }
        est.max(0.0)
    }
}

/// Statistics lookup used while planning. Implemented by the engine
/// (base-relation catalog) and by the fixpoint replanner (local
/// relations + observed deltas).
pub trait StatsSource {
    /// Statistics for `pred`, or `None` for [`PredStats::unknown`].
    fn pred_stats(&self, pred: &PredRef) -> Option<PredStats>;
}

impl StatsSource for HashMap<PredRef, PredStats> {
    fn pred_stats(&self, pred: &PredRef) -> Option<PredStats> {
        self.get(pred).cloned()
    }
}

fn lit_of(e: &BodyElem) -> Option<&coral_lang::Literal> {
    match e {
        BodyElem::Local { lit, .. } | BodyElem::External { lit } => Some(lit),
        _ => None,
    }
}

/// One hash-table build pass costs about this many index probes' worth
/// of work per row hashed, so building pays off once the probe side is
/// at least `inner / HASH_BUILD_FACTOR` rows.
pub const HASH_BUILD_FACTOR: f64 = 16.0;

/// Tables over sources frozen for the whole fixpoint (external base
/// relations, locals from earlier SCCs) are built once but probed every
/// iteration; weigh their build cost as if the probe side were this many
/// times larger.
pub const HASH_FROZEN_AMORTIZATION: f64 = 16.0;

/// Cost gate for hash-join builds: build one pass over `inner_rows`,
/// save ~one index traversal per `outer_rows` probe, amortized across
/// the fixpoint when the source is `frozen`.
pub fn hash_join_profitable(inner_rows: f64, outer_rows: f64, frozen: bool) -> bool {
    let amort = if frozen {
        HASH_FROZEN_AMORTIZATION
    } else {
        1.0
    };
    outer_rows * amort >= inner_rows / HASH_BUILD_FACTOR
}

/// Argument positions whose terms are fully bound given `bound` (ground
/// terms count as bound).
pub fn bound_cols(lit: &coral_lang::Literal, bound: &HashSet<VarId>) -> Vec<usize> {
    lit.args
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            let mut vs = Vec::new();
            t.collect_vars(&mut vs);
            vs.iter().all(|v| bound.contains(v))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Whether a positive literal may be evaluated with only `bound`
/// variables bound. Relations accept any binding pattern; a builtin
/// needs one of its [`crate::engine::builtins::modes`] satisfied. (A
/// base relation or module export shadowing a builtin's name is held to
/// the builtin's modes too — conservative, never unsafe.)
fn schedulable(e: &BodyElem, bound: &HashSet<VarId>) -> bool {
    let BodyElem::External { lit } = e else {
        return true;
    };
    match crate::engine::builtins::modes(lit.pred_ref()) {
        None => true,
        Some(modes) => {
            let cols = bound_cols(lit, bound);
            modes.iter().any(|m| m.iter().all(|c| cols.contains(c)))
        }
    }
}

fn bind_elem(e: &BodyElem, bound: &mut HashSet<VarId>) {
    bound.extend(e.vars());
}

/// Estimated matches produced by probing element `e` (at original body
/// position `pos`) with `bound` variables already bound.
fn elem_matches(
    e: &BodyElem,
    pos: usize,
    bound: &HashSet<VarId>,
    stats: &dyn StatsSource,
    card_override: &HashMap<usize, f64>,
) -> f64 {
    let Some(lit) = lit_of(e) else { return 1.0 };
    let mut ps = stats
        .pred_stats(&lit.pred_ref())
        .unwrap_or_else(PredStats::unknown);
    if let Some(&card) = card_override.get(&pos) {
        // Overridden cardinality (the observed delta size) with the
        // relation's column distribution scaled proportionally.
        let scale = if ps.cardinality > 0.0 {
            card / ps.cardinality
        } else {
            1.0
        };
        ps.cardinality = card;
        for d in &mut ps.distincts {
            *d = (*d * scale).clamp(1.0, card.max(1.0));
        }
    }
    ps.estimate(&bound_cols(lit, bound))
}

/// The planned order of one rule body.
#[derive(Debug, Clone)]
pub struct BodyPlan {
    /// Permutation: `perm[new_position] = original_position`.
    pub perm: Vec<usize>,
    /// Estimated total intermediate tuples of the chosen order.
    pub cost: f64,
}

impl BodyPlan {
    /// Whether the plan keeps the source order.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }
}

/// Cost of evaluating `body` in the order given by `perm`: walk the
/// nested-loops join left to right, tracking the estimated frontier
/// size; cost is the sum of intermediate result sizes (System R style,
/// adapted to the bottom-up join of §5.3).
pub fn cost_of_order(
    body: &[BodyElem],
    perm: &[usize],
    initial_bound: &HashSet<VarId>,
    stats: &dyn StatsSource,
    card_override: &HashMap<usize, f64>,
) -> f64 {
    let mut bound = initial_bound.clone();
    let mut rows = 1.0f64;
    let mut cost = 0.0f64;
    for &pos in perm {
        let e = &body[pos];
        match e {
            BodyElem::Local { .. } | BodyElem::External { .. } => {
                let matches = elem_matches(e, pos, &bound, stats, card_override);
                rows *= matches.max(1e-3);
                cost += rows;
            }
            BodyElem::Negated { .. } | BodyElem::Compare { .. } => {
                // Filters: no new frontier rows, one check per row.
                cost += rows;
            }
        }
        bind_elem(e, &mut bound);
    }
    cost
}

/// Choose an order for `body`: within each run of consecutive positive
/// literals (negations and comparisons are barriers, exactly as in the
/// `@reorder_joins` heuristic), greedily take the [`schedulable`]
/// literal with the fewest estimated matches under the bindings
/// accumulated so far; ties break by original position. Builtins whose
/// binding requirements the run never satisfies keep their source order
/// at the end of the run, where at least as much is bound as the source
/// order bound for them.
pub fn order_body(
    body: &[BodyElem],
    initial_bound: &HashSet<VarId>,
    stats: &dyn StatsSource,
    card_override: &HashMap<usize, f64>,
) -> BodyPlan {
    let mut bound = initial_bound.clone();
    let mut perm: Vec<usize> = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        let mut seg: Vec<usize> = Vec::new();
        while i < body.len()
            && matches!(body[i], BodyElem::Local { .. } | BodyElem::External { .. })
        {
            seg.push(i);
            i += 1;
        }
        while !seg.is_empty() {
            let mut best = 0usize;
            let mut best_score = f64::INFINITY;
            for (k, &pos) in seg.iter().enumerate() {
                if !schedulable(&body[pos], &bound) {
                    continue;
                }
                let score = elem_matches(&body[pos], pos, &bound, stats, card_override);
                if score < best_score {
                    best_score = score;
                    best = k;
                }
            }
            let pos = seg.remove(best);
            bind_elem(&body[pos], &mut bound);
            perm.push(pos);
        }
        if i < body.len() {
            bind_elem(&body[i], &mut bound);
            perm.push(i);
            i += 1;
        }
    }
    let cost = cost_of_order(body, &perm, initial_bound, stats, card_override);
    BodyPlan { perm, cost }
}

/// Apply a body permutation to a compiled rule, recomputing the
/// semi-naive versions and backtrack points so the rule stays
/// self-consistent.
pub fn apply_order(
    rule: &CompiledRule,
    perm: &[usize],
    intelligent_backtracking: bool,
) -> CompiledRule {
    let body: Vec<BodyElem> = perm.iter().map(|&p| rule.body[p].clone()).collect();
    let versions = crate::compile::versions_for(&body);
    let backtrack = if intelligent_backtracking {
        crate::compile::backtrack_points(&body)
    } else {
        (0..body.len()).map(|i| i.checked_sub(1)).collect()
    };
    CompiledRule {
        head: rule.head.clone(),
        agg: rule.agg.clone(),
        body,
        nvars: rule.nvars,
        var_names: rule.var_names.clone(),
        versions,
        backtrack,
    }
}

/// Render a rule's body order for the profile's planner section.
pub fn order_label(rule: &CompiledRule) -> String {
    let parts: Vec<String> = rule
        .body
        .iter()
        .map(|e| match e {
            BodyElem::Local { lit, .. } | BodyElem::External { lit } => lit.pred_ref().to_string(),
            BodyElem::Negated { lit, .. } => format!("not {}", lit.pred_ref()),
            BodyElem::Compare { op, .. } => format!("{op:?}"),
        })
        .collect();
    format!("{} :- {}", rule.head.pred_ref(), parts.join(", "))
}

/// Summary of a compile-time planning pass.
#[derive(Debug, Default, Clone)]
pub struct PlanSummary {
    /// Rules whose candidate orders were costed.
    pub costed: u64,
    /// Rules whose body order changed from the source order.
    pub reordered: u64,
    /// Estimated total cost of the chosen orders (summed across rules).
    pub total_cost: f64,
}

/// Estimated total cost of a compiled module under the planner's chosen
/// orders, without mutating the module or recording profiling state.
/// Used to compare rewriting strategies (supplementary magic vs
/// factoring) before committing to one.
pub fn module_cost(cm: &CompiledModule, stats: &dyn StatsSource) -> f64 {
    let no_override = HashMap::new();
    let initial = HashSet::new();
    let mut total = 0.0;
    for scc in &cm.sccs {
        for rule in scc.rules.iter().chain(scc.agg_rules.iter()) {
            total += order_body(&rule.body, &initial, stats, &no_override).cost;
        }
    }
    total
}

/// Plan every rule of a compiled module in place: reorder bodies by
/// estimated cost, then refresh the auto-index recommendations so the
/// indexes match the orders actually evaluated. Records planner
/// profiling counters and per-rule order notes.
pub fn plan_module(
    cm: &mut CompiledModule,
    stats: &dyn StatsSource,
    intelligent_backtracking: bool,
    auto_index: bool,
) -> PlanSummary {
    let mut summary = PlanSummary::default();
    let no_override = HashMap::new();
    for scc in &mut cm.sccs {
        for rule in scc.rules.iter_mut().chain(scc.agg_rules.iter_mut()) {
            let initial = HashSet::new();
            let plan = order_body(&rule.body, &initial, stats, &no_override);
            summary.costed += 1;
            summary.total_cost += plan.cost;
            if !plan.is_identity() {
                summary.reordered += 1;
                *rule = apply_order(rule, &plan.perm, intelligent_backtracking);
                crate::profile::plan_note(&format!("compile: {}", order_label(rule)));
            }
        }
    }
    coral_profile::bump(Counter::PlanCosted, summary.costed);
    coral_profile::bump(Counter::PlanReordered, summary.reordered);
    if auto_index && summary.reordered > 0 {
        refresh_indexes(cm);
    }
    summary
}

/// Re-derive the §4.2 index recommendations from the *final* body
/// orders (compile derived them from source order). Additions only —
/// an index useful to the old order stays harmless.
fn refresh_indexes(cm: &mut CompiledModule) {
    let local: HashSet<PredRef> = cm.local_preds.iter().copied().collect();
    let mut add_local: Vec<(PredRef, Vec<usize>)> = Vec::new();
    let mut add_ext: Vec<(PredRef, Vec<usize>)> = Vec::new();
    for scc in &cm.sccs {
        for rule in scc.rules.iter().chain(scc.agg_rules.iter()) {
            let mut bound: HashSet<VarId> = HashSet::new();
            for e in &rule.body {
                if let Some(lit) = lit_of(e) {
                    let cols = bound_cols(lit, &bound);
                    if !cols.is_empty() && cols.len() < lit.args.len() {
                        let p = lit.pred_ref();
                        let target = if local.contains(&p) {
                            &mut add_local
                        } else {
                            &mut add_ext
                        };
                        if !target.contains(&(p, cols.clone())) {
                            target.push((p, cols));
                        }
                    }
                }
                bind_elem(e, &mut bound);
            }
        }
    }
    for (p, cols) in add_local {
        if !cm.indexes.contains(&(p, cols.clone())) {
            cm.indexes.push((p, cols));
        }
    }
    for (p, cols) in add_ext {
        if !cm.external_indexes.contains(&(p, cols.clone())) {
            cm.external_indexes.push((p, cols));
        }
    }
    cm.indexes.sort_by(|a, b| {
        a.0.name
            .as_str()
            .cmp(&b.0.name.as_str())
            .then(a.1.cmp(&b.1))
    });
    cm.external_indexes.sort_by(|a, b| {
        a.0.name
            .as_str()
            .cmp(&b.0.name.as_str())
            .then(a.1.cmp(&b.1))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompiledModule};
    use crate::rewrite::rewrite_module;
    use coral_lang::{parse_program, Adornment, FixpointKind, Module, RewriteKind};

    fn module_of(src: &str) -> Module {
        parse_program(src)
            .unwrap()
            .modules()
            .next()
            .unwrap()
            .clone()
    }

    fn compile_src(src: &str, pred: &str, arity: usize, adorn: &str) -> CompiledModule {
        let m = module_of(src);
        let rw = rewrite_module(
            &m,
            PredRef::new(pred, arity),
            &Adornment::parse(adorn).unwrap(),
            RewriteKind::SupplementaryMagic,
            &std::collections::HashSet::new(),
            &[],
        );
        compile(rw, FixpointKind::Bsn, &[], false).unwrap()
    }

    fn stats_table(entries: &[(&str, usize, f64, &[f64])]) -> HashMap<PredRef, PredStats> {
        entries
            .iter()
            .map(|(name, arity, card, dist)| {
                (
                    PredRef::new(name, *arity),
                    PredStats {
                        cardinality: *card,
                        distincts: dist.to_vec(),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn small_relation_ordered_first() {
        let mut cm = compile_src(
            "module skew. export p(ff).\n\
             p(X, Z) :- big(Y, Z), sel(X, Y).\n\
             end_module.",
            "p",
            2,
            "ff",
        );
        let stats = stats_table(&[
            ("big", 2, 20_000.0, &[20_000.0, 100.0]),
            ("sel", 2, 5.0, &[5.0, 5.0]),
        ]);
        let summary = plan_module(&mut cm, &stats, true, true);
        assert!(summary.costed >= 1);
        assert!(summary.reordered >= 1, "{summary:?}");
        let rule = cm
            .sccs
            .iter()
            .flat_map(|s| &s.rules)
            .find(|r| r.head.pred.as_str() == "p__ff")
            .unwrap();
        let first = match &rule.body[0] {
            BodyElem::External { lit } | BodyElem::Local { lit, .. } => lit.pred.as_str(),
            _ => panic!("positive literal expected"),
        };
        assert_eq!(first.as_str(), "sel", "cheap relation drives the join");
        // Versions/backtrack stay consistent with the new body.
        assert_eq!(rule.backtrack.len(), rule.body.len());
        // big(Y, Z) is probed with Y bound → external index on big col 0.
        assert!(
            cm.external_indexes
                .iter()
                .any(|(p, cols)| p.name.as_str() == "big" && cols == &vec![0]),
            "{:?}",
            cm.external_indexes
        );
    }

    #[test]
    fn barriers_are_not_crossed() {
        let mut cm = compile_src(
            "module m. export p(ff).\n\
             p(X, Y) :- big(X, Y), not excl(X), small(Y, X).\n\
             end_module.",
            "p",
            2,
            "ff",
        );
        let stats = stats_table(&[
            ("big", 2, 10_000.0, &[10_000.0, 50.0]),
            ("excl", 1, 10.0, &[10.0]),
            ("small", 2, 3.0, &[3.0, 3.0]),
        ]);
        plan_module(&mut cm, &stats, true, true);
        let rule = cm
            .sccs
            .iter()
            .flat_map(|s| &s.rules)
            .find(|r| r.head.pred.as_str() == "p__ff")
            .unwrap();
        // small sits after the negation barrier in source order; the
        // planner must not hoist it across `not excl(X)`.
        let order: Vec<String> = rule
            .body
            .iter()
            .map(|e| match e {
                BodyElem::Local { lit, .. } | BodyElem::External { lit } => {
                    lit.pred.as_str().to_string()
                }
                BodyElem::Negated { lit, .. } => format!("not {}", lit.pred.as_str()),
                BodyElem::Compare { .. } => "cmp".into(),
            })
            .collect();
        let not_pos = order.iter().position(|s| s == "not excl").unwrap();
        let small_pos = order.iter().position(|s| s == "small").unwrap();
        assert!(small_pos > not_pos, "{order:?}");
    }

    fn body_order(cm: &CompiledModule, head: &str) -> Vec<String> {
        let rule = cm
            .sccs
            .iter()
            .flat_map(|s| &s.rules)
            .find(|r| r.head.pred.as_str() == head)
            .unwrap();
        rule.body
            .iter()
            .filter_map(lit_of)
            .map(|l| l.pred.as_str().to_string())
            .collect()
    }

    #[test]
    fn builtins_wait_for_their_inputs() {
        // Fig. 3's path-extension rule. With no statistics `append`
        // looks cheaper than either relation, but it needs its first
        // two arguments (or its last) bound, so it may only run once
        // `p0` and `edge` have bound them.
        let mut cm = compile_src(
            "module m. export p(ffff).\n\
             p(X, Y, P1, C1) :- p0(X, Z, P, C), edge(Z, Y, EC), \
                 append([edge(Z, Y)], P, P1), C1 = C + EC.\n\
             end_module.",
            "p",
            4,
            "ffff",
        );
        let stats = stats_table(&[
            ("p0", 4, 20_000.0, &[100.0, 100.0, 20_000.0, 50.0]),
            ("edge", 3, 5_000.0, &[100.0, 100.0, 10.0]),
        ]);
        plan_module(&mut cm, &stats, true, true);
        assert_eq!(body_order(&cm, "p__ffff"), ["edge", "p0", "append"]);

        // A builtin nothing in its run can make safe keeps its source
        // position relative to the run's end instead of being hoisted.
        let mut cm = compile_src(
            "module m. export q(f).\n\
             q(X) :- member(X, L), big(Y), small(Y).\n\
             end_module.",
            "q",
            1,
            "f",
        );
        let stats = stats_table(&[("big", 1, 10_000.0, &[10_000.0]), ("small", 1, 3.0, &[3.0])]);
        plan_module(&mut cm, &stats, true, true);
        assert_eq!(body_order(&cm, "q__f"), ["small", "big", "member"]);
    }

    #[test]
    fn identity_when_source_order_already_cheapest() {
        let mut cm = compile_src(
            "module m. export p(ff).\n\
             p(X, Y) :- small(X), big(X, Y).\n\
             end_module.",
            "p",
            2,
            "ff",
        );
        let stats = stats_table(&[
            ("small", 1, 3.0, &[3.0]),
            ("big", 2, 10_000.0, &[100.0, 10_000.0]),
        ]);
        let summary = plan_module(&mut cm, &stats, true, true);
        assert_eq!(summary.reordered, 0, "{summary:?}");
    }

    #[test]
    fn delta_override_flips_order() {
        let body = compile_src(
            "module m. export p(ff).\n\
             p(X, Z) :- q(X, Y), r(Y, Z).\n\
             end_module.",
            "p",
            2,
            "ff",
        );
        let rule = body
            .sccs
            .iter()
            .flat_map(|s| &s.rules)
            .find(|r| r.head.pred.as_str() == "p__ff")
            .unwrap()
            .clone();
        let stats = stats_table(&[
            ("q", 2, 100.0, &[100.0, 10.0]),
            ("r", 2, 100.0, &[10.0, 100.0]),
        ]);
        let initial = HashSet::new();
        // Without override q and r tie → source order wins.
        let plan = order_body(&rule.body, &initial, &stats, &HashMap::new());
        assert!(plan.is_identity());
        // Observed: r's delta shrank to 2 rows → r drives the join.
        let mut over = HashMap::new();
        over.insert(1usize, 2.0);
        let plan2 = order_body(&rule.body, &initial, &stats, &over);
        assert_eq!(plan2.perm[0], 1, "{plan2:?}");
        assert!(plan2.cost < plan.cost);
    }
}
