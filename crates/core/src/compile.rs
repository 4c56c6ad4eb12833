//! Module compilation (§5.1).
//!
//! "The compilation of a materialized module generates an internal module
//! structure that consists of a list of structures corresponding to the
//! strongly connected components of the module, and each SCC structure
//! contains structures corresponding to semi-naive rewritten versions of
//! rules. These semi-naive rule structures have fields that specify the
//! argument lists of each body literal, and the predicates that they
//! correspond to. Each semi-naive rule also contains evaluation order
//! information, pre-computed backtrack points, and precomputed offsets
//! into a table of relations."
//!
//! [`compile`] turns a rewritten module into exactly that: SCCs in
//! evaluation order; per rule, a classified body (local / external /
//! negated / comparison) with precomputed intelligent-backtracking
//! points; per recursive rule, one *semi-naive version* per recursive
//! body literal; and the index annotations the optimizer derives from the
//! left-to-right binding pattern of every local body literal (§4.2's
//! "index selection").

use crate::adorn::bound_sets;
use crate::depgraph::{self, head_agg_positions, is_agg_term};
use crate::error::{EvalError, EvalResult};
use crate::rewrite::Rewritten;
use coral_lang::{Adornment, AggFn, BodyItem, CmpOp, FixpointKind, Literal, PredRef, Rule};
use coral_term::{Term, VarId};
use std::collections::{HashMap, HashSet};

/// A classified body element of a compiled rule.
#[derive(Debug, Clone)]
pub enum BodyElem {
    /// A positive literal over a predicate local to this (rewritten)
    /// module.
    Local {
        /// The literal.
        lit: Literal,
        /// True iff the predicate belongs to the same SCC (drives the
        /// semi-naive delta versions).
        recursive: bool,
    },
    /// A positive literal resolved outside the module: base relation,
    /// another module's export, or a computed predicate.
    External {
        /// The literal.
        lit: Literal,
    },
    /// A negated literal (`local` tells where to look it up).
    Negated {
        /// The literal.
        lit: Literal,
        /// True iff defined in this module.
        local: bool,
    },
    /// A comparison/unification built-in.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
}

impl BodyElem {
    /// Variables occurring in this element.
    pub fn vars(&self) -> Vec<VarId> {
        let mut vs = Vec::new();
        match self {
            BodyElem::Local { lit, .. }
            | BodyElem::External { lit }
            | BodyElem::Negated { lit, .. } => {
                for t in &lit.args {
                    t.collect_vars(&mut vs);
                }
            }
            BodyElem::Compare { lhs, rhs, .. } => {
                lhs.collect_vars(&mut vs);
                rhs.collect_vars(&mut vs);
            }
        }
        vs
    }
}

/// Head aggregation info for a rule like `s(X, min(C)) :- …`.
#[derive(Debug, Clone)]
pub struct AggHead {
    /// Positions of the grouping (non-aggregate) head arguments.
    pub group_positions: Vec<usize>,
    /// `(position, function, aggregated variable)` per aggregate term.
    pub aggs: Vec<(usize, AggFn, VarId)>,
}

/// A semi-naive version of a rule: which body element reads the delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnVersion {
    /// Index into `body` of the delta literal; `None` for the single
    /// version of a non-recursive rule (evaluated only on the first
    /// iteration).
    pub delta_idx: Option<usize>,
}

/// A compiled rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Head literal (aggregate terms intact; see `agg`).
    pub head: Literal,
    /// Head aggregation, if any.
    pub agg: Option<AggHead>,
    /// Classified body in evaluation order.
    pub body: Vec<BodyElem>,
    /// Number of variables in the clause.
    pub nvars: u32,
    /// Variable names (diagnostics).
    pub var_names: Vec<String>,
    /// Semi-naive versions.
    pub versions: Vec<SnVersion>,
    /// Intelligent backtracking: for body element `i`, the index of the
    /// nearest earlier element sharing a variable with elements `i..`
    /// or the head (where to retry when `i` exhausts without the
    /// element having contributed bindings since).
    pub backtrack: Vec<Option<usize>>,
}

/// One strongly connected component, compiled.
#[derive(Debug)]
pub struct CompiledScc {
    /// Member predicates.
    pub preds: Vec<PredRef>,
    /// Requires fixpoint iteration.
    pub recursive: bool,
    /// Ordinary rules.
    pub rules: Vec<CompiledRule>,
    /// Aggregate-head rules (evaluated once, after the bodies' SCCs).
    pub agg_rules: Vec<CompiledRule>,
}

/// A compiled module, ready for the evaluator.
#[derive(Debug)]
pub struct CompiledModule {
    /// The rewritten source (answer predicate, seed, dumpable text).
    pub rewritten: Rewritten,
    /// SCCs in evaluation order.
    pub sccs: Vec<CompiledScc>,
    /// All local predicates (defined by rules, plus the seed predicate).
    pub local_preds: Vec<PredRef>,
    /// Fixpoint variant chosen for this module.
    pub fixpoint: FixpointKind,
    /// Index annotations per local predicate, derived by the optimizer
    /// from body binding patterns plus user `@make_index` annotations.
    pub indexes: Vec<(PredRef, Vec<usize>)>,
    /// Index recommendations for *external* predicates (base relations)
    /// probed by this module's rules — "the optimizer … generates
    /// annotations to create any indexes that may be useful during the
    /// evaluation phase" (§5.3). The engine applies them at call time.
    pub external_indexes: Vec<(PredRef, Vec<usize>)>,
    /// The adornment of the answer predicate.
    pub adornment: Adornment,
}

fn classify_body(
    rule: &Rule,
    defined: &HashSet<PredRef>,
    feed: &HashSet<PredRef>,
) -> Vec<BodyElem> {
    rule.body
        .iter()
        .map(|item| match item {
            BodyItem::Literal(l) => {
                let p = l.pred_ref();
                if defined.contains(&p) || feed.contains(&p) {
                    // Every local literal is delta-tracked ("recursive"),
                    // not only same-SCC ones: the per-SCC watermarks in
                    // the fixpoint state then guarantee that re-entrant
                    // runs (save-module §5.4.2, Ordered Search §5.4.1)
                    // join each rule against exactly the not-yet-seen
                    // facts, never repeating a derivation.
                    BodyElem::Local {
                        lit: l.clone(),
                        recursive: true,
                    }
                } else {
                    BodyElem::External { lit: l.clone() }
                }
            }
            BodyItem::Negated(l) => BodyElem::Negated {
                lit: l.clone(),
                local: defined.contains(&l.pred_ref()) || feed.contains(&l.pred_ref()),
            },
            BodyItem::Compare { op, lhs, rhs } => BodyElem::Compare {
                op: *op,
                lhs: lhs.clone(),
                rhs: rhs.clone(),
            },
        })
        .collect()
}

/// Precompute intelligent-backtracking points: when element `i` yields no
/// (more) matches, jump back to the nearest earlier element that can
/// change `i`'s bindings — the latest earlier element sharing a variable
/// with `i`. Elements between are skipped ("intelligent backtracking",
/// §4.2).
pub(crate) fn backtrack_points(body: &[BodyElem]) -> Vec<Option<usize>> {
    let var_sets: Vec<HashSet<VarId>> = body
        .iter()
        .map(|e| e.vars().into_iter().collect())
        .collect();
    (0..body.len())
        .map(|i| {
            (0..i)
                .rev()
                .find(|&j| !var_sets[i].is_disjoint(&var_sets[j]))
        })
        .collect()
}

/// Chronological backtracking: element `i` retries element `i - 1`.
/// Rules compiled with intelligent backtracking off, and every
/// synthesized rule, use it.
pub(crate) fn chronological(n: usize) -> Vec<Option<usize>> {
    (0..n).map(|i| i.checked_sub(1)).collect()
}

impl CompiledRule {
    /// A rule built outside compilation — a maintenance delta variant or
    /// an explanation probe: `base`'s head over `nvars` variables, one
    /// non-delta version, chronological backtracking over `body`.
    pub(crate) fn synthesized(
        base: &CompiledRule,
        nvars: u32,
        body: Vec<BodyElem>,
    ) -> CompiledRule {
        CompiledRule {
            head: base.head.clone(),
            agg: None,
            backtrack: chronological(body.len()),
            body,
            nvars,
            var_names: base.var_names.clone(),
            versions: vec![SnVersion { delta_idx: None }],
        }
    }
}

pub(crate) fn versions_for(body: &[BodyElem]) -> Vec<SnVersion> {
    let rec_positions: Vec<usize> = body
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            matches!(
                e,
                BodyElem::Local {
                    recursive: true,
                    ..
                }
            )
        })
        .map(|(i, _)| i)
        .collect();
    if rec_positions.is_empty() {
        vec![SnVersion { delta_idx: None }]
    } else {
        rec_positions
            .into_iter()
            .map(|i| SnVersion { delta_idx: Some(i) })
            .collect()
    }
}

fn agg_head_of(rule: &Rule) -> Option<AggHead> {
    let agg_positions = head_agg_positions(rule);
    if agg_positions.is_empty() {
        return None;
    }
    let mut aggs = Vec::new();
    for &pos in &agg_positions {
        let app = rule.head.args[pos].as_app().unwrap();
        let f = AggFn::from_name(&app.sym().as_str()).unwrap();
        let Term::Var(v) = app.args()[0] else {
            unreachable!()
        };
        aggs.push((pos, f, v));
    }
    Some(AggHead {
        group_positions: (0..rule.head.args.len())
            .filter(|p| !agg_positions.contains(p))
            .collect(),
        aggs,
    })
}

/// Optimizer switches for [`compile`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Fixpoint variant.
    pub fixpoint: FixpointKind,
    /// Admit unstratified SCCs (the ordered-search evaluator handles
    /// them); otherwise they are an error, as is an aggregate rule
    /// inside a recursive SCC.
    pub ordered_search: bool,
    /// Precompute intelligent backtracking points (§4.2); off =
    /// chronological backtracking only (ablation).
    pub intelligent_backtracking: bool,
    /// Derive indices from body binding patterns (§4.2's index
    /// selection); off = only user indices (ablation).
    pub auto_index: bool,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            fixpoint: FixpointKind::Bsn,
            ordered_search: false,
            intelligent_backtracking: true,
            auto_index: true,
        }
    }
}

/// Compile a rewritten module under the given optimizer switches.
pub fn compile(
    rewritten: Rewritten,
    fixpoint: FixpointKind,
    user_indexes: &[(PredRef, Vec<usize>)],
    ordered_search: bool,
) -> EvalResult<CompiledModule> {
    compile_with(
        rewritten,
        CompileOptions {
            fixpoint,
            ordered_search,
            ..CompileOptions::default()
        },
        user_indexes,
    )
}

/// [`compile`] with full optimizer switches.
pub fn compile_with(
    rewritten: Rewritten,
    opts: CompileOptions,
    user_indexes: &[(PredRef, Vec<usize>)],
) -> EvalResult<CompiledModule> {
    let fixpoint = opts.fixpoint;
    let ordered_search = opts.ordered_search;
    let module = &rewritten.module;
    let graph = depgraph::analyze(module);
    let defined: HashSet<PredRef> = module.defined_preds().into_iter().collect();
    let mut local_preds: Vec<PredRef> = module.defined_preds();
    if let Some(seed) = &rewritten.seed {
        if !local_preds.contains(&seed.pred) {
            local_preds.push(seed.pred);
        }
    }
    for p in &rewritten.extra_local_preds {
        if !local_preds.contains(p) {
            local_preds.push(*p);
        }
    }
    // The answer predicate may have no rules (e.g. empty modules).
    if !local_preds.contains(&rewritten.answer_pred) {
        local_preds.push(rewritten.answer_pred);
    }
    // Externally fed locals: local but with no defining rules.
    let feed: HashSet<PredRef> = local_preds
        .iter()
        .filter(|p| !defined.contains(p))
        .copied()
        .collect();

    let mut sccs = Vec::with_capacity(graph.sccs.len());
    for info in &graph.sccs {
        if info.unstratified && !ordered_search {
            return Err(EvalError::Unstratified(format!(
                "recursion through negation or aggregation among {:?}; use @ordered_search",
                info.preds.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            )));
        }
        let scc_preds: HashSet<PredRef> = info.preds.iter().copied().collect();
        let mut rules = Vec::new();
        let mut agg_rules = Vec::new();
        for rule in &module.rules {
            if !scc_preds.contains(&rule.head.pred_ref()) {
                continue;
            }
            let mut body = classify_body(rule, &defined, &feed);
            let agg = agg_head_of(rule);
            if agg.is_some() {
                // True recursion through aggregation is unstratified;
                // feed predicates are complete by the time aggregate
                // rules run, so demote every local literal to a full
                // (non-delta) read.
                if body.iter().any(|e| {
                    matches!(e, BodyElem::Local { lit, .. } if scc_preds.contains(&lit.pred_ref()))
                }) {
                    return Err(EvalError::Unstratified(format!(
                        "aggregate rule for {} is recursive; use @ordered_search",
                        rule.head.pred
                    )));
                }
                for e in &mut body {
                    if let BodyElem::Local { recursive, .. } = e {
                        *recursive = false;
                    }
                }
            }
            let versions = versions_for(&body);
            let compiled = CompiledRule {
                backtrack: if opts.intelligent_backtracking {
                    backtrack_points(&body)
                } else {
                    chronological(body.len())
                },
                head: rule.head.clone(),
                agg,
                body,
                nvars: rule.nvars,
                var_names: rule.var_names.clone(),
                versions,
            };
            if compiled.agg.is_some() {
                agg_rules.push(compiled);
            } else {
                rules.push(compiled);
            }
        }
        sccs.push(CompiledScc {
            preds: info.preds.clone(),
            recursive: info.recursive,
            rules,
            agg_rules,
        });
    }

    // Index selection (§4.2): for every local body literal, index the
    // columns whose arguments are bound by the time the nested-loops join
    // reaches the literal (left-to-right, starting from nothing — this is
    // bottom-up evaluation, the head binds nothing).
    let mut index_map: HashMap<PredRef, HashSet<Vec<usize>>> = HashMap::new();
    let mut external_map: HashMap<PredRef, HashSet<Vec<usize>>> = HashMap::new();
    let analyzed_rules: &[Rule] = if opts.auto_index { &module.rules } else { &[] };
    for rule in analyzed_rules {
        let free_head = Adornment::all_free(rule.head.args.len());
        let bounds = bound_sets(rule, &free_head);
        for (i, item) in rule.body.iter().enumerate() {
            let lit = match item {
                BodyItem::Literal(l) | BodyItem::Negated(l) => l,
                BodyItem::Compare { .. } => continue,
            };
            let is_local = defined.contains(&lit.pred_ref())
                || rewritten.seed.as_ref().map(|s| s.pred) == Some(lit.pred_ref());
            let cols: Vec<usize> = lit
                .args
                .iter()
                .enumerate()
                .filter(|(_, arg)| {
                    let mut vs = Vec::new();
                    arg.collect_vars(&mut vs);
                    !is_agg_term(arg) && vs.iter().all(|v| bounds[i].contains(v))
                })
                .map(|(j, _)| j)
                .collect();
            if !cols.is_empty() && cols.len() < lit.args.len() {
                if is_local {
                    index_map.entry(lit.pred_ref()).or_default().insert(cols);
                } else {
                    external_map.entry(lit.pred_ref()).or_default().insert(cols);
                }
            }
        }
    }
    for (pred, cols) in user_indexes {
        if local_preds.contains(pred) {
            index_map.entry(*pred).or_default().insert(cols.clone());
        }
    }
    let mut indexes: Vec<(PredRef, Vec<usize>)> = index_map
        .into_iter()
        .flat_map(|(p, sets)| sets.into_iter().map(move |cols| (p, cols)))
        .collect();
    indexes.sort_by(|a, b| {
        a.0.name
            .as_str()
            .cmp(&b.0.name.as_str())
            .then(a.1.cmp(&b.1))
    });

    let mut external_indexes: Vec<(PredRef, Vec<usize>)> = external_map
        .into_iter()
        .flat_map(|(p, sets)| sets.into_iter().map(move |cols| (p, cols)))
        .collect();
    external_indexes.sort_by(|a, b| {
        a.0.name
            .as_str()
            .cmp(&b.0.name.as_str())
            .then(a.1.cmp(&b.1))
    });
    let adornment = rewritten.adornment.clone();
    Ok(CompiledModule {
        rewritten,
        sccs,
        local_preds,
        fixpoint,
        indexes,
        external_indexes,
        adornment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::rewrite_module;
    use coral_lang::{parse_program, Module, RewriteKind};

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

    #[test]
    fn ancestor_compiles_with_delta_versions() {
        let c = compile_src(
            "module anc. export anc(bf).\n\
             anc(X, Y) :- par(X, Y).\n\
             anc(X, Y) :- par(X, Z), anc(Z, Y).\n\
             end_module.",
            "anc",
            2,
            "bf",
        );
        // The magic/supplementary cycle and the self-recursive answer
        // predicate both land in recursive SCCs, magic first.
        let magic_scc = c
            .sccs
            .iter()
            .position(|s| s.preds.iter().any(|p| p.name.as_str() == "m_anc__bf"))
            .expect("magic scc");
        let ans_scc = c
            .sccs
            .iter()
            .position(|s| s.preds.iter().any(|p| p.name.as_str() == "anc__bf"))
            .expect("answer scc");
        assert!(magic_scc <= ans_scc);
        assert!(c.sccs[ans_scc].recursive);
        let rec = &c.sccs[ans_scc];
        // Every recursive rule has one version per recursive literal.
        for r in &rec.rules {
            let rec_lits = r
                .body
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        BodyElem::Local {
                            recursive: true,
                            ..
                        }
                    )
                })
                .count();
            if rec_lits == 0 {
                assert_eq!(r.versions, vec![SnVersion { delta_idx: None }]);
            } else {
                assert_eq!(r.versions.len(), rec_lits);
            }
        }
        // Seed predicate tracked as local.
        assert!(c.local_preds.iter().any(|p| p.name.as_str() == "m_anc__bf"));
    }

    #[test]
    fn index_selection_covers_join_columns() {
        let c = compile_src(
            "module tc. export path(ff).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             end_module.",
            "path",
            2,
            "ff",
        );
        // In rule 2, by the time evaluation reaches path(Z, Y), Z is
        // bound: an index on path's first column is selected.
        assert!(
            c.indexes
                .iter()
                .any(|(p, cols)| p.name.as_str() == "path__ff" && cols == &vec![0]),
            "{:?}",
            c.indexes
        );
    }

    #[test]
    fn backtrack_points_skip_independent_elements() {
        let c = compile_src(
            "module m. export p(ff).\n\
             p(X, Y) :- a(X), b(Y), c(X).\n\
             end_module.",
            "p",
            2,
            "ff",
        );
        let rule = c
            .sccs
            .iter()
            .flat_map(|s| &s.rules)
            .find(|r| r.head.pred.as_str() == "p__ff")
            .unwrap();
        // c(X) shares X with a(X) at position 0, skipping b(Y).
        assert_eq!(rule.backtrack[2], Some(0));
        assert_eq!(rule.backtrack[1], None);
        assert_eq!(rule.backtrack[0], None);
    }

    #[test]
    fn unstratified_rejected_without_ordered_search() {
        let m = module_of(
            "module g. export win(b).\n\
             win(X) :- move(X, Y), not win(Y).\n\
             end_module.",
        );
        let rw = rewrite_module(
            &m,
            PredRef::new("win", 1),
            &Adornment::parse("b").unwrap(),
            RewriteKind::Magic,
            &std::collections::HashSet::new(),
            &[],
        );
        let err = compile(rw, FixpointKind::Bsn, &[], false).unwrap_err();
        assert!(matches!(err, EvalError::Unstratified(_)));
        // Accepted when ordered search will drive it.
        let rw2 = rewrite_module(
            &m,
            PredRef::new("win", 1),
            &Adornment::parse("b").unwrap(),
            RewriteKind::Magic,
            &std::collections::HashSet::new(),
            &[],
        );
        assert!(compile(rw2, FixpointKind::Bsn, &[], true).is_ok());
    }

    #[test]
    fn aggregate_rules_separated() {
        let c = compile_src(
            "module m. export s(ff).\n\
             p(X, C) :- e(X, C).\n\
             s(X, min(C)) :- p(X, C).\n\
             end_module.",
            "s",
            2,
            "ff",
        );
        let agg_scc = c
            .sccs
            .iter()
            .find(|s| !s.agg_rules.is_empty())
            .expect("agg scc");
        assert_eq!(agg_scc.agg_rules.len(), 1);
        let agg = agg_scc.agg_rules[0].agg.as_ref().unwrap();
        assert_eq!(agg.group_positions, vec![0]);
        assert_eq!(agg.aggs.len(), 1);
        assert_eq!(agg.aggs[0].1, AggFn::Min);
    }

    #[test]
    fn recursive_aggregation_rejected() {
        let m = module_of(
            "module m. export s(ff).\n\
             s(X, min(C)) :- s(Y, C), e(Y, X).\n\
             end_module.",
        );
        let rw = rewrite_module(
            &m,
            PredRef::new("s", 2),
            &Adornment::parse("ff").unwrap(),
            RewriteKind::SupplementaryMagic,
            &std::collections::HashSet::new(),
            &[],
        );
        assert!(matches!(
            compile(rw, FixpointKind::Bsn, &[], false),
            Err(EvalError::Unstratified(_))
        ));
    }
}
