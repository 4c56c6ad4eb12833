//! Differential suite for cost-based planning: over the shared 5-family
//! × 20-seed program generators, answers under the cost-based planner
//! (serial and `k=4` parallel) must be equivalent to answers with
//! planning disabled (`set_stats(false)`, the `CORAL_STATS=0` escape
//! hatch, which is the legacy static-heuristic path).
//!
//! Equivalence is *modulo subsumption*: unlike the columnar suite
//! (which compares exact lists, because batching must not change
//! derivation order), the planner legitimately changes derivation
//! order, and `SetSubsuming` relations reject an incoming subsumed
//! tuple without retro-deleting stored specifics when a more general
//! tuple lands later — so the stored representation of the same answer
//! set depends on arrival order. Each answer list is therefore
//! normalized by dropping answers subsumed by another answer in the
//! same list before comparing.
//!
//! Two non-vacuousness checks (gated on the `profile` feature):
//!
//! * across all families, the planner must actually have chosen a
//!   different order at least once (`planner.reordered + planner.replans
//!   > 0` summed over runs) — otherwise the differential tests nothing;
//! * at least one recursive family must trigger a *mid-fixpoint replan*
//!   (`planner.replans > 0`), exercising the adaptive re-costing loop
//!   between semi-naive iterations.

#[path = "common/families.rs"]
mod families;

use coral_core::session::Session;
use families::FAMILIES;

/// One rendered answer value: a ground integer or a fresh variable
/// (the generators only produce integer constants, so any non-integer
/// token is a wildcard).
#[derive(PartialEq)]
enum Val {
    Ground(i64),
    Wild,
}

fn parse_answer(a: &str) -> Vec<Val> {
    a.split(", ")
        .map(|part| {
            let v = part.rsplit(" = ").next().unwrap_or(part);
            match v.parse::<i64>() {
                Ok(n) => Val::Ground(n),
                Err(_) => Val::Wild,
            }
        })
        .collect()
}

/// Whether answer `a` subsumes answer `b` (a wildcard covers anything).
fn subsumes(a: &[Val], b: &[Val]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| matches!(x, Val::Wild) || x == y)
}

/// Rewrite an answer with every wildcard value as `_`, so fresh-variable
/// numbering differences between runs cannot fail the comparison.
fn canonical(a: &str) -> String {
    a.split(", ")
        .map(|part| match part.rsplit_once(" = ") {
            Some((var, v)) if v.parse::<i64>().is_err() => format!("{var} = _"),
            _ => part.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Drop answers subsumed by a *different* answer in the same list, then
/// dedup: the canonical representation of the answer set.
fn normalize(answers: Vec<String>) -> Vec<String> {
    let mut answers: Vec<String> = answers.iter().map(|a| canonical(a)).collect();
    answers.sort();
    answers.dedup();
    let parsed: Vec<Vec<Val>> = answers.iter().map(|a| parse_answer(a)).collect();
    // Mutually subsuming answers (differently named wildcards) keep
    // only the first; otherwise the strictly more general one survives.
    let keep: Vec<bool> = (0..answers.len())
        .map(|i| {
            !(0..answers.len()).any(|j| {
                j != i
                    && subsumes(&parsed[j], &parsed[i])
                    && (!subsumes(&parsed[i], &parsed[j]) || j < i)
            })
        })
        .collect();
    answers
        .into_iter()
        .zip(keep)
        .filter_map(|(a, k)| k.then_some(a))
        .collect()
}

/// Consult and query one case; returns normalized answers plus the
/// profile planner section totals `(reordered, replans)`.
fn run(threads: usize, stats: bool, program: &str, query: &str) -> (Vec<String>, (u64, u64)) {
    let s = Session::new();
    s.set_threads(threads);
    s.set_stats(stats);
    s.set_profiling(true);
    s.consult_str(program)
        .unwrap_or_else(|e| panic!("consult failed (k={threads} stats={stats}): {e}"));
    let out = normalize(
        s.query_all(query)
            .unwrap_or_else(|e| panic!("query {query} failed (k={threads} stats={stats}): {e}"))
            .iter()
            .map(|a| a.to_string())
            .collect(),
    );
    let planner = s
        .last_profile()
        .map(|p| (p.planner.reordered, p.planner.replans))
        .unwrap_or((0, 0));
    (out, planner)
}

/// One family's differential across its seed range; returns accumulated
/// `(reordered, replans)` of the cost-based runs.
fn family_differential(name: &str, gen: fn(u64) -> families::Case, base: u64) -> (u64, u64) {
    let mut reordered = 0u64;
    let mut replans = 0u64;
    for seed in base..base + families::SEEDS {
        let case = gen(seed);
        let program = case.program("");
        let (baseline, off_planner) = run(1, false, &program, case.query);
        assert!(
            !baseline.is_empty(),
            "{name} seed {seed}: query has answers"
        );
        if coral_core::profile::AVAILABLE {
            assert_eq!(
                off_planner,
                (0, 0),
                "{name} seed {seed}: stats-off run must not touch the planner"
            );
        }
        let (serial, p1) = run(1, true, &program, case.query);
        assert_eq!(
            serial, baseline,
            "{name} seed {seed}: cost-based (k=1) answers differ from \
             the static heuristic on:\n{}",
            program
        );
        let (parallel, _) = run(4, true, &program, case.query);
        assert_eq!(
            parallel, baseline,
            "{name} seed {seed}: cost-based (k=4) answers differ from \
             the static heuristic on:\n{}",
            program
        );
        reordered += p1.0;
        replans += p1.1;
    }
    (reordered, replans)
}

#[test]
fn cost_based_matches_static_heuristic_on_all_families() {
    let mut total_reordered = 0u64;
    let mut total_replans = 0u64;
    let mut replanning_families: Vec<&str> = Vec::new();
    for (name, gen, base) in FAMILIES {
        let (reordered, replans) = family_differential(name, *gen, *base);
        total_reordered += reordered;
        total_replans += replans;
        if replans > 0 {
            replanning_families.push(name);
        }
    }
    if coral_core::profile::AVAILABLE {
        assert!(
            total_reordered + total_replans > 0,
            "planner never chose a different order on any family — \
             the differential is vacuous"
        );
        assert!(
            total_replans > 0,
            "no recursive family ever triggered a mid-fixpoint replan — \
             the adaptive re-costing loop went unexercised"
        );
        eprintln!(
            "planner differential: {total_reordered} compile-time reorders, \
             {total_replans} mid-fixpoint replans (families: {replanning_families:?})"
        );
    }
}

#[test]
fn stats_flag_survives_reconfiguration() {
    // Flipping `set_stats` between queries must invalidate cached plans
    // without changing answers.
    let s = Session::new();
    s.set_stats(true);
    assert!(s.stats_enabled());
    s.consult_str(
        "edge(1, 2). edge(2, 3). edge(3, 4).\n\
         module t. export p(ff).\n\
         p(X, Y) :- edge(X, Y).\n\
         p(X, Y) :- p(X, Z), edge(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    let collect = |s: &Session| {
        let mut v: Vec<String> = s
            .query_all("p(X, Y)")
            .unwrap()
            .iter()
            .map(|a| a.to_string())
            .collect();
        v.sort();
        v
    };
    let on = collect(&s);
    s.set_stats(false);
    assert!(!s.stats_enabled());
    let off = collect(&s);
    s.set_stats(true);
    let on_again = collect(&s);
    assert_eq!(on, off);
    assert_eq!(on, on_again);
    assert_eq!(on.len(), 6);
}

#[test]
fn analyze_refreshes_and_keeps_answers() {
    // ANALYZE between queries refreshes statistics and invalidates
    // plans; answers must be stable across it.
    let s = Session::new();
    s.set_stats(true);
    s.consult_str(
        "edge(1, 2). edge(2, 3).\n\
         module t. export p(ff).\n\
         p(X, Y) :- edge(X, Y).\n\
         p(X, Y) :- p(X, Z), edge(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    let before: Vec<String> = s
        .query_all("p(X, Y)")
        .unwrap()
        .iter()
        .map(|a| a.to_string())
        .collect();
    let n = s.analyze().unwrap();
    assert!(n >= 1, "at least the edge relation is analyzed, got {n}");
    let after: Vec<String> = s
        .query_all("p(X, Y)")
        .unwrap()
        .iter()
        .map(|a| a.to_string())
        .collect();
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    assert_eq!(sorted(before), sorted(after));
}
