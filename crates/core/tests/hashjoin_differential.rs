//! Differential suite for hash-join evaluation: over the shared
//! 5-family × 20-seed program generators, answers with transient
//! hash-join tables (serial and `k=4` parallel) must be equivalent to
//! answers with hash joins disabled (`set_hashjoin(false)`, the
//! `CORAL_HASHJOIN=0` escape hatch — pure index probing).
//!
//! Equivalence is modulo subsumption, exactly as in the planner
//! differential: hash-bucket order (insertion order within a bucket,
//! then the side list) legitimately differs from index-lookup order,
//! and `SetSubsuming` storage depends on arrival order.
//!
//! Non-vacuousness (gated on the `profile` feature):
//!
//! * across all families, hash-join runs must actually build tables
//!   (`joinhash.tables_built > 0` summed over runs);
//! * at least one family must record a Bloom-filter skip
//!   (`joinhash.bloom_skips > 0`), proving the sideways information
//!   passing path runs;
//! * runs with hash joins off must report all-zero joinhash counters —
//!   the escape hatch restores the exact pre-hash-join engine.

#[path = "common/families.rs"]
mod families;

use coral_core::session::Session;
use families::FAMILIES;

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

fn subsumes(a: &[Val], b: &[Val]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| matches!(x, Val::Wild) || x == y)
}

fn canonical(a: &str) -> String {
    a.split(", ")
        .map(|part| match part.rsplit_once(" = ") {
            Some((var, v)) if v.parse::<i64>().is_err() => format!("{var} = _"),
            _ => part.to_string(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn normalize(answers: Vec<String>) -> Vec<String> {
    let mut answers: Vec<String> = answers.iter().map(|a| canonical(a)).collect();
    answers.sort();
    answers.dedup();
    let parsed: Vec<Vec<Val>> = answers.iter().map(|a| parse_answer(a)).collect();
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

/// Joinhash profile totals of one run:
/// `(tables_built, probes, bloom_skips)`.
type JoinhashTotals = (u64, u64, u64);

/// Consult and query one case under a configuration; returns normalized
/// answers plus the profile's joinhash section.
fn run(
    threads: usize,
    hashjoin: bool,
    program: &str,
    query: &str,
) -> (Vec<String>, JoinhashTotals) {
    let s = Session::new();
    s.set_threads(threads);
    s.set_hashjoin(hashjoin);
    s.set_profiling(true);
    s.consult_str(program)
        .unwrap_or_else(|e| panic!("consult failed (k={threads} hashjoin={hashjoin}): {e}"));
    let out = normalize(
        s.query_all(query)
            .unwrap_or_else(|e| {
                panic!("query {query} failed (k={threads} hashjoin={hashjoin}): {e}")
            })
            .iter()
            .map(|a| a.to_string())
            .collect(),
    );
    let jh = s
        .last_profile()
        .map(|p| {
            (
                p.joinhash.tables_built,
                p.joinhash.probes,
                p.joinhash.bloom_skips,
            )
        })
        .unwrap_or((0, 0, 0));
    (out, jh)
}

/// One family's differential across its seed range; returns accumulated
/// `(tables_built, bloom_skips)` of the hash-join runs.
fn family_differential(name: &str, gen: fn(u64) -> families::Case, base: u64) -> (u64, u64) {
    let mut tables = 0u64;
    let mut skips = 0u64;
    for seed in base..base + families::SEEDS {
        let case = gen(seed);
        let program = case.program("");
        let (baseline, off_jh) = run(1, false, &program, case.query);
        assert!(
            !baseline.is_empty(),
            "{name} seed {seed}: query has answers"
        );
        if coral_core::profile::AVAILABLE {
            assert_eq!(
                off_jh,
                (0, 0, 0),
                "{name} seed {seed}: hashjoin-off run must report zero joinhash counters"
            );
        }
        let (hj1, jh1) = run(1, true, &program, case.query);
        assert_eq!(
            hj1, baseline,
            "{name} seed {seed}: hash-join (k=1) answers differ from index probing on:\n{}",
            program
        );
        let (hj4, jh4) = run(4, true, &program, case.query);
        assert_eq!(
            hj4, baseline,
            "{name} seed {seed}: hash-join (k=4) answers differ from index probing on:\n{}",
            program
        );
        tables += jh1.0 + jh4.0;
        skips += jh1.2 + jh4.2;
    }
    (tables, skips)
}

#[test]
fn hash_joins_match_index_probing_on_all_families() {
    let mut total_tables = 0u64;
    let mut total_skips = 0u64;
    let mut skipping_families: Vec<&str> = Vec::new();
    for (name, gen, base) in FAMILIES {
        let (tables, skips) = family_differential(name, *gen, *base);
        total_tables += tables;
        total_skips += skips;
        if skips > 0 {
            skipping_families.push(name);
        }
    }
    if coral_core::profile::AVAILABLE {
        assert!(
            total_tables > 0,
            "hash-join runs never built a table on any family — \
             the differential is vacuous"
        );
        assert!(
            total_skips > 0,
            "no family ever recorded a Bloom-filter skip — \
             the sideways-information-passing path went unexercised"
        );
        eprintln!(
            "hashjoin differential: {total_tables} tables built, \
             {total_skips} bloom skips (families: {skipping_families:?})"
        );
    }
}

#[test]
fn hashjoin_flag_survives_reconfiguration() {
    // Flipping `set_hashjoin` between queries changes only the join
    // machinery, never the answers.
    let s = Session::new();
    // Default is on, unless the environment's escape hatch (which CI
    // exercises across the whole workspace) has turned it off.
    let env_default = !std::env::var("CORAL_HASHJOIN").is_ok_and(|v| v == "0");
    assert_eq!(
        s.hashjoin_enabled(),
        env_default,
        "session default must follow CORAL_HASHJOIN"
    );
    s.set_hashjoin(true);
    s.consult_str(
        "edge(1, 2). edge(2, 3). edge(3, 4).\n\
         module t. export p(ff).\n\
         p(X, Y) :- edge(X, Y).\n\
         p(X, Y) :- p(X, Z), edge(Z, Y).\n\
         end_module.\n",
    )
    .unwrap();
    let on: Vec<String> = s
        .query_all("p(X, Y)")
        .unwrap()
        .iter()
        .map(|a| a.to_string())
        .collect();
    s.set_hashjoin(false);
    assert!(!s.hashjoin_enabled());
    let off: Vec<String> = s
        .query_all("p(X, Y)")
        .unwrap()
        .iter()
        .map(|a| a.to_string())
        .collect();
    let (mut a, mut b) = (on, off);
    a.sort();
    b.sort();
    assert_eq!(a, b, "answers must not depend on the hashjoin flag");
    s.set_hashjoin(true);
    assert!(s.hashjoin_enabled());
}
