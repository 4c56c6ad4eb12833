//! The engine differential: over the shared 5-family × 20-seed program
//! generators, the default engine at `k=1` and at `k=4`, the `@bsn`
//! and `@psn` strategies of §3.2, and the `@lazy` and `@save_module`
//! answer scans of §5.4 (the saved module queried twice), must answer
//! exactly like the *reference evaluator* — the same program under
//! `@naive. @rewrite none.`, which joins in source order over
//! index/scan candidates with none of the optimised machinery (no hash
//! tables, no planner, no worker pool, no maintained state).
//!
//! Answer lists are compared sorted but *not* deduplicated, so
//! multiplicity differences fail too. `k=1` vs `k=4` must match exactly
//! on every family (the parallel merge replays the serial insertion
//! order). Every other leg vs the reference is exact on the ground
//! families; on `nonground` it is modulo subsumption, because the
//! planner and hash buckets legitimately change derivation order and
//! `SetSubsuming` relations keep an already-stored specific tuple when a
//! more general one lands later — the stored representation of the same
//! answer set depends on arrival order. On `sg`, whose parent edges are
//! acyclic, the `@pipelining` leg (§5.2) must produce the reference's
//! answer set; top-down evaluation repeats answers, so it is compared
//! deduplicated.
//!
//! On the default `k=1` session, seeded query patterns mixing constants,
//! repeated named variables and `_` must bind every answer exactly as
//! unifying the pattern with the answer tuple resolves it — the binding
//! plan that reads ground answers off the tuple against the unifier.
//!
//! Profile assertions keep the differential honest: every optimisation
//! must demonstrably engage on the default side ([`ENGAGED`]), the
//! ground matcher must decide every candidate of an all-ground family
//! without the unifier ([`ZERO_ON_GROUND`]), the reference side must
//! demonstrably touch none of them ([`reference_is_independent`]), and
//! naive evaluation must pull strictly more join candidates than
//! semi-naive on every family — the work the strategies differ in.

#[path = "common/families.rs"]
mod families;

use coral_core::profile::EngineProfile;
use coral_core::session::Session;
use coral_lang::{parse_query, Query};
use coral_term::testutil::TestRng;
use coral_term::{unify, EnvSet, Term, Tuple};
use families::{Case, Family, FAMILIES, REFERENCE, SEEDS};

/// The semi-naive strategies run as legs of their own (`@bsn` is also
/// the default's strategy; the annotation must not change answers).
const STRATEGIES: [&str; 2] = ["@bsn.\n", "@psn.\n"];

/// The materialized scans other than the default's: answers flowing out
/// per iteration, and answers read from a state retained across calls.
const SCANS: [&str; 2] = ["@lazy.\n", "@save_module.\n"];
const SAVE_MODULE: &str = SCANS[1];

/// Top-down evaluation, run on the one family where it terminates.
const PIPELINING: (&str, &str) = ("sg", "@pipelining.\n");

/// Where a default-side counter must be nonzero.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// Summed over the whole suite.
    Suite,
    /// Within every family.
    EveryFamily,
    /// Within the named family (and therefore over the suite).
    Family(&'static str),
}

/// The one engaged figure that is not a registry counter.
const PARALLEL_FIRINGS: &str = "parallel.parallel_firings";

/// Counters (by `all_counters()` name) that must be nonzero on the
/// default side.
const ENGAGED: [(&str, Scope); 7] = [
    ("core.batched_rows", Scope::EveryFamily),
    // Non-ground candidates must take the unify fallback, or the ground
    // matcher's boundary goes untested.
    ("core.fallback_rows", Scope::Family("nonground")),
    ("core.joinhash_tables_built", Scope::Suite),
    ("core.joinhash_bloom_skips", Scope::Suite),
    ("core.plan_reordered", Scope::Suite),
    ("core.plan_replans", Scope::Suite),
    (PARALLEL_FIRINGS, Scope::Suite),
];

/// Counters that must stay zero on every default-side, `@lazy` and
/// `@save_module` query of every all-ground family (all but
/// `nonground`): a ground candidate or answer is decided by the
/// frame-free ground matcher, never by the unifier.
const ZERO_ON_GROUND: [&str; 2] = ["term.unify_attempts", "core.fallback_rows"];

fn counter(p: &EngineProfile, name: &str) -> u64 {
    if name == PARALLEL_FIRINGS {
        return p.sccs.iter().map(|s| s.parallel.parallel_firings).sum();
    }
    let counters = p.counters();
    let found = counters.iter().find(|(k, _)| k == name);
    found.unwrap_or_else(|| panic!("no counter {name}")).1
}

/// Consult `program`, run `query`, and return the sorted answers (not
/// deduplicated) with the session for profile inspection.
fn run(threads: usize, program: &str, query: &str, label: &str) -> (Vec<String>, Session) {
    let s = Session::new();
    s.set_threads(threads);
    s.set_profiling(true);
    s.consult_str(program)
        .unwrap_or_else(|e| panic!("{label}: consult failed: {e}"));
    (answers(&s, query, label), s)
}

/// `query`'s answers on `s`, sorted but not deduplicated.
fn answers(s: &Session, query: &str, label: &str) -> Vec<String> {
    let mut out: Vec<String> = s
        .query_all(query)
        .unwrap_or_else(|e| panic!("{label}: query {query} failed: {e}"))
        .iter()
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

/// The reference run must not have touched any optimised machinery —
/// even with a worker pool configured.
fn reference_is_independent(s: &Session, label: &str) {
    assert_eq!(
        s.maintain_totals(),
        coral_core::MaintainTotals::default(),
        "{label}: reference run built or propagated maintained state"
    );
    let p = s.last_profile().expect("reference run was profiled");
    let optimised = ["core.joinhash_", "core.plan_", "core.maintain_"];
    for (name, v) in p.counters() {
        if optimised.iter().any(|prefix| name.starts_with(prefix)) {
            assert_eq!(v, 0, "{label}: reference run counted {name}");
        }
    }
    for sec in &p.sccs {
        assert_eq!(
            (sec.parallel.parallel_firings, sec.parallel.serial_fallbacks),
            (0, 0),
            "{label}: reference run considered the worker pool"
        );
    }
}

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
fn modulo_subsumption(answers: &[String]) -> Vec<String> {
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

/// Query patterns per seed in the bindings check.
const PATTERNS: usize = 8;

/// A seeded pattern over binary `pred`: each argument a fresh named
/// variable, the first named variable again, a constant, or `_`.
fn pattern(pred: &str, rng: &mut TestRng) -> String {
    let arg = |i: usize, rng: &mut TestRng| match rng.gen_range(0, 4) {
        0 => format!("A{i}"),
        1 => "A0".to_string(),
        2 => rng.gen_range(0, 16).to_string(),
        _ => "_".to_string(),
    };
    let (a, b) = (arg(0, rng), arg(1, rng));
    format!("{pred}({a}, {b})")
}

/// The eager resolution every answer once carried: unify the pattern
/// with the answer tuple and resolve each named variable.
fn unifier_bindings(query: &Query, tuple: &Tuple) -> Vec<(String, Term)> {
    let mut envs = EnvSet::new();
    let qe = envs.push_frame(query.nvars as usize);
    let te = envs.push_frame(tuple.nvars() as usize);
    let mut args = query.literal.args.iter().zip(tuple.args());
    assert!(
        args.all(|(q, t)| unify(&mut envs, q, qe, t, te)),
        "answer {tuple} does not unify with its query"
    );
    let named = query.var_names.iter().enumerate();
    named
        .filter(|(_, name)| !name.starts_with('_'))
        .map(|(v, name)| (name.clone(), envs.resolve(&Term::var(v as u32), qe)))
        .collect()
}

/// Every answer to seeded patterns over `case`'s predicate binds what
/// the unifier resolves. Returns (answers checked, non-ground ones).
fn bindings_match_the_unifier(s: &Session, case: &Case, seed: u64, label: &str) -> (usize, usize) {
    let pred = case.query.split('(').next().unwrap();
    let mut rng = TestRng::new(seed);
    let (mut checked, mut nonground) = (0, 0);
    for _ in 0..PATTERNS {
        let text = pattern(pred, &mut rng);
        let query = parse_query(&text).unwrap();
        let answers = s
            .query_all(&text)
            .unwrap_or_else(|e| panic!("{label}: query {text} failed: {e}"));
        for a in answers {
            let got: Vec<(String, Term)> = a
                .bindings()
                .map(|(name, term)| (name.to_string(), term.clone()))
                .collect();
            let want = unifier_bindings(&query, &a.tuple);
            assert_eq!(got, want, "{label}: {text}: answer {}", a.tuple);
            checked += 1;
            nonground += usize::from(!a.tuple.is_ground());
        }
    }
    (checked, nonground)
}

/// A family's default-side [`ENGAGED`] counters (`k=1` and `k=4` runs
/// summed) and the join candidates the `@naive` reference and the
/// `@bsn` leg pulled.
#[derive(Default)]
struct Totals {
    engaged: [u64; ENGAGED.len()],
    /// [`ZERO_ON_GROUND`] summed over the default-side, `@lazy` and
    /// `@save_module` queries.
    zero_on_ground: [u64; ZERO_ON_GROUND.len()],
    naive_probes: u64,
    bsn_probes: u64,
}

/// `answers` must equal the reference's (modulo subsumption on
/// `nonground`).
fn assert_matches(family: &str, answers: &[String], reference: &[String], what: &str) {
    if family == "nonground" {
        assert_eq!(
            modulo_subsumption(answers),
            modulo_subsumption(reference),
            "{what} answers differ from the reference modulo subsumption"
        );
    } else {
        assert_eq!(
            answers, reference,
            "{what} answers differ from the reference"
        );
    }
}

/// One family across its seed range.
fn run_family(&(name, gen, base): &Family) -> Totals {
    let mut totals = Totals::default();
    let probes = |s: &Session| {
        s.last_profile()
            .map_or(0, |p| counter(&p, "core.join_probes"))
    };
    let add_zero_on_ground = |totals: &mut Totals, s: &Session| {
        if let Some(p) = s.last_profile() {
            for (t, c) in totals.zero_on_ground.iter_mut().zip(ZERO_ON_GROUND) {
                *t += counter(&p, c);
            }
        }
    };
    let (mut bound, mut bound_nonground) = (0, 0);
    for seed in base..base + SEEDS {
        let case: Case = gen(seed);
        let label = format!("{name} seed {seed}");
        let program = case.program("");

        let (reference, rs) = run(4, &case.program(REFERENCE), case.query, &label);
        assert!(!reference.is_empty(), "{label}: query has answers");
        reference_is_independent(&rs, &label);
        totals.naive_probes += probes(&rs);

        let (serial, s1) = run(1, &program, case.query, &label);
        add_zero_on_ground(&mut totals, &s1);
        assert_matches(
            name,
            &serial,
            &reference,
            &format!("{label}: default (k=1) on:\n{program}\n"),
        );
        let (checked, nonground) = bindings_match_the_unifier(&s1, &case, seed, &label);
        bound += checked;
        bound_nonground += nonground;
        let (parallel, s4) = run(4, &program, case.query, &label);
        add_zero_on_ground(&mut totals, &s4);
        assert_eq!(
            parallel, serial,
            "{label}: default k=4 answers differ from k=1 on:\n{program}"
        );
        for s in [s1, s4] {
            if let Some(p) = s.last_profile() {
                for (t, (c, _)) in totals.engaged.iter_mut().zip(ENGAGED) {
                    *t += counter(&p, c);
                }
            }
        }
        for strategy in STRATEGIES {
            let program = case.program(strategy);
            let (answers, s) = run(1, &program, case.query, &label);
            assert_matches(
                name,
                &answers,
                &reference,
                &format!("{label}: {} on:\n{program}\n", strategy.trim()),
            );
            if strategy == STRATEGIES[0] {
                totals.bsn_probes += probes(&s);
            }
        }
        for scan in SCANS {
            let program = case.program(scan);
            let what = format!("{label}: {} on:\n{program}\n", scan.trim());
            let (first, s) = run(1, &program, case.query, &label);
            add_zero_on_ground(&mut totals, &s);
            assert_matches(name, &first, &reference, &what);
            if scan == SAVE_MODULE {
                // The second call answers from the retained state.
                let second = answers(&s, case.query, &label);
                add_zero_on_ground(&mut totals, &s);
                assert_matches(name, &second, &reference, &format!("{what}(second call)"));
            }
        }
        if name == PIPELINING.0 {
            let program = case.program(PIPELINING.1);
            let (mut answers, _) = run(1, &program, case.query, &label);
            answers.dedup();
            let mut want = reference.clone();
            want.dedup();
            assert_eq!(
                answers, want,
                "{label}: @pipelining answer set differs from the reference on:\n{program}"
            );
        }
    }
    assert!(bound > 0, "{name}: no pattern had answers to check");
    assert!(
        name != "nonground" || bound_nonground > 0,
        "{name}: no non-ground answer reached the bindings check"
    );
    totals
}

#[test]
fn default_engine_matches_the_reference_on_all_families() {
    // Families are independent; run them side by side.
    let per_family: Vec<Totals> = std::thread::scope(|scope| {
        let handles: Vec<_> = FAMILIES
            .iter()
            .map(|f| scope.spawn(move || run_family(f)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut suite = [0u64; ENGAGED.len()];
    for ((name, ..), totals) in FAMILIES.iter().zip(&per_family) {
        for (i, (counter, scope)) in ENGAGED.iter().enumerate() {
            suite[i] += totals.engaged[i];
            let required = *scope == Scope::EveryFamily || *scope == Scope::Family(name);
            assert!(
                !required || totals.engaged[i] > 0,
                "{name}: no default run ever counted {counter} — differential vacuous"
            );
        }
        if *name != "nonground" {
            for (counter, total) in ZERO_ON_GROUND.iter().zip(totals.zero_on_ground) {
                assert_eq!(
                    total, 0,
                    "{name}: default, @lazy or @save_module runs counted {counter} \
                     on all-ground programs"
                );
            }
        }
        // Naive re-derives old facts every round; semi-naive must not.
        assert!(
            totals.naive_probes > totals.bsn_probes,
            "{name}: @naive pulled {} join candidates, @bsn {} — naive must redo work",
            totals.naive_probes,
            totals.bsn_probes
        );
    }
    for ((counter, _), total) in ENGAGED.iter().zip(suite) {
        assert!(
            total > 0,
            "no default run on any family ever counted {counter} — differential vacuous"
        );
    }
    eprintln!(
        "engine differential, default side: {:?}",
        ENGAGED
            .iter()
            .map(|(c, _)| *c)
            .zip(suite)
            .collect::<Vec<_>>()
    );
}

#[test]
fn analyze_refreshes_and_keeps_answers() {
    // ANALYZE between queries refreshes statistics and invalidates
    // plans; answers must be stable across it.
    let s = Session::new();
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
