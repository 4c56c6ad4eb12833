//! Differential tests for the parallel semi-naive evaluator: `k=1`
//! (serial) and `k=4` (partitioned delta chunks on the worker pool)
//! must produce identical relations. The merge replays worker buffers
//! in chunk order — exactly the serial insertion sequence — so not just
//! the answer *sets* but duplicate counts and subsumption outcomes must
//! match. Programs are generated from seeded [`TestRng`] streams so
//! failures reproduce exactly.

use coral_core::session::Session;
use coral_term::testutil::TestRng;
use std::fmt::Write as _;

/// Consult `program` and run `query` with the given thread count,
/// returning sorted answers (not deduplicated: multiplicity differences
/// must fail too) and the parallel dispatch count from the profile.
fn run(threads: usize, program: &str, query: &str) -> (Vec<String>, u64) {
    let s = Session::new();
    s.set_threads(threads);
    s.set_profiling(true);
    s.consult_str(program)
        .unwrap_or_else(|e| panic!("consult failed at k={threads}: {e}"));
    let mut out: Vec<String> = s
        .query_all(query)
        .unwrap_or_else(|e| panic!("query {query} failed at k={threads}: {e}"))
        .iter()
        .map(|a| a.to_string())
        .collect();
    out.sort();
    let dispatches = s
        .last_profile()
        .map(|p| p.sccs.iter().map(|sec| sec.parallel.parallel_firings).sum())
        .unwrap_or(0);
    (out, dispatches)
}

/// Assert `k=1` and `k=4` agree on `query`. Returns the `k=4` dispatch
/// count so callers can assert the parallel path actually engaged.
fn differential(program: &str, query: &str) -> u64 {
    let (serial, serial_dispatches) = run(1, program, query);
    assert_eq!(serial_dispatches, 0, "k=1 must never dispatch workers");
    let (parallel, dispatches) = run(4, program, query);
    assert!(!serial.is_empty(), "query {query} has answers");
    assert_eq!(
        parallel, serial,
        "k=4 answers differ from k=1 for {query} on:\n{program}"
    );
    dispatches
}

fn random_edges(rng: &mut TestRng, name: &str, nodes: usize, edges: usize) -> String {
    let mut s = String::new();
    for _ in 0..edges {
        let a = rng.gen_range(0, nodes);
        let b = rng.gen_range(0, nodes);
        let _ = writeln!(s, "{name}({a}, {b}).");
    }
    s
}

#[test]
fn transitive_closure_random_graphs() {
    let mut engaged = 0u64;
    for seed in 1..=4u64 {
        let mut rng = TestRng::new(seed);
        let nodes = rng.gen_range(30, 50);
        let edges = rng.gen_range(3 * nodes, 5 * nodes);
        let program = format!(
            "{}\
             module tc.\n\
             export path(ff).\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             end_module.\n",
            random_edges(&mut rng, "edge", nodes, edges)
        );
        engaged += differential(&program, "path(X, Y)");
    }
    assert!(
        engaged > 0,
        "no random tc instance ever dispatched to the pool — differential vacuous"
    );
}

#[test]
fn same_generation_random() {
    let mut engaged = 0u64;
    for seed in 10..=12u64 {
        let mut rng = TestRng::new(seed);
        let nodes = rng.gen_range(30, 45);
        let edges = rng.gen_range(2 * nodes, 4 * nodes);
        // Parent edges only point "downward" so sg terminates.
        let mut facts = String::new();
        for _ in 0..edges {
            let a = rng.gen_range(0, nodes - 1);
            let b = rng.gen_range(a + 1, nodes);
            let _ = writeln!(facts, "par({a}, {b}).");
        }
        let program = format!(
            "{facts}\
             module sg.\n\
             export sg(ff).\n\
             sg(X, X) :- par(X, _).\n\
             sg(X, Y) :- par(P, X), sg(P, Q), par(Q, Y).\n\
             end_module.\n"
        );
        engaged += differential(&program, "sg(X, Y)");
    }
    assert!(engaged > 0, "no sg instance dispatched to the pool");
}

#[test]
fn random_programs_with_multiple_predicates() {
    // Two mutually recursive predicates over random base relations, so
    // dispatches interleave with mark advances across predicates.
    for seed in 20..=23u64 {
        let mut rng = TestRng::new(seed);
        let nodes = rng.gen_range(25, 40);
        let program = format!(
            "{}{}\
             module mr.\n\
             export odd(ff).\n\
             odd(X, Y) :- a(X, Y).\n\
             odd(X, Y) :- a(X, Z), even(Z, Y).\n\
             even(X, Y) :- b(X, Z), odd(Z, Y).\n\
             end_module.\n",
            random_edges(&mut rng, "a", nodes, 4 * nodes),
            random_edges(&mut rng, "b", nodes, 4 * nodes),
        );
        differential(&program, "odd(X, Y)");
    }
}

#[test]
fn nonground_facts_and_subsumption() {
    // A non-ground base fact flows through the recursion, so workers
    // buffer non-ground heads and the evaluator must take the serial
    // re-run fallback without changing results. The ground facts that
    // the non-ground one subsumes must stay suppressed identically.
    for seed in 30..=32u64 {
        let mut rng = TestRng::new(seed);
        let nodes = 30;
        let mut facts = random_edges(&mut rng, "edge", nodes, 5 * nodes);
        // One hub with a non-ground successor: reach(_, W) appears.
        let hub = rng.gen_range(0, nodes);
        let _ = writeln!(facts, "edge({hub}, W).");
        let program = format!(
            "{facts}\
             module ng.\n\
             export reach(ff).\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- reach(X, Z), edge(Z, Y).\n\
             end_module.\n"
        );
        differential(&program, "reach(X, Y)");
    }
}

#[test]
fn negation_and_builtins_in_parallel_rules() {
    // Negated base literals read frozen snapshots; `between/3` is a
    // builtin workers evaluate directly.
    let mut rng = TestRng::new(77);
    let nodes = 40;
    let facts = format!(
        "{}{}",
        random_edges(&mut rng, "edge", nodes, 5 * nodes),
        random_edges(&mut rng, "blocked", nodes, nodes / 2),
    );
    let program = format!(
        "{facts}\
         module nb.\n\
         export path(ff).\n\
         path(X, Y) :- edge(X, Y), not blocked(X, Y).\n\
         path(X, Y) :- path(X, Z), edge(Z, Y), not blocked(Z, Y), between(0, 100, X).\n\
         end_module.\n"
    );
    differential(&program, "path(X, Y)");
}

#[test]
fn thread_count_survives_reconfiguration() {
    // :threads-style reconfiguration mid-session must not corrupt state.
    let s = Session::new();
    s.set_threads(4);
    assert_eq!(s.threads(), 4);
    s.consult_str("edge(1, 2). edge(2, 3).").unwrap();
    s.set_threads(0); // clamps to 1
    assert_eq!(s.threads(), 1);
    s.set_threads(2);
    s.consult_str(
        "module t. export p(ff).\n\
         p(X, Y) :- edge(X, Y).\n\
         p(X, Y) :- p(X, Z), edge(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    let mut got: Vec<String> = s
        .query_all("p(X, Y)")
        .unwrap()
        .iter()
        .map(|a| a.to_string())
        .collect();
    got.sort();
    assert_eq!(got, vec!["X = 1, Y = 2", "X = 1, Y = 3", "X = 2, Y = 3"]);
}
