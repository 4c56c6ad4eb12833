//! # coral-bench — workloads for the paper's claims
//!
//! The CORAL paper (SIGMOD 1993) has no quantitative evaluation section —
//! "performance measurements of a preliminary nature have been made"
//! (§9); its figures are the architecture (Fig. 1), the term
//! representation (Fig. 2) and the shortest-path program (Fig. 3). Each
//! *performance claim in the text* therefore becomes an experiment; the
//! experiment ids are indexed in `DESIGN.md` and reported in
//! `EXPERIMENTS.md`. This crate provides the shared workload generators
//! and program templates; `src/bin/experiments.rs` regenerates the
//! EXPERIMENTS.md tables, and the end-to-end benchmark (`e2ebench/`)
//! reuses the program templates.

use coral_core::session::Session;
use coral_term::testutil::TestRng;
use std::fmt::Write as _;

/// Deterministic workload generators.
pub mod workloads {
    use super::*;

    /// `edge(0,1). edge(1,2). …` — a chain of `n` edges.
    pub fn chain(n: usize) -> String {
        let mut s = String::with_capacity(n * 16);
        for i in 0..n {
            let _ = writeln!(s, "edge({i}, {}).", i + 1);
        }
        s
    }

    /// A random *costed* directed graph `edge(A, B, C)` with cycles —
    /// the Figure 3 workload.
    pub fn random_costed_graph(v: usize, e: usize, seed: u64) -> String {
        let mut rng = TestRng::new(seed);
        let mut s = String::with_capacity(e * 20);
        // A spine so everything is reachable from node 0.
        for i in 0..v - 1 {
            let _ = writeln!(s, "edge({i}, {}, {}).", i + 1, rng.gen_range(1, 20));
        }
        for _ in 0..e.saturating_sub(v - 1) {
            let a = rng.gen_range(0, v);
            let b = rng.gen_range(0, v);
            if a != b {
                let _ = writeln!(s, "edge({a}, {b}, {}).", rng.gen_range(1, 20));
            }
        }
        s
    }

    /// up/flat/down data for same-generation: `layers` layers of
    /// `width` nodes; `flat` connects the top layer.
    pub fn same_gen(layers: usize, width: usize) -> String {
        let mut s = String::new();
        let id = |layer: usize, i: usize| layer * width + i;
        for layer in 0..layers - 1 {
            for i in 0..width {
                let _ = writeln!(s, "up({}, {}).", id(layer, i), id(layer + 1, i / 2));
                let _ = writeln!(s, "down({}, {}).", id(layer + 1, i / 2), id(layer, i));
            }
        }
        for i in 0..width {
            let top = id(layers - 1, i / 2);
            let _ = writeln!(s, "flat({top}, {top}).");
        }
        s
    }

    /// An acyclic win-move game graph: a chain with some shortcuts.
    pub fn game_graph(n: usize, seed: u64) -> String {
        let mut rng = TestRng::new(seed);
        let mut s = String::new();
        for i in 0..n {
            let _ = writeln!(s, "move({i}, {}).", i + 1);
            if i + 3 <= n && rng.gen_bool(0.3) {
                let _ = writeln!(s, "move({i}, {}).", i + 3);
            }
        }
        s
    }

    /// A module with `k` mutually recursive predicates p0..p(k-1), each
    /// feeding the next, closing the cycle — many mutually recursive
    /// predicates in one SCC (the PSN target of §4.2).
    pub fn mutual_recursion_module(k: usize, fixpoint: &str) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "module mu.");
        let _ = writeln!(s, "export p0(bf).");
        let _ = writeln!(s, "@{fixpoint}.");
        let _ = writeln!(s, "p0(X, Y) :- edge(X, Y).");
        for i in 0..k {
            let next = (i + 1) % k;
            let _ = writeln!(s, "p{next}(X, Y) :- p{i}(X, Z), edge(Z, Y).");
        }
        for i in 1..k {
            let _ = writeln!(s, "p0(X, Y) :- p{i}(X, Y).");
        }
        let _ = writeln!(s, "end_module.");
        s
    }
}

/// Program templates.
pub mod programs {
    /// Transitive closure, right-linear, with controls spliced in.
    pub fn tc(annotations: &str, forms: &str) -> String {
        format!(
            "module tc.\nexport path({forms}).\n{annotations}\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             end_module.\n"
        )
    }

    /// Transitive closure, left-linear.
    pub fn tc_left(annotations: &str, forms: &str) -> String {
        format!(
            "module tc.\nexport path({forms}).\n{annotations}\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- path(X, Z), edge(Z, Y).\n\
             end_module.\n"
        )
    }

    /// Same generation.
    pub fn same_generation(annotations: &str) -> String {
        format!(
            "module sg.\nexport sg(bf).\n{annotations}\
             sg(X, Y) :- flat(X, Y).\n\
             sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
             end_module.\n"
        )
    }

    /// The Figure 3 shortest-path program, optionally without the
    /// min-selection (for bounded-divergence measurements).
    pub fn figure_3(with_selections: bool) -> String {
        let selections = if with_selections {
            "@aggregate_selection p(X, Y, P, C) (X, Y) min(C).\n\
             @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).\n"
        } else {
            ""
        };
        format!(
            "module s_p.\nexport s_p(bfff).\n{selections}\
             s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).\n\
             s_p_length(X, Y, min(C)) :- p(X, Y, P, C).\n\
             p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),\n\
                                append([edge(Z, Y)], P, P1), C1 = C + EC.\n\
             p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).\n\
             end_module.\n"
        )
    }

    /// Figure 3 with the path witness dropped — costs only. Used for
    /// scaling runs where list building would dominate.
    pub fn shortest_cost(with_selection: bool) -> String {
        let sel = if with_selection {
            "@aggregate_selection p(X, Y, C) (X, Y) min(C).\n"
        } else {
            ""
        };
        format!(
            "module sc.\nexport sp(bff).\n{sel}\
             sp(X, Y, min(C)) :- p(X, Y, C).\n\
             p(X, Y, C1) :- p(X, Z, C), edge(Z, Y, EC), C1 = C + EC.\n\
             p(X, Y, C) :- edge(X, Y, C).\n\
             end_module.\n"
        )
    }

    /// The win-move game under ordered search.
    pub fn win_move() -> String {
        "module game.\nexport win(b).\n@ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\nend_module.\n"
            .to_string()
    }
}

/// Build a session preloaded with `facts` and `program`.
pub fn session_with(facts: &str, program: &str) -> Session {
    let s = Session::new();
    s.consult_str(facts).expect("facts consult");
    s.consult_str(program).expect("program consult");
    s
}

/// Run a query and return the number of answers (panics on error — bench
/// workloads are known-good).
pub fn count_answers(session: &Session, q: &str) -> usize {
    session
        .query_all(q)
        .unwrap_or_else(|e| panic!("query {q}: {e}"))
        .len()
}

/// Wall-clock one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_tc_counts() {
        let s = session_with(&workloads::chain(50), &programs::tc("", "bf, ff"));
        assert_eq!(count_answers(&s, "path(0, Y)"), 50);
        assert_eq!(count_answers(&s, "path(40, Y)"), 10);
    }

    #[test]
    fn costed_graph_shortest_costs() {
        let s = session_with(
            &workloads::random_costed_graph(24, 60, 7),
            &programs::shortest_cost(true),
        );
        let n = count_answers(&s, "sp(0, Y, C)");
        assert!(n >= 23, "all nodes reachable from the spine: {n}");
    }

    #[test]
    fn same_gen_workload() {
        let s = session_with(&workloads::same_gen(4, 8), &programs::same_generation(""));
        assert!(count_answers(&s, "sg(0, Y)") > 0);
    }

    #[test]
    fn mutual_recursion_workload() {
        for fix in ["bsn", "psn"] {
            let s = session_with(
                &workloads::chain(20),
                &workloads::mutual_recursion_module(4, fix),
            );
            assert_eq!(count_answers(&s, "p0(0, Y)"), 20, "{fix}");
        }
    }

    #[test]
    fn game_graph_is_acyclic_and_playable() {
        let s = session_with(&workloads::game_graph(30, 3), &programs::win_move());
        // Positions alternate along the chain; just require evaluability.
        let _ = count_answers(&s, "win(0)");
        let _ = count_answers(&s, "win(1)");
    }

    #[test]
    fn figure_3_template_parses_both_ways() {
        let s = session_with(
            "edge(a, b, 1). edge(b, a, 1). edge(b, c, 2).",
            &programs::figure_3(true),
        );
        assert_eq!(count_answers(&s, "s_p(a, Y, P, C)"), 3);
    }
}
