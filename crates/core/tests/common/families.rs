//! Shared seeded program families for differential suites.
//!
//! Five families of randomly generated programs (transitive closure,
//! same generation, mutual recursion, negation+builtins, non-ground
//! facts under subsumption), each parameterized by a seed. The engine
//! differential suite (`engine_differential.rs`) and the maintenance
//! differential suite (`maintain_differential.rs`) include this module
//! via `#[path]`, so a family added here locks down both.
//!
//! Every module carries a `@CONTROLS.` placeholder line after its
//! export, which [`Case::program`] replaces with the annotations a suite
//! wants to evaluate under (none for the default engine).

#![allow(dead_code)]

use coral_term::testutil::TestRng;
use std::fmt::Write as _;

/// Seeds per program family (the suites' lock-down breadth).
pub const SEEDS: u64 = 20;

/// The `@naive` reference evaluator over the unrewritten program.
pub const REFERENCE: &str = "@naive.\n@rewrite none.\n";

/// A generated test case: the program template and the query to pose.
pub struct Case {
    template: String,
    pub query: &'static str,
}

impl Case {
    /// The program text with `annotations` (complete `@….` lines, or
    /// empty for the default engine) as the module's control block.
    pub fn program(&self, annotations: &str) -> String {
        self.template.replace("@CONTROLS.\n", annotations)
    }
}

pub fn random_edges(rng: &mut TestRng, name: &str, nodes: usize, edges: usize) -> String {
    let mut s = String::new();
    for _ in 0..edges {
        let a = rng.gen_range(0, nodes);
        let b = rng.gen_range(0, nodes);
        let _ = writeln!(s, "{name}({a}, {b}).");
    }
    s
}

/// Left-linear transitive closure: the delta literal sits at body
/// position 0 with an all-free pattern.
pub fn tc(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let nodes = rng.gen_range(10, 16);
    let edges = rng.gen_range(2 * nodes, 3 * nodes);
    Case {
        template: format!(
            "{}\
             module tc.\n\
             export path(ff).\n\
             @CONTROLS.\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- path(X, Z), edge(Z, Y).\n\
             end_module.\n",
            random_edges(&mut rng, "edge", nodes, edges)
        ),
        query: "path(X, Y)",
    }
}

/// Same generation over downward-pointing parent edges (terminates).
pub fn sg(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let nodes = rng.gen_range(10, 16);
    let edges = rng.gen_range(2 * nodes, 3 * nodes);
    let mut facts = String::new();
    for _ in 0..edges {
        let a = rng.gen_range(0, nodes - 1);
        let b = rng.gen_range(a + 1, nodes);
        let _ = writeln!(facts, "par({a}, {b}).");
    }
    Case {
        template: format!(
            "{facts}\
             module sg.\n\
             export sg(ff).\n\
             @CONTROLS.\n\
             sg(X, X) :- par(X, _).\n\
             sg(X, Y) :- par(P, X), sg(P, Q), par(Q, Y).\n\
             end_module.\n"
        ),
        query: "sg(X, Y)",
    }
}

/// Mutually recursive odd/even reachability.
pub fn mutual(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let nodes = rng.gen_range(8, 14);
    Case {
        template: format!(
            "{}{}\
             module mr.\n\
             export odd(ff).\n\
             @CONTROLS.\n\
             odd(X, Y) :- a(X, Y).\n\
             odd(X, Y) :- even(X, Z), a(Z, Y).\n\
             even(X, Y) :- odd(X, Z), b(Z, Y).\n\
             end_module.\n",
            random_edges(&mut rng, "a", nodes, 3 * nodes),
            random_edges(&mut rng, "b", nodes, 3 * nodes),
        ),
        query: "odd(X, Y)",
    }
}

/// Stratified negation plus a comparison builtin in the recursion.
pub fn negation(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let nodes = rng.gen_range(10, 16);
    let facts = format!(
        "{}{}",
        random_edges(&mut rng, "edge", nodes, 3 * nodes),
        random_edges(&mut rng, "blocked", nodes, nodes / 2),
    );
    Case {
        template: format!(
            "{facts}\
             module nb.\n\
             export path(ff).\n\
             @CONTROLS.\n\
             path(X, Y) :- edge(X, Y), not blocked(X, Y).\n\
             path(X, Y) :- path(X, Z), edge(Z, Y), not blocked(Z, Y), between(0, 100, X).\n\
             end_module.\n"
        ),
        query: "path(X, Y)",
    }
}

/// A non-ground base fact flowing through the recursion; subsumption
/// outcomes must agree across evaluation modes.
pub fn nonground(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let nodes = 12;
    let mut facts = random_edges(&mut rng, "edge", nodes, 3 * nodes);
    let hub = rng.gen_range(0, nodes);
    let _ = writeln!(facts, "edge({hub}, W).");
    Case {
        template: format!(
            "{facts}\
             module ng.\n\
             export reach(ff).\n\
             @CONTROLS.\n\
             reach(X, Y) :- edge(X, Y).\n\
             reach(X, Y) :- reach(X, Z), edge(Z, Y).\n\
             end_module.\n"
        ),
        query: "reach(X, Y)",
    }
}

/// Family name, generator, and the base seed each suite historically used.
pub type Family = (&'static str, fn(u64) -> Case, u64);

/// All five families.
pub const FAMILIES: &[Family] = &[
    ("tc", tc, 1),
    ("sg", sg, 100),
    ("mutual", mutual, 200),
    ("negation", negation, 300),
    ("nonground", nonground, 400),
];
