//! Seeded input generators. `--seed` is the only source of randomness;
//! the engine receives only the generated text and tuples.
//!
//! The driver compares runs made with *different* seeds, so every
//! generator fixes the amount of work and lets the seed choose the
//! labels, the chords, the order and the keys: a strongly connected
//! digraph always has a `v²` closure, a clustered DAG averages its
//! closure over a hundred independent clusters.

pub use coral::term::testutil::TestRng;
use std::collections::HashSet;
use std::fmt::Write as _;

pub type Edge = (u32, u32);

pub fn shuffle<T>(items: &mut [T], rng: &mut TestRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0, i + 1));
    }
}

/// A strongly connected digraph: a seeded Hamiltonian cycle over `v`
/// nodes plus `e - v` distinct seeded chords, in seeded order. Every
/// node reaches every node, so closure size (`v²`) and right-linear
/// derivation count (`e·v`) do not depend on the seed.
pub fn scc_graph(v: usize, e: usize, rng: &mut TestRng) -> Vec<Edge> {
    assert!(v >= 2 && e >= v && e <= v * (v - 1));
    let mut perm: Vec<u32> = (0..v as u32).collect();
    shuffle(&mut perm, rng);
    let mut seen = HashSet::with_capacity(e);
    let mut edges = Vec::with_capacity(e);
    for i in 0..v {
        let edge = (perm[i], perm[(i + 1) % v]);
        seen.insert(edge);
        edges.push(edge);
    }
    while edges.len() < e {
        let edge = (rng.gen_range(0, v) as u32, rng.gen_range(0, v) as u32);
        if edge.0 != edge.1 && seen.insert(edge) {
            edges.push(edge);
        }
    }
    shuffle(&mut edges, rng);
    edges
}

/// `clusters` independent random DAGs of `nodes` nodes and
/// `2 * nodes` forward edges each; node ids are `cluster * nodes + i`.
pub fn cluster_dag(clusters: usize, nodes: usize, rng: &mut TestRng) -> Vec<Edge> {
    let mut seen = HashSet::new();
    let mut edges = Vec::with_capacity(clusters * nodes * 2);
    for c in 0..clusters {
        let mut n = 0;
        while n < 2 * nodes {
            let edge = forward_edge(c, nodes, rng);
            if seen.insert(edge) {
                edges.push(edge);
                n += 1;
            }
        }
    }
    edges
}

/// A random forward edge inside cluster `c`.
pub fn forward_edge(c: usize, nodes: usize, rng: &mut TestRng) -> Edge {
    let a = rng.gen_range(0, nodes - 1);
    let b = rng.gen_range(a + 1, nodes);
    ((c * nodes + a) as u32, (c * nodes + b) as u32)
}

pub fn edge_facts(edges: &[Edge]) -> String {
    let mut s = String::with_capacity(edges.len() * 18);
    for (a, b) in edges {
        let _ = writeln!(s, "edge({a}, {b}).");
    }
    s
}

/// Seeded costs in `1..20` on `edges`, as `(a, b, cost)`.
pub fn with_costs(edges: &[Edge], rng: &mut TestRng) -> Vec<(u32, u32, u32)> {
    edges
        .iter()
        .map(|&(a, b)| (a, b, rng.gen_range(1, 20) as u32))
        .collect()
}

pub fn costed_edge_facts(edges: &[(u32, u32, u32)]) -> String {
    let mut s = String::with_capacity(edges.len() * 24);
    for (a, b, c) in edges {
        let _ = writeln!(s, "edge({a}, {b}, {c}).");
    }
    s
}

/// An index in `0..n` with 80 % of the draws landing on the first 20 %.
pub fn skewed(n: usize, rng: &mut TestRng) -> usize {
    let hot = (n / 5).max(1);
    if rng.gen_bool(0.8) || hot == n {
        rng.gen_range(0, hot)
    } else {
        rng.gen_range(hot, n)
    }
}

/// The E21 skew join's data: `big(Y, Y mod 50)` for `n` rows and five
/// seeded `sel(X, Y)` selectors. Returns the text and the selectors.
pub fn skew_facts(n: usize, rng: &mut TestRng) -> (String, Vec<(u32, u32)>) {
    let mut s = String::with_capacity(n * 18);
    for y in 0..n {
        let _ = writeln!(s, "big({y}, {}).", y % 50);
    }
    let sel: Vec<(u32, u32)> = (0..5).map(|x| (x, rng.gen_range(0, n) as u32)).collect();
    for (x, y) in &sel {
        let _ = writeln!(s, "sel({x}, {y}).");
    }
    (s, sel)
}

pub const SKEW_MODULE: &str = "module skew.\nexport p(ff).\n\
     p(X, Z) :- big(Y, Z), sel(X, Y).\nend_module.\n";

/// The value stored under account key `k`.
pub fn acct_value(k: i64) -> i64 {
    k.wrapping_mul(7) % 1_000_003
}

/// up/flat/down data for same-generation, the shape of
/// `coral_bench::workloads::same_gen`: `layers` layers of `width`
/// nodes, each node's parent is node `i / 2` of the next layer, `flat`
/// links each top-layer parent to itself. Deterministic; the seed picks
/// the queried keys.
pub struct SameGen {
    pub up: Vec<Edge>,
    pub flat: Vec<Edge>,
    pub down: Vec<Edge>,
}

pub fn same_gen(layers: usize, width: usize) -> SameGen {
    let id = |layer: usize, i: usize| (layer * width + i) as u32;
    let mut sg = SameGen {
        up: Vec::new(),
        flat: Vec::new(),
        down: Vec::new(),
    };
    for layer in 0..layers - 1 {
        for i in 0..width {
            sg.up.push((id(layer, i), id(layer + 1, i / 2)));
            sg.down.push((id(layer + 1, i / 2), id(layer, i)));
        }
    }
    for i in (0..width).step_by(2) {
        let top = id(layers - 1, i / 2);
        sg.flat.push((top, top));
    }
    sg
}

impl SameGen {
    pub fn facts(&self) -> String {
        let mut s = String::new();
        for (name, rel) in [("up", &self.up), ("flat", &self.flat), ("down", &self.down)] {
            for (a, b) in rel {
                let _ = writeln!(s, "{name}({a}, {b}).");
            }
        }
        s
    }
}
