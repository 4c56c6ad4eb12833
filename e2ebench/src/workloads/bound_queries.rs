//! `bound_queries` — the interactive case: one warm session holding
//! three modules and a seed-shuffled stream of small queries, in blocks
//! of twelve: eight `sg(k, Y)` over a ten-layer same-generation tree,
//! two bound `path(k, Y)` (magic) over a strongly connected digraph and
//! two E21 skew joins `p(X, Z)`; keys are drawn 80/20-skewed.

use crate::bench::{int_of, Counters, Ctx, OpResult, Ops};
use crate::gen::{self, TestRng};
use crate::layers::{self, ProfileSums};
use crate::oracle::{self, SgOracle};
use coral::Session;
use coral_bench::programs;
use std::collections::HashMap;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Sg,
    Path,
    Skew,
}

/// Inputs shared with `net_mix`, which replays the sg and path part of
/// this stream over the wire.
#[derive(Clone)]
pub struct Data {
    pub facts: String,
    pub program: String,
    /// Nodes `sg` is queried on (the bottom layer).
    pub sg_keys: usize,
    pub path_nodes: usize,
    pub sg: SgOracle,
    pub adj: HashMap<u32, Vec<u32>>,
    /// `p(X, Z)` computed directly: `sel(X, Y)`, `big(Y, Y mod 50)`.
    pub skew: Vec<(i64, i64)>,
}

pub struct Sizes {
    pub layers: usize,
    pub width: usize,
    pub path_nodes: usize,
    pub path_edges: usize,
    pub skew_rows: usize,
}

pub fn data(sizes: &Sizes, rng: &mut TestRng) -> Data {
    let sg = gen::same_gen(sizes.layers, sizes.width);
    let edges = gen::scc_graph(sizes.path_nodes, sizes.path_edges, rng);
    let (skew_text, sel) = gen::skew_facts(sizes.skew_rows, rng);
    let mut skew: Vec<(i64, i64)> = sel
        .iter()
        .map(|&(x, y)| (x as i64, (y % 50) as i64))
        .collect();
    skew.sort_unstable();
    skew.dedup();
    Data {
        facts: format!("{}{}{}", sg.facts(), gen::edge_facts(&edges), skew_text),
        program: format!(
            "{}{}{}",
            programs::same_generation(""),
            // Left-linear, so a bound first argument stays bound through
            // the recursion and the magic set is the one queried key; the
            // right-linear form would compute the closure of everything
            // the key reaches.
            programs::tc_left("", "bf"),
            gen::SKEW_MODULE
        ),
        sg_keys: sizes.width,
        path_nodes: sizes.path_nodes,
        sg: SgOracle::new(&sg),
        adj: oracle::adjacency(&edges),
        skew,
    }
}

impl Data {
    /// The query text of a stream entry.
    pub fn text(kind: Kind, key: u32) -> String {
        match kind {
            Kind::Sg => format!("sg({key}, Y)"),
            Kind::Path => format!("path({key}, Y)"),
            Kind::Skew => "p(X, Z)".to_string(),
        }
    }

    /// A key for `kind`, 80/20-skewed.
    pub fn key(&self, kind: Kind, rng: &mut TestRng) -> u32 {
        match kind {
            Kind::Sg => gen::skewed(self.sg_keys, rng) as u32,
            Kind::Path => gen::skewed(self.path_nodes, rng) as u32,
            Kind::Skew => 0,
        }
    }

    /// The oracle's answer rows for a stream entry, sorted.
    pub fn expected(&mut self, kind: Kind, key: u32) -> Vec<Vec<i64>> {
        let mut rows: Vec<Vec<i64>> = match kind {
            Kind::Sg => self
                .sg
                .same_generation(key)
                .iter()
                .map(|&y| vec![key as i64, y as i64])
                .collect(),
            Kind::Path => oracle::reach(&self.adj, key)
                .iter()
                .map(|&y| vec![key as i64, y as i64])
                .collect(),
            Kind::Skew => self.skew.iter().map(|&(x, z)| vec![x, z]).collect(),
        };
        rows.sort_unstable();
        rows
    }

    pub fn oracle_name(kind: Kind) -> &'static str {
        match kind {
            Kind::Sg => "same_generation_walk",
            Kind::Path => "bfs_reach",
            Kind::Skew => "skew_join_direct",
        }
    }
}

/// A block of the stream: the mix in seeded order.
fn block(rng: &mut TestRng) -> Vec<Kind> {
    let mut kinds = vec![Kind::Sg; 8];
    kinds.extend([Kind::Path, Kind::Path, Kind::Skew, Kind::Skew]);
    gen::shuffle(&mut kinds, rng);
    kinds
}

struct Setup {
    session: Session,
    data: Data,
    rng: TestRng,
    pending: Vec<Kind>,
    asked: Vec<String>,
}

fn op(ctx: &mut Ctx, s: &mut Setup, sums: &mut ProfileSums) -> OpResult {
    if s.pending.is_empty() {
        s.pending = block(&mut s.rng);
    }
    let kind = s.pending.pop().expect("refilled");
    let key = s.data.key(kind, &mut s.rng);
    let text = Data::text(kind, key);
    let mut got: Vec<Vec<i64>> = Vec::new();
    let drained = layers::drain_query(ctx, &s.session, &text, |cols| {
        got.push(cols.iter().map(int_of).collect());
    });
    sums.add_last(ctx, &s.session);
    got.sort_unstable();
    let want = s.data.expected(kind, key);
    ctx.oracle_ran(Data::oracle_name(kind));
    if ctx.trace && s.asked.len() < 200 {
        s.asked.push(text.clone());
    }
    match drained {
        Ok(d) => OpResult {
            latency: d.total,
            answers: d.answers,
            ttfa: Some(d.ttfa),
            outcome: if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{text}: {} answers, oracle says {}",
                    got.len(),
                    want.len()
                ))
            },
        },
        Err(e) => OpResult::failed(e),
    }
}

pub fn run(ctx: &mut Ctx) -> Ops {
    let sizes = if ctx.smoke {
        Sizes {
            layers: 4,
            width: 32,
            path_nodes: 50,
            path_edges: 100,
            skew_rows: 200,
        }
    } else {
        Sizes {
            layers: 10,
            width: 2048,
            path_nodes: 2_000,
            path_edges: 4_000,
            skew_rows: 20_000,
        }
    };
    ctx.size("sg_layers", sizes.layers as u64);
    ctx.size("sg_width", sizes.width as u64);
    ctx.size("path_nodes", sizes.path_nodes as u64);
    ctx.size("skew_rows", sizes.skew_rows as u64);
    let mut setup = ctx.setup(|ctx| {
        let mut rng = ctx.rng(1);
        let mut s = Setup {
            session: layers::new_session(ctx),
            data: data(&sizes, &mut rng),
            rng,
            pending: Vec::new(),
            asked: Vec::new(),
        };
        layers::consult(ctx, &s.session, &s.data.facts);
        layers::consult(ctx, &s.session, &s.data.program);
        // Warm-up: one block, so every query form is compiled.
        for _ in 0..12 {
            let _ = op(ctx, &mut s, &mut ProfileSums::default());
        }
        s
    });

    let mut sums = ProfileSums::default();
    let before = Counters::read();
    let ops = ctx.measure(if ctx.smoke { 24 } else { 1_200 }, |ctx, _| {
        op(ctx, &mut setup, &mut sums)
    });
    if !ctx.trace {
        return ops;
    }

    let delta = Counters::read().since(&before);
    layers::engine_layers(ctx, &delta, &sums, ops.attempted as f64);
    layers::session_layers(ctx, ops.median_answers());
    let asked = std::mem::take(&mut setup.asked);
    layers::probe_front_end(ctx, &setup.data.facts, &setup.data.program, &asked);
    ops
}
