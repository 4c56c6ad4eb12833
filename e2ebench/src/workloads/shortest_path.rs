//! `shortest_path` — single-source cheapest costs with the Fig. 3 `min`
//! aggregate selection (`programs::shortest_cost(true)`), the source
//! rotating through a seeded order. Every `(Y, C)` is checked against
//! Dijkstra. Fig. 3 verbatim (with witness lists) is an untimed check
//! row, because the planner refuses it today.

use crate::bench::{int_of, Check, Counters, Ctx, OpResult, Ops};
use crate::gen;
use crate::layers::{self, ProfileSums};
use crate::oracle;
use coral::Session;
use coral_bench::programs;
use std::collections::HashMap;

struct Setup {
    session: Session,
    facts: String,
    program: String,
    adj: HashMap<u32, Vec<(u32, u32)>>,
    sources: Vec<u32>,
}

fn query(src: u32) -> String {
    format!("sp({src}, Y, C)")
}

fn op(
    ctx: &mut Ctx,
    s: &Setup,
    i: usize,
    sums: &mut ProfileSums,
    mut keep: Option<&mut Vec<Vec<i64>>>,
) -> OpResult {
    let src = s.sources[i % s.sources.len()];
    let mut got: HashMap<u32, u64> = HashMap::new();
    let drained = layers::drain_query(ctx, &s.session, &query(src), |cols| {
        got.insert(int_of(&cols[1]) as u32, int_of(&cols[2]) as u64);
        if let Some(rows) = keep.as_mut() {
            rows.push(cols.iter().map(int_of).collect());
        }
    });
    sums.add_last(ctx, &s.session);
    let want = oracle::dijkstra(&s.adj, src);
    ctx.oracle_ran("dijkstra");
    match drained {
        Ok(d) => OpResult {
            latency: d.total,
            answers: d.answers,
            ttfa: Some(d.ttfa),
            outcome: if got == want && d.answers == want.len() as u64 {
                Ok(())
            } else {
                Err(format!(
                    "sp({src}, Y, C): {} answers disagree with Dijkstra's {}",
                    d.answers,
                    want.len()
                ))
            },
        },
        Err(e) => OpResult::failed(e),
    }
}

/// Fig. 3 verbatim, `s_p(0, Y, P, C)`, on a 64-node cyclic costed
/// graph: every cost must match Dijkstra and every witness path must
/// have its stated cost.
fn fig3_check(ctx: &mut Ctx) {
    let mut rng = ctx.rng(3);
    let edges = gen::with_costs(&gen::scc_graph(64, 256, &mut rng), &mut rng);
    let session = Session::new();
    session
        .consult_str(&gen::costed_edge_facts(&edges))
        .expect("fig3 facts consult");
    let verdict = session
        .consult_str(&programs::figure_3(true))
        .and_then(|_| session.query_all("s_p(0, Y, P, C)"));
    let check = match verdict {
        Err(e) => Check {
            name: "check.fig3_witness",
            pass: false,
            detail: format!("refused: {e}"),
        },
        Ok(answers) => {
            let want = oracle::dijkstra(&oracle::costed_adjacency(&edges), 0);
            let cost: HashMap<(u32, u32), u64> =
                edges.iter().map(|&(a, b, c)| ((a, b), c as u64)).collect();
            let mut bad = 0;
            for a in &answers {
                let cols = a.tuple.args();
                let (y, c) = (int_of(&cols[1]) as u32, int_of(&cols[3]) as u64);
                let witness: u64 = cols[2]
                    .list_elems()
                    .unwrap_or_default()
                    .iter()
                    .filter_map(|e| e.as_app())
                    .filter_map(|e| {
                        cost.get(&(int_of(&e.args()[0]) as u32, int_of(&e.args()[1]) as u32))
                    })
                    .sum();
                if want.get(&y) != Some(&c) || witness != c {
                    bad += 1;
                }
            }
            Check {
                name: "check.fig3_witness",
                pass: bad == 0 && answers.len() == want.len(),
                detail: format!(
                    "{} answers, {} expected, {bad} with a wrong cost or witness",
                    answers.len(),
                    want.len()
                ),
            }
        }
    };
    ctx.oracle_ran("dijkstra");
    ctx.checks.push(check);
}

pub fn run(ctx: &mut Ctx) -> Ops {
    let (v, e) = if ctx.smoke {
        (100, 400)
    } else {
        (4_000, 16_000)
    };
    ctx.size("nodes", v as u64);
    ctx.size("edges", e as u64);
    let setup = ctx.setup(|ctx| {
        let mut rng = ctx.rng(1);
        let edges = gen::with_costs(&gen::scc_graph(v, e, &mut rng), &mut rng);
        let mut sources: Vec<u32> = (0..v as u32).collect();
        gen::shuffle(&mut sources, &mut rng);
        let s = Setup {
            session: layers::new_session(ctx),
            facts: gen::costed_edge_facts(&edges),
            program: programs::shortest_cost(true),
            adj: oracle::costed_adjacency(&edges),
            sources,
        };
        layers::consult(ctx, &s.session, &s.facts);
        layers::consult(ctx, &s.session, &s.program);
        // Warm-up: the last source in the order, which the measured
        // window does not reach.
        let _ = op(ctx, &s, v - 1, &mut ProfileSums::default(), None);
        s
    });

    let mut sums = ProfileSums::default();
    let before = Counters::read();
    let ops = ctx.measure(if ctx.smoke { 10 } else { 50 }, |ctx, i| {
        op(ctx, &setup, i, &mut sums, None)
    });
    fig3_check(ctx);
    if !ctx.trace {
        return ops;
    }

    let delta = Counters::read().since(&before);
    layers::engine_layers(ctx, &delta, &sums, ops.attempted as f64);
    layers::session_layers(ctx, ops.median_answers());
    let queries: Vec<String> = setup.sources.iter().take(200).map(|&s| query(s)).collect();
    layers::probe_front_end(ctx, &setup.facts, &setup.program, &queries);
    let mut rows = Vec::new();
    let _ = op(ctx, &setup, 0, &mut ProfileSums::default(), Some(&mut rows));
    // The recursive rule probes p(X, Z, C) on its first column.
    layers::replay_tuples(ctx, &rows, 0);
    ops
}
