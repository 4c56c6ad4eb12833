//! `tc_closure` — all-pairs right-linear transitive closure. Op = fresh
//! `Session`, consult the pre-generated facts and program (a span, not
//! part of the latency), then `path(X, Y)` drained (the latency).

use crate::bench::{int_of, median, ratio, Counters, Ctx, OpResult, Ops};
use crate::gen;
use crate::layers::{self, ProfileSums};
use crate::oracle::{self, Fingerprint};
use coral::Session;
use coral_bench::programs;

const QUERY: &str = "path(X, Y)";

struct Input {
    facts: String,
    program: String,
}

/// One op: returns the result and, when `keep` is set, the answer rows.
fn op(
    ctx: &mut Ctx,
    input: &Input,
    want: Fingerprint,
    threads: usize,
    sums: &mut ProfileSums,
    keep: Option<&mut Vec<Vec<i64>>>,
) -> OpResult {
    let session: Session = layers::new_session(ctx);
    session.set_threads(threads);
    layers::consult(ctx, &session, &input.facts);
    layers::consult(ctx, &session, &input.program);
    let mut got = Fingerprint::default();
    let mut rows = keep;
    let drained = layers::drain_query(ctx, &session, QUERY, |cols| {
        let row = [int_of(&cols[0]), int_of(&cols[1])];
        got.add(&row);
        if let Some(rows) = rows.as_mut() {
            rows.push(row.to_vec());
        }
    });
    sums.add_last(ctx, &session);
    ctx.oracle_ran("bfs_closure");
    match drained {
        Ok(d) => OpResult {
            latency: d.total,
            answers: d.answers,
            ttfa: Some(d.ttfa),
            outcome: if got == want {
                Ok(())
            } else {
                Err(format!("{QUERY}: got {got:?}, BFS closure says {want:?}"))
            },
        },
        Err(e) => OpResult::failed(e),
    }
}

pub fn run(ctx: &mut Ctx) -> Ops {
    let (v, e) = if ctx.smoke { (40, 80) } else { (400, 800) };
    ctx.size("nodes", v as u64);
    ctx.size("edges", e as u64);
    // Set-up: generate, then one whole unmeasured op (session, consult,
    // query), which also warms the allocator and the symbol table.
    let (input, edges) = ctx.setup(|ctx| {
        let edges = gen::scc_graph(v, e, &mut ctx.rng(1));
        let input = Input {
            facts: gen::edge_facts(&edges),
            program: programs::tc("", "ff"),
        };
        let session = layers::new_session(ctx);
        layers::consult(ctx, &session, &input.facts);
        layers::consult(ctx, &session, &input.program);
        session.query_all(QUERY).expect("warm-up query");
        (input, edges)
    });
    let want = oracle::closure(&edges);
    ctx.size("closure", want.count);

    let mut sums = ProfileSums::default();
    let before = Counters::read();
    let ops = ctx.measure(if ctx.smoke { 3 } else { 15 }, |ctx, _| {
        op(ctx, &input, want, 1, &mut sums, None)
    });
    if !ctx.trace {
        return ops;
    }

    let delta = Counters::read().since(&before);
    layers::engine_layers(ctx, &delta, &sums, ops.attempted as f64);
    layers::session_layers(ctx, ops.median_answers());
    layers::probe_front_end(ctx, &input.facts, &input.program, &[QUERY.to_string()]);

    let mut rows = Vec::new();
    let _ = op(
        ctx,
        &input,
        want,
        1,
        &mut ProfileSums::default(),
        Some(&mut rows),
    );
    // Right-linear tc probes path(Z, Y) on its first column.
    layers::replay_tuples(ctx, &rows, 0);

    // E19 at scale: the same op at one and at two evaluation threads,
    // interleaved so drift hits both sides alike.
    let mut par = ProfileSums::default();
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let a = op(ctx, &input, want, 1, &mut ProfileSums::default(), None);
        let b = op(ctx, &input, want, 2, &mut par, None);
        t1.push(a.latency.as_secs_f64());
        t2.push(b.latency.as_secs_f64());
    }
    ctx.layer("core.parallel.speedup_k2", ratio(median(&t1), median(&t2)));
    ctx.layer(
        "core.parallel.parallel_firings",
        par.parallel_firings() / 3.0,
    );
    ctx.layer(
        "core.parallel.serial_fallbacks",
        par.serial_fallbacks() / 3.0,
    );
    ops
}
