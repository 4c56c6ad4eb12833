//! `maintain_churn` — one session holding a maintained left-linear tc
//! over a hundred independent random DAGs. Op = one seeded
//! `delete_fact` or `insert_fact` of an edge (alternating), then
//! `path(X, Y)` drained and compared with a BFS closure of the current
//! edge set. Writes beside reads for the in-memory engine.

use crate::bench::{int_of, median, Counters, Ctx, OpResult, Ops};
use crate::gen::{self, Edge, TestRng};
use crate::layers::{self, ProfileSums};
use crate::oracle::{self, Fingerprint};
use coral::Session;
use coral_bench::programs;
use std::collections::HashSet;
use std::time::Instant;

const QUERY: &str = "path(X, Y)";

struct Setup {
    session: Session,
    facts: String,
    program: String,
    nodes: usize,
    /// Current edges per cluster, and the closure fingerprint of each.
    clusters: Vec<(Vec<Edge>, Fingerprint)>,
    present: HashSet<Edge>,
    total: Fingerprint,
    rng: TestRng,
}

impl Setup {
    /// Apply the op's edge change to the model and return the fact text.
    fn next_change(&mut self, i: usize) -> (bool, String) {
        let c = self.rng.gen_range(0, self.clusters.len());
        let delete = i.is_multiple_of(2);
        let edge = if delete {
            let edges = &mut self.clusters[c].0;
            let edge = edges.swap_remove(self.rng.gen_range(0, edges.len()));
            self.present.remove(&edge);
            edge
        } else {
            loop {
                let edge = gen::forward_edge(c, self.nodes, &mut self.rng);
                if self.present.insert(edge) {
                    self.clusters[c].0.push(edge);
                    break edge;
                }
            }
        };
        // Only the touched cluster's closure can change.
        let fresh = oracle::closure(&self.clusters[c].0);
        self.total.remove(self.clusters[c].1);
        self.total.merge(fresh);
        self.clusters[c].1 = fresh;
        (delete, format!("edge({}, {})", edge.0, edge.1))
    }
}

fn op(ctx: &mut Ctx, s: &mut Setup, i: usize, sums: &mut ProfileSums) -> OpResult {
    let (delete, fact) = s.next_change(i);
    let t0 = Instant::now();
    let open = ctx.tracer.begin("core.maintain.update");
    let changed = if delete {
        s.session.delete_fact(&fact)
    } else {
        s.session.insert_fact(&fact)
    };
    ctx.tracer.end(open);
    let update = t0.elapsed();
    let mut got = Fingerprint::default();
    let drained = layers::drain_query(ctx, &s.session, QUERY, |cols| {
        got.add(&[int_of(&cols[0]), int_of(&cols[1])]);
    });
    sums.add_last(ctx, &s.session);
    ctx.oracle_ran("bfs_closure");
    let outcome = match (&changed, &drained) {
        (Err(e), _) => Err(format!("{fact}: {e}")),
        (Ok(false), _) => Err(format!("{fact}: the engine reports no change")),
        (_, Err(e)) => Err(e.clone()),
        (Ok(true), Ok(_)) if got != s.total => Err(format!(
            "after {fact}: got {got:?}, BFS closure says {:?}",
            s.total
        )),
        _ => Ok(()),
    };
    match drained {
        Ok(d) => OpResult {
            latency: update + d.total,
            answers: d.answers,
            ttfa: Some(d.ttfa),
            outcome,
        },
        Err(_) => OpResult {
            latency: update,
            answers: 0,
            ttfa: None,
            outcome,
        },
    }
}

pub fn run(ctx: &mut Ctx) -> Ops {
    let (clusters, nodes) = if ctx.smoke { (5, 20) } else { (100, 80) };
    ctx.size("clusters", clusters as u64);
    ctx.size("nodes_per_cluster", nodes as u64);
    let mut setup = ctx.setup(|ctx| {
        let mut rng = ctx.rng(1);
        let edges = gen::cluster_dag(clusters, nodes, &mut rng);
        let s = Setup {
            session: layers::new_session(ctx),
            facts: gen::edge_facts(&edges),
            program: programs::tc_left("", "ff"),
            nodes,
            clusters: Vec::new(),
            present: edges.iter().copied().collect(),
            total: Fingerprint::default(),
            rng,
        };
        layers::consult(ctx, &s.session, &s.facts);
        layers::consult(ctx, &s.session, &s.program);
        // Materialise the maintained state before the first measured op.
        s.session.query_all(QUERY).expect("warm-up query");
        (s, edges)
    });
    // The oracle's model, built outside the timed set-up.
    let (s, edges) = &mut setup;
    s.clusters = (0..clusters)
        .map(|c| {
            let own: Vec<Edge> = edges
                .iter()
                .copied()
                .filter(|e| e.0 as usize / nodes == c)
                .collect();
            let fp = oracle::closure(&own);
            (own, fp)
        })
        .collect();
    for (_, fp) in &s.clusters {
        s.total.merge(*fp);
    }
    ctx.size("closure", s.total.count);

    let mut sums = ProfileSums::default();
    let before = Counters::read();
    let totals_before = s.session.maintain_totals();
    let ops = ctx.measure(if ctx.smoke { 20 } else { 150 }, |ctx, i| {
        op(ctx, s, i, &mut sums)
    });
    if !ctx.trace {
        return ops;
    }

    let n = ops.attempted as f64;
    let delta = Counters::read().since(&before);
    layers::engine_layers(ctx, &delta, &sums, n);
    // `Session::maintain_totals` is the session's own view of the same
    // counters, and the only one that counts rebuilds.
    let totals = s.session.maintain_totals();
    for (metric, now, then) in [
        (
            "core.maintain.propagated",
            totals.propagated,
            totals_before.propagated,
        ),
        (
            "core.maintain.overdeleted",
            totals.overdeleted,
            totals_before.overdeleted,
        ),
        (
            "core.maintain.rederived",
            totals.rederived,
            totals_before.rederived,
        ),
        (
            "core.maintain.count_updates",
            totals.count_updates,
            totals_before.count_updates,
        ),
        (
            "core.maintain.rebuilds",
            totals.rebuilds,
            totals_before.rebuilds,
        ),
    ] {
        ctx.layer(metric, (now - then) as f64 / n);
    }
    let update = median(&ctx.tracer.durations("core.maintain.update")) / 1e3;
    ctx.layer("core.maintain.update_us", update);
    layers::session_layers(ctx, ops.median_answers());
    layers::probe_front_end(ctx, &s.facts, &s.program, &[QUERY.to_string()]);
    ops
}
