//! E22 — incremental maintenance vs wholesale recomputation under
//! single-tuple churn.
//!
//! Each workload holds one long-lived session and repeatedly applies
//! the same single-tuple update cycle: insert one base fact, re-query,
//! delete it, re-query. The `maintain` rows run the module under
//! `@maintain counting` (the non-recursive workload) or `@maintain dred`
//! (the recursive one), so the strategy under test is unambiguous; the
//! `recompute` rows run the identical cycle under `@maintain recompute`,
//! so every query recomputes the fixpoint from scratch. Sessions are
//! built — and the maintained state materialized — *before* the
//! measured region, so the counter deltas in `BENCH_maintain_churn.json`
//! cover only the steady-state churn.
//!
//! The portable claim, gated by the `check_maintain` bin
//! (`src/bin/check_maintain.rs`): per answer delivered, the maintained
//! rows must show ≥10× fewer `core.join_probes` than the recompute
//! rows, and the `core.maintain_propagated` counter must confirm the
//! maintenance machinery actually ran (and stayed out of the recompute
//! rows).
//!
//! `CORAL_BENCH_SMOKE=1` shrinks workloads and sampling so CI can run
//! the whole group in a few seconds as a does-it-still-engage check.

use coral_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use coral_bench::{count_answers, workloads};
use coral_core::session::Session;

/// Row label and whether the row uses the workload's incremental
/// `@maintain` strategy (else `@maintain recompute`).
const MODES: [(&str, bool); 2] = [("maintain", true), ("recompute", false)];

fn smoke() -> bool {
    std::env::var("CORAL_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Build the long-lived session: consult, then query once so the
/// maintained rows enter the measured region with a live state.
fn churn_session(facts: &str, program: &str, query: &str) -> Session {
    let s = Session::new();
    s.consult_str(facts).expect("facts consult");
    s.consult_str(program).expect("program consult");
    count_answers(&s, query);
    s
}

/// One churn cycle: insert a fresh fact, re-query, delete it, re-query.
/// Both modes deliver the identical answer stream, so per-answer
/// counter comparisons are apples to apples.
fn cycle(s: &Session, fact: &str, query: &str) -> usize {
    s.insert_fact(fact).expect("insert");
    let with = count_answers(s, query);
    s.delete_fact(fact).expect("delete");
    with + count_answers(s, query)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("maintain_churn");
    if smoke() {
        g.sample_size(3);
        g.warm_up_time(std::time::Duration::from_millis(50));
        g.measurement_time(std::time::Duration::from_millis(300));
    } else {
        g.sample_size(10);
        g.warm_up_time(std::time::Duration::from_millis(300));
        g.measurement_time(std::time::Duration::from_millis(1500));
    }

    // Recursive transitive closure under DRed: the churned edge fans a
    // new source into the whole reachable set, so both the insertion
    // propagation and the overdelete/rederive phases run every cycle.
    let (v, e) = if smoke() { (30, 120) } else { (120, 480) };
    let tc_facts = workloads::random_graph(v, e, 23);
    let tc_prog = "module tc.\nexport path(ff).\n\
                   @maintain KIND.\n\
                   path(X, Y) :- edge(X, Y).\n\
                   path(X, Y) :- edge(X, Z), path(Z, Y).\n\
                   end_module.\n";
    for (label, maintain) in MODES {
        let kind = if maintain { "dred" } else { "recompute" };
        let s = churn_session(&tc_facts, &tc_prog.replace("KIND", kind), "path(X, Y)");
        g.bench_with_input(BenchmarkId::new("tc_churn", label), &(), |b, ()| {
            b.iter(|| cycle(&s, "edge(9001, 0)", "path(X, Y)"))
        });
    }

    // Non-recursive two-hop join under counting: the single-stratum
    // derivation-count path, exercised without any recursion. Vertex 0
    // gets pinned out-edges so the churned edge(9001, 0) always creates
    // (and destroys) hop derivations — random graphs can leave a vertex
    // with no successors, which would make the count-update gate
    // vacuous.
    let hop_facts = format!(
        "{}edge(0, 1).\nedge(0, 2).\n",
        workloads::random_graph(v, e, 29)
    );
    let hop_prog = "module hops.\nexport hop(ff).\n\
                    @maintain KIND.\n\
                    hop(X, Y) :- edge(X, Z), edge(Z, Y).\n\
                    end_module.\n";
    for (label, maintain) in MODES {
        let kind = if maintain { "counting" } else { "recompute" };
        let s = churn_session(&hop_facts, &hop_prog.replace("KIND", kind), "hop(X, Y)");
        g.bench_with_input(BenchmarkId::new("hop_churn", label), &(), |b, ()| {
            b.iter(|| cycle(&s, "edge(9001, 0)", "hop(X, Y)"))
        });
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
