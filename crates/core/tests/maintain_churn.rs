//! Concurrent maintained-state churn: two sessions share one storage
//! server and mutate the same persistent base relation while one of
//! them answers through a maintained state.
//!
//! A maintained state only sees the base changes its own engine makes
//! (`on_base_change` is per-session); a second session's writes reach
//! the shared relation without ever touching the first session's
//! maintained state. The per-relation server epoch closes that hole:
//! any unseen interleaved write shows up as an epoch gap and the state
//! is discarded and rebuilt, never read. This suite drives randomized
//! interleavings of the two mutators and asserts, after every step,
//! that the maintained session's answers equal a fresh-recompute oracle
//! over the same shared relation — and that both the incremental path
//! (own writes propagated) and the discard path (foreign writes force
//! rebuilds) demonstrably fire.
//!
//! Two more tests hold the repair to its cost claims: an edge update on
//! a maintained closure costs what it changes, not what the relation
//! holds; and under single-tuple churn a maintained module beats
//! `@maintain recompute` on join probes and on the clock.

use coral_core::profile;
use coral_core::session::Session;
use coral_storage::StorageClient;
use coral_term::testutil::TestRng;
use std::path::PathBuf;

/// `@maintain KIND.` is `dred` for the maintained session and
/// `recompute` for the foreign writer and the oracle.
const PROGRAM: &str = "\
module paths.\n\
export path(ff).\n\
@maintain KIND.\n\
path(X, Y) :- edge(X, Y).\n\
path(X, Y) :- edge(X, Z), path(Z, Y).\n\
end_module.\n";

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "coral-maintain-churn-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn session(client: &StorageClient, maintain: bool) -> Session {
    let s = Session::new();
    s.attach_storage_client(client.clone());
    s.create_persistent("edge", 2).unwrap();
    let kind = if maintain { "dred" } else { "recompute" };
    s.consult_str(&PROGRAM.replace("KIND", kind)).unwrap();
    s
}

fn sorted_answers(s: &Session, label: &str) -> Vec<String> {
    let mut out: Vec<String> = s
        .query_all("path(X, Y)")
        .unwrap_or_else(|e| panic!("query failed ({label}): {e}"))
        .iter()
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// One randomized mutation by session `who` (0 = the maintained
/// session, 1 = the foreign session): mostly inserts, some deletes,
/// over a dense 0..10 id range so deletes hit existing edges often.
fn mutate(s: &Session, rng: &mut TestRng) {
    let a = rng.gen_range(0, 10);
    let b = rng.gen_range(0, 10);
    let fact = format!("edge({a}, {b})");
    if rng.gen_range(0, 3) == 0 {
        s.delete_fact(&fact).unwrap();
    } else {
        s.insert_fact(&fact).unwrap();
    }
}

#[test]
fn two_sessions_churning_shared_base_stay_consistent() {
    let mut total_propagated = 0u64;
    let mut total_rebuilds = 0u64;
    for seed in 0..8u64 {
        let dir = fresh_dir(&format!("seed{seed}"));
        let client = coral_storage::StorageServer::open(&dir, 64).unwrap();
        let maintained = session(&client, true);
        let foreign = session(&client, false);
        let mut rng = TestRng::new(0xC0DE_0000 + seed);

        // Seed a few edges and build the maintained state.
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            maintained.insert_fact(&format!("edge({a}, {b})")).unwrap();
        }
        let initial = sorted_answers(&maintained, "initial");
        assert!(!initial.is_empty(), "seed {seed}: base program has answers");

        for step in 0..16 {
            // The seed decides who mutates: the maintained session's own
            // changes propagate incrementally; the foreign session's
            // changes bypass its engine entirely and must be caught by
            // the epoch check at the next query.
            if rng.gen_range(0, 2) == 0 {
                mutate(&maintained, &mut rng);
            } else {
                mutate(&foreign, &mut rng);
            }
            let got = sorted_answers(&maintained, "maintained");
            // Fresh-recompute oracle over the same shared relation.
            let oracle = session(&client, false);
            let want = sorted_answers(&oracle, "oracle");
            assert_eq!(
                got, want,
                "seed {seed} step {step}: maintained answers diverge \
                 from recompute over the shared base relation"
            );
        }
        let t = maintained.engine().maintain_totals();
        total_propagated += t.propagated;
        total_rebuilds += t.rebuilds;
    }
    assert!(
        total_propagated > 0,
        "no own-session change was ever propagated incrementally — \
         the maintained path never ran"
    );
    assert!(
        total_rebuilds > 1,
        "no foreign-session change ever forced a rebuild — \
         the epoch staleness check never fired"
    );
}

/// Deterministic sanity case for the epoch gap: a foreign write between
/// two queries must be reflected in the very next answer set.
#[test]
fn foreign_write_visible_at_next_query() {
    let dir = fresh_dir("foreign");
    let client = coral_storage::StorageServer::open(&dir, 64).unwrap();
    let maintained = session(&client, true);
    let foreign = session(&client, false);
    maintained.insert_fact("edge(0, 1)").unwrap();
    let before = sorted_answers(&maintained, "before");
    assert_eq!(before.len(), 1);
    // Behind the maintained session's back:
    foreign.insert_fact("edge(1, 2)").unwrap();
    let after = sorted_answers(&maintained, "after");
    assert_eq!(
        after.len(),
        3,
        "path must include the foreign edge: 0->1, 1->2, 0->2"
    );
    // And a foreign delete likewise.
    foreign.delete_fact("edge(1, 2)").unwrap();
    let back = sorted_answers(&maintained, "back");
    assert_eq!(back, before, "foreign delete visible at next query");
}

/// `clusters` independent random DAGs of 80 nodes / 160 forward edges
/// each (the benchmark's churn shape), as `(from, to)` pairs.
fn cluster_dags(clusters: usize, rng: &mut TestRng) -> Vec<(usize, usize)> {
    const NODES: usize = 80;
    let mut edges = Vec::new();
    for c in 0..clusters {
        for _ in 0..2 * NODES {
            let a = rng.gen_range(0, NODES - 1);
            let b = rng.gen_range(a + 1, NODES);
            edges.push((c * NODES + a, c * NODES + b));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Size independence: the same single-edge delete + insert on a closure
/// ten times larger (disjoint clusters of the same shape, so the cone
/// is the same) must not cost ten times more. Before the repair
/// recorded its net delta in place it cloned and diffed a copy of the
/// whole relation per update, and the ratio was the size ratio.
#[test]
fn update_cost_does_not_scale_with_the_relation() {
    let mut rng = TestRng::new(0x51_2E);
    let sessions: Vec<(Session, Vec<(usize, usize)>)> = [10, 100]
        .into_iter()
        .map(|clusters| {
            let edges = cluster_dags(clusters, &mut rng);
            let facts: String = edges
                .iter()
                .map(|(a, b)| format!("edge({a}, {b}).\n"))
                .collect();
            let s = Session::new();
            s.consult_str(&facts).unwrap();
            s.consult_str(
                "module tc.\nexport path(ff).\n@maintain dred.\n\
                 path(X, Y) :- edge(X, Y).\n\
                 path(X, Y) :- path(X, Z), edge(Z, Y).\nend_module.\n",
            )
            .unwrap();
            let mut answers = s.query("path(X, Y)").unwrap();
            let mut n = 0usize;
            while answers.next_answer().unwrap().is_some() {
                n += 1;
            }
            assert!(n > 500 * clusters, "{clusters} clusters: closure of {n}");
            (s, edges)
        })
        .collect();

    // Alternate the two sessions so a noisy stretch hits both.
    let mut times: [Vec<std::time::Duration>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..41 {
        for (i, (s, edges)) in sessions.iter().enumerate() {
            // Always from the first cluster: same shape on both sides.
            let (a, b) = edges[rng.gen_range(0, 150)];
            let fact = format!("edge({a}, {b})");
            let t0 = std::time::Instant::now();
            assert!(s.delete_fact(&fact).unwrap());
            assert!(s.insert_fact(&fact).unwrap());
            times[i].push(t0.elapsed());
        }
    }
    for (s, _) in &sessions {
        let t = s.maintain_totals();
        assert_eq!(
            (t.rebuilds, t.propagated),
            (1, 82),
            "every update repaired in place"
        );
    }
    let median = |v: &mut Vec<std::time::Duration>| {
        v.sort();
        v[v.len() / 2]
    };
    let (small, large) = (median(&mut times[0]), median(&mut times[1]));
    assert!(
        large <= 4 * small,
        "update on 100 clusters took {large:?}, on 10 clusters {small:?}"
    );
}

/// The maintenance gate. Each workload runs the same single-tuple churn
/// cycle (insert `edge(9001, 0)`, re-query, delete it, re-query) under
/// its incremental strategy and under `@maintain recompute`. The
/// maintained run must return the same answers, show ≥10× fewer join
/// probes per answer delivered, engage its strategy (propagated deltas
/// and the strategy's own counter nonzero, none in the recompute run)
/// and have the lower median cycle time.
#[test]
fn maintained_churn_beats_recompute() {
    const COUNTERS: [&str; 3] = [
        "core.join_probes",
        "core.get_next_tuple",
        "core.maintain_propagated",
    ];
    let mut rng = TestRng::new(23);
    let graph: String = (0..120)
        .map(|_| {
            format!(
                "edge({}, {}).\n",
                rng.gen_range(0, 30),
                rng.gen_range(0, 30)
            )
        })
        .collect();
    // (head, strategy, its counter, pinned facts, rules). Vertex 0 gets
    // pinned out-edges on the two-hop join so the churned edge always
    // creates and destroys hop derivations.
    let workloads = [
        (
            "path",
            "dred",
            "core.maintain_overdeleted",
            "",
            "path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\n",
        ),
        (
            "hop",
            "counting",
            "core.maintain_count_updates",
            "edge(0, 1).\nedge(0, 2).\n",
            "hop(X, Y) :- edge(X, Z), edge(Z, Y).\n",
        ),
    ];
    profile::set_profiling(true);
    for (head, kind, engaged, pinned, rules) in workloads {
        let query = format!("{head}(X, Y)");
        let names = [COUNTERS[0], COUNTERS[1], COUNTERS[2], engaged];
        let read = || {
            let all = profile::all_counters();
            names.map(|n| all.iter().find(|(k, _)| k == n).expect(n).1)
        };
        // Index 0 is the maintained run, 1 the recompute run.
        let sessions = [kind, "recompute"].map(|k| {
            let s = Session::new();
            s.consult_str(&format!("{graph}{pinned}")).unwrap();
            s.consult_str(&format!(
                "module m.\nexport {head}(ff).\n@maintain {k}.\n{rules}end_module.\n"
            ))
            .unwrap();
            s.query_all(&query).unwrap();
            s
        });
        let mut deltas = [[0u64; 4]; 2];
        let mut times: [Vec<std::time::Duration>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..15 {
            let mut answers: [Vec<Vec<String>>; 2] = [Vec::new(), Vec::new()];
            for (i, s) in sessions.iter().enumerate() {
                let before = read();
                let t0 = std::time::Instant::now();
                assert!(s.insert_fact("edge(9001, 0)").unwrap());
                let with = s.query_all(&query).unwrap();
                assert!(s.delete_fact("edge(9001, 0)").unwrap());
                let without = s.query_all(&query).unwrap();
                times[i].push(t0.elapsed());
                let after = read();
                for (d, (a, b)) in deltas[i].iter_mut().zip(after.iter().zip(before)) {
                    *d += a - b;
                }
                for list in [with, without] {
                    let mut v: Vec<String> = list.iter().map(|a| a.to_string()).collect();
                    v.sort();
                    answers[i].push(v);
                }
            }
            assert_eq!(answers[0], answers[1], "{head}: maintained answers differ");
        }
        let [m, r] = deltas;
        let per_answer = |d: [u64; 4]| d[0] as f64 / d[1].max(1) as f64;
        let ratio = per_answer(r) / per_answer(m).max(f64::MIN_POSITIVE);
        assert!(
            ratio >= 10.0,
            "{head}: join probes per answer fell only {ratio:.2}x (recompute {r:?}, maintained {m:?})"
        );
        assert!(
            m[2] > 0,
            "{head}: the maintained run never propagated a delta"
        );
        assert_eq!(r[2], 0, "{head}: the recompute run did maintenance work");
        assert!(m[3] > 0, "{head}: {engaged} is zero, {kind} never engaged");
        let [mt, rt] = times.map(|mut v| {
            v.sort();
            v[v.len() / 2]
        });
        assert!(
            mt < rt,
            "{head}: maintained median {mt:?} is not below recompute {rt:?}"
        );
    }
    profile::set_profiling(false);
}
