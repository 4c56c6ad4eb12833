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
//! A third test holds the repair to its cost claim: an edge update on a
//! maintained closure costs what it changes, not what the relation
//! holds.

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
