//! Resource-governor enforcement across every evaluation strategy,
//! plus `k=1` vs `k=4` differential runs asserting budget exhaustion
//! is *deterministic* under parallelism: the merge replays worker
//! buffers in serial chunk order through the ordinary insert path, so
//! a tuple limit must fire at exactly the same insert count whether
//! the fixpoint ran on one thread or four.

use coral_core::session::Session;
use coral_core::{Budget, BudgetResource, EvalError};
use coral_term::testutil::TestRng;
use std::fmt::Write as _;
use std::time::Duration;

/// Infinite bottom-up fixpoint (the `nat` successor chain).
const INF_SEMINAIVE: &str = "zero(z).\n\
     module inf.\n\
     export nat(f).\n\
     nat(X) :- zero(X).\n\
     nat(s(X)) :- nat(X).\n\
     end_module.\n";

/// Under Ordered Search, each call generates a *new* subgoal
/// (`q(z)` needs `q(s(z))` needs `q(s(s(z)))` ...), so the context
/// stack grows without bound — the §5.4.1 depth-first pathology.
const INF_ORDERED: &str = "module infos.\n\
     export q(b).\n\
     @ordered_search.\n\
     q(X) :- q(s(X)).\n\
     end_module.\n";

/// The same program pipelined: an endless lazy answer stream.
const INF_PIPELINED: &str = "zero(z).\n\
     module infp.\n\
     export pnat(f).\n\
     @pipelining.\n\
     pnat(X) :- zero(X).\n\
     pnat(s(X)) :- pnat(X).\n\
     end_module.\n";

/// A cyclic EDB whose transitive closure is large (n^2 paths): the
/// canonical "runaway but technically finite" workload.
fn cyclic_tc(nodes: usize) -> String {
    let mut s = String::new();
    for i in 0..nodes {
        let _ = writeln!(s, "edge({}, {}).", i, (i + 1) % nodes);
        let _ = writeln!(s, "edge({}, {}).", i, (i + 7) % nodes);
    }
    s.push_str(
        "module tc.\n\
         export path(ff).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n",
    );
    s
}

fn session_with(budget: Budget) -> Session {
    let s = Session::new();
    s.set_budget(budget);
    s
}

#[test]
fn tuple_budget_kills_cyclic_transitive_closure() {
    let s = session_with(Budget {
        max_tuples: Some(50),
        ..Budget::default()
    });
    s.consult_str(&cyclic_tc(30)).unwrap();
    match s.query_all("path(X, Y)") {
        Err(EvalError::BudgetExceeded {
            resource: BudgetResource::Tuples,
            limit: 50,
            used,
        }) => assert!(used >= 50, "error reports the crossing count, got {used}"),
        other => panic!("expected tuple budget kill, got {other:?}"),
    }
    // Lifting the budget fully recovers the session: same query, same
    // engine, correct complete answer set (30 nodes, two out-edges per
    // node, strongly connected -> all 900 pairs reachable).
    s.set_budget(Budget::unlimited());
    assert_eq!(s.query_all("path(X, Y)").unwrap().len(), 900);
}

#[test]
fn deadline_budget_kills_infinite_fixpoint() {
    let s = session_with(Budget {
        deadline_ms: Some(50),
        ..Budget::default()
    });
    s.consult_str(INF_SEMINAIVE).unwrap();
    let started = std::time::Instant::now();
    match s.query_all("nat(X)") {
        Err(EvalError::BudgetExceeded {
            resource: BudgetResource::Deadline,
            limit: 50,
            ..
        }) => {}
        other => panic!("expected deadline kill, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline enforcement took {:?}",
        started.elapsed()
    );
}

#[test]
fn iteration_budget_kills_infinite_fixpoint() {
    let s = session_with(Budget {
        max_iterations: Some(8),
        ..Budget::default()
    });
    s.consult_str(INF_SEMINAIVE).unwrap();
    match s.query_all("nat(X)") {
        Err(EvalError::BudgetExceeded {
            resource: BudgetResource::Iterations,
            limit: 8,
            ..
        }) => {}
        other => panic!("expected iteration kill, got {other:?}"),
    }
}

#[test]
fn depth_budget_kills_ordered_search_recursion() {
    let s = session_with(Budget {
        max_depth: Some(16),
        ..Budget::default()
    });
    s.consult_str(INF_ORDERED).unwrap();
    match s.query_all("q(z)") {
        Err(EvalError::BudgetExceeded {
            resource: BudgetResource::Depth,
            limit: 16,
            ..
        }) => {}
        other => panic!("expected depth kill, got {other:?}"),
    }
}

#[test]
fn term_byte_budget_kills_term_generating_fixpoint() {
    // Every derived `nat` tuple interns a fresh `s(...)` term, so the
    // hashcons meter climbs monotonically until the limit fires.
    let s = session_with(Budget {
        max_term_bytes: Some(64 * 1024),
        ..Budget::default()
    });
    s.consult_str(INF_SEMINAIVE).unwrap();
    match s.query_all("nat(X)") {
        Err(EvalError::BudgetExceeded {
            resource: BudgetResource::TermBytes,
            limit,
            used,
        }) => {
            assert_eq!(limit, 64 * 1024);
            assert!(used >= limit);
        }
        other => panic!("expected term-byte kill, got {other:?}"),
    }
}

#[test]
fn pipelined_stream_yields_partial_answers_then_budget_error() {
    let s = session_with(Budget {
        deadline_ms: Some(80),
        ..Budget::default()
    });
    s.consult_str(INF_PIPELINED).unwrap();
    let mut answers = s.query("pnat(X)").unwrap();
    let mut pulled = 0u64;
    let err = loop {
        match answers.next_answer() {
            Ok(Some(_)) => pulled += 1,
            Ok(None) => panic!("infinite stream claimed exhaustion"),
            Err(e) => break e,
        }
    };
    assert!(
        matches!(
            err,
            EvalError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            }
        ),
        "got: {err}"
    );
    // The stream is partial, not empty: answers derived before the
    // deadline were delivered.
    assert!(pulled > 0, "no partial answers before the budget error");
}

#[test]
fn budget_kill_during_consult_rolls_back_module_catalog() {
    // An embedded `?-` query that blows its budget must unwind through
    // the same catalog-snapshot rollback as any other failed consult.
    let s = session_with(Budget {
        max_iterations: Some(4),
        ..Budget::default()
    });
    let err = s
        .consult_str(&format!("{INF_SEMINAIVE}?- nat(X).\n"))
        .unwrap_err();
    assert!(
        matches!(err, EvalError::BudgetExceeded { .. }),
        "got: {err}"
    );
    match s.query_all("nat(X)") {
        Err(EvalError::UnknownPredicate(_)) => {}
        other => panic!("module must roll back after budget kill, got {other:?}"),
    }
    // The corrected (bounded) workload then consults cleanly.
    s.set_budget(Budget::unlimited());
    s.consult_str("edge(1, 2).").unwrap();
    assert_eq!(s.query_all("edge(X, Y)").unwrap().len(), 1);
}

#[test]
fn profile_reports_budget_usage() {
    if !coral_core::profile::AVAILABLE {
        return; // no collector, hence no profile, with the feature off
    }
    let s = session_with(Budget {
        max_tuples: Some(1_000_000),
        ..Budget::default()
    });
    s.set_profiling(true);
    s.consult_str(&cyclic_tc(10)).unwrap();
    s.query_all("path(X, Y)").unwrap();
    let p = s.last_profile().expect("profiled call leaves a profile");
    assert!(p.budget.armed, "budget section must be armed");
    assert_eq!(p.budget.limits[1], 1_000_000);
    assert!(p.budget.used[1] > 0, "tuple usage must be recorded");
    let rendered = p.render();
    assert!(rendered.contains("budget:"), "render lacks budget section");
}

// ---------------------------------------------------------------------
// Satellite: budget exhaustion under parallelism is deterministic.
// ---------------------------------------------------------------------

/// Run a seeded transitive closure with `threads` workers under
/// `max_tuples`, returning the budget error (stringified, so `limit`
/// and `used` both participate in the comparison).
fn run_budgeted(threads: usize, program: &str, max_tuples: u64) -> String {
    let s = Session::new();
    s.set_threads(threads);
    s.set_profiling(true);
    s.set_budget(Budget {
        max_tuples: Some(max_tuples),
        ..Budget::default()
    });
    s.consult_str(program)
        .unwrap_or_else(|e| panic!("consult failed at k={threads}: {e}"));
    match s.query_all("path(X, Y)") {
        Err(e @ EvalError::BudgetExceeded { .. }) => e.to_string(),
        other => panic!("expected budget kill at k={threads}, got {other:?}"),
    }
}

fn random_edges(rng: &mut TestRng, nodes: usize, edges: usize) -> String {
    let mut s = String::new();
    for _ in 0..edges {
        let a = rng.gen_range(0, nodes);
        let b = rng.gen_range(0, nodes);
        let _ = writeln!(s, "edge({a}, {b}).");
    }
    s
}

#[test]
fn budget_kill_is_deterministic_across_worker_counts() {
    // Right-linear (an `edge` scan drives, `path`'s delta is hash
    // probed) and left-linear (the delta batch drives): in both, facts
    // must reach the coordinator's tuple meter in the serial order, so
    // a tuple limit fires at the same count at k=1 and k=4.
    for body in ["edge(X, Z), path(Z, Y)", "path(X, Z), edge(Z, Y)"] {
        for seed in 1..=4u64 {
            let mut rng = TestRng::new(seed);
            let nodes = rng.gen_range(30, 50);
            let edges = rng.gen_range(3 * nodes, 5 * nodes);
            let program = format!(
                "{}\
                 module tc.\n\
                 export path(ff).\n\
                 path(X, Y) :- edge(X, Y).\n\
                 path(X, Y) :- {body}.\n\
                 end_module.\n",
                random_edges(&mut rng, nodes, edges)
            );
            // A limit low enough to fire mid-fixpoint but high enough
            // that k=4 has dispatched real worker chunks by then.
            let serial = run_budgeted(1, &program, 200);
            let parallel = run_budgeted(4, &program, 200);
            assert_eq!(
                parallel, serial,
                "budget kill not deterministic across worker counts ({body}, seed {seed})"
            );
        }
    }
}

#[test]
fn worker_pool_survives_repeated_mid_dispatch_kills() {
    let mut rng = TestRng::new(99);
    let nodes = 40;
    let program = format!(
        "{}\
         module tc.\n\
         export path(ff).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n",
        random_edges(&mut rng, nodes, 5 * nodes)
    );
    let s = Session::new();
    s.set_threads(4);
    s.set_profiling(true);
    s.consult_str(&program).unwrap();

    // Kill the same parallel fixpoint several times in a row: the pool
    // must fully drain each time (a leaked worker would wedge or panic
    // a later dispatch) and the aborted dispatch's profile must still
    // fold worker busy time instead of dropping it.
    let mut saw_parallel_kill = false;
    for _ in 0..3 {
        s.set_budget(Budget {
            max_tuples: Some(600),
            ..Budget::default()
        });
        match s.query_all("path(X, Y)") {
            Err(EvalError::BudgetExceeded { .. }) => {}
            other => panic!("expected budget kill, got {other:?}"),
        }
        if coral_core::profile::AVAILABLE {
            let p = s.last_profile().expect("failed query still finalizes");
            for scc in &p.sccs {
                if scc.parallel.parallel_firings > 0 {
                    saw_parallel_kill = true;
                    assert!(
                        scc.parallel.busy_ns > 0,
                        "parallel dispatch recorded without folded busy time"
                    );
                }
            }
        }
    }
    if coral_core::profile::AVAILABLE {
        assert!(
            saw_parallel_kill,
            "budget never fired after a parallel dispatch — test vacuous"
        );
    }

    // The pool is intact: the same session completes the full closure
    // once the budget is lifted, still at k=4.
    s.set_budget(Budget::unlimited());
    let full = s.query_all("path(X, Y)").unwrap();
    assert!(!full.is_empty());

    // And a differential sanity check: k=1 on a fresh session agrees.
    let s1 = Session::new();
    s1.set_threads(1);
    s1.consult_str(&program).unwrap();
    let serial = s1.query_all("path(X, Y)").unwrap();
    assert_eq!(full.len(), serial.len(), "answers diverge after kills");
}
