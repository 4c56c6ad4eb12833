//! Resource-governor enforcement across every evaluation strategy.

use coral_core::session::Session;
use coral_core::{Budget, BudgetResource, EvalError};
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

/// Open `query` and drain it, returning the first error.
fn drain_err(s: &Session, query: &str) -> EvalError {
    let mut answers = match s.query(query) {
        Ok(a) => a,
        Err(e) => return e,
    };
    loop {
        match answers.next_answer() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("{query}: drained without the callee's error"),
            Err(e) => return e,
        }
    }
}

#[test]
fn nested_pipelined_failure_keeps_its_error_type() {
    // A materialized rule pulls a pipelined export whose evaluation
    // fails mid-pull. The caller must see the callee's own error, not a
    // relation-layer error wrapping its text.
    const CALLER: &str = "module caller.\n\
         export first(f).\n\
         first(X) :- pnat(X).\n\
         end_module.\n";
    let s = session_with(Budget {
        deadline_ms: Some(80),
        ..Budget::default()
    });
    s.consult_str(INF_PIPELINED).unwrap();
    s.consult_str(CALLER).unwrap();
    let err = drain_err(&s, "first(X)");
    assert!(
        matches!(
            err,
            EvalError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            }
        ),
        "got: {err:?}"
    );

    // The same for an arithmetic failure: two answers, then 10 / 0.
    let s = Session::new();
    s.consult_str(
        "num(1). num(2). num(0).\n\
         module inv.\n\
         export inv(ff).\n\
         @pipelining.\n\
         inv(X, Y) :- num(X), Y = 10 / X.\n\
         end_module.\n\
         module caller.\n\
         export r(ff).\n\
         r(X, Y) :- inv(X, Y).\n\
         end_module.\n",
    )
    .unwrap();
    let err = drain_err(&s, "r(X, Y)");
    assert!(matches!(err, EvalError::Arith(_)), "got: {err:?}");
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
