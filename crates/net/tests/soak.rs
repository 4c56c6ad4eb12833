//! Bounded overload soak: eight loopback clients hammer one server
//! with deliberately tiny budgets and a deliberately small admission
//! cap for a fixed wall-clock window. The assertions are structural,
//! not statistical — zero panics (worker panics would show up as
//! protocol errors and failed joins), zero leaked connection slots,
//! and the governor/shedding machinery demonstrably engaged (nonzero
//! shed and budget-killed counters).
//!
//! The window is 2 s by default so the tier-1 suite stays fast;
//! CI sets `CORAL_SOAK_SECS=30` for the real soak.

use coral_net::{Client, ErrorCode, NetError, Server, ServerConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn soak_secs() -> u64 {
    std::env::var("CORAL_SOAK_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// Well-behaved workload: a tiny acyclic closure, far under budget.
const SMALL_TC: &str = "edge(1, 2). edge(2, 3). edge(2, 4). edge(4, 5).\n\
     module tc.\n\
     export path(bf).\n\
     path(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\n\
     end_module.\n";

/// Runaway workload: cyclic closure that blows the tuple budget.
fn runaway_tc() -> String {
    let mut p = String::new();
    for i in 0..50 {
        let _ = writeln!(p, "cedge({}, {}).", i, (i + 1) % 50);
        let _ = writeln!(p, "cedge({}, {}).", i, (i + 11) % 50);
    }
    p.push_str(
        "module ctc.\n\
         export cpath(ff).\n\
         cpath(X, Y) :- cedge(X, Y).\n\
         cpath(X, Y) :- cedge(X, Z), cpath(Z, Y).\n\
         end_module.\n",
    );
    p
}

#[test]
fn overload_soak_sheds_kills_and_leaks_nothing() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: 8,
            max_eval_in_flight: Some(2),
            shed_backoff_ms: 5,
            budget: coral_core::Budget {
                deadline_ms: Some(100),
                max_tuples: Some(400),
                ..coral_core::Budget::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let deadline = Instant::now() + Duration::from_secs(soak_secs());

    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let runaway = runaway_tc();
                let mut completed = 0u64;
                let mut killed = 0u64;
                let mut overloaded = 0u64;
                'soak: while Instant::now() < deadline {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => panic!("client {i}: connect failed mid-soak: {e}"),
                    };
                    client.set_max_retries(4);
                    // A handful of requests per connection, then
                    // reconnect so the accept path churns too.
                    for round in 0..6 {
                        if Instant::now() >= deadline {
                            break 'soak;
                        }
                        // Clients 0–5 are mostly well-behaved; every
                        // client goes runaway on one round in six, so
                        // the budget killer and the admission cap are
                        // both continuously exercised.
                        let hog = round == i % 6;
                        let r = if hog {
                            client
                                .consult_str(&runaway)
                                .and_then(|_| client.query_all("?- cpath(X, Y)."))
                        } else {
                            client
                                .consult_str(SMALL_TC)
                                .and_then(|_| client.query_all("?- path(1, X)."))
                        };
                        match r {
                            Ok(answers) => {
                                if hog {
                                    panic!("client {i}: runaway query completed unkilled");
                                }
                                assert_eq!(answers.len(), 4, "client {i}: wrong answers");
                                completed += 1;
                            }
                            Err(NetError::Remote { code, msg }) => {
                                assert_eq!(
                                    code,
                                    ErrorCode::BudgetExceeded,
                                    "client {i}: unexpected remote error: {msg}"
                                );
                                killed += 1;
                            }
                            Err(NetError::Overloaded { .. }) => overloaded += 1,
                            Err(other) => {
                                panic!("client {i}: connection-breaking error: {other}")
                            }
                        }
                    }
                    let _ = client.quit();
                }
                (completed, killed, overloaded)
            })
        })
        .collect();

    let mut total_completed = 0u64;
    let mut total_killed = 0u64;
    for t in clients {
        let (completed, killed, _overloaded) = t.join().expect("soak client panicked");
        total_completed += completed;
        total_killed += killed;
    }

    let stats = server.shutdown();
    assert_eq!(
        stats.connections_active, 0,
        "leaked connection slots: {stats}"
    );
    assert!(stats.shed > 0, "admission control never shed: {stats}");
    assert!(
        stats.budget_killed > 0 && total_killed > 0,
        "governor never killed a runaway: {stats}"
    );
    assert!(
        total_completed > 0,
        "no well-behaved request ever completed under overload"
    );
    assert_eq!(
        stats.errors, stats.budget_killed,
        "unexpected non-budget errors: {stats}"
    );
}
