//! Maintain-vs-recompute differential oracle: the headline test of the
//! incremental-maintenance subsystem.
//!
//! For every shared program family (`common/families.rs`) and seed, a
//! *maintained* session answers queries through its maintained state
//! while randomized insert/delete batches churn the base relations. An
//! *oracle* session — the same program under `@maintain recompute`, the
//! same mutation sequence replayed, evaluated from scratch — must
//! produce exactly the same answers after every batch, serial and
//! parallel. Non-vacuousness is asserted from the engine's maintenance
//! totals: both counting and DRed propagation must actually fire, or the
//! suite is testing nothing.

#[path = "common/families.rs"]
mod families;

use coral_core::session::Session;
use coral_term::testutil::TestRng;
use std::fmt::Write as _;

/// Base predicates a family's mutations may touch; `ordered` preds only
/// ever receive facts `p(a, b)` with `a < b` (the sg family's downward
/// parent edges must stay acyclic to terminate).
fn base_preds(family: &str) -> &'static [(&'static str, bool)] {
    match family {
        "tc" => &[("edge", false)],
        "sg" => &[("par", true)],
        "mutual" => &[("a", false), ("b", false)],
        "negation" => &[("edge", false), ("blocked", false)],
        "nonground" => &[("edge", false)],
        other => panic!("unknown family {other}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Insert,
    Delete,
}

/// One randomized batch of ground-fact mutations over `preds`.
/// Deletions deliberately target the dense 0..16 id range so they hit
/// consulted facts often; inserted facts are remembered so later
/// batches can delete them explicitly.
fn random_batch(
    rng: &mut TestRng,
    preds: &[(&'static str, bool)],
    inserted: &mut Vec<String>,
) -> Vec<(Op, String)> {
    let mut batch = Vec::new();
    let n_ins = rng.gen_range(2, 6);
    for _ in 0..n_ins {
        let (name, ordered) = preds[rng.gen_range(0, preds.len())];
        let (a, b) = if ordered {
            let a = rng.gen_range(0, 15);
            (a, rng.gen_range(a + 1, 16))
        } else {
            (rng.gen_range(0, 16), rng.gen_range(0, 16))
        };
        let fact = format!("{name}({a}, {b})");
        inserted.push(fact.clone());
        batch.push((Op::Insert, fact));
    }
    let n_del = rng.gen_range(2, 6);
    for _ in 0..n_del {
        // Half the deletes aim at facts this suite inserted (guaranteed
        // present unless already deleted), half at random tuples that
        // frequently collide with the consulted base facts.
        if !inserted.is_empty() && rng.gen_range(0, 2) == 0 {
            let i = rng.gen_range(0, inserted.len());
            batch.push((Op::Delete, inserted.swap_remove(i)));
        } else {
            let (name, ordered) = preds[rng.gen_range(0, preds.len())];
            let (a, b) = if ordered {
                let a = rng.gen_range(0, 15);
                (a, rng.gen_range(a + 1, 16))
            } else {
                (rng.gen_range(0, 16), rng.gen_range(0, 16))
            };
            batch.push((Op::Delete, format!("{name}({a}, {b})")));
        }
    }
    batch
}

fn apply(session: &Session, mutations: &[(Op, String)]) {
    for (op, fact) in mutations {
        match op {
            Op::Insert => session.insert_fact(fact),
            Op::Delete => session.delete_fact(fact),
        }
        .unwrap_or_else(|e| panic!("{op:?} {fact} failed: {e}"));
    }
}

fn sorted_answers(session: &Session, query: &str, label: &str) -> Vec<String> {
    let mut out: Vec<String> = session
        .query_all(query)
        .unwrap_or_else(|e| panic!("query {query} failed ({label}): {e}"))
        .iter()
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Evaluation-config axis: serial and parallel.
const THREADS: &[usize] = &[1, 4];

const BATCHES: usize = 3;

/// Run the maintained session (`program_for(kind)`) against the
/// recompute oracle (`program_for("recompute")`) through `BATCHES`
/// mutation batches; returns the maintained session's final maintenance
/// totals.
fn differential(
    program_for: &dyn Fn(&str) -> String,
    kind: &str,
    query: &str,
    preds: &[(&'static str, bool)],
    threads: usize,
    rng: &mut TestRng,
    label: &str,
) -> coral_core::MaintainTotals {
    let m = Session::new();
    m.set_threads(threads);
    m.consult_str(&program_for(kind))
        .unwrap_or_else(|e| panic!("consult failed ({label}): {e}"));
    // First query builds the maintained state.
    let initial = sorted_answers(&m, query, label);
    assert!(!initial.is_empty(), "{label}: query has answers");

    let oracle_program = program_for("recompute");
    let mut history: Vec<(Op, String)> = Vec::new();
    let mut inserted = Vec::new();
    for batch_no in 0..BATCHES {
        let batch = random_batch(rng, preds, &mut inserted);
        apply(&m, &batch);
        history.extend(batch);

        // Fresh-recompute oracle: `@maintain recompute`, the whole
        // mutation history replayed, evaluated from scratch.
        let o = Session::new();
        o.set_threads(threads);
        o.consult_str(&oracle_program).unwrap();
        apply(&o, &history);

        let maintained = sorted_answers(&m, query, label);
        let recomputed = sorted_answers(&o, query, label);
        assert_eq!(
            maintained, recomputed,
            "{label}: maintained answers diverge from recompute \
             after batch {batch_no} (threads={threads})"
        );
        assert_eq!(
            o.maintain_totals(),
            coral_core::MaintainTotals::default(),
            "{label}: the recompute oracle did maintenance work"
        );
    }
    m.maintain_totals()
}

/// DRed over every recursive family: maintained answers must equal the
/// recompute oracle after every batch, and the DRed machinery must
/// demonstrably run (propagations and overdeletions both nonzero).
#[test]
fn dred_matches_recompute_oracle() {
    let mut propagated = 0u64;
    let mut overdeleted = 0u64;
    let mut rederived = 0u64;
    for (name, gen, base_seed) in families::FAMILIES {
        let mut family_propagated = 0u64;
        for seed in 0..families::SEEDS {
            let case = gen(base_seed + seed);
            let program_for = |kind: &str| case.program(&format!("@maintain {kind}.\n"));
            for (ci, &threads) in THREADS.iter().enumerate() {
                let mut rng = TestRng::new(0x5EED_0000 + base_seed * 1000 + seed * 7 + ci as u64);
                let label = format!("{name} seed {seed}");
                let t = differential(
                    &program_for,
                    "dred",
                    case.query,
                    base_preds(name),
                    threads,
                    &mut rng,
                    &label,
                );
                family_propagated += t.propagated;
                propagated += t.propagated;
                overdeleted += t.overdeleted;
                rederived += t.rederived;
            }
        }
        // The nonground family's derived tuples are non-ground, which
        // the builder refuses — it locks down the recompute fallback
        // instead of the propagation path.
        if *name != "nonground" {
            assert!(
                family_propagated > 0,
                "family {name}: no base delta was ever absorbed by a \
                 maintained state — the differential is vacuous"
            );
        }
    }
    assert!(propagated > 0, "no DRed propagation ever fired");
    assert!(
        overdeleted > 0,
        "no deletion ever overdeleted a derived tuple — \
         the DRed deletion phase is untested"
    );
    // Rederivation is load-bearing for correctness; across 5 families ×
    // 20 seeds × dense graphs, alternative derivations must exist.
    assert!(
        rederived > 0,
        "no overdeleted tuple was ever rederived — \
         the rederive phase is untested"
    );
}

/// A randomized non-recursive program family (the shared families are
/// all recursive): two-hop reachability plus a negation rule, counting
/// strategy forced by annotation.
fn counting_case(seed: u64) -> (String, &'static str) {
    let mut rng = TestRng::new(seed);
    let nodes = rng.gen_range(10, 16);
    let mut facts = families::random_edges(&mut rng, "edge", nodes, 3 * nodes);
    for _ in 0..nodes / 2 {
        let a = rng.gen_range(0, nodes);
        let b = rng.gen_range(0, nodes);
        let _ = writeln!(facts, "blocked({a}, {b}).");
    }
    let program = format!(
        "{facts}\
         module cnt.\n\
         export hop(ff).\n\
         @maintain KIND.\n\
         hop(X, Y) :- edge(X, Y), not blocked(X, Y).\n\
         hop(X, Y) :- edge(X, Z), edge(Z, Y).\n\
         end_module.\n"
    );
    (program, "hop(X, Y)")
}

/// Counting over non-recursive strata: maintained answers must equal
/// the recompute oracle after every batch, and count adjustments must
/// demonstrably happen.
#[test]
fn counting_matches_recompute_oracle() {
    let preds: &[(&'static str, bool)] = &[("edge", false), ("blocked", false)];
    let mut propagated = 0u64;
    let mut count_updates = 0u64;
    for seed in 0..families::SEEDS {
        let (program, query) = counting_case(7000 + seed);
        for (ci, &threads) in THREADS.iter().enumerate() {
            let mut rng = TestRng::new(0xC0_0000 + seed * 13 + ci as u64);
            let label = format!("counting seed {seed}");
            let t = differential(
                &|kind| program.replace("KIND", kind),
                "counting",
                query,
                preds,
                threads,
                &mut rng,
                &label,
            );
            propagated += t.propagated;
            count_updates += t.count_updates;
        }
    }
    assert!(propagated > 0, "no counting propagation ever fired");
    assert!(
        count_updates > 0,
        "no derivation count was ever adjusted — \
         counting maintenance is untested"
    );
}

/// `@maintain recompute` pins a module to wholesale recomputation:
/// same answers, zero maintenance work.
#[test]
fn maintain_recompute_annotation_opts_out() {
    let case = families::tc(43);
    let s = Session::new();
    s.consult_str(&case.program("@maintain recompute.\n"))
        .unwrap();
    let before = sorted_answers(&s, case.query, "recompute");
    s.insert_fact("edge(0, 1)").unwrap();
    let _ = sorted_answers(&s, case.query, "recompute");
    s.delete_fact("edge(0, 1)").unwrap();
    let after = sorted_answers(&s, case.query, "recompute");
    assert_eq!(before, after, "insert+delete of one fact is a no-op");
    assert_eq!(
        s.maintain_totals(),
        coral_core::MaintainTotals::default(),
        "@maintain recompute must never propagate"
    );
}
