//! Maintain-vs-recompute differential oracle: the headline test of the
//! incremental-maintenance subsystem.
//!
//! For every shared program family (`common/families.rs`) and seed, a
//! *maintained* session answers queries through its maintained state
//! while randomized insert/delete batches churn the base relations. An
//! *oracle* session — the same program under `@maintain recompute`, the
//! same mutation sequence replayed, evaluated from scratch — must
//! produce exactly the same answers after every batch. Non-vacuousness
//! is asserted from the engine's maintenance
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
        "strata" => &[("edge", false), ("stop", false), ("link", false)],
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
    rng: &mut TestRng,
    label: &str,
) -> coral_core::MaintainTotals {
    let m = Session::new();
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
        o.consult_str(&oracle_program).unwrap();
        apply(&o, &history);

        let maintained = sorted_answers(&m, query, label);
        let recomputed = sorted_answers(&o, query, label);
        assert_eq!(
            maintained, recomputed,
            "{label}: maintained answers diverge from recompute \
             after batch {batch_no}"
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
            let mut rng = TestRng::new(0x5EED_0000 + base_seed * 1000 + seed * 7);
            let label = format!("{name} seed {seed}");
            let t = differential(
                &program_for,
                "dred",
                case.query,
                base_preds(name),
                &mut rng,
                &label,
            );
            family_propagated += t.propagated;
            propagated += t.propagated;
            overdeleted += t.overdeleted;
            rederived += t.rederived;
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
        let mut rng = TestRng::new(0xC0_0000 + seed * 13);
        let label = format!("counting seed {seed}");
        let t = differential(
            &|kind| program.replace("KIND", kind),
            "counting",
            query,
            preds,
            &mut rng,
            &label,
        );
        propagated += t.propagated;
        count_updates += t.count_updates;
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

/// Four strata in a chain, each repaired by a different path: a
/// recursive SCC (DRed), a non-recursive one over it (counting, unless
/// the annotation forces DRed), a recursive SCC reading the first
/// positively and the second under negation — so a single base change
/// reaches it as insertions *and* deletions — and a counting consumer
/// on top, whose counts go wrong if the third SCC's net delta is.
const STRATA_RULES: &str = "\
    module strata.\n\
    export seen(f).\n\
    @maintain KIND.\n\
    reach(X, Y) :- edge(X, Y).\n\
    reach(X, Y) :- edge(X, Z), reach(Z, Y).\n\
    cut(X, Y) :- reach(X, Z), stop(Z, Y).\n\
    safe(X, Y) :- reach(X, Y), not cut(X, Y).\n\
    safe(X, Y) :- safe(X, Z), link(Z, Y).\n\
    seen(Y) :- safe(X, Y).\n\
    end_module.\n";

fn strata_program(facts: &str, kind: &str) -> String {
    format!("{facts}{}", STRATA_RULES.replace("KIND", kind))
}

/// The strata family under random churn, mixed strategies
/// (`counting`: DRed for the recursive SCCs, counting for the others)
/// and DRed throughout.
#[test]
fn strata_family_matches_recompute_oracle() {
    let mut overdeleted = 0u64;
    let mut count_updates = 0u64;
    for seed in 0..families::SEEDS {
        let mut rng = TestRng::new(9000 + seed);
        let nodes = rng.gen_range(8, 12);
        let facts = format!(
            "{}{}{}",
            families::random_edges(&mut rng, "edge", nodes, 2 * nodes),
            families::random_edges(&mut rng, "stop", nodes, nodes / 2),
            families::random_edges(&mut rng, "link", nodes, nodes),
        );
        for (ci, kind) in ["counting", "dred"].into_iter().enumerate() {
            let mut rng = TestRng::new(0x57A7_0000 + seed * 11 + ci as u64);
            let t = differential(
                &|k| strata_program(&facts, k),
                kind,
                "seen(Y)",
                base_preds("strata"),
                &mut rng,
                &format!("strata {kind} seed {seed}"),
            );
            overdeleted += t.overdeleted;
            count_updates += t.count_updates;
        }
    }
    assert!(
        overdeleted > 0 && count_updates > 0,
        "both repairs must run"
    );
}

/// One insertion that reaches the third SCC as a deletion (a `cut`
/// tuple appears under the negation) and an insertion (a `reach` tuple
/// appears) at once, forcing each cancellation case of DRed's net-delta
/// bookkeeping in turn. The totals say which case ran; the consumer on
/// top and the recompute oracle say the recorded delta was right.
#[test]
fn dred_net_delta_cancels_overdeleted_tuples_that_come_back() {
    // `safe(1, 5)` holds through `reach(1, 5)`. Inserting `edge(1, 3)`
    // derives `cut(1, 5)`, which overdeletes it.
    let base = "edge(1, 5). stop(3, 5). link(3, 5).\n";
    for (label, extra, rederived) in [
        // A second derivation over tuples that were there all along:
        // rederived in phase 2.
        ("overdeleted then rederived", "edge(1, 4). link(4, 5).\n", 1),
        // Its only other derivation runs through `safe(1, 3)`, which is
        // new: phase 2 leaves it deleted, phase 3 inserts it again.
        ("deleted then reinserted", "", 0),
    ] {
        let facts = format!("{base}{extra}");
        let m = Session::new();
        m.consult_str(&strata_program(&facts, "counting")).unwrap();
        let o = Session::new();
        o.consult_str(&strata_program(&facts, "recompute")).unwrap();
        assert_eq!(
            sorted_answers(&m, "seen(Y)", label),
            sorted_answers(&o, "seen(Y)", label)
        );
        let t0 = m.maintain_totals();
        for (op, fact) in [
            (Op::Insert, "edge(1, 3)"),
            // Undo and redo it: a count the first step got wrong would
            // keep or lose `seen(5)` here.
            (Op::Delete, "edge(1, 3)"),
            (Op::Insert, "edge(1, 3)"),
            (Op::Delete, "edge(1, 5)"),
            (Op::Delete, "edge(1, 3)"),
        ] {
            let step = [(op, fact.to_string())];
            apply(&m, &step);
            apply(&o, &step);
            let got = sorted_answers(&m, "seen(Y)", label);
            assert_eq!(got, sorted_answers(&o, "seen(Y)", label), "{label}: {fact}");
            if (op, fact) == (Op::Insert, "edge(1, 3)") {
                assert!(got.contains(&"Y = 5".to_string()), "{label}: {got:?}");
            }
            if m.maintain_totals().propagated == t0.propagated + 1 {
                let t = m.maintain_totals();
                assert_eq!(
                    (t.overdeleted - t0.overdeleted, t.rederived - t0.rederived),
                    (1, rederived),
                    "{label}: the first insertion must overdelete safe(1, 5) alone"
                );
            }
        }
        assert_eq!(
            m.maintain_totals().rebuilds,
            1,
            "{label}: repaired in place"
        );
    }
}

/// Right-linear tc answers of `edges` by breadth-first search, rendered
/// like [`sorted_answers`].
fn bfs_closure(edges: &[(usize, usize)]) -> Vec<String> {
    let n = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
    let mut succ = vec![Vec::new(); n];
    for &(a, b) in edges {
        succ[a].push(b);
    }
    let mut out = Vec::new();
    for x in 0..n {
        let mut seen = vec![false; n];
        let mut queue: Vec<usize> = succ[x].clone();
        while let Some(y) = queue.pop() {
            if !std::mem::replace(&mut seen[y], true) {
                out.push(format!("X = {x}, Y = {y}"));
                queue.extend(&succ[y]);
            }
        }
    }
    out.sort();
    out
}

/// DRed gives up on a cone it cannot win: deleting a chord of a strongly
/// connected graph overdeletes the whole closure only to rederive it,
/// so the repair stops in phase 1 — relations untouched, state stale —
/// and the next query rebuilds. A small cone in the same relation is
/// still repaired in place.
#[test]
fn dred_gives_up_on_a_cone_past_the_gate() {
    const N: usize = 150;
    const LEAF: usize = N;
    let mut edges: Vec<(usize, usize)> = (0..N).map(|i| (i, (i + 1) % N)).collect();
    edges.extend([(0, N / 2), (10, LEAF)]);
    let mut facts = String::new();
    for (a, b) in &edges {
        let _ = writeln!(facts, "edge({a}, {b}).");
    }
    let s = Session::new();
    s.consult_str(&format!(
        "{facts}module tc.\nexport path(ff).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.\n"
    ))
    .unwrap();
    assert_eq!(
        sorted_answers(&s, "path(X, Y)", "build"),
        bfs_closure(&edges)
    );
    let built = s.maintain_totals();
    assert_eq!(built.rebuilds, 1);

    // The chord: every path tuple has a derivation through it.
    assert!(s.delete_fact(&format!("edge(0, {})", N / 2)).unwrap());
    edges.retain(|e| *e != (0, N / 2));
    assert_eq!(
        sorted_answers(&s, "path(X, Y)", "chord"),
        bfs_closure(&edges)
    );
    let chord = s.maintain_totals();
    assert_eq!(
        (chord.rebuilds, chord.overdeleted, chord.propagated),
        (built.rebuilds + 1, built.overdeleted, built.propagated),
        "the chord delete must be answered by a rebuild, not a repair"
    );

    // The leaf: only the N tuples path(_, LEAF) go.
    assert!(s.delete_fact(&format!("edge(10, {LEAF})")).unwrap());
    edges.retain(|e| *e != (10, LEAF));
    assert_eq!(
        sorted_answers(&s, "path(X, Y)", "leaf"),
        bfs_closure(&edges)
    );
    let leaf = s.maintain_totals();
    assert_eq!(
        (leaf.rebuilds, leaf.overdeleted, leaf.propagated),
        (
            chord.rebuilds,
            chord.overdeleted + N as u64,
            chord.propagated + 1
        ),
        "the leaf delete must be repaired in place"
    );
}

/// Answers are a copy-on-write snapshot taken at open: a scan that has
/// delivered one answer delivers the rest of the pre-update closure
/// whatever is written meanwhile, and the next query sees all of it.
#[test]
fn open_scan_is_a_snapshot_across_updates() {
    for kind in ["dred", "recompute"] {
        let case = families::tc(7);
        let program = case.program(&format!("@maintain {kind}.\n"));
        let s = Session::new();
        s.consult_str(&program).unwrap();
        let before = sorted_answers(&s, case.query, kind);
        let first_edge = s.query_all("edge(X, Y)").unwrap()[0].tuple.to_string();
        let changes = [
            (Op::Delete, format!("edge{first_edge}")),
            (Op::Insert, "edge(3, 77)".to_string()),
        ];

        let mut open = s.query(case.query).unwrap();
        let mut drained = vec![open.next_answer().unwrap().unwrap().to_string()];
        apply(&s, &changes);
        while let Some(a) = open.next_answer().unwrap() {
            drained.push(a.to_string());
        }
        drained.sort();
        assert_eq!(drained, before, "{kind}: the open scan saw the update");

        let o = Session::new();
        o.consult_str(&case.program("@maintain recompute.\n"))
            .unwrap();
        apply(&o, &changes);
        let after = sorted_answers(&o, case.query, kind);
        assert_ne!(after, before, "{kind}: the update must change the closure");
        assert_eq!(
            sorted_answers(&s, case.query, kind),
            after,
            "{kind}: fresh query"
        );
    }
}

/// Which indexes a maintained state pays for, and when: a counting build
/// recounts derivations by joining the rules as compiled, so it gives
/// the base relations the indexes a plain call gets (without them the
/// recount is quadratic); the propagation indexes wait for the first
/// change.
#[test]
fn indexes_are_built_when_first_needed() {
    let (program, query) = counting_case(7000);
    let s = Session::new();
    s.consult_str(&program.replace("KIND", "counting")).unwrap();
    let edge = s
        .engine()
        .db()
        .get(coral_term::Symbol::intern("edge"), 2)
        .unwrap();
    let hash = edge.as_any().downcast_ref::<coral_rel::HashRelation>();
    let indices = || hash.expect("in-memory base relation").index_specs().len();
    assert_eq!(indices(), 0, "consulting indexes nothing");
    let before = sorted_answers(&s, query, "build");
    let built = indices();
    assert!(built > 0, "the recount probes edge(Z, Y) with Z bound");
    assert!(s.insert_fact("edge(3, 99)").unwrap());
    assert!(
        indices() > built,
        "the first change adds the delta-first orders"
    );
    assert_ne!(sorted_answers(&s, query, "update"), before);
    assert_eq!(s.maintain_totals().rebuilds, 1);
}
