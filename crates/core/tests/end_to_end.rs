//! End-to-end engine tests: consult CORAL programs, query, check answers.

use coral_core::session::Session;
use coral_core::EvalError;
use coral_term::testutil::TestRng;
use coral_term::Term;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

fn answers(session: &Session, q: &str) -> Vec<String> {
    let mut out: Vec<String> = session
        .query_all(q)
        .unwrap_or_else(|e| panic!("query {q} failed: {e}"))
        .into_iter()
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn base_relation_queries() {
    let s = Session::new();
    s.consult_str("edge(1, 2). edge(2, 3). edge(1, 3).")
        .unwrap();
    assert_eq!(answers(&s, "edge(1, X)"), vec!["X = 2", "X = 3"]);
    assert_eq!(answers(&s, "edge(X, 3)"), vec!["X = 1", "X = 2"]);
    assert_eq!(answers(&s, "edge(1, 2)"), vec!["yes"]);
    assert!(answers(&s, "edge(3, 1)").is_empty());
    assert_eq!(answers(&s, "edge(X, Y)").len(), 3);
}

#[test]
fn transitive_closure_all_strategies() {
    for rewrite in ["supplementary", "magic", "goalid", "factoring", "none"] {
        let s = Session::new();
        s.consult_str(&format!(
            "edge(1, 2). edge(2, 3). edge(3, 4). edge(2, 5).\n\
             module tc.\n\
             export path(bf, ff).\n\
             @rewrite {rewrite}.\n\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             end_module.\n"
        ))
        .unwrap();
        assert_eq!(
            answers(&s, "path(1, Y)"),
            vec!["Y = 2", "Y = 3", "Y = 4", "Y = 5"],
            "rewrite={rewrite}"
        );
        assert_eq!(answers(&s, "path(X, Y)").len(), 8, "rewrite={rewrite}");
        assert_eq!(
            answers(&s, "path(3, Y)"),
            vec!["Y = 4"],
            "rewrite={rewrite}"
        );
    }
}

#[test]
fn left_linear_ancestor() {
    let s = Session::new();
    s.consult_str(
        "par(a, b). par(b, c). par(c, d). par(a, e).\n\
         module anc.\n\
         export anc(bf).\n\
         anc(X, Y) :- par(X, Y).\n\
         anc(X, Y) :- anc(X, Z), par(Z, Y).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(
        answers(&s, "anc(a, Y)"),
        vec!["Y = b", "Y = c", "Y = d", "Y = e"]
    );
    assert_eq!(answers(&s, "anc(c, Y)"), vec!["Y = d"]);
}

#[test]
fn magic_restricts_computation() {
    // With a bound query the magic-rewritten program must not touch the
    // unreachable component of the graph. We observe this through the
    // explain dump (rules exist) and by a disconnected-graph query being
    // cheap/correct.
    let s = Session::new();
    let mut facts = String::new();
    for i in 0..50 {
        facts.push_str(&format!("edge({i}, {}).\n", i + 1));
        facts.push_str(&format!("edge({}, {}).\n", 1000 + i, 1000 + i + 1));
    }
    s.consult_str(&facts).unwrap();
    s.consult_str(
        "module tc. export path(bf).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    // Only the 1000-chain is reachable from 1025.
    assert_eq!(answers(&s, "path(1025, Y)").len(), 25);
    let explain = s
        .engine()
        .explain(
            coral_lang::PredRef::new("path", 2),
            &coral_lang::Adornment::parse("bf").unwrap(),
        )
        .unwrap();
    assert!(explain.contains("m_path__bf"), "{explain}");
}

#[test]
fn same_generation() {
    let s = Session::new();
    s.consult_str(
        "up(a, p1). up(b, p1). up(p1, g1). up(p2, g1). up(c, p2).\n\
         flat(g1, g1).\n\
         down(g1, p1). down(g1, p2). down(p1, a). down(p1, b). down(p2, c).\n\
         module sg.\n\
         export sg(bf).\n\
         sg(X, Y) :- flat(X, Y).\n\
         sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "sg(a, Y)"), vec!["Y = a", "Y = b", "Y = c"]);
}

/// The complete program of Figure 3, verbatim.
const FIGURE_3: &str = r#"
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
"#;

#[test]
fn figure_3_shortest_path() {
    // The complete program of Figure 3, on a cyclic graph: without the
    // aggregate selections this would diverge (cyclic paths of increasing
    // length); with them the single-source query terminates.
    let s = Session::new();
    s.consult_str(
        "edge(a, b, 2). edge(b, c, 3). edge(a, c, 10). edge(c, a, 1).\n\
         edge(c, d, 2). edge(b, d, 10).\n",
    )
    .unwrap();
    s.consult_str(FIGURE_3).unwrap();
    let got = answers(&s, "s_p(a, Y, P, C)");
    // Shortest costs from a: b=2, c=5 (a-b-c), d=7 (a-b-c-d).
    assert_eq!(got.len(), 4, "{got:?}"); // b, c, d, and a itself via cycle a-b-c-a cost 6
    assert!(
        got.iter()
            .any(|a| a.contains("Y = b") && a.contains("C = 2")),
        "{got:?}"
    );
    assert!(
        got.iter().any(|a| a.contains("Y = c")
            && a.contains("C = 5")
            && a.contains("P = [edge(b, c), edge(a, b)]")),
        "{got:?}"
    );
    assert!(
        got.iter()
            .any(|a| a.contains("Y = d") && a.contains("C = 7")),
        "{got:?}"
    );
    assert!(
        got.iter()
            .any(|a| a.contains("Y = a") && a.contains("C = 6")),
        "{got:?}"
    );
}

#[test]
fn figure_3_on_a_64_node_graph_matches_dijkstra() {
    // Large enough that the cost-based planner reorders the path
    // rule's body: `append/3` must still run only after `p` and `edge`
    // have bound its inputs, or the rule is refused as unsafe.
    const NODES: usize = 64;
    let mut rng = TestRng::new(3);
    // A ring keeps every node reachable from 0; chords add shortcuts.
    let mut edges: Vec<(usize, usize, u64)> = (0..NODES)
        .map(|a| (a, (a + 1) % NODES, rng.gen_range(1, 10) as u64))
        .collect();
    for _ in 0..3 * NODES {
        let (a, b) = (rng.gen_range(0, NODES), rng.gen_range(0, NODES));
        if a != b && !edges.iter().any(|&(x, y, _)| (x, y) == (a, b)) {
            edges.push((a, b, rng.gen_range(1, 10) as u64));
        }
    }
    let s = Session::new();
    let facts: String = edges
        .iter()
        .map(|(a, b, c)| format!("edge({a}, {b}, {c}).\n"))
        .collect();
    s.consult_str(&facts).unwrap();
    s.consult_str(FIGURE_3).unwrap();

    // Dijkstra from 0 over paths of at least one edge (node 0's own
    // entry is its cheapest cycle, as in Figure 3's semantics).
    let mut best: HashMap<usize, u64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = edges
        .iter()
        .filter(|e| e.0 == 0)
        .map(|&(_, b, c)| Reverse((c, b)))
        .collect();
    while let Some(Reverse((d, n))) = heap.pop() {
        if best.contains_key(&n) {
            continue;
        }
        best.insert(n, d);
        for &(_, b, c) in edges.iter().filter(|e| e.0 == n) {
            heap.push(Reverse((d + c, b)));
        }
    }
    assert_eq!(best.len(), NODES);

    let got = s.query_all("s_p(0, Y, P, C)").unwrap();
    assert_eq!(got.len(), NODES, "one shortest path per node");
    let cost_of: HashMap<(i64, i64), u64> = edges
        .iter()
        .map(|&(a, b, c)| ((a as i64, b as i64), c))
        .collect();
    for a in &got {
        let cols = a.tuple.args();
        let (Term::Int(y), Term::Int(c)) = (&cols[1], &cols[3]) else {
            panic!("non-integer answer {a}");
        };
        assert_eq!(best[&(*y as usize)], *c as u64, "cost to {y}: {a}");
        // The witness path's edges sum to the reported cost.
        let witness: u64 = cols[2]
            .list_elems()
            .expect("path is a list")
            .iter()
            .map(|e| {
                let e = e.as_app().expect("edge(_, _) term");
                let (Term::Int(x), Term::Int(y)) = (&e.args()[0], &e.args()[1]) else {
                    panic!("non-integer edge in {a}");
                };
                cost_of[&(*x, *y)]
            })
            .sum();
        assert_eq!(witness, *c as u64, "witness cost: {a}");
    }
}

#[test]
fn stratified_negation() {
    let s = Session::new();
    s.consult_str(
        "node(a). node(b). node(c). node(d).\n\
         edge(a, b). edge(b, c).\n\
         module r.\n\
         export unreachable(f).\n\
         export reach(f).\n\
         reach(a).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         unreachable(X) :- node(X), not reach(X).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "unreachable(X)"), vec!["X = d"]);
    assert_eq!(answers(&s, "reach(X)"), vec!["X = a", "X = b", "X = c"]);
}

#[test]
fn aggregation_rules() {
    let s = Session::new();
    s.consult_str(
        "sale(east, 10). sale(east, 20). sale(west, 5). sale(west, 5). sale(north, 7).\n\
         module agg.\n\
         export totals(ff).\n\
         export stats(fff).\n\
         totals(R, sum(V)) :- sale(R, V).\n\
         stats(R, count(V), max(V)) :- sale(R, V).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(
        answers(&s, "totals(R, V)"),
        vec!["R = east, V = 30", "R = north, V = 7", "R = west, V = 5"]
    );
    assert_eq!(
        answers(&s, "stats(R, C, M)"),
        vec![
            "R = east, C = 2, M = 20",
            "R = north, C = 1, M = 7",
            "R = west, C = 1, M = 5"
        ]
    );
    // Bound query on the group column.
    assert_eq!(answers(&s, "totals(east, V)"), vec!["V = 30"]);
}

#[test]
fn pipelined_module() {
    let s = Session::new();
    s.consult_str(
        "edge(1, 2). edge(2, 3). edge(3, 4).\n\
         module tc.\n\
         export path(bf).\n\
         @pipelining.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "path(1, Y)"), vec!["Y = 2", "Y = 3", "Y = 4"]);
    // First answer arrives without computing the rest: grab one and stop.
    let mut ans = s.query("path(1, Y)").unwrap();
    let first = ans.next_answer().unwrap().unwrap();
    assert_eq!(first.to_string(), "Y = 2", "rule order respected");
}

#[test]
fn pipelined_and_materialized_modules_interact() {
    // A materialized module consuming a pipelined module's export and
    // vice versa (§5.6's transparency).
    let s = Session::new();
    s.consult_str(
        "edge(1, 2). edge(2, 3).\n\
         module base.\n\
         export hop(bf).\n\
         @pipelining.\n\
         hop(X, Y) :- edge(X, Y).\n\
         end_module.\n\
         module tc.\n\
         export path2(bf).\n\
         path2(X, Y) :- hop(X, Y).\n\
         path2(X, Y) :- hop(X, Z), path2(Z, Y).\n\
         end_module.\n\
         module top.\n\
         export query_both(bf).\n\
         @pipelining.\n\
         query_both(X, Y) :- path2(X, Y).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "query_both(1, Y)"), vec!["Y = 2", "Y = 3"]);
}

#[test]
fn lazy_module_yields_per_iteration() {
    let s = Session::new();
    let mut facts = String::new();
    for i in 0..20 {
        facts.push_str(&format!("edge({i}, {}).\n", i + 1));
    }
    s.consult_str(&facts).unwrap();
    s.consult_str(
        "module tc.\n\
         export path(bf).\n\
         @lazy.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n",
    )
    .unwrap();
    let mut ans = s.query("path(0, Y)").unwrap();
    let first = ans.next_answer().unwrap().unwrap();
    assert_eq!(first.to_string(), "Y = 1");
    // The remaining 19 answers still arrive.
    let rest = ans.collect_all().unwrap();
    assert_eq!(rest.len(), 19);
}

#[test]
fn save_module_retains_state_and_rejects_recursion() {
    let s = Session::new();
    let mut facts = String::new();
    for i in 0..30 {
        facts.push_str(&format!("edge({i}, {}).\n", i + 1));
    }
    s.consult_str(&facts).unwrap();
    s.consult_str(
        "module tc.\n\
         export path(bf).\n\
         @save_module.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n",
    )
    .unwrap();
    let derived = |mdef: &coral_core::engine::ModuleDef| -> u64 {
        coral_core::save_module::saved_stats(mdef)
            .iter()
            .map(|st| st.facts_derived)
            .sum()
    };
    // First call: subgoals 20..30.
    assert_eq!(answers(&s, "path(20, Y)").len(), 10);
    let mdef = s
        .engine()
        .module_of(coral_lang::PredRef::new("path", 2))
        .unwrap();
    let after_first = derived(&mdef);
    // Repeat: answered from the saved state, nothing new derived.
    assert_eq!(answers(&s, "path(20, Y)").len(), 10);
    assert_eq!(
        derived(&mdef),
        after_first,
        "repeat call derived nothing new"
    );
    // A wider query adds only the missing subgoals' work; the shared
    // suffix 20..30 is reused, and the earlier answers remain available.
    assert_eq!(answers(&s, "path(0, Y)").len(), 30);
    let after_second = derived(&mdef);
    assert!(after_second > after_first, "new subquery adds some work");
    // Covered subquery: everything already derived.
    assert_eq!(answers(&s, "path(10, Y)").len(), 20);
    assert_eq!(
        derived(&mdef),
        after_second,
        "covered subquery fully reused"
    );
}

#[test]
fn save_module_with_aggregation_rejected_at_load() {
    let s = Session::new();
    let err = s
        .consult_str(
            "module bad.\n\
             export t(ff).\n\
             @save_module.\n\
             t(X, min(C)) :- e(X, C).\n\
             end_module.\n",
        )
        .unwrap_err();
    assert!(matches!(err, EvalError::ModuleProtocol(_)));
}

#[test]
fn ordered_search_win_move() {
    // The win-move game: win(X) :- move(X, Y), not win(Y) — not
    // stratified (win depends negatively on itself) but left-to-right
    // modularly stratified on an acyclic move graph.
    let s = Session::new();
    s.consult_str(
        "move(a, b). move(b, c). move(c, d). move(a, d). move(d, e).\n\
         module game.\n\
         export win(b).\n\
         @ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\n\
         end_module.\n",
    )
    .unwrap();
    // e has no moves: lost. d -> e: won. c -> d: lost... wait c -> d
    // (win) means c only moves to winning positions: lost. b -> c
    // (lost): won. a -> b (won), a -> d (won): lost.
    assert_eq!(answers(&s, "win(d)"), vec!["yes"]);
    assert_eq!(answers(&s, "win(b)"), vec!["yes"]);
    assert!(answers(&s, "win(c)").is_empty());
    assert!(answers(&s, "win(e)").is_empty());
    assert!(answers(&s, "win(a)").is_empty());
}

#[test]
fn unstratified_without_ordered_search_errors() {
    let s = Session::new();
    s.consult_str(
        "move(a, b).\n\
         module game.\n\
         export win(b).\n\
         win(X) :- move(X, Y), not win(Y).\n\
         end_module.\n",
    )
    .unwrap();
    let err = s.query_all("win(a)").unwrap_err();
    assert!(matches!(err, EvalError::Unstratified(_)), "{err}");
}

#[test]
fn existential_query_projection() {
    let s = Session::new();
    s.consult_str(
        "edge(1, 2). edge(2, 3). edge(1, 3).\n\
         module tc.\n\
         export path(ff).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n",
    )
    .unwrap();
    // Anonymous second argument: answers report only X.
    let got = answers(&s, "path(X, _)");
    assert_eq!(got, vec!["X = 1", "X = 2"]);
}

#[test]
fn multiset_semantics_keeps_derivations() {
    let s = Session::new();
    s.consult_str(
        "e(1, 2). e(2, 2).\n\
         module m.\n\
         export two(f).\n\
         @multiset two/1.\n\
         two(Y) :- e(X, Y).\n\
         end_module.\n",
    )
    .unwrap();
    // Y=2 has two derivations (from X=1 and X=2).
    let mut ans = s.query("two(Y)").unwrap();
    let all = ans.collect_all().unwrap();
    assert_eq!(all.len(), 2);
    assert!(all.iter().all(|a| a.to_string() == "Y = 2"));
}

#[test]
fn psn_matches_bsn_results() {
    let program = |fix: &str| {
        format!(
            "module mu.\n\
             export p(bf).\n\
             @{fix}.\n\
             p(X, Y) :- e(X, Y).\n\
             p(X, Y) :- q(X, Z), e(Z, Y).\n\
             q(X, Y) :- e(X, Y).\n\
             q(X, Y) :- p(X, Z), e(Z, Y).\n\
             end_module.\n"
        )
    };
    let mut results = Vec::new();
    for fix in ["bsn", "psn"] {
        let s = Session::new();
        let mut facts = String::new();
        for i in 0..12 {
            facts.push_str(&format!("e({i}, {}).\n", i + 1));
            facts.push_str(&format!("e({i}, {}).\n", (i * 7) % 13));
        }
        s.consult_str(&facts).unwrap();
        s.consult_str(&program(fix)).unwrap();
        results.push(answers(&s, "p(0, Y)"));
    }
    assert_eq!(results[0], results[1]);
    assert!(!results[0].is_empty());
}

#[test]
fn builtins_in_rules() {
    let s = Session::new();
    s.consult_str(
        "item(1). item(2).\n\
         module lists.\n\
         export pairlist(ff).\n\
         export third(f).\n\
         pairlist(X, L) :- item(X), append([X], [99], L).\n\
         third(X) :- member(X, [10, 20, 30]).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(
        answers(&s, "pairlist(X, L)"),
        vec!["X = 1, L = [1, 99]", "X = 2, L = [2, 99]"]
    );
    assert_eq!(answers(&s, "third(X)"), vec!["X = 10", "X = 20", "X = 30"]);
}

#[test]
fn nonground_facts_unify_with_queries() {
    let s = Session::new();
    // likes(X, pizza): everyone likes pizza.
    s.consult_str("likes(X, pizza). likes(mary, fish).")
        .unwrap();
    let got = answers(&s, "likes(mary, W)");
    assert_eq!(got, vec!["W = fish", "W = pizza"]);
    // The universal fact answers for any first argument.
    assert_eq!(answers(&s, "likes(bob, pizza)"), vec!["yes"]);
}

#[test]
fn query_forms_enforced() {
    let s = Session::new();
    s.consult_str(
        "edge(1, 2).\n\
         module tc.\n\
         export path(bf).\n\
         path(X, Y) :- edge(X, Y).\n\
         end_module.\n",
    )
    .unwrap();
    // ff query is not a declared form.
    let err = s.query_all("path(X, Y)").unwrap_err();
    assert!(matches!(err, EvalError::BadQueryForm(_)));
    // bb query is served by the bf form with a post-selection.
    assert_eq!(answers(&s, "path(1, 2)"), vec!["yes"]);
}

#[test]
fn unknown_predicate_errors() {
    let s = Session::new();
    s.consult_str("edge(1, 2).").unwrap();
    assert!(matches!(
        s.query_all("nosuch(X)").unwrap_err(),
        EvalError::UnknownPredicate(_)
    ));
}

#[test]
fn arithmetic_in_rules() {
    let s = Session::new();
    s.consult_str(
        "n(1). n(2). n(3).\n\
         module m.\n\
         export doubled(ff).\n\
         export bigs(f).\n\
         doubled(X, Y) :- n(X), Y = X * 2.\n\
         bigs(X) :- n(X), X >= 2.\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(
        answers(&s, "doubled(X, Y)"),
        vec!["X = 1, Y = 2", "X = 2, Y = 4", "X = 3, Y = 6"]
    );
    assert_eq!(answers(&s, "bigs(X)"), vec!["X = 2", "X = 3"]);
}

#[test]
fn consult_runs_embedded_queries() {
    let s = Session::new();
    let results = s
        .consult_str(
            "edge(7, 8).\n\
             ?- edge(7, X).\n\
             ?- edge(9, X).\n",
        )
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0][0].to_string(), "X = 8");
    assert!(results[1].is_empty());
}

#[test]
fn ablation_annotations_do_not_change_results() {
    // @no_intelligent_backtracking and @no_auto_index are pure
    // performance knobs: answers are identical.
    let mut per_mode = Vec::new();
    for ann in ["", "@no_intelligent_backtracking.\n", "@no_auto_index.\n"] {
        let s = Session::new();
        let mut facts = String::new();
        for i in 0..30 {
            facts.push_str(&format!("edge({i}, {}).\n", i + 1));
            facts.push_str(&format!("edge({i}, {}).\n", (i * 3) % 31));
        }
        s.consult_str(&facts).unwrap();
        s.consult_str(&format!(
            "module tc. export path(bf).\n{ann}\
             path(X, Y) :- edge(X, Y).\n\
             path(X, Y) :- edge(X, Z), path(Z, Y).\n\
             end_module."
        ))
        .unwrap();
        per_mode.push(answers(&s, "path(0, Y)"));
    }
    assert_eq!(per_mode[0], per_mode[1]);
    assert_eq!(per_mode[0], per_mode[2]);
    assert!(!per_mode[0].is_empty());
}

#[test]
fn builtin_library_predicates() {
    let s = Session::new();
    s.consult_str(
        "module lib.\n\
         export rev(f).\n\
         export pick(ff).\n\
         export range(f).\n\
         export total(f).\n\
         export sorted(f).\n\
         rev(R) :- reverse([1, 2, 3], R).\n\
         pick(I, E) :- nth1(I, [a, b, c], E).\n\
         range(X) :- between(2, 5, X).\n\
         total(S) :- sum_list([1, 2, 3, 4], S).\n\
         sorted(L) :- sort([3, 1, 2, 1], L).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "rev(R)"), vec!["R = [3, 2, 1]"]);
    assert_eq!(
        answers(&s, "pick(I, E)"),
        vec!["I = 1, E = a", "I = 2, E = b", "I = 3, E = c"]
    );
    assert_eq!(answers(&s, "pick(2, E)"), vec!["E = b"]);
    assert_eq!(
        answers(&s, "range(X)"),
        vec!["X = 2", "X = 3", "X = 4", "X = 5"]
    );
    assert_eq!(answers(&s, "total(S)"), vec!["S = 10"]);
    assert_eq!(answers(&s, "sorted(L)"), vec!["L = [1, 2, 3]"]);
}

#[test]
fn builtin_misuse_reports_unsafe() {
    let s = Session::new();
    s.consult_str("module lib.\nexport bad(f).\nbad(X) :- between(X, 5, 3).\nend_module.\n")
        .unwrap();
    assert!(matches!(
        s.query_all("bad(X)").unwrap_err(),
        EvalError::Unsafe(_)
    ));
}

#[test]
fn pipelined_side_effect_updates() {
    // §5.2: pipelining guarantees evaluation order, so side-effecting
    // update predicates are usable.
    let s = Session::new();
    s.consult_str(
        "stock(widget, 5). stock(gadget, 2).\n\
         module upd.\n\
         export restock(b).\n\
         export audit(bf).\n\
         @pipelining.\n\
         restock(P) :- stock(P, N), retract(stock(P, N)), M = N + 10,\n\
                       assert(stock(P, M)).\n\
         audit(P, N) :- stock(P, N).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "restock(widget)"), vec!["yes"]);
    assert_eq!(answers(&s, "audit(widget, N)"), vec!["N = 15"]);
    assert_eq!(answers(&s, "audit(gadget, N)"), vec!["N = 2"]);
    // Retract of an absent fact fails the rule.
    s.consult_str(
        "module upd2.\nexport drop_it(b).\n@pipelining.\n\
         drop_it(P) :- retract(stock(P, 999)).\nend_module.\n",
    )
    .unwrap();
    assert!(answers(&s, "drop_it(widget)").is_empty());
    // Updating a derived relation is a protocol error.
    s.consult_str(
        "module upd3.\nexport bad(b).\n@pipelining.\n\
         bad(P) :- assert(audit(P, 1)).\nend_module.\n",
    )
    .unwrap();
    assert!(matches!(
        s.query_all("bad(widget)").unwrap_err(),
        EvalError::ModuleProtocol(_)
    ));
}

#[test]
fn ordered_search_even_odd() {
    // even(X) over a successor chain via negation: even(X) :- succ(Y, X),
    // not even(Y) — modularly stratified along the chain.
    let s = Session::new();
    let mut facts = String::from("zero(0).\n");
    for i in 0..10 {
        facts.push_str(&format!("succ({i}, {}).\n", i + 1));
    }
    s.consult_str(&facts).unwrap();
    s.consult_str(
        "module parity.\n\
         export even(b).\n\
         @ordered_search.\n\
         even(X) :- zero(X).\n\
         even(X) :- succ(Y, X), not even(Y), succ(Z, Y), even(Z).\n\
         end_module.\n",
    )
    .unwrap();
    for i in 0..=10 {
        let got = !answers(&s, &format!("even({i})")).is_empty();
        assert_eq!(got, i % 2 == 0, "parity of {i}");
    }
}

#[test]
fn strategy_mixing_across_modules() {
    // A pipelined module calls an ordered-search module and a save
    // module; all three interact through the uniform scan interface.
    let s = Session::new();
    s.consult_str(
        "move(a, b). move(b, c).\n\
         edge(1, 2). edge(2, 3).\n",
    )
    .unwrap();
    s.consult_str(
        "module game.\nexport win(b).\n@ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\nend_module.\n\
         module tc.\nexport path(bf).\n@save_module.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.\n\
         module front.\nexport report(ff).\n@pipelining.\n\
         report(P, N) :- move(P, _), win(P), path(1, N).\nend_module.\n",
    )
    .unwrap();
    // win(a): a->b, win(b)? b->c, win(c)? c has no moves: lost => win(b),
    // so a is lost; only b wins among movers... report pairs winners with
    // nodes reachable from 1.
    assert_eq!(
        answers(&s, "report(P, N)"),
        vec!["P = b, N = 2", "P = b, N = 3"]
    );
}

#[test]
fn top_level_annotations_on_base_relations() {
    let s = Session::new();
    // Index and aggregate selection declared before the facts arrive.
    s.consult_str(
        "@make_index best(K, V) (K).\n\
         @aggregate_selection best(K, V) (K) max(V).\n\
         best(a, 1). best(a, 9). best(a, 4). best(b, 2).\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "best(a, V)"), vec!["V = 9"]);
    assert_eq!(answers(&s, "best(b, V)"), vec!["V = 2"]);
    // Multiset must precede facts.
    let s2 = Session::new();
    s2.consult_str("m(1).").unwrap();
    assert!(s2.consult_str("@multiset m/1.").is_err());
}

#[test]
fn lazy_save_and_psn_compose_with_negation() {
    let s = Session::new();
    s.consult_str("node(1). node(2). node(3). edge(1, 2).")
        .unwrap();
    s.consult_str(
        "module m.\nexport lonely(f).\n@psn.\n@lazy.\n\
         linked(X) :- edge(X, _).\n\
         linked(X) :- edge(_, X).\n\
         lonely(X) :- node(X), not linked(X).\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(answers(&s, "lonely(X)"), vec!["X = 3"]);
}

#[test]
fn module_redefinition_takes_effect() {
    let s = Session::new();
    s.consult_str("e(1, 2).").unwrap();
    s.consult_str("module v1. export p(f).\np(X) :- e(X, _).\nend_module.")
        .unwrap();
    assert_eq!(answers(&s, "p(X)"), vec!["X = 1"]);
    // Reload with a different definition: the newest export wins.
    s.consult_str("module v2. export p(f).\np(X) :- e(_, X).\nend_module.")
        .unwrap();
    assert_eq!(answers(&s, "p(X)"), vec!["X = 2"]);
}

#[test]
fn bignum_arithmetic_in_programs() {
    let s = Session::new();
    s.consult_str("n(1).").unwrap();
    s.consult_str(
        "module big.\nexport fact(bf).\n\
         fact(0, 1).\n\
         fact(N, F) :- N > 0, M = N - 1, fact(M, F1), F = F1 * N.\n\
         end_module.\n",
    )
    .unwrap();
    let got = answers(&s, "fact(25, F)");
    // 25! overflows i64; the engine promotes to arbitrary precision.
    assert_eq!(got, vec!["F = 15511210043330985984000000"]);
}

#[test]
fn string_and_double_comparisons_in_rules() {
    let s = Session::new();
    s.consult_str("city(madison, 0.27). city(chicago, 2.7). city(aurora, 0.18).\n")
        .unwrap();
    s.consult_str(
        "module m.\nexport big_city(ff).\nexport after(bf).\n\
         big_city(C, P) :- city(C, P), P >= 0.25.\n\
         after(X, C) :- city(C, _), C > X.\n\
         end_module.\n",
    )
    .unwrap();
    assert_eq!(
        answers(&s, "big_city(C, P)"),
        vec!["C = chicago, P = 2.7", "C = madison, P = 0.27"]
    );
    assert_eq!(
        answers(&s, "after(aurora, C)"),
        vec!["C = chicago", "C = madison"]
    );
}

#[test]
fn rules_over_nonground_facts() {
    // CORAL facts may contain universally quantified variables; rules
    // joining them derive (possibly non-ground) consequences with
    // subsumption-based duplicate elimination.
    let s = Session::new();
    s.consult_str(
        "likes(X, pizza).\n\
         likes(mary, fish).\n\
         person(mary). person(bob).\n",
    )
    .unwrap();
    s.consult_str(
        "module m.\n\
         export pizza_fan(f).\n\
         export pair(ff).\n\
         pizza_fan(P) :- person(P), likes(P, pizza).\n\
         pair(P, F) :- person(P), likes(P, F).\n\
         end_module.\n",
    )
    .unwrap();
    // The universal fact makes every person a pizza fan.
    assert_eq!(answers(&s, "pizza_fan(P)"), vec!["P = bob", "P = mary"]);
    assert_eq!(
        answers(&s, "pair(P, F)"),
        vec![
            "P = bob, F = pizza",
            "P = mary, F = fish",
            "P = mary, F = pizza"
        ]
    );
}

#[test]
fn derived_nonground_heads() {
    let s = Session::new();
    // t(X) holds for every X (via the non-ground base fact).
    s.consult_str("u(X, X).").unwrap();
    s.consult_str("module m.\nexport t(f).\nt(Y) :- u(Y, _).\nend_module.\n")
        .unwrap();
    // The derived relation contains the non-ground fact t(V0); a ground
    // query instantiates it.
    assert_eq!(answers(&s, "t(42)"), vec!["yes"]);
    let open = s.query_all("t(Z)").unwrap();
    assert_eq!(open.len(), 1, "one subsuming non-ground answer");
    assert!(!open[0].tuple.is_ground());
}

#[test]
fn complex_terms_propagate_through_magic() {
    // Bound arguments that are functor terms flow through magic seeds,
    // supplementary tuples and (for goalid) packed goal terms.
    for rw in ["supplementary", "magic", "goalid"] {
        let s = Session::new();
        s.consult_str(
            "step(point(0, 0), point(0, 1)). step(point(0, 1), point(1, 1)).\n\
             step(point(1, 1), point(2, 1)). step(point(5, 5), point(6, 5)).\n",
        )
        .unwrap();
        s.consult_str(&format!(
            "module walk.\nexport route(bf).\n@rewrite {rw}.\n\
             route(A, B) :- step(A, B).\n\
             route(A, B) :- step(A, C), route(C, B).\n\
             end_module.\n"
        ))
        .unwrap();
        assert_eq!(
            answers(&s, "route(point(0, 0), B)"),
            vec!["B = point(0, 1)", "B = point(1, 1)", "B = point(2, 1)"],
            "rewrite={rw}"
        );
    }
}

#[test]
fn user_index_annotations_inside_modules() {
    let s = Session::new();
    let mut facts = String::new();
    for i in 0..50 {
        facts.push_str(&format!(
            "emp(name{}, addr(street{i}, city{})).\n",
            i % 10,
            i % 5
        ));
    }
    s.consult_str(&facts).unwrap();
    // §5.5.1's pattern index, declared inside a module on a base
    // relation probed by its rules.
    s.consult_str(
        "module hr.\n\
         export in_city(bbf).\n\
         @make_index emp(Name, addr(Street, City)) (Name, City).\n\
         in_city(N, C, S) :- emp(N, addr(S, C)).\n\
         end_module.\n",
    )
    .unwrap();
    let got = answers(&s, "in_city(name3, city3, S)");
    assert_eq!(got.len(), 5, "{got:?}");
    assert!(got.iter().all(|a| a.starts_with("S = street")));
}

#[test]
fn reorder_joins_preserves_results_and_helps() {
    // Body written selectivity-backwards: big(Y, Z) first, the selective
    // sel(X, Y) second. With @reorder_joins the optimizer runs sel first
    // (its argument is bound by the query), turning big into an indexed
    // probe.
    let mut facts = String::new();
    for i in 0..200 {
        for j in 0..20 {
            facts.push_str(&format!("big({i}, {j}).\n"));
        }
    }
    facts.push_str("sel(k, 7).\n");
    let run = |ann: &str| {
        let s = Session::new();
        s.consult_str(&facts).unwrap();
        s.consult_str(&format!(
            "module m.\nexport p(bf).\n{ann}\
             p(X, Z) :- big(Y, Z), sel(X, Y).\n\
             end_module."
        ))
        .unwrap();
        let t0 = std::time::Instant::now();
        let got = answers(&s, "p(k, Z)");
        (got, t0.elapsed())
    };
    let (plain, t_plain) = run("");
    let (reordered, t_reordered) = run("@reorder_joins.\n");
    assert_eq!(plain, reordered);
    assert_eq!(plain.len(), 20);
    // Not timing-asserted strictly (CI variance), but it should not be
    // slower by much; print for the record.
    eprintln!("plain={t_plain:?} reordered={t_reordered:?}");
}

#[test]
fn reorder_joins_respects_negation_barriers() {
    let s = Session::new();
    s.consult_str("a(1). a(2). blocked(2). b(1). b(2).")
        .unwrap();
    s.consult_str(
        "module m.\nexport ok(f).\n@reorder_joins.\n\
         ok(X) :- a(X), not blocked(X), b(X).\n\
         end_module.",
    )
    .unwrap();
    assert_eq!(answers(&s, "ok(X)"), vec!["X = 1"]);
}

#[test]
fn ordered_search_rejects_cyclic_negation() {
    // win over a cyclic move graph is NOT left-to-right modularly
    // stratified: the subgoal for win(a) regenerates itself through
    // negation. Ordered Search must detect the collapse and refuse.
    let s = Session::new();
    s.consult_str("move(a, b). move(b, a).").unwrap();
    s.consult_str(
        "module game.\nexport win(b).\n@ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\nend_module.\n",
    )
    .unwrap();
    assert!(matches!(
        s.query_all("win(a)").unwrap_err(),
        EvalError::Unstratified(_)
    ));
}

#[test]
fn ordered_search_shared_subgoals() {
    // Two parents share a losing child: its done-mark must serve both.
    let s = Session::new();
    s.consult_str("move(a, c). move(b, c). move(c, d).")
        .unwrap();
    s.consult_str(
        "module game.\nexport win(b).\n@ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\nend_module.\n",
    )
    .unwrap();
    // d: no moves, lost. c -> d: won. a -> c(win): lost. b -> c(win): lost.
    assert!(answers(&s, "win(c)") == vec!["yes"]);
    assert!(answers(&s, "win(a)").is_empty());
    assert!(answers(&s, "win(b)").is_empty());
}

#[test]
fn ordered_search_calls_are_independent() {
    // OS state is per-call (no save): repeated and different queries
    // must not interfere.
    let s = Session::new();
    s.consult_str("move(a, b). move(b, c).").unwrap();
    s.consult_str(
        "module game.\nexport win(b).\n@ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\nend_module.\n",
    )
    .unwrap();
    for _ in 0..3 {
        assert_eq!(answers(&s, "win(b)"), vec!["yes"]);
        assert!(answers(&s, "win(a)").is_empty());
        assert!(answers(&s, "win(c)").is_empty());
    }
}

#[test]
fn lazy_scan_dropped_midway_is_clean() {
    // Abandoning a lazy scan (frozen fixpoint) must not corrupt later
    // queries.
    let s = Session::new();
    let mut facts = String::new();
    for i in 0..100 {
        facts.push_str(&format!("edge({i}, {}).\n", i + 1));
    }
    s.consult_str(&facts).unwrap();
    s.consult_str(
        "module tc. export path(bf).\n@lazy.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    {
        let mut partial = s.query("path(0, Y)").unwrap();
        let _ = partial.next_answer().unwrap();
        // Dropped here with ~99 answers never materialized.
    }
    assert_eq!(answers(&s, "path(0, Y)").len(), 100);
}
