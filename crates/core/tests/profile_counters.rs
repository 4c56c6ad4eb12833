//! Profiling counter tests: counters are nonzero on workloads that
//! exercise their layer, exactly zero when the runtime flag is off,
//! and the collected profile survives a JSON round trip.

use coral_core::profile::{self, EngineProfile};
use coral_core::session::Session;
use coral_rel::Relation;

const TC_PROGRAM: &str = "edge(1, 2). edge(2, 3). edge(3, 4). edge(2, 5). edge(5, 4).\n\
     module tc.\n\
     export path(bf).\n\
     path(X, Y) :- edge(X, Y).\n\
     path(X, Y) :- edge(X, Z), path(Z, Y).\n\
     end_module.\n";

fn total(p: &EngineProfile, key: &str) -> u64 {
    p.counters()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("profile is missing counter {key}"))
}

/// The acceptance-criterion test: a `@profile`-annotated module yields
/// an [`EngineProfile`] with nonzero counters from at least four
/// layers — term, rel, pipeline (get-next-tuple), and the fixpoint
/// sections themselves.
#[test]
fn profile_annotation_collects_four_layers() {
    if !profile::AVAILABLE {
        return;
    }
    let s = Session::new();
    // The ground fast path decides all-ground joins without ever
    // calling the unifier, so route one binding through an explicit
    // `=` to exercise the term layer.
    s.consult_str(
        &TC_PROGRAM
            .replace("module tc.", "module tc.\n@profile.")
            .replace(":- edge(X, Y).", ":- edge(X, Z), Z = Y."),
    )
    .unwrap();
    assert!(!s.profiling(), "@profile must not need the session flag");
    let answers = s.query_all("path(1, Y)").unwrap();
    assert_eq!(answers.len(), 4);
    let p = s.last_profile().expect("@profile collects a profile");

    // Layer 1: term manager.
    assert!(total(&p, "term.unify_attempts") > 0, "{p:?}");
    assert!(total(&p, "term.bindenv_allocs") > 0, "{p:?}");
    // Layer 2: relations.
    assert!(
        total(&p, "rel.index_probes") + total(&p, "rel.full_scans") > 0,
        "{p:?}"
    );
    // Layer 3: pipeline / module-call boundary.
    assert!(total(&p, "core.get_next_tuple") > 0, "{p:?}");
    assert!(total(&p, "core.join_probes") > 0, "{p:?}");
    // Layer 4: fixpoint sections.
    assert!(p.iterations() >= 1, "{p:?}");
    assert!(!p.sccs.is_empty(), "{p:?}");
    assert!(p.sccs.iter().any(|s| !s.rules.is_empty()), "{p:?}");

    assert_eq!(p.answers, 4);
    assert!(p.query.starts_with("path("), "{}", p.query);
}

/// Session-wide profiling (`set_profiling`) collects without any
/// module annotation, and the collected profile round-trips through
/// the JSON emitter exactly.
#[test]
fn session_profile_json_round_trips() {
    if !profile::AVAILABLE {
        return;
    }
    let s = Session::new();
    s.set_profiling(true);
    s.consult_str(TC_PROGRAM).unwrap();
    s.query_all("path(2, Y)").unwrap();
    let p = s.last_profile().expect("session profiling collects");
    let json = p.to_json();
    let back = EngineProfile::from_json(&json)
        .unwrap_or_else(|e| panic!("emitted JSON failed to parse: {e}\n{json}"));
    assert_eq!(p, back, "JSON round trip is lossless");
    // Turning profiling off stops collection.
    s.set_profiling(false);
    s.query_all("path(3, Y)").unwrap();
    let p2 = s.last_profile().expect("old profile is retained");
    assert_eq!(p2.query, p.query, "no new profile collected when off");
}

/// With the runtime flag off, every counter in every layer stays at
/// exactly zero across a workload that would otherwise bump them all.
#[test]
fn counters_exactly_zero_when_disabled() {
    let s = Session::new();
    assert!(!s.profiling(), "profiling defaults to off");
    profile::reset_all();
    s.consult_str(TC_PROGRAM).unwrap();
    assert_eq!(s.query_all("path(1, Y)").unwrap().len(), 4);
    for (name, value) in profile::all_counters() {
        assert_eq!(value, 0, "counter {name} bumped while disabled");
    }
    assert!(s.last_profile().is_none(), "no profile when disabled");
}

/// A query over a persistent relation shows storage-layer activity
/// (buffer-pool traffic) in the profile.
#[test]
fn storage_counters_count_persistent_io() {
    if !profile::AVAILABLE {
        return;
    }
    let dir = std::env::temp_dir().join(format!("coral-profile-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = Session::new();
    s.attach_storage(&dir, 8).unwrap();
    let edges = s.create_persistent("pedge", 2).unwrap();
    for i in 0..50i64 {
        edges
            .insert(coral_term::Tuple::ground(vec![
                coral_term::Term::int(i),
                coral_term::Term::int(i + 1),
            ]))
            .unwrap();
    }
    s.consult_str(
        "module ptc. export ppath(bf).\n\
         ppath(X, Y) :- pedge(X, Y).\n\
         ppath(X, Y) :- pedge(X, Z), ppath(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    s.set_profiling(true);
    assert_eq!(s.query_all("ppath(40, Y)").unwrap().len(), 10);
    let p = s.last_profile().expect("profile collected");
    assert!(
        total(&p, "storage.pool_hits") + total(&p, "storage.pool_misses") > 0,
        "persistent scan must touch the buffer pool: {p:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ordered Search maintains a context stack (§5.4.1); its depth shows
/// up in the core counters.
#[test]
fn ordered_search_context_depth_counted() {
    if !profile::AVAILABLE {
        return;
    }
    let s = Session::new();
    s.set_profiling(true);
    s.consult_str(
        "move(a, b). move(b, c). move(c, d). move(a, d). move(d, e).\n\
         module game.\n\
         export win(b).\n\
         @ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\n\
         end_module.",
    )
    .unwrap();
    let answers = s.query_all("win(b)").unwrap();
    let p = s.last_profile().expect("profile collected");
    assert!(
        total(&p, "core.os_context_pushes") > 0,
        "ordered search must push context nodes: {p:?} (answers: {})",
        answers.len()
    );
    assert!(total(&p, "core.os_max_context_depth") >= 1, "{p:?}");
}

/// Nested module calls (a profiled module calling another module)
/// produce one outer profile — the inner call must not clobber it.
#[test]
fn nested_module_calls_keep_outer_profile() {
    if !profile::AVAILABLE {
        return;
    }
    let s = Session::new();
    s.set_profiling(true);
    s.consult_str(
        "edge(1, 2). edge(2, 3).\n\
         module base. export hop(bf).\n\
         hop(X, Y) :- edge(X, Y).\n\
         end_module.\n\
         module outer. export reach(bf).\n\
         reach(X, Y) :- hop(X, Y).\n\
         reach(X, Y) :- hop(X, Z), reach(Z, Y).\n\
         end_module.",
    )
    .unwrap();
    assert_eq!(s.query_all("reach(1, Y)").unwrap().len(), 2);
    let p = s.last_profile().expect("profile collected");
    assert!(
        p.query.starts_with("reach("),
        "outer profile survives nested module calls: {}",
        p.query
    );
}

/// The Ordered Search high-water mark is the call's own: a later
/// profiled call that never pushes a context reports depth 0, not the
/// thread's all-time mark.
#[test]
fn context_depth_does_not_leak_into_the_next_profile() {
    if !profile::AVAILABLE {
        return;
    }
    let s = Session::new();
    s.set_profiling(true);
    s.consult_str(
        "move(a, b). move(b, c). move(c, d). move(d, e). move(e, f). move(f, g).\n\
         module game.\n\
         export win(b).\n\
         @ordered_search.\n\
         win(X) :- move(X, Y), not win(Y).\n\
         end_module.\n",
    )
    .unwrap();
    s.consult_str(TC_PROGRAM).unwrap();
    s.query_all("win(a)").unwrap();
    let os = s.last_profile().expect("profile collected");
    assert!(total(&os, "core.os_max_context_depth") > 1, "{os:?}");
    s.query_all("path(1, Y)").unwrap();
    let p = s.last_profile().expect("profile collected");
    assert_eq!(total(&p, "core.os_context_pushes"), 0, "{p:?}");
    assert_eq!(total(&p, "core.os_max_context_depth"), 0, "{p:?}");
    // The thread's totals still remember the deepest stack.
    let depth = profile::all_counters()
        .into_iter()
        .find(|(k, _)| k == "core.os_max_context_depth")
        .map(|(_, v)| v);
    assert_eq!(depth, Some(total(&os, "core.os_max_context_depth")));
}
