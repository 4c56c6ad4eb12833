//! Crash matrix for maintenance-catalog persistence: a session builds
//! maintained states for `@maintain dred|counting` modules, mutates base
//! facts, and checkpoints (which persists the maintenance catalog to the
//! `maintain.cat` heap file). The disk crashes at *every* mutating I/O
//! operation in turn; after the power cycle a fresh session recovers,
//! re-consults the program, replays the surviving mutation history, and
//! its maintained answers must equal a from-scratch recompute oracle.
//!
//! The catalog's contract is *consistent or stale-forcing-recompute,
//! never silently wrong*: a torn catalog record, a half-rewritten
//! delete-all-then-insert, or a catalog from an older checkpoint whose
//! base fingerprint no longer matches must all be silently discarded so
//! the maintained state rebuilds from the live base — answers identical
//! either way. The matrix also asserts both recovery paths actually
//! occur: at least one crash point restores from the persisted catalog
//! (zero rebuilds) and at least one is forced to rebuild.

use coral_core::session::Session;
use coral_sim::SimVfs;
use coral_storage::{StorageClient, StorageServer, Vfs};
use std::path::Path;
use std::sync::Arc;

const DIR: &str = "/mntdb";
const FRAMES: usize = 24;

/// One recursive DRed module and one non-recursive counting module over
/// shared base relations, so a single matrix covers both strategies.
const PROGRAM: &str = "\
    edge(1, 2). edge(2, 3). edge(3, 4). edge(1, 3). edge(4, 6).\n\
    blocked(2, 3).\n\
    module tcm.\n\
    export path(ff).\n\
    @maintain dred.\n\
    path(X, Y) :- edge(X, Y).\n\
    path(X, Y) :- edge(X, Z), path(Z, Y).\n\
    end_module.\n\
    module cnt.\n\
    export hop(ff).\n\
    @maintain counting.\n\
    hop(X, Y) :- edge(X, Z), edge(Z, Y), not blocked(X, Z).\n\
    end_module.\n";

/// [`PROGRAM`] with both modules pinned to `@maintain recompute`: the
/// from-scratch oracle.
fn recompute_program() -> String {
    PROGRAM
        .replace("@maintain dred.", "@maintain recompute.")
        .replace("@maintain counting.", "@maintain recompute.")
}

/// Deterministic mutation batches applied between checkpoints. Inserts
/// and deletes hit both base relations and both derived strategies.
const BATCHES: &[&[(bool, &str)]] = &[
    &[
        (true, "edge(4, 5)"),
        (false, "edge(1, 3)"),
        (true, "blocked(1, 2)"),
    ],
    &[
        (true, "edge(5, 1)"),
        (false, "edge(2, 3)"),
        (true, "edge(3, 1)"),
    ],
    &[
        (false, "blocked(2, 3)"),
        (true, "edge(6, 2)"),
        (false, "edge(4, 5)"),
        (true, "blocked(3, 4)"),
    ],
];

fn open(vfs: &SimVfs) -> Result<StorageClient, String> {
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    StorageServer::open_with_vfs(Path::new(DIR), FRAMES, v).map_err(|e| e.to_string())
}

fn apply(s: &Session, batches: &[&[(bool, &str)]], ctx: &str) {
    for batch in batches {
        for (ins, fact) in *batch {
            let r = if *ins {
                s.insert_fact(fact)
            } else {
                s.delete_fact(fact)
            };
            r.unwrap_or_else(|e| panic!("{ctx}: mutation {fact} failed: {e}"));
        }
    }
}

fn sorted_answers(s: &Session, query: &str, ctx: &str) -> Vec<String> {
    let mut out: Vec<String> = s
        .query_all(query)
        .unwrap_or_else(|e| panic!("{ctx}: query {query} failed: {e}"))
        .iter()
        .map(|a| a.to_string())
        .collect();
    out.sort();
    out
}

/// Run the maintained workload: build states, checkpoint, then for each
/// batch mutate → re-query (propagate) → checkpoint. Any storage error
/// is the armed crash firing; returns how many batches were fully
/// applied before it (the history the verifier replays).
fn run_workload(vfs: &SimVfs) -> (usize, bool) {
    let Ok(srv) = open(vfs) else {
        return (0, false);
    };
    let s = Session::new();
    s.attach_storage_client(srv);
    s.consult_str(PROGRAM).expect("consult is in-memory");
    // First queries build the maintained states (pure in-memory work).
    let _ = sorted_answers(&s, "path(X, Y)", "workload");
    let _ = sorted_answers(&s, "hop(X, Y)", "workload");
    if s.checkpoint().is_err() {
        return (0, false);
    }
    for (i, batch) in BATCHES.iter().enumerate() {
        apply(&s, &[batch], "workload");
        let _ = sorted_answers(&s, "path(X, Y)", "workload");
        let _ = sorted_answers(&s, "hop(X, Y)", "workload");
        if s.checkpoint().is_err() {
            return (i + 1, false);
        }
    }
    (BATCHES.len(), true)
}

/// Power-cycle, recover, and assert the oracle. Returns whether the
/// recovering session restored every maintained state from the persisted
/// catalog (`true`) or had to rebuild at least one (`false`).
fn verify_recovery(vfs: &SimVfs, applied: usize, ctx: &str) -> Result<bool, String> {
    vfs.power_cycle();
    vfs.clear_schedules();
    let srv = open(vfs).map_err(|e| format!("{ctx}: reopen after crash failed: {e}"))?;
    let report = srv
        .check()
        .map_err(|e| format!("{ctx}: structural check did not run: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "{ctx}: structural check failed after recovery:\n{}",
            report.render()
        ));
    }

    let m = Session::new();
    m.attach_storage_client(srv);
    m.consult_str(PROGRAM)
        .map_err(|e| format!("{ctx}: re-consult failed: {e}"))?;
    apply(&m, &BATCHES[..applied], ctx);

    let o = Session::new();
    o.consult_str(&recompute_program()).unwrap();
    apply(&o, &BATCHES[..applied], ctx);

    for query in ["path(X, Y)", "hop(X, Y)"] {
        let maintained = sorted_answers(&m, query, ctx);
        let recomputed = sorted_answers(&o, query, ctx);
        if maintained != recomputed {
            return Err(format!(
                "{ctx}: maintained {query} diverges from recompute after recovery\n  \
                 maintained: {maintained:?}\n  recomputed: {recomputed:?}"
            ));
        }
    }
    Ok(m.maintain_totals().rebuilds == 0)
}

/// Mutating I/O operations in a fault-free run — the size of the matrix.
fn count_ops(seed: u64) -> u64 {
    let vfs = SimVfs::new(seed);
    let (applied, completed) = run_workload(&vfs);
    assert!(
        completed && applied == BATCHES.len(),
        "seed={seed}: fault-free workload run failed (harness bug)"
    );
    vfs.ops()
}

/// One crash point: run the workload with the disk armed to die at
/// mutating operation `crash_at`, then recover and verify.
fn run_point(seed: u64, crash_at: u64) -> Result<bool, String> {
    let ctx = format!("seed={seed} crash_at={crash_at} (maintenance catalog)");
    let vfs = SimVfs::new(seed);
    vfs.set_crash_at(crash_at);
    let (applied, _) = run_workload(&vfs);
    verify_recovery(&vfs, applied, &ctx)
}

#[test]
fn maintain_catalog_crash_matrix() {
    for seed in [1u64, 0xC04A1] {
        let total = count_ops(seed);
        assert!(
            total > 20,
            "seed={seed}: suspiciously small matrix ({total} ops)"
        );
        let mut restored = 0u64;
        let mut rebuilt = 0u64;
        for crash_at in 0..total {
            match run_point(seed, crash_at).unwrap_or_else(|e| panic!("{e}")) {
                true => restored += 1,
                false => rebuilt += 1,
            }
        }
        // Both recovery paths must actually occur somewhere in the
        // matrix or the test proves nothing: a crash after the final
        // checkpoint restores from the catalog; a crash during the
        // first one forces a rebuild.
        assert!(
            restored > 0,
            "seed={seed}: no crash point ever restored from the persisted catalog"
        );
        assert!(
            rebuilt > 0,
            "seed={seed}: no crash point ever forced a rebuild — \
             the stale/torn-catalog path is untested"
        );
    }
}

/// A crash index beyond the workload degenerates to a clean run: the
/// final catalog matches the final base exactly, so recovery restores
/// every maintained state without a single rebuild.
#[test]
fn crash_beyond_workload_restores_cleanly() {
    let total = count_ops(7);
    let restored = run_point(7, total + 1000).unwrap_or_else(|e| panic!("{e}"));
    assert!(restored, "clean run must restore from the catalog");
}

/// A restored state is the restored relations and nothing else: the
/// propagation indexes wait for the first change after the restart, and
/// that change is still repaired in place, correctly.
#[test]
fn restore_defers_propagation_indexes_to_first_change() {
    let vfs = SimVfs::new(11);
    assert_eq!(run_workload(&vfs), (BATCHES.len(), true));
    vfs.power_cycle();
    let m = Session::new();
    m.attach_storage_client(open(&vfs).unwrap());
    m.consult_str(PROGRAM).unwrap();
    apply(&m, BATCHES, "restart");
    let o = Session::new();
    o.consult_str(&recompute_program()).unwrap();
    apply(&o, BATCHES, "oracle");

    let edge = m
        .engine()
        .db()
        .get(coral_term::Symbol::intern("edge"), 2)
        .unwrap();
    for query in ["path(X, Y)", "hop(X, Y)"] {
        assert_eq!(
            sorted_answers(&m, query, "restored"),
            sorted_answers(&o, query, "oracle")
        );
    }
    assert_eq!(m.maintain_totals().rebuilds, 0, "both states restored");
    let hash = edge.as_any().downcast_ref::<coral_rel::HashRelation>();
    let indices = || hash.expect("in-memory base relation").index_specs().len();
    assert_eq!(indices(), 0, "restore indexed the base relation");

    let change = [&[(true, "edge(6, 7)"), (false, "edge(3, 4)")][..]];
    apply(&m, &change, "restart");
    apply(&o, &change, "oracle");
    assert!(
        indices() > 0,
        "the first change builds the propagation indexes"
    );
    for query in ["path(X, Y)", "hop(X, Y)"] {
        assert_eq!(
            sorted_answers(&m, query, "repaired"),
            sorted_answers(&o, query, "oracle")
        );
    }
    let t = m.maintain_totals();
    assert_eq!(t.rebuilds, 0, "repaired in place, not rebuilt");
    assert!(t.propagated >= 2 && t.overdeleted > 0 && t.count_updates > 0);
}

/// `@maintain recompute` builds no maintained state, so the catalog file
/// is never even written.
#[test]
fn maintain_recompute_persists_nothing() {
    let vfs = SimVfs::new(99);
    {
        let srv = open(&vfs).unwrap();
        let s = Session::new();
        s.attach_storage_client(srv);
        s.consult_str(&recompute_program()).unwrap();
        let _ = sorted_answers(&s, "path(X, Y)", "recompute");
        s.checkpoint().unwrap();
    }
    vfs.power_cycle();
    let srv = open(&vfs).unwrap();
    let file = srv.heap("maintain.cat").unwrap();
    assert_eq!(
        file.scan().count(),
        0,
        "@maintain recompute must not write catalog records"
    );
}

/// Two sessions share one server; B holds a request transaction while A
/// checkpoints. A's catalog writes commit one by one while B's
/// transaction is open, so B's abort cannot take them along.
#[test]
fn checkpoint_catalog_survives_another_sessions_abort() {
    let vfs = SimVfs::new(7);
    let catalog_records = |srv: &StorageClient| srv.heap("maintain.cat").unwrap().scan().count();
    {
        let srv = open(&vfs).unwrap();
        let a = Session::new();
        a.attach_storage_client(Arc::clone(&srv));
        a.consult_str(PROGRAM).unwrap();
        let _ = sorted_answers(&a, "path(X, Y)", "session A");
        let b = Session::new();
        b.attach_storage_client(Arc::clone(&srv));
        let txn = b.begin_request_txn().unwrap().expect("storage attached");
        a.checkpoint().unwrap();
        let written = catalog_records(&srv);
        assert!(written >= 1, "A's checkpoint wrote no catalog record");
        b.end_request_txn(txn, false).unwrap();
        assert_eq!(catalog_records(&srv), written, "B's abort took A's catalog");
    }
    vfs.power_cycle();
    let srv = open(&vfs).unwrap();
    assert!(catalog_records(&srv) >= 1, "catalog lost across restart");
}

/// A maintenance catalog many times the pool's size: the checkpoint
/// writes it record by record, the implicit transaction commits as the
/// pool fills, and a fresh session restores every state from it.
#[test]
fn catalog_larger_than_the_pool_checkpoints_and_restores() {
    let chain: String = (0..200)
        .map(|i| format!("edge({i}, {}).\n", i + 1))
        .collect();
    let program = format!(
        "{chain}module tcm.\nexport path(ff).\n@maintain dred.\n\
         path(X, Y) :- edge(X, Y).\npath(X, Y) :- edge(X, Z), path(Z, Y).\nend_module.\n"
    );
    let vfs = SimVfs::new(11);
    let first = {
        let srv = open(&vfs).unwrap();
        let s = Session::new();
        s.attach_storage_client(Arc::clone(&srv));
        s.consult_str(&program).unwrap();
        let answers = sorted_answers(&s, "path(X, Y)", "build");
        s.checkpoint().unwrap();
        let pages = srv.pool().num_pages(srv.file("maintain.cat").unwrap());
        assert!(
            pages.unwrap() > FRAMES as u64,
            "the catalog outgrows the pool"
        );
        answers
    };
    vfs.power_cycle();
    let s = Session::new();
    s.attach_storage_client(open(&vfs).unwrap());
    s.consult_str(&program).unwrap();
    assert_eq!(sorted_answers(&s, "path(X, Y)", "restore"), first);
    assert_eq!(s.maintain_totals().rebuilds, 0, "restored from the catalog");
}
