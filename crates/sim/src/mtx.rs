//! Multi-session workloads: seeded interleavings of concurrent
//! transactions, the crash matrix over them, and a serialisability
//! oracle.
//!
//! Three sessions share one storage server (each with its own
//! [`PersistentRelation`] handles, as real server sessions have) and run
//! scripts of transactions — inserts, deletes and index builds over two
//! relations — interleaved one operation at a time by a seeded
//! scheduler, with checkpoints injected between steps. The page lock
//! timeout is zero, so every write-write race surfaces immediately as a
//! deterministic [`StorageError::TxnConflict`]; the losing transaction
//! aborts and its script entry is retried from scratch, exactly like a
//! `coral-net` client replaying after `Retry`.
//!
//! Two oracles:
//!
//! * **Serialisability** ([`run_mtx_oracle`]): after a fault-free run,
//!   replay the *committed* transactions serially, in commit order, on a
//!   fresh store. Final relation contents, cardinalities and per-column
//!   distinct estimates must be identical — i.e. the concurrent history
//!   was equivalent to a serial one.
//! * **Recovery** ([`run_mtx_crash_point`]): crash at mutating I/O
//!   operation N, power-cycle, reopen, and assert the PR-3 contract per
//!   committed transaction: every committed transaction's effect is
//!   present, no uncommitted transaction's effect is visible — except
//!   that the (at most one) transaction inside its commit call at the
//!   crash may land on either side.
//!
//! Everything is seed-reproducible; failures name the seed and crash
//! index for replay.

use crate::simfs::SimVfs;
use coral_rel::{IndexSpec, PersistentRelation, RelError, Relation};
use coral_storage::{StorageClient, StorageError, StorageServer, Vfs};
use coral_term::testutil::TestRng;
use coral_term::{Term, Tuple};
use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Virtual directory inside the [`SimVfs`]; never touches the real disk.
const DIR: &str = "/mtxdb";
/// The two relations under test: same-relation transactions race on
/// pages, different-relation transactions genuinely interleave.
const RELS: [&str; 2] = ["mtx_a", "mtx_b"];
const FRAMES: usize = 32;
const SESSIONS: usize = 3;
/// Checkpoints the scheduler sprinkles between transaction steps.
const CHECKPOINTS: u32 = 2;

/// One transaction of a session's script.
#[derive(Debug, Clone)]
pub enum MTxn {
    /// Begin; the inserts/deletes; commit.
    Write {
        rel: usize,
        ins: Vec<i64>,
        del: Vec<i64>,
    },
    /// Begin; build a secondary index on the value column; commit.
    MakeIndex { rel: usize },
}

impl MTxn {
    fn rel(&self) -> usize {
        match self {
            MTxn::Write { rel, .. } | MTxn::MakeIndex { rel } => *rel,
        }
    }

    /// Operations before the commit step.
    fn len(&self) -> usize {
        match self {
            MTxn::Write { ins, del, .. } => ins.len() + del.len(),
            MTxn::MakeIndex { .. } => 1,
        }
    }
}

fn tuple_for(k: i64) -> Tuple {
    Tuple::ground(vec![Term::int(k), Term::int(k % 7)])
}

/// Generate each session's transaction script. Key spaces are disjoint
/// per session and deletes only target keys the same session committed
/// in an earlier transaction, so every transaction's effect on the final
/// state is exact regardless of interleaving — the page level is where
/// the sessions actually contend (heap tails, tree meta pages, stats
/// records are all shared).
pub fn gen_mtx_workload(seed: u64) -> Vec<VecDeque<MTxn>> {
    let mut rng = TestRng::new(seed ^ 0xa076_1d64_78bd_642f);
    let mut scripts = Vec::with_capacity(SESSIONS);
    let mut index_budget = [1u32; 2]; // at most one build per relation
    for s in 0..SESSIONS {
        let mut script = VecDeque::new();
        // Keys this session has inserted in earlier transactions, per
        // relation — the delete candidates.
        let mut own: [Vec<i64>; 2] = [Vec::new(), Vec::new()];
        let mut next = 0i64;
        let n_txns = 3 + rng.gen_range(0, 3);
        for t in 0..n_txns {
            let rel = rng.gen_range(0, RELS.len());
            if index_budget[rel] > 0 && t > 0 && rng.gen_bool(0.2) {
                index_budget[rel] -= 1;
                script.push_back(MTxn::MakeIndex { rel });
                continue;
            }
            let mut ins = Vec::new();
            let mut del = Vec::new();
            for _ in 0..1 + rng.gen_range(0, 3) {
                if !own[rel].is_empty() && rng.gen_bool(0.3) {
                    let i = rng.gen_range(0, own[rel].len());
                    del.push(own[rel].swap_remove(i));
                } else {
                    let k = (s as i64) * 1_000_000 + next;
                    next += 1;
                    ins.push(k);
                }
            }
            own[rel].extend(&ins);
            script.push_back(MTxn::Write { rel, ins, del });
        }
        scripts.push(script);
    }
    scripts
}

/// The committed history of a run: transactions in commit order, exactly
/// what the serial replay re-executes.
pub type History = Vec<MTxn>;

/// Per-relation key sets: the model of the store's contents.
pub type MtxState = Vec<BTreeSet<i64>>;

/// How a multi-session run ended.
pub enum MtxOutcome {
    /// All scripts drained, final checkpoint done.
    Completed(MtxState),
    /// A fault stopped it; recovery must land on one of these states
    /// (two when the crash hit inside a commit call).
    Crashed { acceptable: Vec<MtxState> },
}

/// A finished run: the outcome plus the committed history and the
/// conflict count (how often a transaction lost a race and retried).
pub struct MtxRun {
    pub outcome: MtxOutcome,
    pub history: History,
    pub conflicts: u64,
}

struct Active {
    id: u64,
    txn: MTxn,
    done: usize,
}

struct Sess {
    handles: Vec<PersistentRelation>,
    script: VecDeque<MTxn>,
    active: Option<Active>,
}

fn is_conflict(e: &RelError) -> bool {
    matches!(e, RelError::Storage(StorageError::TxnConflict(_)))
}

fn open_server(vfs: &SimVfs) -> Result<StorageClient, StorageError> {
    let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
    StorageServer::open_with_vfs(Path::new(DIR), FRAMES, v)
}

/// Apply a committed transaction's effect to the model.
fn apply(state: &mut MtxState, txn: &MTxn) {
    if let MTxn::Write { rel, ins, del } = txn {
        for k in ins {
            state[*rel].insert(*k);
        }
        for k in del {
            state[*rel].remove(k);
        }
    }
}

/// Run the seed's scripts over `vfs`, interleaved by a seeded scheduler.
/// Any non-conflict error is the armed fault firing: the run stops and
/// reports which post-recovery states are legitimate. `Err` means a
/// harness bug (e.g. a livelocked retry loop), never a legitimate crash.
pub fn run_mtx(vfs: &SimVfs, seed: u64) -> Result<MtxRun, String> {
    let scripts = gen_mtx_workload(seed);
    let mut rng = TestRng::new(seed ^ 0x2545_f491_4f6c_dd1d);
    let mut committed: MtxState = RELS.iter().map(|_| BTreeSet::new()).collect();
    let mut history = Vec::new();
    let mut conflicts = 0u64;

    macro_rules! crashed {
        () => {
            return Ok(MtxRun {
                outcome: MtxOutcome::Crashed {
                    acceptable: vec![committed],
                },
                history,
                conflicts,
            })
        };
    }

    let Ok(srv) = open_server(vfs) else {
        crashed!()
    };
    srv.set_lock_timeout(Duration::ZERO);

    // Create the relations (in the implicit transaction, which the first
    // `begin` commits), giving each session its own handles, as separate
    // server sessions would have.
    let mut sessions: Vec<Sess> = Vec::with_capacity(SESSIONS);
    for (s, script) in scripts.iter().enumerate() {
        let mut handles = Vec::new();
        for name in RELS {
            match PersistentRelation::open(&srv, name, 2) {
                Ok(r) => handles.push(r),
                Err(_) => crashed!(),
            }
        }
        debug_assert_eq!(handles.len(), RELS.len(), "session {s}");
        sessions.push(Sess {
            handles,
            script: script.clone(),
            active: None,
        });
    }

    let mut checkpoints = CHECKPOINTS;
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > 100_000 {
            return Err(format!("seed={seed}: scheduler livelocked (harness bug)"));
        }
        let runnable: Vec<usize> = (0..SESSIONS)
            .filter(|&s| sessions[s].active.is_some() || !sessions[s].script.is_empty())
            .collect();
        if runnable.is_empty() {
            break;
        }
        if checkpoints > 0 && rng.gen_bool(0.03) {
            checkpoints -= 1;
            if srv.checkpoint().is_err() {
                crashed!();
            }
            continue;
        }
        let s = runnable[rng.gen_range(0, runnable.len())];
        let sess = &mut sessions[s];
        let Some(active) = sess.active.as_mut() else {
            // Begin the session's next transaction.
            let txn = sess.script.pop_front().expect("runnable implies work");
            let Ok(id) = srv.begin() else { crashed!() };
            sess.handles[txn.rel()].set_txn(Some(id));
            sess.active = Some(Active { id, txn, done: 0 });
            continue;
        };
        let rel = &sess.handles[active.txn.rel()];
        if active.done < active.txn.len() {
            // Execute the transaction's next operation.
            let r = match &active.txn {
                MTxn::Write { ins, del, .. } => {
                    if active.done < ins.len() {
                        rel.insert(tuple_for(ins[active.done])).map(|_| ())
                    } else {
                        rel.delete(&tuple_for(del[active.done - ins.len()]))
                            .map(|_| ())
                    }
                }
                MTxn::MakeIndex { .. } => rel.make_index(IndexSpec::Args(vec![1])),
            };
            match r {
                Ok(()) => active.done += 1,
                Err(e) if is_conflict(&e) => {
                    // Lost the race: abort, requeue the whole
                    // transaction, let the scheduler try again later.
                    conflicts += 1;
                    rel.set_txn(None);
                    let active = sess.active.take().unwrap();
                    srv.abort(active.id)
                        .map_err(|e| format!("seed={seed}: abort of conflicted txn failed: {e}"))?;
                    sess.script.push_front(active.txn);
                }
                Err(_) => crashed!(),
            }
            continue;
        }
        // All operations done: commit.
        rel.set_txn(None);
        let active = sess.active.take().unwrap();
        match srv.commit(active.id) {
            Ok(()) => {
                apply(&mut committed, &active.txn);
                history.push(active.txn);
            }
            Err(StorageError::TxnConflict(_)) => {
                // Validation failed at commit; the transaction is
                // already aborted — retry it.
                conflicts += 1;
                sess.script.push_front(active.txn);
            }
            Err(_) => {
                // Crash inside the commit call: the WAL record may or
                // may not have become durable, so recovery may land on
                // either side of this transaction.
                let mut with = committed.clone();
                apply(&mut with, &active.txn);
                let mut acceptable = vec![committed];
                if acceptable[0] != with {
                    acceptable.push(with);
                }
                return Ok(MtxRun {
                    outcome: MtxOutcome::Crashed { acceptable },
                    history,
                    conflicts,
                });
            }
        }
    }
    if srv.checkpoint().is_err() {
        crashed!();
    }
    Ok(MtxRun {
        outcome: MtxOutcome::Completed(committed),
        history,
        conflicts,
    })
}

/// Per-relation statistics observed alongside the contents:
/// `(cardinality, distinct(col 0), distinct(col 1))`.
type MtxStats = Vec<(u64, u64, u64)>;

/// Scan a store's relations into key sets and collect their statistics;
/// every relation must also pass its cross-structure check.
fn observe(srv: &StorageClient, ctx: &str) -> Result<(MtxState, MtxStats), String> {
    let mut state = Vec::new();
    let mut stats = Vec::new();
    for name in RELS {
        let rel = PersistentRelation::open(srv, name, 2)
            .map_err(|e| format!("{ctx}: reopening {name} failed: {e}"))?;
        let mut found = BTreeSet::new();
        for t in rel.scan() {
            let t = t.map_err(|e| format!("{ctx}: scan of {name} failed: {e}"))?;
            match &t.args()[0] {
                Term::Int(k) => {
                    if !found.insert(*k) {
                        return Err(format!("{ctx}: duplicate tuple for key {k} in {name}"));
                    }
                }
                other => return Err(format!("{ctx}: unexpected key term {other:?} in {name}")),
            }
        }
        let problems = rel
            .check()
            .map_err(|e| format!("{ctx}: cross-check of {name} did not run: {e}"))?;
        if !problems.is_empty() {
            return Err(format!(
                "{ctx}: cross-check of {name} failed:\n  {}",
                problems.join("\n  ")
            ));
        }
        let s = rel.stats().unwrap_or_else(|| coral_rel::RelStats::new(2));
        stats.push((s.cardinality(), s.distinct(0), s.distinct(1)));
        state.push(found);
    }
    Ok((state, stats))
}

/// The serialisability oracle. Run the seed's interleaving fault-free,
/// then replay its committed history serially (one transaction at a
/// time, in commit order) on a fresh store, and assert both stores end
/// with identical relation contents and statistics. Returns the number
/// of conflicts the concurrent run resolved — the test layer asserts
/// these are nonzero in aggregate, or the oracle proved nothing.
pub fn run_mtx_oracle(seed: u64) -> Result<u64, String> {
    let ctx = format!("seed={seed} (serialisability oracle)");
    let vfs = SimVfs::new(seed);
    let run = run_mtx(&vfs, seed)?;
    let MtxOutcome::Completed(model) = run.outcome else {
        return Err(format!("{ctx}: fault-free run crashed (harness bug)"));
    };
    let srv = open_server(&vfs).map_err(|e| format!("{ctx}: reopen failed: {e}"))?;
    let (concurrent, concurrent_stats) = observe(&srv, &ctx)?;
    if concurrent != model {
        return Err(format!(
            "{ctx}: store disagrees with the committed model\n  store: {concurrent:?}\n  \
             model: {model:?}"
        ));
    }
    drop(srv);

    // Serial replay on a fresh store (different vfs stream; no faults).
    let replay_vfs = SimVfs::new(seed ^ 0x94d0_49bb_1331_11eb);
    let bug = |what: &str| format!("{ctx}: serial replay {what} failed (harness bug)");
    let srv = open_server(&replay_vfs).map_err(|_| bug("open"))?;
    let handles: Vec<PersistentRelation> = RELS
        .iter()
        .map(|name| PersistentRelation::open(&srv, name, 2))
        .collect::<Result<_, _>>()
        .map_err(|_| bug("create"))?;
    for t in &run.history {
        let rel = &handles[t.rel()];
        let id = srv.begin().map_err(|_| bug("begin"))?;
        rel.set_txn(Some(id));
        let r = match t {
            MTxn::Write { ins, del, .. } => ins
                .iter()
                .map(|k| rel.insert(tuple_for(*k)).map(|_| ()))
                .chain(del.iter().map(|k| rel.delete(&tuple_for(*k)).map(|_| ())))
                .collect::<Result<Vec<()>, _>>()
                .map(|_| ()),
            MTxn::MakeIndex { .. } => rel.make_index(IndexSpec::Args(vec![1])),
        };
        rel.set_txn(None);
        r.map_err(|e| format!("{ctx}: serial replay of {t:?} failed: {e}"))?;
        srv.commit(id).map_err(|_| bug("commit"))?;
    }
    srv.checkpoint().map_err(|_| bug("checkpoint"))?;
    let (serial, serial_stats) = observe(&srv, &format!("{ctx} [serial]"))?;
    if serial != concurrent {
        return Err(format!(
            "{ctx}: serial replay diverged\n  concurrent: {concurrent:?}\n  serial: {serial:?}"
        ));
    }
    if serial_stats != concurrent_stats {
        return Err(format!(
            "{ctx}: statistics diverged\n  concurrent: {concurrent_stats:?}\n  \
             serial: {serial_stats:?}"
        ));
    }
    Ok(run.conflicts)
}

/// Reopen after a power cycle and assert the recovery oracle against the
/// legitimate states.
fn verify_mtx_recovery(vfs: &SimVfs, acceptable: &[MtxState], ctx: &str) -> Result<(), String> {
    vfs.power_cycle();
    let srv = open_server(vfs).map_err(|e| format!("{ctx}: reopen after crash failed: {e}"))?;
    let report = srv
        .check()
        .map_err(|e| format!("{ctx}: structural check did not run: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "{ctx}: structural check failed:\n{}",
            report.render()
        ));
    }
    let (found, _) = observe(&srv, ctx)?;
    if !acceptable.contains(&found) {
        let lost: Vec<Vec<i64>> = acceptable[0]
            .iter()
            .zip(&found)
            .map(|(a, f)| a.difference(f).copied().collect())
            .collect();
        let phantom: Vec<Vec<i64>> = acceptable[0]
            .iter()
            .zip(&found)
            .map(|(a, f)| f.difference(a).copied().collect())
            .collect();
        return Err(format!(
            "{ctx}: recovered state matches no legitimate state\n  \
             recovered: {found:?}\n  acceptable: {acceptable:?}\n  \
             vs committed: lost={lost:?} phantom={phantom:?}"
        ));
    }
    Ok(())
}

/// Mutating I/O operations of the seed's fault-free run — the number of
/// crash points in its matrix.
pub fn mtx_count_ops(seed: u64) -> Result<u64, String> {
    let vfs = SimVfs::new(seed);
    match run_mtx(&vfs, seed)?.outcome {
        MtxOutcome::Completed(_) => Ok(vfs.ops()),
        MtxOutcome::Crashed { .. } => Err(format!(
            "seed={seed}: fault-free multi-session run crashed (harness bug)"
        )),
    }
}

/// Run the seed's interleaving with a crash at mutating operation
/// `crash_at`, power-cycle, recover, and assert the per-transaction
/// recovery oracle. The repro entry point for matrix failures.
pub fn run_mtx_crash_point(seed: u64, crash_at: u64) -> Result<(), String> {
    let ctx = format!("seed={seed} crash_at={crash_at} (multi-session)");
    let vfs = SimVfs::new(seed);
    vfs.set_crash_at(crash_at);
    match run_mtx(&vfs, seed)?.outcome {
        MtxOutcome::Completed(state) => {
            // Crash point beyond the run: a power cycle on the fully
            // checkpointed store must change nothing.
            vfs.clear_schedules();
            verify_mtx_recovery(&vfs, &[state], &ctx)
        }
        MtxOutcome::Crashed { acceptable } => verify_mtx_recovery(&vfs, &acceptable, &ctx),
    }
}

/// The full multi-session matrix for one seed: crash at every mutating
/// I/O operation in turn. Returns the number of crash points.
pub fn run_mtx_crash_matrix(seed: u64) -> Result<u64, String> {
    let total = mtx_count_ops(seed)?;
    for crash_at in 0..total {
        run_mtx_crash_point(seed, crash_at)?;
    }
    Ok(total)
}
