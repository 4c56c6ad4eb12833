//! Recorded workloads and the crash matrix.
//!
//! A workload is generated from a seed and a [`Shape`]: a sequence of
//! transactions (inserts and deletes of distinct integer keys on one
//! persistent relation), an index build, and checkpoints.
//! [`run_crash_point`] runs it over a [`SimVfs`] armed to crash at
//! mutating I/O operation N, power-cycles, reopens the server (replaying
//! the WAL) and asserts the recovery oracle:
//!
//! * every tuple of the last committed state is present;
//! * no tuple outside it is present — except that a crash *inside the
//!   commit call* may legitimately land on either side of the commit
//!   point, so there the post-crash state must equal one of the two;
//! * every on-disk structure passes `StorageServer::check`, and the
//!   relation's heap and indices agree ([`PersistentRelation::check`]).
//!
//! [`run_crash_matrix`] runs every crash point. Failures are reported
//! with the shape, seed and crash index, so
//! `run_crash_point(shape, seed, n)` replays the exact failing schedule.

use crate::simfs::SimVfs;
use coral_rel::{IndexSpec, PersistentRelation, Relation};
use coral_storage::{StorageClient, StorageServer};
use coral_term::testutil::TestRng;
use coral_term::{Term, Tuple};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Virtual directory inside the [`SimVfs`]; never touches the real disk.
const DIR: &str = "/simdb";
/// Relation under test.
const REL: &str = "simrel";
/// Buffer pool frames of the [`Shape::Mixed`] runs: small enough to
/// force eviction traffic, large enough that one transaction's pinned
/// pages always fit.
const FRAMES: usize = 24;
/// Commits between checkpoints in a [`Shape::SingleRow`] workload.
const SINGLE_ROW_CHECKPOINT_EVERY: usize = 6;

/// One mutation inside a transaction.
#[derive(Debug, Clone)]
pub enum Op {
    Insert(i64),
    Delete(i64),
}

/// One step of a recorded workload.
#[derive(Debug, Clone)]
pub enum Step {
    /// `begin`; the ops; `commit`.
    Txn(Vec<Op>),
    /// Build a secondary index on the value column (inside a txn).
    MakeIndex,
    /// Flush all pages and truncate the WAL.
    Checkpoint,
}

fn tuple_for(k: i64) -> Tuple {
    Tuple::ground(vec![Term::int(k), Term::str(&format!("v{k}"))])
}

/// Which recorded workload a seed expands to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// [`gen_workload`]: multi-op transactions, one index build
    /// somewhere in the middle, occasional checkpoints; 24 frames.
    Mixed,
    /// [`gen_single_row_workload`]: the shape of the `persistent_mix`
    /// benchmark — single-row transactions and a checkpoint every few
    /// commits at 16 frames, so crash points land between a page's first
    /// full image in the log and its later deltas, and inside the
    /// checkpoint flushes.
    SingleRow,
}

impl Shape {
    fn steps(self, seed: u64) -> Vec<Step> {
        match self {
            Shape::Mixed => gen_workload(seed),
            Shape::SingleRow => gen_single_row_workload(seed),
        }
    }

    fn frames(self) -> usize {
        match self {
            Shape::Mixed => FRAMES,
            Shape::SingleRow => 16,
        }
    }
}

/// Generate the deterministic workload for `seed`: 8–12 steps mixing
/// small transactions (which may delete previously inserted keys),
/// exactly one index build, and occasional checkpoints.
pub fn gen_workload(seed: u64) -> Vec<Step> {
    // Offset the seed so the workload stream differs from the SimVfs
    // torn-write stream even though both use TestRng.
    let mut rng = TestRng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut live: Vec<i64> = Vec::new();
    let mut next_key = 0i64;
    let mut steps = Vec::new();
    let mut made_index = false;
    let n_steps = 10 + rng.gen_range(0, 5);
    for s in 0..n_steps {
        let roll = rng.gen_range(0, 10);
        if roll == 0 && !made_index && s > 1 {
            steps.push(Step::MakeIndex);
            made_index = true;
            continue;
        }
        if roll == 1 && s > 0 {
            steps.push(Step::Checkpoint);
            continue;
        }
        let n_ops = 1 + rng.gen_range(0, 5);
        let mut ops = Vec::new();
        for _ in 0..n_ops {
            if !live.is_empty() && rng.gen_bool(0.3) {
                let i = rng.gen_range(0, live.len());
                ops.push(Op::Delete(live.swap_remove(i)));
            } else {
                let k = next_key;
                next_key += 1;
                live.push(k);
                ops.push(Op::Insert(k));
            }
        }
        steps.push(Step::Txn(ops));
    }
    if !made_index {
        let mid = steps.len() / 2;
        steps.insert(mid, Step::MakeIndex);
    }
    steps
}

/// Generate the [`Shape::SingleRow`] workload for `seed`: an index
/// build, then 36 one-row transactions (three inserts to one delete of a
/// live key, in seeded order) with a checkpoint after every
/// `SINGLE_ROW_CHECKPOINT_EVERY` commits.
pub fn gen_single_row_workload(seed: u64) -> Vec<Step> {
    let mut rng = TestRng::new(seed ^ 0x51c0_2e40_57a1_0001);
    let mut live: Vec<i64> = Vec::new();
    let mut steps = vec![Step::MakeIndex];
    for commit in 0..36 {
        let op = if live.len() > 2 && rng.gen_range(0, 4) == 0 {
            Op::Delete(live.swap_remove(rng.gen_range(0, live.len())))
        } else {
            live.push(commit);
            Op::Insert(commit)
        };
        steps.push(Step::Txn(vec![op]));
        if (commit as usize + 1).is_multiple_of(SINGLE_ROW_CHECKPOINT_EVERY) {
            steps.push(Step::Checkpoint);
        }
    }
    steps
}

/// How a workload run ended.
pub enum Outcome {
    /// Ran to the end (including a final checkpoint); this is the
    /// committed state.
    Completed(BTreeSet<i64>),
    /// A fault stopped it; recovery must land on one of these states.
    Crashed { acceptable: Vec<BTreeSet<i64>> },
}

/// Run the workload through a storage server over `vfs`. Any error is
/// treated as the armed fault firing: the function stops and reports
/// which post-recovery states are legitimate. A final checkpoint is part
/// of the workload, so the matrix also covers crash points inside
/// checkpointing.
pub fn run_workload(vfs: &SimVfs, steps: &[Step], frames: usize) -> Outcome {
    let mut committed: BTreeSet<i64> = BTreeSet::new();
    macro_rules! crashed {
        () => {
            return Outcome::Crashed {
                acceptable: vec![committed.clone()],
            }
        };
    }
    let srv: StorageClient = match StorageServer::open_with_vfs(Path::new(DIR), frames, {
        let v: Arc<dyn coral_storage::Vfs> = Arc::new(vfs.clone());
        v
    }) {
        Ok(s) => s,
        Err(_) => crashed!(),
    };
    // Creating the relation writes its schema record; wrap it in a
    // transaction like every other mutation (crash-consistency only
    // covers transactional writes).
    let rel = {
        let Ok(txn) = srv.begin() else { crashed!() };
        match PersistentRelation::open(&srv, REL, 2) {
            Ok(rel) => {
                if srv.commit(txn).is_err() {
                    // Whether the schema record survived or not, the
                    // relation is empty either way.
                    crashed!();
                }
                rel
            }
            Err(_) => crashed!(),
        }
    };
    for step in steps {
        match step {
            Step::Checkpoint => {
                if srv.checkpoint().is_err() {
                    crashed!();
                }
            }
            Step::MakeIndex => {
                let Ok(txn) = srv.begin() else { crashed!() };
                if rel.make_index(IndexSpec::Args(vec![1])).is_err() {
                    crashed!();
                }
                if srv.commit(txn).is_err() {
                    // The index either committed whole or not at all;
                    // the tuple set is the same either way.
                    crashed!();
                }
            }
            Step::Txn(ops) => {
                let mut target = committed.clone();
                for op in ops {
                    match op {
                        Op::Insert(k) => target.insert(*k),
                        Op::Delete(k) => target.remove(k),
                    };
                }
                let Ok(txn) = srv.begin() else { crashed!() };
                let mut failed = false;
                for op in ops {
                    let r = match op {
                        Op::Insert(k) => rel.insert(tuple_for(*k)),
                        Op::Delete(k) => rel.delete(&tuple_for(*k)).map(|_| true),
                    };
                    if r.is_err() {
                        failed = true;
                        break;
                    }
                }
                if failed {
                    // Crash before commit: the transaction must vanish.
                    crashed!();
                }
                if srv.commit(txn).is_err() {
                    // Crash inside commit: the WAL record may or may not
                    // have become durable, so both sides are legitimate.
                    return Outcome::Crashed {
                        acceptable: vec![committed, target],
                    };
                }
                committed = target;
            }
        }
    }
    if srv.checkpoint().is_err() {
        crashed!();
    }
    Outcome::Completed(committed)
}

/// Reopen after a power cycle and assert the oracle. `acceptable` lists
/// the legitimate key sets; `ctx` prefixes every failure message.
fn verify_recovery(
    vfs: &SimVfs,
    frames: usize,
    acceptable: &[BTreeSet<i64>],
    ctx: &str,
) -> Result<(), String> {
    vfs.power_cycle();
    let srv = StorageServer::open_with_vfs(Path::new(DIR), frames, {
        let v: Arc<dyn coral_storage::Vfs> = Arc::new(vfs.clone());
        v
    })
    .map_err(|e| format!("{ctx}: reopen after crash failed: {e}"))?;
    let report = srv
        .check()
        .map_err(|e| format!("{ctx}: structural check did not run: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "{ctx}: structural check failed:\n{}",
            report.render()
        ));
    }
    let rel = PersistentRelation::open(&srv, REL, 2)
        .map_err(|e| format!("{ctx}: reopening relation failed: {e}"))?;
    let mut found: BTreeSet<i64> = BTreeSet::new();
    for t in rel.scan() {
        let t = t.map_err(|e| format!("{ctx}: scan after recovery failed: {e}"))?;
        match &t.args()[0] {
            Term::Int(k) => {
                if !found.insert(*k) {
                    return Err(format!("{ctx}: duplicate tuple for key {k} after recovery"));
                }
            }
            other => return Err(format!("{ctx}: unexpected key term {other:?}")),
        }
    }
    if !acceptable.contains(&found) {
        let lost: Vec<i64> = acceptable[0].difference(&found).copied().collect();
        let phantom: Vec<i64> = found.difference(&acceptable[0]).copied().collect();
        return Err(format!(
            "{ctx}: recovered state matches no legitimate state\n  \
             recovered: {found:?}\n  acceptable: {acceptable:?}\n  \
             vs committed: lost={lost:?} phantom={phantom:?}"
        ));
    }
    let problems = rel
        .check()
        .map_err(|e| format!("{ctx}: relation cross-check did not run: {e}"))?;
    if !problems.is_empty() {
        return Err(format!(
            "{ctx}: relation cross-check failed:\n  {}",
            problems.join("\n  ")
        ));
    }
    Ok(())
}

/// Total mutating I/O operations the seed's workload performs when
/// nothing is injected — i.e. the number of crash points in its matrix.
pub fn count_ops(shape: Shape, seed: u64) -> Result<u64, String> {
    let vfs = SimVfs::new(seed);
    match run_workload(&vfs, &shape.steps(seed), shape.frames()) {
        Outcome::Completed(_) => Ok(vfs.ops()),
        Outcome::Crashed { .. } => Err(format!(
            "{shape:?} seed={seed}: fault-free workload run failed (harness bug)"
        )),
    }
}

/// Run the seed's workload with a crash at mutating operation
/// `crash_at`, recover, and assert the oracle. This is the repro entry
/// point: a matrix failure names the shape, seed and crash index to pass
/// here.
pub fn run_crash_point(shape: Shape, seed: u64, crash_at: u64) -> Result<(), String> {
    let ctx = format!("{shape:?} seed={seed} crash_at={crash_at}");
    let vfs = SimVfs::new(seed);
    vfs.set_crash_at(crash_at);
    let frames = shape.frames();
    match run_workload(&vfs, &shape.steps(seed), frames) {
        Outcome::Completed(state) => {
            // The crash point lies beyond the workload: a plain run,
            // fully checkpointed — a power cycle must change nothing.
            vfs.clear_schedules();
            verify_recovery(&vfs, frames, &[state], &ctx)
        }
        Outcome::Crashed { acceptable } => verify_recovery(&vfs, frames, &acceptable, &ctx),
    }
}

/// The full matrix for one seed: crash at every mutating operation, one
/// run per crash point. Returns the number of points on success.
pub fn run_crash_matrix(shape: Shape, seed: u64) -> Result<u64, String> {
    let total = count_ops(shape, seed)?;
    for crash_at in 0..total {
        run_crash_point(shape, seed, crash_at)?;
    }
    Ok(total)
}

/// The overload scenario: the killer is the resource governor, not the
/// disk. Run the seed's workload normally until tuple-mutation number
/// `kill_at`, at which point the per-query budget "expires" — the
/// evaluator unwinds mid-transaction and the transaction aborts, while
/// the process (and every later transaction) carries on. After the
/// workload a power cycle replays the WAL, and the oracle must land on
/// exactly the committed state: nothing from the killed transaction
/// visible, nothing committed after it lost. Returns the number of
/// transactions the governor killed.
pub fn run_overload_point(seed: u64, kill_at: u64) -> Result<u64, String> {
    let ctx = format!("seed={seed} kill_at={kill_at} (governor overload)");
    let steps = gen_workload(seed);
    let vfs = SimVfs::new(seed);
    let bug = |what: &str| format!("{ctx}: fault-free {what} failed (harness bug)");
    let srv: StorageClient = StorageServer::open_with_vfs(Path::new(DIR), FRAMES, {
        let v: Arc<dyn coral_storage::Vfs> = Arc::new(vfs.clone());
        v
    })
    .map_err(|_| bug("open"))?;
    let txn = srv.begin().map_err(|_| bug("begin"))?;
    let rel = PersistentRelation::open(&srv, REL, 2).map_err(|_| bug("relation open"))?;
    srv.commit(txn).map_err(|_| bug("schema commit"))?;

    let mut committed: BTreeSet<i64> = BTreeSet::new();
    let mut mutations = 0u64;
    let mut killed = 0u64;
    for step in &steps {
        match step {
            Step::Checkpoint => srv.checkpoint().map_err(|_| bug("checkpoint"))?,
            Step::MakeIndex => {
                let txn = srv.begin().map_err(|_| bug("begin"))?;
                rel.make_index(IndexSpec::Args(vec![1]))
                    .map_err(|_| bug("index build"))?;
                srv.commit(txn).map_err(|_| bug("index commit"))?;
            }
            Step::Txn(ops) => {
                let txn = srv.begin().map_err(|_| bug("begin"))?;
                let mut target = committed.clone();
                let mut aborted = false;
                for op in ops {
                    // The budget fires once (the governor re-arms with
                    // fresh headroom for the requests that follow).
                    if killed == 0 && mutations == kill_at {
                        // BudgetExceeded fires here: unwind and abort.
                        srv.abort(txn).map_err(|_| bug("abort"))?;
                        killed += 1;
                        aborted = true;
                        break;
                    }
                    mutations += 1;
                    match op {
                        Op::Insert(k) => {
                            rel.insert(tuple_for(*k)).map_err(|_| bug("insert"))?;
                            target.insert(*k);
                        }
                        Op::Delete(k) => {
                            rel.delete(&tuple_for(*k)).map_err(|_| bug("delete"))?;
                            target.remove(k);
                        }
                    }
                }
                if !aborted {
                    srv.commit(txn).map_err(|_| bug("commit"))?;
                    committed = target;
                }
            }
        }
    }
    drop(rel);
    drop(srv);
    // The governor kill is graceful, so recovery has exactly one
    // legitimate state — no commit-point ambiguity.
    verify_recovery(&vfs, FRAMES, &[committed], &ctx)?;
    Ok(killed)
}

/// Count the tuple mutations in the seed's workload — the number of
/// distinct governor-kill points in [`run_overload_matrix`].
pub fn count_mutations(seed: u64) -> u64 {
    gen_workload(seed)
        .iter()
        .map(|s| match s {
            Step::Txn(ops) => ops.len() as u64,
            _ => 0,
        })
        .sum()
}

/// Kill at every tuple mutation in turn; each point must abort exactly
/// one transaction and still satisfy the recovery oracle. Returns the
/// number of kill points.
pub fn run_overload_matrix(seed: u64) -> Result<u64, String> {
    let total = count_mutations(seed);
    for kill_at in 0..total {
        let killed = run_overload_point(seed, kill_at)?;
        if killed != 1 {
            return Err(format!(
                "seed={seed} kill_at={kill_at}: expected exactly one governor kill, got {killed}"
            ));
        }
    }
    Ok(total)
}

/// Crash the workload at `crash_at`, then crash *recovery itself* at
/// every point until a reopen gets through, and assert the oracle on the
/// final state. Exercises WAL-replay idempotence: each aborted recovery
/// leaves a prefix of replayed pages that the next replay must converge
/// over. Returns the number of recovery attempts that crashed.
pub fn run_with_recovery_crashes(seed: u64, crash_at: u64) -> Result<u64, String> {
    let ctx = format!("seed={seed} crash_at={crash_at} (mid-recovery crashes)");
    let steps = gen_workload(seed);
    let vfs = SimVfs::new(seed);
    vfs.set_crash_at(crash_at);
    let acceptable = match run_workload(&vfs, &steps, FRAMES) {
        Outcome::Completed(state) => vec![state],
        Outcome::Crashed { acceptable } => acceptable,
    };
    let mut aborted = 0u64;
    loop {
        vfs.power_cycle();
        // Crash the j-th mutating op of this recovery attempt; j grows
        // by one each round, so every replay operation gets its turn
        // until recovery needs fewer ops than j and completes.
        vfs.set_crash_at(vfs.ops() + aborted);
        match StorageServer::open_with_vfs(Path::new(DIR), FRAMES, {
            let v: Arc<dyn coral_storage::Vfs> = Arc::new(vfs.clone());
            v
        }) {
            Ok(srv) => {
                drop(srv);
                vfs.clear_schedules();
                // Re-verify through the common path (fresh reopen).
                vfs.power_cycle();
                verify_recovery(&vfs, FRAMES, &acceptable, &ctx)?;
                return Ok(aborted);
            }
            Err(_) => {
                aborted += 1;
                if aborted > 10_000 {
                    return Err(format!("{ctx}: recovery never completed"));
                }
            }
        }
    }
}
