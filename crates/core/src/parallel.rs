//! Parallel semi-naive evaluation: partitioned delta chunks on a
//! std-thread worker pool.
//!
//! The semi-naive loop is embarrassingly parallel across the driving
//! delta scan of each rule version: every body read is bounded to marks
//! frozen at the start of the iteration (`[prev, cur)` for the delta
//! slot, `[0, prev)` / `[0, cur)` for the others — see
//! [`crate::join::JoinCtx`]), so mid-iteration head inserts are
//! invisible to the join and the per-tuple evaluations are independent.
//! The coordinator freezes every relation the rule reads into a
//! [`RelSnapshot`], partitions the delta into chunks, evaluates chunks
//! on the shared pool (each worker owns a private `EnvSet`, trail and
//! output buffer), then merges buffers *in chunk order* through the
//! ordinary insert path at the iteration barrier — reproducing exactly
//! the serial insertion sequence, so set/subsumption semantics, marks
//! and duplicate counts match serial evaluation (the `k=1`/`k=4`
//! differential test pins this down).
//!
//! What stays serial, and why:
//! * **Aggregate heads and aggregate selections** — grouping admits
//!   order-sensitive eviction (`any`, multiset `min`/`max` bookkeeping).
//! * **Ordered Search strata** (§5.4.1) — derivations must enter the
//!   context stack in order.
//! * **Multiset heads** — duplicate multiplicity depends on insertion
//!   interleaving within the join itself.
//! * **Rules reading module exports or persistent relations** — those
//!   reads re-enter the engine (`Rc` state, storage connections) and are
//!   not `Sync`; [`ExternalResolver::parallel_source`] reports which
//!   external literals have a frozen equivalent.
//! * **Non-ground output under subsumption** — detected dynamically: if
//!   any worker buffers a non-ground fact for a `SetSubsuming` head the
//!   buffers are discarded and the rule version re-runs serially, since
//!   insertion order can then change which facts subsume which.

use crate::compile::{CompiledRule, SnVersion};
use crate::error::{EvalError, EvalResult};
use crate::join::{eval_rule, resolve_head, RuleEnv};
use coral_lang::{Literal, PredRef};
use coral_rel::joinhash::JoinHashTable;
use coral_rel::relation::iter_from_vec;
use coral_rel::{
    ColumnarBatch, DupSemantics, HashRelation, IndexSpec, Mark, RelSnapshot, Relation, TupleIter,
};
use coral_term::bindenv::EnvSet;
use coral_term::{Term, Tuple};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// Deltas smaller than `2 * MIN_CHUNK` are not worth dispatching.
pub const MIN_CHUNK: usize = 16;

/// Hard cap on pool size regardless of the requested thread count.
const MAX_WORKERS: usize = 64;

/// The coordinator's stop signals, shared with every worker of a
/// dispatch: the engine's cancel flag and its budget governor. Workers
/// poll both between solutions so a cancelled or past-deadline query
/// stops mid-chunk instead of running its chunk to completion (tuple
/// and byte limits stay with the coordinator — the tuple meter is
/// thread-local to it — and fire at the merge).
pub struct Brake {
    pub(crate) cancel: Arc<AtomicBool>,
    pub(crate) governor: Arc<crate::budget::Governor>,
}

impl Brake {
    pub(crate) fn new(cancel: Arc<AtomicBool>, governor: Arc<crate::budget::Governor>) -> Brake {
        Brake { cancel, governor }
    }

    fn poll(&self) -> EvalResult<()> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(EvalError::Cancelled);
        }
        self.governor.check_deadline()
    }
}

/// How a worker sources candidates for an external (non-local) literal.
pub enum ParallelSource {
    /// A frozen base relation.
    Snapshot(RelSnapshot),
    /// A pure builtin predicate ([`crate::engine::builtins`]).
    Builtin,
}

/// A frozen view of one local relation plus the iteration's delta
/// boundaries for it.
pub(crate) struct LocalView {
    pub snap: RelSnapshot,
    pub prev: Mark,
    pub cur: Mark,
}

/// Everything shared (read-only) by the chunks of one dispatch.
pub(crate) struct JobCtx {
    pub rule: CompiledRule,
    pub version: SnVersion,
    /// Body position of the driving delta literal.
    pub delta_pos: usize,
    /// Predicate of the driving delta literal.
    pub delta_pred: PredRef,
    /// Index specs of the driving relation, replicated onto each chunk
    /// so a bound pattern at the delta slot keeps its index pruning.
    pub delta_index_specs: Vec<IndexSpec>,
    /// Frozen local relations (includes the head's relation).
    pub locals: HashMap<PredRef, LocalView>,
    /// Frozen sources for external literals.
    pub externals: HashMap<PredRef, ParallelSource>,
    /// Head predicate (its `LocalView` prefilters rederivations).
    pub head_pred: PredRef,
    /// Whether workers should collect profiling counter deltas.
    pub profiling: bool,
    /// Hash-join tables prebuilt by the coordinator (one per eligible
    /// body position), shared read-only by every chunk of the dispatch.
    /// Workers only take a table whose key columns match the runtime
    /// pattern's ground columns; otherwise they keep the index probe.
    pub hash_tables: HashMap<usize, Arc<JoinHashTable>>,
    /// Cancellation + deadline signals polled between solutions.
    pub brake: Option<Brake>,
}

// JobCtx is shared across worker threads via Arc.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<JobCtx>();
};

/// One chunk's evaluation result.
pub(crate) struct ChunkOut {
    /// Resolved head facts in chunk-local derivation order. Ground facts
    /// already present in the frozen head relation are prefiltered (the
    /// merge would reject them anyway; dropping them early shrinks the
    /// serial merge).
    pub facts: Vec<Tuple>,
    /// Body solutions produced (before any filtering).
    pub solutions: usize,
    /// Whether any buffered fact is non-ground (forces the serial
    /// re-run fallback for `SetSubsuming` heads).
    pub nonground: bool,
    /// Wall time this chunk spent evaluating.
    pub busy_ns: u64,
    /// Counter deltas, when profiling.
    pub counters: Option<coral_profile::Snapshot>,
}

// ---------------------------------------------------------------------
// The worker-side rule environment.
// ---------------------------------------------------------------------

/// [`RuleEnv`] over frozen snapshots, with the driving delta slot
/// overridden to one chunk.
struct WorkerEnv<'a> {
    ctx: &'a JobCtx,
    /// The chunk, replicated into a private relation carrying the
    /// driving relation's indexes.
    chunk: HashRelation,
    /// The chunk in columnar form, handed to the join's batch drive for
    /// open patterns at the delta slot.
    chunk_batch: Arc<ColumnarBatch>,
}

impl RuleEnv for WorkerEnv<'_> {
    fn delta_batch(&self, pos: usize) -> Option<Arc<ColumnarBatch>> {
        (pos == self.ctx.delta_pos).then(|| Arc::clone(&self.chunk_batch))
    }

    fn local_candidates(
        &self,
        pred: PredRef,
        recursive: bool,
        pos: usize,
        version: SnVersion,
        pattern: &[Term],
    ) -> EvalResult<TupleIter> {
        if pos == self.ctx.delta_pos && pred == self.ctx.delta_pred {
            return Ok(self.chunk.lookup(pattern));
        }
        let view = self
            .ctx
            .locals
            .get(&pred)
            .ok_or_else(|| EvalError::UnknownPredicate(pred.to_string()))?;
        if !recursive {
            return Ok(iter_from_vec(view.snap.lookup(pattern)));
        }
        let (prev, cur) = (view.prev, view.cur);
        Ok(iter_from_vec(match version.delta_idx {
            // pos == delta_idx is the chunk override above; a second
            // literal of the driving predicate at a different position
            // falls through to the range reads.
            Some(d) if pos == d => view.snap.lookup_range(pattern, prev, Some(cur)),
            Some(d) if pos < d => view.snap.lookup_range(pattern, Mark(0), Some(prev)),
            _ => view.snap.lookup_range(pattern, Mark(0), Some(cur)),
        }))
    }

    fn external_candidates(&self, lit: &Literal, pattern: &[Term]) -> EvalResult<TupleIter> {
        let pred = lit.pred_ref();
        match self.ctx.externals.get(&pred) {
            Some(ParallelSource::Snapshot(snap)) => Ok(iter_from_vec(snap.lookup(pattern))),
            Some(ParallelSource::Builtin) => {
                let tuples = crate::engine::builtins::eval(pred, pattern)?
                    .ok_or_else(|| EvalError::UnknownPredicate(pred.to_string()))?;
                Ok(iter_from_vec(tuples))
            }
            // Eligibility classified every external literal before
            // dispatch, so this is unreachable in practice.
            None => Err(EvalError::UnknownPredicate(pred.to_string())),
        }
    }

    fn negated_local(&self, pred: PredRef, pattern: &[Term]) -> EvalResult<TupleIter> {
        let view = self
            .ctx
            .locals
            .get(&pred)
            .ok_or_else(|| EvalError::UnknownPredicate(pred.to_string()))?;
        // Negation reads the full relation; stratification guarantees a
        // negated local is from a lower SCC and therefore frozen.
        Ok(iter_from_vec(view.snap.lookup(pattern)))
    }

    fn hash_table(
        &self,
        _lit: &Literal,
        _local: bool,
        _recursive: bool,
        pos: usize,
        _version: SnVersion,
        key_cols: &[usize],
    ) -> Option<Arc<JoinHashTable>> {
        // The coordinator prebuilt tables keyed on the *statically*
        // bound columns; the runtime pattern's ground columns can be
        // narrower when bindings are non-ground. Position identifies the
        // literal (workers run the coordinator's exact rule body), so a
        // key-column match is sufficient.
        let t = self.ctx.hash_tables.get(&pos)?;
        (t.key_cols() == key_cols).then(|| Arc::clone(t))
    }
}

/// Evaluate one chunk of the driving delta. Runs on a worker thread.
/// Chunks travel as [`ColumnarBatch`]es: the flat columns are shared
/// column storage, the side table carries the non-ground rows, and the
/// replicated chunk relation below preserves batch row order.
pub(crate) fn eval_chunk(ctx: &JobCtx, chunk: ColumnarBatch) -> EvalResult<ChunkOut> {
    let start = std::time::Instant::now();
    if ctx.profiling {
        coral_profile::set_enabled(true);
        coral_profile::reset();
    }
    // Multiset: the chunk is a slice of a delta scan, never deduped.
    let chunk_rel = HashRelation::with_semantics(ctx.delta_pred.arity, DupSemantics::Multiset);
    for spec in &ctx.delta_index_specs {
        // Index specs came off a live HashRelation, so they re-apply.
        chunk_rel.make_index(spec.clone()).map_err(EvalError::Rel)?;
    }
    for row in 0..chunk.len() {
        chunk_rel
            .insert(chunk.row_tuple(row))
            .map_err(EvalError::Rel)?;
    }
    let env = WorkerEnv {
        ctx,
        chunk: chunk_rel,
        chunk_batch: Arc::new(chunk),
    };
    let head_view = &ctx.locals[&ctx.head_pred];
    let head = ctx.rule.head.clone();
    let mut facts = Vec::new();
    let mut nonground = false;
    let mut envs = EnvSet::new();
    let mut since_poll: u32 = 0;
    let solutions = eval_rule(&env, &ctx.rule, ctx.version, &mut envs, &mut |envs, e| {
        // Amortized stop-signal poll: a shared atomic load every
        // solution would serialize the workers on hot rules.
        since_poll += 1;
        if since_poll >= 64 {
            since_poll = 0;
            if let Some(brake) = &ctx.brake {
                brake.poll()?;
            }
        }
        let fact = resolve_head(envs, &head, e);
        if fact.is_ground() {
            if head_view.snap.contains_exact(&fact) {
                return Ok(());
            }
        } else {
            nonground = true;
        }
        facts.push(fact);
        Ok(())
    })?;
    let counters = if ctx.profiling {
        let c = coral_profile::snapshot();
        coral_profile::set_enabled(false);
        coral_profile::reset();
        Some(c)
    } else {
        None
    };
    Ok(ChunkOut {
        facts,
        solutions,
        nonground,
        busy_ns: start.elapsed().as_nanos() as u64,
        counters,
    })
}

// ---------------------------------------------------------------------
// The shared worker pool.
// ---------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: Sender<Job>,
    rx: Arc<Mutex<Receiver<Job>>>,
    spawned: Mutex<usize>,
}

// Sender<Job> is Send but not Sync; guard it for the static.
struct SyncPool(Mutex<Pool>);

static POOL: OnceLock<SyncPool> = OnceLock::new();

fn pool() -> &'static SyncPool {
    POOL.get_or_init(|| {
        let (tx, rx) = channel::<Job>();
        SyncPool(Mutex::new(Pool {
            tx,
            rx: Arc::new(Mutex::new(rx)),
            spawned: Mutex::new(0),
        }))
    })
}

/// Make sure at least `want` worker threads exist (capped), then queue
/// `jobs`. Workers live for the process lifetime; a panicking job is
/// caught so it can neither kill a worker nor wedge the queue.
fn submit_all(want: usize, jobs: Vec<Job>) {
    let p = pool().0.lock().unwrap_or_else(|e| e.into_inner());
    {
        let mut spawned = p.spawned.lock().unwrap_or_else(|e| e.into_inner());
        let want = want.min(MAX_WORKERS);
        while *spawned < want {
            let rx = Arc::clone(&p.rx);
            let idx = *spawned;
            std::thread::Builder::new()
                .name(format!("coral-worker-{idx}"))
                .spawn(move || loop {
                    let job = {
                        let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                        guard.recv()
                    };
                    match job {
                        Ok(j) => {
                            let _ = catch_unwind(AssertUnwindSafe(j));
                        }
                        Err(_) => break,
                    }
                })
                .expect("spawn coral worker thread");
            *spawned += 1;
        }
    }
    for j in jobs {
        // Send only fails if every worker exited, which only happens at
        // process teardown.
        let _ = p.tx.send(j);
    }
}

/// Run `tasks` on the pool and return their results in task order.
/// A panic inside a task is re-raised on the calling thread.
pub(crate) fn run_tasks<T, F>(threads: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let n = tasks.len();
    let (rtx, rrx) = channel::<(usize, std::thread::Result<T>)>();
    let jobs: Vec<Job> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, task)| {
            let rtx = rtx.clone();
            Box::new(move || {
                let r = catch_unwind(AssertUnwindSafe(task));
                let _ = rtx.send((i, r));
            }) as Job
        })
        .collect();
    drop(rtx);
    submit_all(threads, jobs);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, r) = rrx
            .recv()
            .expect("worker pool dropped a result channel without replying");
        match r {
            Ok(v) => out[i] = Some(v),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    out.into_iter()
        .map(|o| o.expect("worker pool lost a task result"))
        .collect()
}

/// Resolve a thread-count request: explicit value, else `CORAL_THREADS`,
/// else 1 (serial). Zero is clamped to 1.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    let n = explicit.or_else(|| {
        std::env::var("CORAL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
    });
    n.unwrap_or(1).clamp(1, MAX_WORKERS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_partitioning_preserves_order_and_balance() {
        // Chunks now travel as columnar batches; the partition contract
        // (order, balance, the MIN_CHUNK floor on chunk count) lives on
        // [`ColumnarBatch::partition`] and is pinned here against this
        // module's MIN_CHUNK so the dispatch math cannot drift.
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| Tuple::ground(vec![Term::int(i)]))
            .collect();
        let batch = ColumnarBatch::from_tuples(1, tuples.clone());
        let chunks = batch.partition(4, MIN_CHUNK);
        assert_eq!(chunks.len(), 4);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes, vec![25, 25, 25, 25]);
        let flat: Vec<Tuple> = chunks.iter().flat_map(|c| c.to_tuples()).collect();
        assert_eq!(flat, tuples);
        // 40 tuples at MIN_CHUNK=16 supports at most ceil(40/16)=3 chunks.
        let small = ColumnarBatch::from_tuples(
            1,
            (0..40)
                .map(|i| Tuple::ground(vec![Term::int(i)]))
                .collect::<Vec<_>>(),
        );
        assert_eq!(small.partition(8, MIN_CHUNK).len(), 3);
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        let results = run_tasks(4, (0..16).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_survives_a_panicking_task() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_tasks(
                2,
                vec![
                    Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
                    Box::new(|| panic!("worker boom")),
                ],
            )
        }));
        assert!(r.is_err(), "panic must propagate to the coordinator");
        // The pool is still serviceable afterwards.
        let ok = run_tasks(2, vec![|| 7]);
        assert_eq!(ok, vec![7]);
    }

    #[test]
    fn resolve_threads_clamps() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(4)), 4);
        assert_eq!(resolve_threads(Some(10_000)), MAX_WORKERS);
    }
}
