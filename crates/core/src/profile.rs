//! Engine-wide profiling: the [`EngineProfile`] tree and its collector.
//!
//! The paper's performance story (§4.2, §5.3, §6) depends on seeing where
//! evaluation time goes. This module promotes the per-fixpoint
//! `FixpointStats` into a structured profile spanning every layer:
//!
//! * `coral-term` — hashcons hits/misses, unification attempts/failures,
//!   binding-environment allocations;
//! * `coral-rel` — index probes vs full scans, subsidiary mark advances;
//! * `coral-storage` — buffer-pool hits/misses/evictions, WAL appends;
//! * `coral-core` — join probes (per rule version), module-boundary
//!   get-next-tuple calls (§5.6), Ordered Search context-stack depth;
//! * per-SCC fixpoint sections — iterations, rule firings, facts
//!   derived/duplicates, wall time, with per-rule-version breakdowns.
//!
//! Every layer keeps its counters in a thread-local `Cell` behind the
//! `profile` cargo feature plus a runtime flag: no atomics touch the hot
//! path, and the disabled cost is one thread-local load and a branch.
//! [`set_profiling`] flips all layers at once; a [`Collector`] (started
//! by the engine for `@profile` modules) additionally diffs the counters
//! around one module call and gathers the per-SCC sections into an
//! [`EngineProfile`], which pretty-prints ([`EngineProfile::render`]) and
//! round-trips through JSON ([`EngineProfile::to_json`] /
//! [`EngineProfile::from_json`]) without any external dependency.

use std::fmt::Write as _;

/// Whether counters are compiled in (`profile` cargo feature).
pub const AVAILABLE: bool = cfg!(feature = "profile");

/// Core-layer counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Candidate tuples pulled by the nested-loops join.
    pub join_probes: u64,
    /// Module-boundary get-next-tuple requests (§5.6).
    pub get_next_tuple: u64,
    /// Ordered Search context-stack pushes (§5.4.1).
    pub os_context_pushes: u64,
    /// Ordered Search context-stack high-water mark.
    pub os_max_context_depth: u64,
    /// Candidate rows fully decided by columnar column operations
    /// (no binding-environment frame, no general unification).
    pub batched_rows: u64,
    /// Rows routed through general unification while the columnar path
    /// was on (side-table rows, non-ground candidates, mixed columns).
    pub fallback_rows: u64,
    /// Individual column compare/bind operations performed by the
    /// columnar fast path.
    pub vectorized_probes: u64,
    /// Rules whose candidate join orders the cost-based planner costed.
    pub plan_costed: u64,
    /// Rules the planner reordered away from source order.
    pub plan_reordered: u64,
    /// Mid-fixpoint replans (observed delta sizes overrode the
    /// compile-time order between iterations).
    pub plan_replans: u64,
    /// Base-delta propagations absorbed by maintained states.
    pub maintain_propagated: u64,
    /// Tuples overdeleted by the DRed deletion phase.
    pub maintain_overdeleted: u64,
    /// Overdeleted tuples rederived through surviving derivations.
    pub maintain_rederived: u64,
    /// Derivation-count adjustments applied by counting maintenance.
    pub maintain_count_updates: u64,
    /// Transient hash-join tables built.
    pub joinhash_tables_built: u64,
    /// Rows ingested by those builds (hashed + side rows).
    pub joinhash_build_rows: u64,
    /// Probes answered from a transient hash table.
    pub joinhash_probes: u64,
    /// Probes the blocked Bloom filter proved empty (the bucket map was
    /// never touched).
    pub joinhash_bloom_skips: u64,
    /// Side-table rows (non-ground key columns) re-checked by the
    /// general match during hash probes.
    pub joinhash_fallback_probes: u64,
}

impl Counters {
    /// All-zero counters (usable in const-initialized thread-locals).
    pub const ZERO: Counters = Counters {
        join_probes: 0,
        get_next_tuple: 0,
        os_context_pushes: 0,
        os_max_context_depth: 0,
        batched_rows: 0,
        fallback_rows: 0,
        vectorized_probes: 0,
        plan_costed: 0,
        plan_reordered: 0,
        plan_replans: 0,
        maintain_propagated: 0,
        maintain_overdeleted: 0,
        maintain_rederived: 0,
        maintain_count_updates: 0,
        joinhash_tables_built: 0,
        joinhash_build_rows: 0,
        joinhash_probes: 0,
        joinhash_bloom_skips: 0,
        joinhash_fallback_probes: 0,
    };
}

/// Fold a counter delta (e.g. one captured on a parallel worker thread)
/// into this thread's counters. No-op unless collection is enabled on
/// the calling thread. The Ordered Search high-water mark folds as a
/// maximum, not a sum.
pub fn add(d: Counters) {
    bump(|c| {
        c.join_probes += d.join_probes;
        c.get_next_tuple += d.get_next_tuple;
        c.os_context_pushes += d.os_context_pushes;
        c.os_max_context_depth = c.os_max_context_depth.max(d.os_max_context_depth);
        c.batched_rows += d.batched_rows;
        c.fallback_rows += d.fallback_rows;
        c.vectorized_probes += d.vectorized_probes;
        c.plan_costed += d.plan_costed;
        c.plan_reordered += d.plan_reordered;
        c.plan_replans += d.plan_replans;
        c.maintain_propagated += d.maintain_propagated;
        c.maintain_overdeleted += d.maintain_overdeleted;
        c.maintain_rederived += d.maintain_rederived;
        c.maintain_count_updates += d.maintain_count_updates;
        c.joinhash_tables_built += d.joinhash_tables_built;
        c.joinhash_build_rows += d.joinhash_build_rows;
        c.joinhash_probes += d.joinhash_probes;
        c.joinhash_bloom_skips += d.joinhash_bloom_skips;
        c.joinhash_fallback_probes += d.joinhash_fallback_probes;
    });
}

/// One thread's totals across every layer.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LayerTotals {
    pub term: coral_term::profile::Counters,
    pub rel: coral_rel::profile::Counters,
    pub storage: coral_storage::profile::Counters,
    pub core: Counters,
}

/// Per-rule-version statistics within an SCC section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuleVersionStats {
    /// `head_pred` plus the semi-naive version (delta literal index).
    pub label: String,
    /// Times this version was evaluated.
    pub firings: u64,
    /// Solutions its body produced (before duplicate elimination).
    pub solutions: u64,
    /// New facts it inserted.
    pub facts_derived: u64,
    /// Join candidate tuples it pulled.
    pub join_probes: u64,
}

/// Parallel-evaluation statistics for one SCC section (all zero when
/// every rule version in the SCC ran serially).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Rule-version evaluations dispatched to the worker pool.
    pub parallel_firings: u64,
    /// Rule-version evaluations that fell back to serial after being
    /// considered for the pool (small deltas, order-sensitive output).
    pub serial_fallbacks: u64,
    /// Largest worker count used by any dispatch.
    pub threads: u64,
    /// Total delta chunks dispatched.
    pub chunks: u64,
    /// Driving delta tuples partitioned across those chunks.
    pub delta_tuples: u64,
    /// Smallest chunk dispatched (skew numerator).
    pub min_chunk: u64,
    /// Largest chunk dispatched (skew denominator).
    pub max_chunk: u64,
    /// Coordinator time merging worker buffers into head relations.
    pub merge_ns: u64,
    /// Summed worker busy time (per-chunk evaluation wall time).
    pub busy_ns: u64,
    /// Coordinator wall time across parallel dispatches (partition +
    /// evaluate + merge); `busy_ns / (threads * wall_ns)` approximates
    /// worker utilization.
    pub wall_ns: u64,
}

/// One SCC's fixpoint section.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SccSection {
    /// SCC index in evaluation order.
    pub scc: usize,
    /// Member predicates.
    pub preds: Vec<String>,
    /// Fixpoint iterations executed.
    pub iterations: u64,
    /// Rule-version evaluations.
    pub rule_firings: u64,
    /// Solutions produced by rule bodies.
    pub solutions: u64,
    /// New facts inserted.
    pub facts_derived: u64,
    /// Solutions rejected as duplicates.
    pub duplicates: u64,
    /// Wall time spent iterating this SCC.
    pub wall_ns: u64,
    /// Parallel-evaluation statistics (zeros when fully serial).
    pub parallel: ParallelStats,
    /// Per-rule-version breakdown.
    pub rules: Vec<RuleVersionStats>,
}

/// Columnar-evaluation statistics for the profiled call (all zero when
/// the call matched no candidate rows).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Candidate rows fully decided by column operations.
    pub batched_rows: u64,
    /// Rows that fell back to general unification.
    pub fallback_rows: u64,
    /// Individual column compare/bind operations.
    pub vectorized_probes: u64,
}

/// Cost-based-planner statistics for the profiled call (all zero for
/// `@naive` and Ordered Search modules, which are never planned).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlannerStats {
    /// Rules whose candidate join orders were costed.
    pub costed: u64,
    /// Rules reordered away from source order.
    pub reordered: u64,
    /// Mid-fixpoint replans driven by observed delta cardinalities.
    pub replans: u64,
    /// Human-readable notes on the chosen orders (`compile: …`,
    /// `replan: …`), in the order the decisions were made.
    pub orders: Vec<String>,
}

/// Incremental-maintenance statistics for the profiled call (all zero
/// when no maintained state absorbed a base delta, e.g. a
/// `@maintain recompute` module).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Base-delta propagations absorbed by maintained states.
    pub propagated: u64,
    /// Tuples overdeleted by the DRed deletion phase.
    pub overdeleted: u64,
    /// Overdeleted tuples rederived through surviving derivations.
    pub rederived: u64,
    /// Derivation-count adjustments applied by counting maintenance.
    pub count_updates: u64,
}

/// Vectorized hash-join statistics for the profiled call (all zero
/// when the hash-join path never engaged: a `@naive` module, or the
/// cost gate kept every literal on the index-probe path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinHashStats {
    /// Transient hash tables built.
    pub tables_built: u64,
    /// Rows ingested by those builds (hashed + side rows).
    pub build_rows: u64,
    /// Probes answered from a transient hash table.
    pub probes: u64,
    /// Probes the blocked Bloom filter proved empty.
    pub bloom_skips: u64,
    /// Side-table rows re-checked by the general match during probes.
    pub fallback_probes: u64,
}

/// Resource-governor accounting for the profiled call: per-resource
/// usage against the armed [`crate::Budget`] limits. `armed` is false
/// (and everything zero) when the call ran without a budget.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetStats {
    /// Whether a budget was armed for the call.
    pub armed: bool,
    /// Used amount per resource, in [`crate::BudgetResource`] check
    /// order (see [`BudgetStats::RESOURCES`]).
    pub used: [u64; 5],
    /// Limit per resource, same order; 0 = unlimited.
    pub limits: [u64; 5],
}

impl BudgetStats {
    /// The resource order of `used` and `limits`.
    pub const RESOURCES: [&'static str; 5] =
        ["deadline-ms", "tuples", "term-bytes", "iterations", "depth"];

    /// Build from an armed budget and its live usage.
    pub fn new(budget: &crate::Budget, usage: &crate::BudgetUsage) -> BudgetStats {
        BudgetStats {
            armed: true,
            used: [
                usage.elapsed_ms,
                usage.tuples,
                usage.term_bytes,
                usage.iterations,
                usage.max_depth,
            ],
            limits: [
                budget.deadline_ms.unwrap_or(0),
                budget.max_tuples.unwrap_or(0),
                budget.max_term_bytes.unwrap_or(0),
                budget.max_iterations.unwrap_or(0),
                budget.max_depth.unwrap_or(0),
            ],
        }
    }
}

/// The structured profile of one module call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// The profiled call, e.g. `path(0, Y)`.
    pub query: String,
    /// End-to-end wall time (seeding through last answer).
    pub wall_ns: u64,
    /// Answers returned through the scan.
    pub answers: u64,
    /// Counter deltas for the call, per layer.
    pub totals: LayerTotals,
    /// Budget usage against the armed limits (unarmed = all zeros).
    pub budget: BudgetStats,
    /// Columnar-path statistics.
    pub columnar: ColumnarStats,
    /// Cost-based-planner statistics (all zeros for unplanned modules).
    pub planner: PlannerStats,
    /// Incremental-maintenance statistics (all zeros when no maintained
    /// state absorbed a base delta during the call).
    pub maintain: MaintainStats,
    /// Vectorized hash-join statistics (all zeros when the hash-join
    /// path never engaged).
    pub joinhash: JoinHashStats,
    /// Per-SCC fixpoint sections, in evaluation order.
    pub sccs: Vec<SccSection>,
}

// ---------------------------------------------------------------------
// Thread-local state: the core counter block and the section collector.
// ---------------------------------------------------------------------

#[cfg(feature = "profile")]
mod imp {
    use super::{Counters, SccSection};
    use std::cell::{Cell, RefCell};

    thread_local! {
        // Const-initialized, Drop-free cells: access is a direct TLS
        // load with no lazy-init branch, and the disabled path never
        // copies the counter block.
        static ENABLED: Cell<bool> = const { Cell::new(false) };
        static COUNTERS: Cell<Counters> = const { Cell::new(Counters::ZERO) };
        static NEXT_STATE_ID: Cell<u64> = const { Cell::new(1) };
        // (fixpoint-state id, scc index) -> section; Some while a
        // Collector is live.
        static SECTIONS: RefCell<Option<Vec<(u64, usize, SccSection)>>> =
            const { RefCell::new(None) };
        // Planner order notes gathered while a Collector is live.
        static PLAN_NOTES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

    #[inline]
    pub(crate) fn bump(f: impl FnOnce(&mut Counters)) {
        if ENABLED.with(|e| e.get()) {
            COUNTERS.with(|c| {
                let mut v = c.get();
                f(&mut v);
                c.set(v);
            });
        }
    }

    pub fn set_enabled(on: bool) {
        ENABLED.with(|e| e.set(on));
    }

    pub fn enabled() -> bool {
        ENABLED.with(|e| e.get())
    }

    pub fn reset() {
        COUNTERS.with(|c| c.set(Counters::ZERO));
    }

    pub fn snapshot() -> Counters {
        COUNTERS.with(|c| c.get())
    }

    /// A fresh identity for one `FixpointState` (distinguishes sections
    /// of nested module calls).
    pub fn new_state_id() -> u64 {
        NEXT_STATE_ID.with(|c| {
            let id = c.get();
            c.set(id + 1);
            id
        })
    }

    /// Whether a Collector is gathering sections on this thread.
    pub fn collecting() -> bool {
        SECTIONS.with(|s| s.borrow().is_some())
    }

    pub(super) fn begin_sections() -> bool {
        SECTIONS.with(|s| {
            let mut b = s.borrow_mut();
            if b.is_some() {
                return false;
            }
            *b = Some(Vec::new());
            true
        })
    }

    pub(super) fn take_sections() -> Vec<SccSection> {
        SECTIONS.with(|s| {
            s.borrow_mut()
                .take()
                .map(|v| v.into_iter().map(|(_, _, sec)| sec).collect())
                .unwrap_or_default()
        })
    }

    /// Record one planner order note (kept only while a Collector is
    /// gathering sections on this thread).
    pub(crate) fn plan_note(note: &str) {
        if collecting() {
            PLAN_NOTES.with(|n| n.borrow_mut().push(note.to_string()));
        }
    }

    pub(super) fn take_plan_notes() -> Vec<String> {
        PLAN_NOTES.with(|n| std::mem::take(&mut *n.borrow_mut()))
    }

    pub(crate) fn with_section(state: u64, scc: usize, f: impl FnOnce(&mut SccSection)) {
        SECTIONS.with(|s| {
            let mut b = s.borrow_mut();
            if let Some(list) = b.as_mut() {
                let idx = match list
                    .iter()
                    .position(|(st, sc, _)| *st == state && *sc == scc)
                {
                    Some(i) => i,
                    None => {
                        list.push((
                            state,
                            scc,
                            SccSection {
                                scc,
                                ..SccSection::default()
                            },
                        ));
                        list.len() - 1
                    }
                };
                f(&mut list[idx].2);
            }
        });
    }
}

#[cfg(feature = "profile")]
pub(crate) use imp::{bump, plan_note, with_section};
#[cfg(feature = "profile")]
pub use imp::{collecting, enabled, new_state_id, reset, set_enabled, snapshot};

#[cfg(not(feature = "profile"))]
mod imp_off {
    use super::{Counters, SccSection};

    #[inline(always)]
    pub(crate) fn bump(_f: impl FnOnce(&mut Counters)) {}

    pub fn set_enabled(_on: bool) {}

    pub fn enabled() -> bool {
        false
    }

    pub fn reset() {}

    pub fn snapshot() -> Counters {
        Counters::default()
    }

    pub fn new_state_id() -> u64 {
        0
    }

    #[inline(always)]
    pub fn collecting() -> bool {
        false
    }

    pub(super) fn begin_sections() -> bool {
        false
    }

    pub(super) fn take_sections() -> Vec<SccSection> {
        Vec::new()
    }

    #[inline(always)]
    pub(crate) fn plan_note(_note: &str) {}

    pub(super) fn take_plan_notes() -> Vec<String> {
        Vec::new()
    }

    #[inline(always)]
    pub(crate) fn with_section(_state: u64, _scc: usize, _f: impl FnOnce(&mut SccSection)) {}
}

#[cfg(not(feature = "profile"))]
pub(crate) use imp_off::{bump, plan_note, with_section};
#[cfg(not(feature = "profile"))]
pub use imp_off::{collecting, enabled, new_state_id, reset, set_enabled, snapshot};

/// Enable or disable counter collection in every layer at once (the
/// runtime flag; a no-op without the `profile` feature).
pub fn set_profiling(on: bool) {
    coral_term::profile::set_enabled(on);
    coral_rel::profile::set_enabled(on);
    coral_storage::profile::set_enabled(on);
    set_enabled(on);
}

/// Whether the runtime flag is on (for this thread).
pub fn profiling() -> bool {
    enabled()
}

/// Snapshot every layer's counters.
pub fn snapshot_totals() -> LayerTotals {
    LayerTotals {
        term: coral_term::profile::snapshot(),
        rel: coral_rel::profile::snapshot(),
        storage: coral_storage::profile::snapshot(),
        core: snapshot(),
    }
}

/// Reset every layer's counters.
pub fn reset_all() {
    coral_term::profile::reset();
    coral_rel::profile::reset();
    coral_storage::profile::reset();
    reset();
}

/// Flat `(name, value)` view of every layer's counters — what the bench
/// harness embeds in BENCH_*.json.
pub fn all_counters() -> Vec<(String, u64)> {
    let t = snapshot_totals();
    flatten_totals(&t)
}

fn flatten_totals(t: &LayerTotals) -> Vec<(String, u64)> {
    vec![
        ("term.hashcons_hits".into(), t.term.hashcons_hits),
        ("term.hashcons_misses".into(), t.term.hashcons_misses),
        ("term.unify_attempts".into(), t.term.unify_attempts),
        ("term.unify_failures".into(), t.term.unify_failures),
        ("term.bindenv_allocs".into(), t.term.bindenv_allocs),
        ("rel.index_probes".into(), t.rel.index_probes),
        ("rel.full_scans".into(), t.rel.full_scans),
        ("rel.mark_advances".into(), t.rel.mark_advances),
        ("storage.pool_hits".into(), t.storage.pool_hits),
        ("storage.pool_misses".into(), t.storage.pool_misses),
        ("storage.pool_evictions".into(), t.storage.pool_evictions),
        ("storage.wal_appends".into(), t.storage.wal_appends),
        ("core.join_probes".into(), t.core.join_probes),
        ("core.get_next_tuple".into(), t.core.get_next_tuple),
        ("core.os_context_pushes".into(), t.core.os_context_pushes),
        (
            "core.os_max_context_depth".into(),
            t.core.os_max_context_depth,
        ),
        ("core.batched_rows".into(), t.core.batched_rows),
        ("core.fallback_rows".into(), t.core.fallback_rows),
        ("core.vectorized_probes".into(), t.core.vectorized_probes),
        ("core.plan_costed".into(), t.core.plan_costed),
        ("core.plan_reordered".into(), t.core.plan_reordered),
        ("core.plan_replans".into(), t.core.plan_replans),
        (
            "core.maintain_propagated".into(),
            t.core.maintain_propagated,
        ),
        (
            "core.maintain_overdeleted".into(),
            t.core.maintain_overdeleted,
        ),
        ("core.maintain_rederived".into(), t.core.maintain_rederived),
        (
            "core.maintain_count_updates".into(),
            t.core.maintain_count_updates,
        ),
        (
            "core.joinhash_tables_built".into(),
            t.core.joinhash_tables_built,
        ),
        (
            "core.joinhash_build_rows".into(),
            t.core.joinhash_build_rows,
        ),
        ("core.joinhash_probes".into(), t.core.joinhash_probes),
        (
            "core.joinhash_bloom_skips".into(),
            t.core.joinhash_bloom_skips,
        ),
        (
            "core.joinhash_fallback_probes".into(),
            t.core.joinhash_fallback_probes,
        ),
    ]
}

fn diff_totals(before: &LayerTotals, after: &LayerTotals) -> LayerTotals {
    let d = |a: u64, b: u64| a.saturating_sub(b);
    LayerTotals {
        term: coral_term::profile::Counters {
            hashcons_hits: d(after.term.hashcons_hits, before.term.hashcons_hits),
            hashcons_misses: d(after.term.hashcons_misses, before.term.hashcons_misses),
            unify_attempts: d(after.term.unify_attempts, before.term.unify_attempts),
            unify_failures: d(after.term.unify_failures, before.term.unify_failures),
            bindenv_allocs: d(after.term.bindenv_allocs, before.term.bindenv_allocs),
        },
        rel: coral_rel::profile::Counters {
            index_probes: d(after.rel.index_probes, before.rel.index_probes),
            full_scans: d(after.rel.full_scans, before.rel.full_scans),
            mark_advances: d(after.rel.mark_advances, before.rel.mark_advances),
        },
        storage: coral_storage::profile::Counters {
            pool_hits: d(after.storage.pool_hits, before.storage.pool_hits),
            pool_misses: d(after.storage.pool_misses, before.storage.pool_misses),
            pool_evictions: d(after.storage.pool_evictions, before.storage.pool_evictions),
            wal_appends: d(after.storage.wal_appends, before.storage.wal_appends),
        },
        core: Counters {
            join_probes: d(after.core.join_probes, before.core.join_probes),
            get_next_tuple: d(after.core.get_next_tuple, before.core.get_next_tuple),
            os_context_pushes: d(after.core.os_context_pushes, before.core.os_context_pushes),
            // The high-water mark is not a sum; report the call's maximum.
            os_max_context_depth: after.core.os_max_context_depth,
            batched_rows: d(after.core.batched_rows, before.core.batched_rows),
            fallback_rows: d(after.core.fallback_rows, before.core.fallback_rows),
            vectorized_probes: d(after.core.vectorized_probes, before.core.vectorized_probes),
            plan_costed: d(after.core.plan_costed, before.core.plan_costed),
            plan_reordered: d(after.core.plan_reordered, before.core.plan_reordered),
            plan_replans: d(after.core.plan_replans, before.core.plan_replans),
            maintain_propagated: d(
                after.core.maintain_propagated,
                before.core.maintain_propagated,
            ),
            maintain_overdeleted: d(
                after.core.maintain_overdeleted,
                before.core.maintain_overdeleted,
            ),
            maintain_rederived: d(
                after.core.maintain_rederived,
                before.core.maintain_rederived,
            ),
            maintain_count_updates: d(
                after.core.maintain_count_updates,
                before.core.maintain_count_updates,
            ),
            joinhash_tables_built: d(
                after.core.joinhash_tables_built,
                before.core.joinhash_tables_built,
            ),
            joinhash_build_rows: d(
                after.core.joinhash_build_rows,
                before.core.joinhash_build_rows,
            ),
            joinhash_probes: d(after.core.joinhash_probes, before.core.joinhash_probes),
            joinhash_bloom_skips: d(
                after.core.joinhash_bloom_skips,
                before.core.joinhash_bloom_skips,
            ),
            joinhash_fallback_probes: d(
                after.core.joinhash_fallback_probes,
                before.core.joinhash_fallback_probes,
            ),
        },
    }
}

// ---------------------------------------------------------------------
// The collector: brackets one module call.
// ---------------------------------------------------------------------

/// Diffs all counters around one module call and gathers per-SCC
/// sections. At most one per thread — nested module calls fold into the
/// outermost collector's profile.
pub struct Collector {
    prior_enabled: bool,
    before: LayerTotals,
    start: std::time::Instant,
    finished: bool,
}

impl Collector {
    /// Start collecting; `None` when profiling is compiled out or a
    /// collector is already active on this thread.
    pub fn begin() -> Option<Collector> {
        if !AVAILABLE || !imp_begin_sections() {
            return None;
        }
        let prior_enabled = enabled();
        if !prior_enabled {
            set_profiling(true);
        }
        Some(Collector {
            prior_enabled,
            before: snapshot_totals(),
            start: std::time::Instant::now(),
            finished: false,
        })
    }

    /// Finish: build the profile and restore the runtime flag.
    pub fn finish(mut self, query: String, answers: u64) -> EngineProfile {
        self.finished = true;
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let totals = diff_totals(&self.before, &snapshot_totals());
        let sccs = imp_take_sections();
        if !self.prior_enabled {
            set_profiling(false);
        }
        let columnar = ColumnarStats {
            batched_rows: totals.core.batched_rows,
            fallback_rows: totals.core.fallback_rows,
            vectorized_probes: totals.core.vectorized_probes,
        };
        let planner = PlannerStats {
            costed: totals.core.plan_costed,
            reordered: totals.core.plan_reordered,
            replans: totals.core.plan_replans,
            orders: imp_take_plan_notes(),
        };
        let maintain = MaintainStats {
            propagated: totals.core.maintain_propagated,
            overdeleted: totals.core.maintain_overdeleted,
            rederived: totals.core.maintain_rederived,
            count_updates: totals.core.maintain_count_updates,
        };
        let joinhash = JoinHashStats {
            tables_built: totals.core.joinhash_tables_built,
            build_rows: totals.core.joinhash_build_rows,
            probes: totals.core.joinhash_probes,
            bloom_skips: totals.core.joinhash_bloom_skips,
            fallback_probes: totals.core.joinhash_fallback_probes,
        };
        EngineProfile {
            query,
            wall_ns,
            answers,
            totals,
            budget: BudgetStats::default(),
            columnar,
            planner,
            maintain,
            joinhash,
            sccs,
        }
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        if !self.finished {
            // Abandoned (an evaluation error): discard sections, restore
            // the flag.
            let _ = imp_take_sections();
            let _ = imp_take_plan_notes();
            if !self.prior_enabled {
                set_profiling(false);
            }
        }
    }
}

#[cfg(feature = "profile")]
fn imp_begin_sections() -> bool {
    imp::begin_sections()
}
#[cfg(feature = "profile")]
fn imp_take_sections() -> Vec<SccSection> {
    imp::take_sections()
}
#[cfg(feature = "profile")]
fn imp_take_plan_notes() -> Vec<String> {
    imp::take_plan_notes()
}
#[cfg(not(feature = "profile"))]
fn imp_begin_sections() -> bool {
    imp_off::begin_sections()
}
#[cfg(not(feature = "profile"))]
fn imp_take_sections() -> Vec<SccSection> {
    imp_off::take_sections()
}
#[cfg(not(feature = "profile"))]
fn imp_take_plan_notes() -> Vec<String> {
    imp_off::take_plan_notes()
}

// ---------------------------------------------------------------------
// Hooks used by the evaluator (all no-ops unless a collector is active).
// ---------------------------------------------------------------------

/// Record one fixpoint iteration of `(state, scc)`.
pub(crate) fn scc_iteration(state: u64, scc: usize, preds: impl FnOnce() -> Vec<String>) {
    with_section(state, scc, |sec| {
        sec.iterations += 1;
        if sec.preds.is_empty() {
            sec.preds = preds();
        }
    });
}

/// Record wall time spent in one iteration of `(state, scc)`.
pub(crate) fn scc_time(state: u64, scc: usize, ns: u64) {
    with_section(state, scc, |sec| sec.wall_ns += ns);
}

/// Record one rule-version evaluation within `(state, scc)`.
pub(crate) fn scc_rule(
    state: u64,
    scc: usize,
    label: impl FnOnce() -> String,
    solutions: u64,
    derived: u64,
    join_probes: u64,
) {
    with_section(state, scc, |sec| {
        sec.rule_firings += 1;
        sec.solutions += solutions;
        sec.facts_derived += derived;
        sec.duplicates += solutions.saturating_sub(derived);
        let label = label();
        match sec.rules.iter_mut().find(|r| r.label == label) {
            Some(r) => {
                r.firings += 1;
                r.solutions += solutions;
                r.facts_derived += derived;
                r.join_probes += join_probes;
            }
            None => sec.rules.push(RuleVersionStats {
                label,
                firings: 1,
                solutions,
                facts_derived: derived,
                join_probes,
            }),
        }
    });
}

/// Fold one parallel dispatch (or fallback decision) into the parallel
/// stats of `(state, scc)`.
pub(crate) fn scc_parallel(state: u64, scc: usize, d: ParallelStats) {
    with_section(state, scc, |sec| {
        let p = &mut sec.parallel;
        p.parallel_firings += d.parallel_firings;
        p.serial_fallbacks += d.serial_fallbacks;
        p.threads = p.threads.max(d.threads);
        p.delta_tuples += d.delta_tuples;
        p.merge_ns += d.merge_ns;
        p.busy_ns += d.busy_ns;
        p.wall_ns += d.wall_ns;
        if d.chunks > 0 {
            p.min_chunk = if p.chunks == 0 {
                d.min_chunk
            } else {
                p.min_chunk.min(d.min_chunk)
            };
            p.max_chunk = p.max_chunk.max(d.max_chunk);
        }
        p.chunks += d.chunks;
    });
}

// ---------------------------------------------------------------------
// Rendering and JSON.
// ---------------------------------------------------------------------

impl EngineProfile {
    /// Total fixpoint iterations across all sections.
    pub fn iterations(&self) -> u64 {
        self.sccs.iter().map(|s| s.iterations).sum()
    }

    /// The layer totals as `("layer.counter", value)` pairs, in the
    /// same order as the JSON emitter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        flatten_totals(&self.totals)
    }

    /// Pretty-print the profile tree (the `.profile` REPL command).
    pub fn render(&self) -> String {
        let t = &self.totals;
        let mut s = String::new();
        let _ = writeln!(s, "profile: {}", self.query);
        let _ = writeln!(
            s,
            "  wall: {}  answers: {}",
            fmt_ns(self.wall_ns),
            self.answers
        );
        let _ = writeln!(
            s,
            "  term: hashcons {} hits / {} misses, unify {} attempts ({} failed), bindenv {} frames",
            t.term.hashcons_hits,
            t.term.hashcons_misses,
            t.term.unify_attempts,
            t.term.unify_failures,
            t.term.bindenv_allocs
        );
        let _ = writeln!(
            s,
            "  rel: {} index probes, {} full scans, {} mark advances",
            t.rel.index_probes, t.rel.full_scans, t.rel.mark_advances
        );
        let _ = writeln!(
            s,
            "  storage: pool {} hits / {} misses / {} evictions, wal {} appends",
            t.storage.pool_hits,
            t.storage.pool_misses,
            t.storage.pool_evictions,
            t.storage.wal_appends
        );
        let _ = writeln!(
            s,
            "  core: {} join probes, {} get-next-tuple, os {} pushes (max depth {})",
            t.core.join_probes,
            t.core.get_next_tuple,
            t.core.os_context_pushes,
            t.core.os_max_context_depth
        );
        let cs = &self.columnar;
        if cs.batched_rows > 0 || cs.fallback_rows > 0 || cs.vectorized_probes > 0 {
            let _ = writeln!(
                s,
                "  columnar: {} batched rows, {} fallback rows, {} vectorized probes",
                cs.batched_rows, cs.fallback_rows, cs.vectorized_probes
            );
        }
        let ps = &self.planner;
        if ps.costed > 0 || ps.reordered > 0 || ps.replans > 0 {
            let _ = writeln!(
                s,
                "  planner: {} rules costed, {} reordered, {} replans",
                ps.costed, ps.reordered, ps.replans
            );
            for o in &ps.orders {
                let _ = writeln!(s, "    order {o}");
            }
        }
        let ms = &self.maintain;
        if ms.propagated > 0 || ms.overdeleted > 0 || ms.rederived > 0 || ms.count_updates > 0 {
            let _ = writeln!(
                s,
                "  maintain: {} propagations, {} count updates, \
                 {} overdeleted, {} rederived",
                ms.propagated, ms.count_updates, ms.overdeleted, ms.rederived
            );
        }
        let js = &self.joinhash;
        if js.tables_built > 0 || js.probes > 0 {
            let _ = writeln!(
                s,
                "  joinhash: {} tables ({} rows), {} probes, \
                 {} bloom skips, {} fallback probes",
                js.tables_built, js.build_rows, js.probes, js.bloom_skips, js.fallback_probes
            );
        }
        if self.budget.armed {
            let _ = write!(s, "  budget:");
            for (i, name) in BudgetStats::RESOURCES.iter().enumerate() {
                let lim = match self.budget.limits[i] {
                    0 => "-".into(),
                    l => l.to_string(),
                };
                let _ = write!(s, " {name} {}/{lim}", self.budget.used[i]);
            }
            s.push('\n');
        }
        for sec in &self.sccs {
            let _ = writeln!(
                s,
                "  scc {} [{}]: {} iterations, {} firings, {} derived (+{} dup), {}",
                sec.scc,
                sec.preds.join(", "),
                sec.iterations,
                sec.rule_firings,
                sec.facts_derived,
                sec.duplicates,
                fmt_ns(sec.wall_ns)
            );
            let p = &sec.parallel;
            if p.parallel_firings > 0 || p.serial_fallbacks > 0 {
                let skew = if p.max_chunk > 0 {
                    format!("{}..{}", p.min_chunk, p.max_chunk)
                } else {
                    "-".into()
                };
                let util = if p.threads > 0 && p.wall_ns > 0 {
                    format!(
                        "{:.0}%",
                        100.0 * p.busy_ns as f64 / (p.threads as f64 * p.wall_ns as f64)
                    )
                } else {
                    "-".into()
                };
                let _ = writeln!(
                    s,
                    "    parallel: {} dispatches ({} threads), {} chunks over {} delta tuples \
                     (chunk {}), merge {}, busy {} (util {}), {} serial fallbacks",
                    p.parallel_firings,
                    p.threads,
                    p.chunks,
                    p.delta_tuples,
                    skew,
                    fmt_ns(p.merge_ns),
                    fmt_ns(p.busy_ns),
                    util,
                    p.serial_fallbacks
                );
            }
            for r in &sec.rules {
                let _ = writeln!(
                    s,
                    "    rule {}: {} firings, {} solutions, {} derived, {} probes",
                    r.label, r.firings, r.solutions, r.facts_derived, r.join_probes
                );
            }
        }
        s
    }

    /// Machine-readable JSON (no external dependency; see DESIGN.md for
    /// the schema).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"query\": {},", json_string(&self.query));
        let _ = writeln!(s, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(s, "  \"answers\": {},", self.answers);
        let b = &self.budget;
        let nums = |xs: &[u64; 5]| {
            xs.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            s,
            "  \"budget\": {{\"armed\": {}, \"used\": [{}], \"limits\": [{}]}},",
            b.armed as u64,
            nums(&b.used),
            nums(&b.limits)
        );
        let cs = &self.columnar;
        let _ = writeln!(
            s,
            "  \"columnar\": {{\"batched_rows\": {}, \"fallback_rows\": {}, \
             \"vectorized_probes\": {}}},",
            cs.batched_rows, cs.fallback_rows, cs.vectorized_probes
        );
        let ps = &self.planner;
        let _ = write!(
            s,
            "  \"planner\": {{\"costed\": {}, \"reordered\": {}, \"replans\": {}, \"orders\": [",
            ps.costed, ps.reordered, ps.replans
        );
        for (i, o) in ps.orders.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_string(o));
        }
        s.push_str("]},\n");
        let ms = &self.maintain;
        let _ = writeln!(
            s,
            "  \"maintain\": {{\"propagated\": {}, \"overdeleted\": {}, \
             \"rederived\": {}, \"count_updates\": {}}},",
            ms.propagated, ms.overdeleted, ms.rederived, ms.count_updates
        );
        let js = &self.joinhash;
        let _ = writeln!(
            s,
            "  \"joinhash\": {{\"tables_built\": {}, \"build_rows\": {}, \"probes\": {}, \
             \"bloom_skips\": {}, \"fallback_probes\": {}}},",
            js.tables_built, js.build_rows, js.probes, js.bloom_skips, js.fallback_probes
        );
        s.push_str("  \"totals\": {");
        for (i, (k, v)) in flatten_totals(&self.totals).iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {v}", json_string(k));
        }
        s.push_str("},\n");
        s.push_str("  \"sccs\": [");
        for (i, sec) in self.sccs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            let _ = write!(s, "\"scc\": {}, \"preds\": [", sec.scc);
            for (j, p) in sec.preds.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_string(p));
            }
            let _ = write!(
                s,
                "], \"iterations\": {}, \"rule_firings\": {}, \"solutions\": {}, \
                 \"facts_derived\": {}, \"duplicates\": {}, \"wall_ns\": {}, ",
                sec.iterations,
                sec.rule_firings,
                sec.solutions,
                sec.facts_derived,
                sec.duplicates,
                sec.wall_ns
            );
            let _ = write!(s, "\"parallel\": {}, \"rules\": [", {
                let p = &sec.parallel;
                format!(
                    "{{\"parallel_firings\": {}, \"serial_fallbacks\": {}, \"threads\": {}, \
                     \"chunks\": {}, \"delta_tuples\": {}, \"min_chunk\": {}, \"max_chunk\": {}, \
                     \"merge_ns\": {}, \"busy_ns\": {}, \"wall_ns\": {}}}",
                    p.parallel_firings,
                    p.serial_fallbacks,
                    p.threads,
                    p.chunks,
                    p.delta_tuples,
                    p.min_chunk,
                    p.max_chunk,
                    p.merge_ns,
                    p.busy_ns,
                    p.wall_ns
                )
            });
            for (j, r) in sec.rules.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "\n      {{\"label\": {}, \"firings\": {}, \"solutions\": {}, \
                     \"facts_derived\": {}, \"join_probes\": {}}}",
                    json_string(&r.label),
                    r.firings,
                    r.solutions,
                    r.facts_derived,
                    r.join_probes
                );
            }
            if !sec.rules.is_empty() {
                s.push_str("\n    ");
            }
            s.push_str("]}");
        }
        if !self.sccs.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Parse a profile back from [`EngineProfile::to_json`] output.
    pub fn from_json(input: &str) -> Result<EngineProfile, String> {
        let v = json::parse(input)?;
        let obj = v.as_obj().ok_or("profile: expected an object")?;
        let mut p = EngineProfile {
            query: json::get_str(obj, "query")?,
            wall_ns: json::get_u64(obj, "wall_ns")?,
            answers: json::get_u64(obj, "answers")?,
            ..EngineProfile::default()
        };
        // Profiles written before the resource governor existed have
        // no "budget" key; default to unarmed all-zero stats.
        if let Ok(bv) = json::get(obj, "budget") {
            let bo = bv.as_obj().ok_or("budget: expected an object")?;
            let mut b = BudgetStats {
                armed: json::get_u64(bo, "armed")? != 0,
                ..BudgetStats::default()
            };
            for (key, slot) in [("used", &mut b.used), ("limits", &mut b.limits)] {
                let arr = json::get(bo, key)?
                    .as_arr()
                    .ok_or("budget: expected an array")?;
                for (i, v) in arr.iter().enumerate().take(5) {
                    slot[i] = v.as_u64().ok_or("budget: expected a number")?;
                }
            }
            p.budget = b;
        }
        // Profiles written before columnar evaluation existed have no
        // "columnar" key; default to all-zero stats.
        if let Ok(cv) = json::get(obj, "columnar") {
            let co = cv.as_obj().ok_or("columnar: expected an object")?;
            p.columnar = ColumnarStats {
                batched_rows: json::get_u64(co, "batched_rows")?,
                fallback_rows: json::get_u64(co, "fallback_rows")?,
                vectorized_probes: json::get_u64(co, "vectorized_probes")?,
            };
        }
        // Profiles written before cost-based planning existed have no
        // "planner" key; default to all-zero stats.
        if let Ok(pv) = json::get(obj, "planner") {
            let po = pv.as_obj().ok_or("planner: expected an object")?;
            let mut ps = PlannerStats {
                costed: json::get_u64(po, "costed")?,
                reordered: json::get_u64(po, "reordered")?,
                replans: json::get_u64(po, "replans")?,
                orders: Vec::new(),
            };
            for ov in json::get(po, "orders")?.as_arr().ok_or("orders: array")? {
                ps.orders
                    .push(ov.as_str().ok_or("order: expected a string")?.to_string());
            }
            p.planner = ps;
        }
        // Profiles written before incremental maintenance existed have
        // no "maintain" key; default to all-zero stats.
        if let Ok(mv) = json::get(obj, "maintain") {
            let mo = mv.as_obj().ok_or("maintain: expected an object")?;
            p.maintain = MaintainStats {
                propagated: json::get_u64(mo, "propagated")?,
                overdeleted: json::get_u64(mo, "overdeleted")?,
                rederived: json::get_u64(mo, "rederived")?,
                count_updates: json::get_u64(mo, "count_updates")?,
            };
        }
        // Profiles written before hash-join evaluation existed have no
        // "joinhash" key; default to all-zero stats.
        if let Ok(jv) = json::get(obj, "joinhash") {
            let jo = jv.as_obj().ok_or("joinhash: expected an object")?;
            p.joinhash = JoinHashStats {
                tables_built: json::get_u64(jo, "tables_built")?,
                build_rows: json::get_u64(jo, "build_rows")?,
                probes: json::get_u64(jo, "probes")?,
                bloom_skips: json::get_u64(jo, "bloom_skips")?,
                fallback_probes: json::get_u64(jo, "fallback_probes")?,
            };
        }
        let totals = json::get(obj, "totals")?
            .as_obj()
            .ok_or("totals: expected an object")?;
        let mut flat: Vec<(String, u64)> = Vec::new();
        for (k, v) in totals {
            flat.push((k.clone(), v.as_u64().ok_or("totals: expected a number")?));
        }
        p.totals = unflatten_totals(&flat);
        for sec_v in json::get(obj, "sccs")?
            .as_arr()
            .ok_or("sccs: expected an array")?
        {
            let so = sec_v.as_obj().ok_or("scc: expected an object")?;
            let mut sec = SccSection {
                scc: json::get_u64(so, "scc")? as usize,
                iterations: json::get_u64(so, "iterations")?,
                rule_firings: json::get_u64(so, "rule_firings")?,
                solutions: json::get_u64(so, "solutions")?,
                facts_derived: json::get_u64(so, "facts_derived")?,
                duplicates: json::get_u64(so, "duplicates")?,
                wall_ns: json::get_u64(so, "wall_ns")?,
                ..SccSection::default()
            };
            // Profiles written before parallel evaluation existed have
            // no "parallel" key; default to all-zero stats.
            if let Ok(pv) = json::get(so, "parallel") {
                let po = pv.as_obj().ok_or("parallel: expected an object")?;
                sec.parallel = ParallelStats {
                    parallel_firings: json::get_u64(po, "parallel_firings")?,
                    serial_fallbacks: json::get_u64(po, "serial_fallbacks")?,
                    threads: json::get_u64(po, "threads")?,
                    chunks: json::get_u64(po, "chunks")?,
                    delta_tuples: json::get_u64(po, "delta_tuples")?,
                    min_chunk: json::get_u64(po, "min_chunk")?,
                    max_chunk: json::get_u64(po, "max_chunk")?,
                    merge_ns: json::get_u64(po, "merge_ns")?,
                    busy_ns: json::get_u64(po, "busy_ns")?,
                    wall_ns: json::get_u64(po, "wall_ns")?,
                };
            }
            for pv in json::get(so, "preds")?.as_arr().ok_or("preds: array")? {
                sec.preds
                    .push(pv.as_str().ok_or("pred: expected a string")?.to_string());
            }
            for rv in json::get(so, "rules")?.as_arr().ok_or("rules: array")? {
                let ro = rv.as_obj().ok_or("rule: expected an object")?;
                sec.rules.push(RuleVersionStats {
                    label: json::get_str(ro, "label")?,
                    firings: json::get_u64(ro, "firings")?,
                    solutions: json::get_u64(ro, "solutions")?,
                    facts_derived: json::get_u64(ro, "facts_derived")?,
                    join_probes: json::get_u64(ro, "join_probes")?,
                });
            }
            p.sccs.push(sec);
        }
        Ok(p)
    }
}

fn unflatten_totals(flat: &[(String, u64)]) -> LayerTotals {
    let get = |name: &str| {
        flat.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    LayerTotals {
        term: coral_term::profile::Counters {
            hashcons_hits: get("term.hashcons_hits"),
            hashcons_misses: get("term.hashcons_misses"),
            unify_attempts: get("term.unify_attempts"),
            unify_failures: get("term.unify_failures"),
            bindenv_allocs: get("term.bindenv_allocs"),
        },
        rel: coral_rel::profile::Counters {
            index_probes: get("rel.index_probes"),
            full_scans: get("rel.full_scans"),
            mark_advances: get("rel.mark_advances"),
        },
        storage: coral_storage::profile::Counters {
            pool_hits: get("storage.pool_hits"),
            pool_misses: get("storage.pool_misses"),
            pool_evictions: get("storage.pool_evictions"),
            wal_appends: get("storage.wal_appends"),
        },
        core: Counters {
            join_probes: get("core.join_probes"),
            get_next_tuple: get("core.get_next_tuple"),
            os_context_pushes: get("core.os_context_pushes"),
            os_max_context_depth: get("core.os_max_context_depth"),
            batched_rows: get("core.batched_rows"),
            fallback_rows: get("core.fallback_rows"),
            vectorized_probes: get("core.vectorized_probes"),
            plan_costed: get("core.plan_costed"),
            plan_reordered: get("core.plan_reordered"),
            plan_replans: get("core.plan_replans"),
            maintain_propagated: get("core.maintain_propagated"),
            maintain_overdeleted: get("core.maintain_overdeleted"),
            maintain_rederived: get("core.maintain_rederived"),
            maintain_count_updates: get("core.maintain_count_updates"),
            joinhash_tables_built: get("core.joinhash_tables_built"),
            joinhash_build_rows: get("core.joinhash_build_rows"),
            joinhash_probes: get("core.joinhash_probes"),
            joinhash_bloom_skips: get("core.joinhash_bloom_skips"),
            joinhash_fallback_probes: get("core.joinhash_fallback_probes"),
        },
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal JSON reader — just enough to round-trip the profile (the
/// workspace builds offline, so no serde). Public so tooling (e.g. the
/// bench-report checkers in `coral-bench`) can read BENCH_*.json files
/// without a JSON dependency.
pub mod json {
    pub enum Val {
        Num(u64),
        Str(String),
        Arr(Vec<Val>),
        Obj(Vec<(String, Val)>),
    }

    impl Val {
        pub fn as_obj(&self) -> Option<&[(String, Val)]> {
            match self {
                Val::Obj(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_arr(&self) -> Option<&[Val]> {
            match self {
                Val::Arr(v) => Some(v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Val::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Val::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub fn get<'a>(obj: &'a [(String, Val)], key: &str) -> Result<&'a Val, String> {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    pub fn get_u64(obj: &[(String, Val)], key: &str) -> Result<u64, String> {
        get(obj, key)?
            .as_u64()
            .ok_or_else(|| format!("{key}: expected a number"))
    }

    pub fn get_str(obj: &[(String, Val)], key: &str) -> Result<String, String> {
        Ok(get(obj, key)?
            .as_str()
            .ok_or_else(|| format!("{key}: expected a string"))?
            .to_string())
    }

    pub fn parse(input: &str) -> Result<Val, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| b" \t\r\n".contains(b))
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at byte {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Val, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Val::Str(self.string()?)),
                b'0'..=b'9' => self.number(),
                other => Err(format!(
                    "unexpected {:?} at byte {}",
                    other as char, self.pos
                )),
            }
        }

        fn object(&mut self) -> Result<Val, String> {
            self.expect(b'{')?;
            let mut out = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Val::Obj(out));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                out.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Val::Obj(out));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or '}}', got {:?} at byte {}",
                            other as char, self.pos
                        ))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Val, String> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Val::Arr(out));
            }
            loop {
                out.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Val::Arr(out));
                    }
                    other => {
                        return Err(format!(
                            "expected ',' or ']', got {:?} at byte {}",
                            other as char, self.pos
                        ))
                    }
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let e = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                        self.pos += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("bad \\u escape")?;
                                self.pos += 4;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                    16,
                                )
                                .map_err(|_| "bad \\u escape")?;
                                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            }
                            other => return Err(format!("bad escape \\{}", other as char)),
                        }
                    }
                    _ => {
                        // Re-walk UTF-8 from the byte position.
                        let start = self.pos - 1;
                        let rest = std::str::from_utf8(&self.bytes[start..])
                            .map_err(|_| "invalid utf-8")?;
                        let c = rest.chars().next().unwrap();
                        out.push(c);
                        self.pos = start + c.len_utf8();
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Val, String> {
            self.skip_ws();
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Val::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineProfile {
        EngineProfile {
            query: "path(0, Y)".into(),
            wall_ns: 1_234_567,
            answers: 42,
            totals: LayerTotals {
                term: coral_term::profile::Counters {
                    hashcons_hits: 10,
                    hashcons_misses: 5,
                    unify_attempts: 100,
                    unify_failures: 20,
                    bindenv_allocs: 30,
                },
                rel: coral_rel::profile::Counters {
                    index_probes: 50,
                    full_scans: 2,
                    mark_advances: 12,
                },
                storage: coral_storage::profile::Counters::default(),
                core: Counters {
                    join_probes: 200,
                    get_next_tuple: 43,
                    os_context_pushes: 0,
                    os_max_context_depth: 0,
                    batched_rows: 150,
                    fallback_rows: 7,
                    vectorized_probes: 310,
                    plan_costed: 6,
                    plan_reordered: 2,
                    plan_replans: 1,
                    maintain_propagated: 3,
                    maintain_overdeleted: 4,
                    maintain_rederived: 1,
                    maintain_count_updates: 9,
                    joinhash_tables_built: 2,
                    joinhash_build_rows: 80,
                    joinhash_probes: 60,
                    joinhash_bloom_skips: 11,
                    joinhash_fallback_probes: 5,
                },
            },
            budget: BudgetStats {
                armed: true,
                used: [12, 30, 4096, 5, 0],
                limits: [1000, 10_000, 0, 0, 0],
            },
            columnar: ColumnarStats {
                batched_rows: 150,
                fallback_rows: 7,
                vectorized_probes: 310,
            },
            planner: PlannerStats {
                costed: 6,
                reordered: 2,
                replans: 1,
                orders: vec![
                    "compile: p/2 :- sel/2, big/2".into(),
                    "replan: path_bf/2 :- path_bf/2, edge/2".into(),
                ],
            },
            maintain: MaintainStats {
                propagated: 3,
                overdeleted: 4,
                rederived: 1,
                count_updates: 9,
            },
            joinhash: JoinHashStats {
                tables_built: 2,
                build_rows: 80,
                probes: 60,
                bloom_skips: 11,
                fallback_probes: 5,
            },
            sccs: vec![SccSection {
                scc: 0,
                preds: vec!["path_bf".into(), "m_path_bf".into()],
                iterations: 5,
                rule_firings: 10,
                solutions: 33,
                facts_derived: 30,
                duplicates: 3,
                wall_ns: 500_000,
                parallel: ParallelStats {
                    parallel_firings: 4,
                    serial_fallbacks: 1,
                    threads: 4,
                    chunks: 16,
                    delta_tuples: 1000,
                    min_chunk: 10,
                    max_chunk: 90,
                    merge_ns: 40_000,
                    busy_ns: 1_600_000,
                    wall_ns: 450_000,
                },
                rules: vec![RuleVersionStats {
                    label: "path_bf \"δ0\"".into(),
                    firings: 5,
                    solutions: 33,
                    facts_derived: 30,
                    join_probes: 120,
                }],
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        let back = EngineProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = EngineProfile::default();
        let back = EngineProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn render_shows_all_layers() {
        let r = sample().render();
        for needle in [
            "profile:", "term:", "rel:", "storage:", "core:", "scc 0", "rule ",
        ] {
            assert!(r.contains(needle), "render missing {needle:?}:\n{r}");
        }
    }

    #[test]
    fn render_shows_parallel_line() {
        let r = sample().render();
        assert!(r.contains("parallel: 4 dispatches (4 threads)"), "{r}");
        assert!(r.contains("16 chunks over 1000 delta tuples"), "{r}");
        assert!(r.contains("chunk 10..90"), "{r}");
        assert!(r.contains("1 serial fallbacks"), "{r}");
        // Fully serial sections render no parallel line.
        let mut p = sample();
        p.sccs[0].parallel = ParallelStats::default();
        assert!(!p.render().contains("parallel:"), "{}", p.render());
    }

    #[test]
    fn parallel_section_json_shape() {
        // Golden shape: the parallel object carries exactly these keys.
        let j = sample().to_json();
        for key in [
            "\"parallel\": {\"parallel_firings\": 4",
            "\"serial_fallbacks\": 1",
            "\"threads\": 4",
            "\"chunks\": 16",
            "\"delta_tuples\": 1000",
            "\"min_chunk\": 10",
            "\"max_chunk\": 90",
            "\"merge_ns\": 40000",
            "\"busy_ns\": 1600000",
        ] {
            assert!(j.contains(key), "json missing {key:?}:\n{j}");
        }
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back.sccs[0].parallel, sample().sccs[0].parallel);
    }

    #[test]
    fn from_json_tolerates_missing_parallel_key() {
        // A pre-parallel profile (no "parallel" key) still parses, with
        // all-zero parallel stats.
        let mut p = sample();
        p.sccs[0].parallel = ParallelStats::default();
        let j = p
            .to_json()
            .replace("\"parallel\": {\"parallel_firings\": 0, \"serial_fallbacks\": 0, \"threads\": 0, \"chunks\": 0, \"delta_tuples\": 0, \"min_chunk\": 0, \"max_chunk\": 0, \"merge_ns\": 0, \"busy_ns\": 0, \"wall_ns\": 0}, ", "");
        assert!(!j.contains("\"parallel\""), "{j}");
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn columnar_section_json_shape() {
        // Golden shape: the columnar object carries exactly these keys,
        // on its own line, even when all zero.
        let j = sample().to_json();
        assert!(
            j.contains(
                "\"columnar\": {\"batched_rows\": 150, \"fallback_rows\": 7, \
                 \"vectorized_probes\": 310}"
            ),
            "{j}"
        );
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back.columnar, sample().columnar);
        // The per-layer counter names round-trip through totals too.
        for key in [
            "\"core.batched_rows\": 150",
            "\"core.fallback_rows\": 7",
            "\"core.vectorized_probes\": 310",
        ] {
            assert!(j.contains(key), "json missing {key:?}:\n{j}");
        }
    }

    #[test]
    fn from_json_tolerates_missing_columnar_key() {
        // A pre-columnar profile (no "columnar" key) still parses, with
        // all-zero stats.
        let mut p = sample();
        p.columnar = ColumnarStats::default();
        p.totals.core.batched_rows = 0;
        p.totals.core.fallback_rows = 0;
        p.totals.core.vectorized_probes = 0;
        let j = p
            .to_json()
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"columnar\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn render_shows_columnar_line() {
        let r = sample().render();
        assert!(
            r.contains("columnar: 150 batched rows, 7 fallback rows, 310 vectorized probes"),
            "{r}"
        );
        // A profile that matched no rows renders no columnar line.
        let mut p = sample();
        p.columnar = ColumnarStats::default();
        assert!(!p.render().contains("columnar:"), "{}", p.render());
    }

    #[test]
    fn joinhash_section_json_shape() {
        // Golden shape: the joinhash object carries exactly these keys,
        // on its own line, even when all zero.
        let j = sample().to_json();
        assert!(
            j.contains(
                "\"joinhash\": {\"tables_built\": 2, \"build_rows\": 80, \"probes\": 60, \
                 \"bloom_skips\": 11, \"fallback_probes\": 5}"
            ),
            "{j}"
        );
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back.joinhash, sample().joinhash);
        // The per-layer counter names round-trip through totals too.
        for key in [
            "\"core.joinhash_tables_built\": 2",
            "\"core.joinhash_build_rows\": 80",
            "\"core.joinhash_probes\": 60",
            "\"core.joinhash_bloom_skips\": 11",
            "\"core.joinhash_fallback_probes\": 5",
        ] {
            assert!(j.contains(key), "json missing {key:?}:\n{j}");
        }
    }

    #[test]
    fn from_json_tolerates_missing_joinhash_key() {
        // A pre-hash-join profile (no "joinhash" key) still parses,
        // with all-zero stats.
        let mut p = sample();
        p.joinhash = JoinHashStats::default();
        p.totals.core.joinhash_tables_built = 0;
        p.totals.core.joinhash_build_rows = 0;
        p.totals.core.joinhash_probes = 0;
        p.totals.core.joinhash_bloom_skips = 0;
        p.totals.core.joinhash_fallback_probes = 0;
        let j = p
            .to_json()
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"joinhash\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn render_shows_joinhash_line() {
        let r = sample().render();
        assert!(
            r.contains(
                "joinhash: 2 tables (80 rows), 60 probes, 11 bloom skips, 5 fallback probes"
            ),
            "{r}"
        );
        // With the hash-join path off the line is suppressed entirely.
        let mut p = sample();
        p.joinhash = JoinHashStats::default();
        assert!(!p.render().contains("joinhash:"), "{}", p.render());
    }

    #[test]
    fn render_shows_budget_sections() {
        let r = sample().render();
        assert!(r.contains("budget:"), "{r}");
        assert!(r.contains("deadline-ms 12/1000"), "{r}");
        assert!(r.contains("tuples 30/10000"), "{r}");
        // Unlimited resources render a dash for the limit.
        assert!(r.contains("term-bytes 4096/-"), "{r}");
        // An unarmed profile has no budget line at all.
        let mut p = sample();
        p.budget = BudgetStats::default();
        assert!(!p.render().contains("budget:"), "{}", p.render());
    }

    #[test]
    fn from_json_tolerates_missing_budget_key() {
        // A pre-governor profile (no "budget" key) still parses, with
        // unarmed all-zero stats.
        let mut p = sample();
        p.budget = BudgetStats::default();
        let j = p
            .to_json()
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"budget\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn planner_section_json_shape() {
        // Golden shape: the planner object carries exactly these keys,
        // on its own line, even when all zero.
        let j = sample().to_json();
        assert!(
            j.contains(
                "\"planner\": {\"costed\": 6, \"reordered\": 2, \"replans\": 1, \"orders\": ["
            ),
            "{j}"
        );
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back.planner, sample().planner);
        // The per-layer counter names round-trip through totals too.
        for key in [
            "\"core.plan_costed\": 6",
            "\"core.plan_reordered\": 2",
            "\"core.plan_replans\": 1",
        ] {
            assert!(j.contains(key), "json missing {key:?}:\n{j}");
        }
        // All-zero planner still emits the section object.
        let mut p = sample();
        p.planner = PlannerStats::default();
        assert!(
            p.to_json().contains(
                "\"planner\": {\"costed\": 0, \"reordered\": 0, \"replans\": 0, \"orders\": []}"
            ),
            "{}",
            p.to_json()
        );
    }

    #[test]
    fn from_json_tolerates_missing_planner_key() {
        // A pre-planner profile (no "planner" key) still parses, with
        // all-zero stats.
        let mut p = sample();
        p.planner = PlannerStats::default();
        p.totals.core.plan_costed = 0;
        p.totals.core.plan_reordered = 0;
        p.totals.core.plan_replans = 0;
        let j = p
            .to_json()
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"planner\""))
            .collect::<Vec<_>>()
            .join("\n");
        let back = EngineProfile::from_json(&j).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn render_shows_planner_line() {
        let r = sample().render();
        assert!(
            r.contains("planner: 6 rules costed, 2 reordered, 1 replans"),
            "{r}"
        );
        assert!(r.contains("order compile: p/2 :- sel/2, big/2"), "{r}");
        // A planning-off profile renders no planner line at all.
        let mut p = sample();
        p.planner = PlannerStats::default();
        assert!(!p.render().contains("planner:"), "{}", p.render());
    }

    #[test]
    fn render_shows_maintain_line() {
        let r = sample().render();
        assert!(
            r.contains("maintain: 3 propagations, 9 count updates, 4 overdeleted, 1 rederived"),
            "{r}"
        );
        // A call that touched no maintained state renders no line.
        let mut p = sample();
        p.maintain = MaintainStats::default();
        assert!(!p.render().contains("maintain:"), "{}", p.render());
    }

    #[test]
    fn maintain_section_json_shape() {
        // Golden shape: the maintain object carries exactly these keys
        // and is emitted even when all-zero.
        let j = sample().to_json();
        assert!(
            j.contains(
                "\"maintain\": {\"propagated\": 3, \"overdeleted\": 4, \
                 \"rederived\": 1, \"count_updates\": 9}"
            ),
            "{j}"
        );
        let j0 = EngineProfile::default().to_json();
        assert!(j0.contains("\"maintain\": {\"propagated\": 0"), "{j0}");
        // Pre-maintenance profiles (no key) still parse, defaulting to
        // all-zero stats.
        let pruned: String = j
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"maintain\""))
            .collect::<Vec<_>>()
            .join("\n");
        let p = EngineProfile::from_json(&pruned).unwrap();
        assert_eq!(p.maintain, MaintainStats::default());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(EngineProfile::from_json("").is_err());
        assert!(EngineProfile::from_json("{").is_err());
        assert!(EngineProfile::from_json("[1, 2]").is_err());
        assert!(EngineProfile::from_json("{\"query\": 3}").is_err());
    }
}
