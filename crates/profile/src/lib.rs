//! # coral-profile — the engine's one registry of profiling counters
//!
//! Every counter of every layer is one row of [`TABLE`]: the name
//! `all_counters()` reports (`core.joinhash_bloom_skips`), the section
//! it renders and serialises under (`joinhash`), its key there
//! (`bloom_skips`) and how two of its values fold ([`Fold`]).
//!
//! One thread-local block holds this thread's values behind one enabled
//! flag: while collection is off a hook ([`bump`]) costs one thread-local
//! load and a branch, and without the `profile` cargo feature
//! ([`AVAILABLE`] false) it compiles to nothing. This crate is the only
//! place that feature gates code. [`json`] parses the profile's wire
//! format.

use std::cell::Cell;

pub mod json;

/// Whether counters are compiled in (the `profile` cargo feature).
pub const AVAILABLE: bool = cfg!(feature = "profile");

/// How two values of one counter combine: a worker's counts folding
/// into its coordinator's, or a profiled call's into the thread's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// An event count: values add.
    Sum,
    /// A high-water mark: the larger value wins.
    Max,
}

impl Fold {
    #[inline]
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Sum => a + b,
            Fold::Max => a.max(b),
        }
    }
}

/// One counter's registry row.
#[derive(Debug)]
pub struct Row {
    pub counter: Counter,
    /// The `layer.counter` name `all_counters()` reports.
    pub name: &'static str,
    /// One of [`LAYERS`] or [`FEATURES`].
    pub section: &'static str,
    /// The counter's key inside its section.
    pub key: &'static str,
    pub fold: Fold,
}

/// Sections that always render: the engine's layers.
pub const LAYERS: [&str; 4] = ["term", "rel", "storage", "core"];

/// Sections of one engine feature each: every one gets a JSON object of
/// its own and renders only when nonzero.
pub const FEATURES: [&str; 4] = ["columnar", "planner", "maintain", "joinhash"];

/// Declares [`Counter`], [`N`] and [`TABLE`] from one list, so a
/// counter's discriminant is its row index.
macro_rules! registry {
    ($($(#[doc = $doc:literal])+ $c:ident: $name:literal, $section:literal, $key:literal, $fold:ident;)+) => {
        /// One profiling counter; its [`TABLE`] row names, groups and folds it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $c,)+
        }

        /// The number of counters.
        pub const N: usize = [$($name),+].len();

        /// The registry in `all_counters()` order: row `i` is the counter
        /// whose discriminant is `i`.
        pub static TABLE: [Row; N] = [$(Row {
            counter: Counter::$c,
            name: $name,
            section: $section,
            key: $key,
            fold: Fold::$fold,
        }),+];
    };
}

registry! {
    /// Ground-term interning requests satisfied by an existing id.
    HashconsHits: "term.hashcons_hits", "term", "hashcons_hits", Sum;
    /// Ground-term interning requests that allocated a new id.
    HashconsMisses: "term.hashcons_misses", "term", "hashcons_misses", Sum;
    /// Top-level unification attempts.
    UnifyAttempts: "term.unify_attempts", "term", "unify_attempts", Sum;
    /// Top-level unification attempts that failed.
    UnifyFailures: "term.unify_failures", "term", "unify_failures", Sum;
    /// Binding-environment frames allocated.
    BindenvAllocs: "term.bindenv_allocs", "term", "bindenv_allocs", Sum;
    /// Lookups answered through an argument/pattern index.
    IndexProbes: "rel.index_probes", "rel", "index_probes", Sum;
    /// Lookups that fell back to a full filtered scan.
    FullScans: "rel.full_scans", "rel", "full_scans", Sum;
    /// Subsidiary-relation mark advances (new delta generations, §3.2).
    MarkAdvances: "rel.mark_advances", "rel", "mark_advances", Sum;
    /// Buffer-pool fixes satisfied from memory.
    PoolHits: "storage.pool_hits", "storage", "pool_hits", Sum;
    /// Buffer-pool fixes that read from disk.
    PoolMisses: "storage.pool_misses", "storage", "pool_misses", Sum;
    /// Pages evicted to make room.
    PoolEvictions: "storage.pool_evictions", "storage", "pool_evictions", Sum;
    /// Write-ahead-log records appended.
    WalAppends: "storage.wal_appends", "storage", "wal_appends", Sum;
    /// Candidate tuples pulled by the join.
    JoinProbes: "core.join_probes", "core", "join_probes", Sum;
    /// Module-boundary get-next-tuple requests (§5.6).
    GetNextTuple: "core.get_next_tuple", "core", "get_next_tuple", Sum;
    /// Ordered Search context-stack pushes (§5.4.1).
    OsContextPushes: "core.os_context_pushes", "core", "os_context_pushes", Sum;
    /// Ordered Search context-stack high-water mark.
    OsMaxContextDepth: "core.os_max_context_depth", "core", "os_max_context_depth", Max;
    /// Candidate rows fully decided by columnar column operations.
    BatchedRows: "core.batched_rows", "columnar", "batched_rows", Sum;
    /// Rows routed through general unification while the columnar path
    /// was on (side-table rows, non-ground candidates, mixed columns).
    FallbackRows: "core.fallback_rows", "columnar", "fallback_rows", Sum;
    /// Column compare/bind operations of the columnar fast path.
    VectorizedProbes: "core.vectorized_probes", "columnar", "vectorized_probes", Sum;
    /// Rules whose candidate join orders the cost-based planner costed.
    PlanCosted: "core.plan_costed", "planner", "costed", Sum;
    /// Rules the planner reordered away from source order.
    PlanReordered: "core.plan_reordered", "planner", "reordered", Sum;
    /// Mid-fixpoint replans driven by observed delta sizes.
    PlanReplans: "core.plan_replans", "planner", "replans", Sum;
    /// Base-delta propagations absorbed by maintained states.
    MaintainPropagated: "core.maintain_propagated", "maintain", "propagated", Sum;
    /// Tuples overdeleted by the DRed deletion phase.
    MaintainOverdeleted: "core.maintain_overdeleted", "maintain", "overdeleted", Sum;
    /// Overdeleted tuples rederived through surviving derivations.
    MaintainRederived: "core.maintain_rederived", "maintain", "rederived", Sum;
    /// Derivation-count adjustments applied by counting maintenance.
    MaintainCountUpdates: "core.maintain_count_updates", "maintain", "count_updates", Sum;
    /// Transient hash-join tables built.
    JoinhashTablesBuilt: "core.joinhash_tables_built", "joinhash", "tables_built", Sum;
    /// Rows ingested by those builds (hashed + side rows).
    JoinhashBuildRows: "core.joinhash_build_rows", "joinhash", "build_rows", Sum;
    /// Probes answered from a transient hash table.
    JoinhashProbes: "core.joinhash_probes", "joinhash", "probes", Sum;
    /// Probes the blocked Bloom filter proved empty.
    JoinhashBloomSkips: "core.joinhash_bloom_skips", "joinhash", "bloom_skips", Sum;
    /// Side-table rows re-checked by the general match during probes.
    JoinhashFallbackProbes: "core.joinhash_fallback_probes", "joinhash", "fallback_probes", Sum;
}

/// Every counter's value at one moment, or the change between two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot([u64; N]);

impl Snapshot {
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    pub fn set(&mut self, c: Counter, v: u64) {
        self.0[c as usize] = v;
    }

    /// Each row with its value here, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Row, u64)> {
        TABLE.iter().zip(self.0)
    }
}

struct State {
    enabled: Cell<bool>,
    counts: [Cell<u64>; N],
}

thread_local! {
    // Const-initialised and Drop-free: access is a direct TLS load with
    // no lazy-init branch.
    static STATE: State = const {
        State {
            enabled: Cell::new(false),
            counts: [const { Cell::new(0) }; N],
        }
    };
}

/// Count `n` more of `c` on this thread, or for a [`Fold::Max`] counter
/// raise its mark to `n`; a no-op unless collection is enabled here.
#[inline]
pub fn bump(c: Counter, n: u64) {
    if AVAILABLE {
        STATE.with(|s| {
            if s.enabled.get() {
                let cell = &s.counts[c as usize];
                cell.set(TABLE[c as usize].fold.apply(cell.get(), n));
            }
        });
    }
}

/// Turn collection on or off for this thread (off if compiled out).
pub fn set_enabled(on: bool) {
    STATE.with(|s| s.enabled.set(on && AVAILABLE));
}

/// Whether collection is on for this thread.
pub fn enabled() -> bool {
    STATE.with(|s| s.enabled.get())
}

/// This thread's counters.
pub fn snapshot() -> Snapshot {
    STATE.with(|s| Snapshot(std::array::from_fn(|i| s.counts[i].get())))
}

/// Zero this thread's counters.
pub fn reset() {
    STATE.with(|s| s.counts.iter().for_each(|c| c.set(0)));
}

/// Fold `d` (e.g. a worker thread's counters) into this thread's under
/// each row's [`Fold`]; a no-op unless collection is enabled here.
pub fn add(d: &Snapshot) {
    STATE.with(|s| {
        if s.enabled.get() {
            for (row, v) in d.iter() {
                let cell = &s.counts[row.counter as usize];
                cell.set(row.fold.apply(cell.get(), v));
            }
        }
    });
}

/// Brackets one measured call on this thread. A plain difference of two
/// snapshots is right for [`Fold::Sum`] counters but would report a
/// [`Fold::Max`] counter's all-time mark as the call's own, so opening
/// parks each mark and zeroes it, and closing puts back the larger of
/// the parked mark and the call's.
pub struct Window {
    before: Snapshot,
}

impl Window {
    pub fn open() -> Window {
        let before = snapshot();
        STATE.with(|s| {
            for row in TABLE.iter().filter(|r| r.fold == Fold::Max) {
                s.counts[row.counter as usize].set(0);
            }
        });
        Window { before }
    }

    /// The call's counters; the thread's totals then read as if the
    /// window had never zeroed anything.
    pub fn close(self) -> Snapshot {
        let (now, before) = (snapshot().0, self.before.0);
        STATE.with(|s| {
            for row in TABLE.iter().filter(|r| r.fold == Fold::Max) {
                let i = row.counter as usize;
                s.counts[i].set(now[i].max(before[i]));
            }
        });
        Snapshot(std::array::from_fn(|i| match TABLE[i].fold {
            Fold::Sum => now[i].saturating_sub(before[i]),
            Fold::Max => now[i],
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and order `all_counters()` had before the registry.
    const PARENT_NAMES: [&str; N] = [
        "term.hashcons_hits",
        "term.hashcons_misses",
        "term.unify_attempts",
        "term.unify_failures",
        "term.bindenv_allocs",
        "rel.index_probes",
        "rel.full_scans",
        "rel.mark_advances",
        "storage.pool_hits",
        "storage.pool_misses",
        "storage.pool_evictions",
        "storage.wal_appends",
        "core.join_probes",
        "core.get_next_tuple",
        "core.os_context_pushes",
        "core.os_max_context_depth",
        "core.batched_rows",
        "core.fallback_rows",
        "core.vectorized_probes",
        "core.plan_costed",
        "core.plan_reordered",
        "core.plan_replans",
        "core.maintain_propagated",
        "core.maintain_overdeleted",
        "core.maintain_rederived",
        "core.maintain_count_updates",
        "core.joinhash_tables_built",
        "core.joinhash_build_rows",
        "core.joinhash_probes",
        "core.joinhash_bloom_skips",
        "core.joinhash_fallback_probes",
    ];

    #[test]
    fn table_names_sections_and_order() {
        let names: Vec<&str> = TABLE.iter().map(|r| r.name).collect();
        assert_eq!(names, PARENT_NAMES);
        for (i, row) in TABLE.iter().enumerate() {
            assert!(!names[..i].contains(&row.name), "duplicate {}", row.name);
            assert!(
                LAYERS.contains(&row.section) || FEATURES.contains(&row.section),
                "{}: unknown section {}",
                row.name,
                row.section
            );
            let dup_key = TABLE[..i]
                .iter()
                .any(|r| r.section == row.section && r.key == row.key);
            assert!(!dup_key, "{}: key {} repeats", row.name, row.key);
        }
    }

    /// Bumps on a worker thread folded in with [`add`] equal the same
    /// bumps made on the caller, for `Sum` and `Max` counters alike.
    #[test]
    fn worker_fold_equals_local_bumps() {
        if !AVAILABLE {
            return;
        }
        let bumps = [
            (Counter::IndexProbes, 5),
            (Counter::FullScans, 2),
            (Counter::OsMaxContextDepth, 7),
            (Counter::IndexProbes, 1),
            (Counter::OsMaxContextDepth, 3),
        ];
        let run = |bumps: &[(Counter, u64)]| bumps.iter().for_each(|&(c, n)| bump(c, n));
        set_enabled(true);
        reset();
        bump(Counter::OsMaxContextDepth, 4);
        bump(Counter::FullScans, 1);
        let start = snapshot();
        run(&bumps);
        let local = snapshot();

        reset();
        bump(Counter::OsMaxContextDepth, 4);
        bump(Counter::FullScans, 1);
        assert_eq!(snapshot(), start);
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                set_enabled(true);
                run(&bumps);
                snapshot()
            })
            .join()
            .unwrap()
        });
        add(&worker);
        assert_eq!(snapshot(), local);
        assert_eq!(local.get(Counter::IndexProbes), 6);
        assert_eq!(local.get(Counter::OsMaxContextDepth), 7);
        set_enabled(false);
        reset();
    }
}
