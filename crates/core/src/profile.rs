//! Engine-wide profiling: the [`EngineProfile`] of one module call and
//! the [`Collector`] that gathers it (paper §4.2, §5.3, §6: where
//! evaluation time goes).
//!
//! Every layer's counters are rows of the one registry in
//! `coral-profile`. This module adds what only a module call has: the
//! per-SCC fixpoint sections (iterations, firings, derivations, wall
//! time, per-rule-version and parallel breakdowns), the planner's order
//! notes and the budget usage. [`EngineProfile::render`],
//! [`EngineProfile::to_json`] and [`EngineProfile::from_json`] read the
//! registry's table and one field list per section struct; none of them
//! names a counter.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

pub use coral_profile::set_enabled as set_profiling;
pub use coral_profile::{
    enabled as profiling, json, reset as reset_all, Counter, Snapshot, AVAILABLE,
};
use coral_profile::{FEATURES, LAYERS, TABLE};
use json::quote;

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

/// A section struct's `u64` fields in JSON order: the one list its
/// render, emit and parse all read.
trait Fields {
    fn fields(&self) -> Vec<(&'static str, u64)>;
    fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)>;
}

macro_rules! fields {
    ($t:ty: $($f:ident),+) => {
        impl Fields for $t {
            fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($f), self.$f)),+]
            }
            fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                vec![$((stringify!($f), &mut self.$f)),+]
            }
        }
    };
}

fields!(RuleVersionStats: firings, solutions, facts_derived, join_probes);
fields!(ParallelStats: parallel_firings, serial_fallbacks, threads, chunks, delta_tuples,
    min_chunk, max_chunk, merge_ns, busy_ns, wall_ns);
fields!(SccSection: iterations, rule_firings, solutions, facts_derived, duplicates, wall_ns);

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
    /// The call's counters, one per registry row.
    pub totals: Snapshot,
    /// Budget usage against the armed limits (unarmed = all zeros).
    pub budget: BudgetStats,
    /// The planner's notes on the chosen orders (`compile: …`,
    /// `replan: …`), in the order the decisions were made.
    pub plan_orders: Vec<String>,
    /// Per-SCC fixpoint sections, in evaluation order.
    pub sccs: Vec<SccSection>,
}

thread_local! {
    // Some while a Collector is live.
    static GATHERED: RefCell<Option<Gathered>> = const { RefCell::new(None) };
}

/// What a live Collector gathers besides counters.
#[derive(Default)]
struct Gathered {
    /// (fixpoint-state id, section) pairs.
    sccs: Vec<(u64, SccSection)>,
    /// The planner's order notes.
    notes: Vec<String>,
}

/// Flat `(name, value)` view of this thread's counters in registry
/// order — what the bench harnesses diff.
pub fn all_counters() -> Vec<(String, u64)> {
    named(&coral_profile::snapshot())
}

fn named(s: &Snapshot) -> Vec<(String, u64)> {
    s.iter().map(|(row, v)| (row.name.to_string(), v)).collect()
}

/// A fresh identity for one `FixpointState` (distinguishes sections of
/// nested module calls).
pub(crate) fn new_state_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Whether a Collector is gathering sections on this thread.
pub(crate) fn collecting() -> bool {
    GATHERED.with(|g| g.borrow().is_some())
}

/// Record one planner order note (kept only while a Collector is
/// gathering sections on this thread).
pub(crate) fn plan_note(note: &str) {
    GATHERED.with(|g| {
        if let Some(g) = g.borrow_mut().as_mut() {
            g.notes.push(note.to_string());
        }
    });
}

/// Brackets one module call with a counter window and gathers its
/// per-SCC sections. At most one per thread — nested module calls fold
/// into the outermost collector's profile.
pub struct Collector {
    prior_enabled: bool,
    /// Taken when the collector finishes or is abandoned.
    window: Option<coral_profile::Window>,
    start: std::time::Instant,
}

impl Collector {
    /// Start collecting; `None` when a collector is already active on
    /// this thread.
    pub fn begin() -> Option<Collector> {
        if collecting() {
            return None;
        }
        GATHERED.with(|g| *g.borrow_mut() = Some(Gathered::default()));
        let prior_enabled = profiling();
        set_profiling(true);
        Some(Collector {
            prior_enabled,
            window: Some(coral_profile::Window::open()),
            start: std::time::Instant::now(),
        })
    }

    /// Finish: build the profile and restore the runtime flag.
    pub fn finish(mut self, query: String, answers: u64) -> EngineProfile {
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        let (totals, sccs, plan_orders) = self.end().expect("a collector finishes once");
        EngineProfile {
            query,
            wall_ns,
            answers,
            totals,
            budget: BudgetStats::default(),
            plan_orders,
            sccs,
        }
    }

    /// Close the window, take the sections and notes, restore the flag;
    /// `None` once done.
    fn end(&mut self) -> Option<(Snapshot, Vec<SccSection>, Vec<String>)> {
        let totals = self.window.take()?.close();
        let g = GATHERED.with(|g| g.borrow_mut().take()).unwrap_or_default();
        set_profiling(self.prior_enabled);
        let sccs = g.sccs.into_iter().map(|(_, sec)| sec).collect();
        Some((totals, sccs, g.notes))
    }
}

impl Drop for Collector {
    /// An abandoned collector (an evaluation error) discards what it
    /// gathered and restores the flag.
    fn drop(&mut self) {
        self.end();
    }
}

// Hooks used by the evaluator (all no-ops unless a collector is active).

fn with_section(state: u64, scc: usize, f: impl FnOnce(&mut SccSection)) {
    GATHERED.with(|g| {
        let mut g = g.borrow_mut();
        let Some(g) = g.as_mut() else { return };
        let key = (state, scc);
        match g.sccs.iter_mut().find(|(st, sec)| (*st, sec.scc) == key) {
            Some((_, sec)) => f(sec),
            None => {
                let mut sec = SccSection {
                    scc,
                    ..SccSection::default()
                };
                f(&mut sec);
                g.sccs.push((state, sec));
            }
        }
    });
}

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

impl EngineProfile {
    /// Total fixpoint iterations across all sections.
    pub fn iterations(&self) -> u64 {
        self.sccs.iter().map(|s| s.iterations).sum()
    }

    /// The counters as `("layer.counter", value)` pairs, in the same
    /// order as the JSON emitter.
    pub fn counters(&self) -> Vec<(String, u64)> {
        named(&self.totals)
    }

    /// `section`'s counters as `(key, value)` pairs, in table order.
    fn section(&self, section: &str) -> Vec<(&'static str, u64)> {
        self.totals
            .iter()
            .filter(|(row, _)| row.section == section)
            .map(|(row, v)| (row.key, v))
            .collect()
    }

    /// Pretty-print the profile tree (the `.profile` REPL command): one
    /// line per layer, one per engine feature that did any work.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "profile: {}", self.query);
        let (wall, answers) = (fmt_ns(self.wall_ns), self.answers);
        let _ = writeln!(s, "  wall: {wall}  answers: {answers}");
        for name in LAYERS.iter().chain(&FEATURES) {
            let pairs = self.section(name);
            if LAYERS.contains(name) || pairs.iter().any(|&(_, v)| v > 0) {
                let _ = writeln!(s, "  {name}: {}", render_pairs(&pairs));
                if *name == "planner" {
                    for o in &self.plan_orders {
                        let _ = writeln!(s, "    order {o}");
                    }
                }
            }
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
                "  scc {} [{}]: {}",
                sec.scc,
                sec.preds.join(", "),
                render_pairs(&sec.fields())
            );
            let p = sec.parallel.fields();
            if p.iter().any(|&(_, v)| v > 0) {
                let _ = writeln!(s, "    parallel: {}", render_pairs(&p));
            }
            for r in &sec.rules {
                let _ = writeln!(s, "    rule {}: {}", r.label, render_pairs(&r.fields()));
            }
        }
        s
    }

    /// Machine-readable JSON (no external dependency; see DESIGN.md for
    /// the schema). Each engine feature's counters appear twice: in its
    /// own object and, by full name, in `totals`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"query\": {},", quote(&self.query));
        let _ = writeln!(s, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(s, "  \"answers\": {},", self.answers);
        let b = &self.budget;
        let _ = writeln!(
            s,
            "  \"budget\": {{\"armed\": {}, \"used\": [{}], \"limits\": [{}]}},",
            b.armed as u64,
            list(b.used),
            list(b.limits)
        );
        for name in FEATURES {
            let _ = write!(s, "  {}: {{{}", quote(name), json_pairs(self.section(name)));
            if name == "planner" {
                let orders = list(self.plan_orders.iter().map(|o| quote(o)));
                let _ = write!(s, ", \"orders\": [{orders}]");
            }
            s.push_str("},\n");
        }
        let totals = self.totals.iter().map(|(row, v)| (row.name, v));
        let _ = writeln!(s, "  \"totals\": {{{}}},", json_pairs(totals));
        s.push_str("  \"sccs\": [");
        for (i, sec) in self.sccs.iter().enumerate() {
            s.push_str(if i > 0 { ",\n    {" } else { "\n    {" });
            let _ = write!(
                s,
                "\"scc\": {}, \"preds\": [{}], {}, \"parallel\": {{{}}}, \"rules\": [",
                sec.scc,
                list(sec.preds.iter().map(|p| quote(p))),
                json_pairs(sec.fields()),
                json_pairs(sec.parallel.fields())
            );
            for (j, r) in sec.rules.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}\n      {{\"label\": {}, {}}}",
                    if j > 0 { "," } else { "" },
                    quote(&r.label),
                    json_pairs(r.fields())
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

    /// Parse a profile back from [`EngineProfile::to_json`] output. Every
    /// key must be present, and each feature object must agree with
    /// `totals`.
    pub fn from_json(input: &str) -> Result<EngineProfile, String> {
        let v = json::parse(input)?;
        let obj = v.as_obj().ok_or("profile: expected an object")?;
        let budget = json::get_obj(obj, "budget")?;
        let mut p = EngineProfile {
            query: json::get_str(obj, "query")?,
            wall_ns: json::get_u64(obj, "wall_ns")?,
            answers: json::get_u64(obj, "answers")?,
            budget: BudgetStats {
                armed: json::get_u64(budget, "armed")? != 0,
                used: u64s(budget, "used")?,
                limits: u64s(budget, "limits")?,
            },
            plan_orders: strings(json::get_obj(obj, "planner")?, "orders")?,
            ..EngineProfile::default()
        };
        let totals = json::get_obj(obj, "totals")?;
        for row in &TABLE {
            let v = json::get_u64(totals, row.name)?;
            if FEATURES.contains(&row.section)
                && json::get_u64(json::get_obj(obj, row.section)?, row.key)? != v
            {
                return Err(format!("{}.{} disagrees with totals", row.section, row.key));
            }
            p.totals.set(row.counter, v);
        }
        for sv in json::get_arr(obj, "sccs")? {
            let so = sv.as_obj().ok_or("scc: expected an object")?;
            let mut sec = SccSection {
                scc: json::get_u64(so, "scc")? as usize,
                preds: strings(so, "preds")?,
                ..SccSection::default()
            };
            read_fields(so, &mut sec)?;
            read_fields(json::get_obj(so, "parallel")?, &mut sec.parallel)?;
            for rv in json::get_arr(so, "rules")? {
                let ro = rv.as_obj().ok_or("rule: expected an object")?;
                let mut r = RuleVersionStats {
                    label: json::get_str(ro, "label")?,
                    ..RuleVersionStats::default()
                };
                read_fields(ro, &mut r)?;
                sec.rules.push(r);
            }
            p.sccs.push(sec);
        }
        Ok(p)
    }
}

fn list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    items.join(", ")
}

/// `"key": value, …`
fn json_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, u64)>) -> String {
    list(pairs.into_iter().map(|(k, v)| format!("{}: {v}", quote(k))))
}

/// `key value, …`, with `_ns` fields as durations.
fn render_pairs(pairs: &[(&str, u64)]) -> String {
    list(pairs.iter().map(|&(k, v)| match k.ends_with("_ns") {
        true => format!("{k} {}", fmt_ns(v)),
        false => format!("{k} {v}"),
    }))
}

fn read_fields(obj: &json::Obj, into: &mut impl Fields) -> Result<(), String> {
    for (key, slot) in into.fields_mut() {
        *slot = json::get_u64(obj, key)?;
    }
    Ok(())
}

fn u64s(obj: &json::Obj, key: &str) -> Result<[u64; 5], String> {
    let vals: Option<Vec<u64>> = json::get_arr(obj, key)?
        .iter()
        .map(json::Val::as_u64)
        .collect();
    let vals = vals.and_then(|v| v.try_into().ok());
    vals.ok_or(format!("{key}: expected 5 numbers"))
}

fn strings(obj: &json::Obj, key: &str) -> Result<Vec<String>, String> {
    json::get_arr(obj, key)?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<_>>()
        .ok_or(format!("{key}: expected strings"))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The parent commit's `to_json()` of a profile with every counter
    /// nonzero and every section populated: the `GetProfile` wire
    /// format, pinned byte for byte.
    const FIXTURE: &str = include_str!("../tests/fixtures/engine_profile.json");

    fn sample() -> EngineProfile {
        EngineProfile::from_json(FIXTURE).unwrap()
    }

    /// `sample()` with `section`'s counters zeroed.
    fn without(section: &str) -> EngineProfile {
        let mut p = sample();
        for row in TABLE.iter().filter(|r| r.section == section) {
            p.totals.set(row.counter, 0);
        }
        p
    }

    /// `line` renders for `sample()`; a zeroed `section` renders nothing.
    fn renders_when_nonzero(section: &str, line: &str) {
        let r = sample().render();
        assert!(r.contains(line), "render missing {line:?}:\n{r}");
        let r = without(section).render();
        assert!(!r.contains(&format!("  {section}:")), "{r}");
    }

    /// A zeroed `section` still emits its object, and round-trips.
    fn emitted_when_zero(section: &str) {
        let p = without(section);
        let j = p.to_json();
        let keys = TABLE.iter().filter(|r| r.section == section);
        let zeros = list(keys.map(|r| format!("\"{}\": 0", r.key)));
        assert!(j.contains(&format!("\"{section}\": {{{zeros}")), "{j}");
        assert_eq!(EngineProfile::from_json(&j).unwrap(), p);
    }

    #[test]
    fn json_round_trips() {
        let p = sample();
        assert_eq!(p.to_json(), FIXTURE);
        let values: Vec<u64> = p.counters().into_iter().map(|(_, v)| v).collect();
        let expect = [
            10, 5, 100, 20, 30, 50, 2, 12, 7, 3, 1, 2, 200, 43, 8, 4, 150, 7, 310, 6, 2, 1, 3, 4,
            1, 9, 2, 80, 60, 11, 5,
        ];
        assert_eq!(values, expect);
    }

    #[test]
    fn empty_profile_round_trips() {
        let p = EngineProfile::default();
        assert_eq!(EngineProfile::from_json(&p.to_json()).unwrap(), p);
    }

    #[test]
    fn render_shows_all_layers() {
        let r = EngineProfile::default().render();
        for layer in LAYERS {
            assert!(r.contains(&format!("\n  {layer}: ")), "{r}");
        }
        let r = sample().render();
        for needle in [
            "profile: path(0, Y)\n  wall: 1.235ms  answers: 42\n",
            "  term: hashcons_hits 10, hashcons_misses 5, unify_attempts 100,",
            "  storage: pool_hits 7, pool_misses 3, pool_evictions 1, wal_appends 2\n",
            "  scc 0 [path_bf, m_path_bf]: iterations 5, rule_firings 10, solutions 33, \
             facts_derived 30, duplicates 3, wall_ns 500.000µs\n",
            "    rule path_bf \"δ0\": firings 5, solutions 33, facts_derived 30, join_probes 120\n",
        ] {
            assert!(r.contains(needle), "render missing {needle:?}:\n{r}");
        }
    }

    #[test]
    fn render_shows_parallel_line() {
        let line = "    parallel: parallel_firings 4, serial_fallbacks 1, threads 4, chunks 16, \
                    delta_tuples 1000, min_chunk 10, max_chunk 90, merge_ns 40.000µs, \
                    busy_ns 1.600ms, wall_ns 450.000µs\n";
        assert!(sample().render().contains(line), "{}", sample().render());
        // Fully serial sections render no parallel line.
        let mut p = sample();
        p.sccs[0].parallel = ParallelStats::default();
        assert!(!p.render().contains("parallel:"), "{}", p.render());
    }

    #[test]
    fn parallel_section_json_shape() {
        // A fully serial section still emits every parallel key.
        let mut p = sample();
        p.sccs[0].parallel = ParallelStats::default();
        let j = p.to_json();
        let zeros = list(
            p.sccs[0]
                .parallel
                .fields()
                .iter()
                .map(|(k, _)| format!("\"{k}\": 0")),
        );
        assert!(j.contains(&format!("\"parallel\": {{{zeros}}}")), "{j}");
        assert_eq!(EngineProfile::from_json(&j).unwrap(), p);
    }

    #[test]
    fn columnar_section_json_shape() {
        emitted_when_zero("columnar");
    }

    #[test]
    fn render_shows_columnar_line() {
        let line = "  columnar: batched_rows 150, fallback_rows 7, vectorized_probes 310\n";
        renders_when_nonzero("columnar", line);
    }

    #[test]
    fn joinhash_section_json_shape() {
        emitted_when_zero("joinhash");
    }

    #[test]
    fn render_shows_joinhash_line() {
        let line = "  joinhash: tables_built 2, build_rows 80, probes 60, bloom_skips 11, \
                    fallback_probes 5\n";
        renders_when_nonzero("joinhash", line);
    }

    #[test]
    fn render_shows_budget_sections() {
        let r = sample().render();
        // Unlimited resources render a dash for the limit.
        let line = "  budget: deadline-ms 12/1000 tuples 30/10000 term-bytes 4096/- \
                    iterations 5/- depth 0/-\n";
        assert!(r.contains(line), "{r}");
        // An unarmed profile has no budget line at all.
        let mut p = sample();
        p.budget = BudgetStats::default();
        assert!(!p.render().contains("budget:"), "{}", p.render());
    }

    #[test]
    fn planner_section_json_shape() {
        emitted_when_zero("planner");
        let mut p = sample();
        p.plan_orders.clear();
        assert!(p.to_json().contains(", \"orders\": []}"), "{}", p.to_json());
    }

    #[test]
    fn render_shows_planner_line() {
        let line = "  planner: costed 6, reordered 2, replans 1\n    order compile: p/2 :- sel/2, \
                    big/2\n    order replan: path_bf/2 :- path_bf/2, edge/2\n";
        renders_when_nonzero("planner", line);
    }

    #[test]
    fn render_shows_maintain_line() {
        let line = "  maintain: propagated 3, overdeleted 4, rederived 1, count_updates 9\n";
        renders_when_nonzero("maintain", line);
    }

    #[test]
    fn maintain_section_json_shape() {
        emitted_when_zero("maintain");
    }

    #[test]
    fn from_json_rejects_garbage() {
        for bad in ["", "{", "[1, 2]", "{\"query\": 3}"] {
            assert!(EngineProfile::from_json(bad).is_err(), "{bad:?}");
        }
        // Every key is required: nothing writes profiles without one.
        for key in ["\"budget\"", "\"maintain\"", "\"totals\""] {
            let cut: Vec<&str> = FIXTURE
                .lines()
                .filter(|l| !l.trim_start().starts_with(key))
                .collect();
            assert!(EngineProfile::from_json(&cut.join("\n")).is_err(), "{key}");
        }
        // A feature object must agree with its totals.
        let skewed = FIXTURE.replace("\"bloom_skips\": 11", "\"bloom_skips\": 12");
        assert!(EngineProfile::from_json(&skewed).is_err());
    }
}
