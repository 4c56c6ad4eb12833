//! Per-query resource budgets and the governor that enforces them.
//!
//! CORAL serves many interactive sessions against one shared engine
//! (§5, §7); a single runaway query — deep recursion, a cross-product
//! join, an unbounded functor-term fixpoint — must fail *individually*
//! instead of exhausting the process. A [`Budget`] bounds one query's
//! wall-clock time, materialized tuples, term-layer bytes, fixpoint
//! iterations, and Ordered Search context depth. The engine's
//! [`Governor`] holds the active budget plus live usage and is polled
//! at the same sites that already poll the [`crate::CancelToken`]
//! (semi-naive iteration/version boundaries, the Ordered Search main
//! loop, pipelined get-next-tuple and backtrack steps) — every check is
//! an O(1) counter read, never a scan.
//!
//! Accounting sources:
//! * **tuples** — `coral_rel::meter`, a thread-local bumped on every
//!   successful relation insert. Exact per query: a query evaluates
//!   entirely on the thread that armed it.
//! * **term bytes** — `coral_term::meter`, a process-wide monotone
//!   counter of hashcons-table growth. A diff against the query-start
//!   baseline conservatively over-counts under concurrency (errs toward
//!   killing the query sooner, never later).
//! * **iterations / depth** — charged directly by the evaluators.
//!
//! Exhaustion surfaces as [`EvalError::BudgetExceeded`], which unwinds
//! through the same paths as cancellation: scans stop and callers that
//! snapshot the module catalog roll it back.

use crate::error::{EvalError, EvalResult};
use std::cell::Cell;
use std::fmt;
use std::time::Instant;

/// Sentinel meaning "no limit" in the governor's limit slots.
const NONE: u64 = u64::MAX;

/// The budgeted resources, in the order they are checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetResource {
    /// Wall-clock deadline (milliseconds from query start).
    Deadline,
    /// Tuples materialized (successful relation inserts).
    Tuples,
    /// Term-layer bytes allocated (hashcons table growth).
    TermBytes,
    /// Fixpoint iterations across every SCC of the query.
    Iterations,
    /// Ordered Search context-stack depth (§5.4.1).
    Depth,
}

impl BudgetResource {
    /// Stable lowercase name (wire format, profile keys, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            BudgetResource::Deadline => "deadline-ms",
            BudgetResource::Tuples => "tuples",
            BudgetResource::TermBytes => "term-bytes",
            BudgetResource::Iterations => "iterations",
            BudgetResource::Depth => "depth",
        }
    }

    /// Parse [`BudgetResource::name`] output back.
    pub fn parse(s: &str) -> Option<BudgetResource> {
        Some(match s {
            "deadline-ms" => BudgetResource::Deadline,
            "tuples" => BudgetResource::Tuples,
            "term-bytes" => BudgetResource::TermBytes,
            "iterations" => BudgetResource::Iterations,
            "depth" => BudgetResource::Depth,
            _ => return None,
        })
    }
}

impl fmt::Display for BudgetResource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A per-query resource budget. `None` fields are unlimited; the
/// default budget is fully unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline in milliseconds from when the query is armed.
    pub deadline_ms: Option<u64>,
    /// Maximum tuples the query may materialize.
    pub max_tuples: Option<u64>,
    /// Maximum term-layer bytes the query may allocate.
    pub max_term_bytes: Option<u64>,
    /// Maximum fixpoint iterations (summed across SCCs and nested
    /// module calls).
    pub max_iterations: Option<u64>,
    /// Maximum Ordered Search context depth.
    pub max_depth: Option<u64>,
}

impl Budget {
    /// The unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether every field is unlimited.
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// Read `CORAL_BUDGET_DEADLINE_MS`, `CORAL_BUDGET_MAX_TUPLES`,
    /// `CORAL_BUDGET_MAX_TERM_BYTES`, `CORAL_BUDGET_MAX_ITERATIONS` and
    /// `CORAL_BUDGET_MAX_DEPTH` on top of `base` (unset or unparsable
    /// variables leave the base value).
    pub fn from_env(base: Budget) -> Budget {
        let read = |key: &str, cur: Option<u64>| -> Option<u64> {
            match std::env::var(key) {
                Ok(v) => v.trim().parse::<u64>().ok().filter(|&n| n > 0).or(cur),
                Err(_) => cur,
            }
        };
        Budget {
            deadline_ms: read("CORAL_BUDGET_DEADLINE_MS", base.deadline_ms),
            max_tuples: read("CORAL_BUDGET_MAX_TUPLES", base.max_tuples),
            max_term_bytes: read("CORAL_BUDGET_MAX_TERM_BYTES", base.max_term_bytes),
            max_iterations: read("CORAL_BUDGET_MAX_ITERATIONS", base.max_iterations),
            max_depth: read("CORAL_BUDGET_MAX_DEPTH", base.max_depth),
        }
    }

    /// One-line human rendering, e.g. `deadline-ms=500 tuples=10000`
    /// (`unlimited` when nothing is set). Used by the `:budget` command.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (r, v) in [
            (BudgetResource::Deadline, self.deadline_ms),
            (BudgetResource::Tuples, self.max_tuples),
            (BudgetResource::TermBytes, self.max_term_bytes),
            (BudgetResource::Iterations, self.max_iterations),
            (BudgetResource::Depth, self.max_depth),
        ] {
            if let Some(v) = v {
                parts.push(format!("{}={v}", r.name()));
            }
        }
        if parts.is_empty() {
            "unlimited".into()
        } else {
            parts.join(" ")
        }
    }

    /// Parse [`Budget::render`] output: whitespace-separated
    /// `resource=limit` pairs, or the word `unlimited`. Unknown
    /// resources or bad numbers are errors.
    pub fn parse(s: &str) -> Result<Budget, String> {
        let s = s.trim();
        let mut b = Budget::unlimited();
        if s.is_empty() || s == "unlimited" {
            return Ok(b);
        }
        for part in s.split_whitespace() {
            let (name, val) = part
                .split_once('=')
                .ok_or_else(|| format!("expected resource=limit, got {part:?}"))?;
            let n: u64 = val
                .parse()
                .map_err(|_| format!("bad limit {val:?} for {name}"))?;
            if n == 0 {
                return Err(format!("limit for {name} must be positive"));
            }
            let slot = match BudgetResource::parse(name) {
                Some(BudgetResource::Deadline) => &mut b.deadline_ms,
                Some(BudgetResource::Tuples) => &mut b.max_tuples,
                Some(BudgetResource::TermBytes) => &mut b.max_term_bytes,
                Some(BudgetResource::Iterations) => &mut b.max_iterations,
                Some(BudgetResource::Depth) => &mut b.max_depth,
                None => {
                    return Err(format!(
                        "unknown resource {name:?} (expected one of deadline-ms, \
                         tuples, term-bytes, iterations, depth)"
                    ))
                }
            };
            *slot = Some(n);
        }
        Ok(b)
    }
}

/// Live usage of one armed query, reported alongside profiles and by
/// the governor's error payloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Milliseconds elapsed since the query was armed.
    pub elapsed_ms: u64,
    /// Tuples materialized.
    pub tuples: u64,
    /// Term-layer bytes allocated.
    pub term_bytes: u64,
    /// Fixpoint iterations charged.
    pub iterations: u64,
    /// Ordered Search context-depth high-water mark.
    pub max_depth: u64,
}

/// The engine's budget enforcer: configured limits plus live usage.
/// One governor per engine, re-armed at each request boundary (the same
/// place the cancel flag is cleared).
pub struct Governor {
    /// Epoch for deadline arithmetic; immutable after construction.
    epoch: Instant,
    /// Absolute deadline in ns since `epoch` (`NONE` = no deadline).
    deadline_ns: Cell<u64>,
    max_tuples: Cell<u64>,
    max_term_bytes: Cell<u64>,
    max_iterations: Cell<u64>,
    max_depth: Cell<u64>,
    /// Arm-time ns since `epoch` (for elapsed reporting).
    armed_ns: Cell<u64>,
    /// `coral_rel::meter` baseline captured when armed.
    tuples_base: Cell<u64>,
    /// `coral_term::meter` baseline captured when armed.
    term_bytes_base: Cell<u64>,
    iterations: Cell<u64>,
    depth_hwm: Cell<u64>,
}

impl Governor {
    pub(crate) fn new() -> Governor {
        Governor {
            epoch: Instant::now(),
            deadline_ns: Cell::new(NONE),
            max_tuples: Cell::new(NONE),
            max_term_bytes: Cell::new(NONE),
            max_iterations: Cell::new(NONE),
            max_depth: Cell::new(NONE),
            armed_ns: Cell::new(0),
            tuples_base: Cell::new(0),
            term_bytes_base: Cell::new(0),
            iterations: Cell::new(0),
            depth_hwm: Cell::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start one query under `budget`: capture meters as baselines,
    /// zero the charged counters, and set the absolute deadline. Must
    /// run on the thread that will evaluate the query (the tuple meter
    /// is thread-local). Nested module calls do NOT re-arm — the budget
    /// covers the whole request.
    pub(crate) fn arm(&self, budget: &Budget) {
        let now = self.now_ns();
        self.armed_ns.set(now);
        let deadline = match budget.deadline_ms {
            Some(ms) => now.saturating_add(ms.saturating_mul(1_000_000)),
            None => NONE,
        };
        self.deadline_ns.set(deadline);
        self.max_tuples.set(budget.max_tuples.unwrap_or(NONE));
        self.max_term_bytes
            .set(budget.max_term_bytes.unwrap_or(NONE));
        self.max_iterations
            .set(budget.max_iterations.unwrap_or(NONE));
        self.max_depth.set(budget.max_depth.unwrap_or(NONE));
        self.tuples_base.set(coral_rel::meter::tuples_inserted());
        self.term_bytes_base.set(coral_term::meter::term_bytes());
        self.iterations.set(0);
        self.depth_hwm.set(0);
    }

    /// Disarm: every limit off (counters keep their last values for
    /// usage reporting).
    pub(crate) fn disarm(&self) {
        self.deadline_ns.set(NONE);
        self.max_tuples.set(NONE);
        self.max_term_bytes.set(NONE);
        self.max_iterations.set(NONE);
        self.max_depth.set(NONE);
    }

    /// Charge one fixpoint iteration and check its limit.
    pub(crate) fn charge_iteration(&self) -> EvalResult<()> {
        let used = self.iterations.get() + 1;
        self.iterations.set(used);
        let limit = self.max_iterations.get();
        if used > limit {
            return Err(self.exceeded(BudgetResource::Iterations, limit, used));
        }
        Ok(())
    }

    /// Record an Ordered Search context depth and check its limit.
    pub(crate) fn note_depth(&self, depth: u64) -> EvalResult<()> {
        self.depth_hwm.set(self.depth_hwm.get().max(depth));
        let limit = self.max_depth.get();
        if depth > limit {
            return Err(self.exceeded(BudgetResource::Depth, limit, depth));
        }
        Ok(())
    }

    /// The full poll: deadline, tuples, term bytes. O(1) — two
    /// thread-local/atomic meter reads and one clock read (the clock
    /// only when a deadline is set). Called from the same sites that
    /// poll cancellation.
    pub(crate) fn check(&self) -> EvalResult<()> {
        self.check_deadline()?;
        let max_tuples = self.max_tuples.get();
        if max_tuples != NONE {
            let used = coral_rel::meter::tuples_inserted().saturating_sub(self.tuples_base.get());
            if used >= max_tuples {
                return Err(self.exceeded(BudgetResource::Tuples, max_tuples, used));
            }
        }
        let max_bytes = self.max_term_bytes.get();
        if max_bytes != NONE {
            let used = coral_term::meter::term_bytes().saturating_sub(self.term_bytes_base.get());
            if used >= max_bytes {
                return Err(self.exceeded(BudgetResource::TermBytes, max_bytes, used));
            }
        }
        Ok(())
    }

    /// The deadline part of [`Governor::check`].
    fn check_deadline(&self) -> EvalResult<()> {
        let deadline = self.deadline_ns.get();
        if deadline != NONE {
            let now = self.now_ns();
            if now >= deadline {
                let armed = self.armed_ns.get();
                let limit = (deadline.saturating_sub(armed)) / 1_000_000;
                let used = (now.saturating_sub(armed)) / 1_000_000;
                return Err(self.exceeded(BudgetResource::Deadline, limit, used));
            }
        }
        Ok(())
    }

    /// Live usage since the query was armed.
    pub fn usage(&self) -> BudgetUsage {
        let armed = self.armed_ns.get();
        BudgetUsage {
            elapsed_ms: self.now_ns().saturating_sub(armed) / 1_000_000,
            tuples: coral_rel::meter::tuples_inserted().saturating_sub(self.tuples_base.get()),
            term_bytes: coral_term::meter::term_bytes().saturating_sub(self.term_bytes_base.get()),
            iterations: self.iterations.get(),
            max_depth: self.depth_hwm.get(),
        }
    }

    fn exceeded(&self, resource: BudgetResource, limit: u64, used: u64) -> EvalError {
        EvalError::BudgetExceeded {
            resource,
            limit,
            used,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip() {
        for b in [
            Budget::unlimited(),
            Budget {
                deadline_ms: Some(500),
                max_tuples: Some(10_000),
                ..Budget::default()
            },
            Budget {
                max_term_bytes: Some(1 << 20),
                max_iterations: Some(32),
                max_depth: Some(64),
                ..Budget::default()
            },
        ] {
            assert_eq!(Budget::parse(&b.render()), Ok(b));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Budget::parse("tuples").is_err());
        assert!(Budget::parse("tuples=abc").is_err());
        assert!(Budget::parse("tuples=0").is_err());
        assert!(Budget::parse("frobs=3").is_err());
    }

    #[test]
    fn resource_names_round_trip() {
        for r in [
            BudgetResource::Deadline,
            BudgetResource::Tuples,
            BudgetResource::TermBytes,
            BudgetResource::Iterations,
            BudgetResource::Depth,
        ] {
            assert_eq!(BudgetResource::parse(r.name()), Some(r));
        }
        assert_eq!(BudgetResource::parse("frobs"), None);
    }

    #[test]
    fn unarmed_governor_passes_checks() {
        let g = Governor::new();
        assert!(g.check().is_ok());
        assert!(g.charge_iteration().is_ok());
        assert!(g.note_depth(1 << 40).is_ok());
        assert!(g.check_deadline().is_ok());
    }

    #[test]
    fn tuple_limit_fires_after_inserts() {
        let g = Governor::new();
        g.arm(&Budget {
            max_tuples: Some(3),
            ..Budget::default()
        });
        assert!(g.check().is_ok());
        coral_rel::meter::add_tuples(3);
        match g.check() {
            Err(EvalError::BudgetExceeded {
                resource: BudgetResource::Tuples,
                limit: 3,
                used,
            }) => assert!(used >= 3),
            other => panic!("expected tuple budget error, got {other:?}"),
        }
    }

    #[test]
    fn deadline_fires_after_elapse() {
        let g = Governor::new();
        g.arm(&Budget {
            deadline_ms: Some(1),
            ..Budget::default()
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(g.check_deadline().is_err());
        match g.check() {
            Err(EvalError::BudgetExceeded {
                resource: BudgetResource::Deadline,
                ..
            }) => {}
            other => panic!("expected deadline budget error, got {other:?}"),
        }
    }

    #[test]
    fn iteration_and_depth_limits() {
        let g = Governor::new();
        g.arm(&Budget {
            max_iterations: Some(2),
            max_depth: Some(4),
            ..Budget::default()
        });
        assert!(g.charge_iteration().is_ok());
        assert!(g.charge_iteration().is_ok());
        assert!(matches!(
            g.charge_iteration(),
            Err(EvalError::BudgetExceeded {
                resource: BudgetResource::Iterations,
                limit: 2,
                used: 3,
            })
        ));
        assert!(g.note_depth(4).is_ok());
        assert!(matches!(
            g.note_depth(5),
            Err(EvalError::BudgetExceeded {
                resource: BudgetResource::Depth,
                limit: 4,
                used: 5,
            })
        ));
        g.disarm();
        assert!(g.note_depth(10).is_ok());
    }

    #[test]
    fn from_env_overlays_base() {
        // Avoid set_var races with other tests: only assert pass-through
        // of the base when the variables are unset.
        let base = Budget {
            max_tuples: Some(7),
            ..Budget::default()
        };
        if std::env::var("CORAL_BUDGET_MAX_TUPLES").is_err()
            && std::env::var("CORAL_BUDGET_DEADLINE_MS").is_err()
        {
            let b = Budget::from_env(base);
            assert_eq!(b.max_tuples, Some(7));
            assert_eq!(b.deadline_ms, None);
        }
    }
}
