//! Check the E22 acceptance criterion against a
//! `BENCH_maintain_churn.json` report: on every churn workload the
//! maintained rows must show at least 10× fewer `core.join_probes` per
//! answer delivered than the recompute rows and a lower `median_ns`
//! (a repair that wins on probes and loses on the clock is not a win),
//! the `core.maintain_propagated` counter must confirm the maintenance
//! machinery actually ran (and stayed out of the recompute rows), and
//! the strategy-specific counters must show each strategy engaged:
//! `core.maintain_count_updates > 0` on the counting workload,
//! `core.maintain_overdeleted > 0` on the DRed one.
//!
//! Usage: `check_maintain [path/to/BENCH_maintain_churn.json]` (default
//! `BENCH_maintain_churn.json` in the current directory). Exits nonzero
//! with a diagnostic when any check fails. A report without counters
//! (the `profile` feature compiled out) passes vacuously — there is
//! nothing to check.

use coral_core::profile::json::{self, Val};
use std::process::ExitCode;

const GATED_COUNTER: &str = "core.join_probes";
const MIN_RATIO: f64 = 10.0;
/// Workload → the strategy counter that must be nonzero on its
/// maintained row, or the gate is measuring a recompute fallback.
const ENGAGED: [(&str, &str); 2] = [
    ("tc_churn", "core.maintain_overdeleted"),
    ("hop_churn", "core.maintain_count_updates"),
];

fn counter(counters: &[(String, Val)], key: &str) -> u64 {
    json::get_u64(counters, key).unwrap_or(0)
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_maintain_churn.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_maintain: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = match json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("check_maintain: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(obj) = root.as_obj() else {
        eprintln!("check_maintain: {path}: top level is not an object");
        return ExitCode::FAILURE;
    };
    // Reports must carry the host/configuration meta header; a
    // meta-less file predates the header and is not comparable.
    if json::get(obj, "meta").ok().and_then(Val::as_obj).is_none() {
        eprintln!("check_maintain: {path}: missing \"meta\" header (regenerate the report)");
        return ExitCode::FAILURE;
    }
    let benchmarks: Vec<&[(String, Val)]> = json::get(obj, "benchmarks")
        .ok()
        .and_then(Val::as_arr)
        .map(|a| a.iter().filter_map(Val::as_obj).collect())
        .unwrap_or_default();
    let row_of = |id: &str| -> Option<&[(String, Val)]> {
        benchmarks
            .iter()
            .copied()
            .find(|b| json::get_str(b, "id").is_ok_and(|s| s == id))
    };
    let counters_of = |id: &str| -> Option<&[(String, Val)]> {
        json::get(row_of(id)?, "counters")
            .ok()
            .and_then(Val::as_obj)
    };

    if benchmarks.iter().all(|b| {
        json::get(b, "counters")
            .ok()
            .and_then(Val::as_obj)
            .is_none_or(<[_]>::is_empty)
    }) {
        println!(
            "check_maintain: {path} has no counters (profile feature compiled out); nothing to check"
        );
        return ExitCode::SUCCESS;
    }

    let mut failures = Vec::new();
    for (w, engaged_key) in ENGAGED {
        let (Some(m), Some(r)) = (
            counters_of(&format!("{w}/maintain")),
            counters_of(&format!("{w}/recompute")),
        ) else {
            failures.push(format!("{w}: missing maintain or recompute row"));
            continue;
        };
        // The wall-clock gate: both rows run the identical cycle.
        let median =
            |mode: &str| row_of(&format!("{w}/{mode}")).map_or(0, |r| counter(r, "median_ns"));
        let (mt, rt) = (median("maintain"), median("recompute"));
        if mt == 0 || mt >= rt {
            failures.push(format!(
                "{w}: maintain median {mt} ns is not below recompute median {rt} ns"
            ));
        }
        println!("{w}: median_ns recompute {rt} maintain {mt}");
        if counter(m, "core.maintain_propagated") == 0 {
            failures.push(format!(
                "{w}: maintained row never propagated a base delta — the gate is vacuous"
            ));
        }
        if counter(m, engaged_key) == 0 {
            failures.push(format!(
                "{w}: {engaged_key} is zero — the workload's strategy never engaged"
            ));
        }
        if counter(r, "core.maintain_propagated") != 0 {
            failures.push(format!("{w}: recompute row did maintenance work"));
        }
        // Counter totals accumulate over warm-up + samples, and the two
        // rows run different iteration counts; both deliver the same
        // answer stream per cycle, so normalize by `core.get_next_tuple`
        // (one bump per answer pulled) before comparing.
        let (mn, rn) = (
            counter(m, "core.get_next_tuple"),
            counter(r, "core.get_next_tuple"),
        );
        let (mv, rv) = (counter(m, GATED_COUNTER), counter(r, GATED_COUNTER));
        let ratio = if mn > 0 && rn > 0 {
            (rv as f64 / rn as f64) / (mv as f64 / mn as f64).max(f64::MIN_POSITIVE)
        } else {
            rv as f64 / (mv as f64).max(f64::MIN_POSITIVE)
        };
        let verdict = if ratio >= MIN_RATIO {
            "ok"
        } else {
            failures.push(format!(
                "{w}: {GATED_COUNTER} reduction {ratio:.2}x < {MIN_RATIO}x \
                 (recompute {rv}, maintain {mv})"
            ));
            "FAIL"
        };
        println!("{w}: {GATED_COUNTER} recompute {rv} maintain {mv} ({ratio:.2}x) {verdict}");
    }
    if failures.is_empty() {
        println!(
            "check_maintain: all churn reductions >= {MIN_RATIO}x and both strategies engaged"
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("check_maintain: {f}");
        }
        ExitCode::FAILURE
    }
}
