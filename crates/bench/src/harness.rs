//! A minimal, dependency-free stand-in for the Criterion benchmark
//! harness.
//!
//! The workspace must build with no network access, so the `criterion`
//! crate is replaced by this module, which implements the exact API
//! surface the `benches/` files use (`Criterion::benchmark_group`,
//! `sample_size`, `warm_up_time`, `measurement_time`,
//! `bench_with_input`, `BenchmarkId::new`, `Bencher::iter`, `finish`,
//! and the `criterion_group!`/`criterion_main!` macros). Bench sources
//! only need to swap `use criterion::…` for `use coral_bench::harness::…`.
//!
//! Beyond timings, each benchmark records the engine's profiling counter
//! deltas (when the `profile` feature is on) and every group is written
//! as machine-readable JSON to `$CORAL_BENCH_JSON_DIR` (default
//! `target/bench-json/BENCH_<group>.json`), so BENCH_*.json entries carry
//! counter deltas alongside timings.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Identifies one benchmark within a group: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Mirror of `criterion::BenchmarkId::new`.
    pub fn new<S: Display, P: Display>(function_name: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

/// Passed to the measurement closure; `iter` runs and times the payload.
pub struct Bencher {
    warmed_up: bool,
    warm_up_time: Duration,
    measurement_time: Duration,
    sample_size: usize,
    samples_ns: Vec<u64>,
}

impl Bencher {
    /// Run `f` repeatedly: first a warm-up phase, then timed samples
    /// until the sample target or the measurement budget is reached.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if !self.warmed_up {
            let t0 = Instant::now();
            loop {
                std::hint::black_box(f());
                if t0.elapsed() >= self.warm_up_time {
                    break;
                }
            }
            self.warmed_up = true;
        }
        let t0 = Instant::now();
        loop {
            let s0 = Instant::now();
            std::hint::black_box(f());
            self.samples_ns.push(s0.elapsed().as_nanos() as u64);
            if self.samples_ns.len() >= self.sample_size || t0.elapsed() >= self.measurement_time {
                break;
            }
        }
    }
}

/// One benchmark's results: timing summary plus profiling counter deltas.
pub struct BenchResult {
    pub id: String,
    pub samples_ns: Vec<u64>,
    pub counters: Vec<(String, u64)>,
}

impl BenchResult {
    fn mean_ns(&self) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        (self.samples_ns.iter().map(|&n| n as u128).sum::<u128>() / self.samples_ns.len() as u128)
            as u64
    }

    fn median_ns(&self) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    fn min_ns(&self) -> u64 {
        self.samples_ns.iter().copied().min().unwrap_or(0)
    }
}

/// Mirror of `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    results: Vec<BenchResult>,
    finished: bool,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Run one benchmark. The input reference is forwarded to the
    /// closure exactly as Criterion does.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            warmed_up: false,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        let counters_before = coral_core::profile::all_counters();
        f(&mut b, input);
        let counters = counter_deltas(&counters_before, &coral_core::profile::all_counters());
        let result = BenchResult {
            id: id.id,
            samples_ns: b.samples_ns,
            counters,
        };
        println!(
            "{}/{}: median {} (mean {}, min {}, {} samples)",
            self.name,
            result.id,
            fmt_ns(result.median_ns()),
            fmt_ns(result.mean_ns()),
            fmt_ns(result.min_ns()),
            result.samples_ns.len(),
        );
        self.results.push(result);
    }

    /// Write the group's JSON report. Mirror of Criterion's `finish`.
    pub fn finish(&mut self) {
        self.finished = true;
        let dir = std::env::var("CORAL_BENCH_JSON_DIR")
            .unwrap_or_else(|_| "target/bench-json".to_string());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        let json = self.to_json();
        if std::fs::create_dir_all(&dir).is_ok() {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("wrote {}", path.display());
            }
        }
        self.criterion.reports.push(json);
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"group\": {},\n", json_string(&self.name)));
        s.push_str(&format!("  \"meta\": {},\n", host_meta_json()));
        s.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"id\": {},\n", json_string(&r.id)));
            s.push_str(&format!("      \"samples\": {},\n", r.samples_ns.len()));
            s.push_str(&format!("      \"median_ns\": {},\n", r.median_ns()));
            s.push_str(&format!("      \"mean_ns\": {},\n", r.mean_ns()));
            s.push_str(&format!("      \"min_ns\": {},\n", r.min_ns()));
            s.push_str("      \"counters\": {");
            for (j, (k, v)) in r.counters.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("{}: {v}", json_string(k)));
            }
            s.push_str("}\n");
            s.push_str(if i + 1 == self.results.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish();
        }
    }
}

/// Mirror of `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    reports: Vec<String>,
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        // Counters always collect: the BENCH_*.json rows are kept for
        // their counter deltas (the e2e benchmark is the clock).
        coral_core::profile::set_profiling(true);
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
            results: Vec::new(),
            finished: false,
        }
    }
}

fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
    after
        .iter()
        .filter_map(|(k, v)| {
            let prev = before
                .iter()
                .find(|(bk, _)| bk == k)
                .map(|(_, bv)| *bv)
                .unwrap_or(0);
            let delta = v.saturating_sub(prev);
            (delta > 0).then(|| (k.clone(), delta))
        })
        .collect()
}

/// Host/configuration header attached to every BENCH_*.json so runs on
/// different machines (or thread counts) are comparable after the fact.
fn host_meta_json() -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let threads = std::env::var("CORAL_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"host_cpus\": {cpus}, \"coral_threads\": {}}}",
        json_string(&threads),
    )
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Mirror of `criterion_group!`: collects bench functions under a name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Mirror of `criterion_main!`: the bench binary's entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

pub use crate::{criterion_group, criterion_main};
