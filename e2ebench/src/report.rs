//! The command line: one run (the `BENCHMARK.json` contract), every
//! workload in child processes, and the `--compare` repeatability gate.

use crate::bench::{self, median, percentile, Ctx, Ops, Summary, Tracer};
use crate::json::{self, num, quote, Val};
use crate::spec::{self, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
    sidecar: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    benchmark: PathBuf,
    print_benchmark_json: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        runs: 1,
        benchmark: PathBuf::from("BENCHMARK.json"),
        ..Args::default()
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--runs" => {
                a.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => a.out = Some(value("a path")?.into()),
            "--sidecar" => a.sidecar = Some(value("a path")?.into()),
            "--benchmark" => a.benchmark = value("a path")?.into(),
            "--compare" => {
                a.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            "--smoke" => a.smoke = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if spec::workload(w).is_none() {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {w}; known: {}", names.join(", ")));
        }
    }
    Ok(a)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_args(args)?;
    if args.print_benchmark_json {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &args.compare {
        return compare(a, b, &args.benchmark);
    }
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// `<target>/e2e-out`: everything the benchmark writes lands next to
/// the build, which `.gitignore` covers and the checkout owns.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| Path::new("."));
    // Test binaries live one level deeper (`<target>/debug/deps`).
    let target = if target.ends_with("debug") || target.ends_with("release") {
        target.parent().unwrap_or(target)
    } else {
        target
    };
    target.join("e2e-out")
}

/// Default build, default runtime: clear every `CORAL_*` variable and
/// say which were set.
fn clear_coral_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CORAL_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

impl Args {
    /// The measuring window of one run.
    fn window_seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.2 } else { RUN_SECONDS as f64 })
    }
}

/// Replay estimates gathered so far: `(metric, ms)`, largest first.
fn replay_estimates(ctx: &Ctx) -> Vec<(&'static str, f64)> {
    let mut replays: Vec<(&'static str, f64)> = ctx
        .layers
        .iter()
        .filter(|(k, _)| k.ends_with("_replay_ms"))
        .map(|(k, v)| (*k, *v))
        .collect();
    replays.sort_by(|a, b| b.1.total_cmp(&a.1));
    replays
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

struct RunResult {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn end_to_end(ctx: &Ctx, clients: &[Ops]) -> Vec<(&'static str, f64, &'static str)> {
    let timing = Summary::of(clients);
    let value = |name: &str| match name {
        "setup_s" => median(&ctx.setup_s),
        "op_p50_ms" => timing.op_p50_ms,
        "ops_per_s" => timing.ops_per_s,
        "tuples_per_s" => timing.tuples_per_s,
        "ttfa_ms" => timing.ttfa_ms,
        "peak_rss_mb" => ctx.peak_rss_mb.unwrap_or_else(bench::peak_rss_mb),
        other => unreachable!("no definition for end-to-end metric {other}"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let cleared = clear_coral_env();
    let seconds = args.window_seconds();
    let out = out_dir();
    let scratch = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut ctx = Ctx {
        seed: args.seed,
        seconds,
        trace: args.trace,
        smoke: args.smoke,
        scratch: scratch.clone(),
        tracer: Tracer::new(args.trace, Instant::now()),
        layers: BTreeMap::new(),
        checks: Vec::new(),
        oracles: Vec::new(),
        setup_s: Vec::new(),
        sizes: Vec::new(),
        peak_rss_mb: None,
    };
    // The engine's thread-local counters, live only in the traced run.
    coral::core::profile::set_profiling(args.trace);
    let clients = crate::workloads::run(name, &mut ctx);
    let _ = std::fs::remove_dir_all(&scratch);

    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let failed: u64 = clients.iter().map(|c| c.failed).sum();
    let e2e = end_to_end(&ctx, &clients);
    let lat: Vec<f64> = clients
        .iter()
        .flat_map(|c| c.lat_ms.iter().copied())
        .collect();

    let why = spec::workload(name).expect("checked").why;
    println!(
        "# e2e {name} seed={} seconds={seconds} trace={} smoke={} nproc={} commit={} build={}",
        args.seed,
        args.trace as u8,
        args.smoke,
        nproc(),
        commit(),
        build_profile()
    );
    println!("# why: {why}");
    println!("# cleared env: [{}]", cleared.join(", "));
    let sizes: Vec<String> = ctx.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# sizes: {}", sizes.join(" "));
    println!(
        "# ops: attempted={attempted} failed={failed} measured={} clients={} set-ups={}",
        lat.len(),
        clients.len(),
        ctx.setup_s.len()
    );
    for (n, v, u) in &e2e {
        println!("{n} = {v:.4} {u}");
    }
    for c in &clients {
        for f in &c.failures {
            println!("FAILED op: {f}");
        }
    }
    for c in &ctx.checks {
        let verdict = if c.pass { "pass" } else { "FAIL" };
        println!("{} = {verdict}: {}", c.name, c.detail);
    }
    println!("# oracles: {}", ctx.oracles.join(", "));

    let mut layers: Vec<(&'static str, f64, &'static str)> = Vec::new();
    if args.trace {
        let p50 = Summary::of(&clients).op_p50_ms;
        let (pct, tail) = bench::tail(&lat);
        ctx.layer("e2e.op_tail_ms", tail);
        ctx.layer("e2e.op_tail_percentile", pct);
        ctx.layer(
            "e2e.failed_share",
            bench::ratio(failed as f64, attempted as f64),
        );
        ctx.layer("e2e.traced_op_p50_ms", p50);
        settle_unattributed(&mut ctx, p50);
        let ranked = ranked_budget(&ctx, p50);
        layers = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    ctx.layers.get(m.name).copied().unwrap_or(0.0),
                    m.unit,
                )
            })
            .collect();
        println!("# per-layer metrics (non-zero)");
        for (n, v, u) in layers.iter().filter(|(_, v, _)| *v != 0.0) {
            println!("{n} = {v:.4} {u}");
        }
        print!("{ranked}");
        let path = out.join(format!("trace_{name}.jsonl"));
        write_trace(&path, &ctx.tracer).map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# trace: {} spans in {}",
            ctx.tracer.spans().len(),
            path.display()
        );
    }

    let result = RunResult {
        metrics: if args.trace { layers } else { e2e },
        attempted: attempted.max(1),
        failed,
        correct: failed == 0 && attempted > 0,
    };
    if let Some(path) = &args.sidecar {
        let text = sidecar_json(name, args, &ctx, &result, &lat, &cleared);
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(n),
                num(*v),
                quote(u)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The contract's last line of standard output.
fn result_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// Everything about one run, for the all-workloads report.
fn sidecar_json(
    name: &str,
    args: &Args,
    ctx: &Ctx,
    r: &RunResult,
    lat: &[f64],
    cleared: &[String],
) -> String {
    let checks: Vec<String> = ctx
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"pass\": {}, \"detail\": {}}}",
                quote(c.name),
                c.pass,
                quote(&c.detail)
            )
        })
        .collect();
    let sizes: Vec<String> = ctx
        .sizes
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    let oracles: Vec<String> = ctx.oracles.iter().map(|o| quote(o)).collect();
    let cleared: Vec<String> = cleared.iter().map(|c| quote(c)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"measured_ops\": {}, \"setups\": {}, \"metrics\": {}, \"checks\": [{}], \
         \"oracles\": [{}], \"sizes\": {{{}}}, \"cleared_env\": [{}]}}\n",
        quote(name),
        args.seed,
        args.trace,
        r.correct,
        r.attempted,
        r.failed,
        lat.len(),
        ctx.setup_s.len(),
        metrics_json(&r.metrics),
        checks.join(", "),
        oracles.join(", "),
        sizes.join(", "),
        cleared.join(", "),
    )
}

fn write_trace(path: &Path, tracer: &Tracer) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in tracer.spans() {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.op,
            quote(s.name),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

/// The ranked "where the time goes" list: span self times as a share of
/// all measured op time, then replay estimates as a share of the median
/// op. Also settles `e2e.unattributed_share`.
fn ranked_budget(ctx: &Ctx, op_p50_ms: f64) -> String {
    let mut out =
        String::from("# where the time goes: span self time, share of measured op time\n");
    let rows = ctx.tracer.self_times();
    let in_ops: u64 = ctx
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .sum();
    let probe = |n: &str| n.starts_with("probe.") || n.ends_with("_replay");
    for (name, count, self_ns) in rows.iter().filter(|r| !probe(r.0)) {
        let _ = writeln!(
            out,
            "  {:>6.2} %  {name:<34} {count:>7} spans  {:>10.3} ms self",
            100.0 * bench::ratio(*self_ns as f64, in_ops as f64),
            *self_ns as f64 / 1e6
        );
    }
    let replays = replay_estimates(ctx);
    if !replays.is_empty() {
        out.push_str(
            "# replay estimates, share of op_p50_ms (one op's volume through one layer)\n",
        );
        for (name, v) in &replays {
            let _ = writeln!(
                out,
                "  {:>6.2} %  {name:<34} {v:>10.3} ms",
                100.0 * bench::ratio(*v, op_p50_ms)
            );
        }
    }
    out
}

/// Fix `e2e.unattributed_share` before the layer table is read: with
/// replay estimates, the share of the median op they leave unexplained;
/// without, the share of op time under no named span.
fn settle_unattributed(ctx: &mut Ctx, op_p50_ms: f64) {
    let replay_ms: f64 = replay_estimates(ctx).iter().map(|r| r.1).sum();
    let share = if replay_ms > 0.0 {
        (1.0 - bench::ratio(replay_ms, op_p50_ms)).max(0.0)
    } else {
        let rows = ctx.tracer.self_times();
        let total: u64 = rows.iter().map(|r| r.2).sum();
        let op_self = rows.iter().find(|r| r.0 == "op").map_or(0, |r| r.2);
        bench::ratio(op_self as f64, total as f64)
    };
    ctx.layer("e2e.unattributed_share", share);
}

// ---------------------------------------------------------------------
// Every workload, each in its own process
// ---------------------------------------------------------------------

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let result_path = args
        .out
        .clone()
        .unwrap_or_else(|| out.join("e2e_result.json"));
    let mut all_ok = true;
    let mut workloads_json = Vec::new();
    for w in &WORKLOADS {
        let mut runs_json = Vec::new();
        for r in 0..args.runs {
            let seed = args.seed + r;
            let mut traces = vec![false];
            if args.trace {
                traces.push(true);
            }
            let mut untraced_p50 = 0.0;
            for trace in traces {
                let sidecar = out.join(format!("sidecar-{}-{}.json", w.name, std::process::id()));
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--sidecar")
                    .arg(&sidecar);
                if let Some(s) = args.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if args.smoke {
                    cmd.arg("--smoke");
                }
                // The child prints every metric by name; pass it through.
                let status = cmd
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let text = std::fs::read_to_string(&sidecar).unwrap_or_default();
                let _ = std::fs::remove_file(&sidecar);
                if !status.success() || text.is_empty() {
                    all_ok = false;
                    eprintln!(
                        "e2e: workload {} (seed {seed}, trace {trace}) exited {status}",
                        w.name
                    );
                    continue;
                }
                let parsed = json::parse(&text)?;
                all_ok &= parsed.get("correct") == Some(&Val::Bool(true));
                let metric = |name: &str| {
                    parsed
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Val::as_f64)
                        .unwrap_or(0.0)
                };
                if trace {
                    println!(
                        "# {}: tracing overhead = traced ÷ untraced op_p50_ms = {:.3}",
                        w.name,
                        bench::ratio(metric("e2e.traced_op_p50_ms"), untraced_p50)
                    );
                } else {
                    untraced_p50 = metric("op_p50_ms");
                }
                runs_json.push(text.trim().to_string());
            }
        }
        workloads_json.push(format!(
            "{{\"name\": {}, \"why\": {}, \"runs\": [\n{}\n]}}",
            quote(w.name),
            quote(w.why),
            runs_json.join(",\n")
        ));
    }
    let text = format!(
        "{{\"provenance\": {{\"seed\": {}, \"runs\": {}, \"nproc\": {}, \"commit\": {}, \
         \"build\": {}, \"smoke\": {}, \"seconds\": {}}},\n\"workloads\": [\n{}\n]}}\n",
        args.seed,
        args.runs,
        nproc(),
        quote(&commit()),
        quote(build_profile()),
        args.smoke,
        num(args.window_seconds()),
        workloads_json.join(",\n")
    );
    std::fs::write(&result_path, text).map_err(|e| format!("{}: {e}", result_path.display()))?;
    println!("# result file: {}", result_path.display());
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// `workload -> metric -> values over the untraced runs`, plus failures.
type Side = BTreeMap<String, (BTreeMap<String, Vec<f64>>, u64)>;

fn load_side(path: &Path) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut side = Side::new();
    for w in doc.get("workloads").map(Val::as_arr).unwrap_or(&[]) {
        let name = w
            .get("name")
            .and_then(Val::as_str)
            .unwrap_or("?")
            .to_string();
        let entry = side.entry(name).or_default();
        for run in w.get("runs").map(Val::as_arr).unwrap_or(&[]) {
            if run.get("trace") == Some(&Val::Bool(true)) {
                continue;
            }
            entry.1 += run.get("failed").and_then(Val::as_f64).unwrap_or(0.0) as u64;
            for (metric, v) in run.get("metrics").map(Val::as_obj).unwrap_or(&[]) {
                if let Some(v) = v.get("value").and_then(Val::as_f64) {
                    entry.0.entry(metric.clone()).or_default().push(v);
                }
            }
        }
    }
    Ok(side)
}

fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<ExitCode, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bench_doc = json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let bounds: Vec<(String, f64)> = bench_doc
        .get("end_to_end")
        .map(Val::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (side_a, side_b) = (load_side(a)?, load_side(b)?);
    let mut violations = 0;
    println!(
        "{:<15} {:<13} {:>11} {:>8} {:>11} {:>8} {:>8} {:>6}",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "diff%", "bound%"
    );
    for (workload, (metrics_a, failed_a)) in &side_a {
        let Some((metrics_b, failed_b)) = side_b.get(workload) else {
            println!("{workload}: missing from {}", b.display());
            violations += 1;
            continue;
        };
        if failed_a != failed_b {
            println!("{workload}: failed ops differ ({failed_a} vs {failed_b})");
            violations += 1;
        }
        for (metric, bound) in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(metric), metrics_b.get(metric)) else {
                println!("{workload} {metric}: missing on one side");
                violations += 1;
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let diff = bench::ratio(mb - ma, ma);
            let spread = |v: &[f64]| {
                quartiles(v).map_or(0.0, |q| bench::ratio(q[2] - q[0], percentile(v, 50.0)))
            };
            let (sa, sb) = (spread(va), spread(vb));
            let mut flags = String::new();
            if diff.abs() > *bound {
                flags.push_str(" DIFFERS");
                violations += 1;
            }
            // The set-up spread is exempt, as in the driver's own rule.
            if metric != "setup_s" && (sa > *bound || sb > *bound) {
                flags.push_str(" SPREAD");
                violations += 1;
            }
            println!(
                "{workload:<15} {metric:<13} {ma:>11.4} {:>8.2} {mb:>11.4} {:>8.2} {:>8.2} {:>6.1}{flags}",
                100.0 * sa,
                100.0 * sb,
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    if violations > 0 {
        println!("{violations} violation(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!("within bounds");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse =
            |s: &str| parse_args(&s.split(' ').map(String::from).collect::<Vec<_>>()).unwrap();
        assert!(!parse("--workload tc_closure --trace 0 --seed 3").trace);
        assert!(parse("--trace 1").trace);
        assert!(parse("--trace --smoke").smoke);
        assert_eq!(parse("--trace --seed 9").seed, 9);
    }
}
