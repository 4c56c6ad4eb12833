//! What every workload shares: the run context, the span tracer, the
//! op recorder and the statistics the metrics are made of.

use crate::gen::TestRng;
use coral::core::profile as engine_profile;
use coral::Term;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// A client's samples are cut into this many consecutive batches, each
/// summarised on its own (a median latency, a rate).
const BATCHES: usize = 20;

/// Which batch speaks for the run: the one a tenth of the way in from
/// the quiet end (fastest) of the batch values. The build host shares
/// its cores, and a neighbour slows every op by 10-50 % for seconds to
/// tens of seconds at a time. Such an episode only ever adds time, so
/// the quiet end of a run estimates the program's own speed; a median
/// over the whole run reads 25 % apart between two runs of one binary.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// `n` consecutive samples as batches: the rounds that begin at
/// `starts` when there are any, else up to [`BATCHES`] equal cuts (with
/// fewer samples each is its own batch).
fn batches(n: usize, starts: &[usize]) -> Vec<std::ops::Range<usize>> {
    if starts.is_empty() {
        let batches = n.min(BATCHES);
        return (0..batches)
            .map(|b| b * n / batches..(b + 1) * n / batches)
            .collect();
    }
    let ends = starts.iter().skip(1).copied().chain([n]);
    starts
        .iter()
        .zip(ends)
        .map(|(&a, b)| a..b)
        .filter(|r| !r.is_empty())
        .collect()
}

/// The median of `samples` in each batch, at the run's quiet end (0
/// when empty).
fn batched_median(samples: &[f64], starts: &[usize]) -> f64 {
    let medians: Vec<f64> = batches(samples.len(), starts)
        .into_iter()
        .map(|range| median(&samples[range]))
        .collect();
    percentile(&medians, QUIET_PERCENTILE)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolated percentile `p` in `0..=100` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `VmHWM` of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The integer in a ground answer column.
pub fn int_of(t: &Term) -> i64 {
    match t {
        Term::Int(v) => *v,
        other => panic!("expected an integer answer column, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

/// One span: `parent` is a span id or 0; spans of one op share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// In-memory span recorder. Off (the untraced run) it costs one branch
/// per call. Spans are recorded in the benchmark's own code around
/// calls into each crate's public functions; nothing inside the engine
/// is instrumented.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// An empty tracer on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Spans begun from now on belong to op `op` (0 = outside any op).
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            op: self.op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == 0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans[open.0 as usize - 1].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
    }

    /// Fold another thread's spans in, renumbering ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            if s.parent != 0 {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Median duration of the spans called `name`, in milliseconds.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations(name)) / 1e6
    }

    /// `(name, count, total self ns)` per span name over the spans of
    /// measured ops, where self time is a span's duration minus its
    /// children's, largest first.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.op != 0) {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[s.id as usize]);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }
}

// ---------------------------------------------------------------------
// Op recorder
// ---------------------------------------------------------------------

/// What one measured op reports.
pub struct OpResult {
    /// Op latency; the oracle's checking time is outside it.
    pub latency: Duration,
    /// Answers delivered to the caller.
    pub answers: u64,
    /// Time from issuing the query to its first answer, for ops that
    /// query.
    pub ttfa: Option<Duration>,
    /// `Err` = the op errored, was refused, or disagreed with the
    /// oracle: it counts as failed and contributes no latency sample.
    pub outcome: Result<(), String>,
}

impl OpResult {
    /// An op that errored before it could be timed.
    pub fn failed(why: String) -> OpResult {
        OpResult {
            latency: Duration::ZERO,
            answers: 0,
            ttfa: None,
            outcome: Err(why),
        }
    }
}

/// The samples of one closed-loop client.
#[derive(Default)]
pub struct Ops {
    pub lat_ms: Vec<f64>,
    pub answers: Vec<u64>,
    pub ttfa_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Where each round begins in `lat_ms` / `answers` and in `ttfa_ms`,
    /// for a workload that repeats one fixed round on a fresh set-up; the
    /// rounds are then the batches.
    lat_rounds: Vec<usize>,
    ttfa_rounds: Vec<usize>,
}

impl Ops {
    /// The samples from here on belong to a new round.
    pub fn begin_round(&mut self) {
        self.lat_rounds.push(self.lat_ms.len());
        self.ttfa_rounds.push(self.ttfa_ms.len());
    }

    pub fn record(&mut self, r: OpResult) {
        self.attempted += 1;
        match r.outcome {
            Ok(()) => {
                self.lat_ms.push(ms(r.latency));
                self.answers.push(r.answers);
                if let Some(t) = r.ttfa {
                    self.ttfa_ms.push(ms(t));
                }
            }
            Err(why) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(why);
                }
            }
        }
    }

    /// A failure outside any op (a final-state check): one more op
    /// attempted and failed.
    pub fn fail(&mut self, why: String) {
        self.record(OpResult::failed(why));
    }

    /// Median answers delivered per op.
    pub fn median_answers(&self) -> f64 {
        median(&self.answers.iter().map(|&a| a as f64).collect::<Vec<_>>())
    }
}

/// The timing metrics of one run.
pub struct Summary {
    pub op_p50_ms: f64,
    pub ttfa_ms: f64,
    pub ops_per_s: f64,
    pub tuples_per_s: f64,
}

impl Summary {
    /// One client: each metric per batch, then the batch a tenth of the
    /// way in from the quiet end ([`QUIET_PERCENTILE`]).
    ///
    /// Several clients: each metric over the whole run, latencies over
    /// all clients' ops together and rates summed (closed loop: the
    /// clients' rates add). Clients that share two cores with the server
    /// delay each other, so a batch's median says which ops happened to
    /// collide in it; over twenty runs of `net_mix` the quiet end of the
    /// batch medians spread 22 % where the whole-run median spread 7 %.
    pub fn of(clients: &[Ops]) -> Summary {
        if let [one] = clients {
            let rate = |weight: &dyn Fn(usize) -> f64| {
                let rates: Vec<f64> = batches(one.lat_ms.len(), &one.lat_rounds)
                    .into_iter()
                    .map(|range| {
                        let busy_s: f64 = one.lat_ms[range.clone()].iter().sum::<f64>() / 1e3;
                        ratio(range.map(weight).sum(), busy_s)
                    })
                    .collect();
                percentile(&rates, 100.0 - QUIET_PERCENTILE)
            };
            return Summary {
                op_p50_ms: batched_median(&one.lat_ms, &one.lat_rounds),
                ttfa_ms: batched_median(&one.ttfa_ms, &one.ttfa_rounds),
                ops_per_s: rate(&|_| 1.0),
                tuples_per_s: rate(&|i| one.answers[i] as f64),
            };
        }
        let together = |samples: fn(&Ops) -> &Vec<f64>| {
            let all: Vec<f64> = clients.iter().flat_map(samples).copied().collect();
            median(&all)
        };
        let busy_s = |c: &Ops| c.lat_ms.iter().sum::<f64>() / 1e3;
        Summary {
            op_p50_ms: together(|c| &c.lat_ms),
            ttfa_ms: together(|c| &c.ttfa_ms),
            ops_per_s: clients
                .iter()
                .map(|c| ratio(c.lat_ms.len() as f64, busy_s(c)))
                .sum(),
            tuples_per_s: clients
                .iter()
                .map(|c| ratio(c.answers.iter().sum::<u64>() as f64, busy_s(c)))
                .sum(),
        }
    }
}

/// The highest percentile of `lat_ms` with at least ten samples beyond
/// it, capped at 95: `(percentile, latency ms)`.
pub fn tail(lat_ms: &[f64]) -> (f64, f64) {
    let n = lat_ms.len() as f64;
    let pct = if n >= 20.0 {
        (100.0 * (1.0 - 10.0 / n)).min(95.0)
    } else {
        50.0
    };
    (pct, percentile(lat_ms, pct))
}

// ---------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------

/// An untimed check row printed with the metrics.
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// A directory of this process's own for stores, inside the
    /// checkout's build directory.
    pub scratch: PathBuf,
    pub tracer: Tracer,
    /// Per-layer metric values gathered so far.
    pub layers: BTreeMap<&'static str, f64>,
    pub checks: Vec<Check>,
    /// Oracles that ran at least once.
    pub oracles: Vec<&'static str>,
    pub setup_s: Vec<f64>,
    /// Workload sizes, for the result's provenance.
    pub sizes: Vec<(&'static str, u64)>,
    /// `VmHWM` when the workload's fixed op count completed.
    pub peak_rss_mb: Option<f64>,
}

impl Ctx {
    pub fn rng(&self, stream: u64) -> TestRng {
        TestRng::new(self.seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn oracle_ran(&mut self, name: &'static str) {
        if !self.oracles.contains(&name) {
            self.oracles.push(name);
        }
    }

    pub fn size(&mut self, name: &'static str, value: u64) {
        self.sizes.push((name, value));
    }

    /// Run `setup` [`SETUP_REPEATS`] times (once in smoke mode) and keep
    /// the last result for the measured run.
    pub fn setup<T>(&mut self, mut setup: impl FnMut(&mut Ctx) -> T) -> T {
        let repeats = if self.smoke { 1 } else { SETUP_REPEATS };
        let mut last = None;
        for _ in 0..repeats {
            drop(last.take());
            last = Some(self.setup_once(&mut setup));
        }
        last.expect("at least one set-up")
    }

    /// One set-up, timed: a `setup_s` sample. The timed region is exactly
    /// `setup`; oracles are built outside it.
    pub fn setup_once<T>(&mut self, setup: impl FnOnce(&mut Ctx) -> T) -> T {
        let t0 = Instant::now();
        let built = setup(self);
        self.setup_s.push(t0.elapsed().as_secs_f64());
        built
    }

    /// A fresh, empty store directory under the scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store directory");
        dir
    }

    /// Closed loop, one client: ops until `seconds` have passed (at
    /// least `min_ops`). `op(ctx, i)` runs op number `i` and checks its
    /// answers. Warm-up belongs to set-up, which is timed separately.
    pub fn measure(
        &mut self,
        min_ops: usize,
        mut op: impl FnMut(&mut Ctx, usize) -> OpResult,
    ) -> Ops {
        let mut ops = Ops::default();
        let window = Duration::from_secs_f64(self.seconds);
        let t0 = Instant::now();
        while ops.attempted < min_ops as u64 || t0.elapsed() < window {
            self.one_op(&mut ops, min_ops, &mut op);
        }
        ops
    }

    /// One round of exactly `count` ops appended to `ops`, for a workload
    /// whose state drifts as it runs and that therefore repeats a fixed
    /// round on a fresh set-up until the window closes. `op`'s `i` goes
    /// on counting across rounds.
    pub fn round(
        &mut self,
        ops: &mut Ops,
        count: usize,
        rss_ops: usize,
        mut op: impl FnMut(&mut Ctx, usize) -> OpResult,
    ) {
        ops.begin_round();
        for _ in 0..count {
            self.one_op(ops, rss_ops, &mut op);
        }
    }

    /// Peak RSS is read when op `rss_ops` completes, not at exit: memory
    /// that grows with every op would otherwise grow with speed, and a
    /// faster engine would look like a memory regression.
    fn one_op(
        &mut self,
        ops: &mut Ops,
        rss_ops: usize,
        op: &mut impl FnMut(&mut Ctx, usize) -> OpResult,
    ) {
        let i = ops.attempted;
        self.tracer.set_op(i + 1);
        let open = self.tracer.begin("op");
        let r = op(self, i as usize);
        self.tracer.end(open);
        self.tracer.set_op(0);
        ops.record(r);
        if i + 1 == rss_ops as u64 {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
    }
}

// ---------------------------------------------------------------------
// Engine counters
// ---------------------------------------------------------------------

/// The public counter APIs read at one boundary: the per-thread engine
/// counters (`all_counters`, live only in the traced run).
pub struct Counters(Vec<(String, u64)>);

impl Counters {
    pub fn read() -> Counters {
        Counters(engine_profile::all_counters())
    }

    /// `self - before`, per name.
    pub fn since(&self, before: &Counters) -> BTreeMap<String, f64> {
        self.0
            .iter()
            .zip(&before.0)
            .map(|((name, now), (_, then))| (name.clone(), now.saturating_sub(*then) as f64))
            .collect()
    }
}

/// `a ÷ b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client(lat_ms: &[f64]) -> Ops {
        let mut ops = Ops::default();
        for &l in lat_ms {
            ops.record(OpResult {
                latency: Duration::from_secs_f64(l / 1e3),
                answers: 2,
                ttfa: Some(Duration::from_secs_f64(l / 2e3)),
                outcome: Ok(()),
            });
        }
        ops
    }

    #[test]
    fn batches_are_equal_cuts_or_the_rounds() {
        assert_eq!(batches(3, &[]), [0..1, 1..2, 2..3]);
        assert_eq!(batches(50, &[]).len(), BATCHES);
        assert_eq!(batches(50, &[])[19], 47..50);
        // A round with no sample (every op failed) is no batch.
        assert_eq!(batches(9, &[0, 4, 4]), [0..4, 4..9]);
    }

    #[test]
    fn one_client_reads_its_quiet_end() {
        // Forty ops at 1 ms, the last eight batches slowed to 3 ms.
        let mut lat = vec![1.0; 40];
        lat[24..].fill(3.0);
        let s = Summary::of(&[client(&lat)]);
        assert!((s.op_p50_ms - 1.0).abs() < 1e-9, "{}", s.op_p50_ms);
        assert!((s.ttfa_ms - 0.5).abs() < 1e-9, "{}", s.ttfa_ms);
        assert!((s.ops_per_s - 1000.0).abs() < 1e-6, "{}", s.ops_per_s);
        assert!((s.tuples_per_s - 2000.0).abs() < 1e-6, "{}", s.tuples_per_s);
    }

    #[test]
    fn rounds_are_the_batches() {
        let mut ops = Ops::default();
        for round in [[5.0, 5.0, 5.0], [1.0, 1.0, 9.0], [5.0, 5.0, 5.0]] {
            ops.begin_round();
            for l in round {
                ops.record(OpResult {
                    latency: Duration::from_secs_f64(l / 1e3),
                    answers: 0,
                    ttfa: None,
                    outcome: Ok(()),
                });
            }
        }
        // Round medians 5, 1, 5: a tenth of the way in from the lowest.
        let s = Summary::of(&[ops]);
        assert!((s.op_p50_ms - 1.8).abs() < 1e-9, "{}", s.op_p50_ms);
        assert_eq!(s.ttfa_ms, 0.0);
    }

    #[test]
    fn several_clients_read_the_whole_run() {
        let s = Summary::of(&[client(&[1.0, 1.0, 1.0, 1.0]), client(&[3.0, 3.0, 3.0, 3.0])]);
        assert!((s.op_p50_ms - 2.0).abs() < 1e-9, "{}", s.op_p50_ms);
        assert!((s.ops_per_s - (1000.0 + 1000.0 / 3.0)).abs() < 1e-6);
        assert!((s.tuples_per_s - 2.0 * s.ops_per_s).abs() < 1e-6);
    }
}
