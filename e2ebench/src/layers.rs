//! Per-layer measurement from outside: spans around calls into each
//! crate's public functions, deltas of the public counter APIs, and
//! replays that re-feed a workload's own observed volume through one
//! layer's public function in isolation.

use crate::bench::{median, ms, ratio, us, Ctx};
use coral::core::compile::{compile_with, CompileOptions};
use coral::core::planner::{plan_module, PredStats};
use coral::core::profile::EngineProfile;
use coral::core::rewrite::rewrite_module;
use coral::lang::{parse_program, parse_query, PredRef, RewriteKind};
use coral::rel::{ColumnarBatch, HashRelation, IndexSpec, JoinHashTable, Relation};
use coral::{Session, Term, Tuple};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

/// One query through `Session::query`, drained, with the three session
/// spans. `each` sees every answer's columns.
pub struct Drained {
    pub answers: u64,
    pub ttfa: Duration,
    pub total: Duration,
}

pub fn drain_query(
    ctx: &mut Ctx,
    session: &Session,
    text: &str,
    mut each: impl FnMut(&[Term]),
) -> Result<Drained, String> {
    let t0 = Instant::now();
    let open = ctx.tracer.begin("core.session.query_open");
    let answers = session.query(text);
    ctx.tracer.end(open);
    let mut answers = answers.map_err(|e| format!("{text}: {e}"))?;

    let open = ctx.tracer.begin("core.session.first_answer");
    let first = answers.next_answer();
    ctx.tracer.end(open);
    let ttfa = t0.elapsed();
    let first = first.map_err(|e| format!("{text}: {e}"))?;

    let open = ctx.tracer.begin("core.session.drain");
    let mut n = 0u64;
    let mut drained = Ok(());
    if let Some(a) = first {
        each(a.tuple.args());
        n = 1;
        loop {
            match answers.next_answer() {
                Ok(Some(a)) => {
                    each(a.tuple.args());
                    n += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    drained = Err(format!("{text}: {e}"));
                    break;
                }
            }
        }
    }
    ctx.tracer.end(open);
    drained?;
    Ok(Drained {
        answers: n,
        ttfa,
        total: t0.elapsed(),
    })
}

/// Sums over the `EngineProfile`s of the measured ops (traced run).
#[derive(Default)]
pub struct ProfileSums {
    iterations: u64,
    derived: u64,
    solutions: u64,
    duplicates: u64,
    parallel_firings: u64,
    serial_fallbacks: u64,
}

impl ProfileSums {
    pub fn add(&mut self, p: &EngineProfile) {
        for scc in &p.sccs {
            self.iterations += scc.iterations;
            self.derived += scc.facts_derived;
            self.solutions += scc.solutions;
            self.duplicates += scc.duplicates;
            self.parallel_firings += scc.parallel.parallel_firings;
            self.serial_fallbacks += scc.parallel.serial_fallbacks;
        }
    }

    pub fn parallel_firings(&self) -> f64 {
        self.parallel_firings as f64
    }

    pub fn serial_fallbacks(&self) -> f64 {
        self.serial_fallbacks as f64
    }

    /// Add the last profile of `session`, if the traced run collected one.
    pub fn add_last(&mut self, ctx: &Ctx, session: &Session) {
        if ctx.trace {
            if let Some(p) = session.last_profile() {
                self.add(&p);
            }
        }
    }
}

/// Per-layer metric → the `all_counters()` name it is the per-op delta of.
const ENGINE_COUNTERS: [(&str, &str); 19] = [
    ("core.planner.plan_reordered", "core.plan_reordered"),
    ("core.planner.plan_replans", "core.plan_replans"),
    ("core.join.join_probes", "core.join_probes"),
    ("core.join.get_next_tuple", "core.get_next_tuple"),
    ("core.join.batched_rows", "core.batched_rows"),
    ("core.join.fallback_rows", "core.fallback_rows"),
    ("core.maintain.propagated", "core.maintain_propagated"),
    ("core.maintain.overdeleted", "core.maintain_overdeleted"),
    ("core.maintain.rederived", "core.maintain_rederived"),
    ("core.maintain.count_updates", "core.maintain_count_updates"),
    ("term.hashcons_hits", "term.hashcons_hits"),
    ("term.hashcons_misses", "term.hashcons_misses"),
    ("term.unify_attempts", "term.unify_attempts"),
    ("term.bindenv_allocs", "term.bindenv_allocs"),
    ("rel.index_probes", "rel.index_probes"),
    ("rel.full_scans", "rel.full_scans"),
    ("rel.joinhash.tables_built", "core.joinhash_tables_built"),
    ("rel.joinhash.build_rows", "core.joinhash_build_rows"),
    ("rel.joinhash.probes", "core.joinhash_probes"),
];

/// Counters read only inside ratios.
#[cfg(test)]
const RATIO_COUNTERS: [&str; 1] = ["core.joinhash_bloom_skips"];

/// Per-op engine-counter metrics from a counter delta over `ops`
/// measured ops plus the profile sums of the same ops.
pub fn engine_layers(ctx: &mut Ctx, delta: &BTreeMap<String, f64>, sums: &ProfileSums, ops: f64) {
    let c = |name: &str| delta.get(name).copied().unwrap_or(0.0);
    let per_op = |v: f64| ratio(v, ops);
    for (metric, counter) in ENGINE_COUNTERS {
        ctx.layer(metric, per_op(c(counter)));
    }
    ctx.layer(
        "core.join.vectorized_share",
        ratio(
            c("core.batched_rows"),
            c("core.batched_rows") + c("core.fallback_rows"),
        ),
    );
    ctx.layer(
        "term.hashcons_hit_ratio",
        ratio(
            c("term.hashcons_hits"),
            c("term.hashcons_hits") + c("term.hashcons_misses"),
        ),
    );
    ctx.layer(
        "rel.joinhash.bloom_skip_ratio",
        ratio(c("core.joinhash_bloom_skips"), c("core.joinhash_probes")),
    );
    ctx.layer("core.seminaive.iterations", per_op(sums.iterations as f64));
    ctx.layer("core.seminaive.derived_tuples", per_op(sums.derived as f64));
    ctx.layer(
        "core.join.useful_ratio",
        ratio(sums.derived as f64, c("core.join_probes")),
    );
    ctx.layer(
        "rel.hash_rel.dup_ratio",
        ratio(sums.duplicates as f64, sums.solutions as f64),
    );
}

/// The three session spans and the answer count as per-layer metrics.
pub fn session_layers(ctx: &mut Ctx, answers_per_op: f64) {
    for (metric, span) in [
        ("core.session.consult_ms", "core.session.consult"),
        ("core.session.query_open_ms", "core.session.query_open"),
        ("core.session.first_answer_ms", "core.session.first_answer"),
        ("core.session.drain_ms", "core.session.drain"),
    ] {
        let v = ctx.tracer.median_ms(span);
        ctx.layer(metric, v);
    }
    ctx.layer("core.session.answers", answers_per_op);
}

/// Median of `reps` timings of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Duration::from_secs_f64(samples[samples.len() / 2])
}

/// Direct calls into `coral-lang` and the compile pipeline of
/// `coral-core` on the workload's own text: `parse_program` on the
/// facts, `parse_query` on a sample of its queries, and
/// rewrite → compile → plan on each of its modules' first query form.
pub fn probe_front_end(ctx: &mut Ctx, facts: &str, program: &str, queries: &[String]) {
    let open = ctx.tracer.begin("probe.front_end");
    let parse = timed(3, || {
        let open = ctx.tracer.begin("lang.parse_facts");
        std::hint::black_box(parse_program(std::hint::black_box(facts)).expect("facts parse"));
        ctx.tracer.end(open);
    });
    ctx.layer("lang.parse_facts_ms", ms(parse));
    ctx.layer(
        "lang.parse_facts_mb_per_s",
        ratio(facts.len() as f64 / 1e6, parse.as_secs_f64()),
    );

    let mut samples = Vec::new();
    for q in queries.iter().take(200) {
        let open = ctx.tracer.begin("lang.parse_query");
        let t0 = Instant::now();
        std::hint::black_box(parse_query(std::hint::black_box(q)).expect("query parses"));
        samples.push(us(t0.elapsed()));
        ctx.tracer.end(open);
    }
    ctx.layer("lang.parse_query_us", median(&samples));

    let parsed = parse_program(program).expect("program parses");
    let (mut rewrite_us, mut compile_us, mut plan_us) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        let (mut rw, mut co, mut pl) = (0.0, 0.0, 0.0);
        for module in parsed.modules() {
            let Some(export) = module.exports.first() else {
                continue;
            };
            let Some(form) = export.forms.first() else {
                continue;
            };
            // Predicates carrying per-column annotations keep their
            // shape, as the engine arranges for aggregate selections.
            let protected: HashSet<PredRef> = if module.annotations.is_empty() {
                HashSet::new()
            } else {
                module.defined_preds().into_iter().collect()
            };
            let open = ctx.tracer.begin("core.rewrite.rewrite_module");
            let t0 = Instant::now();
            let rewritten = rewrite_module(
                module,
                export.pred,
                form,
                RewriteKind::SupplementaryMagic,
                &protected,
                &[],
            );
            rw += us(t0.elapsed());
            ctx.tracer.end(open);

            let open = ctx.tracer.begin("core.compile.compile");
            let t0 = Instant::now();
            let compiled = compile_with(rewritten, CompileOptions::default(), &[]);
            co += us(t0.elapsed());
            ctx.tracer.end(open);
            // A module the bare pipeline refuses (it needs the engine's
            // stratification retreat) contributes no plan time.
            let Ok(mut compiled) = compiled else { continue };

            let stats: HashMap<PredRef, PredStats> = HashMap::new();
            let open = ctx.tracer.begin("core.planner.plan_module");
            let t0 = Instant::now();
            std::hint::black_box(plan_module(&mut compiled, &stats, true, true));
            pl += us(t0.elapsed());
            ctx.tracer.end(open);
        }
        rewrite_us.push(rw);
        compile_us.push(co);
        plan_us.push(pl);
    }
    ctx.layer("core.rewrite.rewrite_module_us", median(&rewrite_us));
    ctx.layer("core.compile.compile_us", median(&compile_us));
    ctx.layer("core.planner.plan_module_us", median(&plan_us));
    ctx.tracer.end(open);
}

/// Replay estimates: feed one op's delivered tuples (the workload's own
/// volume) through the term and relation layers' public functions in
/// isolation. `key_col` is the column the engine's join probes.
pub fn replay_tuples(ctx: &mut Ctx, rows: &[Vec<i64>], key_col: usize) {
    if rows.is_empty() {
        return;
    }
    let open = ctx.tracer.begin("probe.replay");
    let arity = rows[0].len();
    let build = |rows: &[Vec<i64>]| -> Vec<Tuple> {
        rows.iter()
            .map(|r| Tuple::ground(r.iter().map(|&v| Term::int(v)).collect()))
            .collect()
    };

    // Term layer: build every tuple and intern its ground arguments, as
    // relations do on insert.
    let intern = timed(3, || {
        let open = ctx.tracer.begin("term.intern_replay");
        for t in build(rows) {
            t.intern_ground();
            std::hint::black_box(&t);
        }
        ctx.tracer.end(open);
    });
    ctx.layer("term.intern_replay_ms", ms(intern));

    let tuples = build(rows);
    let insert = timed(3, || {
        let rel = HashRelation::new(arity);
        rel.make_index(IndexSpec::Args(vec![key_col]))
            .expect("argument index");
        let open = ctx.tracer.begin("rel.hash_rel.insert_replay");
        for t in &tuples {
            rel.insert(t.clone()).expect("insert");
        }
        ctx.tracer.end(open);
        std::hint::black_box(rel.len());
    });
    ctx.layer("rel.hash_rel.insert_replay_ms", ms(insert));

    let hash = timed(3, || {
        let open = ctx.tracer.begin("rel.joinhash.build_replay");
        let table = JoinHashTable::build(vec![key_col], tuples.iter().cloned());
        ctx.tracer.end(open);
        std::hint::black_box(table.build_rows());
    });
    ctx.layer("rel.joinhash.build_replay_ms", ms(hash));

    let columnar = timed(3, || {
        let open = ctx.tracer.begin("rel.columnar.from_tuples_replay");
        let batch = ColumnarBatch::from_tuples(arity, tuples.iter().cloned());
        ctx.tracer.end(open);
        std::hint::black_box(batch.len());
    });
    ctx.layer("rel.columnar.from_tuples_replay_ms", ms(columnar));
    ctx.tracer.end(open);
}

/// Consult `text` under a `core.session.consult` span.
pub fn consult(ctx: &mut Ctx, session: &Session, text: &str) {
    let open = ctx.tracer.begin("core.session.consult");
    session.consult_str(text).expect("bench input consults");
    ctx.tracer.end(open);
}

/// A session as a default run makes it, profiling on in the traced run
/// so `Session::last_profile` has something to say.
pub fn new_session(ctx: &Ctx) -> Session {
    let s = Session::new();
    if ctx.trace {
        s.set_profiling(true);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters the per-layer metrics are made of exist under the
    /// `profile` feature, which the default build has on.
    #[test]
    fn engine_counters_exist() {
        const { assert!(coral::core::profile::AVAILABLE) };
        let known: Vec<String> = coral::core::profile::all_counters()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let used = ENGINE_COUNTERS
            .iter()
            .map(|(_, c)| *c)
            .chain(RATIO_COUNTERS);
        for counter in used {
            assert!(known.iter().any(|k| k == counter), "no counter {counter}");
        }
        for (metric, _) in ENGINE_COUNTERS {
            assert!(
                crate::spec::PER_LAYER.iter().any(|m| m.name == metric),
                "{metric} is not a per-layer metric"
            );
        }
    }
}
