//! The benchmark's contract as data: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! is generated from these tables (`e2e --print-benchmark-json`) and the
//! shape test checks the two agree, so names cannot drift apart.

use crate::json::quote;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`): what
/// the driver's 136 runs and two builds leave of its 3 420 s, with a
/// fifth to spare. A neighbour on the shared host slows a stretch of
/// seconds to tens of seconds; the longer the window, the likelier it
/// holds a quiet stretch for `bench::QUIET_PERCENTILE` to find.
pub const RUN_SECONDS: u32 = 16;

pub struct Workload {
    pub name: &'static str,
    /// One sentence: which layers this workload stresses and which it
    /// bypasses.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "tc_closure",
        why: "all-pairs right-linear tc, 1.6e5 answers/op: seminaive, join, hash_rel insert and hashcons do the work; parse, rewrite, plan, storage and net are noise",
    },
    Workload {
        name: "bound_queries",
        why: "warm session, shuffled small sg/bf-path/skew-join queries: per-query parse, seeding and answer delivery dominate and the fixpoint is small",
    },
    Workload {
        name: "shortest_path",
        why: "single-source min-cost with an aggregate selection: in-place eviction, no hash joins, serial path, arithmetic per derivation; taxes on the aggregate path show here",
    },
    Workload {
        name: "maintain_churn",
        why: "edge insert/delete then full re-query on a maintained left-linear tc: maintain (DRed) and answer delivery dominate, the cold fixpoint is bypassed",
    },
    Workload {
        name: "persistent_mix",
        why: "embedded store at 16 frames, 80/15/5 point read/insert/delete with per-write commits and checkpoints: persistent rel, buffer, btree and wal do the work, no fixpoint",
    },
    Workload {
        name: "net_mix",
        why: "two closed-loop clients replay bound-query and persistent-store ops over loopback: proto framing, server admission and request txns on top of the same engine work",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

/// Every bound is the contract's ceiling. On the 2-core build host a
/// neighbour slows the same binary on the same seed by 10-50 % for
/// seconds to tens of seconds at a time, and ten-run inter-quartile
/// spreads reach 10 % on the CPU-bound workloads whatever the statistic
/// (README, "Bounds"); twice the widest spread is the issue's rule for a
/// bound.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("tuples_per_s", "1/s", "higher", 0.25),
    e2e("ttfa_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Per-layer metrics, reported by the traced run. Counters are per
/// measured op (`1/op`) because a run measures for a fixed time, so
/// totals would grow with speed. A metric a workload does not exercise
/// reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("lang.parse_facts_ms", "ms", "lower"),
    layer("lang.parse_facts_mb_per_s", "MB/s", "higher"),
    layer("lang.parse_query_us", "us", "lower"),
    layer("core.session.consult_ms", "ms", "lower"),
    layer("core.session.query_open_ms", "ms", "lower"),
    layer("core.session.first_answer_ms", "ms", "lower"),
    layer("core.session.drain_ms", "ms", "lower"),
    layer("core.session.answers", "1/op", "higher"),
    layer("core.rewrite.rewrite_module_us", "us", "lower"),
    layer("core.compile.compile_us", "us", "lower"),
    layer("core.planner.plan_module_us", "us", "lower"),
    layer("core.planner.plan_reordered", "1/op", "lower"),
    layer("core.planner.plan_replans", "1/op", "lower"),
    layer("core.seminaive.iterations", "1/op", "lower"),
    layer("core.seminaive.derived_tuples", "1/op", "lower"),
    layer("core.join.join_probes", "1/op", "lower"),
    layer("core.join.get_next_tuple", "1/op", "lower"),
    layer("core.join.batched_rows", "1/op", "higher"),
    layer("core.join.fallback_rows", "1/op", "lower"),
    layer("core.join.vectorized_share", "ratio", "higher"),
    layer("core.join.useful_ratio", "ratio", "higher"),
    layer("core.parallel.speedup_k2", "ratio", "higher"),
    layer("core.parallel.parallel_firings", "1/op", "higher"),
    layer("core.parallel.serial_fallbacks", "1/op", "lower"),
    layer("core.maintain.update_us", "us", "lower"),
    layer("core.maintain.propagated", "1/op", "lower"),
    layer("core.maintain.overdeleted", "1/op", "lower"),
    layer("core.maintain.rederived", "1/op", "lower"),
    layer("core.maintain.count_updates", "1/op", "lower"),
    layer("core.maintain.rebuilds", "1/op", "lower"),
    layer("term.hashcons_hits", "1/op", "higher"),
    layer("term.hashcons_misses", "1/op", "lower"),
    layer("term.hashcons_hit_ratio", "ratio", "higher"),
    layer("term.unify_attempts", "1/op", "lower"),
    layer("term.bindenv_allocs", "1/op", "lower"),
    layer("term.intern_replay_ms", "ms", "lower"),
    layer("rel.hash_rel.insert_replay_ms", "ms", "lower"),
    layer("rel.hash_rel.dup_ratio", "ratio", "lower"),
    layer("rel.index_probes", "1/op", "lower"),
    layer("rel.full_scans", "1/op", "lower"),
    layer("rel.joinhash.tables_built", "1/op", "lower"),
    layer("rel.joinhash.build_rows", "1/op", "lower"),
    layer("rel.joinhash.probes", "1/op", "lower"),
    layer("rel.joinhash.bloom_skip_ratio", "ratio", "higher"),
    layer("rel.joinhash.build_replay_ms", "ms", "lower"),
    layer("rel.columnar.from_tuples_replay_ms", "ms", "lower"),
    layer("rel.persistent.lookup_us", "us", "lower"),
    layer("rel.persistent.insert_us", "us", "lower"),
    layer("storage.buffer.hits", "1/op", "higher"),
    layer("storage.buffer.misses", "1/op", "lower"),
    layer("storage.buffer.hit_ratio", "ratio", "higher"),
    layer("storage.buffer.evictions", "1/op", "lower"),
    layer("storage.buffer.page_reads", "1/op", "lower"),
    layer("storage.buffer.page_writes", "1/op", "lower"),
    layer("storage.btree.pages_per_lookup", "pages", "lower"),
    layer("storage.btree.insert_us", "us", "lower"),
    layer("storage.btree.contains_us", "us", "lower"),
    layer("storage.wal.commit_us", "us", "lower"),
    layer("storage.wal.bytes_per_row", "B", "lower"),
    layer("storage.checkpoint_ms", "ms", "lower"),
    layer("storage.file_bytes_per_row", "B", "lower"),
    layer("storage.tx.committed", "1/op", "higher"),
    layer("storage.tx.aborted", "1/op", "lower"),
    layer("storage.tx.conflicts", "1/op", "lower"),
    layer("storage.tx.wounds", "1/op", "lower"),
    layer("storage.tx.group_commits", "1/op", "lower"),
    layer("storage.tx.group_committed_txns", "1/op", "higher"),
    layer("net.ping_us", "us", "lower"),
    layer("net.proto.encode_us", "us", "lower"),
    layer("net.proto.decode_us", "us", "lower"),
    layer("net.proto.bytes_per_answer", "B", "lower"),
    layer("net.server.requests", "1/op", "lower"),
    layer("net.server.bytes_in", "B/op", "lower"),
    layer("net.server.bytes_out", "B/op", "lower"),
    layer("net.server.shed", "1/op", "lower"),
    layer("net.server.errors", "1/op", "lower"),
    layer("net.server.txn_conflicts", "1/op", "lower"),
    layer("net.client.retried", "1/op", "lower"),
    layer("net.overhead_ms", "ms", "lower"),
    // Demoted from the end-to-end list (see README, "Demoted metrics").
    layer("e2e.op_tail_ms", "ms", "lower"),
    layer("e2e.op_tail_percentile", "%", "higher"),
    layer("e2e.failed_share", "ratio", "lower"),
    // The traced run's own median, so tracing overhead is
    // traced ÷ untraced `op_p50_ms`.
    layer("e2e.traced_op_p50_ms", "ms", "lower"),
    // Share of measured op time no benchmark-side span covers.
    layer("e2e.unattributed_share", "ratio", "lower"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2ebench/Cargo.toml\", \"--bin\", \"e2e\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"e2ebench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            quote(w.name),
            quote(w.why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            quote(m.name),
            quote(m.unit),
            quote(m.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}
