//! The benchmark's shape: `BENCHMARK.json` and the driver agree on every
//! name, every oracle runs, and the check rows are present.
//!
//! Runs the smoke mode (every workload shrunk to well under a second),
//! untraced and traced, each workload in its own process.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Val;
use std::path::Path;
use std::process::Command;

fn names(doc: &Val, key: &str) -> Vec<String> {
    doc.get(key)
        .map(Val::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(String::from))
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn smoke_run_matches_benchmark_json() {
    let exe = env!("CARGO_BIN_EXE_e2e");
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let committed = std::fs::read_to_string(repo.join("BENCHMARK.json")).unwrap();

    // The committed file is the one the tables generate.
    let printed = Command::new(exe)
        .arg("--print-benchmark-json")
        .output()
        .unwrap();
    assert!(printed.status.success());
    assert_eq!(String::from_utf8(printed.stdout).unwrap(), committed);

    let bench = json::parse(&committed).unwrap();
    let workloads = names(&bench, "workloads");
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    assert_eq!(workloads.len(), 6);
    for n in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(well_formed(n), "{n}");
    }
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for m in bench.get("end_to_end").unwrap().as_arr() {
        let bound = m.get("bound").and_then(Val::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }

    let out = std::env::temp_dir().join(format!("e2e-shape-{}.json", std::process::id()));
    let status = Command::new(exe)
        .args(["--smoke", "--trace", "--seed", "7", "--out"])
        .arg(&out)
        .env("CORAL_THREADS", "4") // must be cleared by the driver
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "smoke run failed");
    let result = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let _ = std::fs::remove_file(&out);

    let ran: Vec<String> = names(&result, "workloads");
    assert_eq!(ran, workloads);
    let mut checks = Vec::new();
    for w in result.get("workloads").unwrap().as_arr() {
        let name = w.get("name").unwrap().as_str().unwrap();
        let runs = w.get("runs").unwrap().as_arr();
        assert_eq!(runs.len(), 2, "{name}: one untraced and one traced run");
        for run in runs {
            let traced = run.get("trace") == Some(&Val::Bool(true));
            let metrics: Vec<String> = run
                .get("metrics")
                .unwrap()
                .as_obj()
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(
                &metrics,
                if traced { &per_layer } else { &end_to_end },
                "{name}"
            );
            for (metric, v) in run.get("metrics").unwrap().as_obj() {
                let value = v.get("value").and_then(Val::as_f64).unwrap();
                assert!(value.is_finite(), "{name} {metric}");
                if !traced {
                    assert!(value > 0.0, "{name} {metric} must never be 0");
                }
            }
            assert_eq!(run.get("correct"), Some(&Val::Bool(true)), "{name}");
            assert_eq!(run.get("failed").and_then(Val::as_f64), Some(0.0), "{name}");
            assert!(
                !run.get("oracles").unwrap().as_arr().is_empty(),
                "{name}: no oracle ran"
            );
            let cleared = run.get("cleared_env").unwrap().as_arr();
            assert!(
                cleared.contains(&Val::Str("CORAL_THREADS".into())),
                "{name}"
            );
            checks.extend(names(run, "checks"));
        }
    }
    assert!(checks.contains(&"check.fig3_witness".to_string()));
    assert!(checks.contains(&"check.net_equals_embedded".to_string()));

    // Every oracle the issue names ran somewhere.
    let all_oracles: Vec<String> = result
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .flat_map(|w| w.get("runs").unwrap().as_arr())
        .flat_map(|r| r.get("oracles").unwrap().as_arr())
        .filter_map(|o| o.as_str().map(String::from))
        .collect();
    for oracle in [
        "bfs_closure",
        "bfs_reach",
        "same_generation_walk",
        "skew_join_direct",
        "dijkstra",
        "hashmap_model",
        "cold_reopen",
    ] {
        assert!(
            all_oracles.iter().any(|o| o == oracle),
            "oracle {oracle} never ran"
        );
    }
}
