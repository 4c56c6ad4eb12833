//! `e2e` — the repository's end-to-end benchmark driver.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run (the contract in BENCHMARK.json)
//! e2e [--seed N] [--runs R] [--trace] [--smoke] [--out F] every workload, each in its own process
//! e2e --compare A.json B.json                             the repeatability gate
//! e2e --print-benchmark-json                              BENCHMARK.json from the tables in spec.rs
//! ```
//!
//! See README.md in this directory for the metric definitions.

mod bench;
mod gen;
mod json;
mod layers;
mod oracle;
mod report;
mod spec;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match report::main(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            ExitCode::from(2)
        }
    }
}
