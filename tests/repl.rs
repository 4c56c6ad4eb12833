//! Drive the interactive binary end-to-end through a pipe.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_script(script: &str) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_coral"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coral binary");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn consult_query_explain() {
    let (stdout, stderr) = run_script(
        "edge(1, 2). edge(2, 3).\n\
         module tc.\n\
         export path(bf).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n\
         ?- path(1, X).\n\
         :explain path(1, 3)\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("X = 2"), "{stdout}");
    assert!(stdout.contains("X = 3"), "{stdout}");
    assert!(stdout.contains("edge(2, 3)   (base)"), "{stdout}");
}

#[test]
fn failing_query_prints_no() {
    let (stdout, _) = run_script("edge(1, 2).\n?- edge(2, 9).\n:quit\n");
    assert!(stdout.contains("no"), "{stdout}");
}

#[test]
fn errors_are_reported_not_fatal() {
    let (stdout, stderr) = run_script(
        "p(X) :- junk syntax here.\n\
         edge(5, 6).\n\
         ?- edge(5, X).\n\
         :quit\n",
    );
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stdout.contains("X = 6"), "session continues: {stdout}");
}

#[test]
fn multiline_module_input() {
    let (stdout, stderr) = run_script(
        "edge(1, 2).\n\
         module m.\n\
         export p(f).\n\
         p(X) :- edge(X, _).\n\
         end_module.\n\
         ?- p(X).\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("X = 1"), "{stdout}");
}

#[test]
fn meta_list_and_rewritten() {
    let (stdout, _) = run_script(
        "edge(1, 2).\n\
         module tc.\nexport path(bf).\n\
         path(X, Y) :- edge(X, Y).\n\
         end_module.\n\
         :list\n\
         :rewritten path/2 bf\n\
         :quit\n",
    );
    assert!(stdout.contains("edge/2"), "{stdout}");
    assert!(stdout.contains("m_path__bf"), "{stdout}");
}

#[test]
fn profile_command_golden_shape() {
    let (stdout, stderr) = run_script(
        "edge(1, 2). edge(2, 3). edge(2, 4).\n\
         module tc.\n\
         export path(bf).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n\
         :profile on\n\
         ?- path(1, X).\n\
         .profile\n\
         :profile json\n\
         :profile off\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("profiling on"), "{stdout}");
    assert!(stdout.contains("profiling off"), "{stdout}");
    // Golden shape of the rendered tree: one header line per layer.
    // Counts must parse as integers; timings are deliberately not
    // asserted (they vary run to run).
    assert!(stdout.contains("profile: path(1, "), "{stdout}");
    for header in ["  term: ", "  rel: ", "  storage: ", "  core: "] {
        assert!(stdout.contains(header), "missing {header:?} in {stdout}");
    }
    assert!(
        stdout.contains("  scc "),
        "per-SCC sections present: {stdout}"
    );
    assert!(
        stdout.contains("    rule "),
        "per-rule lines present: {stdout}"
    );
    let answers_line = stdout
        .lines()
        .find(|l| l.contains("answers: "))
        .unwrap_or_else(|| panic!("no answers line in {stdout}"));
    let n: u64 = answers_line
        .rsplit("answers: ")
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("answers count is not an integer: {e} in {answers_line}"));
    assert_eq!(n, 3, "{stdout}");
    // The unify counter renders as "unify_attempts <N>". This
    // all-ground program runs exactly zero unify attempts — the join
    // decides every candidate by column equality.
    let term_line = stdout.lines().find(|l| l.starts_with("  term: ")).unwrap();
    let attempts: u64 = term_line
        .split("unify_attempts ")
        .nth(1)
        .and_then(|s| s.split([' ', ',']).next())
        .unwrap()
        .parse()
        .unwrap_or_else(|e| panic!("unify count is not an integer: {e} in {term_line}"));
    assert_eq!(attempts, 0, "{term_line}");
    // The JSON emitter output is present and structurally sane.
    assert!(stdout.contains("\"query\": \"path(1, "), "{stdout}");
    assert!(stdout.contains("\"totals\": {"), "{stdout}");
    assert!(stdout.contains("\"sccs\": ["), "{stdout}");
    // The columnar section is always emitted in JSON, and each of its
    // counters is an integer.
    assert!(stdout.contains("\"columnar\": {"), "{stdout}");
    for key in ["batched_rows", "fallback_rows", "vectorized_probes"] {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!("\"{key}\": ")))
            .unwrap_or_else(|| panic!("no {key} line in {stdout}"));
        let n = line
            .rsplit(": ")
            .next()
            .unwrap()
            .trim_end_matches([',', '}'])
            .trim();
        n.parse::<u64>()
            .unwrap_or_else(|e| panic!("{key} is not an integer: {e} in {line}"));
    }
    // The query joins ground edge facts, so the rendered tree shows
    // the columnar line.
    assert!(stdout.contains("  columnar: "), "{stdout}");
    assert!(stdout.contains("batched_rows "), "{stdout}");
    // The planner section is always emitted in JSON, and each of its
    // counters is an integer; the orders list is a JSON array of
    // strings.
    assert!(stdout.contains("\"planner\": {"), "{stdout}");
    for key in ["costed", "reordered", "replans"] {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!("\"{key}\": ")))
            .unwrap_or_else(|| panic!("no {key} line in {stdout}"));
        let n = line
            .rsplit(&format!("\"{key}\": "))
            .next()
            .unwrap()
            .split([',', '}'])
            .next()
            .unwrap()
            .trim();
        n.parse::<u64>()
            .unwrap_or_else(|e| panic!("{key} is not an integer: {e} in {line}"));
    }
    assert!(stdout.contains("\"orders\": ["), "{stdout}");
    // The compiled module was costed, so the planner section reports
    // at least one costed rule.
    let planner_json = stdout
        .split("\"planner\": {")
        .nth(1)
        .and_then(|s| s.split('}').next())
        .unwrap_or_else(|| panic!("no planner object in {stdout}"));
    let costed: u64 = planner_json
        .split("\"costed\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(costed > 0, "no rule costed: {stdout}");
}

#[test]
fn stats_and_analyze_commands() {
    let (stdout, stderr) = run_script(
        "edge(1, 2). edge(2, 3).\n\
         :stats\n\
         :analyze\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(
        stdout.contains("edge/2: 2 rows, distinct per column [2, 2]"),
        "{stdout}"
    );
    assert!(stdout.contains("analyzed 1 relation"), "{stdout}");
}

#[test]
fn maintain_command_golden_shape() {
    let (stdout, stderr) = run_script(
        "edge(1, 2). edge(2, 3).\n\
         module tc.\n\
         export path(ff).\n\
         @maintain dred.\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- edge(X, Z), path(Z, Y).\n\
         end_module.\n\
         ?- path(X, Y).\n\
         edge(3, 4).\n\
         ?- path(X, Y).\n\
         :maintain\n\
         :profile on\n\
         ?- path(X, Y).\n\
         :profile json\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    // The `:maintain` line reports the cumulative totals; the
    // consulted `edge(3, 4).` was a genuine base insert into a live
    // maintained state, so at least one propagation must have fired.
    let totals_line = stdout
        .lines()
        .find(|l| l.starts_with("incremental maintenance: ") && l.contains("propagations"))
        .unwrap_or_else(|| panic!("no totals line in {stdout}"));
    let n: u64 = totals_line
        .split("maintenance: ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .unwrap()
        .parse()
        .unwrap_or_else(|e| panic!("propagation count is not an integer: {e} in {totals_line}"));
    assert!(n > 0, "insert did not propagate: {totals_line}");
    for part in ["count updates", "overdeleted", "rederived", "rebuilds"] {
        assert!(totals_line.contains(part), "missing {part}: {totals_line}");
    }
    // The maintained state answers the last query, so path(3, 4) (from
    // the inserted edge) must be visible.
    assert!(stdout.contains("X = 3, Y = 4"), "{stdout}");
    // The profile JSON always carries the maintain section (zeroed when
    // nothing propagated during that particular query).
    assert!(stdout.contains("\"maintain\": {"), "{stdout}");
    for key in ["propagated", "overdeleted", "rederived", "count_updates"] {
        let pat = format!("\"{key}\": ");
        let line = stdout
            .lines()
            .find(|l| l.contains(&pat))
            .unwrap_or_else(|| panic!("no {key} line in {stdout}"));
        line.rsplit(": ")
            .next()
            .unwrap()
            .trim_end_matches([',', '}'])
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("{key} is not an integer: {e} in {line}"));
    }
}

#[test]
fn joinhash_profile_golden_shape() {
    let (stdout, stderr) = run_script(
        "edge(0, 1). edge(0, 2). edge(1, 3). edge(2, 3). edge(3, 4).\n\
         edge(1, 4). edge(2, 4). edge(4, 5). edge(3, 5). edge(0, 5).\n\
         module tc.\n\
         export path(ff).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Y) :- path(X, Z), edge(Z, Y).\n\
         end_module.\n\
         :profile on\n\
         ?- path(X, Y).\n\
         :profile json\n\
         :quit\n",
    );
    assert!(stderr.is_empty(), "stderr: {stderr}");
    // The profile JSON always carries the joinhash section with all
    // five counters as integers.
    assert!(stdout.contains("\"joinhash\": {"), "{stdout}");
    for key in [
        "tables_built",
        "build_rows",
        "probes",
        "bloom_skips",
        "fallback_probes",
    ] {
        let pat = format!("\"{key}\": ");
        let line = stdout
            .lines()
            .find(|l| l.contains(&pat))
            .unwrap_or_else(|| panic!("no {key} line in {stdout}"));
        line.rsplit(": ")
            .next()
            .unwrap()
            .trim_end_matches([',', '}'])
            .trim()
            .parse::<u64>()
            .unwrap_or_else(|e| panic!("{key} is not an integer: {e} in {line}"));
    }
}

#[test]
fn profile_without_collection_reports_nothing() {
    let (stdout, stderr) = run_script("edge(1, 2).\n:profile\n:quit\n");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(stdout.contains("no profile collected"), "{stdout}");
}
