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

fn fresh_data_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("coral-repl-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn coral_on(dir: &std::path::Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_coral"));
    cmd.arg("--data-dir").arg(dir).args(["--frames", "16"]);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

fn facts(range: std::ops::Range<u32>) -> String {
    range.map(|i| format!("e({i}, {}).\n", i + 1)).collect()
}

/// Reopen `dir`, check it, and return the sorted first columns of `e`.
fn reopen_and_check(dir: &std::path::Path) -> Vec<u32> {
    let mut child = coral_on(dir).spawn().expect("spawn coral binary");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b":check\n?- e(X, Y).\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert!(
        stdout.contains("ok: ") && stdout.contains("relation(s), no problems"),
        "{stdout}"
    );
    let mut keys: Vec<u32> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("X = "))
        .map(|l| l.split(',').next().unwrap().trim().parse().unwrap())
        .collect();
    keys.sort_unstable();
    keys
}

/// Facts written to a persistent relation with no transaction, then a
/// clean end of input: the exit commits them all.
#[test]
fn untransacted_writes_survive_a_clean_exit() {
    let dir = fresh_data_dir("clean-exit");
    let mut child = coral_on(&dir).spawn().expect("spawn coral binary");
    let script = format!(":persist e/2\n{}", facts(0..2000));
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(reopen_and_check(&dir), (0..2000).collect::<Vec<_>>());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A process killed with untransacted writes in flight: recovery keeps
/// a prefix of them that holds everything before the checkpoint, and the
/// store checks clean.
#[test]
fn a_hard_exit_loses_only_a_suffix_of_untransacted_writes() {
    use std::io::BufRead;
    let dir = fresh_data_dir("hard-exit");
    let mut child = coral_on(&dir).spawn().expect("spawn coral binary");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut wait_for = |needle: &str| {
        let mut line = String::new();
        loop {
            line.clear();
            assert!(stdout.read_line(&mut line).unwrap() > 0, "no {needle:?}");
            if line.contains(needle) {
                return;
            }
        }
    };
    let first = format!(":persist e/2\n{}:checkpoint\n", facts(0..1000));
    stdin.write_all(first.as_bytes()).unwrap();
    wait_for("checkpointed");
    let second = format!("{}?- e(1999, X).\n", facts(1000..2000));
    stdin.write_all(second.as_bytes()).unwrap();
    wait_for("X = 2000");
    child.kill().unwrap();
    child.wait().unwrap();
    let keys = reopen_and_check(&dir);
    assert!(keys.len() >= 1000, "lost checkpointed rows: {}", keys.len());
    assert_eq!(
        keys,
        (0..keys.len() as u32).collect::<Vec<_>>(),
        "not a prefix"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An option the REPL does not define is rejected before anything runs,
/// instead of being silently ignored.
#[test]
fn unknown_option_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_coral"))
        .arg("--no-such-flag")
        .stdin(Stdio::null())
        .output()
        .expect("spawn coral binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown option --no-such-flag"), "{stderr}");
}

/// A reader that stops early (`coral < script | head -1`) closes the
/// pipe under the REPL: it must end quietly with status 0 instead of
/// panicking on the next answer it prints.
#[test]
fn closed_stdout_ends_the_session_quietly() {
    use std::io::{BufRead, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_coral"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn coral binary");
    // Far more answers than a pipe buffers, so the REPL is still
    // printing when the reader goes away.
    let mut script = facts(0..20_000);
    script.push_str("?- e(X, Y).\n");
    let mut stdin = child.stdin.take().unwrap();
    let writer = std::thread::spawn(move || {
        // The REPL may stop reading once stdout is gone; a failed write
        // here is expected then.
        let _ = stdin.write_all(script.as_bytes());
    });
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("X = "), "{first}");
    // The reader is dropped here: the pipe is closed.
    writer.join().unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}
