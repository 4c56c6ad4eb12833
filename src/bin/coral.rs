//! The CORAL interactive interface.
//!
//! "Simple queries … can be typed in at the user interface" (§2);
//! programs and data are consulted from files; the rewritten program can
//! be inspected as text. Input is ordinary CORAL syntax (facts, modules,
//! annotations, `?- queries.`), plus `:`-prefixed meta commands:
//!
//! ```text
//! :help                         this summary
//! :consult <file>               consult a program/data file
//! :list                         list base relations and loaded modules
//! :explain <fact>               derivation tree for a ground fact
//! :rewritten <pred>/<n> <form>  dump the optimizer's rewritten program
//! :profile [on|off|json]        toggle profiling / show the last profile
//! :maintain                     incremental-maintenance totals
//! :budget [spec|unlimited]      show/set the per-query resource budget
//! :quit                         leave
//! ```
//!
//! `.profile` is accepted as an alias for `:profile`, matching the
//! original CORAL interface's dot commands. Setting `CORAL_PROFILE=1`
//! in the environment turns profiling on at startup.
//!
//! Run with `cargo run --bin coral`, or pipe a script through stdin.
//!
//! Two subcommands expose the network layer (see DESIGN.md "Network
//! layer"):
//!
//! ```text
//! coral serve   [--addr A] [--workers N] [--data-dir DIR] [--frames N]
//!               [--timeout-ms MS] [--max-frame BYTES] [--deadline-ms MS]
//!               [--max-tuples N] [--max-term-bytes N] [--max-in-flight N]
//!               [--shed-backoff-ms MS]
//! coral connect [--addr A]
//! ```
//!
//! Per-query resource budgets (see DESIGN.md "Resource governance")
//! come from `CORAL_BUDGET_*` variables, the `--deadline-ms`,
//! `--max-tuples` and `--max-term-bytes` flags, or `:budget` at the
//! REPL; `serve` applies its budget to every connection's session.
//!
//! `serve` runs a server until stdin closes (or a line is entered);
//! `connect` drops into the same REPL loop backed by a remote session.

use coral::lang::{Adornment, PredRef};
use coral::net::{Client, Server, ServerConfig};
use coral::Session;
use std::io::{BufRead, ErrorKind, Write};
use std::sync::OnceLock;

/// Set by the first failed write to stdout. Every later write is
/// skipped, and the input loops stop at their next line: a reader that
/// went away (`coral < script | head -1`) ends the session quietly.
static STDOUT_FAILED: OnceLock<ErrorKind> = OnceLock::new();

/// The one path from this program to stdout: `out!` and `outln!`.
fn emit(args: std::fmt::Arguments<'_>) {
    if STDOUT_FAILED.get().is_some() {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
        }
        STDOUT_FAILED.get_or_init(|| e.kind());
    }
}

/// The exit status once stdout has failed: 0 for a closed pipe (the
/// reader had what it wanted), 1 for any other write error.
fn stdout_failed() -> Option<i32> {
    STDOUT_FAILED
        .get()
        .map(|&kind| i32::from(kind != ErrorKind::BrokenPipe))
}

/// `print!` through `emit`.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through `emit`.
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => std::process::exit(serve_main(&args[1..])),
        Some("connect") => std::process::exit(connect_main(&args[1..])),
        Some("help") | Some("--help") | Some("-h") => print_usage(),
        Some(other) if !other.starts_with('-') => {
            eprintln!("unknown subcommand {other:?}; try `coral --help`");
            std::process::exit(2);
        }
        _ => std::process::exit(repl_main(&args)),
    }
}

/// A subcommand's options, one usage line each: the option's name (its
/// first word), its value placeholder and its help. Every option takes
/// a value, as `--name value` or `--name=value`.
const REPL_OPTS: &[&str] = &[
    "--data-dir DIR         attach persistent storage under DIR",
    "--frames N             buffer pool pages (default 256)",
    "--deadline-ms MS       per-query wall-clock budget",
    "--max-tuples N         per-query materialized-tuple budget",
    "--max-term-bytes N     per-query term-arena budget",
];

const SERVE_OPTS: &[&str] = &[
    "--addr A               listen address (default 127.0.0.1:7061)",
    "--workers N            worker threads = max connections (default 4)",
    "--data-dir DIR         persistent storage directory",
    "--frames N             buffer pool pages (default 256)",
    "--timeout-ms MS        per-request evaluation timeout",
    "--max-frame BYTES      request size limit (default 16 MiB)",
    "--deadline-ms MS       default per-query wall-clock budget",
    "--max-tuples N         default per-query tuple budget",
    "--max-term-bytes N     default per-query term-arena budget",
    "--max-in-flight N      admission cap on concurrent evaluations",
    "--shed-backoff-ms MS   retry-after hint when shedding (default 50)",
];

const CONNECT_OPTS: &[&str] = &["--addr A               server address (default 127.0.0.1:7061)"];

fn print_usage() {
    let opts = |table: &[&str]| table.iter().for_each(|line| outln!("      {line}"));
    outln!("usage:");
    outln!("  coral [options]            interactive session (or pipe a script)");
    opts(REPL_OPTS);
    outln!("  coral serve [options]      serve concurrent sessions over TCP");
    opts(SERVE_OPTS);
    outln!("  coral connect [options]    REPL against a running server");
    opts(CONNECT_OPTS);
}

/// The options given to one subcommand, checked against its table.
struct Opts(Vec<(&'static str, String)>);

impl Opts {
    /// Parse `args` against `table`: an option not in it, an option
    /// without its value, or a bare argument is an error.
    fn parse(args: &[String], table: &[&'static str]) -> Result<Opts, String> {
        let mut given = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            if !name.starts_with('-') {
                return Err(format!("unexpected argument {arg}"));
            }
            let mut names = table.iter().filter_map(|line| line.split(' ').next());
            let Some(known) = names.find(|n| *n == name) else {
                return Err(format!("unknown option {name}"));
            };
            let value = inline
                .or_else(|| args.next().cloned())
                .ok_or_else(|| format!("option {name} needs a value"))?;
            given.push((known, value));
        }
        Ok(Opts(given))
    }

    /// The first value given for `name`.
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value {v:?} for {name}")),
        }
    }
}

/// Parse a subcommand's options, or report why not (exit status 2).
fn opts_or_exit(args: &[String], table: &[&'static str]) -> Result<Opts, i32> {
    Opts::parse(args, table).map_err(|e| {
        eprintln!("error: {e}; try `coral --help`");
        2
    })
}

/// Apply `--deadline-ms`, `--max-tuples` and `--max-term-bytes` on top
/// of `base` (itself already seeded from `CORAL_BUDGET_*`).
fn budget_from_flags(
    opts: &Opts,
    base: coral::core::Budget,
) -> Result<coral::core::Budget, String> {
    let mut b = base;
    if let Some(ms) = opts.parse_value::<u64>("--deadline-ms")? {
        b.deadline_ms = Some(ms);
    }
    if let Some(n) = opts.parse_value::<u64>("--max-tuples")? {
        b.max_tuples = Some(n);
    }
    if let Some(n) = opts.parse_value::<u64>("--max-term-bytes")? {
        b.max_term_bytes = Some(n);
    }
    Ok(b)
}

fn serve_main(args: &[String]) -> i32 {
    let opts = match opts_or_exit(args, SERVE_OPTS) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let addr = opts.value("--addr").unwrap_or("127.0.0.1:7061").to_string();
    let mut config = ServerConfig::default();
    let parsed = (|| -> Result<(), String> {
        if let Some(w) = opts.parse_value("--workers")? {
            config.workers = w;
        }
        if let Some(f) = opts.parse_value("--frames")? {
            config.frames = f;
        }
        if let Some(m) = opts.parse_value("--max-frame")? {
            config.max_frame = m;
        }
        if let Some(ms) = opts.parse_value::<u64>("--timeout-ms")? {
            config.request_timeout = Some(std::time::Duration::from_millis(ms));
        }
        config.budget = budget_from_flags(&opts, coral::core::Budget::from_env(config.budget))?;
        if let Some(n) = opts.parse_value::<usize>("--max-in-flight")? {
            config.max_eval_in_flight = Some(n);
        }
        if let Some(ms) = opts.parse_value::<u32>("--shed-backoff-ms")? {
            config.shed_backoff_ms = ms;
        }
        config.data_dir = opts.value("--data-dir").map(std::path::PathBuf::from);
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("error: {e}");
        return 2;
    }
    let server = match Server::start(addr.as_str(), config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    outln!("coral server listening on {}", server.addr());
    outln!("press Enter to stop");
    let mut line = String::new();
    match std::io::stdin().read_line(&mut line) {
        // Stdin is closed (e.g. the server was backgrounded with no
        // controlling terminal): run as a daemon until killed. An
        // unclean kill is safe — WAL recovery covers it on reopen.
        Ok(0) => loop {
            std::thread::park();
        },
        _ => {
            let stats = server.shutdown();
            outln!("server stopped; {stats}");
            0
        }
    }
}

fn connect_main(args: &[String]) -> i32 {
    let opts = match opts_or_exit(args, CONNECT_OPTS) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let addr = opts.value("--addr").unwrap_or("127.0.0.1:7061").to_string();
    let mut client = match Client::connect(addr.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let interactive = atty_stdin();
    if interactive {
        outln!("connected to coral server at {addr}.");
        outln!("Type :help for meta commands; clauses end with '.'");
    }
    let mut buffer = String::new();
    let mut prompt = "coral> ";
    loop {
        if stdout_failed().is_some() {
            break;
        }
        if interactive {
            out!("{prompt}");
            let _ = stdout.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with(':') || trimmed.starts_with(".profile")) {
            if !remote_meta(&mut client, trimmed) {
                return match client.quit() {
                    Ok(()) => 0,
                    Err(e) => {
                        eprintln!("error: {e}");
                        1
                    }
                };
            }
            continue;
        }
        if trimmed.is_empty() && buffer.is_empty() {
            continue;
        }
        buffer.push_str(&line);
        if !input_complete(&buffer) {
            prompt = "  ...> ";
            continue;
        }
        prompt = "coral> ";
        let chunk = std::mem::take(&mut buffer);
        if chunk.trim_start().starts_with("?-") {
            // Stream the answers: each batch is printed as it arrives,
            // so a pipelined query shows answers before the fixpoint of
            // a huge relation would complete.
            match client.query(&chunk) {
                Ok(answers) => {
                    let mut n = 0usize;
                    let mut failed = false;
                    for answer in answers {
                        match answer {
                            Ok(a) if stdout_failed().is_none() => {
                                outln!("{a}");
                                n += 1;
                            }
                            Ok(_) => break,
                            Err(e) => {
                                eprintln!("error: {e}");
                                failed = true;
                                break;
                            }
                        }
                    }
                    if n == 0 && !failed {
                        outln!("no");
                    }
                }
                Err(e) => eprintln!("error: {e}"),
            }
        } else {
            match client.consult_str(&chunk) {
                Ok(query_results) => print_query_results(query_results),
                Err(e) => eprintln!("error: {e}"),
            }
        }
    }
    let _ = client.quit();
    stdout_failed().unwrap_or(0)
}

/// Handle a `:` meta command against a remote session; returns `false`
/// to quit.
fn remote_meta(client: &mut Client, cmd: &str) -> bool {
    let mut parts = cmd.splitn(2, ' ');
    let head = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("").trim();
    match head {
        ":quit" | ":q" | ":exit" => return false,
        ":help" | ":h" => {
            outln!(
                ":profile [on|off|json]         toggle remote profiling / last profile\n\
                 :checkpoint                    checkpoint the server's storage\n\
                 :check                         integrity-check the server's storage\n\
                 :ping                          liveness check\n\
                 :quit                          leave"
            );
        }
        ":profile" | ".profile" => match rest {
            "on" | "off" => match client.set_profiling(rest == "on") {
                Ok(()) => outln!("profiling {rest}"),
                Err(e) => eprintln!("error: {e}"),
            },
            "json" | "" => match client.profile_json() {
                Ok(Some(j)) => outln!("{j}"),
                Ok(None) => outln!("no profile collected (try `:profile on` then a query)"),
                Err(e) => eprintln!("error: {e}"),
            },
            other => eprintln!("usage: :profile [on|off|json] (got {other:?})"),
        },
        ":checkpoint" => match client.checkpoint() {
            Ok(()) => outln!("checkpointed"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":check" => match client.check() {
            Ok(report) => out!("{report}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":ping" => match client.ping() {
            Ok(()) => outln!("pong"),
            Err(e) => eprintln!("error: {e}"),
        },
        other => eprintln!("unknown command {other}; try :help"),
    }
    true
}

fn print_query_results(query_results: Vec<Vec<coral::Answer>>) {
    for answers in query_results {
        if answers.is_empty() {
            outln!("no");
        } else {
            for a in answers {
                outln!("{a}");
            }
        }
    }
}

fn repl_main(args: &[String]) -> i32 {
    let opts = match opts_or_exit(args, REPL_OPTS) {
        Ok(o) => o,
        Err(code) => return code,
    };
    let session = Session::new();
    if std::env::var_os("CORAL_PROFILE").is_some_and(|v| v != "0" && !v.is_empty()) {
        session.set_profiling(true);
    }
    // The session's budget is already seeded from CORAL_BUDGET_*; the
    // flags override individual resources on top of that.
    match budget_from_flags(&opts, session.budget()) {
        Ok(b) => session.set_budget(b),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    }
    let frames = match opts.parse_value("--frames") {
        Ok(f) => f.unwrap_or(256),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(dir) = opts.value("--data-dir") {
        // Attach storage and register every on-disk relation, so the
        // REPL sees the same persistent database `coral serve` would.
        let dir = std::path::PathBuf::from(dir);
        let storage = match session.attach_storage(&dir, frames) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot open storage in {}: {e}", dir.display());
                return 1;
            }
        };
        for name in coral::rel::PersistentRelation::list(&storage) {
            if let Ok(Some(arity)) = coral::rel::PersistentRelation::stored_arity(&storage, &name) {
                if let Err(e) = session.create_persistent(&name, arity) {
                    eprintln!("error: cannot open persistent relation {name}: {e}");
                }
            }
        }
    }
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let interactive = atty_stdin();
    if interactive {
        outln!("CORAL deductive database (Rust reproduction of SIGMOD '93).");
        outln!("Type :help for meta commands; clauses end with '.'");
    }
    let mut buffer = String::new();
    let mut prompt = "coral> ";
    loop {
        if stdout_failed().is_some() {
            break;
        }
        if interactive {
            out!("{prompt}");
            let _ = stdout.flush();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && (trimmed.starts_with(':') || trimmed.starts_with(".profile")) {
            if !meta_command(&session, trimmed) {
                break;
            }
            continue;
        }
        if trimmed.is_empty() && buffer.is_empty() {
            continue;
        }
        buffer.push_str(&line);
        if !input_complete(&buffer) {
            prompt = "  ...> ";
            continue;
        }
        prompt = "coral> ";
        let chunk = std::mem::take(&mut buffer);
        match session.consult_str(&chunk) {
            Ok(query_results) => print_query_results(query_results),
            Err(e) => eprintln!("error: {e}"),
        }
    }
    stdout_failed().unwrap_or(0)
}

/// A chunk is complete when it ends with a clause terminator and any
/// `module …` block in it is closed by `end_module.`
fn input_complete(buffer: &str) -> bool {
    let t = buffer.trim_end();
    if !t.ends_with('.') {
        return false;
    }
    let opens = t.split_whitespace().filter(|w| *w == "module").count();
    let closes = t.matches("end_module").count();
    opens <= closes
}

/// Handle a `:` meta command; returns `false` to quit.
fn meta_command(session: &Session, cmd: &str) -> bool {
    let mut parts = cmd.splitn(2, ' ');
    let head = parts.next().unwrap_or("");
    let rest = parts.next().unwrap_or("").trim();
    match head {
        ":quit" | ":q" | ":exit" => return false,
        ":help" | ":h" => {
            outln!(
                ":consult <file>                consult a program/data file\n\
                 :list                          base relations and modules\n\
                 :explain <fact>                derivation tree for a ground fact\n\
                 :rewritten <pred>/<n> <form>   dump the rewritten program\n\
                 :profile [on|off|json]         toggle profiling / last profile\n\
                 :stats                         base-relation statistics the planner sees\n\
                 :maintain                      incremental-maintenance totals\n\
                 :analyze                       refresh base-relation statistics\n\
                 :budget [spec|unlimited]       show/set per-query budget\n\
                 \x20                              (spec: deadline-ms=500 tuples=10000 ...)\n\
                 :persist <pred>/<n>            open a persistent base relation\n\
                 :checkpoint                    checkpoint attached storage\n\
                 :check                         integrity-check attached storage\n\
                 :quit                          leave"
            );
        }
        ":persist" => {
            let Some((name, arity)) = rest.split_once('/') else {
                eprintln!("usage: :persist <pred>/<arity>");
                return true;
            };
            let Ok(arity) = arity.parse::<usize>() else {
                eprintln!("bad arity in {rest}");
                return true;
            };
            match session.create_persistent(name, arity) {
                Ok(_) => outln!("{name}/{arity} is persistent"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        ":checkpoint" => match session.checkpoint() {
            Ok(()) => outln!("checkpointed"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":check" => match session.check_storage() {
            Ok(report) => out!("{report}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":profile" | ".profile" => match rest {
            "on" => {
                session.set_profiling(true);
                outln!("profiling on");
            }
            "off" => {
                session.set_profiling(false);
                outln!("profiling off");
            }
            "json" => match session.last_profile() {
                Some(p) => outln!("{}", p.to_json()),
                None => outln!("no profile collected (try `:profile on` then a query)"),
            },
            "" => match session.last_profile() {
                Some(p) => out!("{}", p.render()),
                None => outln!("no profile collected (try `:profile on` then a query)"),
            },
            other => eprintln!("usage: :profile [on|off|json] (got {other:?})"),
        },
        ":budget" => match rest {
            "" => {
                outln!("budget: {}", session.budget().render());
                let u = session.budget_usage();
                outln!(
                    "last query: {} ms, {} tuples, {} term bytes, \
                     {} iterations, depth {}",
                    u.elapsed_ms,
                    u.tuples,
                    u.term_bytes,
                    u.iterations,
                    u.max_depth
                );
            }
            spec => match coral::core::Budget::parse(spec) {
                Ok(b) => {
                    session.set_budget(b);
                    outln!("budget: {}", b.render());
                }
                Err(e) => eprintln!("usage: :budget [resource=limit ...|unlimited] — {e}"),
            },
        },
        ":stats" => {
            // What the cost-based planner sees for each base relation.
            for (name, arity) in session.engine().db().list() {
                let stats = session
                    .engine()
                    .db()
                    .get(name, arity)
                    .and_then(|r| r.stats());
                match stats {
                    Some(st) => {
                        let distinct: Vec<u64> = (0..st.arity()).map(|c| st.distinct(c)).collect();
                        outln!(
                            "{name}/{arity}: {} rows, distinct per column {distinct:?}",
                            st.cardinality()
                        );
                    }
                    None => outln!("{name}/{arity}: no statistics"),
                }
            }
        }
        ":maintain" => {
            let t = session.maintain_totals();
            outln!(
                "incremental maintenance: {} propagations, {} count updates, \
                 {} overdeleted, {} rederived, {} rebuilds",
                t.propagated,
                t.count_updates,
                t.overdeleted,
                t.rederived,
                t.rebuilds
            );
        }
        ":analyze" => match session.analyze() {
            Ok(n) => outln!("analyzed {n} relation{}", if n == 1 { "" } else { "s" }),
            Err(e) => eprintln!("error: {e}"),
        },
        ":consult" => match session.consult_file(std::path::Path::new(rest)) {
            Ok(results) => {
                outln!("consulted {rest} ({} embedded queries)", results.len())
            }
            Err(e) => eprintln!("error: {e}"),
        },
        ":list" => {
            for (name, arity) in session.engine().db().list() {
                if let Some(rel) = session.engine().db().get(name, arity) {
                    outln!("{name}/{arity}: {}", rel.describe());
                }
            }
        }
        ":explain" => match session.explain_fact(rest) {
            Ok(Some(d)) => out!("{}", d.render()),
            Ok(None) => outln!("{rest} is not derivable"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":rewritten" => {
            // :rewritten path/2 bf
            let mut ps = rest.split_whitespace();
            let spec = ps.next().unwrap_or("");
            let form = ps.next().unwrap_or("");
            let Some((name, arity)) = spec.split_once('/') else {
                eprintln!("usage: :rewritten <pred>/<arity> <form>");
                return true;
            };
            let Ok(arity) = arity.parse::<usize>() else {
                eprintln!("bad arity in {spec}");
                return true;
            };
            let Some(adorn) = Adornment::parse(form) else {
                eprintln!("bad query form {form:?} (use e.g. bf)");
                return true;
            };
            match session.engine().explain(PredRef::new(name, arity), &adorn) {
                Ok(text) => out!("{text}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        other => eprintln!("unknown command {other}; try :help"),
    }
    true
}

/// Rough interactivity check without extra dependencies: honor an
/// environment override, otherwise assume non-interactive when stdin is
/// redirected (heuristic: CI and tests pipe input).
fn atty_stdin() -> bool {
    if std::env::var_os("CORAL_FORCE_PROMPT").is_some() {
        return true;
    }
    // Portable-enough heuristic via /dev/tty availability on Unix.
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileTypeExt;
        if let Ok(meta) = std::fs::metadata("/dev/stdin") {
            let ft = meta.file_type();
            return ft.is_char_device();
        }
    }
    false
}
