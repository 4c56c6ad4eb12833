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
//! :threads [N]                  show/set evaluation threads
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
use std::io::{BufRead, Write};

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

fn print_usage() {
    println!(
        "usage:\n\
         \x20 coral [options]            interactive session (or pipe a script)\n\
         \x20     --data-dir DIR         attach persistent storage under DIR\n\
         \x20     --frames N             buffer pool pages (default 256)\n\
         \x20     --threads N            evaluation threads (default CORAL_THREADS or 1)\n\
         \x20     --deadline-ms MS       per-query wall-clock budget\n\
         \x20     --max-tuples N         per-query materialized-tuple budget\n\
         \x20     --max-term-bytes N     per-query term-arena budget\n\
         \x20 coral serve [options]      serve concurrent sessions over TCP\n\
         \x20     --addr A               listen address (default 127.0.0.1:7061)\n\
         \x20     --workers N            worker threads = max connections (default 4)\n\
         \x20     --threads N            evaluation threads per session (default CORAL_THREADS or 1)\n\
         \x20     --data-dir DIR         persistent storage directory\n\
         \x20     --frames N             buffer pool pages (default 256)\n\
         \x20     --timeout-ms MS        per-request evaluation timeout\n\
         \x20     --max-frame BYTES      request size limit (default 16 MiB)\n\
         \x20     --deadline-ms MS       default per-query wall-clock budget\n\
         \x20     --max-tuples N         default per-query tuple budget\n\
         \x20     --max-term-bytes N     default per-query term-arena budget\n\
         \x20     --max-in-flight N      admission cap on concurrent evaluations\n\
         \x20     --shed-backoff-ms MS   retry-after hint when shedding (default 50)\n\
         \x20 coral connect [--addr A]   REPL against a running server"
    );
}

/// `--name value` or `--name=value`.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    let prefix = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
    }
    None
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag_value(args, name) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value {v:?} for {name}")),
    }
}

/// Apply `--deadline-ms`, `--max-tuples` and `--max-term-bytes` on top
/// of `base` (itself already seeded from `CORAL_BUDGET_*`).
fn budget_from_flags(
    args: &[String],
    base: coral::core::Budget,
) -> Result<coral::core::Budget, String> {
    let mut b = base;
    if let Some(ms) = parse_flag::<u64>(args, "--deadline-ms")? {
        b.deadline_ms = Some(ms);
    }
    if let Some(n) = parse_flag::<u64>(args, "--max-tuples")? {
        b.max_tuples = Some(n);
    }
    if let Some(n) = parse_flag::<u64>(args, "--max-term-bytes")? {
        b.max_term_bytes = Some(n);
    }
    Ok(b)
}

fn serve_main(args: &[String]) -> i32 {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7061".into());
    let mut config = ServerConfig::default();
    let parsed = (|| -> Result<(), String> {
        if let Some(w) = parse_flag(args, "--workers")? {
            config.workers = w;
        }
        if let Some(f) = parse_flag(args, "--frames")? {
            config.frames = f;
        }
        if let Some(m) = parse_flag(args, "--max-frame")? {
            config.max_frame = m;
        }
        if let Some(ms) = parse_flag::<u64>(args, "--timeout-ms")? {
            config.request_timeout = Some(std::time::Duration::from_millis(ms));
        }
        if let Some(t) = parse_flag::<usize>(args, "--threads")? {
            config.threads = Some(t);
        }
        config.budget = budget_from_flags(args, coral::core::Budget::from_env(config.budget))?;
        if let Some(n) = parse_flag::<usize>(args, "--max-in-flight")? {
            config.max_eval_in_flight = Some(n);
        }
        if let Some(ms) = parse_flag::<u32>(args, "--shed-backoff-ms")? {
            config.shed_backoff_ms = ms;
        }
        config.data_dir = flag_value(args, "--data-dir").map(std::path::PathBuf::from);
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
    println!("coral server listening on {}", server.addr());
    println!("press Enter to stop");
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
            println!("server stopped; {stats}");
            0
        }
    }
}

fn connect_main(args: &[String]) -> i32 {
    let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7061".into());
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
        println!("connected to coral server at {addr}.");
        println!("Type :help for meta commands; clauses end with '.'");
    }
    let mut buffer = String::new();
    let mut prompt = "coral> ";
    loop {
        if interactive {
            print!("{prompt}");
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
                            Ok(a) => {
                                println!("{a}");
                                n += 1;
                            }
                            Err(e) => {
                                eprintln!("error: {e}");
                                failed = true;
                                break;
                            }
                        }
                    }
                    if n == 0 && !failed {
                        println!("no");
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
    0
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
            println!(
                ":profile [on|off|json]         toggle remote profiling / last profile\n\
                 :checkpoint                    checkpoint the server's storage\n\
                 :check                         integrity-check the server's storage\n\
                 :ping                          liveness check\n\
                 :quit                          leave"
            );
        }
        ":profile" | ".profile" => match rest {
            "on" | "off" => match client.set_profiling(rest == "on") {
                Ok(()) => println!("profiling {rest}"),
                Err(e) => eprintln!("error: {e}"),
            },
            "json" | "" => match client.profile_json() {
                Ok(Some(j)) => println!("{j}"),
                Ok(None) => println!("no profile collected (try `:profile on` then a query)"),
                Err(e) => eprintln!("error: {e}"),
            },
            other => eprintln!("usage: :profile [on|off|json] (got {other:?})"),
        },
        ":checkpoint" => match client.checkpoint() {
            Ok(()) => println!("checkpointed"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":check" => match client.check() {
            Ok(report) => print!("{report}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":ping" => match client.ping() {
            Ok(()) => println!("pong"),
            Err(e) => eprintln!("error: {e}"),
        },
        other => eprintln!("unknown command {other}; try :help"),
    }
    true
}

fn print_query_results(query_results: Vec<Vec<coral::Answer>>) {
    for answers in query_results {
        if answers.is_empty() {
            println!("no");
        } else {
            for a in answers {
                println!("{a}");
            }
        }
    }
}

fn repl_main(args: &[String]) -> i32 {
    let session = Session::new();
    if std::env::var_os("CORAL_PROFILE").is_some_and(|v| v != "0" && !v.is_empty()) {
        session.set_profiling(true);
    }
    match parse_flag(args, "--threads") {
        Ok(Some(t)) => session.set_threads(t),
        Ok(None) => {} // session already honors CORAL_THREADS
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    }
    // The session's budget is already seeded from CORAL_BUDGET_*; the
    // flags override individual resources on top of that.
    match budget_from_flags(args, session.budget()) {
        Ok(b) => session.set_budget(b),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    }
    let frames = match parse_flag(args, "--frames") {
        Ok(f) => f.unwrap_or(256),
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    if let Some(dir) = flag_value(args, "--data-dir") {
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
        println!("CORAL deductive database (Rust reproduction of SIGMOD '93).");
        println!("Type :help for meta commands; clauses end with '.'");
    }
    let mut buffer = String::new();
    let mut prompt = "coral> ";
    loop {
        if interactive {
            print!("{prompt}");
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
    0
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
            println!(
                ":consult <file>                consult a program/data file\n\
                 :list                          base relations and modules\n\
                 :explain <fact>                derivation tree for a ground fact\n\
                 :rewritten <pred>/<n> <form>   dump the rewritten program\n\
                 :profile [on|off|json]         toggle profiling / last profile\n\
                 :threads [N]                   show/set evaluation threads\n\
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
                Ok(_) => println!("{name}/{arity} is persistent"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        ":checkpoint" => match session.checkpoint() {
            Ok(()) => println!("checkpointed"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":check" => match session.check_storage() {
            Ok(report) => print!("{report}"),
            Err(e) => eprintln!("error: {e}"),
        },
        ":profile" | ".profile" => match rest {
            "on" => {
                session.set_profiling(true);
                println!("profiling on");
            }
            "off" => {
                session.set_profiling(false);
                println!("profiling off");
            }
            "json" => match session.last_profile() {
                Some(p) => println!("{}", p.to_json()),
                None => println!("no profile collected (try `:profile on` then a query)"),
            },
            "" => match session.last_profile() {
                Some(p) => print!("{}", p.render()),
                None => println!("no profile collected (try `:profile on` then a query)"),
            },
            other => eprintln!("usage: :profile [on|off|json] (got {other:?})"),
        },
        ":budget" => match rest {
            "" => {
                println!("budget: {}", session.budget().render());
                let u = session.budget_usage();
                println!(
                    "last query: {} ms, {} tuples, {} term bytes, \
                     {} iterations, depth {}",
                    u.elapsed_ms, u.tuples, u.term_bytes, u.iterations, u.max_depth
                );
            }
            spec => match coral::core::Budget::parse(spec) {
                Ok(b) => {
                    session.set_budget(b);
                    println!("budget: {}", b.render());
                }
                Err(e) => eprintln!("usage: :budget [resource=limit ...|unlimited] — {e}"),
            },
        },
        ":threads" => match rest {
            "" => println!("threads: {}", session.threads()),
            n => match n.parse::<usize>() {
                Ok(t) => {
                    session.set_threads(t);
                    println!("threads: {}", session.threads());
                }
                Err(_) => eprintln!("usage: :threads [N] (got {n:?})"),
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
                        println!(
                            "{name}/{arity}: {} rows, distinct per column {distinct:?}",
                            st.cardinality()
                        );
                    }
                    None => println!("{name}/{arity}: no statistics"),
                }
            }
        }
        ":maintain" => {
            let t = session.maintain_totals();
            println!(
                "incremental maintenance: {} propagations, {} count updates, \
                 {} overdeleted, {} rederived, {} rebuilds",
                t.propagated, t.count_updates, t.overdeleted, t.rederived, t.rebuilds
            );
        }
        ":analyze" => match session.analyze() {
            Ok(n) => println!("analyzed {n} relation{}", if n == 1 { "" } else { "s" }),
            Err(e) => eprintln!("error: {e}"),
        },
        ":consult" => match session.consult_file(std::path::Path::new(rest)) {
            Ok(results) => {
                println!("consulted {rest} ({} embedded queries)", results.len())
            }
            Err(e) => eprintln!("error: {e}"),
        },
        ":list" => {
            for (name, arity) in session.engine().db().list() {
                if let Some(rel) = session.engine().db().get(name, arity) {
                    println!("{name}/{arity}: {}", rel.describe());
                }
            }
        }
        ":explain" => match session.explain_fact(rest) {
            Ok(Some(d)) => print!("{}", d.render()),
            Ok(None) => println!("{rest} is not derivable"),
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
                Ok(text) => print!("{text}"),
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
