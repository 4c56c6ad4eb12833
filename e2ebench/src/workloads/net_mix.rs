//! `net_mix` — the same ops as `bound_queries` and `persistent_mix`
//! through `coral-net`: an in-process `Server` with storage (1 024
//! frames, the data fits) and two closed-loop `Client` connections (the
//! host's core count). Each replays blocks of fifty ops: 6 `sg(k, Y)`,
//! 2 bound `path(k, Y)`, 33 point reads `acct(k, V)`, 8 single-row
//! inserts (a consulted fact, which the server brackets in a request
//! transaction; the wire has no delete) and one whole `path(X, Y)`
//! streamed with `Client::query_batched`.

use super::bound_queries::{self as bq, Data, Kind as QueryKind};
use super::persistent_mix::{self as pm, Model};
use crate::bench::{int_of, median, ratio, us, Check, Ctx, OpResult, Ops, Tracer};
use crate::gen::{self, acct_value, TestRng};
use crate::layers;
use crate::oracle;
use coral::net::{Client, Request, Response, Server, ServerConfig};
use coral::rel::{PersistentRelation, Relation};
use coral::storage::{StorageClient, StorageServer};
use coral::{Answer, Session};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const FRAMES: usize = 1_024;
const CLIENTS: usize = 2;
const STREAM_BATCH: u32 = 256;
/// Fresh insert keys of client `c` start here.
const KEY_BASE: i64 = 1_000_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Query(QueryKind),
    Read,
    Insert,
    Stream,
}

fn block(rng: &mut TestRng) -> Vec<Kind> {
    let mut kinds = vec![Kind::Read; 33];
    kinds.extend([Kind::Query(QueryKind::Sg); 6]);
    kinds.extend([Kind::Query(QueryKind::Path); 2]);
    kinds.extend([Kind::Insert; 8]);
    kinds.push(Kind::Stream);
    gen::shuffle(&mut kinds, rng);
    kinds
}

struct Setup {
    server: Server,
    storage: StorageClient,
    dir: PathBuf,
    clients: Vec<Client>,
    data: Data,
    model: Model,
    preloaded: usize,
}

/// One closed-loop client's state.
struct Worker {
    id: usize,
    client: Client,
    data: Data,
    rng: TestRng,
    pending: Vec<Kind>,
    preloaded: usize,
    inserted: Vec<i64>,
    sg_lat_ms: Vec<f64>,
    streamed: oracle::Fingerprint,
}

fn rows_of(answers: &[Answer]) -> Vec<Vec<i64>> {
    let mut rows: Vec<Vec<i64>> = answers
        .iter()
        .map(|a| a.tuple.args().iter().map(int_of).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// Open `text`, take the first answer (the `ttfa`), drain the rest.
fn remote_query(
    tracer: &mut Tracer,
    client: &mut Client,
    text: &str,
    batch: u32,
) -> Result<(Vec<Answer>, Duration), String> {
    let t0 = Instant::now();
    let open = tracer.begin("net.client.query");
    let answers = client.query_batched(text, batch);
    tracer.end(open);
    let mut answers = answers.map_err(|e| format!("{text}: {e}"))?;
    let open = tracer.begin("net.client.first_answer");
    let first = answers.next();
    tracer.end(open);
    let ttfa = t0.elapsed();
    let open = tracer.begin("net.client.drain");
    let mut out = Vec::new();
    let mut failed = None;
    for a in first.into_iter().chain(&mut answers) {
        match a {
            Ok(a) => out.push(a),
            Err(e) => {
                failed = Some(format!("{text}: {e}"));
                break;
            }
        }
    }
    tracer.end(open);
    match failed {
        Some(e) => Err(e),
        None => Ok((out, ttfa)),
    }
}

fn op(tracer: &mut Tracer, w: &mut Worker, want_stream: oracle::Fingerprint) -> OpResult {
    if w.pending.is_empty() {
        w.pending = block(&mut w.rng);
    }
    let kind = w.pending.pop().expect("refilled");
    let t0 = Instant::now();
    // `ttfa_ms` comes from the streamed op alone: a point read's first
    // answer is one loopback round trip, and its wake-up jitter on a
    // two-core host would be all the metric shows.
    let queried = |r: Result<(Vec<Answer>, Duration), String>,
                   check: &mut dyn FnMut(&[Answer]) -> Result<(), String>| match r
    {
        Ok((answers, ttfa)) => OpResult {
            latency: t0.elapsed(),
            answers: answers.len() as u64,
            ttfa: (kind == Kind::Stream).then_some(ttfa),
            outcome: check(&answers),
        },
        Err(e) => OpResult::failed(e),
    };
    match kind {
        Kind::Query(q) => {
            let key = w.data.key(q, &mut w.rng);
            let text = Data::text(q, key);
            let r = remote_query(tracer, &mut w.client, &text, coral::net::DEFAULT_BATCH);
            let want = w.data.expected(q, key);
            let r = queried(r, &mut |answers| {
                if rows_of(answers) == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{text}: {} answers, oracle says {}",
                        answers.len(),
                        want.len()
                    ))
                }
            });
            if q == QueryKind::Sg && r.outcome.is_ok() {
                w.sg_lat_ms.push(crate::bench::ms(r.latency));
            }
            r
        }
        Kind::Read => {
            let k = gen::skewed(w.preloaded, &mut w.rng) as i64;
            let text = format!("acct({k}, V)");
            let r = remote_query(tracer, &mut w.client, &text, coral::net::DEFAULT_BATCH);
            queried(r, &mut |answers| {
                if rows_of(answers) == [vec![k, acct_value(k)]] {
                    Ok(())
                } else {
                    Err(format!(
                        "{text}: {} answers, the model holds one",
                        answers.len()
                    ))
                }
            })
        }
        Kind::Insert => {
            let k = KEY_BASE * (w.id as i64 + 1) + w.inserted.len() as i64;
            w.inserted.push(k);
            let open = tracer.begin("net.client.consult");
            let done = w
                .client
                .consult_str(&format!("acct({k}, {}).", acct_value(k)));
            tracer.end(open);
            OpResult {
                latency: t0.elapsed(),
                answers: 0,
                ttfa: None,
                outcome: done
                    .map(|_| ())
                    .map_err(|e| format!("insert acct({k}, _): {e}")),
            }
        }
        Kind::Stream => {
            let r = remote_query(tracer, &mut w.client, "path(X, Y)", STREAM_BATCH);
            queried(r, &mut |answers| {
                let mut got = oracle::Fingerprint::default();
                for a in answers {
                    got.add(&[int_of(&a.tuple.args()[0]), int_of(&a.tuple.args()[1])]);
                }
                w.streamed = got;
                if got == want_stream {
                    Ok(())
                } else {
                    Err(format!(
                        "path(X, Y): got {got:?}, BFS closure says {want_stream:?}"
                    ))
                }
            })
        }
    }
}

/// Wire answers against an embedded session on the same store and the
/// same consulted text: the untimed `check.net_equals_embedded` row.
fn equals_embedded(ctx: &mut Ctx, s: &mut Setup, embedded: &Session) {
    let mut rng = ctx.rng(9);
    let mut texts: Vec<String> = vec!["path(X, Y)".into()];
    for _ in 0..5 {
        let k = s.data.key(QueryKind::Sg, &mut rng);
        texts.push(Data::text(QueryKind::Sg, k));
        let k = s.data.key(QueryKind::Path, &mut rng);
        texts.push(Data::text(QueryKind::Path, k));
        texts.push(format!("acct({}, V)", gen::skewed(s.preloaded, &mut rng)));
    }
    let mut differing = Vec::new();
    for text in &texts {
        let wire = s.clients[0].query_all(text).map(|a| rows_of(&a));
        let local = embedded.query_all(text).map(|a| rows_of(&a));
        match (wire, local) {
            (Ok(w), Ok(l)) if w == l => {}
            (w, l) => differing.push(format!(
                "{text}: wire {:?} vs embedded {:?}",
                w.map(|r| r.len()).map_err(|e| e.to_string()),
                l.map(|r| r.len()).map_err(|e| e.to_string())
            )),
        }
    }
    ctx.checks.push(Check {
        name: "check.net_equals_embedded",
        pass: differing.is_empty(),
        detail: if differing.is_empty() {
            format!("{} queries agree", texts.len())
        } else {
            differing.join("; ")
        },
    });
}

/// Replay one op's answers through `Response::{encode, decode}` in
/// default-sized batches, and time `Client::ping`.
fn probe_wire(ctx: &mut Ctx, client: &mut Client) {
    let open = ctx.tracer.begin("probe.wire");
    let mut pings = Vec::new();
    for _ in 0..200 {
        let open = ctx.tracer.begin("net.ping");
        let t0 = Instant::now();
        client.ping().expect("ping");
        pings.push(us(t0.elapsed()));
        ctx.tracer.end(open);
    }
    ctx.layer("net.ping_us", median(&pings));

    let answers = client.query_all("path(X, Y)").expect("replay volume");
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for chunk in answers.chunks(coral::net::DEFAULT_BATCH as usize).take(500) {
        let frame = Response::Batch {
            answers: chunk.to_vec(),
            done: false,
            truncated: None,
        };
        let open = ctx.tracer.begin("net.proto.encode");
        let t0 = Instant::now();
        let bytes = frame.encode().expect("answers encode");
        enc.push(us(t0.elapsed()));
        ctx.tracer.end(open);
        let open = ctx.tracer.begin("net.proto.decode");
        let t0 = Instant::now();
        std::hint::black_box(Response::decode(&bytes).expect("frame decodes"));
        dec.push(us(t0.elapsed()));
        ctx.tracer.end(open);
        let request = Request::NextAnswer(coral::net::DEFAULT_BATCH).encode();
        std::hint::black_box(Request::decode(&request).expect("request decodes"));
    }
    ctx.layer("net.proto.encode_us", median(&enc));
    ctx.layer("net.proto.decode_us", median(&dec));
    ctx.tracer.end(open);
}

pub fn run(ctx: &mut Ctx) -> Vec<Ops> {
    let (sizes, rows) = if ctx.smoke {
        (
            bq::Sizes {
                layers: 4,
                width: 32,
                path_nodes: 20,
                path_edges: 40,
                skew_rows: 10,
            },
            60,
        )
    } else {
        (
            bq::Sizes {
                layers: 10,
                width: 2048,
                path_nodes: 150,
                path_edges: 300,
                skew_rows: 10,
            },
            800,
        )
    };
    ctx.size("clients", CLIENTS as u64);
    ctx.size("frames", FRAMES as u64);
    ctx.size("preloaded_rows", rows as u64);
    ctx.size("sg_width", sizes.width as u64);
    ctx.size("path_nodes", sizes.path_nodes as u64);
    let closure = (sizes.path_nodes * sizes.path_nodes) as u64;
    let mut setup = ctx.setup(|ctx| {
        let dir = ctx.fresh_dir("net_mix");
        let storage = StorageServer::open(&dir, FRAMES).expect("open store");
        let rel = PersistentRelation::open(&storage, "acct", 2).expect("acct");
        let model = pm::preload(&storage, &rel, rows);
        drop(rel);
        let config = ServerConfig {
            // One spare worker for the checking connection.
            workers: CLIENTS + 1,
            ..ServerConfig::default()
        };
        let server = Server::start_with_storage("127.0.0.1:0", config, storage.clone())
            .expect("server starts");
        let mut data = bq::data(&sizes, &mut ctx.rng(1));
        data.program = data
            .program
            .replace("export path(bf).", "export path(bf, ff).");
        let clients: Vec<Client> = (0..CLIENTS)
            .map(|_| {
                let mut c = Client::connect(server.addr()).expect("connect");
                c.consult_str(&data.facts)
                    .expect("facts consult over the wire");
                c.consult_str(&data.program)
                    .expect("program consult over the wire");
                // Warm-up: compile every query form this connection uses.
                for text in ["sg(0, Y)", "path(0, Y)", "path(X, Y)", "acct(0, V)"] {
                    c.query_all(text).expect("warm-up query");
                }
                c
            })
            .collect();
        Setup {
            server,
            storage,
            dir,
            clients,
            data,
            model,
            preloaded: rows,
        }
    });
    let want_stream = {
        let edges: Vec<gen::Edge> = setup
            .data
            .adj
            .iter()
            .flat_map(|(&a, bs)| bs.iter().map(move |&b| (a, b)))
            .collect();
        oracle::closure(&edges)
    };
    assert_eq!(want_stream.count, closure, "a strongly connected graph");
    for o in [
        "same_generation_walk",
        "bfs_reach",
        "bfs_closure",
        "hashmap_model",
    ] {
        ctx.oracle_ran(o);
    }

    let net_before = setup.server.stats();
    let storage_before = (setup.storage.stats(), setup.storage.tx_stats());
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut workers: Vec<Worker> = std::mem::take(&mut setup.clients)
        .into_iter()
        .enumerate()
        .map(|(id, client)| Worker {
            id,
            client,
            data: setup.data.clone(),
            rng: ctx.rng(100 + id as u64),
            pending: Vec::new(),
            preloaded: rows,
            inserted: Vec::new(),
            sg_lat_ms: Vec::new(),
            streamed: Default::default(),
        })
        .collect();
    let min_ops: u64 = if ctx.smoke { 50 } else { 2_500 };
    let results: Vec<(Ops, Tracer, Option<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let mut tracer = ctx.tracer.fork();
                scope.spawn(move || {
                    let mut ops = Ops::default();
                    let t0 = Instant::now();
                    let mut i = 0u64;
                    let mut rss = None;
                    while i < min_ops || t0.elapsed() < window {
                        tracer.set_op(((w.id as u64 + 1) << 32) | (i + 1));
                        let open = tracer.begin("op");
                        let r = op(&mut tracer, w, want_stream);
                        tracer.end(open);
                        ops.record(r);
                        i += 1;
                        // As in `Ctx::measure`: peak RSS at a fixed op count.
                        if i == min_ops {
                            rss = Some(crate::bench::peak_rss_mb());
                        }
                    }
                    tracer.set_op(0);
                    (ops, tracer, rss)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all_ops = Vec::new();
    for (ops, tracer, rss) in results {
        all_ops.push(ops);
        ctx.tracer.absorb(tracer);
        ctx.peak_rss_mb = rss.or(ctx.peak_rss_mb);
    }
    let measured: f64 = all_ops.iter().map(|o| o.attempted as f64).sum();
    let answers: f64 = all_ops.iter().flat_map(|o| &o.answers).sum::<u64>() as f64;
    let net_now = setup.server.stats();
    if ctx.trace {
        pm::storage_layers(ctx, &setup.storage, storage_before, measured);
    }

    // Final contents over the wire against the model, then the
    // embedded-vs-wire check, then a cold reopen.
    for w in &workers {
        for &k in &w.inserted {
            setup.model.insert(k);
        }
    }
    let retried: u64 = workers.iter().map(|w| w.client.retried()).sum();
    let sg_net: Vec<f64> = workers
        .iter()
        .flat_map(|w| w.sg_lat_ms.iter().copied())
        .collect();
    setup.clients = workers.into_iter().map(|w| w.client).collect();
    let scan = setup.clients[0]
        .query_all("acct(K, V)")
        .map_err(|e| e.to_string())
        .map(|a| rows_of(&a).iter().map(|r| (r[0], r[1])).collect::<Vec<_>>())
        .and_then(|r| setup.model.matches(&r, "final scan over the wire"));
    if let Err(e) = scan {
        all_ops[0].fail(e);
    }

    let embedded = Session::new();
    embedded.attach_storage_client(setup.storage.clone());
    embedded.create_persistent("acct", 2).expect("acct");
    embedded
        .consult_str(&setup.data.facts)
        .expect("facts consult");
    embedded
        .consult_str(&setup.data.program)
        .expect("program consult");
    equals_embedded(ctx, &mut setup, &embedded);

    if ctx.trace {
        let d = |a: u64, b: u64| (a - b) as f64;
        for (metric, now, then) in [
            ("net.server.requests", net_now.requests, net_before.requests),
            ("net.server.bytes_in", net_now.bytes_in, net_before.bytes_in),
            (
                "net.server.bytes_out",
                net_now.bytes_out,
                net_before.bytes_out,
            ),
            ("net.server.shed", net_now.shed, net_before.shed),
            ("net.server.errors", net_now.errors, net_before.errors),
            (
                "net.server.txn_conflicts",
                net_now.txn_conflicts,
                net_before.txn_conflicts,
            ),
        ] {
            ctx.layer(metric, d(now, then) / measured);
        }
        ctx.layer(
            "net.proto.bytes_per_answer",
            ratio(d(net_now.bytes_out, net_before.bytes_out), answers),
        );
        ctx.layer("net.client.retried", retried as f64 / measured);
        // The same sg queries, embedded: the wire's cost by subtraction.
        let mut rng = ctx.rng(7);
        let mut sg_embedded = Vec::new();
        for _ in 0..200 {
            let k = setup.data.key(QueryKind::Sg, &mut rng);
            let d = layers::drain_query(ctx, &embedded, &Data::text(QueryKind::Sg, k), |_| {});
            sg_embedded.push(crate::bench::ms(d.expect("embedded sg").total));
        }
        ctx.layer("net.overhead_ms", median(&sg_net) - median(&sg_embedded));
        layers::session_layers(ctx, ratio(answers, measured));
        let asked: Vec<String> = (0..50)
            .map(|k| Data::text(QueryKind::Sg, k))
            .chain((0..50).map(|k| format!("acct({k}, V)")))
            .collect();
        layers::probe_front_end(ctx, &setup.data.facts, &setup.data.program, &asked);
        probe_wire(ctx, &mut setup.clients[0]);
    }

    let Setup {
        server,
        storage,
        dir,
        clients,
        model,
        ..
    } = setup;
    for c in clients {
        let _ = c.quit();
    }
    drop(embedded);
    server.shutdown();
    if ctx.trace {
        ctx.layer(
            "storage.file_bytes_per_row",
            pm::file_bytes_per_row(&dir, model.rows.len()),
        );
    }
    drop(storage);
    ctx.oracle_ran("cold_reopen");
    let reopened = StorageServer::open(&dir, FRAMES)
        .map_err(|e| e.to_string())
        .and_then(|s| PersistentRelation::open(&s, "acct", 2).map_err(|e| e.to_string()))
        .and_then(|rel| {
            rel.scan()
                .map(|t| {
                    t.map(|t| (int_of(&t.args()[0]), int_of(&t.args()[1])))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .and_then(|r| model.matches(&r, "after reopen"));
    if let Err(e) = reopened {
        all_ops[0].fail(e);
    }
    all_ops
}
