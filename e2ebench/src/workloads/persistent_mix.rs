//! `persistent_mix` — an embedded store with a 16-frame pool, relation
//! `acct(K, V)` indexed on its key, one client: in blocks of twenty, 16
//! point reads through `Session::query` (80/20 key skew), 3 single-row
//! inserts and 1 delete, each write bracketed in its own committed
//! transaction (WAL fsync, default flush policy), a checkpoint every
//! 1 000 ops. A run repeats rounds of 4 000 ops, each on a fresh
//! preloaded store, until its window closes. After every round the
//! contents are compared with a `HashMap` model, then the store is
//! reopened from disk and compared again.

use crate::bench::{int_of, median, ratio, us, Counters, Ctx, OpResult, Ops};
use crate::gen::{self, acct_value, TestRng};
use crate::layers::{self, ProfileSums};
use coral::rel::{IndexSpec, PersistentRelation, Relation};
use coral::storage::{BufferStats, StorageClient, TxStats};
use coral::{Session, Term, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

pub const FRAMES: usize = 16;
const CHECKPOINT_EVERY: usize = 1_000;
/// Ops in one round: four checkpoints' worth, about 1.5 s.
const ROUND_OPS: usize = 4_000;
/// `peak_rss_mb` is read when this many rounds have completed.
const RSS_ROUNDS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Read,
    Insert,
    Delete,
}

/// The `HashMap` model of `acct`, with the live keys in a vector so a
/// seeded pick is O(1).
#[derive(Default)]
pub struct Model {
    pub rows: HashMap<i64, i64>,
    live: Vec<i64>,
    pos: HashMap<i64, usize>,
}

impl Model {
    pub fn insert(&mut self, k: i64) {
        self.rows.insert(k, acct_value(k));
        self.pos.insert(k, self.live.len());
        self.live.push(k);
    }

    fn remove(&mut self, k: i64) {
        self.rows.remove(&k);
        let at = self.pos.remove(&k).expect("live key");
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.pos.insert(moved, at);
        }
    }

    pub fn skewed_key(&self, rng: &mut TestRng) -> i64 {
        self.live[gen::skewed(self.live.len(), rng)]
    }

    /// `Ok` when `got` holds exactly the model's rows.
    pub fn matches(&self, got: &[(i64, i64)], what: &str) -> Result<(), String> {
        let got: HashMap<i64, i64> = got.iter().copied().collect();
        if got == self.rows {
            Ok(())
        } else {
            Err(format!(
                "{what}: {} rows, the HashMap model holds {}",
                got.len(),
                self.rows.len()
            ))
        }
    }
}

struct Store {
    session: Session,
    client: StorageClient,
    rel: Rc<PersistentRelation>,
}

fn open(dir: &Path) -> Store {
    let session = Session::new();
    let client = session.attach_storage(dir, FRAMES).expect("open store");
    let rel = session.create_persistent("acct", 2).expect("acct");
    Store {
        session,
        client,
        rel,
    }
}

fn row(k: i64) -> Tuple {
    Tuple::ground(vec![Term::int(k), Term::int(acct_value(k))])
}

struct Setup {
    store: Store,
    dir: PathBuf,
    model: Model,
    rng: TestRng,
    pending: Vec<Kind>,
    next_key: i64,
    asked: Vec<String>,
    wal_growth: u64,
    commits: u64,
}

fn all_rows(session: &Session) -> Result<Vec<(i64, i64)>, String> {
    let answers = session.query_all("acct(K, V)").map_err(|e| e.to_string())?;
    Ok(answers
        .iter()
        .map(|a| (int_of(&a.tuple.args()[0]), int_of(&a.tuple.args()[1])))
        .collect())
}

fn wal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("wal.log")).map_or(0, |m| m.len())
}

/// One single-row write in its own committed transaction.
fn write(ctx: &mut Ctx, s: &mut Setup, delete: bool, k: i64) -> Result<(), String> {
    let session = &s.store.session;
    let fact = format!("acct({k}, {})", acct_value(k));
    let txn = session.begin_request_txn().map_err(|e| e.to_string())?;
    let open = ctx.tracer.begin(if delete {
        "core.session.delete_fact"
    } else {
        "core.session.insert_fact"
    });
    let changed = if delete {
        session.delete_fact(&fact)
    } else {
        session.insert_fact(&fact)
    };
    ctx.tracer.end(open);
    let wal_before = if ctx.trace { wal_len(&s.dir) } else { 0 };
    if let Some(txn) = txn {
        let open = ctx.tracer.begin("storage.wal.commit");
        let ended = session.end_request_txn(txn, changed.is_ok());
        ctx.tracer.end(open);
        ended.map_err(|e| format!("commit of {fact}: {e}"))?;
    }
    if ctx.trace {
        s.wal_growth += wal_len(&s.dir).saturating_sub(wal_before);
        s.commits += 1;
    }
    match changed {
        Ok(true) => Ok(()),
        Ok(false) => Err(format!("{fact}: the store reports no change")),
        Err(e) => Err(format!("{fact}: {e}")),
    }
}

fn op(ctx: &mut Ctx, s: &mut Setup, i: usize) -> OpResult {
    if s.pending.is_empty() {
        s.pending = vec![Kind::Read; 16];
        s.pending
            .extend([Kind::Insert, Kind::Insert, Kind::Insert, Kind::Delete]);
        gen::shuffle(&mut s.pending, &mut s.rng);
    }
    let kind = s.pending.pop().expect("refilled");
    let t0 = Instant::now();
    let mut r = match kind {
        Kind::Read => {
            let k = s.model.skewed_key(&mut s.rng);
            let text = format!("acct({k}, V)");
            let mut got = Vec::new();
            let drained = layers::drain_query(ctx, &s.store.session, &text, |cols| {
                got.push(int_of(&cols[1]));
            });
            ctx.oracle_ran("hashmap_model");
            if ctx.trace && s.asked.len() < 200 {
                s.asked.push(text.clone());
            }
            match drained {
                Ok(d) => OpResult {
                    latency: d.total,
                    answers: d.answers,
                    ttfa: Some(d.ttfa),
                    outcome: if got == [s.model.rows[&k]] {
                        Ok(())
                    } else {
                        Err(format!(
                            "{text}: got {got:?}, the model holds {}",
                            s.model.rows[&k]
                        ))
                    },
                },
                Err(e) => OpResult::failed(e),
            }
        }
        Kind::Insert | Kind::Delete => {
            let delete = kind == Kind::Delete;
            let k = if delete {
                let k = s.model.live[s.rng.gen_range(0, s.model.live.len())];
                s.model.remove(k);
                k
            } else {
                s.next_key += 1;
                s.model.insert(s.next_key);
                s.next_key
            };
            let outcome = write(ctx, s, delete, k);
            OpResult {
                latency: t0.elapsed(),
                answers: 0,
                ttfa: None,
                outcome,
            }
        }
    };
    // The checkpoint's time lands in the op that triggers it, so the
    // spikes show in the tail, not the median.
    if (i + 1).is_multiple_of(CHECKPOINT_EVERY) {
        let open = ctx.tracer.begin("storage.checkpoint");
        let done = s.store.session.checkpoint();
        ctx.tracer.end(open);
        r.latency = t0.elapsed();
        if let (Err(e), Ok(())) = (done, &r.outcome) {
            r.outcome = Err(format!("checkpoint: {e}"));
        }
    }
    r
}

/// Preload `rows` rows into a fresh store, index and checkpoint it.
/// Shared with `net_mix`.
pub fn preload(client: &StorageClient, rel: &PersistentRelation, rows: usize) -> Model {
    rel.make_index(IndexSpec::Args(vec![0])).expect("key index");
    let mut model = Model::default();
    for k in 0..rows as i64 {
        rel.insert(row(k)).expect("preload insert");
        model.insert(k);
    }
    client.checkpoint().expect("checkpoint");
    model
}

fn buffer_layers(ctx: &mut Ctx, now: BufferStats, then: BufferStats, ops: f64) {
    let d = |a: u64, b: u64| (a - b) as f64;
    let (hits, misses) = (d(now.hits, then.hits), d(now.misses, then.misses));
    ctx.layer("storage.buffer.hits", hits / ops);
    ctx.layer("storage.buffer.misses", misses / ops);
    ctx.layer("storage.buffer.hit_ratio", ratio(hits, hits + misses));
    ctx.layer(
        "storage.buffer.evictions",
        d(now.evictions, then.evictions) / ops,
    );
    ctx.layer(
        "storage.buffer.page_reads",
        d(now.page_reads, then.page_reads) / ops,
    );
    ctx.layer(
        "storage.buffer.page_writes",
        d(now.page_writes, then.page_writes) / ops,
    );
}

fn tx_layers(ctx: &mut Ctx, now: TxStats, then: TxStats, ops: f64) {
    let d = |a: u64, b: u64| (a - b) as f64 / ops;
    ctx.layer("storage.tx.committed", d(now.committed, then.committed));
    ctx.layer("storage.tx.aborted", d(now.aborted, then.aborted));
    ctx.layer("storage.tx.conflicts", d(now.conflicts, then.conflicts));
    ctx.layer("storage.tx.wounds", d(now.wounds, then.wounds));
    ctx.layer(
        "storage.tx.group_commits",
        d(now.group_commits, then.group_commits),
    );
    ctx.layer(
        "storage.tx.group_committed_txns",
        d(now.group_committed_txns, then.group_committed_txns),
    );
}

/// Storage counter metrics over a window of `ops` ops. Shared with
/// `net_mix`.
pub fn storage_layers(
    ctx: &mut Ctx,
    client: &StorageClient,
    then: (BufferStats, TxStats),
    ops: f64,
) {
    buffer_layers(ctx, client.stats(), then.0, ops);
    tx_layers(ctx, client.tx_stats(), then.1, ops);
}

/// Bytes on disk under `dir` per live row.
pub fn file_bytes_per_row(dir: &Path, rows: usize) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    ratio(bytes as f64, rows as f64)
}

/// Direct calls on the workload's own store: `PersistentRelation`
/// lookup and insert, and a scratch `BTree` in the same pool.
fn probe_store(ctx: &mut Ctx, store: &Store, model: &Model, rng: &mut TestRng) {
    let open = ctx.tracer.begin("probe.store");
    let before = store.client.stats();
    let mut lookups = Vec::new();
    for _ in 0..200 {
        let k = model.skewed_key(rng);
        let open = ctx.tracer.begin("rel.persistent.lookup");
        let t0 = Instant::now();
        let found = store.rel.lookup(&[Term::int(k), Term::var(0)]).count();
        lookups.push(us(t0.elapsed()));
        ctx.tracer.end(open);
        assert_eq!(found, 1, "probe lookup of a live key");
    }
    let after = store.client.stats();
    ctx.layer("rel.persistent.lookup_us", median(&lookups));
    ctx.layer(
        "storage.btree.pages_per_lookup",
        ((after.hits + after.misses) - (before.hits + before.misses)) as f64 / 200.0,
    );

    let mut inserts = Vec::new();
    for k in 0..20 {
        let t = row(-1 - k);
        let open = ctx.tracer.begin("rel.persistent.insert");
        let t0 = Instant::now();
        store.rel.insert(t).expect("probe insert");
        inserts.push(us(t0.elapsed()));
        ctx.tracer.end(open);
    }
    ctx.layer("rel.persistent.insert_us", median(&inserts));

    let tree = store.client.btree("e2e_probe.idx").expect("scratch btree");
    let key = |i: u32| (i.wrapping_mul(2_654_435_761)).to_be_bytes();
    let (mut ins, mut has) = (Vec::new(), Vec::new());
    for i in 0..500 {
        let open = ctx.tracer.begin("storage.btree.insert");
        let t0 = Instant::now();
        tree.insert(&key(i)).expect("btree insert");
        ins.push(us(t0.elapsed()));
        ctx.tracer.end(open);
    }
    for i in 0..500 {
        let open = ctx.tracer.begin("storage.btree.contains");
        let t0 = Instant::now();
        assert!(tree.contains(&key(i)).expect("btree contains"));
        has.push(us(t0.elapsed()));
        ctx.tracer.end(open);
    }
    ctx.layer("storage.btree.insert_us", median(&ins));
    ctx.layer("storage.btree.contains_us", median(&has));
    ctx.tracer.end(open);
}

/// What a finished round leaves for the traced run's probes.
struct Round {
    /// The round's store, reopened from disk.
    store: Store,
    dir: PathBuf,
    model: Model,
    rng: TestRng,
    asked: Vec<String>,
    wal_growth: u64,
    commits: u64,
    counters: BTreeMap<String, f64>,
}

/// One round: a fresh preloaded store (a `setup_s` sample), `count` ops
/// from the same seeded stream as every other round, then the final
/// contents against the model, from memory and again from disk.
fn round(ctx: &mut Ctx, ops: &mut Ops, rows: usize, count: usize) -> Round {
    let mut setup = ctx.setup_once(|ctx| {
        let dir = ctx.fresh_dir("persistent_mix");
        let store = open(&dir);
        let model = preload(&store.client, &store.rel, rows);
        Setup {
            store,
            dir,
            model,
            rng: ctx.rng(1),
            pending: Vec::new(),
            next_key: rows as i64,
            asked: Vec::new(),
            wal_growth: 0,
            commits: 0,
        }
    });

    let before = Counters::read();
    let storage_before = (setup.store.client.stats(), setup.store.client.tx_stats());
    ctx.round(ops, count, RSS_ROUNDS * count, |ctx, i| {
        op(ctx, &mut setup, i)
    });
    if ctx.trace {
        storage_layers(ctx, &setup.store.client, storage_before, count as f64);
    }
    let counters = Counters::read().since(&before);

    ctx.oracle_ran("hashmap_model");
    if let Err(e) =
        all_rows(&setup.store.session).and_then(|r| setup.model.matches(&r, "final scan"))
    {
        ops.fail(e);
    }
    let Setup {
        store,
        dir,
        model,
        rng,
        asked,
        wal_growth,
        commits,
        ..
    } = setup;
    drop(store);
    let store = open(&dir);
    ctx.oracle_ran("cold_reopen");
    if let Err(e) = all_rows(&store.session).and_then(|r| model.matches(&r, "after reopen")) {
        ops.fail(e);
    }
    Round {
        store,
        dir,
        model,
        rng,
        asked,
        wal_growth,
        commits,
        counters,
    }
}

pub fn run(ctx: &mut Ctx) -> Ops {
    let rows = if ctx.smoke { 60 } else { 800 };
    let count = if ctx.smoke { 40 } else { ROUND_OPS };
    ctx.size("preloaded_rows", rows as u64);
    ctx.size("frames", FRAMES as u64);
    ctx.size("ops_per_round", count as u64);

    // Every write makes the store slower (point reads by 40 % over one
    // 17 s window), so ops until the window closes would be a different
    // workload on a faster engine and no two stretches of a run would
    // compare. Rounds on a fresh store do.
    let window = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    let mut ops = Ops::default();
    let mut last = None;
    while last.is_none() || t0.elapsed() < window {
        drop(last.take());
        last = Some(round(ctx, &mut ops, rows, count));
    }
    if !ctx.trace {
        return ops;
    }

    // Per-layer numbers are the last round's.
    let Round {
        store,
        dir,
        model,
        mut rng,
        asked,
        wal_growth,
        commits,
        counters,
    } = last.expect("at least one round");
    layers::engine_layers(ctx, &counters, &ProfileSums::default(), count as f64);
    let answers = ratio(
        ops.answers.iter().sum::<u64>() as f64,
        ops.answers.len() as f64,
    );
    layers::session_layers(ctx, answers);
    for (metric, span, scale) in [
        ("storage.wal.commit_us", "storage.wal.commit", 1e3),
        ("storage.checkpoint_ms", "storage.checkpoint", 1.0),
    ] {
        let v = ctx.tracer.median_ms(span) * scale;
        ctx.layer(metric, v);
    }
    ctx.layer(
        "storage.wal.bytes_per_row",
        ratio(wal_growth as f64, commits as f64),
    );
    store.session.checkpoint().expect("checkpoint");
    ctx.layer(
        "storage.file_bytes_per_row",
        file_bytes_per_row(&dir, model.rows.len()),
    );
    let facts: String = (0..rows as i64)
        .map(|k| format!("acct({k}, {}).\n", acct_value(k)))
        .collect();
    layers::probe_front_end(ctx, &facts, "", &asked);
    probe_store(ctx, &store, &model, &mut rng);
    ops
}
