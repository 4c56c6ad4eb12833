//! Persistent relations over the storage server (§3.2).
//!
//! "CORAL uses the EXODUS storage manager to support persistent
//! relations … If a requested tuple is not in the client buffer pool, a
//! request is forwarded to the EXODUS server and the page with the
//! requested tuple is retrieved." Here the tuples live in a heap file,
//! exact-key secondary indices live in B+-trees (§3.3), and every access
//! goes through the buffer pool of `coral-storage`, whose statistics make
//! the paging behaviour observable.
//!
//! As in the paper, "tuples in a persistent relation are restricted to
//! have fields of primitive types only" — non-primitive fields are
//! rejected at insert with [`RelError::NonPrimitive`]. Set semantics are
//! enforced through a primary B+-tree over the full tuple encoding.
//!
//! A small schema record (arity + index column lists) is stored in its
//! own heap file so a relation reopens with the same shape it was created
//! with.

use crate::encoding::{encode_cols, encode_tuple};
use crate::error::{RelError, RelResult};
use crate::relation::{IndexSpec, Relation, TupleIter};
use coral_storage::{BTree, HeapFile, PageId, RecordId, SnapshotGuard, StorageClient, View};
use coral_term::{unifies_with, Term, Tuple};
use std::cell::{Cell, RefCell};
use std::sync::{Arc, RwLock};

fn rid_bytes(rid: RecordId) -> [u8; 10] {
    let mut b = [0u8; 10];
    b[0..8].copy_from_slice(&rid.page.0.to_be_bytes());
    b[8..10].copy_from_slice(&rid.slot.to_be_bytes());
    b
}

fn rid_from_bytes(b: &[u8]) -> RelResult<RecordId> {
    if b.len() != 10 {
        return Err(RelError::Decode(
            "bad record-id suffix in index item".into(),
        ));
    }
    Ok(RecordId {
        page: PageId(u64::from_be_bytes(b[0..8].try_into().unwrap())),
        slot: u16::from_be_bytes(b[8..10].try_into().unwrap()),
    })
}

struct SecondaryIndex {
    cols: Vec<usize>,
    tree: BTree,
}

/// A disk-resident relation: heap file + primary B+-tree + secondary
/// B+-tree indices.
pub struct PersistentRelation {
    name: String,
    arity: usize,
    server: StorageClient,
    heap: HeapFile,
    /// Unique index over the full tuple encoding (duplicate checks).
    primary: BTree,
    indices: RefCell<Vec<SecondaryIndex>>,
    schema: HeapFile,
    /// Planner statistics (see coral-stats), persisted in their own
    /// catalog heap file (`<name>.stats`) so they survive reopen. The
    /// on-disk record is authoritative: every handle re-reads it under
    /// the relation lock before updating, so concurrent sessions
    /// compose instead of clobbering each other.
    stats_file: HeapFile,
    /// Where the statistics record's chunks live, in sequence order.
    /// Found by one scan at open; writes then update the chunks in
    /// place. Only a hint: a read that finds the chunks elsewhere
    /// (another handle moved, added or dropped one) scans again.
    stats_rids: RefCell<Vec<RecordId>>,
    /// Relation-wide readers-writer lock shared (via the storage
    /// server's registry) by every handle open on this relation name,
    /// across threads and sessions. The buffer pool only locks per
    /// page, while insert/delete/make_index are multi-page
    /// read-copy-modify-write sequences over heap + B+-trees; holding
    /// the write side across each mutation keeps concurrent server
    /// sessions from interleaving mid-split and corrupting the tree.
    ///
    /// The lock serializes *non-transactional* (Live) mutators of one
    /// relation; *readers* do not take it — they pin a snapshot
    /// instead — and transactional mutators are additionally
    /// serialized by page write locks (every insert/delete touches the
    /// primary tree's meta page, so two transactions mutating the same
    /// relation always conflict and one retries).
    lock: Arc<RwLock<()>>,
    /// The transaction this handle's operations run in (`None` = live /
    /// autonomous). Set by the session layer around each request.
    txn: Cell<Option<u64>>,
    /// The schema generation (see `StorageServer::bump_schema_epoch`)
    /// this handle last loaded its index list at, or [`RESYNC`]. Another
    /// session creating an index advances the server-side epoch; on a
    /// mismatch the handle re-reads the schema before using (or worse,
    /// not updating) its cached index list.
    schema_seen: Cell<u64>,
}

/// Sentinel for `schema_seen`: the cached index list may not reflect the
/// committed schema, so the next operation must re-read it regardless of
/// the epoch counter. Set whenever the list was loaded through a
/// transaction's view — the record read there may be the transaction's
/// own uncommitted write, which an abort would revert while the epoch
/// stays bumped.
const RESYNC: u64 = u64::MAX;

/// Restores a relation's handle views when a scoped snapshot read ends.
struct ViewScope<'a> {
    rel: &'a PersistentRelation,
}

impl Drop for ViewScope<'_> {
    fn drop(&mut self) {
        self.rel.apply_view(self.rel.base_view());
    }
}

impl PersistentRelation {
    /// Open (creating if necessary) the named persistent relation.
    ///
    /// If the relation exists, its stored schema must agree on `arity`;
    /// previously created indices are reattached.
    pub fn open(server: &StorageClient, name: &str, arity: usize) -> RelResult<PersistentRelation> {
        let lock = server.named_lock(name);
        // Exclusive while opening: B+-tree meta-page initialization and
        // the first schema write are themselves multi-page mutations, so
        // two sessions opening a brand-new relation must not interleave.
        let guard = lock.write().unwrap();
        let heap = server.heap(&format!("{name}.data"))?;
        let primary = server.btree(&format!("{name}.pk"))?;
        let schema = server.heap(&format!("{name}.schema"))?;
        let stats_file = server.heap(&format!("{name}.stats"))?;
        let rel = PersistentRelation {
            name: name.to_string(),
            arity,
            server: server.clone(),
            heap,
            primary,
            indices: RefCell::new(Vec::new()),
            schema,
            stats_file,
            stats_rids: RefCell::new(Vec::new()),
            lock: Arc::clone(&lock),
            txn: Cell::new(None),
            schema_seen: Cell::new(0),
        };
        // Load or initialize the schema record.
        let existing: Vec<(RecordId, Vec<u8>)> = rel.schema.scan().collect::<Result<_, _>>()?;
        match existing.first() {
            Some((_, bytes)) => {
                let (stored_arity, col_lists, gen) = decode_schema(bytes)?;
                if stored_arity != arity {
                    return Err(RelError::Arity {
                        expected: stored_arity,
                        got: arity,
                    });
                }
                // The epoch counter is in-memory; after a server restart
                // it must not fall below the persisted generation or
                // later bumps would be invisible to this handle.
                server.seed_schema_epoch(name, gen);
                rel.schema_seen.set(gen);
                let mut indices = rel.indices.borrow_mut();
                for (i, cols) in col_lists.into_iter().enumerate() {
                    let tree = server.btree(&format!("{name}.idx{i}"))?;
                    indices.push(SecondaryIndex { cols, tree });
                }
            }
            None => {
                rel.schema.insert(&encode_schema(arity, &[], 0))?;
            }
        }
        *rel.stats_rids.borrow_mut() = rel.find_stats_rids()?;
        drop(guard);
        Ok(rel)
    }

    /// The relation's catalog name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Run this handle's subsequent operations inside `txn` (`None`
    /// detaches). The session layer brackets each mutating request with
    /// a storage transaction and points every registered persistent
    /// relation at it.
    pub fn set_txn(&self, txn: Option<u64>) {
        self.txn.set(txn);
        self.apply_view(self.base_view());
    }

    /// The transaction this handle is attached to, if any.
    pub fn txn(&self) -> Option<u64> {
        self.txn.get()
    }

    /// The storage server this relation lives on.
    pub fn server(&self) -> &StorageClient {
        &self.server
    }

    /// This relation's mutation epoch (bumped on every applied
    /// insert/delete by any handle; see `StorageServer::bump_epoch`).
    pub fn epoch(&self) -> u64 {
        self.server.epoch(&self.name)
    }

    fn base_view(&self) -> View {
        self.txn.get().map_or(View::Live, View::Txn)
    }

    /// Point every storage handle of this relation at `view`.
    fn apply_view(&self, view: View) {
        self.heap.set_view(view);
        self.primary.set_view(view);
        self.schema.set_view(view);
        self.stats_file.set_view(view);
        for ix in self.indices.borrow().iter() {
            ix.tree.set_view(view);
        }
    }

    /// Begin a lock-free snapshot read: pin the current committed state
    /// and point the handles at it until the scope drops. `None` inside
    /// a transaction, where reads go through the transaction's view.
    fn snapshot_read(&self) -> Option<(Arc<SnapshotGuard>, ViewScope<'_>)> {
        if self.txn.get().is_some() {
            return None;
        }
        let guard = SnapshotGuard::pin(self.server.pool());
        self.apply_view(View::Snapshot(guard.ts()));
        Some((guard, ViewScope { rel: self }))
    }

    /// The stored arity of the named relation in this store, or `None`
    /// if no relation of that name exists. Lets a server enumerate and
    /// reopen existing relations without knowing their schemas up front.
    pub fn stored_arity(server: &StorageClient, name: &str) -> RelResult<Option<usize>> {
        let schema_file = format!("{name}.schema");
        if !server.file_exists(&schema_file) {
            return Ok(None);
        }
        let lock = server.named_lock(name);
        let _read = lock.read().unwrap();
        let schema = server.heap(&schema_file)?;
        match schema.scan().next() {
            Some(rec) => {
                let (_, bytes) = rec?;
                Ok(Some(decode_schema(&bytes)?.0))
            }
            None => Ok(None),
        }
    }

    /// Names of the persistent relations present in a store (derived
    /// from the catalog's `<name>.schema` entries).
    pub fn list(server: &StorageClient) -> Vec<String> {
        server
            .list_files()
            .into_iter()
            .filter_map(|f| f.strip_suffix(".schema").map(str::to_string))
            .collect()
    }

    /// Re-read the index list from the persisted schema if another
    /// handle changed it since this one last looked (the server-side
    /// schema epoch advanced). Without this, a handle opened before an
    /// index existed would keep inserting tuples that never reach the
    /// new index — a silently incomplete index, i.e. wrong (missing)
    /// answers for every indexed lookup afterwards. Mutators call this
    /// under the relation write lock; lock-free MVCC readers call it
    /// unlocked, where a torn schema read (mid-rewrite by a concurrent
    /// `make_index`) is benign: the epoch is left unsynced and the
    /// reader falls back to a full scan.
    fn sync_indices(&self) -> RelResult<()> {
        let actual = self.server.schema_epoch(&self.name);
        let seen = self.schema_seen.get();
        if seen != RESYNC && seen >= actual {
            return Ok(());
        }
        let Some(rec) = self.schema.scan().next() else {
            return Ok(());
        };
        let (_, bytes) = rec?;
        let (_, col_lists, gen) = decode_schema(&bytes)?;
        let view = self.heap.view();
        let mut indices = self.indices.borrow_mut();
        indices.clear();
        for (i, cols) in col_lists.into_iter().enumerate() {
            let tree = self
                .server
                .btree_with_view(&format!("{}.idx{i}", self.name), view)?;
            indices.push(SecondaryIndex { cols, tree });
        }
        drop(indices);
        // Record the generation of the record we could actually *see*,
        // not the epoch counter: under MVCC the visible record may lag
        // the bump (the bumping transaction is still in flight, or
        // aborted), and marking it seen would freeze a stale index list
        // exactly when it is about to change. Inside a transaction the
        // cache is never marked clean at all — see [`RESYNC`].
        self.schema_seen.set(if self.txn.get().is_some() {
            RESYNC
        } else {
            gen
        });
        Ok(())
    }

    fn persist_schema(&self, gen: u64) -> RelResult<()> {
        let col_lists: Vec<Vec<usize>> = self
            .indices
            .borrow()
            .iter()
            .map(|ix| ix.cols.clone())
            .collect();
        // Single-record file: rewrite the record in place.
        let bytes = encode_schema(self.arity, &col_lists, gen);
        match self.schema.scan().next() {
            Some(rec) => self.schema.update(rec?.0, &bytes)?,
            None => self.schema.insert(&bytes)?,
        };
        Ok(())
    }

    fn check_arity(&self, t: &Tuple) -> RelResult<()> {
        if t.arity() != self.arity {
            return Err(RelError::Arity {
                expected: self.arity,
                got: t.arity(),
            });
        }
        Ok(())
    }

    /// Cross-structure integrity check: every live heap record must
    /// decode and be indexed exactly once by the primary tree and each
    /// secondary index, and every index entry must point back at a live
    /// heap record with matching bytes. Complements the per-structure
    /// checks in `coral-storage::check` (which verify tree/page shape);
    /// this verifies the structures agree with each other. Read-only;
    /// returns the violations found (empty = clean).
    pub fn check(&self) -> RelResult<Vec<String>> {
        self.sync_indices()?;
        let _snap = self.snapshot_read();
        let name = &self.name;
        let mut problems = Vec::new();
        let mut heap_count = 0u64;
        for rec in self.heap.scan() {
            let (rid, bytes) = rec?;
            heap_count += 1;
            let tuple = match crate::encoding::decode_tuple(&bytes) {
                Ok(t) => t,
                Err(e) => {
                    problems.push(format!("{name}: heap record {rid:?} does not decode: {e}"));
                    continue;
                }
            };
            let mut item = bytes.clone();
            item.extend_from_slice(&rid_bytes(rid));
            if !self.primary.contains(&item)? {
                problems.push(format!(
                    "{name}: heap record {rid:?} missing from primary index"
                ));
            }
            for (i, ix) in self.indices.borrow().iter().enumerate() {
                let mut key = encode_cols(&tuple, &ix.cols)?;
                key.extend_from_slice(&rid_bytes(rid));
                if !ix.tree.contains(&key)? {
                    problems.push(format!(
                        "{name}: heap record {rid:?} missing from secondary index {i}"
                    ));
                }
            }
        }
        let mut pk_count = 0u64;
        for item in self.primary.scan_all()? {
            let item = item?;
            pk_count += 1;
            if item.len() < 10 {
                problems.push(format!("{name}: primary entry shorter than a record id"));
                continue;
            }
            let rid = match rid_from_bytes(&item[item.len() - 10..]) {
                Ok(rid) => rid,
                Err(e) => {
                    problems.push(format!("{name}: primary entry has a bad record id: {e}"));
                    continue;
                }
            };
            match self.heap.get(rid) {
                Ok(bytes) if bytes == item[..item.len() - 10] => {}
                Ok(_) => problems.push(format!(
                    "{name}: primary entry for {rid:?} disagrees with heap bytes"
                )),
                Err(_) => problems.push(format!(
                    "{name}: primary entry points at dead heap record {rid:?}"
                )),
            }
        }
        if pk_count != heap_count {
            problems.push(format!(
                "{name}: primary index has {pk_count} entries but heap has {heap_count} records"
            ));
        }
        for (i, ix) in self.indices.borrow().iter().enumerate() {
            let n = ix.tree.len()?;
            if n != heap_count {
                problems.push(format!(
                    "{name}: secondary index {i} has {n} entries but heap has {heap_count} records"
                ));
            }
        }
        Ok(problems)
    }

    /// The statistics record's chunks in sequence order. Each chunk
    /// carries a 2-byte sequence prefix because an encoded
    /// [`coral_stats::RelStats`] can exceed one heap page and heap scan
    /// order is not insertion order.
    fn find_stats_rids(&self) -> RelResult<Vec<RecordId>> {
        let mut parts: Vec<(u16, RecordId)> = Vec::new();
        for rec in self.stats_file.scan() {
            let (rid, bytes) = rec?;
            let seq = bytes
                .get(0..2)
                .map_or(u16::MAX, |b| u16::from_be_bytes(b.try_into().unwrap()));
            parts.push((seq, rid));
        }
        parts.sort_unstable();
        Ok(parts.into_iter().map(|(_, rid)| rid).collect())
    }

    /// The statistics held by the chunks at `rids`, or `None` unless
    /// they are the record's chunks, in order, and decode.
    fn read_stats_at(&self, rids: &[RecordId]) -> Option<coral_stats::RelStats> {
        let mut joined = Vec::new();
        for (seq, &rid) in rids.iter().enumerate() {
            let bytes = self.stats_file.get(rid).ok()?;
            if bytes.get(0..2) != Some(&(seq as u16).to_be_bytes()[..]) {
                return None;
            }
            joined.extend_from_slice(&bytes[2..]);
        }
        coral_stats::RelStats::decode(&joined).filter(|s| s.arity() == self.arity)
    }

    /// Reassemble the persisted statistics record through the cached
    /// chunk ids, scanning for them again only when they are stale.
    /// Missing or undecodable stats yield a fresh zero state. Caller
    /// holds the relation lock or reads a snapshot.
    fn load_stats_locked(&self) -> coral_stats::RelStats {
        let cached = self.read_stats_at(&self.stats_rids.borrow());
        cached
            .or_else(|| {
                let rids = self.find_stats_rids().ok()?;
                let found = self.read_stats_at(&rids);
                *self.stats_rids.borrow_mut() = rids;
                found
            })
            .unwrap_or_else(|| coral_stats::RelStats::new(self.arity))
    }

    /// Load, change and rewrite the persisted statistics record. Each
    /// chunk is updated in place (see [`HeapFile::update`]); chunks the
    /// new encoding no longer needs are deleted. Caller holds the
    /// relation write lock.
    fn update_stats_locked(&self, f: impl FnOnce(&mut coral_stats::RelStats)) -> RelResult<()> {
        let mut s = self.load_stats_locked();
        f(&mut s);
        // Leave headroom under the 4 KiB page for slot bookkeeping.
        const CHUNK: usize = 3000;
        let bytes = s.encode();
        let mut rids = self.stats_rids.borrow_mut();
        for (seq, chunk) in bytes.chunks(CHUNK).enumerate() {
            let mut rec = Vec::with_capacity(chunk.len() + 2);
            rec.extend_from_slice(&(seq as u16).to_be_bytes());
            rec.extend_from_slice(chunk);
            match rids.get(seq) {
                Some(&rid) => rids[seq] = self.stats_file.update(rid, &rec)?,
                None => rids.push(self.stats_file.insert(&rec)?),
            }
        }
        for rid in rids.split_off(bytes.chunks(CHUNK).len()) {
            self.stats_file.delete(rid)?;
        }
        Ok(())
    }

    /// Locate a tuple's record id through the primary index.
    fn find_rid(&self, encoded: &[u8]) -> RelResult<Option<RecordId>> {
        let mut scan = self.primary.scan_prefix(encoded)?;
        match scan.next() {
            Some(item) => {
                let item = item?;
                Ok(Some(rid_from_bytes(&item[encoded.len()..])?))
            }
            None => Ok(None),
        }
    }
}

fn encode_schema(arity: usize, col_lists: &[Vec<usize>], gen: u64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(arity as u16).to_be_bytes());
    out.extend_from_slice(&(col_lists.len() as u16).to_be_bytes());
    for cols in col_lists {
        out.extend_from_slice(&(cols.len() as u16).to_be_bytes());
        for &c in cols {
            out.extend_from_slice(&(c as u16).to_be_bytes());
        }
    }
    out.extend_from_slice(&gen.to_be_bytes());
    out
}

fn decode_schema(bytes: &[u8]) -> RelResult<(usize, Vec<Vec<usize>>, u64)> {
    let rd = |i: usize| -> RelResult<u16> {
        bytes
            .get(i..i + 2)
            .map(|b| u16::from_be_bytes(b.try_into().unwrap()))
            .ok_or_else(|| RelError::Decode("truncated schema record".into()))
    };
    let arity = rd(0)? as usize;
    let n = rd(2)? as usize;
    let mut lists = Vec::with_capacity(n);
    let mut off = 4;
    for _ in 0..n {
        let k = rd(off)? as usize;
        off += 2;
        let mut cols = Vec::with_capacity(k);
        for _ in 0..k {
            cols.push(rd(off)? as usize);
            off += 2;
        }
        lists.push(cols);
    }
    // Trailing schema generation; records written before generations
    // existed simply end here and read as generation 0.
    let gen = bytes
        .get(off..off + 8)
        .map(|b| u64::from_be_bytes(b.try_into().unwrap()))
        .unwrap_or(0);
    Ok((arity, lists, gen))
}

impl Relation for PersistentRelation {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn len(&self) -> usize {
        let _snap = self.snapshot_read();
        self.primary.len().map(|n| n as usize).unwrap_or(0)
    }

    fn insert(&self, tuple: Tuple) -> RelResult<bool> {
        self.check_arity(&tuple)?;
        let encoded = encode_tuple(&tuple)?; // rejects non-primitives
        let _write = self.lock.write().unwrap();
        self.sync_indices()?;
        if self.find_rid(&encoded)?.is_some() {
            return Ok(false);
        }
        let rid = self.heap.insert(&encoded)?;
        let mut item = encoded;
        item.extend_from_slice(&rid_bytes(rid));
        self.primary.insert(&item)?;
        for ix in self.indices.borrow().iter() {
            let mut key = encode_cols(&tuple, &ix.cols)?;
            key.extend_from_slice(&rid_bytes(rid));
            ix.tree.insert(&key)?;
        }
        self.update_stats_locked(|s| s.on_insert(tuple.args()))?;
        self.server.bump_epoch(&self.name);
        crate::meter::add_tuples(1);
        Ok(true)
    }

    fn delete(&self, tuple: &Tuple) -> RelResult<bool> {
        self.check_arity(tuple)?;
        let encoded = encode_tuple(tuple)?;
        let _write = self.lock.write().unwrap();
        self.sync_indices()?;
        let Some(rid) = self.find_rid(&encoded)? else {
            return Ok(false);
        };
        self.heap.delete(rid)?;
        let mut item = encoded;
        item.extend_from_slice(&rid_bytes(rid));
        self.primary.delete(&item)?;
        for ix in self.indices.borrow().iter() {
            let mut key = encode_cols(tuple, &ix.cols)?;
            key.extend_from_slice(&rid_bytes(rid));
            ix.tree.delete(&key)?;
        }
        self.update_stats_locked(|s| s.on_delete(tuple.args()))?;
        self.server.bump_epoch(&self.name);
        crate::meter::add_deleted(1);
        Ok(true)
    }

    fn scan(&self) -> TupleIter {
        // Pin a snapshot and hand it to the lazy scan so it reads a
        // stable commit point without blocking writers.
        let scan = match self.snapshot_read() {
            Some((guard, _scope)) => {
                let view = View::Snapshot(guard.ts());
                self.heap.scan_with(view, Some(guard))
            }
            None => self.heap.scan(),
        };
        Box::new(scan.map(|r| match r {
            Ok((_, bytes)) => crate::encoding::decode_tuple(&bytes),
            Err(e) => Err(e.into()),
        }))
    }

    fn lookup(&self, pattern: &[Term]) -> TupleIter {
        // No lock: the descent reads a pinned snapshot, and the indexed
        // path materialises before the view scope drops.
        if let Err(e) = self.sync_indices() {
            return Box::new(std::iter::once(Err(e)));
        }
        let snap = self.snapshot_read();
        // Choose the secondary index with the most columns bound to
        // ground primitives by the pattern; else fall back to a filtered
        // heap scan.
        let indices = self.indices.borrow();
        let mut best: Option<(usize, Vec<u8>)> = None;
        for (i, ix) in indices.iter().enumerate() {
            if ix.cols.iter().all(|&c| pattern[c].is_ground()) {
                let probe = Tuple::new(pattern.to_vec());
                if let Ok(key) = encode_cols(&probe, &ix.cols) {
                    let better = match &best {
                        None => true,
                        Some((b, _)) => ix.cols.len() > indices[*b].cols.len(),
                    };
                    if better {
                        best = Some((i, key));
                    }
                }
            }
        }
        match best {
            Some((i, key)) => {
                let tree_scan = match indices[i].tree.scan_prefix(&key) {
                    Ok(s) => s,
                    Err(e) => return Box::new(std::iter::once(Err(e.into()))),
                };
                let heap_rids: Vec<RelResult<RecordId>> = tree_scan
                    .map(|item| {
                        let item = item?;
                        rid_from_bytes(&item[item.len() - 10..])
                    })
                    .collect();
                let mut out: Vec<RelResult<Tuple>> = Vec::with_capacity(heap_rids.len());
                for rid in heap_rids {
                    match rid {
                        Ok(rid) => match self.heap.get(rid) {
                            Ok(bytes) => out.push(crate::encoding::decode_tuple(&bytes)),
                            Err(e) => out.push(Err(e.into())),
                        },
                        Err(e) => out.push(Err(e)),
                    }
                }
                Box::new(out.into_iter())
            }
            None => {
                let pattern = pattern.to_vec();
                // The lazy fallback scan outlives this call, so it carries
                // its own snapshot pin, or the transaction's view.
                let scan = match &snap {
                    Some((guard, _)) => self
                        .heap
                        .scan_with(View::Snapshot(guard.ts()), Some(Arc::clone(guard))),
                    None => self.heap.scan(),
                };
                Box::new(scan.filter_map(move |r| match r {
                    Ok((_, bytes)) => match crate::encoding::decode_tuple(&bytes) {
                        Ok(t) => unifies_with(&pattern, &t).then_some(Ok(t)),
                        Err(e) => Some(Err(e)),
                    },
                    Err(e) => Some(Err(e.into())),
                }))
            }
        }
    }

    fn make_index(&self, spec: IndexSpec) -> RelResult<()> {
        let cols = match spec {
            IndexSpec::Args(cols) => cols,
            IndexSpec::Pattern { .. } => {
                return Err(RelError::BadIndex(
                    "persistent relations hold primitive fields only; pattern indices apply to in-memory relations".into(),
                ))
            }
        };
        if cols.is_empty() || cols.iter().any(|&c| c >= self.arity) {
            return Err(RelError::BadIndex(format!(
                "bad column list {cols:?} for arity {}",
                self.arity
            )));
        }
        let _write = self.lock.write().unwrap();
        self.sync_indices()?;
        // Idempotent: an index over these columns already exists (often
        // another session auto-indexed first). Creating a duplicate
        // would double every write and bloat the catalog.
        if self.indices.borrow().iter().any(|ix| ix.cols == cols) {
            return Ok(());
        }
        // Touch the stats record before scanning: every transactional
        // insert/delete writes it too, so a concurrent mutator's
        // transaction and this build always write-conflict and one of
        // them retries. Without the touch the pair can write-skew — a
        // mutation invisible to the retrofit scan below (uncommitted, or
        // committed onto a page the scan never read) commits anyway and
        // leaves the new index silently out of step with the heap.
        self.update_stats_locked(|_| {})?;
        let ordinal = self.indices.borrow().len();
        // The view must be in force for the *creation*: a brand-new
        // tree's meta initialization is a write, and inside a
        // transaction it has to belong to that transaction.
        let tree = self
            .server
            .btree_with_view(&format!("{}.idx{ordinal}", self.name), self.base_view())?;
        // Retrofit over existing tuples.
        for rec in self.heap.scan() {
            let (rid, bytes) = rec?;
            let tuple = crate::encoding::decode_tuple(&bytes)?;
            let mut key = encode_cols(&tuple, &cols)?;
            key.extend_from_slice(&rid_bytes(rid));
            tree.insert(&key)?;
        }
        self.indices
            .borrow_mut()
            .push(SecondaryIndex { cols, tree });
        let gen = self.server.bump_schema_epoch(&self.name);
        self.persist_schema(gen)?;
        // Inside a transaction the new list must not be cached: an abort
        // reverts the persisted schema but not this handle's RefCell, and
        // a "clean" cache would then route writes into a phantom index.
        self.schema_seen.set(if self.txn.get().is_some() {
            RESYNC
        } else {
            gen
        });
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "persistent relation {:?}, arity {}, {} tuples, {} secondary indices",
            self.name,
            self.arity,
            self.len(),
            self.indices.borrow().len()
        )
    }

    fn stats(&self) -> Option<coral_stats::RelStats> {
        let _snap = self.snapshot_read();
        Some(self.load_stats_locked())
    }

    fn analyze(&self) -> RelResult<()> {
        let _write = self.lock.write().unwrap();
        let mut fresh = coral_stats::RelStats::new(self.arity);
        for rec in self.heap.scan() {
            let (_, bytes) = rec?;
            let tuple = crate::encoding::decode_tuple(&bytes)?;
            fresh.on_insert(tuple.args());
        }
        self.update_stats_locked(|s| *s = fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_storage::{StorageError, StorageServer};
    use std::path::PathBuf;
    use std::time::Duration;

    fn server(name: &str) -> StorageClient {
        let d: PathBuf = std::env::temp_dir().join(format!(
            "coral-persistent-test-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        StorageServer::open(&d, 64).unwrap()
    }

    fn flight(from: &str, to: &str, cost: i64) -> Tuple {
        Tuple::ground(vec![Term::str(from), Term::str(to), Term::int(cost)])
    }

    #[test]
    fn insert_scan_dedup() {
        let srv = server("basic");
        let r = PersistentRelation::open(&srv, "flights", 3).unwrap();
        assert!(r.insert(flight("msn", "ord", 120)).unwrap());
        assert!(r.insert(flight("ord", "jfk", 250)).unwrap());
        assert!(!r.insert(flight("msn", "ord", 120)).unwrap(), "duplicate");
        assert_eq!(r.len(), 2);
        let mut all: Vec<Tuple> = r.scan().map(|x| x.unwrap()).collect();
        all.sort_by(|a, b| a.args()[0].order_cmp(&b.args()[0]));
        assert_eq!(
            all,
            vec![flight("msn", "ord", 120), flight("ord", "jfk", 250)]
        );
    }

    #[test]
    fn delete_fires_stats_and_meter_symmetrically() {
        let srv = server("delete-symmetry");
        let r = PersistentRelation::open(&srv, "flights", 3).unwrap();
        r.insert(flight("msn", "ord", 120)).unwrap();
        r.insert(flight("ord", "jfk", 250)).unwrap();
        assert_eq!(r.stats().unwrap().cardinality(), 2);
        let del = crate::meter::tuples_deleted();
        assert!(r.delete(&flight("msn", "ord", 120)).unwrap());
        assert_eq!(
            r.stats().unwrap().cardinality(),
            1,
            "persisted stats on_delete mirrors on_insert"
        );
        assert_eq!(crate::meter::tuples_deleted() - del, 1);
        assert!(!r.delete(&flight("msn", "ord", 120)).unwrap(), "miss");
        assert_eq!(r.stats().unwrap().cardinality(), 1);
        assert_eq!(crate::meter::tuples_deleted() - del, 1);
    }

    #[test]
    fn indexed_lookup_and_fallback() {
        let srv = server("lookup");
        let r = PersistentRelation::open(&srv, "flights", 3).unwrap();
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        for i in 0..200i64 {
            r.insert(flight(&format!("c{}", i % 10), &format!("c{}", i % 7), i))
                .unwrap();
        }
        let hits: Vec<Tuple> = r
            .lookup(&[Term::str("c3"), Term::var(0), Term::var(1)])
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(hits.len(), 20);
        assert!(hits.iter().all(|t| t.args()[0] == Term::str("c3")));
        // Unindexed column: falls back to a filtered scan.
        let hits2 = r
            .lookup(&[Term::var(0), Term::str("c2"), Term::var(1)])
            .count();
        assert!(hits2 > 0);
    }

    #[test]
    fn delete_updates_indices() {
        let srv = server("delete");
        let r = PersistentRelation::open(&srv, "f", 3).unwrap();
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        r.insert(flight("a", "b", 1)).unwrap();
        r.insert(flight("a", "c", 2)).unwrap();
        assert!(r.delete(&flight("a", "b", 1)).unwrap());
        assert!(!r.delete(&flight("a", "b", 1)).unwrap());
        let hits = r
            .lookup(&[Term::str("a"), Term::var(0), Term::var(1)])
            .count();
        assert_eq!(hits, 1);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reopen_restores_schema_and_data() {
        let d: PathBuf = std::env::temp_dir().join(format!(
            "coral-persistent-test-{}-reopen",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        {
            let srv = StorageServer::open(&d, 32).unwrap();
            let r = PersistentRelation::open(&srv, "f", 3).unwrap();
            r.make_index(IndexSpec::Args(vec![1])).unwrap();
            r.insert(flight("a", "b", 1)).unwrap();
            srv.checkpoint().unwrap();
        }
        {
            let srv = StorageServer::open(&d, 32).unwrap();
            let r = PersistentRelation::open(&srv, "f", 3).unwrap();
            assert_eq!(r.len(), 1);
            // Index on column 1 survived: lookup uses it.
            let hits = r
                .lookup(&[Term::var(0), Term::str("b"), Term::var(1)])
                .count();
            assert_eq!(hits, 1);
            // Arity mismatch on reopen is rejected.
            assert!(PersistentRelation::open(&srv, "f", 2).is_err());
        }
    }

    #[test]
    fn stats_maintained_and_survive_reopen() {
        let d: PathBuf = std::env::temp_dir().join(format!(
            "coral-persistent-test-{}-stats",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        {
            let srv = StorageServer::open(&d, 32).unwrap();
            let r = PersistentRelation::open(&srv, "f", 3).unwrap();
            for i in 0..30i64 {
                r.insert(flight(&format!("c{}", i % 5), &format!("d{i}"), i))
                    .unwrap();
            }
            let s = Relation::stats(&r).unwrap();
            assert_eq!(s.cardinality(), 30);
            assert_eq!(s.distinct(0), 5);
            assert_eq!(s.distinct(1), 30);
            r.delete(&flight("c0", "d0", 0)).unwrap();
            assert_eq!(Relation::stats(&r).unwrap().cardinality(), 29);
            srv.checkpoint().unwrap();
        }
        {
            let srv = StorageServer::open(&d, 32).unwrap();
            let r = PersistentRelation::open(&srv, "f", 3).unwrap();
            let s = Relation::stats(&r).unwrap();
            assert_eq!(s.cardinality(), 29, "stats survive reopen");
            assert_eq!(s.distinct(0), 5);
            // ANALYZE rebuilds the same values from a full scan.
            Relation::analyze(&r).unwrap();
            let s2 = Relation::stats(&r).unwrap();
            assert_eq!(s2.cardinality(), 29);
            assert_eq!(s2.distinct(1), 29);
        }
    }

    /// Up to 64 distinct values per column keep every column exact, so
    /// the encoded statistics of an arity-3 relation outgrow one chunk;
    /// past that every column drops to a sketch and the record shrinks to
    /// one chunk again. Two handles write in turn, and each must follow
    /// the layout the other left.
    #[test]
    fn stats_chunks_follow_another_handles_layout() {
        let srv = server("stats-chunks");
        let a = PersistentRelation::open(&srv, "f", 3).unwrap();
        let b = PersistentRelation::open(&srv, "f", 3).unwrap();
        let t = |i: i64| Tuple::ground(vec![Term::int(i), Term::int(i), Term::int(i)]);
        for i in 0..60 {
            a.insert(t(i)).unwrap();
        }
        assert_eq!(a.stats_rids.borrow().len(), 2, "two chunks");
        b.insert(t(60)).unwrap();
        assert_eq!(a.stats().unwrap().cardinality(), 61);
        for i in 61..70 {
            b.insert(t(i)).unwrap();
        }
        assert_eq!(b.stats_rids.borrow().len(), 1, "sketches fit one chunk");
        a.insert(t(70)).unwrap();
        assert_eq!(a.stats_rids.borrow().len(), 1);
        assert_eq!(b.stats().unwrap().cardinality(), 71);
        assert_eq!(a.stats_file.scan().count(), 1, "no stale chunk left");
        assert!(a.check().unwrap().is_empty());
    }

    #[test]
    fn non_primitive_fields_rejected() {
        let srv = server("nonprim");
        let r = PersistentRelation::open(&srv, "f", 1).unwrap();
        assert!(matches!(
            r.insert(Tuple::new(vec![Term::apps("f", vec![Term::int(1)])])),
            Err(RelError::NonPrimitive(_))
        ));
        assert!(matches!(
            r.insert(Tuple::new(vec![Term::var(0)])),
            Err(RelError::NonPrimitive(_))
        ));
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn pattern_index_rejected() {
        let srv = server("patidx");
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        assert!(r
            .make_index(IndexSpec::Pattern {
                pattern: vec![Term::var(0), Term::var(1)],
                key_vars: vec![coral_term::VarId(0)],
            })
            .is_err());
    }

    /// Many threads hammering ONE relation through their own handles —
    /// the shape of concurrent server sessions writing the same
    /// persistent relation. Without the relation-wide write lock the
    /// interleaved B+-tree splits lose tuples or corrupt the tree.
    #[test]
    fn high_contention_same_relation_inserts() {
        let srv = server("contend");
        {
            let r = PersistentRelation::open(&srv, "shared", 2).unwrap();
            r.make_index(IndexSpec::Args(vec![0])).unwrap();
        }
        let threads: Vec<_> = (0..4i64)
            .map(|w| {
                let client = srv.clone();
                std::thread::spawn(move || {
                    // One handle per worker, as server sessions have.
                    let r = PersistentRelation::open(&client, "shared", 2).unwrap();
                    for i in 0..500i64 {
                        let t = Tuple::ground(vec![
                            Term::int(w * 10_000 + i),
                            Term::str(&format!("w{w}-row{i}")),
                        ]);
                        assert!(r.insert(t).unwrap());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let r = PersistentRelation::open(&srv, "shared", 2).unwrap();
        assert_eq!(r.len(), 2000, "no tuple lost to an interleaved split");
        let all: Vec<Tuple> = r.scan().collect::<RelResult<_>>().unwrap();
        assert_eq!(all.len(), 2000);
        for w in 0..4i64 {
            // Every sampled tuple is still findable through the primary
            // tree (the duplicate probe walks it)…
            for i in (0..500i64).step_by(53) {
                let t = Tuple::ground(vec![
                    Term::int(w * 10_000 + i),
                    Term::str(&format!("w{w}-row{i}")),
                ]);
                assert!(!r.insert(t).unwrap(), "tuple lost or tree corrupt");
            }
            // …and the secondary index agrees with the heap.
            let hits: Vec<Tuple> = r
                .lookup(&[Term::int(w * 10_000 + 7), Term::var(0)])
                .collect::<RelResult<_>>()
                .unwrap();
            assert_eq!(hits.len(), 1);
        }
    }

    fn row(i: i64) -> Tuple {
        Tuple::ground(vec![Term::int(i), Term::str(&format!("row-{i}"))])
    }

    /// A lazy scan pins the commit point it started from: tuples
    /// committed afterwards by another handle stay invisible to it.
    #[test]
    fn snapshot_scan_isolated_from_concurrent_writer() {
        let srv = server("snapscan");
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        for i in 0..10 {
            assert!(r.insert(row(i)).unwrap());
        }
        let scan = r.scan(); // pins a snapshot before the writer runs
        let w = PersistentRelation::open(&srv, "f", 2).unwrap();
        for i in 10..20 {
            assert!(w.insert(row(i)).unwrap());
        }
        let seen: Vec<Tuple> = scan.collect::<RelResult<_>>().unwrap();
        assert_eq!(seen.len(), 10, "snapshot scan ignores later commits");
        assert!(seen
            .iter()
            .all(|t| matches!(t.args()[0], Term::Int(i) if i < 10)));
        assert_eq!(r.len(), 20, "a fresh read sees everything");
    }

    #[test]
    fn txn_writes_invisible_until_commit() {
        let srv = server("txnvis");
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        let reader = PersistentRelation::open(&srv, "f", 2).unwrap();
        let t = srv.begin().unwrap();
        r.set_txn(Some(t));
        assert!(r.insert(row(1)).unwrap());
        assert_eq!(r.len(), 1, "a transaction sees its own writes");
        assert_eq!(reader.len(), 0, "uncommitted writes stay private");
        srv.commit(t).unwrap();
        r.set_txn(None);
        assert_eq!(reader.len(), 1, "commit publishes the write");
    }

    #[test]
    fn txn_conflict_is_retryable_after_commit() {
        let srv = server("txnconf");
        srv.set_lock_timeout(Duration::from_millis(0));
        let r1 = PersistentRelation::open(&srv, "f", 2).unwrap();
        let r2 = PersistentRelation::open(&srv, "f", 2).unwrap();
        let t1 = srv.begin().unwrap();
        r1.set_txn(Some(t1));
        assert!(r1.insert(row(1)).unwrap());
        let t2 = srv.begin().unwrap();
        r2.set_txn(Some(t2));
        let err = r2.insert(row(2)).unwrap_err();
        assert!(
            matches!(err, RelError::Storage(StorageError::TxnConflict(_))),
            "concurrent writers to one relation conflict retryably: {err}"
        );
        srv.abort(t2).unwrap();
        r2.set_txn(None);
        srv.commit(t1).unwrap();
        r1.set_txn(None);
        // The loser retries after the winner commits and succeeds.
        assert!(r2.insert(row(2)).unwrap());
        assert_eq!(r2.len(), 2);
    }

    #[test]
    fn aborted_txn_leaves_no_trace() {
        let srv = server("txnabort");
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        assert!(r.insert(row(1)).unwrap());
        let t = srv.begin().unwrap();
        r.set_txn(Some(t));
        assert!(r.insert(row(2)).unwrap());
        assert!(r.delete(&row(1)).unwrap());
        srv.abort(t).unwrap();
        r.set_txn(None);
        let all: Vec<Tuple> = r.scan().collect::<RelResult<_>>().unwrap();
        assert_eq!(all, vec![row(1)], "abort rolled every structure back");
        assert_eq!(r.stats().unwrap().cardinality(), 1);
        assert!(r.check().unwrap().is_empty());
    }

    #[test]
    fn epochs_bump_only_on_applied_mutations() {
        let srv = server("epochs");
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        let e0 = r.epoch();
        assert!(r.insert(row(1)).unwrap());
        assert_eq!(r.epoch(), e0 + 1);
        assert!(!r.insert(row(1)).unwrap());
        assert_eq!(r.epoch(), e0 + 1, "duplicate insert does not bump");
        assert!(r.delete(&row(1)).unwrap());
        assert_eq!(r.epoch(), e0 + 2);
        assert!(!r.delete(&row(1)).unwrap());
        assert_eq!(r.epoch(), e0 + 2, "missed delete does not bump");
    }

    fn is_conflict<T>(r: RelResult<T>) -> bool {
        matches!(r, Err(RelError::Storage(StorageError::TxnConflict(_))))
    }

    /// An index build and an uncommitted mutator of the same relation
    /// write-conflict whichever of them comes first, because both write
    /// the statistics record. Without that, a row the build's retrofit
    /// scan cannot see would commit anyway and be missing from the index.
    #[test]
    fn index_build_and_uncommitted_mutator_conflict_in_either_order() {
        for build_first in [false, true] {
            let srv = server(&format!("ixconf-{build_first}"));
            srv.set_lock_timeout(Duration::from_millis(0));
            let w = PersistentRelation::open(&srv, "f", 2).unwrap();
            let ix = PersistentRelation::open(&srv, "f", 2).unwrap();
            assert!(w.insert(row(1)).unwrap());
            // The first to act is the older transaction, so the loser's
            // attempt does not also wound it.
            let (tb, tw) = if build_first {
                (srv.begin().unwrap(), srv.begin().unwrap())
            } else {
                let tw = srv.begin().unwrap();
                (srv.begin().unwrap(), tw)
            };
            w.set_txn(Some(tw));
            ix.set_txn(Some(tb));
            let build = || ix.make_index(IndexSpec::Args(vec![1]));
            if build_first {
                build().unwrap();
                assert!(is_conflict(w.insert(row(2))), "insert after the build");
                srv.abort(tw).unwrap();
                w.set_txn(None);
                srv.commit(tb).unwrap();
                ix.set_txn(None);
                assert!(w.insert(row(2)).unwrap(), "the insert retries");
            } else {
                assert!(w.insert(row(2)).unwrap());
                assert!(is_conflict(build()), "build after the insert");
                srv.abort(tb).unwrap();
                ix.set_txn(None);
                srv.commit(tw).unwrap();
                w.set_txn(None);
                build().unwrap();
            }
            for r in [&w, &ix] {
                assert!(r.check().unwrap().is_empty(), "build_first={build_first}");
                let hits: Vec<Tuple> = r
                    .lookup(&[Term::var(0), Term::str("row-2")])
                    .collect::<RelResult<_>>()
                    .unwrap();
                assert_eq!(hits, vec![row(2)], "the new index finds the row");
            }
        }
    }

    /// Buffer-pool page requests per insert into an indexed relation
    /// already holding `rows` rows.
    fn page_requests_per_insert(rows: i64) -> f64 {
        let srv = server(&format!("flat-{rows}"));
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        for i in 0..rows {
            r.insert(row(i)).unwrap();
        }
        srv.reset_stats();
        for i in rows..rows + 100 {
            r.insert(row(i)).unwrap();
        }
        let s = srv.stats();
        (s.hits + s.misses) as f64 / 100.0
    }

    #[test]
    fn write_cost_is_flat_in_store_size() {
        let small = page_requests_per_insert(400);
        let large = page_requests_per_insert(4_000);
        assert!(
            large <= 1.5 * small,
            "{large} page requests per insert at 4 000 rows, {small} at 400"
        );
    }

    #[test]
    fn insert_delete_churn_does_not_grow_the_files() {
        let srv = server("churn");
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        for i in 0..100 {
            r.insert(row(i)).unwrap();
        }
        let pages = || {
            (
                r.stats_file.num_pages().unwrap(),
                r.heap.num_pages().unwrap(),
            )
        };
        let before = pages();
        for _ in 0..5_000 {
            assert!(r.insert(row(-1)).unwrap());
            assert!(r.delete(&row(-1)).unwrap());
        }
        assert_eq!(pages(), before, "(stats, data) pages");
        assert_eq!(r.stats().unwrap().cardinality(), 100);
        assert!(r.check().unwrap().is_empty());
    }

    /// No-steal pins every page a transaction dirties until it ends, so
    /// a load larger than the pool cannot commit as one transaction. It
    /// must end in a typed refusal that leaves the store clean.
    #[test]
    fn bulk_load_larger_than_the_pool_is_a_clean_refusal() {
        const ROWS: i64 = 10_000;
        let d: PathBuf =
            std::env::temp_dir().join(format!("coral-persistent-test-{}-bulk", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let expect = {
            let srv = StorageServer::open(&d, 16).unwrap();
            let r = PersistentRelation::open(&srv, "f", 2).unwrap();
            r.make_index(IndexSpec::Args(vec![0])).unwrap();
            srv.checkpoint().unwrap();
            let t = srv.begin().unwrap();
            r.set_txn(Some(t));
            let loaded = (0..ROWS).try_for_each(|i| r.insert(row(i)).map(|_| ()));
            r.set_txn(None);
            match loaded {
                Ok(()) => {
                    srv.commit(t).unwrap();
                    ROWS as usize
                }
                Err(e) => {
                    assert!(
                        matches!(e, RelError::Storage(StorageError::PoolExhausted { .. })),
                        "a typed refusal, got: {e}"
                    );
                    srv.abort(t).unwrap();
                    assert!(srv.check().unwrap().is_clean());
                    assert!(r.check().unwrap().is_empty());
                    assert_eq!(r.len(), 0);
                    0
                }
            }
        };
        let srv = StorageServer::open(&d, 16).unwrap();
        assert!(srv.check().unwrap().is_clean());
        let r = PersistentRelation::open(&srv, "f", 2).unwrap();
        assert_eq!(r.len(), expect);
        assert!(r.check().unwrap().is_empty());
    }

    #[test]
    fn buffer_pool_paging_is_observable() {
        let srv = server("paging");
        let r = PersistentRelation::open(&srv, "big", 2).unwrap();
        for i in 0..2000i64 {
            r.insert(Tuple::ground(vec![
                Term::int(i),
                Term::str(&format!("row-{i}")),
            ]))
            .unwrap();
        }
        srv.checkpoint().unwrap();
        srv.pool().evict_all().unwrap();
        srv.reset_stats();
        assert_eq!(r.scan().count(), 2000);
        let s = srv.stats();
        assert!(s.misses > 3, "cold scan faults pages in: {s:?}");
        srv.reset_stats();
        assert_eq!(r.scan().count(), 2000);
        let s2 = srv.stats();
        assert!(s2.hits > s2.misses, "warm scan mostly hits: {s2:?}");
    }
}
