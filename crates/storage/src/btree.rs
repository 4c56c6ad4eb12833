//! B+-tree over byte-string items.
//!
//! "B-tree indices for persistent relations are currently available in
//! the CORAL system" (§3.3). This tree indexes *items* — arbitrary byte
//! strings ordered lexicographically — because the relation layer encodes
//! `key ‖ record-id` with an order-preserving encoding, turning exact-key
//! lookups into prefix ranges and making duplicates unambiguous.
//!
//! Structure: one meta page (page 0) holding the root pointer and item
//! count; internal nodes map separator items to children; leaves hold the
//! items and are chained left-to-right for range scans. All node access
//! goes through the buffer pool, whose closure API must not nest: a
//! descent searches each node on its page in place and carries only the
//! child's page id down; a split or a range scan copies the node's
//! entries out. Deletes do not rebalance (empty leaves stay in the
//! sibling chain).
//!
//! **Concurrency contract:** the buffer pool serializes access *per
//! page* only, while inserts (splits especially) are multi-page
//! read-copy-modify-write sequences. Every mutation runs in a
//! transaction, and transactional mutators are serialized by the page
//! lock on the meta page (every insert/delete touches it through
//! `bump_len`), so two transactions mutating the same tree always
//! conflict and one retries. Handles without a transaction share the
//! storage server's implicit one, whose mutations the server runs one
//! at a time. *Readers* go through snapshot views and neither block nor
//! take any lock.

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageId};
use crate::page::SlottedPage;
use crate::server::StorageClient;
use crate::tx::View;
use std::sync::{Arc, Mutex};

/// Maximum item size; guarantees a node can always hold ≥ 2 items so
/// splits make progress.
pub const MAX_ITEM: usize = 1024;

const META_MAGIC: &[u8; 8] = b"CORALBT1";
const NO_SIBLING: u64 = u64::MAX;

struct Node {
    is_leaf: bool,
    /// Right-sibling pid for leaves, leftmost-child pid for internals.
    extra: u64,
    /// Slot 1.. contents, in key order. For internal nodes each entry is
    /// `[child: u64 LE][separator bytes]`.
    entries: Vec<Vec<u8>>,
}

impl Node {
    fn entry_sep(entry: &[u8]) -> &[u8] {
        &entry[8..]
    }
    fn entry_child(entry: &[u8]) -> u64 {
        u64::from_le_bytes(entry[0..8].try_into().unwrap())
    }
    fn make_entry(child: u64, sep: &[u8]) -> Vec<u8> {
        let mut e = Vec::with_capacity(8 + sep.len());
        e.extend_from_slice(&child.to_le_bytes());
        e.extend_from_slice(sep);
        e
    }
}

/// A B+-tree of byte strings in one page file.
pub struct BTree {
    store: StorageClient,
    fid: FileId,
    /// The MVCC view every access goes through (`Live` by default; the
    /// relation layer points it at a transaction or a snapshot). A write
    /// in `Live` is a mutation of the server's implicit transaction.
    view: Mutex<View>,
}

impl BTree {
    /// Open the tree in file `fid` (registered with `store`), with its
    /// accesses routed through `view`, initializing the file if it is
    /// empty. The initialization is a write in `view` like any other: a
    /// transaction creating a tree passes its own `View::Txn`.
    pub fn open(store: StorageClient, fid: FileId, view: View) -> StorageResult<BTree> {
        let t = BTree {
            store,
            fid,
            view: Mutex::new(view),
        };
        let n = t.pool().num_pages(fid)?;
        // Page 0 is the meta page, or zeros: the file is brand-new, or
        // its pages were allocated (zero-extended) by a transaction that
        // crashed before commit. Nothing in the latter was ever committed
        // — a committed meta page would have been restored from the WAL
        // before we got here — so the zeros can be formatted in place.
        // Anything else on page 0 is real corruption.
        let (magic, zeroed) = match n {
            0 => (false, true),
            _ => t.pool().with_page(fid, PageId(0), |d| {
                (&d[0..8] == META_MAGIC, d.iter().all(|&b| b == 0))
            })?,
        };
        if !magic && !zeroed {
            return Err(StorageError::Corrupt("bad B-tree meta page".into()));
        }
        if !magic {
            t.store.write(view, |txn| t.init(txn, n))?;
        }
        Ok(t)
    }

    /// Format the meta page and an empty root leaf over an `n`-page file
    /// of zeros.
    fn init(&self, txn: u64, n: u64) -> StorageResult<()> {
        let pool = self.pool();
        if n == 0 {
            pool.allocate_page(self.fid)?; // the meta page, page 0
        }
        let root = if n <= 1 {
            pool.allocate_page(self.fid)?
        } else {
            PageId(1)
        };
        let leaf = Node {
            is_leaf: true,
            extra: NO_SIBLING,
            entries: Vec::new(),
        };
        self.write_node(txn, root, &leaf)?;
        pool.with_page_mut(self.fid, PageId(0), txn, |d| {
            d[0..8].copy_from_slice(META_MAGIC);
            d[8..16].copy_from_slice(&root.0.to_le_bytes());
            d[16..24].copy_from_slice(&0u64.to_le_bytes());
        })
    }

    fn pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.fid
    }

    /// The view subsequent accesses use.
    pub fn view(&self) -> View {
        *self.view.lock().unwrap()
    }

    /// Route subsequent accesses through `view`.
    pub fn set_view(&self, view: View) {
        *self.view.lock().unwrap() = view;
    }

    /// Attach this handle to a transaction (`None` = back to `Live`).
    pub fn set_txn(&self, txn: Option<u64>) {
        self.set_view(txn.map_or(View::Live, View::Txn));
    }

    fn root(&self, view: View) -> StorageResult<PageId> {
        self.pool().with_page_view(self.fid, PageId(0), view, |d| {
            PageId(u64::from_le_bytes(d[8..16].try_into().unwrap()))
        })
    }

    fn set_root(&self, txn: u64, pid: PageId) -> StorageResult<()> {
        self.pool().with_page_mut(self.fid, PageId(0), txn, |d| {
            d[8..16].copy_from_slice(&pid.0.to_le_bytes());
        })
    }

    /// Number of items in the tree.
    pub fn len(&self) -> StorageResult<u64> {
        self.pool()
            .with_page_view(self.fid, PageId(0), self.view(), |d| {
                u64::from_le_bytes(d[16..24].try_into().unwrap())
            })
    }

    /// True iff the tree holds no items.
    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }

    fn bump_len(&self, txn: u64, delta: i64) -> StorageResult<()> {
        self.pool().with_page_mut(self.fid, PageId(0), txn, |d| {
            let n = u64::from_le_bytes(d[16..24].try_into().unwrap());
            let n = n
                .checked_add_signed(delta)
                .ok_or_else(|| StorageError::Corrupt("B-tree length counter underflow".into()))?;
            d[16..24].copy_from_slice(&n.to_le_bytes());
            Ok(())
        })?
    }

    /// Parse one node's bytes. A page that does not parse — possible
    /// only through external corruption, never a crash the WAL protocol
    /// covers — yields `StorageError::Corrupt` rather than a panic, so
    /// the request that hit it fails instead of the process.
    fn parse_node<'p>(
        pid: PageId,
        p: &'p SlottedPage<&[u8]>,
    ) -> StorageResult<(bool, u64, Vec<&'p [u8]>)> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("B-tree node {}: {what}", pid.0));
        p.validate().map_err(|e| corrupt(&e))?;
        let hdr = p.get(0).ok_or_else(|| corrupt("missing header"))?;
        if hdr.len() < 9 {
            return Err(corrupt("short header"));
        }
        let is_leaf = hdr[0] == 1;
        let extra = u64::from_le_bytes(hdr[1..9].try_into().unwrap());
        let mut entries = Vec::with_capacity(p.n_slots().saturating_sub(1) as usize);
        for i in 1..p.n_slots() {
            let e = p.get(i).ok_or_else(|| corrupt("slot gap"))?;
            if !is_leaf && e.len() < 8 {
                return Err(corrupt("internal entry shorter than a child pointer"));
            }
            entries.push(e);
        }
        Ok((is_leaf, extra, entries))
    }

    fn read_node(&self, view: View, pid: PageId) -> StorageResult<Node> {
        self.pool().with_page_view(self.fid, pid, view, |d| {
            let page = SlottedPage::read(d);
            let (is_leaf, extra, entries) = Self::parse_node(pid, &page)?;
            let entries = entries.into_iter().map(<[u8]>::to_vec).collect();
            Ok(Node {
                is_leaf,
                extra,
                entries,
            })
        })?
    }

    /// Where `item` belongs in node `pid`, searched on the page in place:
    /// a leaf's binary-search result, or an internal node's child (see
    /// [`Self::choose_child`]).
    fn step(&self, view: View, pid: PageId, item: &[u8]) -> StorageResult<Step> {
        self.pool().with_page_view(self.fid, pid, view, |d| {
            let page = SlottedPage::read(d);
            let (is_leaf, extra, entries) = Self::parse_node(pid, &page)?;
            Ok(match is_leaf {
                true => Step::Leaf(entries.binary_search(&item)),
                false => {
                    let (idx, child) = Self::choose_child(extra, &entries, item);
                    Step::Inner(idx, PageId(child))
                }
            })
        })?
    }

    fn write_node(&self, txn: u64, pid: PageId, node: &Node) -> StorageResult<()> {
        self.pool().with_page_mut(self.fid, pid, txn, |d| {
            let mut p = SlottedPage::format(d);
            let mut hdr = [0u8; 9];
            hdr[0] = node.is_leaf as u8;
            hdr[1..9].copy_from_slice(&node.extra.to_le_bytes());
            if p.insert(&hdr)?.is_none() {
                return Err(StorageError::Corrupt(
                    "B-tree node header does not fit".into(),
                ));
            }
            for (i, e) in node.entries.iter().enumerate() {
                if !p.insert_at(i as u16 + 1, e)? {
                    return Err(StorageError::Corrupt(
                        "B-tree node overflow while rewriting".into(),
                    ));
                }
            }
            Ok(())
        })?
    }

    /// Try to insert an entry at slot position `idx+1` in place; `false`
    /// if the page is full.
    fn node_insert_at(
        &self,
        txn: u64,
        pid: PageId,
        idx: usize,
        entry: &[u8],
    ) -> StorageResult<bool> {
        self.pool().with_page_mut(self.fid, pid, txn, |d| {
            SlottedPage::attach(d).insert_at(idx as u16 + 1, entry)
        })?
    }

    /// Insert `item`; returns `true` if it was not already present.
    pub fn insert(&self, item: &[u8]) -> StorageResult<bool> {
        if item.len() > MAX_ITEM {
            return Err(StorageError::RecordTooLarge {
                size: item.len(),
                max: MAX_ITEM,
            });
        }
        self.store
            .write(self.view(), |txn| self.insert_in(txn, item))
    }

    fn insert_in(&self, txn: u64, item: &[u8]) -> StorageResult<bool> {
        let root = self.root(View::Txn(txn))?;
        match self.insert_rec(txn, root, item)? {
            InsertOutcome::Duplicate => Ok(false),
            InsertOutcome::Done => {
                self.bump_len(txn, 1)?;
                Ok(true)
            }
            InsertOutcome::Split(sep, right) => {
                // Grow the tree: fresh root with the old root as child0.
                let new_root = self.pool().allocate_page(self.fid)?;
                self.write_node(
                    txn,
                    new_root,
                    &Node {
                        is_leaf: false,
                        extra: root.0,
                        entries: vec![Node::make_entry(right, &sep)],
                    },
                )?;
                self.set_root(txn, new_root)?;
                self.bump_len(txn, 1)?;
                Ok(true)
            }
        }
    }

    fn insert_rec(&self, txn: u64, pid: PageId, item: &[u8]) -> StorageResult<InsertOutcome> {
        // The entry this node takes: the item in a leaf, a split child's
        // new right sibling just after the chosen child in an internal
        // node.
        let (pos, entry, is_leaf) = match self.step(View::Txn(txn), pid, item)? {
            Step::Leaf(Ok(_)) => return Ok(InsertOutcome::Duplicate),
            Step::Leaf(Err(pos)) => (pos, item.to_vec(), true),
            Step::Inner(pos, child) => match self.insert_rec(txn, child, item)? {
                InsertOutcome::Split(sep, right) => (pos, Node::make_entry(right, &sep), false),
                done => return Ok(done),
            },
        };
        if self.node_insert_at(txn, pid, pos, &entry)? {
            return Ok(InsertOutcome::Done);
        }
        // Split: a leaf's right half starts at the separator; an internal
        // node's middle entry moves up, its child leftmost on the right.
        let node = self.read_node(View::Txn(txn), pid)?;
        let mut entries = node.entries;
        entries.insert(pos, entry);
        let mid = entries.len() / 2;
        let right_pid = self.pool().allocate_page(self.fid)?;
        let (sep, extra, right) = if is_leaf {
            let right = entries.split_off(mid);
            (right[0].clone(), node.extra, right)
        } else {
            let promoted = entries.remove(mid);
            let right = entries.split_off(mid);
            let sep = Node::entry_sep(&promoted).to_vec();
            (sep, Node::entry_child(&promoted), right)
        };
        let left_extra = if is_leaf { right_pid.0 } else { node.extra };
        for (pid, extra, entries) in [(right_pid, extra, right), (pid, left_extra, entries)] {
            let node = Node {
                is_leaf,
                extra,
                entries,
            };
            self.write_node(txn, pid, &node)?;
        }
        Ok(InsertOutcome::Split(sep, right_pid.0))
    }

    /// Index of the entry whose child should hold `item` (the slot *after*
    /// which a promoted sibling would be inserted), and the child pid, in
    /// an internal node with leftmost child `extra`.
    fn choose_child(extra: u64, entries: &[&[u8]], item: &[u8]) -> (usize, u64) {
        // Last entry with separator <= item; if none, leftmost child.
        let pos = entries.partition_point(|e| Node::entry_sep(e) <= item);
        if pos == 0 {
            (0, extra)
        } else {
            (pos, Node::entry_child(entries[pos - 1]))
        }
    }

    /// True iff `item` is present.
    pub fn contains(&self, item: &[u8]) -> StorageResult<bool> {
        let view = self.view();
        let mut pid = self.root(view)?;
        loop {
            match self.step(view, pid, item)? {
                Step::Leaf(found) => return Ok(found.is_ok()),
                Step::Inner(_, child) => pid = child,
            }
        }
    }

    /// Remove `item`; returns `true` if it was present.
    pub fn delete(&self, item: &[u8]) -> StorageResult<bool> {
        self.store
            .write(self.view(), |txn| self.delete_in(txn, item))
    }

    fn delete_in(&self, txn: u64, item: &[u8]) -> StorageResult<bool> {
        let view = View::Txn(txn);
        let mut pid = self.root(view)?;
        loop {
            match self.step(view, pid, item)? {
                Step::Leaf(Ok(pos)) => {
                    self.pool().with_page_mut(self.fid, pid, txn, |d| {
                        SlottedPage::attach(d).remove_at(pos as u16 + 1);
                    })?;
                    self.bump_len(txn, -1)?;
                    return Ok(true);
                }
                Step::Leaf(Err(_)) => return Ok(false),
                Step::Inner(_, child) => pid = child,
            }
        }
    }

    /// Scan items in `lo..hi` (`hi = None` scans to the end).
    pub fn range(&self, lo: &[u8], hi: Option<&[u8]>) -> StorageResult<BTreeRange> {
        // Descend to the leaf that could hold `lo`.
        let view = self.view();
        let mut pid = self.root(view)?;
        while let Step::Inner(_, child) = self.step(view, pid, lo)? {
            pid = child;
        }
        let mut scan = BTreeRange {
            tree_pool: Arc::clone(self.pool()),
            fid: self.fid,
            view,
            hi: hi.map(|h| h.to_vec()),
            buffered: Vec::new(),
            pos: 0,
            next_leaf: NO_SIBLING,
            done: false,
        };
        scan.load(pid, lo)?;
        Ok(scan)
    }

    /// Scan all items with the given prefix.
    pub fn scan_prefix(&self, prefix: &[u8]) -> StorageResult<BTreeRange> {
        let hi = prefix_successor(prefix);
        self.range(prefix, hi.as_deref())
    }

    /// Scan the whole tree in order.
    pub fn scan_all(&self) -> StorageResult<BTreeRange> {
        self.range(&[], None)
    }

    /// Structural integrity check: walks the whole tree verifying that
    /// every node parses, keys are strictly ordered and within their
    /// parent's separator bounds, all leaves sit at one depth, the leaf
    /// sibling chain matches the in-order leaf sequence, no page is
    /// reachable twice, and the meta item counter equals the number of
    /// items found. Read-only; returns the violations (empty = clean).
    /// I/O errors still propagate as `Err` — a violation is a property of
    /// the bytes, not of the disk.
    pub fn check(&self) -> StorageResult<Vec<String>> {
        let mut problems = Vec::new();
        let total_pages = self.pool().num_pages(self.fid)?;
        if total_pages == 0 {
            problems.push("B-tree file has no meta page".into());
            return Ok(problems);
        }
        let magic_ok = self
            .pool()
            .with_page_view(self.fid, PageId(0), self.view(), |d| &d[0..8] == META_MAGIC)?;
        if !magic_ok {
            problems.push("meta page magic mismatch".into());
            return Ok(problems);
        }
        let root = self.root(self.view())?;
        let mut walk = CheckWalk {
            total_pages,
            visited: std::collections::HashSet::new(),
            leaves: Vec::new(),
            items: 0,
            leaf_depth: None,
            problems,
        };
        self.check_rec(root, 1, None, None, &mut walk)?;
        // The sibling chain must thread the leaves exactly in key order.
        for w in walk.leaves.windows(2) {
            let ((pid, extra), (next, _)) = (w[0], w[1]);
            if extra != next.0 {
                walk.problems.push(format!(
                    "leaf {} sibling pointer {} skips in-order successor {}",
                    pid.0, extra, next.0
                ));
            }
        }
        if let Some(&(last, extra)) = walk.leaves.last() {
            if extra != NO_SIBLING {
                walk.problems.push(format!(
                    "last leaf {} has a dangling sibling {extra}",
                    last.0
                ));
            }
        }
        let len = self.len()?;
        if len != walk.items {
            walk.problems.push(format!(
                "meta item count {len} != {} items found in leaves",
                walk.items
            ));
        }
        Ok(walk.problems)
    }

    fn check_rec(
        &self,
        pid: PageId,
        depth: usize,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        walk: &mut CheckWalk,
    ) -> StorageResult<()> {
        if pid.0 == 0 || pid.0 >= walk.total_pages {
            walk.problems
                .push(format!("child pointer {} outside file", pid.0));
            return Ok(());
        }
        if !walk.visited.insert(pid.0) {
            walk.problems.push(format!(
                "page {} reachable twice (cycle or shared child)",
                pid.0
            ));
            return Ok(());
        }
        let node = match self.read_node(self.view(), pid) {
            Ok(n) => n,
            Err(StorageError::Corrupt(msg)) => {
                walk.problems.push(msg);
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let keys: Vec<&[u8]> = if node.is_leaf {
            node.entries.iter().map(|e| e.as_slice()).collect()
        } else {
            node.entries.iter().map(|e| Node::entry_sep(e)).collect()
        };
        for w in keys.windows(2) {
            if w[0] >= w[1] {
                walk.problems
                    .push(format!("node {}: entries out of order", pid.0));
                break;
            }
        }
        for k in &keys {
            if lo.is_some_and(|lo| *k < lo) || hi.is_some_and(|hi| *k >= hi) {
                walk.problems.push(format!(
                    "node {}: entry outside parent separator bounds",
                    pid.0
                ));
                break;
            }
        }
        if node.is_leaf {
            match walk.leaf_depth {
                None => walk.leaf_depth = Some(depth),
                Some(d) if d != depth => {
                    walk.problems
                        .push(format!("leaf {} at depth {depth}, expected {d}", pid.0));
                }
                Some(_) => {}
            }
            walk.items += node.entries.len() as u64;
            walk.leaves.push((pid, node.extra));
        } else {
            let seps: Vec<Vec<u8>> = node
                .entries
                .iter()
                .map(|e| Node::entry_sep(e).to_vec())
                .collect();
            let first_hi = seps.first().map(|s| s.as_slice()).or(hi);
            self.check_rec(PageId(node.extra), depth + 1, lo, first_hi, walk)?;
            for (i, e) in node.entries.iter().enumerate() {
                let child_lo = Some(seps[i].as_slice());
                let child_hi = seps.get(i + 1).map(|s| s.as_slice()).or(hi);
                self.check_rec(
                    PageId(Node::entry_child(e)),
                    depth + 1,
                    child_lo,
                    child_hi,
                    walk,
                )?;
            }
        }
        Ok(())
    }
}

/// One level of a descent: see [`BTree::step`].
enum Step {
    Leaf(Result<usize, usize>),
    Inner(usize, PageId),
}

enum InsertOutcome {
    Duplicate,
    Done,
    Split(Vec<u8>, u64),
}

/// Accumulator for [`BTree::check`]'s tree walk.
struct CheckWalk {
    total_pages: u64,
    visited: std::collections::HashSet<u64>,
    /// `(pid, sibling)` per leaf, in key order.
    leaves: Vec<(PageId, u64)>,
    items: u64,
    leaf_depth: Option<usize>,
    problems: Vec<String>,
}

/// The smallest byte string greater than every string with `prefix`
/// (`None` if the prefix is all-0xFF or empty).
pub fn prefix_successor(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut s = prefix.to_vec();
    while let Some(&last) = s.last() {
        if last == 0xFF {
            s.pop();
        } else {
            *s.last_mut().unwrap() += 1;
            return Some(s);
        }
    }
    None
}

/// In-order iterator over a key range.
pub struct BTreeRange {
    tree_pool: Arc<BufferPool>,
    fid: FileId,
    view: View,
    hi: Option<Vec<u8>>,
    buffered: Vec<Vec<u8>>,
    pos: usize,
    next_leaf: u64,
    done: bool,
}

impl BTreeRange {
    /// Buffer the items of leaf `pid` at or after `lo` and before `hi`
    /// (only those are copied off the page), and mark the scan done if
    /// it reached `hi` there.
    fn load(&mut self, pid: PageId, lo: &[u8]) -> StorageResult<()> {
        let hi = self.hi.as_deref();
        let (items, done, sibling) =
            self.tree_pool
                .with_page_view(self.fid, pid, self.view, |d| {
                    let page = SlottedPage::read(d);
                    let (_, sibling, entries) = BTree::parse_node(pid, &page)?;
                    let start = entries.partition_point(|e| *e < lo);
                    let end = hi.map_or(entries.len(), |h| entries.partition_point(|e| *e < h));
                    let items = entries[start..end.max(start)].iter().map(|e| e.to_vec());
                    Ok::<_, StorageError>((items.collect(), end < entries.len(), sibling))
                })??;
        (self.buffered, self.pos, self.done, self.next_leaf) = (items, 0, done, sibling);
        Ok(())
    }
}

impl Iterator for BTreeRange {
    type Item = StorageResult<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.buffered.len() {
                let item = std::mem::take(&mut self.buffered[self.pos]);
                self.pos += 1;
                return Some(Ok(item));
            }
            if self.done || self.next_leaf == NO_SIBLING {
                return None;
            }
            if let Err(e) = self.load(PageId(self.next_leaf), &[]) {
                self.done = true;
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StorageServer;
    use std::path::PathBuf;

    /// Depth of the tree (1 = root is a leaf).
    fn depth(t: &BTree) -> usize {
        let mut pid = t.root(t.view()).unwrap();
        let mut d = 1;
        loop {
            let node = t.read_node(t.view(), pid).unwrap();
            if node.is_leaf {
                return d;
            }
            pid = PageId(node.extra);
            d += 1;
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("coral-btree-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tree(name: &str, frames: usize) -> BTree {
        StorageServer::open(&fresh_dir(name), frames)
            .unwrap()
            .btree("t")
            .unwrap()
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    #[test]
    fn insert_contains_small() {
        let t = tree("small.bt", 8);
        assert!(t.insert(b"b").unwrap());
        assert!(t.insert(b"a").unwrap());
        assert!(t.insert(b"c").unwrap());
        assert!(!t.insert(b"b").unwrap(), "duplicate rejected");
        assert!(t.contains(b"a").unwrap());
        assert!(t.contains(b"b").unwrap());
        assert!(!t.contains(b"d").unwrap());
        assert_eq!(t.len().unwrap(), 3);
    }

    #[test]
    fn thousands_of_items_split_and_scan_in_order() {
        let t = tree("big.bt", 64);
        // Insert in a scrambled order.
        let n = 5000u32;
        let mut order: Vec<u32> = (0..n).collect();
        // Deterministic shuffle.
        let mut state = 0x12345678u64;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for i in &order {
            assert!(t.insert(&key(*i)).unwrap());
        }
        assert_eq!(t.len().unwrap(), n as u64);
        assert!(depth(&t) >= 2, "tree actually split");
        let all: Vec<Vec<u8>> = t.scan_all().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(all.len(), n as usize);
        let expect: Vec<Vec<u8>> = (0..n).map(key).collect();
        assert_eq!(all, expect, "in-order scan");
        for i in (0..n).step_by(97) {
            assert!(t.contains(&key(i)).unwrap());
        }
        assert!(!t.contains(b"key-99999999").unwrap());
    }

    #[test]
    fn range_scans() {
        let t = tree("range.bt", 16);
        for i in 0..1000u32 {
            t.insert(&key(i)).unwrap();
        }
        let got: Vec<Vec<u8>> = t
            .range(&key(100), Some(&key(110)))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(got, (100..110).map(key).collect::<Vec<_>>());
        // Empty range.
        assert_eq!(t.range(&key(50), Some(&key(50))).unwrap().count(), 0);
        // Open-ended.
        assert_eq!(t.range(&key(990), None).unwrap().count(), 10);
        // Below the smallest key.
        assert_eq!(t.range(b"a", Some(b"kex")).unwrap().count(), 0);
    }

    #[test]
    fn prefix_scans() {
        let t = tree("prefix.bt", 16);
        for (k, v) in [("app", 1), ("apple", 2), ("apply", 3), ("banana", 4)] {
            let mut item = k.as_bytes().to_vec();
            item.push(v as u8);
            t.insert(&item).unwrap();
        }
        let hits = t.scan_prefix(b"appl").unwrap().count();
        assert_eq!(hits, 2);
        let hits = t.scan_prefix(b"app").unwrap().count();
        assert_eq!(hits, 3);
        assert_eq!(t.scan_prefix(b"zzz").unwrap().count(), 0);
    }

    #[test]
    fn prefix_successor_edge_cases() {
        assert_eq!(prefix_successor(b"abc"), Some(b"abd".to_vec()));
        assert_eq!(prefix_successor(&[0x61, 0xFF]), Some(vec![0x62]));
        assert_eq!(prefix_successor(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_successor(b""), None);
    }

    #[test]
    fn delete_items() {
        let t = tree("del.bt", 16);
        for i in 0..500u32 {
            t.insert(&key(i)).unwrap();
        }
        for i in (0..500).step_by(2) {
            assert!(t.delete(&key(i)).unwrap());
        }
        assert!(!t.delete(&key(0)).unwrap(), "double delete");
        assert_eq!(t.len().unwrap(), 250);
        let left: Vec<Vec<u8>> = t.scan_all().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(
            left,
            (0..500).filter(|i| i % 2 == 1).map(key).collect::<Vec<_>>()
        );
        for i in 0..500u32 {
            assert_eq!(t.contains(&key(i)).unwrap(), i % 2 == 1);
        }
    }

    #[test]
    fn persists_across_reopen() {
        let d = fresh_dir("reopen.bt");
        {
            let srv = StorageServer::open(&d, 16).unwrap();
            let t = srv.btree("t").unwrap();
            for i in 0..300u32 {
                t.insert(&key(i)).unwrap();
            }
            srv.checkpoint().unwrap();
        }
        {
            let t = StorageServer::open(&d, 16).unwrap().btree("t").unwrap();
            assert_eq!(t.len().unwrap(), 300);
            assert!(t.contains(&key(299)).unwrap());
            assert_eq!(t.scan_all().unwrap().count(), 300);
        }
    }

    #[test]
    fn oversized_item_rejected() {
        let t = tree("oversize.bt", 8);
        assert!(matches!(
            t.insert(&vec![0u8; MAX_ITEM + 1]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn large_items_force_splits() {
        let t = tree("largeitems.bt", 32);
        for i in 0..100u32 {
            let mut item = vec![b'x'; 900];
            item.extend_from_slice(&key(i));
            assert!(t.insert(&item).unwrap());
        }
        assert_eq!(t.len().unwrap(), 100);
        assert_eq!(t.scan_all().unwrap().count(), 100);
        assert!(depth(&t) >= 2);
    }
}
