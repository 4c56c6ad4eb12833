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
//! goes through the buffer pool, node content is copied out before
//! descending (the pool's closure API must not nest), deletes do not
//! rebalance (empty leaves stay in the sibling chain).
//!
//! **Concurrency contract:** the buffer pool serializes access *per
//! page* only, while inserts (splits especially) are multi-page
//! read-copy-modify-write sequences. Callers with concurrent mutators
//! of the same tree must serialize them externally — the relation layer
//! does so by holding the write side of
//! [`StorageServer::named_lock`](crate::StorageServer::named_lock)
//! across every mutation of a persistent relation. Transactional
//! mutators are additionally serialized by the page lock on the meta
//! page (every insert/delete touches it through `bump_len`), so two
//! transactions mutating the same tree always conflict and one retries;
//! *readers* go through snapshot views and neither block nor take any
//! lock.

use crate::buffer::{BufferPool, SnapshotGuard};
use crate::error::{StorageError, StorageResult};
use crate::file::{FileId, PageId};
use crate::page::SlottedPage;
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
    pool: Arc<BufferPool>,
    fid: FileId,
    /// The MVCC view every access goes through (`Live` by default; the
    /// relation layer points it at a transaction or a snapshot).
    view: Mutex<View>,
}

impl BTree {
    /// Open the tree in file `fid` (registered with `pool`), initializing
    /// it if the file is empty.
    pub fn open(pool: Arc<BufferPool>, fid: FileId) -> StorageResult<BTree> {
        Self::open_with_view(pool, fid, View::Live)
    }

    /// Open the tree with its accesses — *including* the meta/root
    /// initialization of a brand-new file — routed through `view`. A
    /// transaction creating a tree must use this: initializing through
    /// `Live` while other transactions are active is an ambiguous
    /// unattributable write, and the pages would not roll back with the
    /// transaction.
    pub fn open_with_view(pool: Arc<BufferPool>, fid: FileId, view: View) -> StorageResult<BTree> {
        let t = BTree {
            pool,
            fid,
            view: Mutex::new(view),
        };
        let n = t.pool.num_pages(fid)?;
        let initialized = n > 0
            && t.pool
                .with_page(fid, PageId(0), |d| &d[0..8] == META_MAGIC)?;
        if !initialized {
            // Either a brand-new file, or one whose pages were allocated
            // (zero-extended) by a transaction that crashed before commit.
            // In the latter case nothing in the file was ever committed —
            // a committed meta page would have been restored from the WAL
            // before we got here — so the zeros can be formatted in place.
            // Anything else on page 0 is real corruption.
            if n > 0 {
                let zeroed = t
                    .pool
                    .with_page(fid, PageId(0), |d| d.iter().all(|&b| b == 0))?;
                if !zeroed {
                    return Err(StorageError::Corrupt("bad B-tree meta page".into()));
                }
            }
            let meta = if n == 0 {
                t.pool.allocate_page(fid)?
            } else {
                PageId(0)
            };
            debug_assert_eq!(meta, PageId(0));
            let root = if n <= 1 {
                t.pool.allocate_page(fid)?
            } else {
                PageId(1)
            };
            t.write_node(
                root,
                &Node {
                    is_leaf: true,
                    extra: NO_SIBLING,
                    entries: Vec::new(),
                },
            )?;
            t.pool.with_page_mut_view(fid, PageId(0), t.view(), |d| {
                d[0..8].copy_from_slice(META_MAGIC);
                d[8..16].copy_from_slice(&root.0.to_le_bytes());
                d[16..24].copy_from_slice(&0u64.to_le_bytes());
            })?;
        }
        Ok(t)
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

    fn root(&self) -> StorageResult<PageId> {
        self.pool
            .with_page_view(self.fid, PageId(0), self.view(), |d| {
                PageId(u64::from_le_bytes(d[8..16].try_into().unwrap()))
            })
    }

    fn set_root(&self, pid: PageId) -> StorageResult<()> {
        self.pool
            .with_page_mut_view(self.fid, PageId(0), self.view(), |d| {
                d[8..16].copy_from_slice(&pid.0.to_le_bytes());
            })
    }

    /// Number of items in the tree.
    pub fn len(&self) -> StorageResult<u64> {
        self.pool
            .with_page_view(self.fid, PageId(0), self.view(), |d| {
                u64::from_le_bytes(d[16..24].try_into().unwrap())
            })
    }

    /// True iff the tree holds no items.
    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }

    fn bump_len(&self, delta: i64) -> StorageResult<()> {
        self.pool
            .with_page_mut_view(self.fid, PageId(0), self.view(), |d| {
                let n = u64::from_le_bytes(d[16..24].try_into().unwrap());
                let n = n.checked_add_signed(delta).ok_or_else(|| {
                    StorageError::Corrupt("B-tree length counter underflow".into())
                })?;
                d[16..24].copy_from_slice(&n.to_le_bytes());
                Ok(())
            })?
    }

    /// Parse one node's bytes. A page that does not parse — possible
    /// only through external corruption, never a crash the WAL protocol
    /// covers — yields `StorageError::Corrupt` rather than a panic, so
    /// the request that hit it fails instead of the process.
    fn parse_node(pid: PageId, d: &[u8]) -> StorageResult<Node> {
        let mut copy = d.to_vec();
        let p = SlottedPage::attach(&mut copy);
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
            entries.push(e.to_vec());
        }
        Ok(Node {
            is_leaf,
            extra,
            entries,
        })
    }

    fn read_node(&self, pid: PageId) -> StorageResult<Node> {
        self.pool
            .with_page_view(self.fid, pid, self.view(), |d| Self::parse_node(pid, d))?
    }

    fn write_node(&self, pid: PageId, node: &Node) -> StorageResult<()> {
        self.pool
            .with_page_mut_view(self.fid, pid, self.view(), |d| {
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
    fn node_insert_at(&self, pid: PageId, idx: usize, entry: &[u8]) -> StorageResult<bool> {
        self.pool
            .with_page_mut_view(self.fid, pid, self.view(), |d| {
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
        let root = self.root()?;
        match self.insert_rec(root, item)? {
            InsertOutcome::Duplicate => Ok(false),
            InsertOutcome::Done => {
                self.bump_len(1)?;
                Ok(true)
            }
            InsertOutcome::Split(sep, right) => {
                // Grow the tree: fresh root with the old root as child0.
                let new_root = self.pool.allocate_page(self.fid)?;
                self.write_node(
                    new_root,
                    &Node {
                        is_leaf: false,
                        extra: root.0,
                        entries: vec![Node::make_entry(right, &sep)],
                    },
                )?;
                self.set_root(new_root)?;
                self.bump_len(1)?;
                Ok(true)
            }
        }
    }

    fn insert_rec(&self, pid: PageId, item: &[u8]) -> StorageResult<InsertOutcome> {
        let node = self.read_node(pid)?;
        if node.is_leaf {
            let pos = match node.entries.binary_search_by(|e| e.as_slice().cmp(item)) {
                Ok(_) => return Ok(InsertOutcome::Duplicate),
                Err(p) => p,
            };
            if self.node_insert_at(pid, pos, item)? {
                return Ok(InsertOutcome::Done);
            }
            // Split the leaf.
            let mut entries = node.entries;
            entries.insert(pos, item.to_vec());
            let mid = entries.len() / 2;
            let right_entries = entries.split_off(mid);
            let right_pid = self.pool.allocate_page(self.fid)?;
            let sep = right_entries[0].clone();
            self.write_node(
                right_pid,
                &Node {
                    is_leaf: true,
                    extra: node.extra,
                    entries: right_entries,
                },
            )?;
            self.write_node(
                pid,
                &Node {
                    is_leaf: true,
                    extra: right_pid.0,
                    entries,
                },
            )?;
            Ok(InsertOutcome::Split(sep, right_pid.0))
        } else {
            let (child_idx, child) = Self::choose_child(&node, item);
            match self.insert_rec(PageId(child), item)? {
                InsertOutcome::Duplicate => Ok(InsertOutcome::Duplicate),
                InsertOutcome::Done => Ok(InsertOutcome::Done),
                InsertOutcome::Split(sep, right) => {
                    let entry = Node::make_entry(right, &sep);
                    // Entry for `right` goes just after the chosen child.
                    let pos = child_idx;
                    if self.node_insert_at(pid, pos, &entry)? {
                        return Ok(InsertOutcome::Done);
                    }
                    // Split this internal node; the middle separator moves up.
                    let mut entries = node.entries;
                    entries.insert(pos, entry);
                    let mid = entries.len() / 2;
                    let promoted = entries[mid].clone();
                    let right_entries = entries.split_off(mid + 1);
                    entries.pop(); // remove the promoted entry from the left
                    let right_pid = self.pool.allocate_page(self.fid)?;
                    self.write_node(
                        right_pid,
                        &Node {
                            is_leaf: false,
                            extra: Node::entry_child(&promoted),
                            entries: right_entries,
                        },
                    )?;
                    self.write_node(
                        pid,
                        &Node {
                            is_leaf: false,
                            extra: node.extra,
                            entries,
                        },
                    )?;
                    Ok(InsertOutcome::Split(
                        Node::entry_sep(&promoted).to_vec(),
                        right_pid.0,
                    ))
                }
            }
        }
    }

    /// Index of the entry whose child should hold `item` (the slot *after*
    /// which a promoted sibling would be inserted), and the child pid.
    fn choose_child(node: &Node, item: &[u8]) -> (usize, u64) {
        // Last entry with separator <= item; if none, leftmost child.
        let pos = node.entries.partition_point(|e| Node::entry_sep(e) <= item);
        if pos == 0 {
            (0, node.extra)
        } else {
            (pos, Node::entry_child(&node.entries[pos - 1]))
        }
    }

    /// True iff `item` is present.
    pub fn contains(&self, item: &[u8]) -> StorageResult<bool> {
        let mut pid = self.root()?;
        loop {
            let node = self.read_node(pid)?;
            if node.is_leaf {
                return Ok(node
                    .entries
                    .binary_search_by(|e| e.as_slice().cmp(item))
                    .is_ok());
            }
            pid = PageId(Self::choose_child(&node, item).1);
        }
    }

    /// Remove `item`; returns `true` if it was present.
    pub fn delete(&self, item: &[u8]) -> StorageResult<bool> {
        let mut pid = self.root()?;
        loop {
            let node = self.read_node(pid)?;
            if node.is_leaf {
                match node.entries.binary_search_by(|e| e.as_slice().cmp(item)) {
                    Ok(pos) => {
                        self.pool
                            .with_page_mut_view(self.fid, pid, self.view(), |d| {
                                SlottedPage::attach(d).remove_at(pos as u16 + 1);
                            })?;
                        self.bump_len(-1)?;
                        return Ok(true);
                    }
                    Err(_) => return Ok(false),
                }
            }
            pid = PageId(Self::choose_child(&node, item).1);
        }
    }

    /// Scan items in `lo..hi` (`hi = None` scans to the end).
    pub fn range(&self, lo: &[u8], hi: Option<&[u8]>) -> StorageResult<BTreeRange> {
        // Descend to the leaf that could hold `lo`.
        let mut pid = self.root()?;
        loop {
            let node = self.read_node(pid)?;
            if node.is_leaf {
                let start = node.entries.partition_point(|e| e.as_slice() < lo);
                let mut scan = BTreeRange {
                    tree_pool: Arc::clone(&self.pool),
                    fid: self.fid,
                    view: self.view(),
                    _guard: None,
                    hi: hi.map(|h| h.to_vec()),
                    buffered: node.entries,
                    pos: start,
                    next_leaf: node.extra,
                    done: false,
                };
                scan.clip();
                return Ok(scan);
            }
            pid = PageId(Self::choose_child(&node, lo).1);
        }
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
        let total_pages = self.pool.num_pages(self.fid)?;
        if total_pages == 0 {
            problems.push("B-tree file has no meta page".into());
            return Ok(problems);
        }
        let magic_ok = self
            .pool
            .with_page_view(self.fid, PageId(0), self.view(), |d| &d[0..8] == META_MAGIC)?;
        if !magic_ok {
            problems.push("meta page magic mismatch".into());
            return Ok(problems);
        }
        let root = self.root()?;
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
        let node = match self.read_node(pid) {
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

    /// Depth of the tree (1 = root is a leaf); for tests and diagnostics.
    pub fn depth(&self) -> StorageResult<usize> {
        let mut pid = self.root()?;
        let mut d = 1;
        loop {
            let node = self.read_node(pid)?;
            if node.is_leaf {
                return Ok(d);
            }
            pid = PageId(node.extra);
            d += 1;
        }
    }
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
    /// Keeps the snapshot this scan reads through pinned.
    _guard: Option<Arc<SnapshotGuard>>,
    hi: Option<Vec<u8>>,
    buffered: Vec<Vec<u8>>,
    pos: usize,
    next_leaf: u64,
    done: bool,
}

impl BTreeRange {
    /// Hold `guard` for the iterator's lifetime (snapshot scans).
    pub fn with_guard(mut self, guard: Arc<SnapshotGuard>) -> BTreeRange {
        self._guard = Some(guard);
        self
    }

    /// Drop buffered entries at/after `hi` and mark done if we hit it.
    fn clip(&mut self) {
        if let Some(hi) = &self.hi {
            let end = self
                .buffered
                .partition_point(|e| e.as_slice() < hi.as_slice());
            if end < self.buffered.len() {
                self.buffered.truncate(end);
                self.done = true;
            }
        }
    }
}

impl Iterator for BTreeRange {
    type Item = StorageResult<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.pos < self.buffered.len() {
                let item = self.buffered[self.pos].clone();
                self.pos += 1;
                return Some(Ok(item));
            }
            if self.done || self.next_leaf == NO_SIBLING {
                return None;
            }
            let pid = PageId(self.next_leaf);
            let res = self
                .tree_pool
                .with_page_view(self.fid, pid, self.view, |d| BTree::parse_node(pid, d))
                .and_then(|r| r.map(|n| (n.extra, n.entries)));
            match res {
                Ok((sibling, entries)) => {
                    self.next_leaf = sibling;
                    self.buffered = entries;
                    self.pos = 0;
                    self.clip();
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::PageFile;
    use std::path::PathBuf;

    fn tree(name: &str, frames: usize) -> BTree {
        let d = std::env::temp_dir().join(format!("coral-btree-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p: PathBuf = d.join(name);
        let _ = std::fs::remove_file(&p);
        let pool = Arc::new(BufferPool::new(frames));
        let fid = FileId(0);
        pool.register_file(fid, PageFile::open(&p).unwrap());
        BTree::open(pool, fid).unwrap()
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
        assert!(t.depth().unwrap() >= 2, "tree actually split");
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
        let d = std::env::temp_dir().join(format!("coral-btree-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join("reopen.bt");
        let _ = std::fs::remove_file(&p);
        {
            let pool = Arc::new(BufferPool::new(16));
            pool.register_file(FileId(0), PageFile::open(&p).unwrap());
            let t = BTree::open(Arc::clone(&pool), FileId(0)).unwrap();
            for i in 0..300u32 {
                t.insert(&key(i)).unwrap();
            }
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(16));
            pool.register_file(FileId(0), PageFile::open(&p).unwrap());
            let t = BTree::open(pool, FileId(0)).unwrap();
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
        assert!(t.depth().unwrap() >= 2);
    }
}
