//! Storage integrity checking.
//!
//! [`check_server`] walks every file in a server's catalog and runs the
//! structural check appropriate to its format: files whose page 0 carries
//! the B+-tree magic get the full tree walk ([`crate::BTree::check`]),
//! everything else is checked page-by-page as a heap file
//! ([`crate::HeapFile::check`]). The result is a [`CheckReport`] listing
//! every violation found — an empty report after crash recovery is the
//! oracle the `coral-sim` crash matrix asserts, and the `:check` REPL
//! command prints the same report for operators.
//!
//! Checks are read-only. I/O errors propagate as `Err`; a *violation* is
//! a property of the bytes on disk, reported in the `problems` list.

use crate::error::StorageResult;
use crate::file::PageId;
use crate::server::StorageClient;

const BTREE_MAGIC: &[u8; 8] = b"CORALBT1";

/// Outcome of a storage integrity check.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Files examined, with the format each was checked as.
    pub checked: Vec<(String, FileKind)>,
    /// Violations found, each prefixed with the file name.
    pub problems: Vec<String>,
}

/// How a catalog file was classified for checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Page 0 carries the B+-tree magic.
    BTree,
    /// Checked as slotted heap pages.
    Heap,
    /// Zero pages allocated; nothing to check.
    Empty,
}

impl CheckReport {
    /// True iff no violations were found.
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }

    /// Human-readable rendering (the `:check` command's output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, kind) in &self.checked {
            let kind = match kind {
                FileKind::BTree => "btree",
                FileKind::Heap => "heap",
                FileKind::Empty => "empty",
            };
            out.push_str(&format!("checked {name} ({kind})\n"));
        }
        if self.is_clean() {
            out.push_str(&format!("ok: {} files, no problems\n", self.checked.len()));
        } else {
            for p in &self.problems {
                out.push_str(&format!("PROBLEM: {p}\n"));
            }
            out.push_str(&format!(
                "FAILED: {} problem(s) in {} files\n",
                self.problems.len(),
                self.checked.len()
            ));
        }
        out
    }
}

/// Check every file in the server's catalog. See the module docs.
pub fn check_server(server: &StorageClient) -> StorageResult<CheckReport> {
    let mut report = CheckReport::default();
    for name in server.list_files() {
        let fid = server.file(&name)?;
        let pool = server.pool();
        if pool.num_pages(fid)? == 0 {
            report.checked.push((name, FileKind::Empty));
            continue;
        }
        let is_btree = pool.with_page(fid, PageId(0), |d| &d[0..8] == BTREE_MAGIC)?;
        let problems = if is_btree {
            report.checked.push((name.clone(), FileKind::BTree));
            server.btree(&name)?.check()?
        } else {
            report.checked.push((name.clone(), FileKind::Heap));
            server.heap(&name)?.check()?
        };
        report
            .problems
            .extend(problems.into_iter().map(|p| format!("{name}: {p}")));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::StorageServer;
    use std::path::PathBuf;

    fn fresh_dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("coral-check-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn clean_server_checks_clean() {
        let dir = fresh_dir("clean");
        let srv = StorageServer::open(&dir, 32).unwrap();
        let heap = srv.heap("r.data").unwrap();
        for i in 0..300u32 {
            heap.insert(format!("rec{i}").as_bytes()).unwrap();
        }
        let tree = srv.btree("r.pk").unwrap();
        for i in 0..300u32 {
            tree.insert(format!("key{i:06}").as_bytes()).unwrap();
        }
        let report = check_server(&srv).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.checked.len(), 2);
        assert!(report
            .checked
            .iter()
            .any(|(n, k)| n == "r.pk" && *k == FileKind::BTree));
        assert!(report
            .checked
            .iter()
            .any(|(n, k)| n == "r.data" && *k == FileKind::Heap));
        assert!(report.render().contains("no problems"));
    }

    #[test]
    fn corrupted_btree_page_is_reported() {
        let dir = fresh_dir("corrupt");
        let srv = StorageServer::open(&dir, 32).unwrap();
        let tree = srv.btree("t.pk").unwrap();
        for i in 0..2000u32 {
            tree.insert(format!("key{i:06}").as_bytes()).unwrap();
        }
        // Smash an interior byte of page 2 (some node of the tree).
        let fid = tree.file_id();
        let txn = srv.begin().unwrap();
        srv.pool()
            .with_page_mut(fid, PageId(2), txn, |d| {
                d[0..64].fill(0xEE);
            })
            .unwrap();
        srv.commit(txn).unwrap();
        let report = check_server(&srv).unwrap();
        assert!(!report.is_clean());
        assert!(report.render().contains("PROBLEM"));
        assert!(report.problems.iter().all(|p| p.starts_with("t.pk")));
    }

    #[test]
    fn corrupted_heap_slot_directory_is_reported() {
        let dir = fresh_dir("heapbad");
        let srv = StorageServer::open(&dir, 32).unwrap();
        let heap = srv.heap("h.data").unwrap();
        for i in 0..50u32 {
            heap.insert(format!("rec{i}").as_bytes()).unwrap();
        }
        let fid = heap.file_id();
        let txn = srv.begin().unwrap();
        srv.pool()
            .with_page_mut(fid, PageId(0), txn, |d| {
                // Garbage slot count.
                d[0..2].copy_from_slice(&0xFFF0u16.to_le_bytes());
            })
            .unwrap();
        srv.commit(txn).unwrap();
        let report = check_server(&srv).unwrap();
        assert!(!report.is_clean());
        assert!(report.problems[0].contains("h.data"));
    }
}
