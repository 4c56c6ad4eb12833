//! Property tests over seeded [`TestRng`] inputs: the B+-tree and heap
//! file against in-memory models.

use coral_storage::{StorageClient, StorageServer};
use coral_term::testutil::TestRng;
use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const CASES: u64 = 48;

static FILES: AtomicU64 = AtomicU64::new(0);

fn dir(prefix: &str) -> PathBuf {
    std::env::temp_dir().join(format!("coral-prop-{prefix}-{}", std::process::id()))
}

fn fresh_store(prefix: &str, frames: usize) -> StorageClient {
    let p = dir(prefix).join(FILES.fetch_add(1, Ordering::Relaxed).to_string());
    StorageServer::open(&p, frames).unwrap()
}

/// 1–5 bytes over a small alphabet, so keys collide often.
fn item(rng: &mut TestRng) -> Vec<u8> {
    (0..rng.gen_range(1, 6))
        .map(|_| rng.gen_range(0, 8) as u8)
        .collect()
}

#[test]
fn btree_matches_btreeset_model() {
    let mut rng = TestRng::new(1);
    for case in 0..CASES {
        let tree = fresh_store("bt", 8).btree("t").unwrap(); // tiny pool: evictions
        let mut model: BTreeSet<Vec<u8>> = BTreeSet::new();
        for _ in 0..rng.gen_range(1, 120) {
            let x = item(&mut rng);
            match rng.gen_range(0, 5) {
                0..=2 => assert_eq!(tree.insert(&x).unwrap(), model.insert(x.clone())),
                3 => assert_eq!(tree.delete(&x).unwrap(), model.remove(&x)),
                _ => assert_eq!(tree.contains(&x).unwrap(), model.contains(&x)),
            }
        }
        assert_eq!(tree.len().unwrap(), model.len() as u64, "case {case}");
        let scanned: Vec<Vec<u8>> = tree.scan_all().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(
            scanned,
            model.iter().cloned().collect::<Vec<_>>(),
            "case {case}"
        );
        let (a, b) = (item(&mut rng), item(&mut rng));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let got: Vec<Vec<u8>> = tree
            .range(&lo, Some(&hi))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        let expect: Vec<Vec<u8>> = model.range(lo.clone()..hi.clone()).cloned().collect();
        assert_eq!(got, expect, "case {case}: range {lo:?}..{hi:?}");
    }
    let _ = std::fs::remove_dir_all(dir("bt"));
}

#[test]
fn heap_matches_map_model() {
    let mut rng = TestRng::new(2);
    for case in 0..CASES {
        let heap = fresh_store("heap", 4).heap("h").unwrap();
        let mut model = HashMap::new();
        let mut rids = Vec::new();
        for _ in 0..rng.gen_range(1, 60) {
            let rec: Vec<u8> = (0..rng.gen_range(0, 300))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let rid = heap.insert(&rec).unwrap();
            model.insert(rid, rec);
            rids.push(rid);
        }
        for rid in rids {
            if rng.gen_bool(0.5) && model.remove(&rid).is_some() {
                heap.delete(rid).unwrap();
            }
        }
        for (rid, rec) in &model {
            assert_eq!(&heap.get(*rid).unwrap(), rec, "case {case}");
        }
        let mut scanned: Vec<_> = heap.scan().map(|r| r.unwrap()).collect();
        scanned.sort();
        let mut expect: Vec<_> = model.into_iter().collect();
        expect.sort();
        assert_eq!(scanned, expect, "case {case}");
    }
    let _ = std::fs::remove_dir_all(dir("heap"));
}
