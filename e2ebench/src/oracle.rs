//! Independent reference answers. Nothing here calls the engine: plain
//! breadth-first search, a memoised same-generation walk, Dijkstra and
//! a `HashMap` model of the stored relation.

use crate::gen::{Edge, SameGen};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Order-independent fingerprint of a set of integer rows: count plus
/// the wrapping sum of a per-row hash, so answers can be compared
/// without sorting 10⁵ tuples per op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: u64,
    pub sum: u64,
}

impl Fingerprint {
    pub fn add(&mut self, row: &[i64]) {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for &x in row {
            h = (h ^ x as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 29;
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    pub fn remove(&mut self, other: Fingerprint) {
        self.count -= other.count;
        self.sum = self.sum.wrapping_sub(other.sum);
    }

    pub fn merge(&mut self, other: Fingerprint) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

pub fn adjacency(edges: &[Edge]) -> HashMap<u32, Vec<u32>> {
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    adj
}

/// Nodes reachable from `src` by one or more edges (so `src` itself
/// only when it lies on a cycle), the meaning of `path(src, Y)`.
pub fn reach(adj: &HashMap<u32, Vec<u32>>, src: u32) -> Vec<u32> {
    let mut seen = HashSet::new();
    let mut queue: Vec<u32> = Vec::new();
    let mut frontier = vec![src];
    while let Some(n) = frontier.pop() {
        for &m in adj.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            if seen.insert(m) {
                queue.push(m);
                frontier.push(m);
            }
        }
    }
    queue
}

/// Fingerprint of the whole transitive closure `path(X, Y)`.
pub fn closure(edges: &[Edge]) -> Fingerprint {
    let adj = adjacency(edges);
    let mut fp = Fingerprint::default();
    for &src in adj.keys() {
        for dst in reach(&adj, src) {
            fp.add(&[src as i64, dst as i64]);
        }
    }
    fp
}

/// `sg(X, Y) :- flat(X, Y).  sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).`
/// walked directly, memoised per node (the data is layered, so the
/// recursion ends at the top layer).
#[derive(Clone)]
pub struct SgOracle {
    up: HashMap<u32, Vec<u32>>,
    flat: HashMap<u32, Vec<u32>>,
    down: HashMap<u32, Vec<u32>>,
    memo: HashMap<u32, Vec<u32>>,
}

impl SgOracle {
    pub fn new(data: &SameGen) -> SgOracle {
        SgOracle {
            up: adjacency(&data.up),
            flat: adjacency(&data.flat),
            down: adjacency(&data.down),
            memo: HashMap::new(),
        }
    }

    pub fn same_generation(&mut self, x: u32) -> Vec<u32> {
        if let Some(hit) = self.memo.get(&x) {
            return hit.clone();
        }
        let mut out: HashSet<u32> = self.flat.get(&x).into_iter().flatten().copied().collect();
        for u in self.up.get(&x).cloned().unwrap_or_default() {
            for v in self.same_generation(u) {
                out.extend(self.down.get(&v).into_iter().flatten());
            }
        }
        let mut out: Vec<u32> = out.into_iter().collect();
        out.sort_unstable();
        self.memo.insert(x, out.clone());
        out
    }
}

/// Cheapest cost from `src` to every node over paths of one or more
/// edges, the meaning of `sp(src, Y, C)`; the entry for `src` itself is
/// its cheapest cycle.
pub fn dijkstra(adj: &HashMap<u32, Vec<(u32, u32)>>, src: u32) -> HashMap<u32, u64> {
    let mut dist: HashMap<u32, u64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    for &(to, cost) in adj.get(&src).map(Vec::as_slice).unwrap_or(&[]) {
        heap.push(Reverse((cost as u64, to)));
    }
    while let Some(Reverse((d, n))) = heap.pop() {
        if dist.contains_key(&n) {
            continue;
        }
        dist.insert(n, d);
        for &(to, cost) in adj.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
            if !dist.contains_key(&to) {
                heap.push(Reverse((d + cost as u64, to)));
            }
        }
    }
    dist
}

pub fn costed_adjacency(edges: &[(u32, u32, u32)]) -> HashMap<u32, Vec<(u32, u32)>> {
    let mut adj: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
    for &(a, b, c) in edges {
        adj.entry(a).or_default().push((b, c));
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reach_excludes_the_source_unless_on_a_cycle() {
        let adj = adjacency(&[(0, 1), (1, 2), (2, 1)]);
        let mut r = reach(&adj, 0);
        r.sort_unstable();
        assert_eq!(r, vec![1, 2]);
        let mut r = reach(&adj, 1);
        r.sort_unstable();
        assert_eq!(r, vec![1, 2]);
        assert_eq!(closure(&[(0, 1), (1, 2), (2, 1)]).count, 6);
    }

    #[test]
    fn dijkstra_reports_the_cheapest_cycle_for_the_source() {
        let adj = costed_adjacency(&[(0, 1, 5), (1, 0, 2), (0, 2, 1), (2, 1, 1)]);
        let d = dijkstra(&adj, 0);
        assert_eq!(d[&1], 2);
        assert_eq!(d[&2], 1);
        assert_eq!(d[&0], 4);
    }

    #[test]
    fn same_generation_of_a_two_layer_tree() {
        let data = crate::gen::same_gen(2, 4);
        let mut o = SgOracle::new(&data);
        // Nodes 0 and 1 share parent 4; flat(4, 4).
        assert_eq!(o.same_generation(0), vec![0, 1]);
        assert_eq!(o.same_generation(2), vec![2, 3]);
    }
}
