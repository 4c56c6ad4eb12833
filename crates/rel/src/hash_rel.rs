//! In-memory hash relations with marks, indices and aggregate selections.
//!
//! This is the workhorse relation of the system, implementing three
//! paper mechanisms:
//!
//! * **Marks and subsidiary relations** (§3.2): "the ability to get marks
//!   into a relation, and distinguish between facts inserted after a mark
//!   was obtained and facts inserted before … The implementation of this
//!   extension involves creating subsidiary relations, one corresponding
//!   to each interval between marks, and transparently providing the
//!   union of the subsidiary relations corresponding to the desired range
//!   of marks." Every variant of semi-naive evaluation in `coral-core`
//!   reads deltas through [`HashRelation::scan_range`]. "A benefit of this
//!   organization is that it does not interfere with the indexing
//!   mechanisms … the indexing mechanisms are used on each subsidiary
//!   relation" — each subsidiary here carries its own hash buckets.
//!
//! * **Argument-form and pattern-form indices** (§3.3): multi-attribute
//!   hash indices, with terms containing variables hashed to the special
//!   `var` bucket so non-ground facts remain reachable; pattern-form
//!   indices retrieve "precisely those facts that match a specified
//!   pattern", e.g. the first argument matching `[X|[1,2,3]]`.
//!
//! * **Aggregate selections** (§5.5.2): insert-time groupwise `min`/
//!   `max`/`any` pruning. Inserting a costlier fact is refused; inserting
//!   a cheaper fact evicts the now-dominated group members. This is what
//!   makes the Figure 3 shortest-path program terminate on cyclic graphs.

use crate::error::{RelError, RelResult};
use crate::relation::{iter_from_vec, DupSemantics, IndexSpec, Relation, TupleIter};
use coral_profile::Counter;
use coral_term::bindenv::EnvSet;
use coral_term::term::VarId;
use coral_term::{unifies_with, unify, FastHasher, FastMap, FastState, Term, Tuple};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// A position in the mark sequence: the boundary *before* subsidiary
/// relation `0.0`. `Mark(0)` precedes everything.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Mark(pub usize);

/// Kind of aggregate selection (§5.5.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggSelKind {
    /// Keep only tuples whose target column is groupwise minimal.
    Min,
    /// Keep only tuples whose target column is groupwise maximal.
    Max,
    /// Keep one arbitrary witness per group (`any(P)` — the LDL-style
    /// choice of §5.5.2).
    Any,
}

/// An insert-time aggregate selection attached to a relation.
///
/// `@aggregate_selection p(X,Y,P,C) (X,Y) min(C)` becomes
/// `group_cols = [0,1]`, `kind = Min`, `target_col = 3`.
#[derive(Clone, Debug)]
pub struct AggregateSelection {
    /// Columns forming the group key.
    pub group_cols: Vec<usize>,
    /// The selection kind.
    pub kind: AggSelKind,
    /// The column minimized/maximized, or the `any` witness column.
    pub target_col: usize,
}

/// Tuple address: (subsidiary, position).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Addr {
    sub: u32,
    pos: u32,
}

/// Hash of one ground key component.
pub(crate) fn term_key_hash(t: &Term) -> u64 {
    FastState::default().hash_one(t)
}

/// The bucket component for terms containing variables — the paper's
/// special `var` hash value.
const VAR_COMPONENT: u64 = 0x76_61_72_5f_76_61_72_21; // "var_var!"

/// Bucket key of a component sequence, folded as the components arrive
/// so no per-key vector is built.
#[derive(Default)]
pub(crate) struct KeyHasher {
    h: FastHasher,
    has_var: bool,
}

impl KeyHasher {
    /// Fold in the component for `t`: its hash if ground, else the
    /// `var` component.
    pub(crate) fn push_term(&mut self, t: &Term) {
        if t.is_ground() {
            self.push(term_key_hash(t));
        } else {
            self.push(VAR_COMPONENT);
        }
    }

    pub(crate) fn push(&mut self, component: u64) {
        self.has_var |= component == VAR_COMPONENT;
        self.h.write_u64(component);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.h.finish()
    }
}

pub(crate) fn combine(components: &[u64]) -> u64 {
    let mut k = KeyHasher::default();
    for &c in components {
        k.push(c);
    }
    k.finish()
}

// ---------------------------------------------------------------------
// Index definitions and per-subsidiary index data
// ---------------------------------------------------------------------

enum IndexDef {
    Args(Vec<usize>),
    Pattern {
        pattern: Vec<Term>,
        key_vars: Vec<VarId>,
        nvars: u32,
    },
}

impl IndexDef {
    fn same_as(&self, other: &IndexDef) -> bool {
        match (self, other) {
            (IndexDef::Args(a), IndexDef::Args(b)) => a == b,
            (
                IndexDef::Pattern {
                    pattern: p1,
                    key_vars: k1,
                    ..
                },
                IndexDef::Pattern {
                    pattern: p2,
                    key_vars: k2,
                    ..
                },
            ) => p1 == p2 && k1 == k2,
            _ => false,
        }
    }
}

impl IndexDef {
    /// The bucket key of a stored tuple and whether it used the `var`
    /// component, or `None` if the tuple is unreachable through this
    /// index (pattern indices only).
    fn key_for_tuple(&self, tuple: &Tuple) -> Option<(u64, bool)> {
        let mut key = KeyHasher::default();
        match self {
            IndexDef::Args(cols) => {
                for &c in cols {
                    key.push_term(&tuple.args()[c]);
                }
            }
            IndexDef::Pattern {
                pattern,
                key_vars,
                nvars,
            } => {
                // Unify the index pattern with the tuple; tuples that do
                // not unify cannot match any instance of the pattern and
                // are simply not indexed here.
                let mut envs = EnvSet::new();
                let ep = envs.push_frame(*nvars as usize);
                let et = envs.push_frame(tuple.nvars() as usize);
                for (p, t) in pattern.iter().zip(tuple.args()) {
                    if !unify(&mut envs, p, ep, t, et) {
                        return None;
                    }
                }
                for kv in key_vars {
                    key.push_term(&envs.resolve(&Term::Var(*kv), ep));
                }
            }
        }
        Some((key.finish(), key.has_var))
    }

    /// The ground key components for a *query* pattern, if this index is
    /// applicable (all indexed positions / key variables bound to ground
    /// terms by the query).
    fn components_for_query(&self, query: &[Term]) -> Option<Vec<u64>> {
        match self {
            IndexDef::Args(cols) => {
                let mut out = Vec::with_capacity(cols.len());
                for &c in cols {
                    let t = &query[c];
                    if t.is_ground() {
                        out.push(term_key_hash(t));
                    } else {
                        return None;
                    }
                }
                Some(out)
            }
            IndexDef::Pattern {
                pattern,
                key_vars,
                nvars,
            } => {
                let mut envs = EnvSet::new();
                let ep = envs.push_frame(*nvars as usize);
                let mut qvars = 0;
                for q in query {
                    qvars = qvars.max(q.var_bound());
                }
                let eq = envs.push_frame(qvars as usize);
                for (p, q) in pattern.iter().zip(query) {
                    if !unify(&mut envs, p, ep, q, eq) {
                        return None;
                    }
                }
                let mut out = Vec::with_capacity(key_vars.len());
                for kv in key_vars {
                    let resolved = envs.resolve(&Term::Var(*kv), ep);
                    if resolved.is_ground() {
                        out.push(term_key_hash(&resolved));
                    } else {
                        return None;
                    }
                }
                Some(out)
            }
        }
    }

    fn width(&self) -> usize {
        match self {
            IndexDef::Args(cols) => cols.len(),
            IndexDef::Pattern { key_vars, .. } => key_vars.len(),
        }
    }
}

#[derive(Default, Clone)]
struct IndexData {
    buckets: FastMap<u64, Vec<u32>>,
    /// Whether any stored key used the `var` component (enables the
    /// combination enumeration on lookup).
    has_var_keys: bool,
}

#[derive(Default, Clone)]
struct Subsidiary {
    tuples: Vec<Option<Tuple>>,
    live: usize,
    indexes: Vec<IndexData>,
}

struct AggGroup {
    best: Term,
    addrs: Vec<Addr>,
}

struct Inner {
    /// Subsidiaries are `Arc`-shared with open
    /// [`HashRelation::scan_owned`] cursors: mutation goes through
    /// `Arc::make_mut`, so the open (refcount-1) subsidiary is updated in
    /// place while any subsidiary a live cursor still holds is copied on
    /// write.
    subs: Vec<Arc<Subsidiary>>,
    defs: Vec<IndexDef>,
    dup: DupSemantics,
    /// Exact-duplicate map (Set modes only).
    seen: FastMap<Tuple, Addr>,
    /// Addresses of stored non-ground tuples, for subsumption checks and
    /// conservative lookups.
    nonground: Vec<Addr>,
    aggsels: Vec<AggregateSelection>,
    agg_state: Vec<FastMap<Tuple, AggGroup>>,
    live: usize,
    /// Planner statistics, maintained incrementally by `insert` /
    /// `delete_addr` (see coral-stats).
    stats: coral_stats::RelStats,
}

/// The in-memory hash relation (§3.2).
pub struct HashRelation {
    arity: usize,
    inner: RefCell<Inner>,
}

impl HashRelation {
    /// An empty hash relation with CORAL's default subsumption-checking
    /// set semantics.
    pub fn new(arity: usize) -> HashRelation {
        HashRelation::with_semantics(arity, DupSemantics::SetSubsuming)
    }

    /// An empty hash relation with explicit duplicate semantics.
    pub fn with_semantics(arity: usize, dup: DupSemantics) -> HashRelation {
        HashRelation {
            arity,
            inner: RefCell::new(Inner {
                subs: vec![Arc::new(Subsidiary::default())],
                defs: Vec::new(),
                dup,
                seen: FastMap::default(),
                nonground: Vec::new(),
                aggsels: Vec::new(),
                agg_state: Vec::new(),
                live: 0,
                stats: coral_stats::RelStats::new(arity),
            }),
        }
    }

    /// Attach an aggregate selection. Must be called while the relation
    /// is empty (selections are insert-time filters).
    pub fn add_aggregate_selection(&self, sel: AggregateSelection) -> RelResult<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.live != 0 {
            return Err(RelError::BadIndex(
                "aggregate selections must be declared before facts are inserted".into(),
            ));
        }
        for &c in sel.group_cols.iter().chain([&sel.target_col]) {
            if c >= self.arity {
                return Err(RelError::BadIndex(format!(
                    "aggregate selection column {c} out of range for arity {}",
                    self.arity
                )));
            }
        }
        inner.aggsels.push(sel);
        inner.agg_state.push(FastMap::default());
        Ok(())
    }

    /// Place a mark: facts inserted afterwards are distinguishable from
    /// facts inserted before (§3.2). Returns the boundary.
    pub fn mark(&self) -> Mark {
        let mut inner = self.inner.borrow_mut();
        // Avoid piling up empty subsidiaries.
        if inner.subs.last().map(|s| s.tuples.is_empty()) == Some(true) {
            return Mark(inner.subs.len() - 1);
        }
        coral_profile::bump(Counter::MarkAdvances, 1);
        let ndefs = inner.defs.len();
        inner.subs.push(Arc::new(Subsidiary {
            tuples: Vec::new(),
            live: 0,
            indexes: (0..ndefs).map(|_| IndexData::default()).collect(),
        }));
        Mark(inner.subs.len() - 1)
    }

    /// The boundary after everything currently inserted.
    pub fn current_mark(&self) -> Mark {
        let inner = self.inner.borrow();
        let last = inner.subs.last().unwrap();
        if last.tuples.is_empty() {
            Mark(inner.subs.len() - 1)
        } else {
            Mark(inner.subs.len())
        }
    }

    /// Number of live tuples inserted in `[from, to)` (`to = None` means
    /// "to the end").
    pub fn len_range(&self, from: Mark, to: Option<Mark>) -> usize {
        let inner = self.inner.borrow();
        let end = to.map(|m| m.0).unwrap_or(inner.subs.len());
        inner.subs[from.0.min(inner.subs.len())..end.min(inner.subs.len())]
            .iter()
            .map(|s| s.live)
            .sum()
    }

    /// The live tuples of the subsidiaries in `[from, to)`, in insertion
    /// order.
    pub fn scan_range(&self, from: Mark, to: Option<Mark>) -> Vec<Tuple> {
        let inner = self.inner.borrow();
        let end = to.map(|m| m.0).unwrap_or(inner.subs.len());
        let mut out = Vec::new();
        for s in &inner.subs[from.0.min(inner.subs.len())..end.min(inner.subs.len())] {
            out.extend(s.tuples.iter().filter_map(|t| t.clone()));
        }
        out
    }

    /// Indexed candidate lookup restricted to the subsidiaries in
    /// `[from, to)`.
    pub fn lookup_range(&self, pattern: &[Term], from: Mark, to: Option<Mark>) -> TupleIter {
        let inner = self.inner.borrow();
        let end = to
            .map(|m| m.0)
            .unwrap_or(inner.subs.len())
            .min(inner.subs.len());
        let start = from.0.min(end);
        iter_from_vec(lookup_slice(&inner.defs, &inner.subs, pattern, start, end))
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

    /// Remove the tuple at `addr` from all bookkeeping (the slot becomes
    /// a tombstone; index entries are skipped lazily).
    fn delete_addr(inner: &mut Inner, addr: Addr) -> Option<Tuple> {
        let sub = Arc::make_mut(&mut inner.subs[addr.sub as usize]);
        let tuple = sub.tuples[addr.pos as usize].take()?;
        sub.live -= 1;
        inner.live -= 1;
        inner.stats.on_delete(tuple.args());
        crate::meter::add_deleted(1);
        inner.seen.remove(&tuple);
        if !tuple.is_ground() {
            if let Some(i) = inner.nonground.iter().position(|a| *a == addr) {
                inner.nonground.swap_remove(i);
            }
        }
        for (sel, state) in inner.aggsels.iter().zip(inner.agg_state.iter_mut()) {
            let key = tuple.project(&sel.group_cols);
            if let Some(group) = state.get_mut(&key) {
                if let Some(i) = group.addrs.iter().position(|a| *a == addr) {
                    group.addrs.swap_remove(i);
                }
                if group.addrs.is_empty() {
                    state.remove(&key);
                }
            }
        }
        Some(tuple)
    }

    /// An owned cursor over the current contents, in insertion order:
    /// O(#subsidiaries) `Arc` clones at open, tuples cloned one at a time
    /// as they are pulled, each subsidiary let go once it is behind the
    /// cursor. A write while the cursor is open copies at most the
    /// subsidiaries it touches; the cursor keeps seeing the contents as
    /// of open. Counts one `full_scans`.
    pub fn scan_owned(&self) -> impl Iterator<Item = Tuple> {
        coral_profile::bump(Counter::FullScans, 1);
        let subs = self.inner.borrow().subs.clone();
        subs.into_iter()
            .flat_map(|s| (0..s.tuples.len()).filter_map(move |i| s.tuples[i].clone()))
    }

    /// Whether an exact variant of `tuple` is stored right now (always
    /// `false` for multiset relations, whose duplicate map is not
    /// maintained).
    pub fn contains_exact(&self, tuple: &Tuple) -> bool {
        let inner = self.inner.borrow();
        inner.dup != DupSemantics::Multiset && inner.seen.contains_key(tuple)
    }

    /// Whether the contents are exactly a set of ground tuples: set
    /// semantics, no stored non-ground tuple, and the duplicate map
    /// covering every live tuple. Then [`HashRelation::contains_exact`]
    /// and the `bool` results of `insert`/`delete` decide membership.
    pub fn is_ground_set(&self) -> bool {
        let inner = self.inner.borrow();
        inner.dup != DupSemantics::Multiset
            && inner.nonground.is_empty()
            && inner.seen.len() == inner.live
    }

    /// The relation's duplicate semantics.
    pub fn dup_semantics(&self) -> DupSemantics {
        self.inner.borrow().dup
    }

    /// Whether any insert-time aggregate selection is attached.
    pub fn has_aggregate_selections(&self) -> bool {
        !self.inner.borrow().aggsels.is_empty()
    }

    /// The currently defined indices as respecifiable [`IndexSpec`]s.
    pub fn index_specs(&self) -> Vec<IndexSpec> {
        self.inner
            .borrow()
            .defs
            .iter()
            .map(|d| match d {
                IndexDef::Args(cols) => IndexSpec::Args(cols.clone()),
                IndexDef::Pattern {
                    pattern, key_vars, ..
                } => IndexSpec::Pattern {
                    pattern: pattern.clone(),
                    key_vars: key_vars.clone(),
                },
            })
            .collect()
    }
}

/// Indexed candidate lookup over the subsidiaries `[start, end)`.
/// Counts exactly one `index_probes` or `full_scans` per lookup.
fn lookup_slice(
    defs: &[IndexDef],
    subs: &[Arc<Subsidiary>],
    pattern: &[Term],
    start: usize,
    end: usize,
) -> Vec<Tuple> {
    // Choose the widest applicable index.
    let mut best: Option<(usize, Vec<u64>)> = None;
    for (i, def) in defs.iter().enumerate() {
        if let Some(components) = def.components_for_query(pattern) {
            let better = match &best {
                None => true,
                Some((b, _)) => def.width() > defs[*b].width(),
            };
            if better {
                best = Some((i, components));
            }
        }
    }
    coral_profile::bump(
        if best.is_some() {
            Counter::IndexProbes
        } else {
            Counter::FullScans
        },
        1,
    );
    let mut out = Vec::new();
    match best {
        Some((idx, components)) => {
            for s in &subs[start..end] {
                let data = &s.indexes[idx];
                // Exact-key bucket.
                if let Some(poss) = data.buckets.get(&combine(&components)) {
                    for &p in poss {
                        if let Some(t) = &s.tuples[p as usize] {
                            out.push(t.clone());
                        }
                    }
                }
                // Var-bucket combinations, only if some stored key
                // contains the var component.
                if data.has_var_keys {
                    let k = components.len();
                    let mut combo = components.clone();
                    for mask in 1u32..(1 << k) {
                        for (j, c) in combo.iter_mut().enumerate() {
                            *c = if mask & (1 << j) != 0 {
                                VAR_COMPONENT
                            } else {
                                components[j]
                            };
                        }
                        if let Some(poss) = data.buckets.get(&combine(&combo)) {
                            for &p in poss {
                                if let Some(t) = &s.tuples[p as usize] {
                                    out.push(t.clone());
                                }
                            }
                        }
                    }
                }
            }
        }
        None => {
            // No applicable index: filtered scan, keeping non-ground
            // tuples as candidates (they may unify with anything).
            for s in &subs[start..end] {
                for t in s.tuples.iter().flatten() {
                    if !t.is_ground() || unifies_with(pattern, t) {
                        out.push(t.clone());
                    }
                }
            }
        }
    }
    out
}

impl Relation for HashRelation {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn len(&self) -> usize {
        self.inner.borrow().live
    }

    fn insert(&self, tuple: Tuple) -> RelResult<bool> {
        self.check_arity(&tuple)?;
        let mut inner = self.inner.borrow_mut();
        // Duplicate / subsumption checks (§4.2).
        match inner.dup {
            DupSemantics::Multiset => {}
            DupSemantics::Set => {
                if inner.seen.contains_key(&tuple) {
                    return Ok(false);
                }
            }
            DupSemantics::SetSubsuming => {
                if inner.seen.contains_key(&tuple) {
                    return Ok(false);
                }
                for addr in &inner.nonground {
                    if let Some(existing) = &inner.subs[addr.sub as usize].tuples[addr.pos as usize]
                    {
                        if existing.subsumes(&tuple) {
                            return Ok(false);
                        }
                    }
                }
            }
        }
        // Aggregate selections: all must admit the tuple; improvements
        // evict dominated group members.
        let mut evict: Vec<Addr> = Vec::new();
        for (i, sel) in inner.aggsels.iter().enumerate() {
            let key = tuple.project(&sel.group_cols);
            let newval = &tuple.args()[sel.target_col];
            match inner.agg_state[i].get(&key) {
                None => {}
                Some(group) => match sel.kind {
                    AggSelKind::Any => return Ok(false),
                    AggSelKind::Min => match newval.order_cmp(&group.best) {
                        Ordering::Greater => return Ok(false),
                        Ordering::Equal => {}
                        Ordering::Less => evict.extend(group.addrs.iter().copied()),
                    },
                    AggSelKind::Max => match newval.order_cmp(&group.best) {
                        Ordering::Less => return Ok(false),
                        Ordering::Equal => {}
                        Ordering::Greater => evict.extend(group.addrs.iter().copied()),
                    },
                },
            }
        }
        evict.sort_by_key(|a| (a.sub, a.pos));
        evict.dedup();
        for addr in evict {
            Self::delete_addr(&mut inner, addr);
        }
        // Append to the open subsidiary. `make_mut` mutates in place when
        // the subsidiary is unshared (the common case) and copies on
        // write when an open cursor still holds it.
        tuple.intern_ground();
        let inner = &mut *inner;
        let sub_idx = inner.subs.len() - 1;
        let pos = inner.subs[sub_idx].tuples.len() as u32;
        let addr = Addr {
            sub: sub_idx as u32,
            pos,
        };
        // Index maintenance on the open subsidiary.
        {
            let defs = &inner.defs;
            let open = Arc::make_mut(&mut inner.subs[sub_idx]);
            for (i, def) in defs.iter().enumerate() {
                if let Some((key, has_var)) = def.key_for_tuple(&tuple) {
                    let data = &mut open.indexes[i];
                    data.buckets.entry(key).or_default().push(pos);
                    data.has_var_keys |= has_var;
                }
            }
        }
        if inner.dup != DupSemantics::Multiset {
            inner.seen.insert(tuple.clone(), addr);
        }
        if !tuple.is_ground() {
            inner.nonground.push(addr);
        }
        for (sel, state) in inner.aggsels.iter().zip(inner.agg_state.iter_mut()) {
            let key = tuple.project(&sel.group_cols);
            let newval = tuple.args()[sel.target_col].clone();
            state
                .entry(key)
                .and_modify(|g| {
                    g.addrs.push(addr);
                    g.best = newval.clone();
                })
                .or_insert_with(|| AggGroup {
                    best: newval.clone(),
                    addrs: vec![addr],
                });
        }
        inner.stats.on_insert(tuple.args());
        let open = Arc::make_mut(&mut inner.subs[sub_idx]);
        open.tuples.push(Some(tuple));
        open.live += 1;
        inner.live += 1;
        crate::meter::add_tuples(1);
        Ok(true)
    }

    fn delete(&self, tuple: &Tuple) -> RelResult<bool> {
        self.check_arity(tuple)?;
        let mut inner = self.inner.borrow_mut();
        let addr = if inner.dup != DupSemantics::Multiset {
            inner.seen.get(tuple).copied()
        } else {
            // Multiset: linear search for one copy.
            let mut found = None;
            'outer: for (si, s) in inner.subs.iter().enumerate() {
                for (pi, t) in s.tuples.iter().enumerate() {
                    if t.as_ref() == Some(tuple) {
                        found = Some(Addr {
                            sub: si as u32,
                            pos: pi as u32,
                        });
                        break 'outer;
                    }
                }
            }
            found
        };
        match addr {
            Some(addr) => Ok(Self::delete_addr(&mut inner, addr).is_some()),
            None => Ok(false),
        }
    }

    fn scan(&self) -> TupleIter {
        iter_from_vec(self.scan_range(Mark(0), None))
    }

    fn lookup(&self, pattern: &[Term]) -> TupleIter {
        let inner = self.inner.borrow();
        let end = inner.subs.len();
        iter_from_vec(lookup_slice(&inner.defs, &inner.subs, pattern, 0, end))
    }

    fn make_index(&self, spec: IndexSpec) -> RelResult<()> {
        let mut inner = self.inner.borrow_mut();
        let def = match spec {
            IndexSpec::Args(cols) => {
                if cols.is_empty() {
                    return Err(RelError::BadIndex("empty column list".into()));
                }
                if let Some(&c) = cols.iter().find(|&&c| c >= self.arity) {
                    return Err(RelError::BadIndex(format!(
                        "column {c} out of range for arity {}",
                        self.arity
                    )));
                }
                IndexDef::Args(cols)
            }
            IndexSpec::Pattern { pattern, key_vars } => {
                if pattern.len() != self.arity {
                    return Err(RelError::BadIndex(format!(
                        "pattern has {} terms, relation arity is {}",
                        pattern.len(),
                        self.arity
                    )));
                }
                if key_vars.is_empty() {
                    return Err(RelError::BadIndex("empty key variable list".into()));
                }
                let mut nvars = 0;
                for p in &pattern {
                    nvars = nvars.max(p.var_bound());
                }
                for kv in &key_vars {
                    if kv.0 >= nvars {
                        return Err(RelError::BadIndex(format!(
                            "key variable V{} does not occur in the pattern",
                            kv.0
                        )));
                    }
                }
                IndexDef::Pattern {
                    pattern,
                    key_vars,
                    nvars,
                }
            }
        };
        // Creating the same index twice is a no-op (the optimizer may
        // request it once per module call).
        if inner.defs.iter().any(|d| d.same_as(&def)) {
            return Ok(());
        }
        // Retrofit the index onto existing subsidiaries ("indices can
        // also be created at a later time", §2). Copy-on-write: a
        // subsidiary still held by an open cursor is cloned rather than
        // mutated.
        for s in &mut inner.subs {
            let mut data = IndexData::default();
            for (pos, t) in s.tuples.iter().enumerate() {
                if let Some((key, has_var)) = t.as_ref().and_then(|t| def.key_for_tuple(t)) {
                    data.has_var_keys |= has_var;
                    data.buckets.entry(key).or_default().push(pos as u32);
                }
            }
            Arc::make_mut(s).indexes.push(data);
        }
        inner.defs.push(def);
        Ok(())
    }

    fn describe(&self) -> String {
        let inner = self.inner.borrow();
        format!(
            "hash relation, arity {}, {} tuples, {} subsidiaries, {} indices, {:?}",
            self.arity,
            inner.live,
            inner.subs.len(),
            inner.defs.len(),
            inner.dup
        )
    }

    fn stats(&self) -> Option<coral_stats::RelStats> {
        Some(self.inner.borrow().stats.clone())
    }

    fn analyze(&self) -> RelResult<()> {
        let mut inner = self.inner.borrow_mut();
        let rows: Vec<Tuple> = inner
            .subs
            .iter()
            .flat_map(|s| s.tuples.iter().filter_map(|t| t.clone()))
            .collect();
        inner.stats = coral_stats::RelStats::analyze(self.arity, rows.iter().map(|t| t.args()));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(a: i64, b: i64) -> Tuple {
        Tuple::new(vec![Term::int(a), Term::int(b)])
    }

    #[test]
    fn insert_dedup_and_scan() {
        let r = HashRelation::new(2);
        assert!(r.insert(t2(1, 2)).unwrap());
        assert!(r.insert(t2(3, 4)).unwrap());
        assert!(!r.insert(t2(1, 2)).unwrap());
        assert_eq!(r.len(), 2);
        let mut all: Vec<Tuple> = r.scan().map(|x| x.unwrap()).collect();
        all.sort_by(|a, b| a.args()[0].order_cmp(&b.args()[0]));
        assert_eq!(all, vec![t2(1, 2), t2(3, 4)]);
    }

    #[test]
    fn marks_separate_generations() {
        let r = HashRelation::new(2);
        r.insert(t2(1, 1)).unwrap();
        let m1 = r.mark();
        r.insert(t2(2, 2)).unwrap();
        r.insert(t2(3, 3)).unwrap();
        let m2 = r.mark();
        r.insert(t2(4, 4)).unwrap();

        assert_eq!(r.scan_range(Mark(0), Some(m1)), vec![t2(1, 1)]);
        assert_eq!(r.scan_range(m1, Some(m2)), vec![t2(2, 2), t2(3, 3)]);
        assert_eq!(r.scan_range(m2, None), vec![t2(4, 4)]);
        assert_eq!(r.len_range(m1, Some(m2)), 2);
        assert_eq!(r.len_range(Mark(0), None), 4);
    }

    #[test]
    fn duplicate_check_spans_all_subsidiaries() {
        let r = HashRelation::new(2);
        r.insert(t2(1, 1)).unwrap();
        r.mark();
        assert!(!r.insert(t2(1, 1)).unwrap(), "dup check crosses marks");
    }

    #[test]
    fn repeated_marks_do_not_pile_up() {
        let r = HashRelation::new(2);
        let a = r.mark();
        let b = r.mark();
        assert_eq!(a, b);
        r.insert(t2(1, 1)).unwrap();
        let c = r.mark();
        assert!(c > b);
    }

    #[test]
    fn arg_index_lookup() {
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        for i in 0..100 {
            r.insert(t2(i % 10, i)).unwrap();
        }
        let hits: Vec<Tuple> = r
            .lookup(&[Term::int(3), Term::var(0)])
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|t| t.args()[0] == Term::int(3)));
    }

    #[test]
    fn index_added_later_covers_existing_tuples() {
        let r = HashRelation::new(2);
        for i in 0..50 {
            r.insert(t2(i % 5, i)).unwrap();
        }
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        let hits = r.lookup(&[Term::int(2), Term::var(0)]).count();
        assert_eq!(hits, 10);
    }

    #[test]
    fn index_works_across_marks() {
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        r.insert(t2(1, 10)).unwrap();
        let m = r.mark();
        r.insert(t2(1, 11)).unwrap();
        r.insert(t2(2, 20)).unwrap();
        let all = r.lookup(&[Term::int(1), Term::var(0)]).count();
        assert_eq!(all, 2);
        let recent: Vec<Tuple> = r
            .lookup_range(&[Term::int(1), Term::var(0)], m, None)
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(recent, vec![t2(1, 11)]);
    }

    #[test]
    fn var_bucket_keeps_nonground_reachable() {
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        r.insert(Tuple::new(vec![Term::var(0), Term::int(9)]))
            .unwrap();
        r.insert(t2(5, 5)).unwrap();
        // Query bound on column 0 must still surface the var fact.
        let hits = r.lookup(&[Term::int(5), Term::var(0)]).count();
        assert_eq!(hits, 2);
        let hits = r.lookup(&[Term::int(777), Term::var(0)]).count();
        assert_eq!(hits, 1, "only the var fact");
    }

    #[test]
    fn multi_column_index() {
        let r = HashRelation::new(3);
        r.make_index(IndexSpec::Args(vec![0, 2])).unwrap();
        for i in 0..60i64 {
            r.insert(Tuple::new(vec![
                Term::int(i % 3),
                Term::int(i),
                Term::int(i % 4),
            ]))
            .unwrap();
        }
        let hits: Vec<Tuple> = r
            .lookup(&[Term::int(1), Term::var(0), Term::int(2)])
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(hits.len(), 5);
        assert!(hits
            .iter()
            .all(|t| t.args()[0] == Term::int(1) && t.args()[2] == Term::int(2)));
    }

    #[test]
    fn pattern_index_on_subterm() {
        // emp(Name, addr(Street, City)) indexed on (Name, City) — §5.5.1.
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Pattern {
            pattern: vec![
                Term::var(0),
                Term::apps("addr", vec![Term::var(1), Term::var(2)]),
            ],
            key_vars: vec![VarId(0), VarId(2)],
        })
        .unwrap();
        let emp = |n: &str, s: &str, c: &str| {
            Tuple::new(vec![
                Term::str(n),
                Term::apps("addr", vec![Term::str(s), Term::str(c)]),
            ])
        };
        r.insert(emp("john", "main st", "madison")).unwrap();
        r.insert(emp("john", "oak ave", "chicago")).unwrap();
        r.insert(emp("mary", "elm dr", "madison")).unwrap();
        // "employees named john who stay in madison, without knowing
        // their street".
        let q = vec![
            Term::str("john"),
            Term::apps("addr", vec![Term::var(0), Term::str("madison")]),
        ];
        let hits: Vec<Tuple> = r.lookup(&q).map(|x| x.unwrap()).collect();
        assert_eq!(hits, vec![emp("john", "main st", "madison")]);
    }

    #[test]
    fn pattern_index_excludes_non_unifying_tuples() {
        let r = HashRelation::new(1);
        r.make_index(IndexSpec::Pattern {
            pattern: vec![Term::cons(Term::var(0), Term::var(1))],
            key_vars: vec![VarId(0)],
        })
        .unwrap();
        r.insert(Tuple::new(vec![Term::list(vec![
            Term::int(5),
            Term::int(1),
        ])]))
        .unwrap();
        r.insert(Tuple::new(vec![Term::str("not-a-list")])).unwrap();
        let q = vec![Term::cons(Term::int(5), Term::var(0))];
        let hits = r.lookup(&q).count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn subsumption_semantics() {
        let r = HashRelation::new(2);
        r.insert(Tuple::new(vec![Term::var(0), Term::int(1)]))
            .unwrap();
        assert!(!r.insert(t2(9, 1)).unwrap(), "subsumed by p(X, 1)");
        assert!(r.insert(t2(9, 2)).unwrap());
        // Plain Set semantics admits the instance.
        let r2 = HashRelation::with_semantics(2, DupSemantics::Set);
        r2.insert(Tuple::new(vec![Term::var(0), Term::int(1)]))
            .unwrap();
        assert!(r2.insert(t2(9, 1)).unwrap());
    }

    #[test]
    fn multiset_semantics_keeps_duplicates() {
        let r = HashRelation::with_semantics(2, DupSemantics::Multiset);
        assert!(r.insert(t2(1, 1)).unwrap());
        assert!(r.insert(t2(1, 1)).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.delete(&t2(1, 1)).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.delete(&t2(1, 1)).unwrap());
        assert!(!r.delete(&t2(1, 1)).unwrap());
    }

    #[test]
    fn aggregate_selection_min() {
        // path(X, Y, P, C) with (X, Y) min(C) — Figure 3's selection.
        let r = HashRelation::new(4);
        r.add_aggregate_selection(AggregateSelection {
            group_cols: vec![0, 1],
            kind: AggSelKind::Min,
            target_col: 3,
        })
        .unwrap();
        let path = |x: i64, y: i64, p: &str, c: i64| {
            Tuple::new(vec![Term::int(x), Term::int(y), Term::str(p), Term::int(c)])
        };
        assert!(r.insert(path(1, 2, "via-a", 10)).unwrap());
        // Costlier path discarded.
        assert!(!r.insert(path(1, 2, "via-b", 15)).unwrap());
        assert_eq!(r.len(), 1);
        // Cheaper path evicts the old one.
        assert!(r.insert(path(1, 2, "via-c", 5)).unwrap());
        assert_eq!(r.len(), 1);
        let only: Vec<Tuple> = r.scan().map(|x| x.unwrap()).collect();
        assert_eq!(only, vec![path(1, 2, "via-c", 5)]);
        // Equal cost is kept (a tie).
        assert!(r.insert(path(1, 2, "via-d", 5)).unwrap());
        assert_eq!(r.len(), 2);
        // Different group unaffected.
        assert!(r.insert(path(1, 3, "via-e", 100)).unwrap());
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn aggregate_selection_max() {
        let r = HashRelation::new(2);
        r.add_aggregate_selection(AggregateSelection {
            group_cols: vec![0],
            kind: AggSelKind::Max,
            target_col: 1,
        })
        .unwrap();
        assert!(r.insert(t2(1, 5)).unwrap());
        assert!(!r.insert(t2(1, 3)).unwrap());
        assert!(r.insert(t2(1, 9)).unwrap());
        let only: Vec<Tuple> = r.scan().map(|x| x.unwrap()).collect();
        assert_eq!(only, vec![t2(1, 9)]);
    }

    #[test]
    fn aggregate_selection_any_keeps_one_witness() {
        // @aggregate_selection path(X,Y,P,C)(X,Y,C) any(P): one witness
        // path per (X, Y, C).
        let r = HashRelation::new(4);
        r.add_aggregate_selection(AggregateSelection {
            group_cols: vec![0, 1, 3],
            kind: AggSelKind::Any,
            target_col: 2,
        })
        .unwrap();
        let path = |x: i64, y: i64, p: &str, c: i64| {
            Tuple::new(vec![Term::int(x), Term::int(y), Term::str(p), Term::int(c)])
        };
        assert!(r.insert(path(1, 2, "p1", 5)).unwrap());
        assert!(!r.insert(path(1, 2, "p2", 5)).unwrap());
        assert!(r.insert(path(1, 2, "p3", 6)).unwrap());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn min_and_any_compose_like_figure_3() {
        // Figure 3 uses both: min(C) over (X,Y) and any(P) over (X,Y,C).
        let r = HashRelation::new(4);
        r.add_aggregate_selection(AggregateSelection {
            group_cols: vec![0, 1],
            kind: AggSelKind::Min,
            target_col: 3,
        })
        .unwrap();
        r.add_aggregate_selection(AggregateSelection {
            group_cols: vec![0, 1, 3],
            kind: AggSelKind::Any,
            target_col: 2,
        })
        .unwrap();
        let path = |p: &str, c: i64| {
            Tuple::new(vec![Term::int(1), Term::int(2), Term::str(p), Term::int(c)])
        };
        assert!(r.insert(path("a", 10)).unwrap());
        assert!(!r.insert(path("b", 10)).unwrap(), "any(P) rejects tie");
        assert!(r.insert(path("c", 4)).unwrap(), "improvement accepted");
        assert_eq!(r.len(), 1);
        let only: Vec<Tuple> = r.scan().map(|x| x.unwrap()).collect();
        assert_eq!(only, vec![path("c", 4)]);
    }

    #[test]
    fn aggsel_after_facts_is_rejected() {
        let r = HashRelation::new(2);
        r.insert(t2(1, 1)).unwrap();
        assert!(r
            .add_aggregate_selection(AggregateSelection {
                group_cols: vec![0],
                kind: AggSelKind::Min,
                target_col: 1,
            })
            .is_err());
    }

    #[test]
    fn delete_cleans_seen_map() {
        let r = HashRelation::new(2);
        r.insert(t2(1, 1)).unwrap();
        assert!(r.delete(&t2(1, 1)).unwrap());
        assert!(r.insert(t2(1, 1)).unwrap(), "reinsert after delete");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn delete_fires_stats_and_meter_symmetrically() {
        let r = HashRelation::new(2);
        r.insert(t2(1, 1)).unwrap();
        r.insert(t2(2, 2)).unwrap();
        assert_eq!(r.stats().unwrap().cardinality(), 2);
        let del = crate::meter::tuples_deleted();
        assert!(r.delete(&t2(1, 1)).unwrap());
        assert_eq!(
            r.stats().unwrap().cardinality(),
            1,
            "stats on_delete mirrors on_insert"
        );
        assert_eq!(crate::meter::tuples_deleted() - del, 1);
        // A miss neither charges the meter nor moves stats.
        assert!(!r.delete(&t2(7, 7)).unwrap());
        assert_eq!(r.stats().unwrap().cardinality(), 1);
        assert_eq!(crate::meter::tuples_deleted() - del, 1);
    }

    #[test]
    fn deleted_tuples_invisible_to_index_lookup() {
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        r.insert(t2(1, 1)).unwrap();
        r.insert(t2(1, 2)).unwrap();
        r.delete(&t2(1, 1)).unwrap();
        let hits: Vec<Tuple> = r
            .lookup(&[Term::int(1), Term::var(0)])
            .map(|x| x.unwrap())
            .collect();
        assert_eq!(hits, vec![t2(1, 2)]);
    }

    #[test]
    fn owned_scan_frozen_while_open_then_writes_in_place() {
        let r = HashRelation::new(2);
        r.insert(t2(1, 10)).unwrap();
        r.mark();
        r.insert(t2(2, 20)).unwrap();
        let mut scan = r.scan_owned();
        assert_eq!(scan.next(), Some(t2(1, 10)));
        // Every kind of write lands while the cursor is open.
        r.delete(&t2(2, 20)).unwrap();
        r.insert(t2(3, 30)).unwrap();
        assert!(!r.contains_exact(&t2(2, 20)) && r.contains_exact(&t2(3, 30)));
        assert_eq!(scan.collect::<Vec<_>>(), vec![t2(2, 20)], "frozen at open");
        let live: Vec<Tuple> = r.scan_owned().collect();
        assert_eq!(live, vec![t2(1, 10), t2(3, 30)]);
        // The exhausted cursors released their subsidiaries: the next
        // write mutates the touched one in place instead of copying it.
        let strong = |i: usize| Arc::strong_count(&r.inner.borrow().subs[i]);
        let open = r.scan_owned();
        assert_eq!((strong(0), strong(1)), (2, 2));
        drop(open);
        r.delete(&t2(1, 10)).unwrap();
        assert_eq!((strong(0), strong(1)), (1, 1));
        assert!(r.is_ground_set());
    }

    #[test]
    fn lookup_counts_one_probe() {
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        r.insert(t2(1, 10)).unwrap();
        coral_profile::set_enabled(true);
        coral_profile::reset();
        let probes = || {
            let c = coral_profile::snapshot();
            (c.get(Counter::IndexProbes), c.get(Counter::FullScans))
        };
        assert_eq!(r.lookup(&[Term::int(1), Term::var(0)]).count(), 1);
        assert_eq!(probes(), (1, 0));
        assert_eq!(r.lookup(&[Term::var(0), Term::var(1)]).count(), 1);
        assert_eq!(probes(), (1, 1));
        coral_profile::set_enabled(false);
        coral_profile::reset();
    }

    #[test]
    fn index_specs_round_trip() {
        let r = HashRelation::new(2);
        r.make_index(IndexSpec::Args(vec![0])).unwrap();
        r.make_index(IndexSpec::Pattern {
            pattern: vec![Term::var(0), Term::var(1)],
            key_vars: vec![VarId(1)],
        })
        .unwrap();
        let specs = r.index_specs();
        assert_eq!(specs.len(), 2);
        // Respecifying them on a fresh relation is accepted and useful.
        let copy = HashRelation::with_semantics(2, DupSemantics::Multiset);
        for spec in specs {
            copy.make_index(spec).unwrap();
        }
        copy.insert(t2(3, 4)).unwrap();
        assert_eq!(copy.lookup(&[Term::int(3), Term::var(0)]).count(), 1);
    }

    #[test]
    fn bad_index_specs_rejected() {
        let r = HashRelation::new(2);
        assert!(r.make_index(IndexSpec::Args(vec![])).is_err());
        assert!(r.make_index(IndexSpec::Args(vec![5])).is_err());
        assert!(r
            .make_index(IndexSpec::Pattern {
                pattern: vec![Term::var(0)],
                key_vars: vec![VarId(0)],
            })
            .is_err());
        assert!(r
            .make_index(IndexSpec::Pattern {
                pattern: vec![Term::var(0), Term::var(1)],
                key_vars: vec![VarId(7)],
            })
            .is_err());
    }
}
