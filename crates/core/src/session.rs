//! The interactive session: consult programs and data, pose queries.
//!
//! This is the user-visible surface of Figure 1: "data stored in text
//! files can be 'consulted', at which point the data is converted into
//! main-memory relations, with any specified indices"; declarative
//! program modules are loaded and compiled on demand per query form;
//! queries return bindings one at a time. "'Consulting' a program takes
//! very little time … this makes CORAL very convenient for interactive
//! program development" — consulting here parses and loads without
//! compiling; compilation happens per (predicate, query form) and is
//! cached.
//!
//! Persistent data goes through the storage server (the EXODUS
//! substitute): [`Session::attach_storage`] opens it,
//! [`Session::create_persistent`] registers a disk-resident base
//! relation.

use crate::engine::Engine;
use crate::error::{EvalError, EvalResult};
use crate::scan::AnswerScan;
use coral_lang::{parse_program, parse_query, ProgramItem, Query};
use coral_rel::PersistentRelation;
use coral_storage::{StorageClient, StorageServer};
use coral_term::{EnvSet, Term, Tuple};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

/// Storage-server file holding the incremental-maintenance catalog.
const MAINTAIN_CATALOG: &str = "maintain.cat";

/// One answer to a query: the full answer tuple plus the bindings of the
/// query's named variables.
///
/// An answer owns its tuple and shares the variable names with every
/// other answer of its query. A ground answer reads its binding values
/// off `tuple`; an answer the unifier had to resolve (non-ground, or a
/// functor in the query pattern) or one built by [`Answer::new`]
/// carries values of its own.
#[derive(Clone)]
pub struct Answer {
    /// The answer fact (same arity as the query literal).
    pub tuple: Tuple,
    bindings: Bindings,
}

/// Where an answer's binding values live.
#[derive(Clone)]
enum Bindings {
    /// The query's binding plan: each name's value is the tuple
    /// argument at its position.
    Positional(Arc<[(String, usize)]>),
    /// One resolved value per name.
    Resolved(Arc<[String]>, Vec<Term>),
}

impl Answer {
    /// An answer binding `names[i]` to `values[i]`. Answers of one query
    /// can share `names`.
    ///
    /// # Panics
    ///
    /// If `names` and `values` differ in length.
    pub fn new(tuple: Tuple, names: Arc<[String]>, values: Vec<Term>) -> Answer {
        assert_eq!(names.len(), values.len(), "one value per binding name");
        Answer {
            tuple,
            bindings: Bindings::Resolved(names, values),
        }
    }

    /// `(variable name, bound term)` for each named, non-anonymous query
    /// variable, in first-occurrence order.
    pub fn bindings(&self) -> impl ExactSizeIterator<Item = (&str, &Term)> {
        let len = match &self.bindings {
            Bindings::Positional(plan) => plan.len(),
            Bindings::Resolved(names, _) => names.len(),
        };
        (0..len).map(move |i| match &self.bindings {
            Bindings::Positional(plan) => (plan[i].0.as_str(), &self.tuple.args()[plan[i].1]),
            Bindings::Resolved(names, values) => (names[i].as_str(), &values[i]),
        })
    }
}

/// Equal tuples and equal bindings, however each side stores them.
impl PartialEq for Answer {
    fn eq(&self, other: &Answer) -> bool {
        self.tuple == other.tuple && self.bindings().eq(other.bindings())
    }
}

impl std::fmt::Debug for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Answer");
        s.field("tuple", &self.tuple);
        for (name, term) in self.bindings() {
            s.field(name, term);
        }
        s.finish()
    }
}

impl std::fmt::Display for Answer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.bindings().len() == 0 {
            return f.write_str("yes");
        }
        for (i, (name, term)) in self.bindings().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{name} = {term}")?;
        }
        Ok(())
    }
}

/// The binding plan of a query, worked out once at open: each named,
/// non-anonymous variable with the first argument position it occurs
/// at, in first-occurrence order — a ground answer's bindings are then
/// read off its arguments. `None` (every answer takes the general
/// unification path) when a named variable never occurs in the literal.
fn binding_plan(query: &Query) -> Option<Arc<[(String, usize)]>> {
    let named = query.var_names.iter().enumerate();
    named
        .filter(|(_, name)| !name.starts_with('_'))
        .map(|(v, name)| {
            let var = Term::var(v as u32);
            let first = query.literal.args.iter().position(|a| *a == var)?;
            Some((name.clone(), first))
        })
        .collect()
}

/// Parse `"edge(1, 2)"` (trailing `.` optional) into a predicate and a
/// ground tuple for base-relation mutation.
fn parse_ground_fact(fact: &str) -> EvalResult<(coral_lang::PredRef, Tuple)> {
    let q = parse_query(fact)?;
    if q.nvars > 0 || q.literal.args.iter().any(|a| !a.is_ground()) {
        return Err(EvalError::ModuleProtocol(format!(
            "fact must be ground: {fact}"
        )));
    }
    let pred = q.literal.pred_ref();
    Ok((pred, Tuple::new(q.literal.args)))
}

/// A stream of answers for one query.
pub struct Answers {
    query: Query,
    /// The named variables, shared by every answer the unifier resolves.
    names: Arc<[String]>,
    plan: Option<Arc<[(String, usize)]>>,
    scan: AnswerScan,
}

impl Answers {
    fn new(query: Query, scan: AnswerScan) -> Answers {
        let names = query.var_names.iter().filter(|n| !n.starts_with('_'));
        Answers {
            names: names.cloned().collect(),
            plan: binding_plan(&query),
            query,
            scan,
        }
    }

    /// The next answer, or `None` when exhausted.
    pub fn next_answer(&mut self) -> EvalResult<Option<Answer>> {
        let Some(tuple) = self.scan.next().transpose()? else {
            return Ok(None);
        };
        // Ground fast path: every producer yields only tuples that unify
        // with the query, so a ground one binds each named variable to
        // the column the plan points at — no binding environments, no
        // unifier, no allocation.
        if let Some(plan) = self.plan.as_ref().filter(|_| tuple.is_ground()) {
            let bindings = Bindings::Positional(Arc::clone(plan));
            return Ok(Some(Answer { tuple, bindings }));
        }
        let mut envs = EnvSet::new();
        let qe = envs.push_frame(self.query.nvars as usize);
        let te = envs.push_frame(tuple.nvars() as usize);
        let ok = self
            .query
            .literal
            .args
            .iter()
            .zip(tuple.args())
            .all(|(q, t)| coral_term::unify(&mut envs, q, qe, t, te));
        debug_assert!(ok, "answers unify with their query");
        let named = self.query.var_names.iter().enumerate();
        let values = named
            .filter(|(_, name)| !name.starts_with('_'))
            .map(|(i, _)| envs.resolve(&Term::var(i as u32), qe))
            .collect();
        let bindings = Bindings::Resolved(Arc::clone(&self.names), values);
        Ok(Some(Answer { tuple, bindings }))
    }

    /// Drain all answers.
    pub fn collect_all(&mut self) -> EvalResult<Vec<Answer>> {
        let mut out = Vec::new();
        while let Some(a) = self.next_answer()? {
            out.push(a);
        }
        Ok(out)
    }
}

/// An interactive CORAL session.
pub struct Session {
    engine: Engine,
    storage: RefCell<Option<StorageClient>>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A fresh session with no storage attached.
    pub fn new() -> Session {
        Session {
            engine: Engine::new(),
            storage: RefCell::new(None),
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Enable or disable engine-wide profiling: every subsequent
    /// module call collects an [`crate::profile::EngineProfile`]
    /// retrievable via [`Session::last_profile`]. Equivalent to the
    /// `@profile` module annotation, but session-wide.
    pub fn set_profiling(&self, on: bool) {
        self.engine.set_profiling(on);
    }

    /// Whether session-wide profiling is on.
    pub fn profiling(&self) -> bool {
        self.engine.profiling()
    }

    /// Does nothing: evaluation is serial. Kept only so the e2e driver
    /// compiles; ROADMAP item 12 deletes it.
    pub fn set_threads(&self, _: usize) {}

    /// Cumulative incremental-maintenance counters for this session.
    pub fn maintain_totals(&self) -> crate::MaintainTotals {
        self.engine.maintain_totals()
    }

    /// Insert one ground fact, e.g. `"edge(1, 2)"`. Returns `false` if
    /// the fact was already present. A genuine insertion propagates
    /// into maintained derived relations.
    pub fn insert_fact(&self, fact: &str) -> EvalResult<bool> {
        let (pred, tuple) = parse_ground_fact(fact)?;
        self.engine.add_fact(pred, tuple)
    }

    /// Delete one ground fact, e.g. `"edge(1, 2)"`. Returns `false` if
    /// the fact was not present. A genuine removal propagates into
    /// maintained derived relations.
    pub fn delete_fact(&self, fact: &str) -> EvalResult<bool> {
        let (pred, tuple) = parse_ground_fact(fact)?;
        self.engine.delete_fact(pred, &tuple)
    }

    /// Refresh statistics for every base relation with a full scan and
    /// invalidate cached plans (the `:analyze` REPL command). Returns
    /// the number of relations analyzed.
    pub fn analyze(&self) -> crate::EvalResult<usize> {
        self.engine.analyze()
    }

    /// Set the resource budget armed for each subsequent top-level
    /// query ([`crate::Budget::unlimited`] turns the governor off;
    /// seeded from the `CORAL_BUDGET_*` environment variables).
    pub fn set_budget(&self, budget: crate::Budget) {
        self.engine.set_budget(budget);
    }

    /// The configured per-query resource budget.
    pub fn budget(&self) -> crate::Budget {
        self.engine.budget()
    }

    /// Resource usage of the current (or most recent) armed query.
    pub fn budget_usage(&self) -> crate::BudgetUsage {
        self.engine.budget_usage()
    }

    /// The profile of the most recently completed profiled query, if
    /// any. Profiles are collected when session-wide profiling is on or
    /// the queried module carries `@profile`.
    pub fn last_profile(&self) -> Option<crate::profile::EngineProfile> {
        self.engine.last_profile()
    }

    /// Consult program text: load facts, modules and annotations in
    /// order; embedded queries are evaluated eagerly and their answers
    /// returned in order of appearance.
    ///
    /// A failed consult rolls the *module catalog* back to its state
    /// before the call: a module loaded by the failing text (whose later
    /// items then errored) cannot linger half-registered, so consulting
    /// a corrected version of the same text afterwards behaves as if the
    /// failed attempt never happened. Facts already inserted stay (data
    /// loading is append-only; set semantics absorb re-consulted facts).
    pub fn consult_str(&self, src: &str) -> EvalResult<Vec<Vec<Answer>>> {
        let program = parse_program(src)?;
        let snapshot = self.engine.catalog_snapshot();
        let result = self.consult_items(&program);
        if result.is_err() {
            self.engine.restore_catalog(snapshot);
        }
        result
    }

    fn consult_items(&self, program: &coral_lang::Program) -> EvalResult<Vec<Vec<Answer>>> {
        let mut query_results = Vec::new();
        for item in &program.items {
            match item {
                ProgramItem::Fact(f) => {
                    self.engine
                        .add_fact(f.head.pred_ref(), Tuple::new(f.head.args.clone()))?;
                }
                ProgramItem::Annotation(ann) => self.engine.apply_annotation(ann)?,
                ProgramItem::Module(m) => self.engine.load_module(m.clone())?,
                ProgramItem::Query(q) => {
                    let mut answers = self.run_query(q.clone())?;
                    query_results.push(answers.collect_all()?);
                }
            }
        }
        Ok(query_results)
    }

    /// Consult a file (§2's text-file data/program loading).
    pub fn consult_file(&self, path: &Path) -> EvalResult<Vec<Vec<Answer>>> {
        let src = std::fs::read_to_string(path)?;
        self.consult_str(&src)
    }

    /// Pose a query, e.g. `"?- path(1, X)."`.
    pub fn query(&self, src: &str) -> EvalResult<Answers> {
        let q = parse_query(src)?;
        self.run_query(q)
    }

    fn run_query(&self, q: Query) -> EvalResult<Answers> {
        let scan = self.engine.query(&q)?;
        Ok(Answers::new(q, scan))
    }

    /// Convenience: all answers of a query.
    pub fn query_all(&self, src: &str) -> EvalResult<Vec<Answer>> {
        self.query(src)?.collect_all()
    }

    /// Attach (creating if needed) a storage server under `dir` with a
    /// buffer pool of `frames` pages.
    pub fn attach_storage(&self, dir: &Path, frames: usize) -> EvalResult<StorageClient> {
        let client = StorageServer::open(dir, frames).map_err(coral_rel::RelError::from)?;
        *self.storage.borrow_mut() = Some(std::sync::Arc::clone(&client));
        self.load_maintain_catalog(&client);
        Ok(client)
    }

    /// Read the persisted maintenance catalog (if any) and offer its
    /// snapshots to the engine. Any damage — a torn record, a missing or
    /// repeated seq, an undecodable catalog, a rewrite a crash cut short
    /// — silently yields no snapshots: maintained states then rebuild
    /// from scratch, never restore silently wrong.
    fn load_maintain_catalog(&self, client: &StorageClient) {
        let Ok(file) = client.heap(MAINTAIN_CATALOG) else {
            return;
        };
        let mut parts: Vec<(u16, Vec<u8>)> = Vec::new();
        for rec in file.scan() {
            let Ok((_, bytes)) = rec else { return };
            if bytes.len() < 2 {
                return;
            }
            let seq = u16::from_be_bytes(bytes[0..2].try_into().unwrap());
            parts.push((seq, bytes[2..].to_vec()));
        }
        if parts.is_empty() {
            return;
        }
        parts.sort_by_key(|(seq, _)| *seq);
        if parts
            .iter()
            .enumerate()
            .any(|(i, (seq, _))| *seq as usize != i)
        {
            return;
        }
        let joined: Vec<u8> = parts.into_iter().flat_map(|(_, b)| b).collect();
        if let Some(catalog) = crate::maintain::decode_catalog(&joined) {
            self.engine.offer_maintained_snapshots(catalog);
        }
    }

    /// Rewrite the persisted maintenance catalog from the engine's live
    /// maintained states (delete-all-then-insert, chunked under the
    /// 4 KiB page like per-relation statistics). Each record write is a
    /// mutation of the storage server's implicit transaction, which
    /// commits as often as the pool needs, so a catalog of any size
    /// fits; a rewrite a crash cuts short reads back as no catalog.
    fn store_maintain_catalog(&self, client: &StorageClient) -> EvalResult<()> {
        let err = coral_rel::RelError::from;
        let file = client.heap(MAINTAIN_CATALOG).map_err(err)?;
        let old: Vec<(coral_storage::RecordId, Vec<u8>)> =
            file.scan().collect::<Result<_, _>>().map_err(err)?;
        for (rid, _) in old {
            // Another session's checkpoint may have deleted it already.
            match file.delete(rid) {
                Ok(()) | Err(coral_storage::StorageError::BadRecordId) => {}
                Err(e) => return Err(err(e).into()),
            }
        }
        let catalog = self.engine.maintained_snapshots();
        if catalog.is_empty() {
            return Ok(());
        }
        let bytes = crate::maintain::encode_catalog(&catalog);
        // Leave headroom under the 4 KiB page for slot bookkeeping.
        const CHUNK: usize = 3000;
        for (i, chunk) in bytes.chunks(CHUNK).enumerate() {
            let mut rec = Vec::with_capacity(chunk.len() + 2);
            rec.extend_from_slice(&(i as u16).to_be_bytes());
            rec.extend_from_slice(chunk);
            file.insert(&rec).map_err(err)?;
        }
        Ok(())
    }

    /// Attach an already-open storage server through a shared client
    /// handle. This is how multiple sessions (e.g. one per network
    /// connection) share one buffer pool and WAL, the paper's "multiple
    /// CORAL processes … accessing persistent data stored using the
    /// EXODUS storage manager" (§3.2).
    pub fn attach_storage_client(&self, client: StorageClient) {
        self.load_maintain_catalog(&client);
        *self.storage.borrow_mut() = Some(client);
    }

    /// A [`crate::CancelToken`] interrupting this session's engine from
    /// another thread; see [`crate::engine::Engine::cancel_token`].
    pub fn cancel_token(&self) -> crate::engine::CancelToken {
        self.engine.cancel_token()
    }

    /// The attached storage server, if any.
    pub fn storage(&self) -> Option<StorageClient> {
        self.storage.borrow().clone()
    }

    /// Open (creating if needed) a persistent base relation and register
    /// it under `name/arity`.
    pub fn create_persistent(
        &self,
        name: &str,
        arity: usize,
    ) -> EvalResult<Rc<PersistentRelation>> {
        let storage = self.storage.borrow().clone().ok_or_else(|| {
            EvalError::ModuleProtocol("no storage attached; call attach_storage first".into())
        })?;
        let rel = Rc::new(PersistentRelation::open(&storage, name, arity)?);
        self.engine
            .register_relation(coral_term::Symbol::intern(name), rel.clone());
        Ok(rel)
    }

    /// Begin a storage transaction covering this session's registered
    /// persistent relations: every handle's reads and writes go through
    /// the transaction until [`Session::end_request_txn`]. Returns
    /// `None` (a no-op) when no storage is attached. The network server
    /// brackets each mutating request this way; a
    /// [`Session::is_txn_conflict`] error anywhere in between means
    /// "abort and retry".
    pub fn begin_request_txn(&self) -> EvalResult<Option<u64>> {
        let Some(storage) = self.storage.borrow().clone() else {
            return Ok(None);
        };
        let txn = storage.begin().map_err(coral_rel::RelError::from)?;
        self.for_each_persistent(|p| p.set_txn(Some(txn)));
        Ok(Some(txn))
    }

    /// Finish a transaction started by [`Session::begin_request_txn`]:
    /// detach every persistent handle, then commit (`commit = true`) or
    /// abort it. Commit may itself fail with a retryable conflict
    /// (read-set validation at the group-commit barrier); the handles
    /// are detached either way.
    pub fn end_request_txn(&self, txn: u64, commit: bool) -> EvalResult<()> {
        self.for_each_persistent(|p| p.set_txn(None));
        let Some(storage) = self.storage.borrow().clone() else {
            return Ok(());
        };
        let res = if commit {
            storage.commit(txn)
        } else {
            storage.abort(txn)
        };
        res.map_err(coral_rel::RelError::from)?;
        Ok(())
    }

    /// True when `err` is a retryable transaction conflict surfaced
    /// from the storage layer (write-write lock conflict, wound, or
    /// commit-time read validation failure). Callers should abort the
    /// request transaction and retry, ideally with backoff.
    pub fn is_txn_conflict(err: &EvalError) -> bool {
        matches!(
            err,
            EvalError::Rel(coral_rel::RelError::Storage(
                coral_storage::StorageError::TxnConflict(_)
            ))
        )
    }

    fn for_each_persistent(&self, f: impl Fn(&PersistentRelation)) {
        for (name, arity) in self.engine.db().list() {
            if let Some(rel) = self.engine.db().get(name, arity) {
                if let Some(p) = rel.as_any().downcast_ref::<PersistentRelation>() {
                    f(p);
                }
            }
        }
    }

    /// Explain why a ground fact holds: returns a well-founded
    /// derivation tree (the paper's Explanation tool), or `None` if the
    /// fact is not derivable. E.g. `session.explain_fact("path(1, 3)")`.
    pub fn explain_fact(&self, fact: &str) -> EvalResult<Option<crate::explain::Derivation>> {
        let q = coral_lang::parse_query(fact)?;
        crate::explain::explain_fact(&self.engine, &q.literal)
    }

    /// Checkpoint the attached storage (flush + truncate the log),
    /// first persisting the maintenance catalog so maintained states
    /// survive a restart. The catalog is written with no transaction:
    /// the storage checkpoint commits it, and while another transaction
    /// is open each of its writes commits on its own, so no other
    /// session's transaction can take it along on abort.
    pub fn checkpoint(&self) -> EvalResult<()> {
        let storage = self.storage.borrow().clone();
        if let Some(s) = storage {
            self.store_maintain_catalog(&s)?;
            s.checkpoint().map_err(coral_rel::RelError::from)?;
        }
        Ok(())
    }

    /// Integrity-check the attached storage (the `:check` command):
    /// every cataloged file's structural check (page layout, B+-tree
    /// shape, counts), plus the heap/index cross-check of every
    /// persistent relation registered in this session. Returns the
    /// rendered report; storage that cannot even be read yields `Err`.
    pub fn check_storage(&self) -> EvalResult<String> {
        let storage = self.storage.borrow().clone().ok_or_else(|| {
            EvalError::ModuleProtocol("no storage attached; call attach_storage first".into())
        })?;
        let report = storage.check().map_err(coral_rel::RelError::from)?;
        let mut out = report.render();
        let mut rels = 0usize;
        let mut problems = Vec::new();
        for (name, arity) in self.engine.db().list() {
            if let Some(rel) = self.engine.db().get(name, arity) {
                if let Some(p) = rel.as_any().downcast_ref::<PersistentRelation>() {
                    rels += 1;
                    problems.extend(p.check().map_err(EvalError::from)?);
                }
            }
        }
        if problems.is_empty() {
            out.push_str(&format!(
                "cross-checked {rels} persistent relation(s), no problems\n"
            ));
        } else {
            for p in &problems {
                out.push_str(&format!("PROBLEM: {p}\n"));
            }
            out.push_str(&format!(
                "FAILED: {} relation cross-check problem(s)\n",
                problems.len()
            ));
        }
        Ok(out)
    }
}
