//! Binding environments and the trail (§3.1, §5.3).
//!
//! "It is more efficient … to record variable bindings in a *binding
//! environment*, at least during the course of an inference. … whenever a
//! variable is accessed during an inference, a corresponding binding
//! environment must be accessed to find if the variable has been bound."
//!
//! An [`EnvSet`] holds a stack of *frames*, one per rule activation or
//! per non-ground fact in use; a binding maps a `(frame, variable)` pair
//! to a `(term, frame)` pair — structure sharing, exactly Figure 2 of the
//! paper, where `f(X, 10, Y)` has `X ↦ 25` in one bindenv and `Y ↦ Z`,
//! `Z ↦ 50` through another.
//!
//! "In a manner similar to Prolog, CORAL maintains a trail of variable
//! bindings when a rule is evaluated; this is used to undo variable
//! bindings when the nested-loops join considers the next tuple in any
//! loop" (§5.3). [`EnvSet::mark`]/[`EnvSet::undo`] implement that trail.

use crate::term::{Term, VarId};
use coral_profile::Counter;

/// Identifies one frame (one binding environment) in an [`EnvSet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EnvId(pub u32);

/// A point on the trail to undo back to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrailMark(usize);

/// A point in the frame stack to pop back to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameMark(usize);

#[derive(Default)]
struct Frame {
    slots: Vec<Option<(Term, EnvId)>>,
}

/// A set of binding environments with a shared trail.
#[derive(Default)]
pub struct EnvSet {
    frames: Vec<Frame>,
    trail: Vec<(EnvId, VarId)>,
}

impl EnvSet {
    /// An empty environment set.
    pub fn new() -> EnvSet {
        EnvSet::default()
    }

    /// Allocate a fresh frame with `nvars` unbound variables.
    pub fn push_frame(&mut self, nvars: usize) -> EnvId {
        coral_profile::bump(Counter::BindenvAllocs, 1);
        let id = EnvId(u32::try_from(self.frames.len()).expect("env overflow"));
        self.frames.push(Frame {
            slots: vec![None; nvars],
        });
        id
    }

    /// Current frame-stack position, for stack-wise reclamation.
    pub fn frame_mark(&self) -> FrameMark {
        FrameMark(self.frames.len())
    }

    /// Pop frames back to `mark`. The caller must first [`EnvSet::undo`]
    /// any trail entries made since the frames were pushed; this is
    /// checked in debug builds.
    pub fn pop_frames(&mut self, mark: FrameMark) {
        debug_assert!(self.trail.iter().all(|(e, _)| (e.0 as usize) < mark.0));
        self.frames.truncate(mark.0);
    }

    /// Number of live frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The binding of `(env, var)`, if any.
    pub fn lookup(&self, env: EnvId, var: VarId) -> Option<&(Term, EnvId)> {
        self.frames[env.0 as usize].slots[var.0 as usize].as_ref()
    }

    /// Bind `(env, var)` to `(term, term_env)`, recording it on the trail.
    ///
    /// Panics in debug builds if already bound — the evaluator always
    /// dereferences before binding.
    pub fn bind(&mut self, env: EnvId, var: VarId, term: Term, term_env: EnvId) {
        let slot = &mut self.frames[env.0 as usize].slots[var.0 as usize];
        debug_assert!(slot.is_none(), "rebinding bound variable");
        *slot = Some((term, term_env));
        self.trail.push((env, var));
    }

    /// Current trail position.
    pub fn mark(&self) -> TrailMark {
        TrailMark(self.trail.len())
    }

    /// Undo all bindings made since `mark`.
    pub fn undo(&mut self, mark: TrailMark) {
        while self.trail.len() > mark.0 {
            let (env, var) = self.trail.pop().unwrap();
            self.frames[env.0 as usize].slots[var.0 as usize] = None;
        }
    }

    /// Follow variable bindings until reaching a non-variable term or an
    /// unbound variable. Returns the final `(term, env)` pair (terms are
    /// `Arc`-backed, so the clone is cheap).
    pub fn deref(&self, term: &Term, env: EnvId) -> (Term, EnvId) {
        let mut t = term.clone();
        let mut e = env;
        loop {
            match &t {
                Term::Var(v) => match self.lookup(e, *v) {
                    Some((nt, ne)) => {
                        let (nt, ne) = (nt.clone(), *ne);
                        t = nt;
                        e = ne;
                    }
                    None => return (t, e),
                },
                _ => return (t, e),
            }
        }
    }

    /// Copy a term out of its binding environment into a self-contained
    /// term: bound variables are replaced by their (recursively resolved)
    /// bindings, unbound variables are renumbered compactly in first
    /// occurrence order through `varmap`/`next_var`.
    ///
    /// Panics on cyclic bindings (which can only arise from occurs-check-
    /// free unification of non-ground data against itself; CORAL, like
    /// Prolog, does not create such terms in normal operation).
    pub fn resolve_with(
        &self,
        term: &Term,
        env: EnvId,
        varmap: &mut Vec<((EnvId, VarId), VarId)>,
        next_var: &mut u32,
    ) -> Term {
        let mut path: Vec<(EnvId, VarId)> = Vec::new();
        self.resolve_inner(term, env, varmap, next_var, &mut path)
    }

    fn resolve_inner(
        &self,
        term: &Term,
        env: EnvId,
        varmap: &mut Vec<((EnvId, VarId), VarId)>,
        next_var: &mut u32,
        path: &mut Vec<(EnvId, VarId)>,
    ) -> Term {
        match term {
            Term::Var(v) => match self.lookup(env, *v) {
                Some((t, e)) => {
                    let key = (env, *v);
                    assert!(
                        !path.contains(&key),
                        "cyclic variable binding while copying term out of bindenv"
                    );
                    path.push(key);
                    let (t, e) = (t.clone(), *e);
                    let out = self.resolve_inner(&t, e, varmap, next_var, path);
                    path.pop();
                    out
                }
                None => {
                    let key = (env, *v);
                    if let Some((_, mapped)) = varmap.iter().find(|(k, _)| *k == key) {
                        Term::Var(*mapped)
                    } else {
                        let mapped = VarId(*next_var);
                        *next_var += 1;
                        varmap.push((key, mapped));
                        Term::Var(mapped)
                    }
                }
            },
            Term::App(a) if !term.is_ground() => Term::app(
                a.sym(),
                a.args()
                    .iter()
                    .map(|t| self.resolve_inner(t, env, varmap, next_var, path))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    /// Convenience: resolve a term with a fresh variable numbering.
    pub fn resolve(&self, term: &Term, env: EnvId) -> Term {
        let mut varmap = Vec::new();
        let mut next = 0;
        self.resolve_with(term, env, &mut varmap, &mut next)
    }

    /// True iff the term is ground under its environment (all variables
    /// transitively bound to ground terms).
    pub fn is_ground_under(&self, term: &Term, env: EnvId) -> bool {
        match term {
            Term::Var(_) => {
                let (t, e) = self.deref(term, env);
                match t {
                    Term::Var(_) => false,
                    _ => self.is_ground_under(&t, e),
                }
            }
            Term::App(a) => {
                term.is_ground() || a.args().iter().all(|t| self.is_ground_under(t, env))
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces Figure 2 of the paper: `f(X, 10, Y)` with `X ↦ 25`,
    /// `Y ↦ Z` and `Z ↦ 50` in a separate bindenv.
    #[test]
    fn figure_2_representation() {
        let mut envs = EnvSet::new();
        let e1 = envs.push_frame(2); // X = V0, Y = V1
        let e2 = envs.push_frame(1); // Z = V0
        let term = Term::apps("f", vec![Term::var(0), Term::int(10), Term::var(1)]);
        envs.bind(e1, VarId(0), Term::int(25), e1);
        envs.bind(e1, VarId(1), Term::var(0), e2);
        envs.bind(e2, VarId(0), Term::int(50), e2);
        assert_eq!(envs.resolve(&term, e1).to_string(), "f(25, 10, 50)");
        assert!(envs.is_ground_under(&term, e1));
    }

    #[test]
    fn deref_follows_chains() {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(3);
        envs.bind(e, VarId(0), Term::var(1), e);
        envs.bind(e, VarId(1), Term::var(2), e);
        envs.bind(e, VarId(2), Term::str("end"), e);
        let (t, _) = envs.deref(&Term::var(0), e);
        assert_eq!(t, Term::str("end"));
    }

    #[test]
    fn trail_undo_restores_unbound() {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(2);
        let m = envs.mark();
        envs.bind(e, VarId(0), Term::int(1), e);
        envs.bind(e, VarId(1), Term::int(2), e);
        assert!(envs.lookup(e, VarId(0)).is_some());
        envs.undo(m);
        assert!(envs.lookup(e, VarId(0)).is_none());
        assert!(envs.lookup(e, VarId(1)).is_none());
        // Can rebind after undo.
        envs.bind(e, VarId(0), Term::int(3), e);
        let (t, _) = envs.deref(&Term::var(0), e);
        assert_eq!(t, Term::int(3));
    }

    #[test]
    fn resolve_renumbers_unbound_vars_compactly() {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(5);
        // f(V4, V2, V4) with nothing bound -> f(V0, V1, V0)
        let t = Term::apps("f", vec![Term::var(4), Term::var(2), Term::var(4)]);
        assert_eq!(envs.resolve(&t, e).to_string(), "f(V0, V1, V0)");
    }

    #[test]
    fn resolve_shares_varmap_across_calls() {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(2);
        let mut varmap = Vec::new();
        let mut next = 0;
        let a = envs.resolve_with(&Term::var(1), e, &mut varmap, &mut next);
        let b = envs.resolve_with(&Term::var(0), e, &mut varmap, &mut next);
        let c = envs.resolve_with(&Term::var(1), e, &mut varmap, &mut next);
        assert_eq!(a, Term::var(0));
        assert_eq!(b, Term::var(1));
        assert_eq!(c, Term::var(0));
    }

    #[test]
    fn frame_stack_reclamation() {
        let mut envs = EnvSet::new();
        let _e1 = envs.push_frame(1);
        let fm = envs.frame_mark();
        let tm = envs.mark();
        let e2 = envs.push_frame(4);
        envs.bind(e2, VarId(0), Term::int(1), e2);
        envs.undo(tm);
        envs.pop_frames(fm);
        assert_eq!(envs.frame_count(), 1);
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cyclic_binding_detected_on_resolve() {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(1);
        // X -> f(X): only constructible without occurs check.
        envs.bind(e, VarId(0), Term::apps("f", vec![Term::var(0)]), e);
        let _ = envs.resolve(&Term::var(0), e);
    }

    #[test]
    fn is_ground_under_partial() {
        let mut envs = EnvSet::new();
        let e = envs.push_frame(2);
        let t = Term::apps("f", vec![Term::var(0), Term::var(1)]);
        assert!(!envs.is_ground_under(&t, e));
        envs.bind(e, VarId(0), Term::int(1), e);
        assert!(!envs.is_ground_under(&t, e));
        envs.bind(e, VarId(1), Term::list(vec![Term::int(2)]), e);
        assert!(envs.is_ground_under(&t, e));
    }
}
