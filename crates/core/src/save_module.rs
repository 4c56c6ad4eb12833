//! The save-module facility (§5.4.2) and lazy scans (§5.4.3).
//!
//! "In such cases, the user can tell the CORAL system to maintain the
//! state of the module (i.e., retain generated facts) in between calls to
//! the module, and thereby avoid recomputation … the challenge is to
//! ensure that no derivations are repeated across multiple calls to the
//! module." The retained state is the re-entrant [`FixpointState`]: its
//! per-SCC marks remember exactly which fact combinations each rule has
//! already joined, so a later call with a new magic seed evaluates only
//! the genuinely new work — and a repeated subquery finds its seed
//! already present and runs an (empty) fixpoint.
//!
//! The paper's restriction is enforced: "if a module uses the save module
//! feature, it should not be invoked recursively" — reentrant calls error
//! out instead of the paper's "no guarantees".
//!
//! [`LazyScan`] implements §5.4.3: "Lazy evaluation tries to return the
//! answers at the end of every iteration, instead of at the end of
//! computation", by storing the fixpoint state in the scan and advancing
//! one iteration whenever the consumer exhausts the answers produced so
//! far.

use crate::engine::{Engine, ModuleDef};
use crate::error::{EvalError, EvalResult};
use crate::scan::AnswerScan;
use crate::seminaive::{FixpointState, Strategy};
use coral_lang::{Adornment, PredRef};
use coral_rel::Mark;
use coral_term::{unifies_with, Term, Tuple};
use std::collections::VecDeque;
use std::rc::Rc;

/// Call a `@save_module` module: reuse (or create) the retained state.
pub fn call(
    engine: &Engine,
    mdef: &Rc<ModuleDef>,
    cm: Rc<crate::compile::CompiledModule>,
    pred: PredRef,
    adornment: &Adornment,
    pattern: &[Term],
) -> EvalResult<AnswerScan> {
    if mdef.active.get() {
        return Err(EvalError::ModuleProtocol(format!(
            "module {} uses @save_module and may not be invoked recursively (§5.4.2)",
            mdef.ast.name
        )));
    }
    mdef.active.set(true);
    let result = (|| {
        let key = (pred, adornment.to_string(), cm.rewritten.dontcare.clone());
        let mut state = match mdef.saved.borrow_mut().remove(&key) {
            Some(s) => s,
            None => {
                let s = FixpointState::new(Rc::clone(&cm), &mdef.setup)?
                    .with_strategy(Strategy::from(mdef.controls.fixpoint));
                s.assert_no_aggregates()?;
                s
            }
        };
        state.seed(pattern)?;
        // "The use of certain features, such as 'save module' … can
        // result in all answers being computed before any answers are
        // returned" (§5.6): saved modules always run eagerly.
        state.run(engine)?;
        let scan = crate::engine::answers_scan(&state, pattern);
        mdef.saved.borrow_mut().insert(key, state);
        Ok(scan)
    })();
    mdef.active.set(false);
    result
}

/// Statistics of a module's saved state (benchmarks observe the
/// avoided-recomputation effect).
pub fn saved_stats(mdef: &ModuleDef) -> Vec<crate::seminaive::FixpointStats> {
    mdef.saved.borrow().values().map(|s| s.stats).collect()
}

/// A lazy materialized scan: answers flow out at iteration boundaries.
pub struct LazyScan {
    engine: Engine,
    state: FixpointState,
    pattern: Vec<Term>,
    consumed: Mark,
    buffer: VecDeque<Tuple>,
    done: bool,
}

impl LazyScan {
    /// Wrap a freshly seeded fixpoint state.
    pub fn new(engine: Engine, state: FixpointState, pattern: Vec<Term>) -> LazyScan {
        LazyScan {
            engine,
            state,
            pattern,
            consumed: Mark(0),
            buffer: VecDeque::new(),
            done: false,
        }
    }

    /// Iterations executed so far (observable in benches).
    pub fn iterations(&self) -> u64 {
        self.state.stats.iterations
    }

    /// Collect answers inserted since `consumed` into the buffer.
    fn drain_new_answers(&mut self) -> EvalResult<bool> {
        let answers = self.state.answers();
        let cur = answers.current_mark();
        if cur <= self.consumed {
            return Ok(false);
        }
        let expand = crate::engine::expander(
            self.pattern.len(),
            &self.state.compiled().rewritten.dontcare,
        );
        let mut any = false;
        for t in answers.scan_range(self.consumed, Some(cur)) {
            let full = expand(t);
            if unifies_with(&self.pattern, &full) {
                self.buffer.push_back(full);
                any = true;
            }
        }
        self.consumed = cur;
        Ok(any)
    }
}

impl Iterator for LazyScan {
    type Item = EvalResult<Tuple>;

    fn next(&mut self) -> Option<EvalResult<Tuple>> {
        self.next_tuple().transpose()
    }
}

impl LazyScan {
    fn next_tuple(&mut self) -> EvalResult<Option<Tuple>> {
        loop {
            if let Some(t) = self.buffer.pop_front() {
                return Ok(Some(t));
            }
            if self.done {
                return Ok(None);
            }
            if self.drain_new_answers()? {
                continue;
            }
            // "This reactivation results in the execution of one more
            // iteration of the rules" (§5.4.3).
            if !self.state.step(&self.engine)? {
                self.done = true;
                self.drain_new_answers()?;
                if self.buffer.is_empty() {
                    return Ok(None);
                }
            }
        }
    }
}
