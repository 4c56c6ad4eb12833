//! The relation catalog.
//!
//! Maps predicate names (symbol + arity) to relation objects. This is the
//! data-manager half of Figure 1: the query evaluation system asks the
//! catalog for relations and then speaks only the generic [`Relation`]
//! interface, "independent of how the relation is defined (as a base
//! relation, declaratively through rules, or through system- or
//! user-defined … code)" (§2).

use crate::error::{RelError, RelResult};
use crate::hash_rel::HashRelation;
use crate::relation::Relation;
use coral_term::{FastMap, Symbol};
use std::cell::RefCell;
use std::rc::Rc;

/// A predicate identity: name and arity (`edge/2`).
pub type PredId = (Symbol, usize);

/// The catalog of named relations.
#[derive(Default)]
pub struct Database {
    rels: RefCell<FastMap<PredId, Rc<dyn Relation>>>,
}

impl Database {
    /// An empty catalog.
    pub fn new() -> Database {
        Database::default()
    }

    /// Register a relation under `name/arity`, replacing any previous one.
    pub fn register(&self, name: Symbol, rel: Rc<dyn Relation>) {
        self.rels.borrow_mut().insert((name, rel.arity()), rel);
    }

    /// Look up `name/arity`.
    pub fn get(&self, name: Symbol, arity: usize) -> Option<Rc<dyn Relation>> {
        self.rels.borrow().get(&(name, arity)).cloned()
    }

    /// Look up `name/arity`, creating an empty in-memory hash relation
    /// (the default base-relation representation) if absent.
    pub fn get_or_create(&self, name: Symbol, arity: usize) -> Rc<dyn Relation> {
        if let Some(r) = self.get(name, arity) {
            return r;
        }
        let r: Rc<dyn Relation> = Rc::new(HashRelation::new(arity));
        self.register(name, Rc::clone(&r));
        r
    }

    /// Look up `name/arity` or fail.
    pub fn require(&self, name: Symbol, arity: usize) -> RelResult<Rc<dyn Relation>> {
        self.get(name, arity)
            .ok_or_else(|| RelError::BadIndex(format!("unknown relation {}/{arity}", name)))
    }

    /// Remove a relation; returns it if present.
    pub fn remove(&self, name: Symbol, arity: usize) -> Option<Rc<dyn Relation>> {
        self.rels.borrow_mut().remove(&(name, arity))
    }

    /// All registered predicate ids, sorted by name then arity.
    pub fn list(&self) -> Vec<PredId> {
        let mut ids: Vec<PredId> = self.rels.borrow().keys().copied().collect();
        ids.sort_by(|a, b| a.0.as_str().cmp(&b.0.as_str()).then(a.1.cmp(&b.1)));
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_term::{Term, Tuple};

    #[test]
    fn register_and_get() {
        let db = Database::new();
        let edge = Symbol::intern("edge");
        let r = db.get_or_create(edge, 2);
        r.insert(Tuple::new(vec![Term::int(1), Term::int(2)]))
            .unwrap();
        let again = db.get(edge, 2).unwrap();
        assert_eq!(again.len(), 1);
        assert!(db.get(edge, 3).is_none(), "arity is part of identity");
    }

    #[test]
    fn same_name_different_arity_coexist() {
        let db = Database::new();
        let p = Symbol::intern("p");
        db.get_or_create(p, 1);
        db.get_or_create(p, 2);
        assert_eq!(db.list().len(), 2);
    }

    #[test]
    fn require_fails_on_missing() {
        let db = Database::new();
        assert!(db.require(Symbol::intern("nope"), 1).is_err());
    }

    #[test]
    fn remove_unregisters() {
        let db = Database::new();
        let q = Symbol::intern("q");
        db.get_or_create(q, 1);
        assert!(db.remove(q, 1).is_some());
        assert!(db.get(q, 1).is_none());
        assert!(db.remove(q, 1).is_none());
    }
}
