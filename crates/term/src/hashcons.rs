//! Lazy hash-consing of ground terms (§3.1).
//!
//! "The current implementation of CORAL uses a modified version of
//! hash-consing that operates in a lazy fashion. Hash-consing assigns
//! unique identifiers to each (ground) functor term, such that two
//! (ground) functor terms unify if and only if their unique identifiers
//! are the same."
//!
//! Every [`App`] node carries an atomic slot encoding one of:
//!
//! * `UNKNOWN` — groundness not yet computed;
//! * `NONGROUND` — contains a variable; never interned;
//! * `GROUND_NOID` — known ground, identifier not yet assigned (the
//!   *lazy* part: ids are only assigned when a term is first inserted
//!   into a relation as an argument, or interned explicitly);
//! * `id + TAG_BASE` — interned with identifier `id`.
//!
//! Identifiers are drawn from a process-wide table keyed by the term's
//! structure, with child terms identified first — so structurally equal
//! ground terms always receive the same id, regardless of where they were
//! built. Relations intern functor-term arguments only
//! ([`crate::Tuple::intern_ground`]): an atom's id would be stored
//! nowhere, and atoms already compare in O(1) or by value. Terms containing ADT values are ground but not interned (their
//! equality is behind a virtual interface), and fall back to structural
//! comparison.

use crate::fasthash::FastMap;
use crate::term::{App, Term};
use coral_profile::Counter;
use std::sync::atomic::Ordering::{Acquire, Release};
use std::sync::{Arc, OnceLock, RwLock};

/// A unique identifier for an interned ground term.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HcId(pub u64);

const UNKNOWN: u64 = 0;
const NONGROUND: u64 = 1;
const GROUND_NOID: u64 = 2;
const TAG_BASE: u64 = 3;

/// Structural key of a ground term, with children already interned.
#[derive(PartialEq, Eq, Hash)]
enum HcKey {
    Int(i64),
    Double(u64),
    Str(u32),
    Big(String),
    App(u32, Box<[HcId]>),
}

struct HcTable {
    map: FastMap<HcKey, HcId>,
    next: u64,
}

fn table() -> &'static RwLock<HcTable> {
    static T: OnceLock<RwLock<HcTable>> = OnceLock::new();
    T.get_or_init(|| {
        RwLock::new(HcTable {
            map: FastMap::default(),
            next: 0,
        })
    })
}

/// Number of distinct interned terms (for instrumentation and benches).
pub fn table_len() -> usize {
    table().read().unwrap().map.len()
}

/// Groundness of a functor node, cached in its hash-consing slot.
pub(crate) fn app_is_ground(app: &Arc<App>) -> bool {
    match app.hc.load(Acquire) {
        NONGROUND => false,
        UNKNOWN => {
            let ground = app.args().iter().all(|t| t.is_ground());
            app.hc
                .compare_exchange(
                    UNKNOWN,
                    if ground { GROUND_NOID } else { NONGROUND },
                    Release,
                    Acquire,
                )
                .ok();
            ground
        }
        _ => true,
    }
}

/// The cached identifier of a functor node, if one has been assigned.
/// Never interns.
pub fn cached_id(app: &Arc<App>) -> Option<HcId> {
    let v = app.hc.load(Acquire);
    if v >= TAG_BASE {
        Some(HcId(v - TAG_BASE))
    } else {
        None
    }
}

/// Approximate retained size of one table entry: the key, its heap
/// payload, and the id it maps to. Feeds the term-bytes meter the
/// resource governor reads; precision matters less than monotonicity.
fn key_bytes(key: &HcKey) -> u64 {
    let payload = match key {
        HcKey::Big(s) => s.len(),
        HcKey::App(_, ids) => std::mem::size_of_val::<[HcId]>(ids),
        _ => 0,
    };
    (std::mem::size_of::<HcKey>() + std::mem::size_of::<HcId>() + payload) as u64
}

fn intern_key(key: HcKey) -> HcId {
    {
        let t = table().read().unwrap();
        if let Some(&id) = t.map.get(&key) {
            coral_profile::bump(Counter::HashconsHits, 1);
            return id;
        }
    }
    let mut t = table().write().unwrap();
    if let Some(&id) = t.map.get(&key) {
        coral_profile::bump(Counter::HashconsHits, 1);
        return id;
    }
    let id = HcId(t.next);
    t.next += 1;
    crate::meter::add_term_bytes(key_bytes(&key));
    t.map.insert(key, id);
    coral_profile::bump(Counter::HashconsMisses, 1);
    id
}

/// Intern a ground term, assigning (or retrieving) its unique identifier.
///
/// Returns `None` for non-ground terms and for terms containing ADT
/// values. Idempotent; concurrent calls agree.
pub fn intern(term: &Term) -> Option<HcId> {
    match term {
        Term::Int(v) => Some(intern_key(HcKey::Int(*v))),
        Term::Double(v) => Some(intern_key(HcKey::Double(v.get().to_bits()))),
        Term::Str(s) => Some(intern_key(HcKey::Str(s.id()))),
        Term::Big(b) => Some(intern_key(HcKey::Big(b.to_string()))),
        Term::Var(_) => None,
        Term::Adt(_) => None,
        Term::App(app) => {
            if let Some(id) = cached_id(app) {
                coral_profile::bump(Counter::HashconsHits, 1);
                return Some(id);
            }
            if !app_is_ground(app) {
                return None;
            }
            let mut child_ids = Vec::with_capacity(app.args().len());
            for t in app.args() {
                child_ids.push(intern(t)?);
            }
            let id = intern_key(HcKey::App(app.sym().id(), child_ids.into_boxed_slice()));
            app.hc.store(id.0 + TAG_BASE, Release);
            Some(id)
        }
    }
}

/// Fast equality for two terms when both can be identified: `Some(eq)` if
/// both were interned, `None` if structural comparison is required.
pub fn id_eq(a: &Term, b: &Term) -> Option<bool> {
    let (x, y) = (intern(a)?, intern(b)?);
    Some(x == y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_structures_get_equal_ids() {
        let a = Term::apps(
            "f",
            vec![Term::int(1), Term::list(vec![Term::int(2), Term::int(3)])],
        );
        let b = Term::apps(
            "f",
            vec![Term::int(1), Term::list(vec![Term::int(2), Term::int(3)])],
        );
        assert_eq!(intern(&a), intern(&b));
        assert!(intern(&a).is_some());
    }

    #[test]
    fn distinct_structures_get_distinct_ids() {
        let a = Term::apps("f", vec![Term::int(1)]);
        let b = Term::apps("f", vec![Term::int(2)]);
        let c = Term::apps("g", vec![Term::int(1)]);
        assert_ne!(intern(&a), intern(&b));
        assert_ne!(intern(&a), intern(&c));
    }

    #[test]
    fn nonground_terms_are_not_interned() {
        let t = Term::apps("f", vec![Term::var(0)]);
        assert_eq!(intern(&t), None);
        assert_eq!(id_eq(&t, &t), None);
    }

    #[test]
    fn interning_is_lazy_and_cached() {
        let t = Term::apps("lazy_cache_probe", vec![Term::int(42)]);
        let app = t.as_app().unwrap();
        assert!(cached_id(app).is_none());
        // Groundness checks alone must not assign an id.
        assert!(t.is_ground());
        assert!(cached_id(app).is_none());
        let id = intern(&t).unwrap();
        assert_eq!(cached_id(app), Some(id));
        assert_eq!(intern(&t), Some(id));
    }

    #[test]
    fn id_eq_matches_structural_eq() {
        let a = Term::apps("pair", vec![Term::str("x"), Term::int(9)]);
        let b = Term::apps("pair", vec![Term::str("x"), Term::int(9)]);
        let c = Term::apps("pair", vec![Term::str("y"), Term::int(9)]);
        assert_eq!(id_eq(&a, &b), Some(true));
        assert_eq!(id_eq(&a, &c), Some(false));
        assert!(a == b);
        assert!(a != c);
    }

    #[test]
    fn deep_terms_intern() {
        let mut t = Term::nil();
        for i in 0..2000 {
            t = Term::cons(Term::int(i), t);
        }
        let mut u = Term::nil();
        for i in 0..2000 {
            u = Term::cons(Term::int(i), u);
        }
        assert_eq!(intern(&t), intern(&u));
        // After interning, equality is O(1) via ids.
        assert_eq!(t, u);
    }
}
