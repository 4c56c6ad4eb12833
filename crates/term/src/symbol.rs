//! Global symbol interner.
//!
//! CORAL shares constants instead of copying their values (§3.2, §9
//! "pointer sharing"). Strings, functor names and predicate names are
//! interned once in a process-wide table and referred to by a compact
//! [`Symbol`] id thereafter; equality and hashing of symbols are O(1)
//! integer operations.

use crate::fasthash::FastMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A compact identifier for an interned string.
///
/// Two `Symbol`s are equal iff the strings they intern are equal. Symbols
/// are never reclaimed: the CORAL process model is a single-user session
/// (§2), so the table only grows for the lifetime of the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Table {
    by_name: FastMap<Box<str>, Symbol>,
    names: Vec<Box<str>>,
}

fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Table {
            by_name: FastMap::default(),
            names: Vec::new(),
        })
    })
}

impl Symbol {
    /// Intern `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        {
            let t = table().read().unwrap();
            if let Some(&s) = t.by_name.get(name) {
                return s;
            }
        }
        let mut t = table().write().unwrap();
        if let Some(&s) = t.by_name.get(name) {
            return s;
        }
        let id = Symbol(u32::try_from(t.names.len()).expect("symbol table overflow"));
        let boxed: Box<str> = name.into();
        t.names.push(boxed.clone());
        t.by_name.insert(boxed, id);
        id
    }

    /// The interned string. Allocates a fresh `String` because the table
    /// may move under concurrent interning; symbol resolution is not a
    /// hot path (comparisons use the id).
    pub fn as_str(&self) -> String {
        table().read().unwrap().names[self.0 as usize].to_string()
    }

    /// Raw id, for serialization into storage pages.
    pub fn id(&self) -> u32 {
        self.0
    }

    /// Rebuild from a raw id previously obtained from [`Symbol::id`].
    ///
    /// Panics if the id was never issued by the interner.
    pub fn from_id(id: u32) -> Symbol {
        let t = table().read().unwrap();
        assert!(
            (id as usize) < t.names.len(),
            "Symbol::from_id: unknown symbol id {id}"
        );
        Symbol(id)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

/// Well-known symbols used by the list syntax and the evaluator.
pub mod well_known {
    use super::Symbol;

    /// The list constructor `'.'/2`.
    pub fn cons() -> Symbol {
        Symbol::intern(".")
    }

    /// The empty list `'[]'/0`.
    pub fn nil() -> Symbol {
        Symbol::intern("[]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("edge");
        let b = Symbol::intern("edge");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "edge");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("p"), Symbol::intern("q"));
    }

    #[test]
    fn roundtrip_raw_id() {
        let s = Symbol::intern("roundtrip-me");
        assert_eq!(Symbol::from_id(s.id()), s);
    }

    #[test]
    fn display_matches_name() {
        let s = Symbol::intern("display-name");
        assert_eq!(format!("{s}"), "display-name");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Symbol::intern(&format!("sym-{}", (i + j) % 20)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results {
            for s in r {
                let name = s.as_str();
                assert_eq!(Symbol::intern(&name), *s);
            }
        }
    }
}
