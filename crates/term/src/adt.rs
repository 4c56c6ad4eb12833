//! User-defined abstract data types (§7.1).
//!
//! The paper: "all abstract data types should have certain virtual methods
//! defined in their interface, and all system code that manipulates
//! objects operates only via this interface" — `equals`, `print`,
//! `construct`, `hash`, plus memory management. In Rust the virtual-method
//! table becomes a trait object: implement [`AdtValue`] for a type and it
//! can flow through relations, unification, indices and the evaluator with
//! no engine changes ("locality" of extension). Memory management is
//! `Arc`.
//!
//! The `construct` method (re-creating an object from a printed
//! representation) lives on a per-type constructor registered in the
//! global [`registry`], mirroring CORAL's single registration command.

use crate::fasthash::FastMap;
use crate::term::Term;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// The abstract-data-type interface (the paper's required virtual methods).
pub trait AdtValue: Send + Sync + fmt::Debug {
    /// The registered type name (used for dispatch and ordering).
    fn type_name(&self) -> &'static str;

    /// Equality against another ADT value (of any registered type).
    fn equals(&self, other: &dyn AdtValue) -> bool;

    /// A hash value consistent with [`AdtValue::equals`].
    fn hash_value(&self) -> u64;

    /// Printed representation (used by `Display` and the interactive
    /// interface).
    fn print(&self) -> String;

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
}

/// A constructor re-creating a value from argument terms (the paper's
/// `construct` method, given a printed representation).
pub type AdtConstructor = Arc<dyn Fn(&[Term]) -> Result<Arc<dyn AdtValue>, String> + Send + Sync>;

fn constructors() -> &'static RwLock<FastMap<&'static str, AdtConstructor>> {
    static REG: OnceLock<RwLock<FastMap<&'static str, AdtConstructor>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(FastMap::default()))
}

/// The global ADT registry: register constructors, construct values.
pub mod registry {
    use super::*;

    /// Register (or replace) the constructor for `type_name`.
    pub fn register(type_name: &'static str, ctor: AdtConstructor) {
        constructors().write().unwrap().insert(type_name, ctor);
    }

    /// Construct a value of a registered type from argument terms.
    pub fn construct(type_name: &str, args: &[Term]) -> Result<Arc<dyn AdtValue>, String> {
        let reg = constructors().read().unwrap();
        match reg.get(type_name) {
            Some(ctor) => ctor(args),
            None => Err(format!("unregistered abstract data type: {type_name}")),
        }
    }

    /// Whether a constructor is registered for `type_name`.
    pub fn is_registered(type_name: &str) -> bool {
        constructors().read().unwrap().contains_key(type_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// A toy 2-D point ADT, as a user of §7.1 would define.
    #[derive(Debug, PartialEq)]
    struct Point {
        x: i64,
        y: i64,
    }

    impl AdtValue for Point {
        fn type_name(&self) -> &'static str {
            "point"
        }
        fn equals(&self, other: &dyn AdtValue) -> bool {
            other
                .as_any()
                .downcast_ref::<Point>()
                .is_some_and(|p| p == self)
        }
        fn hash_value(&self) -> u64 {
            crate::fasthash::FastState::default().hash_one((self.x, self.y))
        }
        fn print(&self) -> String {
            format!("point({}, {})", self.x, self.y)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn adt_terms_compare_through_interface() {
        let a = Term::Adt(Arc::new(Point { x: 1, y: 2 }));
        let b = Term::Adt(Arc::new(Point { x: 1, y: 2 }));
        let c = Term::Adt(Arc::new(Point { x: 3, y: 4 }));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.to_string(), "point(1, 2)");
        assert!(a.is_ground());
    }

    #[test]
    fn registry_roundtrip() {
        registry::register(
            "point",
            Arc::new(|args: &[Term]| match args {
                [Term::Int(x), Term::Int(y)] => {
                    Ok(Arc::new(Point { x: *x, y: *y }) as Arc<dyn AdtValue>)
                }
                _ => Err("point/2 expects two integers".into()),
            }),
        );
        assert!(registry::is_registered("point"));
        let v = registry::construct("point", &[Term::int(5), Term::int(6)]).unwrap();
        assert_eq!(v.print(), "point(5, 6)");
        assert!(registry::construct("point", &[Term::str("x")]).is_err());
        assert!(registry::construct("nosuch", &[]).is_err());
    }
}
