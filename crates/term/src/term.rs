//! Term representation (§3.1, Figure 2).
//!
//! A [`Term`] is either a primitive constant (integer, double, string,
//! arbitrary-precision integer), a variable, a functor application
//! ([`App`]) or a user-defined abstract-data-type value. Functor terms
//! carry a lazily computed hash-consing slot (see [`crate::hashcons`]): a
//! ground functor term is assigned a unique identifier on demand, after
//! which unification against other identified terms is a single integer
//! comparison — the paper's key trick for cheap unification of large
//! terms.
//!
//! Variables are a primitive type because CORAL facts (not just rules) may
//! contain universally quantified variables. A variable is identified by a
//! [`VarId`] local to its enclosing rule or fact; bindings are never
//! substituted into terms during inference but recorded in binding
//! environments ([`crate::bindenv`]).

use crate::adt::AdtValue;
use crate::bignum::BigInt;
use crate::symbol::{well_known, Symbol};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// A variable identifier, local to one rule or fact.
///
/// Facts stored in relations are *self-contained*: their variables are
/// numbered `0..nvars` within the fact. Rule activations allocate a fresh
/// binding-environment frame per use, so the same `VarId` in two different
/// frames denotes two different variables.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// An `f64` with total ordering, equality and hashing (NaN normalized).
///
/// CORAL doubles are constants in relations, so they must be hashable and
/// totally ordered for duplicate checks and aggregate selections.
#[derive(Clone, Copy, Debug)]
pub struct OrderedF64(f64);

impl OrderedF64 {
    /// Wrap a double, normalizing NaN to a single canonical bit pattern.
    pub fn new(v: f64) -> OrderedF64 {
        if v.is_nan() {
            OrderedF64(f64::NAN)
        } else if v == 0.0 {
            // Collapse -0.0 and +0.0 so equal values hash equally.
            OrderedF64(0.0)
        } else {
            OrderedF64(v)
        }
    }

    /// The wrapped value.
    pub fn get(&self) -> f64 {
        self.0
    }

    fn key(&self) -> u64 {
        self.0.to_bits()
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &OrderedF64) -> bool {
        self.key() == other.key()
    }
}
impl Eq for OrderedF64 {}
impl Hash for OrderedF64 {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &OrderedF64) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &OrderedF64) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A functor application `f(t1, …, tn)`.
///
/// This is the paper's Figure 2 record: the function symbol, the argument
/// array, and "extra information to make unification of such terms
/// efficient" — here the atomic `hc` slot caching groundness and the
/// lazily assigned hash-consing identifier.
pub struct App {
    sym: Symbol,
    args: Box<[Term]>,
    /// Lazy hash-consing state; see [`crate::hashcons`] for the encoding.
    pub(crate) hc: AtomicU64,
}

impl App {
    /// The function symbol.
    pub fn sym(&self) -> Symbol {
        self.sym
    }

    /// The argument terms.
    pub fn args(&self) -> &[Term] {
        &self.args
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.args.len()
    }
}

/// A CORAL term.
#[derive(Clone)]
pub enum Term {
    /// Machine integer constant.
    Int(i64),
    /// Double constant with total ordering.
    Double(OrderedF64),
    /// String/atom constant (interned).
    Str(Symbol),
    /// Arbitrary-precision integer constant.
    Big(Arc<BigInt>),
    /// A variable, resolved through a binding environment.
    Var(VarId),
    /// Functor application, including list cells.
    App(Arc<App>),
    /// User-defined abstract data type value (§7.1 extensibility).
    Adt(Arc<dyn AdtValue>),
}

impl Term {
    /// Build a string/atom constant.
    pub fn str(s: &str) -> Term {
        Term::Str(Symbol::intern(s))
    }

    /// Build an integer constant.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// Build a double constant.
    pub fn double(v: f64) -> Term {
        Term::Double(OrderedF64::new(v))
    }

    /// Build an arbitrary-precision integer constant.
    pub fn big(v: BigInt) -> Term {
        Term::Big(Arc::new(v))
    }

    /// Build a variable.
    pub fn var(v: u32) -> Term {
        Term::Var(VarId(v))
    }

    /// Build a functor application.
    pub fn app(sym: Symbol, args: Vec<Term>) -> Term {
        Term::App(Arc::new(App {
            sym,
            args: args.into_boxed_slice(),
            hc: AtomicU64::new(0),
        }))
    }

    /// Build a functor application from a name.
    pub fn apps(name: &str, args: Vec<Term>) -> Term {
        Term::app(Symbol::intern(name), args)
    }

    /// The empty list `[]`.
    pub fn nil() -> Term {
        Term::app(well_known::nil(), Vec::new())
    }

    /// A cons cell `[head | tail]`.
    pub fn cons(head: Term, tail: Term) -> Term {
        Term::app(well_known::cons(), vec![head, tail])
    }

    /// A proper list of the given elements.
    pub fn list<I: IntoIterator<Item = Term>>(items: I) -> Term
    where
        I::IntoIter: DoubleEndedIterator,
    {
        let mut t = Term::nil();
        for item in items.into_iter().rev() {
            t = Term::cons(item, t);
        }
        t
    }

    /// If this is a list cell, return `(head, tail)`.
    pub fn as_cons(&self) -> Option<(&Term, &Term)> {
        match self {
            Term::App(a) if a.sym == well_known::cons() && a.args.len() == 2 => {
                Some((&a.args[0], &a.args[1]))
            }
            _ => None,
        }
    }

    /// True iff this is the empty list constant.
    pub fn is_nil(&self) -> bool {
        matches!(self, Term::App(a) if a.sym == well_known::nil() && a.args.is_empty())
    }

    /// Iterate the elements of a *proper* list; `None` if not a proper list.
    pub fn list_elems(&self) -> Option<Vec<&Term>> {
        let mut out = Vec::new();
        let mut cur = self;
        loop {
            if cur.is_nil() {
                return Some(out);
            }
            match cur.as_cons() {
                Some((h, t)) => {
                    out.push(h);
                    cur = t;
                }
                None => return None,
            }
        }
    }

    /// The functor application node, if any.
    pub fn as_app(&self) -> Option<&Arc<App>> {
        match self {
            Term::App(a) => Some(a),
            _ => None,
        }
    }

    /// True iff the term contains no variables. Cached for functor terms
    /// through the hash-consing slot.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Int(_) | Term::Double(_) | Term::Str(_) | Term::Big(_) | Term::Adt(_) => true,
            Term::App(a) => crate::hashcons::app_is_ground(a),
        }
    }

    /// True iff the term is a ground *primitive* constant — an integer,
    /// double, interned string or bignum. `ColumnarBatch::from_tuples`
    /// (coral-rel) stores rows of these flat, one enum tag plus a machine
    /// word per column, and sends every other row to its side-table. O(1)
    /// by construction: no recursion, no cache probe.
    pub fn is_ground_primitive(&self) -> bool {
        matches!(
            self,
            Term::Int(_) | Term::Double(_) | Term::Str(_) | Term::Big(_)
        )
    }

    /// Collect the distinct variables occurring in the term, in first
    /// occurrence order.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Term::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Term::App(a) => {
                for t in a.args() {
                    t.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// One greater than the largest `VarId` in the term (0 if ground).
    pub fn var_bound(&self) -> u32 {
        match self {
            Term::Var(v) => v.0 + 1,
            Term::App(a) => a.args().iter().map(|t| t.var_bound()).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// A copy with every variable id shifted by `offset` (renaming apart).
    pub fn shift_vars(&self, offset: u32) -> Term {
        if offset == 0 || self.is_ground() {
            return self.clone();
        }
        match self {
            Term::Var(v) => Term::Var(VarId(v.0 + offset)),
            Term::App(a) => Term::app(
                a.sym(),
                a.args().iter().map(|t| t.shift_vars(offset)).collect(),
            ),
            other => other.clone(),
        }
    }

    /// A copy with variables remapped through `map` (used to compact
    /// variable ids when copying facts out of binding environments).
    pub fn map_vars(&self, map: &dyn Fn(VarId) -> VarId) -> Term {
        match self {
            Term::Var(v) => Term::Var(map(*v)),
            Term::App(a) if !a.args().is_empty() && !self.is_ground() => {
                Term::app(a.sym(), a.args().iter().map(|t| t.map_vars(map)).collect())
            }
            other => other.clone(),
        }
    }

    /// Total order over terms, used by aggregate selections and `min`/
    /// `max` aggregation (§5.5.2). Numeric constants of different kinds
    /// compare numerically; otherwise, ordering is by type rank then
    /// value. Variables compare by id; functor terms lexicographically by
    /// symbol name, arity, then arguments.
    pub fn order_cmp(&self, other: &Term) -> Ordering {
        use Term::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.cmp(b),
            (Big(a), Big(b)) => a.cmp(b),
            (Int(a), Big(b)) => BigInt::from_i64(*a).cmp(b),
            (Big(a), Int(b)) => a.as_ref().cmp(&BigInt::from_i64(*b)),
            (Int(a), Double(b)) => (*a as f64).total_cmp(&b.get()),
            (Double(a), Int(b)) => a.get().total_cmp(&(*b as f64)),
            (Big(a), Double(b)) => big_to_f64(a).total_cmp(&b.get()),
            (Double(a), Big(b)) => a.get().total_cmp(&big_to_f64(b)),
            (Str(a), Str(b)) => a.as_str().cmp(&b.as_str()),
            (Var(a), Var(b)) => a.cmp(b),
            (App(a), App(b)) => a
                .sym()
                .as_str()
                .cmp(&b.sym().as_str())
                .then_with(|| a.arity().cmp(&b.arity()))
                .then_with(|| {
                    for (x, y) in a.args().iter().zip(b.args()) {
                        match x.order_cmp(y) {
                            Ordering::Equal => continue,
                            o => return o,
                        }
                    }
                    Ordering::Equal
                }),
            (Adt(a), Adt(b)) => a
                .type_name()
                .cmp(b.type_name())
                .then_with(|| a.hash_value().cmp(&b.hash_value())),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn rank(t: &Term) -> u8 {
    match t {
        Term::Int(_) | Term::Double(_) | Term::Big(_) => 0,
        Term::Str(_) => 1,
        Term::Var(_) => 2,
        Term::App(_) => 3,
        Term::Adt(_) => 4,
    }
}

fn big_to_f64(b: &BigInt) -> f64 {
    b.to_string().parse().unwrap_or(f64::INFINITY)
}

impl PartialEq for Term {
    fn eq(&self, other: &Term) -> bool {
        use Term::*;
        match (self, other) {
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Big(a), Big(b)) => a == b,
            (Var(a), Var(b)) => a == b,
            (App(a), App(b)) => {
                if Arc::ptr_eq(a, b) {
                    return true;
                }
                // Hash-consing fast path: two ground interned terms are
                // equal iff their ids are equal.
                if let (Some(x), Some(y)) =
                    (crate::hashcons::cached_id(a), crate::hashcons::cached_id(b))
                {
                    return x == y;
                }
                a.sym() == b.sym()
                    && a.args().len() == b.args().len()
                    && a.args().iter().zip(b.args()).all(|(x, y)| x == y)
            }
            (Adt(a), Adt(b)) => a.equals(b.as_ref()),
            _ => false,
        }
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Term::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Term::Double(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Term::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Term::Big(b) => {
                3u8.hash(state);
                b.hash(state);
            }
            Term::Var(v) => {
                4u8.hash(state);
                v.hash(state);
            }
            Term::App(a) => {
                5u8.hash(state);
                a.sym().hash(state);
                a.args().len().hash(state);
                for t in a.args() {
                    t.hash(state);
                }
            }
            Term::Adt(a) => {
                6u8.hash(state);
                a.type_name().hash(state);
                a.hash_value().hash(state);
            }
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Int(v) => write!(f, "{v}"),
            Term::Double(v) => {
                let x = v.get();
                if x == x.trunc() && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Term::Str(s) => {
                let name = s.as_str();
                if is_atom_like(&name) {
                    f.write_str(&name)
                } else {
                    write!(f, "{name:?}")
                }
            }
            Term::Big(b) => write!(f, "{b}"),
            Term::Var(v) => write!(f, "V{}", v.0),
            Term::App(a) => {
                // List sugar.
                if self.is_nil() {
                    return f.write_str("[]");
                }
                if self.as_cons().is_some() {
                    f.write_str("[")?;
                    let mut cur = self;
                    let mut first = true;
                    loop {
                        match cur.as_cons() {
                            Some((h, t)) => {
                                if !first {
                                    f.write_str(", ")?;
                                }
                                write!(f, "{h}")?;
                                first = false;
                                cur = t;
                            }
                            None => {
                                if cur.is_nil() {
                                    break;
                                }
                                write!(f, " | {cur}")?;
                                break;
                            }
                        }
                    }
                    return f.write_str("]");
                }
                let name = a.sym().as_str();
                if is_atom_like(&name) {
                    f.write_str(&name)?;
                } else {
                    write!(f, "{name:?}")?;
                }
                if !a.args().is_empty() {
                    f.write_str("(")?;
                    for (i, t) in a.args().iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            Term::Adt(a) => f.write_str(&a.print()),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

fn is_atom_like(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_lowercase() => chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compare_and_hash() {
        assert_eq!(Term::int(5), Term::int(5));
        assert_ne!(Term::int(5), Term::int(6));
        assert_ne!(Term::int(5), Term::double(5.0));
        assert_eq!(Term::double(0.0), Term::double(-0.0));
        assert_eq!(Term::str("a"), Term::str("a"));
        assert_ne!(Term::str("a"), Term::str("b"));
    }

    #[test]
    fn app_structural_equality() {
        let t1 = Term::apps("f", vec![Term::var(0), Term::int(10), Term::var(1)]);
        let t2 = Term::apps("f", vec![Term::var(0), Term::int(10), Term::var(1)]);
        let t3 = Term::apps("f", vec![Term::var(0), Term::int(11), Term::var(1)]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }

    #[test]
    fn groundness() {
        assert!(Term::int(1).is_ground());
        assert!(!Term::var(0).is_ground());
        assert!(Term::apps("f", vec![Term::int(1), Term::str("x")]).is_ground());
        assert!(!Term::apps("f", vec![Term::int(1), Term::var(0)]).is_ground());
        // Cached answer remains correct on repeat queries.
        let t = Term::apps("g", vec![Term::var(3)]);
        assert!(!t.is_ground());
        assert!(!t.is_ground());
    }

    #[test]
    fn list_construction_and_display() {
        let l = Term::list(vec![Term::int(1), Term::int(2), Term::int(3)]);
        assert_eq!(l.to_string(), "[1, 2, 3]");
        assert_eq!(l.list_elems().unwrap().len(), 3);
        let open = Term::cons(Term::var(0), Term::var(1));
        assert_eq!(open.to_string(), "[V0 | V1]");
        assert!(open.list_elems().is_none());
        assert_eq!(Term::nil().to_string(), "[]");
        assert!(Term::nil().is_nil());
    }

    #[test]
    fn display_terms() {
        let t = Term::apps("edge", vec![Term::str("a"), Term::str("b c")]);
        assert_eq!(t.to_string(), "edge(a, \"b c\")");
        assert_eq!(Term::double(2.0).to_string(), "2.0");
        assert_eq!(Term::double(2.5).to_string(), "2.5");
    }

    #[test]
    fn var_collection_and_shifting() {
        let t = Term::apps(
            "f",
            vec![
                Term::var(1),
                Term::apps("g", vec![Term::var(0), Term::var(1)]),
            ],
        );
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec![VarId(1), VarId(0)]);
        assert_eq!(t.var_bound(), 2);
        let shifted = t.shift_vars(10);
        assert_eq!(shifted.var_bound(), 12);
        let mut vars2 = Vec::new();
        shifted.collect_vars(&mut vars2);
        assert_eq!(vars2, vec![VarId(11), VarId(10)]);
    }

    #[test]
    fn order_cmp_numeric_cross_type() {
        use std::cmp::Ordering::*;
        assert_eq!(Term::int(1).order_cmp(&Term::double(1.5)), Less);
        assert_eq!(Term::double(2.5).order_cmp(&Term::int(2)), Greater);
        assert_eq!(
            Term::int(3).order_cmp(&Term::big(BigInt::from_i64(3))),
            Equal
        );
        assert_eq!(
            Term::big("99999999999999999999999".parse().unwrap()).order_cmp(&Term::int(5)),
            Greater
        );
        // Non-numeric ranks: numbers < strings < vars < apps.
        assert_eq!(Term::int(9).order_cmp(&Term::str("a")), Less);
        assert_eq!(Term::str("z").order_cmp(&Term::var(0)), Less);
        assert_eq!(Term::var(9).order_cmp(&Term::apps("f", vec![])), Less);
    }

    #[test]
    fn order_cmp_apps_lexicographic() {
        use std::cmp::Ordering::*;
        let a = Term::apps("f", vec![Term::int(1)]);
        let b = Term::apps("f", vec![Term::int(2)]);
        let c = Term::apps("g", vec![Term::int(0)]);
        assert_eq!(a.order_cmp(&b), Less);
        assert_eq!(b.order_cmp(&c), Less);
        assert_eq!(a.order_cmp(&a.clone()), Equal);
    }

    #[test]
    fn map_vars_compacts() {
        let t = Term::apps("f", vec![Term::var(7), Term::var(9)]);
        let mapped = t.map_vars(&|v| VarId(v.0 - 7));
        let mut vars = Vec::new();
        mapped.collect_vars(&mut vars);
        assert_eq!(vars, vec![VarId(0), VarId(2)]);
    }
}
