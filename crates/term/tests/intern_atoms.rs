//! Inserting a tuple interns its functor-term arguments and nothing
//! else. Kept in a test binary of its own: the hash-consing table is
//! process-wide, and a concurrently running test that interns would
//! move `table_len` under this one.

use coral_term::term::Term;
use coral_term::{hashcons, Tuple};

#[test]
fn intern_ground_skips_atoms_and_ids_functor_terms() {
    let atoms = Tuple::ground(vec![
        Term::int(0x5eed_a70b),
        Term::str("intern-atoms-probe"),
        Term::double(2.5),
        Term::big(coral_term::BigInt::from_i64(i64::MAX)),
    ]);
    let before = hashcons::table_len();
    atoms.intern_ground();
    assert_eq!(
        hashcons::table_len(),
        before,
        "an atom argument was interned"
    );

    let functor = Term::apps("intern_atoms_probe", vec![Term::int(7)]);
    let mixed = Tuple::ground(vec![Term::int(1), functor.clone()]);
    assert_eq!(hashcons::cached_id(functor.as_app().unwrap()), None);
    mixed.intern_ground();
    let id = hashcons::cached_id(functor.as_app().unwrap());
    assert!(id.is_some(), "the functor argument got no id");
    assert_eq!(hashcons::intern(&functor), id);
}
