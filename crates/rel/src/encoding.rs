//! Order-preserving encoding of primitive-typed tuples.
//!
//! Persistent relations are "restricted to have fields of primitive types
//! only" and the data "is stored on disk in its machine representation"
//! (§3.1–§3.2). The encoding here is self-delimiting (tuples decode
//! without a schema) and order-preserving *within each type*, so B+-tree
//! prefix scans implement exact-key index lookups. Fields of different
//! types order by a type tag; cross-type numeric ordering is not needed
//! by any index operation.
//!
//! Layout per field:
//!
//! ```text
//! 0x10 ‖ (i64 big-endian, sign bit flipped)     integer
//! 0x20 ‖ (f64 order-preserving bits, BE)        double
//! 0x30 ‖ escaped bytes ‖ 0x00 0x00              string (0x00 → 0x00 0x01)
//! ```
//!
//! The **wire** variants ([`encode_term_wire`] / [`decode_term_wire`] /
//! [`encode_tuple_wire`] / [`decode_tuple_wire`]) extend the storage
//! encoding with tags for every transportable term the network layer
//! (`coral-net`) must ship — arbitrary-precision integers, variables,
//! and nested functor/list terms. These tags are *not* order-preserving
//! and never reach a B+-tree; primitives keep the storage layout, so a
//! primitive-only wire tuple is byte-compatible field-by-field:
//!
//! ```text
//! 0x40 ‖ u32 len ‖ decimal ASCII                bignum
//! 0x41 ‖ u32 var id (BE)                        variable
//! 0x42 ‖ u32 len ‖ functor name ‖ u32 arity ‖ args…   functor/list
//! ```
//!
//! ADT values are process-local (their behaviour lives in registered
//! Rust code) and are rejected on the wire like they are on disk.

use crate::error::{RelError, RelResult};
use coral_term::{Term, Tuple};

const TAG_INT: u8 = 0x10;
const TAG_DOUBLE: u8 = 0x20;
const TAG_STR: u8 = 0x30;
const TAG_BIG: u8 = 0x40;
const TAG_VAR: u8 = 0x41;
const TAG_APP: u8 = 0x42;

/// Append the encoding of one primitive term.
pub fn encode_term(out: &mut Vec<u8>, t: &Term) -> RelResult<()> {
    match t {
        Term::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&((*v as u64) ^ (1 << 63)).to_be_bytes());
            Ok(())
        }
        Term::Double(d) => {
            out.push(TAG_DOUBLE);
            let bits = d.get().to_bits();
            // Standard total-order transform: flip all bits of negatives,
            // flip only the sign bit of non-negatives.
            let key = if bits & (1 << 63) != 0 {
                !bits
            } else {
                bits ^ (1 << 63)
            };
            out.extend_from_slice(&key.to_be_bytes());
            Ok(())
        }
        Term::Str(s) => {
            out.push(TAG_STR);
            for b in s.as_str().bytes() {
                out.push(b);
                if b == 0 {
                    out.push(1);
                }
            }
            out.push(0);
            out.push(0);
            Ok(())
        }
        other => Err(RelError::NonPrimitive(format!(
            "cannot store {other} persistently"
        ))),
    }
}

/// Encode a whole tuple (all fields primitive).
pub fn encode_tuple(tuple: &Tuple) -> RelResult<Vec<u8>> {
    let mut out = Vec::with_capacity(tuple.arity() * 12);
    for t in tuple.args() {
        encode_term(&mut out, t)?;
    }
    Ok(out)
}

/// Encode a projection of the tuple (index key).
pub fn encode_cols(tuple: &Tuple, cols: &[usize]) -> RelResult<Vec<u8>> {
    let mut out = Vec::with_capacity(cols.len() * 12);
    for &c in cols {
        encode_term(&mut out, &tuple.args()[c])?;
    }
    Ok(out)
}

/// Decode one term, returning it and the bytes consumed.
pub fn decode_term(bytes: &[u8]) -> RelResult<(Term, usize)> {
    match bytes.first() {
        Some(&TAG_INT) => {
            if bytes.len() < 9 {
                return Err(RelError::Decode("truncated integer".into()));
            }
            let raw = u64::from_be_bytes(bytes[1..9].try_into().unwrap());
            Ok((Term::int((raw ^ (1 << 63)) as i64), 9))
        }
        Some(&TAG_DOUBLE) => {
            if bytes.len() < 9 {
                return Err(RelError::Decode("truncated double".into()));
            }
            let key = u64::from_be_bytes(bytes[1..9].try_into().unwrap());
            let bits = if key & (1 << 63) != 0 {
                key ^ (1 << 63)
            } else {
                !key
            };
            Ok((Term::double(f64::from_bits(bits)), 9))
        }
        Some(&TAG_STR) => {
            let mut s = Vec::new();
            let mut i = 1;
            loop {
                match bytes.get(i) {
                    Some(0) => match bytes.get(i + 1) {
                        Some(0) => {
                            let text = String::from_utf8(s)
                                .map_err(|_| RelError::Decode("non-UTF8 string".into()))?;
                            return Ok((Term::str(&text), i + 2));
                        }
                        Some(1) => {
                            s.push(0);
                            i += 2;
                        }
                        _ => return Err(RelError::Decode("bad string escape".into())),
                    },
                    Some(&b) => {
                        s.push(b);
                        i += 1;
                    }
                    None => return Err(RelError::Decode("unterminated string".into())),
                }
            }
        }
        Some(&t) => Err(RelError::Decode(format!("unknown field tag {t:#x}"))),
        None => Err(RelError::Decode("empty field".into())),
    }
}

fn push_len_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn read_u32(bytes: &[u8], at: usize) -> RelResult<u32> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_be_bytes(b.try_into().unwrap()))
        .ok_or_else(|| RelError::Decode("truncated length".into()))
}

fn read_len_str(bytes: &[u8], at: usize) -> RelResult<(&str, usize)> {
    let len = read_u32(bytes, at)? as usize;
    let raw = bytes
        .get(at + 4..at + 4 + len)
        .ok_or_else(|| RelError::Decode("truncated string body".into()))?;
    let s = std::str::from_utf8(raw).map_err(|_| RelError::Decode("non-UTF8 string".into()))?;
    Ok((s, at + 4 + len))
}

/// Append the wire encoding of one term (any transportable kind).
pub fn encode_term_wire(out: &mut Vec<u8>, t: &Term) -> RelResult<()> {
    match t {
        Term::Int(_) | Term::Double(_) | Term::Str(_) => encode_term(out, t),
        Term::Big(b) => {
            out.push(TAG_BIG);
            push_len_bytes(out, b.to_string().as_bytes());
            Ok(())
        }
        Term::Var(v) => {
            out.push(TAG_VAR);
            out.extend_from_slice(&v.0.to_be_bytes());
            Ok(())
        }
        Term::App(a) => {
            out.push(TAG_APP);
            push_len_bytes(out, a.sym().as_str().as_bytes());
            out.extend_from_slice(&(a.arity() as u32).to_be_bytes());
            for arg in a.args() {
                encode_term_wire(out, arg)?;
            }
            Ok(())
        }
        Term::Adt(a) => Err(RelError::NonPrimitive(format!(
            "ADT value {} is process-local and cannot be sent over the wire",
            a.print()
        ))),
    }
}

/// Maximum functor-nesting depth accepted by the wire decoder. Deeper
/// terms in a frame are a protocol error: decoding recurses per level,
/// so without a limit a corrupt or malicious frame of nested functor
/// headers would overflow the decoder's stack and abort the process
/// instead of surfacing [`RelError::Decode`].
pub const MAX_WIRE_DEPTH: usize = 128;

/// Decode one wire term, returning it and the bytes consumed.
pub fn decode_term_wire(bytes: &[u8]) -> RelResult<(Term, usize)> {
    decode_term_wire_depth(bytes, 0)
}

fn decode_term_wire_depth(bytes: &[u8], depth: usize) -> RelResult<(Term, usize)> {
    if depth > MAX_WIRE_DEPTH {
        return Err(RelError::Decode(format!(
            "term nesting exceeds the wire limit of {MAX_WIRE_DEPTH}"
        )));
    }
    match bytes.first() {
        Some(&TAG_BIG) => {
            let (s, end) = read_len_str(bytes, 1)?;
            let big = s
                .parse()
                .map_err(|_| RelError::Decode(format!("bad bignum literal {s:?}")))?;
            Ok((Term::big(big), end))
        }
        Some(&TAG_VAR) => {
            let id = read_u32(bytes, 1)?;
            Ok((Term::var(id), 5))
        }
        Some(&TAG_APP) => {
            let (name, mut at) = read_len_str(bytes, 1)?;
            let sym = coral_term::Symbol::intern(name);
            let arity = read_u32(bytes, at)? as usize;
            at += 4;
            // The arity is untrusted: every argument takes ≥ 1 byte, so
            // the remaining input bounds any honest arity and a huge
            // declared value cannot reserve more than the frame's size.
            let mut args = Vec::with_capacity(arity.min(bytes.len() - at));
            for _ in 0..arity {
                let (arg, n) = decode_term_wire_depth(&bytes[at..], depth + 1)?;
                args.push(arg);
                at += n;
            }
            Ok((Term::app(sym, args), at))
        }
        _ => decode_term(bytes),
    }
}

/// Encode a whole tuple for the wire: arity prefix, then self-delimiting
/// wire terms. Unlike [`encode_tuple`], the arity prefix makes the
/// encoding self-delimiting *as a whole*, so tuples can be concatenated
/// in one network frame (and the empty tuple is representable).
pub fn encode_tuple_wire(tuple: &Tuple) -> RelResult<Vec<u8>> {
    let mut out = Vec::with_capacity(4 + tuple.arity() * 12);
    out.extend_from_slice(&(tuple.arity() as u32).to_be_bytes());
    for t in tuple.args() {
        encode_term_wire(&mut out, t)?;
    }
    Ok(out)
}

/// Decode one wire tuple, returning it and the bytes consumed. Variable
/// identity is preserved: `p(X, X)` and `p(X, Y)` decode to distinct
/// tuples.
pub fn decode_tuple_wire(bytes: &[u8]) -> RelResult<(Tuple, usize)> {
    let arity = read_u32(bytes, 0)? as usize;
    let mut at = 4;
    // Untrusted arity: bound the reservation by the bytes actually
    // present (each field encodes to ≥ 1 byte).
    let mut args = Vec::with_capacity(arity.min(bytes.len() - at));
    for _ in 0..arity {
        let (t, n) = decode_term_wire(&bytes[at..])?;
        args.push(t);
        at += n;
    }
    Ok((Tuple::new(args), at))
}

/// Decode a whole tuple.
pub fn decode_tuple(mut bytes: &[u8]) -> RelResult<Tuple> {
    let mut args = Vec::new();
    while !bytes.is_empty() {
        let (t, n) = decode_term(bytes)?;
        args.push(t);
        bytes = &bytes[n..];
    }
    Ok(Tuple::ground(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: Term) -> Term {
        let mut buf = Vec::new();
        encode_term(&mut buf, &t).unwrap();
        let (back, n) = decode_term(&buf).unwrap();
        assert_eq!(n, buf.len());
        back
    }

    #[test]
    fn roundtrips() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42] {
            assert_eq!(roundtrip(Term::int(v)), Term::int(v));
        }
        for v in [0.0, -0.0, 1.5, -2.25, f64::MAX, f64::MIN_POSITIVE, -1e300] {
            assert_eq!(roundtrip(Term::double(v)), Term::double(v));
        }
        for s in ["", "a", "hello world", "with\0nul", "naïve-ütf8"] {
            assert_eq!(roundtrip(Term::str(s)), Term::str(s));
        }
    }

    #[test]
    fn int_encoding_preserves_order() {
        let vals = [i64::MIN, -100, -1, 0, 1, 99, i64::MAX];
        let mut encoded: Vec<Vec<u8>> = vals
            .iter()
            .map(|&v| {
                let mut b = Vec::new();
                encode_term(&mut b, &Term::int(v)).unwrap();
                b
            })
            .collect();
        let sorted = encoded.clone();
        encoded.sort();
        assert_eq!(encoded, sorted);
    }

    #[test]
    fn double_encoding_preserves_order() {
        let vals = [-1e308, -2.5, -0.0, 0.0, 1e-300, 3.25, 1e308];
        let encoded: Vec<Vec<u8>> = vals
            .iter()
            .map(|&v| {
                let mut b = Vec::new();
                encode_term(&mut b, &Term::double(v)).unwrap();
                b
            })
            .collect();
        for w in encoded.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn string_encoding_preserves_order_and_prefix_freedom() {
        let vals = ["", "a", "ab", "abc", "b"];
        let encoded: Vec<Vec<u8>> = vals
            .iter()
            .map(|s| {
                let mut b = Vec::new();
                encode_term(&mut b, &Term::str(s)).unwrap();
                b
            })
            .collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Embedded NULs do not collide with the terminator.
        let mut a = Vec::new();
        encode_term(&mut a, &Term::str("x\0y")).unwrap();
        let mut b = Vec::new();
        encode_term(&mut b, &Term::str("x")).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::ground(vec![Term::int(-5), Term::str("abc"), Term::double(2.5)]);
        let enc = encode_tuple(&t).unwrap();
        assert_eq!(decode_tuple(&enc).unwrap(), t);
        let empty = Tuple::ground(vec![]);
        assert_eq!(decode_tuple(&encode_tuple(&empty).unwrap()).unwrap(), empty);
    }

    #[test]
    fn non_primitives_rejected() {
        let mut buf = Vec::new();
        assert!(encode_term(&mut buf, &Term::var(0)).is_err());
        assert!(encode_term(&mut buf, &Term::apps("f", vec![])).is_err());
        assert!(encode_term(&mut buf, &Term::big("9".repeat(30).parse().unwrap())).is_err());
    }

    #[test]
    fn corrupt_input_rejected() {
        assert!(decode_term(&[]).is_err());
        assert!(decode_term(&[0x99]).is_err());
        assert!(decode_term(&[TAG_INT, 1, 2]).is_err());
        assert!(decode_term(&[TAG_STR, b'a']).is_err());
        assert!(decode_term(&[TAG_STR, 0, 9]).is_err());
    }

    // ----------------------------------------------------------------
    // Wire-path round-trips (the coral-net transport encoding).
    // ----------------------------------------------------------------

    fn wire_roundtrip(t: &Term) -> Term {
        let mut buf = Vec::new();
        encode_term_wire(&mut buf, t).unwrap();
        let (back, n) = decode_term_wire(&buf).unwrap();
        assert_eq!(n, buf.len(), "wire term must consume all its bytes");
        back
    }

    fn wire_tuple_roundtrip(t: &Tuple) -> Tuple {
        let enc = encode_tuple_wire(t).unwrap();
        let (back, n) = decode_tuple_wire(&enc).unwrap();
        assert_eq!(n, enc.len());
        back
    }

    #[test]
    fn wire_roundtrips_primitives_same_as_storage() {
        for t in [
            Term::int(i64::MIN),
            Term::int(42),
            Term::double(-2.25),
            Term::str("with\0nul"),
            Term::str(""),
        ] {
            assert_eq!(wire_roundtrip(&t), t);
            // Primitive wire bytes are exactly the storage bytes.
            let (mut a, mut b) = (Vec::new(), Vec::new());
            encode_term(&mut a, &t).unwrap();
            encode_term_wire(&mut b, &t).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn wire_roundtrips_bignums() {
        for s in [
            "99999999999999999999999999999999999999",
            "-12345678901234567890123456789",
            "0",
        ] {
            let t = Term::big(s.parse().unwrap());
            assert_eq!(wire_roundtrip(&t), t);
        }
        // A bignum the storage encoding rejects still travels the wire.
        let big = Term::big("7".repeat(50).parse().unwrap());
        let mut buf = Vec::new();
        assert!(encode_term(&mut buf, &big).is_err());
        assert_eq!(wire_roundtrip(&big), big);
    }

    #[test]
    fn wire_roundtrips_non_ground_terms() {
        let t = Term::apps("f", vec![Term::var(0), Term::int(1), Term::var(3)]);
        let back = wire_roundtrip(&t);
        assert_eq!(back, t);
        assert!(!back.is_ground());
        assert_eq!(wire_roundtrip(&Term::var(7)), Term::var(7));
    }

    #[test]
    fn wire_roundtrips_nested_functors_and_lists() {
        let nested = Term::apps(
            "edge",
            vec![
                Term::apps("node", vec![Term::int(1), Term::str("a b")]),
                Term::list(vec![
                    Term::int(1),
                    Term::list(vec![Term::str("x"), Term::var(0)]),
                    Term::big("88888888888888888888".parse().unwrap()),
                ]),
            ],
        );
        assert_eq!(wire_roundtrip(&nested), nested);
        // Improper list (open tail).
        let open = Term::cons(Term::var(0), Term::var(1));
        assert_eq!(wire_roundtrip(&open), open);
        assert_eq!(wire_roundtrip(&Term::nil()), Term::nil());
    }

    #[test]
    fn wire_tuple_roundtrips_incl_empty_and_variable_sharing() {
        let empty = Tuple::new(vec![]);
        assert_eq!(wire_tuple_roundtrip(&empty), empty);
        let shared = Tuple::new(vec![Term::var(0), Term::var(0)]);
        let distinct = Tuple::new(vec![Term::var(0), Term::var(1)]);
        assert_eq!(wire_tuple_roundtrip(&shared), shared);
        assert_eq!(wire_tuple_roundtrip(&distinct), distinct);
        assert_ne!(wire_tuple_roundtrip(&shared), distinct);
        // Tuples concatenate in a frame: decoding reports consumption.
        let mut frame = encode_tuple_wire(&shared).unwrap();
        let first_len = frame.len();
        frame.extend(encode_tuple_wire(&distinct).unwrap());
        let (a, n) = decode_tuple_wire(&frame).unwrap();
        assert_eq!((a, n), (shared, first_len));
        let (b, _) = decode_tuple_wire(&frame[first_len..]).unwrap();
        assert_eq!(b, distinct);
    }

    #[test]
    fn wire_corrupt_input_rejected() {
        assert!(decode_term_wire(&[TAG_BIG, 0, 0, 0, 4, b'a']).is_err());
        assert!(decode_term_wire(&[TAG_BIG, 0, 0, 0, 2, b'x', b'y']).is_err());
        assert!(decode_term_wire(&[TAG_VAR, 0, 0]).is_err());
        assert!(decode_term_wire(&[TAG_APP, 0, 0, 0, 1, b'f', 0, 0, 0, 2]).is_err());
        assert!(decode_tuple_wire(&[0, 0, 0, 1]).is_err());
        assert!(decode_tuple_wire(&[]).is_err());
    }

    /// A unary functor header: `f(` … with one pending argument.
    fn nested_app_header(buf: &mut Vec<u8>) {
        buf.push(TAG_APP);
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.push(b'f');
        buf.extend_from_slice(&1u32.to_be_bytes());
    }

    #[test]
    fn wire_nesting_depth_is_bounded_not_a_stack_overflow() {
        // Just inside the limit: decodes fine.
        let mut ok = Vec::new();
        for _ in 0..MAX_WIRE_DEPTH {
            nested_app_header(&mut ok);
        }
        encode_term_wire(&mut ok, &Term::int(7)).unwrap();
        let (t, n) = decode_term_wire(&ok).unwrap();
        assert_eq!(n, ok.len());
        let mut depth = 0;
        let mut cur = &t;
        while let Term::App(a) = cur {
            depth += 1;
            cur = &a.args()[0];
        }
        assert_eq!(depth, MAX_WIRE_DEPTH);

        // A frame nesting far past the limit must surface a Decode
        // error, not blow the decoder's stack (a 100k-level frame would
        // abort the process if decoding recursed unbounded).
        let mut evil = Vec::new();
        for _ in 0..100_000 {
            nested_app_header(&mut evil);
        }
        encode_term_wire(&mut evil, &Term::int(7)).unwrap();
        assert!(matches!(decode_term_wire(&evil), Err(RelError::Decode(_))));
    }

    #[test]
    fn wire_huge_declared_arity_does_not_preallocate() {
        // A functor claiming u32::MAX args in a tiny frame: must error
        // on the missing arguments without reserving gigabytes first.
        let mut term = vec![TAG_APP, 0, 0, 0, 1, b'f'];
        term.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_term_wire(&term).is_err());
        // Same for the tuple arity prefix.
        let tuple = u32::MAX.to_be_bytes().to_vec();
        assert!(decode_tuple_wire(&tuple).is_err());
    }
}
