//! # wm-json — byte-exact JSON for the White Mirror reproduction
//!
//! The side-channel studied by the paper is the *serialized size* of the
//! JSON state blobs that the Netflix player posts at every choice point.
//! Reproducing the attack therefore requires full control over every byte
//! of the serialized document: key order, escaping, number formatting and
//! whitespace all contribute to the TLS record length that the
//! eavesdropper observes.
//!
//! This crate implements a small, dependency-free JSON document model:
//!
//! * [`Value`] — an ordered document tree (object keys keep insertion
//!   order, exactly like the serializer of a real browser runtime does for
//!   object literals).
//! * [`to_bytes`] / [`Value::serialized_len`] — a compact serializer and a
//!   length oracle that agree byte-for-byte.
//! * [`parse`] — a recursive-descent parser used by the simulated server
//!   to validate the blobs it receives (and by round-trip tests).
//!
//! The crate is deliberately *not* a general-purpose JSON library: numbers
//! are restricted to the shapes the simulated player and the bench
//! reports emit (i64, fixed-point milliseconds, six-digit fixed point)
//! so that serialization is total and unambiguous.

pub mod de;
pub mod escape;
pub mod number;
pub mod ser;
pub mod value;

pub use de::{parse, ParseError};
pub use ser::{to_bytes, to_pretty_bytes};
pub use value::{Number, Value};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_smoke() {
        let v = Value::object(vec![
            ("a".into(), Value::from(1i64)),
            ("b".into(), Value::from("x")),
        ]);
        let bytes = to_bytes(&v);
        assert_eq!(parse(&bytes).unwrap(), v);
        assert_eq!(bytes.len(), v.serialized_len());
    }
}
