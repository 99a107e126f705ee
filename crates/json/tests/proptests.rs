//! Property-based tests for the JSON substrate.
//!
//! The invariants here are load-bearing for the whole reproduction: the
//! attack's observable is a serialized length, so the length oracle, the
//! serializer and the parser must agree on every representable document.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_json::{parse, to_bytes, Number, Value};

/// Minimal splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A string over a mix of plain text, quotes, escapes, controls and
/// non-ASCII — the characters most likely to break escaping logic.
fn arb_string(rng: &mut Rng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', '9', ' ', '"', '\\', '\t', '\n', '\u{1}', 'é', '世', '_', '.',
    ];
    let len = rng.below(max_len + 1);
    (0..len).map(|_| POOL[rng.below(POOL.len())]).collect()
}

/// Arbitrary JSON value of bounded depth: leaves at depth 0, containers
/// above with up to 5 children each.
fn arb_value(rng: &mut Rng, depth: usize) -> Value {
    let choices = if depth == 0 { 6 } else { 8 };
    match rng.below(choices) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Num(Number::Int(rng.next() as i64)),
        3 => Value::Num(Number::Fixed3(rng.next() as i64)),
        4 => Value::Str(arb_string(rng, 24)),
        5 => Value::Num(Number::Fixed6(rng.next() as i64)),
        6 => {
            let n = rng.below(6);
            Value::Array((0..n).map(|_| arb_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.below(6);
            Value::Object(
                (0..n)
                    .map(|_| (arb_string(rng, 12), arb_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// `serialized_len` is an exact oracle for `to_bytes().len()`.
#[test]
fn length_oracle_is_exact() {
    for case in 0..400u64 {
        let mut rng = Rng(0x15 + case);
        let v = arb_value(&mut rng, 4);
        assert_eq!(to_bytes(&v).len(), v.serialized_len(), "case {case}: {v:?}");
    }
}

/// Everything the serializer emits parses back to the same tree.
#[test]
fn serializer_parser_roundtrip() {
    for case in 0..400u64 {
        let mut rng = Rng(0x1500 + case);
        let v = arb_value(&mut rng, 4);
        let bytes = to_bytes(&v);
        let parsed = parse(&bytes).ok();
        assert_eq!(parsed.as_ref(), Some(&v), "case {case}");
    }
}

/// The serializer's output is valid UTF-8 (JSON text requirement).
#[test]
fn output_is_utf8() {
    for case in 0..400u64 {
        let mut rng = Rng(0x15_0000 + case);
        let v = arb_value(&mut rng, 4);
        assert!(std::str::from_utf8(&to_bytes(&v)).is_ok(), "case {case}");
    }
}

/// The parser never panics on arbitrary input bytes.
#[test]
fn parser_total_on_garbage() {
    for case in 0..400u64 {
        let mut rng = Rng(0x15_1000 + case);
        let len = rng.below(256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        let _ = parse(&bytes);
    }
}

/// Mutating or truncating a valid document never panics; failures come
/// back as a typed [`wm_json::ParseError`] whose offset points inside
/// (or just past) the input, so error positions are always usable.
#[test]
fn mutated_documents_yield_typed_errors() {
    for case in 0..400u64 {
        let mut rng = Rng(0x15_3000 + case);
        let v = arb_value(&mut rng, 3);
        let mut bytes = to_bytes(&v);
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ => {
                let at = rng.below(bytes.len());
                bytes.insert(at, rng.next() as u8);
            }
        }
        if let Err(e) = parse(&bytes) {
            assert!(
                e.offset <= bytes.len(),
                "case {case}: offset {} out of bounds ({} bytes)",
                e.offset,
                bytes.len()
            );
            assert!(!e.message.is_empty(), "case {case}");
            // Errors are values: Display/Error impls must hold up.
            assert!(e.to_string().contains(e.message), "case {case}");
            let _: &dyn std::error::Error = &e;
        }
    }
}

/// Every strict prefix of a container document is rejected with a
/// typed error (never a panic, never a silent success) — a truncated
/// state blob cannot be mistaken for the full report. The root is
/// wrapped in an array so the closing bracket is always the last byte.
#[test]
fn every_strict_prefix_of_container_is_rejected() {
    for case in 0..100u64 {
        let mut rng = Rng(0x15_4000 + case);
        let v = Value::Array(vec![arb_value(&mut rng, 3)]);
        let bytes = to_bytes(&v);
        for cut in 0..bytes.len() {
            let e = parse(&bytes[..cut]).expect_err("strict prefix must not parse");
            assert!(e.offset <= cut, "case {case} cut {cut}");
        }
    }
}

/// Parsing arbitrary ASCII that may look JSON-ish never panics and, if
/// it succeeds, reserializing yields a parseable document again.
#[test]
fn reparse_stability() {
    const POOL: &[u8] = b"[]{}\",:0123456789abcz.- ";
    for case in 0..400u64 {
        let mut rng = Rng(0x15_2000 + case);
        let len = rng.below(64);
        let s: Vec<u8> = (0..len).map(|_| POOL[rng.below(POOL.len())]).collect();
        if let Ok(v) = parse(&s) {
            let bytes = to_bytes(&v);
            assert_eq!(parse(&bytes).ok(), Some(v), "case {case}");
        }
    }
}
