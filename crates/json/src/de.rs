//! Recursive-descent JSON parser.
//!
//! Used by the simulated Netflix server to validate and interpret the
//! state blobs it receives, and by round-trip tests against the
//! serializer. The grammar is standard JSON with two restrictions that
//! match [`crate::Number`]:
//!
//! * exponents are not accepted;
//! * fractional numbers carry one to three fraction digits (normalized
//!   to [`crate::Number::Fixed3`], so `1.5` parses as `1.500`) or exactly
//!   six ([`crate::Number::Fixed6`], the bench-report form).

use crate::escape::unescape;
use crate::value::{Number, Value};

/// A parse failure, with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document from `input`.
///
/// Trailing whitespace is allowed; any other trailing bytes are an error.
pub fn parse(input: &[u8]) -> Result<Value, ParseError> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing bytes after document"));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by the parser.
///
/// The player's state blobs nest four or five levels deep; 128 leaves
/// generous headroom while keeping adversarial inputs from overflowing
/// the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> ParseError {
        ParseError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8, message: &'static str) -> Result<(), ParseError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &'static [u8], message: &'static str) -> Result<(), ParseError> {
        if self
            .input
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit))
        {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self
                .literal(b"null", "expected 'null'")
                .map(|_| Value::Null),
            Some(b't') => self
                .literal(b"true", "expected 'true'")
                .map(|_| Value::Bool(true)),
            Some(b'f') => self
                .literal(b"false", "expected 'false'")
                .map(|_| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect_byte(b'"', "expected '\"'")?;
        let start = self.pos;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    // Skip the escaped byte so a \" does not end the scan.
                    if self.bump().is_none() {
                        return Err(self.err("unterminated escape"));
                    }
                }
                Some(0x00..=0x1f) => return Err(self.err("raw control character in string")),
                Some(_) => {}
            }
        }
        // The closing quote was just consumed, so `pos - 1 >= start`.
        let body = self.input.get(start..self.pos - 1).unwrap_or_default();
        unescape(body).ok_or(ParseError {
            offset: start,
            message: "malformed string escape",
        })
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let neg = if self.peek() == Some(b'-') {
            self.pos += 1;
            true
        } else {
            false
        };
        let int_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let int_digits = self.input.get(int_start..self.pos).unwrap_or_default();
        if int_digits.is_empty() {
            return Err(self.err("expected digit"));
        }
        if int_digits.len() > 1 && int_digits.first() == Some(&b'0') {
            return Err(self.err("leading zero in number"));
        }
        let mut magnitude: u64 = 0;
        for &d in int_digits {
            magnitude = magnitude
                .checked_mul(10)
                .and_then(|m| m.checked_add((d - b'0') as u64))
                .ok_or_else(|| self.err("integer overflow"))?;
        }
        if self.peek() != Some(b'.') {
            let v = to_signed(neg, magnitude).ok_or_else(|| self.err("integer overflow"))?;
            return Ok(Value::Num(Number::Int(v)));
        }
        self.pos += 1; // consume '.'
        let frac_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let frac_digits = self.input.get(frac_start..self.pos).unwrap_or_default();
        if frac_digits.is_empty() {
            return Err(self.err("expected fraction digit"));
        }
        let (digits, fixed): (u32, fn(i64) -> Number) = match frac_digits.len() {
            1..=3 => (3, Number::Fixed3),
            6 => (6, Number::Fixed6),
            _ => return Err(self.err("fraction digits must number 1-3 or 6")),
        };
        let mut frac: u64 = 0;
        for &d in frac_digits {
            frac = frac * 10 + (d - b'0') as u64;
        }
        for _ in frac_digits.len()..digits as usize {
            frac *= 10;
        }
        let scaled = magnitude
            .checked_mul(10u64.pow(digits))
            .and_then(|m| m.checked_add(frac))
            .ok_or_else(|| self.err("fixed-point overflow"))?;
        let v = to_signed(neg, scaled).ok_or_else(|| self.err("fixed-point overflow"))?;
        Ok(Value::Num(fixed(v)))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'[', "expected '['")?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => break,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']'"));
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect_byte(b'{', "expected '{'")?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':', "expected ':'")?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}'"));
                }
            }
        }
        self.depth -= 1;
        Ok(Value::Object(members))
    }
}

fn to_signed(neg: bool, magnitude: u64) -> Option<i64> {
    if neg {
        if magnitude <= i64::MAX as u64 + 1 {
            Some((magnitude as i64).wrapping_neg())
        } else {
            None
        }
    } else {
        i64::try_from(magnitude).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_bytes;

    #[test]
    fn scalars() {
        assert_eq!(parse(b"null").unwrap(), Value::Null);
        assert_eq!(parse(b"true").unwrap(), Value::Bool(true));
        assert_eq!(parse(b"false").unwrap(), Value::Bool(false));
        assert_eq!(parse(b"42").unwrap(), Value::from(42i64));
        assert_eq!(parse(b"-7").unwrap(), Value::from(-7i64));
        assert_eq!(parse(b"1.250").unwrap(), Value::Num(Number::Fixed3(1250)));
        assert_eq!(parse(b"\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn short_fractions_normalize() {
        assert_eq!(parse(b"1.5").unwrap(), Value::Num(Number::Fixed3(1500)));
        assert_eq!(parse(b"-0.05").unwrap(), Value::Num(Number::Fixed3(-50)));
    }

    #[test]
    fn six_fraction_digits_parse_as_fixed6() {
        assert_eq!(
            parse(b"1.500000").unwrap(),
            Value::Num(Number::Fixed6(1_500_000))
        );
        assert_eq!(parse(b"-0.000005").unwrap(), Value::Num(Number::Fixed6(-5)));
        for bad in [&b"1.2345"[..], b"1.23456", b"1.2345678"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(b" { \"a\" : [ 1 , 2 ] , \"b\" : null } \n").unwrap();
        assert_eq!(
            v,
            Value::object(vec![
                (
                    "a".into(),
                    Value::array(vec![Value::from(1i64), Value::from(2i64)])
                ),
                ("b".into(), Value::Null),
            ])
        );
    }

    #[test]
    fn i64_bounds() {
        assert_eq!(
            parse(b"9223372036854775807").unwrap(),
            Value::from(i64::MAX)
        );
        assert_eq!(
            parse(b"-9223372036854775808").unwrap(),
            Value::from(i64::MIN)
        );
        assert!(parse(b"9223372036854775808").is_err());
        assert!(parse(b"-9223372036854775809").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":}",
            b"{\"a\" 1}",
            b"01",
            b"1.",
            b"1.2345",
            b"1e5",
            b"\"unterminated",
            b"nul",
            b"[1] trailing",
            b"",
            b"\"\x01\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {:?}", bad);
        }
    }

    #[test]
    fn rejects_excessive_depth() {
        let mut doc = vec![b'['; 200];
        doc.extend(std::iter::repeat_n(b']', 200));
        assert!(parse(&doc).is_err());
    }

    #[test]
    fn roundtrips_serializer_output() {
        let v = Value::object(vec![
            ("esn".into(), Value::from("NFCDIE-03-ABCDEF0123456789")),
            ("pos".into(), Value::Num(Number::Fixed3(914_250))),
            ("metric".into(), Value::Num(Number::Fixed6(-2_114_270_786))),
            (
                "flags".into(),
                Value::array(vec![Value::Bool(true), Value::Null]),
            ),
            (
                "nested".into(),
                Value::object(vec![("k".into(), Value::from(-1i64))]),
            ),
        ]);
        assert_eq!(parse(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn duplicate_keys_preserved() {
        let v = parse(br#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(
            v.as_object().unwrap(),
            &[
                ("a".to_string(), Value::from(1i64)),
                ("a".to_string(), Value::from(2i64))
            ]
        );
    }
}
