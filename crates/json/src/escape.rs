//! JSON string escaping.
//!
//! The escaping rules match what `JSON.stringify` produces in mainstream
//! browser engines (the players whose traffic the paper captures):
//!
//! * `"` and `\` are escaped with a backslash;
//! * the named control escapes `\b \t \n \f \r` are used where defined;
//! * remaining C0 controls use `\u00XX`;
//! * everything else — including non-ASCII — is emitted verbatim (UTF-8).

/// Number of bytes `s` occupies once escaped (excluding the surrounding
/// quotes).
pub fn escaped_len(s: &str) -> usize {
    s.bytes().map(escaped_byte_len).sum()
}

fn escaped_byte_len(b: u8) -> usize {
    match b {
        b'"' | b'\\' | 0x08 | 0x09 | 0x0a | 0x0c | 0x0d => 2,
        0x00..=0x1f => 6,
        _ => 1,
    }
}

/// Append the escaped form of `s` (no surrounding quotes) to `out`.
pub fn escape_into(s: &str, out: &mut Vec<u8>) {
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            0x08 => out.extend_from_slice(b"\\b"),
            0x09 => out.extend_from_slice(b"\\t"),
            0x0a => out.extend_from_slice(b"\\n"),
            0x0c => out.extend_from_slice(b"\\f"),
            0x0d => out.extend_from_slice(b"\\r"),
            0x00..=0x1f => {
                out.extend_from_slice(b"\\u00");
                // wm-lint: allow(panic/index, reason = "nibble index is masked to 0..16")
                out.push(HEX[(b >> 4) as usize]);
                // wm-lint: allow(panic/index, reason = "nibble index is masked to 0..16")
                out.push(HEX[(b & 0xf) as usize]);
            }
            _ => out.push(b),
        }
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Decode an escaped string body (the bytes between the quotes).
///
/// Returns `None` on malformed escapes. Surrogate-pair `\uXXXX` escapes
/// for non-BMP characters are supported because the parser must accept
/// anything the serializer — or a hand-written test vector — produces.
pub fn unescape(body: &[u8]) -> Option<String> {
    // Every byte an escape consumes is ASCII, so one up-front UTF-8
    // check over the whole body is the same check as validating each
    // unescaped run.
    let body = std::str::from_utf8(body).ok()?;
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find('\\') {
        out.push_str(rest.get(..at)?);
        let bytes = rest.as_bytes();
        let mut i = at + 2;
        match *bytes.get(at + 1)? {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b't' => out.push('\t'),
            b'n' => out.push('\n'),
            b'f' => out.push('\u{c}'),
            b'r' => out.push('\r'),
            b'u' => {
                let hi = parse_hex4(bytes.get(i..i + 4)?)?;
                i += 4;
                if (0xd800..0xdc00).contains(&hi) {
                    // High surrogate: must be followed by \uXXXX low surrogate.
                    if bytes.get(i) != Some(&b'\\') || bytes.get(i + 1) != Some(&b'u') {
                        return None;
                    }
                    let lo = parse_hex4(bytes.get(i + 2..i + 6)?)?;
                    i += 6;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return None;
                    }
                    let cp = 0x10000 + (((hi - 0xd800) as u32) << 10) + (lo - 0xdc00) as u32;
                    out.push(char::from_u32(cp)?);
                } else if (0xdc00..0xe000).contains(&hi) {
                    return None; // lone low surrogate
                } else {
                    out.push(char::from_u32(hi as u32)?);
                }
            }
            _ => return None,
        }
        rest = rest.get(i..)?;
    }
    out.push_str(rest);
    Some(out)
}

fn parse_hex4(bytes: &[u8]) -> Option<u16> {
    let mut v: u16 = 0;
    for &b in bytes {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return None,
        };
        v = v.checked_mul(16)?.checked_add(d as u16)?;
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc(s: &str) -> Vec<u8> {
        let mut out = Vec::new();
        escape_into(s, &mut out);
        out
    }

    #[test]
    fn plain_ascii_passthrough() {
        assert_eq!(esc("hello world"), b"hello world");
        assert_eq!(escaped_len("hello world"), 11);
    }

    #[test]
    fn quotes_and_backslashes() {
        assert_eq!(esc(r#"a"b\c"#), br#"a\"b\\c"#);
        assert_eq!(escaped_len(r#"a"b\c"#), 7);
    }

    #[test]
    fn named_controls() {
        assert_eq!(esc("\u{8}\t\n\u{c}\r"), b"\\b\\t\\n\\f\\r");
        assert_eq!(escaped_len("\u{8}\t\n\u{c}\r"), 10);
    }

    #[test]
    fn other_controls_use_u00xx() {
        assert_eq!(esc("\u{1}"), b"\\u0001");
        assert_eq!(esc("\u{1f}"), b"\\u001f");
        assert_eq!(escaped_len("\u{0}"), 6);
    }

    #[test]
    fn non_ascii_verbatim() {
        assert_eq!(esc("héllo"), "héllo".as_bytes());
        assert_eq!(escaped_len("héllo"), "héllo".len());
    }

    #[test]
    fn unescape_roundtrip() {
        for s in [
            "",
            "plain",
            r#"q"uo\te"#,
            "tab\tnl\n",
            "\u{1}\u{1f}",
            "héllo 世界",
        ] {
            let escaped = esc(s);
            assert_eq!(unescape(&escaped).as_deref(), Some(s), "roundtrip {s:?}");
        }
    }

    #[test]
    fn unescape_surrogate_pair() {
        let escaped: &[u8] = b"\\ud83d\\ude00";
        assert_eq!(unescape(escaped).as_deref(), Some("\u{1f600}"));
    }

    #[test]
    fn unescape_rejects_malformed() {
        assert!(unescape(br"\x").is_none());
        assert!(unescape(br"\u12").is_none());
        assert!(unescape(br"\ud83d").is_none()); // lone high surrogate
        assert!(unescape(br"\udc00").is_none()); // lone low surrogate
        assert!(unescape(b"\xff").is_none()); // invalid UTF-8
    }
}
