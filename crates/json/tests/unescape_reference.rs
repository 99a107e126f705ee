//! `escape::unescape` against a reference copy of its earlier
//! char-by-char form.
//!
//! The reference re-validates the rest of the body as UTF-8 before it
//! decodes each character: correct, but quadratic in string length.
//! The shipped function validates the body once and copies the runs
//! between escapes. Both must accept the same bodies and decode them
//! to the same string. The cases mix plain and multi-byte text with
//! every escape form, lone and paired surrogates, truncated `\u`
//! escapes, stray backslashes and invalid UTF-8 on either side of an
//! escape, drawn from a seeded splitmix64 driver. Failures print the
//! case number for replay.

use wm_json::escape::unescape;

/// The earlier `unescape`, kept verbatim as the oracle.
fn reference_unescape(body: &[u8]) -> Option<String> {
    let mut out = String::with_capacity(body.len());
    let mut i = 0;
    while let Some(&b) = body.get(i) {
        if b != b'\\' {
            let rest = std::str::from_utf8(body.get(i..)?).ok()?;
            let ch = rest.chars().next()?;
            out.push(ch);
            i += ch.len_utf8();
            continue;
        }
        i += 1;
        let esc = *body.get(i)?;
        i += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b't' => out.push('\t'),
            b'n' => out.push('\n'),
            b'f' => out.push('\u{c}'),
            b'r' => out.push('\r'),
            b'u' => {
                let hi = parse_hex4(body.get(i..i + 4)?)?;
                i += 4;
                if (0xd800..0xdc00).contains(&hi) {
                    if body.get(i) != Some(&b'\\') || body.get(i + 1) != Some(&b'u') {
                        return None;
                    }
                    let lo = parse_hex4(body.get(i + 2..i + 6)?)?;
                    i += 6;
                    if !(0xdc00..0xe000).contains(&lo) {
                        return None;
                    }
                    let cp = 0x10000 + (((hi - 0xd800) as u32) << 10) + (lo - 0xdc00) as u32;
                    out.push(char::from_u32(cp)?);
                } else if (0xdc00..0xe000).contains(&hi) {
                    return None;
                } else {
                    out.push(char::from_u32(hi as u32)?);
                }
            }
            _ => return None,
        }
    }
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

/// Well-formed pieces: plain and multi-byte text, and every escape.
const VALID: &[&[u8]] = &[
    b"a",
    b"Zq 09",
    b"_.,:",
    "é".as_bytes(),
    "世界".as_bytes(),
    "😀".as_bytes(),
    "héllo wörld ".as_bytes(),
    b"\\\"",
    b"\\\\",
    b"\\/",
    b"\\b",
    b"\\t",
    b"\\n",
    b"\\f",
    b"\\r",
    b"\\u0041",
    b"\\u00e9",
    b"\\u4E16",
    b"\\u0000",
    b"\\ud83d\\ude00",
    b"\\uD83D\\uDE00",
    b"\\udbff\\udfff",
];

/// Pieces that should make a body fail: invalid UTF-8, bad or
/// truncated escapes, lone surrogates.
const BROKEN: &[&[u8]] = &[
    b"\xff",
    b"\x80",
    b"\xe4\xb8",
    b"\xc3",
    b"\xed\xa0\x80",
    b"\\x",
    b"\\",
    b"\\u12",
    b"\\u12g4",
    b"\\ud83d",
    b"\\ud83d\\u0041",
    b"\\ud83d\\n",
    b"\\ud83d\\\\dc00",
    b"\\ud83d\\ud83d",
    b"\\ude00",
    "\\é".as_bytes(),
    "\\u00é".as_bytes(),
];

/// A body of up to `max_pieces` pieces; with `broken_odds` = n, about
/// one piece in n is drawn from `BROKEN`.
fn arb_body(rng: &mut Rng, max_pieces: usize, broken_odds: usize) -> Vec<u8> {
    let pieces = rng.below(max_pieces + 1);
    let mut body = Vec::new();
    for _ in 0..pieces {
        let piece = if broken_odds > 0 && rng.below(broken_odds) == 0 {
            BROKEN[rng.below(BROKEN.len())]
        } else {
            VALID[rng.below(VALID.len())]
        };
        body.extend_from_slice(piece);
    }
    body
}

fn check(case: usize, body: &[u8]) {
    assert_eq!(
        unescape(body),
        reference_unescape(body),
        "case {case}: body {:?}",
        String::from_utf8_lossy(body)
    );
}

#[test]
fn matches_the_reference_on_short_mixed_bodies() {
    let mut rng = Rng(0x5eed_0e5c);
    let mut accepted = 0;
    for case in 0..3000 {
        let body = arb_body(&mut rng, 12, [0, 2, 6, 20][case % 4]);
        check(case, &body);
        accepted += usize::from(unescape(&body).is_some());
    }
    // Both outcomes must be well represented, or the sweep proves
    // little about one of them.
    assert!((500..2500).contains(&accepted), "accepted {accepted}");
}

#[test]
fn matches_the_reference_on_long_multibyte_bodies() {
    let mut rng = Rng(0x10c6_b0d1);
    for case in 0..24 {
        // One broken piece at most, placed anywhere in a long body of
        // multi-byte text and escapes.
        let mut body = arb_body(&mut rng, 600, 0);
        if case % 2 == 1 && !body.is_empty() {
            let at = rng.below(body.len());
            let cut = (0..=at)
                .rev()
                .find(|&i| body[i] & 0xc0 != 0x80)
                .unwrap_or(0);
            let piece = BROKEN[rng.below(BROKEN.len())];
            body.splice(cut..cut, piece.iter().copied());
        }
        check(case, &body);
    }
}

#[test]
fn invalid_utf8_is_rejected_on_either_side_of_an_escape() {
    for body in [
        &b"\xff\\n"[..],
        b"\\n\xff",
        b"ok\\u0041\xe4\xb8",
        b"\xc3\\\"x",
        b"\\ud83d\\ude00\x80",
    ] {
        assert_eq!(unescape(body), None, "{body:?}");
        assert_eq!(reference_unescape(body), None, "{body:?}");
    }
}
