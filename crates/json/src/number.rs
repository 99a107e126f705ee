//! JSON number representation and decimal formatting.

use std::fmt;

/// A JSON number.
///
/// The simulated Netflix player only ever emits two shapes of number:
/// signed integers (timestamps in milliseconds, segment indices, byte
/// offsets) and fixed-point values with exactly three fractional digits
/// (playback positions in seconds). Bench reports add a third: metrics
/// with exactly six fractional digits. Restricting [`Number`] to these
/// shapes keeps serialization total: every representable number has
/// exactly one textual form, so `serialized_len` can be computed without
/// allocating.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Number {
    /// An integer, serialized as its decimal digits (`-?[0-9]+`).
    Int(i64),
    /// A fixed-point value with three fractional digits, stored as the
    /// value multiplied by 1000. `Fixed3(1234)` serializes as `1.234`.
    Fixed3(i64),
    /// A fixed-point value with six fractional digits, stored as the
    /// value multiplied by 10⁶. `Fixed6(1_500_000)` serializes as
    /// `1.500000`, the form bench reports write (`{v:.6}`).
    Fixed6(i64),
}

impl Number {
    /// Number of bytes this number occupies when serialized.
    pub fn serialized_len(&self) -> usize {
        match *self {
            Number::Int(v) => (v < 0) as usize + dec_len_u64(v.unsigned_abs()),
            Number::Fixed3(v) => fixed_len(v, 3),
            Number::Fixed6(v) => fixed_len(v, 6),
        }
    }

    /// Append the canonical textual form to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        match *self {
            Number::Int(v) => {
                let mut buf = [0u8; 20];
                let s = fmt_i64(v, &mut buf);
                out.extend_from_slice(s);
            }
            Number::Fixed3(v) => write_fixed(v, 3, out),
            Number::Fixed6(v) => write_fixed(v, 6, out),
        }
    }

    /// The value as an `f64` (fixed-point values divided by their
    /// scale).
    pub fn to_f64(&self) -> f64 {
        match *self {
            Number::Int(v) => v as f64,
            Number::Fixed3(v) => v as f64 / 1e3,
            Number::Fixed6(v) => v as f64 / 1e6,
        }
    }
}

/// Sign + integral digits + '.' + exactly `digits` fraction digits.
fn fixed_len(v: i64, digits: u32) -> usize {
    let int_part = v.unsigned_abs() / 10u64.pow(digits);
    (v < 0) as usize + dec_len_u64(int_part) + 1 + digits as usize
}

fn write_fixed(v: i64, digits: u32, out: &mut Vec<u8>) {
    if v < 0 {
        out.push(b'-');
    }
    let scale = 10u64.pow(digits);
    let abs = v.unsigned_abs();
    let mut buf = [0u8; 20];
    out.extend_from_slice(fmt_u64(abs / scale, &mut buf));
    out.push(b'.');
    let frac = abs % scale;
    for d in (0..digits).rev() {
        out.push(b'0' + (frac / 10u64.pow(d) % 10) as u8);
    }
}

impl fmt::Debug for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = Vec::new();
        self.write_to(&mut buf);
        // `write_to` emits pure ASCII, so the lossy conversion never
        // actually substitutes anything.
        f.write_str(&String::from_utf8_lossy(&buf))
    }
}

/// Number of decimal digits in `v` (1 for 0).
pub(crate) fn dec_len_u64(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

fn fmt_u64(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut start = buf.len();
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (v % 10) as u8;
        start -= 1;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.get(start..).unwrap_or_default()
}

fn fmt_i64(v: i64, buf: &mut [u8; 20]) -> &[u8] {
    if v >= 0 {
        return fmt_u64(v as u64, buf);
    }
    let digits_len = fmt_u64(v.unsigned_abs(), buf).len();
    // An i64 magnitude has at most 19 digits, so the 20-byte buffer
    // always leaves a slot for the sign.
    let sign = (buf.len() - digits_len).saturating_sub(1);
    if let Some(slot) = buf.get_mut(sign) {
        *slot = b'-';
    }
    buf.get(sign..).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_lengths() {
        for v in [0i64, 1, 9, 10, 99, 100, -1, -10, i64::MAX, i64::MIN] {
            assert_eq!(
                Number::Int(v).serialized_len(),
                v.to_string().len(),
                "len mismatch for {v}"
            );
        }
    }

    #[test]
    fn int_text() {
        for v in [0i64, 7, 42, -42, 1000, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            Number::Int(v).write_to(&mut out);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }

    #[test]
    fn fixed3_text() {
        let cases = [
            (0i64, "0.000"),
            (1, "0.001"),
            (999, "0.999"),
            (1000, "1.000"),
            (1234, "1.234"),
            (-1234, "-1.234"),
            (-5, "-0.005"),
            (123_456_789, "123456.789"),
        ];
        for (v, want) in cases {
            let mut out = Vec::new();
            Number::Fixed3(v).write_to(&mut out);
            assert_eq!(out, want.as_bytes(), "for {v}");
            assert_eq!(
                Number::Fixed3(v).serialized_len(),
                want.len(),
                "len for {v}"
            );
        }
    }

    #[test]
    fn fixed6_text() {
        let cases = [
            (0i64, "0.000000"),
            (1, "0.000001"),
            (1_500_000, "1.500000"),
            (-5, "-0.000005"),
            (2_812_269_271_941_605, "2812269271.941605"),
            (i64::MIN, "-9223372036854.775808"),
        ];
        for (v, want) in cases {
            let mut out = Vec::new();
            Number::Fixed6(v).write_to(&mut out);
            assert_eq!(out, want.as_bytes(), "for {v}");
            assert_eq!(
                Number::Fixed6(v).serialized_len(),
                want.len(),
                "len for {v}"
            );
            assert_eq!(Number::Fixed6(v).to_f64(), want.parse::<f64>().unwrap());
        }
    }

    #[test]
    fn debug_formats_like_text() {
        assert_eq!(format!("{:?}", Number::Int(-3)), "-3");
        assert_eq!(format!("{:?}", Number::Fixed3(1500)), "1.500");
    }
}
