//! CRC-32 (IEEE 802.3 — the zlib/PNG checksum), the integrity trailer
//! of every checkpoint blob.
//!
//! On x86_64 CPUs with PCLMULQDQ, inputs of 64 bytes or more run a
//! carry-less-multiply folding kernel over their whole 16-byte lanes
//! (Intel, "Fast CRC Computation for Generic Polynomials Using
//! PCLMULQDQ"): four 128-bit lanes fold 64 bytes per step, then one
//! lane, then a Barrett reduction yields the 32-bit remainder. The
//! constants are the reflected IEEE ones of Linux's `crc32-pclmul`.
//! Calling that kernel once `is_x86_feature_detected!("pclmulqdq")`
//! returns true is the one `unsafe` block `wm-lint`'s budget allows in
//! this crate. Slicing-by-8 — eight table lookups consume eight input
//! bytes per step — runs the short inputs, the last <16 bytes, other
//! CPUs and Miri, and is the reference the kernel is tested against.

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) tables for
/// slicing-by-8, built at compile time: row 0 is the classic
/// byte-at-a-time table, row `k` advances a byte through `k` more
/// zero bytes, so eight lookups consume eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c; // wm-lint: allow(panic/index, reason = "const-evaluated, i < 256")
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // wm-lint: allow(panic/index, reason = "const-evaluated; k < 8, i < 256")
            let prev = t[k - 1][i];
            // wm-lint: allow(panic/index, reason = "const-evaluated; indexes masked below 256")
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `bytes` (the zlib/PNG checksum).
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut tail = bytes;
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (lanes, rest) = bytes.split_at(bytes.len() & !15);
        // SAFETY: the kernel's only requirement is PCLMULQDQ, which the
        // CPU was just detected to support.
        crc = unsafe { clmul::fold(crc, lanes) };
        tail = rest;
    }
    !slicing_by_8(crc, tail)
}

/// The CRC register `crc` advanced over `bytes`, eight bytes per step.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
    // `& 0xff` keeps every index below 256, so the checks fold away.
    let lut = |row: &[u32; 256], i: u32| row.get((i & 0xff) as usize).copied().unwrap_or(0);
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
        let lo = w as u32 ^ crc;
        let hi = (w >> 32) as u32;
        crc = lut(t7, lo)
            ^ lut(t6, lo >> 8)
            ^ lut(t5, lo >> 16)
            ^ lut(t4, lo >> 24)
            ^ lut(t3, hi)
            ^ lut(t2, hi >> 8)
            ^ lut(t1, hi >> 16)
            ^ lut(t0, hi >> 24);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ lut(t0, crc ^ b as u32);
    }
    crc
}

/// The PCLMULQDQ folding kernel behind [`crc32`].
///
/// Each 128-bit lane holds 16 input bytes, low word first. Folding a
/// lane `n` bits forward multiplies its low half by `x^(n+32) mod P` and
/// its high half by `x^(n-32) mod P` (bit-reflected, shifted left one;
/// the pairs below, high constant first) and XORs both products into
/// the lane `n` bits on.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// `x^480`, `x^544`: four lanes forward by four (512 bits).
    const R2R1: (i64, i64) = (0x1_c6e4_1596, 0x1_5444_2bd4);
    /// `x^96`, `x^160`: one lane forward by one (128 bits).
    const R4R3: (i64, i64) = (0x0_ccaa_009e, 0x1_7519_97d0);
    /// `x^64`: the low 32 bits forward into the 64 above them.
    const R5: i64 = 0x1_63cd_6124;
    /// Barrett reduction: `x^64 / P` (high) and `P` itself (low).
    const MU_POLY: (i64, i64) = (0x1_f701_1641, 0x1_db71_0641);

    /// The CRC register `crc` advanced over `lanes`, whose length is a
    /// multiple of 16 and at least 64.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(crc: u32, lanes: &[u8]) -> u32 {
        let four = _mm_set_epi64x(R2R1.0, R2R1.1);
        let one = _mm_set_epi64x(R4R3.0, R4R3.1);
        let mut blocks = lanes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return crc;
        };
        let [mut x0, mut x1, mut x2, mut x3] = block(first);
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(crc as i32));
        for b in &mut blocks {
            let [y0, y1, y2, y3] = block(b);
            x0 = fold_into(x0, y0, four);
            x1 = fold_into(x1, y1, four);
            x2 = fold_into(x2, y2, four);
            x3 = fold_into(x3, y3, four);
        }
        let mut x = fold_into(x0, x1, one);
        x = fold_into(x, x2, one);
        x = fold_into(x, x3, one);
        for lane in blocks.remainder().chunks_exact(16) {
            x = fold_into(x, load(lane), one);
        }
        reduce(x, one)
    }

    /// `x` carried forward by the distance `k` encodes, XORed into `y`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_into(x: __m128i, y: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), y)
    }

    /// The 32-bit CRC register of the one remaining lane `x`.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i, one: __m128i) -> u32 {
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        // 128 → 96 bits: the low half times `x^96` into the high half,
        // which appends the CRC's 32 zero bits.
        let x = _mm_xor_si128(_mm_srli_si128::<8>(x), _mm_clmulepi64_si128::<0x10>(x, one));
        // 96 → 64 bits.
        let r5 = _mm_set_epi64x(0, R5);
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), r5),
        );
        // Barrett: q = ⌊x / P⌋ from the low 32 bits, then x − q·P.
        let mu_poly = _mm_set_epi64x(MU_POLY.0, MU_POLY.1);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), mu_poly);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), mu_poly);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, qp))) as u32
    }

    /// The four lanes of one 64-byte block.
    #[target_feature(enable = "pclmulqdq")]
    fn block(bytes: &[u8]) -> [__m128i; 4] {
        let mut lanes = [_mm_setzero_si128(); 4];
        for (v, lane) in lanes.iter_mut().zip(bytes.chunks_exact(16)) {
            *v = load(lane);
        }
        lanes
    }

    /// One 16-byte lane as a vector, from its two little-endian words.
    #[target_feature(enable = "pclmulqdq")]
    fn load(lane: &[u8]) -> __m128i {
        let mut words = lane
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().unwrap_or_default()) as i64);
        let lo = words.next().unwrap_or_default();
        let hi = words.next().unwrap_or_default();
        _mm_set_epi64x(hi, lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_check_values() {
        // Lengths 0, 9 and 43 cover the empty input, the 8-byte slices
        // and the byte-wise tail.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(fox), 0x414F_A339);
    }

    /// Every length up to 2048 bytes at start offsets 0–15 — under 64
    /// (scalar only), each 16-byte lane edge and each 64-byte block
    /// edge with every tail length — and 64 KiB and 64 KiB + 7, each
    /// compared against slicing-by-8 alone. Miri runs the scalar path
    /// on both sides, so it checks short inputs only.
    #[test]
    fn crc32_matches_slicing_by_8() {
        let (max_len, long): (usize, &[usize]) = if cfg!(miri) {
            (80, &[])
        } else {
            (2048, &[64 << 10, (64 << 10) + 7])
        };
        let data: Vec<u8> = (0..long.last().copied().unwrap_or(max_len) + 16)
            .map(|i: usize| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
            .collect();
        let reference = |bytes: &[u8]| !slicing_by_8(!0, bytes);
        for offset in 0..16 {
            for len in (0..=max_len).chain(long.iter().copied()) {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), reference(bytes), "len {len}, offset {offset}");
            }
        }
    }
}
