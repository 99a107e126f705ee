//! CRC-32 (IEEE 802.3 — the zlib/PNG checksum), the integrity trailer
//! of every checkpoint blob. Slicing-by-8: eight table lookups consume
//! eight input bytes per step, several times the speed of the classic
//! byte-at-a-time loop on the fleet's checkpoint path.

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
    // `& 0xff` keeps every index below 256, so the checks fold away.
    let lut = |row: &[u32; 256], i: u32| row.get((i & 0xff) as usize).copied().unwrap_or(0);
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = !0u32;
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
    !crc
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
}
