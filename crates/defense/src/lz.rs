//! A from-scratch LZ77-style codec.
//!
//! Greedy longest-match compression over a sliding window, with a
//! byte-oriented encoding:
//!
//! * `0x00 len  <len raw bytes>` — a literal run (len 1..=255);
//! * `0x01 len  d_hi d_lo` — a back-reference of `len` (4..=255) bytes
//!   at distance `d` (1..=65535).
//!
//! Small, predictable and honest: the compression defense in
//! [`crate::transform`] really compresses the state JSON, so what an
//! eavesdropper sees is the true compressed size — which is exactly how
//! the paper frames the countermeasure (and its residual leak: sizes
//! still differ when the underlying documents differ enough).

/// Compress `input`.
pub fn compress(input: &[u8]) -> Vec<u8> {
    // wm-lint: allow(defense/length-taint, reason = "output capacity hint; the emitted bytes do not depend on it")
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut literals: Vec<u8> = Vec::new();
    let mut i = 0;

    // Hash chain over 4-byte prefixes for match finding.
    const HASH_BITS: usize = 13;
    const WINDOW: usize = 1 << 15;
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    // wm-lint: allow(defense/length-taint, reason = "sizes the hash-chain table, which is never emitted")
    let mut prev = vec![usize::MAX; input.len().max(1)];

    let hash4 = |b: &[u8]| -> usize {
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS as u32)) as usize
    };

    while i < input.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + 4 <= input.len() {
            let h = hash4(&input[i..]);
            let mut cand = head[h];
            let mut tries = 16;
            while cand != usize::MAX && tries > 0 && i - cand <= WINDOW {
                // wm-lint: allow(defense/length-taint, reason = "bounds a match inside the input; the compress defense emits the true compressed size by design (the residual leak E5 measures)")
                let max_len = (input.len() - i).min(255);
                let mut l = 0;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                }
                cand = prev[cand];
                tries -= 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }

        if best_len >= 4 && best_dist <= 65_535 {
            flush_literals(&mut out, &mut literals);
            out.push(0x01);
            out.push(best_len as u8);
            out.push((best_dist >> 8) as u8);
            out.push((best_dist & 0xff) as u8);
            // Index the skipped positions so later matches can find them.
            for k in 1..best_len {
                let p = i + k;
                if p + 4 <= input.len() {
                    let h = hash4(&input[p..]);
                    prev[p] = head[h];
                    head[h] = p;
                }
            }
            i += best_len;
        } else {
            literals.push(input[i]);
            if literals.len() == 255 {
                flush_literals(&mut out, &mut literals);
            }
            i += 1;
        }
    }
    flush_literals(&mut out, &mut literals);
    out
}

fn flush_literals(out: &mut Vec<u8>, literals: &mut Vec<u8>) {
    if !literals.is_empty() {
        out.push(0x00);
        // wm-lint: allow(defense/length-taint, reason = "a literal run's length in the codec's own framing; the compress defense emits the true compressed size by design (the residual leak E5 measures)")
        out.push(literals.len() as u8);
        out.extend_from_slice(literals);
        literals.clear();
    }
}

/// Decompress a [`compress`] output. Returns `None` on malformed input.
pub fn decompress(input: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(input.len() * 2);
    let mut i = 0;
    while i < input.len() {
        match input[i] {
            0x00 => {
                let len = *input.get(i + 1)? as usize;
                if len == 0 {
                    return None;
                }
                let run = input.get(i + 2..i + 2 + len)?;
                out.extend_from_slice(run);
                i += 2 + len;
            }
            0x01 => {
                let len = *input.get(i + 1)? as usize;
                let dist = ((*input.get(i + 2)? as usize) << 8) | *input.get(i + 3)? as usize;
                if len < 4 || dist == 0 || dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. \
                     the quick brown fox jumps over the lazy dog, again!";
        let c = compress(data);
        assert_eq!(decompress(&c).as_deref(), Some(&data[..]));
        assert!(c.len() < data.len(), "repetitive text must shrink");
    }

    #[test]
    fn roundtrip_empty_and_tiny() {
        for data in [&b""[..], b"a", b"ab", b"abc"] {
            let c = compress(data);
            assert_eq!(decompress(&c).as_deref(), Some(data));
        }
    }

    #[test]
    fn roundtrip_incompressible() {
        // Pseudo-random bytes: compression must still round-trip (and
        // may expand slightly).
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 23) as u8)
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).as_deref(), Some(&data[..]));
    }

    #[test]
    fn roundtrip_highly_repetitive() {
        let data = vec![b'x'; 10_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).as_deref(), Some(&data[..]));
        assert!(c.len() < 300, "10k run must compress hard, got {}", c.len());
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "abcabcabc…" exercises dist < len copies.
        let data: Vec<u8> = b"abc".iter().cycle().take(1000).copied().collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).as_deref(), Some(&data[..]));
    }

    #[test]
    fn roundtrip_json_like() {
        let data = br#"{"esn":"NFCDIE-02-LNX64FFD","event":"interactiveStateSnapshot","stateHistory":{"p_sg":true,"p_cq":true,"p_ps":false},"choices":[{"id":"cp12_0","exitZone":"zone_a"},{"id":"cp12_1","exitZone":"zone_b"}]}"#;
        let c = compress(data);
        assert_eq!(decompress(&c).as_deref(), Some(&data[..]));
        assert!(c.len() < data.len());
    }

    #[test]
    fn decompress_rejects_malformed() {
        assert!(decompress(&[0x02]).is_none()); // unknown op
        assert!(decompress(&[0x00, 5, 1, 2]).is_none()); // short literal run
        assert!(decompress(&[0x00, 0]).is_none()); // zero-length run
        assert!(decompress(&[0x01, 10, 0, 5]).is_none()); // dist beyond output
        assert!(decompress(&[0x01, 2, 0, 1]).is_none()); // len < 4
        assert!(decompress(&[0x01, 10]).is_none()); // truncated match
    }

    #[test]
    fn compression_is_deterministic() {
        let data = b"determinism matters for replayable sessions".repeat(10);
        assert_eq!(compress(&data), compress(&data));
    }
}
