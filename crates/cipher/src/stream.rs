//! WM20: a ChaCha-style ARX stream cipher.
//!
//! State layout follows ChaCha20 (RFC 8439): four constant words, eight
//! key words, one 32-bit block counter and three nonce words. We run 8
//! ARX double-rounds (ChaCha20 runs 10); the structure — and therefore
//! the keystream/length behaviour the record layer depends on — is
//! identical.
//!
//! The AEAD record path calls [`Wm20::mac_key_and_apply`], which on
//! x86_64 with AVX2 computes the record's keystream eight blocks per
//! vector pass, the MAC-key block included; the scalar [`Wm20::block`]
//! and [`Wm20::apply`] are its reference and the fallback everywhere
//! else.

use crate::{Key, Nonce};

const CONSTANTS: [u32; 4] = [0x7769_7465, 0x6d69_7272, 0x6f72_2d77, 0x6d32_3030];
const DOUBLE_ROUNDS: usize = 8;

/// Stream cipher instance bound to a key and nonce.
///
/// The cipher is symmetric: [`Wm20::apply`] both encrypts and decrypts.
#[derive(Clone)]
pub struct Wm20 {
    key_words: [u32; 8],
    nonce_words: [u32; 3],
}

impl Wm20 {
    /// Create a cipher instance for one (key, nonce) pair.
    pub fn new(key: &Key, nonce: &Nonce) -> Self {
        let mut key_words = [0u32; 8];
        for (i, w) in key_words.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        let mut nonce_words = [0u32; 3];
        for (i, w) in nonce_words.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        Wm20 {
            key_words,
            nonce_words,
        }
    }

    /// Produce the 64-byte keystream block for `counter`.
    pub fn block(&self, counter: u32) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CONSTANTS);
        state[4..12].copy_from_slice(&self.key_words);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce_words);

        let initial = state;
        for _ in 0..DOUBLE_ROUNDS {
            // Column round.
            quarter(&mut state, 0, 4, 8, 12);
            quarter(&mut state, 1, 5, 9, 13);
            quarter(&mut state, 2, 6, 10, 14);
            quarter(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter(&mut state, 0, 5, 10, 15);
            quarter(&mut state, 1, 6, 11, 12);
            quarter(&mut state, 2, 7, 8, 13);
            quarter(&mut state, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let w = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// XOR the keystream (starting at block `initial_counter`) into
    /// `data` in place. Encryption and decryption are the same operation.
    pub fn apply(&self, initial_counter: u32, data: &mut [u8]) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(64) {
            let ks = self.block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    /// One AEAD record's keystream: XOR blocks `1..` into `data` and
    /// return the first 16 bytes of block 0, the record's MAC key.
    ///
    /// Byte-for-byte `block(0)[..16]` followed by `apply(1, data)`. On
    /// x86_64 CPUs with AVX2 the blocks are computed eight at a time;
    /// elsewhere the scalar [`Wm20::block`]/[`Wm20::apply`] run, and
    /// they stay the reference the vector kernel is tested against.
    pub fn mac_key_and_apply(&self, data: &mut [u8]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the kernel's only requirement is AVX2, which the
            // CPU was just detected to support.
            return unsafe { avx2::mac_key_and_apply(self, data) };
        }
        let mac_key = self.block(0);
        self.apply(1, data);
        mac_key[..16].try_into().expect("16 bytes")
    }
}

#[inline]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// The eight-block AVX2 keystream kernel behind [`Wm20::mac_key_and_apply`].
///
/// The state is stored word-major: `state[i]` holds word `i` of eight
/// consecutive blocks, one 32-bit lane per block, so each quarter-round
/// step is one vector instruction across all eight blocks.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Wm20, CONSTANTS, DOUBLE_ROUNDS};
    use std::arch::x86_64::*;

    type State = [__m256i; 16];

    #[target_feature(enable = "avx2")]
    pub(super) fn mac_key_and_apply(cipher: &Wm20, data: &mut [u8]) -> [u8; 16] {
        let mut mac_key = [0u8; 16];
        let mut chunks = data.chunks_mut(64);
        let mut first = 0u32;
        loop {
            let state = blocks(cipher, first);
            for lane in 0..8 {
                let ks = keystream(&state, lane);
                if first == 0 && lane == 0 {
                    mac_key.copy_from_slice(&ks[..16]);
                    continue;
                }
                let Some(chunk) = chunks.next() else {
                    return mac_key;
                };
                for (b, k) in chunk.iter_mut().zip(&ks) {
                    *b ^= k;
                }
            }
            first = first.wrapping_add(8);
        }
    }

    /// Keystream blocks `first..first + 8`, word-major.
    #[target_feature(enable = "avx2")]
    fn blocks(cipher: &Wm20, first: u32) -> State {
        let mut initial = [_mm256_setzero_si256(); 16];
        for (v, &w) in initial.iter_mut().zip(&CONSTANTS) {
            *v = _mm256_set1_epi32(w as i32);
        }
        for (v, &w) in initial[4..12].iter_mut().zip(&cipher.key_words) {
            *v = _mm256_set1_epi32(w as i32);
        }
        initial[12] = _mm256_add_epi32(
            _mm256_set1_epi32(first as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        for (v, &w) in initial[13..].iter_mut().zip(&cipher.nonce_words) {
            *v = _mm256_set1_epi32(w as i32);
        }

        let mut s = initial;
        for _ in 0..DOUBLE_ROUNDS {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (v, i) in s.iter_mut().zip(&initial) {
            *v = _mm256_add_epi32(*v, *i);
        }
        s
    }

    #[target_feature(enable = "avx2")]
    fn quarter(s: &mut State, a: usize, b: usize, c: usize, d: usize) {
        // Byte shuffles rotating each 32-bit word left by 16 and by 8.
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        );
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[d], s[a]), rot16);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        let x = _mm256_xor_si256(s[b], s[c]);
        s[b] = _mm256_or_si256(_mm256_slli_epi32::<12>(x), _mm256_srli_epi32::<20>(x));
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[d], s[a]), rot8);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        let x = _mm256_xor_si256(s[b], s[c]);
        s[b] = _mm256_or_si256(_mm256_slli_epi32::<7>(x), _mm256_srli_epi32::<25>(x));
    }

    /// The 64 keystream bytes of the block in `lane`.
    #[target_feature(enable = "avx2")]
    fn keystream(s: &State, lane: usize) -> [u8; 64] {
        let mut bytes = [0u8; 64];
        let (lo, hi) = bytes.split_at_mut(32);
        store(lo, transpose(&s[..8], lane));
        store(hi, transpose(&s[8..], lane));
        bytes
    }

    /// Lane `lane` of the eight word vectors `r`, as one vector: an
    /// 8×8 transpose of 32-bit words, cut down to the column asked for.
    #[target_feature(enable = "avx2")]
    fn transpose(r: &[__m256i], lane: usize) -> __m256i {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let (a, b) = match lane % 4 {
            0 => (_mm256_unpacklo_epi64(t0, t2), _mm256_unpacklo_epi64(t4, t6)),
            1 => (_mm256_unpackhi_epi64(t0, t2), _mm256_unpackhi_epi64(t4, t6)),
            2 => (_mm256_unpacklo_epi64(t1, t3), _mm256_unpacklo_epi64(t5, t7)),
            _ => (_mm256_unpackhi_epi64(t1, t3), _mm256_unpackhi_epi64(t5, t7)),
        };
        if lane < 4 {
            _mm256_permute2x128_si256::<0x20>(a, b)
        } else {
            _mm256_permute2x128_si256::<0x31>(a, b)
        }
    }

    /// Write the eight words of `v` to `out` as little-endian bytes.
    #[target_feature(enable = "avx2")]
    fn store(out: &mut [u8], v: __m256i) {
        let words = [
            _mm256_extract_epi32::<0>(v),
            _mm256_extract_epi32::<1>(v),
            _mm256_extract_epi32::<2>(v),
            _mm256_extract_epi32::<3>(v),
            _mm256_extract_epi32::<4>(v),
            _mm256_extract_epi32::<5>(v),
            _mm256_extract_epi32::<6>(v),
            _mm256_extract_epi32::<7>(v),
        ];
        for (bytes, w) in out.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&w.to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    const NONCE: Nonce = [9; 12];

    #[test]
    fn apply_roundtrips() {
        let c = Wm20::new(&key(), &NONCE);
        let original = b"the quick brown fox jumps over the lazy dog, twice over".to_vec();
        let mut data = original.clone();
        c.apply(0, &mut data);
        assert_ne!(data, original, "ciphertext must differ from plaintext");
        c.apply(0, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn keystream_depends_on_key_nonce_counter() {
        let c1 = Wm20::new(&key(), &NONCE);
        let mut k2 = key();
        k2[0] ^= 1;
        let c2 = Wm20::new(&k2, &NONCE);
        let mut n2 = NONCE;
        n2[0] ^= 1;
        let c3 = Wm20::new(&key(), &n2);
        assert_ne!(c1.block(0), c2.block(0));
        assert_ne!(c1.block(0), c3.block(0));
        assert_ne!(c1.block(0), c1.block(1));
    }

    #[test]
    fn multi_block_matches_blockwise() {
        let c = Wm20::new(&key(), &NONCE);
        let mut long = vec![0u8; 200];
        c.apply(5, &mut long);
        // Reconstruct from individual keystream blocks.
        let mut expect = Vec::new();
        for (i, chunk) in [0usize, 64, 128, 192]
            .iter()
            .zip([64usize, 64, 64, 8].iter())
        {
            let ks = c.block(5 + (*i as u32) / 64);
            expect.extend_from_slice(&ks[..*chunk]);
        }
        assert_eq!(long, expect);
    }

    #[test]
    fn keystream_has_no_obvious_bias() {
        let c = Wm20::new(&key(), &NONCE);
        let mut ones = 0u32;
        for counter in 0..64 {
            for b in c.block(counter) {
                ones += b.count_ones();
            }
        }
        let total_bits = 64 * 64 * 8;
        let ratio = ones as f64 / total_bits as f64;
        assert!((0.47..0.53).contains(&ratio), "bit bias {ratio}");
    }

    /// Every length up to 2048 bytes: 0 and 1 chunk, the 7/8-lane edges
    /// of the first two batches (447–449, 959–961) and everything
    /// between, each compared against the scalar reference. Miri runs
    /// the scalar path on both sides, so it checks a short prefix only.
    #[test]
    fn mac_key_and_apply_matches_block_then_apply() {
        let max_len = if cfg!(miri) { 130 } else { 2048 };
        let mut key2 = key();
        key2.reverse();
        let cases = [(key(), NONCE), (key2, [0xa5; 12]), ([0xff; 32], [0; 12])];
        for (k, n) in &cases {
            let c = Wm20::new(k, n);
            let data: Vec<u8> = (0..max_len).map(|i| (i * 7 + 3) as u8).collect();
            for len in 0..=max_len {
                let mut fused = data[..len].to_vec();
                let mac_key = c.mac_key_and_apply(&mut fused);
                let mut reference = data[..len].to_vec();
                c.apply(1, &mut reference);
                assert_eq!(mac_key[..], c.block(0)[..16], "mac key, len {len}");
                assert_eq!(fused, reference, "keystream, len {len}");
            }
        }
    }

    #[test]
    fn empty_input_is_noop() {
        let c = Wm20::new(&key(), &NONCE);
        let mut data: Vec<u8> = vec![];
        c.apply(0, &mut data);
        assert!(data.is_empty());
    }
}
