//! Property-based tests for the symmetric primitives.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_cipher::block::{cbc_ciphertext_len, BlockCipher, BLOCK};
use wm_cipher::{open_into, seal, Mac128, Wm20};

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
    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        for b in &mut a {
            *b = self.next() as u8;
        }
        a
    }
}

/// Stream cipher: apply twice restores plaintext for any input.
#[test]
fn wm20_involution() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC1_0000 + case);
        let key: [u8; 32] = rng.array();
        let nonce: [u8; 12] = rng.array();
        let counter = rng.next() as u32;
        let data = rng.bytes(2047);
        let cipher = Wm20::new(&key, &nonce);
        let mut buf = data.clone();
        cipher.apply(counter, &mut buf);
        cipher.apply(counter, &mut buf);
        assert_eq!(buf, data, "case {case}");
    }
}

/// AEAD round-trips any payload and AAD.
#[test]
fn aead_roundtrip() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC2_0000 + case);
        let key: [u8; 32] = rng.array();
        let nonce: [u8; 12] = rng.array();
        let aad = rng.bytes(63);
        let plain = rng.bytes(2047);
        let sealed = seal(&key, &nonce, &aad, &plain);
        assert_eq!(
            sealed.len(),
            plain.len() + wm_cipher::TAG_LEN,
            "case {case}"
        );
        let mut opened = Vec::new();
        open_into(&key, &nonce, &aad, &sealed, &mut opened).expect("authentic");
        assert_eq!(opened, plain, "case {case}");
    }
}

/// Any single-bit flip in the sealed blob is rejected.
#[test]
fn aead_rejects_any_flip() {
    for case in 0..300u64 {
        let mut rng = Rng(0xC3_0000 + case);
        let key: [u8; 32] = rng.array();
        let nonce: [u8; 12] = rng.array();
        let plain = {
            let mut p = rng.bytes(255);
            if p.is_empty() {
                p.push(1);
            }
            p
        };
        let sealed = seal(&key, &nonce, b"aad", &plain);
        let mut corrupt = sealed.clone();
        let i = rng.below(corrupt.len());
        let bit = rng.below(8) as u8;
        corrupt[i] ^= 1 << bit;
        let mut opened = Vec::new();
        assert!(
            open_into(&key, &nonce, b"aad", &corrupt, &mut opened).is_err(),
            "case {case}"
        );
        assert!(opened.is_empty(), "case {case}");
    }
}

/// CBC round-trips any plaintext; ciphertext length is the exact
/// pad-to-block arithmetic the TLS suite model relies on.
#[test]
fn cbc_roundtrip() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC4_0000 + case);
        let key: [u8; 32] = rng.array();
        let iv: [u8; 16] = rng.array();
        let plain = rng.bytes(1023);
        let cipher = BlockCipher::new(&key);
        let mut sealed = Vec::new();
        cipher.cbc_encrypt_into(&iv, &plain, &mut sealed);
        assert_eq!(
            sealed.len(),
            BLOCK + cbc_ciphertext_len(plain.len()),
            "case {case}"
        );
        let mut opened = Vec::new();
        assert_eq!(
            cipher.cbc_decrypt_into(&sealed, &mut opened),
            Some(()),
            "case {case}"
        );
        assert_eq!(opened, plain, "case {case}");
    }
}

/// Block encrypt/decrypt are inverse bijections on every block.
#[test]
fn block_bijection() {
    for case in 0..300u64 {
        let mut rng = Rng(0xC5_0000 + case);
        let key: [u8; 32] = rng.array();
        let block: [u8; 16] = rng.array();
        let cipher = BlockCipher::new(&key);
        let mut b = block;
        cipher.encrypt_block(&mut b);
        cipher.decrypt_block(&mut b);
        assert_eq!(b, block, "case {case}");
    }
}

/// MAC is invariant under arbitrary chunking of the input.
#[test]
fn mac_chunking_invariant() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC6_0000 + case);
        let key: [u8; 16] = rng.array();
        let data = rng.bytes(511);
        let whole = Mac128::tag(&key, &data);
        let n_cuts = rng.below(8);
        let mut offsets: Vec<usize> = (0..n_cuts).map(|_| rng.below(data.len() + 1)).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        let mut mac = Mac128::new(&key);
        for w in offsets.windows(2) {
            mac.update(&data[w[0]..w[1]]);
        }
        assert_eq!(mac.finalize(), whole, "case {case}");
    }
}

/// Different nonces never produce identical ciphertexts for
/// non-empty plaintexts (keystream reuse detector).
#[test]
fn nonce_separation() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC7_0000 + case);
        let key: [u8; 32] = rng.array();
        let n1: [u8; 12] = rng.array();
        let n2: [u8; 12] = rng.array();
        if n1 == n2 {
            continue;
        }
        let plain = {
            let mut p = rng.bytes(127);
            while p.len() < 16 {
                p.push(rng.next() as u8);
            }
            p
        };
        let a = seal(&key, &n1, b"", &plain);
        let b = seal(&key, &n2, b"", &plain);
        assert_ne!(a, b, "case {case}");
    }
}
