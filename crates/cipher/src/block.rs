//! A 128-bit ARX block cipher with CBC chaining and TLS 1.2 padding.
//!
//! The CBC cipher-suite family matters to the reproduction because CBC
//! *quantizes* record lengths to block multiples, widening the length
//! clusters the attack bins into (DESIGN.md, ablation 3). The block
//! cipher is a 4×u32 ARX permutation keyed by a splitmix-expanded key
//! schedule; chaining and padding follow TLS 1.2 §6.2.3.2:
//!
//! * plaintext is extended with `pad_len` bytes, each holding the value
//!   `pad_len - 1`, so the total is a block multiple (pad is 1..=16);
//! * a fresh explicit IV is prepended to every record.

use crate::kdf::splitmix64;
use crate::Key;

/// Cipher block size in bytes.
pub const BLOCK: usize = 16;

const ROUNDS: usize = 12;

/// Key-scheduled block cipher instance.
#[derive(Clone)]
pub struct BlockCipher {
    round_keys: [[u32; 4]; ROUNDS],
}

impl BlockCipher {
    /// Expand a 256-bit key into per-round subkeys.
    pub fn new(key: &Key) -> Self {
        let mut state = 0u64;
        for chunk in key.chunks(8) {
            state ^= u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
            state = crate::kdf::mix(state);
        }
        let mut round_keys = [[0u32; 4]; ROUNDS];
        for rk in round_keys.iter_mut() {
            for w in rk.iter_mut() {
                *w = splitmix64(&mut state) as u32;
            }
        }
        BlockCipher { round_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK]) {
        let mut w = load(block);
        for rk in &self.round_keys {
            for i in 0..4 {
                w[i] ^= rk[i];
            }
            // Speck-like ARX mixing across the four lanes.
            w[0] = w[0].rotate_right(8).wrapping_add(w[1]) ^ rk[0];
            w[1] = w[1].rotate_left(3) ^ w[0];
            w[2] = w[2].rotate_right(8).wrapping_add(w[3]) ^ rk[2];
            w[3] = w[3].rotate_left(3) ^ w[2];
            w.swap(1, 2);
        }
        store(&w, block);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK]) {
        let mut w = load(block);
        for rk in self.round_keys.iter().rev() {
            w.swap(1, 2);
            w[3] = (w[3] ^ w[2]).rotate_right(3);
            w[2] = ((w[2] ^ rk[2]).wrapping_sub(w[3])).rotate_left(8);
            w[1] = (w[1] ^ w[0]).rotate_right(3);
            w[0] = ((w[0] ^ rk[0]).wrapping_sub(w[1])).rotate_left(8);
            for i in 0..4 {
                w[i] ^= rk[i];
            }
        }
        store(&w, block);
    }

    /// CBC-encrypt `plaintext` with TLS 1.2 padding, appending
    /// `IV (16) || ciphertext blocks` to `out` — no padding scratch, no
    /// output allocation; the record layer reuses one wire buffer
    /// across records. The IV must be unique per record; the record
    /// layer derives it from the sequence number.
    pub fn cbc_encrypt_into(&self, iv: &[u8; BLOCK], plaintext: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(iv);
        let mut prev = *iv;
        let mut chain = |block: &mut [u8; BLOCK], out: &mut Vec<u8>| {
            for i in 0..BLOCK {
                block[i] ^= prev[i];
            }
            self.encrypt_block(block);
            out.extend_from_slice(block);
            prev = *block;
        };
        // Full plaintext blocks straight from the input…
        let full = plaintext.len() - plaintext.len() % BLOCK;
        for chunk in plaintext[..full].chunks_exact(BLOCK) {
            let mut block: [u8; BLOCK] = chunk.try_into().expect("block multiple");
            chain(&mut block, out);
        }
        // …then exactly one tail block carrying the TLS 1.2 padding
        // (a whole pad block when the plaintext is block-aligned).
        let rest = &plaintext[full..];
        let pad_len = BLOCK - rest.len();
        let mut block = [(pad_len - 1) as u8; BLOCK];
        block[..rest.len()].copy_from_slice(rest);
        chain(&mut block, out);
    }

    /// CBC-decrypt a record produced by
    /// [`BlockCipher::cbc_encrypt_into`], appending the unpadded
    /// plaintext to `out`. Returns `None` on bad length or malformed
    /// padding, with `out` restored to its original length.
    pub fn cbc_decrypt_into(&self, data: &[u8], out: &mut Vec<u8>) -> Option<()> {
        if data.len() < 2 * BLOCK || !data.len().is_multiple_of(BLOCK) {
            return None;
        }
        let start = out.len();
        let mut prev: [u8; BLOCK] = data[..BLOCK].try_into().expect("iv");
        for chunk in data[BLOCK..].chunks(BLOCK) {
            let cipher_block: [u8; BLOCK] = chunk.try_into().expect("block multiple");
            let mut block = cipher_block;
            self.decrypt_block(&mut block);
            for i in 0..BLOCK {
                block[i] ^= prev[i];
            }
            out.extend_from_slice(&block);
            prev = cipher_block;
        }
        let fail = |out: &mut Vec<u8>| {
            out.truncate(start);
            None
        };
        let Some(&pad_byte) = out.last() else {
            return fail(out);
        };
        let pad_len = pad_byte as usize + 1;
        if pad_len > BLOCK || pad_len > out.len() - start {
            return fail(out);
        }
        if out[out.len() - pad_len..].iter().any(|&b| b != pad_byte) {
            return fail(out);
        }
        out.truncate(out.len() - pad_len);
        Some(())
    }
}

fn load(block: &[u8; BLOCK]) -> [u32; 4] {
    let mut w = [0u32; 4];
    for i in 0..4 {
        w[i] = u32::from_le_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    w
}

fn store(w: &[u32; 4], block: &mut [u8; BLOCK]) {
    for i in 0..4 {
        block[i * 4..i * 4 + 4].copy_from_slice(&w[i].to_le_bytes());
    }
}

/// Ciphertext length (excluding IV) for a CBC payload of `plaintext_len`
/// bytes: padded up to the next block boundary (always at least one pad
/// byte).
pub fn cbc_ciphertext_len(plaintext_len: usize) -> usize {
    plaintext_len + (BLOCK - plaintext_len % BLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    fn cbc_encrypt(cipher: &BlockCipher, iv: &[u8; BLOCK], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        cipher.cbc_encrypt_into(iv, plaintext, &mut out);
        out
    }

    fn cbc_decrypt(cipher: &BlockCipher, data: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        cipher.cbc_decrypt_into(data, &mut out).map(|()| out)
    }

    fn cipher() -> BlockCipher {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i * 13 % 251) as u8;
        }
        BlockCipher::new(&key)
    }

    #[test]
    fn block_roundtrip() {
        let c = cipher();
        let mut block = *b"0123456789abcdef";
        let original = block;
        c.encrypt_block(&mut block);
        assert_ne!(block, original);
        c.decrypt_block(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn block_avalanche() {
        let c = cipher();
        let mut a = [0u8; BLOCK];
        let mut b = [0u8; BLOCK];
        b[0] = 1;
        c.encrypt_block(&mut a);
        c.encrypt_block(&mut b);
        let differing: u32 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert!(differing > 32, "only {differing} bits differ");
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let c = cipher();
        let iv = [0xab; BLOCK];
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = cbc_encrypt(&c, &iv, &plaintext);
            assert_eq!(ct.len(), BLOCK + cbc_ciphertext_len(len), "len {len}");
            assert_eq!(
                cbc_decrypt(&c, &ct).as_deref(),
                Some(&plaintext[..]),
                "len {len}"
            );
        }
    }

    #[test]
    fn cbc_length_quantization() {
        // Lengths 1..=16 all encrypt to one block (plus IV).
        for len in 1..=BLOCK {
            assert_eq!(cbc_ciphertext_len(len - 1) % BLOCK, 0);
        }
        assert_eq!(cbc_ciphertext_len(0), 16);
        assert_eq!(cbc_ciphertext_len(15), 16);
        assert_eq!(cbc_ciphertext_len(16), 32);
        assert_eq!(cbc_ciphertext_len(17), 32);
    }

    #[test]
    fn cbc_rejects_tampering() {
        let c = cipher();
        let iv = [1; BLOCK];
        let mut ct = cbc_encrypt(&c, &iv, b"attack at dawn");
        // Flipping any byte of the final block corrupts the padding with
        // overwhelming probability; try a few.
        let n = ct.len();
        let mut rejected = 0;
        for i in 0..BLOCK {
            ct[n - 1 - i] ^= 0x55;
            if cbc_decrypt(&c, &ct).is_none() {
                rejected += 1;
            }
            ct[n - 1 - i] ^= 0x55;
        }
        assert!(rejected > 10, "only {rejected}/16 tampers rejected");
    }

    #[test]
    fn cbc_rejects_malformed_input() {
        let c = cipher();
        assert!(cbc_decrypt(&c, &[]).is_none());
        assert!(cbc_decrypt(&c, &[0u8; BLOCK]).is_none()); // IV only
        assert!(cbc_decrypt(&c, &[0u8; BLOCK + 5]).is_none()); // not block multiple
    }

    #[test]
    fn iv_changes_ciphertext() {
        let c = cipher();
        let a = cbc_encrypt(&c, &[0; BLOCK], b"same plaintext");
        let b = cbc_encrypt(&c, &[1; BLOCK], b"same plaintext");
        assert_ne!(a[BLOCK..], b[BLOCK..]);
    }
}
