//! Cipher-suite families and their length arithmetic.
//!
//! Only the *families* matter to a length side-channel, not the specific
//! algorithms: every AEAD suite expands plaintext by exactly the tag
//! length, while every CBC suite prepends an explicit IV, appends a MAC
//! and pads to the block size. The paper's Figure 2 was captured on
//! AEAD connections (record length = payload + constant), so
//! [`CipherSuite::Aead`] is the default everywhere; CBC is retained as
//! an ablation showing the attack survives length quantization.

use wm_cipher::block::{cbc_ciphertext_len, BLOCK};
use wm_cipher::TAG_LEN;

/// MAC length used by the CBC family (SHA-1-sized, as in
/// `TLS_RSA_WITH_AES_128_CBC_SHA`). Our [`wm_cipher::Mac128`] tag is 16
/// bytes; we widen to 20 by appending a 4-byte length check so the wire
/// arithmetic matches the real suite.
pub const CBC_MAC_LEN: usize = 20;

/// The two cipher-suite families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherSuite {
    /// AEAD family (AES-GCM / ChaCha20-Poly1305 shaped):
    /// `ciphertext = plaintext + 16`.
    Aead,
    /// CBC family (AES-CBC + HMAC-SHA1 shaped):
    /// `ciphertext = IV(16) + pad_to_block(plaintext + MAC(20))`.
    Cbc,
}

impl CipherSuite {
    /// Exact ciphertext length for a plaintext fragment of `len` bytes.
    ///
    /// This is the number that lands in the record header's length field
    /// and is the paper's observable.
    pub fn ciphertext_len(self, len: usize) -> usize {
        match self {
            CipherSuite::Aead => len + TAG_LEN,
            CipherSuite::Cbc => BLOCK + cbc_ciphertext_len(len + CBC_MAC_LEN),
        }
    }

    /// Short human-readable label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            CipherSuite::Aead => "AEAD(GCM-like)",
            CipherSuite::Cbc => "CBC(AES-CBC-SHA-like)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aead_is_affine() {
        assert_eq!(CipherSuite::Aead.ciphertext_len(0), 16);
        assert_eq!(CipherSuite::Aead.ciphertext_len(100), 116);
        assert_eq!(CipherSuite::Aead.ciphertext_len(2196), 2212);
    }

    #[test]
    fn cbc_quantizes() {
        // plaintext 0 → 0+20 MAC → pad to 32 → +16 IV = 48
        assert_eq!(CipherSuite::Cbc.ciphertext_len(0), 48);
        // 1..=12 all pad into the same 32-byte body.
        let base = CipherSuite::Cbc.ciphertext_len(1);
        for len in 1..=11 {
            assert_eq!(CipherSuite::Cbc.ciphertext_len(len), base, "len {len}");
        }
        assert_eq!(CipherSuite::Cbc.ciphertext_len(12), base + BLOCK);
    }
}
