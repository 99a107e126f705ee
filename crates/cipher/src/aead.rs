//! Encrypt-then-MAC AEAD with GCM-like length arithmetic.
//!
//! `seal` produces `|plaintext| + 16` bytes — the exact ciphertext
//! expansion of AES-GCM in TLS, which is what makes the paper's Figure 2
//! record-length clusters line up with the JSON payload sizes.

use crate::mac::{tags_equal, Mac128};
use crate::stream::Wm20;
use crate::{Key, Nonce};

/// Tag length in bytes (matches GCM).
pub const TAG_LEN: usize = 16;

/// AEAD failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// Ciphertext shorter than a tag.
    TooShort,
    /// Tag verification failed.
    BadTag,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::TooShort => write!(f, "ciphertext shorter than the tag"),
            AeadError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// Encrypt `plaintext`, authenticating `aad` alongside it.
///
/// Layout: `ciphertext || tag(16)`. The MAC covers
/// `aad || le64(aad.len()) || ciphertext || le64(ct.len())`, closing the
/// usual concatenation ambiguity.
pub fn seal(key: &Key, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sealed_len(plaintext.len()));
    seal_into(key, nonce, aad, plaintext, &mut out);
    out
}

/// [`seal`] appending `ciphertext || tag` to `out` — the hot record
/// paths reuse one output buffer across records instead of allocating
/// per call. Bytes appended are exactly [`sealed_len`]`(plaintext.len())`.
pub fn seal_into(key: &Key, nonce: &Nonce, aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(plaintext);
    // Keystream block 0 is reserved for the MAC key, payload starts at 1
    // (same layout as ChaCha20-Poly1305).
    let mac_key = Wm20::new(key, nonce).mac_key_and_apply(&mut out[start..]);
    let tag = compute_tag(&mac_key, aad, &out[start..]);
    out.extend_from_slice(&tag);
}

/// Decrypt and verify a `seal` output, appending the recovered
/// plaintext to `out`. Nothing is appended unless the tag verifies.
pub fn open_into(
    key: &Key,
    nonce: &Nonce,
    aad: &[u8],
    sealed: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), AeadError> {
    if sealed.len() < TAG_LEN {
        return Err(AeadError::TooShort);
    }
    let (ct, tag_bytes) = sealed.split_at(sealed.len() - TAG_LEN);
    // Decrypt first so one keystream pass also yields the MAC key; the
    // tag covers the input ciphertext, and a bad tag takes the
    // plaintext back out of `out`.
    let start = out.len();
    out.extend_from_slice(ct);
    let mac_key = Wm20::new(key, nonce).mac_key_and_apply(&mut out[start..]);
    let expect = compute_tag(&mac_key, aad, ct);
    let got: [u8; TAG_LEN] = tag_bytes.try_into().expect("tag length");
    if !tags_equal(&expect, &got) {
        out.truncate(start);
        return Err(AeadError::BadTag);
    }
    Ok(())
}

/// Exact sealed length for a given plaintext length.
pub fn sealed_len(plaintext_len: usize) -> usize {
    plaintext_len + TAG_LEN
}

fn compute_tag(mac_key: &[u8; 16], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Mac128::new(mac_key);
    mac.update(aad);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(ciphertext);
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key = [3; 32];
    const NONCE: Nonce = [5; 12];

    fn open(key: &Key, nonce: &Nonce, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
        let mut out = Vec::new();
        open_into(key, nonce, aad, sealed, &mut out).map(|()| out)
    }

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal(&KEY, &NONCE, b"header", b"secret payload");
        assert_eq!(sealed.len(), sealed_len(14));
        let opened = open(&KEY, &NONCE, b"header", &sealed).unwrap();
        assert_eq!(opened, b"secret payload");
    }

    #[test]
    fn empty_plaintext() {
        let sealed = seal(&KEY, &NONCE, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&KEY, &NONCE, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn rejects_wrong_aad() {
        let sealed = seal(&KEY, &NONCE, b"aad-1", b"payload");
        assert_eq!(
            open(&KEY, &NONCE, b"aad-2", &sealed),
            Err(AeadError::BadTag)
        );
    }

    #[test]
    fn rejects_wrong_key_or_nonce() {
        let sealed = seal(&KEY, &NONCE, b"", b"payload");
        let mut k2 = KEY;
        k2[0] ^= 1;
        let mut n2 = NONCE;
        n2[0] ^= 1;
        assert_eq!(open(&k2, &NONCE, b"", &sealed), Err(AeadError::BadTag));
        assert_eq!(open(&KEY, &n2, b"", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn rejects_bitflips_anywhere() {
        let sealed = seal(&KEY, &NONCE, b"a", b"some longer plaintext here");
        for i in 0..sealed.len() {
            let mut corrupted = sealed.clone();
            corrupted[i] ^= 0x01;
            assert!(open(&KEY, &NONCE, b"a", &corrupted).is_err(), "byte {i}");
        }
    }

    #[test]
    fn rejects_truncation() {
        let sealed = seal(&KEY, &NONCE, b"", b"payload");
        assert_eq!(
            open(&KEY, &NONCE, b"", &sealed[..10]),
            Err(AeadError::TooShort)
        );
        assert!(open(&KEY, &NONCE, b"", &sealed[..sealed.len() - 1]).is_err());
    }

    /// A failed open leaves what `out` already held untouched: the
    /// plaintext it decrypts before checking the tag is taken back out.
    #[test]
    fn failed_open_leaves_out_unchanged() {
        let prior = b"earlier records".to_vec();
        let mut out = prior.clone();
        assert_eq!(
            open_into(&KEY, &NONCE, b"", &[0; TAG_LEN - 1], &mut out),
            Err(AeadError::TooShort)
        );
        assert_eq!(out, prior);
        for len in [0, 1, 63, 64, 65, 447, 448, 449] {
            let plaintext: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = seal(&KEY, &NONCE, b"aad", &plaintext);
            for i in 0..sealed.len() {
                let mut corrupted = sealed.clone();
                corrupted[i] ^= 0x80;
                assert_eq!(
                    open_into(&KEY, &NONCE, b"aad", &corrupted, &mut out),
                    Err(AeadError::BadTag),
                    "len {len}, byte {i}"
                );
                assert_eq!(out, prior, "len {len}, byte {i}");
            }
            open_into(&KEY, &NONCE, b"aad", &sealed, &mut out).unwrap();
            assert_eq!(out[prior.len()..], plaintext[..]);
            out.truncate(prior.len());
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let sealed = seal(&KEY, &NONCE, b"", b"AAAAAAAAAAAAAAAAAAAAAAAA");
        assert!(!sealed.windows(4).any(|w| w == b"AAAA"));
    }

    #[test]
    fn aad_not_included_in_output() {
        let with = seal(&KEY, &NONCE, b"long associated data string", b"p");
        let without = seal(&KEY, &NONCE, b"", b"p");
        assert_eq!(with.len(), without.len());
    }
}
