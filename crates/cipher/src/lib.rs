//! # wm-cipher — from-scratch symmetric primitives for the record layer
//!
//! The White Mirror attack is a *ciphertext-length* side-channel: the
//! eavesdropper never decrypts anything. To make that property real
//! inside the simulation — nothing downstream of the TLS boundary can
//! cheat and look at plaintext — the record layer in `wm-tls` performs
//! genuine encryption with the primitives in this crate:
//!
//! * [`stream::Wm20`] — a ChaCha-style ARX stream cipher (96-bit nonce,
//!   32-bit block counter, 512-bit state);
//! * [`mac::Mac128`] — a SipHash-style keyed MAC with a 128-bit tag;
//! * [`block`] — a 128-bit ARX block cipher with CBC chaining and
//!   TLS 1.2-style padding (used by the CBC cipher-suite family, whose
//!   length *quantization* is one of the ablations in the evaluation);
//! * [`aead`] — encrypt-then-MAC composition exposing the familiar
//!   `seal`/`open` shape with a 16-byte tag, mirroring AES-GCM's length
//!   arithmetic (`|ciphertext| = |plaintext| + 16`).
//!
//! ## Security disclaimer
//!
//! These are **research-grade toy primitives**: structurally faithful
//! (ARX rounds, encrypt-then-MAC, CBC padding rules) but with reduced
//! round counts and no side-channel hardening. They exist so that the
//! *length* arithmetic of TLS records is exact and the payload bytes on
//! the simulated wire are actually unintelligible — not to protect real
//! data. Do not reuse outside this reproduction.

pub mod aead;
pub mod block;
pub mod kdf;
pub mod mac;
pub mod stream;

pub use aead::{open_into, seal, seal_into, AeadError, TAG_LEN};
pub use kdf::splitmix64;
pub use mac::Mac128;
pub use stream::Wm20;

/// A 256-bit symmetric key.
pub type Key = [u8; 32];

/// A 96-bit nonce.
pub type Nonce = [u8; 12];
