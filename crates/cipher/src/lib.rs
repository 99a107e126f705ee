//! # wm-cipher — from-scratch symmetric primitives for the record layer
//!
//! The White Mirror attack is a *ciphertext-length* side-channel: the
//! eavesdropper never decrypts anything. To make that property real
//! inside the simulation — nothing downstream of the TLS boundary can
//! cheat and look at plaintext — the record layer in `wm-tls` performs
//! genuine encryption with the primitives in this crate:
//!
//! * [`stream::Wm20`] — a ChaCha-style ARX stream cipher (96-bit nonce,
//!   32-bit block counter, 512-bit state), whose per-record keystream
//!   runs eight blocks per call on x86_64 CPUs with AVX2;
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
//!
//! ## One of the workspace's two `unsafe` blocks
//!
//! [`Wm20::mac_key_and_apply`] calls its AVX2 kernel, a safe
//! `#[target_feature(enable = "avx2")]` function, only after
//! `is_x86_feature_detected!("avx2")` returns true; that call is the one
//! `unsafe` block `wm-lint`'s budget allows in this crate. The scalar
//! [`Wm20::block`]/[`Wm20::apply`] are the reference the kernel is tested
//! against and the path every other CPU runs. The other block is
//! `wm-core`'s CRC-32 dispatch to its PCLMULQDQ kernel, built the same
//! way.

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
