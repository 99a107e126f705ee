//! # wm-defense — countermeasures against the record-length leak
//!
//! Section VI of the paper sketches two "easy fixes" — *split* the state
//! JSON across records, or *compress* it so its length is no longer
//! distinctive — and predicts that timing side-channels survive both.
//! This crate implements the fixes (plus the stronger constant-size
//! *padding* defense); the timing-only attack that tests the paper's
//! prediction lives with the other attacks, in
//! `wm_core::baselines::timing`:
//!
//! * [`transform::Defense`] — wire transforms applied to outgoing state
//!   reports by the session layer;
//! * [`lz`] — a from-scratch LZ77-style compressor/decompressor backing
//!   the compression defense (real compression, so the length leakage
//!   through compressed sizes is genuine, not modelled).

pub mod lz;
pub mod transform;

pub use transform::Defense;
