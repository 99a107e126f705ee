//! Prior-work techniques, re-implemented (E7's comparators), and the
//! timing attack that survives the length fixes (E5, E6).
//!
//! §II of the paper argues that existing encrypted-video fingerprinting
//! cannot read *intra-video* choices: "inter-video features cannot be
//! used to differentiate between segments from the same video", because
//! every branch of one title streams on the same bitrate ladder. This
//! module makes that argument executable by re-implementing the prior
//! techniques' feature sets as *choice decoders* and measuring them on
//! the same captures White Mirror reads:
//!
//! * [`bitrate::BitrateBaseline`] — Reed–Kranch-style bitrate
//!   fingerprinting: mean downstream throughput in the window after
//!   each question;
//! * [`burst::BurstKnnBaseline`] — "Beauty and the Burst"-style burst
//!   vectors: per-sub-window downstream byte counts, k-NN matched;
//! * [`bitrate::MajorityBaseline`] — the prior-free floor (always
//!   predict the majority class).
//!
//! The baselines are deliberately *over*-provisioned: they receive the
//! ground-truth question times for free (White Mirror has to find them
//! itself). They still hover near the majority floor, which is the
//! paper's point. Silhouette-style ADU features (Li et al.) identify
//! video *flows*, not intra-flow branches, and degenerate to the same
//! downstream-volume features `burst` already covers — see DESIGN.md.
//!
//! [`timing::TimingDecoder`] is §VI's residual channel: it reads
//! choices from the count and timing of upstream state posts alone, so
//! it still works when a defense pads every post to one size. Unlike
//! the comparators above it finds the questions itself.

pub mod bitrate;
pub mod burst;
pub mod features;
pub mod timing;

pub use bitrate::{BitrateBaseline, MajorityBaseline};
pub use burst::BurstKnnBaseline;
pub use features::{downstream_bytes_in, LabeledWindow};
pub use timing::TimingDecoder;
