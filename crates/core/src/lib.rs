//! # wm-core — the White Mirror attack
//!
//! The paper's contribution: a passive traffic-analysis technique that
//! recovers the choices a viewer makes in an interactive Netflix title
//! from encrypted traffic. The pipeline:
//!
//! 1. [`features`] — reassemble the capture, extract the client-side
//!    TLS record lengths (the side-channel);
//! 2. [`classify`] — label each record as carrying a type-1 JSON, a
//!    type-2 JSON or "others", from its length alone. Three
//!    interchangeable classifiers are provided (the paper's
//!    interval-band method, plus histogram-Bayes and kNN comparators);
//! 3. [`decode`] — turn the classified event stream into the choice
//!    sequence, walking the (public) story graph: every type-1 marks a
//!    question, a type-2 inside the choice window marks a non-default
//!    pick. One incremental path decoder predicts question times from
//!    segment durations to survive missed reports, keeping one
//!    hypothesis (greedy) or several (beam); the offline attack, the
//!    ablations and the streaming attacker ([`online`]) all run it,
//!    admit records through one report stream and cite evidence
//!    through one resolver ([`provenance`]);
//! 4. [`metrics`] — per-record confusion matrices and per-choice
//!    accuracy, including the worst-case accounting behind the paper's
//!    headline "96% of the time in the worst case".
//!
//! [`attack::WhiteMirror`] bundles the pipeline end-to-end: train on
//! labelled sessions, decode raw pcaps. [`online`] is the same attack
//! run while the victim watches: it decodes packet by packet in bounded
//! memory and survives a crash through checkpoints. [`baselines`]
//! re-implements the prior-work fingerprinting techniques the paper
//! argues cannot read intra-video choices (E7's comparators).
//!
//! Nothing in this crate ever sees plaintext or keys — inputs are
//! captures (`wm_capture::Trace`) and the public story graph.

pub mod attack;
pub mod baselines;
pub mod classify;
pub mod decode;
pub mod features;
pub mod metrics;
pub mod online;
pub mod provenance;
pub mod report;

pub use attack::{AttackTelemetry, DecodedSession, WhiteMirror, WhiteMirrorConfig};
pub use classify::{HistogramClassifier, IntervalClassifier, KnnClassifier, RecordClassifier};
pub use decode::{
    ChoiceDecoder, Decision, DecodedChoice, DecoderConfig, ReportEvent, Timing, CONFIDENCE_BLIND,
    CONFIDENCE_INFERRED, CONFIDENCE_OBSERVED, WINDOW_SECS,
};
pub use features::{client_app_records, ClientFeatures};
pub use metrics::{choice_accuracy, ChoiceAccuracy, ConfusionMatrix};
pub use provenance::{
    ChoiceProvenance, ConfidenceTier, ProvenanceRecord, RecordRole, GAP_CONFIDENCE_FACTOR,
};
pub use report::session_report;
