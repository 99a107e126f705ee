//! # wm-online — the streaming White Mirror attacker
//!
//! The offline attack ([`wm_core`]) assumes the eavesdropper captures
//! a whole session to disk, then decodes at leisure. The more
//! threatening attacker decodes *while the victim watches*: verdicts
//! land seconds after each choice, and a crashed attacker process
//! resumes mid-film without losing the session. This crate is that
//! attacker:
//!
//! * [`engine::OnlineDecoder`] — consumes captured frames one at a
//!   time, reassembles TLS records incrementally across interleaved
//!   flows, classifies state reports on the fly, drives wm-core's path
//!   decoder ([`wm_core::PathDecoder`], width 1) over them and emits
//!   per-choice [`engine::OnlineVerdict`]s (same confidence grading
//!   and provenance tiers as the offline pipeline) the moment each
//!   choice becomes decidable. Memory is bounded by configuration, not
//!   by session length.
//! * [`ingest::FlowIngest`] — per-flow streaming reassembly under hard
//!   byte budgets, tolerant of reordering, truncation, duplicates and
//!   mid-session tap attach.
//! * [`checkpoint`] — compact, versioned, CRC-sealed binary decoder
//!   snapshots on a configurable record cadence, in the one layout a
//!   fleet shard also uses for many decoders;
//!   [`engine::OnlineDecoder::resume_from_checkpoint`] restores one
//!   after a process kill with zero duplicated verdicts and explicit
//!   loss-window reporting for anything dropped in between.
//! * [`bounded`] — the capacity-enforcing containers everything above
//!   is built from (a wm-lint rule forbids unbounded buffering in the
//!   ingest paths).
//!
//! On a clean, in-order capture the online verdict stream is
//! byte-for-byte the offline greedy decode (`wm_core::ChoiceDecoder`
//! at width 1 + `build_provenance`); the equivalence is enforced by
//! tests. Under
//! impairment the two may diverge only around the impaired spans,
//! which the decoder reports as loss windows.

pub mod bounded;
pub mod checkpoint;
mod crc;
pub mod engine;
pub mod ingest;
pub mod shard;

pub use checkpoint::{
    graph_fingerprint, restore_record, split_records, Blob, BlobHeader, BlobWriter,
    CheckpointError, RecordRef, CHECKPOINT_VERSION,
};
pub use engine::{OnlineConfig, OnlineDecoder, OnlineStats, OnlineVerdict};
pub use ingest::{
    ExtractedRecord, FlowIngest, GapEvent, IngestLimits, IngestLimitsError, IngestStats,
};
pub use shard::{decode_sessions_sharded, replay_session, CapturedPacket, SessionDecode};
