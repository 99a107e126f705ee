//! Deterministic causal event tracing.
//!
//! The pipeline's flight recorder. The metric registry aggregates —
//! it can say accuracy dropped; this module explains *why*: which TLS
//! record, on which flow, near which tap gap, produced (or lost) each
//! classified choice.
//!
//! Design rules, in order:
//!
//! 1. **Sim time only.** Every [`TraceEvent`] timestamp is simulation
//!    time in microseconds. Traces are therefore byte-deterministic
//!    per `(config, seed)` and diffable across runs — enforced by the
//!    `determinism/trace-sim-time` wm-lint rule.
//! 2. **Causal spans.** Events nest under monotonically allocated
//!    [`SpanId`]s: session → flow → handshake/POST/decode → record.
//! 3. **Allocation-cheap.** An event is a fixed-shape `Copy` struct
//!    with a `&'static str` name and two `u64` payload words; emitting
//!    one is a bounded ring-buffer push behind an `Arc` handle shared
//!    like a [`Registry`](crate::Registry).
//! 4. **Observation only.** Attaching a [`TraceHandle`] never draws
//!    randomness or perturbs sim-visible state; pcaps, labels and
//!    truth are byte-identical with tracing on or off.
//!
//! Exporters: [`export_jsonl`] (golden fixtures, diffing) and
//! [`export_chrome_trace`] (Chrome trace-event JSON — open in
//! <https://ui.perfetto.dev>). [`trace_diff`] aligns two JSONL exports
//! and reports the first diverging event; `obs trace-diff` (in
//! `wm-obs`) wraps it for CI gating.

pub mod diff;
pub mod event;
pub mod export;
pub mod recorder;

pub use diff::{trace_diff, Divergence};
pub use event::{EventKind, SpanId, TraceEvent};
pub use export::{export_chrome_trace, export_jsonl};
pub use recorder::{counts_by_name, TraceHandle, TraceRecorder, DEFAULT_CAPACITY};
