//! # wm-telemetry — pipeline observability
//!
//! A std-only measurement substrate for the White Mirror pipeline:
//!
//! * [`Counter`] — a lock-free atomic event counter;
//! * [`Histogram`] — fixed log2-bucket value distribution with exact
//!   (atomic) count/sum/min/max, cheap enough for hot paths;
//! * [`Span`] — an RAII timer recording elapsed nanoseconds into a
//!   histogram on drop;
//! * [`Registry`] — a named collection of the above, shared by `Arc`
//!   handles, snapshottable at any time;
//! * [`Snapshot`] — an immutable, mergeable view that renders both a
//!   human-readable table and machine-readable JSON (round-trippable
//!   without any external JSON crate);
//! * [`trace`] — the causal event recorder: sim-time-stamped spans and
//!   instants, their JSONL / Chrome exports and the first-divergence
//!   diff.
//!
//! Design rules:
//!
//! 1. **Zero dependencies.** The workspace builds offline; this crate
//!    uses only `std` so even leaf crates (`wm-net`, `wm-tls`) can
//!    depend on it without cycles.
//! 2. **Observation never perturbs simulation.** Metrics are updated
//!    with relaxed atomics outside any simulation-visible state, so a
//!    session produces byte-identical traces with or without handles
//!    attached; event *counters* are themselves deterministic per seed
//!    (timing histograms, naturally, are not).
//! 3. **Merge is exact.** [`Snapshot::merge`] is commutative and
//!    associative (u64 adds plus min/max), so per-session registries
//!    aggregated across worker threads give the same run-level report
//!    regardless of completion order.

pub mod delta;
pub mod metric;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use delta::DeltaTracker;
pub use metric::{Counter, Histogram, Span, BUCKETS};
pub use registry::Registry;
pub use snapshot::{HistogramSnapshot, Snapshot};
