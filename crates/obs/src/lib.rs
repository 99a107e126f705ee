//! # wm-obs — deterministic observability plane
//!
//! Attacker-side infrastructure for *operating* the fleet, layered on
//! [`wm_telemetry`] registries and trace spans:
//!
//! * [`series`] — a bounded ring of fleet-wide time-series points,
//!   each the merge of per-shard registry deltas taken at one sim-time
//!   observation tick;
//! * [`health`] — the SLO watchdog: per-shard vitals scored into typed
//!   [`HealthState`]s with hysteresis, producing a deterministic
//!   alert stream of [`HealthTransition`]s;
//! * [`profile`] — a span-derived sim-time profiler emitting
//!   collapsed-stack flamegraph output (inferno/speedscope format)
//!   from [`wm_telemetry::trace`] span trees;
//! * [`diff`] — the bench-regression gate: compare any `BENCH_*.json`
//!   against a committed baseline with per-metric tolerance bands
//!   (`obs bench-diff`).
//!
//! The `obs` binary puts `trace-diff`, `bench-diff` and `flamegraph`
//! behind one exit contract: 0 = pass, 1 = divergence or regression,
//! 2 = usage, I/O or parse error.
//!
//! Everything here observes; nothing feeds back into simulated bytes.
//! All iteration is over ordered containers and all timestamps are
//! simulation time, so every export is byte-identical across worker
//! and shard counts.

pub mod diff;
pub mod health;
pub mod profile;
pub mod series;

pub use diff::{bench_diff, Band, BenchDoc, DiffReport, MetricDiff};
pub use health::{FleetStatus, HealthState, HealthTransition, ShardVitals, Watchdog};
pub use profile::{collapse_jsonl, collapse_spans};
pub use series::{SeriesPoint, SeriesRing};
