//! The fleet harness E12 (`bin/fleet_recovery.rs`) and E14
//! (`bin/elasticity.rs`) share, and E12's measurement helpers.
//!
//! Both benches feed a staggered multi-victim stream
//! ([`victim_stream`]) to a fleet that keeps every victim resident
//! ([`resident_config`]), one fresh fleet per run ([`run_fleet`]).
//! E12 sweeps shard-fault intensity 0–4 over a supervised
//! [`wm_fleet::Fleet`] and compares its throughput against the
//! unsupervised [`wm_core::online::decode_sessions_sharded`] baseline; this
//! module holds its per-intensity summary arithmetic and the schema
//! check CI runs against the emitted `BENCH_fleet.json`.

use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::ShardFaultPlan;
use wm_core::online::CapturedPacket;
use wm_core::IntervalClassifier;
use wm_fleet::{merge_taps, Fleet, FleetConfig, FleetReport, ResizeSchedule, TapPacket};
use wm_story::StoryGraph;
use wm_telemetry::trace::{SpanId, TraceEvent, TraceHandle};

use crate::TIME_SCALE;

/// Every metric `BENCH_fleet.json` must carry. The headline trio pins
/// the supervision overhead story; the per-intensity rows pin the
/// recovery behaviour across the 0–4 fault sweep so a regression in
/// kill/resume cannot pass the schema gate by dropping a column.
pub const REQUIRED_METRICS: &[&str] = &[
    "fleet_sessions_per_sec",
    "baseline_sessions_per_sec",
    "supervision_overhead_ratio",
    "peak_rss_bytes",
    "kills_i0",
    "kills_i1",
    "kills_i2",
    "kills_i3",
    "kills_i4",
    "verdicts_i0",
    "verdicts_i1",
    "verdicts_i2",
    "verdicts_i3",
    "verdicts_i4",
    "loss_window_us_i0",
    "loss_window_us_i1",
    "loss_window_us_i2",
    "loss_window_us_i3",
    "loss_window_us_i4",
    "recovery_latency_us_i0",
    "recovery_latency_us_i1",
    "recovery_latency_us_i2",
    "recovery_latency_us_i3",
    "recovery_latency_us_i4",
    "restore_failures_i0",
    "restore_failures_i1",
    "restore_failures_i2",
    "restore_failures_i3",
    "restore_failures_i4",
    "max_shard_recovery_us_i0",
    "max_shard_recovery_us_i1",
    "max_shard_recovery_us_i2",
    "max_shard_recovery_us_i3",
    "max_shard_recovery_us_i4",
    "alerts_i0",
    "alerts_i1",
    "alerts_i2",
    "alerts_i3",
    "alerts_i4",
];

/// Per-intensity summary of one fleet run, flattened for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntensityRow {
    pub intensity: u32,
    pub kills: u64,
    pub restarts: u64,
    pub verdicts: u64,
    pub dedup_dropped: u64,
    /// Total sim-time covered by reported loss windows, µs.
    pub loss_window_us: u64,
    /// Mean sim-time from kill to restore, µs (0 when nothing died).
    pub recovery_latency_us: u64,
    /// Restore attempts rejected, summed over the per-shard recovery
    /// attribution (each failure names its shard via
    /// `ShardRestoreError::shard`).
    pub restore_failures: u64,
    /// The worst single shard's total outage sim-time, µs — the
    /// attribution headline: mean latency hides one shard absorbing
    /// every kill.
    pub max_shard_recovery_us: u64,
}

impl IntensityRow {
    pub fn from_report(intensity: u32, report: &FleetReport) -> Self {
        let s = report.stats;
        IntensityRow {
            intensity,
            kills: s.kills,
            restarts: s.restarts,
            verdicts: s.verdicts,
            dedup_dropped: s.dedup_dropped,
            loss_window_us: report
                .loss_windows
                .iter()
                .map(|w| w.to.micros().saturating_sub(w.from.micros()))
                .sum(),
            recovery_latency_us: s.recovery_latency_us.checked_div(s.restarts).unwrap_or(0),
            restore_failures: report.recovery.iter().map(|r| r.restore_failures).sum(),
            max_shard_recovery_us: report
                .recovery
                .iter()
                .map(|r| r.recovery_latency_us)
                .max()
                .unwrap_or(0),
        }
    }
}

/// The stream a fleet ingests: `victims` taps cycling through `pool`,
/// victim `v` starting `v` × 250 ms in, merged into one time-ordered
/// stream. Returns it with its sim-time span in µs (at least 1).
pub fn victim_stream(pool: &[Vec<CapturedPacket>], victims: usize) -> (Vec<TapPacket>, u64) {
    let taps: Vec<Vec<TapPacket>> = (0..victims)
        .map(|v| {
            let offset = v as u64 * 250_000;
            pool[v % pool.len()]
                .iter()
                .map(|(t, frame)| (SimTime(t.micros() + offset), v as u32, frame.clone()))
                .collect()
        })
        .collect();
    let stream = merge_taps(&taps);
    let span_us = stream
        .last()
        .map(|(t, _, _)| t.micros())
        .unwrap_or(1)
        .max(1);
    (stream, span_us)
}

/// A fleet of `shards` that keeps all `victims` resident for a stream
/// spanning `span_us`: sessions overlap for the whole run, so nothing
/// is evicted and a fault-free run decodes each victim packet for
/// packet as the unsupervised baseline does.
pub fn resident_config(shards: usize, victims: usize, span_us: u64) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(shards, TIME_SCALE);
    cfg.victim_idle = Duration::from_micros(span_us);
    cfg.max_victims_per_shard = victims.max(1);
    cfg
}

/// Push `stream` through a fresh traced, observed fleet, with the
/// shard faults of `plan` and the resizes of `schedule` when given.
/// Returns the fleet's report and its trace. Exits 1 when the fleet
/// cannot be built (a process backend without its worker binary).
pub fn run_fleet(
    cfg: &FleetConfig,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    stream: &[TapPacket],
    plan: Option<&ShardFaultPlan>,
    schedule: Option<&ResizeSchedule>,
) -> (FleetReport, Vec<TraceEvent>) {
    let mut fleet = match Fleet::new(cfg.clone(), classifier.clone(), graph.clone()) {
        Ok(fleet) => fleet,
        Err(e) => {
            eprintln!(
                "cannot construct fleet: {e}\n\
                 (process backend? build the worker first: \
                 cargo build --release -p wm-fleet)"
            );
            std::process::exit(1);
        }
    };
    if let Some(plan) = plan {
        fleet.inject(plan);
    }
    if let Some(schedule) = schedule {
        fleet.schedule_resize(schedule);
    }
    let trace = TraceHandle::new();
    let root = trace.span_start_at(0, "fleet.run", SpanId::NONE);
    fleet.attach_trace(trace.clone(), root);
    fleet.attach_observer();
    for (t, victim, frame) in stream {
        fleet.push(*t, *victim, frame);
    }
    let end = stream.last().map(|(t, _, _)| t.micros()).unwrap_or(0);
    let report = fleet.finish();
    trace.span_end_at(end, root, "fleet.run");
    (report, trace.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_json, validate_bench_json, TraceTally};
    use wm_telemetry::Snapshot;

    fn full_metrics() -> Vec<(&'static str, f64)> {
        REQUIRED_METRICS.iter().map(|k| (*k, 1.0)).collect()
    }

    #[test]
    fn complete_report_validates() {
        let json = bench_json(
            "fleet",
            &full_metrics(),
            &Snapshot::default(),
            &TraceTally::default(),
        );
        validate_bench_json(&json, "fleet", REQUIRED_METRICS).expect("complete report validates");
    }

    #[test]
    fn wrong_name_or_missing_metric_fails() {
        let wrong = bench_json(
            "throughput",
            &full_metrics(),
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert!(validate_bench_json(&wrong, "fleet", REQUIRED_METRICS).is_err());
        for skip in REQUIRED_METRICS {
            let partial: Vec<(&str, f64)> = full_metrics()
                .into_iter()
                .filter(|(k, _)| k != skip)
                .collect();
            let json = bench_json(
                "fleet",
                &partial,
                &Snapshot::default(),
                &TraceTally::default(),
            );
            let err = validate_bench_json(&json, "fleet", REQUIRED_METRICS)
                .expect_err("missing metric must fail");
            assert!(err.contains(skip), "error {err:?} must name {skip:?}");
        }
    }

    #[test]
    fn non_finite_metric_fails() {
        let mut metrics = full_metrics();
        metrics[0].1 = f64::NAN;
        let json = bench_json(
            "fleet",
            &metrics,
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert!(validate_bench_json(&json, "fleet", REQUIRED_METRICS).is_err());
    }
}
