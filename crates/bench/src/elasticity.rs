//! Fleet-elasticity measurement helpers (used by `bin/elasticity.rs`).
//!
//! The binary pins the elasticity contract from three sides: a
//! fault-free resize schedule must reproduce the static fleet's merged
//! verdict stream byte-for-byte, the process-shard backend must
//! reproduce the in-process stream, and a resize-under-chaos sweep
//! (intensities 0–2, `ProcessAbort` included) must keep every loss
//! inside reported windows. This module holds the per-intensity
//! summary arithmetic and the schema check CI runs against the emitted
//! `BENCH_elasticity.json`.

use wm_fleet::FleetReport;

/// Every metric `BENCH_elasticity.json` must carry. The equivalence
/// flags are the determinism contract (always 1, or the binary exits
/// nonzero before writing); the per-intensity rows pin resize-under-
/// chaos behaviour so a regression cannot pass the gate by dropping a
/// column. Wall-clock-shaped names (`*_per_sec`, `*_ratio`, RSS) ride
/// `Band::Any` in `bench_diff`; everything else is seed-deterministic
/// and compares exactly.
pub const REQUIRED_METRICS: &[&str] = &[
    "static_sessions_per_sec",
    "elastic_sessions_per_sec",
    "process_sessions_per_sec",
    "resize_overhead_ratio",
    "peak_rss_bytes",
    "equivalence_static_vs_elastic",
    "equivalence_inproc_vs_process",
    "resize_steps",
    "victims_migrated_faultfree",
    "kills_i0",
    "kills_i1",
    "kills_i2",
    "aborts_i0",
    "aborts_i1",
    "aborts_i2",
    "verdicts_i0",
    "verdicts_i1",
    "verdicts_i2",
    "migrations_i0",
    "migrations_i1",
    "migrations_i2",
    "lossy_migrations_i0",
    "lossy_migrations_i1",
    "lossy_migrations_i2",
    "migrate_failures_i0",
    "migrate_failures_i1",
    "migrate_failures_i2",
    "loss_window_us_i0",
    "loss_window_us_i1",
    "loss_window_us_i2",
    "respawns_i0",
    "respawns_i1",
    "respawns_i2",
];

/// Per-intensity summary of one resize-under-chaos run, flattened for
/// the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElasticityRow {
    pub intensity: u32,
    pub kills: u64,
    /// `ProcessAbort` faults the plan scheduled (real SIGKILLs on the
    /// process backend).
    pub aborts: u64,
    pub verdicts: u64,
    pub migrations: u64,
    /// Migrations that rolled a victim back to a checkpoint (dead
    /// source shard) rather than draining live state.
    pub lossy_migrations: u64,
    pub migrate_failures: u64,
    /// Total sim-time covered by reported loss windows, µs.
    pub loss_window_us: u64,
    /// Child processes respawned after crashes (process backend).
    pub respawns: u64,
}

impl ElasticityRow {
    pub fn from_report(intensity: u32, aborts: u64, report: &FleetReport) -> Self {
        let s = report.stats;
        ElasticityRow {
            intensity,
            kills: s.kills,
            aborts,
            verdicts: s.verdicts,
            migrations: s.victims_migrated,
            lossy_migrations: report.migrations.iter().filter(|m| !m.lossless()).count() as u64,
            migrate_failures: s.migrate_failures,
            loss_window_us: report
                .loss_windows
                .iter()
                .map(|w| w.to.micros().saturating_sub(w.from.micros()))
                .sum(),
            respawns: s.process_respawns,
        }
    }
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
            "elasticity",
            &full_metrics(),
            &Snapshot::default(),
            &TraceTally::default(),
        );
        validate_bench_json(&json, "elasticity", REQUIRED_METRICS)
            .expect("complete report validates");
    }

    #[test]
    fn wrong_name_or_missing_metric_fails() {
        let wrong = bench_json(
            "fleet",
            &full_metrics(),
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert!(validate_bench_json(&wrong, "elasticity", REQUIRED_METRICS).is_err());
        for skip in REQUIRED_METRICS {
            let partial: Vec<(&str, f64)> = full_metrics()
                .into_iter()
                .filter(|(k, _)| k != skip)
                .collect();
            let json = bench_json(
                "elasticity",
                &partial,
                &Snapshot::default(),
                &TraceTally::default(),
            );
            let err = validate_bench_json(&json, "elasticity", REQUIRED_METRICS)
                .expect_err("missing metric must fail");
            assert!(err.contains(skip), "error {err:?} must name {skip:?}");
        }
    }
}
