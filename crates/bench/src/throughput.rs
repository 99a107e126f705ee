//! Throughput-engine measurement helpers (used by `bin/throughput.rs`).
//!
//! The binary measures the sharded decode engine end to end; this
//! module holds the pieces worth exercising without the full harness:
//! `/proc`-based RSS probes and the schema check CI runs against the
//! emitted `BENCH_throughput.json`.

/// Every metric `BENCH_throughput.json` must carry. The first four are
/// the headline numbers; the `obs_*` pair pins the metrics-plane
/// overhead story (observed vs bare serial replay, budget ≤ 1.05).
pub const REQUIRED_METRICS: &[&str] = &[
    "sessions_per_sec",
    "records_per_sec",
    "bytes_per_sec",
    "peak_rss_bytes",
    "sessions_per_sec_obs",
    "obs_overhead_ratio",
];

/// Peak resident set (`VmHWM`) of this process, in bytes. `None` off
/// Linux or if `/proc` is unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kb("VmHWM:")
}

/// Current resident set (`VmRSS`) of this process, in bytes.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench_json, validate_bench_json, TraceTally};
    use wm_telemetry::Snapshot;

    #[test]
    fn rss_probes_report_plausible_values() {
        // Current first: the peak read after it can only be higher,
        // whatever the other tests allocate in between.
        let now = current_rss_bytes().expect("VmRSS readable on Linux");
        let peak = peak_rss_bytes().expect("VmHWM readable on Linux");
        assert!(peak >= now, "peak {peak} < current {now}");
        assert!(now > 1024 * 1024, "current RSS implausibly small: {now}");
    }

    #[test]
    fn schema_accepts_a_complete_report() {
        let metrics: Vec<(&str, f64)> = REQUIRED_METRICS.iter().map(|k| (*k, 1.5)).collect();
        let json = bench_json(
            "throughput",
            &metrics,
            &Snapshot::default(),
            &TraceTally::default(),
        );
        validate_bench_json(&json, "throughput", REQUIRED_METRICS)
            .expect("complete report validates");
    }

    #[test]
    fn schema_rejects_missing_wrong_or_broken_metrics() {
        let all: Vec<(&str, f64)> = REQUIRED_METRICS.iter().map(|k| (*k, 1.0)).collect();
        let tele = Snapshot::default();
        let tally = TraceTally::default();

        let wrong_name = bench_json("other", &all, &tele, &tally);
        assert!(validate_bench_json(&wrong_name, "throughput", REQUIRED_METRICS).is_err());

        for dropped in REQUIRED_METRICS {
            let partial: Vec<(&str, f64)> =
                all.iter().filter(|(k, _)| k != dropped).copied().collect();
            let json = bench_json("throughput", &partial, &tele, &tally);
            let err = validate_bench_json(&json, "throughput", REQUIRED_METRICS)
                .expect_err("missing metric must fail");
            assert!(
                err.contains(dropped),
                "error {err:?} names the missing metric"
            );
        }

        let mut negative = all.clone();
        negative[0].1 = -1.0;
        let json = bench_json("throughput", &negative, &tele, &tally);
        assert!(validate_bench_json(&json, "throughput", REQUIRED_METRICS).is_err());
    }
}
