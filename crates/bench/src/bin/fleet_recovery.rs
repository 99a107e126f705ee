//! E12: supervised fleet kill/resume under chaos.
//!
//! Sweeps shard-fault intensity 0–4 over a supervised
//! [`wm_fleet::Fleet`] fed one merged multi-victim stream, and
//! compares its fault-free throughput against the unsupervised
//! [`wm_core::online::decode_sessions_sharded`] baseline. Reported per
//! intensity: kills, delivered verdicts, total loss-window sim-time
//! and mean recovery latency; headline: fleet vs baseline sessions/sec
//! and the supervision overhead ratio, written to `BENCH_fleet.json`
//! (schema-checked in-process; CI validates the same file).
//!
//! ```sh
//! cargo run --release -p wm-bench --bin fleet_recovery [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the sweep for CI.
//!
//! The intensity-0 run doubles as an equivalence gate: with no faults
//! injected, the supervised fleet must deliver exactly the per-victim
//! verdicts the unsupervised baseline decodes.

use std::time::Instant;

use wm_bench::fleet::{resident_config, run_fleet, victim_stream, IntensityRow, REQUIRED_METRICS};
use wm_bench::throughput::peak_rss_bytes;
use wm_bench::{capture_pool, graph, publish, smoke, train_attack_for, TraceTally};
use wm_capture::time::Duration;
use wm_chaos::ShardFaultPlan;
use wm_core::online::{decode_sessions_sharded, CapturedPacket, SessionDecode};
use wm_dataset::OperationalConditions;
use wm_fleet::FleetReport;
use wm_obs::collapse_spans;
use wm_telemetry::Snapshot;

const SHARDS: usize = 4;
const INTENSITIES: [f64; 5] = [0.0, 1.0, 2.0, 3.0, 4.0];

fn main() {
    let smoke = smoke();

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[82_001, 82_002, 82_003]);
    let classifier = attack.classifier().clone();

    println!("=== E12: supervised fleet kill/resume ===\n");

    // ---- capture pool -----------------------------------------------
    let pool_n: u64 = if smoke { 4 } else { 12 };
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let gen_start = Instant::now();
    let pool = capture_pool(
        &graph,
        cond,
        83_000..83_000 + pool_n,
        &mut telemetry,
        &mut tally,
    );
    println!(
        "  capture pool: {pool_n} sessions simulated in {:.2}s",
        gen_start.elapsed().as_secs_f64()
    );

    // ---- victim batch + merged stream -------------------------------
    let victims: usize = if smoke { 8 } else { 48 };
    let batch: Vec<Vec<CapturedPacket>> =
        (0..victims).map(|v| pool[v % pool.len()].clone()).collect();
    let (stream, span_us) = victim_stream(&pool, victims);
    let cfg = resident_config(SHARDS, victims, span_us);

    // ---- baseline: unsupervised sharded decode ----------------------
    let t = Instant::now();
    let baseline = decode_sessions_sharded(&classifier, &graph, &cfg.decode, &batch, 0);
    let baseline_secs = t.elapsed().as_secs_f64();
    let baseline_sessions_per_sec = victims as f64 / baseline_secs;
    println!(
        "  baseline decode_sessions_sharded: {victims} sessions in {baseline_secs:.2}s \
         ({baseline_sessions_per_sec:.1}/s)"
    );

    // ---- fleet sweep over fault intensity ---------------------------
    let mut rows: Vec<IntensityRow> = Vec::new();
    let mut alerts: Vec<(u32, u64)> = Vec::new();
    let mut fleet_sessions_per_sec = 0.0;
    for &intensity in &INTENSITIES {
        let plan = ShardFaultPlan::generate(
            0xE120 + intensity as u64,
            intensity,
            SHARDS,
            Duration::from_micros(span_us),
        );
        let t = Instant::now();
        let (report, trace_events) =
            run_fleet(&cfg, &classifier, &graph, &stream, Some(&plan), None);
        let secs = t.elapsed().as_secs_f64();
        if intensity == 0.0 {
            fleet_sessions_per_sec = victims as f64 / secs;
            assert_intensity0_matches_baseline(&report, &baseline);
        }
        let obs = report.obs.as_ref().expect("observer attached to every run");
        let alert_count = obs.status.transitions.len() as u64 + obs.status.transitions_dropped;
        alerts.push((intensity as u32, alert_count));
        telemetry.merge(&obs.snapshot);
        tally.observe(&trace_events);
        let row = IntensityRow::from_report(intensity as u32, &report);
        println!(
            "  intensity {}: kills {:<3} restarts {:<3} verdicts {:<5} dropped {:<4} \
             loss-window {:>8} µs  mean recovery {:>8} µs  ({:.1} sessions/s)",
            row.intensity,
            row.kills,
            row.restarts,
            row.verdicts,
            row.dedup_dropped,
            row.loss_window_us,
            row.recovery_latency_us,
            victims as f64 / secs,
        );
        println!(
            "               per-shard: restore failures {}  worst outage {} µs",
            row.restore_failures, row.max_shard_recovery_us,
        );
        println!(
            "               health: {}  alerts {} (worst {})",
            obs.status
                .states
                .iter()
                .map(|s| s.label().chars().next().unwrap_or('?'))
                .collect::<String>(),
            alert_count,
            obs.status.worst().label(),
        );
        // The intensity-2 run is the E13 exhibit: CI uploads its
        // streamed metric series and the sim-time flamegraph.
        if intensity == 2.0 {
            write_artifact("FLEET_series.jsonl", &obs.series_jsonl);
            write_artifact("FLEET_flame.folded", &collapse_spans(&trace_events));
        }
        rows.push(row);
    }

    let overhead = baseline_sessions_per_sec / fleet_sessions_per_sec.max(f64::MIN_POSITIVE);
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    println!(
        "\n  fleet {fleet_sessions_per_sec:.1} sessions/s vs baseline \
         {baseline_sessions_per_sec:.1}/s — supervision overhead {overhead:.2}x, \
         peak RSS {:.1} MiB",
        peak_rss as f64 / (1024.0 * 1024.0)
    );

    // ---- report ------------------------------------------------------
    let mut metrics: Vec<(String, f64)> = vec![
        ("fleet_sessions_per_sec".into(), fleet_sessions_per_sec),
        (
            "baseline_sessions_per_sec".into(),
            baseline_sessions_per_sec,
        ),
        ("supervision_overhead_ratio".into(), overhead),
        ("peak_rss_bytes".into(), peak_rss as f64),
    ];
    for row in &rows {
        metrics.push((format!("kills_i{}", row.intensity), row.kills as f64));
        metrics.push((format!("verdicts_i{}", row.intensity), row.verdicts as f64));
        metrics.push((
            format!("loss_window_us_i{}", row.intensity),
            row.loss_window_us as f64,
        ));
        metrics.push((
            format!("recovery_latency_us_i{}", row.intensity),
            row.recovery_latency_us as f64,
        ));
        metrics.push((
            format!("restore_failures_i{}", row.intensity),
            row.restore_failures as f64,
        ));
        metrics.push((
            format!("max_shard_recovery_us_i{}", row.intensity),
            row.max_shard_recovery_us as f64,
        ));
    }
    for (intensity, n) in &alerts {
        metrics.push((format!("alerts_i{intensity}"), *n as f64));
    }
    publish("fleet", &metrics, REQUIRED_METRICS, &telemetry, &tally);
}

fn write_artifact(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("               wrote {path}"),
        Err(e) => eprintln!("               could not write {path}: {e}"),
    }
}

/// With no faults the supervised fleet must deliver exactly what the
/// unsupervised baseline decodes, victim for victim.
fn assert_intensity0_matches_baseline(report: &FleetReport, baseline: &[SessionDecode]) {
    assert_eq!(report.stats.kills, 0, "intensity 0 must inject nothing");
    assert!(
        report.loss_windows.is_empty(),
        "intensity 0 must not report loss"
    );
    let mut per_victim = vec![0u64; baseline.len()];
    for (victim, _) in &report.verdicts {
        per_victim[*victim as usize] += 1;
    }
    for (v, decode) in baseline.iter().enumerate() {
        assert_eq!(
            per_victim[v],
            decode.verdicts.len() as u64,
            "victim {v}: supervised fleet diverged from the unsupervised baseline"
        );
    }
}
