//! E14: fleet elasticity — live resharding and process shards under
//! chaos.
//!
//! Three gates over one merged multi-victim stream:
//!
//! 1. **Equivalence.** A fault-free run under a resize schedule
//!    (shrink then grow, so every step migrates victims) must deliver
//!    a merged verdict stream byte-identical to the static fleet's,
//!    and the process-shard backend must reproduce the in-process
//!    stream. Either divergence exits nonzero before a report is
//!    written.
//! 2. **Resize under chaos.** Intensities 0–2 of
//!    [`ShardFaultPlan::generate_with_aborts`] (so the plan includes
//!    `ProcessAbort` — a real SIGKILL on the process backend) run over
//!    the same schedule on process shards; reported per intensity:
//!    kills, aborts, verdicts, migrations (lossy ones separately),
//!    loss-window sim-time and child respawns.
//! 3. **Throughput.** Static vs elastic sessions/sec and the resize
//!    overhead ratio (wall-clock, `Band::Any` in CI).
//!
//! ```sh
//! cargo run --release -p wm-bench --bin elasticity [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the run for CI; the
//! committed `baselines/BENCH_elasticity.json` is a smoke-mode
//! artifact.
//!
//! The process backend needs the `shard_worker` binary next to this
//! one (`cargo build --release -p wm-fleet` puts it there) or named by
//! `WM_SHARD_WORKER`.

use std::time::Instant;

use wm_bench::elasticity::{ElasticityRow, REQUIRED_METRICS};
use wm_bench::fleet::{resident_config, run_fleet, victim_stream};
use wm_bench::throughput::peak_rss_bytes;
use wm_bench::{capture_pool, graph, publish, smoke, train_attack_for, TraceTally};
use wm_capture::time::{Duration, SimTime};
use wm_chaos::{ShardFaultKind, ShardFaultPlan};
use wm_dataset::OperationalConditions;
use wm_fleet::{ResizeSchedule, ShardBackend};
use wm_telemetry::Snapshot;

const SHARDS: usize = 4;
const INTENSITIES: [f64; 3] = [0.0, 1.0, 2.0];

fn main() {
    let smoke = smoke();

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[84_001, 84_002, 84_003]);
    let classifier = attack.classifier().clone();

    println!("=== E14: fleet elasticity (resharding + process shards) ===\n");

    // ---- capture pool -----------------------------------------------
    let pool_n: u64 = if smoke { 3 } else { 8 };
    let victims: usize = if smoke { 6 } else { 24 };
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let gen_start = Instant::now();
    let pool = capture_pool(
        &graph,
        cond,
        85_000..85_000 + pool_n,
        &mut telemetry,
        &mut tally,
    );
    let (stream, span_us) = victim_stream(&pool, victims);
    println!(
        "  capture pool: {pool_n} sessions, {victims} victims, {} packets, {:.1}s sim-time \
         (generated in {:.2}s)",
        stream.len(),
        span_us as f64 / 1e6,
        gen_start.elapsed().as_secs_f64()
    );

    let cfg = resident_config(SHARDS, victims, span_us);

    // Shrink below the starting count, then grow past it: both steps
    // force migrations, and the shrink exercises slot retirement.
    let schedule = ResizeSchedule::new(vec![
        (SimTime(span_us / 3), SHARDS / 2),
        (SimTime(span_us * 2 / 3), SHARDS + 2),
    ])
    .expect("static schedule is valid");

    // ---- gate 1: fault-free equivalence -----------------------------
    let t = Instant::now();
    let (static_report, _) = run_fleet(&cfg, &classifier, &graph, &stream, None, None);
    let static_secs = t.elapsed().as_secs_f64();
    let static_sessions_per_sec = victims as f64 / static_secs;

    let t = Instant::now();
    let (elastic_report, ev) = run_fleet(&cfg, &classifier, &graph, &stream, None, Some(&schedule));
    let elastic_secs = t.elapsed().as_secs_f64();
    let elastic_sessions_per_sec = victims as f64 / elastic_secs;
    tally.observe(&ev);

    if static_report.verdicts != elastic_report.verdicts {
        eprintln!("EQUIVALENCE FAILED: resize schedule changed the merged verdict stream");
        std::process::exit(1);
    }
    if !elastic_report.migrations.iter().all(|m| m.lossless()) {
        eprintln!("EQUIVALENCE FAILED: fault-free migration reported rollback loss");
        std::process::exit(1);
    }
    let migrated = elastic_report.stats.victims_migrated;
    if migrated == 0 {
        eprintln!("EQUIVALENCE VACUOUS: the schedule migrated no victims");
        std::process::exit(1);
    }
    println!(
        "  equivalence: static == elastic over {} verdicts, {} migrations (all lossless) — ok",
        static_report.verdicts.len(),
        migrated
    );

    let mut process_cfg = cfg.clone();
    process_cfg.backend = ShardBackend::Process { worker: None };
    let t = Instant::now();
    let (process_report, _) = run_fleet(&process_cfg, &classifier, &graph, &stream, None, None);
    let process_secs = t.elapsed().as_secs_f64();
    let process_sessions_per_sec = victims as f64 / process_secs;
    if static_report.verdicts != process_report.verdicts {
        eprintln!("EQUIVALENCE FAILED: process backend changed the merged verdict stream");
        std::process::exit(1);
    }
    println!(
        "  equivalence: in-process == process backend — ok \
         ({static_sessions_per_sec:.1}/s static, {elastic_sessions_per_sec:.1}/s elastic, \
         {process_sessions_per_sec:.1}/s process)"
    );

    // ---- gate 2: resize under chaos, process backend ----------------
    let mut rows: Vec<ElasticityRow> = Vec::new();
    for &intensity in &INTENSITIES {
        let plan = ShardFaultPlan::generate_with_aborts(
            0xE140 + intensity as u64,
            intensity,
            SHARDS,
            Duration::from_micros(span_us),
        );
        let aborts = plan.count(|k| *k == ShardFaultKind::ProcessAbort) as u64;
        let (report, ev) = run_fleet(
            &process_cfg,
            &classifier,
            &graph,
            &stream,
            Some(&plan),
            Some(&schedule),
        );
        tally.observe(&ev);
        if let Some(obs) = report.obs.as_ref() {
            telemetry.merge(&obs.snapshot);
        }
        if intensity == 0.0 && report.verdicts != elastic_report.verdicts {
            eprintln!("EQUIVALENCE FAILED: elastic process run diverged at intensity 0");
            std::process::exit(1);
        }
        let row = ElasticityRow::from_report(intensity as u32, aborts, &report);
        println!(
            "  intensity {}: kills {:<3} (aborts {:<2}) verdicts {:<5} migrations {:<3} \
             (lossy {:<2}) loss-window {:>8} µs  respawns {}",
            row.intensity,
            row.kills,
            row.aborts,
            row.verdicts,
            row.migrations,
            row.lossy_migrations,
            row.loss_window_us,
            row.respawns,
        );
        rows.push(row);
    }

    let overhead = static_sessions_per_sec / elastic_sessions_per_sec.max(f64::MIN_POSITIVE);
    let peak_rss = peak_rss_bytes().unwrap_or(0);
    println!(
        "\n  resize overhead {overhead:.2}x, peak RSS {:.1} MiB",
        peak_rss as f64 / (1024.0 * 1024.0)
    );

    // ---- report ------------------------------------------------------
    let mut metrics: Vec<(String, f64)> = vec![
        ("static_sessions_per_sec".into(), static_sessions_per_sec),
        ("elastic_sessions_per_sec".into(), elastic_sessions_per_sec),
        ("process_sessions_per_sec".into(), process_sessions_per_sec),
        ("resize_overhead_ratio".into(), overhead),
        ("peak_rss_bytes".into(), peak_rss as f64),
        ("equivalence_static_vs_elastic".into(), 1.0),
        ("equivalence_inproc_vs_process".into(), 1.0),
        ("resize_steps".into(), schedule.len() as f64),
        ("victims_migrated_faultfree".into(), migrated as f64),
    ];
    for row in &rows {
        let i = row.intensity;
        metrics.push((format!("kills_i{i}"), row.kills as f64));
        metrics.push((format!("aborts_i{i}"), row.aborts as f64));
        metrics.push((format!("verdicts_i{i}"), row.verdicts as f64));
        metrics.push((format!("migrations_i{i}"), row.migrations as f64));
        metrics.push((
            format!("lossy_migrations_i{i}"),
            row.lossy_migrations as f64,
        ));
        metrics.push((
            format!("migrate_failures_i{i}"),
            row.migrate_failures as f64,
        ));
        metrics.push((format!("loss_window_us_i{i}"), row.loss_window_us as f64));
        metrics.push((format!("respawns_i{i}"), row.respawns as f64));
    }
    publish("elasticity", &metrics, REQUIRED_METRICS, &telemetry, &tally);
}
