//! E11: million-session throughput engine.
//!
//! Measures the sharded streaming-decode engine
//! ([`wm_core::online::decode_sessions_sharded`]) end to end: a pool of
//! simulated victim captures is decoded as a fleet under the
//! work-stealing scheduler. Reported: sessions/sec, records/sec
//! decoded, bytes/sec ingested and peak RSS, written to
//! `BENCH_throughput.json` (schema-checked in-process; CI validates
//! the same file).
//!
//! ```sh
//! cargo run --release -p wm-bench --bin throughput [-- --smoke] [-- --soak [N]]
//! ```
//!
//! `--smoke` shrinks the fleet for CI. `--soak [N]` additionally
//! replays N sessions (default 1,000,000) through one process, cycling
//! the capture pool, and fails unless memory stays flat and every
//! replay yields exactly the expected verdicts — zero lost, zero
//! duplicated.

use std::time::Instant;
use wm_bench::throughput::{current_rss_bytes, peak_rss_bytes, REQUIRED_METRICS};
use wm_bench::{capture_pool, graph, publish, smoke, train_attack_for, TraceTally, TIME_SCALE};
use wm_core::online::{
    decode_sessions_sharded, replay_session, CapturedPacket, OnlineConfig, OnlineDecoder,
};
use wm_core::IntervalClassifier;
use wm_dataset::OperationalConditions;
use wm_obs::{SeriesPoint, SeriesRing};
use wm_story::StoryGraph;
use wm_telemetry::{DeltaTracker, Registry, Snapshot};

/// RSS growth beyond this, while cycling a fixed capture pool, means a
/// leak: steady-state decoding must not accumulate per-session memory.
const SOAK_RSS_BUDGET: u64 = 64 * 1024 * 1024;

fn main() {
    let smoke = smoke();
    let soak_sessions = soak_request();

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[80_001, 80_002, 80_003]);
    let classifier = attack.classifier().clone();
    let cfg = OnlineConfig::scaled(TIME_SCALE);

    println!("=== E11: sharded decode throughput ===\n");

    // ---- capture pool (simulator side, work-stealing dataset engine
    // upstream of this; here each viewer runs once) -------------------
    let pool_n: u64 = if smoke { 4 } else { 24 };
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let gen_start = Instant::now();
    let pool = capture_pool(
        &graph,
        cond,
        81_000..81_000 + pool_n,
        &mut telemetry,
        &mut tally,
    );
    let gen_secs = gen_start.elapsed().as_secs_f64();
    println!(
        "  capture pool: {pool_n} sessions simulated in {gen_secs:.2}s ({:.1}/s)",
        pool_n as f64 / gen_secs
    );

    // ---- fleet decode ------------------------------------------------
    let batch_n: usize = if smoke { 16 } else { 256 };
    let batch: Vec<Vec<CapturedPacket>> =
        (0..batch_n).map(|i| pool[i % pool.len()].clone()).collect();
    let batch_bytes: u64 = batch
        .iter()
        .flat_map(|s| s.iter())
        .map(|(_, frame)| frame.len() as u64)
        .sum();

    let t = Instant::now();
    let sharded = decode_sessions_sharded(&classifier, &graph, &cfg, &batch, 0);
    let sharded_secs = t.elapsed().as_secs_f64();

    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let records: u64 = sharded.iter().map(|s| s.stats.records).sum();
    let verdicts: u64 = sharded.iter().map(|s| s.verdicts.len() as u64).sum();
    let sessions_per_sec = batch_n as f64 / sharded_secs;
    let peak_rss = peak_rss_bytes().unwrap_or(0);

    println!("  fleet: {batch_n} sessions, {records} records, {batch_bytes} capture bytes");
    println!(
        "  work-stealing ({workers} workers): {sessions_per_sec:>10.1} sessions/s  \
         {:>12.0} records/s  {:>12.0} bytes/s",
        records as f64 / sharded_secs,
        batch_bytes as f64 / sharded_secs,
    );
    println!(
        "  verdicts: {verdicts}   peak RSS: {:.1} MiB",
        peak_rss as f64 / (1024.0 * 1024.0)
    );

    // ---- observability-plane overhead -------------------------------
    // The same serial replay, bare vs with a telemetry registry
    // attached and a streaming `DeltaTracker` drained into a
    // `SeriesRing` per session — the exact per-shard work the fleet
    // observer adds. Per session: one untimed warmup replay (so
    // neither timed arm inherits the other's cache warmth), then both
    // arms timed back-to-back in alternating order, and the overhead
    // reported is the *median* of the per-session paired ratios — a
    // throttling or scheduling spike lands inside one pair and the
    // median ignores it, where a totals ratio would absorb it. The
    // acceptance bar is ≤ 5% (ratio ≤ 1.05).
    let mut obs_secs = f64::INFINITY;
    let mut ratios: Vec<f64> = Vec::new();
    let mut series_points = 0usize;
    for _rep in 0..3 {
        let registry = Registry::new();
        let mut tracker = DeltaTracker::new();
        let mut series = SeriesRing::new(batch_n);
        let mut obs_t = 0.0f64;
        for (i, s) in batch.iter().enumerate() {
            let warm_n = replay_observed(&classifier, &graph, &cfg, s, None);
            let time_bare = || {
                let t = Instant::now();
                let n = replay_observed(&classifier, &graph, &cfg, s, None);
                (t.elapsed().as_secs_f64(), n)
            };
            let mut time_obs = || {
                let t = Instant::now();
                let n = replay_observed(&classifier, &graph, &cfg, s, Some(&registry));
                let delta = tracker.take(&registry);
                (t.elapsed().as_secs_f64(), n, delta)
            };
            let ((bare_s, bare_n), (obs_s, obs_n, delta)) = if i % 2 == 0 {
                let b = time_bare();
                let o = time_obs();
                (b, o)
            } else {
                let o = time_obs();
                let b = time_bare();
                (b, o)
            };
            series.push(SeriesPoint {
                t_us: i as u64,
                delta,
            });
            obs_t += obs_s;
            assert_eq!(
                (warm_n, bare_n),
                (obs_n, obs_n),
                "observation must never change what the attacker decodes"
            );
            ratios.push(obs_s / bare_s.max(f64::MIN_POSITIVE));
        }
        obs_secs = obs_secs.min(obs_t);
        series_points = series.len();
    }
    ratios.sort_by(f64::total_cmp);
    let obs_overhead_ratio = ratios[ratios.len() / 2];
    let sessions_per_sec_obs = batch_n as f64 / obs_secs;
    println!(
        "  metrics plane: {sessions_per_sec_obs:>10.1} sessions/s observed  \
         (overhead {:.1}%, {} series points)",
        100.0 * (obs_overhead_ratio - 1.0),
        series_points,
    );

    let mut metrics: Vec<(&str, f64)> = vec![
        ("sessions_per_sec", sessions_per_sec),
        ("sessions_per_sec_obs", sessions_per_sec_obs),
        ("obs_overhead_ratio", obs_overhead_ratio),
        ("records_per_sec", records as f64 / sharded_secs),
        ("bytes_per_sec", batch_bytes as f64 / sharded_secs),
        ("peak_rss_bytes", peak_rss as f64),
        ("gen_sessions_per_sec", pool_n as f64 / gen_secs),
        ("fleet_sessions", batch_n as f64),
        ("verdicts_total", verdicts as f64),
    ];

    // ---- optional soak ----------------------------------------------
    let soak_result = soak_sessions.map(|n| soak(&classifier, &graph, &cfg, &pool, n));
    if let Some((n, growth)) = soak_result {
        metrics.push(("soak_sessions", n as f64));
        metrics.push(("soak_rss_growth_bytes", growth as f64));
    }

    publish("throughput", &metrics, REQUIRED_METRICS, &telemetry, &tally);
}

/// Replay one capture serially, optionally with a telemetry registry
/// attached — the measurement arm of the metrics-plane overhead
/// comparison. Returns the verdict count so both arms can be asserted
/// identical.
fn replay_observed(
    classifier: &IntervalClassifier,
    graph: &std::sync::Arc<StoryGraph>,
    cfg: &OnlineConfig,
    packets: &[CapturedPacket],
    registry: Option<&Registry>,
) -> u64 {
    let mut dec = OnlineDecoder::new(classifier.clone(), graph.clone(), cfg.clone());
    if let Some(reg) = registry {
        dec.attach_telemetry(reg);
    }
    let mut verdicts = 0u64;
    for (time, frame) in packets {
        verdicts += dec.push_packet(*time, frame).len() as u64;
    }
    verdicts + dec.finish().len() as u64
}

/// Replay `n` sessions through one process, cycling the capture pool.
/// Panics unless memory stays flat (steady-state RSS growth under
/// [`SOAK_RSS_BUDGET`]) and every replay yields exactly the verdicts
/// its first decode produced — zero lost, zero duplicated.
fn soak(
    classifier: &IntervalClassifier,
    graph: &std::sync::Arc<StoryGraph>,
    cfg: &OnlineConfig,
    pool: &[Vec<CapturedPacket>],
    n: u64,
) -> (u64, u64) {
    println!("\n  soak: replaying {n} sessions through one process…");
    let expected: Vec<usize> = pool
        .iter()
        .map(|s| replay_session(classifier, graph, cfg, s).verdicts.len())
        .collect();
    let start = Instant::now();
    let mut baseline_rss: Option<u64> = None;
    let mut max_rss: u64 = 0;
    for i in 0..n {
        let idx = (i % pool.len() as u64) as usize;
        let got = replay_session(classifier, graph, cfg, &pool[idx]);
        assert_eq!(
            got.verdicts.len(),
            expected[idx],
            "session {i} (pool {idx}) lost or duplicated verdicts"
        );
        // Sample RSS on a cadence; the baseline is taken after warmup
        // so allocator steady state, not cold-start growth, is judged.
        if i % 10_000 == 0 || i + 1 == n {
            let rss = current_rss_bytes().unwrap_or(0);
            max_rss = max_rss.max(rss);
            if baseline_rss.is_none() && i >= (n / 20).min(50_000) {
                baseline_rss = Some(rss);
            }
        }
        if i > 0 && i % 100_000 == 0 {
            let rate = i as f64 / start.elapsed().as_secs_f64();
            println!(
                "    {i:>9} sessions  {rate:>9.0}/s  RSS {:.1} MiB",
                current_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
            );
        }
    }
    let growth = max_rss.saturating_sub(baseline_rss.unwrap_or(max_rss));
    let rate = n as f64 / start.elapsed().as_secs_f64();
    println!(
        "  soak done: {n} sessions at {rate:.0}/s, steady-state RSS growth {:.1} MiB",
        growth as f64 / (1024.0 * 1024.0)
    );
    assert!(
        growth < SOAK_RSS_BUDGET,
        "soak RSS grew {growth} bytes (budget {SOAK_RSS_BUDGET}): memory is not flat"
    );
    (n, growth)
}

/// `--soak [N]`; bare `--soak` means 1M.
fn soak_request() -> Option<u64> {
    let mut args = std::env::args().skip_while(|a| a != "--soak");
    args.next()?;
    Some(
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1_000_000),
    )
}
