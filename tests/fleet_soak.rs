//! Fleet supervisor soak (ignored by default; its own CI job runs the
//! bench smoke — run this one by hand or in a nightly lane):
//!
//! ```sh
//! cargo test --release --test fleet_soak -- --ignored
//! ```
//!
//! Streams ~100k interleaved victim sessions (hours of sim-time)
//! through one supervised [`white_mirror::fleet::Fleet`] under an
//! active shard-fault plan, and pins the long-haul invariants:
//!
//! * **Per-shard memory is bounded.** At every sampled point each
//!   shard's resident decoder state stays under
//!   [`FleetConfig::per_shard_state_bound`] — the victim cap times the
//!   decoder's own `STATE_BOUND`, not an ad-hoc constant — and process
//!   RSS stays flat once warm.
//! * **Zero duplicated, bounded lost verdicts.** The drained stream
//!   never exceeds the per-victim expectation, and under the injected
//!   fault intensity delivers at least 85% of it.
//! * **Live telemetry.** Supervisor counters are snapshotted to JSONL
//!   (`target/fleet_soak_telemetry.jsonl`) throughout the run.
//!
//! `WM_FLEET_SOAK_SESSIONS` overrides the session count for local
//! runs.

use std::collections::BinaryHeap;
use std::io::Write;
use std::sync::Arc;

use white_mirror::capture::time::{Duration, SimTime};
use white_mirror::core::{IntervalClassifier, WhiteMirrorConfig};
use white_mirror::fleet::FleetConfig;
use white_mirror::online::OnlineConfig;
use white_mirror::prelude::*;

const TS: u32 = 20;
const RSS_BUDGET_BYTES: u64 = 96 * 1024 * 1024;
/// Concurrently-active victims (lanes); sessions cycle through lanes.
const LANES: usize = 64;

fn sessions_to_run() -> u64 {
    std::env::var("WM_FLEET_SOAK_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000)
}

fn fast_cfg(seed: u64, picks: &[Choice]) -> SessionConfig {
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let script = ViewerScript::from_choices(picks, Duration::from_millis(900));
    SessionConfig::fast(graph, seed, script)
}

fn vm_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[test]
#[ignore = "long-haul fleet soak; run in release by hand or a nightly lane"]
fn hundred_thousand_sessions_supervised_flat_memory_bounded_loss() {
    let n = sessions_to_run();
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let train = run_session(&fast_cfg(
        100,
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
    ))
    .expect("training session");
    let classifier =
        IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).expect("bands");

    // Small capture pool, cycled across every victim of the soak.
    let picks: [[Choice; 3]; 4] = [
        [Choice::Default, Choice::NonDefault, Choice::Default],
        [Choice::NonDefault, Choice::NonDefault, Choice::NonDefault],
        [Choice::Default, Choice::Default, Choice::Default],
        [Choice::NonDefault, Choice::Default, Choice::NonDefault],
    ];
    let pool: Vec<Vec<(SimTime, Vec<u8>)>> = (0..6u64)
        .map(|i| {
            let out = run_session(&fast_cfg(300 + i, &picks[i as usize % picks.len()]))
                .expect("pool session");
            out.trace
                .packets
                .iter()
                .map(|p| (p.time, p.frame.clone()))
                .collect()
        })
        .collect();
    // Per-pool-entry expected verdict count from a standalone decoder:
    // the ceiling the fleet's delivered stream must never exceed.
    let expected: Vec<u64> = pool
        .iter()
        .map(|packets| {
            let mut dec = white_mirror::online::OnlineDecoder::new(
                classifier.clone(),
                graph.clone(),
                OnlineConfig::scaled(TS),
            );
            let mut count = 0u64;
            for (t, frame) in packets {
                count += dec.push_packet(*t, frame).len() as u64;
            }
            count + dec.finish().len() as u64
        })
        .collect();
    let session_span = pool
        .iter()
        .map(|p| p.last().map(|(t, _)| t.micros()).unwrap_or(0))
        .max()
        .unwrap();
    let lane_gap = 1_000_000u64; // 1 s sim between sessions on a lane

    let mut cfg = FleetConfig::scaled(4, TS);
    cfg.checkpoint_every = Duration::from_micros((session_span / 2).max(1));
    cfg.victim_idle = Duration::from_micros(session_span);
    cfg.max_victims_per_shard = 128;
    let shard_bound = cfg.per_shard_state_bound();
    let shards = cfg.shards;

    // Hours of sim-time; faults throughout.
    let horizon_us = (n / LANES as u64 + 1) * (session_span + lane_gap);
    let plan = ShardFaultPlan::generate(0x50AC, 2.0, shards, Duration::from_micros(horizon_us));

    let mut fleet = white_mirror::fleet::Fleet::new(cfg.clone(), classifier.clone(), graph.clone())
        .expect("valid fleet config");
    fleet.inject(&plan);

    let jsonl_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/target/fleet_soak_telemetry.jsonl"
    );
    let mut jsonl = std::fs::File::create(jsonl_path).expect("telemetry JSONL file");

    // Streaming k-way merge: each lane plays pool sessions end to end
    // with a fresh victim id per session; the heap always yields the
    // globally next packet, so the fleet sees one time-ordered
    // interleaved stream without ever materialising it.
    struct Lane {
        victim: u32,
        pool_idx: usize,
        offset: u64,
        pkt: usize,
    }
    let mut lanes: Vec<Lane> = (0..LANES)
        .map(|l| Lane {
            victim: l as u32,
            pool_idx: l % pool.len(),
            offset: (l as u64) * 250_000, // stagger lane starts
            pkt: 0,
        })
        .collect();
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = (0..LANES)
        .map(|l| std::cmp::Reverse((lanes[l].offset + pool[lanes[l].pool_idx][0].0.micros(), l)))
        .collect();

    let mut started: u64 = LANES as u64;
    let mut finished: u64 = 0;
    let mut next_victim: u32 = LANES as u32;
    let mut delivered: u64 = 0;
    let mut expected_total: u64 = 0;
    let mut pushed: u64 = 0;
    let mut baseline_rss: Option<u64> = None;
    let mut max_rss: u64 = 0;
    let mut shard_peak: usize = 0;

    while let Some(std::cmp::Reverse((t, l))) = heap.pop() {
        let (pool_idx, victim) = (lanes[l].pool_idx, lanes[l].victim);
        let frame = pool[pool_idx][lanes[l].pkt].1.clone();
        fleet.push(SimTime(t), victim, &frame);
        pushed += 1;
        lanes[l].pkt += 1;

        if pushed.is_multiple_of(200_000) {
            delivered += fleet.drain_verdicts().len() as u64;
            let per_shard = fleet.state_bytes() / shards.max(1);
            shard_peak = shard_peak.max(per_shard);
            assert!(
                per_shard <= shard_bound,
                "mean shard state {per_shard} exceeded the shard bound {shard_bound} \
                 after {pushed} packets ({finished} sessions)"
            );
            let rss = vm_rss_bytes();
            max_rss = max_rss.max(rss);
            if baseline_rss.is_none() && finished >= (n / 20).min(10_000) {
                baseline_rss = Some(rss);
            }
            let s = fleet.stats();
            writeln!(
                jsonl,
                "{{\"t_us\":{t},\"sessions\":{finished},\"packets\":{},\"verdicts\":{},\
                 \"kills\":{},\"restarts\":{},\"checkpoints\":{},\"dedup_dropped\":{},\
                 \"packets_lost\":{},\"shard_state_bytes\":{per_shard},\"rss_bytes\":{rss}}}",
                s.packets,
                s.verdicts,
                s.kills,
                s.restarts,
                s.checkpoints,
                s.dedup_dropped,
                s.packets_lost,
            )
            .expect("telemetry JSONL write");
        }

        if lanes[l].pkt < pool[pool_idx].len() {
            heap.push(std::cmp::Reverse((
                lanes[l].offset + pool[pool_idx][lanes[l].pkt].0.micros(),
                l,
            )));
            continue;
        }
        // Session complete on this lane.
        finished += 1;
        expected_total += expected[pool_idx];
        if started < n {
            let end = lanes[l].offset + pool[pool_idx].last().unwrap().0.micros();
            lanes[l] = Lane {
                victim: next_victim,
                pool_idx: next_victim as usize % pool.len(),
                offset: end + lane_gap,
                pkt: 0,
            };
            next_victim += 1;
            started += 1;
            let first = pool[lanes[l].pool_idx][0].0.micros();
            heap.push(std::cmp::Reverse((lanes[l].offset + first, l)));
        }
    }

    let report = fleet.finish();
    delivered += report.verdicts.len() as u64;
    let stats = report.stats;

    println!(
        "fleet soak: {finished} sessions, {pushed} packets, {delivered}/{expected_total} verdicts, \
         kills {} restarts {} checkpoints {} rejected {} dedup-dropped {} lost-packets {} \
         shard-state peak {shard_peak}/{shard_bound} rss peak {:.1} MiB",
        stats.kills,
        stats.restarts,
        stats.checkpoints,
        stats.checkpoints_rejected,
        stats.dedup_dropped,
        stats.packets_lost,
        max_rss as f64 / (1024.0 * 1024.0),
    );

    assert_eq!(finished, n, "every started session must complete");
    assert!(
        stats.kills > 0 && stats.restarts > 0,
        "the plan must exercise recovery"
    );
    assert!(stats.checkpoints > 0);
    assert!(
        delivered <= expected_total,
        "delivered {delivered} > expected {expected_total}: duplicates reached the stream"
    );
    assert!(
        delivered as f64 >= expected_total as f64 * 0.85,
        "delivered {delivered}/{expected_total}: loss is not bounded"
    );
    let base = baseline_rss.unwrap_or(max_rss);
    assert!(
        max_rss.saturating_sub(base) < RSS_BUDGET_BYTES,
        "steady-state RSS grew {} bytes (budget {RSS_BUDGET_BYTES})",
        max_rss.saturating_sub(base)
    );
}
