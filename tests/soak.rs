//! Long-haul decoder soak (ignored by default; its own CI job runs it
//! in release):
//!
//! ```sh
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! Replays ~50k sessions through one process, cycling a small pool of
//! simulated captures, and pins the throughput engine's two long-haul
//! invariants:
//!
//! * **Memory is bounded by constant budgets, not by session count.**
//!   `OnlineDecoder::state_bytes()` never exceeds the decoder's
//!   [`STATE_BOUND`] at any sampled point, and process RSS stays flat
//!   once warm (growth under a fixed budget while the workload
//!   repeats).
//! * **Zero lost, zero duplicated verdicts.** Every replay yields a
//!   contiguous 0-based verdict index stream of exactly the length its
//!   first decode produced.
//!
//! `WM_SOAK_SESSIONS` overrides the session count for local runs.

use std::sync::Arc;
use white_mirror::capture::time::{Duration, SimTime};
use white_mirror::core::{IntervalClassifier, WhiteMirrorConfig};
use white_mirror::online::{OnlineConfig, OnlineDecoder, STATE_BOUND};
use white_mirror::prelude::*;

/// Steady-state RSS growth beyond this means a leak.
const RSS_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

fn sessions_to_run() -> u64 {
    std::env::var("WM_SOAK_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000)
}

fn fast_cfg(seed: u64) -> SessionConfig {
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let script = ViewerScript::from_choices(
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        Duration::from_millis(900),
    );
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
#[ignore = "long-haul soak; run in release via its own CI job"]
fn fifty_thousand_sessions_flat_memory_exact_verdicts() {
    let n = sessions_to_run();
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let train = run_session(&fast_cfg(100)).expect("training session");
    let classifier =
        IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).expect("bands");
    let cfg = OnlineConfig::scaled(20);
    // The one bound this suite, the kill/resume tests and the fleet
    // supervisor all budget against.
    let bound = STATE_BOUND;

    // Small capture pool, cycled for the whole soak.
    let pool: Vec<Vec<(SimTime, Vec<u8>)>> = (0..8u64)
        .map(|i| {
            let out = run_session(&fast_cfg(60_000 + i)).expect("victim session");
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros()), p.frame.clone()))
                .collect()
        })
        .collect();

    // One replay, checking verdict-stream integrity and the state
    // bound throughout; returns the verdict count.
    let replay = |packets: &[(SimTime, Vec<u8>)]| -> u64 {
        let mut dec = OnlineDecoder::new(classifier.clone(), graph.clone(), cfg.clone());
        let mut next_index = 0u64;
        for (i, (t, frame)) in packets.iter().enumerate() {
            for v in dec.push_packet(*t, frame) {
                assert_eq!(v.index, next_index, "verdict stream must be contiguous");
                next_index += 1;
            }
            if i % 32 == 0 {
                let state = dec.state_bytes();
                assert!(
                    state <= bound,
                    "state_bytes {state} exceeded the state bound {bound}"
                );
            }
        }
        for v in dec.finish() {
            assert_eq!(v.index, next_index, "verdict stream must be contiguous");
            next_index += 1;
        }
        assert!(dec.state_bytes() <= bound);
        next_index
    };

    let expected: Vec<u64> = pool.iter().map(|p| replay(p)).collect();
    assert!(
        expected.iter().any(|&c| c > 0),
        "soak fixture decodes at least one verdict"
    );

    let mut baseline_rss = 0u64;
    let mut max_rss = 0u64;
    for i in 0..n {
        let idx = (i % pool.len() as u64) as usize;
        let got = replay(&pool[idx]);
        assert_eq!(
            got, expected[idx],
            "session {i} (pool {idx}) lost or duplicated verdicts"
        );
        if i % 1_000 == 0 || i + 1 == n {
            let rss = vm_rss_bytes();
            max_rss = max_rss.max(rss);
            // Judge steady state, not cold-start growth.
            if baseline_rss == 0 && i >= (n / 20).min(2_000) {
                baseline_rss = rss;
            }
        }
    }
    let growth = max_rss.saturating_sub(if baseline_rss == 0 {
        max_rss
    } else {
        baseline_rss
    });
    assert!(
        growth < RSS_BUDGET_BYTES,
        "RSS grew {growth} bytes over {n} sessions (budget {RSS_BUDGET_BYTES}): memory is not flat"
    );
}
