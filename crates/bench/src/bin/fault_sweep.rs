//! E9: attack robustness vs fault intensity.
//!
//! Sweeps `wm-chaos` fault plans of growing intensity over victim
//! sessions and measures what the eavesdropper retains: choice
//! accuracy, mean per-choice confidence, and the recovery machinery's
//! footprint (reconnects, tap-blind frames, failed sessions). The
//! headline claim this harness checks is *graceful degradation*:
//! confidence should fall before correctness does.
//!
//! ```sh
//! cargo run --release -p wm-bench --bin fault_sweep [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the matrix for CI.

use wm_bench::{
    graph, publish, sweep_grid, sweep_metric_names, train_attack_for, viewer, viewer_cfg,
    ConfidenceMean, TraceTally,
};
use wm_chaos::FaultPlan;
use wm_core::ChoiceAccuracy;
use wm_dataset::OperationalConditions;
use wm_net::time::Duration;
use wm_sim::{run_session, run_session_lossy};
use wm_telemetry::Snapshot;

/// The per-intensity columns of `BENCH_fault_sweep.json`.
const STEMS: [&str; 4] = ["accuracy", "confidence", "failed", "reconnects"];

fn main() {
    let (intensities, victims) = sweep_grid();

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[70_001, 70_002, 70_003]);

    // Fault horizon: how long a clean victim session actually runs, so
    // generated faults land mid-stream at every intensity.
    let probe = viewer(u32::MAX, 70_100, cond);
    let probe_out = run_session(&viewer_cfg(&graph, &probe)).expect("probe session");
    let horizon = Duration(probe_out.stats.duration.0);

    println!("=== E9: accuracy vs fault intensity ({victims} victims/point) ===\n");
    println!(
        "{:>9} {:>10} {:>12} {:>11} {:>10} {:>8}",
        "intensity", "accuracy", "confidence", "reconnects", "tap-drops", "failed"
    );

    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for &intensity in intensities {
        let mut acc = ChoiceAccuracy::default();
        let mut confidence = ConfidenceMean::default();
        let mut reconnects = 0u64;
        let mut tap_drops = 0u64;
        let mut failed = 0u64;
        for v in 0..victims {
            let seed = 71_000 + v;
            let mut cfg = viewer_cfg(&graph, &viewer(v as u32, seed, cond));
            cfg.chaos = if intensity > 0.0 {
                FaultPlan::generate(seed, intensity, horizon)
            } else {
                FaultPlan::none()
            };
            let (out, err) = run_session_lossy(&cfg);
            telemetry.merge(&out.telemetry);
            tally.observe(&out.trace_events);
            reconnects += out.stats.reconnects;
            tap_drops += out.stats.tap_frames_dropped;
            if err.is_some() {
                // The partial capture is still decodable, but the truth
                // is incomplete; score only completed sessions.
                failed += 1;
                continue;
            }
            let (decoded, a) = attack.evaluate(&out.trace, &graph, &out.decisions);
            confidence.add(&decoded.choices);
            acc.merge(&a);
        }
        let confidence = confidence.mean();
        println!(
            "{:>9.2} {:>9.1}% {:>12.3} {:>11} {:>10} {:>8}",
            intensity,
            100.0 * acc.accuracy(),
            confidence,
            reconnects,
            tap_drops,
            failed
        );
        let values = [acc.accuracy(), confidence, failed as f64, reconnects as f64];
        metrics.extend(
            sweep_metric_names(&[intensity], &STEMS)
                .into_iter()
                .zip(values),
        );
    }

    let required = sweep_metric_names(intensities, &STEMS);
    publish("fault_sweep", &metrics, &required, &telemetry, &tally);
}
