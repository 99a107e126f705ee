//! E10: online decoder accuracy vs capture-impairment intensity.
//!
//! Sweeps `wm-chaos` *capture-side* impairments (reordering, snaplen
//! truncation, duplication) of growing intensity over victim sessions
//! and feeds the impaired tap stream to the streaming decoder
//! ([`wm_core::online::OnlineDecoder`]) packet by packet — including one
//! checkpoint/kill/resume cycle per session, so every point on the
//! curve also exercises crash recovery. Reported per intensity: choice
//! accuracy, mean verdict confidence, reported loss windows, and
//! late/dropped events. The headline claim: accuracy degrades
//! gracefully with impairment, confidence falls *first*, and no
//! intensity panics or hangs the decoder.
//!
//! ```sh
//! cargo run --release -p wm-bench --bin online_robustness [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the matrix for CI.

use wm_bench::{
    graph, publish, run_viewer, sweep_grid, sweep_metric_names, train_attack_for, viewer,
    ConfidenceMean, TraceTally, TIME_SCALE,
};
use wm_capture::time::SimTime;
use wm_chaos::{impair_capture, kill_index, CaptureImpairment, TapPacket};
use wm_core::online::{OnlineConfig, OnlineDecoder, OnlineVerdict};
use wm_core::{choice_accuracy, ChoiceAccuracy, DecodedChoice};
use wm_dataset::OperationalConditions;
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Registry, Snapshot};

/// The per-intensity columns of `BENCH_online_robustness.json`.
const STEMS: [&str; 5] = [
    "accuracy",
    "confidence",
    "loss_windows",
    "late_events",
    "resumes",
];

fn main() {
    let (intensities, victims) = sweep_grid();

    let graph = graph();
    let cond = OperationalConditions::grid()[0];
    let (attack, _) = train_attack_for(&graph, &cond, &[70_001, 70_002, 70_003]);
    let classifier = attack.classifier().clone();

    println!("=== E10: online decoder vs capture impairment ({victims} victims/point) ===\n");
    println!(
        "{:>9} {:>10} {:>12} {:>8} {:>10} {:>8} {:>8}",
        "intensity", "accuracy", "confidence", "losses", "late-evts", "gaps", "resumes"
    );

    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for &intensity in intensities {
        let mut acc = ChoiceAccuracy::default();
        let mut confidence = ConfidenceMean::default();
        let mut losses = 0u64;
        let mut late = 0u64;
        let mut gaps = 0u64;
        let mut resumes = 0u64;
        for v in 0..victims {
            let seed = 72_000 + v;
            let out = run_viewer(&graph, &viewer(v as u32, seed, cond));
            let clean: Vec<TapPacket> = out
                .trace
                .packets
                .iter()
                .map(|p| (p.time.micros(), p.frame.clone()))
                .collect();
            let (packets, _) = if intensity > 0.0 {
                impair_capture(seed, &CaptureImpairment::at_intensity(intensity), &clean)
            } else {
                (clean, Default::default())
            };

            // Stream the capture through the decoder, killing the
            // process at a seeded packet index and resuming from the
            // latest checkpoint with full replay of the tail.
            let registry = Registry::new();
            let trace = TraceHandle::new();
            let session_span = trace.span_start_at(0, "online.session", SpanId::NONE);
            let mut dec = OnlineDecoder::new(
                classifier.clone(),
                graph.clone(),
                OnlineConfig::scaled(TIME_SCALE),
            );
            dec.attach_telemetry(&registry);
            dec.attach_trace(trace.clone(), session_span);
            let kill = kill_index(seed, packets.len());
            let mut verdicts: Vec<OnlineVerdict> = Vec::new();
            let mut checkpoint: Option<(usize, usize, Vec<u8>)> = None;
            for (i, (t, frame)) in packets.iter().enumerate().take(kill) {
                verdicts.extend(dec.push_packet(SimTime(*t), frame));
                if dec.checkpoint_due() {
                    checkpoint = Some((i + 1, verdicts.len(), dec.checkpoint()));
                }
            }
            let mut dec = match checkpoint {
                Some((fed, delivered, blob)) => {
                    drop(dec); // the simulated crash
                    verdicts.truncate(delivered);
                    let mut resumed = OnlineDecoder::resume_from_checkpoint(&blob, graph.clone())
                        .expect("checkpoint resumes");
                    resumed.attach_telemetry(&registry);
                    resumed.attach_trace(trace.clone(), session_span);
                    for (t, frame) in &packets[fed..] {
                        verdicts.extend(resumed.push_packet(SimTime(*t), frame));
                    }
                    resumed
                }
                None => {
                    // Too few records before the kill for a checkpoint:
                    // keep the original decoder and just finish the tail.
                    for (t, frame) in &packets[kill..] {
                        verdicts.extend(dec.push_packet(SimTime(*t), frame));
                    }
                    dec
                }
            };
            verdicts.extend(dec.finish());
            trace.span_end_at(dec.watermark().micros(), session_span, "online.session");

            let choices: Vec<DecodedChoice> = verdicts.iter().map(|v| v.choice).collect();
            acc.merge(&choice_accuracy(&choices, &out.decisions));
            confidence.add(&choices);
            let stats = dec.stats();
            losses += dec.loss_windows().len() as u64;
            late += stats.late_events;
            gaps += stats.gaps;
            resumes += stats.resumes;
            telemetry.merge(&registry.snapshot());
            tally.observe(&trace.snapshot());
        }
        let confidence = confidence.mean();
        println!(
            "{:>9.2} {:>9.1}% {:>12.3} {:>8} {:>10} {:>8} {:>8}",
            intensity,
            100.0 * acc.accuracy(),
            confidence,
            losses,
            late,
            gaps,
            resumes
        );
        let values = [
            acc.accuracy(),
            confidence,
            losses as f64,
            late as f64,
            resumes as f64,
        ];
        metrics.extend(
            sweep_metric_names(&[intensity], &STEMS)
                .into_iter()
                .zip(values),
        );
    }

    let required = sweep_metric_names(intensities, &STEMS);
    publish("online_robustness", &metrics, &required, &telemetry, &tally);
}
