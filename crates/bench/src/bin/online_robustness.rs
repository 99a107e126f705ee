//! E10: online decoder accuracy vs capture-impairment intensity.
//!
//! Sweeps `wm-chaos` *capture-side* impairments (reordering, snaplen
//! truncation, duplication) of growing intensity over victim sessions
//! and feeds the impaired tap stream to the streaming decoder
//! ([`wm_online::OnlineDecoder`]) packet by packet — including one
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
//! `--smoke` (or `WM_ONLINE_ROBUSTNESS_SMOKE=1`) shrinks the matrix
//! for CI.

use wm_bench::{
    bench_json, graph, sample_behavior, train_attack_for, validate_bench_json, viewer_cfg,
    write_bench_json, TraceTally, TIME_SCALE,
};
use wm_capture::time::SimTime;
use wm_chaos::{impair_capture, kill_index, CaptureImpairment, TapPacket};
use wm_core::{choice_accuracy, ChoiceAccuracy, DecodedChoice};
use wm_dataset::{OperationalConditions, ViewerSpec};
use wm_online::{OnlineConfig, OnlineDecoder, OnlineVerdict};
use wm_sim::run_session;
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Registry, Snapshot};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("WM_ONLINE_ROBUSTNESS_SMOKE").is_ok_and(|v| v == "1");
    let intensities: &[f64] = if smoke {
        &[0.0, 1.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0, 4.0]
    };
    let victims: u64 = if smoke { 2 } else { 6 };

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
        let mut conf_sum = 0.0f64;
        let mut conf_n = 0u64;
        let mut losses = 0u64;
        let mut late = 0u64;
        let mut gaps = 0u64;
        let mut resumes = 0u64;
        for v in 0..victims {
            let seed = 72_000 + v;
            let viewer = ViewerSpec {
                id: v as u32,
                seed,
                behavior: sample_behavior(seed),
                operational: cond,
            };
            let out = run_session(&viewer_cfg(&graph, &viewer)).expect("victim session");
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
            if !choices.is_empty() {
                conf_sum +=
                    choices.iter().map(|c| c.confidence).sum::<f64>() / choices.len() as f64;
                conf_n += 1;
            }
            let stats = dec.stats();
            losses += dec.loss_windows().len() as u64;
            late += stats.late_events;
            gaps += stats.gaps;
            resumes += stats.resumes;
            telemetry.merge(&registry.snapshot());
            tally.observe(&trace.snapshot());
        }
        let confidence = if conf_n > 0 {
            conf_sum / conf_n as f64
        } else {
            0.0
        };
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
        let key = format!("{intensity:.2}").replace('.', "_");
        metrics.push((format!("accuracy_i{key}"), acc.accuracy()));
        metrics.push((format!("confidence_i{key}"), confidence));
        metrics.push((format!("loss_windows_i{key}"), losses as f64));
        metrics.push((format!("late_events_i{key}"), late as f64));
        metrics.push((format!("resumes_i{key}"), resumes as f64));
    }

    // Required keys are the full per-intensity grid this run swept, so
    // a dropped column fails the schema gate before CI ever sees it.
    let required: Vec<String> = intensities
        .iter()
        .flat_map(|intensity| {
            let key = format!("{intensity:.2}").replace('.', "_");
            [
                "accuracy",
                "confidence",
                "loss_windows",
                "late_events",
                "resumes",
            ]
            .map(|stem| format!("{stem}_i{key}"))
        })
        .collect();
    let borrowed: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let json = bench_json("online_robustness", &borrowed, &telemetry, &tally);
    if let Err(e) = validate_bench_json(&json, "online_robustness", &required) {
        eprintln!("BENCH_online_robustness.json failed schema validation: {e}");
        std::process::exit(1);
    }
    write_bench_json("online_robustness", &borrowed, &telemetry, &tally);
    println!("  BENCH_online_robustness.json schema: ok");
}
