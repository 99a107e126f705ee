//! Verdict timing: the packet at which each streaming verdict comes out.
//!
//! The streaming decoder skips its decode step on a packet that
//! finalizes no event and does not carry the watermark past the wake
//! of its last undecided step. A decoder resumed from a checkpoint
//! holds no wake, so one resumed before every packet steps on every
//! packet: it is an exact oracle for when each verdict is due. This
//! test decodes a bandersnatch slice both ways and requires the same
//! `(packet index, verdict)` pairs, `finish` counting as one index past
//! the last packet. A skip that sleeps past a verdict's packet emits it
//! late and fails here, even where the verdict list itself is intact.
//!
//! The slice is a clean capture, the decode digest's chaos capture (a
//! tap gap and a duplicated state post) and a capture run through
//! `impair_capture` (reordering, snaplen clipping, duplicates).

use std::sync::Arc;
use white_mirror::capture::CapturedPacket;
use white_mirror::chaos::{impair_capture, CaptureImpairment};
use white_mirror::net::time::{Duration, SimTime};
use white_mirror::prelude::*;

const TIME_SCALE: u32 = 40;

fn session(graph: &Arc<StoryGraph>, seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::fast(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
    cfg.player.time_scale = TIME_SCALE;
    cfg
}

/// The slice, each capture named for failure messages.
fn slice(graph: &Arc<StoryGraph>) -> Vec<(&'static str, Vec<CapturedPacket>)> {
    let clean = run_session(&session(graph, 17_103)).expect("clean session completes");

    let mut chaos = session(graph, 17_102);
    let mut plan = FaultPlan::none();
    plan.push(
        SimTime(3_000_000),
        FaultKind::TapGap {
            duration: Duration::from_millis(400),
        },
    )
    .push(SimTime(6_000_000), FaultKind::DuplicateStatePost);
    chaos.chaos = plan;
    let chaos = run_session(&chaos).expect("chaos session completes");
    assert!(chaos.stats.tap_frames_dropped > 0, "tap gap was blind");

    let packets: Vec<(u64, Vec<u8>)> = clean
        .trace
        .packets
        .iter()
        .map(|p| (p.time.micros(), p.frame.clone()))
        .collect();
    let (impaired, stats) = impair_capture(17, &CaptureImpairment::at_intensity(1.0), &packets);
    assert!(stats.reordered > 0 && stats.duplicated > 0, "{stats:?}");
    let impaired = impaired
        .into_iter()
        .map(|(t, frame)| CapturedPacket {
            time: SimTime(t),
            frame,
        })
        .collect();

    vec![
        ("clean", clean.trace.packets),
        ("chaos", chaos.trace.packets),
        ("impaired", impaired),
    ]
}

/// Each verdict with the index of the packet that brought it out;
/// `finish` is index `packets.len()`. `before` runs ahead of every
/// packet and may replace the decoder.
fn timed(
    mut dec: OnlineDecoder,
    packets: &[CapturedPacket],
    mut before: impl FnMut(OnlineDecoder) -> OnlineDecoder,
) -> Vec<(usize, OnlineVerdict)> {
    let mut out = Vec::new();
    for (i, p) in packets.iter().enumerate() {
        dec = before(dec);
        out.extend(
            dec.push_packet(p.time, &p.frame)
                .into_iter()
                .map(|v| (i, v)),
        );
    }
    out.extend(dec.finish().into_iter().map(|v| (packets.len(), v)));
    out
}

#[test]
fn skipped_steps_never_delay_a_verdict() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let mut labels = Vec::new();
    for seed in [17_001, 17_002] {
        labels.extend(run_session(&session(&graph, seed)).expect("train").labels);
    }
    let attack = WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(TIME_SCALE)).expect("train");
    let fresh = || {
        OnlineDecoder::new(
            attack.classifier().clone(),
            graph.clone(),
            OnlineConfig::scaled(TIME_SCALE),
        )
    };

    for (name, packets) in slice(&graph) {
        let uninterrupted = timed(fresh(), &packets, |dec| dec);
        let resumed = timed(fresh(), &packets, |mut dec| {
            OnlineDecoder::resume_from_checkpoint(&dec.checkpoint(), graph.clone())
                .expect("a fresh checkpoint restores")
        });
        let mid_stream = uninterrupted
            .iter()
            .filter(|(i, _)| *i < packets.len())
            .count();
        assert!(mid_stream >= 2, "{name}: verdicts came out only at finish");
        assert_eq!(
            uninterrupted, resumed,
            "{name}: a verdict came out at a different packet"
        );
    }
}
