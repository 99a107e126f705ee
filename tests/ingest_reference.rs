//! The offline attack's front end against the whole-capture reference.
//!
//! `client_app_records` reads client records through `FlowIngest`, the
//! streaming attack's incremental reassembler. The whole-capture
//! reassembler (`FlowReassembler` + `extract_records`) is the reference
//! it must agree with. On a bandersnatch slice across the four link
//! conditions, a quarter of it under a generated fault plan, both must
//! give the same application records `(time, length)`, gap times, flow
//! count and record/gap/resync counts. Skipped-byte counts are not
//! compared: the two count bytes lost across a gap differently.
//!
//! The same captures run through `impair_capture` (reordering, snaplen
//! clipping, duplicates) may differ in a record where the two documented
//! divergences bite, but must still decode to the same beam picks.

use std::sync::Arc;
use white_mirror::capture::tap::CapturedPacket;
use white_mirror::capture::{extract_records, ContentType, FlowReassembler};
use white_mirror::chaos::{impair_capture, CaptureImpairment};
use white_mirror::core::{
    client_app_records, ChoiceDecoder, ClientFeatures, DecodedChoice, DecoderConfig,
};
use white_mirror::net::time::{Duration, SimTime};
use white_mirror::prelude::*;

const TIME_SCALE: u32 = 40;
/// The offline attack's beam width (`WhiteMirrorConfig::BEAM_WIDTH`).
const BEAM_WIDTH: usize = 8;

/// The whole-capture front end: reassemble both directions of every
/// flow, then parse the upstream stream.
fn reference(trace: &Trace) -> ClientFeatures {
    let mut out = ClientFeatures::default();
    for flow in FlowReassembler::reassemble(trace) {
        out.flows += 1;
        let extraction = extract_records(&flow.upstream);
        out.stats.records += extraction.stats.records;
        out.stats.gaps += extraction.stats.gaps;
        out.stats.resyncs += extraction.stats.resyncs;
        out.gap_times.extend(extraction.gap_times);
        out.records.extend(
            extraction
                .records
                .into_iter()
                .filter(|r| r.record.content_type == ContentType::ApplicationData),
        );
    }
    out.records
        .sort_by_key(|r| (r.time, r.record.stream_offset));
    out.gap_times.sort();
    out
}

fn lengths(f: &ClientFeatures) -> Vec<(SimTime, u16)> {
    f.records
        .iter()
        .map(|r| (r.time, r.record.length))
        .collect()
}

/// 24 captures: six per link condition, every fourth under a generated
/// fault plan.
fn slice(graph: &Arc<StoryGraph>) -> Vec<Trace> {
    let conditions = [
        (ConnectionType::Wired, TimeOfDay::Morning),
        (ConnectionType::Wired, TimeOfDay::Night),
        (ConnectionType::Wireless, TimeOfDay::Morning),
        (ConnectionType::Wireless, TimeOfDay::Night),
    ];
    (0..24u64)
        .map(|i| {
            let seed = 34_000 + i;
            let script = ViewerScript::sample(seed, 14, 0.5);
            let mut cfg = SessionConfig::fast(graph.clone(), seed, script);
            cfg.player.time_scale = TIME_SCALE;
            let (connection, time_of_day) = conditions[i as usize % conditions.len()];
            cfg.conditions = LinkConditions::new(connection, time_of_day);
            if i % 4 == 3 {
                cfg.chaos = FaultPlan::generate(seed, 0.5, Duration::from_secs(4));
            }
            run_session(&cfg).expect("session completes").trace
        })
        .collect()
}

fn impaired(seed: u64, intensity: f64, trace: &Trace) -> Trace {
    let packets: Vec<(u64, Vec<u8>)> = trace
        .packets
        .iter()
        .map(|p| (p.time.micros(), p.frame.clone()))
        .collect();
    let cfg = CaptureImpairment::at_intensity(intensity);
    let (packets, _) = impair_capture(seed, &cfg, &packets);
    let mut out = Trace::new();
    out.packets = packets
        .into_iter()
        .map(|(t, frame)| CapturedPacket {
            time: SimTime(t),
            frame,
        })
        .collect();
    out
}

#[test]
fn flow_ingest_matches_the_whole_capture_reference() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let traces = slice(&graph);
    let (mut with_gaps, mut multi_flow) = (0, 0);
    for (i, trace) in traces.iter().enumerate() {
        let want = reference(trace);
        let got = client_app_records(trace);
        assert_eq!(lengths(&got), lengths(&want), "capture {i}: records");
        assert_eq!(got.gap_times, want.gap_times, "capture {i}: gap times");
        assert_eq!(got.flows, want.flows, "capture {i}: flows");
        let counts = |f: &ClientFeatures| (f.stats.records, f.stats.gaps, f.stats.resyncs);
        assert_eq!(counts(&got), counts(&want), "capture {i}: counts");
        with_gaps += usize::from(want.stats.gaps > 0);
        multi_flow += usize::from(want.flows > 1);
    }
    // The slice must reach the corners it claims to cover.
    assert!(with_gaps >= 12, "only {with_gaps} captures have gaps");
    assert!(multi_flow >= 2, "only {multi_flow} captures reconnect");
}

#[test]
fn impaired_captures_decode_to_the_reference_picks() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let mut labels = Vec::new();
    for seed in [34_100, 34_101] {
        let mut cfg = SessionConfig::fast(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
        cfg.player.time_scale = TIME_SCALE;
        labels.extend(run_session(&cfg).expect("train").labels);
    }
    let attack = WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(TIME_SCALE)).expect("train");
    let decoder = ChoiceDecoder::new(
        attack.classifier(),
        &graph,
        DecoderConfig::scaled(TIME_SCALE),
        BEAM_WIDTH,
    );
    let picks = |choices: &[DecodedChoice]| choices.iter().map(|d| d.choice).collect::<Vec<_>>();
    let mut records_differ = 0;
    for (i, trace) in slice(&graph).iter().enumerate() {
        for intensity in [0.3, 1.0] {
            let trace = impaired(i as u64, intensity, trace);
            let want = reference(&trace);
            records_differ += usize::from(lengths(&client_app_records(&trace)) != lengths(&want));
            let (reference_choices, _, _) = decoder.decode_with_provenance(&want);
            assert_eq!(
                picks(&attack.decode_trace(&trace, &graph).choices),
                picks(&reference_choices),
                "capture {i} at intensity {intensity}"
            );
        }
    }
    // Nearly every impaired capture still agrees record for record.
    assert!(records_differ <= 6, "{records_differ} of 48 differ");
}
