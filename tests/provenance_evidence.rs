//! Provenance cites the evidence the decoder used.
//!
//! `wm_core::provenance::resolve` cites each decision's evidence from
//! the `Decision` the path decoder hands back. This test derives the
//! same evidence independently, with its own oracle over the
//! `Decision`s `ChoiceDecoder::decisions` returns and the capture's
//! records, and checks that the two agree:
//!
//! * an observed decision cites the type-1 report its question was
//!   placed on;
//! * a non-default pick read off a type-2 report cites that report;
//! * a decision that rests on no report cites the record nearest its
//!   question time as its timing anchor.
//!
//! It checks `WhiteMirror::decode_trace`'s provenance (the beam decode,
//! width 8) and the resolved width-1 (greedy) decisions, over a slice
//! with a clean capture, a wireless night, a tap gap, a duplicated
//! state post and a capture run through `impair_capture`.

use std::sync::Arc;
use white_mirror::capture::{CapturedPacket, TimedRecord};
use white_mirror::chaos::{impair_capture, CaptureImpairment};
use white_mirror::core::{
    client_app_records, ChoiceDecoder, ConfidenceTier, Decision, DecoderConfig, ProvenanceRecord,
    RecordRole, ReportEvent,
};
use white_mirror::net::time::{Duration, SimTime};
use white_mirror::prelude::*;

const TIME_SCALE: u32 = 40;

fn session(graph: &Arc<StoryGraph>, seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::fast(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
    cfg.player.time_scale = TIME_SCALE;
    cfg
}

/// Four captures, each a different corner.
fn slice(graph: &Arc<StoryGraph>) -> Vec<Trace> {
    let clean = run_session(&session(graph, 23_101)).expect("clean session completes");

    let mut night = session(graph, 23_102);
    night.conditions = LinkConditions::new(ConnectionType::Wireless, TimeOfDay::Night);
    let night = run_session(&night).expect("night session completes");

    let mut chaos = session(graph, 23_103);
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
    let (impaired, stats) = impair_capture(23, &CaptureImpairment::at_intensity(1.0), &packets);
    assert!(stats.reordered > 0 && stats.duplicated > 0, "{stats:?}");
    let impaired = Trace {
        packets: impaired
            .into_iter()
            .map(|(t, frame)| CapturedPacket {
                time: SimTime(t),
                frame,
            })
            .collect(),
    };

    vec![clean.trace, night.trace, chaos.trace, impaired]
}

fn cite(records: &[TimedRecord], index: usize, role: RecordRole) -> ProvenanceRecord {
    let r = &records[index];
    ProvenanceRecord {
        index,
        time: r.time,
        length: r.record.length,
        role,
    }
}

fn cite_event(records: &[TimedRecord], e: &ReportEvent, role: RecordRole) -> ProvenanceRecord {
    let cited = cite(records, e.index as usize, role);
    assert_eq!(
        (cited.time, cited.length),
        (e.time, e.length),
        "a report event's index names its record"
    );
    cited
}

/// The evidence a decision rests on, read off the decoder's own
/// `Decision`: its report events, or else the record nearest its
/// question time (the earliest on a tie).
fn evidence(d: &Decision, records: &[TimedRecord]) -> Vec<ProvenanceRecord> {
    let reports: Vec<ProvenanceRecord> = [
        d.type1
            .map(|e| cite_event(records, &e, RecordRole::Type1Report)),
        d.type2
            .map(|e| cite_event(records, &e, RecordRole::Type2Report)),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !reports.is_empty() {
        return reports;
    }
    let t = d.choice.time.micros();
    records
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.time.micros().abs_diff(t))
        .map(|(i, _)| vec![cite(records, i, RecordRole::Anchor)])
        .unwrap_or_default()
}

#[test]
fn provenance_cites_the_decisions_evidence() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let mut labels = Vec::new();
    for seed in [23_001, 23_002] {
        labels.extend(run_session(&session(&graph, seed)).expect("train").labels);
    }
    let attack = WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(TIME_SCALE)).expect("train");
    let classifier = attack.classifier();

    let (mut type2, mut anchors, mut decisions) = (0, 0, 0);
    for (n, trace) in slice(&graph).iter().enumerate() {
        let features = client_app_records(trace);
        let records = &features.records;
        for width in [1, 8] {
            let decoder =
                ChoiceDecoder::new(classifier, &graph, DecoderConfig::scaled(TIME_SCALE), width);
            let path = decoder.decisions(records);
            let provenance = match width {
                8 => attack.decode_trace(trace, &graph).provenance,
                _ => decoder.decode_with_provenance(&features).1,
            };
            assert_eq!(provenance.len(), path.len());
            for (i, (d, p)) in path.iter().zip(&provenance).enumerate() {
                assert_eq!(
                    p.records,
                    evidence(d, records),
                    "capture {n}, width {width}, decision {i} ({d:?}): provenance cites \
                     other evidence than the decoder used"
                );
                assert_eq!(
                    p.tier == ConfidenceTier::Observed,
                    d.type1.is_some(),
                    "capture {n}, width {width}, decision {i}: observed tier without its report"
                );
                type2 += d.type2.is_some() as usize;
                anchors += (d.type1.is_none() && d.type2.is_none()) as usize;
                decisions += 1;
            }
        }
    }

    // The slice must really reach the corners it claims to cover.
    assert!(type2 > 0, "no decision was read off a type-2 report");
    assert!(anchors > 0, "no decision rested on timing alone");
    assert!(decisions > type2 + anchors);
}
