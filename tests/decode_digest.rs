//! Pinned decode digests.
//!
//! Two FNV-1a digests over everything the attacker side derives from a
//! small fixed slice of captures. The decisions digest covers the
//! offline beam decode and its provenance, the greedy and naive
//! ablation decodes, the streaming verdict stream, and the verdicts a
//! decoder resumed mid-stream from one of its checkpoints emits. The
//! blob digest covers the checkpoint bytes themselves: every blob the
//! streaming decoder takes at its cadence and the final one.
//! `golden_trace` only counts evidence records per verdict and nothing
//! else pins checkpoint bytes, so a rewrite of the decoders could move
//! a confidence, a provenance citation or a checkpoint field
//! unnoticed. This test notices: both digests were computed once and
//! must never change unless decoder output is meant to change (say why
//! in the commit). A checkpoint layout change moves only the blob digest;
//! if the decisions digest moves with it, the decoder's behaviour did.
//!
//! The slice covers a wireless night (the condition where greedy and
//! beam decoding disagree most), a chaos plan whose tap gap and
//! duplicated state post exercise inferred decisions, gap discounts
//! and duplicate suppression, and one capture run through
//! `impair_capture` (reordering, snaplen clipping, duplicates).

use std::sync::Arc;
use white_mirror::chaos::{impair_capture, CaptureImpairment};
use white_mirror::core::{client_app_records, ChoiceDecoder, DecodedChoice, DecoderConfig};
use white_mirror::net::time::{Duration, SimTime};
use white_mirror::online::OnlineVerdict;
use white_mirror::prelude::*;

/// The digests of the slice below; see the module docs before changing
/// either.
const PINNED_DECISIONS: u64 = 0x5b75_1453_76f4_05a6;
const PINNED_BLOBS: u64 = 0x0f9f_374e_cc85_b005;

const TIME_SCALE: u32 = 40;

/// 64-bit FNV-1a, streamed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so adjacent fields cannot alias.
    fn field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.field(format!("{value:?}").as_bytes());
    }
}

fn session(graph: &Arc<StoryGraph>, seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::fast(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
    cfg.player.time_scale = TIME_SCALE;
    cfg
}

/// The fixed slice: three captures, each a different corner.
fn slice(graph: &Arc<StoryGraph>) -> Vec<Trace> {
    // 1. Wireless at night, where beam and greedy decoding disagree.
    let mut night = session(graph, 17_129);
    night.conditions = LinkConditions::new(ConnectionType::Wireless, TimeOfDay::Night);

    // 2. A tap gap and a duplicated state post.
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

    let night = run_session(&night).expect("night session completes");
    let chaos = run_session(&chaos).expect("chaos session completes");
    assert!(chaos.stats.tap_frames_dropped > 0, "tap gap was blind");

    // 3. A clean capture, impaired on the attacker's side of the tap.
    let clean = run_session(&session(graph, 17_103)).expect("clean session completes");
    let packets: Vec<(u64, Vec<u8>)> = clean
        .trace
        .packets
        .iter()
        .map(|p| (p.time.micros(), p.frame.clone()))
        .collect();
    let (impaired, stats) = impair_capture(17, &CaptureImpairment::at_intensity(1.0), &packets);
    assert!(stats.reordered > 0 && stats.duplicated > 0, "{stats:?}");
    let mut impaired_trace = Trace::new();
    for (t, frame) in impaired {
        impaired_trace
            .packets
            .push(white_mirror::capture::tap::CapturedPacket {
                time: SimTime(t),
                frame,
            });
    }

    vec![night.trace, chaos.trace, impaired_trace]
}

/// E8c's ablation columns: the greedy time-aware and the naive decode.
fn ablation(
    attack: &WhiteMirror,
    graph: &StoryGraph,
    trace: &Trace,
) -> (Vec<DecodedChoice>, Vec<DecodedChoice>) {
    let records = client_app_records(trace).records;
    let clf = attack.classifier();
    let greedy = DecoderConfig::scaled(TIME_SCALE);
    let naive = DecoderConfig {
        time_aware: false,
        ..DecoderConfig::scaled(TIME_SCALE)
    };
    (
        ChoiceDecoder::new(clf, graph, greedy, 1).decode(&records),
        ChoiceDecoder::new(clf, graph, naive, 1).decode(&records),
    )
}

/// Stream `trace` through an online decoder, hashing its verdicts into
/// `h` and every checkpoint blob the cadence asks for into `b`; then
/// resume from the middle blob, replay the rest of the capture and
/// hash what the resumed decoder emits into `h`.
fn stream(h: &mut Fnv, b: &mut Fnv, attack: &WhiteMirror, graph: &Arc<StoryGraph>, trace: &Trace) {
    let cfg = OnlineConfig::scaled(TIME_SCALE);
    let mut dec = OnlineDecoder::new(attack.classifier().clone(), graph.clone(), cfg);
    let mut verdicts: Vec<OnlineVerdict> = Vec::new();
    // (packets fed, verdicts emitted, blob) at each checkpoint.
    let mut blobs: Vec<(usize, usize, Vec<u8>)> = Vec::new();
    for (i, p) in trace.packets.iter().enumerate() {
        verdicts.extend(dec.push_packet(p.time, &p.frame));
        if dec.checkpoint_due() {
            let blob = dec.checkpoint();
            b.field(&blob);
            blobs.push((i + 1, verdicts.len(), blob));
        }
    }
    verdicts.extend(dec.finish());
    h.debug(&verdicts);
    b.field(&dec.checkpoint());

    assert!(blobs.len() >= 2, "the cadence must fire mid-stream");
    let (fed, delivered, blob) = &blobs[blobs.len() / 2];
    let mut resumed = OnlineDecoder::resume_from_checkpoint(blob, graph.clone()).expect("resume");
    let mut tail: Vec<OnlineVerdict> = Vec::new();
    for p in &trace.packets[*fed..] {
        tail.extend(resumed.push_packet(p.time, &p.frame));
    }
    tail.extend(resumed.finish());
    assert_eq!(
        &verdicts[*delivered..],
        &tail[..],
        "resume replays the tail"
    );
    h.debug(&tail);
}

#[test]
fn decode_digest_is_pinned() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let mut labels = Vec::new();
    for seed in [17_001, 17_002] {
        labels.extend(run_session(&session(&graph, seed)).expect("train").labels);
    }
    let attack = WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(TIME_SCALE)).expect("train");

    let (mut h, mut b) = (Fnv::new(), Fnv::new());
    let (mut disagree, mut near_gap, mut inferred) = (false, false, false);
    for trace in slice(&graph) {
        let offline = attack.decode_trace(&trace, &graph);
        h.debug(&offline.choices);
        h.debug(&offline.provenance);
        let (greedy, naive) = ablation(&attack, &graph, &trace);
        h.debug(&greedy);
        h.debug(&naive);
        let picks = |ds: &[DecodedChoice]| ds.iter().map(|d| d.choice).collect::<Vec<_>>();
        disagree |= picks(&offline.choices) != picks(&greedy);
        near_gap |= offline.provenance.iter().any(|p| p.near_gap);
        inferred |= offline.choices.iter().any(|d| !d.observed);
        stream(&mut h, &mut b, &attack, &graph, &trace);
    }

    // The slice must really reach the corners it claims to cover.
    assert!(disagree, "beam and greedy decode the same everywhere");
    assert!(near_gap, "no decision sits near a capture gap");
    assert!(inferred, "no decision was inferred from timing");

    assert_eq!(
        h.0, PINNED_DECISIONS,
        "decoder output moved: a decode, provenance or verdict differs ({:#018x})",
        h.0
    );
    assert_eq!(
        b.0, PINNED_BLOBS,
        "checkpoint bytes moved: a blob differs ({:#018x})",
        b.0
    );
}
