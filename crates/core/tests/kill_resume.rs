//! Tentpole acceptance tests: online/offline equivalence, kill-and-
//! resume determinism, bounded memory, and capture-impairment
//! tolerance.

use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::{impair_capture, kill_index, CaptureImpairment, TapPacket};
use wm_core::online::{OnlineConfig, OnlineDecoder, STATE_BOUND};
use wm_core::provenance::ChoiceProvenance;
use wm_core::{
    client_app_records, ChoiceDecoder, DecodedChoice, DecoderConfig, IntervalClassifier,
    WhiteMirrorConfig,
};
use wm_sim::{run_session, SessionConfig, SessionOutput};
use wm_story::bandersnatch::{bandersnatch, tiny_film};
use wm_story::{Choice, StoryGraph, ViewerScript};

mod common;

use common::{feed, finish, session, tap_packets, trained_classifier, Timed, TS};

fn feed_all(dec: &mut OnlineDecoder, packets: &[TapPacket]) -> Vec<Timed> {
    let mut out = feed(dec, packets, 0);
    out.extend(finish(dec, packets.len()));
    out
}

/// Records between the kill/resume tests' checkpoints: tighter than
/// the decoder's own cadence, so a checkpoint lands before each seeded
/// kill index.
const CHECKPOINT_RECORDS: u64 = 8;

/// (packets fed, verdicts already emitted, blob) at checkpoint time.
type Checkpoint = (usize, usize, Vec<u8>);

/// Feed `packets` — everything before the kill — checkpointing every
/// [`CHECKPOINT_RECORDS`] records; returns the verdicts emitted and
/// the last checkpoint taken. The decoder is consumed: it dies here.
fn feed_until_kill(
    mut dying: OnlineDecoder,
    packets: &[TapPacket],
) -> (Vec<Timed>, Option<Checkpoint>) {
    let mut pre: Vec<Timed> = Vec::new();
    let mut checkpoint = None;
    let mut records_at_checkpoint = 0;
    for (i, packet) in packets.iter().enumerate() {
        pre.extend(feed(&mut dying, std::slice::from_ref(packet), i));
        let records = dying.stats().records;
        if records - records_at_checkpoint >= CHECKPOINT_RECORDS {
            records_at_checkpoint = records;
            checkpoint = Some((i + 1, pre.len(), dying.checkpoint()));
        }
    }
    (pre, checkpoint)
}

/// The offline greedy reference: `ChoiceDecoder` at width 1 over the
/// full capture, each decision resolved with every application record
/// as an anchor candidate.
fn offline_reference(
    out: &SessionOutput,
    graph: &StoryGraph,
    clf: &IntervalClassifier,
) -> (Vec<DecodedChoice>, Vec<ChoiceProvenance>) {
    let features = client_app_records(&out.trace);
    let decoder = ChoiceDecoder::new(clf, graph, DecoderConfig::scaled(TS), 1);
    let (choices, provenance, _) = decoder.decode_with_provenance(&features);
    (choices, provenance)
}

#[test]
fn clean_capture_matches_offline_decode_byte_for_byte() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    for (seed, picks) in [
        (
            200u64,
            [Choice::Default, Choice::NonDefault, Choice::Default],
        ),
        (
            205,
            [Choice::NonDefault, Choice::NonDefault, Choice::NonDefault],
        ),
        (202, [Choice::Default, Choice::Default, Choice::Default]),
    ] {
        let out = session(seed, &picks);
        // Precondition: the equivalence claim is for *clean* captures.
        // (Some seeds — e.g. 201 — produce a natural reassembly gap in
        // the sim; there the online decoder intentionally diverges on
        // `near_gap`, which offline judges with post-hoc knowledge of
        // future gaps, and reports a loss window instead.)
        let features = client_app_records(&out.trace);
        assert_eq!(features.stats.gaps, 0, "seed {seed} capture is not clean");
        let (off_choices, off_prov) = offline_reference(&out, &graph, &clf);
        let mut dec = OnlineDecoder::new(clf.clone(), graph.clone(), OnlineConfig::scaled(TS));
        let verdicts = feed_all(&mut dec, &tap_packets(&out));
        assert_eq!(verdicts.len(), off_choices.len(), "seed {seed}");
        for (i, (_, v)) in verdicts.iter().enumerate() {
            assert_eq!(v.index, i as u64);
            assert_eq!(v.choice, off_choices[i], "seed {seed} verdict {i}");
            assert_eq!(v.provenance, off_prov[i], "seed {seed} provenance {i}");
        }
        assert!(dec.loss_windows().is_empty());
        assert!(dec.is_done());
    }
}

#[test]
fn verdicts_stream_before_the_session_ends() {
    // The online attacker's point: verdicts arrive while the victim
    // still watches, not only at finish().
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let out = session(210, &[Choice::NonDefault, Choice::Default, Choice::Default]);
    let packets = tap_packets(&out);
    let mut dec = OnlineDecoder::new(clf, graph, OnlineConfig::scaled(TS));
    let mut streamed = 0usize;
    for (t, frame) in &packets {
        streamed += dec.push_packet(SimTime(*t), frame).len();
    }
    let at_finish = dec.finish().len();
    assert!(
        streamed >= 2,
        "expected most verdicts mid-stream, got {streamed} (finish added {at_finish})"
    );
}

#[test]
fn kill_and_resume_with_full_replay_is_byte_identical() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let out = session(
        300,
        &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
    );
    let packets = tap_packets(&out);
    let cfg = OnlineConfig::scaled(TS);

    let mut base = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
    let baseline = feed_all(&mut base, &packets);
    assert!(!baseline.is_empty());

    // The attacker process dies at a seeded packet index…
    let kill = kill_index(0xDEAD_BEEF, packets.len());
    let dying = OnlineDecoder::new(clf.clone(), graph.clone(), cfg);
    // The crash: everything since the checkpoint is gone.
    let (pre, checkpoint) = feed_until_kill(dying, &packets[..kill]);
    let (resume_at, delivered, blob) =
        checkpoint.expect("checkpoint cadence must fire before the kill index");

    // …restarts from the checkpoint and replays its capture spool.
    let mut resumed = OnlineDecoder::resume_from_checkpoint(&blob, graph.clone()).unwrap();
    assert_eq!(resumed.stats().resumes, 1);
    let mut recovered = pre;
    recovered.truncate(delivered);
    recovered.extend(feed(&mut resumed, &packets[resume_at..], resume_at));
    recovered.extend(finish(&mut resumed, packets.len()));

    // Byte-identical stream: same choices, same provenance, each out
    // at the same packet, contiguous indexes, zero duplicates, zero
    // loss.
    assert_eq!(recovered, baseline);
    for (i, (_, v)) in recovered.iter().enumerate() {
        assert_eq!(v.index, i as u64, "verdict indexes must be contiguous");
    }
    assert!(
        resumed.loss_windows().is_empty(),
        "full replay loses nothing"
    );
}

#[test]
fn crash_gap_is_reported_and_decoding_recovers() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let out = session(
        301,
        &[Choice::NonDefault, Choice::NonDefault, Choice::Default],
    );
    let packets = tap_packets(&out);
    let cfg = OnlineConfig::scaled(TS);

    let mut base = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
    let baseline = feed_all(&mut base, &packets);

    let kill = kill_index(0xFEED, packets.len());
    let dying = OnlineDecoder::new(clf.clone(), graph.clone(), cfg);
    let (pre, checkpoint) = feed_until_kill(dying, &packets[..kill]);
    let (cp_at, delivered, blob) = checkpoint.expect("checkpoint before kill");
    assert!(
        cp_at < kill,
        "this seed must leave a crash gap to be meaningful"
    );

    // This time the packets between checkpoint and kill are *lost*:
    // the tap buffered nothing while the attacker was down.
    let mut resumed = OnlineDecoder::resume_from_checkpoint(&blob, graph.clone()).unwrap();
    let mut recovered = pre;
    recovered.truncate(delivered);
    recovered.extend(feed(&mut resumed, &packets[kill..], kill));
    recovered.extend(finish(&mut resumed, packets.len()));

    // The walk still completes with one verdict per choice point…
    assert_eq!(recovered.len(), baseline.len());
    for (i, (_, v)) in recovered.iter().enumerate() {
        assert_eq!(v.index, i as u64);
    }
    // …the crash gap is explicitly reported…
    let losses = resumed.loss_windows().to_vec();
    assert!(
        !losses.is_empty(),
        "dropping {} packets must surface a loss window",
        kill - cp_at
    );
    // …and any verdict that diverged from the uninterrupted run sits
    // inside a reported loss window's influence region (loss windows
    // bound the damage).
    let derived_margin = {
        // window_cfg + first seek slack, the furthest a loss can
        // displace evidence for a choice.
        let wcfg = Duration::from_secs_f64(10.0 / TS as f64);
        Duration(wcfg.micros() * 4)
    };
    for ((_, b), (_, r)) in baseline.iter().zip(&recovered) {
        if b == r {
            continue;
        }
        let t = b.choice.time;
        let near_loss = losses
            .iter()
            .any(|&(from, to)| t + derived_margin >= from && t <= to + derived_margin);
        assert!(
            near_loss,
            "verdict at {} µs diverged outside every loss window {:?}",
            t.micros(),
            losses
        );
    }
}

#[test]
fn memory_stays_bounded_by_configuration() {
    // Feed a *much* longer session (the full Bandersnatch graph) and a
    // short one through identically-configured decoders: peak resident
    // state must stay under the decoder's constant state bound.
    let cfg = OnlineConfig::scaled(TS);
    let bound = STATE_BOUND;

    let graph = Arc::new(bandersnatch());
    let script = ViewerScript::sample(41, 32, 0.5);
    let out = run_session(&SessionConfig::fast(graph.clone(), 41, script)).unwrap();
    let packets = tap_packets(&out);
    let clf = IntervalClassifier::train(&out.labels, WhiteMirrorConfig::DEFAULT_SLACK).unwrap();

    let mut dec = OnlineDecoder::new(clf, graph, cfg.clone());
    let mut peak = 0usize;
    for (t, frame) in &packets {
        dec.push_packet(SimTime(*t), frame);
        peak = peak.max(dec.state_bytes());
    }
    dec.finish();
    peak = peak.max(dec.state_bytes());
    assert!(
        peak <= bound,
        "peak state {peak} exceeded the state bound {bound} over {} packets",
        packets.len()
    );
    assert!(dec.stats().verdicts > 0, "the long session must decode");
}

#[test]
fn impaired_captures_never_panic_and_always_terminate() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let out = session(400, &[Choice::Default, Choice::NonDefault, Choice::Default]);
    let clean = tap_packets(&out);
    for intensity in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let imp = CaptureImpairment::at_intensity(intensity);
        let (packets, stats) = impair_capture(4242, &imp, &clean);
        let mut dec = OnlineDecoder::new(clf.clone(), graph.clone(), OnlineConfig::scaled(TS));
        let verdicts = feed_all(&mut dec, &packets);
        // The graph walk always terminates with one verdict per
        // choice point on the decoded path, whatever the impairment.
        assert_eq!(
            verdicts.len(),
            3,
            "intensity {intensity} (impaired: {stats:?})"
        );
        for (i, (_, v)) in verdicts.iter().enumerate() {
            assert_eq!(v.index, i as u64);
            assert!(v.choice.confidence > 0.0 && v.choice.confidence <= 1.0);
        }
        assert!(dec.is_done());
    }
}

#[test]
fn mid_session_tap_attach_still_decodes_the_tail() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let out = session(
        500,
        &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
    );
    let clean = tap_packets(&out);
    let imp = CaptureImpairment {
        attach_fraction: 0.35,
        ..CaptureImpairment::none()
    };
    let (packets, stats) = impair_capture(7, &imp, &clean);
    assert!(stats.dropped_before_attach > 0);
    let mut dec = OnlineDecoder::new(clf, graph, OnlineConfig::scaled(TS));
    let verdicts = feed_all(&mut dec, &packets);
    assert_eq!(verdicts.len(), 3, "walk still completes after late attach");
    // The attach point lands mid-record: the ingest path must have
    // resynchronized rather than discarding the whole tail.
    assert!(
        dec.stats().records > 0,
        "no records recovered after mid-session attach"
    );
}

#[test]
fn telemetry_and_trace_follow_the_online_path() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let out = session(600, &[Choice::NonDefault, Choice::Default, Choice::Default]);
    let packets = tap_packets(&out);

    let registry = wm_telemetry::Registry::new();
    let handle = wm_telemetry::trace::TraceHandle::new();
    let span = handle.span_start_at(0, "online.session", wm_telemetry::trace::SpanId::NONE);

    let mut dec = OnlineDecoder::new(clf, graph, OnlineConfig::scaled(TS));
    dec.attach_telemetry(&registry);
    dec.attach_trace(handle.clone(), span);
    let verdicts = feed_all(&mut dec, &packets);
    handle.span_end_at(dec.watermark().micros(), span, "online.session");

    assert_eq!(
        registry.counter("online.packets").get(),
        packets.len() as u64
    );
    assert_eq!(
        registry.counter("online.verdicts").get(),
        verdicts.len() as u64
    );
    assert!(registry.counter("online.records").get() > 0);

    let events = handle.snapshot();
    let counts = wm_telemetry::trace::counts_by_name(&events);
    assert_eq!(
        counts.get("online.verdict").copied().unwrap_or(0),
        verdicts.len() as u64
    );
}
