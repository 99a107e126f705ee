//! Property tests for checkpoint/resume determinism (hand-rolled
//! deterministic sweeps — the harness carries no external property-test
//! dependency, so the "any boundary" quantifier is made exhaustive
//! instead of sampled).
//!
//! The property under test: for *every* packet boundary `i`, feeding
//! packets `0..i`, checkpointing, resuming from the blob, and feeding
//! packets `i..` yields the exact verdict stream (byte-equal choices
//! *and* provenance) of an uninterrupted decode of the same capture,
//! each verdict brought out by the same packet.

use std::sync::Arc;

use wm_capture::time::SimTime;
use wm_chaos::{impair_capture, CaptureImpairment, TapPacket};
use wm_core::online::{
    graph_fingerprint, restore_record, Blob, BlobHeader, BlobWriter, CheckpointError, OnlineConfig,
    OnlineDecoder,
};
use wm_core::IntervalClassifier;
use wm_story::bandersnatch::tiny_film;
use wm_story::Choice;

mod common;

use common::{feed, finish, session, tap_packets, trained_classifier, Timed, TS};

fn uninterrupted(
    clf: &IntervalClassifier,
    graph: &Arc<wm_story::StoryGraph>,
    cfg: &OnlineConfig,
    packets: &[TapPacket],
) -> Vec<Timed> {
    let mut dec = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
    let mut out = feed(&mut dec, packets, 0);
    out.extend(finish(&mut dec, packets.len()));
    out
}

/// Cut the stream at packet boundary `cut`, checkpoint, resume, feed
/// the rest; returns the concatenated verdict stream.
fn cut_and_resume(
    clf: &IntervalClassifier,
    graph: &Arc<wm_story::StoryGraph>,
    cfg: &OnlineConfig,
    packets: &[TapPacket],
    cut: usize,
) -> Vec<Timed> {
    let mut first = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
    let mut out = feed(&mut first, &packets[..cut], 0);
    let blob = first.checkpoint();
    drop(first);
    let mut second =
        OnlineDecoder::resume_from_checkpoint(&blob, graph.clone()).expect("resume at {cut}");
    out.extend(feed(&mut second, &packets[cut..], cut));
    out.extend(finish(&mut second, packets.len()));
    out
}

#[test]
fn resume_at_every_record_boundary_matches_uninterrupted_decode() {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    for (seed, picks) in [
        (
            900u64,
            [Choice::Default, Choice::NonDefault, Choice::Default],
        ),
        (
            901,
            [Choice::NonDefault, Choice::Default, Choice::NonDefault],
        ),
        (902, [Choice::Default, Choice::Default, Choice::NonDefault]),
    ] {
        let out = session(seed, &picks);
        let packets = tap_packets(&out);
        let baseline = uninterrupted(&clf, &graph, &cfg, &packets);
        assert!(!baseline.is_empty(), "seed {seed} decoded nothing");

        // Every packet boundary where at least one new TLS record was
        // finalized is a record boundary; sweep them all (plus the
        // trivial boundaries 1 and n-1).
        let mut probe = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
        let mut boundaries = vec![1, packets.len().saturating_sub(1)];
        let mut seen_records = 0;
        for (i, (t, frame)) in packets.iter().enumerate() {
            probe.push_packet(SimTime(*t), frame);
            let now = probe.stats().records;
            if now > seen_records {
                seen_records = now;
                boundaries.push(i + 1);
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.retain(|&b| b > 0 && b < packets.len());

        for &cut in &boundaries {
            let got = cut_and_resume(&clf, &graph, &cfg, &packets, cut);
            assert_eq!(
                got, baseline,
                "seed {seed}: resume at packet boundary {cut} diverged"
            );
        }
    }
}

#[test]
fn restored_state_checkpoints_byte_identically() {
    // Determinism of the snapshot itself: checkpoint the original
    // decoder twice, resume a copy from the first blob and checkpoint
    // it — the resumed decoder's blob must be byte-identical to the
    // original's second blob (the `resumes` counter is deliberately
    // not serialized).
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    let out = session(
        910,
        &[Choice::NonDefault, Choice::NonDefault, Choice::Default],
    );
    let packets = tap_packets(&out);

    for cut in (1..packets.len()).step_by(7) {
        let mut original = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
        feed(&mut original, &packets[..cut], 0);
        let blob = original.checkpoint();
        let blob_again = original.checkpoint();

        let mut resumed = OnlineDecoder::resume_from_checkpoint(&blob, graph.clone()).unwrap();
        let blob_resumed = resumed.checkpoint();
        assert_eq!(
            blob_again, blob_resumed,
            "restored state at boundary {cut} re-checkpoints differently"
        );
    }
}

#[test]
fn resume_under_capture_impairment_is_still_lossless() {
    // The full-replay resume property holds for *impaired* captures
    // too: whatever the tap mangled, cutting and resuming must not add
    // divergence beyond it.
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    let out = session(
        920,
        &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
    );
    let clean = tap_packets(&out);
    for (seed, intensity) in [(11u64, 0.5), (12, 1.0), (13, 2.0)] {
        let imp = CaptureImpairment::at_intensity(intensity);
        let (packets, _) = impair_capture(seed, &imp, &clean);
        let baseline = uninterrupted(&clf, &graph, &cfg, &packets);
        for cut in (1..packets.len()).step_by(11) {
            let got = cut_and_resume(&clf, &graph, &cfg, &packets, cut);
            assert_eq!(
                got, baseline,
                "impairment {intensity} seed {seed}: cut {cut} diverged"
            );
        }
    }
}

#[test]
fn checkpoint_truncated_at_every_byte_is_rejected_cleanly() {
    // Torn-write model: the checkpoint file stops at an arbitrary byte.
    // The quantifier "truncated at ANY boundary" is exhaustive — every
    // proper prefix of a real mid-stream checkpoint must be rejected
    // with a typed error (a JSON document only completes at its final
    // byte, so no proper prefix can restore), must never panic, and
    // after falling back to the intact blob the verdict stream must be
    // exactly the uninterrupted one: nothing lost, nothing duplicated.
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    let out = session(
        930,
        &[Choice::NonDefault, Choice::NonDefault, Choice::Default],
    );
    let packets = tap_packets(&out);
    let baseline = uninterrupted(&clf, &graph, &cfg, &packets);
    let cut = packets.len() / 2;

    let mut first = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
    let mut verdicts = feed(&mut first, &packets[..cut], 0);
    let blob = first.checkpoint();
    drop(first);

    for torn in 0..blob.len() {
        match OnlineDecoder::resume_from_checkpoint(&blob[..torn], graph.clone()) {
            Ok(_) => panic!(
                "truncation at byte {torn}/{} restored a decoder",
                blob.len()
            ),
            Err(CheckpointError::Truncated { offset, near }) => {
                assert!(
                    offset <= torn,
                    "reported offset {offset} past the {torn}-byte blob"
                );
                assert!(!near.is_empty(), "truncation must name a field context");
            }
            // Rarely a prefix is *parseable* JSON (e.g. cut after a
            // closing brace of a nested value is still invalid at the
            // top level, but defensive decoding may classify it as a
            // missing field). Any typed rejection is acceptable; only
            // a successful restore or a panic is a bug.
            Err(_) => {}
        }
    }

    // The supervisor's fallback path: the last intact blob restores
    // and the tail replays to exactly the uninterrupted stream.
    let mut second =
        OnlineDecoder::resume_from_checkpoint(&blob, graph.clone()).expect("intact blob restores");
    verdicts.extend(feed(&mut second, &packets[cut..], cut));
    verdicts.extend(finish(&mut second, packets.len()));
    assert_eq!(
        verdicts, baseline,
        "fallback resume lost or duplicated verdicts"
    );
    for (i, (_, v)) in verdicts.iter().enumerate() {
        assert_eq!(v.index, i as u64, "verdict indices must be contiguous");
    }
}

/// Restore every record of a multi-victim blob, the way a shard
/// restore does.
fn restore_blob(
    bytes: &[u8],
    graph: &Arc<wm_story::StoryGraph>,
) -> Result<Vec<OnlineDecoder>, CheckpointError> {
    let blob = Blob::parse(bytes)?;
    blob.header.check_graph(graph)?;
    blob.records
        .iter()
        .map(|rec| {
            restore_record(
                rec,
                &blob.header.classifier,
                &blob.header.cfg,
                graph.clone(),
            )
        })
        .collect()
}

/// Flip every bit of `blob` in turn; `restore` must reject each copy.
/// Returns how many flips were checked.
fn every_bit_flip_is_rejected<T>(
    blob: &[u8],
    what: &str,
    restore: impl Fn(&[u8]) -> Result<T, CheckpointError>,
) -> usize {
    let mut damaged = blob.to_vec();
    for byte in 0..blob.len() {
        for bit in 0..8 {
            damaged[byte] ^= 1 << bit;
            assert!(
                restore(&damaged).is_err(),
                "{what}: flipping bit {bit} of byte {byte}/{} restored",
                blob.len()
            );
            damaged[byte] ^= 1 << bit;
        }
    }
    blob.len() * 8
}

#[test]
fn every_single_bit_flip_of_a_checkpoint_is_rejected() {
    // Storage-corruption model: one bit of a stored checkpoint flips.
    // The CRC-32 trailer detects every single-bit error, so every flip
    // of a real mid-stream decoder checkpoint — and of a multi-victim
    // shard blob built from such decoders — must be rejected with a
    // typed error: never restored with altered state, never a panic.
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    let mid_stream = |seed: u64, picks: &[Choice]| {
        let packets = tap_packets(&session(seed, picks));
        let mut dec = OnlineDecoder::new(clf.clone(), graph.clone(), cfg.clone());
        feed(&mut dec, &packets[..packets.len() / 2], 0);
        dec
    };

    let blob = mid_stream(
        940,
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
    )
    .checkpoint();
    assert!(OnlineDecoder::resume_from_checkpoint(&blob, graph.clone()).is_ok());
    let flips = every_bit_flip_is_rejected(&blob, "decoder checkpoint", |b| {
        OnlineDecoder::resume_from_checkpoint(b, graph.clone())
    });
    assert_eq!(flips, blob.len() * 8);

    let header = BlobHeader {
        shard: 2,
        taken: SimTime(1_000_000),
        graph_fp: graph_fingerprint(&graph),
        cfg: cfg.clone(),
        classifier: clf.clone(),
    };
    let mut writer = BlobWriter::new(&header, 0);
    for (victim, seed) in [(3u32, 941u64), (8, 942), (21, 943)] {
        let mut dec = mid_stream(
            seed,
            &[Choice::Default, Choice::NonDefault, Choice::Default],
        );
        writer.push_decoder(victim, SimTime(seed), &mut dec);
    }
    let shard_blob = writer.finish();
    assert_eq!(restore_blob(&shard_blob, &graph).map(|d| d.len()), Ok(3));
    every_bit_flip_is_rejected(&shard_blob, "shard blob", |b| restore_blob(b, &graph));
    for torn in 0..shard_blob.len() {
        match restore_blob(&shard_blob[..torn], &graph).map(|d| d.len()) {
            Err(CheckpointError::Truncated { offset, .. }) => assert!(offset <= torn),
            other => panic!("shard blob cut at {torn}: expected truncation, got {other:?}"),
        }
    }
}
