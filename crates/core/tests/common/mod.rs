//! Helpers shared by this crate's streaming-decoder tests: tiny-film
//! sessions, a trained classifier, and feeding a capture packet by
//! packet with the index each verdict came out at.

use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::TapPacket;
use wm_core::online::{OnlineDecoder, OnlineVerdict};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_sim::{run_session, SessionConfig, SessionOutput};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ViewerScript};

pub const TS: u32 = 20;

pub fn session(seed: u64, choices: &[Choice]) -> SessionOutput {
    let graph = Arc::new(tiny_film());
    let script = ViewerScript::from_choices(choices, Duration::from_millis(900));
    run_session(&SessionConfig::fast(graph, seed, script)).unwrap()
}

pub fn trained_classifier() -> IntervalClassifier {
    let train = session(
        100,
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
    );
    IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).unwrap()
}

pub fn tap_packets(out: &SessionOutput) -> Vec<TapPacket> {
    out.trace
        .packets
        .iter()
        .map(|p| (p.time.micros(), p.frame.clone()))
        .collect()
}

/// A verdict with the index of the packet that brought it out;
/// `finish` counts as the index past the last packet.
pub type Timed = (usize, OnlineVerdict);

/// Feed `packets`, the capture's packets from index `first` on.
pub fn feed(dec: &mut OnlineDecoder, packets: &[TapPacket], first: usize) -> Vec<Timed> {
    let mut out = Vec::new();
    for (i, (t, frame)) in (first..).zip(packets) {
        out.extend(
            dec.push_packet(SimTime(*t), frame)
                .into_iter()
                .map(|v| (i, v)),
        );
    }
    out
}

/// End the capture of `n` packets.
pub fn finish(dec: &mut OnlineDecoder, n: usize) -> Vec<Timed> {
    dec.finish().into_iter().map(|v| (n, v)).collect()
}
