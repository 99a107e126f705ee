//! Helpers shared by this crate's fleet tests: tiny-film sessions, a
//! trained classifier, and several victims' captures merged into one
//! fleet input stream.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_fleet::{merge_taps, TapPacket};
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

const PICKS: [[Choice; 3]; 4] = [
    [Choice::Default, Choice::NonDefault, Choice::Default],
    [Choice::NonDefault, Choice::NonDefault, Choice::NonDefault],
    [Choice::Default, Choice::Default, Choice::Default],
    [Choice::NonDefault, Choice::Default, Choice::NonDefault],
];

/// `victims` interleaved sessions, each staggered by 2 s of sim-time,
/// merged into one fleet input stream.
pub fn victim_stream(victims: u32) -> Vec<TapPacket> {
    let mut taps = Vec::new();
    for v in 0..victims {
        let out = session(300 + v as u64, &PICKS[v as usize % PICKS.len()]);
        let offset = v as u64 * 2_000_000;
        taps.push(
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros() + offset), v, p.frame.clone()))
                .collect::<Vec<TapPacket>>(),
        );
    }
    merge_taps(&taps)
}
