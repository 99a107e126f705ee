//! Bitrate fingerprinting (Reed & Kranch style) as a choice decoder.
//!
//! The original attack identifies *which title* is playing by matching
//! observed bitrates against a database. Transplanted to the
//! intra-video problem it becomes: learn the mean downstream volume
//! after each branch of each choice point, then classify a victim
//! window by the nearer mean. Because both branches of one title
//! stream on the same ladder, the class-conditional distributions
//! overlap almost completely and accuracy sits near the majority floor.

use super::features::{downstream_bytes_in, LabeledWindow};
use std::collections::BTreeMap;
use wm_capture::tap::Trace;
use wm_capture::time::{Duration, SimTime};
use wm_story::{Choice, ChoicePointId};

/// Per-(choice point, branch) running mean of downstream volume.
#[derive(Debug, Clone, Default)]
struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    fn push(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    fn get(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// The bitrate-profile baseline.
#[derive(Debug, Clone, Default)]
pub struct BitrateBaseline {
    window: Duration,
    means: BTreeMap<(ChoicePointId, usize), Mean>,
    majority: MajorityBaseline,
}

impl BitrateBaseline {
    /// Train from labelled sessions; `window` is the post-question span
    /// measured (scaled like the capture).
    pub fn train(sessions: &[(&Trace, &[LabeledWindow])], window: Duration) -> Self {
        let mut b = BitrateBaseline {
            window,
            ..Default::default()
        };
        for (trace, windows) in sessions {
            for w in *windows {
                let bytes = downstream_bytes_in(trace, w.question_time, window) as f64;
                b.means
                    .entry((w.cp, w.choice.index()))
                    .or_default()
                    .push(bytes);
                b.majority.observe(w.choice);
            }
        }
        b
    }

    /// Decode one victim session given its question times.
    pub fn decode(&self, trace: &Trace, questions: &[(ChoicePointId, SimTime)]) -> Vec<Choice> {
        questions
            .iter()
            .map(|(cp, t)| {
                let observed = downstream_bytes_in(trace, *t, self.window) as f64;
                let d = |choice: Choice| -> Option<f64> {
                    self.means
                        .get(&(*cp, choice.index()))
                        .and_then(Mean::get)
                        .map(|m| (m - observed).abs())
                };
                match (d(Choice::Default), d(Choice::NonDefault)) {
                    (Some(dd), Some(dn)) if dn < dd => Choice::NonDefault,
                    (Some(_), Some(_)) | (Some(_), None) => Choice::Default,
                    (None, Some(_)) => Choice::NonDefault,
                    (None, None) => self.majority.predict(),
                }
            })
            .collect()
    }

    pub fn name(&self) -> &'static str {
        "bitrate-profile"
    }
}

/// The prior-only floor: always predict the training majority class.
#[derive(Debug, Clone, Copy, Default)]
pub struct MajorityBaseline {
    defaults: u64,
    non_defaults: u64,
}

impl MajorityBaseline {
    pub fn observe(&mut self, choice: Choice) {
        match choice {
            Choice::Default => self.defaults += 1,
            Choice::NonDefault => self.non_defaults += 1,
        }
    }

    pub fn predict(&self) -> Choice {
        if self.non_defaults > self.defaults {
            Choice::NonDefault
        } else {
            Choice::Default
        }
    }

    pub fn name(&self) -> &'static str {
        "majority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_floor() {
        let mut m = MajorityBaseline::default();
        for _ in 0..6 {
            m.observe(Choice::Default);
        }
        for _ in 0..4 {
            m.observe(Choice::NonDefault);
        }
        assert_eq!(m.predict(), Choice::Default);
    }

    #[test]
    fn untrained_cells_fall_back() {
        let b = BitrateBaseline::train(&[], Duration::from_secs(1));
        let picks = b.decode(&Trace::new(), &[(ChoicePointId(0), SimTime::ZERO)]);
        assert_eq!(picks, vec![Choice::Default]);
    }
}
