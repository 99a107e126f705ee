//! Burst-series fingerprinting ("Beauty and the Burst" style) as a
//! choice decoder.
//!
//! Schuster et al. identify videos by the on/off burst pattern that
//! segment-at-a-time streaming leaves in the downstream byte series.
//! Transplanted intra-video: the feature vector is the downstream byte
//! count in consecutive sub-windows after a question, and the decoder
//! k-NN-matches against labelled training windows of the same choice
//! point. The burst pattern is governed by the (shared) chunk schedule
//! rather than the branch content, so the neighbours are a near-coin-
//! flip between the branches.

use crate::features::{burst_vector, l2, LabeledWindow};
use std::collections::BTreeMap;
use wm_capture::tap::Trace;
use wm_capture::time::{Duration, SimTime};
use wm_story::{Choice, ChoicePointId};

/// The burst-vector k-NN baseline.
#[derive(Debug, Clone)]
pub struct BurstKnnBaseline {
    bin_len: Duration,
    bins: usize,
    k: usize,
    /// Per-choice-point training vectors.
    training: BTreeMap<ChoicePointId, Vec<(Vec<f64>, Choice)>>,
}

impl BurstKnnBaseline {
    pub fn train(
        sessions: &[(&Trace, &[LabeledWindow])],
        bin_len: Duration,
        bins: usize,
        k: usize,
    ) -> Self {
        let mut training: BTreeMap<ChoicePointId, Vec<(Vec<f64>, Choice)>> = BTreeMap::new();
        for (trace, windows) in sessions {
            for w in *windows {
                let v = burst_vector(trace, w.question_time, bin_len, bins);
                training.entry(w.cp).or_default().push((v, w.choice));
            }
        }
        BurstKnnBaseline {
            bin_len,
            bins,
            k: k.max(1),
            training,
        }
    }

    /// Decode one victim session given its question times.
    pub fn decode(&self, trace: &Trace, questions: &[(ChoicePointId, SimTime)]) -> Vec<Choice> {
        questions
            .iter()
            .map(|(cp, t)| {
                let v = burst_vector(trace, *t, self.bin_len, self.bins);
                let Some(candidates) = self.training.get(cp) else {
                    return Choice::Default;
                };
                let mut scored: Vec<(f64, Choice)> =
                    candidates.iter().map(|(tv, c)| (l2(&v, tv), *c)).collect();
                scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
                let votes_n = scored
                    .iter()
                    .take(self.k)
                    .filter(|(_, c)| *c == Choice::NonDefault)
                    .count();
                if votes_n * 2 > self.k.min(scored.len()) {
                    Choice::NonDefault
                } else {
                    Choice::Default
                }
            })
            .collect()
    }

    pub fn name(&self) -> &'static str {
        "burst-knn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_capture::headers::{FlowId, TcpFlags};
    use wm_capture::tap::Tap;
    use wm_capture::tcp::TcpSegment;

    fn downstream(payload: usize) -> TcpSegment {
        TcpSegment {
            flow: FlowId {
                src_ip: [1, 1, 1, 1],
                src_port: 443,
                dst_ip: [2, 2, 2, 2],
                dst_port: 5000,
            },
            seq: 0,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            payload: vec![0; payload].into(),
            retransmit: false,
        }
    }

    /// Synthetic sanity check: when branches DO differ in volume the
    /// baseline can learn; the interesting result (near-chance on real
    /// Bandersnatch traffic) lives in the integration tests/benches.
    #[test]
    fn knn_learns_separable_volumes() {
        let make_trace = |bytes: usize| {
            let mut tap = Tap::new();
            tap.record_segment(SimTime(100_000), &downstream(bytes));
            tap.into_trace()
        };
        let big = make_trace(5_000);
        let small = make_trace(500);
        let cp = ChoicePointId(0);
        let w_default = [LabeledWindow {
            cp,
            choice: Choice::Default,
            question_time: SimTime::ZERO,
        }];
        let w_non = [LabeledWindow {
            cp,
            choice: Choice::NonDefault,
            question_time: SimTime::ZERO,
        }];
        let sessions: Vec<(&Trace, &[LabeledWindow])> =
            vec![(&big, &w_default[..]), (&small, &w_non[..])];
        let b = BurstKnnBaseline::train(&sessions, Duration::from_millis(500), 2, 1);
        let probe_big = make_trace(4_800);
        let picks = b.decode(&probe_big, &[(cp, SimTime::ZERO)]);
        assert_eq!(picks, vec![Choice::Default]);
        let probe_small = make_trace(520);
        let picks = b.decode(&probe_small, &[(cp, SimTime::ZERO)]);
        assert_eq!(picks, vec![Choice::NonDefault]);
    }

    #[test]
    fn unknown_choice_point_defaults() {
        let b = BurstKnnBaseline::train(&[], Duration::from_millis(100), 2, 3);
        let picks = b.decode(&Trace::new(), &[(ChoicePointId(9), SimTime::ZERO)]);
        assert_eq!(picks, vec![Choice::Default]);
    }
}
