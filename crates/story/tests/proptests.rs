//! Property-based tests for the story model.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_story::bandersnatch::{bandersnatch, tiny_film};
use wm_story::path::{sample_path, walk};
use wm_story::{Choice, ChoiceSequence, SegmentEnd};

/// Minimal splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn choices(&mut self) -> ChoiceSequence {
        let len = self.below(20);
        ChoiceSequence(
            (0..len)
                .map(|_| {
                    if self.below(2) == 1 {
                        Choice::NonDefault
                    } else {
                        Choice::Default
                    }
                })
                .collect(),
        )
    }
}

/// Every choice sequence walks to an ending, consumes at most the
/// graph's maximum decision depth, and replays identically.
#[test]
fn walks_terminate_and_replay() {
    for case in 0..200u64 {
        let mut rng = Rng(0x57_0000 + case);
        let choices = rng.choices();
        for graph in [bandersnatch(), tiny_film()] {
            let w1 = walk(&graph, &choices);
            assert!(graph.segment(w1.ending).is_ending(), "case {case}");
            assert!(
                w1.choices.len() <= graph.max_choices_on_path(),
                "case {case}"
            );
            assert_eq!(w1.encountered.len(), w1.choices.len(), "case {case}");
            let w2 = walk(&graph, &choices);
            assert_eq!(w1, w2, "case {case}");
        }
    }
}

/// The applied prefix of a walk equals the provided choices (until
/// the sequence is exhausted, after which only defaults appear).
#[test]
fn applied_prefix_matches() {
    for case in 0..200u64 {
        let mut rng = Rng(0x57_1000 + case);
        let choices = rng.choices();
        let graph = bandersnatch();
        let w = walk(&graph, &choices);
        for (i, c) in w.choices.0.iter().enumerate() {
            if i < choices.0.len() {
                assert_eq!(*c, choices.0[i], "case {case}");
            } else {
                assert_eq!(*c, Choice::Default, "case {case}");
            }
        }
    }
}

/// Each step's decision is consistent with the graph: the next
/// step's segment is the chosen option's target (or the Continue
/// successor).
#[test]
fn steps_follow_graph_edges() {
    for case in 0..200u64 {
        let mut rng = Rng(0x57_2000 + case);
        let choices = rng.choices();
        let graph = bandersnatch();
        let w = walk(&graph, &choices);
        for pair in w.steps.windows(2) {
            let cur = graph.segment(pair[0].segment);
            let next = pair[1].segment;
            match (cur.end, pair[0].decision) {
                (SegmentEnd::Continue(n), None) => assert_eq!(next, n, "case {case}"),
                (SegmentEnd::Choice(cp), Some((dcp, choice))) => {
                    assert_eq!(cp, dcp, "case {case}");
                    assert_eq!(
                        graph.choice_point(cp).option(choice).target,
                        next,
                        "case {case}"
                    );
                }
                (end, dec) => panic!("case {case}: inconsistent step: {end:?} vs {dec:?}"),
            }
        }
    }
}

/// Compact encoding round-trips every sequence.
#[test]
fn compact_roundtrip() {
    for case in 0..300u64 {
        let mut rng = Rng(0x57_3000 + case);
        let choices = rng.choices();
        let s: String = choices.0.iter().map(|c| c.letter()).collect();
        assert_eq!(
            ChoiceSequence::from_compact(&s),
            Some(choices),
            "case {case}"
        );
    }
}

/// Sampled paths respect the default-probability extremes and are
/// seed-deterministic.
#[test]
fn sampling_properties() {
    for case in 0..100u64 {
        let mut rng = Rng(0x57_4000 + case);
        let seed = rng.next();
        let graph = bandersnatch();
        let all_d = sample_path(&graph, seed, 1.0);
        assert!(
            all_d.choices.0.iter().all(|c| *c == Choice::Default),
            "case {case}"
        );
        let all_n = sample_path(&graph, seed, 0.0);
        assert!(
            all_n.choices.0.iter().all(|c| *c == Choice::NonDefault),
            "case {case}"
        );
        assert_eq!(
            sample_path(&graph, seed, 0.5),
            sample_path(&graph, seed, 0.5),
            "case {case}"
        );
    }
}

/// Path durations are bounded by the sum of all segment durations.
#[test]
fn durations_bounded() {
    for case in 0..200u64 {
        let mut rng = Rng(0x57_5000 + case);
        let choices = rng.choices();
        let graph = bandersnatch();
        let w = walk(&graph, &choices);
        let total: u64 = graph
            .segments()
            .iter()
            .map(|s| s.duration_secs as u64)
            .sum();
        let d = w.duration_secs(&graph);
        assert!(d > 0 && d <= total, "case {case}");
    }
}
