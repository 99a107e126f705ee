//! Path traversal: turning a sequence of choices into a playback walk.

use crate::graph::StoryGraph;
use crate::model::{Choice, ChoicePointId, SegmentEnd, SegmentId};

/// Splitmix64 step (std-only; the workspace builds offline without the
/// `rand` crate). Used solely by [`sample_path`]'s biased coin.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform f64 in `[0, 1)` from a splitmix64 state.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The decisions a viewer made, in encounter order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChoiceSequence(pub Vec<Choice>);

impl ChoiceSequence {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Parse the compact form ([`Choice::letter`] per choice).
    pub fn from_compact(s: &str) -> Option<Self> {
        s.chars()
            .map(|ch| {
                [Choice::Default, Choice::NonDefault]
                    .into_iter()
                    .find(|c| c.letter() == ch)
            })
            .collect::<Option<Vec<_>>>()
            .map(ChoiceSequence)
    }
}

/// One step of a walk: a segment played, and the decision (if any) that
/// ended it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkStep {
    pub segment: SegmentId,
    /// The choice point shown when this segment finished, with the pick.
    pub decision: Option<(ChoicePointId, Choice)>,
}

/// A complete traversal from start to an ending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathWalk {
    pub steps: Vec<WalkStep>,
    /// The choices in encounter order (redundant with `steps`, kept for
    /// convenience: this is the ground truth the attack is scored on).
    pub choices: ChoiceSequence,
    /// Choice points in encounter order.
    pub encountered: Vec<ChoicePointId>,
    /// The ending segment reached.
    pub ending: SegmentId,
}

impl PathWalk {
    /// Total playback duration of all segments in seconds.
    pub fn duration_secs(&self, graph: &StoryGraph) -> u64 {
        self.steps
            .iter()
            .map(|s| graph.segment(s.segment).duration_secs as u64)
            .sum()
    }
}

/// Walk the graph applying `choices` in order.
///
/// If the sequence is shorter than the number of choice points
/// encountered, remaining decisions fall back to the default branch
/// (exactly what the player does when the viewer lets the timer lapse).
/// Extra trailing choices are ignored.
pub fn walk(graph: &StoryGraph, choices: &ChoiceSequence) -> PathWalk {
    let mut steps = Vec::new();
    let mut applied = Vec::new();
    let mut encountered = Vec::new();
    let mut current = graph.start();
    let mut idx = 0;
    loop {
        let seg = graph.segment(current);
        match seg.end {
            SegmentEnd::Ending => {
                steps.push(WalkStep {
                    segment: current,
                    decision: None,
                });
                return PathWalk {
                    steps,
                    choices: ChoiceSequence(applied),
                    encountered,
                    ending: current,
                };
            }
            SegmentEnd::Continue(next) => {
                steps.push(WalkStep {
                    segment: current,
                    decision: None,
                });
                current = next;
            }
            SegmentEnd::Choice(cp_id) => {
                let choice = choices.0.get(idx).copied().unwrap_or(Choice::Default);
                idx += 1;
                let cp = graph.choice_point(cp_id);
                steps.push(WalkStep {
                    segment: current,
                    decision: Some((cp_id, choice)),
                });
                applied.push(choice);
                encountered.push(cp_id);
                current = cp.option(choice).target;
            }
        }
    }
}

/// Sample a complete choice sequence by walking the graph and flipping a
/// biased coin at every choice point (`p_default` = probability of the
/// default branch).
pub fn sample_path(graph: &StoryGraph, seed: u64, p_default: f64) -> PathWalk {
    let mut rng_state = seed;
    let mut choices = Vec::new();
    let mut current = graph.start();
    loop {
        match graph.segment(current).end {
            SegmentEnd::Ending => break,
            SegmentEnd::Continue(next) => current = next,
            SegmentEnd::Choice(cp_id) => {
                let choice = if unit(&mut rng_state) < p_default {
                    Choice::Default
                } else {
                    Choice::NonDefault
                };
                choices.push(choice);
                current = graph.choice_point(cp_id).option(choice).target;
            }
        }
    }
    walk(graph, &ChoiceSequence(choices))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandersnatch::bandersnatch;

    #[test]
    fn compact_roundtrip() {
        let seq = ChoiceSequence(vec![
            Choice::Default,
            Choice::NonDefault,
            Choice::NonDefault,
            Choice::Default,
        ]);
        let letters: String = seq.0.iter().map(|c| c.letter()).collect();
        assert_eq!(letters, "DNND");
        assert_eq!(ChoiceSequence::from_compact("DNND"), Some(seq));
        assert_eq!(ChoiceSequence::from_compact("DXN"), None);
    }

    #[test]
    fn all_default_walk_terminates() {
        let g = bandersnatch();
        let walk = walk(&g, &ChoiceSequence::default());
        assert!(g.segment(walk.ending).is_ending());
        assert!(!walk.encountered.is_empty());
        assert!(walk.choices.0.iter().all(|c| *c == Choice::Default));
        assert_eq!(walk.choices.len(), walk.encountered.len());
    }

    #[test]
    fn all_nondefault_walk_terminates() {
        let g = bandersnatch();
        let many_n = ChoiceSequence(vec![Choice::NonDefault; 64]);
        let w = walk(&g, &many_n);
        assert!(g.segment(w.ending).is_ending());
        assert!(w.choices.0.iter().all(|c| *c == Choice::NonDefault));
    }

    #[test]
    fn short_sequence_falls_back_to_default() {
        let g = bandersnatch();
        let w = walk(&g, &ChoiceSequence(vec![Choice::NonDefault]));
        assert_eq!(w.choices.0[0], Choice::NonDefault);
        assert!(w.choices.0[1..].iter().all(|c| *c == Choice::Default));
    }

    #[test]
    fn sampling_is_deterministic_and_varied() {
        let g = bandersnatch();
        let a = sample_path(&g, 7, 0.5);
        let b = sample_path(&g, 7, 0.5);
        assert_eq!(a, b);
        let c = sample_path(&g, 8, 0.5);
        // Different seeds almost surely differ on a graph this size.
        assert_ne!(a.choices, c.choices);
    }

    #[test]
    fn p_default_extremes() {
        let g = bandersnatch();
        let all_d = sample_path(&g, 1, 1.0);
        assert!(all_d.choices.0.iter().all(|c| *c == Choice::Default));
        let all_n = sample_path(&g, 1, 0.0);
        assert!(all_n.choices.0.iter().all(|c| *c == Choice::NonDefault));
    }

    #[test]
    fn walk_duration_positive() {
        let g = bandersnatch();
        let w = sample_path(&g, 3, 0.5);
        assert!(
            w.duration_secs(&g) > 600,
            "a viewing should exceed 10 minutes"
        );
    }
}
