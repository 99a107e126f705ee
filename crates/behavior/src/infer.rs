//! Attribute inference from (decoded) choices — the paper's
//! "high-level implications" made executable.
//!
//! §VI: "We reach out to the research community to use this information
//! for behavioral studies." Given a viewer's choice sequence (as the
//! White Mirror attack recovers it from encrypted traffic), this module
//! computes the Bayesian posterior over Table I's behavioural
//! attributes under the generative model in [`crate::model`]:
//!
//! ```text
//! P(attrs | choices) ∝ P(attrs) · Π_i P(choice_i | attrs, cp_i)
//! ```
//!
//! The attribute grid is small (4 × 3 × 4 × 4 = 192 cells), so the
//! posterior is computed exactly. Because the eavesdropper's decode can
//! contain errors, the likelihood is used as-is — a few flipped choices
//! shift, but rarely flip, the MAP estimate.

use crate::attributes::{AgeGroup, BehaviorAttributes, Gender, PoliticalAlignment, StateOfMind};
use crate::model::BehaviorModel;
use wm_story::{Choice, ChoicePointId, StoryGraph};

/// Exact posterior over the attribute grid.
#[derive(Debug, Clone)]
pub struct AttributePosterior {
    /// `(attributes, posterior probability)`, descending.
    pub cells: Vec<(BehaviorAttributes, f64)>,
}

impl AttributePosterior {
    /// The MAP attribute assignment.
    pub fn map(&self) -> BehaviorAttributes {
        self.cells[0].0
    }

    /// Marginal posterior of each state-of-mind value.
    pub fn mind_marginals(&self) -> Vec<(StateOfMind, f64)> {
        StateOfMind::ALL
            .iter()
            .map(|&m| {
                (
                    m,
                    self.cells
                        .iter()
                        .filter(|(a, _)| a.mind == m)
                        .map(|(_, p)| p)
                        .sum(),
                )
            })
            .collect()
    }
}

/// Compute the exact posterior over all attribute combinations given a
/// choice sequence (uniform prior over the grid).
pub fn infer_attributes(
    graph: &StoryGraph,
    choices: &[(ChoicePointId, Choice)],
) -> AttributePosterior {
    let mut cells = Vec::with_capacity(192);
    for age in AgeGroup::ALL {
        for gender in Gender::ALL {
            for political in PoliticalAlignment::ALL {
                for mind in StateOfMind::ALL {
                    let attrs = BehaviorAttributes {
                        age,
                        gender,
                        political,
                        mind,
                    };
                    let model = BehaviorModel::new(attrs);
                    let mut log_like = 0.0f64;
                    for (cp, choice) in choices {
                        let p = model.p_default(graph, *cp).clamp(1e-6, 1.0 - 1e-6);
                        log_like += match choice {
                            Choice::Default => p.ln(),
                            Choice::NonDefault => (1.0 - p).ln(),
                        };
                    }
                    cells.push((attrs, log_like));
                }
            }
        }
    }
    // Normalize in log space.
    let max = cells
        .iter()
        .map(|(_, l)| *l)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for (_, l) in &mut cells {
        *l = (*l - max).exp();
        total += *l;
    }
    for (_, l) in &mut cells {
        *l /= total;
    }
    cells.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("normalized probabilities"));
    AttributePosterior { cells }
}

/// Tag-exposure profile of a choice sequence: how many picked options
/// carry each tag (the raw material of behavioural profiling).
pub fn tag_exposure(
    graph: &StoryGraph,
    choices: &[(ChoicePointId, Choice)],
) -> Vec<(wm_story::ChoiceTag, u32)> {
    let mut counts: Vec<(wm_story::ChoiceTag, u32)> =
        wm_story::ChoiceTag::ALL.iter().map(|&t| (t, 0)).collect();
    for (cp, choice) in choices {
        for tag in graph.choice_point(*cp).option(*choice).tags {
            let entry = counts
                .iter_mut()
                .find(|(t, _)| t == tag)
                .expect("ALL covers every tag");
            entry.1 += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::script_for;
    use wm_story::bandersnatch::bandersnatch;
    use wm_story::path::walk;
    use wm_story::ChoiceSequence;

    fn viewer_choices(
        graph: &StoryGraph,
        attrs: &BehaviorAttributes,
        seed: u64,
    ) -> Vec<(ChoicePointId, Choice)> {
        let script = script_for(graph, attrs, seed);
        let w = walk(graph, &ChoiceSequence(script.choices()));
        w.encountered.into_iter().zip(w.choices.0).collect()
    }

    #[test]
    fn posterior_is_normalized() {
        let g = bandersnatch();
        let attrs = BehaviorAttributes {
            age: AgeGroup::From20To25,
            gender: Gender::Male,
            political: PoliticalAlignment::Liberal,
            mind: StateOfMind::Happy,
        };
        let post = infer_attributes(&g, &viewer_choices(&g, &attrs, 1));
        let total: f64 = post.cells.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(post.cells.len(), 192);
        let minds: f64 = post.mind_marginals().iter().map(|(_, p)| p).sum();
        assert!((minds - 1.0).abs() < 1e-9);
    }

    #[test]
    fn discriminates_state_of_mind_above_chance() {
        // Binary discrimination (stressed vs happy) from three decoded
        // viewings per viewer: the posterior should beat the 50% coin
        // decisively (measured ~70% at this sample size; the behaviour
        // weights are intentionally modest).
        let g = bandersnatch();
        let mut correct = 0;
        let total = 60u64;
        for seed in 0..total {
            let mind = if seed % 2 == 0 {
                StateOfMind::Stressed
            } else {
                StateOfMind::Happy
            };
            let attrs = BehaviorAttributes {
                age: AgeGroup::From25To30,
                gender: Gender::Undisclosed,
                political: PoliticalAlignment::Centrist,
                mind,
            };
            let mut choices = Vec::new();
            for k in 0..3 {
                choices.extend(viewer_choices(&g, &attrs, 1000 + seed * 10 + k));
            }
            let post = infer_attributes(&g, &choices);
            let marginals = post.mind_marginals();
            let p = |m: StateOfMind| marginals.iter().find(|(v, _)| *v == m).expect("marginal").1;
            let inferred = if p(StateOfMind::Stressed) > p(StateOfMind::Happy) {
                StateOfMind::Stressed
            } else {
                StateOfMind::Happy
            };
            if inferred == mind {
                correct += 1;
            }
        }
        assert!(
            correct * 100 / total >= 60,
            "binary mind discrimination {correct}/{total} — should beat the coin"
        );
    }

    #[test]
    fn exposure_counts_tagged_picks() {
        let g = bandersnatch();
        // Pick "Attack" at cp12 (Violence) and "Chop it up" at cp14
        // (Violence + Risk).
        let choices = vec![
            (ChoicePointId(12), Choice::NonDefault),
            (ChoicePointId(14), Choice::NonDefault),
        ];
        let exposure = tag_exposure(&g, &choices);
        let violence = exposure
            .iter()
            .find(|(t, _)| *t == wm_story::ChoiceTag::Violence)
            .expect("tag present")
            .1;
        assert_eq!(violence, 2);
    }

    #[test]
    fn empty_choices_give_uniform_posterior() {
        let g = bandersnatch();
        let post = infer_attributes(&g, &[]);
        let (_, top) = post.cells[0];
        assert!((top - 1.0 / 192.0).abs() < 1e-9, "uniform without evidence");
    }

    #[test]
    fn noisy_decodes_degrade_gracefully() {
        // Flip ~14% of choices (well past the worst-case decode error)
        // and check the binary discrimination stays above the coin.
        let g = bandersnatch();
        let mut correct = 0;
        let total = 40u64;
        for seed in 0..total {
            let mind = if seed % 2 == 0 {
                StateOfMind::Stressed
            } else {
                StateOfMind::Happy
            };
            let attrs = BehaviorAttributes {
                age: AgeGroup::Over30,
                gender: Gender::Female,
                political: PoliticalAlignment::Undisclosed,
                mind,
            };
            let mut choices = Vec::new();
            for k in 0..3 {
                choices.extend(viewer_choices(&g, &attrs, 2000 + seed * 10 + k));
            }
            for (i, (_, c)) in choices.iter_mut().enumerate() {
                if (seed as usize + i).is_multiple_of(7) {
                    *c = c.flipped();
                }
            }
            let post = infer_attributes(&g, &choices);
            let marginals = post.mind_marginals();
            let p = |m: StateOfMind| marginals.iter().find(|(v, _)| *v == m).expect("marginal").1;
            let inferred = if p(StateOfMind::Stressed) > p(StateOfMind::Happy) {
                StateOfMind::Stressed
            } else {
                StateOfMind::Happy
            };
            if inferred == mind {
                correct += 1;
            }
        }
        assert!(
            correct * 100 / total >= 55,
            "noisy binary discrimination {correct}/{total}"
        );
    }
}
