//! Core types of the interactive film model.

/// Index of a segment within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u16);

/// Index of a choice point within its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChoicePointId(pub u16);

/// A viewer's pick at one choice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// The option Netflix prefetches (the paper's `Si`).
    Default,
    /// The other option (the paper's `Si'`): picking it cancels the
    /// prefetch and triggers the extra type-2 state report.
    NonDefault,
}

impl Choice {
    /// Option index: default = 0, non-default = 1.
    pub fn index(self) -> usize {
        match self {
            Choice::Default => 0,
            Choice::NonDefault => 1,
        }
    }

    /// The letter of the compact form ("DNDD…") used in reports and
    /// ground-truth files: `D` default, `N` non-default.
    /// [`crate::ChoiceSequence::from_compact`] parses it.
    pub fn letter(self) -> char {
        match self {
            Choice::Default => 'D',
            Choice::NonDefault => 'N',
        }
    }
}

/// Behavioural meaning of picking an option — the vocabulary the viewer
/// behaviour model (`wm-behavior`) keys its preferences on, and what an
/// adversary ultimately profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChoiceTag {
    /// Familiar, safe, comforting picks (the known cereal, the hit tape).
    Comfort,
    /// Novel or contrarian picks.
    Novelty,
    /// Doing what an authority figure suggests.
    Compliance,
    /// Refusing, talking back, acting out.
    Defiance,
    /// Violent options.
    Violence,
    /// Sparing, de-escalating options.
    Mercy,
    /// Suspicious, conspiratorial readings of events.
    Paranoia,
    /// Grounded, skeptical readings.
    Rationality,
    /// Dwelling on the past.
    Nostalgia,
    /// Physically or socially risky picks.
    Risk,
    /// Retreating inward, refusing help.
    Withdrawal,
    /// Opening up, accepting help.
    Engagement,
}

impl ChoiceTag {
    /// All tags (for summaries and property tests).
    pub const ALL: [ChoiceTag; 12] = [
        ChoiceTag::Comfort,
        ChoiceTag::Novelty,
        ChoiceTag::Compliance,
        ChoiceTag::Defiance,
        ChoiceTag::Violence,
        ChoiceTag::Mercy,
        ChoiceTag::Paranoia,
        ChoiceTag::Rationality,
        ChoiceTag::Nostalgia,
        ChoiceTag::Risk,
        ChoiceTag::Withdrawal,
        ChoiceTag::Engagement,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ChoiceTag::Comfort => "comfort",
            ChoiceTag::Novelty => "novelty",
            ChoiceTag::Compliance => "compliance",
            ChoiceTag::Defiance => "defiance",
            ChoiceTag::Violence => "violence",
            ChoiceTag::Mercy => "mercy",
            ChoiceTag::Paranoia => "paranoia",
            ChoiceTag::Rationality => "rationality",
            ChoiceTag::Nostalgia => "nostalgia",
            ChoiceTag::Risk => "risk",
            ChoiceTag::Withdrawal => "withdrawal",
            ChoiceTag::Engagement => "engagement",
        }
    }
}

/// One selectable option at a choice point.
#[derive(Debug, Clone)]
pub struct ChoiceOption {
    /// On-screen caption.
    pub label: &'static str,
    /// Segment played if this option is picked.
    pub target: SegmentId,
    /// Behavioural meaning of picking it.
    pub tags: &'static [ChoiceTag],
}

/// A two-option choice point (Bandersnatch is strictly binary).
///
/// `options[0]` is the **default** branch — the one the player
/// prefetches and auto-selects when the 10-second timer lapses.
#[derive(Debug, Clone)]
pub struct ChoicePoint {
    pub id: ChoicePointId,
    /// The on-screen question ("Frosties or Sugar Puffs?").
    pub question: &'static str,
    pub options: [ChoiceOption; 2],
}

impl ChoicePoint {
    /// The option a [`Choice`] refers to.
    pub fn option(&self, choice: Choice) -> &ChoiceOption {
        let [default, other] = &self.options;
        match choice {
            Choice::Default => default,
            Choice::NonDefault => other,
        }
    }

    /// The prefetched branch target.
    pub fn default_target(&self) -> SegmentId {
        self.option(Choice::Default).target
    }
}

/// What playback does when a segment's content is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentEnd {
    /// Present a choice point.
    Choice(ChoicePointId),
    /// Continue straight into another segment (scene boundary without a
    /// viewer decision — these exist because segments are also split at
    /// technical boundaries).
    Continue(SegmentId),
    /// An ending: playback stops (credits).
    Ending,
}

/// One linear piece of content.
#[derive(Debug, Clone)]
pub struct Segment {
    pub id: SegmentId,
    /// Descriptive name ("cereal choice aftermath"), not script text.
    pub name: &'static str,
    /// Playback duration in seconds.
    pub duration_secs: u32,
    pub end: SegmentEnd,
}

impl Segment {
    /// True if this segment rolls credits.
    pub fn is_ending(&self) -> bool {
        matches!(self.end, SegmentEnd::Ending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_have_unique_labels() {
        let mut labels: Vec<&str> = ChoiceTag::ALL.iter().map(|t| t.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ChoiceTag::ALL.len());
    }

    #[test]
    fn choice_point_accessors() {
        let cp = ChoicePoint {
            id: ChoicePointId(0),
            question: "q?",
            options: [
                ChoiceOption {
                    label: "a",
                    target: SegmentId(1),
                    tags: &[ChoiceTag::Comfort],
                },
                ChoiceOption {
                    label: "b",
                    target: SegmentId(2),
                    tags: &[ChoiceTag::Novelty],
                },
            ],
        };
        assert_eq!(cp.default_target(), SegmentId(1));
        assert_eq!(cp.option(Choice::NonDefault).target, SegmentId(2));
    }
}
