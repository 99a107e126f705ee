//! Evaluation metrics: per-record confusion and per-choice accuracy.
//!
//! Every ratio in this module is total: empty inputs (no records, no
//! choices — an empty or unparseable capture) define the metric as 1.0
//! (vacuous truth) rather than dividing by zero into NaN. The
//! `empty_inputs_never_nan` test pins that audit down.

use crate::decode::DecodedChoice;
use wm_capture::labels::RecordClass;
use wm_story::{Choice, ChoicePointId};

/// 3×3 confusion matrix over record classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// `counts[truth][predicted]`, indexed Type1=0, Type2=1, Other=2.
    pub counts: [[u64; 3]; 3],
}

fn idx(c: RecordClass) -> usize {
    match c {
        RecordClass::Type1 => 0,
        RecordClass::Type2 => 1,
        RecordClass::Other => 2,
    }
}

impl ConfusionMatrix {
    pub fn record(&mut self, truth: RecordClass, predicted: RecordClass) {
        self.counts[idx(truth)][idx(predicted)] += 1;
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..3).map(|i| self.counts[i][i]).sum();
        let total = self.total();
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Recall for one class (1.0 when the class never occurred).
    pub fn recall(&self, class: RecordClass) -> f64 {
        let i = idx(class);
        let actual: u64 = self.counts[i].iter().sum();
        if actual == 0 {
            1.0
        } else {
            self.counts[i][i] as f64 / actual as f64
        }
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        for i in 0..3 {
            for j in 0..3 {
                self.counts[i][j] += other.counts[i][j];
            }
        }
    }
}

impl std::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>12} | {:>8} {:>8} {:>8}",
            "truth\\pred", "type-1", "type-2", "others"
        )?;
        for (i, name) in ["type-1", "type-2", "others"].iter().enumerate() {
            writeln!(
                f,
                "{:>12} | {:>8} {:>8} {:>8}",
                name, self.counts[i][0], self.counts[i][1], self.counts[i][2]
            )?;
        }
        Ok(())
    }
}

/// Per-choice scoring of one decoded session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChoiceAccuracy {
    pub correct: u64,
    pub total: u64,
    /// Decisions where even the choice *point* was wrong (path diverged).
    pub misaligned: u64,
}

impl ChoiceAccuracy {
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    pub fn merge(&mut self, other: &ChoiceAccuracy) {
        self.correct += other.correct;
        self.total += other.total;
        self.misaligned += other.misaligned;
    }
}

/// Score a decoded sequence against the ground truth.
///
/// A position counts as correct only if both the choice point and the
/// pick match; length mismatches count as errors on the longer side
/// (nothing is silently truncated).
pub fn choice_accuracy(
    decoded: &[DecodedChoice],
    truth: &[(ChoicePointId, Choice)],
) -> ChoiceAccuracy {
    let mut acc = ChoiceAccuracy {
        total: decoded.len().max(truth.len()) as u64,
        ..Default::default()
    };
    for (d, (cp, choice)) in decoded.iter().zip(truth.iter()) {
        if d.cp != *cp {
            acc.misaligned += 1;
        } else if d.choice == *choice {
            acc.correct += 1;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_capture::time::SimTime;

    fn dc(cp: u16, choice: Choice) -> DecodedChoice {
        DecodedChoice {
            cp: ChoicePointId(cp),
            choice,
            time: SimTime::ZERO,
            observed: true,
            confidence: 1.0,
        }
    }

    #[test]
    fn confusion_accuracy() {
        let mut m = ConfusionMatrix::default();
        for _ in 0..9 {
            m.record(RecordClass::Type1, RecordClass::Type1);
        }
        m.record(RecordClass::Type1, RecordClass::Other);
        assert_eq!(m.total(), 10);
        assert!((m.accuracy() - 0.9).abs() < 1e-12);
        assert!((m.recall(RecordClass::Type1) - 0.9).abs() < 1e-12);
        assert_eq!(m.recall(RecordClass::Type2), 1.0, "absent class");
    }

    #[test]
    fn confusion_merge() {
        let mut a = ConfusionMatrix::default();
        a.record(RecordClass::Type1, RecordClass::Type1);
        let mut b = ConfusionMatrix::default();
        b.record(RecordClass::Type2, RecordClass::Other);
        a.merge(&b);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn choice_accuracy_exact_match() {
        let truth = vec![
            (ChoicePointId(0), Choice::Default),
            (ChoicePointId(1), Choice::NonDefault),
        ];
        let decoded = vec![dc(0, Choice::Default), dc(1, Choice::NonDefault)];
        let acc = choice_accuracy(&decoded, &truth);
        assert_eq!(acc.correct, 2);
        assert_eq!(acc.total, 2);
        assert_eq!(acc.accuracy(), 1.0);
    }

    #[test]
    fn choice_accuracy_wrong_pick() {
        let truth = vec![(ChoicePointId(0), Choice::NonDefault)];
        let decoded = vec![dc(0, Choice::Default)];
        let acc = choice_accuracy(&decoded, &truth);
        assert_eq!(acc.correct, 0);
        assert_eq!(acc.misaligned, 0);
    }

    #[test]
    fn choice_accuracy_divergent_path() {
        let truth = vec![
            (ChoicePointId(0), Choice::Default),
            (ChoicePointId(1), Choice::Default),
        ];
        let decoded = vec![dc(0, Choice::Default), dc(5, Choice::Default)];
        let acc = choice_accuracy(&decoded, &truth);
        assert_eq!(acc.correct, 1);
        assert_eq!(acc.misaligned, 1);
    }

    #[test]
    fn choice_accuracy_length_mismatch() {
        let truth = vec![
            (ChoicePointId(0), Choice::Default),
            (ChoicePointId(1), Choice::Default),
            (ChoicePointId(2), Choice::Default),
        ];
        let decoded = vec![dc(0, Choice::Default)];
        let acc = choice_accuracy(&decoded, &truth);
        assert_eq!(acc.total, 3);
        assert_eq!(acc.correct, 1);
        assert!((acc.accuracy() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_perfect() {
        let acc = choice_accuracy(&[], &[]);
        assert_eq!(acc.accuracy(), 1.0);
    }

    #[test]
    fn empty_inputs_never_nan() {
        // Audit for divide-by-zero on empty captures: every ratio this
        // module exposes must be finite (and vacuously 1.0) with zero
        // observations.
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 1.0);
        for class in [RecordClass::Type1, RecordClass::Type2, RecordClass::Other] {
            assert_eq!(m.recall(class), 1.0);
            assert!(m.recall(class).is_finite());
        }
        let acc = ChoiceAccuracy::default();
        assert_eq!(acc.accuracy(), 1.0);
        assert!(acc.accuracy().is_finite());
        assert!(choice_accuracy(&[], &[]).accuracy().is_finite());
    }

    #[test]
    fn display_formats() {
        let mut m = ConfusionMatrix::default();
        m.record(RecordClass::Type1, RecordClass::Type1);
        let s = m.to_string();
        assert!(s.contains("type-1"));
        assert!(s.contains("others"));
    }
}
