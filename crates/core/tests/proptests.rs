//! Property-based tests for the attack pipeline.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_capture::labels::{LabeledRecord, RecordClass};
use wm_capture::time::SimTime;
use wm_core::classify::{HistogramClassifier, IntervalClassifier, KnnClassifier, RecordClassifier};
use wm_core::metrics::{choice_accuracy, ConfusionMatrix};
use wm_core::DecodedChoice;
use wm_story::{Choice, ChoicePointId};

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
    fn bools(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.below(2) == 1).collect()
    }
}

fn labelled(length: u16, class: RecordClass) -> LabeledRecord {
    LabeledRecord {
        time: SimTime::ZERO,
        length,
        class,
    }
}

/// A well-separated synthetic training set with random band positions
/// (type-2 strictly above type-1 by ≥ 200).
fn arb_training(rng: &mut Rng) -> (Vec<LabeledRecord>, (u16, u16), (u16, u16)) {
    let t1_lo = 1500 + rng.below(1000) as u16;
    let t1_w = rng.below(12) as u16;
    let gap = 200 + rng.below(200) as u16;
    let t2_w = rng.below(30) as u16;
    let t1 = (t1_lo, t1_lo + t1_w);
    let t2_lo = t1.1 + gap;
    let t2 = (t2_lo, t2_lo + t2_w);
    let mut set = Vec::new();
    for l in [t1.0, (t1.0 + t1.1) / 2, t1.1] {
        set.push(labelled(l, RecordClass::Type1));
    }
    for l in [t2.0, (t2.0 + t2.1) / 2, t2.1] {
        set.push(labelled(l, RecordClass::Type2));
    }
    for l in [300u16, 550, 900, 5000, 9000] {
        set.push(labelled(l, RecordClass::Other));
    }
    (set, t1, t2)
}

/// The interval classifier recalls every training example of the
/// report classes, for any band geometry.
#[test]
fn interval_perfect_training_recall() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_0000 + case);
        let (set, _, _) = arb_training(&mut rng);
        let slack = rng.below(8) as u16;
        let c = IntervalClassifier::train(&set, slack).expect("both classes present");
        let mut m = ConfusionMatrix::default();
        for r in &set {
            m.record(r.class, c.classify(r.length));
        }
        assert_eq!(m.recall(RecordClass::Type1), 1.0, "case {case}");
        assert_eq!(m.recall(RecordClass::Type2), 1.0, "case {case}");
    }
}

/// All three classifier families agree on points well inside the
/// bands and far outside them.
#[test]
fn classifier_families_agree_on_clear_points() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_1000 + case);
        let (set, t1, t2) = arb_training(&mut rng);
        let interval = IntervalClassifier::train(&set, 0).expect("train");
        let hist = HistogramClassifier::train(&set, 4);
        let knn = KnnClassifier::train(&set, 3);
        let mid_t1 = (t1.0 + t1.1) / 2;
        let mid_t2 = (t2.0 + t2.1) / 2;
        for (len, want) in [
            (mid_t1, RecordClass::Type1),
            (mid_t2, RecordClass::Type2),
            (300u16, RecordClass::Other),
            (9000u16, RecordClass::Other),
        ] {
            assert_eq!(
                interval.classify(len),
                want,
                "case {case}: interval at {len}"
            );
            assert_eq!(hist.classify(len), want, "case {case}: hist at {len}");
            assert_eq!(knn.classify(len), want, "case {case}: knn at {len}");
        }
    }
}

/// Confusion-matrix identities hold for arbitrary prediction
/// streams: total preserved, accuracy within [0,1], row sums match.
#[test]
fn confusion_identities() {
    const CLASSES: [RecordClass; 3] = [RecordClass::Type1, RecordClass::Type2, RecordClass::Other];
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_2000 + case);
        let n = rng.below(200);
        let pairs: Vec<(usize, usize)> = (0..n).map(|_| (rng.below(3), rng.below(3))).collect();
        let mut m = ConfusionMatrix::default();
        for (t, p) in &pairs {
            m.record(CLASSES[*t], CLASSES[*p]);
        }
        assert_eq!(m.total(), pairs.len() as u64, "case {case}");
        let acc = m.accuracy();
        assert!((0.0..=1.0).contains(&acc), "case {case}");
        for class in CLASSES {
            assert!((0.0..=1.0).contains(&m.recall(class)), "case {case}");
        }
    }
}

/// choice_accuracy is symmetric in totals and bounded.
#[test]
fn choice_accuracy_bounds() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_3000 + case);
        let decoded_len = rng.below(20);
        let decoded_bits = rng.bools(decoded_len);
        let truth_len = rng.below(20);
        let truth_bits = rng.bools(truth_len);
        let decoded: Vec<DecodedChoice> = decoded_bits
            .iter()
            .enumerate()
            .map(|(i, b)| DecodedChoice {
                cp: ChoicePointId(i as u16),
                choice: if *b {
                    Choice::NonDefault
                } else {
                    Choice::Default
                },
                time: SimTime::ZERO,
                observed: true,
                confidence: 1.0,
            })
            .collect();
        let truth: Vec<(ChoicePointId, Choice)> = truth_bits
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    ChoicePointId(i as u16),
                    if *b {
                        Choice::NonDefault
                    } else {
                        Choice::Default
                    },
                )
            })
            .collect();
        let acc = choice_accuracy(&decoded, &truth);
        assert_eq!(
            acc.total as usize,
            decoded.len().max(truth.len()),
            "case {case}"
        );
        assert!(acc.correct <= acc.total, "case {case}");
        assert!((0.0..=1.0).contains(&acc.accuracy()), "case {case}");
    }
}
