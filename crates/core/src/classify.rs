//! Record-length classifiers.
//!
//! The paper distinguishes type-1 and type-2 state reports from all
//! other client records "by their SSL record lengths". The natural
//! formalization — and evidently what the authors did — is to learn,
//! per operating condition, the length *band* each report type occupies
//! and classify by band membership. That is [`IntervalClassifier`].
//! Two standard 1-D alternatives are provided for comparison (used by
//! the ablation benches): a histogram naive-Bayes and a k-nearest-
//! neighbour vote.

use std::collections::BTreeMap;
use wm_capture::labels::{LabeledRecord, RecordClass};

/// Anything that can label a record length.
pub trait RecordClassifier {
    /// Classify one sealed record length.
    fn classify(&self, length: u16) -> RecordClass;

    /// Classify a contiguous array of record lengths, appending one
    /// class per length to `out`. The streaming engine batches every
    /// packet's records through this so the dominant classifier can run
    /// a branch-lean kernel; the default is the scalar loop and any
    /// override must agree with [`RecordClassifier::classify`] on every
    /// length.
    fn classify_lengths(&self, lengths: &[u16], out: &mut Vec<RecordClass>) {
        out.reserve(lengths.len());
        for &length in lengths {
            out.push(self.classify(length));
        }
    }

    /// Short label for experiment output.
    fn name(&self) -> &'static str;
}

/// The paper's method: per-class inclusive length bands.
///
/// Training records of the `Other` class are used to *shrink nothing* —
/// the bands are defined by the report classes alone; an observation is
/// `Other` unless it falls inside a report band. A small symmetric
/// `slack` widens each band to cover unseen jitter.
#[derive(Debug, Clone)]
pub struct IntervalClassifier {
    pub type1: (u16, u16),
    pub type2: (u16, u16),
    pub slack: u16,
}

impl IntervalClassifier {
    /// Learn the bands from labelled records.
    ///
    /// Returns `None` if either report class is absent from training —
    /// the attack needs at least one example of each.
    pub fn train(records: &[LabeledRecord], slack: u16) -> Option<Self> {
        let band = |class: RecordClass| -> Option<(u16, u16)> {
            let lens: Vec<u16> = records
                .iter()
                .filter(|r| r.class == class)
                .map(|r| r.length)
                .collect();
            Some((*lens.iter().min()?, *lens.iter().max()?))
        };
        Some(IntervalClassifier {
            type1: band(RecordClass::Type1)?,
            type2: band(RecordClass::Type2)?,
            slack,
        })
    }

    fn in_band(&self, band: (u16, u16), length: u16) -> bool {
        let lo = band.0.saturating_sub(self.slack);
        let hi = band.1.saturating_add(self.slack);
        (lo..=hi).contains(&length)
    }

    /// Slack-widened inclusive bounds as `(lo, width)` pairs, the form
    /// the branch-lean membership test consumes: `length` is in a band
    /// iff `length.wrapping_sub(lo) <= width` (a single unsigned
    /// compare, valid because `lo <= hi` by construction).
    fn widened(&self) -> ((u16, u16), (u16, u16)) {
        let lo1 = self.type1.0.saturating_sub(self.slack);
        let hi1 = self.type1.1.saturating_add(self.slack);
        let lo2 = self.type2.0.saturating_sub(self.slack);
        let hi2 = self.type2.1.saturating_add(self.slack);
        ((lo1, hi1.wrapping_sub(lo1)), (lo2, hi2.wrapping_sub(lo2)))
    }
}

/// Band-membership lookup: bit 0 = in the type-1 band, bit 1 = in the
/// type-2 band. Type-1 wins if the slack-widened bands ever overlap,
/// matching the scalar test order.
const BAND_LUT: [RecordClass; 4] = [
    RecordClass::Other,
    RecordClass::Type1,
    RecordClass::Type2,
    RecordClass::Type1,
];

impl IntervalClassifier {
    /// Serialize the trained bands (for reuse across runs — the
    /// attacker trains once per condition and keeps the model).
    pub fn to_json(&self) -> wm_json::Value {
        wm_json::Value::object(vec![
            ("type1Lo".into(), wm_json::Value::from(self.type1.0 as i64)),
            ("type1Hi".into(), wm_json::Value::from(self.type1.1 as i64)),
            ("type2Lo".into(), wm_json::Value::from(self.type2.0 as i64)),
            ("type2Hi".into(), wm_json::Value::from(self.type2.1 as i64)),
            ("slack".into(), wm_json::Value::from(self.slack as i64)),
        ])
    }

    /// Reload a serialized model. Returns `None` on schema mismatch or
    /// inconsistent bands.
    pub fn from_json(v: &wm_json::Value) -> Option<Self> {
        let get = |k: &str| -> Option<u16> {
            let x = v.get(k)?.as_i64()?;
            u16::try_from(x).ok()
        };
        let c = IntervalClassifier {
            type1: (get("type1Lo")?, get("type1Hi")?),
            type2: (get("type2Lo")?, get("type2Hi")?),
            slack: get("slack")?,
        };
        (c.type1.0 <= c.type1.1 && c.type2.0 <= c.type2.1).then_some(c)
    }
}

impl RecordClassifier for IntervalClassifier {
    fn classify(&self, length: u16) -> RecordClass {
        // Report bands are disjoint in every condition (type-2 carries
        // ~800 extra bytes); test type-1 first regardless.
        if self.in_band(self.type1, length) {
            RecordClass::Type1
        } else if self.in_band(self.type2, length) {
            RecordClass::Type2
        } else {
            RecordClass::Other
        }
    }

    /// Branch-lean kernel: two unsigned compares and a 4-entry table
    /// lookup per length, no data-dependent branches — the loop
    /// auto-vectorizes over contiguous length arrays.
    // wm-lint: hotpath
    fn classify_lengths(&self, lengths: &[u16], out: &mut Vec<RecordClass>) {
        let ((lo1, w1), (lo2, w2)) = self.widened();
        out.reserve(lengths.len());
        for &length in lengths {
            let m1 = usize::from(length.wrapping_sub(lo1) <= w1);
            let m2 = usize::from(length.wrapping_sub(lo2) <= w2);
            // The index is below 4, so `get` never misses and compiles
            // to the same load as indexing.
            let class = BAND_LUT.get(m1 | (m2 << 1)).copied();
            out.push(class.unwrap_or(RecordClass::Other));
        }
    }

    fn name(&self) -> &'static str {
        "interval"
    }
}

/// Histogram naive-Bayes over binned lengths with Laplace smoothing.
#[derive(Debug, Clone)]
pub struct HistogramClassifier {
    bin_width: u16,
    /// bin → per-class counts.
    bins: BTreeMap<u16, [u32; 3]>,
    /// Class priors (record counts).
    totals: [u32; 3],
}

impl HistogramClassifier {
    pub fn train(records: &[LabeledRecord], bin_width: u16) -> Self {
        let bin_width = bin_width.max(1);
        let mut bins: BTreeMap<u16, [u32; 3]> = BTreeMap::new();
        let mut totals = [0u32; 3];
        for r in records {
            let b = r.length / bin_width;
            *slot(bins.entry(b).or_default(), r.class) += 1;
            *slot(&mut totals, r.class) += 1;
        }
        HistogramClassifier {
            bin_width,
            bins,
            totals,
        }
    }
}

impl RecordClassifier for HistogramClassifier {
    fn classify(&self, length: u16) -> RecordClass {
        let b = length / self.bin_width;
        let counts = self.bins.get(&b).copied().unwrap_or([0; 3]);
        if counts == [0; 3] {
            // Unseen bin: report bands are compact, so anything outside
            // every observed bin is background traffic.
            return RecordClass::Other;
        }
        let mut best = RecordClass::Other;
        let mut best_score = f64::MIN;
        for ((class, total), count) in RecordClass::ALL.into_iter().zip(self.totals).zip(counts) {
            let prior = (total as f64 + 1.0) / (self.totals.iter().sum::<u32>() as f64 + 3.0);
            let likelihood = (count as f64 + 0.1) / (total as f64 + 1.0);
            let score = prior.ln() + likelihood.ln();
            if score > best_score {
                best_score = score;
                best = class;
            }
        }
        best
    }

    fn name(&self) -> &'static str {
        "histogram-bayes"
    }
}

/// k-nearest-neighbour majority vote on the 1-D length axis.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    /// (length, class) sorted by length.
    points: Vec<(u16, RecordClass)>,
    k: usize,
}

impl KnnClassifier {
    pub fn train(records: &[LabeledRecord], k: usize) -> Self {
        let mut points: Vec<(u16, RecordClass)> =
            records.iter().map(|r| (r.length, r.class)).collect();
        points.sort_by_key(|(l, _)| *l);
        KnnClassifier {
            points,
            k: k.max(1),
        }
    }
}

impl RecordClassifier for KnnClassifier {
    fn classify(&self, length: u16) -> RecordClass {
        if self.points.is_empty() {
            return RecordClass::Other;
        }
        // Expand a window around the insertion point.
        let pos = self.points.partition_point(|(l, _)| *l < length);
        let mut lo = pos;
        let mut hi = pos;
        let mut neighbours: Vec<(u16, RecordClass)> = Vec::with_capacity(self.k);
        while neighbours.len() < self.k {
            let left = lo.checked_sub(1).and_then(|i| self.points.get(i));
            let right = self.points.get(hi);
            match (left, right) {
                (Some(&l), Some(r)) if length.abs_diff(l.0) <= length.abs_diff(r.0) => {
                    lo -= 1;
                    neighbours.push(l);
                }
                (Some(&l), None) => {
                    lo -= 1;
                    neighbours.push(l);
                }
                (_, Some(&r)) => {
                    neighbours.push(r);
                    hi += 1;
                }
                (None, None) => break,
            }
        }
        let mut votes = [0u32; 3];
        for (_, class) in neighbours {
            *slot(&mut votes, class) += 1;
        }
        // The last of equal maxima wins, as `Iterator::max_by_key` picks.
        RecordClass::ALL
            .into_iter()
            .zip(votes)
            .max_by_key(|&(_, v)| v)
            .map_or(RecordClass::Other, |(class, _)| class)
    }

    fn name(&self) -> &'static str {
        "knn"
    }
}

/// `class`'s slot in per-class counts kept in [`RecordClass::ALL`]
/// order.
fn slot(counts: &mut [u32; 3], class: RecordClass) -> &mut u32 {
    let [type1, type2, other] = counts;
    match class {
        RecordClass::Type1 => type1,
        RecordClass::Type2 => type2,
        RecordClass::Other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_capture::time::SimTime;

    fn labelled(length: u16, class: RecordClass) -> LabeledRecord {
        LabeledRecord {
            time: SimTime::ZERO,
            length,
            class,
        }
    }

    /// Training set mirroring the paper's Ubuntu condition.
    fn training() -> Vec<LabeledRecord> {
        let mut set = Vec::new();
        for l in [2211u16, 2212, 2213, 2212, 2211] {
            set.push(labelled(l, RecordClass::Type1));
        }
        for l in [2995u16, 3001, 3011, 3017, 2992] {
            set.push(labelled(l, RecordClass::Type2));
        }
        for l in [540u16, 556, 873, 2266, 2430, 2788, 4420, 8800, 236, 37] {
            set.push(labelled(l, RecordClass::Other));
        }
        set
    }

    #[test]
    fn interval_learns_paper_bands() {
        let c = IntervalClassifier::train(&training(), 0).unwrap();
        assert_eq!(c.type1, (2211, 2213));
        assert_eq!(c.type2, (2992, 3017));
        assert_eq!(c.classify(2212), RecordClass::Type1);
        assert_eq!(c.classify(3000), RecordClass::Type2);
        assert_eq!(c.classify(2500), RecordClass::Other);
        assert_eq!(c.classify(540), RecordClass::Other);
        assert_eq!(c.classify(16400), RecordClass::Other);
    }

    #[test]
    fn interval_slack_widens() {
        let c = IntervalClassifier::train(&training(), 2).unwrap();
        assert_eq!(c.classify(2209), RecordClass::Type1);
        assert_eq!(c.classify(2215), RecordClass::Type1);
        assert_eq!(c.classify(2208), RecordClass::Other);
    }

    #[test]
    fn batch_kernel_agrees_with_scalar_on_every_length() {
        // Exhaustive over the whole u16 domain, including slack pushing
        // bounds into saturation at both ends.
        let cases = [
            IntervalClassifier::train(&training(), 0).unwrap(),
            IntervalClassifier::train(&training(), 7).unwrap(),
            IntervalClassifier {
                type1: (0, 3),
                type2: (65530, 65535),
                slack: 10,
            },
            IntervalClassifier {
                type1: (100, 200),
                type2: (150, 300), // overlapping bands: type-1 must win
                slack: 0,
            },
        ];
        for c in &cases {
            let lengths: Vec<u16> = (0..=u16::MAX).collect();
            let mut batch = Vec::new();
            c.classify_lengths(&lengths, &mut batch);
            assert_eq!(batch.len(), lengths.len());
            for (&l, &got) in lengths.iter().zip(&batch) {
                assert_eq!(
                    got,
                    c.classify(l),
                    "bands {:?}/{:?} len {l}",
                    c.type1,
                    c.type2
                );
            }
        }
    }

    #[test]
    fn default_batch_matches_scalar_for_other_classifiers() {
        let lengths: Vec<u16> = (0..5000).map(|i| (i * 7 % 9000) as u16).collect();
        let hist = HistogramClassifier::train(&training(), 8);
        let knn = KnnClassifier::train(&training(), 3);
        let mut out = Vec::new();
        hist.classify_lengths(&lengths, &mut out);
        assert!(lengths
            .iter()
            .zip(&out)
            .all(|(&l, &c)| c == hist.classify(l)));
        out.clear();
        knn.classify_lengths(&lengths, &mut out);
        assert!(lengths
            .iter()
            .zip(&out)
            .all(|(&l, &c)| c == knn.classify(l)));
    }

    #[test]
    fn interval_needs_both_classes() {
        let only_others = vec![labelled(500, RecordClass::Other)];
        assert!(IntervalClassifier::train(&only_others, 0).is_none());
    }

    #[test]
    fn histogram_separates_bands() {
        let c = HistogramClassifier::train(&training(), 8);
        assert_eq!(c.classify(2212), RecordClass::Type1);
        assert_eq!(c.classify(3000), RecordClass::Type2);
        assert_eq!(c.classify(550), RecordClass::Other);
        assert_eq!(
            c.classify(9000),
            RecordClass::Other,
            "unseen bin → prior (Other)"
        );
    }

    #[test]
    fn knn_separates_bands() {
        let c = KnnClassifier::train(&training(), 3);
        assert_eq!(c.classify(2212), RecordClass::Type1);
        assert_eq!(c.classify(2996), RecordClass::Type2);
        assert_eq!(c.classify(600), RecordClass::Other);
        // Near a lone Other inlier between the bands.
        assert_eq!(c.classify(2440), RecordClass::Other);
    }

    #[test]
    fn knn_empty_training() {
        let c = KnnClassifier::train(&[], 3);
        assert_eq!(c.classify(2212), RecordClass::Other);
    }

    #[test]
    fn interval_json_roundtrip() {
        let c = IntervalClassifier::train(&training(), 4).unwrap();
        let back = IntervalClassifier::from_json(&c.to_json()).unwrap();
        assert_eq!(back.type1, c.type1);
        assert_eq!(back.type2, c.type2);
        assert_eq!(back.slack, c.slack);
        // Malformed inputs are rejected.
        assert!(IntervalClassifier::from_json(&wm_json::Value::Null).is_none());
        let bad =
            wm_json::parse(br#"{"type1Lo":10,"type1Hi":5,"type2Lo":20,"type2Hi":30,"slack":0}"#)
                .unwrap();
        assert!(IntervalClassifier::from_json(&bad).is_none());
    }

    #[test]
    fn classifier_names() {
        assert_eq!(
            IntervalClassifier::train(&training(), 0).unwrap().name(),
            "interval"
        );
        assert_eq!(
            HistogramClassifier::train(&training(), 8).name(),
            "histogram-bayes"
        );
        assert_eq!(KnnClassifier::train(&training(), 3).name(), "knn");
    }
}
