//! The ledger's own arithmetic: percentiles, the verdict↔truth join,
//! and layer shares. Kept free of any pipeline type so it is tested on
//! its own.

use std::collections::BTreeMap;

/// Linearly interpolated percentile (`q` in `[0, 1]`) of `values`,
/// which need not be sorted. `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of `values`, or 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).unwrap_or(0.0)
}

/// The mean of each non-empty class's median (0 when all are empty).
/// Unlike the median of the pooled values, it does not jump when the
/// classes' shares shift around one half of a bimodal distribution.
pub fn class_balanced_median(classes: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = classes
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .collect();
    if medians.is_empty() {
        return 0.0;
    }
    medians.iter().sum::<f64>() / medians.len() as f64
}

/// How one session's delivered verdicts line up with its scripted
/// decisions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Join {
    /// `(truth index, verdict index)` for every decision that got a
    /// verdict for the same choice point.
    pub matched: Vec<(usize, usize)>,
    /// Decisions with no verdict for their choice point.
    pub unmatched: usize,
    /// Verdicts with no decision left to match: they name a choice
    /// point the viewer never reached (the decoder's path diverged).
    pub extra: usize,
}

impl Join {
    /// Decisions that got no verdict at all. A verdict naming a
    /// diverged choice point still answers a decision (wrongly, which
    /// `choice_accuracy` scores), so it offsets one unmatched decision.
    pub fn missing(&self) -> usize {
        self.unmatched.saturating_sub(self.extra)
    }
}

/// Join verdicts to decisions by choice point: the k-th verdict naming
/// a choice point matches the k-th decision taken at it (a path may
/// revisit a choice point). Whether the verdict's pick is right is
/// scored separately; this join only says which decisions were
/// answered at all.
pub fn join_by_choice_point<K: Ord + Copy>(truth: &[K], verdicts: &[K]) -> Join {
    let mut slots: BTreeMap<K, Vec<usize>> = BTreeMap::new();
    for (i, cp) in truth.iter().enumerate() {
        slots.entry(*cp).or_default().push(i);
    }
    let mut used: BTreeMap<K, usize> = BTreeMap::new();
    let mut join = Join::default();
    for (j, cp) in verdicts.iter().enumerate() {
        let k = used.entry(*cp).or_insert(0);
        match slots.get(cp).and_then(|s| s.get(*k)) {
            Some(&i) => {
                join.matched.push((i, j));
                *k += 1;
            }
            None => join.extra += 1,
        }
    }
    join.matched.sort_unstable();
    join.unmatched = truth.len() - join.matched.len();
    join
}

/// Verdicts that repeat an earlier verdict's key in the same stream.
pub fn duplicates<K: Ord + Copy>(keys: &[K]) -> usize {
    let mut seen = std::collections::BTreeSet::new();
    keys.iter().filter(|k| !seen.insert(**k)).count()
}

/// Whether `sub` is `of` with some items left out, order kept.
pub fn is_subsequence<T: PartialEq>(sub: &[T], of: &[T]) -> bool {
    let mut rest = of.iter();
    sub.iter().all(|x| rest.any(|y| y == x))
}

/// Each part's share of `total`, plus the unattributed remainder. When
/// the parts overrun the total (clock skew between the inner and outer
/// timer), the parts' own sum is the base, so shares always sum to at
/// most 1 and the remainder is never negative.
pub fn shares(parts: &[f64], total: f64) -> (Vec<f64>, f64) {
    let sum: f64 = parts.iter().sum();
    let base = total.max(sum);
    if base <= 0.0 {
        return (vec![0.0; parts.len()], 0.0);
    }
    let out: Vec<f64> = parts.iter().map(|p| p.max(0.0) / base).collect();
    let rest = (1.0 - out.iter().sum::<f64>()).max(0.0);
    (out, rest)
}

/// Length of the union of half-open intervals `[start, end)`, each
/// clipped to `[lo, hi)`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
        assert!((percentile(&v, 0.99).unwrap() - 3.97).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(class_balanced_median(&[]), 0.0);
        assert_eq!(class_balanced_median(&[vec![], vec![4.0]]), 4.0);
        // Fast and slow picks: the pooled median flips from one mode to
        // the other as the share of fast picks crosses one half; the
        // balanced median stays put.
        let mostly_fast = [vec![200.0, 210.0, 220.0], vec![10.0, 11.0, 12.0, 13.0]];
        let mostly_slow = [vec![200.0, 210.0, 220.0, 230.0], vec![11.0, 12.0, 13.0]];
        assert!(median(&mostly_fast.concat()) < 20.0);
        assert!(median(&mostly_slow.concat()) > 190.0);
        let (a, b) = (
            class_balanced_median(&mostly_fast),
            class_balanced_median(&mostly_slow),
        );
        assert!((a - b).abs() < 5.0, "{a} vs {b}");
    }

    #[test]
    fn join_matches_revisited_choice_points_in_order() {
        // The path visits choice point 2 twice.
        let truth = [1, 2, 3, 2];
        let verdicts = [1, 2, 2, 3];
        let j = join_by_choice_point(&truth, &verdicts);
        assert_eq!(j.matched, vec![(0, 0), (1, 1), (2, 3), (3, 2)]);
        assert_eq!((j.unmatched, j.extra, j.missing()), (0, 0, 0));
    }

    #[test]
    fn join_counts_missing_and_extra_verdicts() {
        let truth = [1, 2, 3];
        let j = join_by_choice_point(&truth, &[1, 3]);
        assert_eq!(j.matched, vec![(0, 0), (2, 1)]);
        assert_eq!((j.unmatched, j.extra), (1, 0));
        assert_eq!(j.missing(), 1, "choice point 2 got no verdict");
        // A diverged path: the verdict for 2 names 9 instead, and a
        // second verdict for 3 has nothing left to match.
        let j = join_by_choice_point(&truth, &[1, 9, 3, 3]);
        assert_eq!(j.matched, vec![(0, 0), (2, 2)]);
        assert_eq!((j.unmatched, j.extra), (1, 2));
        assert_eq!(j.missing(), 0, "every decision was answered, one wrongly");
        let none = join_by_choice_point(&truth, &[]);
        assert_eq!((none.matched.len(), none.missing()), (0, 3));
    }

    #[test]
    fn duplicates_counts_repeats_only() {
        assert_eq!(duplicates(&[(1, 10), (2, 10), (1, 10), (1, 10)]), 2);
        assert_eq!(duplicates::<u8>(&[]), 0);
    }

    #[test]
    fn subsequence_keeps_order() {
        assert!(is_subsequence(&[1, 3], &[1, 2, 3]));
        assert!(is_subsequence::<u8>(&[], &[1]));
        assert!(is_subsequence(&[1, 2, 3], &[1, 2, 3]));
        assert!(!is_subsequence(&[3, 1], &[1, 2, 3]));
        assert!(!is_subsequence(&[4], &[1, 2, 3]));
        assert!(!is_subsequence(&[1, 1], &[1, 2]));
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let (s, rest) = shares(&[1.0, 2.0, 3.0], 12.0);
        assert_eq!(s, vec![1.0 / 12.0, 2.0 / 12.0, 3.0 / 12.0]);
        assert!((rest - 0.5).abs() < 1e-12);
        // Parts that overrun the outer timer are scaled to the sum.
        let (s, rest) = shares(&[6.0, 6.0], 10.0);
        assert!(s.iter().sum::<f64>() <= 1.0 + 1e-12);
        assert_eq!(rest, 0.0);
        let (s, rest) = shares(&[0.0, 0.0], 0.0);
        assert_eq!((s, rest), (vec![0.0, 0.0], 0.0));
        for total in [1.0, 5.0, 100.0] {
            let (s, rest) = shares(&[0.5, 1.5, 2.0], total);
            assert!(s.iter().sum::<f64>() + rest <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered(&[(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered(&[(3, 3)], 0, 10), 0);
        assert_eq!(covered(&[], 0, 10), 0);
        assert_eq!(covered(&[(0, 4), (4, 8)], 0, 8), 8);
    }
}
