//! Immutable, mergeable metric snapshots with JSON and table renderers.
//!
//! The JSON writer is hand-rolled so the crate stays std-only; its
//! output is canonical JSON that `wm_json::parse` reads back to the same
//! counters and histograms (checked in `tests/properties.rs`).

use crate::metric::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Frozen state of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Smallest recorded value; `None` when `count == 0`, so an empty
    /// histogram is distinguishable from one that recorded a real 0.
    pub min: Option<u64>,
    /// Largest recorded value; `None` when `count == 0`.
    pub max: Option<u64>,
    /// Sparse `(bucket_index, count)` pairs, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Snapshot a live histogram.
    pub fn of(h: &Histogram) -> Self {
        let counts = h.bucket_counts();
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            buckets: counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u8, c))
                .collect(),
        }
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile from the log2 buckets: the geometric
    /// midpoint of the bucket where the cumulative count crosses `q`,
    /// clamped to the exact `[min, max]`.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let lo = self.min.unwrap_or(0);
        let hi = self.max.unwrap_or(u64::MAX);
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen += c;
            if seen >= target {
                let (blo, bhi) = Histogram::bucket_bounds(i as usize);
                let mid = ((blo as f64) * (bhi.max(1) as f64)).sqrt() as u64;
                return mid.clamp(lo, hi);
            }
        }
        hi
    }

    /// Fold another histogram snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min = merge_opt(self.min, other.min, u64::min);
        self.max = merge_opt(self.max, other.max, u64::max);
        self.count += other.count;
        self.sum += other.sum;
        let mut merged: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(i, c) in &other.buckets {
            *merged.entry(i).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// The change since `baseline` (an earlier snapshot of the same
    /// histogram): `count`/`sum`/`buckets` are true window differences;
    /// `min`/`max` carry the *cumulative* bounds (log2 buckets cannot
    /// recover window extrema), or `None` when nothing was recorded in
    /// the window. Merging deltas therefore stays associative and
    /// partition-invariant: window counts add, cumulative bounds
    /// min/max.
    pub fn delta_since(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(baseline.count);
        if count == 0 {
            return HistogramSnapshot::default();
        }
        let base: BTreeMap<u8, u64> = baseline.buckets.iter().copied().collect();
        let buckets = self
            .buckets
            .iter()
            .map(|&(i, c)| (i, c.saturating_sub(base.get(&i).copied().unwrap_or(0))))
            .filter(|&(_, c)| c > 0)
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(baseline.sum),
            min: self.min,
            max: self.max,
            buckets,
        }
    }
}

fn merge_opt(a: Option<u64>, b: Option<u64>, pick: impl Fn(u64, u64) -> u64) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(pick(x, y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Frozen state of a whole registry; the unit of aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Fold `other` into `self`. Exact, commutative and associative:
    /// u64 additions plus min/max, so any merge tree over the same
    /// snapshots yields identical results.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Merge a list of snapshots into one (run-level aggregation).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
        let mut out = Snapshot::default();
        for p in parts {
            out.merge(p);
        }
        out
    }

    /// The change since `baseline` (an earlier snapshot of the same
    /// registry): every counter and histogram in `self` minus its
    /// value at the watermark. Keys present in `self` are kept even at
    /// delta zero, so a stream of delta snapshots from one registry
    /// always carries the same key set — what makes streamed exports
    /// byte-comparable point to point.
    pub fn delta_since(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let base = baseline.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(base))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let delta = match baseline.histograms.get(k) {
                    Some(base) => h.delta_since(base),
                    None => h.clone(),
                };
                (k.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Machine-readable JSON (single line).
    pub fn to_json_string(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json_string(k));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                json_string(k),
                h.count,
                h.sum,
                json_opt(h.min),
                json_opt(h.max)
            );
            for (j, (b, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "[{b},{c}]");
            }
            s.push_str("]}");
        }
        s.push_str("}}");
        s
    }

    /// The seed-deterministic projection of this snapshot: counters
    /// only, with every histogram dropped.
    ///
    /// Counters count discrete simulation events and replay exactly
    /// per seed; histograms include `*_ns` wall-clock timings that
    /// differ run to run. Determinism tests compare this view so a
    /// slow CI machine can never flake them.
    pub fn deterministic_view(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            histograms: BTreeMap::new(),
        }
    }

    /// Human-readable report: counters then histogram summaries.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            let width = self.counters.keys().map(String::len).max().unwrap_or(0);
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<width$}  {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            let width = self
                .histograms
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(4);
            let _ = writeln!(
                out,
                "histograms (ns for *_ns, µs for *_us)\n  {:<width$}  {:>9} {:>14} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "sum", "min", "mean", "~p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<width$}  {:>9} {:>14} {:>10} {:>10.0} {:>10} {:>10}",
                    h.count,
                    h.sum,
                    table_opt(h.min),
                    h.mean(),
                    h.approx_quantile(0.99),
                    table_opt(h.max)
                );
            }
        }
        out
    }
}

/// Escape a metric name as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an optional bound: the number, or JSON `null` when absent.
fn json_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Render an optional bound for the table: the number, or `-`.
fn table_opt(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("a.events").add(7);
        reg.counter("b.frames").add(123_456);
        let h = reg.histogram("lat_ns");
        for v in [3u64, 900, 900, 40_000, 0] {
            h.record(v);
        }
        reg.snapshot()
    }

    #[test]
    fn empty_histogram_serializes_null_bounds() {
        let reg = Registry::new();
        reg.histogram("idle_us");
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["idle_us"].min, None);
        assert_eq!(snap.histograms["idle_us"].max, None);
        let json = snap.to_json_string();
        assert!(json.contains("\"min\":null,\"max\":null"), "{json}");
        // A histogram that really recorded a zero keeps `"min":0`.
        reg.histogram("idle_us").record(0);
        let json = reg.snapshot().to_json_string();
        assert!(json.contains("\"min\":0,\"max\":0"), "{json}");
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let a = sample();
        let b = sample();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counters["a.events"], 14);
        assert_eq!(m.histograms["lat_ns"].count, 10);
        assert_eq!(m.histograms["lat_ns"].sum, 2 * a.histograms["lat_ns"].sum);
        assert_eq!(m.histograms["lat_ns"].min, Some(0));
        assert_eq!(m.histograms["lat_ns"].max, Some(40_000));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = sample();
        let mut left = Snapshot::default();
        left.merge(&a);
        assert_eq!(left, a);
        let mut right = a.clone();
        right.merge(&Snapshot::default());
        assert_eq!(right, a);
    }

    #[test]
    fn merge_with_empty_histogram_keeps_bounds_absent() {
        let mut empty = HistogramSnapshot::default();
        empty.merge(&HistogramSnapshot::default());
        assert_eq!(empty.min, None);
        assert_eq!(empty.max, None);
    }

    #[test]
    fn delta_since_subtracts_counters_and_histograms() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.histogram("h").record(100);
        let base = reg.snapshot();
        reg.counter("c").add(4);
        reg.histogram("h").record(7);
        let now = reg.snapshot();
        let delta = now.delta_since(&base);
        assert_eq!(delta.counters["c"], 4);
        let h = &delta.histograms["h"];
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7);
        // Bounds are cumulative, not window-local (documented).
        assert_eq!(h.min, Some(7));
        assert_eq!(h.max, Some(100));
        assert_eq!(h.buckets, vec![(3, 1)]);
    }

    #[test]
    fn delta_since_keeps_zero_keys_and_empties_idle_histograms() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.histogram("h").record(100);
        let base = reg.snapshot();
        let delta = reg.snapshot().delta_since(&base);
        assert_eq!(delta.counters["c"], 0);
        assert_eq!(delta.histograms["h"], HistogramSnapshot::default());
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample().render_table();
        for name in ["a.events", "b.frames", "lat_ns"] {
            assert!(table.contains(name), "{table}");
        }
    }

    #[test]
    fn deterministic_view_keeps_counters_drops_histograms() {
        let snap = sample();
        let view = snap.deterministic_view();
        assert_eq!(view.counters, snap.counters);
        assert!(view.histograms.is_empty());
        assert_eq!(view.deterministic_view(), view);
    }

    #[test]
    fn quantiles_bounded_by_min_max() {
        let h = &sample().histograms["lat_ns"];
        let (min, max) = (h.min.expect("recorded"), h.max.expect("recorded"));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.approx_quantile(q);
            assert!(v >= min && v <= max, "q{q} -> {v}");
        }
    }
}
