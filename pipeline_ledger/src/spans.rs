//! In-memory span recorder for the traced run.
//!
//! The ledger records a span around each call it makes into a layer's
//! public API. Spans stay in memory until the run ends; the per-layer
//! metrics are computed from them afterwards. A parent span on one
//! thread can own children recorded on pool workers.

use crate::stats::covered;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Recorder {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
            samples: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Recorder {
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name` under `parent`; `f` receives the new
    /// span's id so calls it makes can nest under it.
    pub fn span<T>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        // Relaxed: the counter only hands out unique ids and publishes
        // nothing else.
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
        out
    }

    /// Add `v` to the named layer counter.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .counts
            .lock()
            .expect("counter map poisoned")
            .entry(name)
            .or_insert(0.0) += v;
    }

    pub fn count(&self, name: &str) -> f64 {
        let counts = self.counts.lock().expect("counter map poisoned");
        counts.get(name).copied().unwrap_or(0.0)
    }

    /// Record one observation of a per-run quantity (a ratio, a size).
    pub fn sample(&self, name: &'static str, v: f64) {
        self.samples
            .lock()
            .expect("sample map poisoned")
            .entry(name)
            .or_default()
            .push(v);
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        let samples = self.samples.lock().expect("sample map poisoned");
        samples.get(name).cloned().unwrap_or_default()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// A buffer of same-named spans for a hot loop on one thread.
    pub fn batch(&self, name: &'static str, parent: u64) -> Batch<'_> {
        Batch {
            rec: self,
            name,
            parent,
            buf: Vec::new(),
        }
    }
}

/// Spans of one name kept in a thread-local buffer and handed to the
/// recorder when dropped, so a loop of very short calls pays no lock
/// per span.
pub struct Batch<'a> {
    rec: &'a Recorder,
    name: &'static str,
    parent: u64,
    buf: Vec<(u64, u64)>,
}

impl Batch<'_> {
    pub fn span<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = self.rec.now();
        let out = f();
        self.buf.push((start, self.rec.now()));
        out
    }
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        let first = self
            .rec
            .next
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        // A poisoned log already failed the run; drop the batch then.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.extend(
                self.buf
                    .iter()
                    .zip(first..)
                    .map(|(&(start, end), id)| Span {
                        id,
                        parent: self.parent,
                        name: self.name,
                        start,
                        end,
                    }),
            );
        }
    }
}

/// Run `f` inside a span when a recorder is given, bare otherwise, so
/// the traced and untraced runs share one code path.
pub fn span<T>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> T {
    match rec {
        Some(r) => r.span(name, parent, f),
        None => f(ROOT),
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Share of `[lo, hi)` covered by at least one span.
pub fn coverage(spans: &[Span], lo: u64, hi: u64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let intervals: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    covered(&intervals, lo, hi) as f64 / (hi - lo) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_from_pool_threads_cover_their_parent() {
        let rec = Recorder::default();
        rec.span("parent", ROOT, |p| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        rec.span("child", p, |_| {
                            std::thread::sleep(std::time::Duration::from_millis(5))
                        })
                    });
                }
            });
        });
        let spans = rec.spans();
        assert_eq!(durations(&spans, "child").len(), 2);
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "child")
            .all(|c| c.parent == parent.id));
        let lo = spans.iter().map(|s| s.start).min().unwrap();
        let hi = spans.iter().map(|s| s.end).max().unwrap();
        assert_eq!(coverage(&spans, lo, hi), 1.0);
        let children: Vec<Span> = spans
            .iter()
            .filter(|s| s.name == "child")
            .copied()
            .collect();
        assert!(coverage(&children, lo, hi) > 0.5);
    }

    #[test]
    fn batched_spans_land_on_drop_with_unique_ids() {
        let rec = Recorder::default();
        rec.span("before", ROOT, |_| ());
        {
            let mut batch = rec.batch("hot", 7);
            for i in 0..3 {
                assert_eq!(batch.span(|| i * 2), i * 2);
            }
            assert!(durations(&rec.spans(), "hot").is_empty());
        }
        let spans = rec.spans();
        assert_eq!(durations(&spans, "hot").len(), 3);
        assert!(spans
            .iter()
            .filter(|s| s.name == "hot")
            .all(|s| s.parent == 7));
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn untraced_span_is_a_plain_call() {
        assert_eq!(span(None, "x", ROOT, |id| id + 1), ROOT + 1);
        let rec = Recorder::default();
        rec.add("n", 2.0);
        rec.add("n", 3.0);
        assert_eq!(rec.count("n"), 5.0);
        assert_eq!(rec.count("absent"), 0.0);
        rec.sample("r", 1.5);
        assert_eq!(rec.samples("r"), vec![1.5]);
        assert!(rec.samples("absent").is_empty());
    }
}
