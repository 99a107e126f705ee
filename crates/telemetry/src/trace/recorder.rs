//! The bounded ring-buffer recorder and its shared handle.
//!
//! Mirrors the [`Registry`](crate::Registry) pattern: subsystems hold a
//! cloned [`TraceHandle`] (an `Arc` around the recorder) and emit into
//! it; the session owner drains the events at the end. The buffer is
//! bounded: when full, the **oldest** event is evicted. Because a
//! span's `SpanEnd` always carries a later sequence number than its
//! `SpanStart`, oldest-first eviction guarantees that any span whose
//! start survives in the buffer also has its end (if one was emitted)
//! — open spans never lose their close.
//!
//! The recorder also carries the simulation clock: the session event
//! loop calls [`TraceHandle::set_now`] as sim time advances, so
//! subsystems without a time parameter in their signatures (the TLS
//! record engine, the Netflix request handler) still stamp events with
//! exact sim time. Nothing here ever reads a wall clock.

use super::event::{EventKind, SpanId, TraceEvent};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default event capacity: generous for a full session, bounded so a
/// runaway emitter cannot exhaust memory.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct Inner {
    buf: VecDeque<TraceEvent>,
    next_seq: u64,
    next_span: u32,
    evicted: u64,
}

/// The shared recorder. Construct via [`TraceHandle::new`].
pub struct TraceRecorder {
    capacity: usize,
    clock_us: AtomicU64,
    inner: Mutex<Inner>,
}

impl TraceRecorder {
    fn new(capacity: usize) -> Self {
        TraceRecorder {
            capacity: capacity.max(1),
            clock_us: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                buf: VecDeque::new(),
                next_seq: 0,
                next_span: 0,
                evicted: 0,
            }),
        }
    }
}

/// Cloneable handle to a [`TraceRecorder`], the unit every subsystem
/// holds (like a telemetry counter handle).
#[derive(Clone)]
pub struct TraceHandle {
    rec: Arc<TraceRecorder>,
}

impl Default for TraceHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceHandle {
    /// A recorder with the default bounded capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceHandle {
            rec: Arc::new(TraceRecorder::new(capacity)),
        }
    }

    /// Advance the shared simulation clock (microseconds). Called by
    /// the session event loop before dispatching each event, so
    /// emitters without a time parameter stamp correctly.
    pub fn set_now(&self, t_us: u64) {
        self.rec.clock_us.store(t_us, Ordering::Relaxed);
    }

    /// Current simulation clock in microseconds.
    pub fn now(&self) -> u64 {
        self.rec.clock_us.load(Ordering::Relaxed)
    }

    #[allow(clippy::too_many_arguments)] // private emit primitive; the public API is the *_at trio
    fn push(
        &self,
        t_us: u64,
        span: SpanId,
        parent: SpanId,
        kind: EventKind,
        name: &'static str,
        a: u64,
        b: u64,
    ) {
        let Ok(mut g) = self.rec.inner.lock() else {
            return; // poisoned: tracing is observation, never propagate
        };
        let seq = g.next_seq;
        g.next_seq += 1;
        if g.buf.len() == self.rec.capacity {
            g.buf.pop_front();
            g.evicted += 1;
        }
        g.buf.push_back(TraceEvent {
            seq,
            t_us,
            span,
            parent,
            kind,
            name,
            a,
            b,
        });
    }

    /// Open a span at the current sim clock.
    pub fn span_start(&self, name: &'static str, parent: SpanId) -> SpanId {
        self.span_start_at(self.now(), name, parent)
    }

    /// Open a span at an explicit sim time.
    pub fn span_start_at(&self, t_us: u64, name: &'static str, parent: SpanId) -> SpanId {
        let span = {
            let Ok(mut g) = self.rec.inner.lock() else {
                return SpanId::NONE;
            };
            g.next_span += 1;
            SpanId(g.next_span)
        };
        self.push(t_us, span, parent, EventKind::SpanStart, name, 0, 0);
        span
    }

    /// Close a span at the current sim clock.
    pub fn span_end(&self, span: SpanId, name: &'static str) {
        self.span_end_at(self.now(), span, name);
    }

    /// Close a span at an explicit sim time.
    pub fn span_end_at(&self, t_us: u64, span: SpanId, name: &'static str) {
        self.push(t_us, span, SpanId::NONE, EventKind::SpanEnd, name, 0, 0);
    }

    /// Record an instant inside `span` at the current sim clock.
    pub fn instant(&self, span: SpanId, name: &'static str, a: u64, b: u64) {
        self.instant_at(self.now(), span, name, a, b);
    }

    /// Record an instant at an explicit sim time.
    pub fn instant_at(&self, t_us: u64, span: SpanId, name: &'static str, a: u64, b: u64) {
        self.push(t_us, span, SpanId::NONE, EventKind::Instant, name, a, b);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.rec.inner.lock().map(|g| g.buf.len()).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the bounded ring (0 unless the session
    /// out-emitted the capacity).
    pub fn evicted(&self) -> u64 {
        self.rec.inner.lock().map(|g| g.evicted).unwrap_or(0)
    }

    /// Copy of the buffered events, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.rec
            .inner
            .lock()
            .map(|g| g.buf.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Take the buffered events out, leaving the recorder empty
    /// (sequence and span counters keep advancing).
    // wm-lint: alloc-ok(reason = "drains the bounded trace ring into one owned batch per flush; empty when tracing is off")
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.rec
            .inner
            .lock()
            .map(|mut g| g.buf.drain(..).collect())
            .unwrap_or_default()
    }
}

/// Event counts by name — the cheap summary bench harnesses embed in
/// `BENCH_*.json`. Deterministic (sorted by name).
pub fn counts_by_name(events: &[TraceEvent]) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    for e in events {
        *m.entry(e.name).or_insert(0) += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_ids_are_monotonic() {
        let h = TraceHandle::new();
        h.set_now(10);
        let root = h.span_start("session", SpanId::NONE);
        h.set_now(20);
        let flow = h.span_start("flow", root);
        assert!(flow > root);
        h.instant(flow, "tls.record.sealed", 1, 512);
        h.set_now(30);
        h.span_end(flow, "flow");
        h.span_end(root, "session");
        let ev = h.snapshot();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[0].kind, EventKind::SpanStart);
        assert_eq!(ev[1].parent, root);
        assert_eq!(ev[2].t_us, 20);
        assert_eq!(ev[4].t_us, 30);
        let seqs: Vec<u64> = ev.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let h = TraceHandle::with_capacity(4);
        let s = h.span_start("session", SpanId::NONE);
        for i in 0..10 {
            h.instant(s, "noise", i, 0);
        }
        h.span_end(s, "session");
        let ev = h.snapshot();
        assert_eq!(ev.len(), 4);
        assert_eq!(h.evicted(), 8);
        // The newest events survive; the end event is always present.
        assert_eq!(ev.last().map(|e| e.kind), Some(EventKind::SpanEnd));
        for w in ev.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn surviving_span_starts_keep_their_ends() {
        // The causal guarantee: any SpanStart still in the buffer has
        // its SpanEnd in the buffer too (ends are emitted later, and
        // eviction is strictly oldest-first). Exercised with a
        // seeded pseudo-random workload (see also the property test in
        // tests/trace_properties.rs).
        let h = TraceHandle::with_capacity(8);
        let mut open = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 3 {
                0 => open.push(h.span_start("s", SpanId::NONE)),
                1 => {
                    if let Some(sp) = open.pop() {
                        h.span_end(sp, "s");
                    }
                }
                _ => h.instant(SpanId::NONE, "i", x, 0),
            }
        }
        for sp in open.drain(..) {
            h.span_end(sp, "s");
        }
        let ev = h.snapshot();
        for e in &ev {
            if e.kind == EventKind::SpanStart {
                assert!(
                    ev.iter()
                        .any(|f| f.kind == EventKind::SpanEnd && f.span == e.span),
                    "span {:?} start survived without its end",
                    e.span
                );
            }
        }
    }

    #[test]
    fn drain_empties_but_counters_advance() {
        let h = TraceHandle::new();
        let s = h.span_start("a", SpanId::NONE);
        let first = h.drain();
        assert_eq!(first.len(), 1);
        assert!(h.is_empty());
        let s2 = h.span_start("b", s);
        assert!(s2 > s, "span ids keep advancing across drains");
        assert_eq!(h.snapshot()[0].seq, 1, "seq keeps advancing");
    }

    #[test]
    fn counts_by_name_is_sorted_and_complete() {
        let h = TraceHandle::new();
        let s = h.span_start("session", SpanId::NONE);
        h.instant(s, "tls.record.sealed", 0, 0);
        h.instant(s, "tls.record.sealed", 1, 0);
        h.instant(s, "chaos.blackout", 0, 0);
        let counts = counts_by_name(&h.snapshot());
        assert_eq!(counts.get("tls.record.sealed"), Some(&2));
        assert_eq!(counts.get("chaos.blackout"), Some(&1));
        assert_eq!(counts.get("session"), Some(&1));
    }
}
