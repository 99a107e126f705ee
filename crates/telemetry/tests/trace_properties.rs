//! Property tests for the bounded recorder (hand-rolled generators —
//! the workspace carries no external proptest dependency).
//!
//! The load-bearing property: the ring buffer never drops a
//! causally-open span's end event. Formally — for any workload, any
//! `SpanStart` retained in the buffer whose span was closed also has
//! its `SpanEnd` retained. This falls out of oldest-first eviction
//! (ends always carry later sequence numbers than their starts), and
//! the test hammers it across seeds, capacities and workload shapes.

use wm_telemetry::trace::{EventKind, SpanId, TraceHandle};

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Run a pseudo-random span/instant workload and return the handle
/// plus the set of spans that were closed.
fn random_workload(seed: u64, capacity: usize, ops: usize) -> (TraceHandle, Vec<SpanId>) {
    let h = TraceHandle::with_capacity(capacity);
    let mut rng = XorShift(seed | 1);
    let mut open: Vec<SpanId> = Vec::new();
    let mut closed = Vec::new();
    let mut clock = 0u64;
    for _ in 0..ops {
        clock += rng.next() % 1_000;
        h.set_now(clock);
        match rng.next() % 4 {
            0 => {
                let parent = if open.is_empty() {
                    SpanId::NONE
                } else {
                    open[(rng.next() as usize) % open.len()]
                };
                open.push(h.span_start("span", parent));
            }
            1 => {
                if !open.is_empty() {
                    let i = (rng.next() as usize) % open.len();
                    let sp = open.swap_remove(i);
                    h.span_end(sp, "span");
                    closed.push(sp);
                }
            }
            _ => {
                let sp = open.last().copied().unwrap_or(SpanId::NONE);
                h.instant(sp, "noise", rng.next(), 0);
            }
        }
    }
    // Close everything still open, as a session teardown would.
    for sp in open.drain(..) {
        h.span_end(sp, "span");
        closed.push(sp);
    }
    (h, closed)
}

#[test]
fn retained_starts_always_have_their_ends() {
    for seed in 1..40u64 {
        for &capacity in &[2usize, 7, 16, 64, 256] {
            let (h, closed) = random_workload(seed, capacity, 400);
            let events = h.snapshot();
            assert!(events.len() <= capacity, "ring respects capacity");
            for e in &events {
                if e.kind != EventKind::SpanStart || !closed.contains(&e.span) {
                    continue;
                }
                assert!(
                    events
                        .iter()
                        .any(|f| f.kind == EventKind::SpanEnd && f.span == e.span),
                    "seed {seed} cap {capacity}: start of {:?} retained, end evicted",
                    e.span
                );
            }
        }
    }
}

#[test]
fn buffer_order_is_emission_order() {
    for seed in 1..10u64 {
        let (h, _) = random_workload(seed, 32, 300);
        let events = h.snapshot();
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq strictly increases");
        }
    }
}

#[test]
fn eviction_count_accounts_for_every_emission() {
    for seed in 1..10u64 {
        let (h, _) = random_workload(seed, 16, 500);
        let retained = h.len() as u64;
        let evicted = h.evicted();
        // Every emitted event is either retained or counted evicted;
        // seq of the last event pins the total emitted.
        let last_seq = h.snapshot().last().map(|e| e.seq).unwrap_or(0);
        assert_eq!(retained + evicted, last_seq + 1, "seed {seed}");
    }
}
