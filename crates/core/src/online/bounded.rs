//! Capacity-bounded containers for the streaming decoder.
//!
//! The online attacker runs for the length of a viewing session — hours
//! of wall clock against a live tap — so every buffer it grows must be
//! bounded by a constant budget, never by session length. Each container
//! here enforces a hard capacity fixed at construction and makes the
//! overflow policy explicit at the call site: `admit` refuses,
//! `admit_evict` drops the oldest, `park` refuses against a byte *and*
//! a count budget.
//!
//! The `bounded/unbounded-buffer` wm-lint rule forbids raw
//! `Vec::push`-style growth inside the engine's ingest paths
//! (`ingest.rs`, `engine.rs`); all growth there must flow through the
//! methods in this module. This file is the one place allowed to touch
//! the raw collection APIs, so its internals stay small and auditable.

use std::collections::BTreeMap;
use wm_capture::time::SimTime;

/// An *output* buffer: grows only within one `push_packet` call and is
/// consumed at the end of it, so its size is bounded by the work a
/// single packet can produce (itself bounded by the ingest budgets).
#[derive(Debug)]
pub struct Batch<T> {
    items: Vec<T>,
}

// Manual impl: an empty batch needs no `T: Default`.
impl<T> Default for Batch<T> {
    fn default() -> Self {
        Batch::new()
    }
}

impl<T> Batch<T> {
    pub fn new() -> Self {
        Batch { items: Vec::new() }
    }

    pub fn put(&mut self, item: T) {
        self.items.push(item);
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Empty the batch, keeping its allocation for the next packet —
    /// callers that drive a long session reuse one batch throughout.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

/// A deque-like buffer with a hard capacity. The caller picks the
/// overflow policy: [`BoundedVec::admit`] refuses when full,
/// [`BoundedVec::admit_evict`] drops the oldest element first.
#[derive(Debug, Clone)]
pub struct BoundedVec<T> {
    items: Vec<T>,
    cap: usize,
}

impl<T> BoundedVec<T> {
    pub fn new(cap: usize) -> Self {
        BoundedVec {
            items: Vec::new(),
            cap: cap.max(1),
        }
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Append if there is room; `false` (item dropped) when full.
    pub fn admit(&mut self, item: T) -> bool {
        if self.items.len() >= self.cap {
            return false;
        }
        self.items.push(item);
        true
    }

    /// Append, evicting the oldest element when full. Returns `true`
    /// when an eviction happened.
    pub fn admit_evict(&mut self, item: T) -> bool {
        let evicted = self.items.len() >= self.cap;
        if evicted {
            self.items.remove(0);
        }
        self.items.push(item);
        evicted
    }

    /// Insert keeping the buffer sorted by `key` (stable: equal keys
    /// keep arrival order). Refuses (`false`) when full.
    pub fn admit_sorted_by_key<K: Ord>(&mut self, item: T, key: impl Fn(&T) -> K) -> bool {
        if self.items.len() >= self.cap {
            return false;
        }
        let k = key(&item);
        let at = self.items.partition_point(|e| key(e) <= k);
        self.items.insert(at, item);
        true
    }

    pub fn pop_front(&mut self) -> Option<T> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items.remove(0))
        }
    }

    /// Keep only elements matching the predicate (order preserved).
    pub fn keep(&mut self, pred: impl FnMut(&T) -> bool) {
        self.items.retain(pred);
    }
}

/// A contiguous byte buffer with a hard capacity: the reassembly carry
/// of one flow direction. [`ByteCarry::absorb`] refuses rather than
/// exceeding the cap, so a desynchronized stream cannot grow it.
///
/// Consumed bytes are tracked by a head cursor rather than drained, so
/// the per-record hot path ([`ByteCarry::drop_front`]) is O(1); the
/// buffer compacts once consumed bytes outweigh the live tail, bounding
/// physical occupancy at ~2x the live length (itself capped).
#[derive(Debug, Clone)]
pub struct ByteCarry {
    bytes: Vec<u8>,
    head: usize,
    cap: usize,
}

impl ByteCarry {
    pub fn new(cap: usize) -> Self {
        ByteCarry {
            bytes: Vec::new(),
            head: 0,
            cap: cap.max(1),
        }
    }

    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Live (unconsumed) byte count.
    pub fn len(&self) -> usize {
        self.bytes.len() - self.head
    }

    pub fn is_empty(&self) -> bool {
        self.head == self.bytes.len()
    }

    pub fn as_slice(&self) -> &[u8] {
        self.bytes.get(self.head..).unwrap_or_default()
    }

    pub fn clear(&mut self) {
        self.bytes.clear();
        self.head = 0;
    }

    /// Append `data`; `false` (nothing appended) if it would exceed the
    /// cap.
    pub fn absorb(&mut self, data: &[u8]) -> bool {
        if self.len().saturating_add(data.len()) > self.cap {
            return false;
        }
        self.bytes.extend_from_slice(data);
        true
    }

    /// Drop the first `n` live bytes (clamped to the live length).
    pub fn drop_front(&mut self, n: usize) {
        self.head += n.min(self.len());
        if self.head == self.bytes.len() {
            self.clear();
        } else if self.head >= self.bytes.len() - self.head {
            self.bytes.copy_within(self.head.., 0);
            self.bytes.truncate(self.bytes.len() - self.head);
            self.head = 0;
        }
    }
}

/// Out-of-order TCP segments waiting for the hole before them to fill,
/// keyed by relative stream offset. Budgeted in both bytes and segment
/// count; the earliest copy of an offset wins (matching the offline
/// reassembler).
#[derive(Debug, Clone, Default)]
pub struct ParkedSegments {
    segs: BTreeMap<i64, (SimTime, Vec<u8>)>,
    bytes: usize,
    max_bytes: usize,
    max_segs: usize,
}

impl ParkedSegments {
    pub fn new(max_bytes: usize, max_segs: usize) -> Self {
        ParkedSegments {
            segs: BTreeMap::new(),
            bytes: 0,
            max_bytes: max_bytes.max(1),
            max_segs: max_segs.max(1),
        }
    }

    pub fn len(&self) -> usize {
        self.segs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Park a segment at `off`. A duplicate offset keeps the existing
    /// (earliest) copy and reports success; `false` means the budgets
    /// are exhausted and the segment was *not* stored.
    // wm-lint: alloc-ok(reason = "one buffer per out-of-order segment, at most max_segs held; in-order segments never park")
    pub fn park(&mut self, off: i64, time: SimTime, data: &[u8]) -> bool {
        if self.segs.contains_key(&off) {
            return true;
        }
        if self.segs.len() >= self.max_segs
            || self.bytes.saturating_add(data.len()) > self.max_bytes
        {
            return false;
        }
        self.segs.insert(off, (time, data.to_vec()));
        self.bytes = self.bytes.saturating_add(data.len());
        true
    }

    /// Lowest parked stream offset, if any.
    pub fn first_offset(&self) -> Option<i64> {
        self.segs.keys().next().copied()
    }

    /// Capture time of the lowest-offset parked segment.
    pub fn first_time(&self) -> Option<SimTime> {
        self.segs.values().next().map(|(t, _)| *t)
    }

    /// Remove and return the lowest-offset parked segment.
    pub fn take_first(&mut self) -> Option<(i64, SimTime, Vec<u8>)> {
        let off = self.first_offset()?;
        let (time, data) = self.segs.remove(&off)?;
        self.bytes = self.bytes.saturating_sub(data.len());
        Some((off, time, data))
    }

    /// Iterate parked segments in offset order (for checkpointing).
    pub fn iter(&self) -> impl Iterator<Item = (i64, SimTime, &[u8])> {
        self.segs.iter().map(|(&o, (t, d))| (o, *t, d.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_vec_admit_refuses_at_cap() {
        let mut v = BoundedVec::new(2);
        assert!(v.admit(1));
        assert!(v.admit(2));
        assert!(!v.admit(3));
        assert_eq!(v.as_slice(), &[1, 2]);
    }

    #[test]
    fn bounded_vec_admit_evict_is_a_ring() {
        let mut v = BoundedVec::new(2);
        assert!(!v.admit_evict(1));
        assert!(!v.admit_evict(2));
        assert!(v.admit_evict(3));
        assert_eq!(v.as_slice(), &[2, 3]);
    }

    #[test]
    fn bounded_vec_sorted_admit_is_stable() {
        let mut v = BoundedVec::new(8);
        assert!(v.admit_sorted_by_key((5, 'a'), |e| e.0));
        assert!(v.admit_sorted_by_key((3, 'b'), |e| e.0));
        assert!(v.admit_sorted_by_key((5, 'c'), |e| e.0));
        assert_eq!(v.as_slice(), &[(3, 'b'), (5, 'a'), (5, 'c')]);
    }

    #[test]
    fn byte_carry_respects_cap() {
        let mut c = ByteCarry::new(4);
        assert!(c.absorb(&[1, 2, 3]));
        assert!(!c.absorb(&[4, 5]));
        assert!(c.absorb(&[4]));
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
        c.drop_front(2);
        assert_eq!(c.as_slice(), &[3, 4]);
        c.drop_front(10);
        assert!(c.is_empty());
    }

    #[test]
    fn byte_carry_cursor_preserves_contents_across_compaction() {
        let mut c = ByteCarry::new(16);
        assert!(c.absorb(&[1, 2, 3, 4, 5, 6]));
        c.drop_front(1); // head < live: no compaction yet
        assert_eq!(c.as_slice(), &[2, 3, 4, 5, 6]);
        c.drop_front(3); // head >= live: compacts
        assert_eq!(c.as_slice(), &[5, 6]);
        assert_eq!(c.len(), 2);
        assert!(c.absorb(&[7, 8]));
        assert_eq!(c.as_slice(), &[5, 6, 7, 8]);
        // Cap applies to live bytes, not consumed history.
        assert!(c.absorb(&[0; 12]));
        assert!(!c.absorb(&[0]));
    }

    #[test]
    fn parked_budgets_and_earliest_copy_win() {
        let mut p = ParkedSegments::new(8, 2);
        assert!(p.park(10, SimTime(1), &[1, 2, 3]));
        // Duplicate offset: earliest copy kept, still "accepted".
        assert!(p.park(10, SimTime(9), &[9, 9, 9, 9]));
        assert_eq!(p.bytes(), 3);
        assert!(p.park(20, SimTime(2), &[4, 5]));
        // Segment budget exhausted.
        assert!(!p.park(30, SimTime(3), &[6]));
        let (off, t, data) = p.take_first().unwrap();
        assert_eq!(
            (off, t, data.as_slice()),
            (10, SimTime(1), &[1u8, 2, 3][..])
        );
        // Byte budget: 2 bytes held, cap 8 → a 7-byte segment refuses.
        assert!(!p.park(40, SimTime(4), &[0; 7]));
        assert!(p.park(40, SimTime(4), &[0; 6]));
    }
}
