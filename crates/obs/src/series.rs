//! Bounded ring of fleet-wide time-series points.
//!
//! Each point is the associative merge of per-shard registry deltas
//! taken at one sim-time observation tick (see
//! `wm_telemetry::DeltaTracker`). Counter deltas add across any
//! partition of the same work, so a point — and therefore the whole
//! JSONL series — is byte-identical no matter how many shards or
//! workers produced it.

use std::collections::VecDeque;
use std::fmt::Write as _;

use wm_telemetry::Snapshot;

/// One observation tick: the fleet-wide metric delta at `t_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Simulation time of the tick, microseconds.
    pub t_us: u64,
    /// Merged per-shard deltas since the previous tick.
    pub delta: Snapshot,
}

impl SeriesPoint {
    /// One JSONL line: `{"t_us":N,"delta":<snapshot json>}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"t_us\":{},\"delta\":{}}}",
            self.t_us,
            self.delta.to_json_string()
        )
    }
}

/// A bounded FIFO of [`SeriesPoint`]s: the live view keeps the most
/// recent `capacity` ticks and counts what it sheds, so a long-running
/// fleet holds constant memory.
#[derive(Debug)]
pub struct SeriesRing {
    capacity: usize,
    points: VecDeque<SeriesPoint>,
    dropped: u64,
}

impl SeriesRing {
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        SeriesRing {
            capacity: capacity.max(1),
            points: VecDeque::new(),
            dropped: 0,
        }
    }

    pub fn push(&mut self, point: SeriesPoint) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped += 1;
        }
        self.points.push_back(point);
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points shed from the front to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Oldest-to-newest iteration.
    pub fn iter(&self) -> impl Iterator<Item = &SeriesPoint> {
        self.points.iter()
    }

    /// Newest point, if any.
    pub fn last(&self) -> Option<&SeriesPoint> {
        self.points.back()
    }

    /// The retained window as JSONL, one point per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            let _ = writeln!(out, "{}", p.to_json_line());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t: u64, key: &str, v: u64) -> SeriesPoint {
        let mut delta = Snapshot::default();
        delta.counters.insert(key.to_string(), v);
        SeriesPoint { t_us: t, delta }
    }

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut ring = SeriesRing::new(3);
        for t in 0..5 {
            ring.push(point(t, "c", t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ts: Vec<u64> = ring.iter().map(|p| p.t_us).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert_eq!(ring.last().map(|p| p.t_us), Some(4));
    }

    #[test]
    fn jsonl_is_one_line_per_point_and_parseable() {
        let mut ring = SeriesRing::new(8);
        ring.push(point(1_000, "fleet.packets", 7));
        ring.push(point(2_000, "fleet.packets", 9));
        let jsonl = ring.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t_us\":1000,\"delta\":"));
        for (line, packets) in lines.into_iter().zip([7, 9]) {
            let doc = wm_json::parse(line.as_bytes()).expect("line parses");
            let delta = doc.get("delta").expect("delta field");
            let counter = delta.get("counters").and_then(|c| c.get("fleet.packets"));
            assert_eq!(counter, Some(&wm_json::Value::from(packets)), "{line}");
            assert_eq!(
                delta.get("histograms"),
                Some(&wm_json::Value::object(vec![]))
            );
        }
    }
}
