//! Property tests for snapshot merging and the JSON codec.
//!
//! The build environment is offline, so instead of `proptest` these are
//! hand-rolled property checks driven by a seeded splitmix64 generator:
//! many random cases per property, fully deterministic, with the seed in
//! the assertion message for reproduction.

use wm_json::Value;
use wm_telemetry::{HistogramSnapshot, Registry, Snapshot};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random snapshot: a few counters and histograms with random names
/// drawn from a small pool (so merges overlap) and random samples.
fn random_snapshot(state: &mut u64) -> Snapshot {
    let reg = Registry::new();
    let names = ["alpha", "beta", "gamma", "delta"];
    let n_counters = (splitmix64(state) % 4) as usize;
    for _ in 0..n_counters {
        let name = names[(splitmix64(state) % names.len() as u64) as usize];
        reg.counter(name).add(splitmix64(state) % 1_000_000);
    }
    let n_hists = (splitmix64(state) % 3) as usize;
    for _ in 0..n_hists {
        let name = names[(splitmix64(state) % names.len() as u64) as usize];
        let h = reg.histogram(name);
        let samples = splitmix64(state) % 64;
        for _ in 0..samples {
            // Spread samples across many buckets.
            let shift = splitmix64(state) % 40;
            h.record(splitmix64(state) >> (24 + shift.min(39)));
        }
    }
    reg.snapshot()
}

#[test]
fn merge_is_commutative() {
    for seed in 0..200u64 {
        let mut s = seed;
        let a = random_snapshot(&mut s);
        let b = random_snapshot(&mut s);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "seed {seed}");
    }
}

#[test]
fn merge_is_associative() {
    for seed in 0..200u64 {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let a = random_snapshot(&mut s);
        let b = random_snapshot(&mut s);
        let c = random_snapshot(&mut s);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "seed {seed}");
    }
}

#[test]
fn merged_equals_sequential_folds() {
    for seed in 0..50u64 {
        let mut s = seed ^ 0xdead_beef;
        let parts: Vec<Snapshot> = (0..5).map(|_| random_snapshot(&mut s)).collect();
        let folded = Snapshot::merged(parts.iter());
        let mut sequential = Snapshot::default();
        for p in &parts {
            sequential.merge(p);
        }
        assert_eq!(folded, sequential, "seed {seed}");
    }
}

/// Read `Snapshot::to_json_string` output back with the workspace's
/// JSON reader: every counter and every histogram field.
fn parsed(json: &str) -> Snapshot {
    let doc = wm_json::parse(json.as_bytes()).unwrap_or_else(|e| panic!("{e}: {json}"));
    let int = |v: &Value| v.as_i64().and_then(|n| u64::try_from(n).ok());
    let section = |key| doc.get(key).and_then(Value::as_object).expect(key);
    let histogram = |h: &Value| {
        let field = |key| h.get(key).expect(key);
        let bound = |key| match field(key) {
            Value::Null => None,
            v => Some(int(v).expect(key)),
        };
        let bucket = |pair: &Value| match pair.as_array() {
            Some([i, c]) => (int(i).expect("bucket") as u8, int(c).expect("bucket")),
            _ => panic!("bucket {pair:?}"),
        };
        HistogramSnapshot {
            count: int(field("count")).expect("count"),
            sum: int(field("sum")).expect("sum"),
            min: bound("min"),
            max: bound("max"),
            buckets: field("buckets")
                .as_array()
                .expect("buckets")
                .iter()
                .map(bucket)
                .collect(),
        }
    };
    Snapshot {
        counters: section("counters")
            .iter()
            .map(|(k, v)| (k.clone(), int(v).expect("counter")))
            .collect(),
        histograms: section("histograms")
            .iter()
            .map(|(k, h)| (k.clone(), histogram(h)))
            .collect(),
    }
}

#[test]
fn json_roundtrips_random_snapshots() {
    for seed in 0..200u64 {
        let mut s = seed ^ 0x5eed_5eed;
        let snap = random_snapshot(&mut s);
        // The snapshot, its all-zero delta against itself (every key
        // kept, histograms emptied to null bounds) and its counters-only
        // view all read back exactly.
        for snap in [snap.delta_since(&snap), snap.deterministic_view(), snap] {
            let json = snap.to_json_string();
            assert_eq!(parsed(&json), snap, "seed {seed}: {json}");
        }
    }
}

#[test]
fn json_reads_back_fixed_snapshots() {
    let reg = Registry::new();
    reg.counter("a.events").add(7);
    reg.counter("quote\"back\\slash\u{1}").add(123_456);
    reg.histogram("idle_us");
    let h = reg.histogram("lat_ns");
    for v in [3u64, 900, 900, 40_000, 0] {
        h.record(v);
    }
    for snap in [Snapshot::default(), reg.snapshot()] {
        let json = snap.to_json_string();
        assert_eq!(parsed(&json), snap, "{json}");
    }
}

#[test]
fn merge_preserves_total_mass() {
    for seed in 0..100u64 {
        let mut s = seed ^ 0xaaaa_5555;
        let a = random_snapshot(&mut s);
        let b = random_snapshot(&mut s);
        let mut m = a.clone();
        m.merge(&b);
        for (name, h) in &m.histograms {
            let ca = a.histograms.get(name).map(|h| h.count).unwrap_or(0);
            let cb = b.histograms.get(name).map(|h| h.count).unwrap_or(0);
            assert_eq!(h.count, ca + cb, "seed {seed} hist {name}");
            let bucket_total: u64 = h.buckets.iter().map(|(_, c)| c).sum();
            assert_eq!(bucket_total, h.count, "seed {seed} hist {name} bucket mass");
        }
    }
}
