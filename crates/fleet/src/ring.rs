//! Seeded consistent-hash ring: stable victim → shard demux.
//!
//! The fleet must answer one question deterministically and cheaply:
//! *which shard owns this victim?* A modulo over the shard count would
//! reshuffle almost every victim whenever the fleet is resized; the
//! classic consistent-hashing fix places `vnodes` seeded points per
//! shard on a `u64` ring and routes each key to the first point at or
//! after it (wrapping). Adding or removing one shard then moves only
//! the keys that fall into the arcs the new points claim —
//! approximately `1/shards` of them — which the ring test pins.
//!
//! Keys fold the seed with the tap's victim attribution and **nothing
//! from the flow 4-tuple**. This is deliberate: one victim's session
//! spans several flows — reconnects come back on a fresh source port,
//! the player rotates across CDN frontends (new destination), and
//! impaired captures yield runt frames with no parseable tuple at
//! all. The per-victim decoder stitches those flows internally, so
//! every one of them must land on the shard that owns the victim; any
//! flow-derived key component would scatter a victim across shards
//! and leave each decoder with a partial stream.

/// FNV-1a 64-bit, the workspace's standard structural hash.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Seed of the fleet's demux ring and of its checkpoint-damage seeds.
pub const RING_SEED: u64 = 0xF1EE7;
/// Ring points per shard in the fleet's demux ring.
pub const VNODES_PER_SHARD: usize = 16;

/// Domain-separated seed for checkpoint-damage injection: the same
/// FNV folding as the demux keys, scoped by a label so damage seeds
/// never collide with ring points.
pub(crate) fn damage_seed(seed: u64, seq: u64) -> u64 {
    let mut h = fnv(FNV_OFFSET, b"fleet checkpoint damage");
    h = fnv(h, &seed.to_le_bytes());
    fnv(h, &seq.to_le_bytes())
}

/// Demux key for a victim: seed + victim attribution, no flow
/// identity (see the module docs for why).
pub fn victim_key(seed: u64, victim: u32) -> u64 {
    fnv(fnv(FNV_OFFSET, &seed.to_le_bytes()), &victim.to_le_bytes())
}

/// Buckets in the ring's lookup index: one per value of a key's top
/// byte.
const BUCKETS: usize = 256;

/// A seeded consistent-hash ring over `shards` shards.
///
/// Lookups go through a 256-bucket index over the sorted points:
/// bucket `b` starts at the first point whose top byte is `b`, so a
/// key's owner is a short forward scan from its bucket's start, with
/// one branch for the wrap past the last point. The ring also holds
/// its seed already folded into FNV, so routing a victim hashes only
/// the victim id.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points in ascending order, ties broken by shard.
    points: Vec<u64>,
    /// `owners[i]` is the shard `points[i]` belongs to.
    owners: Vec<u32>,
    /// `starts[b]` is the index of the first point with top byte
    /// `>= b`; `starts[BUCKETS]` is the point count.
    starts: Box<[u32; BUCKETS + 1]>,
    /// The FNV state after the seed: [`victim_key`] minus the victim.
    seed_hash: u64,
    shards: usize,
}

impl HashRing {
    /// Build a ring with `vnodes` points per shard. Deterministic in
    /// `(seed, shards, vnodes)`.
    pub fn new(seed: u64, shards: usize, vnodes: usize) -> Self {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let seed_hash = fnv(FNV_OFFSET, &seed.to_le_bytes());
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                let mut h = seed_hash;
                h = fnv(h, &(shard as u64).to_le_bytes());
                h = fnv(h, &(vnode as u64).to_le_bytes());
                points.push((h, shard as u32));
            }
        }
        // Sort by point; break ties by shard so equal points (FNV has
        // no collision guarantee) still order deterministically.
        points.sort_unstable();
        let mut starts = Box::new([0u32; BUCKETS + 1]);
        for (b, start) in starts.iter_mut().enumerate() {
            *start = points.partition_point(|&(p, _)| ((p >> 56) as usize) < b) as u32;
        }
        HashRing {
            owners: points.iter().map(|&(_, shard)| shard).collect(),
            points: points.into_iter().map(|(p, _)| p).collect(),
            starts,
            seed_hash,
            shards,
        }
    }

    /// Number of shards the ring routes to.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: first ring point at or after it,
    /// wrapping past `u64::MAX` to the smallest point.
    pub fn shard_of(&self, key: u64) -> usize {
        let bucket = (key >> 56) as usize;
        let end = self.starts[bucket + 1] as usize;
        let mut idx = self.starts[bucket] as usize;
        while idx < end && self.points[idx] < key {
            idx += 1;
        }
        if idx == self.points.len() {
            idx = 0;
        }
        self.owners[idx] as usize
    }

    /// The shard owning `victim`; the same answer as
    /// `shard_of(victim_key(seed, victim))` for this ring's seed.
    // wm-lint: hotpath
    pub fn victim_shard(&self, victim: u32) -> usize {
        self.shard_of(fnv(self.seed_hash, &victim.to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition the bucketed lookup must agree with: a binary
    /// search over the sorted points, wrapping past the last one.
    fn reference_owner(ring: &HashRing, key: u64) -> usize {
        let idx = ring.points.partition_point(|&p| p < key);
        ring.owners[idx % ring.points.len()] as usize
    }

    #[test]
    fn bucketed_lookup_matches_the_sorted_reference() {
        let seed = 0xF1EE7;
        for shards in 1..=9 {
            for vnodes in [1, 3, 16, 64] {
                let ring = HashRing::new(seed, shards, vnodes);
                assert_eq!(ring.points.len(), shards * vnodes);
                let mut keys = vec![0, u64::MAX];
                for &p in &ring.points {
                    keys.extend([p.wrapping_sub(1), p, p.wrapping_add(1)]);
                }
                for key in keys {
                    assert_eq!(
                        ring.shard_of(key),
                        reference_owner(&ring, key),
                        "{shards} shards x {vnodes} vnodes, key {key:#x}"
                    );
                }
                for victim in 0..20_000u32 {
                    let key = victim_key(seed, victim);
                    let want = reference_owner(&ring, key);
                    assert_eq!(ring.shard_of(key), want, "victim {victim}");
                    assert_eq!(ring.victim_shard(victim), want, "victim {victim}");
                }
            }
        }
    }

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let a = HashRing::new(7, 8, 16);
        let b = HashRing::new(7, 8, 16);
        let mut hit = [false; 8];
        for key in 0..4096u64 {
            let k = victim_key(7, key as u32);
            assert_eq!(a.shard_of(k), b.shard_of(k));
            hit[a.shard_of(k)] = true;
        }
        assert!(hit.iter().all(|&h| h), "every shard owns some keys");
    }

    #[test]
    fn resizing_moves_roughly_one_in_n_keys() {
        let seed = 13u64;
        let before = HashRing::new(seed, 8, 32);
        let after = HashRing::new(seed, 9, 32);
        let total = 20_000u32;
        let moved = (0..total)
            .filter(|&v| {
                let k = victim_key(seed, v);
                before.shard_of(k) != after.shard_of(k)
            })
            .count();
        // Ideal is 1/9 ≈ 11%; virtual-node variance allows slack but
        // a modulo scheme would move ~89%.
        let frac = moved as f64 / total as f64;
        assert!(
            frac < 0.30,
            "adding one shard moved {:.0}% of keys — not a consistent ring",
            frac * 100.0
        );
        assert!(frac > 0.0, "a new shard must claim some keys");
    }

    #[test]
    fn victims_get_distinct_seed_scoped_keys() {
        assert_ne!(
            victim_key(3, 42),
            victim_key(3, 43),
            "victims must not collide trivially"
        );
        assert_ne!(
            victim_key(3, 42),
            victim_key(4, 42),
            "keys must be seed-scoped"
        );
    }
}
