//! Shard-level fault injection for the supervised attacker fleet.
//!
//! [`crate::FaultPlan`] breaks the *session* and [`crate::capture`]
//! breaks the *tap*; this module breaks the **attacker's own
//! infrastructure**: the decoder shards of `wm-fleet` and the storage
//! their checkpoints land on. A [`ShardFaultPlan`] is pure data in the
//! same idiom as the session plan — every fault is scheduled up front
//! from a labelled seed, so a fleet run with the same
//! `(seed, ShardFaultPlan)` pair replays byte-identically.
//!
//! The taxonomy mirrors how a long-running service actually dies:
//!
//! - **Kill** — the shard process is gone instantly; everything in
//!   memory (decoder state past the last checkpoint, queued packets)
//!   is lost and the supervisor must restore from storage.
//! - **Stall** — the shard stops draining for a window (GC pause, CPU
//!   starvation, a wedged IO thread) but keeps its state; packets
//!   routed to it during the stall back up or drop.
//! - **CheckpointCorrupt** — the shard's next checkpoint *write*
//!   lands, but storage flips bytes in it; the damage only surfaces
//!   when a later restore parses the blob.
//! - **CheckpointTorn** — the shard's next checkpoint write tears:
//!   only a prefix reaches storage (crash mid-`write(2)`, no fsync).
//! - **ProcessAbort** — the shard's host *process* is `kill -9`'d.
//!   Against the in-process fleet backend this degrades to `Kill`;
//!   against the process-shard backend the supervisor delivers a real
//!   `SIGKILL` to the child and must respawn it from the last good
//!   checkpoint blob without itself exiting.
//!
//! The corruption helpers ([`corrupt_blob`], [`tear_blob`]) are
//! deterministic in `(seed, input)` and guarantee the output differs
//! from the input, so a restore path that "tolerates" corruption by
//! accident cannot pass the recovery tests.

use wm_cipher::kdf::derive_seed;
use wm_net::rng::SimRng;
use wm_net::time::{Duration, SimTime};

/// One kind of shard-infrastructure fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardFaultKind {
    /// The shard dies instantly, losing all in-memory state.
    Kill,
    /// The shard stops draining for `stall` but keeps its state.
    Stall { stall: Duration },
    /// The shard's next checkpoint write is corrupted in storage.
    CheckpointCorrupt,
    /// The shard's next checkpoint write tears to a prefix.
    CheckpointTorn,
    /// The shard's host process receives an uncatchable `SIGKILL`.
    /// Distinguished from [`ShardFaultKind::Kill`] so the supervisor
    /// can exercise its real child-process respawn path; on an
    /// in-process shard it behaves exactly like `Kill`.
    ProcessAbort,
}

impl ShardFaultKind {
    /// Stable trace event name for this fault's firing.
    pub fn trace_name(&self) -> &'static str {
        match self {
            ShardFaultKind::Kill => "chaos.shard_kill",
            ShardFaultKind::Stall { .. } => "chaos.shard_stall",
            ShardFaultKind::CheckpointCorrupt => "chaos.checkpoint_corrupt",
            ShardFaultKind::CheckpointTorn => "chaos.checkpoint_torn",
            ShardFaultKind::ProcessAbort => "chaos.process_abort",
        }
    }
}

/// A shard fault scheduled at a simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFault {
    pub at: SimTime,
    /// Index of the shard this fault hits (`< shards` at generation).
    pub shard: usize,
    pub kind: ShardFaultKind,
}

/// A deterministic, time-sorted shard-fault schedule for one fleet
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardFaultPlan {
    events: Vec<ShardFault>,
}

impl ShardFaultPlan {
    /// The empty plan: a fleet with this plan runs exactly as if
    /// shard chaos did not exist.
    pub fn none() -> Self {
        ShardFaultPlan::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by time (stable for equal times).
    pub fn events(&self) -> &[ShardFault] {
        &self.events
    }

    /// Add a fault, keeping the schedule time-sorted (stable for
    /// equal times: earlier inserts fire first).
    pub fn push(&mut self, at: SimTime, shard: usize, kind: ShardFaultKind) -> &mut Self {
        self.events.push(ShardFault { at, shard, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Generate a random plan over `[10%, 90%]` of `horizon` against a
    /// fleet of `shards` shards, with fault density scaled by
    /// `intensity` (0.0 = empty plan). Deterministic in
    /// `(seed, intensity, shards, horizon)`; the RNG is labelled so
    /// plan generation never perturbs the session or capture chaos
    /// streams sharing the seed.
    pub fn generate(seed: u64, intensity: f64, shards: usize, horizon: Duration) -> Self {
        let intensity = intensity.clamp(0.0, 8.0);
        if intensity == 0.0 || shards == 0 || horizon.micros() == 0 {
            return ShardFaultPlan::none();
        }
        let mut rng = SimRng::new(derive_seed(seed, "shard chaos plan"));
        let lo = horizon.micros() / 10;
        let hi = horizon.micros() * 9 / 10;
        let mut plan = ShardFaultPlan::default();
        let span = |rng: &mut SimRng, min_frac: f64, max_frac: f64| {
            let f = min_frac + rng.unit() * (max_frac - min_frac);
            Duration::from_micros((horizon.micros() as f64 * f) as u64)
        };
        let mut emit =
            |rng: &mut SimRng,
             weight: f64,
             mut kind_of: Box<dyn FnMut(&mut SimRng) -> ShardFaultKind>| {
                let expected = intensity * weight;
                let mut n = expected.floor() as u32;
                if rng.unit() < expected.fract() {
                    n += 1;
                }
                for _ in 0..n {
                    let at = SimTime(rng.uniform_u64(lo, hi.max(lo)));
                    let shard = rng.uniform_u64(0, shards as u64 - 1) as usize;
                    let kind = kind_of(rng);
                    plan.events.push(ShardFault { at, shard, kind });
                }
            };

        emit(&mut rng, 1.2, Box::new(|_| ShardFaultKind::Kill));
        emit(
            &mut rng,
            1.0,
            Box::new(|r| ShardFaultKind::Stall {
                stall: span(r, 0.01, 0.05),
            }),
        );
        emit(
            &mut rng,
            0.8,
            Box::new(|_| ShardFaultKind::CheckpointCorrupt),
        );
        emit(&mut rng, 0.8, Box::new(|_| ShardFaultKind::CheckpointTorn));

        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// [`ShardFaultPlan::generate`] plus `ProcessAbort` faults for
    /// fleets running the process-shard backend. The aborts come from
    /// their **own** labelled RNG appended after the base plan, so
    /// `generate` keeps producing byte-identical plans (committed
    /// Exact-band baselines depend on that) and the same
    /// `(seed, intensity)` pair yields the base plan as a strict
    /// subset of this one.
    pub fn generate_with_aborts(
        seed: u64,
        intensity: f64,
        shards: usize,
        horizon: Duration,
    ) -> Self {
        let mut plan = ShardFaultPlan::generate(seed, intensity, shards, horizon);
        let intensity = intensity.clamp(0.0, 8.0);
        if intensity == 0.0 || shards == 0 || horizon.micros() == 0 {
            return plan;
        }
        let mut rng = SimRng::new(derive_seed(seed, "shard chaos abort plan"));
        let lo = horizon.micros() / 10;
        let hi = horizon.micros() * 9 / 10;
        let expected = intensity * 0.8;
        let mut n = expected.floor() as u32;
        if rng.unit() < expected.fract() {
            n += 1;
        }
        for _ in 0..n {
            let at = SimTime(rng.uniform_u64(lo, hi.max(lo)));
            let shard = rng.uniform_u64(0, shards as u64 - 1) as usize;
            plan.events.push(ShardFault {
                at,
                shard,
                kind: ShardFaultKind::ProcessAbort,
            });
        }
        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// Count of events matching a predicate, for reporting.
    pub fn count(&self, pred: impl Fn(&ShardFaultKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

/// Deterministically corrupt a checkpoint blob: a seeded number of
/// seeded byte positions are XORed with nonzero masks, so the output
/// always differs from a non-empty input. Models bit rot / a bad
/// sector under the blob.
pub fn corrupt_blob(seed: u64, blob: &[u8]) -> Vec<u8> {
    let mut out = blob.to_vec();
    if out.is_empty() {
        return out;
    }
    let mut rng = SimRng::new(derive_seed(seed, "checkpoint corrupt"));
    let flips = 1 + (rng.uniform_u64(0, (out.len() as u64 / 64).min(15)) as usize);
    for _ in 0..flips {
        let pos = rng.uniform_u64(0, out.len() as u64 - 1) as usize;
        let mask = (rng.uniform_u64(1, 255) & 0xff) as u8;
        if let Some(byte) = out.get_mut(pos) {
            *byte ^= mask.max(1);
        }
    }
    out
}

/// Deterministically tear a checkpoint write: only a seeded strict
/// prefix of the blob reaches storage. Models a crash mid-write with
/// no fsync barrier.
pub fn tear_blob(seed: u64, blob: &[u8]) -> Vec<u8> {
    if blob.is_empty() {
        return Vec::new();
    }
    let mut rng = SimRng::new(derive_seed(seed, "checkpoint tear"));
    let keep = rng.uniform_u64(0, blob.len() as u64 - 1) as usize;
    blob.get(..keep).unwrap_or_default().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(ShardFaultPlan::none().is_empty());
        assert_eq!(
            ShardFaultPlan::generate(7, 0.0, 4, Duration::from_secs(100)),
            ShardFaultPlan::none()
        );
        assert_eq!(
            ShardFaultPlan::generate(7, 1.0, 0, Duration::from_secs(100)),
            ShardFaultPlan::none()
        );
        assert_eq!(
            ShardFaultPlan::generate(7, 1.0, 4, Duration(0)),
            ShardFaultPlan::none()
        );
    }

    #[test]
    fn generate_is_deterministic_and_decorrelated() {
        let h = Duration::from_secs(120);
        assert_eq!(
            ShardFaultPlan::generate(42, 2.0, 4, h),
            ShardFaultPlan::generate(42, 2.0, 4, h)
        );
        assert_ne!(
            ShardFaultPlan::generate(42, 2.0, 4, h),
            ShardFaultPlan::generate(43, 2.0, 4, h),
            "seed must decorrelate plans"
        );
    }

    #[test]
    fn generate_is_sorted_bounded_and_targets_real_shards() {
        let h = Duration::from_secs(200);
        let shards = 5usize;
        for seed in 0..20u64 {
            let plan = ShardFaultPlan::generate(seed, 3.0, shards, h);
            for w in plan.events().windows(2) {
                assert!(w[0].at <= w[1].at);
            }
            for e in plan.events() {
                assert!(e.shard < shards, "fault targets shard {}", e.shard);
                assert!(e.at.micros() >= h.micros() / 10);
                assert!(e.at.micros() <= h.micros() * 9 / 10);
            }
        }
    }

    #[test]
    fn abort_generation_extends_without_perturbing_the_base_plan() {
        let h = Duration::from_secs(200);
        for seed in 0..10u64 {
            let base = ShardFaultPlan::generate(seed, 2.0, 4, h);
            let with = ShardFaultPlan::generate_with_aborts(seed, 2.0, 4, h);
            // Sorted, and no fault scheduled twice back to back.
            assert!(with
                .events()
                .windows(2)
                .all(|w| w[0].at <= w[1].at && w[0] != w[1]));
            // Every base event survives verbatim: aborts are appended
            // from their own labelled RNG, never interleaved into the
            // base generator's draw sequence.
            let base_only: Vec<_> = with
                .events()
                .iter()
                .copied()
                .filter(|e| e.kind != ShardFaultKind::ProcessAbort)
                .collect();
            assert_eq!(base_only, base.events());
            for e in with.events() {
                assert!(e.shard < 4);
            }
        }
        let aborts: usize = (0..16)
            .map(|s| {
                ShardFaultPlan::generate_with_aborts(s, 3.0, 4, h)
                    .count(|k| *k == ShardFaultKind::ProcessAbort)
            })
            .sum();
        assert!(aborts > 0, "intensity 3.0 must schedule some aborts");
    }

    #[test]
    fn intensity_scales_density() {
        let h = Duration::from_secs(300);
        let low: usize = (0..16)
            .map(|s| ShardFaultPlan::generate(s, 0.5, 4, h).len())
            .sum();
        let high: usize = (0..16)
            .map(|s| ShardFaultPlan::generate(s, 4.0, 4, h).len())
            .sum();
        assert!(
            high > 2 * low,
            "intensity 4.0 ({high}) should schedule far more faults than 0.5 ({low})"
        );
    }

    #[test]
    fn corrupt_blob_always_differs_and_is_deterministic() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        for seed in 0..50u64 {
            let a = corrupt_blob(seed, &blob);
            assert_eq!(a.len(), blob.len());
            assert_ne!(a, blob, "seed {seed} left the blob intact");
            assert_eq!(a, corrupt_blob(seed, &blob));
        }
        assert!(corrupt_blob(1, &[]).is_empty());
    }

    #[test]
    fn tear_blob_is_a_strict_prefix() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        for seed in 0..50u64 {
            let t = tear_blob(seed, &blob);
            assert!(t.len() < blob.len(), "seed {seed} kept the whole blob");
            assert_eq!(&blob[..t.len()], &t[..]);
            assert_eq!(t, tear_blob(seed, &blob));
        }
        assert!(tear_blob(1, &[]).is_empty());
    }
}
