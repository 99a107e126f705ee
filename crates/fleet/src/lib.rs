//! # wm-fleet — supervised sharded attacker fleet
//!
//! [`wm_core::online`] decodes one victim's session from a live packet
//! feed.
//! The paper's threat model, though, is an ISP- or IXP-level observer
//! watching *many* subscribers at once, for hours, on infrastructure
//! that fails: decoder processes get OOM-killed, taps hiccup, and
//! checkpoint writes get torn by the very crash they were meant to
//! survive. This crate turns the single-victim decoder into that
//! fleet:
//!
//! * **Demux** ([`ring`]): a seeded consistent-hash ring routes each
//!   victim (by tap attribution, never flow identity, so reconnects
//!   colocate) onto one of N decoder shards, stable under resize.
//! * **Shards** ([`shard`]): each shard owns per-victim
//!   [`wm_core::online::OnlineDecoder`]s and serializes them all into one
//!   byte-deterministic binary checkpoint blob — a header written
//!   once, one length-prefixed record per victim, a trailing CRC-32 —
//!   that migrations split and splice by byte range.
//! * **Supervision** ([`supervisor`]): a deterministic control loop
//!   checkpoints every shard on a sim-time cadence, absorbs
//!   [`wm_chaos::ShardFaultPlan`] faults (kill, stall,
//!   checkpoint-corrupt, torn write), restarts dead shards from their
//!   last good checkpoint with capped exponential backoff — healthy
//!   shards keep draining throughout — and charges every at-risk
//!   interval to an explicit per-victim loss window.
//! * **Merge** ([`dedup`]): verdicts from all shards (and from
//!   overlapping taps) pass a dedup stage keyed on the
//!   `ChoiceProvenance` record indices, guaranteeing **zero
//!   duplicated** and **bounded lost** verdicts in the merged stream.
//!
//! Everything is byte-deterministic: the same seed, fault plan, and
//! packet stream produce the identical merged verdict stream and loss
//! report, and — absent faults — regardless of shard count, backend
//! or resize schedule.

pub mod dedup;
pub mod process;
pub mod resize;
pub mod ring;
pub mod shard;
pub mod supervisor;

pub use dedup::VerdictDedup;
pub use process::{
    decode_frame, encode_frame, shard_worker_main, FrameError, ProcessShard, RemoteError, Reply,
    Request, MAX_FRAME,
};
pub use resize::{MigrationWindow, ResizeSchedule, ResizeScheduleError, ResizeStep};
pub use ring::{victim_key, HashRing};
pub use shard::{
    one_record, parse_envelope, ShardEnvelope, ShardRestoreError, ShardRestoreErrorKind,
    ShardState, WorkerFault,
};
pub use supervisor::{Fleet, FleetReport, FleetStats, LossWindow, ObsReport, ShardRecovery};
// Health-plane vocabulary, re-exported so fleet consumers don't need a
// direct wm-obs dependency to read a `fleet_status` report.
pub use wm_obs::{FleetStatus, HealthState, HealthTransition, ShardVitals};

use wm_capture::time::{Duration, SimTime};
use wm_core::online::OnlineConfig;

/// Why a [`FleetConfig`] is unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `shards` must be ≥ 1.
    ZeroShards,
    /// `checkpoint_every` must be a positive sim-time interval.
    ZeroCheckpointCadence,
    /// `max_victims_per_shard` must be ≥ 1.
    ZeroVictims,
    /// The process backend was requested but no shard-worker binary
    /// could be resolved (config path, `WM_SHARD_WORKER`, or a
    /// `shard_worker` next to the current executable) or spawned.
    Worker,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::ZeroShards => write!(f, "fleet needs at least one shard"),
            FleetConfigError::ZeroCheckpointCadence => {
                write!(f, "checkpoint cadence must be a positive sim-time interval")
            }
            FleetConfigError::ZeroVictims => {
                write!(f, "each shard must admit at least one victim")
            }
            FleetConfigError::Worker => {
                write!(f, "process backend: no shard-worker binary available")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Where each shard's decoders live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ShardBackend {
    /// Shards share the supervisor's address space (the default):
    /// fastest, fully deterministic, but a decoder panic is fatal to
    /// the whole fleet.
    #[default]
    InProcess,
    /// Each shard runs in a child OS process behind the
    /// [`process`] stdin/stdout protocol. A `kill -9`'d shard is
    /// respawned from its last good checkpoint without the supervisor
    /// ever exiting. `worker` names the shard-worker binary; `None`
    /// resolves via `WM_SHARD_WORKER` or a `shard_worker` binary next
    /// to the current executable.
    Process { worker: Option<std::path::PathBuf> },
}

/// Fleet-level configuration. All durations are **sim-time**.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of decoder shards.
    pub shards: usize,
    /// Per-shard checkpoint cadence.
    pub checkpoint_every: Duration,
    /// Evict a victim idle for longer than this (checked at
    /// checkpoint boundaries).
    pub victim_idle: Duration,
    /// Hard cap on concurrently-live victims per shard.
    pub max_victims_per_shard: usize,
    /// Where shard decoders live (in-process, or one child OS process
    /// per shard). Never affects output bytes on fault-free input.
    pub backend: ShardBackend,
    /// Per-victim decoder configuration.
    pub decode: OnlineConfig,
}

impl FleetConfig {
    /// A config whose sim-time knobs match a session generator running
    /// at `time_scale`× compression, mirroring
    /// [`OnlineConfig::scaled`].
    pub fn scaled(shards: usize, time_scale: u32) -> Self {
        let ts = time_scale.max(1) as f64;
        FleetConfig {
            shards,
            checkpoint_every: Duration::from_secs_f64(30.0 / ts),
            victim_idle: Duration::from_secs_f64(600.0 / ts),
            max_victims_per_shard: 64,
            backend: ShardBackend::InProcess,
            decode: OnlineConfig::scaled(time_scale),
        }
    }

    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.shards == 0 {
            return Err(FleetConfigError::ZeroShards);
        }
        if self.checkpoint_every.micros() == 0 {
            return Err(FleetConfigError::ZeroCheckpointCadence);
        }
        if self.max_victims_per_shard == 0 {
            return Err(FleetConfigError::ZeroVictims);
        }
        Ok(())
    }

    /// Upper bound on one shard's resident decoder state: the victim
    /// cap times the decoder's own bound, [`wm_core::online::STATE_BOUND`] —
    /// the single source of truth for every memory assertion in the
    /// fleet tests, soak, and bench.
    pub fn per_shard_state_bound(&self) -> usize {
        self.max_victims_per_shard * wm_core::online::STATE_BOUND
    }
}

/// One tap-attributed packet: `(arrival sim-time, victim id, frame)`.
pub type TapPacket = (SimTime, u32, Vec<u8>);

/// Merge the feeds of several taps with overlapping visibility into
/// one deterministic stream: ordered by `(time, victim)`, ties broken
/// by tap order then arrival order. Duplicate *packets* are absorbed
/// downstream by each decoder's ingest (earliest copy wins) and the
/// verdict dedup stage guarantees the merged *verdict* stream carries
/// no duplicates.
///
/// Sorts an index first and clones each frame once, in output order,
/// so the merged stream's frames sit in memory in the order they are
/// read.
pub fn merge_taps(taps: &[Vec<TapPacket>]) -> Vec<TapPacket> {
    // (time, victim, tap, position): unique keys, so an unstable sort
    // gives the stable order.
    let mut order: Vec<(u64, u32, usize, usize)> = taps
        .iter()
        .enumerate()
        .flat_map(|(ti, tap)| {
            tap.iter()
                .enumerate()
                .map(move |(pi, (t, v, _))| (t.micros(), *v, ti, pi))
        })
        .collect();
    order.sort_unstable();
    order
        .iter()
        .map(|&(_, _, ti, pi)| taps[ti][pi].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_each_knob() {
        let good = FleetConfig::scaled(4, 20);
        assert!(good.validate().is_ok());
        let mut c = good.clone();
        c.shards = 0;
        assert_eq!(c.validate(), Err(FleetConfigError::ZeroShards));
        let mut c = good.clone();
        c.checkpoint_every = Duration::ZERO;
        assert_eq!(c.validate(), Err(FleetConfigError::ZeroCheckpointCadence));
        let mut c = good;
        c.max_victims_per_shard = 0;
        assert_eq!(c.validate(), Err(FleetConfigError::ZeroVictims));
    }

    #[test]
    fn shard_bound_scales_with_the_victim_cap() {
        let small = FleetConfig::scaled(2, 20);
        let mut big = small.clone();
        big.max_victims_per_shard *= 4;
        assert!(
            big.per_shard_state_bound() > small.per_shard_state_bound(),
            "the shard bound must scale with the victims it holds"
        );
        assert_eq!(
            small.per_shard_state_bound(),
            small.max_victims_per_shard * wm_core::online::STATE_BOUND
        );
    }

    /// The oracle is the clone-then-stable-sort body the index sort
    /// must reproduce, over unsorted multi-victim taps whose
    /// `(time, victim)` keys tie within and across taps.
    #[test]
    fn merge_taps_matches_a_stable_sort_of_the_concatenation() {
        fn reference(taps: &[Vec<TapPacket>]) -> Vec<TapPacket> {
            let mut merged: Vec<TapPacket> = taps.iter().flatten().cloned().collect();
            merged.sort_by_key(|(t, v, _)| (t.micros(), *v));
            merged
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..50 {
            let taps: Vec<Vec<TapPacket>> = (0..next(4) + 1)
                .map(|tap| {
                    (0..next(40))
                        .map(|i| {
                            let frame = vec![case as u8, tap as u8, i as u8];
                            (SimTime(next(12)), next(5) as u32, frame)
                        })
                        .collect()
                })
                .collect();
            assert_eq!(merge_taps(&taps), reference(&taps), "case {case}");
        }
    }

    #[test]
    fn merge_taps_is_deterministic_and_time_ordered() {
        let a = vec![(SimTime(30), 1u32, vec![1u8]), (SimTime(10), 2, vec![2])];
        let b = vec![(SimTime(20), 1, vec![3]), (SimTime(10), 2, vec![2])];
        let merged = merge_taps(&[a.clone(), b.clone()]);
        assert_eq!(merged, merge_taps(&[a, b]));
        let times: Vec<u64> = merged.iter().map(|(t, _, _)| t.micros()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(
            merged.len(),
            4,
            "merge keeps duplicates for ingest to absorb"
        );
    }
}
