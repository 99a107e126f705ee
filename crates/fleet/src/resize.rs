//! Live fleet resharding: the [`ResizeSchedule`] vocabulary and the
//! migration-window accounting the supervisor reports for it.
//!
//! A resize step `(tick, new_shard_count)` tells the supervisor to
//! re-point the consistent-hash ring at a different shard count *mid
//! stream*. The protocol (implemented in [`crate::supervisor`]) is:
//!
//! 1. **Drain.** Every live shard that owns victims claimed by the new
//!    ring drains exactly those victims to fresh per-victim checkpoint
//!    records ([`crate::shard::ShardState::drain_victims`]) — full
//!    decoder state, no rollback, so a fault-free drain is lossless.
//!    Dead shards are split at the *blob* level instead: the migrating
//!    victims' records are copied out of the last parseable checkpoint
//!    by byte range and the remainder is re-sealed for the shard's own
//!    eventual restart, which rolls those victims back to that
//!    checkpoint — exactly a kill's loss semantics, and accounted with
//!    the same window arithmetic.
//! 2. **Re-ring.** The ring is rebuilt at the new shard count (same
//!    seed, same vnode density). Consistent hashing guarantees minimal
//!    movement: survivors' arcs are untouched, so only victims claimed
//!    by added shards (grow) or orphaned by removed shards (shrink)
//!    migrate — the resize proptest pins the per-step bound.
//! 3. **Restore.** Migrated victims rehydrate on their new owners one
//!    record at a time, in (victim, source shard) order.
//!
//! Every migration is reported as a [`MigrationWindow`]; windows for
//! dead-shard migrations are *also* mirrored into the loss-window
//! report, because rollback loss is loss no matter which subsystem
//! caused it. The byte-determinism contract rides on step 1: on
//! fault-free input the merged verdict stream is byte-identical across
//! any resize schedule, including none.

use wm_capture::time::SimTime;

/// One scheduled resize: at sim time `at`, the fleet becomes `shards`
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeStep {
    pub at: SimTime,
    pub shards: usize,
}

/// Why a [`ResizeSchedule`] was rejected at construction. Matches the
/// `IngestLimits` validate-on-construction idiom: an unusable schedule
/// never becomes a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeScheduleError {
    /// Steps must be in strictly increasing time order.
    Unsorted { index: usize },
    /// Two steps share a tick — the earlier one would be dead weight
    /// and equal-tick ordering is exactly the ambiguity this type
    /// exists to rule out.
    Duplicate { index: usize },
    /// A resize at tick 0 is a misconfigured *initial* shard count:
    /// set `FleetConfig::shards` instead.
    AtTickZero { index: usize },
    /// A fleet cannot resize to zero shards.
    ZeroShards { index: usize },
}

impl std::fmt::Display for ResizeScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResizeScheduleError::Unsorted { index } => {
                write!(f, "resize step {index} is not after its predecessor")
            }
            ResizeScheduleError::Duplicate { index } => {
                write!(f, "resize step {index} shares a tick with its predecessor")
            }
            ResizeScheduleError::AtTickZero { index } => write!(
                f,
                "resize step {index} fires at tick 0; configure the initial shard count instead"
            ),
            ResizeScheduleError::ZeroShards { index } => {
                write!(
                    f,
                    "resize step {index} would shrink the fleet to zero shards"
                )
            }
        }
    }
}

impl std::error::Error for ResizeScheduleError {}

/// A validated, time-sorted resize schedule for one fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResizeSchedule {
    steps: Vec<ResizeStep>,
}

impl ResizeSchedule {
    /// The empty schedule: the fleet keeps its configured shard count
    /// for the whole run.
    pub fn none() -> Self {
        ResizeSchedule::default()
    }

    /// Build a schedule from `(tick, new_shard_count)` steps,
    /// validating on construction: strictly increasing ticks, no tick
    /// 0, every step at least one shard.
    pub fn new(steps: Vec<(SimTime, usize)>) -> Result<Self, ResizeScheduleError> {
        let schedule = ResizeSchedule {
            steps: steps
                .into_iter()
                .map(|(at, shards)| ResizeStep { at, shards })
                .collect(),
        };
        schedule.validate()?;
        Ok(schedule)
    }

    /// Re-check the construction invariants (trivially true for any
    /// schedule built through [`ResizeSchedule::new`]).
    pub fn validate(&self) -> Result<(), ResizeScheduleError> {
        for (index, step) in self.steps.iter().enumerate() {
            if step.at == SimTime::ZERO {
                return Err(ResizeScheduleError::AtTickZero { index });
            }
            if step.shards == 0 {
                return Err(ResizeScheduleError::ZeroShards { index });
            }
            if index > 0 {
                let prev = self.steps[index - 1].at;
                if step.at.micros() < prev.micros() {
                    return Err(ResizeScheduleError::Unsorted { index });
                }
                if step.at == prev {
                    return Err(ResizeScheduleError::Duplicate { index });
                }
            }
        }
        Ok(())
    }

    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// The schedule, strictly increasing in time.
    pub fn steps(&self) -> &[ResizeStep] {
        &self.steps
    }
}

/// One victim's migration during a resize step, with the at-risk
/// interval accounted exactly like a kill's loss window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationWindow {
    pub victim: u32,
    pub from_shard: u32,
    pub to_shard: u32,
    /// When the resize step fired.
    pub at: SimTime,
    /// Start of the at-risk interval: `at` for a live drain (no
    /// rollback → zero-width window), the source shard's last
    /// checkpoint for a dead-shard blob split.
    pub from: SimTime,
    /// End of the at-risk interval, including the replay margin for
    /// dead-shard migrations. `from == to` means the migration was
    /// lossless.
    pub to: SimTime,
}

impl MigrationWindow {
    /// True when the migration moved full live state (no rollback).
    pub fn lossless(&self) -> bool {
        self.from == self.to
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_validates_on_construction() {
        let t = |us: u64| SimTime(us);
        assert!(ResizeSchedule::new(vec![(t(10), 4), (t(20), 2), (t(30), 4)]).is_ok());
        assert!(ResizeSchedule::none().validate().is_ok());
        assert_eq!(
            ResizeSchedule::new(vec![(t(20), 4), (t(10), 2)]).err(),
            Some(ResizeScheduleError::Unsorted { index: 1 })
        );
        assert_eq!(
            ResizeSchedule::new(vec![(t(10), 4), (t(10), 2)]).err(),
            Some(ResizeScheduleError::Duplicate { index: 1 })
        );
        assert_eq!(
            ResizeSchedule::new(vec![(t(0), 4)]).err(),
            Some(ResizeScheduleError::AtTickZero { index: 0 })
        );
        assert_eq!(
            ResizeSchedule::new(vec![(t(10), 0)]).err(),
            Some(ResizeScheduleError::ZeroShards { index: 0 })
        );
    }

    #[test]
    fn migration_window_reports_losslessness() {
        let w = MigrationWindow {
            victim: 7,
            from_shard: 1,
            to_shard: 3,
            at: SimTime(100),
            from: SimTime(100),
            to: SimTime(100),
        };
        assert!(w.lossless());
        let lossy = MigrationWindow {
            from: SimTime(40),
            to: SimTime(160),
            ..w
        };
        assert!(!lossy.lossless());
    }
}
