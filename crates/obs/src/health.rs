//! The SLO watchdog: per-shard vitals scored into typed health states
//! with hysteresis.
//!
//! The supervisor samples [`ShardVitals`] on its observation cadence
//! and feeds them to a [`Watchdog`]. Raw scores degrade *immediately*
//! (an operator should never learn late that a shard died) but recover
//! one level at a time only after `RECOVER_TICKS` consecutive clean
//! observations, so a shard flapping around a threshold cannot spam
//! the alert stream. Every state change is a [`HealthTransition`] in
//! sim time — a deterministic alert stream the supervisor also mirrors
//! into trace instants.

/// Typed shard health, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    Healthy,
    Degraded,
    Critical,
}

impl HealthState {
    /// Stable numeric code (trace payload word).
    pub fn code(self) -> u64 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Critical => 2,
        }
    }

    /// Stable lowercase label (exports, rendered status).
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Critical => "critical",
        }
    }

    /// The static trace-event name announcing a transition *into*
    /// this state.
    pub fn trace_name(self) -> &'static str {
        match self {
            HealthState::Healthy => "obs.health.healthy",
            HealthState::Degraded => "obs.health.degraded",
            HealthState::Critical => "obs.health.critical",
        }
    }

    fn one_step_toward_healthy(self) -> HealthState {
        match self {
            HealthState::Critical => HealthState::Degraded,
            _ => HealthState::Healthy,
        }
    }
}

// The SLO the raw health score is judged against.

/// Checkpoint age beyond `STALENESS_FACTOR × cadence` counts as stale.
const STALENESS_FACTOR: u64 = 2;
/// State-bound utilization (percent) at which a shard degrades.
const UTIL_DEGRADED_PCT: u64 = 70;
/// Utilization at which a shard is critical (about to shed state).
const UTIL_CRITICAL_PCT: u64 = 95;
/// Backoff exponent at which a dead shard counts as a restart storm
/// (kills faster than it can recover).
const STORM_BACKOFF_EXP: u32 = 2;
/// Consecutive clean observations required to step one level toward
/// `Healthy` (hysteresis).
const RECOVER_TICKS: u32 = 2;

/// One shard's vital signs at an observation tick. Everything here is
/// simulation state, so the scored health stream replays per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardVitals {
    pub shard: u32,
    /// False while killed and awaiting restart.
    pub alive: bool,
    /// True while the shard's ingest is stalled (fault injection).
    pub stalled: bool,
    /// Current restart-backoff exponent (0 after a clean checkpoint).
    pub backoff_exp: u32,
    /// Cumulative restarts of this shard.
    pub restarts: u64,
    /// Loss windows opened by a kill and not yet closed by a restore.
    pub open_loss_windows: u64,
    /// Sim time since the last durable checkpoint, µs.
    pub checkpoint_age_us: u64,
    /// Configured checkpoint cadence, µs.
    pub checkpoint_cadence_us: u64,
    /// Live decoder state held by the shard (RSS proxy), bytes.
    pub state_bytes: u64,
    /// Configured per-shard state bound, bytes.
    pub state_bound: u64,
    /// Packets parked in the stall queue.
    pub queued_packets: u64,
    /// Checkpoint blobs this shard rejected at restore (corrupt or
    /// torn), cumulative. Surfaced for attribution; not scored — a
    /// rejected restore always rolls further back, which the open
    /// loss windows already mark as degraded.
    pub restore_failures: u64,
    /// Child-process respawns, cumulative (process-shard backend
    /// only; always 0 for in-process shards, where a restart is a
    /// restore in the same address space).
    pub respawns: u64,
}

impl ShardVitals {
    /// State-bound utilization in percent (0 when unbounded).
    pub fn util_pct(&self) -> u64 {
        self.state_bytes
            .saturating_mul(100)
            .checked_div(self.state_bound)
            .unwrap_or(0)
    }

    /// Memoryless severity score; the [`Watchdog`] adds hysteresis.
    pub fn raw_health(&self) -> HealthState {
        if !self.alive || self.util_pct() >= UTIL_CRITICAL_PCT {
            return HealthState::Critical;
        }
        let stale = self.checkpoint_cadence_us > 0
            && self.checkpoint_age_us > STALENESS_FACTOR * self.checkpoint_cadence_us;
        if self.stalled
            || self.open_loss_windows > 0
            || self.backoff_exp >= STORM_BACKOFF_EXP
            || self.util_pct() >= UTIL_DEGRADED_PCT
            || stale
        {
            return HealthState::Degraded;
        }
        HealthState::Healthy
    }
}

/// One alert: shard `shard` moved `from → to` at sim time `t_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    pub t_us: u64,
    pub shard: u32,
    pub from: HealthState,
    pub to: HealthState,
}

/// The `fleet_status` report: what the supervisor (and, later, the
/// live-resharding hook) consults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStatus {
    /// Sim time of the latest observation tick, µs.
    pub t_us: u64,
    /// Current per-shard health, indexed by shard.
    pub states: Vec<HealthState>,
    /// The retained alert stream, oldest first.
    pub transitions: Vec<HealthTransition>,
    /// Alerts shed from the front of the bounded stream.
    pub transitions_dropped: u64,
}

impl FleetStatus {
    /// The worst current shard state (`Healthy` for an empty fleet).
    pub fn worst(&self) -> HealthState {
        self.states
            .iter()
            .copied()
            .max()
            .unwrap_or(HealthState::Healthy)
    }

    /// One line per shard plus the alert count, for logs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet_status @ {} µs: worst={}",
            self.t_us,
            self.worst().label()
        );
        for (shard, state) in self.states.iter().enumerate() {
            let _ = writeln!(out, "  shard {shard}: {}", state.label());
        }
        let _ = writeln!(
            out,
            "  alerts: {} retained, {} dropped",
            self.transitions.len(),
            self.transitions_dropped
        );
        out
    }
}

/// Hysteresis-scored health tracker for a fixed shard count.
#[derive(Debug)]
pub struct Watchdog {
    states: Vec<HealthState>,
    clean_streak: Vec<u32>,
    transitions: Vec<HealthTransition>,
    transition_capacity: usize,
    transitions_dropped: u64,
    last_tick_us: u64,
}

impl Watchdog {
    pub fn new(shards: usize, transition_capacity: usize) -> Self {
        Watchdog {
            states: vec![HealthState::Healthy; shards],
            clean_streak: vec![0; shards],
            transitions: Vec::new(),
            transition_capacity: transition_capacity.max(1),
            transitions_dropped: 0,
            last_tick_us: 0,
        }
    }

    /// Score one observation tick. `vitals` must be indexed by shard
    /// (one entry per shard, in shard order). Returns the transitions
    /// this tick produced, which are also appended to the bounded
    /// alert stream.
    pub fn observe(&mut self, t_us: u64, vitals: &[ShardVitals]) -> Vec<HealthTransition> {
        assert_eq!(vitals.len(), self.states.len(), "one vitals row per shard");
        self.last_tick_us = t_us;
        let mut fired = Vec::new();
        for (i, v) in vitals.iter().enumerate() {
            let raw = v.raw_health();
            let cur = self.states[i];
            let next = if raw > cur {
                // Degrade immediately.
                self.clean_streak[i] = 0;
                raw
            } else if raw < cur {
                // Recover one level only after a clean streak.
                self.clean_streak[i] += 1;
                if self.clean_streak[i] >= RECOVER_TICKS {
                    self.clean_streak[i] = 0;
                    cur.one_step_toward_healthy()
                } else {
                    cur
                }
            } else {
                self.clean_streak[i] = 0;
                cur
            };
            if next != cur {
                self.states[i] = next;
                fired.push(HealthTransition {
                    t_us,
                    shard: i as u32,
                    from: cur,
                    to: next,
                });
            }
        }
        for t in &fired {
            if self.transitions.len() == self.transition_capacity {
                self.transitions.remove(0);
                self.transitions_dropped += 1;
            }
            self.transitions.push(*t);
        }
        fired
    }

    /// Retarget the watchdog at a resized fleet. New shards start
    /// `Healthy` with a fresh hysteresis streak; removed shards drop
    /// off the scoreboard (their retained transitions stay in the
    /// alert stream — history is not rewritten by a scale-down).
    /// The next [`Watchdog::observe`] must carry exactly `shards`
    /// vitals rows.
    pub fn resize(&mut self, shards: usize) {
        self.states.resize(shards, HealthState::Healthy);
        self.clean_streak.resize(shards, 0);
    }

    pub fn status(&self) -> FleetStatus {
        FleetStatus {
            t_us: self.last_tick_us,
            states: self.states.clone(),
            transitions: self.transitions.clone(),
            transitions_dropped: self.transitions_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy(shard: u32) -> ShardVitals {
        ShardVitals {
            shard,
            alive: true,
            checkpoint_cadence_us: 1_000,
            checkpoint_age_us: 0,
            state_bound: 1_000_000,
            state_bytes: 1_000,
            ..ShardVitals::default()
        }
    }

    #[test]
    fn dead_shard_is_critical_and_recovers_through_degraded() {
        let mut dog = Watchdog::new(1, 64);
        let mut v = healthy(0);
        assert!(dog.observe(1, &[v]).is_empty());

        v.alive = false;
        let fired = dog.observe(2, &[v]);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].from, HealthState::Healthy);
        assert_eq!(fired[0].to, HealthState::Critical);

        // Recovery steps down one level per clean streak, never jumps.
        v.alive = true;
        assert!(dog.observe(3, &[v]).is_empty(), "streak 1 of 2");
        let fired = dog.observe(4, &[v]);
        assert_eq!(fired[0].to, HealthState::Degraded);
        assert!(dog.observe(5, &[v]).is_empty());
        let fired = dog.observe(6, &[v]);
        assert_eq!(fired[0].to, HealthState::Healthy);
        assert_eq!(dog.status().transitions.len(), 3);
    }

    #[test]
    fn flapping_resets_the_clean_streak() {
        let mut dog = Watchdog::new(1, 64);
        let mut v = healthy(0);
        v.stalled = true;
        dog.observe(1, &[v]);
        assert_eq!(dog.status().states[0], HealthState::Degraded);
        v.stalled = false;
        dog.observe(2, &[v]); // clean 1
        v.stalled = true;
        dog.observe(3, &[v]); // dirty again: streak resets
        v.stalled = false;
        dog.observe(4, &[v]); // clean 1
        assert_eq!(
            dog.status().states[0],
            HealthState::Degraded,
            "one clean tick is not enough"
        );
        dog.observe(5, &[v]); // clean 2 -> recovers
        assert_eq!(dog.status().states[0], HealthState::Healthy);
    }

    #[test]
    fn raw_score_covers_every_vital() {
        let base = healthy(0);
        assert_eq!(base.raw_health(), HealthState::Healthy);

        let mut v = base;
        v.open_loss_windows = 1;
        assert_eq!(v.raw_health(), HealthState::Degraded);

        let mut v = base;
        v.checkpoint_age_us = 2_001; // > 2 × 1000 cadence
        assert_eq!(v.raw_health(), HealthState::Degraded);

        let mut v = base;
        v.state_bytes = 700_000;
        assert_eq!(v.raw_health(), HealthState::Degraded);
        v.state_bytes = 950_000;
        assert_eq!(v.raw_health(), HealthState::Critical);

        let mut v = base;
        v.backoff_exp = STORM_BACKOFF_EXP;
        assert_eq!(v.raw_health(), HealthState::Degraded);
    }

    #[test]
    fn resize_grows_and_shrinks_the_scoreboard() {
        let mut dog = Watchdog::new(2, 64);
        let mut sick = healthy(1);
        sick.alive = false;
        dog.observe(1, &[healthy(0), sick]);
        assert_eq!(dog.status().states[1], HealthState::Critical);

        // Grow: the new shard starts healthy; existing state is kept.
        dog.resize(3);
        let fired = dog.observe(2, &[healthy(0), sick, healthy(2)]);
        assert!(fired.is_empty(), "resize itself fires no transitions");
        assert_eq!(dog.status().states.len(), 3);
        assert_eq!(dog.status().states[1], HealthState::Critical);

        // Shrink below the sick shard: it leaves the scoreboard but
        // its past transitions stay in the alert stream.
        dog.resize(1);
        assert_eq!(dog.status().states, [HealthState::Healthy]);
        assert_eq!(dog.status().transitions.len(), 1);
        dog.observe(3, &[healthy(0)]);
        assert_eq!(dog.status().states.len(), 1);
    }

    #[test]
    fn alert_stream_is_bounded() {
        let mut dog = Watchdog::new(1, 2);
        let mut v = healthy(0);
        // One stalled tick, then the RECOVER_TICKS clean ones that
        // bring the shard back.
        for t in 0..10u64 {
            v.stalled = t % (RECOVER_TICKS as u64 + 1) == 0;
            dog.observe(t, &[v]);
        }
        assert_eq!(dog.status().transitions.len(), 2);
        let status = dog.status();
        assert!(status.transitions_dropped > 0);
        assert!(status.render().contains("shard 0"));
    }
}
