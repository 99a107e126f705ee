//! wm-chaos — seeded, deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a time-sorted list of [`FaultEvent`]s that
//! `wm-sim` threads through the session event loop. The plan is pure
//! data: every fault is scheduled up front from a labelled seed, so a
//! session run with the same `(SessionConfig, FaultPlan)` pair replays
//! byte-identically — chaos here is reproducible by construction, the
//! same property the rest of the pipeline guarantees.
//!
//! The taxonomy mirrors what a real Bandersnatch session endures on a
//! flaky network path:
//!
//! - **Transport**: mid-session TCP connection resets (the player
//!   reconnects with TLS session resumption, spawning a second flow
//!   the eavesdropper must stitch).
//! - **Server**: 503-with-Retry-After bursts on the state endpoint and
//!   whole-pipeline response stalls.
//! - **Link**: bandwidth collapses and full blackouts for a bounded
//!   window.
//! - **Capture**: tap gaps — the monitor simply misses a span of
//!   packets, which the attacker sees as a reassembly gap.
//! - **Application**: duplicate or delayed state-POST deliveries, the
//!   browser-retry behaviour that produces repeated type-1/type-2
//!   records on the wire.
//!
//! The [`capture`] module adds the attacker-side counterpart: seeded
//! impairments of the *capture* itself (packet reorder inside a jitter
//! window, snaplen truncation, duplicate delivery, mid-session tap
//! attach, crash/restart kill points) that degrade what the
//! eavesdropper records without touching the session.
//!
//! The [`shard`] module turns the chaos on the attacker's own
//! *infrastructure*: seeded kill/stall faults against the decoder
//! shards of the supervised fleet, plus checkpoint-storage corruption
//! and torn writes that the recovery path must survive.

pub mod capture;
pub mod shard;

pub use capture::{impair_capture, kill_index, CaptureImpairment, ImpairStats, TapPacket};
pub use shard::{corrupt_blob, tear_blob, ShardFault, ShardFaultKind, ShardFaultPlan};

use wm_cipher::kdf::derive_seed;
use wm_net::rng::SimRng;
use wm_net::time::{Duration, SimTime};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Abort the TCP connection mid-stream; the player reconnects on a
    /// fresh flow with an abbreviated (session-resumption) handshake.
    ConnectionReset,
    /// The server holds all queued responses for `stall`.
    ServerStall { stall: Duration },
    /// The next `burst` state POSTs are answered `503` with a
    /// `Retry-After` hint instead of being persisted.
    ServerError { burst: u32, retry_after: Duration },
    /// Both directions of the link drop to `factor` of their
    /// configured bandwidth for `duration`.
    BandwidthCollapse { factor: f64, duration: Duration },
    /// The link delivers nothing at all for `duration`.
    Blackout { duration: Duration },
    /// The capture tap records nothing for `duration` (traffic still
    /// flows — only the eavesdropper is blind).
    TapGap { duration: Duration },
    /// The player transmits its next state POST twice (same body, same
    /// `seq`); the server must dedup.
    DuplicateStatePost,
    /// The player holds its next state POST for `delay` before
    /// sending.
    DelayStatePost { delay: Duration },
}

impl FaultKind {
    /// Stable trace event name for this fault's firing, so the
    /// first diverging event between a clean and a faulted trace reads
    /// as the fault itself.
    pub fn trace_name(&self) -> &'static str {
        match self {
            FaultKind::ConnectionReset => "chaos.connection_reset",
            FaultKind::ServerStall { .. } => "chaos.server_stall",
            FaultKind::ServerError { .. } => "chaos.server_error",
            FaultKind::BandwidthCollapse { .. } => "chaos.bandwidth_collapse",
            FaultKind::Blackout { .. } => "chaos.blackout",
            FaultKind::TapGap { .. } => "chaos.tap_gap",
            FaultKind::DuplicateStatePost => "chaos.duplicate_state_post",
            FaultKind::DelayStatePost { .. } => "chaos.delay_state_post",
        }
    }
}

/// A fault scheduled at a simulation time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// A deterministic, time-sorted fault schedule for one session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a session with this plan is byte-identical to
    /// one run before wm-chaos existed.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The schedule, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add a fault, keeping the schedule time-sorted (stable for
    /// equal times: earlier inserts fire first).
    pub fn push(&mut self, at: SimTime, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Generate a random plan over `[10%, 90%]` of `horizon`, with
    /// fault density scaled by `intensity` (0.0 = empty plan, 1.0 =
    /// a thoroughly bad day). Deterministic in `(seed, intensity,
    /// horizon)`; the RNG is labelled so plan generation never
    /// perturbs any other subsystem's stream.
    pub fn generate(seed: u64, intensity: f64, horizon: Duration) -> Self {
        let intensity = intensity.clamp(0.0, 8.0);
        if intensity == 0.0 || horizon.micros() == 0 {
            return FaultPlan::none();
        }
        let mut rng = SimRng::new(derive_seed(seed, "chaos plan"));
        let lo = horizon.micros() / 10;
        let hi = horizon.micros() * 9 / 10;
        let mut plan = FaultPlan::default();
        // Fault durations scale with the horizon so short scaled
        // sessions see proportionally short outages.
        let span = |rng: &mut SimRng, min_frac: f64, max_frac: f64| {
            let f = min_frac + rng.unit() * (max_frac - min_frac);
            Duration::from_micros((horizon.micros() as f64 * f) as u64)
        };
        let mut emit =
            |rng: &mut SimRng,
             weight: f64,
             mut kind_of: Box<dyn FnMut(&mut SimRng) -> FaultKind>| {
                let expected = intensity * weight;
                let mut n = expected.floor() as u32;
                if rng.unit() < expected.fract() {
                    n += 1;
                }
                for _ in 0..n {
                    let at = SimTime(rng.uniform_u64(lo, hi.max(lo)));
                    let kind = kind_of(rng);
                    plan.events.push(FaultEvent { at, kind });
                }
            };

        emit(&mut rng, 1.2, Box::new(|_| FaultKind::ConnectionReset));
        emit(
            &mut rng,
            1.6,
            Box::new(|r| FaultKind::ServerStall {
                stall: span(r, 0.01, 0.05),
            }),
        );
        emit(
            &mut rng,
            1.6,
            Box::new(|r| FaultKind::ServerError {
                burst: r.uniform_u64(1, 2) as u32,
                retry_after: span(r, 0.005, 0.02),
            }),
        );
        emit(
            &mut rng,
            1.0,
            Box::new(|r| FaultKind::BandwidthCollapse {
                factor: 0.05 + r.unit() * 0.25,
                duration: span(r, 0.02, 0.08),
            }),
        );
        emit(
            &mut rng,
            0.6,
            Box::new(|r| FaultKind::Blackout {
                duration: span(r, 0.005, 0.02),
            }),
        );
        emit(
            &mut rng,
            2.0,
            Box::new(|r| FaultKind::TapGap {
                duration: span(r, 0.01, 0.06),
            }),
        );
        emit(&mut rng, 2.0, Box::new(|_| FaultKind::DuplicateStatePost));
        emit(
            &mut rng,
            1.0,
            Box::new(|r| FaultKind::DelayStatePost {
                delay: span(r, 0.005, 0.03),
            }),
        );

        plan.events.sort_by_key(|e| e.at);
        plan
    }

    /// Count of events of a kind-class, for reporting.
    pub fn count(&self, pred: impl Fn(&FaultKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none(), FaultPlan::default());
        assert_eq!(
            FaultPlan::generate(7, 0.0, Duration::from_secs(100)),
            FaultPlan::none()
        );
        assert_eq!(FaultPlan::generate(7, 1.0, Duration(0)), FaultPlan::none());
    }

    #[test]
    fn generate_is_deterministic() {
        let h = Duration::from_secs(120);
        let a = FaultPlan::generate(42, 1.0, h);
        let b = FaultPlan::generate(42, 1.0, h);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 1.0, h);
        assert_ne!(a, c, "seed must decorrelate plans");
    }

    #[test]
    fn generate_is_time_sorted_and_bounded() {
        let h = Duration::from_secs(200);
        for seed in 0..20u64 {
            let plan = FaultPlan::generate(seed, 2.0, h);
            for w in plan.events().windows(2) {
                assert!(w[0].at <= w[1].at);
            }
            for e in plan.events() {
                assert!(e.at.0 >= h.micros() / 10, "fault before session warms up");
                assert!(
                    e.at.0 <= h.micros() * 9 / 10,
                    "fault after session likely over"
                );
            }
        }
    }

    #[test]
    fn intensity_scales_density() {
        let h = Duration::from_secs(300);
        let total =
            |i: f64| -> usize { (0..32u64).map(|s| FaultPlan::generate(s, i, h).len()).sum() };
        let low = total(0.25);
        let high = total(2.0);
        assert!(
            high > low * 3,
            "intensity 2.0 ({high}) must far exceed 0.25 ({low})"
        );
    }

    #[test]
    fn trace_names_are_stable_and_distinct() {
        let kinds = [
            FaultKind::ConnectionReset,
            FaultKind::ServerStall {
                stall: Duration::from_millis(1),
            },
            FaultKind::ServerError {
                burst: 1,
                retry_after: Duration::from_millis(1),
            },
            FaultKind::BandwidthCollapse {
                factor: 0.1,
                duration: Duration::from_millis(1),
            },
            FaultKind::Blackout {
                duration: Duration::from_millis(1),
            },
            FaultKind::TapGap {
                duration: Duration::from_millis(1),
            },
            FaultKind::DuplicateStatePost,
            FaultKind::DelayStatePost {
                delay: Duration::from_millis(1),
            },
        ];
        let names: Vec<&str> = kinds.iter().map(|k| k.trace_name()).collect();
        for n in &names {
            assert!(n.starts_with("chaos."), "{n}");
        }
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be distinct");
    }

    #[test]
    fn push_keeps_sorted() {
        let mut plan = FaultPlan::none();
        plan.push(SimTime(500), FaultKind::ConnectionReset)
            .push(SimTime(100), FaultKind::DuplicateStatePost)
            .push(
                SimTime(300),
                FaultKind::TapGap {
                    duration: Duration::from_millis(5),
                },
            );
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.0).collect();
        assert_eq!(times, vec![100, 300, 500]);
    }
}
