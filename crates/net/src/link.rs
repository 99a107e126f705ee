//! One-directional link model.
//!
//! Each direction of the access path is a serializing queue: a packet
//! occupies the link for `bits / bandwidth`, waits behind earlier
//! packets, then takes a propagation delay plus jitter to arrive — or is
//! lost. The *tap* (the eavesdropper's vantage point) sits at the
//! client's access link and sees packets just after serialization, with
//! its own independent drop probability: capture loss, not network
//! loss, which is exactly the distinction that costs the attack accuracy
//! under busy wireless conditions.

use crate::rng::SimRng;
use crate::time::{Duration, SimTime};
use std::sync::Arc;
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Histogram, Registry};

/// Parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Effective bandwidth in bits per second (cross-traffic already
    /// subtracted by the condition model).
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Standard deviation of per-packet jitter (half-normal, additive).
    pub jitter_std: Duration,
    /// Probability a packet is lost on the path (after the tap).
    pub loss_prob: f64,
    /// Probability the monitoring tap misses a packet the path delivers.
    pub tap_loss_prob: f64,
}

impl LinkParams {
    /// An idealized lossless, low-latency link (unit tests).
    pub fn ideal() -> Self {
        LinkParams {
            bandwidth_bps: 1e9,
            propagation: Duration::from_micros(1_000),
            jitter_std: Duration::ZERO,
            loss_prob: 0.0,
            tap_loss_prob: 0.0,
        }
    }
}

/// Outcome of offering one packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// When the tap (positioned right after the sender's access port)
    /// observes the packet — `None` if the tap missed it.
    pub tap_at: Option<SimTime>,
    /// When the packet arrives at the receiver — `None` if lost en route.
    pub arrives_at: Option<SimTime>,
}

/// Per-direction link telemetry handles (see `wm-telemetry`).
///
/// `queue_wait_us` is the serialization-queue backlog each packet sat
/// behind before occupying the link — the discrete-event analogue of
/// instantaneous queue depth.
pub struct LinkTelemetry {
    delivered: Arc<Counter>,
    lost: Arc<Counter>,
    tap_lost: Arc<Counter>,
    queue_wait_us: Arc<Histogram>,
}

impl LinkTelemetry {
    /// Register this direction's metrics under `net.link.<label>.*`.
    pub fn register(registry: &Registry, label: &str) -> Self {
        LinkTelemetry {
            delivered: registry.counter(&format!("net.link.{label}.delivered")),
            lost: registry.counter(&format!("net.link.{label}.lost")),
            tap_lost: registry.counter(&format!("net.link.{label}.tap_lost")),
            queue_wait_us: registry.histogram(&format!("net.link.{label}.queue_wait_us")),
        }
    }
}

/// One direction of the path, with its serialization queue.
pub struct Link {
    params: LinkParams,
    busy_until: SimTime,
    telemetry: Option<LinkTelemetry>,
    trace: Option<(TraceHandle, SpanId)>,
}

impl Link {
    pub fn new(params: LinkParams) -> Self {
        Link {
            params,
            busy_until: SimTime::ZERO,
            telemetry: None,
            trace: None,
        }
    }

    /// Attach telemetry handles (observation only; never changes
    /// packet outcomes).
    pub fn set_telemetry(&mut self, telemetry: LinkTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Attach a trace sink: path losses and tap misses are recorded as
    /// instants under `span` (observation only).
    pub fn set_trace(&mut self, handle: TraceHandle, span: SpanId) {
        self.trace = Some((handle, span));
    }

    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Replace the link parameters mid-session (fault injection:
    /// bandwidth collapses, blackouts). The serialization queue
    /// (`busy_until`) is preserved so packets already committed to the
    /// wire keep their departure times; only future packets see the
    /// new parameters. Deterministic: the change itself draws no
    /// randomness.
    pub fn set_params(&mut self, params: LinkParams) {
        self.params = params;
    }

    /// Offer a packet of `wire_len` bytes at time `now`.
    pub fn transmit(&mut self, now: SimTime, wire_len: usize, rng: &mut SimRng) -> Transit {
        let ser = Duration::from_secs_f64(wire_len as f64 * 8.0 / self.params.bandwidth_bps);
        let start = now.max(self.busy_until);
        let tx_done = start + ser;
        self.busy_until = tx_done;
        if let Some(t) = &self.telemetry {
            t.queue_wait_us
                .record(start.micros().saturating_sub(now.micros()));
        }

        // The tap sees the packet as it leaves the access port.
        let tap_at = if rng.chance(self.params.tap_loss_prob) {
            if let Some(t) = &self.telemetry {
                t.tap_lost.inc();
            }
            if let Some((h, span)) = &self.trace {
                h.instant_at(
                    tx_done.micros(),
                    *span,
                    "net.link.tap_lost",
                    wire_len as u64,
                    0,
                );
            }
            None
        } else {
            Some(tx_done)
        };

        if rng.chance(self.params.loss_prob) {
            if let Some(t) = &self.telemetry {
                t.lost.inc();
            }
            if let Some((h, span)) = &self.trace {
                h.instant_at(tx_done.micros(), *span, "net.link.lost", wire_len as u64, 0);
            }
            return Transit {
                tap_at,
                arrives_at: None,
            };
        }
        if let Some(t) = &self.telemetry {
            t.delivered.inc();
        }
        let jitter = if self.params.jitter_std == Duration::ZERO {
            Duration::ZERO
        } else {
            // Half-normal: jitter only ever delays.
            let j = rng.normal(0.0, self.params.jitter_std.as_secs_f64()).abs();
            Duration::from_secs_f64(j)
        };
        Transit {
            tap_at,
            arrives_at: Some(tx_done + self.params.propagation + jitter),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_deterministic() {
        let mut link = Link::new(LinkParams::ideal());
        let mut rng = SimRng::new(1);
        let t = link.transmit(SimTime::ZERO, 1250, &mut rng); // 10 µs at 1 Gbps
        assert_eq!(t.tap_at, Some(SimTime(10)));
        assert_eq!(t.arrives_at, Some(SimTime(1_010)));
    }

    #[test]
    fn serialization_queues_back_to_back() {
        let mut link = Link::new(LinkParams::ideal());
        let mut rng = SimRng::new(1);
        let a = link.transmit(SimTime::ZERO, 12_500, &mut rng); // 100 µs
        let b = link.transmit(SimTime::ZERO, 12_500, &mut rng); // queued behind a
        assert_eq!(a.tap_at, Some(SimTime(100)));
        assert_eq!(b.tap_at, Some(SimTime(200)));
        // A later packet after the queue drains is not delayed.
        let c = link.transmit(SimTime(1_000), 12_500, &mut rng);
        assert_eq!(c.tap_at, Some(SimTime(1_100)));
    }

    #[test]
    fn loss_rate_approximates_parameter() {
        let mut params = LinkParams::ideal();
        params.loss_prob = 0.10;
        let mut link = Link::new(params);
        let mut rng = SimRng::new(42);
        let n = 20_000;
        let delivered = (0..n)
            .filter(|_| {
                link.transmit(SimTime::ZERO, 100, &mut rng)
                    .arrives_at
                    .is_some()
            })
            .count();
        let rate = 1.0 - delivered as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed loss {rate}");
    }

    #[test]
    fn tap_loss_independent_of_path_loss() {
        let mut params = LinkParams::ideal();
        params.tap_loss_prob = 0.5;
        params.loss_prob = 0.0;
        let mut link = Link::new(params);
        let mut rng = SimRng::new(9);
        let n = 10_000;
        let mut tap_missed = 0;
        for _ in 0..n {
            let t = link.transmit(SimTime::ZERO, 100, &mut rng);
            assert!(t.arrives_at.is_some(), "path must deliver");
            if t.tap_at.is_none() {
                tap_missed += 1;
            }
        }
        let rate = tap_missed as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "tap miss rate {rate}");
    }

    #[test]
    fn jitter_only_delays() {
        let mut params = LinkParams::ideal();
        params.jitter_std = Duration::from_micros(500);
        let mut link = Link::new(params);
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            let t = link.transmit(SimTime(10_000), 125, &mut rng);
            let floor = SimTime(10_000).micros() + 1 /* ser */ + 1_000 /* prop */;
            assert!(t.arrives_at.unwrap().micros() >= floor);
        }
    }

    #[test]
    fn telemetry_counts_outcomes() {
        let mut params = LinkParams::ideal();
        params.loss_prob = 0.3;
        params.tap_loss_prob = 0.2;
        let mut link = Link::new(params);
        let reg = Registry::new();
        link.set_telemetry(LinkTelemetry::register(&reg, "up"));
        let mut rng = SimRng::new(21);
        let n = 5_000u64;
        let mut delivered = 0u64;
        let mut tapped = 0u64;
        for _ in 0..n {
            let t = link.transmit(SimTime::ZERO, 100, &mut rng);
            delivered += t.arrives_at.is_some() as u64;
            tapped += t.tap_at.is_some() as u64;
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["net.link.up.delivered"], delivered);
        assert_eq!(snap.counters["net.link.up.lost"], n - delivered);
        assert_eq!(snap.counters["net.link.up.tap_lost"], n - tapped);
        // Back-to-back sends at t=0 queue behind each other.
        assert_eq!(snap.histograms["net.link.up.queue_wait_us"].count, n);
        assert!(
            snap.histograms["net.link.up.queue_wait_us"]
                .max
                .unwrap_or(0)
                > 0
        );
    }

    #[test]
    fn telemetry_does_not_change_outcomes() {
        let mut params = LinkParams::ideal();
        params.loss_prob = 0.1;
        params.jitter_std = Duration::from_micros(300);
        let run = |with_telemetry: bool| -> Vec<Transit> {
            let mut link = Link::new(params);
            let reg = Registry::new();
            if with_telemetry {
                link.set_telemetry(LinkTelemetry::register(&reg, "x"));
            }
            let mut rng = SimRng::new(77);
            (0..500)
                .map(|i| link.transmit(SimTime(i * 10), 500, &mut rng))
                .collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn bigger_packets_take_longer() {
        let mut params = LinkParams::ideal();
        params.bandwidth_bps = 8e6; // 1 byte per µs
        let mut link = Link::new(params);
        let mut rng = SimRng::new(2);
        let small = link.transmit(SimTime::ZERO, 100, &mut rng).tap_at.unwrap();
        assert_eq!(small, SimTime(100));
        let big = link
            .transmit(SimTime(1_000), 1_000, &mut rng)
            .tap_at
            .unwrap();
        assert_eq!(big, SimTime(2_000));
    }
}
