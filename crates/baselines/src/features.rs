//! Downstream traffic features shared by the baselines.

use wm_capture::headers::parse_frame;
use wm_capture::tap::Trace;
use wm_capture::time::{Duration, SimTime};
use wm_story::{Choice, ChoicePointId};

/// One labelled training window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledWindow {
    pub cp: ChoicePointId,
    pub choice: Choice,
    /// When the question appeared (given to baselines for free).
    pub question_time: SimTime,
}

/// Total server→client TCP payload bytes captured in `[t0, t0+len)`.
pub fn downstream_bytes_in(trace: &Trace, t0: SimTime, len: Duration) -> u64 {
    let t1 = t0 + len;
    trace
        .packets
        .iter()
        .filter(|p| p.time >= t0 && p.time < t1)
        .filter_map(|p| parse_frame(&p.frame))
        .filter(|(flow, _, _)| flow.src_port == 443)
        .map(|(_, _, payload)| payload.len() as u64)
        .sum()
}

/// Downstream byte counts over `bins` consecutive sub-windows of
/// `bin_len` each, starting at `t0` (the burst-vector feature).
pub fn burst_vector(trace: &Trace, t0: SimTime, bin_len: Duration, bins: usize) -> Vec<f64> {
    (0..bins)
        .map(|i| {
            let start = t0 + Duration(bin_len.micros() * i as u64);
            downstream_bytes_in(trace, start, bin_len) as f64
        })
        .collect()
}

/// Euclidean distance between burst vectors.
pub fn l2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_capture::headers::{FlowId, TcpFlags};
    use wm_capture::tap::Tap;
    use wm_capture::tcp::TcpSegment;

    fn flow_down() -> FlowId {
        FlowId {
            src_ip: [198, 38, 120, 10],
            src_port: 443,
            dst_ip: [192, 168, 1, 23],
            dst_port: 51_744,
        }
    }

    fn seg(flow: FlowId, payload_len: usize) -> TcpSegment {
        TcpSegment {
            flow,
            seq: 0,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            payload: vec![0xab; payload_len].into(),
            retransmit: false,
        }
    }

    #[test]
    fn counts_only_downstream_in_window() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1_000_000), &seg(flow_down(), 100));
        tap.record_segment(SimTime(1_500_000), &seg(flow_down().reversed(), 999)); // upstream
        tap.record_segment(SimTime(2_500_000), &seg(flow_down(), 50)); // outside window
        let trace = tap.into_trace();
        let bytes = downstream_bytes_in(&trace, SimTime(900_000), Duration::from_secs(1));
        assert_eq!(bytes, 100);
    }

    #[test]
    fn burst_vector_bins() {
        let mut tap = Tap::new();
        for i in 0..4u64 {
            tap.record_segment(
                SimTime(i * 500_000),
                &seg(flow_down(), (i as usize + 1) * 10),
            );
        }
        let trace = tap.into_trace();
        let v = burst_vector(&trace, SimTime::ZERO, Duration::from_millis(500), 4);
        assert_eq!(v, vec![10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn l2_distance() {
        assert_eq!(l2(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
        assert_eq!(l2(&[1.0], &[1.0]), 0.0);
    }
}
