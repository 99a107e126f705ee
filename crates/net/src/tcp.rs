//! TCP-lite: reliable, ordered byte streams over the lossy link model.
//!
//! Implements the subset of TCP that the reproduction's observables
//! depend on: MSS segmentation with write coalescing, cumulative ACKs,
//! timeout retransmission, and in-order reassembly with overlap
//! trimming. Flow control is a fixed window; congestion control, SACK,
//! delayed ACKs and Nagle proper are intentionally out of scope (the
//! eavesdropper reassembles the stream, so record lengths are invariant
//! to them — see DESIGN.md).
//!
//! The connection handshake (SYN exchange) is emitted by the session
//! layer for pcap realism; endpoints here start in the established
//! state with agreed initial sequence numbers.
//!
//! The data path copies each payload byte once on the way in (into
//! the segment's shared payload) and once on the way out (into the
//! delivered buffer). A segment's payload is an `Arc<[u8]>`: the
//! in-flight queue, the link event, the capture tap and the peer's
//! reassembly map all hold the same bytes. Pure ACKs carry the empty
//! payload, which does not allocate, and the caller-owned
//! [`TcpActions`] and segment buffers are reused across calls.

use crate::headers::{FlowId, TcpFlags};
use crate::time::{Duration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Maximum segment size: 1500 MTU − 20 IP − 32 TCP(w/ timestamps).
pub const MSS: usize = 1448;

/// Fixed send window (bytes in flight).
pub const SEND_WINDOW: usize = 64 * MSS;

/// Initial retransmission timeout.
pub const INITIAL_RTO: Duration = Duration(200_000);

/// RTO cap.
pub const MAX_RTO: Duration = Duration(2_000_000);

/// A TCP segment in flight (payload carried out-of-band from the frame
/// bytes; the capture layer serializes real frames).
#[derive(Debug, Clone)]
pub struct TcpSegment {
    /// Direction of travel: `flow.src` is the sender.
    pub flow: FlowId,
    /// Wire sequence number of the first payload byte.
    pub seq: u32,
    /// Cumulative acknowledgement (wire numbering of the reverse stream).
    pub ack: u32,
    pub flags: TcpFlags,
    /// Payload bytes, shared by every holder of the segment (cloning a
    /// segment never copies them).
    pub payload: Arc<[u8]>,
    /// True if this segment is a retransmission (for trace statistics).
    pub retransmit: bool,
}

/// What an endpoint wants the session layer to do after an interaction.
///
/// Caller-owned and reused: [`TcpEndpoint::on_segment`] clears it
/// before filling it, so one value serves a whole session.
#[derive(Debug, Default)]
pub struct TcpActions {
    /// Application bytes newly delivered in order.
    pub delivered: Vec<u8>,
    /// Segments to transmit (data and/or pure ACKs).
    pub to_send: Vec<TcpSegment>,
}

/// One endpoint of an established TCP connection.
pub struct TcpEndpoint {
    flow: FlowId,
    isn: u32,
    rcv_isn: u32,
    /// Absolute stream offset of the next byte to segmentize.
    snd_nxt: u64,
    /// Lowest unacknowledged absolute offset.
    snd_una: u64,
    /// Next expected absolute receive offset.
    rcv_nxt: u64,
    /// Written bytes not yet segmentized: `send_buf[send_head..]`.
    send_buf: Vec<u8>,
    send_head: usize,
    /// Unacknowledged segments by absolute offset, contiguous and in
    /// offset order (segments are only ever appended).
    inflight: VecDeque<(u64, Arc<[u8]>)>,
    /// Out-of-order payloads by absolute offset of their first byte:
    /// shared, never copied, trimmed by offset when they drain.
    reasm: BTreeMap<u64, Arc<[u8]>>,
    rto: Duration,
    rto_deadline: Option<SimTime>,
    /// Counters for trace statistics.
    pub stats: TcpStats,
}

/// Transfer statistics for one endpoint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TcpStats {
    pub bytes_sent: u64,
    pub bytes_delivered: u64,
    pub segments_sent: u64,
    pub retransmissions: u64,
    pub duplicate_segments: u64,
}

impl TcpEndpoint {
    /// An established endpoint sending on `flow` (i.e. `flow.src` is us).
    pub fn new(flow: FlowId, isn: u32, rcv_isn: u32) -> Self {
        TcpEndpoint {
            flow,
            isn,
            rcv_isn,
            snd_nxt: 0,
            snd_una: 0,
            rcv_nxt: 0,
            send_buf: Vec::new(),
            send_head: 0,
            inflight: VecDeque::new(),
            reasm: BTreeMap::new(),
            rto: INITIAL_RTO,
            rto_deadline: None,
            stats: TcpStats::default(),
        }
    }

    /// Queue application bytes for transmission.
    pub fn write(&mut self, bytes: &[u8]) {
        if self.send_head * 2 >= self.send_buf.len() {
            // Segmentized bytes outweigh unsent ones: drop them, so the
            // buffer holds at most about twice the unsent bytes (and
            // restarts empty once everything went out).
            self.send_buf.drain(..self.send_head);
            self.send_head = 0;
        }
        self.send_buf.extend_from_slice(bytes);
    }

    /// Bytes written but not yet segmentized.
    fn unsent(&self) -> usize {
        self.send_buf.len() - self.send_head
    }

    /// Bytes accepted but not yet acknowledged by the peer.
    pub fn outstanding(&self) -> usize {
        self.unsent() + (self.snd_nxt - self.snd_una) as usize
    }

    /// When the retransmission timer should fire, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Segmentize buffered bytes up to the send window, appending the
    /// new segments to `out`.
    ///
    /// Multiple preceding `write` calls coalesce here — two small TLS
    /// records written back-to-back ride in one segment, exactly the
    /// write-coalescing real stacks exhibit.
    pub fn flush(&mut self, now: SimTime, out: &mut Vec<TcpSegment>) {
        while self.unsent() > 0 && (self.snd_nxt - self.snd_una) as usize + MSS <= SEND_WINDOW {
            let take = self.unsent().min(MSS);
            let payload: Arc<[u8]> = Arc::from(&self.send_buf[self.send_head..][..take]);
            self.send_head += take;
            let abs = self.snd_nxt;
            self.snd_nxt += take as u64;
            self.stats.bytes_sent += take as u64;
            self.stats.segments_sent += 1;
            out.push(TcpSegment {
                flow: self.flow,
                seq: self.wire_seq(abs),
                ack: self.wire_ack(),
                flags: if self.unsent() == 0 {
                    TcpFlags::PSH_ACK
                } else {
                    TcpFlags::ACK
                },
                payload: Arc::clone(&payload),
                retransmit: false,
            });
            self.inflight.push_back((abs, payload));
        }
        if !self.inflight.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
        }
    }

    /// Handle an arriving segment: `actions` is cleared, then filled
    /// with the bytes delivered in order and the segments to send.
    // wm-lint: hotpath
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment, actions: &mut TcpActions) {
        actions.delivered.clear();
        actions.to_send.clear();

        // --- Receive path: deliver in order, park the rest. ---
        if !seg.payload.is_empty() {
            let abs_seq = unwrap_u32(self.rcv_nxt, seg.seq.wrapping_sub(self.rcv_isn));
            let before = self.rcv_nxt;
            self.receive(abs_seq, &seg.payload, &mut actions.delivered);
            if self.rcv_nxt == before && abs_seq + (seg.payload.len() as u64) <= self.rcv_nxt {
                self.stats.duplicate_segments += 1;
            }
            self.stats.bytes_delivered += actions.delivered.len() as u64;
            // Ack every data segment (no delayed ACKs — see module docs).
            actions.to_send.push(TcpSegment {
                flow: self.flow,
                seq: self.wire_seq(self.snd_nxt),
                ack: self.wire_ack(),
                flags: TcpFlags::ACK,
                payload: Arc::default(),
                retransmit: false,
            });
        }

        // --- Send path: process the cumulative ACK. ---
        if seg.flags.ack {
            let abs_ack = unwrap_u32(self.snd_una, seg.ack.wrapping_sub(self.isn));
            if abs_ack > self.snd_una && abs_ack <= self.snd_nxt {
                self.snd_una = abs_ack;
                // Drop fully acked inflight segments (they are in
                // offset order, so the acked ones form a prefix).
                while let Some((off, payload)) = self.inflight.front() {
                    if *off + payload.len() as u64 > abs_ack {
                        break;
                    }
                    self.inflight.pop_front();
                }
                // Fresh progress: reset the RTO backoff and re-arm.
                self.rto = INITIAL_RTO;
                self.rto_deadline = if self.inflight.is_empty() {
                    None
                } else {
                    Some(now + self.rto)
                };
                // The window may have opened.
                self.flush(now, &mut actions.to_send);
            }
        }
    }

    /// Retransmission timer fired (session layer filters stale timers by
    /// comparing against [`TcpEndpoint::rto_deadline`]): resend the
    /// oldest unacknowledged segment, if any.
    pub fn on_rto(&mut self, now: SimTime) -> Option<TcpSegment> {
        let Some((abs, payload)) = self.inflight.front() else {
            self.rto_deadline = None;
            return None;
        };
        self.stats.retransmissions += 1;
        self.stats.segments_sent += 1;
        let seg = TcpSegment {
            flow: self.flow,
            seq: self.wire_seq(*abs),
            ack: self.wire_ack(),
            flags: TcpFlags::PSH_ACK,
            payload: Arc::clone(payload),
            retransmit: true,
        };
        // Exponential backoff.
        self.rto = Duration((self.rto.micros() * 2).min(MAX_RTO.micros()));
        self.rto_deadline = Some(now + self.rto);
        Some(seg)
    }

    fn wire_seq(&self, abs: u64) -> u32 {
        self.isn.wrapping_add(abs as u32)
    }

    fn wire_ack(&self) -> u32 {
        self.rcv_isn.wrapping_add(self.rcv_nxt as u32)
    }

    /// Take in a payload starting at absolute offset `abs`: bytes that
    /// extend the in-order stream go to `out` (with whatever parked
    /// payloads they make contiguous); bytes past a gap are parked.
    fn receive(&mut self, abs: u64, payload: &Arc<[u8]>, out: &mut Vec<u8>) {
        let end = abs + payload.len() as u64;
        if end <= self.rcv_nxt {
            return; // entirely delivered before
        }
        if abs > self.rcv_nxt {
            // Past a gap: park it. Both ends are our own stack, so
            // copies of one offset hold the same bytes; keep the
            // longer one.
            if self
                .reasm
                .get(&abs)
                .is_none_or(|kept| kept.len() < payload.len())
            {
                self.reasm.insert(abs, Arc::clone(payload));
            }
            return;
        }
        // Trim bytes already delivered, then deliver the rest.
        let skip = (self.rcv_nxt - abs) as usize;
        out.extend_from_slice(&payload[skip..]);
        self.rcv_nxt = end;
        // Drain parked payloads the stream now reaches.
        while let Some(entry) = self.reasm.first_entry() {
            if *entry.key() > self.rcv_nxt {
                break;
            }
            let (at, parked) = entry.remove_entry();
            let skip = (self.rcv_nxt - at) as usize;
            if skip < parked.len() {
                out.extend_from_slice(&parked[skip..]);
                self.rcv_nxt += (parked.len() - skip) as u64;
            }
        }
    }
}

/// Reconstruct a 64-bit stream offset from a 32-bit wire value, choosing
/// the candidate closest to `base`.
pub fn unwrap_u32(base: u64, wire_off: u32) -> u64 {
    let span = 1u64 << 32;
    let high = base & !(span - 1);
    let candidate = high | wire_off as u64;
    let alts = [
        candidate.wrapping_sub(span),
        candidate,
        candidate.wrapping_add(span),
    ];
    alts.into_iter()
        .min_by_key(|c| c.abs_diff(base))
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowId {
        FlowId {
            src_ip: [10, 0, 0, 1],
            src_port: 40000,
            dst_ip: [10, 0, 0, 2],
            dst_port: 443,
        }
    }

    /// `flush` into a fresh vector.
    fn flushed(ep: &mut TcpEndpoint, now: SimTime) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        ep.flush(now, &mut out);
        out
    }

    /// `on_segment` into fresh actions.
    fn arrive(ep: &mut TcpEndpoint, now: SimTime, seg: &TcpSegment) -> TcpActions {
        let mut actions = TcpActions::default();
        ep.on_segment(now, seg, &mut actions);
        actions
    }

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        let f = flow();
        (
            TcpEndpoint::new(f, 1000, 5000),
            TcpEndpoint::new(f.reversed(), 5000, 1000),
        )
    }

    /// Deliver segments between endpoints until quiescent (no loss).
    fn pump(
        a: &mut TcpEndpoint,
        b: &mut TcpEndpoint,
        initial: Vec<TcpSegment>,
    ) -> (Vec<u8>, Vec<u8>) {
        let mut to_a: Vec<TcpSegment> = Vec::new();
        let mut to_b: Vec<TcpSegment> = initial;
        let mut a_bytes = Vec::new();
        let mut b_bytes = Vec::new();
        let now = SimTime(1);
        for _ in 0..10_000 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            for seg in std::mem::take(&mut to_b) {
                let act = arrive(b, now, &seg);
                b_bytes.extend(act.delivered);
                to_a.extend(act.to_send);
            }
            for seg in std::mem::take(&mut to_a) {
                let act = arrive(a, now, &seg);
                a_bytes.extend(act.delivered);
                to_b.extend(act.to_send);
            }
        }
        (a_bytes, b_bytes)
    }

    #[test]
    fn simple_transfer() {
        let (mut a, mut b) = pair();
        a.write(b"hello tcp world");
        let segs = flushed(&mut a, SimTime(1));
        assert_eq!(segs.len(), 1);
        assert!(segs[0].flags.psh);
        let (_, b_bytes) = pump(&mut a, &mut b, segs);
        assert_eq!(b_bytes, b"hello tcp world");
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn segmentation_at_mss() {
        let (mut a, _) = pair();
        let data = vec![7u8; MSS * 2 + 100];
        a.write(&data);
        let segs = flushed(&mut a, SimTime(1));
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].payload.len(), MSS);
        assert_eq!(segs[1].payload.len(), MSS);
        assert_eq!(segs[2].payload.len(), 100);
        assert!(!segs[0].flags.psh);
        assert!(segs[2].flags.psh);
    }

    #[test]
    fn write_coalescing() {
        let (mut a, mut b) = pair();
        a.write(b"first record ");
        a.write(b"second record");
        let segs = flushed(&mut a, SimTime(1));
        assert_eq!(segs.len(), 1, "small writes coalesce into one segment");
        let (_, b_bytes) = pump(&mut a, &mut b, segs);
        assert_eq!(b_bytes, b"first record second record");
    }

    #[test]
    fn out_of_order_reassembly() {
        let (mut a, mut b) = pair();
        a.write(&vec![1u8; MSS]);
        a.write(&vec![2u8; MSS]);
        let mut segs = flushed(&mut a, SimTime(1));
        segs.reverse(); // deliver out of order
        let now = SimTime(2);
        let first = arrive(&mut b, now, &segs[0]);
        assert!(first.delivered.is_empty(), "gap: nothing delivered yet");
        let second = arrive(&mut b, now, &segs[1]);
        assert_eq!(second.delivered.len(), 2 * MSS);
        assert_eq!(&second.delivered[..MSS], &vec![1u8; MSS][..]);
    }

    #[test]
    fn retransmission_recovers_loss() {
        let (mut a, mut b) = pair();
        a.write(b"lost in transit");
        let segs = flushed(&mut a, SimTime(1));
        assert_eq!(a.rto_deadline(), Some(SimTime(1) + INITIAL_RTO));
        drop(segs); // the link ate it
        let rtx = a
            .on_rto(SimTime(1) + INITIAL_RTO)
            .expect("one segment in flight");
        assert!(rtx.retransmit);
        assert_eq!(&rtx.payload[..], b"lost in transit");
        let (_, b_bytes) = pump(&mut a, &mut b, vec![rtx]);
        assert_eq!(b_bytes, b"lost in transit");
        assert_eq!(a.outstanding(), 0);
        assert_eq!(a.stats.retransmissions, 1);
    }

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let (mut a, _) = pair();
        a.write(b"x");
        flushed(&mut a, SimTime(0));
        let mut last_gap = Duration::ZERO;
        for _ in 0..8 {
            let now = a.rto_deadline().unwrap();
            a.on_rto(now);
            let gap = a.rto_deadline().unwrap().since(now);
            assert!(gap >= last_gap);
            assert!(gap <= MAX_RTO);
            last_gap = gap;
        }
        assert_eq!(last_gap, MAX_RTO);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let (mut a, mut b) = pair();
        a.write(b"only once");
        let segs = flushed(&mut a, SimTime(1));
        let now = SimTime(2);
        let first = arrive(&mut b, now, &segs[0]);
        assert_eq!(first.delivered, b"only once");
        let dup = arrive(&mut b, now, &segs[0]);
        assert!(dup.delivered.is_empty(), "duplicate must not re-deliver");
        assert_eq!(b.stats.duplicate_segments, 1);
    }

    #[test]
    fn window_limits_inflight() {
        let (mut a, _) = pair();
        a.write(&vec![0u8; SEND_WINDOW * 2]);
        let segs = flushed(&mut a, SimTime(1));
        let inflight: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert!(inflight <= SEND_WINDOW);
        assert!(a.outstanding() > inflight, "rest remains buffered");
    }

    #[test]
    fn window_reopens_on_ack() {
        let (mut a, mut b) = pair();
        a.write(&vec![9u8; SEND_WINDOW + MSS]);
        let segs = flushed(&mut a, SimTime(1));
        let (_, b_bytes) = pump(&mut a, &mut b, segs);
        assert_eq!(b_bytes.len(), SEND_WINDOW + MSS, "acks released the tail");
    }

    #[test]
    fn send_buffer_stays_bounded_while_window_limited() {
        let (mut a, mut b) = pair();
        a.write(&vec![1u8; 2 * SEND_WINDOW]);
        let mut wire: VecDeque<TcpSegment> = flushed(&mut a, SimTime(1)).into();
        let mut received = 0;
        for round in 0..300u32 {
            // One segment arrives and is acked; the opened window
            // sends one more; the application keeps writing, so unsent
            // bytes never run out.
            let seg = wire.pop_front().expect("window keeps segments in flight");
            let act = arrive(&mut b, SimTime(2), &seg);
            received += act.delivered.len();
            wire.extend(arrive(&mut a, SimTime(2), &act.to_send[0]).to_send);
            a.write(&vec![round as u8; MSS]);
            assert!(a.unsent() > 0);
            assert!(
                a.send_buf.len() <= 2 * a.unsent() + MSS,
                "round {round}: {} buffered for {} unsent",
                a.send_buf.len(),
                a.unsent()
            );
        }
        assert_eq!(received, 300 * MSS);
    }

    #[test]
    fn large_bidirectional_transfer() {
        let (mut a, mut b) = pair();
        let a_data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let b_data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        a.write(&a_data);
        b.write(&b_data);
        let mut init = flushed(&mut a, SimTime(1));
        init.extend(flushed(&mut b, SimTime(1)));
        // pump handles "to b" first; split manually.
        let (to_b, to_a): (Vec<_>, Vec<_>) = init.into_iter().partition(|s| s.flow.dst_port == 443);
        let mut a_recv = Vec::new();
        let mut b_recv = Vec::new();
        let mut qa = to_a;
        let mut qb = to_b;
        let now = SimTime(5);
        for _ in 0..100_000 {
            if qa.is_empty() && qb.is_empty() {
                break;
            }
            for seg in std::mem::take(&mut qb) {
                let act = arrive(&mut b, now, &seg);
                b_recv.extend(act.delivered);
                qa.extend(act.to_send);
            }
            for seg in std::mem::take(&mut qa) {
                let act = arrive(&mut a, now, &seg);
                a_recv.extend(act.delivered);
                qb.extend(act.to_send);
            }
        }
        assert_eq!(b_recv, a_data);
        assert_eq!(a_recv, b_data);
    }

    #[test]
    fn unwrap_u32_handles_wrap() {
        assert_eq!(unwrap_u32(0, 100), 100);
        assert_eq!(unwrap_u32(u32::MAX as u64 - 10, 5), (1u64 << 32) + 5);
        assert_eq!(unwrap_u32((1u64 << 32) + 1000, 900), (1u64 << 32) + 900);
        // Slightly behind base is preferred over a full wrap ahead.
        assert_eq!(unwrap_u32(1000, 900), 900);
    }
}
