//! Property-based tests for the network substrate.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from the crate's own
//! seeded `SimRng`. Failures print the case seed for replay.

use std::sync::Arc;
use wm_net::headers::{
    build_frame, parse_frame, parse_frame_lossy, FlowId, TcpFlags, ETH_HEADER_LEN, FRAME_OVERHEAD,
    IPV4_HEADER_LEN,
};
use wm_net::rng::SimRng;
use wm_net::tcp::{unwrap_u32, TcpActions, TcpEndpoint, TcpSegment, MSS};
use wm_net::time::SimTime;

fn arb_flow(rng: &mut SimRng) -> FlowId {
    FlowId {
        src_ip: (rng.next_u64() as u32).to_be_bytes(),
        src_port: rng.next_u64() as u16,
        dst_ip: (rng.next_u64() as u32).to_be_bytes(),
        dst_port: rng.next_u64() as u16,
    }
}

/// `flush` into a fresh vector.
fn flushed(ep: &mut TcpEndpoint) -> Vec<TcpSegment> {
    let mut out = Vec::new();
    ep.flush(SimTime(1), &mut out);
    out
}

/// `on_segment` into fresh actions.
fn arrive(ep: &mut TcpEndpoint, seg: &TcpSegment) -> TcpActions {
    let mut actions = TcpActions::default();
    ep.on_segment(SimTime(2), seg, &mut actions);
    actions
}

fn arb_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.uniform_u64(0, max_len as u64) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Frames round-trip for any flow, sequence numbers and payload.
#[test]
fn frame_roundtrip() {
    for case in 0..300u64 {
        let mut rng = SimRng::new(0x00F0_0000 + case);
        let flow = arb_flow(&mut rng);
        let seq = rng.next_u64() as u32;
        let ack = rng.next_u64() as u32;
        let ts = rng.next_u64() as u32;
        let id = rng.next_u64() as u16;
        let payload = arb_bytes(&mut rng, 1_599);
        let frame = build_frame(&flow, seq, ack, TcpFlags::PSH_ACK, ts, 0, id, &payload);
        assert_eq!(frame.len(), FRAME_OVERHEAD + payload.len(), "case {case}");
        let (f, tcp, p) = parse_frame(&frame).expect("parse own frame");
        assert_eq!(f, flow, "case {case}");
        assert_eq!(tcp.seq, seq, "case {case}");
        assert_eq!(tcp.ack, ack, "case {case}");
        assert_eq!(tcp.ts_val, ts, "case {case}");
        assert_eq!(p, &payload[..], "case {case}");
    }
}

/// Byte offsets of the header fields the hostile variants overwrite.
const IP_TOTAL_LEN: usize = ETH_HEADER_LEN + 2;
const TCP_DATA_OFFSET: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + 12;
const TCP_OPTIONS: usize = ETH_HEADER_LEN + IPV4_HEADER_LEN + 20;

/// `frame` plus copies of it with hostile header fields: IPv4 total
/// lengths below, around and beyond the frame; every TCP data offset;
/// and TCP options whose length undershoots, overruns the option block,
/// or lies past it. The last [`BARE_LAST_OPTION`] variants are eleven
/// NOPs and a bare option kind in the block's last byte, followed by
/// payloads whose first bytes differ.
fn hostile_variants(frame: &[u8]) -> Vec<Vec<u8>> {
    let with = |at: usize, bytes: &[u8]| {
        let mut f = frame.to_vec();
        for (b, &v) in f.iter_mut().skip(at).zip(bytes) {
            *b = v;
        }
        f
    };
    let actual = (frame.len() - ETH_HEADER_LEN) as u16;
    let mut out = vec![frame.to_vec()];
    for total in [0, 1, 20, 39, 40, 51, 52, actual - 1, actual + 1, u16::MAX] {
        out.push(with(IP_TOTAL_LEN, &total.to_be_bytes()));
    }
    for words in 0..16u8 {
        out.push(with(TCP_DATA_OFFSET, &[words << 4]));
    }
    for (at, kind, len) in [
        (0, 2, 0),
        (0, 2, 1),
        (0, 2, 2),
        (0, 2, 12),
        (0, 2, 13),
        (0, 2, 255),
        (4, 8, 10),
        (9, 8, 10),
        (11, 3, 0),
        (11, 3, 200),
    ] {
        out.push(with(TCP_OPTIONS + at, &[kind, len]));
    }
    for first in [0, 1, 5] {
        out.push(with(
            TCP_OPTIONS,
            &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, first],
        ));
    }
    out
}

/// How many variants end [`hostile_variants`] with a bare last option.
const BARE_LAST_OPTION: usize = 3;

/// Both frame parsers on one input: neither panics, `parse_frame` is
/// `parse_frame_lossy` with nothing clipped, and a payload lies inside
/// the frame, after the headers.
fn check_frame(frame: &[u8], case: u64) {
    let lossy = parse_frame_lossy(frame);
    let strict = lossy
        .and_then(|(flow, tcp, payload, missing)| (missing == 0).then_some((flow, tcp, payload)));
    assert_eq!(parse_frame(frame), strict, "case {case}");
    if let Some((_, _, payload, _)) = lossy {
        let (bounds, inside) = (frame.as_ptr_range(), payload.as_ptr_range());
        assert!(
            bounds.start <= inside.start && inside.end <= bounds.end,
            "case {case}"
        );
        let start = inside.start as usize - bounds.start as usize;
        assert!(start >= TCP_OPTIONS, "case {case}: payload at {start}");
    }
}

/// Both frame parsers are total over every prefix and every single-bit
/// flip of built frames and of their hostile variants, and a clipped
/// tail keeps the payload prefix and counts what is missing.
#[test]
fn frame_parser_total() {
    for case in 0..16u64 {
        let mut rng = SimRng::new(0x00F1_0000 + case);
        let flow = arb_flow(&mut rng);
        let payload = arb_bytes(&mut rng, 199);
        let frame = build_frame(&flow, 1, 2, TcpFlags::ACK, 3, 4, 5, &payload);
        let variants = hostile_variants(&frame);
        // A bare option kind has no length byte inside the header, so
        // the payload's first byte must not decide the parse.
        let bare = &variants[variants.len() - BARE_LAST_OPTION..];
        for variant in bare {
            assert_eq!(parse_frame_lossy(variant), None, "case {case}");
        }
        for variant in variants {
            for cut in 0..=variant.len() {
                check_frame(&variant[..cut], case);
            }
            let mut flipped = variant.clone();
            for bit in 0..variant.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                check_frame(&flipped, case);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
        for cut in FRAME_OVERHEAD..=frame.len() {
            let (f, _, p, missing) = parse_frame_lossy(&frame[..cut]).expect("headers intact");
            assert_eq!(f, flow, "case {case}");
            assert_eq!(p, &payload[..cut - FRAME_OVERHEAD], "case {case}");
            assert_eq!(missing, frame.len() - cut, "case {case}");
        }
    }
}

/// Flow canonicalization is direction-invariant and idempotent.
#[test]
fn flow_canonical() {
    for case in 0..300u64 {
        let mut rng = SimRng::new(0x00F2_0000 + case);
        let flow = arb_flow(&mut rng);
        let c = flow.canonical();
        assert_eq!(c, flow.reversed().canonical(), "case {case}");
        assert_eq!(c, c.canonical(), "case {case}");
        assert!(c == flow || c == flow.reversed(), "case {case}");
    }
}

/// Sequence unwrap: wrapping any 64-bit offset to 32 bits and
/// unwrapping near the true value recovers it exactly.
#[test]
fn unwrap_recovers() {
    for case in 0..500u64 {
        let mut rng = SimRng::new(0x00F3_0000 + case);
        let base = rng.uniform_u64(0, (1 << 48) - 1);
        let delta = rng.uniform_u64(0, 1 << 21) as i64 - (1 << 20);
        let truth = base.saturating_add_signed(delta);
        let wire = truth as u32;
        assert_eq!(unwrap_u32(base, wire), truth, "case {case}");
    }
}

/// Any byte stream delivered through two TCP endpoints arrives
/// intact, whatever the write chunking.
#[test]
fn tcp_delivers_any_stream() {
    for case in 0..40u64 {
        let mut rng = SimRng::new(0x00F4_0000 + case);
        let data = arb_bytes(&mut rng, 19_999);
        let flow = FlowId {
            src_ip: [10, 0, 0, 1],
            src_port: 40000,
            dst_ip: [10, 0, 0, 2],
            dst_port: 443,
        };
        let mut a = TcpEndpoint::new(flow, 100, 200);
        let mut b = TcpEndpoint::new(flow.reversed(), 200, 100);
        let n_cuts = rng.uniform_u64(0, 5) as usize;
        let mut offsets: Vec<usize> = (0..n_cuts)
            .map(|_| rng.uniform_u64(0, data.len() as u64) as usize)
            .collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        for w in offsets.windows(2) {
            a.write(&data[w[0]..w[1]]);
        }
        let mut to_b: Vec<TcpSegment> = flushed(&mut a);
        let mut to_a: Vec<TcpSegment> = Vec::new();
        let mut received = Vec::new();
        for _ in 0..10_000 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            for seg in std::mem::take(&mut to_b) {
                let act = arrive(&mut b, &seg);
                received.extend(act.delivered);
                to_a.extend(act.to_send);
            }
            for seg in std::mem::take(&mut to_a) {
                let act = arrive(&mut a, &seg);
                to_b.extend(act.to_send);
            }
        }
        assert_eq!(received, data, "case {case}");
        assert_eq!(a.outstanding(), 0, "case {case}");
    }
}

/// Delivery is invariant to segment reordering (reassembly).
#[test]
fn tcp_reorder_invariant() {
    for case in 0..60u64 {
        let mut rng = SimRng::new(0x00F5_0000 + case);
        let mut data = arb_bytes(&mut rng, MSS as u64 as usize * 6 - 1);
        if data.is_empty() {
            data.push(0xaa);
        }
        let flow = FlowId {
            src_ip: [10, 0, 0, 1],
            src_port: 40000,
            dst_ip: [10, 0, 0, 2],
            dst_port: 443,
        };
        let mut a = TcpEndpoint::new(flow, 1, 2);
        let mut b = TcpEndpoint::new(flow.reversed(), 2, 1);
        a.write(&data);
        let mut segs = flushed(&mut a);
        // Fisher–Yates shuffle.
        for i in (1..segs.len()).rev() {
            let j = rng.uniform_u64(0, i as u64) as usize;
            segs.swap(i, j);
        }
        let mut received = Vec::new();
        for seg in &segs {
            received.extend(arrive(&mut b, seg).delivered);
        }
        assert_eq!(received, data, "case {case}");
    }
}

/// Duplicated segments never duplicate delivered bytes.
#[test]
fn tcp_duplicate_invariant() {
    for case in 0..60u64 {
        let mut rng = SimRng::new(0x00F6_0000 + case);
        let mut data = arb_bytes(&mut rng, MSS * 3 - 1);
        if data.is_empty() {
            data.push(0xbb);
        }
        let flow = FlowId {
            src_ip: [10, 0, 0, 1],
            src_port: 40000,
            dst_ip: [10, 0, 0, 2],
            dst_port: 443,
        };
        let mut a = TcpEndpoint::new(flow, 1, 2);
        let mut b = TcpEndpoint::new(flow.reversed(), 2, 1);
        a.write(&data);
        let segs = flushed(&mut a);
        let dup_idx = rng.uniform_u64(0, segs.len() as u64 - 1) as usize;
        let mut received = Vec::new();
        for (i, seg) in segs.iter().enumerate() {
            received.extend(arrive(&mut b, seg).delivered);
            if i == dup_idx {
                received.extend(arrive(&mut b, seg).delivered);
            }
        }
        assert_eq!(received, data, "case {case}");
    }
}

/// Overlapping retransmissions — segments cut at other boundaries than
/// the originals, partly covering bytes already delivered or already
/// parked — go through the reassembly trim paths: the stream still
/// arrives exactly once, in order, and every byte is delivered as soon
/// as it is contiguous.
#[test]
fn tcp_overlapping_retransmits_trim() {
    for case in 0..200u64 {
        let mut rng = SimRng::new(0x00F7_0000 + case);
        let mut data = arb_bytes(&mut rng, MSS * 4);
        if data.is_empty() {
            data.push(0xcc);
        }
        let flow = FlowId {
            src_ip: [10, 0, 0, 1],
            src_port: 40000,
            dst_ip: [10, 0, 0, 2],
            dst_port: 443,
        };
        let isn = rng.next_u64() as u32;
        let mut b = TcpEndpoint::new(flow.reversed(), 7, isn);
        let cut = |from: usize, to: usize| TcpSegment {
            flow,
            seq: isn.wrapping_add(from as u32),
            ack: 7,
            flags: TcpFlags::PSH_ACK,
            payload: Arc::from(&data[from..to]),
            retransmit: true,
        };
        // Random overlapping pieces, then a covering sweep so the
        // whole stream is always reachable.
        let mut pieces: Vec<(usize, usize)> = (0..rng.uniform_u64(1, 12))
            .map(|_| {
                let from = rng.uniform_u64(0, data.len() as u64 - 1) as usize;
                let len = rng.uniform_u64(1, (data.len() - from) as u64) as usize;
                (from, from + len)
            })
            .collect();
        let mut at = 0;
        while at < data.len() {
            let to = (at + rng.uniform_u64(1, MSS as u64) as usize).min(data.len());
            pieces.push((at, to));
            at = to;
        }
        for i in (1..pieces.len()).rev() {
            let j = rng.uniform_u64(0, i as u64) as usize;
            pieces.swap(i, j);
        }
        let mut received = Vec::new();
        for (n, &(from, to)) in pieces.iter().enumerate() {
            let act = arrive(&mut b, &cut(from, to));
            received.extend(act.delivered);
            // Everything contiguous so far is delivered at once: the
            // prefix covered by the pieces that have arrived.
            let mut prefix = 0;
            while let Some(&(_, t)) = pieces[..=n]
                .iter()
                .filter(|&&(f, t)| f <= prefix && prefix < t)
                .max_by_key(|p| p.1)
            {
                prefix = t;
            }
            assert_eq!(received.len(), prefix, "case {case}: piece {n}");
            assert_eq!(
                act.to_send.len(),
                1,
                "case {case}: every data segment is acked"
            );
            assert!(act.to_send[0].payload.is_empty(), "case {case}: pure ACK");
        }
        assert_eq!(received, data, "case {case}");
        assert_eq!(b.stats.bytes_delivered, data.len() as u64, "case {case}");
    }
}
