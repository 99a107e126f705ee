//! Offline TCP stream reassembly over a captured trace.
//!
//! The eavesdropper rebuilds each direction of each TCP flow into a
//! byte stream before parsing TLS records out of it. Tap loss shows up
//! as *gaps*: runs of sequence space the capture never saw (unless a
//! captured retransmission filled them in). Gaps are first-class here —
//! the record extractor has to resynchronize after each one, and the
//! evaluation counts how much of the paper's accuracy loss they cause.

use std::collections::BTreeMap;
use wm_net::headers::FlowId;
use wm_net::time::SimTime;

use crate::tap::{segments_of, Trace};

/// Flow direction relative to the viewer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    ClientToServer,
    ServerToClient,
}

/// A contiguous run of reassembled stream bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamChunk {
    /// Stream offset of the first byte (relative to the first captured
    /// payload byte of this direction).
    pub start_offset: u64,
    pub data: Vec<u8>,
    /// `(absolute stream offset, capture time)` marks, one per
    /// contributing segment, ascending by offset.
    pub marks: Vec<(u64, SimTime)>,
}

/// One direction of one flow, reassembled.
#[derive(Debug, Clone, Default)]
pub struct StreamView {
    /// Contiguous chunks, ascending, non-overlapping. Bytes between
    /// consecutive chunks were lost by the tap.
    pub chunks: Vec<StreamChunk>,
}

impl StreamView {
    /// Total reassembled payload bytes.
    pub fn data_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.data.len() as u64).sum()
    }

    /// Total bytes lost in gaps between chunks.
    pub fn gap_bytes(&self) -> u64 {
        self.chunks
            .windows(2)
            .map(|w| match w {
                [a, b] => b
                    .start_offset
                    .saturating_sub(a.start_offset + a.data.len() as u64),
                _ => 0,
            })
            .sum()
    }

    /// Number of gaps.
    pub fn gap_count(&self) -> usize {
        self.chunks.len().saturating_sub(1)
    }

    /// Capture time of the segment containing `offset`, if known.
    pub fn time_at(&self, offset: u64) -> Option<SimTime> {
        for c in &self.chunks {
            let end = c.start_offset + c.data.len() as u64;
            if offset >= c.start_offset && offset < end {
                // Last mark at or before `offset`.
                let idx = c.marks.partition_point(|(o, _)| *o <= offset);
                return c.marks.get(idx.saturating_sub(1)).map(|(_, t)| *t);
            }
        }
        None
    }
}

/// Both directions of one TCP connection.
#[derive(Debug, Clone)]
pub struct FlowStreams {
    /// The client→server flow id (client identified as the non-443 side).
    pub client_flow: FlowId,
    pub upstream: StreamView,
    pub downstream: StreamView,
}

/// Reassemble every TCP connection in a trace.
///
/// The side with port 443 is taken to be the server (all simulated
/// sessions use TLS on 443, as did the captures in the paper).
pub struct FlowReassembler;

impl FlowReassembler {
    /// Run reassembly over the full trace.
    pub fn reassemble(trace: &Trace) -> Vec<FlowStreams> {
        // Group segments by canonical flow.
        type Segment = (SimTime, FlowId, u32, Vec<u8>);
        let mut flows: BTreeMap<FlowId, Vec<Segment>> = BTreeMap::new();
        for (time, flow, tcp, payload) in segments_of(trace) {
            if payload.is_empty() {
                continue; // pure ACKs and control segments carry no stream bytes
            }
            flows
                .entry(flow.canonical())
                .or_default()
                .push((time, flow, tcp.seq, payload));
        }
        flows
            .into_iter()
            .map(|(canonical, segs)| {
                let client_flow = if canonical.src_port == 443 {
                    canonical.reversed()
                } else {
                    canonical
                };
                let mut up = DirectionAssembler::new();
                let mut down = DirectionAssembler::new();
                for (time, flow, seq, payload) in segs {
                    if flow == client_flow {
                        up.add(time, seq, &payload);
                    } else {
                        down.add(time, seq, &payload);
                    }
                }
                FlowStreams {
                    client_flow,
                    upstream: up.finish(),
                    downstream: down.finish(),
                }
            })
            .collect()
    }
}

/// Sequence-space reassembler for one direction.
///
/// The first captured segment anchors relative offset 0, but later
/// captures may reveal *earlier* stream bytes (out-of-order capture, or
/// the anchor itself was a retransmission), so offsets are tracked as
/// signed relatives and normalized once at the end.
struct DirectionAssembler {
    /// Wire seq of the first payload byte seen (relative offset 0).
    base_seq: Option<u32>,
    /// Segments keyed by signed relative stream offset.
    segments: BTreeMap<i64, (Vec<u8>, SimTime)>,
    /// Most recent relative offset, for unwrapping multi-wrap streams.
    last_rel: i64,
}

impl DirectionAssembler {
    fn new() -> Self {
        DirectionAssembler {
            base_seq: None,
            segments: BTreeMap::new(),
            last_rel: 0,
        }
    }

    fn add(&mut self, time: SimTime, seq: u32, payload: &[u8]) {
        let base = *self.base_seq.get_or_insert(seq);
        let raw = seq.wrapping_sub(base) as i64; // 0..2^32
                                                 // Choose raw + k·2^32 closest to the last seen offset.
        let span = 1i64 << 32;
        let k = (self.last_rel - raw + span / 2).div_euclid(span);
        let rel = raw + k * span;
        self.last_rel = self.last_rel.max(rel);
        // Keep the earliest copy of each offset (retransmissions are
        // later and carry identical bytes).
        self.segments
            .entry(rel)
            .or_insert_with(|| (payload.to_vec(), time));
    }

    fn finish(self) -> StreamView {
        let min_rel = self.segments.keys().next().copied().unwrap_or(0);
        let mut chunks: Vec<StreamChunk> = Vec::new();
        for (rel, (payload, time)) in self.segments {
            let abs = (rel - min_rel) as u64;
            let end = abs + payload.len() as u64;
            match chunks.last_mut() {
                Some(last) => {
                    let last_end = last.start_offset + last.data.len() as u64;
                    if abs <= last_end {
                        // Contiguous or overlapping: append the new tail.
                        if end > last_end {
                            let skip = (last_end - abs) as usize;
                            last.data
                                .extend_from_slice(payload.get(skip..).unwrap_or_default());
                            last.marks.push((last_end, time));
                        }
                        // Fully contained duplicates contribute nothing.
                    } else {
                        chunks.push(StreamChunk {
                            start_offset: abs,
                            data: payload,
                            marks: vec![(abs, time)],
                        });
                    }
                }
                None => {
                    chunks.push(StreamChunk {
                        start_offset: abs,
                        data: payload,
                        marks: vec![(abs, time)],
                    });
                }
            }
        }
        StreamView { chunks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::Tap;
    use wm_net::headers::TcpFlags;
    use wm_net::tcp::TcpSegment;

    fn client_flow() -> FlowId {
        FlowId {
            src_ip: [192, 168, 1, 2],
            src_port: 51000,
            dst_ip: [23, 246, 50, 9],
            dst_port: 443,
        }
    }

    fn seg(flow: FlowId, seq: u32, payload: &[u8]) -> TcpSegment {
        TcpSegment {
            flow,
            seq,
            ack: 0,
            flags: TcpFlags::PSH_ACK,
            payload: payload.into(),
            retransmit: false,
        }
    }

    #[test]
    fn reassembles_in_order_stream() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 1000, b"hello "));
        tap.record_segment(SimTime(2), &seg(client_flow(), 1006, b"world"));
        let trace = tap.into_trace();
        let flows = FlowReassembler::reassemble(&trace);
        assert_eq!(flows.len(), 1);
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 1);
        assert_eq!(up.chunks[0].data, b"hello world");
        assert_eq!(up.gap_count(), 0);
        assert_eq!(up.time_at(0), Some(SimTime(1)));
        assert_eq!(up.time_at(8), Some(SimTime(2)));
    }

    #[test]
    fn splits_directions() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 10, b"request"));
        tap.record_segment(SimTime(2), &seg(client_flow().reversed(), 99, b"response"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].client_flow, client_flow());
        assert_eq!(flows[0].upstream.chunks[0].data, b"request");
        assert_eq!(flows[0].downstream.chunks[0].data, b"response");
    }

    #[test]
    fn out_of_capture_order_reassembles() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(2), &seg(client_flow(), 1005, b"world"));
        tap.record_segment(SimTime(1), &seg(client_flow(), 1000, b"hello"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        // First captured segment defines offset 0; the earlier-seq one
        // sorts before it in sequence space via unwrap.
        let up = &flows[0].upstream;
        let all: Vec<u8> = up.chunks.iter().flat_map(|c| c.data.clone()).collect();
        assert_eq!(all, b"helloworld");
    }

    #[test]
    fn gap_where_tap_missed() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"aaaa"));
        // 6 bytes at seq 4..10 never captured.
        tap.record_segment(SimTime(3), &seg(client_flow(), 10, b"bbbb"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 2);
        assert_eq!(up.gap_count(), 1);
        assert_eq!(up.gap_bytes(), 6);
        assert_eq!(up.data_bytes(), 8);
        assert_eq!(up.time_at(5), None, "no time inside a gap");
    }

    #[test]
    fn captured_retransmission_fills_gap() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"aaaa"));
        tap.record_segment(SimTime(3), &seg(client_flow(), 8, b"cccc"));
        // Retransmission of the missing middle arrives later.
        tap.record_segment(SimTime(9), &seg(client_flow(), 4, b"bbbb"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        let up = &flows[0].upstream;
        assert_eq!(up.chunks.len(), 1);
        assert_eq!(up.chunks[0].data, b"aaaabbbbcccc");
        assert_eq!(up.time_at(5), Some(SimTime(9)), "late copy's timestamp");
    }

    #[test]
    fn duplicate_segments_keep_first_copy_time() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"dup"));
        tap.record_segment(SimTime(5), &seg(client_flow(), 0, b"dup"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        let up = &flows[0].upstream;
        assert_eq!(up.chunks[0].data, b"dup");
        assert_eq!(up.time_at(0), Some(SimTime(1)));
    }

    #[test]
    fn overlapping_segment_tail_appended() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"abcdef"));
        tap.record_segment(SimTime(2), &seg(client_flow(), 4, b"efgh"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        assert_eq!(flows[0].upstream.chunks[0].data, b"abcdefgh");
    }

    #[test]
    fn multiple_flows_separated() {
        let mut tap = Tap::new();
        let other = FlowId {
            src_port: 52000,
            ..client_flow()
        };
        tap.record_segment(SimTime(1), &seg(client_flow(), 0, b"flow-one"));
        tap.record_segment(SimTime(2), &seg(other, 0, b"flow-two"));
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        assert_eq!(flows.len(), 2);
    }
}
