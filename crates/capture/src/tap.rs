//! The passive capture point.
//!
//! During a simulated session the tap sits on the client's access link
//! and records every frame it manages to see, with timestamps, into a
//! [`Trace`]. Traces serialize to real pcap files and are the only
//! artifact the attack pipeline consumes.

use crate::pcap::{PcapPacket, PcapReader, PcapWriter};
use std::sync::Arc;
use wm_net::headers::{build_frame, parse_frame, FlowId, TcpFlags};
use wm_net::tcp::TcpSegment;
use wm_net::time::SimTime;
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Registry};

/// One captured frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    pub time: SimTime,
    /// Complete Ethernet frame bytes.
    pub frame: Vec<u8>,
}

/// An ordered packet capture (one session's worth).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub packets: Vec<CapturedPacket>,
}

impl Trace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total captured bytes (frame bytes).
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.frame.len() as u64).sum()
    }

    /// Serialize to a pcap file image.
    pub fn to_pcap_bytes(&self) -> Vec<u8> {
        let mut w = PcapWriter::new();
        for p in &self.packets {
            let (s, us) = p.time.to_pcap_parts();
            w.write_packet(s, us, &p.frame);
        }
        w.into_bytes()
    }

    /// Parse a pcap file image back into a trace.
    pub fn from_pcap_bytes(bytes: &[u8]) -> Result<Self, crate::pcap::PcapError> {
        let mut r = PcapReader::new(bytes)?;
        let mut packets = Vec::new();
        while let Some(PcapPacket {
            ts_sec,
            ts_usec,
            data,
            ..
        }) = r.next_packet()?
        {
            packets.push(CapturedPacket {
                time: SimTime(ts_sec as u64 * 1_000_000 + ts_usec as u64),
                frame: data,
            });
        }
        Ok(Trace { packets })
    }

    /// Parse a pcap file image tolerantly: packets up to any cut tail
    /// become the trace, and the damage (if any) is reported as a typed
    /// [`PcapTruncation`](crate::pcap::PcapTruncation) instead of
    /// silently dropping the tail or failing the whole parse. This is
    /// the entry point for captures that ended mid-write — an attacker
    /// process killed while flushing, a disk that filled, a snaplen
    /// field gone out of range.
    pub fn from_pcap_bytes_lossy(
        bytes: &[u8],
    ) -> Result<(Self, Option<crate::pcap::PcapTruncation>), crate::pcap::PcapError> {
        let lossy = crate::pcap::read_pcap_lossy(bytes)?;
        let packets = lossy
            .packets
            .into_iter()
            .map(|p| CapturedPacket {
                time: SimTime(p.timestamp_micros()),
                frame: p.data,
            })
            .collect();
        Ok((Trace { packets }, lossy.truncation))
    }

    /// Write to a pcap file on disk.
    pub fn write_pcap_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_pcap_bytes())
    }

    /// Read from a pcap file on disk.
    pub fn read_pcap_file(path: &std::path::Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Trace::from_pcap_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Live tap used by the session simulator.
///
/// The session layer calls [`Tap::record_segment`] for every packet the
/// tap observes (link-level tap loss is applied by the caller, which
/// knows the link's tap-loss probability). The tap serializes real
/// frames so the resulting trace is indistinguishable from a wire
/// capture.
pub struct Tap {
    trace: Trace,
    next_ip_id: u16,
    frames_tapped: Option<Arc<Counter>>,
    bytes_tapped: Option<Arc<Counter>>,
    events: Option<(TraceHandle, SpanId)>,
}

impl Tap {
    pub fn new() -> Self {
        Tap {
            trace: Trace::new(),
            next_ip_id: 1,
            frames_tapped: None,
            bytes_tapped: None,
            events: None,
        }
    }

    /// Attach telemetry counters `capture.frames_tapped` and
    /// `capture.bytes_tapped` (observation only).
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.frames_tapped = Some(registry.counter("capture.frames_tapped"));
        self.bytes_tapped = Some(registry.counter("capture.bytes_tapped"));
    }

    /// Attach a causal trace sink: the flow-lifecycle control frames
    /// the tap witnesses (SYN / FIN / RST) are recorded as
    /// `capture.flow.open` / `capture.flow.close` instants under
    /// `span`. Observation only — the pcap bytes are unchanged.
    pub fn set_trace(&mut self, handle: TraceHandle, span: SpanId) {
        self.events = Some((handle, span));
    }

    /// Record a TCP segment observed at `time`.
    pub fn record_segment(&mut self, time: SimTime, seg: &TcpSegment) {
        self.record_frame(time, &seg.flow, seg.seq, seg.ack, seg.flags, &seg.payload);
    }

    /// Serialize one observed frame into the trace.
    fn record_frame(
        &mut self,
        time: SimTime,
        flow: &FlowId,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) {
        let ip_id = self.next_ip_id;
        self.next_ip_id = self.next_ip_id.wrapping_add(1);
        let ts = (time.micros() / 1_000) as u32; // ms-granularity TSval
        let frame = build_frame(flow, seq, ack, flags, ts, 0, ip_id, payload);
        if let Some(c) = &self.frames_tapped {
            c.inc();
        }
        if let Some(c) = &self.bytes_tapped {
            c.add(frame.len() as u64);
        }
        self.trace.packets.push(CapturedPacket { time, frame });
    }

    /// Record a bare control segment (SYN/SYN-ACK/FIN) with no payload.
    pub fn record_control(
        &mut self,
        time: SimTime,
        flow: &FlowId,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
    ) {
        if let Some((h, span)) = &self.events {
            // One lifecycle instant per witnessed SYN (the client's
            // opening, not the SYN-ACK reply) or FIN/RST teardown;
            // a = client port (flow discriminator), b = 1 for RST.
            if flags.syn && !flags.ack {
                h.instant_at(
                    time.micros(),
                    *span,
                    "capture.flow.open",
                    flow.src_port as u64,
                    0,
                );
            } else if flags.fin || flags.rst {
                h.instant_at(
                    time.micros(),
                    *span,
                    "capture.flow.close",
                    flow.src_port.max(flow.dst_port) as u64,
                    flags.rst as u64,
                );
            }
        }
        self.record_frame(time, flow, seq, ack, flags, &[]);
    }

    /// Finish capturing and take the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Packets captured so far.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }
}

impl Default for Tap {
    fn default() -> Self {
        Self::new()
    }
}

/// Direction-split summary statistics of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    pub packets: usize,
    pub upstream_packets: usize,
    pub downstream_packets: usize,
    pub upstream_payload_bytes: u64,
    pub downstream_payload_bytes: u64,
    /// Capture duration (first to last packet).
    pub duration_micros: u64,
}

impl Trace {
    /// Compute direction-split statistics (server = port 443 side).
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            packets: self.packets.len(),
            ..Default::default()
        };
        for (_, flow, _, payload) in segments_of(self) {
            if flow.dst_port == 443 {
                s.upstream_packets += 1;
                s.upstream_payload_bytes += payload.len() as u64;
            } else {
                s.downstream_packets += 1;
                s.downstream_payload_bytes += payload.len() as u64;
            }
        }
        if let (Some(first), Some(last)) = (self.packets.first(), self.packets.last()) {
            s.duration_micros = last.time.micros().saturating_sub(first.time.micros());
        }
        s
    }
}

/// Convenience: parse every frame of a trace into TCP segments
/// (frames that fail to parse are skipped — real captures contain noise).
pub fn segments_of(trace: &Trace) -> Vec<(SimTime, FlowId, wm_net::headers::TcpHeader, Vec<u8>)> {
    trace
        .packets
        .iter()
        .filter_map(|p| {
            parse_frame(&p.frame).map(|(flow, tcp, payload)| (p.time, flow, tcp, payload.to_vec()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowId {
        FlowId {
            src_ip: [192, 168, 0, 5],
            src_port: 50000,
            dst_ip: [45, 57, 12, 8],
            dst_port: 443,
        }
    }

    fn seg(payload: &[u8]) -> TcpSegment {
        TcpSegment {
            flow: flow(),
            seq: 100,
            ack: 200,
            flags: TcpFlags::PSH_ACK,
            payload: payload.into(),
            retransmit: false,
        }
    }

    #[test]
    fn tap_records_parseable_frames() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1_000), &seg(b"record bytes"));
        tap.record_control(SimTime(2_000), &flow(), 1, 0, TcpFlags::SYN);
        let trace = tap.into_trace();
        assert_eq!(trace.len(), 2);
        let segs = segments_of(&trace);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].3, b"record bytes");
        assert_eq!(segs[1].2.flags, TcpFlags::SYN);
        assert_eq!(segs[0].0, SimTime(1_000));
    }

    #[test]
    fn lossy_trace_parse_survives_cut_pcap() {
        let mut tap = Tap::new();
        for i in 0..4u8 {
            tap.record_segment(SimTime(i as u64 * 1_000), &seg(&[i; 32]));
        }
        let trace = tap.into_trace();
        let bytes = trace.to_pcap_bytes();
        let cut = &bytes[..bytes.len() - 10];
        assert!(Trace::from_pcap_bytes(cut).is_err());
        let (back, trunc) = Trace::from_pcap_bytes_lossy(cut).unwrap();
        assert_eq!(back.packets, trace.packets[..3]);
        assert!(trunc.is_some(), "cut tail must surface as truncation");
        // Clean image: identical trace, no truncation.
        let (clean, t2) = Trace::from_pcap_bytes_lossy(&bytes).unwrap();
        assert_eq!(clean.packets, trace.packets);
        assert_eq!(t2, None);
    }

    #[test]
    fn trace_pcap_roundtrip() {
        let mut tap = Tap::new();
        for i in 0..5u8 {
            tap.record_segment(SimTime(i as u64 * 1_000_000 + 123), &seg(&[i; 10]));
        }
        let trace = tap.into_trace();
        let bytes = trace.to_pcap_bytes();
        let back = Trace::from_pcap_bytes(&bytes).unwrap();
        assert_eq!(back.packets, trace.packets);
    }

    #[test]
    fn trace_file_roundtrip() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(42), &seg(b"on disk"));
        let trace = tap.into_trace();
        let dir = std::env::temp_dir().join(format!("wm_capture_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pcap");
        trace.write_pcap_file(&path).unwrap();
        let back = Trace::read_pcap_file(&path).unwrap();
        assert_eq!(back.packets, trace.packets);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn total_bytes_counts_frames() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(b"1234"));
        let trace = tap.into_trace();
        assert_eq!(
            trace.total_bytes(),
            (wm_net::headers::FRAME_OVERHEAD + 4) as u64
        );
    }

    #[test]
    fn summary_splits_directions() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1_000), &seg(b"up-bytes"));
        let down = TcpSegment {
            flow: flow().reversed(),
            seq: 7,
            ack: 8,
            flags: TcpFlags::PSH_ACK,
            payload: vec![0; 100].into(),
            retransmit: false,
        };
        tap.record_segment(SimTime(5_000), &down);
        let s = tap.into_trace().summary();
        assert_eq!(s.packets, 2);
        assert_eq!(s.upstream_packets, 1);
        assert_eq!(s.downstream_packets, 1);
        assert_eq!(s.upstream_payload_bytes, 8);
        assert_eq!(s.downstream_payload_bytes, 100);
        assert_eq!(s.duration_micros, 4_000);
    }

    #[test]
    fn ip_ids_increment() {
        let mut tap = Tap::new();
        tap.record_segment(SimTime(1), &seg(b"a"));
        tap.record_segment(SimTime(2), &seg(b"b"));
        let trace = tap.into_trace();
        let id0 = u16::from_be_bytes([trace.packets[0].frame[18], trace.packets[0].frame[19]]);
        let id1 = u16::from_be_bytes([trace.packets[1].frame[18], trace.packets[1].frame[19]]);
        assert_eq!(id1, id0.wrapping_add(1));
    }
}
