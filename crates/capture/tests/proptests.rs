//! Property-based tests for the capture toolchain.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_capture::flow::FlowReassembler;
use wm_capture::pcap::{PcapReader, PcapWriter};
use wm_capture::records::extract_records;
use wm_capture::tap::{CapturedPacket, Tap, Trace};
use wm_net::headers::{FlowId, TcpFlags};
use wm_net::tcp::TcpSegment;
use wm_net::time::SimTime;
use wm_tls::conn::{RecordEngine, SessionKeys};
use wm_tls::record::ContentType;
use wm_tls::suite::CipherSuite;

const FLOW: FlowId = FlowId {
    src_ip: [192, 168, 0, 9],
    src_port: 50505,
    dst_ip: [13, 13, 13, 13],
    dst_port: 443,
};

fn seg(seq: u32, payload: Vec<u8>) -> TcpSegment {
    TcpSegment {
        flow: FLOW,
        seq,
        ack: 0,
        flags: TcpFlags::PSH_ACK,
        payload: payload.into(),
        retransmit: false,
    }
}

/// Minimal splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn array<const N: usize>(&mut self) -> [u8; N] {
        let mut a = [0u8; N];
        for b in &mut a {
            *b = self.next() as u8;
        }
        a
    }
}

/// pcap files round-trip arbitrary packet contents and timestamps.
#[test]
fn pcap_roundtrip() {
    for case in 0..150u64 {
        let mut rng = Rng(0xCA_0000 + case);
        let n = rng.below(20);
        let packets: Vec<(u32, u32, Vec<u8>)> = (0..n)
            .map(|_| {
                (
                    rng.next() as u32,
                    rng.below(1_000_000) as u32,
                    rng.bytes(199),
                )
            })
            .collect();
        let mut w = PcapWriter::new();
        for (s, us, data) in &packets {
            w.write_packet(*s, *us, data);
        }
        let bytes = w.into_bytes();
        let mut r = PcapReader::new(&bytes).expect("own file");
        let back = r.read_all().expect("own file");
        assert_eq!(back.len(), packets.len(), "case {case}");
        for (p, (s, us, data)) in back.iter().zip(packets.iter()) {
            assert_eq!(p.ts_sec, *s, "case {case}");
            assert_eq!(p.ts_usec, *us, "case {case}");
            assert_eq!(&p.data, data, "case {case}");
        }
    }
}

/// The pcap reader never panics on arbitrary bytes.
#[test]
fn pcap_reader_total() {
    for case in 0..300u64 {
        let mut rng = Rng(0xCA_1000 + case);
        let bytes = rng.bytes(511);
        if let Ok(mut r) = PcapReader::new(&bytes) {
            let _ = r.read_all();
        }
    }
}

/// Trace serialization round-trips through the pcap format.
#[test]
fn trace_roundtrip() {
    for case in 0..100u64 {
        let mut rng = Rng(0xCA_2000 + case);
        let n = rng.below(12);
        let payloads: Vec<Vec<u8>> = (0..n).map(|_| rng.bytes(299)).collect();
        let mut tap = Tap::new();
        let mut seq = 1u32;
        for (i, p) in payloads.iter().enumerate() {
            tap.record_segment(SimTime(i as u64 * 1000), &seg(seq, p.clone()));
            seq = seq.wrapping_add(p.len() as u32);
        }
        let trace = tap.into_trace();
        let back = Trace::from_pcap_bytes(&trace.to_pcap_bytes()).expect("own trace");
        assert_eq!(back.packets, trace.packets, "case {case}");
    }
}

/// Reassembly is invariant to the capture order of segments, and
/// the reassembled stream equals the original byte stream when no
/// segment is missing.
#[test]
fn reassembly_order_invariant() {
    for case in 0..100u64 {
        let mut rng = Rng(0xCA_3000 + case);
        let n = 1 + rng.below(11);
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let mut c = rng.bytes(99);
                if c.is_empty() {
                    c.push(1);
                }
                c
            })
            .collect();
        // Build contiguous segments.
        let mut segments = Vec::new();
        let mut seq = 1000u32;
        let mut stream = Vec::new();
        for c in &chunks {
            segments.push(seg(seq, c.clone()));
            seq = seq.wrapping_add(c.len() as u32);
            stream.extend_from_slice(c);
        }
        // Record in a shuffled order (times still increasing).
        let mut order: Vec<usize> = (0..segments.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.below(i + 1);
            order.swap(i, j);
        }
        let mut tap = Tap::new();
        for (t, &idx) in order.iter().enumerate() {
            tap.record_segment(SimTime(t as u64 * 1000), &segments[idx]);
        }
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        assert_eq!(flows.len(), 1, "case {case}");
        let up = &flows[0].upstream;
        assert_eq!(up.gap_count(), 0, "case {case}");
        let got: Vec<u8> = up.chunks.iter().flat_map(|c| c.data.clone()).collect();
        assert_eq!(got, stream, "case {case}");
    }
}

/// Dropping any subset of segments yields gap accounting that
/// exactly matches the missing bytes.
#[test]
fn gap_accounting_exact() {
    for case in 0..150u64 {
        let mut rng = Rng(0xCA_4000 + case);
        let n = 2 + rng.below(8);
        let chunks: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                let mut c = rng.bytes(79);
                if c.is_empty() {
                    c.push(2);
                }
                c
            })
            .collect();
        let drop_mask = rng.next() as u16;
        let mut segments = Vec::new();
        let mut seq = 0u32;
        for c in &chunks {
            segments.push((seq, c.clone()));
            seq = seq.wrapping_add(c.len() as u32);
        }
        // Always keep the first and last so the extent is known.
        let mut tap = Tap::new();
        let mut kept_bytes = 0u64;
        let mut total_span = 0u64;
        for (i, (s, c)) in segments.iter().enumerate() {
            total_span += c.len() as u64;
            let dropped = i != 0 && i != segments.len() - 1 && (drop_mask >> (i % 16)) & 1 == 1;
            if !dropped {
                kept_bytes += c.len() as u64;
                tap.record_segment(SimTime(i as u64 * 1000), &seg(*s, c.clone()));
            }
        }
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        let up = &flows[0].upstream;
        assert_eq!(up.data_bytes(), kept_bytes, "case {case}");
        assert_eq!(up.data_bytes() + up.gap_bytes(), total_span, "case {case}");
    }
}

/// Record extraction over a lossless capture of a TLS stream
/// recovers every record exactly; resync stats stay zero.
#[test]
fn extraction_lossless() {
    for case in 0..60u64 {
        let mut rng = Rng(0xCA_5000 + case);
        let master: [u8; 32] = rng.array();
        let n_sizes = 1 + rng.below(9);
        let sizes: Vec<usize> = (0..n_sizes).map(|_| rng.below(2500)).collect();
        let mss = 200 + rng.below(1248);
        let keys = SessionKeys::derive(&master, CipherSuite::Aead);
        let mut engine = RecordEngine::client(&keys);
        let mut wire = Vec::new();
        for &s in &sizes {
            wire.extend(engine.seal_payload(ContentType::ApplicationData, &vec![3u8; s]));
        }
        let mut tap = Tap::new();
        let mut seq = 77u32;
        for (i, piece) in wire.chunks(mss).enumerate() {
            tap.record_segment(SimTime(i as u64 * 500), &seg(seq, piece.to_vec()));
            seq = seq.wrapping_add(piece.len() as u32);
        }
        let flows = FlowReassembler::reassemble(&tap.into_trace());
        let ex = extract_records(&flows[0].upstream);
        assert_eq!(ex.stats.gaps, 0, "case {case}");
        assert_eq!(ex.stats.records, sizes.len(), "case {case}");
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        let expect: Vec<u16> = sizes.iter().map(|&s| (s + 16) as u16).collect();
        assert_eq!(lens, expect, "case {case}");
    }
}

/// Malformed frames in a trace are skipped, never panic.
#[test]
fn reassembler_total_on_garbage() {
    for case in 0..150u64 {
        let mut rng = Rng(0xCA_6000 + case);
        let n = rng.below(10);
        let trace = Trace {
            packets: (0..n)
                .map(|i| CapturedPacket {
                    time: SimTime(i as u64),
                    frame: rng.bytes(119),
                })
                .collect(),
        };
        let _ = FlowReassembler::reassemble(&trace);
    }
}
