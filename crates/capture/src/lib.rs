//! # wm-capture — the eavesdropper's toolchain
//!
//! The paper's attacker is a *passive on-path observer*: they see the
//! encrypted packets between the viewer's browser and Netflix, and
//! nothing else. This crate is that observer's entire toolbox, built
//! from scratch:
//!
//! * [`pcap`] — the libpcap file format (magic `0xa1b2c3d4`, µs
//!   timestamps, Ethernet linktype): traces round-trip through standard
//!   tooling. There is one reader, [`PcapReader::next_packet`], looped
//!   by [`Trace::from_pcap_bytes`]; a file cut mid-packet is an error
//!   ([`PcapError::Truncated`], and `InvalidData` from
//!   [`Trace::read_pcap_file`]), not a partial trace;
//! * [`tap`] — the capture point used during simulation: records real
//!   Ethernet/IPv4/TCP frames with timestamps (and drops packets with
//!   the tap-loss probability of the link model — monitor ports miss
//!   packets, especially on busy wireless);
//! * [`flow`] — offline TCP stream reassembly per flow direction, with
//!   explicit *gap* reporting where the tap missed segments;
//! * [`records`] — TLS record metadata extraction over the reassembled
//!   stream, including header *resynchronization* after a gap (scan for
//!   a plausible chain of record headers), which is what a real traffic
//!   analyst does with lossy captures.
//!
//! Nothing in this crate has key material: everything downstream of it
//! sees only what a wiretap would.

pub mod flow;
pub mod labels;
pub mod pcap;
pub mod records;
pub mod tap;

pub use flow::{Direction, FlowReassembler, FlowStreams, StreamChunk, StreamView};
pub use labels::{LabeledRecord, RecordClass};
pub use pcap::{PcapError, PcapPacket, PcapReader, PcapWriter};
pub use records::{extract_records, find_resync, ExtractStats, Extraction, TimedRecord};
pub use tap::{CapturedPacket, Tap, Trace, TraceSummary};

// ---------------------------------------------------------------------
// The attacker's window onto the wire.
//
// The layering lint (`wm-lint`) forbids attacker-side crates
// (`wm-core`, `wm-behavior`, `wm-fleet`, `wm-obs`) from depending on the
// victim-side simulation crates (`wm-net`, `wm-tls`, `wm-player`,
// `wm-netflix`): an on-path adversary never sees victim internals, only
// what crosses the wire. Everything such an observer legitimately has —
// capture timestamps, cleartext frame headers, key-less TLS record
// metadata, and a seeded RNG for its own modelling — is re-exported
// here so this crate is the attacker's *entire* vocabulary.

/// Simulation-time vocabulary (`SimTime`, `Duration`): pcap timestamps.
pub mod time {
    pub use wm_net::time::*;
}

/// Deterministic seeded RNG for attacker-side modelling.
pub mod rng {
    pub use wm_net::rng::*;
}

/// Cleartext Ethernet/IPv4/TCP header vocabulary visible on the wire.
pub mod headers {
    pub use wm_net::headers::*;
}

/// TCP segment vocabulary (sequence numbers, payload sizes).
pub mod tcp {
    pub use wm_net::tcp::*;
}

pub use wm_tls::observer::{ObservedRecord, RecordObserver};
pub use wm_tls::record::{ContentType, RecordHeader, RECORD_HEADER_LEN};
