//! The libpcap file format, from scratch.
//!
//! Classic (not pcapng) format: a 24-byte global header followed by
//! 16-byte per-packet headers and frame bytes. We write the standard
//! little-endian magic `0xa1b2c3d4` with microsecond timestamps and
//! LINKTYPE_ETHERNET, so traces produced by the simulator open directly
//! in Wireshark/tcpdump. The reader accepts both byte orders.

/// Microsecond-timestamp magic, native (little-endian on write).
pub const MAGIC_US: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Global header length.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Per-packet header length.
pub const PACKET_HEADER_LEN: usize = 16;

/// One packet from a pcap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    pub ts_sec: u32,
    pub ts_usec: u32,
    /// Original length on the wire (may exceed `data.len()` if the
    /// capture was truncated by a snaplen).
    pub orig_len: u32,
    pub data: Vec<u8>,
}

impl PcapPacket {
    /// Timestamp in microseconds.
    pub fn timestamp_micros(&self) -> u64 {
        self.ts_sec as u64 * 1_000_000 + self.ts_usec as u64
    }
}

/// pcap parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// Not a pcap file (bad magic).
    BadMagic,
    /// File ends mid-structure.
    Truncated,
    /// Unsupported link type.
    BadLinkType(u32),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::BadMagic => write!(f, "not a pcap file (bad magic)"),
            PcapError::Truncated => write!(f, "pcap file truncated"),
            PcapError::BadLinkType(lt) => write!(f, "unsupported linktype {lt}"),
        }
    }
}

impl std::error::Error for PcapError {}

/// Streaming pcap writer into an in-memory buffer.
pub struct PcapWriter {
    buf: Vec<u8>,
    snaplen: u32,
}

impl PcapWriter {
    /// Writer with the default 64 KiB snaplen (no truncation for our
    /// MTU-sized frames).
    pub fn new() -> Self {
        Self::with_snaplen(65_535)
    }

    /// Writer that truncates stored frame bytes to `snaplen` (the
    /// original length is preserved in the packet header, as real
    /// `tcpdump -s` does).
    pub fn with_snaplen(snaplen: u32) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&snaplen.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapWriter { buf, snaplen }
    }

    /// Append one frame with a microsecond timestamp.
    pub fn write_packet(&mut self, ts_sec: u32, ts_usec: u32, frame: &[u8]) {
        let incl = frame.len().min(self.snaplen as usize);
        self.buf.extend_from_slice(&ts_sec.to_le_bytes());
        self.buf.extend_from_slice(&ts_usec.to_le_bytes());
        self.buf.extend_from_slice(&(incl as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.buf
            .extend_from_slice(frame.get(..incl).unwrap_or(frame));
    }

    /// Finish and take the file bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current size of the file in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no packets were written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.len() == GLOBAL_HEADER_LEN
    }
}

impl Default for PcapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// pcap file reader (both endiannesses, µs and ns magic).
pub struct PcapReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    swapped: bool,
    /// Nanosecond-resolution file (magic 0xa1b23c4d): timestamps are
    /// converted to µs on read.
    nanos: bool,
}

impl<'a> PcapReader<'a> {
    /// Open a pcap byte buffer.
    pub fn new(bytes: &'a [u8]) -> Result<Self, PcapError> {
        if bytes.len() < GLOBAL_HEADER_LEN {
            return Err(PcapError::Truncated);
        }
        let magic = read_u32_at(bytes, 0, false)?;
        let (swapped, nanos) = match magic {
            0xa1b2_c3d4 => (false, false),
            0xd4c3_b2a1 => (true, false),
            0xa1b2_3c4d => (false, true),
            0x4d3c_b2a1 => (true, true),
            _ => return Err(PcapError::BadMagic),
        };
        let linktype = read_u32_at(bytes, 20, swapped)?;
        if linktype != LINKTYPE_ETHERNET {
            return Err(PcapError::BadLinkType(linktype));
        }
        Ok(PcapReader {
            bytes,
            pos: GLOBAL_HEADER_LEN,
            swapped,
            nanos,
        })
    }

    fn read_u32(&self, off: usize) -> Result<u32, PcapError> {
        read_u32_at(self.bytes, off, self.swapped)
    }

    /// Read the next packet, or `None` at clean EOF.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, PcapError> {
        if self.pos == self.bytes.len() {
            return Ok(None);
        }
        let ts_sec = self.read_u32(self.pos)?;
        let mut ts_frac = self.read_u32(self.pos + 4)?;
        if self.nanos {
            ts_frac /= 1_000;
        }
        let incl_len = self.read_u32(self.pos + 8)? as usize;
        let orig_len = self.read_u32(self.pos + 12)?;
        let data_start = self.pos + PACKET_HEADER_LEN;
        let data_end = data_start
            .checked_add(incl_len)
            .ok_or(PcapError::Truncated)?;
        let data = self
            .bytes
            .get(data_start..data_end)
            .ok_or(PcapError::Truncated)?
            .to_vec();
        self.pos = data_end;
        Ok(Some(PcapPacket {
            ts_sec,
            ts_usec: ts_frac,
            orig_len,
            data,
        }))
    }
}

/// Read 4 bytes at `off` in the file's byte order, or `Truncated` if
/// the buffer ends first.
fn read_u32_at(bytes: &[u8], off: usize, swapped: bool) -> Result<u32, PcapError> {
    let raw = bytes
        .get(off..)
        .and_then(|s| s.first_chunk::<4>())
        .ok_or(PcapError::Truncated)?;
    Ok(if swapped {
        u32::from_be_bytes(*raw)
    } else {
        u32::from_le_bytes(*raw)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut w = PcapWriter::new();
        assert!(w.is_empty());
        w.write_packet(1, 500_000, b"frame-one");
        w.write_packet(2, 0, b"frame-two-longer");
        assert!(!w.is_empty());
        let bytes = w.into_bytes();
        let mut r = PcapReader::new(&bytes).unwrap();
        let mut all = Vec::new();
        while let Some(p) = r.next_packet().unwrap() {
            all.push(p);
        }
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].data, b"frame-one");
        assert_eq!(all[0].timestamp_micros(), 1_500_000);
        assert_eq!(all[1].data, b"frame-two-longer");
        assert_eq!(all[1].orig_len, 16);
    }

    #[test]
    fn global_header_layout() {
        let w = PcapWriter::new();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), GLOBAL_HEADER_LEN);
        assert_eq!(&bytes[0..4], &MAGIC_US.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
        assert_eq!(
            u32::from_le_bytes(bytes[20..24].try_into().unwrap()),
            LINKTYPE_ETHERNET
        );
    }

    #[test]
    fn snaplen_truncates_but_keeps_orig_len() {
        let mut w = PcapWriter::with_snaplen(4);
        w.write_packet(0, 0, b"0123456789");
        let bytes = w.into_bytes();
        let mut r = PcapReader::new(&bytes).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.data, b"0123");
        assert_eq!(p.orig_len, 10);
    }

    #[test]
    fn reader_rejects_garbage() {
        assert_eq!(
            PcapReader::new(b"notpcap").err(),
            Some(PcapError::Truncated)
        );
        let mut junk = vec![0u8; GLOBAL_HEADER_LEN];
        junk[0..4].copy_from_slice(&0xdeadbeefu32.to_le_bytes());
        assert_eq!(PcapReader::new(&junk).err(), Some(PcapError::BadMagic));
    }

    #[test]
    fn reader_rejects_truncated_packet() {
        let mut w = PcapWriter::new();
        w.write_packet(0, 0, b"full frame bytes");
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() - 3];
        let mut r = PcapReader::new(cut).unwrap();
        assert_eq!(r.next_packet().err(), Some(PcapError::Truncated));
    }

    #[test]
    fn reader_rejects_cut_header_and_out_of_range_length() {
        let mut w = PcapWriter::new();
        w.write_packet(1, 0, b"good");
        let bytes = w.into_bytes();
        // Cut inside the packet header.
        let cut = &bytes[..GLOBAL_HEADER_LEN + 7];
        let mut r = PcapReader::new(cut).unwrap();
        assert_eq!(r.next_packet().err(), Some(PcapError::Truncated));
        // A header whose incl_len points far past the end of the file.
        let mut bad = bytes.clone();
        for field in [9, 0, 0xffff_fff0, 64u32] {
            bad.extend_from_slice(&field.to_le_bytes());
        }
        bad.extend_from_slice(b"xx");
        let mut r = PcapReader::new(&bad).unwrap();
        assert_eq!(r.next_packet().unwrap().unwrap().data, b"good");
        assert_eq!(r.next_packet().err(), Some(PcapError::Truncated));
    }

    #[test]
    fn reads_big_endian_files() {
        // Hand-build a big-endian file with one packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&9u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&3u32.to_be_bytes()); // incl
        buf.extend_from_slice(&3u32.to_be_bytes()); // orig
        buf.extend_from_slice(b"abc");
        let mut r = PcapReader::new(&buf).unwrap();
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.ts_sec, 7);
        assert_eq!(p.data, b"abc");
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn rejects_non_ethernet() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        buf.extend_from_slice(&101u32.to_le_bytes()); // LINKTYPE_RAW
        assert_eq!(
            PcapReader::new(&buf).err(),
            Some(PcapError::BadLinkType(101))
        );
    }
}
