//! The eavesdropper's record parser.
//!
//! Given one direction of a reassembled TCP byte stream, the observer
//! recovers the metadata of every TLS record — content type, version and
//! the all-important length — without any key material. This is exactly
//! the information the paper's attacker extracts from a capture, and it
//! is all the attack (`wm-core`) ever consumes.

use crate::record::{ContentType, RecordHeader, RECORD_HEADER_LEN};

/// Metadata of one record as seen on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedRecord {
    /// Byte offset of the record header within the observed stream.
    pub stream_offset: u64,
    pub content_type: ContentType,
    pub version: (u8, u8),
    /// Ciphertext length from the cleartext header — the side-channel.
    pub length: u16,
}

/// Incremental, key-less TLS record stream parser.
///
/// Feed it one direction of a TCP stream (in order; reassembly is the
/// capture layer's job) and it emits [`ObservedRecord`]s. On a malformed
/// header the observer marks itself desynchronized and stops emitting —
/// the capture layer surfaces that so an experiment never silently reads
/// garbage lengths.
#[derive(Default)]
pub struct RecordObserver {
    buf: Vec<u8>,
    consumed: u64,
    desynced: bool,
}

impl RecordObserver {
    /// New observer at stream offset zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the stream stopped parsing as TLS.
    pub fn is_desynced(&self) -> bool {
        self.desynced
    }

    /// Feed stream bytes; returns the records completed by this feed.
    // wm-lint: alloc-ok(reason = "owned-batch API: one Vec per feed call sized by completed records, not per byte")
    pub fn feed(&mut self, bytes: &[u8]) -> Vec<ObservedRecord> {
        if self.desynced {
            return Vec::new();
        }
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        loop {
            if self.buf.len() < RECORD_HEADER_LEN {
                break;
            }
            let header_bytes: [u8; RECORD_HEADER_LEN] = self.buf[..RECORD_HEADER_LEN]
                .try_into()
                .expect("header length");
            let Some(header) = RecordHeader::parse(&header_bytes) else {
                self.desynced = true;
                break;
            };
            let total = RECORD_HEADER_LEN + header.length as usize;
            if self.buf.len() < total {
                break;
            }
            out.push(ObservedRecord {
                stream_offset: self.consumed,
                content_type: header.content_type,
                version: header.version,
                length: header.length,
            });
            self.buf.drain(..total);
            self.consumed += total as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{RecordEngine, SessionKeys};
    use crate::suite::CipherSuite;

    fn client_engine() -> RecordEngine {
        RecordEngine::client(&SessionKeys::derive(&[0x22; 32], CipherSuite::Aead))
    }

    #[test]
    fn observes_lengths_without_keys() {
        let mut client = client_engine();
        let wire = client.seal_payload(ContentType::ApplicationData, &vec![0u8; 2196]);
        let mut obs = RecordObserver::new();
        let records = obs.feed(&wire);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].length, 2212); // 2196 + 16-byte tag
        assert_eq!(records[0].content_type, ContentType::ApplicationData);
        assert_eq!(records[0].stream_offset, 0);
    }

    #[test]
    fn handles_byte_at_a_time_delivery() {
        let mut client = client_engine();
        let mut wire = client.seal_payload(ContentType::ApplicationData, b"first");
        wire.extend(client.seal_payload(ContentType::ApplicationData, b"second message"));
        let mut obs = RecordObserver::new();
        let mut seen = Vec::new();
        for b in &wire {
            seen.extend(obs.feed(std::slice::from_ref(b)));
        }
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].length as usize, 5 + 16);
        assert_eq!(seen[1].length as usize, 14 + 16);
        assert_eq!(seen[1].stream_offset, (RECORD_HEADER_LEN + 21) as u64);
        assert!(!obs.is_desynced());
        assert_eq!(obs.consumed, wire.len() as u64);
    }

    #[test]
    fn desync_on_garbage_stops_cleanly() {
        let mut obs = RecordObserver::new();
        let records = obs.feed(&[0x00, 0x01, 0x02, 0x03, 0x04, 0x05]);
        assert!(records.is_empty());
        assert!(obs.is_desynced());
        // Further feeds are inert.
        assert!(obs.feed(&[23, 3, 3, 0, 0]).is_empty());
    }

    #[test]
    fn mixed_content_types() {
        let mut client = client_engine();
        let mut wire = Vec::new();
        // A plaintext-framed handshake record followed by app data.
        let hs_header = RecordHeader {
            content_type: ContentType::Handshake,
            version: (3, 3),
            length: 236,
        };
        wire.extend_from_slice(&hs_header.to_bytes());
        wire.extend(std::iter::repeat_n(0xaa, 236));
        wire.extend(client.seal_payload(ContentType::ApplicationData, b"data"));
        let mut obs = RecordObserver::new();
        let records = obs.feed(&wire);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].content_type, ContentType::Handshake);
        assert_eq!(records[0].length, 236);
        assert_eq!(records[1].content_type, ContentType::ApplicationData);
    }
}
