//! Record protection engine: genuine sealing/opening of TLS records.
//!
//! Each direction of a connection has its own write key and sequence
//! number, exactly like TLS: nonces are derived from the sequence
//! number, and the record header is bound into the AEAD's associated
//! data (or the CBC MAC), so replayed, reordered or truncated records
//! fail authentication in tests that exercise those paths.

use crate::record::{fragments, ContentType, RecordHeader, MAX_CIPHERTEXT, RECORD_HEADER_LEN};
use crate::suite::{CipherSuite, CBC_MAC_LEN};
use std::sync::Arc;
use wm_cipher::block::{BlockCipher, BLOCK};
use wm_cipher::kdf::{derive_key, mix};
use wm_cipher::mac::{tags_equal, Mac128};
use wm_cipher::{open_into, seal_into, Key, Nonce};
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Registry};

/// Key material for one connection, both directions.
#[derive(Clone)]
pub struct SessionKeys {
    pub client_write: Key,
    pub server_write: Key,
    pub suite: CipherSuite,
}

impl SessionKeys {
    /// Derive both directions from a master secret (as the handshake's
    /// key schedule would).
    pub fn derive(master: &Key, suite: CipherSuite) -> Self {
        SessionKeys {
            client_write: derive_key(master, "client write key"),
            server_write: derive_key(master, "server write key"),
            suite,
        }
    }
}

/// Errors surfaced by the receive path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlsError {
    /// Record failed authentication or padding checks.
    BadRecord,
    /// Record header was malformed (desynchronized stream).
    Desync,
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::BadRecord => write!(f, "record failed authentication"),
            TlsError::Desync => write!(f, "record stream desynchronized"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Record-layer telemetry handles for one engine (see `wm-telemetry`).
///
/// `bytes_*` count plaintext payload bytes; record counts include every
/// fragment sealed or authenticated.
pub struct EngineTelemetry {
    records_sealed: Arc<Counter>,
    bytes_sealed: Arc<Counter>,
    records_opened: Arc<Counter>,
    bytes_opened: Arc<Counter>,
}

impl EngineTelemetry {
    /// Register this engine's metrics under `tls.<label>.*`
    /// (label is conventionally `client` or `server`).
    pub fn register(registry: &Registry, label: &str) -> Self {
        EngineTelemetry {
            records_sealed: registry.counter(&format!("tls.{label}.records_sealed")),
            bytes_sealed: registry.counter(&format!("tls.{label}.bytes_sealed")),
            records_opened: registry.counter(&format!("tls.{label}.records_opened")),
            bytes_opened: registry.counter(&format!("tls.{label}.bytes_opened")),
        }
    }
}

/// One endpoint's record engine (seals with its write key, opens with
/// the peer's).
pub struct RecordEngine {
    suite: CipherSuite,
    write_key: Key,
    read_key: Key,
    write_seq: u64,
    read_seq: u64,
    /// Bytes received but not yet parsed into complete records.
    rx_buf: Vec<u8>,
    /// Cursor into `rx_buf`: everything before it has been consumed.
    /// Advancing the cursor instead of draining per record keeps the
    /// receive path allocation- and memmove-free; `feed` compacts the
    /// buffer once consumed bytes dominate, so memory stays bounded by
    /// ~2x the live backlog.
    rx_pos: usize,
    /// Reusable `payload || MAC` staging buffer for CBC sealing.
    scratch: Vec<u8>,
    /// Key-scheduled block ciphers, built once per connection instead
    /// of once per record (CBC suites only).
    write_block: Option<BlockCipher>,
    read_block: Option<BlockCipher>,
    telemetry: Option<EngineTelemetry>,
    /// Causal trace sink: events land under the attached span (the
    /// owning flow), stamped with the recorder's shared sim clock.
    trace: Option<(TraceHandle, SpanId)>,
}

impl RecordEngine {
    /// Engine for the client side of `keys`.
    pub fn client(keys: &SessionKeys) -> Self {
        Self::new(keys.suite, keys.client_write, keys.server_write)
    }

    /// Engine for the server side of `keys`.
    pub fn server(keys: &SessionKeys) -> Self {
        Self::new(keys.suite, keys.server_write, keys.client_write)
    }

    fn new(suite: CipherSuite, write_key: Key, read_key: Key) -> Self {
        let (write_block, read_block) = match suite {
            CipherSuite::Cbc => (
                Some(BlockCipher::new(&write_key)),
                Some(BlockCipher::new(&read_key)),
            ),
            CipherSuite::Aead => (None, None),
        };
        RecordEngine {
            suite,
            write_key,
            read_key,
            write_seq: 0,
            read_seq: 0,
            rx_buf: Vec::new(),
            rx_pos: 0,
            scratch: Vec::new(),
            write_block,
            read_block,
            telemetry: None,
            trace: None,
        }
    }

    /// Attach telemetry handles (observation only; never changes wire
    /// bytes or authentication outcomes).
    pub fn set_telemetry(&mut self, telemetry: EngineTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Attach a trace sink; record framing events (`tls.record.sealed`
    /// / `tls.record.opened`) are emitted under `span`. Observation
    /// only, like telemetry.
    pub fn set_trace(&mut self, handle: TraceHandle, span: SpanId) {
        self.trace = Some((handle, span));
    }

    /// Seal `payload` into one or more wire records (header included),
    /// fragmenting at the 2^14 plaintext limit.
    pub fn seal_payload(&mut self, content_type: ContentType, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::with_capacity(payload.len() + 64);
        self.seal_payload_into(content_type, payload, &mut wire);
        wire
    }

    /// [`RecordEngine::seal_payload`] appending the wire records to
    /// `wire` — hot session loops reuse one wire buffer across sends
    /// instead of allocating per payload. Bytes appended and sequence
    /// numbers consumed are identical to `seal_payload`.
    // wm-lint: hotpath
    pub fn seal_payload_into(
        &mut self,
        content_type: ContentType,
        payload: &[u8],
        wire: &mut Vec<u8>,
    ) {
        for frag in fragments(payload) {
            self.seal_fragment(content_type, frag, wire);
        }
    }

    /// Seal exactly one record; `payload` must fit a single fragment.
    fn seal_fragment(&mut self, content_type: ContentType, payload: &[u8], wire: &mut Vec<u8>) {
        let seq = self.write_seq;
        self.write_seq += 1;
        if let Some(t) = &self.telemetry {
            t.records_sealed.inc();
            t.bytes_sealed.add(payload.len() as u64);
        }
        let ct_len = self.suite.ciphertext_len(payload.len());
        if let Some((h, span)) = &self.trace {
            // a = record sequence, b = on-the-wire record length — the
            // exact observable the attack classifies.
            h.instant(
                *span,
                "tls.record.sealed",
                seq,
                (RECORD_HEADER_LEN + ct_len) as u64,
            );
        }
        assert!(
            ct_len <= MAX_CIPHERTEXT,
            "fragmenting should have capped this"
        );
        let header = RecordHeader {
            content_type,
            version: (3, 3),
            length: ct_len as u16,
        };
        wire.extend_from_slice(&header.to_bytes());
        let body_start = wire.len();
        match self.suite {
            CipherSuite::Aead => {
                let nonce = make_nonce(seq);
                let aad = make_aad(seq, &header);
                seal_into(&self.write_key, &nonce, &aad, payload, wire);
            }
            CipherSuite::Cbc => {
                let mac = cbc_mac(&self.write_key, seq, &header, payload);
                self.scratch.clear();
                self.scratch.extend_from_slice(payload);
                self.scratch.extend_from_slice(&mac);
                let iv = cbc_iv(&self.write_key, seq);
                let cipher = self
                    .write_block
                    .as_ref()
                    .expect("cbc suite has block cipher");
                cipher.cbc_encrypt_into(&iv, &self.scratch, wire);
            }
        }
        debug_assert_eq!(wire.len() - body_start, ct_len);
    }

    /// Feed received wire bytes into the reassembly buffer.
    ///
    /// Compacts the buffer first when consumed bytes outweigh the live
    /// backlog, so a long-lived connection never grows its receive
    /// buffer past ~2x the unparsed bytes (amortized O(1) per byte).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.rx_pos == self.rx_buf.len() {
            self.rx_buf.clear();
            self.rx_pos = 0;
        } else if self.rx_pos >= self.rx_buf.len() - self.rx_pos {
            self.rx_buf.copy_within(self.rx_pos.., 0);
            self.rx_buf.truncate(self.rx_buf.len() - self.rx_pos);
            self.rx_pos = 0;
        }
        self.rx_buf.extend_from_slice(bytes);
    }

    /// Try to parse, decrypt and authenticate the next complete record.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    pub fn next_record(&mut self) -> Result<Option<(ContentType, Vec<u8>)>, TlsError> {
        let mut out = Vec::new();
        match self.next_record_into(&mut out)? {
            Some(content_type) => Ok(Some((content_type, out))),
            None => Ok(None),
        }
    }

    /// [`RecordEngine::next_record`], writing the plaintext into `out`
    /// (cleared first) — hot session loops reuse one plaintext buffer
    /// across records instead of allocating per record. Consumption,
    /// sequence and error semantics are identical to `next_record`.
    // wm-lint: hotpath
    pub fn next_record_into(&mut self, out: &mut Vec<u8>) -> Result<Option<ContentType>, TlsError> {
        out.clear();
        let live = &self.rx_buf[self.rx_pos..];
        if live.len() < RECORD_HEADER_LEN {
            return Ok(None);
        }
        let header_bytes: [u8; RECORD_HEADER_LEN] =
            live[..RECORD_HEADER_LEN].try_into().expect("header length");
        let header = RecordHeader::parse(&header_bytes).ok_or(TlsError::Desync)?;
        let total = RECORD_HEADER_LEN + header.length as usize;
        if live.len() < total {
            return Ok(None);
        }
        // Consume the record before authenticating it, matching the
        // historical drain-then-decrypt behavior: a bad record does not
        // re-present its bytes on the next call.
        let start = self.rx_pos;
        self.rx_pos += total;
        let body = &self.rx_buf[start + RECORD_HEADER_LEN..start + total];
        let seq = self.read_seq;
        self.read_seq += 1;
        match self.suite {
            CipherSuite::Aead => {
                let nonce = make_nonce(seq);
                let aad = make_aad(seq, &header);
                open_into(&self.read_key, &nonce, &aad, body, out)
                    .map_err(|_| TlsError::BadRecord)?;
            }
            CipherSuite::Cbc => {
                let cipher = self
                    .read_block
                    .as_ref()
                    .expect("cbc suite has block cipher");
                cipher
                    .cbc_decrypt_into(body, out)
                    .ok_or(TlsError::BadRecord)?;
                if out.len() < CBC_MAC_LEN {
                    return Err(TlsError::BadRecord);
                }
                let mac_start = out.len() - CBC_MAC_LEN;
                let got_mac: [u8; CBC_MAC_LEN] = out[mac_start..].try_into().expect("mac length");
                out.truncate(mac_start);
                let expect = cbc_mac(&self.read_key, seq, &header, out);
                if !mac20_equal(&expect, &got_mac) {
                    return Err(TlsError::BadRecord);
                }
            }
        }
        if let Some(t) = &self.telemetry {
            t.records_opened.inc();
            t.bytes_opened.add(out.len() as u64);
        }
        if let Some((h, span)) = &self.trace {
            h.instant(*span, "tls.record.opened", seq, out.len() as u64);
        }
        Ok(Some(header.content_type))
    }

    /// Drain every complete record currently buffered.
    pub fn drain_records(&mut self) -> Result<Vec<(ContentType, Vec<u8>)>, TlsError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Per-record nonce: 4 zero bytes then the big-endian sequence number
/// (the TLS 1.3 construction with a zero IV, sufficient here because
/// keys are per-direction).
fn make_nonce(seq: u64) -> Nonce {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&seq.to_be_bytes());
    nonce
}

/// AEAD associated data: sequence number plus the record header, binding
/// type/version/length into the tag (RFC 5246 §6.2.3.3 shape).
fn make_aad(seq: u64, header: &RecordHeader) -> [u8; 13] {
    let mut aad = [0u8; 13];
    aad[..8].copy_from_slice(&seq.to_be_bytes());
    aad[8..].copy_from_slice(&header.to_bytes());
    aad
}

/// CBC explicit IV, derived deterministically from (key, seq) so that a
/// given session seed reproduces identical ciphertext bytes.
fn cbc_iv(key: &Key, seq: u64) -> [u8; BLOCK] {
    let mut state = seq ^ 0x6976_5f64_6572_6976; // "iv_deriv"
    for chunk in key.chunks(8) {
        state = mix(state ^ u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
    }
    let mut iv = [0u8; BLOCK];
    iv[..8].copy_from_slice(&mix(state).to_le_bytes());
    iv[8..].copy_from_slice(&mix(state ^ 1).to_le_bytes());
    iv
}

/// The CBC family's 20-byte MAC: a 16-byte Mac128 tag widened with a
/// 4-byte checksum so the wire arithmetic matches HMAC-SHA1 suites.
fn cbc_mac(key: &Key, seq: u64, header: &RecordHeader, payload: &[u8]) -> [u8; CBC_MAC_LEN] {
    let mac_key: [u8; 16] = key[..16].try_into().expect("16 bytes");
    let mut mac = Mac128::new(&mac_key);
    mac.update(&seq.to_be_bytes());
    mac.update(&header.to_bytes()[..3]); // type + version; length is implicit
    mac.update(&(payload.len() as u64).to_le_bytes());
    mac.update(payload);
    let tag = mac.finalize();
    let mut out = [0u8; CBC_MAC_LEN];
    out[..16].copy_from_slice(&tag);
    let check = mix(u64::from_le_bytes(tag[..8].try_into().expect("8 bytes")) ^ seq);
    out[16..].copy_from_slice(&check.to_le_bytes()[..4]);
    out
}

fn mac20_equal(a: &[u8; CBC_MAC_LEN], b: &[u8; CBC_MAC_LEN]) -> bool {
    let (a16, arest) = a.split_at(16);
    let (b16, brest) = b.split_at(16);
    let a16: [u8; 16] = a16.try_into().expect("16");
    let b16: [u8; 16] = b16.try_into().expect("16");
    tags_equal(&a16, &b16) && arest == brest
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(suite: CipherSuite) -> SessionKeys {
        SessionKeys::derive(&[0x11; 32], suite)
    }

    fn pair(suite: CipherSuite) -> (RecordEngine, RecordEngine) {
        let k = keys(suite);
        (RecordEngine::client(&k), RecordEngine::server(&k))
    }

    #[test]
    fn roundtrip_both_suites() {
        for suite in [CipherSuite::Aead, CipherSuite::Cbc] {
            let (mut client, mut server) = pair(suite);
            let wire = client.seal_payload(ContentType::ApplicationData, b"hello over tls");
            server.feed(&wire);
            let (ct, plain) = server.next_record().unwrap().unwrap();
            assert_eq!(ct, ContentType::ApplicationData);
            assert_eq!(plain, b"hello over tls");
        }
    }

    #[test]
    fn wire_length_matches_suite_arithmetic() {
        for suite in [CipherSuite::Aead, CipherSuite::Cbc] {
            let (mut client, _) = pair(suite);
            for len in [0usize, 1, 100, 2196] {
                let payload = vec![0x61; len];
                let wire = client.seal_payload(ContentType::ApplicationData, &payload);
                assert_eq!(
                    wire.len(),
                    RECORD_HEADER_LEN + suite.ciphertext_len(len),
                    "suite {suite:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn bidirectional_keys_differ() {
        let (mut client, mut server) = pair(CipherSuite::Aead);
        let c_wire = client.seal_payload(ContentType::ApplicationData, b"same");
        let s_wire = server.seal_payload(ContentType::ApplicationData, b"same");
        assert_ne!(c_wire, s_wire, "directions must not share keystream");
    }

    #[test]
    fn fragmented_payload_reassembles() {
        let (mut client, mut server) = pair(CipherSuite::Aead);
        let big = vec![0xabu8; (1 << 14) + 5000];
        let wire = client.seal_payload(ContentType::ApplicationData, &big);
        server.feed(&wire);
        let records = server.drain_records().unwrap();
        assert_eq!(records.len(), 2);
        let total: Vec<u8> = records.into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(total, big);
    }

    #[test]
    fn partial_feed_waits() {
        let (mut client, mut server) = pair(CipherSuite::Aead);
        let wire = client.seal_payload(ContentType::ApplicationData, b"split across segments");
        server.feed(&wire[..3]);
        assert_eq!(server.next_record().unwrap(), None);
        server.feed(&wire[3..10]);
        assert_eq!(server.next_record().unwrap(), None);
        server.feed(&wire[10..]);
        let (_, plain) = server.next_record().unwrap().unwrap();
        assert_eq!(plain, b"split across segments");
    }

    #[test]
    fn reordered_records_fail_auth() {
        let (mut client, mut server) = pair(CipherSuite::Aead);
        let first = client.seal_payload(ContentType::ApplicationData, b"first");
        let second = client.seal_payload(ContentType::ApplicationData, b"second");
        server.feed(&second);
        server.feed(&first);
        assert_eq!(server.next_record(), Err(TlsError::BadRecord));
    }

    #[test]
    fn tampered_record_fails_both_suites() {
        for suite in [CipherSuite::Aead, CipherSuite::Cbc] {
            let (mut client, mut server) = pair(suite);
            let mut wire = client.seal_payload(ContentType::ApplicationData, b"payload bytes");
            let idx = wire.len() - 3;
            wire[idx] ^= 0x40;
            server.feed(&wire);
            assert_eq!(server.next_record(), Err(TlsError::BadRecord), "{suite:?}");
        }
    }

    #[test]
    fn garbage_header_is_desync() {
        let (_, mut server) = pair(CipherSuite::Aead);
        server.feed(&[0xff, 0xff, 0xff, 0xff, 0xff, 0x00]);
        assert_eq!(server.next_record(), Err(TlsError::Desync));
    }

    #[test]
    fn interleaved_conversation() {
        let (mut client, mut server) = pair(CipherSuite::Cbc);
        for i in 0..20 {
            let msg = format!("message number {i}");
            let wire = client.seal_payload(ContentType::ApplicationData, msg.as_bytes());
            server.feed(&wire);
            let (_, plain) = server.next_record().unwrap().unwrap();
            assert_eq!(plain, msg.as_bytes());
            let reply = format!("ack {i}");
            let wire = server.seal_payload(ContentType::ApplicationData, reply.as_bytes());
            client.feed(&wire);
            let (_, plain) = client.next_record().unwrap().unwrap();
            assert_eq!(plain, reply.as_bytes());
        }
    }

    #[test]
    fn telemetry_counts_records_and_bytes() {
        let (mut client, mut server) = pair(CipherSuite::Aead);
        let reg = Registry::new();
        client.set_telemetry(EngineTelemetry::register(&reg, "client"));
        server.set_telemetry(EngineTelemetry::register(&reg, "server"));
        // One small record plus a two-fragment payload.
        let small = client.seal_payload(ContentType::ApplicationData, b"hi");
        let big_payload = vec![0x5a; (1 << 14) + 100];
        let big = client.seal_payload(ContentType::ApplicationData, &big_payload);
        server.feed(&small);
        server.feed(&big);
        let records = server.drain_records().unwrap();
        assert_eq!(records.len(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["tls.client.records_sealed"], 3);
        assert_eq!(
            snap.counters["tls.client.bytes_sealed"],
            2 + big_payload.len() as u64
        );
        assert_eq!(snap.counters["tls.server.records_opened"], 3);
        assert_eq!(
            snap.counters["tls.server.bytes_opened"],
            2 + big_payload.len() as u64
        );
        // The server sealed nothing.
        assert_eq!(snap.counters["tls.server.records_sealed"], 0);
    }

    #[test]
    fn reused_buffers_match_fresh_allocations() {
        for suite in [CipherSuite::Aead, CipherSuite::Cbc] {
            let (mut fresh_tx, mut fresh_rx) = pair(suite);
            let (mut reuse_tx, mut reuse_rx) = pair(suite);
            // Start the reused buffers poisoned so stale bytes would show.
            let mut wire = vec![0xa5u8; 97];
            let mut plain = vec![0xa5u8; 41];
            for i in 0..12usize {
                let payload: Vec<u8> = (0..i * 157 + 1).map(|b| (b ^ i) as u8).collect();
                let fresh_wire = fresh_tx.seal_payload(ContentType::ApplicationData, &payload);
                wire.clear();
                reuse_tx.seal_payload_into(ContentType::ApplicationData, &payload, &mut wire);
                assert_eq!(wire, fresh_wire, "suite {suite:?} iter {i}");
                fresh_rx.feed(&fresh_wire);
                reuse_rx.feed(&wire);
                let (_, fresh_plain) = fresh_rx.next_record().unwrap().unwrap();
                let ct = reuse_rx.next_record_into(&mut plain).unwrap().unwrap();
                assert_eq!(ct, ContentType::ApplicationData);
                assert_eq!(plain, fresh_plain, "suite {suite:?} iter {i}");
            }
        }
    }

    #[test]
    fn ciphertext_is_not_plaintext() {
        let (mut client, _) = pair(CipherSuite::Aead);
        let payload = b"THE-CHOICE-IS-SUGAR-PUFFS".repeat(4);
        let wire = client.seal_payload(ContentType::ApplicationData, &payload);
        assert!(
            !wire.windows(8).any(|w| w == &payload[..8]),
            "plaintext leaked into the wire bytes"
        );
    }
}
