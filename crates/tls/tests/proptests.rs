//! Property-based tests for the record layer.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_tls::conn::{RecordEngine, SessionKeys};
use wm_tls::observer::RecordObserver;
use wm_tls::record::{ContentType, MAX_FRAGMENT, RECORD_HEADER_LEN};
use wm_tls::suite::CipherSuite;

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
    fn suite(&mut self) -> CipherSuite {
        if self.below(2) == 0 {
            CipherSuite::Aead
        } else {
            CipherSuite::Cbc
        }
    }
}

fn keys(master: [u8; 32], suite: CipherSuite) -> SessionKeys {
    SessionKeys::derive(&master, suite)
}

/// Any payload sequence round-trips client → server, in order,
/// under both suites and arbitrary TCP-like re-chunking.
#[test]
fn stream_roundtrip() {
    for case in 0..150u64 {
        let mut rng = Rng(0x715_0000 + case);
        let k = keys(rng.array(), rng.suite());
        let n_payloads = 1 + rng.below(7);
        let payloads: Vec<Vec<u8>> = (0..n_payloads).map(|_| rng.bytes(511)).collect();
        let chunk = 1 + rng.below(699);
        let mut client = RecordEngine::client(&k);
        let mut server = RecordEngine::server(&k);
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend(client.seal_payload(ContentType::ApplicationData, p));
        }
        let mut received: Vec<Vec<u8>> = Vec::new();
        for piece in wire.chunks(chunk) {
            server.feed(piece);
            for (_, plain) in server.drain_records().expect("authentic") {
                received.push(plain);
            }
        }
        // Empty-payload records still arrive as empty messages.
        assert_eq!(received, payloads, "case {case}");
    }
}

/// The observer recovers exactly the record lengths the sender
/// produced, without keys, for any payload sizes and re-chunking.
#[test]
fn observer_sees_exact_lengths() {
    for case in 0..150u64 {
        let mut rng = Rng(0x715_1000 + case);
        let suite = rng.suite();
        let k = keys(rng.array(), suite);
        let n_sizes = 1 + rng.below(9);
        let sizes: Vec<usize> = (0..n_sizes).map(|_| rng.below(3000)).collect();
        let chunk = 1 + rng.below(899);
        let mut client = RecordEngine::client(&k);
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for &s in &sizes {
            expected.push(suite.ciphertext_len(s) as u16);
            wire.extend(client.seal_payload(ContentType::ApplicationData, &vec![0xaa; s]));
        }
        let mut obs = RecordObserver::new();
        let mut seen = Vec::new();
        for piece in wire.chunks(chunk) {
            seen.extend(obs.feed(piece).into_iter().map(|r| r.length));
        }
        assert!(!obs.is_desynced(), "case {case}");
        assert_eq!(seen, expected, "case {case}");
    }
}

/// Oversized payloads fragment into ≤ 2^14 plaintext records that
/// reassemble exactly.
#[test]
fn fragmentation_reassembles() {
    for case in 0..30u64 {
        let mut rng = Rng(0x715_3000 + case);
        let k = keys(rng.array(), CipherSuite::Aead);
        let extra = rng.below(5000);
        let mut client = RecordEngine::client(&k);
        let mut server = RecordEngine::server(&k);
        let payload = vec![0x42u8; MAX_FRAGMENT + extra];
        let wire = client.seal_payload(ContentType::ApplicationData, &payload);
        server.feed(&wire);
        let records = server.drain_records().expect("authentic");
        assert_eq!(records.len(), if extra == 0 { 1 } else { 2 }, "case {case}");
        let total: Vec<u8> = records.into_iter().flat_map(|(_, p)| p).collect();
        assert_eq!(total, payload, "case {case}");
    }
}

/// Corrupting any wire byte of a record makes the receiver reject
/// it (header corruption may desync instead — also an error).
#[test]
fn any_corruption_detected() {
    for case in 0..300u64 {
        let mut rng = Rng(0x715_4000 + case);
        let k = keys(rng.array(), rng.suite());
        let len = 1 + rng.below(299);
        let mut client = RecordEngine::client(&k);
        let mut server = RecordEngine::server(&k);
        let mut wire = client.seal_payload(ContentType::ApplicationData, &vec![7u8; len]);
        let i = rng.below(wire.len());
        wire[i] ^= 0x20;
        server.feed(&wire);
        // Either the record header desyncs, the body fails auth, or —
        // if the corrupted length field now describes a longer record —
        // the engine keeps waiting (no plaintext released).
        if let Ok(records) = server.drain_records() {
            assert!(records.is_empty(), "case {case}: corrupted record released");
        }
    }
}

/// Record headers on the wire always carry the protocol version and
/// a length consistent with the body (structural wire invariant).
#[test]
fn wire_structure() {
    for case in 0..200u64 {
        let mut rng = Rng(0x715_5000 + case);
        let k = keys(rng.array(), rng.suite());
        let len = rng.below(2000);
        let mut client = RecordEngine::client(&k);
        let wire = client.seal_payload(ContentType::ApplicationData, &vec![1u8; len]);
        assert_eq!(wire[0], 23, "case {case}"); // application_data
        assert_eq!((wire[1], wire[2]), (3, 3), "case {case}");
        let l = u16::from_be_bytes([wire[3], wire[4]]) as usize;
        assert_eq!(wire.len(), RECORD_HEADER_LEN + l, "case {case}");
    }
}

/// Fill a reused buffer's full capacity with a poison byte, then clear
/// it: stale poison stays in the spare capacity where a hygiene bug in
/// the `*_into` paths could resurface it.
fn poison(buf: &mut Vec<u8>, byte: u8) {
    buf.resize(buf.capacity().max(32), byte);
    for b in buf.iter_mut() {
        *b = byte;
    }
    buf.clear();
}

/// Buffer-reuse hygiene: sealing into a poisoned, reused wire buffer
/// and opening into a poisoned, reused plaintext buffer reproduces a
/// fresh-allocation engine pair byte for byte — across both suites,
/// payloads spanning the fragmentation boundary, and random delivery
/// chunking. A stale byte surviving reuse diverges from the oracle
/// (or fails authentication) immediately.
#[test]
fn reused_buffers_match_fresh_allocation_oracle() {
    const POISON: u8 = 0x5a;
    for case in 0..120u64 {
        let mut rng = Rng(0x9e_0000 + case);
        let k = keys(rng.array(), rng.suite());
        let mut client_reuse = RecordEngine::client(&k);
        let mut server_reuse = RecordEngine::server(&k);
        let mut client_fresh = RecordEngine::client(&k);
        let mut server_fresh = RecordEngine::server(&k);
        let mut wire = Vec::new();
        let mut plain = Vec::new();
        for round in 0..(1 + rng.below(8)) {
            // Up to 1.5 fragments, so some payloads split in two.
            let payload = rng.bytes(MAX_FRAGMENT + MAX_FRAGMENT / 2);
            poison(&mut wire, POISON);
            client_reuse.seal_payload_into(ContentType::ApplicationData, &payload, &mut wire);
            let oracle_wire = client_fresh.seal_payload(ContentType::ApplicationData, &payload);
            assert_eq!(
                wire, oracle_wire,
                "case {case} round {round}: wire diverged"
            );

            let chunk = 1 + rng.below(oracle_wire.len().max(1));
            for piece in oracle_wire.chunks(chunk) {
                server_reuse.feed(piece);
                server_fresh.feed(piece);
            }
            loop {
                poison(&mut plain, POISON);
                let got = server_reuse
                    .next_record_into(&mut plain)
                    .expect("reuse path opens");
                let oracle = server_fresh.next_record().expect("oracle opens");
                match (got, oracle) {
                    (Some(ct), Some((oracle_ct, oracle_plain))) => {
                        assert_eq!(ct, oracle_ct, "case {case} round {round}");
                        assert_eq!(
                            plain, oracle_plain,
                            "case {case} round {round}: plaintext diverged"
                        );
                    }
                    (None, None) => break,
                    other => panic!("case {case} round {round}: availability diverged: {other:?}"),
                }
            }
        }
    }
}
