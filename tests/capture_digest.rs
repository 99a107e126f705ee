//! Pinned capture digest.
//!
//! One FNV-1a digest over everything a small fixed slice of sessions
//! leaves behind: the pcap image, the record labels, the server's
//! state log and the player's ground truth. The golden trace pins only
//! record lengths and `determinism.rs` only compares two runs of one
//! build, so neither notices a payload byte, a frame header or a
//! timestamp that a rewrite of the TCP, tap or HTTP data path moves.
//! This test does: the digest was computed once and must never change
//! unless the simulated bytes are meant to change (say why in the PR).
//!
//! The slice covers several Table I conditions and platforms, both
//! cipher-suite families, a splitting and a padding defense, and a
//! chaos plan whose reset, blackout and tap gap exercise
//! retransmission, reassembly trimming and a second TCP flow.

use std::sync::Arc;
use white_mirror::net::time::{Duration, SimTime};
use white_mirror::player::profile::{Browser, DeviceForm, Os};
use white_mirror::prelude::*;

/// The digest of the slice below; see the module docs before changing it.
const PINNED: u64 = 0x5944_9da7_d457_0795;

/// 64-bit FNV-1a, streamed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so adjacent fields cannot alias.
    fn field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }
}

fn conditions(connection: ConnectionType, time: TimeOfDay) -> LinkConditions {
    LinkConditions::new(connection, time)
}

/// The fixed slice: eight sessions, each a different corner.
fn slice(graph: &Arc<StoryGraph>) -> Vec<SessionConfig> {
    let base = |seed: u64| {
        let mut cfg = SessionConfig::fast(graph.clone(), seed, ViewerScript::sample(seed, 14, 0.5));
        cfg.player.time_scale = 40;
        cfg
    };
    let mut out = Vec::new();

    // 1. The paper's primary condition, undefended AEAD.
    out.push(base(16_001));

    // 2–3. Wireless at night and wired at noon, on other platforms.
    let mut c = base(16_002);
    c.conditions = conditions(ConnectionType::Wireless, TimeOfDay::Night);
    c.profile = Profile::new(Os::Windows, Browser::Chrome, DeviceForm::Laptop);
    out.push(c);
    let mut c = base(16_003);
    c.conditions = conditions(ConnectionType::Wired, TimeOfDay::Noon);
    c.profile = Profile::new(Os::MacOs, Browser::Chrome, DeviceForm::Desktop);
    out.push(c);

    // 4. The CBC suite on a wireless morning.
    let mut c = base(16_004);
    c.suite = CipherSuite::Cbc;
    c.conditions = conditions(ConnectionType::Wireless, TimeOfDay::Morning);
    out.push(c);

    // 5. Record splitting.
    let mut c = base(16_005);
    c.defense = Defense::Split { max: 700 };
    out.push(c);

    // 6. Padding with dummy posts, CBC.
    let mut c = base(16_006);
    c.defense = Defense::PadWithDummies { size: 3_000 };
    c.suite = CipherSuite::Cbc;
    out.push(c);

    // 7. Chaos: a blackout (retransmits), a reset (second flow, TLS
    //    resumption) and a tap gap, on a lossy wireless night.
    let mut c = base(16_007);
    c.conditions = conditions(ConnectionType::Wireless, TimeOfDay::Night);
    let mut plan = FaultPlan::none();
    plan.push(
        SimTime(2_000_000),
        FaultKind::Blackout {
            duration: Duration::from_millis(900),
        },
    )
    .push(SimTime(5_000_000), FaultKind::ConnectionReset)
    .push(
        SimTime(7_000_000),
        FaultKind::TapGap {
            duration: Duration::from_millis(400),
        },
    )
    .push(SimTime(9_000_000), FaultKind::DuplicateStatePost);
    c.chaos = plan;
    out.push(c);

    // 8. Another wired condition with a default-heavy viewer.
    let mut c = base(16_008);
    c.script = ViewerScript::sample(16_008, 14, 0.1);
    c.conditions = conditions(ConnectionType::Wired, TimeOfDay::Night);
    out.push(c);

    out
}

fn digest(outputs: &[SessionOutput]) -> u64 {
    let mut h = Fnv::new();
    for out in outputs {
        h.field(&out.trace.to_pcap_bytes());
        h.field(format!("{:?}", out.labels).as_bytes());
        h.field(format!("{:?}", out.server_log).as_bytes());
        h.field(format!("{:?}", out.truth).as_bytes());
    }
    h.0
}

#[test]
fn capture_digest_is_pinned() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let outputs: Vec<SessionOutput> = slice(&graph)
        .iter()
        .map(|cfg| run_session(cfg).expect("slice session completes"))
        .collect();

    // The slice must really reach the corners it claims to cover.
    let chaos = &outputs[6];
    assert_eq!(chaos.stats.reconnects, 1, "reset recovered by resumption");
    assert!(chaos.stats.client_tcp.retransmissions + chaos.stats.server_tcp.retransmissions > 0);
    assert!(chaos.stats.tap_frames_dropped > 0, "tap gap was blind");

    assert_eq!(
        digest(&outputs),
        PINNED,
        "simulated bytes moved: capture, labels, server log or truth differ"
    );
}
