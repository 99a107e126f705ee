//! Byte-level hostility sweep over the process-shard IPC protocol,
//! mirroring the checkpoint truncation proptests: every prefix of
//! every frame must decode to a typed [`FrameError`], every mutated
//! frame must parse to a typed error or a valid message, and a live
//! worker process fed garbage must reply with a typed `Err` and exit —
//! never panic, never hang.

use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_core::provenance::{ChoiceProvenance, ConfidenceTier, ProvenanceRecord, RecordRole};
use wm_core::{DecodedChoice, IntervalClassifier};
use wm_fleet::{decode_frame, encode_frame, FrameError, RemoteError, Reply, Request, MAX_FRAME};
use wm_online::checkpoint::write_graph;
use wm_online::{graph_fingerprint, Blob, OnlineConfig, OnlineDecoder, OnlineVerdict};
use wm_story::bandersnatch::{bandersnatch, tiny_film};
use wm_story::{Choice, ChoicePointId, StoryGraph};

fn classifier() -> IntervalClassifier {
    IntervalClassifier {
        type1: (10, 20),
        type2: (30, 40),
        slack: 2,
    }
}

/// One victim's framed checkpoint record, as `Drained`/`Adopt` carry it.
fn sample_record(victim: u32) -> Vec<u8> {
    let mut dec = OnlineDecoder::new(
        classifier(),
        Arc::new(tiny_film()),
        OnlineConfig::scaled(20),
    );
    let mut record = Vec::new();
    dec.checkpoint_record(victim, SimTime(88), &mut record);
    record
}

fn init(graph: StoryGraph) -> Request<'static> {
    Request::Init {
        shard: 3,
        cfg: OnlineConfig::scaled(20),
        classifier: classifier(),
        graph: Arc::new(graph),
    }
}

fn sample_verdict() -> OnlineVerdict {
    OnlineVerdict {
        index: 3,
        choice: DecodedChoice {
            cp: ChoicePointId(2),
            choice: Choice::NonDefault,
            time: SimTime(1_234_567),
            observed: true,
            // No short decimal form: the bit-pattern transport must
            // reproduce it exactly.
            confidence: 0.1 + 0.7 * 0.3,
        },
        provenance: ChoiceProvenance {
            records: vec![ProvenanceRecord {
                index: 41,
                time: SimTime(1_230_000),
                length: 2_215,
                role: RecordRole::Type1Report,
            }],
            tier: ConfidenceTier::Observed,
            near_gap: true,
        },
    }
}

fn sample_verdicts() -> Reply {
    let mut blind = sample_verdict();
    blind.index = 4;
    blind.provenance.records.clear();
    blind.provenance.tier = ConfidenceTier::Blind;
    Reply::Verdicts {
        verdicts: vec![(9, sample_verdict()), (9, blind)],
        live: vec![1, 9],
        state_bytes: 4_096,
    }
}

/// The encoded frame's payload.
fn payload_of(encode: impl FnOnce(&mut Vec<u8>)) -> (u8, Vec<u8>) {
    let mut buf = Vec::new();
    encode(&mut buf);
    let frame = decode_frame(&buf).unwrap();
    (frame.opcode, frame.payload.to_vec())
}

/// One encoded frame per request/reply shape the protocol can carry.
fn sample_frames() -> Vec<Vec<u8>> {
    let record = sample_record(7);
    let requests = vec![
        init(tiny_film()),
        Request::Restore(&[0xDE, 0xAD, 0xBE, 0xEF]),
        Request::Feed {
            time: SimTime(1_234_567),
            victim: 42,
            max_victims: 256,
            frame: &[0x17; 64],
        },
        Request::Checkpoint {
            taken: SimTime(9_999),
        },
        Request::EvictIdle {
            now: SimTime(50_000),
            idle: Duration::from_micros(10_000),
        },
        Request::FinishAll,
        Request::Drain(vec![1, 2, 3, 40_000]),
        Request::Adopt(&record),
        Request::Shutdown,
    ];
    let replies = vec![
        Reply::Ok,
        sample_verdicts(),
        Reply::Blob(vec![0x00, 0xFF, 0x7F]),
        Reply::Drained(vec![(5, SimTime(88), sample_record(5))]),
        Reply::Err(RemoteError::Victim(19)),
        Reply::Err(RemoteError::Envelope),
        Reply::Err(RemoteError::Internal),
    ];
    let mut frames = Vec::new();
    for req in &requests {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        frames.push(buf);
    }
    for reply in &replies {
        let mut buf = Vec::new();
        reply.encode(&mut buf);
        frames.push(buf);
    }
    frames
}

#[test]
fn every_prefix_of_every_frame_is_a_typed_incomplete() {
    for (i, frame) in sample_frames().iter().enumerate() {
        // The full frame is valid and self-delimiting.
        let decoded = decode_frame(frame).unwrap_or_else(|e| panic!("frame {i}: {e}"));
        assert_eq!(decoded.consumed, frame.len(), "frame {i}");
        // Every strict prefix reports exactly how many bytes are
        // missing — the contract a stream reader resumes on.
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(FrameError::Incomplete { need }) => {
                    let expect = if cut < 4 { 4 - cut } else { frame.len() - cut };
                    assert_eq!(need, expect, "frame {i} prefix {cut}");
                }
                other => panic!("frame {i} prefix {cut}: {other:?}"),
            }
        }
    }
}

#[test]
fn hostile_lengths_and_opcodes_are_typed_never_panics() {
    // Zero length: a frame must carry at least its opcode.
    let mut zero = Vec::new();
    zero.extend_from_slice(&0u32.to_le_bytes());
    zero.push(0x01);
    assert_eq!(decode_frame(&zero), Err(FrameError::Empty));
    // Length beyond the cap is rejected before any allocation.
    for len in [MAX_FRAME + 1, u32::MAX] {
        let mut huge = Vec::new();
        huge.extend_from_slice(&len.to_le_bytes());
        huge.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_frame(&huge), Err(FrameError::Oversize { len }));
    }
    // Every possible opcode over an empty payload: parses to a valid
    // message or a typed error, never a panic.
    for opcode in 0u16..=255 {
        let opcode = opcode as u8;
        let mut buf = Vec::new();
        encode_frame(opcode, &[], &mut buf);
        let frame = decode_frame(&buf).unwrap();
        let _ = Request::parse(frame.opcode, frame.payload);
        let _ = Reply::parse(frame.opcode, frame.payload);
    }
}

#[test]
fn truncated_and_corrupted_payloads_parse_to_typed_errors() {
    for (i, frame) in sample_frames().iter().enumerate() {
        let full = decode_frame(frame).unwrap();
        let opcode = full.opcode;
        // Truncate the payload at every boundary, re-sealing the
        // header so the damage reaches the typed parser, not the
        // framing layer.
        for cut in 0..full.payload.len() {
            let mut buf = Vec::new();
            encode_frame(opcode, &full.payload[..cut], &mut buf);
            let frame = decode_frame(&buf).unwrap();
            let _ = Request::parse(frame.opcode, frame.payload);
            let _ = Reply::parse(frame.opcode, frame.payload);
        }
        // Flip one byte at every payload position.
        for pos in 0..full.payload.len() {
            let mut payload = full.payload.to_vec();
            payload[pos] ^= 0xFF;
            let mut buf = Vec::new();
            encode_frame(opcode, &payload, &mut buf);
            let frame = decode_frame(&buf).unwrap();
            let _ = Request::parse(frame.opcode, frame.payload);
            let _ = Reply::parse(frame.opcode, frame.payload);
        }
        // Unknown opcode over a valid payload stays typed.
        let mut buf = Vec::new();
        encode_frame(0xEE, full.payload, &mut buf);
        let frame = decode_frame(&buf).unwrap();
        assert!(
            matches!(
                Request::parse(frame.opcode, frame.payload),
                Err(FrameError::UnknownOpcode(0xEE))
            ),
            "frame {i}: request parser must type unknown opcodes"
        );
        assert!(
            matches!(
                Reply::parse(frame.opcode, frame.payload),
                Err(FrameError::UnknownOpcode(0xEE))
            ),
            "frame {i}: reply parser must type unknown opcodes"
        );
    }
}

/// The full payload parses; every strict prefix, and the payload with
/// trailing bytes, is a typed `Malformed(what)`.
fn assert_payload_is_exact(
    what: &'static str,
    (op, payload): (u8, Vec<u8>),
    parse: fn(u8, &[u8]) -> Option<FrameError>,
) {
    assert_eq!(parse(op, &payload), None, "{what}: the full payload parses");
    for cut in 0..payload.len() {
        assert_eq!(
            parse(op, &payload[..cut]),
            Some(FrameError::Malformed(what)),
            "{what} prefix {cut}"
        );
    }
    for extra in [&[0u8][..], &[0xFF; 9]] {
        let mut long = payload.clone();
        long.extend_from_slice(extra);
        assert_eq!(
            parse(op, &long),
            Some(FrameError::Malformed(what)),
            "{what} + {} trailing bytes",
            extra.len()
        );
    }
}

#[test]
fn init_and_verdicts_payloads_reject_every_prefix_and_trailing_bytes() {
    assert_payload_is_exact(
        "init",
        payload_of(|buf| init(tiny_film()).encode(buf)),
        |op, payload| Request::parse(op, payload).err(),
    );
    assert_payload_is_exact(
        "verdicts",
        payload_of(|buf| sample_verdicts().encode(buf)),
        |op, payload| Reply::parse(op, payload).err(),
    );
}

#[test]
fn hostile_verdict_counts_are_rejected_without_allocating() {
    // A count read from the wire never sizes an allocation: a parser
    // that reserved u32::MAX verdicts (or live victims) would abort
    // here instead of failing at the first missing item.
    let (op, _) = payload_of(|buf| sample_verdicts().encode(buf));
    let mut many_verdicts = u32::MAX.to_le_bytes().to_vec();
    many_verdicts.extend_from_slice(&[0; 12]);
    let mut many_live = 0u32.to_le_bytes().to_vec();
    many_live.extend_from_slice(&u32::MAX.to_le_bytes());
    many_live.extend_from_slice(&[0; 8]);
    for payload in [many_verdicts, many_live] {
        assert_eq!(payload.len(), 16);
        assert_eq!(
            Reply::parse(op, &payload).err(),
            Some(FrameError::Malformed("verdicts"))
        );
    }
}

#[test]
fn graph_codec_preserves_the_fingerprint() {
    for graph in [tiny_film(), bandersnatch()] {
        let fp = graph_fingerprint(&graph);
        let (op, payload) = payload_of(|buf| init(graph).encode(buf));
        match Request::parse(op, &payload) {
            Ok(Request::Init {
                shard,
                cfg,
                classifier: c,
                graph,
            }) => {
                assert_eq!(graph_fingerprint(&graph), fp);
                assert_eq!((shard, cfg), (3, OnlineConfig::scaled(20)));
                assert_eq!((c.type1, c.type2, c.slack), ((10, 20), (30, 40), 2));
            }
            other => panic!("init roundtrip: {other:?}"),
        }
    }
    // A topology that does not match the header's fingerprint is
    // rejected: the blob was sealed for a different film.
    let (op, payload) = payload_of(|buf| init(tiny_film()).encode(buf));
    let (_, topology) = Blob::parse_prefix(&payload).unwrap();
    let mut swapped = payload[..payload.len() - topology.len()].to_vec();
    write_graph(&bandersnatch(), &mut swapped);
    assert_eq!(
        Request::parse(op, &swapped).err(),
        Some(FrameError::Malformed("init"))
    );
}

#[test]
fn verdict_codec_roundtrips_exactly() {
    let reply = sample_verdicts();
    let (op, payload) = payload_of(|buf| reply.encode(buf));
    let back = Reply::parse(op, &payload).unwrap();
    match (&reply, &back) {
        (
            Reply::Verdicts {
                verdicts: v0,
                live: l0,
                state_bytes: s0,
            },
            Reply::Verdicts {
                verdicts,
                live,
                state_bytes,
            },
        ) => {
            assert_eq!((v0, l0, s0), (verdicts, live, state_bytes));
            let bits = |v: &[(u32, OnlineVerdict)]| v[0].1.choice.confidence.to_bits();
            assert_eq!(bits(v0), bits(verdicts));
        }
        other => panic!("verdicts roundtrip: {other:?}"),
    }
    assert_eq!(payload_of(|buf| back.encode(buf)).1, payload);
    // Layout offsets of the first verdict: count 0, victim 4, index 8,
    // cp 16, choice 18, time 19, observed 27, confidence 28, records
    // 36, record role 58, tier 59, near_gap 60.
    for (at, bad) in [(18, 7), (27, 2), (58, 3), (59, 9), (60, 2)] {
        let mut damaged = payload.clone();
        damaged[at] = bad;
        assert_eq!(
            Reply::parse(op, &damaged).err(),
            Some(FrameError::Malformed("verdicts")),
            "byte {at} = {bad}"
        );
    }
}

/// Feed a live worker process hostile bytes: it must answer with a
/// typed `Err` reply and exit nonzero — the supervisor's cue to
/// respawn — instead of hanging on a length it can never satisfy.
#[test]
fn worker_process_rejects_garbage_and_exits() {
    let hostile: Vec<(Vec<u8>, &str, bool)> = vec![
        // Oversize length field.
        (
            (MAX_FRAME + 1).to_le_bytes().to_vec(),
            "oversize header",
            true,
        ),
        // Zero-length frame.
        (0u32.to_le_bytes().to_vec(), "zero-length header", true),
        // Valid header, garbage opcode.
        (
            {
                let mut b = Vec::new();
                encode_frame(0x6B, &[1, 2, 3], &mut b);
                b
            },
            "unknown opcode",
            true,
        ),
        // Request before Init: a protocol-order violation the worker
        // answers with a typed Err, then keeps serving (it exits 0 on
        // the EOF that follows).
        (
            {
                let mut b = Vec::new();
                Request::FinishAll.encode(&mut b);
                b
            },
            "request before init",
            false,
        ),
    ];
    for (bytes, what, expect_nonzero) in hostile {
        let mut child = Command::new(env!("CARGO_BIN_EXE_shard_worker"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn shard_worker");
        // Safety net: a hung worker is a test failure, not a hung CI
        // lane.
        let pid = child.id();
        let reaper = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(30));
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        });
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(&bytes)
            .expect("write hostile bytes");
        drop(child.stdin.take());
        let mut out = Vec::new();
        child
            .stdout
            .as_mut()
            .unwrap()
            .read_to_end(&mut out)
            .expect("read reply");
        let status = child.wait().expect("wait worker");
        if expect_nonzero {
            assert!(
                !status.success(),
                "{what}: worker must exit nonzero so the supervisor respawns"
            );
        } else {
            assert!(status.success(), "{what}: worker must survive to EOF");
        }
        let frame = decode_frame(&out).unwrap_or_else(|e| panic!("{what}: unframed reply: {e}"));
        match Reply::parse(frame.opcode, frame.payload) {
            Ok(Reply::Err(_)) => {}
            other => panic!("{what}: expected a typed Err reply, got {other:?}"),
        }
        drop(reaper); // detached; the worker is already dead
    }
    // Clean EOF before any frame is a clean exit, not an error.
    let mut child = Command::new(env!("CARGO_BIN_EXE_shard_worker"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn shard_worker");
    drop(child.stdin.take());
    let status = child.wait().expect("wait worker");
    assert!(status.success(), "EOF before any frame must exit 0");
}
