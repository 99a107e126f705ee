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
use wm_core::IntervalClassifier;
use wm_fleet::{decode_frame, encode_frame, FrameError, RemoteError, Reply, Request, MAX_FRAME};
use wm_online::{OnlineConfig, OnlineDecoder};
use wm_story::bandersnatch::tiny_film;

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

/// One encoded frame per request/reply shape the protocol can carry.
fn sample_frames() -> Vec<Vec<u8>> {
    let requests = vec![
        Request::Init {
            shard: 3,
            cfg: OnlineConfig::scaled(20),
            classifier: classifier(),
            graph: Arc::new(tiny_film()),
        },
        Request::Restore(vec![0xDE, 0xAD, 0xBE, 0xEF]),
        Request::Feed {
            time: SimTime(1_234_567),
            victim: 42,
            max_victims: 256,
            frame: vec![0x17; 64],
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
        Request::Adopt(sample_record(7)),
        Request::Shutdown,
    ];
    let replies = vec![
        Reply::Ok,
        Reply::Verdicts {
            verdicts: Vec::new(),
            live: vec![1, 9],
            state_bytes: 4_096,
        },
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
