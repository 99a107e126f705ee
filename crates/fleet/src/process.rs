//! Process-shard backend: host a shard in a child OS process so a
//! shard crash is an *event*, not a supervisor abort.
//!
//! The in-process backend shares an address space with the supervisor:
//! a decoder bug that panics takes the whole fleet down. The process
//! backend moves each shard behind a tiny length-prefixed stdin/stdout
//! protocol; a `kill -9` of the child (or the chaos plan's
//! `ProcessAbort` simulating one) surfaces as a broken pipe, which the
//! supervisor absorbs exactly like a simulated kill — respawn from the
//! last good checkpoint blob, loss window opened, verdict dedup
//! guaranteeing zero duplicates.
//!
//! ## Wire format
//!
//! Every frame is `[u32 LE length][u8 opcode][payload]` where `length`
//! counts the opcode byte plus the payload, and is capped at
//! [`MAX_FRAME`] (a damaged length prefix must not allocate the moon).
//! Decoding is a pure function over bytes ([`decode_frame`], then
//! [`Request::parse`] / [`Reply::parse`]) so the protocol is testable
//! byte-by-byte without spawning anything: every truncation or garbage
//! mutation yields a typed [`FrameError`], never a panic or a hang.
//!
//! Requests (supervisor → worker): `0x01` Init, `0x02` Restore, `0x03`
//! Feed, `0x04` Checkpoint, `0x05` EvictIdle, `0x06` FinishAll, `0x07`
//! Drain, `0x08` Adopt, `0x09` Shutdown. Replies (worker →
//! supervisor): `0x80` Ok, `0x81` Verdicts, `0x82` Blob, `0x83`
//! Drained, `0xFF` Err. Every payload is binary, built from the
//! primitives of [`wm_online::checkpoint`]: `Restore` and `Blob` carry
//! a sealed shard blob verbatim, `Drained` the drained victims' framed
//! records back to back, and `Adopt` one such record — the same bytes
//! a shard blob holds. `Init` is a sealed zero-record blob, whose
//! header carries the shard, config, classifier and graph
//! fingerprint, followed by the graph topology. `Verdicts` is one
//! field walk ([`Pass`]) over the verdicts, the live set and the state
//! bytes, so its encoder and decoder cannot drift. Feed, Checkpoint,
//! EvictIdle, Drain and Err are fixed little-endian layouts. Every
//! payload is byte-deterministic by construction.
//!
//! Each `Verdicts` reply carries the worker's *full* live-victim set
//! and resident state bytes, so the supervisor's routing cache is
//! self-healing: one reply after a respawn and the parent's picture of
//! the child is exact again.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_core::provenance::{ChoiceProvenance, ConfidenceTier, ProvenanceRecord, RecordRole};
use wm_core::DecodedChoice;
use wm_core::IntervalClassifier;
use wm_online::checkpoint::{
    flag, read_graph, seq, time, variant, write_graph, Pass, Reader, Step, Writer,
};
use wm_online::{
    graph_fingerprint, split_records, Blob, BlobHeader, BlobWriter, CheckpointError, OnlineConfig,
    OnlineVerdict,
};
use wm_story::{Choice, ChoicePointId, StoryGraph};

use crate::shard::{
    one_record, parse_envelope, ShardRestoreError, ShardRestoreErrorKind, ShardState, WorkerFault,
};

/// Hard cap on one frame's length field (opcode + payload), 64 MiB.
/// Far above any real shard checkpoint; a corrupt prefix claiming more
/// is rejected before any allocation.
pub const MAX_FRAME: u32 = 64 << 20;

// Request opcodes.
const OP_INIT: u8 = 0x01;
const OP_RESTORE: u8 = 0x02;
const OP_FEED: u8 = 0x03;
const OP_CHECKPOINT: u8 = 0x04;
const OP_EVICT_IDLE: u8 = 0x05;
const OP_FINISH_ALL: u8 = 0x06;
const OP_DRAIN: u8 = 0x07;
const OP_ADOPT: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;

// Reply opcodes.
const OP_OK: u8 = 0x80;
const OP_VERDICTS: u8 = 0x81;
const OP_BLOB: u8 = 0x82;
const OP_DRAINED: u8 = 0x83;
const OP_ERR: u8 = 0xFF;

// Err payload codes.
const ERR_ENVELOPE: u8 = 1;
const ERR_VICTIM: u8 = 2;
const ERR_INTERNAL: u8 = 3;

/// Why a byte sequence failed to decode as a protocol frame. Every
/// variant is a *typed* outcome — the decoder never panics and never
/// claims success on damaged input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends mid-frame; `need` more bytes would complete it.
    /// (A streaming reader treats this as "read more"; a complete
    /// message treated this way is truncation.)
    Incomplete { need: usize },
    /// The length prefix claims more than [`MAX_FRAME`] bytes.
    Oversize { len: u32 },
    /// The length prefix claims zero bytes — even an opcode is absent.
    Empty,
    /// The opcode byte is not part of the protocol.
    UnknownOpcode(u8),
    /// The opcode is known but its payload does not parse; names the
    /// field or layout that failed.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Incomplete { need } => write!(f, "frame truncated ({need} bytes short)"),
            FrameError::Oversize { len } => write!(f, "frame length {len} exceeds cap"),
            FrameError::Empty => write!(f, "frame length 0 (no opcode)"),
            FrameError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::Malformed(what) => write!(f, "malformed {what} payload"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: opcode, payload view, and how many input bytes
/// the frame spans (`4 + length`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    pub opcode: u8,
    pub payload: &'a [u8],
    pub consumed: usize,
}

/// Append one frame to `out`.
pub fn encode_frame(opcode: u8, payload: &[u8], out: &mut Vec<u8>) {
    let len = 1 + payload.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(opcode);
    out.extend_from_slice(payload);
}

/// Decode the frame at the front of `bytes`. Pure: no IO, no
/// allocation, total over arbitrary input.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame<'_>, FrameError> {
    if bytes.len() < 4 {
        return Err(FrameError::Incomplete {
            need: 4 - bytes.len(),
        });
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME {
        return Err(FrameError::Oversize { len });
    }
    let total = 4 + len as usize;
    if bytes.len() < total {
        return Err(FrameError::Incomplete {
            need: total - bytes.len(),
        });
    }
    Ok(Frame {
        opcode: bytes[4],
        payload: &bytes[5..total],
        consumed: total,
    })
}

// ---------------------------------------------------------------------
// typed request / reply layers

/// A parsed supervisor → worker request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Configure the worker's shard. Must precede everything else.
    Init {
        shard: u32,
        cfg: OnlineConfig,
        classifier: IntervalClassifier,
        graph: Arc<StoryGraph>,
    },
    /// Replace the shard state from a checkpoint blob.
    Restore(Vec<u8>),
    /// Route one captured frame to a victim's decoder.
    Feed {
        time: SimTime,
        victim: u32,
        max_victims: u32,
        frame: Vec<u8>,
    },
    /// Serialize the whole shard to a checkpoint blob.
    Checkpoint { taken: SimTime },
    /// Evict victims idle past the horizon.
    EvictIdle { now: SimTime, idle: Duration },
    /// Finish every decoder (end of input).
    FinishAll,
    /// Pull the listed victims out as migration units.
    Drain(Vec<u32>),
    /// Install one migrated victim from its framed record.
    Adopt(Vec<u8>),
    /// Exit cleanly.
    Shutdown,
}

fn u64_at(payload: &[u8], off: usize, what: &'static str) -> Result<u64, FrameError> {
    let bytes: [u8; 8] = payload
        .get(off..off + 8)
        .and_then(|s| s.try_into().ok())
        .ok_or(FrameError::Malformed(what))?;
    Ok(u64::from_le_bytes(bytes))
}

fn u32_at(payload: &[u8], off: usize, what: &'static str) -> Result<u32, FrameError> {
    let bytes: [u8; 4] = payload
        .get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or(FrameError::Malformed(what))?;
    Ok(u32::from_le_bytes(bytes))
}

impl Request {
    /// Parse a request from a decoded frame's opcode and payload.
    pub fn parse(opcode: u8, payload: &[u8]) -> Result<Request, FrameError> {
        match opcode {
            OP_INIT => {
                let init = || -> Result<Request, CheckpointError> {
                    let (blob, topology) = Blob::parse_prefix(payload)?;
                    let graph = read_graph(topology)?;
                    blob.header.check_graph(&graph)?;
                    if !blob.records.is_empty() {
                        return Err(CheckpointError::Malformed("records"));
                    }
                    Ok(Request::Init {
                        shard: blob.header.shard,
                        cfg: blob.header.cfg,
                        classifier: blob.header.classifier,
                        graph: Arc::new(graph),
                    })
                };
                init().map_err(|_| FrameError::Malformed("init"))
            }
            OP_RESTORE => Ok(Request::Restore(payload.to_vec())),
            OP_FEED => {
                let time = SimTime(u64_at(payload, 0, "feed")?);
                let victim = u32_at(payload, 8, "feed")?;
                let max_victims = u32_at(payload, 12, "feed")?;
                Ok(Request::Feed {
                    time,
                    victim,
                    max_victims,
                    frame: payload[16..].to_vec(),
                })
            }
            OP_CHECKPOINT => Ok(Request::Checkpoint {
                taken: SimTime(u64_at(payload, 0, "checkpoint")?),
            }),
            OP_EVICT_IDLE => Ok(Request::EvictIdle {
                now: SimTime(u64_at(payload, 0, "evict")?),
                idle: Duration(u64_at(payload, 8, "evict")?),
            }),
            OP_FINISH_ALL => Ok(Request::FinishAll),
            OP_DRAIN => {
                let n = u32_at(payload, 0, "drain")? as usize;
                if payload.len() != 4 + n * 4 {
                    return Err(FrameError::Malformed("drain"));
                }
                let victims = (0..n)
                    .map(|i| u32_at(payload, 4 + i * 4, "drain"))
                    .collect::<Result<Vec<u32>, FrameError>>()?;
                Ok(Request::Drain(victims))
            }
            OP_ADOPT => {
                one_record(payload).map_err(|_| FrameError::Malformed("adopt"))?;
                Ok(Request::Adopt(payload.to_vec()))
            }
            OP_SHUTDOWN => Ok(Request::Shutdown),
            other => Err(FrameError::UnknownOpcode(other)),
        }
    }

    /// Serialize this request into a frame appended to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Init {
                shard,
                cfg,
                classifier,
                graph,
            } => {
                let header = BlobHeader {
                    shard: *shard,
                    taken: SimTime::ZERO,
                    graph_fp: graph_fingerprint(graph),
                    cfg: cfg.clone(),
                    classifier: classifier.clone(),
                };
                let mut payload = BlobWriter::new(&header).finish();
                write_graph(graph, &mut payload);
                encode_frame(OP_INIT, &payload, out);
            }
            Request::Restore(blob) => encode_frame(OP_RESTORE, blob, out),
            Request::Feed {
                time,
                victim,
                max_victims,
                frame,
            } => {
                let mut payload = Vec::with_capacity(16 + frame.len());
                payload.extend_from_slice(&time.micros().to_le_bytes());
                payload.extend_from_slice(&victim.to_le_bytes());
                payload.extend_from_slice(&max_victims.to_le_bytes());
                payload.extend_from_slice(frame);
                encode_frame(OP_FEED, &payload, out);
            }
            Request::Checkpoint { taken } => {
                encode_frame(OP_CHECKPOINT, &taken.micros().to_le_bytes(), out)
            }
            Request::EvictIdle { now, idle } => {
                let mut payload = [0u8; 16];
                payload[..8].copy_from_slice(&now.micros().to_le_bytes());
                payload[8..].copy_from_slice(&idle.micros().to_le_bytes());
                encode_frame(OP_EVICT_IDLE, &payload, out);
            }
            Request::FinishAll => encode_frame(OP_FINISH_ALL, &[], out),
            Request::Drain(victims) => {
                let mut payload = Vec::with_capacity(4 + victims.len() * 4);
                payload.extend_from_slice(&(victims.len() as u32).to_le_bytes());
                for v in victims {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
                encode_frame(OP_DRAIN, &payload, out);
            }
            Request::Adopt(record) => encode_frame(OP_ADOPT, record, out),
            Request::Shutdown => encode_frame(OP_SHUTDOWN, &[], out),
        }
    }
}

/// A typed remote failure carried in an `Err` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteError {
    /// A restore blob's envelope was rejected.
    Envelope,
    /// A victim's embedded checkpoint was rejected; carries the victim.
    Victim(u32),
    /// The worker refused the request (wrong state, e.g. Feed before
    /// Init) or hit an untyped internal failure.
    Internal,
}

/// A parsed worker → supervisor reply.
#[derive(Debug, Clone)]
pub enum Reply {
    Ok,
    /// Verdict batch plus the worker's full live-victim set and
    /// resident state bytes (the supervisor's cache is overwritten,
    /// never incrementally patched — self-healing after respawn).
    Verdicts {
        verdicts: Vec<(u32, OnlineVerdict)>,
        live: Vec<u32>,
        state_bytes: u64,
    },
    /// A checkpoint blob, verbatim.
    Blob(Vec<u8>),
    /// Drained migration units `(victim, last_seen, framed record)`.
    Drained(Vec<(u32, SimTime, Vec<u8>)>),
    Err(RemoteError),
}

impl Reply {
    /// Parse a reply from a decoded frame's opcode and payload.
    pub fn parse(opcode: u8, payload: &[u8]) -> Result<Reply, FrameError> {
        match opcode {
            OP_OK => Ok(Reply::Ok),
            OP_VERDICTS => {
                let (mut verdicts, mut live, mut state_bytes) = (Vec::new(), Vec::new(), 0);
                let mut r = Reader::new(payload, 0);
                verdicts_payload(&mut r, &mut verdicts, &mut live, &mut state_bytes)
                    .and_then(|()| r.end("verdicts"))
                    .map_err(|_| FrameError::Malformed("verdicts"))?;
                Ok(Reply::Verdicts {
                    verdicts,
                    live,
                    state_bytes,
                })
            }
            OP_BLOB => Ok(Reply::Blob(payload.to_vec())),
            OP_DRAINED => {
                let records =
                    split_records(payload, 0).map_err(|_| FrameError::Malformed("drained"))?;
                Ok(Reply::Drained(
                    records
                        .iter()
                        .map(|r| (r.victim, r.seen, r.bytes.to_vec()))
                        .collect(),
                ))
            }
            OP_ERR => {
                let code = *payload.first().ok_or(FrameError::Malformed("err"))?;
                let victim = u32_at(payload, 1, "err")?;
                Ok(Reply::Err(match code {
                    ERR_ENVELOPE => RemoteError::Envelope,
                    ERR_VICTIM => RemoteError::Victim(victim),
                    ERR_INTERNAL => RemoteError::Internal,
                    _ => return Err(FrameError::Malformed("err code")),
                }))
            }
            other => Err(FrameError::UnknownOpcode(other)),
        }
    }

    /// Serialize this reply into a frame appended to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Ok => encode_frame(OP_OK, &[], out),
            Reply::Verdicts {
                verdicts,
                live,
                state_bytes,
            } => {
                let mut payload = Vec::new();
                // The walk takes its fields mutably, so it walks copies;
                // the writer never fails.
                let _ = verdicts_payload(
                    &mut Writer(&mut payload),
                    &mut verdicts.clone(),
                    &mut live.clone(),
                    &mut state_bytes.clone(),
                );
                encode_frame(OP_VERDICTS, &payload, out);
            }
            Reply::Blob(blob) => encode_frame(OP_BLOB, blob, out),
            Reply::Drained(entries) => {
                let records: Vec<u8> = entries.iter().flat_map(|e| e.2.iter().copied()).collect();
                encode_frame(OP_DRAINED, &records, out);
            }
            Reply::Err(e) => {
                let (code, victim) = match e {
                    RemoteError::Envelope => (ERR_ENVELOPE, 0),
                    RemoteError::Victim(v) => (ERR_VICTIM, *v),
                    RemoteError::Internal => (ERR_INTERNAL, 0),
                };
                let mut payload = [0u8; 5];
                payload[0] = code;
                payload[1..].copy_from_slice(&victim.to_le_bytes());
                encode_frame(OP_ERR, &payload, out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Verdicts payload

const CHOICES: [Choice; 2] = [Choice::Default, Choice::NonDefault];
const ROLES: [RecordRole; 3] = [
    RecordRole::Anchor,
    RecordRole::Type1Report,
    RecordRole::Type2Report,
];
const TIERS: [ConfidenceTier; 3] = [
    ConfidenceTier::Observed,
    ConfidenceTier::Inferred,
    ConfidenceTier::Blind,
];

const BLANK_VERDICT: OnlineVerdict = OnlineVerdict {
    index: 0,
    choice: DecodedChoice {
        cp: ChoicePointId(0),
        choice: Choice::Default,
        time: SimTime::ZERO,
        observed: false,
        confidence: 0.0,
    },
    provenance: ChoiceProvenance {
        records: Vec::new(),
        tier: ConfidenceTier::Observed,
        near_gap: false,
    },
};

/// The `Verdicts` payload in one walk: count-prefixed `(victim,
/// verdict)` pairs, the count-prefixed live set, then the resident
/// state bytes.
fn verdicts_payload<'a, P: Pass<'a>>(
    p: &mut P,
    verdicts: &mut Vec<(u32, OnlineVerdict)>,
    live: &mut Vec<u32>,
    state_bytes: &mut u64,
) -> Step {
    seq(
        p,
        verdicts,
        (0, BLANK_VERDICT),
        "verdicts",
        |p, (victim, v)| {
            p.int(victim, "verdicts")?;
            verdict(p, v)
        },
    )?;
    seq(p, live, 0, "live", |p, victim| p.int(victim, "live"))?;
    p.int(state_bytes, "state_bytes")
}

/// One [`OnlineVerdict`]. The confidence is the only float in the
/// whole decode pipeline; it crosses the pipe as its IEEE-754 bit
/// pattern, so the round trip is exact.
fn verdict<'a, P: Pass<'a>>(p: &mut P, v: &mut OnlineVerdict) -> Step {
    let c = &mut v.choice;
    p.int(&mut v.index, "verdict")?;
    p.int(&mut c.cp.0, "verdict")?;
    variant(p, &mut c.choice, &CHOICES, "verdict choice")?;
    time(p, &mut c.time, "verdict")?;
    flag(p, &mut c.observed, "verdict")?;
    let mut bits = c.confidence.to_bits();
    p.int(&mut bits, "confidence")?;
    c.confidence = f64::from_bits(bits);
    let blank = ProvenanceRecord {
        index: 0,
        time: SimTime::ZERO,
        length: 0,
        role: RecordRole::Anchor,
    };
    seq(p, &mut v.provenance.records, blank, "provenance", |p, r| {
        let mut index = r.index as u64;
        p.int(&mut index, "provenance")?;
        r.index = usize::try_from(index).map_err(|_| CheckpointError::Malformed("provenance"))?;
        time(p, &mut r.time, "provenance")?;
        p.int(&mut r.length, "provenance")?;
        variant(p, &mut r.role, &ROLES, "provenance role")
    })?;
    variant(p, &mut v.provenance.tier, &TIERS, "tier")?;
    flag(p, &mut v.provenance.near_gap, "near_gap")
}

// ---------------------------------------------------------------------
// supervisor side: one child process per shard group

/// Resolve the shard-worker binary: explicit config path, then the
/// `WM_SHARD_WORKER` environment variable, then a `shard_worker`
/// binary next to (or one directory above) the current executable —
/// which is where cargo puts it relative to test and bench binaries.
pub fn resolve_worker(explicit: Option<&Path>) -> Option<PathBuf> {
    if let Some(p) = explicit {
        return Some(p.to_path_buf());
    }
    if let Some(p) = std::env::var_os("WM_SHARD_WORKER") {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join("shard_worker"), dir.join("../shard_worker")]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

/// Supervisor-side handle to one shard hosted in a child process.
///
/// Mirrors the [`ShardState`] surface, but every call can fail with a
/// [`WorkerFault`] — the child may have been `kill -9`'d between any
/// two frames. The handle keeps a cached live-victim set and state
/// size, refreshed wholesale from every `Verdicts` reply.
pub struct ProcessShard {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    shard: u32,
    live: BTreeSet<u32>,
    state_bytes: usize,
    buf: Vec<u8>,
}

impl ProcessShard {
    /// Spawn a worker and initialize it for `shard`.
    pub fn spawn(
        worker: &Path,
        shard: u32,
        classifier: &IntervalClassifier,
        graph: &Arc<StoryGraph>,
        cfg: &OnlineConfig,
    ) -> Result<Self, WorkerFault> {
        let mut child = Command::new(worker)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|_| WorkerFault::Spawn)?;
        let stdin = child.stdin.take().ok_or(WorkerFault::Spawn)?;
        let stdout = child.stdout.take().ok_or(WorkerFault::Spawn)?;
        let mut p = ProcessShard {
            child,
            stdin,
            stdout,
            shard,
            live: BTreeSet::new(),
            state_bytes: 0,
            buf: Vec::new(),
        };
        match p.call(&Request::Init {
            shard,
            cfg: cfg.clone(),
            classifier: classifier.clone(),
            graph: graph.clone(),
        })? {
            Reply::Ok => Ok(p),
            Reply::Err(_) => Err(WorkerFault::Remote),
            _ => Err(WorkerFault::Protocol),
        }
    }

    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The child's OS pid (tests `kill -9` it to prove absorption).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn live_victims(&self) -> impl Iterator<Item = u32> + '_ {
        self.live.iter().copied()
    }

    pub fn live_victim_count(&self) -> usize {
        self.live.len()
    }

    /// Resident decoder state as of the last `Verdicts` reply.
    pub fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    /// One request/reply exchange. Any transport failure — the write,
    /// the read, or undecodable reply bytes — is a [`WorkerFault`];
    /// the caller treats it like a crash and respawns.
    fn call(&mut self, req: &Request) -> Result<Reply, WorkerFault> {
        self.buf.clear();
        req.encode(&mut self.buf);
        let frame = std::mem::take(&mut self.buf);
        self.stdin.write_all(&frame).map_err(|_| WorkerFault::Io)?;
        self.stdin.flush().map_err(|_| WorkerFault::Io)?;
        self.buf = frame;
        let mut header = [0u8; 4];
        self.stdout
            .read_exact(&mut header)
            .map_err(|_| WorkerFault::Io)?;
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME {
            return Err(WorkerFault::Protocol);
        }
        let mut body = vec![0u8; len as usize];
        self.stdout
            .read_exact(&mut body)
            .map_err(|_| WorkerFault::Io)?;
        Reply::parse(body[0], &body[1..]).map_err(|_| WorkerFault::Protocol)
    }

    fn verdicts_reply(&mut self, req: &Request) -> Result<Vec<(u32, OnlineVerdict)>, WorkerFault> {
        match self.call(req)? {
            Reply::Verdicts {
                verdicts,
                live,
                state_bytes,
            } => {
                self.live = live.into_iter().collect();
                self.state_bytes = state_bytes as usize;
                Ok(verdicts)
            }
            Reply::Err(_) => Err(WorkerFault::Remote),
            _ => Err(WorkerFault::Protocol),
        }
    }

    /// See [`ShardState::feed`]; verdicts come back in the reply.
    pub fn feed(
        &mut self,
        victim: u32,
        time: SimTime,
        frame: &[u8],
        max_victims: usize,
    ) -> Result<Vec<(u32, OnlineVerdict)>, WorkerFault> {
        self.verdicts_reply(&Request::Feed {
            time,
            victim,
            max_victims: max_victims as u32,
            frame: frame.to_vec(),
        })
    }

    /// See [`ShardState::evict_idle`].
    pub fn evict_idle(
        &mut self,
        now: SimTime,
        idle: Duration,
    ) -> Result<Vec<(u32, OnlineVerdict)>, WorkerFault> {
        self.verdicts_reply(&Request::EvictIdle { now, idle })
    }

    /// See [`ShardState::finish_all`].
    pub fn finish_all(&mut self) -> Result<Vec<(u32, OnlineVerdict)>, WorkerFault> {
        self.verdicts_reply(&Request::FinishAll)
    }

    /// See [`ShardState::checkpoint`].
    pub fn checkpoint(&mut self, taken: SimTime) -> Result<Vec<u8>, WorkerFault> {
        match self.call(&Request::Checkpoint { taken })? {
            Reply::Blob(blob) => Ok(blob),
            Reply::Err(_) => Err(WorkerFault::Remote),
            _ => Err(WorkerFault::Protocol),
        }
    }

    /// Replace the worker's state from a checkpoint blob. Blob-level
    /// rejections come back typed and attributed to `slot`; transport
    /// failures surface as [`ShardRestoreErrorKind::Worker`].
    pub fn restore(&mut self, slot: u32, blob: &[u8]) -> Result<(), ShardRestoreError> {
        use wm_online::CheckpointError;
        let worker = |w: WorkerFault| ShardRestoreError {
            shard: slot,
            kind: ShardRestoreErrorKind::Worker(w),
        };
        match self
            .call(&Request::Restore(blob.to_vec()))
            .map_err(worker)?
        {
            Reply::Ok => {
                // Seed the parent-side live cache from the blob we just
                // handed over, so loss accounting after a post-restore
                // crash knows which victims were resident.
                let env = parse_envelope(slot, blob)?;
                self.live = env.records.iter().map(|r| r.victim).collect();
                Ok(())
            }
            Reply::Err(RemoteError::Envelope) => Err(ShardRestoreError {
                shard: slot,
                kind: ShardRestoreErrorKind::Envelope(CheckpointError::Malformed("remote")),
            }),
            Reply::Err(RemoteError::Victim(v)) => Err(ShardRestoreError {
                shard: slot,
                kind: ShardRestoreErrorKind::Victim(v, CheckpointError::Malformed("remote")),
            }),
            Reply::Err(RemoteError::Internal) => Err(worker(WorkerFault::Remote)),
            _ => Err(worker(WorkerFault::Protocol)),
        }
    }

    /// See [`ShardState::drain_victims`].
    pub fn drain_victims(
        &mut self,
        victims: &[u32],
    ) -> Result<Vec<(u32, SimTime, Vec<u8>)>, WorkerFault> {
        match self.call(&Request::Drain(victims.to_vec()))? {
            Reply::Drained(entries) => {
                for v in victims {
                    self.live.remove(v);
                }
                Ok(entries)
            }
            Reply::Err(_) => Err(WorkerFault::Remote),
            _ => Err(WorkerFault::Protocol),
        }
    }

    /// See [`ShardState::adopt_victim`]: `record` is `victim`'s framed
    /// record. `Ok(true)` means adopted; `Ok(false)` means the worker
    /// rejected the record (the victim will start cold) — the
    /// transport is fine either way.
    pub fn adopt(&mut self, victim: u32, record: &[u8]) -> Result<bool, WorkerFault> {
        match self.call(&Request::Adopt(record.to_vec()))? {
            Reply::Ok => {
                self.live.insert(victim);
                Ok(true)
            }
            Reply::Err(RemoteError::Victim(_)) => Ok(false),
            Reply::Err(_) => Err(WorkerFault::Remote),
            _ => Err(WorkerFault::Protocol),
        }
    }

    /// Hard-kill the child (`SIGKILL`), the supervisor-initiated form
    /// of the chaos plan's `ProcessAbort`.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessShard {
    fn drop(&mut self) {
        self.kill();
    }
}

// ---------------------------------------------------------------------
// worker side

struct WorkerState {
    classifier: IntervalClassifier,
    graph: Arc<StoryGraph>,
    cfg: OnlineConfig,
    state: ShardState,
}

fn handle(req: Request, worker: &mut Option<WorkerState>) -> Reply {
    match req {
        Request::Init {
            shard,
            cfg,
            classifier,
            graph,
        } => {
            *worker = Some(WorkerState {
                classifier: classifier.clone(),
                graph: graph.clone(),
                cfg: cfg.clone(),
                state: ShardState::new(shard, classifier, graph, cfg),
            });
            Reply::Ok
        }
        Request::Shutdown => Reply::Ok,
        other => {
            let Some(w) = worker.as_mut() else {
                return Reply::Err(RemoteError::Internal);
            };
            match other {
                Request::Restore(blob) => match ShardState::restore(
                    w.state.shard(),
                    &blob,
                    w.classifier.clone(),
                    w.graph.clone(),
                    w.cfg.clone(),
                ) {
                    Ok(state) => {
                        w.state = state;
                        Reply::Ok
                    }
                    Err(e) => Reply::Err(match e.kind {
                        ShardRestoreErrorKind::Envelope(_) => RemoteError::Envelope,
                        ShardRestoreErrorKind::Victim(v, _) => RemoteError::Victim(v),
                        ShardRestoreErrorKind::Worker(_) => RemoteError::Internal,
                    }),
                },
                Request::Feed {
                    time,
                    victim,
                    max_victims,
                    frame,
                } => {
                    let mut out = Vec::new();
                    w.state
                        .feed(victim, time, &frame, max_victims as usize, &mut out);
                    verdicts_of(&w.state, out)
                }
                Request::EvictIdle { now, idle } => {
                    let mut out = Vec::new();
                    w.state.evict_idle(now, idle, &mut out);
                    verdicts_of(&w.state, out)
                }
                Request::FinishAll => {
                    let mut out = Vec::new();
                    w.state.finish_all(&mut out);
                    verdicts_of(&w.state, out)
                }
                Request::Checkpoint { taken } => Reply::Blob(w.state.checkpoint(taken)),
                Request::Drain(victims) => Reply::Drained(w.state.drain_victims(&victims)),
                Request::Adopt(record) => match one_record(&record) {
                    Ok(rec) => match w.state.adopt_victim(&rec) {
                        Ok(()) => Reply::Ok,
                        Err(_) => Reply::Err(RemoteError::Victim(rec.victim)),
                    },
                    Err(_) => Reply::Err(RemoteError::Internal),
                },
                Request::Init { .. } | Request::Shutdown => unreachable!("handled above"),
            }
        }
    }
}

fn verdicts_of(state: &ShardState, verdicts: Vec<(u32, OnlineVerdict)>) -> Reply {
    Reply::Verdicts {
        verdicts,
        live: state.live_victims().collect(),
        state_bytes: state.state_bytes() as u64,
    }
}

/// The shard-worker process body: serve protocol frames on
/// stdin/stdout until EOF (clean supervisor exit), `Shutdown`, or a
/// protocol violation (reply `Err`, exit nonzero — the supervisor
/// respawns). Returns the process exit code.
pub fn shard_worker_main() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    let mut worker: Option<WorkerState> = None;
    let mut out = Vec::new();
    loop {
        let mut header = [0u8; 4];
        match input.read_exact(&mut header) {
            Ok(()) => {}
            // EOF between frames: the supervisor dropped the pipe.
            Err(_) => return 0,
        }
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME {
            return reply_and_exit(&mut output, Reply::Err(RemoteError::Internal));
        }
        let mut body = vec![0u8; len as usize];
        if input.read_exact(&mut body).is_err() {
            return 1;
        }
        let req = match Request::parse(body[0], &body[1..]) {
            Ok(req) => req,
            Err(_) => return reply_and_exit(&mut output, Reply::Err(RemoteError::Internal)),
        };
        let shutdown = matches!(req, Request::Shutdown);
        let reply = handle(req, &mut worker);
        out.clear();
        reply.encode(&mut out);
        if output.write_all(&out).is_err() || output.flush().is_err() {
            return 1;
        }
        if shutdown {
            return 0;
        }
    }
}

fn reply_and_exit(output: &mut impl Write, reply: Reply) -> i32 {
    let mut out = Vec::new();
    reply.encode(&mut out);
    let _ = output.write_all(&out);
    let _ = output.flush();
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_codec_roundtrips_and_reports_truncation() {
        let mut buf = Vec::new();
        encode_frame(OP_FEED, &[1, 2, 3], &mut buf);
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.opcode, OP_FEED);
        assert_eq!(frame.payload, &[1, 2, 3]);
        assert_eq!(frame.consumed, buf.len());
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                Err(FrameError::Incomplete { need }) => {
                    assert_eq!(need, if cut < 4 { 4 - cut } else { buf.len() - cut });
                }
                other => panic!("prefix {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn frame_decoder_rejects_hostile_lengths() {
        assert_eq!(decode_frame(&0u32.to_le_bytes()), Err(FrameError::Empty));
        assert_eq!(
            decode_frame(&u32::MAX.to_le_bytes()),
            Err(FrameError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn request_roundtrips_through_the_wire() {
        let reqs = vec![
            Request::Feed {
                time: SimTime(123_456),
                victim: 7,
                max_victims: 64,
                frame: vec![0xde, 0xad],
            },
            Request::Checkpoint {
                taken: SimTime(999),
            },
            Request::EvictIdle {
                now: SimTime(50),
                idle: Duration(10),
            },
            Request::Drain(vec![3, 1, 4]),
            Request::FinishAll,
            Request::Shutdown,
        ];
        for req in reqs {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            let frame = decode_frame(&buf).unwrap();
            let parsed = Request::parse(frame.opcode, frame.payload).unwrap();
            match (&req, &parsed) {
                (
                    Request::Feed {
                        time: t0,
                        victim: v0,
                        max_victims: m0,
                        frame: f0,
                    },
                    Request::Feed {
                        time,
                        victim,
                        max_victims,
                        frame,
                    },
                ) => {
                    assert_eq!((t0, v0, m0, f0), (time, victim, max_victims, frame));
                }
                (Request::Drain(a), Request::Drain(b)) => assert_eq!(a, b),
                (Request::Checkpoint { taken: a }, Request::Checkpoint { taken: b }) => {
                    assert_eq!(a, b)
                }
                (Request::EvictIdle { now: n0, idle: i0 }, Request::EvictIdle { now, idle }) => {
                    assert_eq!((n0, i0), (now, idle))
                }
                (Request::FinishAll, Request::FinishAll) => {}
                (Request::Shutdown, Request::Shutdown) => {}
                other => panic!("mismatched request roundtrip: {other:?}"),
            }
        }
    }

    #[test]
    fn err_reply_carries_the_victim() {
        let mut buf = Vec::new();
        Reply::Err(RemoteError::Victim(42)).encode(&mut buf);
        let frame = decode_frame(&buf).unwrap();
        match Reply::parse(frame.opcode, frame.payload).unwrap() {
            Reply::Err(RemoteError::Victim(42)) => {}
            other => panic!("{other:?}"),
        }
    }
}
