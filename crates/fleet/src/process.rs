//! The shard protocol: one [`Request`]/[`Reply`] interface for both
//! fleet backends, and the process backend that carries it over a
//! pipe, so a shard crash is an *event*, not a supervisor abort.
//!
//! ## One dispatch
//!
//! [`handle`] is the one function that applies a [`Request`] to a
//! [`ShardState`]. An in-process shard calls it directly, with no
//! bytes: `Feed`, `Restore` and `Adopt` borrow their bytes from the
//! caller, verdicts go straight into the caller's buffer, and a
//! `Verdicts` reply comes back empty ([`Reply::VERDICTS`]) because the
//! live set and state bytes are read off the shard itself. A process
//! shard ([`ProcessShard`]) encodes the same request into a frame,
//! writes it to a child worker ([`shard_worker_main`]) that parses it
//! and runs the same `handle`, then reads and parses the reply. Both
//! backends therefore decode identically by construction; only the
//! transport and the child's lifecycle differ.
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
//! Each `Verdicts` frame carries the worker's *full* live-victim set
//! and resident state bytes, so the supervisor's cache is
//! self-healing: one reply after a respawn and the parent's picture of
//! the child is exact again.

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

use crate::shard::{one_record, ShardRestoreErrorKind, ShardState, WorkerFault};

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

/// A supervisor → shard request. The byte-carrying requests borrow
/// their bytes: from the caller in process, from the frame in a worker.
#[derive(Debug, Clone)]
pub enum Request<'a> {
    /// Configure the worker's shard. Must precede everything else.
    Init {
        shard: u32,
        cfg: OnlineConfig,
        classifier: IntervalClassifier,
        graph: Arc<StoryGraph>,
    },
    /// Replace the shard state from a checkpoint blob.
    Restore(&'a [u8]),
    /// Route one captured frame to a victim's decoder.
    Feed {
        time: SimTime,
        victim: u32,
        max_victims: u32,
        frame: &'a [u8],
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
    Adopt(&'a [u8]),
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

impl<'a> Request<'a> {
    /// Parse a request from a decoded frame's opcode and payload.
    pub fn parse(opcode: u8, payload: &'a [u8]) -> Result<Request<'a>, FrameError> {
        match opcode {
            OP_INIT => {
                let init = || -> Result<Request<'a>, CheckpointError> {
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
            OP_RESTORE => Ok(Request::Restore(payload)),
            OP_FEED => {
                let time = SimTime(u64_at(payload, 0, "feed")?);
                let victim = u32_at(payload, 8, "feed")?;
                let max_victims = u32_at(payload, 12, "feed")?;
                Ok(Request::Feed {
                    time,
                    victim,
                    max_victims,
                    frame: &payload[16..],
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
                Ok(Request::Adopt(payload))
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
    /// A `Verdicts` reply with its fields consumed, as [`handle`] and
    /// [`ProcessShard::call`] return it: the verdicts are in the
    /// caller's buffer, the live set and state bytes on the runner.
    pub const VERDICTS: Reply = Reply::Verdicts {
        verdicts: Vec::new(),
        live: Vec::new(),
        state_bytes: 0,
    };

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
            } => encode_verdicts(&mut verdicts.clone(), &mut live.clone(), *state_bytes, out),
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

/// Append a `Verdicts` frame. The walk takes its fields mutably but
/// the writer never changes them, and never fails.
fn encode_verdicts(
    verdicts: &mut Vec<(u32, OnlineVerdict)>,
    live: &mut Vec<u32>,
    mut state_bytes: u64,
    out: &mut Vec<u8>,
) {
    let mut payload = Vec::new();
    let _ = verdicts_payload(&mut Writer(&mut payload), verdicts, live, &mut state_bytes);
    encode_frame(OP_VERDICTS, &payload, out);
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

/// Supervisor-side handle to one shard hosted in a child process: the
/// transport half of the process backend. [`ProcessShard::call`]
/// sends one [`Request`] and returns the worker's [`Reply`], which
/// [`handle`] computed on the far side of the pipe; any exchange can
/// fail with a [`WorkerFault`], since the child may have been
/// `kill -9`'d between any two frames. The handle caches the worker's
/// live-victim set and state size, so loss accounting still knows
/// which victims a dead child held.
pub struct ProcessShard {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    /// Ascending, like the worker's resident table.
    live: Vec<u32>,
    state_bytes: usize,
    buf: Vec<u8>,
}

impl ProcessShard {
    /// Spawn a worker. It holds no shard until it is sent `Init`.
    pub fn spawn(worker: &Path) -> Result<Self, WorkerFault> {
        let mut child = Command::new(worker)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|_| WorkerFault::Spawn)?;
        let stdin = child.stdin.take().ok_or(WorkerFault::Spawn)?;
        let stdout = child.stdout.take().ok_or(WorkerFault::Spawn)?;
        Ok(ProcessShard {
            child,
            stdin,
            stdout,
            live: Vec::new(),
            state_bytes: 0,
            buf: Vec::new(),
        })
    }

    /// The child's OS pid (tests `kill -9` it to prove absorption).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Live victims as of the last exchange (survives the child's
    /// death).
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

    /// One request/reply exchange: encode the frame, write it, read and
    /// parse the reply, then update the cached live set. A `Verdicts`
    /// reply's verdicts are appended to `out` and it comes back as
    /// [`Reply::VERDICTS`], as [`handle`] returns it in process. Any
    /// transport failure — the write, the read, or undecodable reply
    /// bytes — is a [`WorkerFault`]; the caller treats it like a crash
    /// and respawns.
    pub fn call(
        &mut self,
        req: &Request<'_>,
        out: &mut Vec<(u32, OnlineVerdict)>,
    ) -> Result<Reply, WorkerFault> {
        self.buf.clear();
        req.encode(&mut self.buf);
        self.stdin
            .write_all(&self.buf)
            .map_err(|_| WorkerFault::Io)?;
        self.stdin.flush().map_err(|_| WorkerFault::Io)?;
        let mut header = [0u8; 4];
        self.stdout
            .read_exact(&mut header)
            .map_err(|_| WorkerFault::Io)?;
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME {
            return Err(WorkerFault::Protocol);
        }
        self.buf.clear();
        self.buf.resize(len as usize, 0);
        self.stdout
            .read_exact(&mut self.buf)
            .map_err(|_| WorkerFault::Io)?;
        let reply = Reply::parse(self.buf[0], &self.buf[1..]).map_err(|_| WorkerFault::Protocol)?;
        // The one place the cached live set changes.
        match (req, reply) {
            (
                _,
                Reply::Verdicts {
                    mut verdicts,
                    live,
                    state_bytes,
                },
            ) => {
                out.append(&mut verdicts);
                self.live = live;
                self.state_bytes = state_bytes as usize;
                Ok(Reply::VERDICTS)
            }
            (Request::Init { .. }, Reply::Ok) => {
                self.live.clear();
                self.state_bytes = 0;
                Ok(Reply::Ok)
            }
            // The restored victims are the blob's, which the worker
            // just accepted.
            (Request::Restore(blob), Reply::Ok) => {
                let blob = Blob::parse(blob).map_err(|_| WorkerFault::Protocol)?;
                self.live = blob.records.iter().map(|r| r.victim).collect();
                Ok(Reply::Ok)
            }
            (Request::Adopt(record), Reply::Ok) => {
                let victim = one_record(record)
                    .map_err(|_| WorkerFault::Protocol)?
                    .victim;
                if let Err(i) = self.live.binary_search(&victim) {
                    self.live.insert(i, victim);
                }
                Ok(Reply::Ok)
            }
            (Request::Drain(victims), Reply::Drained(entries)) => {
                self.live.retain(|v| !victims.contains(v));
                Ok(Reply::Drained(entries))
            }
            (_, reply) => Ok(reply),
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
// the shard dispatch

/// Apply one request to a shard — the one definition of what every
/// request does. The in-process backend calls it directly; a worker
/// process calls it on each parsed frame. `shard` is `None` until
/// `Init`. Verdicts are appended to `out`, and their reply is
/// [`Reply::VERDICTS`]: the live set and state bytes stay on the
/// shard, for whoever needs them to read.
pub fn handle(
    req: &Request<'_>,
    shard: &mut Option<ShardState>,
    out: &mut Vec<(u32, OnlineVerdict)>,
) -> Reply {
    if let Request::Init {
        shard: id,
        cfg,
        classifier,
        graph,
    } = req
    {
        *shard = Some(ShardState::new(
            *id,
            classifier.clone(),
            graph.clone(),
            cfg.clone(),
        ));
        return Reply::Ok;
    }
    let Some(state) = shard.as_mut() else {
        return match req {
            Request::Shutdown => Reply::Ok,
            _ => Reply::Err(RemoteError::Internal),
        };
    };
    match *req {
        Request::Init { .. } => unreachable!("handled above"),
        Request::Shutdown => Reply::Ok,
        Request::Restore(blob) => match state.reload(state.shard(), blob) {
            Ok(()) => Reply::Ok,
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
            state.feed(victim, time, frame, max_victims as usize, out);
            Reply::VERDICTS
        }
        Request::EvictIdle { now, idle } => {
            state.evict_idle(now, idle, out);
            Reply::VERDICTS
        }
        Request::FinishAll => {
            state.finish_all(out);
            Reply::VERDICTS
        }
        Request::Checkpoint { taken } => Reply::Blob(state.checkpoint(taken)),
        Request::Drain(ref victims) => Reply::Drained(state.drain_victims(victims)),
        Request::Adopt(record) => match one_record(record) {
            Ok(rec) => match state.adopt_victim(&rec) {
                Ok(()) => Reply::Ok,
                Err(_) => Reply::Err(RemoteError::Victim(rec.victim)),
            },
            Err(_) => Reply::Err(RemoteError::Internal),
        },
    }
}

// ---------------------------------------------------------------------
// worker side

/// The shard-worker process body: serve protocol frames on
/// stdin/stdout until EOF (clean supervisor exit), `Shutdown`, or a
/// protocol violation (reply `Err`, exit nonzero — the supervisor
/// respawns). Each frame goes through [`handle`]; a `Verdicts` reply
/// is encoded with the shard's live set and state bytes. Returns the
/// process exit code.
pub fn shard_worker_main() -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    let mut shard: Option<ShardState> = None;
    let (mut body, mut frame) = (Vec::new(), Vec::new());
    let (mut verdicts, mut live) = (Vec::new(), Vec::new());
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
        body.clear();
        body.resize(len as usize, 0);
        if input.read_exact(&mut body).is_err() {
            return 1;
        }
        let req = match Request::parse(body[0], &body[1..]) {
            Ok(req) => req,
            Err(_) => return reply_and_exit(&mut output, Reply::Err(RemoteError::Internal)),
        };
        let shutdown = matches!(req, Request::Shutdown);
        frame.clear();
        match (handle(&req, &mut shard, &mut verdicts), &shard) {
            (Reply::Verdicts { .. }, Some(state)) => {
                live.clear();
                live.extend(state.live_victims());
                let state_bytes = state.state_bytes() as u64;
                encode_verdicts(&mut verdicts, &mut live, state_bytes, &mut frame);
                verdicts.clear();
            }
            (reply, _) => reply.encode(&mut frame),
        }
        if output.write_all(&frame).is_err() || output.flush().is_err() {
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
                frame: &[0xde, 0xad],
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
