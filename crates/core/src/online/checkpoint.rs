//! Versioned, checksummed binary decoder checkpoints.
//!
//! A checkpoint is the *entire* [`OnlineDecoder`] minus its
//! attachments: the time scale, classifier calibration, the watermark
//! clock, every flow's reassembly state (carry bytes, parked segments,
//! timing marks), the pending/ready event queues, the path decoder's
//! frontier in the graph walk, and all counters. Restoring it and
//! replaying the packets after the checkpoint yields byte-for-byte the
//! uninterrupted verdict stream — the kill/resume property CI enforces.
//!
//! # Layout
//!
//! One layout serves a single decoder and a whole fleet shard. Every
//! integer is little-endian.
//!
//! ```text
//! blob   = header record* crc
//! header = "WMCK" version:u16 length:u32 shard:u32 taken_us:u64
//!          graph_fp:u64 time_scale:u32 classifier:5×u16  (44 bytes)
//! record = len:u32 victim:u32 last_seen_us:u64 state      (len counts what follows it)
//! crc    = CRC-32 (IEEE) of every byte before it
//! ```
//!
//! `length` is the whole blob, CRC included. The header carries what
//! every record shares — the story-graph fingerprint, the
//! [`OnlineConfig`] and the classifier — once. The config is its time
//! scale alone: every window, gap and slack is derived from it on
//! resume, and the buffer caps are constants a restore checks field by
//! field, so neither is stored. A time scale of 0 is
//! `Malformed("config")`.
//! Records are in strictly ascending victim order, so a blob can be
//! split or spliced by copying record byte ranges and re-sealing
//! ([`BlobWriter`]).
//! `state` is the decoder's fields in a fixed order: fixed-width
//! integers, a one-byte tag before each optional value, a `u32` count
//! before each list, and carry and parked bytes copied as they are.
//! [`OnlineDecoder::checkpoint`] writes the one-record form (shard 0,
//! victim 0).
//!
//! The field-walk primitives ([`Pass`], [`Writer`], [`Reader`],
//! [`seq`], …) are public: the process-shard pipe builds its `Init`
//! and `Verdicts` payloads from them, and [`write_graph`] /
//! [`read_graph`] carry a story graph's topology, exactly the fields
//! [`graph_fingerprint`] covers.
//!
//! Determinism is by construction: the field order is fixed, there
//! are no floats (derived durations are recomputed from the graph and
//! the time scale on resume), flows serialize in `BTreeMap` order and
//! records in victim order.
//!
//! # Integrity
//!
//! [`Blob::parse`] checks magic, version and declared length, then the
//! CRC, and only then reads a field. CRC-32 detects every single-bit
//! flip and every error burst up to 32 bits long, so a torn or flipped
//! blob is rejected with a typed [`CheckpointError`] instead of
//! restoring altered state. A blob taken against a different film is
//! rejected by its graph fingerprint. A CRC-valid record holding more
//! than a buffer's cap is `Malformed` at that field, never restored
//! truncated.

use std::sync::Arc;

use crate::decode::Frontier;
use crate::online::bounded::BoundedVec;
use crate::online::crc::crc32;
use crate::online::engine::{OnlineConfig, OnlineDecoder, PendingEvent, MAX_FLOWS};
use crate::online::ingest::FlowIngest;
use crate::{IntervalClassifier, ReportEvent};
use wm_capture::headers::FlowId;
use wm_capture::time::SimTime;
use wm_capture::RecordClass;
use wm_story::{
    ChoiceOption, ChoicePoint, ChoicePointId, Segment, SegmentEnd, SegmentId, StoryGraph,
};

/// Checkpoint format version. Bump on any layout change.
pub const CHECKPOINT_VERSION: u16 = 3;

const MAGIC: [u8; 4] = *b"WMCK";
/// Byte offset of the `length` field.
const LENGTH_AT: usize = 6;
/// Fixed header size: magic, version, length, shard, taken, graph
/// fingerprint, time scale, 5 classifier words.
const HEADER_LEN: usize = 4 + 2 + 4 + 4 + 8 + 8 + 4 + 5 * 2;
const CRC_LEN: usize = 4;
/// Bytes of a record before its decoder state: len, victim, last_seen.
const RECORD_PREFIX: usize = 4 + 4 + 8;

/// Why a checkpoint failed to restore. Framing failures mirror the
/// process protocol's `FrameError`: a short buffer is
/// [`CheckpointError::Truncated`] at a named field, a bad length is
/// typed, never a panic or a partial restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes end before the layout does — a torn write. `offset`
    /// is where the unreadable field starts; `near` names it.
    Truncated { offset: usize, near: &'static str },
    /// The blob is longer than its header declares.
    Length { declared: usize, actual: usize },
    /// Not a checkpoint: the magic bytes are wrong.
    Magic,
    /// The blob's format version is not supported.
    Version(u16),
    /// The trailing CRC-32 does not match the bytes before it.
    Checksum { stored: u32, computed: u32 },
    /// A field holds a value the layout does not allow.
    Malformed(&'static str),
    /// The checkpoint was taken against a different story graph.
    GraphMismatch,
    /// The classifier calibration failed to restore.
    Classifier,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use CheckpointError::*;
        match self {
            Truncated { offset, near } => write!(f, "checkpoint torn at byte {offset} ({near})"),
            Length { declared, actual } => {
                write!(f, "checkpoint is {actual} bytes, not {declared}")
            }
            Magic => write!(f, "not a checkpoint (bad magic)"),
            Version(v) => write!(f, "unsupported checkpoint version {v}"),
            Checksum { stored, computed } => {
                write!(
                    f,
                    "checkpoint CRC {computed:#010x} != stored {stored:#010x}"
                )
            }
            Malformed(field) => write!(f, "checkpoint field `{field}` invalid"),
            GraphMismatch => write!(f, "checkpoint was taken against a different story graph"),
            Classifier => write!(f, "classifier calibration failed to restore"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Structural fingerprint of a story graph (FNV-1a over the public
/// topology): detects resuming against the wrong film.
pub fn graph_fingerprint(graph: &StoryGraph) -> u64 {
    fn mix(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h = mix(h, graph.start().0 as u64);
    for seg in graph.segments() {
        h = mix(h, seg.id.0 as u64);
        h = mix(h, seg.duration_secs as u64);
        match seg.end {
            SegmentEnd::Ending => h = mix(h, 1),
            SegmentEnd::Continue(next) => {
                h = mix(h, 2);
                h = mix(h, next.0 as u64);
            }
            SegmentEnd::Choice(cp) => {
                h = mix(h, 3);
                h = mix(h, cp.0 as u64);
            }
        }
    }
    for cp in graph.choice_points() {
        h = mix(h, cp.id.0 as u64);
        for opt in &cp.options {
            h = mix(h, opt.target.0 as u64);
        }
    }
    h
}

/// One walk over a story graph's topology: exactly the fields
/// [`graph_fingerprint`] mixes, in its order — the start segment, each
/// segment's id, duration and end, each choice point's id and option
/// targets. Names, questions, labels and tags are presentation data
/// the decoder never reads, so a graph rebuilt from this walk carries
/// the original's fingerprint.
fn topology<'a, P: Pass<'a>>(
    p: &mut P,
    start: &mut SegmentId,
    segments: &mut Vec<Segment>,
    cps: &mut Vec<ChoicePoint>,
) -> Step {
    p.int(&mut start.0, "start")?;
    let blank = Segment {
        id: SegmentId(0),
        name: "",
        duration_secs: 0,
        end: SegmentEnd::Ending,
    };
    seq(p, segments, blank, "segments", |p, s| {
        p.int(&mut s.id.0, "segments")?;
        p.int(&mut s.duration_secs, "segments")?;
        let (mut tag, mut arg) = match s.end {
            SegmentEnd::Ending => (1u8, 0),
            SegmentEnd::Continue(next) => (2, next.0),
            SegmentEnd::Choice(cp) => (3, cp.0),
        };
        p.int(&mut tag, "segment end")?;
        if tag != 1 {
            p.int(&mut arg, "segment end")?;
        }
        s.end = match tag {
            1 => SegmentEnd::Ending,
            2 => SegmentEnd::Continue(SegmentId(arg)),
            3 => SegmentEnd::Choice(ChoicePointId(arg)),
            _ => return Err(CheckpointError::Malformed("segment end")),
        };
        Ok(())
    })?;
    let option = ChoiceOption {
        label: "",
        target: SegmentId(0),
        tags: &[],
    };
    let blank = ChoicePoint {
        id: ChoicePointId(0),
        question: "",
        options: [option.clone(), option],
    };
    seq(p, cps, blank, "choice points", |p, cp| {
        p.int(&mut cp.id.0, "choice points")?;
        for opt in &mut cp.options {
            p.int(&mut opt.target.0, "choice points")?;
        }
        Ok(())
    })
}

/// Append `graph`'s topology.
pub fn write_graph(graph: &StoryGraph, out: &mut Vec<u8>) {
    let mut start = graph.start();
    let mut segments = graph.segments().to_vec();
    let mut cps = graph.choice_points().to_vec();
    // The writer never fails.
    let _ = topology(&mut Writer(out), &mut start, &mut segments, &mut cps);
}

/// Rebuild a graph from exactly the bytes [`write_graph`] appended.
// wm-lint: parse-root
pub fn read_graph(bytes: &[u8]) -> Result<StoryGraph, CheckpointError> {
    let mut r = Reader::new(bytes, 0);
    let (mut start, mut segments, mut cps) = (SegmentId(0), Vec::new(), Vec::new());
    topology(&mut r, &mut start, &mut segments, &mut cps)?;
    r.end("graph")?;
    StoryGraph::new("", segments, cps, start).map_err(|_| CheckpointError::Malformed("graph"))
}

// ---------------------------------------------------------------------
// primitive codec

/// Fixed-width little-endian integers.
pub trait Le: Sized + Copy {
    fn put_le(self, out: &mut Vec<u8>);
    fn from_le(bytes: &[u8]) -> Option<Self>;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn from_le(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}
le!(u8, u16, u32, u64, i64);

/// Append-only encoder over a byte buffer.
pub struct Writer<'a>(pub &'a mut Vec<u8>);

impl Writer<'_> {
    fn emit<T: Le>(&mut self, x: T) {
        x.put_le(self.0);
    }
    fn emit_all<T: Le>(&mut self, xs: &[T]) {
        for &x in xs {
            self.emit(x);
        }
    }
}

/// Bounds-checked cursor. Every read names the field it reads, so a
/// short buffer fails as [`CheckpointError::Truncated`] at that field;
/// `base` makes reported offsets absolute within the enclosing blob.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8], base: usize) -> Self {
        Reader {
            bytes,
            pos: 0,
            base,
        }
    }

    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Reject bytes left over after the layout ended.
    pub fn end(&self, near: &'static str) -> Result<(), CheckpointError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CheckpointError::Malformed(near)),
        }
    }

    fn slice(&mut self, n: usize, near: &'static str) -> Result<&'a [u8], CheckpointError> {
        let out = self
            .pos
            .checked_add(n)
            .and_then(|end| self.bytes.get(self.pos..end))
            .ok_or(CheckpointError::Truncated {
                offset: self.offset(),
                near,
            })?;
        self.pos += n;
        Ok(out)
    }

    fn num<T: Le>(&mut self, near: &'static str) -> Result<T, CheckpointError> {
        let bytes = self.slice(std::mem::size_of::<T>(), near)?;
        T::from_le(bytes).ok_or(CheckpointError::Malformed(near))
    }

    fn array<T: Le + Default, const N: usize>(
        &mut self,
        near: &'static str,
    ) -> Result<[T; N], CheckpointError> {
        let mut out = [T::default(); N];
        for x in out.iter_mut() {
            *x = self.num(near)?;
        }
        Ok(out)
    }

    fn count(&mut self, near: &'static str) -> Result<usize, CheckpointError> {
        Ok(self.num::<u32>(near)? as usize)
    }
}

/// One walk over a decoder's fields in layout order. [`Writer`] and
/// [`Reader`] both implement it, so `state` — the single field list —
/// both encodes and decodes, and the two directions cannot drift.
pub trait Pass<'a> {
    /// The reader: lists are rebuilt instead of walked.
    const READS: bool;
    /// Write `*x`, or read into it.
    fn int<T: Le>(&mut self, x: &mut T, near: &'static str) -> Result<(), CheckpointError>;
    /// Write `bytes` behind a `u32` length, or read such a string.
    fn bytes(&mut self, bytes: &[u8], near: &'static str) -> Result<&'a [u8], CheckpointError>;
}

impl<'a> Pass<'a> for Writer<'_> {
    const READS: bool = false;
    fn int<T: Le>(&mut self, x: &mut T, _: &'static str) -> Result<(), CheckpointError> {
        self.emit(*x);
        Ok(())
    }
    fn bytes(&mut self, bytes: &[u8], _: &'static str) -> Result<&'a [u8], CheckpointError> {
        self.emit(bytes.len() as u32);
        self.0.extend_from_slice(bytes);
        Ok(&[])
    }
}

impl<'a> Pass<'a> for Reader<'a> {
    const READS: bool = true;
    fn int<T: Le>(&mut self, x: &mut T, near: &'static str) -> Result<(), CheckpointError> {
        *x = self.num(near)?;
        Ok(())
    }
    fn bytes(&mut self, _: &[u8], near: &'static str) -> Result<&'a [u8], CheckpointError> {
        let n = self.count(near)?;
        self.slice(n, near)
    }
}

// ---------------------------------------------------------------------
// header

/// What a blob header carries once for all of its records.
#[derive(Debug, Clone)]
pub struct BlobHeader {
    /// The shard the blob was taken on (0 for a single decoder).
    pub shard: u32,
    /// Sim-time the blob was taken.
    pub taken: SimTime,
    /// [`graph_fingerprint`] of the film every record walks.
    pub graph_fp: u64,
    pub cfg: OnlineConfig,
    pub classifier: IntervalClassifier,
}

impl BlobHeader {
    /// Reject a blob taken against a different film.
    pub fn check_graph(&self, graph: &StoryGraph) -> Result<(), CheckpointError> {
        if self.graph_fp == graph_fingerprint(graph) {
            Ok(())
        } else {
            Err(CheckpointError::GraphMismatch)
        }
    }

    fn write(&self, w: &mut Writer<'_>) {
        let k = &self.classifier;
        w.0.extend_from_slice(&MAGIC);
        w.emit(CHECKPOINT_VERSION);
        w.emit(0u32); // length, patched by `BlobWriter::finish`
        w.emit(self.shard);
        w.emit_all(&[self.taken.micros(), self.graph_fp]);
        w.emit(self.cfg.time_scale);
        w.emit_all(&[k.type1.0, k.type1.1, k.type2.0, k.type2.1, k.slack]);
    }

    /// Read the fields after `length`.
    fn read(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let shard = r.num("shard")?;
        let taken = SimTime(r.num("taken")?);
        let graph_fp = r.num("graph_fp")?;
        let cfg = match r.num("config")? {
            0 => return Err(CheckpointError::Malformed("config")),
            time_scale => OnlineConfig { time_scale },
        };
        let [lo1, hi1, lo2, hi2, slack] = r.array("classifier")?;
        if lo1 > hi1 || lo2 > hi2 {
            return Err(CheckpointError::Classifier);
        }
        let classifier = IntervalClassifier {
            type1: (lo1, hi1),
            type2: (lo2, hi2),
            slack,
        };
        Ok(BlobHeader {
            shard,
            taken,
            graph_fp,
            cfg,
            classifier,
        })
    }
}

// ---------------------------------------------------------------------
// blobs and records

/// One framed per-victim record, borrowed from a blob or payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    pub victim: u32,
    /// The victim's last packet time on its shard.
    pub seen: SimTime,
    /// The whole record, length prefix included — the unit a split or
    /// splice copies.
    pub bytes: &'a [u8],
    /// Absolute offset of `bytes` in the enclosing blob, for errors.
    pub offset: usize,
}

/// A checksum-verified blob: its header, and its records borrowed
/// from the blob bytes.
#[derive(Debug, Clone)]
pub struct Blob<'a> {
    pub header: BlobHeader,
    pub records: Vec<RecordRef<'a>>,
}

impl<'a> Blob<'a> {
    /// Verify framing and CRC, then parse the header and frame the
    /// records. Record contents are decoded only on restore.
    // wm-lint: parse-root
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        match Self::parse_prefix(bytes)? {
            (blob, []) => Ok(blob),
            (_, rest) => Err(CheckpointError::Length {
                declared: bytes.len() - rest.len(),
                actual: bytes.len(),
            }),
        }
    }

    /// [`Blob::parse`] the blob at the front of `bytes`, whose header
    /// declares its length, and return it with the bytes after it.
    // wm-lint: parse-root
    pub fn parse_prefix(bytes: &'a [u8]) -> Result<(Self, &'a [u8]), CheckpointError> {
        let mut r = Reader::new(bytes, 0);
        if r.slice(4, "magic")? != MAGIC {
            return Err(CheckpointError::Magic);
        }
        let version = r.num("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Version(version));
        }
        let length = r.count("length")?;
        if length < HEADER_LEN + CRC_LEN {
            return Err(CheckpointError::Malformed("length"));
        }
        let Some((bytes, rest)) = bytes.split_at_checked(length) else {
            return Err(truncation(bytes, length));
        };
        let body_len = length - CRC_LEN;
        let body = bytes.get(..body_len).unwrap_or(&[]);
        let mut tail = Reader::new(bytes.get(body_len..).unwrap_or(&[]), body_len);
        let stored = tail.num("crc")?;
        let computed = crc32(body);
        if stored != computed {
            return Err(CheckpointError::Checksum { stored, computed });
        }
        let header = BlobHeader::read(&mut r)?;
        let records = split_records(body.get(HEADER_LEN..).unwrap_or(&[]), HEADER_LEN)?;
        Ok((Blob { header, records }, rest))
    }
}

impl Blob<'_> {
    /// Re-seal into a new blob under the same header: the records
    /// `keep` accepts, plus `splice` — one framed record — in victim
    /// order, replacing any record for the same victim. Copies record
    /// byte ranges; decodes nothing.
    pub fn reseal(&self, keep: impl Fn(u32) -> bool, splice: Option<RecordRef<'_>>) -> Vec<u8> {
        let spliced = |victim| splice.is_some_and(|new| new.victim == victim);
        let kept: usize = self
            .records
            .iter()
            .filter(|rec| keep(rec.victim) && !spliced(rec.victim))
            .map(|rec| rec.bytes.len())
            .sum();
        let records = kept + splice.map_or(0, |new| new.bytes.len());
        let mut blob = BlobWriter::new(&self.header, records);
        let mut pending = splice;
        for rec in &self.records {
            if let Some(new) = pending.filter(|new| new.victim <= rec.victim) {
                blob.push_record(new.bytes);
                pending = None;
                if new.victim == rec.victim {
                    continue;
                }
            }
            if keep(rec.victim) {
                blob.push_record(rec.bytes);
            }
        }
        if let Some(new) = pending {
            blob.push_record(new.bytes);
        }
        blob.finish()
    }
}

/// A torn blob: name the region it ends in.
fn truncation(bytes: &[u8], length: usize) -> CheckpointError {
    let near = match bytes.len() {
        n if n < HEADER_LEN => "header",
        n if n < length - CRC_LEN => "records",
        _ => "crc",
    };
    CheckpointError::Truncated {
        offset: bytes.len(),
        near,
    }
}

/// Frame a run of records (`[u32 len]` each, ascending victims) that
/// starts at absolute offset `base`.
// wm-lint: parse-root
pub fn split_records(bytes: &[u8], base: usize) -> Result<Vec<RecordRef<'_>>, CheckpointError> {
    let mut r = Reader::new(bytes, base);
    let mut out: Vec<RecordRef<'_>> = Vec::new();
    while r.remaining() > 0 {
        let start = r.pos;
        let offset = r.offset();
        let n = r.count("record length")?;
        let body = r.slice(n, "record")?;
        let mut head = Reader::new(body, offset + 4);
        let victim = head.num("victim")?;
        let seen = SimTime(head.num("last_seen")?);
        if out.last().is_some_and(|prev| prev.victim >= victim) {
            return Err(CheckpointError::Malformed("victim order"));
        }
        out.push(RecordRef {
            victim,
            seen,
            bytes: bytes.get(start..r.pos).unwrap_or(&[]),
            offset,
        });
    }
    Ok(out)
}

/// Builds a sealed blob: header, records, then length and CRC.
pub struct BlobWriter {
    buf: Vec<u8>,
}

impl BlobWriter {
    /// Start a blob under `header`, reserving room for the header, the
    /// CRC and `record_bytes`: the caller's estimate of the records it
    /// will push, so that pushing them does not regrow the buffer.
    pub fn new(header: &BlobHeader, record_bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + record_bytes + CRC_LEN);
        header.write(&mut Writer(&mut buf));
        BlobWriter { buf }
    }

    /// Append a framed record as-is (the caller keeps victim order).
    pub fn push_record(&mut self, record: &[u8]) {
        self.buf.extend_from_slice(record);
    }

    /// Checkpoint `dec` into the blob as `victim`'s record.
    pub fn push_decoder(&mut self, victim: u32, seen: SimTime, dec: &mut OnlineDecoder) {
        dec.checkpoint_record(victim, seen, &mut self.buf);
    }

    /// Patch in the total length and append the CRC.
    pub fn finish(mut self) -> Vec<u8> {
        let length = (self.buf.len() + CRC_LEN) as u32;
        if let Some(field) = self.buf.get_mut(LENGTH_AT..LENGTH_AT + 4) {
            field.copy_from_slice(&length.to_le_bytes());
        }
        let crc = crc32(&self.buf);
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Append `dec`'s state as one framed record.
pub(crate) fn encode_record(
    dec: &mut OnlineDecoder,
    victim: u32,
    seen: SimTime,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    let mut w = Writer(out);
    w.emit(0u32); // length, patched below
    w.emit(victim);
    w.emit(seen.micros());
    // The writer never fails, and it stores every field back as it was.
    let _ = state(&mut w, dec);
    let len = (out.len() - start - 4) as u32;
    if let Some(field) = out.get_mut(start..start + 4) {
        field.copy_from_slice(&len.to_le_bytes());
    }
}

/// Rebuild a decoder from one record. `classifier` and `cfg` come
/// from the enclosing blob's header (or, for a migrated record, from
/// the adopting shard, which shares its fleet's configuration).
// wm-lint: parse-root
pub fn restore_record(
    rec: &RecordRef<'_>,
    classifier: &IntervalClassifier,
    cfg: &OnlineConfig,
    graph: Arc<StoryGraph>,
) -> Result<OnlineDecoder, CheckpointError> {
    let body = rec.bytes.get(RECORD_PREFIX..).unwrap_or(&[]);
    let mut r = Reader::new(body, rec.offset + RECORD_PREFIX);
    let mut decoder = OnlineDecoder::new(classifier.clone(), graph, cfg.clone());
    state(&mut r, &mut decoder)?;
    r.end("record length")?;
    decoder.stats.resumes = decoder.stats.resumes.saturating_add(1);
    Ok(decoder)
}

/// Restore the single decoder of a one-record blob.
pub(crate) fn decode(
    bytes: &[u8],
    graph: Arc<StoryGraph>,
) -> Result<OnlineDecoder, CheckpointError> {
    let blob = Blob::parse(bytes)?;
    blob.header.check_graph(&graph)?;
    match blob.records.as_slice() {
        [rec] => restore_record(rec, &blob.header.classifier, &blob.header.cfg, graph),
        _ => Err(CheckpointError::Malformed("records")),
    }
}

// ---------------------------------------------------------------------
// decoder state

/// The outcome of one step of a walk.
pub type Step = Result<(), CheckpointError>;

/// A sim time as its `u64` microseconds.
pub fn time<'a>(p: &mut impl Pass<'a>, t: &mut SimTime, near: &'static str) -> Step {
    let mut us = t.micros();
    p.int(&mut us, near)?;
    *t = SimTime(us);
    Ok(())
}

/// A `bool` as one byte, 0 or 1.
pub fn flag<'a>(p: &mut impl Pass<'a>, b: &mut bool, near: &'static str) -> Step {
    let mut x = *b as u8;
    p.int(&mut x, near)?;
    *b = match x {
        0 => false,
        1 => true,
        _ => return Err(CheckpointError::Malformed(near)),
    };
    Ok(())
}

/// An enum as a one-byte index into `all`, its variants in tag order.
pub fn variant<'a, T: Copy + PartialEq>(
    p: &mut impl Pass<'a>,
    x: &mut T,
    all: &[T],
    near: &'static str,
) -> Step {
    let mut tag = all.iter().position(|k| k == x).unwrap_or(0) as u8;
    p.int(&mut tag, near)?;
    *x = *all
        .get(tag as usize)
        .ok_or(CheckpointError::Malformed(near))?;
    Ok(())
}

const CLASSES: [RecordClass; 3] = [RecordClass::Other, RecordClass::Type1, RecordClass::Type2];

/// A one-byte presence tag, then the value when present.
fn opt<'a, P: Pass<'a>, T: Copy>(
    p: &mut P,
    o: &mut Option<T>,
    blank: T,
    near: &'static str,
    mut field: impl FnMut(&mut P, &mut T) -> Step,
) -> Step {
    let mut some = o.is_some();
    flag(p, &mut some, near)?;
    *o = match some {
        true => {
            let mut x = o.unwrap_or(blank);
            field(p, &mut x)?;
            Some(x)
        }
        false => None,
    };
    Ok(())
}

fn opt_time<'a>(p: &mut impl Pass<'a>, t: &mut Option<SimTime>, near: &'static str) -> Step {
    opt(p, t, SimTime::ZERO, near, |p, t| time(p, t, near))
}

/// A `u32` count, then the items: walked when writing, admitted into
/// the (fresh, empty) bounded list when reading. More items than the
/// list's cap is a malformed record, never a truncated restore.
fn list<'a, P: Pass<'a>, T: Copy>(
    p: &mut P,
    v: &mut BoundedVec<T>,
    blank: T,
    near: &'static str,
    mut item: impl FnMut(&mut P, &mut T) -> Step,
) -> Step {
    let mut n = v.len() as u32;
    p.int(&mut n, near)?;
    if P::READS {
        for _ in 0..n {
            let mut x = blank;
            item(p, &mut x)?;
            if !v.admit(x) {
                return Err(CheckpointError::Malformed(near));
            }
        }
    } else {
        for x in v.iter() {
            item(p, &mut x.clone())?;
        }
    }
    Ok(())
}

/// A `u32` count, then the items: walked when writing, pushed one at a
/// time when reading, so a hostile count fails at the first missing
/// item instead of allocating for the count.
pub fn seq<'a, P: Pass<'a>, T: Clone>(
    p: &mut P,
    v: &mut Vec<T>,
    blank: T,
    near: &'static str,
    mut item: impl FnMut(&mut P, &mut T) -> Step,
) -> Step {
    let mut n = v.len() as u32;
    p.int(&mut n, near)?;
    if P::READS {
        v.clear();
        for _ in 0..n {
            let mut x = blank.clone();
            item(p, &mut x)?;
            v.push(x);
        }
    } else {
        for x in v.iter_mut() {
            item(p, x)?;
        }
    }
    Ok(())
}

fn ready<'a>(p: &mut impl Pass<'a>, e: &mut ReportEvent, near: &'static str) -> Step {
    time(p, &mut e.time, near)?;
    p.int(&mut e.index, near)?;
    p.int(&mut e.length, near)?;
    variant(p, &mut e.class, &CLASSES, near)
}

const BLANK_READY: ReportEvent = ReportEvent {
    time: SimTime::ZERO,
    index: 0,
    length: 0,
    class: RecordClass::Other,
};

/// The decoder's whole checkpointed state, in layout order.
fn state<'a, P: Pass<'a>>(p: &mut P, d: &mut OnlineDecoder) -> Step {
    time(p, &mut d.max_seen, "max_seen")?;
    time(p, &mut d.watermark, "watermark")?;
    flag(p, &mut d.finishing, "finishing")?;
    let mut flows = d.flows.len() as u32;
    p.int(&mut flows, "flows")?;
    if P::READS {
        for _ in 0..flows {
            if d.flows.len() >= MAX_FLOWS {
                return Err(CheckpointError::Malformed("flows"));
            }
            let mut id = FlowId {
                src_ip: [0; 4],
                src_port: 0,
                dst_ip: [0; 4],
                dst_port: 0,
            };
            let mut ingest = FlowIngest::new();
            flow(p, &mut id, &mut ingest)?;
            d.flows.insert(id, ingest);
        }
    } else {
        for (id, ingest) in d.flows.iter_mut() {
            flow(p, &mut id.clone(), ingest)?;
        }
    }

    p.int(&mut d.admit_seq, "admit_seq")?;
    let blank = PendingEvent {
        time: SimTime::ZERO,
        seq: 0,
        length: 0,
        class: RecordClass::Other,
    };
    list(p, &mut d.pending, blank, "pending", |p, e| {
        time(p, &mut e.time, "pending")?;
        p.int(&mut e.seq, "pending")?;
        p.int(&mut e.length, "pending")?;
        variant(p, &mut e.class, &CLASSES, "pending")
    })?;
    list(p, &mut d.ready, BLANK_READY, "ready", |p, e| {
        ready(p, e, "ready")
    })?;
    // The width-1 path decoder's one hypothesis.
    let head = d
        .path
        .lone_mut()
        .ok_or(CheckpointError::Malformed("phase"))?;
    let mut cursor = head.cursor as u64;
    p.int(&mut cursor, "cursor")?;
    head.cursor = usize::try_from(cursor).map_err(|_| CheckpointError::Malformed("cursor"))?;
    let r = &mut d.reports;
    p.int(&mut r.records, "app_count")?;
    opt_time(p, &mut r.first_app, "app_first")?;
    opt_time(p, &mut r.second_app, "app_second")?;
    opt_time(p, &mut r.last_type1, "last_kept_t1")?;
    opt_time(p, &mut r.last_type2, "last_kept_t2")?;
    let blank = (0, SimTime::ZERO, 0);
    list(p, &mut d.recent_apps, blank, "recent_apps", |p, r| {
        p.int(&mut r.0, "recent_apps")?;
        time(p, &mut r.1, "recent_apps")?;
        p.int(&mut r.2, "recent_apps")
    })?;
    list(p, &mut d.gap_times, SimTime::ZERO, "gap_times", |p, t| {
        time(p, t, "gap_times")
    })?;
    let blank = (SimTime::ZERO, SimTime::ZERO);
    list(p, &mut d.loss_windows, blank, "loss_windows", |p, w| {
        time(p, &mut w.0, "loss_windows")?;
        time(p, &mut w.1, "loss_windows")
    })?;

    phase(p, &mut head.frontier, &d.graph)?;
    opt_time(p, &mut head.predicted, "predicted")?;
    p.int(&mut d.emitted, "emitted")?;
    p.int(&mut d.records_seen, "records_seen")?;
    d.records_at_checkpoint = d.records_seen;
    // `resumes` is session-local and stays out: a resumed decoder's
    // count starts fresh (the restore's increment makes it 1).
    let st = &mut d.stats;
    for x in [
        &mut st.packets,
        &mut st.segments,
        &mut st.truncated_segments,
        &mut st.records,
        &mut st.non_app_records,
        &mut st.report_events,
        &mut st.deduped_events,
        &mut st.late_events,
        &mut st.pending_force_finalized,
        &mut st.ready_evictions,
        &mut st.flows,
        &mut st.flow_overflow_drops,
        &mut st.gaps,
        &mut st.verdicts,
        &mut st.checkpoints,
    ] {
        p.int(x, "stats")?;
    }
    Ok(())
}

fn flow<'a, P: Pass<'a>>(p: &mut P, id: &mut FlowId, f: &mut FlowIngest) -> Step {
    for ip in [&mut id.src_ip, &mut id.dst_ip] {
        let mut word = u32::from_le_bytes(*ip);
        p.int(&mut word, "flow id")?;
        *ip = word.to_le_bytes();
    }
    p.int(&mut id.src_port, "flow id")?;
    p.int(&mut id.dst_port, "flow id")?;
    opt(p, &mut f.base_seq, 0, "base_seq", |p, s| {
        p.int(s, "base_seq")
    })?;
    p.int(&mut f.last_rel, "last_rel")?;
    p.int(&mut f.carry_start, "carry_start")?;
    let carry = p.bytes(f.carry.as_slice(), "carry")?;
    // A fresh flow's carry is empty, so `absorb` refuses exactly the
    // carries longer than the budget.
    if P::READS && !f.carry.absorb(carry) {
        return Err(CheckpointError::Malformed("carry"));
    }
    list(p, &mut f.marks, (0, SimTime::ZERO), "marks", |p, m| {
        p.int(&mut m.0, "marks")?;
        time(p, &mut m.1, "marks")
    })?;
    let mut parked = f.parked.len() as u32;
    p.int(&mut parked, "parked")?;
    if P::READS {
        for n in 1..=parked as usize {
            let (mut off, mut t) = (0i64, SimTime::ZERO);
            p.int(&mut off, "parked")?;
            time(p, &mut t, "parked")?;
            // Refused (over budget) or folded into an earlier copy of
            // the same offset: either way the state would not be the
            // one written.
            if !f.parked.park(off, t, p.bytes(&[], "parked")?) || f.parked.len() != n {
                return Err(CheckpointError::Malformed("parked"));
            }
        }
    } else {
        for (mut off, mut t, data) in f.parked.iter() {
            p.int(&mut off, "parked")?;
            time(p, &mut t, "parked")?;
            p.bytes(data, "parked")?;
        }
    }
    flag(p, &mut f.synced, "synced")?;
    opt_time(p, &mut f.hole_since, "hole_since")?;
    time(p, &mut f.last_record_time, "last_record_time")?;
    let s = &mut f.stats;
    for x in [
        &mut s.records,
        &mut s.gaps,
        &mut s.resyncs,
        &mut s.skipped_bytes,
        &mut s.duplicate_bytes,
        &mut s.parked_overflows,
    ] {
        p.int(x, "flow stats")?;
    }
    Ok(())
}

/// The graph-walk frontier: a variant tag, then every variant's
/// fields (zero where a variant lacks them). A frontier must name a
/// question `graph` asks.
fn phase<'a, P: Pass<'a>>(p: &mut P, frontier: &mut Frontier, graph: &StoryGraph) -> Step {
    let zero = SimTime::ZERO;
    let (mut tag, mut seg, mut cp, mut t1, mut observed, mut t1_evt) = match *frontier {
        Frontier::Seek { seg, cp } => (0u8, seg.0, cp.0, zero, false, None),
        Frontier::Open {
            seg,
            cp,
            t1,
            observed,
            t1_evt,
        } => (1, seg.0, cp.0, t1, observed, t1_evt),
        Frontier::Done => (2, 0, 0, zero, false, None),
    };
    p.int(&mut tag, "phase")?;
    p.int(&mut seg, "phase")?;
    p.int(&mut cp, "phase")?;
    time(p, &mut t1, "phase")?;
    flag(p, &mut observed, "phase")?;
    opt(p, &mut t1_evt, BLANK_READY, "t1_evt", |p, e| {
        ready(p, e, "t1_evt")
    })?;
    let (seg, cp) = (SegmentId(seg), ChoicePointId(cp));
    *frontier = match tag {
        0 => Frontier::Seek { seg, cp },
        1 => Frontier::Open {
            seg,
            cp,
            t1,
            observed,
            t1_evt,
        },
        2 => Frontier::Done,
        _ => return Err(CheckpointError::Malformed("phase")),
    };
    if !frontier.fits(graph) {
        return Err(CheckpointError::Malformed("phase"));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// base64 transport for `checkpoint_value`

const BASE64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

pub(crate) fn to_base64(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let byte = |i: usize| chunk.get(i).map_or(0, |&b| b as u32);
        let n = (byte(0) << 16) | (byte(1) << 8) | byte(2);
        for shift in [18, 12, 6, 0] {
            out.push(BASE64.get((n >> shift & 63) as usize).map_or(b'A', |&c| c));
        }
    }
    // A short last chunk leaves one or two digits of zero bits: pad.
    let keep = out.len() - (3 - bytes.len() % 3) % 3;
    out.truncate(keep);
    out.resize(bytes.len().div_ceil(3) * 4, b'=');
    String::from_utf8(out).unwrap_or_default()
}

/// Inverse of [`BASE64`]: `=` maps to 64, every other byte outside the
/// alphabet to `0xff`.
const UNBASE64: [u8; 256] = {
    let mut t = [0xffu8; 256];
    t[b'=' as usize] = 64; // wm-lint: allow(panic/index, reason = "const-evaluated")
    let mut i = 0;
    while i < 64 {
        // wm-lint: allow(panic/index, reason = "const-evaluated; i < 64, bytes < 256")
        t[BASE64[i] as usize] = i as u8;
        i += 1;
    }
    t
};

pub(crate) fn from_base64(s: &str) -> Result<Vec<u8>, CheckpointError> {
    let raw = s.as_bytes();
    let pad = raw.iter().rev().take_while(|&&c| c == b'=').count();
    let digits = raw.get(..raw.len() - pad).unwrap_or(&[]);
    if !raw.len().is_multiple_of(4) || pad > 2 || digits.contains(&b'=') {
        return Err(CheckpointError::Malformed("base64"));
    }
    let mut out = vec![0u8; raw.len() / 4 * 3];
    // Out-of-alphabet bytes map to 0xff, the only values with the top
    // bit set, so OR-ing every lookup flags them with one test.
    let mut seen = 0u8;
    for (group, dst) in raw.chunks_exact(4).zip(out.chunks_exact_mut(3)) {
        let n = group.iter().fold(0u32, |n, &c| {
            let v = UNBASE64.get(c as usize).copied().unwrap_or(0xff);
            seen |= v;
            (n << 6) | (v & 63) as u32
        });
        let [_, a, b, c] = n.to_be_bytes();
        dst.copy_from_slice(&[a, b, c]);
    }
    if seen & 0x80 != 0 {
        return Err(CheckpointError::Malformed("base64"));
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_story::bandersnatch::tiny_film;

    fn classifier() -> IntervalClassifier {
        IntervalClassifier {
            type1: (2200, 2230),
            type2: (2980, 3020),
            slack: 8,
        }
    }

    fn fresh() -> OnlineDecoder {
        OnlineDecoder::new(
            classifier(),
            Arc::new(tiny_film()),
            OnlineConfig::scaled(20),
        )
    }

    /// Recompute a patched blob's CRC, then restore it.
    fn resume_resealed(mut blob: Vec<u8>) -> Result<OnlineDecoder, CheckpointError> {
        let body = blob.len() - CRC_LEN;
        let crc = crc32(&blob[..body]);
        blob[body..].copy_from_slice(&crc.to_le_bytes());
        OnlineDecoder::resume_from_checkpoint(&blob, Arc::new(tiny_film()))
    }

    /// The checkpoint of a fresh decoder after `patch`.
    fn fresh_with(patch: impl FnOnce(&mut OnlineDecoder)) -> Vec<u8> {
        let mut dec = fresh();
        patch(&mut dec);
        dec.checkpoint()
    }

    /// [`fresh_with`], restored.
    fn restore_patched(
        patch: impl FnOnce(&mut OnlineDecoder),
    ) -> Result<OnlineDecoder, CheckpointError> {
        OnlineDecoder::resume_from_checkpoint(&fresh_with(patch), Arc::new(tiny_film()))
    }

    /// A patch that gives the decoder one flow, set up by `setup`.
    fn with_flow(setup: impl FnOnce(&mut FlowIngest)) -> impl FnOnce(&mut OnlineDecoder) {
        move |d| {
            let mut flow = FlowIngest::new();
            setup(&mut flow);
            let id = FlowId {
                src_ip: [10, 0, 0, 1],
                src_port: 50_000,
                dst_ip: [10, 0, 0, 2],
                dst_port: 443,
            };
            d.flows.insert(id, flow);
        }
    }

    #[test]
    fn checkpoint_is_deterministic() {
        let mut a = fresh();
        let mut b = fresh();
        assert_eq!(a.checkpoint(), b.checkpoint());
    }

    #[test]
    fn magic_version_length_crc_and_graph_are_validated() {
        let cp = fresh().checkpoint();
        assert_eq!(
            cp[LENGTH_AT..LENGTH_AT + 4],
            (cp.len() as u32).to_le_bytes()
        );
        let other = Arc::new(wm_story::bandersnatch::bandersnatch());
        assert_eq!(
            OnlineDecoder::resume_from_checkpoint(&cp, other).err(),
            Some(CheckpointError::GraphMismatch)
        );
        let film = || Arc::new(tiny_film());
        assert_eq!(
            OnlineDecoder::resume_from_checkpoint(b"not a blob", film()).err(),
            Some(CheckpointError::Magic)
        );
        for version in [2u16, 99] {
            let mut bumped = cp.clone();
            bumped[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                OnlineDecoder::resume_from_checkpoint(&bumped, film()).err(),
                Some(CheckpointError::Version(version))
            );
        }
        // The time scale follows magic, version, length, shard, taken
        // and the graph fingerprint; 0 is no scale at all.
        const SCALE_AT: usize = 4 + 2 + 4 + 4 + 8 + 8;
        assert_eq!(cp[SCALE_AT..SCALE_AT + 4], 20u32.to_le_bytes());
        let mut unscaled = cp.clone();
        unscaled[SCALE_AT..SCALE_AT + 4].fill(0);
        assert_eq!(
            resume_resealed(unscaled).err(),
            Some(CheckpointError::Malformed("config"))
        );
        let mut longer = cp.clone();
        longer.push(0);
        assert_eq!(
            OnlineDecoder::resume_from_checkpoint(&longer, film()).err(),
            Some(CheckpointError::Length {
                declared: cp.len(),
                actual: cp.len() + 1
            })
        );
        let mut flipped = cp.clone();
        flipped[HEADER_LEN + 20] ^= 0x10;
        assert!(matches!(
            OnlineDecoder::resume_from_checkpoint(&flipped, film()).err(),
            Some(CheckpointError::Checksum { .. })
        ));
        // A cut names the field or region it hit.
        for (cut, region) in [
            (2, "magic"),
            (HEADER_LEN - 4, "header"),
            (cp.len() - 2, "crc"),
        ] {
            let err = OnlineDecoder::resume_from_checkpoint(&cp[..cut], film()).err();
            let near = match err {
                Some(CheckpointError::Truncated { near, .. }) => near,
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            };
            assert_eq!(near, region);
        }
    }

    #[test]
    fn frontier_outside_the_graph_is_rejected() {
        // A fresh decoder's state ends with its frontier — tag:u8
        // seg:u16 cp:u16 t1:u64 observed:u8 t1_evt-tag:u8 — then the
        // prediction tag, `emitted`, `records_seen`, 15 stats and the
        // CRC: the frontier tag sits 156 bytes from the end.
        let cp = fresh().checkpoint();
        let at = cp.len() - 156;
        assert_eq!(cp[at..at + 5], [0, 0, 0, 0, 0], "Seek at segment 0, cp 0");
        let patched = |tag: u8, seg: u16, choice: u16| {
            let mut blob = cp.clone();
            blob[at] = tag;
            blob[at + 1..at + 3].copy_from_slice(&seg.to_le_bytes());
            blob[at + 3..at + 5].copy_from_slice(&choice.to_le_bytes());
            resume_resealed(blob)
        };
        // tiny_film: segment 1 asks cp 1; segment 7 is an ending.
        for (tag, seg, choice) in [
            (0, 9999, 0),
            (0, 0, 9999),
            (1, 9999, 0),
            (1, 0, 9999),
            (0, 1, 0),
            (1, 7, 2),
        ] {
            assert_eq!(
                patched(tag, seg, choice).err(),
                Some(CheckpointError::Malformed("phase")),
                "tag {tag} seg {seg} cp {choice}"
            );
        }
        // A frontier the graph does ask resumes and decodes to the end.
        for tag in [0, 1] {
            let mut dec = patched(tag, 1, 1).expect("segment 1 asks cp 1");
            assert_eq!(dec.finish().len(), 2, "tag {tag}: cp 1 and cp 2 remain");
        }
    }

    #[test]
    fn state_past_its_caps_is_malformed_not_truncated() {
        use crate::online::bounded::{ByteCarry, ParkedSegments};
        use crate::online::ingest::{MAX_CARRY_BYTES, MAX_PARKED_BYTES, MAX_PARKED_SEGMENTS};
        // The writer walks whatever the decoder holds, so a buffer
        // given a wider cap writes a CRC-valid record with more items
        // than a restored decoder can hold. At the cap it restores.
        let pending = |n: usize| {
            move |d: &mut OnlineDecoder| {
                d.pending = BoundedVec::new(n);
                for seq in 0..n as u64 {
                    let time = SimTime(seq);
                    let class = RecordClass::Other;
                    let event = PendingEvent {
                        time,
                        seq,
                        length: 100,
                        class,
                    };
                    assert!(d.pending.admit(event));
                }
            }
        };
        let cap = fresh().pending.cap();
        assert!(restore_patched(pending(cap)).is_ok());
        assert_eq!(
            restore_patched(pending(cap + 1)).err(),
            Some(CheckpointError::Malformed("pending"))
        );

        let carry = |n: usize| {
            with_flow(move |f| {
                f.carry = ByteCarry::new(n);
                assert!(f.carry.absorb(&vec![0xab; n]));
            })
        };
        assert!(restore_patched(carry(MAX_CARRY_BYTES)).is_ok());
        assert_eq!(
            restore_patched(carry(MAX_CARRY_BYTES + 1)).err(),
            Some(CheckpointError::Malformed("carry"))
        );

        let parked = |n: usize| {
            with_flow(move |f| {
                f.parked = ParkedSegments::new(MAX_PARKED_BYTES, n);
                for k in 0..n as i64 {
                    assert!(f.parked.park(100 + 10 * k, SimTime(1), &[1; 5]));
                }
            })
        };
        assert!(restore_patched(parked(MAX_PARKED_SEGMENTS)).is_ok());
        assert_eq!(
            restore_patched(parked(MAX_PARKED_SEGMENTS + 1)).err(),
            Some(CheckpointError::Malformed("parked"))
        );

        // Two parked segments at one offset: restoring would keep one.
        let mut blob = fresh_with(parked(2));
        let segment = |off: i64| {
            let mut bytes = off.to_le_bytes().to_vec();
            bytes.extend_from_slice(&1u64.to_le_bytes());
            bytes.extend_from_slice(&5u32.to_le_bytes());
            bytes.extend_from_slice(&[1; 5]);
            bytes
        };
        let second = segment(110);
        let at = blob
            .windows(second.len())
            .position(|w| w == second.as_slice())
            .expect("the second parked segment is in the record");
        blob[at..at + 8].copy_from_slice(&100i64.to_le_bytes());
        assert_eq!(
            resume_resealed(blob).err(),
            Some(CheckpointError::Malformed("parked"))
        );
    }

    #[test]
    fn records_split_and_reseal_by_byte_ranges() {
        let graph = Arc::new(tiny_film());
        let header = BlobHeader {
            shard: 3,
            taken: SimTime(77),
            graph_fp: graph_fingerprint(&graph),
            cfg: OnlineConfig::scaled(20),
            classifier: classifier(),
        };
        let empty = BlobWriter::new(&header, 0).finish();
        assert_eq!(empty.len(), 44 + CRC_LEN, "a 44-byte header, then the CRC");
        let mut w = BlobWriter::new(&header, 0);
        for victim in [2u32, 5, 9] {
            w.push_decoder(victim, SimTime(victim as u64 * 10), &mut fresh());
        }
        let blob = w.finish();
        let parsed = Blob::parse(&blob).unwrap();
        assert_eq!((parsed.header.shard, parsed.header.taken), (3, SimTime(77)));
        assert_eq!(parsed.header.cfg, header.cfg);
        let victims = |b: &Blob<'_>| b.records.iter().map(|r| r.victim).collect::<Vec<_>>();
        assert_eq!(victims(&parsed), [2, 5, 9]);
        // Re-sealing the same records reproduces the blob; splicing
        // inserts a new victim in order while `keep` drops another,
        // and the carried records are the same bytes.
        assert_eq!(parsed.reseal(|_| true, Some(parsed.records[1])), blob);
        let mut framed = parsed.records[1].bytes.to_vec();
        framed[4..8].copy_from_slice(&7u32.to_le_bytes());
        let moved = split_records(&framed, 0).unwrap()[0];
        let spliced = parsed.reseal(|v| v != 9, Some(moved));
        let spliced = Blob::parse(&spliced).unwrap();
        assert_eq!(victims(&spliced), [2, 5, 7]);
        assert_eq!(spliced.records[0].bytes, parsed.records[0].bytes);
        let dec = restore_record(&spliced.records[2], &header.classifier, &header.cfg, graph);
        assert_eq!(dec.unwrap().stats().resumes, 1);
        // Out-of-order records are rejected.
        let mut w = BlobWriter::new(&header, 0);
        w.push_record(parsed.records[1].bytes);
        w.push_record(parsed.records[0].bytes);
        assert_eq!(
            Blob::parse(&w.finish()).err(),
            Some(CheckpointError::Malformed("victim order"))
        );
    }

    #[test]
    fn base64_transport_roundtrips() {
        for len in 0..8 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 97 + 200) as u8).collect();
            assert_eq!(from_base64(&to_base64(&bytes)).unwrap(), bytes);
        }
        assert_eq!(to_base64(b"Man"), "TWFu");
        assert_eq!(to_base64(b"Ma"), "TWE=");
        for bad in ["TWF", "TW=u", "TWE=TWFu", "T!Fu", "T==="] {
            assert!(from_base64(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn graph_fingerprint_separates_films() {
        assert_ne!(
            graph_fingerprint(&tiny_film()),
            graph_fingerprint(&wm_story::bandersnatch::bandersnatch())
        );
    }
}
