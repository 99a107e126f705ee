//! The streaming (online) White Mirror decoder.
//!
//! The offline attack ([`crate::WhiteMirror`]) decodes a finished
//! capture in one pass. [`OnlineDecoder`] drives the crate's path
//! decoder (`decode::PathDecoder`, width 1) — the same timing model,
//! report stream (`decode::ReportStream`: record numbering, duplicate
//! suppression, anchor) and evidence resolver (`provenance::resolve`)
//! the offline greedy decode uses —
//! incrementally, against packets as the tap delivers them, in memory
//! bounded by constant budgets ([`STATE_BOUND`]) rather than session
//! length. On a clean in-order capture its verdict stream is
//! byte-for-byte the offline greedy decode.
//!
//! The central discipline is a **watermark**: the capture time below
//! which the event stream is *final*. It trails the newest packet by
//! the reorder allowance and never passes a flow that still holds a
//! record in reassembly. Classified report events sit in a small
//! sorted pending buffer until the watermark passes them, then
//! finalize — dedup, ordering, anchor estimation — exactly once. The
//! path decoder reads the finalized events with the watermark as its
//! horizon, so it only commits to a verdict when the watermark proves
//! no earlier-timed evidence can still arrive: a verdict, once
//! emitted, is never retracted.
//!
//! The decoder steps only when something it reads can have changed.
//! An undecided step reports its wake: the earliest time whose passing
//! could decide it (a seek deadline, a window close, the anchor's
//! second record). Until an event finalizes or the watermark passes
//! the wake, a packet skips the step — the fleet supervisor's tick
//! deadline, one layer down; `finish` always steps. The wake is
//! derived and never checkpointed, so a restored decoder steps on its
//! first packet.
//!
//! Crash recovery: [`OnlineDecoder::checkpoint`] serializes the whole
//! decoder — ingest carries, pending/ready events, the path frontier,
//! classifier calibration — into a compact, versioned, CRC-sealed
//! binary blob on a fixed record cadence, and
//! [`OnlineDecoder::resume_from_checkpoint`] restores it. Replaying
//! the packets after the checkpoint yields the uninterrupted verdict
//! stream with zero duplicates; packets lost between checkpoint and
//! restart surface as explicit loss windows ([`OnlineDecoder::loss_windows`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::classify::RecordClassifier;
use crate::decode::{PathDecoder, ReportStream};
use crate::online::bounded::{Batch, BoundedVec};
use crate::online::ingest::{is_upstream, FlowIngest, GapEvent, PER_FLOW_STATE_BOUND};
use crate::provenance::{resolve, ChoiceProvenance};
use crate::{Decision, DecodedChoice, IntervalClassifier, ReportEvent, Timing};
use wm_capture::headers::{parse_frame_lossy, FlowId};
use wm_capture::time::{Duration, SimTime};
use wm_capture::{ContentType, RecordClass, TimedRecord};
use wm_story::{Choice, StoryGraph};
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Histogram, Registry};

/// The online decoder's one setting: the time scale the session plays
/// at, which an attacker reads off the chunk cadence. Every window,
/// gap and slack follows from it; every buffer the decoder grows has a
/// constant cap, so resident memory stays under [`STATE_BOUND`]
/// whatever the session length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineConfig {
    /// Time scale the session plays at (1 = real time).
    pub time_scale: u32,
}

/// Checkpoint cadence, in extracted TLS records.
const CHECKPOINT_EVERY_RECORDS: u64 = 64;
/// Concurrent upstream flows tracked (new flows drop beyond this).
pub(crate) const MAX_FLOWS: usize = 8;
/// Classified events awaiting watermark finality.
const MAX_PENDING_EVENTS: usize = 512;
/// Finalized report events awaiting the path decoder.
const MAX_READY_EVENTS: usize = 256;
/// Recent application records kept for anchor provenance.
const MAX_RECENT_APPS: usize = 32;
/// Capture-gap markers kept for confidence discounting.
const MAX_GAP_TIMES: usize = 64;
/// Loss windows retained for reporting.
const MAX_LOSS_WINDOWS: usize = 64;

/// Upper bound on [`OnlineDecoder::state_bytes`]: the per-flow
/// reassembly budgets plus every event cap, with generous per-entry
/// allowances. Deliberately loose — its value is that it is a constant
/// while traffic volume is unbounded. The soak suite, the kill/resume
/// tests and the fleet supervisor all budget against it.
pub const STATE_BOUND: usize = MAX_FLOWS * PER_FLOW_STATE_BOUND
    + (MAX_PENDING_EVENTS + MAX_READY_EVENTS + MAX_RECENT_APPS + MAX_GAP_TIMES + MAX_LOSS_WINDOWS)
        * 256
    + 64 * 1024;

/// What [`OnlineDecoder::state_bytes`] counts for the decoder's own
/// fields: a fixed allowance, so the figure (which fleet stats report
/// and pin) does not move with the struct's layout. A unit test keeps
/// it at or above the real size.
const DECODER_FIXED_BYTES: usize = 1032;

impl OnlineConfig {
    /// Configuration for a session simulated at `time_scale`.
    pub fn scaled(time_scale: u32) -> Self {
        OnlineConfig {
            time_scale: time_scale.max(1),
        }
    }

    /// How far the watermark trails the newest packet: the reorder
    /// window the capture path may shuffle packets within.
    fn reorder_lag(&self) -> Duration {
        Duration::from_secs_f64(0.25 / self.time_scale.max(1) as f64)
    }

    /// How long a reassembly hole may stall a flow before it is
    /// declared lost and decoding resumes past it.
    fn gap_patience(&self) -> Duration {
        Duration::from_secs_f64(0.5 / self.time_scale.max(1) as f64)
    }
}

/// One verdict emitted while the session plays: the decoded choice
/// plus the same provenance the offline pipeline attaches.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineVerdict {
    /// Position in the verdict stream (0-based, contiguous).
    pub index: u64,
    pub choice: DecodedChoice,
    pub provenance: ChoiceProvenance,
}

/// Engine counters (all monotonic; aggregated over all flows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStats {
    pub packets: u64,
    pub segments: u64,
    /// Segments whose capture was snaplen-clipped (payload truncated).
    pub truncated_segments: u64,
    pub records: u64,
    pub non_app_records: u64,
    /// Classified type-1/type-2 events (pre-dedup).
    pub report_events: u64,
    pub deduped_events: u64,
    /// Records that arrived with a timestamp below the watermark.
    pub late_events: u64,
    /// Pending events finalized early because the buffer filled.
    pub pending_force_finalized: u64,
    /// Ready events evicted unconsumed because the buffer filled.
    pub ready_evictions: u64,
    pub flows: u64,
    /// Segments dropped because the flow table was full.
    pub flow_overflow_drops: u64,
    pub gaps: u64,
    pub verdicts: u64,
    pub checkpoints: u64,
    pub resumes: u64,
}

/// A classified record awaiting watermark finality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingEvent {
    pub(crate) time: SimTime,
    /// Admission order, tie-breaking equal timestamps deterministically.
    pub(crate) seq: u64,
    pub(crate) length: u16,
    pub(crate) class: RecordClass,
}

/// Telemetry counters the engine publishes to when attached.
///
/// The hot path never touches these: per-event counts accumulate in
/// the plain-integer [`OnlineStats`] the decoder maintains anyway, and
/// [`OnlineDecoder::flush_telemetry`] publishes the delta since
/// `flushed` at deterministic boundaries (checkpoint, finish, observer
/// tick). One batch of atomic adds per flush replaces one atomic RMW
/// per packet/record, which keeps the metrics-plane overhead on the
/// decode path within the ≤ 5% budget.
struct OnlineTelemetry {
    packets: Arc<Counter>,
    records: Arc<Counter>,
    verdicts: Arc<Counter>,
    gaps: Arc<Counter>,
    late_events: Arc<Counter>,
    checkpoints: Arc<Counter>,
    resumes: Arc<Counter>,
    /// Per-checkpoint gauge: `state_bytes × 100 / state_bound` — how
    /// close the decoder sits to its configured memory ceiling.
    checkpoint_state_util_pct: Arc<Histogram>,
    /// Per-checkpoint gauge: records ingested since the previous
    /// checkpoint — staleness relative to the configured cadence.
    checkpoint_staleness_records: Arc<Histogram>,
    /// Stats already published; the next flush adds `stats - flushed`.
    flushed: OnlineStats,
}

impl OnlineTelemetry {
    fn from_registry(reg: &Registry, baseline: OnlineStats) -> Self {
        OnlineTelemetry {
            packets: reg.counter("online.packets"),
            records: reg.counter("online.records"),
            verdicts: reg.counter("online.verdicts"),
            gaps: reg.counter("online.gaps"),
            late_events: reg.counter("online.late_events"),
            checkpoints: reg.counter("online.checkpoints"),
            resumes: reg.counter("online.resumes"),
            checkpoint_state_util_pct: reg.histogram("online.checkpoint.state_util_pct"),
            checkpoint_staleness_records: reg.histogram("online.checkpoint.staleness_records"),
            flushed: baseline,
        }
    }
}

/// The streaming decoder. Feed it captured frames with
/// [`OnlineDecoder::push_packet`]; it emits [`OnlineVerdict`]s as the
/// watermark makes each choice decidable, and [`OnlineDecoder::finish`]
/// resolves whatever the end of the capture leaves open.
pub struct OnlineDecoder {
    pub(crate) cfg: OnlineConfig,
    /// [`OnlineConfig`]'s reorder lag and gap patience, derived once.
    reorder_lag: Duration,
    gap_patience: Duration,
    pub(crate) graph: Arc<StoryGraph>,
    pub(crate) classifier: IntervalClassifier,

    // -- clock --
    pub(crate) max_seen: SimTime,
    pub(crate) watermark: SimTime,
    pub(crate) finishing: bool,

    // -- reassembly --
    pub(crate) flows: BTreeMap<FlowId, FlowIngest>,

    // -- event stream --
    pub(crate) admit_seq: u64,
    pub(crate) pending: BoundedVec<PendingEvent>,
    pub(crate) ready: BoundedVec<ReportEvent>,
    pub(crate) reports: ReportStream,
    pub(crate) recent_apps: BoundedVec<(u64, SimTime, u16)>,
    pub(crate) gap_times: BoundedVec<SimTime>,
    pub(crate) loss_windows: BoundedVec<(SimTime, SimTime)>,

    // -- decode frontier --
    pub(crate) path: PathDecoder,
    pub(crate) emitted: u64,
    /// The last undecided step's wake ([`PathDecoder::step`]); `None`
    /// once an event finalizes. Derived, so never checkpointed: a
    /// restored decoder steps on its first packet.
    wake: Option<SimTime>,

    // -- checkpoint cadence --
    pub(crate) records_seen: u64,
    pub(crate) records_at_checkpoint: u64,

    // -- per-call scratch: cleared on every use, never part of decoder
    //    state (checkpoints ignore it). Bounded by one push's record
    //    yield, which the ingest budgets cap.
    admit_scratch: Batch<TimedRecord>,
    len_scratch: Batch<u16>,
    class_scratch: Vec<RecordClass>,

    pub(crate) stats: OnlineStats,
    telemetry: Option<OnlineTelemetry>,
    trace: Option<(TraceHandle, SpanId)>,
}

impl OnlineDecoder {
    pub fn new(classifier: IntervalClassifier, graph: Arc<StoryGraph>, cfg: OnlineConfig) -> Self {
        let path = PathDecoder::new(&graph, Timing::new(&graph, cfg.time_scale), 1);
        OnlineDecoder {
            path,
            reorder_lag: cfg.reorder_lag(),
            gap_patience: cfg.gap_patience(),
            classifier,
            max_seen: SimTime::ZERO,
            watermark: SimTime::ZERO,
            finishing: false,
            flows: BTreeMap::new(),
            admit_seq: 0,
            pending: BoundedVec::new(MAX_PENDING_EVENTS),
            ready: BoundedVec::new(MAX_READY_EVENTS),
            reports: ReportStream::default(),
            recent_apps: BoundedVec::new(MAX_RECENT_APPS),
            gap_times: BoundedVec::new(MAX_GAP_TIMES),
            loss_windows: BoundedVec::new(MAX_LOSS_WINDOWS),
            emitted: 0,
            wake: None,
            records_seen: 0,
            records_at_checkpoint: 0,
            admit_scratch: Batch::new(),
            len_scratch: Batch::new(),
            class_scratch: Vec::new(),
            stats: OnlineStats::default(),
            telemetry: None,
            trace: None,
            graph,
            cfg,
        }
    }

    /// Attach telemetry counters (`online.*`) to `registry`. Events
    /// counted before the attach stay out of the registry: the flush
    /// baseline is the stats as of this call.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(OnlineTelemetry::from_registry(registry, self.stats));
    }

    /// Publish every event counted since the last flush into the
    /// attached registry (no-op when none is). Called automatically at
    /// checkpoint and finish; supervisors observing mid-stream call it
    /// right before snapshotting so tick values are exact.
    pub fn flush_telemetry(&mut self) {
        let Some(t) = &mut self.telemetry else { return };
        let s = self.stats;
        let f = t.flushed;
        t.packets.add(s.packets.saturating_sub(f.packets));
        t.records.add(s.records.saturating_sub(f.records));
        t.verdicts.add(s.verdicts.saturating_sub(f.verdicts));
        t.gaps.add(s.gaps.saturating_sub(f.gaps));
        t.late_events
            .add(s.late_events.saturating_sub(f.late_events));
        t.checkpoints
            .add(s.checkpoints.saturating_sub(f.checkpoints));
        t.resumes.add(s.resumes.saturating_sub(f.resumes));
        t.flushed = s;
    }

    /// Attach a trace recorder; verdicts and gaps emit instants under
    /// `parent`.
    pub fn attach_trace(&mut self, handle: TraceHandle, parent: SpanId) {
        self.trace = Some((handle, parent));
    }

    pub fn stats(&self) -> OnlineStats {
        self.stats
    }

    /// Loss windows declared so far: spans of capture time where
    /// reassembly skipped data (tap loss, impairment, or a crash gap
    /// between checkpoint and resume). Verdicts whose choice window
    /// overlaps one of these carry degraded confidence.
    pub fn loss_windows(&self) -> &[(SimTime, SimTime)] {
        self.loss_windows.as_slice()
    }

    /// The finality horizon: all evidence timed below this is decided.
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    /// Whether the graph walk has reached an ending.
    pub fn is_done(&self) -> bool {
        self.path.is_done()
    }

    /// True when the record cadence since the last checkpoint has been
    /// reached — callers own checkpoint scheduling and persistence.
    pub fn checkpoint_due(&self) -> bool {
        self.records_seen.saturating_sub(self.records_at_checkpoint) >= CHECKPOINT_EVERY_RECORDS
    }

    /// Approximate resident state in bytes (buffers + fixed fields).
    /// Bounded by [`STATE_BOUND`]: independent of how much traffic has
    /// been pushed.
    pub fn state_bytes(&self) -> usize {
        let flows: usize = self.flows.values().map(|f| f.state_bytes()).sum();
        flows
            + self.pending.len() * std::mem::size_of::<PendingEvent>()
            + self.ready.len() * std::mem::size_of::<ReportEvent>()
            + self.recent_apps.len() * std::mem::size_of::<(u64, SimTime, u16)>()
            + self.gap_times.len() * std::mem::size_of::<SimTime>()
            + self.loss_windows.len() * std::mem::size_of::<(SimTime, SimTime)>()
            + DECODER_FIXED_BYTES
    }

    /// Feed one captured frame. Returns the verdicts this packet made
    /// decidable (usually none; one or more around choice windows).
    // wm-lint: parse-root
    pub fn push_packet(&mut self, time: SimTime, frame: &[u8]) -> Vec<OnlineVerdict> {
        self.stats.packets = self.stats.packets.saturating_add(1);
        if time > self.max_seen {
            self.max_seen = time;
        }
        let mut recs = Batch::new();
        let mut gaps = Batch::new();
        if let Some((flow, tcp, payload, missing)) = parse_frame_lossy(frame) {
            if is_upstream(&flow, payload) {
                self.stats.segments = self.stats.segments.saturating_add(1);
                if missing > 0 {
                    self.stats.truncated_segments = self.stats.truncated_segments.saturating_add(1);
                }
                if self.flows.contains_key(&flow) || self.flows.len() < MAX_FLOWS {
                    let ingest = self.flows.entry(flow).or_default();
                    ingest.accept_segment(time, tcp.seq, payload, &mut recs, &mut gaps);
                    self.stats.flows = self.flows.len() as u64;
                } else {
                    self.stats.flow_overflow_drops =
                        self.stats.flow_overflow_drops.saturating_add(1);
                }
            }
        }
        // Age out reassembly holes across all flows.
        let now = self.max_seen;
        let patience = self.gap_patience;
        for ingest in self.flows.values_mut() {
            ingest.flush(now, patience, &mut recs, &mut gaps);
        }
        self.note_gaps(gaps);
        self.note_records(recs);
        let mut out = Batch::new();
        self.advance(&mut out);
        out.into_vec()
    }

    /// End of capture: every outstanding hole is declared, all pending
    /// evidence finalizes, and the remaining graph walk resolves (on
    /// timing alone where the stream ran dry).
    pub fn finish(&mut self) -> Vec<OnlineVerdict> {
        let mut recs = Batch::new();
        let mut gaps = Batch::new();
        for ingest in self.flows.values_mut() {
            ingest.finish(&mut recs, &mut gaps);
        }
        self.note_gaps(gaps);
        self.note_records(recs);
        self.finishing = true;
        let mut out = Batch::new();
        self.advance(&mut out);
        self.flush_telemetry();
        out.into_vec()
    }

    // -- event admission ----------------------------------------------

    fn note_gaps(&mut self, gaps: Batch<GapEvent>) {
        for g in gaps.into_vec() {
            self.stats.gaps = self.stats.gaps.saturating_add(1);
            self.gap_times.admit_evict(g.resume_time);
            self.loss_windows.admit_evict((g.last_time, g.resume_time));
            if let Some((h, parent)) = &self.trace {
                h.instant_at(
                    g.resume_time.micros(),
                    *parent,
                    "online.gap",
                    g.last_time.micros(),
                    g.resume_time.micros(),
                );
            }
        }
    }

    fn note_records(&mut self, recs: Batch<TimedRecord>) {
        if recs.is_empty() {
            return;
        }
        // Two passes: admission filtering first, then one batch
        // classification over the survivors' contiguous length array —
        // the dominant classifier runs its branch-lean kernel instead
        // of a per-record virtual call. The scratch buffers are taken
        // out of `self` for the duration to keep the borrow on the
        // pending queue disjoint.
        let mut admitted = std::mem::take(&mut self.admit_scratch);
        let mut lengths = std::mem::take(&mut self.len_scratch);
        let mut classes = std::mem::take(&mut self.class_scratch);
        admitted.clear();
        lengths.clear();
        classes.clear();
        for r in recs.into_vec() {
            self.stats.records = self.stats.records.saturating_add(1);
            self.records_seen = self.records_seen.saturating_add(1);
            if r.record.content_type != ContentType::ApplicationData {
                self.stats.non_app_records = self.stats.non_app_records.saturating_add(1);
                continue;
            }
            if r.time < self.watermark {
                // Finality was already declared past this timestamp;
                // admitting it would reorder decided evidence.
                self.stats.late_events = self.stats.late_events.saturating_add(1);
                continue;
            }
            admitted.put(r);
            lengths.put(r.record.length);
        }
        self.classifier
            .classify_lengths(lengths.as_slice(), &mut classes);
        for (r, &class) in admitted.as_slice().iter().zip(classes.iter()) {
            let ev = PendingEvent {
                time: r.time,
                seq: self.admit_seq,
                length: r.record.length,
                class,
            };
            self.admit_seq = self.admit_seq.saturating_add(1);
            if self.pending.len() >= self.pending.cap() {
                // Make room by finalizing the oldest early — it is the
                // next to finalize anyway; only its finality guarantee
                // is weakened, and only under pathological event rates.
                if let Some(old) = self.pending.pop_front() {
                    self.stats.pending_force_finalized =
                        self.stats.pending_force_finalized.saturating_add(1);
                    self.finalize(old);
                }
            }
            self.pending.admit_sorted_by_key(ev, |e| (e.time, e.seq));
        }
        self.admit_scratch = admitted;
        self.len_scratch = lengths;
        self.class_scratch = classes;
    }

    /// An event's timestamp became final: admit it to the report
    /// stream (its application-record index, the anchor estimate,
    /// dedup), and queue a kept report for the path decoder.
    fn finalize(&mut self, e: PendingEvent) {
        self.wake = None;
        let timing = self.path.timing();
        let (index, kept) = self.reports.admit(timing, e.time, e.length, e.class);
        self.recent_apps.admit_evict((index, e.time, e.length));
        if e.class == RecordClass::Other {
            return;
        }
        self.stats.report_events = self.stats.report_events.saturating_add(1);
        let Some(event) = kept else {
            self.stats.deduped_events = self.stats.deduped_events.saturating_add(1);
            return;
        };
        if self.ready.len() >= self.ready.cap() {
            // The path decoder is far behind the event stream; shed
            // the oldest (it is the least likely to still be wanted).
            self.ready.pop_front();
            self.path.rebase(1);
            self.stats.ready_evictions = self.stats.ready_evictions.saturating_add(1);
        }
        self.ready.admit(event);
    }

    // -- the decode loop ----------------------------------------------

    fn advance(&mut self, out: &mut Batch<OnlineVerdict>) {
        // 1. Advance the watermark: trail the newest capture time by
        //    the reorder allowance, but never pass a flow still
        //    holding bytes of an unfinished record (unless it has
        //    stalled past any plausible recovery).
        let lagged = SimTime(self.max_seen.0.saturating_sub(self.reorder_lag.micros()));
        let mut target = lagged;
        let stall = Duration(
            self.gap_patience
                .micros()
                .saturating_add(self.reorder_lag.micros()),
        );
        for ingest in self.flows.values() {
            if let Some(f) = ingest.frontier() {
                if self.max_seen.since(f) <= stall {
                    target = target.min(f);
                }
            }
        }
        if target > self.watermark {
            self.watermark = target;
        }
        // 2. Finalize pending events the watermark has passed.
        while self
            .pending
            .first()
            .is_some_and(|e| self.finishing || e.time < self.watermark)
        {
            if let Some(e) = self.pending.pop_front() {
                self.finalize(e);
            }
        }
        // 3. Step the path decoder until the evidence stops deciding —
        //    unless no event finalized since it last stopped and the
        //    watermark has not passed that stop's wake: the step would
        //    come back undecided again.
        if !self.finishing && self.wake.is_some_and(|w| self.watermark <= w) {
            return;
        }
        let horizon = (!self.finishing).then_some(self.watermark);
        let anchor = self.reports.anchor(self.path.timing(), horizon);
        loop {
            let step = self
                .path
                .step(&self.graph, self.ready.as_slice(), anchor, horizon);
            let d = match step {
                Ok(d) => d,
                Err(wake) => {
                    self.wake = Some(wake);
                    return;
                }
            };
            self.emit(out, d);
            // The walk never revisits evidence at or before this question.
            let t1 = d.choice.time;
            let mut dropped = 0usize;
            while self.ready.first().is_some_and(|e| e.time <= t1) {
                self.ready.pop_front();
                dropped += 1;
            }
            self.path.rebase(dropped);
            // Gap markers too old to overlap any future choice window.
            let window = self.path.timing().window;
            self.gap_times.keep(|&g| g + window >= t1);
        }
    }

    /// Resolve one choice ([`crate::provenance::resolve`], the rule
    /// the offline attack uses, with the recent application records as
    /// anchor candidates) and emit it.
    fn emit(&mut self, out: &mut Batch<OnlineVerdict>, d: Decision) {
        let (choice, provenance) = resolve(
            &d,
            self.gap_times.iter().copied(),
            self.path.timing().window,
            self.recent_apps.iter().copied(),
        );
        let t1 = choice.time;
        if let Some((h, parent)) = &self.trace {
            h.instant_at(
                t1.micros(),
                *parent,
                "online.verdict",
                choice.cp.0 as u64,
                (((choice.choice == Choice::NonDefault) as u64) << 8)
                    | provenance.records.len() as u64,
            );
        }
        self.stats.verdicts = self.stats.verdicts.saturating_add(1);
        let index = self.emitted;
        self.emitted = self.emitted.saturating_add(1);
        out.put(OnlineVerdict {
            index,
            choice,
            provenance,
        });
    }

    // -- checkpointing ------------------------------------------------

    /// Serialize the full decoder state into a compact, versioned,
    /// checksummed blob: the one-record form of the shard checkpoint
    /// layout (see [`crate::online::checkpoint`]). Resets the cadence clock.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        let header = crate::online::checkpoint::BlobHeader {
            shard: 0,
            taken: SimTime::ZERO,
            graph_fp: crate::online::checkpoint::graph_fingerprint(&self.graph),
            cfg: self.cfg.clone(),
            classifier: self.classifier.clone(),
        };
        // `state_bytes` runs two to three times the sealed record, so
        // pushing the record does not regrow the buffer.
        let mut blob = crate::online::checkpoint::BlobWriter::new(&header, self.state_bytes());
        blob.push_decoder(0, SimTime::ZERO, self);
        blob.finish()
    }

    /// Shard-scoped checkpoint: append this decoder to `out` as one
    /// framed record for `victim` (last seen at `seen`), without the
    /// header a shard blob writes once for all its records. Resets the
    /// cadence clock exactly like [`OnlineDecoder::checkpoint`].
    pub fn checkpoint_record(&mut self, victim: u32, seen: SimTime, out: &mut Vec<u8>) {
        self.record_checkpoint_gauges();
        self.records_at_checkpoint = self.records_seen;
        self.stats.checkpoints = self.stats.checkpoints.saturating_add(1);
        self.flush_telemetry();
        crate::online::checkpoint::encode_record(self, victim, seen, out);
    }

    /// [`OnlineDecoder::checkpoint`] carried as a base64 string inside
    /// a [`wm_json::Value`], for callers that move checkpoints through
    /// JSON documents. The blob is the only codec; this only wraps it.
    pub fn checkpoint_value(&mut self) -> wm_json::Value {
        wm_json::Value::from(crate::online::checkpoint::to_base64(&self.checkpoint()))
    }

    /// Health gauges observed at every checkpoint, before the cadence
    /// clock resets: state-bound utilization and records-since-last-
    /// checkpoint. Both derive from simulation state only, so they are
    /// deterministic per seed (unlike the `*_ns` timing histograms).
    fn record_checkpoint_gauges(&self) {
        let Some(t) = &self.telemetry else { return };
        let bound = STATE_BOUND as u64;
        t.checkpoint_state_util_pct
            .record(self.state_bytes() as u64 * 100 / bound);
        t.checkpoint_staleness_records
            .record(self.records_seen.saturating_sub(self.records_at_checkpoint));
    }

    /// Restore a decoder from a value produced by
    /// [`OnlineDecoder::checkpoint_value`].
    pub fn resume_from_value(
        value: &wm_json::Value,
        graph: Arc<StoryGraph>,
    ) -> Result<Self, crate::online::checkpoint::CheckpointError> {
        let text = value
            .as_str()
            .ok_or(crate::online::checkpoint::CheckpointError::Malformed(
                "value",
            ))?;
        Self::resume_from_checkpoint(&crate::online::checkpoint::from_base64(text)?, graph)
    }

    /// Restore a decoder from a checkpoint taken by
    /// [`OnlineDecoder::checkpoint`]. The graph must be the one the
    /// checkpointed decoder walked (validated by fingerprint).
    /// Telemetry/trace attachments do not survive; re-attach after
    /// resuming.
    // wm-lint: parse-root
    pub fn resume_from_checkpoint(
        bytes: &[u8],
        graph: Arc<StoryGraph>,
    ) -> Result<Self, crate::online::checkpoint::CheckpointError> {
        crate::online::checkpoint::decode(bytes, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_allowance_covers_the_struct() {
        assert!(std::mem::size_of::<OnlineDecoder>() <= DECODER_FIXED_BYTES);
    }
}
