//! Choice-sequence decoding from classified record events.
//!
//! The insight from §III of the paper: "the number and type of JSON
//! files sent indicate the choice made by the viewer". Concretely, at
//! every choice point the client emits one type-1 report (question
//! shown), and — iff the pick was non-default — one type-2 report
//! within the ten-second window. The naive decoder walks the
//! classified event stream:
//!
//! * each type-1 event opens a choice;
//! * a type-2 event inside the window resolves it non-default;
//! * the window closing (the next type-1, or timeout) resolves default.
//!
//! The path decoder (`PathDecoder`) additionally predicts when each
//! question should appear — the story graph's segment durations are
//! public, and the question always precedes a segment boundary by the
//! fixed window — and places a question on timing alone when its
//! type-1 report was lost (tap loss or a flush split). Without that, one missed report
//! desynchronizes every later decision.
//!
//! The path decoder keeps `width` hypotheses: paths through the graph,
//! each scored by how well the events support it —
//!
//! * a type-1 report where the path predicts a question is strong
//!   support; a missing one is mild evidence against;
//! * a type-2 report inside the window supports the non-default branch
//!   and contradicts the default one;
//! * type-1 reports a path leaves unexplained at the end count against
//!   it.
//!
//! Width 1 is the greedy decoder: it commits each decision as it
//! steps. Wider, competing hypotheses keep both branches of a corrupted
//! report alive until later question timings disambiguate them, and
//! the best path is committed at the end — the "joint decoding"
//! upgrade of the paper's per-choice rule, whose gain E8 measures.
//! With evidence intact every width decodes the same path.
//!
//! The decoder reads a caller-owned slice of [`ReportEvent`]s up to a
//! horizon below which the slice is final, and steps a hypothesis past
//! a question only once the events or the horizon decide it; when
//! neither does, it names the horizon that would (its wake). The
//! offline attack hands it a finished capture; the streaming decoder
//! ([`crate::online`]) drives it at width 1 as its watermark advances,
//! skipping the step until a new event arrives or the watermark
//! passes the wake.

use crate::classify::RecordClassifier;
use crate::features::ClientFeatures;
use crate::provenance::{resolve, ChoiceProvenance};
use wm_capture::labels::RecordClass;
use wm_capture::records::TimedRecord;
use wm_capture::time::{Duration, SimTime};
use wm_capture::ContentType;
use wm_story::{Choice, ChoicePointId, SegmentEnd, SegmentId, StoryGraph};

/// The film's choice window, content seconds (public knowledge).
pub const WINDOW_SECS: f64 = 10.0;

/// Decoder tunables.
#[derive(Debug, Clone)]
pub struct DecoderConfig {
    /// Time-aware mode: use segment durations to detect missed
    /// questions (recommended; `false` gives the naive event decoder).
    pub time_aware: bool,
    /// The time scale the session was simulated at (1 for real time; an
    /// attacker reads it off the chunk cadence trivially).
    pub time_scale: u32,
}

impl DecoderConfig {
    /// Configuration for a session simulated at `time_scale`.
    pub fn scaled(time_scale: u32) -> Self {
        DecoderConfig {
            time_aware: true,
            time_scale: time_scale.max(1),
        }
    }
}

/// One decoded decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodedChoice {
    pub cp: ChoicePointId,
    pub choice: Choice,
    /// Time of the type-1 event (or the predicted question time if the
    /// report was missed).
    pub time: SimTime,
    /// Whether the question's type-1 report was actually observed.
    pub observed: bool,
    /// How much the evidence supports this decision, in `[0, 1]`.
    /// Observed reports decode at full confidence; inferred decisions
    /// start lower, and capture gaps overlapping the choice window
    /// downgrade it further (see `provenance::resolve`).
    pub confidence: f64,
}

/// Confidence of a decision whose type-1 report was directly observed.
pub const CONFIDENCE_OBSERVED: f64 = 1.0;
/// Confidence of a decision inferred from timing alone (report lost).
pub const CONFIDENCE_INFERRED: f64 = 0.55;
/// Confidence when the event stream ran out entirely (blind fill).
pub const CONFIDENCE_BLIND: f64 = 0.2;

/// Path scores (balanced so contributions centre on zero).
const SCORE_T1_OBSERVED: f64 = 1.0;
const SCORE_T1_MISSING: f64 = -0.4;
const SCORE_T2_MATCH: f64 = 0.8;
const SCORE_T2_MISMATCH: f64 = -0.8;
const SCORE_UNEXPLAINED_EVENT: f64 = -1.0;

/// One client application record the classifier read as a state
/// report: the unit the decoders consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportEvent {
    pub time: SimTime,
    /// Index into the capture's application-record stream (the
    /// numbering provenance cites).
    pub index: u64,
    pub length: u16,
    pub class: RecordClass,
}

/// The timing model: every duration the decoders derive from the
/// public story graph and the time scale, computed once.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    scale: f64,
    /// Same-class reports closer than this are one report sent twice.
    dedup: Duration,
    /// Match tolerance around a predicted question time.
    slack: Duration,
    /// The first question's tolerance, around the playback anchor.
    first_slack: Duration,
    /// The film's choice window at this time scale.
    pub window: Duration,
    /// Playback start to the first question.
    initial_gap: Duration,
}

impl Timing {
    pub fn new(graph: &StoryGraph, time_scale: u32) -> Self {
        let scale = time_scale.max(1) as f64;
        let min_gap = min_question_gap_secs(graph);
        // Question times are tightly determined by the public segment
        // durations (sub-second residuals in practice), so a tight
        // slack both rejects neighbouring questions and lets timing
        // distinguish branches whose next-question gaps differ. Capped
        // by half the shortest gap for short films.
        let slack = Duration::from_secs_f64((min_gap / 2.0).clamp(1.0, 5.0) / scale);
        Timing {
            scale,
            // Retried or duplicated state POSTs repeat a report class
            // well inside the question-to-question gap.
            dedup: Duration::from_secs_f64((min_gap / 3.0).clamp(0.5, 2.0) / scale),
            slack,
            // The anchor estimate carries the manifest RTT's
            // uncertainty; later predictions re-anchor on observed
            // report times.
            first_slack: Duration(slack.micros() * 3),
            window: Duration::from_secs_f64(WINDOW_SECS / scale),
            initial_gap: Duration::from_secs_f64(initial_gap_secs(graph) / scale),
        }
    }

    /// The choice window of the question shown while `seg` plays: its
    /// lead on the segment boundary, min(10, duration / 2).
    fn question_window(&self, graph: &StoryGraph, seg: SegmentId) -> Duration {
        let dur = graph.segment(seg).duration_secs as f64;
        Duration::from_secs_f64(WINDOW_SECS.min(dur / 2.0) / self.scale)
    }

    /// From the question at `cp` to the next one along `choice`.
    fn question_gap(
        &self,
        graph: &StoryGraph,
        seg: SegmentId,
        cp: ChoicePointId,
        choice: Choice,
    ) -> Duration {
        Duration::from_secs_f64(question_gap_secs(graph, seg, cp, choice) / self.scale)
    }
}

/// The report stream: what a decoder keeps while it admits a capture's
/// application records in order — the record numbering provenance
/// cites, the times the first question's anchor hangs off, and the
/// last kept report of each class duplicate suppression compares
/// against. The offline and the streaming decoder both fold over it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReportStream {
    /// Application records admitted: the next one's index.
    pub records: u64,
    /// The first application record's time.
    pub first_app: Option<SimTime>,
    /// The second application record's time.
    pub second_app: Option<SimTime>,
    /// The last kept type-1 report's time.
    pub last_type1: Option<SimTime>,
    /// The last kept type-2 report's time.
    pub last_type2: Option<SimTime>,
}

impl ReportStream {
    /// Admit the next application record, classified as `class`.
    /// Returns its index and, when it is a report that is not a
    /// duplicate, the report event. A report within the dedup window of
    /// the last kept report of its class is that report sent again (a
    /// browser retry or an injected duplicate), which would otherwise
    /// open a phantom choice or mask a type-2 behind a repeated type-1.
    pub fn admit(
        &mut self,
        timing: &Timing,
        time: SimTime,
        length: u16,
        class: RecordClass,
    ) -> (u64, Option<ReportEvent>) {
        let index = self.records;
        self.records = self.records.saturating_add(1);
        if self.first_app.is_none() {
            self.first_app = Some(time);
        } else if self.second_app.is_none() {
            self.second_app = Some(time);
        }
        let last_kept = match class {
            RecordClass::Type1 => &mut self.last_type1,
            RecordClass::Type2 => &mut self.last_type2,
            RecordClass::Other => return (index, None),
        };
        if last_kept.is_some_and(|prev| time.since(prev) <= timing.dedup) {
            return (index, None);
        }
        *last_kept = Some(time);
        let event = ReportEvent {
            time,
            index,
            length,
            class,
        };
        (index, Some(event))
    }

    /// Where the first question is expected. Playback begins when the
    /// manifest response lands, which is when the player issues its
    /// first chunk request — the second application record (the first
    /// is the manifest GET); the opening segment chain is public. A
    /// capture with one application record falls back to it, one with
    /// none to time zero. Until `horizon` (`None`: the stream is final)
    /// decides, `Err` carries the wake: the second record's time, or
    /// [`NEVER`] while no second record is in hand.
    pub fn anchor(&self, timing: &Timing, horizon: Option<SimTime>) -> Result<SimTime, SimTime> {
        match (self.first_app, self.second_app, horizon) {
            (_, Some(second), _) if past(horizon, second) => Ok(second + timing.initial_gap),
            (_, second, Some(_)) => Err(second.unwrap_or(NEVER)),
            (Some(first), _, None) => Ok(first + timing.initial_gap),
            _ => Ok(SimTime::ZERO),
        }
    }
}

/// Whether the stream is final past `t`: every event at or before `t`
/// is in hand.
fn past(horizon: Option<SimTime>, t: SimTime) -> bool {
    horizon.is_none_or(|h| h > t)
}

/// The wake of a step that no horizon can decide: only a new event
/// can, or nothing (every path reached an ending).
const NEVER: SimTime = SimTime(u64::MAX);

/// Where a hypothesis stands in its walk of the story graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Frontier {
    /// Seeking the type-1 report of the question at `cp`, shown while
    /// `seg` plays.
    Seek { seg: SegmentId, cp: ChoicePointId },
    /// The question is placed at `t1`; its window is being scanned for
    /// a type-2 report.
    Open {
        seg: SegmentId,
        cp: ChoicePointId,
        t1: SimTime,
        observed: bool,
        t1_evt: Option<ReportEvent>,
    },
    /// The walk reached an ending.
    Done,
}

impl Frontier {
    /// Where a walk entering `seg` stands: at the next question down
    /// its `Continue` chain, or at the ending.
    pub(crate) fn at(graph: &StoryGraph, seg: SegmentId) -> Frontier {
        let mut current = seg;
        loop {
            match graph.segment(current).end {
                SegmentEnd::Ending => return Frontier::Done,
                SegmentEnd::Continue(next) => current = next,
                SegmentEnd::Choice(cp) => return Frontier::Seek { seg: current, cp },
            }
        }
    }

    /// Whether `graph` asks this frontier's question: its segment
    /// exists and ends at its choice point.
    pub fn fits(&self, graph: &StoryGraph) -> bool {
        match *self {
            Frontier::Seek { seg, cp } | Frontier::Open { seg, cp, .. } => graph
                .segments()
                .get(seg.0 as usize)
                .is_some_and(|s| s.end == SegmentEnd::Choice(cp)),
            Frontier::Done => true,
        }
    }
}

/// One path through the graph, as far as it has stepped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hypothesis {
    pub frontier: Frontier,
    /// When the next question should appear; `None` before the first,
    /// which hangs off the playback anchor.
    pub predicted: Option<SimTime>,
    /// Events before this index are consumed.
    pub cursor: usize,
    score: f64,
    /// This path's newest decision in the decoder's trail.
    tail: Option<usize>,
}

/// One decision a path took, with the report events it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    pub choice: DecodedChoice,
    /// The type-1 report the question was placed on, when observed.
    pub type1: Option<ReportEvent>,
    /// The type-2 report a non-default pick was read off.
    pub type2: Option<ReportEvent>,
}

/// The incremental k-hypothesis path decoder (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PathDecoder {
    timing: Timing,
    width: usize,
    /// This round's hypotheses, best first.
    live: Vec<Hypothesis>,
    /// How many of `live` have stepped this round.
    stepped: usize,
    /// The children the stepped ones branched into, each with the
    /// decision that made it.
    next: Vec<(Hypothesis, Decision)>,
    /// Hypotheses whose walk reached an ending, in the order they did.
    finished: Vec<Hypothesis>,
    /// Every decision a surviving path took, linked to its previous one
    /// (only wider than 1: width 1 commits as it steps).
    trail: Vec<(Option<usize>, Decision)>,
}

impl PathDecoder {
    pub fn new(graph: &StoryGraph, timing: Timing, width: usize) -> Self {
        let width = width.max(1);
        PathDecoder {
            timing,
            width,
            live: vec![Hypothesis {
                frontier: Frontier::at(graph, graph.start()),
                predicted: None,
                cursor: 0,
                score: 0.0,
                tail: None,
            }],
            stepped: 0,
            // Sized for a round, so stepping reuses it without allocating.
            next: Vec::with_capacity(2 * width),
            finished: Vec::new(),
            trail: Vec::new(),
        }
    }

    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Whether every path reached an ending.
    pub fn is_done(&self) -> bool {
        self.next.is_empty() && self.live.iter().all(|h| h.frontier == Frontier::Done)
    }

    /// The hypothesis of a width-1 decoder, live or finished: the state
    /// a streaming checkpoint carries.
    pub fn lone_mut(&mut self) -> Option<&mut Hypothesis> {
        self.live.first_mut().or(self.finished.first_mut())
    }

    /// The caller dropped the first `n` events of its slice: shift
    /// every cursor to match.
    pub fn rebase(&mut self, n: usize) {
        let next = self.next.iter_mut().map(|(h, _)| h);
        for h in self.live.iter_mut().chain(next).chain(&mut self.finished) {
            h.cursor = h.cursor.saturating_sub(n);
        }
    }

    /// Step every live hypothesis as far as `events` and `horizon`
    /// (`None`: the stream is final) decide, pruning to the best
    /// `width` after each round. `anchor` is [`ReportStream::anchor`]
    /// at the same horizon. Width 1 returns each decision as it commits,
    /// one per call; wider decoders commit at [`PathDecoder::finish`].
    ///
    /// `Err` once nothing more is decidable, carrying the **wake**: the
    /// threshold whose `past` test came out false (seek's deadline,
    /// scan's window close, or the anchor's second record), [`NEVER`]
    /// when none did. Until an event is added or dropped, a call at any
    /// horizon at or below the wake returns the same `Err` and changes
    /// nothing, so a streaming caller may skip it.
    pub fn step(
        &mut self,
        graph: &StoryGraph,
        events: &[ReportEvent],
        anchor: Result<SimTime, SimTime>,
        horizon: Option<SimTime>,
    ) -> Result<Decision, SimTime> {
        loop {
            while let Some(&h) = self.live.get(self.stepped) {
                match h.frontier {
                    Frontier::Done => self.finished.push(h),
                    Frontier::Seek { seg, cp } => {
                        let opened = self.seek(&h, seg, cp, events, anchor, horizon)?;
                        if let Some(slot) = self.live.get_mut(self.stepped) {
                            *slot = opened;
                        }
                        continue;
                    }
                    Frontier::Open {
                        seg,
                        cp,
                        t1,
                        observed,
                        t1_evt,
                    } => {
                        let type2 = self.scan(graph, seg, t1, h.cursor, events, horizon)?;
                        let type2 = type2.and_then(|i| Some((i, *events.get(i)?)));
                        self.branch(graph, &h, (seg, cp), (t1, observed, t1_evt), type2);
                    }
                }
                self.stepped += 1;
            }
            // Every live hypothesis has stepped: keep the best `width`.
            self.live.clear();
            self.stepped = 0;
            if self.next.is_empty() {
                return Err(NEVER);
            }
            self.next.sort_by(|a, b| b.0.score.total_cmp(&a.0.score));
            self.next.truncate(self.width);
            if self.width == 1 {
                let (h, d) = self.next.pop().ok_or(NEVER)?;
                self.live.push(h);
                return Ok(d);
            }
            for (mut h, d) in self.next.drain(..) {
                self.trail.push((h.tail, d));
                h.tail = Some(self.trail.len() - 1);
                self.live.push(h);
            }
        }
    }

    /// Run a final stream to the end and return the decisions not yet
    /// committed: at width 1 the rest of the walk, wider the best path
    /// once the type-1 reports each leaves unexplained count against it.
    pub fn finish(
        &mut self,
        graph: &StoryGraph,
        events: &[ReportEvent],
        anchor: Result<SimTime, SimTime>,
    ) -> Vec<Decision> {
        let mut out: Vec<Decision> =
            std::iter::from_fn(|| self.step(graph, events, anchor, None).ok()).collect();
        let unexplained = |h: &Hypothesis| {
            let rest = events.get(h.cursor..).unwrap_or_default();
            rest.iter()
                .filter(|e| e.class == RecordClass::Type1)
                .count() as f64
        };
        let best = self
            .finished
            .iter()
            .map(|h| (h.score + unexplained(h) * SCORE_UNEXPLAINED_EVENT, h.tail))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        let mut at = best.and_then(|(_, tail)| tail);
        let start = out.len();
        while let Some(&(parent, d)) = at.and_then(|i| self.trail.get(i)) {
            out.push(d);
            at = parent;
        }
        if let Some(path) = out.get_mut(start..) {
            path.reverse();
        }
        out
    }

    /// Place the question `h` seeks: on the first type-1 report within
    /// the slack of its predicted time, or on the prediction itself once
    /// the events or the horizon rule one out. `Err(wake)` while
    /// undecided. A report in hand decides at once: the slice is final
    /// below the horizon, and every later event is timed at or above it.
    fn seek(
        &self,
        h: &Hypothesis,
        seg: SegmentId,
        cp: ChoicePointId,
        events: &[ReportEvent],
        anchor: Result<SimTime, SimTime>,
        horizon: Option<SimTime>,
    ) -> Result<Hypothesis, SimTime> {
        let anchor = anchor?;
        let slack = match h.predicted {
            None => self.timing.first_slack,
            Some(_) => self.timing.slack,
        };
        let expect = h.predicted.unwrap_or(anchor);
        let deadline = expect + slack;
        let hit = events.iter().enumerate().skip(h.cursor).find(|(_, e)| {
            e.time > deadline || (e.class == RecordClass::Type1 && e.time + slack >= expect)
        });
        let (t1, observed, t1_evt, cursor) = match hit {
            Some((i, &e)) if e.time <= deadline => (e.time, true, Some(e), i + 1),
            Some(_) => (expect, false, None, h.cursor),
            None if past(horizon, deadline) => (expect, false, None, h.cursor),
            None => return Err(deadline),
        };
        Ok(Hypothesis {
            frontier: Frontier::Open {
                seg,
                cp,
                t1,
                observed,
                t1_evt,
            },
            cursor,
            ..*h
        })
    }

    /// Scan the window of the question placed at `t1` for its type-2
    /// report: `Ok(Some(i))` when it is `events[i]`, `Ok(None)` once
    /// the window closed or the next type-1 arrived without one,
    /// `Err(close)` while undecided.
    fn scan(
        &self,
        graph: &StoryGraph,
        seg: SegmentId,
        t1: SimTime,
        cursor: usize,
        events: &[ReportEvent],
        horizon: Option<SimTime>,
    ) -> Result<Option<usize>, SimTime> {
        let close = t1 + self.timing.question_window(graph, seg);
        let hit = events
            .iter()
            .enumerate()
            .skip(cursor)
            .find(|(_, e)| e.time > close || (e.time >= t1 && e.class != RecordClass::Other));
        match hit {
            Some((i, e)) if e.time <= close && e.class == RecordClass::Type2 => Ok(Some(i)),
            Some(_) => Ok(None),
            None if past(horizon, close) => Ok(None),
            None => Err(close),
        }
    }

    /// Branch the question `h` placed into its default and non-default
    /// children, scored against the evidence.
    fn branch(
        &mut self,
        graph: &StoryGraph,
        h: &Hypothesis,
        (seg, cp): (SegmentId, ChoicePointId),
        (t1, observed, t1_evt): (SimTime, bool, Option<ReportEvent>),
        type2: Option<(usize, ReportEvent)>,
    ) {
        let base = h.score
            + if observed {
                SCORE_T1_OBSERVED
            } else {
                SCORE_T1_MISSING
            };
        for choice in [Choice::Default, Choice::NonDefault] {
            let (t2_score, cursor, t2_evt) = match (choice, type2) {
                (Choice::NonDefault, Some((i, e))) => (SCORE_T2_MATCH, i + 1, Some(e)),
                (Choice::Default, None) => (SCORE_T2_MATCH * 0.5, h.cursor, None),
                _ => (SCORE_T2_MISMATCH, h.cursor, None),
            };
            let child = Hypothesis {
                frontier: Frontier::at(graph, graph.choice_point(cp).option(choice).target),
                predicted: Some(t1 + self.timing.question_gap(graph, seg, cp, choice)),
                cursor,
                score: base + t2_score,
                tail: h.tail,
            };
            let decision = Decision {
                choice: DecodedChoice {
                    cp,
                    choice,
                    time: t1,
                    observed,
                    confidence: if observed {
                        CONFIDENCE_OBSERVED
                    } else {
                        CONFIDENCE_INFERRED
                    },
                },
                type1: t1_evt,
                type2: t2_evt,
            };
            self.next.push((child, decision));
        }
    }
}

/// The offline decoder: classifies a finished capture's records and
/// decodes them in one pass, by the naive event walk or the path
/// decoder at `width` (1 = greedy).
pub struct ChoiceDecoder<'a, C: RecordClassifier + ?Sized> {
    classifier: &'a C,
    graph: &'a StoryGraph,
    cfg: DecoderConfig,
    timing: Timing,
    width: usize,
}

impl<'a, C: RecordClassifier + ?Sized> ChoiceDecoder<'a, C> {
    pub fn new(classifier: &'a C, graph: &'a StoryGraph, cfg: DecoderConfig, width: usize) -> Self {
        ChoiceDecoder {
            classifier,
            graph,
            timing: Timing::new(graph, cfg.time_scale),
            cfg,
            width,
        }
    }

    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// Admit the capture's application records, in order, to a report
    /// stream: its final state, the report events it kept and how many
    /// records it admitted of each class (in `RecordClass::ALL` order).
    fn stream(&self, records: &[TimedRecord]) -> (ReportStream, Vec<ReportEvent>, [u64; 3]) {
        let mut stream = ReportStream::default();
        let mut classes = [0; 3];
        let events = apps(records)
            .filter_map(|r| {
                let class = self.classifier.classify(r.record.length);
                if let Some(n) = classes.get_mut(class as usize) {
                    *n += 1;
                }
                stream.admit(&self.timing, r.time, r.record.length, class).1
            })
            .collect();
        (stream, events, classes)
    }

    /// The capture's report events: application records classified as
    /// type-1 or type-2, duplicates collapsed (`ReportStream::admit`).
    pub fn report_events(&self, records: &[TimedRecord]) -> Vec<ReportEvent> {
        self.stream(records).1
    }

    /// The path decoder's decisions over the capture at this decoder's
    /// width, each with the report events it rests on. Time-aware even
    /// when `cfg.time_aware` is off: only [`ChoiceDecoder::decode`]
    /// reads that switch.
    pub fn decisions(&self, records: &[TimedRecord]) -> Vec<Decision> {
        self.decide(records).0
    }

    /// [`ChoiceDecoder::decisions`], with the records' class counts.
    fn decide(&self, records: &[TimedRecord]) -> (Vec<Decision>, [u64; 3]) {
        let (stream, events, classes) = self.stream(records);
        let anchor = stream.anchor(&self.timing, None);
        let mut path = PathDecoder::new(self.graph, self.timing, self.width);
        (path.finish(self.graph, &events, anchor), classes)
    }

    /// Decode a capture's records at this decoder's width and resolve
    /// each decision (`provenance::resolve`) against its gaps,
    /// with every application record an anchor candidate, numbered as
    /// the report stream numbers them; also how many records it read as
    /// each class (in `RecordClass::ALL` order).
    pub fn decode_with_provenance(
        &self,
        features: &ClientFeatures,
    ) -> (Vec<DecodedChoice>, Vec<ChoiceProvenance>, [u64; 3]) {
        let records = &features.records;
        let gaps = &features.gap_times;
        let (decisions, classes) = self.decide(records);
        let (choices, provenance) = decisions
            .iter()
            .map(|d| {
                let candidates = (0u64..)
                    .zip(apps(records))
                    .map(|(i, r)| (i, r.time, r.record.length));
                resolve(d, gaps.iter().copied(), self.timing.window, candidates)
            })
            .unzip();
        (choices, provenance, classes)
    }

    /// Decode the choice sequence from client application records.
    pub fn decode(&self, records: &[TimedRecord]) -> Vec<DecodedChoice> {
        if !self.cfg.time_aware {
            return self.decode_naive(&self.report_events(records));
        }
        self.decisions(records)
            .into_iter()
            .map(|d| d.choice)
            .collect()
    }

    /// Naive decoding: consume type-1 events strictly in order.
    fn decode_naive(&self, events: &[ReportEvent]) -> Vec<DecodedChoice> {
        let mut out = Vec::new();
        let mut cursor = 0usize;
        self.walk(|cp| {
            while events
                .get(cursor)
                .is_some_and(|e| e.class != RecordClass::Type1)
            {
                cursor += 1;
            }
            let Some(t1_time) = events.get(cursor).map(|e| e.time) else {
                out.push(DecodedChoice {
                    cp,
                    choice: Choice::Default,
                    time: SimTime::ZERO,
                    observed: false,
                    confidence: CONFIDENCE_BLIND,
                });
                return Choice::Default;
            };
            cursor += 1;
            let mut choice = Choice::Default;
            let mut probe = cursor;
            while let Some(e) = events.get(probe) {
                if e.time.since(t1_time) > self.timing.window {
                    break;
                }
                match e.class {
                    RecordClass::Type2 => {
                        choice = Choice::NonDefault;
                        cursor = probe + 1;
                        break;
                    }
                    RecordClass::Type1 => break,
                    RecordClass::Other => {}
                }
                probe += 1;
            }
            out.push(DecodedChoice {
                cp,
                choice,
                time: t1_time,
                observed: true,
                confidence: CONFIDENCE_OBSERVED,
            });
            choice
        });
        out
    }

    /// Walk the graph, calling `decide` at each choice point.
    fn walk(&self, mut decide: impl FnMut(ChoicePointId) -> Choice) {
        let mut frontier = Frontier::at(self.graph, self.graph.start());
        while let Frontier::Seek { cp, .. } = frontier {
            let target = self.graph.choice_point(cp).option(decide(cp)).target;
            frontier = Frontier::at(self.graph, target);
        }
    }
}

/// A capture's application records, in order.
fn apps(records: &[TimedRecord]) -> impl Iterator<Item = &TimedRecord> {
    records
        .iter()
        .filter(|r| r.record.content_type == ContentType::ApplicationData)
}

/// Content seconds from the question at `cp` (shown while `seg` plays)
/// to the next question, assuming `choice` is picked.
fn question_gap_secs(graph: &StoryGraph, seg: SegmentId, cp: ChoicePointId, choice: Choice) -> f64 {
    let cur = graph.segment(seg);
    // The question leads the boundary by min(10, dur/2).
    let mut gap = WINDOW_SECS.min(cur.duration_secs as f64 / 2.0);
    let mut current = graph.choice_point(cp).option(choice).target;
    loop {
        let s = graph.segment(current);
        let dur = s.duration_secs as f64;
        match s.end {
            SegmentEnd::Choice(_) => {
                let lead = WINDOW_SECS.min(dur / 2.0);
                return gap + dur - lead;
            }
            SegmentEnd::Continue(next) => {
                gap += dur;
                current = next;
            }
            SegmentEnd::Ending => return gap + dur,
        }
    }
}

/// Shortest question-to-question gap anywhere in the film (content
/// seconds) — bounds the prediction tolerance.
fn min_question_gap_secs(graph: &StoryGraph) -> f64 {
    let mut min_gap = f64::MAX;
    for seg in graph.segments() {
        if let SegmentEnd::Choice(cp) = seg.end {
            for choice in [Choice::Default, Choice::NonDefault] {
                min_gap = min_gap.min(question_gap_secs(graph, seg.id, cp, choice));
            }
        }
    }
    if min_gap == f64::MAX {
        WINDOW_SECS
    } else {
        min_gap
    }
}

/// Content seconds from playback start to the first question: the
/// opening Continue-chain plus the first choice segment's body minus
/// its question lead.
fn initial_gap_secs(graph: &StoryGraph) -> f64 {
    let mut gap = 0.0;
    let mut current = graph.start();
    loop {
        let s = graph.segment(current);
        let dur = s.duration_secs as f64;
        match s.end {
            SegmentEnd::Choice(_) => {
                return gap + dur - WINDOW_SECS.min(dur / 2.0);
            }
            SegmentEnd::Continue(next) => {
                gap += dur;
                current = next;
            }
            SegmentEnd::Ending => return gap + dur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::IntervalClassifier;
    use wm_capture::labels::LabeledRecord;
    use wm_capture::ObservedRecord;
    use wm_story::bandersnatch::tiny_film;

    fn classifier() -> IntervalClassifier {
        let training = vec![
            LabeledRecord {
                time: SimTime::ZERO,
                length: 2211,
                class: RecordClass::Type1,
            },
            LabeledRecord {
                time: SimTime::ZERO,
                length: 2213,
                class: RecordClass::Type1,
            },
            LabeledRecord {
                time: SimTime::ZERO,
                length: 2992,
                class: RecordClass::Type2,
            },
            LabeledRecord {
                time: SimTime::ZERO,
                length: 3017,
                class: RecordClass::Type2,
            },
            LabeledRecord {
                time: SimTime::ZERO,
                length: 540,
                class: RecordClass::Other,
            },
        ];
        IntervalClassifier::train(&training, 0).unwrap()
    }

    fn rec(time_ms: u64, length: u16) -> TimedRecord {
        TimedRecord {
            time: SimTime(time_ms * 1000),
            record: ObservedRecord {
                stream_offset: 0,
                content_type: ContentType::ApplicationData,
                version: (3, 3),
                length,
            },
        }
    }

    fn naive_cfg() -> DecoderConfig {
        DecoderConfig {
            time_aware: false,
            time_scale: 1,
        }
    }

    fn aware_cfg() -> DecoderConfig {
        DecoderConfig {
            time_aware: true,
            ..naive_cfg()
        }
    }

    fn picks(decoded: &[DecodedChoice]) -> Vec<Choice> {
        decoded.iter().map(|d| d.choice).collect()
    }

    // tiny_film timeline (content == real time here):
    //   q0 at 4 s (intro 8 s, lead 4); boundary 8 s;
    //   branch segment 4 s, lead 2 → q1 at 10 s; boundary 12 s;
    //   next segment 4 s, lead 2 → q2 at 14 s.
    #[test]
    fn naive_decodes_clean_stream() {
        let c = classifier();
        let g = tiny_film();
        let records = vec![
            rec(0, 540),       // manifest fetch: playback-start marker
            rec(4_000, 2212),  // q0 type-1 (default)
            rec(10_000, 2212), // q1 type-1
            rec(11_500, 3001), // q1 type-2 → non-default
            rec(14_000, 2212), // q2 type-1 (default)
            rec(15_000, 540),  // chunk GET noise
        ];
        let decoded = ChoiceDecoder::new(&c, &g, naive_cfg(), 1).decode(&records);
        assert_eq!(
            picks(&decoded),
            vec![Choice::Default, Choice::NonDefault, Choice::Default]
        );
        assert!(decoded.iter().all(|d| d.observed));
    }

    #[test]
    fn naive_type2_outside_window_ignored() {
        let c = classifier();
        let g = tiny_film();
        let records = vec![
            rec(0, 540), // manifest fetch: playback-start marker
            rec(4_000, 2212),
            rec(15_500, 3001), // 11.5 s after q0: outside its window
            rec(20_000, 2212),
            rec(30_000, 2212),
        ];
        let decoded = ChoiceDecoder::new(&c, &g, naive_cfg(), 1).decode(&records);
        assert_eq!(decoded[0].choice, Choice::Default);
    }

    #[test]
    fn naive_missing_reports_default_fill() {
        let c = classifier();
        let g = tiny_film();
        let records = vec![rec(0, 540), rec(4_000, 2212)];
        let decoded = ChoiceDecoder::new(&c, &g, naive_cfg(), 1).decode(&records);
        assert_eq!(decoded.len(), 3);
        assert!(decoded[0].observed);
        assert!(!decoded[1].observed);
        assert!(!decoded[2].observed);
    }

    #[test]
    fn time_aware_survives_missing_type1() {
        let c = classifier();
        let g = tiny_film();
        // q1's type-1 is LOST; its type-2 arrives at 11.5 s. The naive
        // decoder would bind q2's type-1 (14 s) to q1 and desync.
        let records = vec![
            rec(0, 540),       // manifest fetch: playback-start marker
            rec(4_000, 2212),  // q0 (default)
            rec(11_500, 3001), // q1 type-2, question report lost
            rec(14_000, 2212), // q2 (default)
        ];
        for width in [1, 8] {
            let decoded = ChoiceDecoder::new(&c, &g, aware_cfg(), width).decode(&records);
            assert_eq!(
                picks(&decoded),
                vec![Choice::Default, Choice::NonDefault, Choice::Default],
                "width {width}"
            );
            assert!(
                !decoded[1].observed,
                "q1's report was lost but decoded anyway"
            );
            assert!(decoded[2].observed, "q2 stays aligned (width {width})");
        }
    }

    #[test]
    fn every_width_matches_naive_on_a_clean_stream() {
        let c = classifier();
        let g = tiny_film();
        let records = vec![
            rec(0, 540), // manifest fetch: playback-start marker
            rec(4_000, 2212),
            rec(10_000, 2212),
            rec(11_500, 3001),
            rec(14_000, 2212),
        ];
        let naive = ChoiceDecoder::new(&c, &g, naive_cfg(), 1).decode(&records);
        for width in [1, 2, 8] {
            let aware = ChoiceDecoder::new(&c, &g, aware_cfg(), width).decode(&records);
            assert_eq!(picks(&naive), picks(&aware), "width {width}");
        }
    }

    #[test]
    fn lost_type2_still_decodes_a_full_path() {
        // Truth: q0 NonDefault but its type-2 was corrupted (absent).
        // Both branches of q0 put q1 at 10 s in tiny_film, so timing
        // cannot tell them apart and the evidence (no type-2) picks
        // default; the decode must still be full and aligned.
        let c = classifier();
        let g = tiny_film();
        let records = vec![
            rec(0, 540),       // manifest fetch: playback-start marker
            rec(4_000, 2212),  // q0, t2 lost
            rec(10_000, 2212), // q1
            rec(14_000, 2212), // q2
        ];
        for width in [1, 8] {
            let decoded = ChoiceDecoder::new(&c, &g, aware_cfg(), width).decode(&records);
            assert_eq!(picks(&decoded), vec![Choice::Default; 3], "width {width}");
            assert!(decoded.iter().all(|d| d.observed), "width {width}");
        }
    }

    #[test]
    fn duplicate_reports_are_collapsed() {
        let c = classifier();
        let g = tiny_film();
        // q1's type-1 hits the wire twice (browser retry / injected
        // duplicate). Without dedup the repeated type-1 stops the
        // type-2 window scan and q1 decodes default.
        let records = vec![
            rec(0, 540),       // manifest fetch: playback-start marker
            rec(4_000, 2212),  // q0 (default)
            rec(10_000, 2212), // q1 type-1
            rec(10_050, 2212), // ... duplicated 50 ms later
            rec(11_500, 3001), // q1 type-2 → non-default
            rec(14_000, 2212), // q2 (default)
        ];
        for time_aware in [false, true] {
            let cfg = DecoderConfig {
                time_aware,
                ..naive_cfg()
            };
            let decoder = ChoiceDecoder::new(&c, &g, cfg, 1);
            assert_eq!(decoder.report_events(&records).len(), 4);
            assert_eq!(
                picks(&decoder.decode(&records)),
                vec![Choice::Default, Choice::NonDefault, Choice::Default],
                "time_aware={time_aware}"
            );
        }
    }

    #[test]
    fn dedup_keeps_distinct_questions() {
        let timing = Timing::new(&tiny_film(), 1);
        let mut stream = ReportStream::default();
        let mut admit =
            |ms: u64| stream.admit(&timing, SimTime(ms * 1000), 2212, RecordClass::Type1);
        // Two genuine type-1s a real question gap apart both survive
        // the dedup pass…
        assert!(admit(4_000).1.is_some());
        assert!(admit(10_000).1.is_some());
        // …but a copy inside the window is dropped, though it still
        // takes the next record index.
        assert_eq!(admit(10_100), (2, None));
        assert_eq!(stream.last_type1, Some(SimTime(10_000_000)));
    }

    #[test]
    fn confidence_reflects_observation() {
        let c = classifier();
        let g = tiny_film();
        // q1's type-1 lost: the inferred decision must carry lower
        // confidence than the observed ones.
        let records = vec![
            rec(0, 540),
            rec(4_000, 2212),
            rec(11_500, 3001),
            rec(14_000, 2212),
        ];
        let decoded = ChoiceDecoder::new(&c, &g, aware_cfg(), 1).decode(&records);
        assert_eq!(decoded[0].confidence, CONFIDENCE_OBSERVED);
        assert_eq!(decoded[1].confidence, CONFIDENCE_INFERRED);
        assert!(decoded[1].confidence < decoded[0].confidence);
        assert_eq!(decoded[2].confidence, CONFIDENCE_OBSERVED);
    }

    #[test]
    fn empty_stream_decodes_all_default() {
        let c = classifier();
        let g = tiny_film();
        for (cfg, width) in [(naive_cfg(), 1), (aware_cfg(), 1), (aware_cfg(), 4)] {
            let decoded = ChoiceDecoder::new(&c, &g, cfg, width).decode(&[]);
            assert_eq!(decoded.len(), 3);
            assert!(decoded
                .iter()
                .all(|d| d.choice == Choice::Default && !d.observed));
        }
    }

    #[test]
    fn gap_prediction_matches_timeline() {
        let g = tiny_film();
        // q0 on segment 0 → default branch: question gap 4 + (4-2) = 6 s.
        assert_eq!(
            question_gap_secs(&g, SegmentId(0), ChoicePointId(0), Choice::Default),
            6.0
        );
        // q2 is shown on segment 3; its non-default branch is a 6 s
        // segment then the 5 s ending: gap = 2 + 6 + 5 = 13 (no further
        // question).
        assert_eq!(
            question_gap_secs(&g, SegmentId(3), ChoicePointId(2), Choice::NonDefault),
            13.0
        );
    }

    #[test]
    fn streaming_waits_for_the_horizon() {
        let c = classifier();
        let g = tiny_film();
        let records = vec![
            rec(0, 540),
            rec(1_000, 540),
            rec(4_000, 2212),
            rec(10_000, 2212),
        ];
        let decoder = ChoiceDecoder::new(&c, &g, aware_cfg(), 1);
        let (stream, events, classes) = decoder.stream(&records);
        assert_eq!(classes, [2, 0, 2], "type-1, type-2, other");
        let timing = decoder.timing();
        let mut path = PathDecoder::new(&g, *timing, 1);
        // Before the horizon passes the second app record, the first
        // question has no anchor to hang off.
        let early = Some(SimTime(500_000));
        let anchor = stream.anchor(timing, early);
        assert_eq!(anchor, Err(SimTime(1_000_000)));
        assert_eq!(
            path.step(&g, &events, anchor, early),
            Err(SimTime(1_000_000))
        );
        // With q0's type-1 in hand, q0's window is still open until
        // q1's type-1 closes it.
        let horizon = Some(SimTime(5_000_000));
        let anchor = stream.anchor(timing, horizon);
        assert_eq!(anchor, Ok(SimTime(1_000_000) + timing.initial_gap));
        let head = events.get(..1).unwrap();
        assert_eq!(
            path.step(&g, head, anchor, horizon),
            Err(SimTime(8_000_000))
        );
        let d = path.step(&g, &events, anchor, horizon).unwrap();
        assert_eq!(
            (d.choice.cp, d.choice.choice),
            (ChoicePointId(0), Choice::Default)
        );
        assert_eq!(d.type1, events.first().copied());
        assert_eq!(d.type1.map(|e| e.index), Some(2));
        assert!(!path.is_done());
        // The stream ends: q2's report never came, so it is inferred.
        let rest = path.finish(&g, &events, stream.anchor(timing, None));
        assert_eq!(rest.len(), 2);
        assert!(rest[0].choice.observed && !rest[1].choice.observed);
        assert!(path.is_done());
    }

    /// The contract the streaming decoder's skip rests on: over fixed
    /// evidence, a step at any horizon up to the wake it reported stays
    /// undecided and leaves the decoder as it was; one microsecond past
    /// the wake, it decides.
    #[test]
    fn step_sleeps_until_its_wake() {
        let c = classifier();
        let g = tiny_film();
        let decoder = ChoiceDecoder::new(&c, &g, aware_cfg(), 1);
        let timing = *decoder.timing();
        let ms = |t: u64| SimTime(t * 1000);
        // Each blocker: the reports after the two playback records, the
        // first horizon stepped at, and the wake that must come back.
        let cases = [
            (
                "the anchor's second record",
                vec![rec(4_000, 2212), rec(10_000, 2212)],
                ms(500),
                ms(1_000),
            ),
            (
                "seek's deadline",
                vec![],
                ms(2_000),
                ms(1_000) + timing.initial_gap + timing.first_slack,
            ),
            (
                "scan's close",
                vec![rec(4_000, 2212)],
                ms(2_000),
                ms(4_000) + timing.question_window(&g, SegmentId(0)),
            ),
        ];
        for (blocker, reports, start, wake) in cases {
            let mut records = vec![rec(0, 540), rec(1_000, 540)];
            records.extend(reports);
            let (stream, events, _) = decoder.stream(&records);
            let step = |path: &mut PathDecoder, h: SimTime| {
                path.step(&g, &events, stream.anchor(&timing, Some(h)), Some(h))
            };
            let mut path = PathDecoder::new(&g, timing, 1);
            assert_eq!(step(&mut path, start), Err(wake), "{blocker}");
            let state = format!("{path:?}");
            for h in [start, SimTime((start.0 + wake.0) / 2), wake] {
                assert_eq!(step(&mut path, h), Err(wake), "{blocker} at {h:?}");
                assert_eq!(format!("{path:?}"), state, "{blocker} at {h:?}");
            }
            assert!(step(&mut path, wake + Duration(1)).is_ok(), "{blocker}");
        }
    }
}

/// Seeded sweeps over the path decoder: on arbitrary and on clean
/// classified event streams, every decoder traces a real path, and the
/// path decoder fed a stream record by record decodes exactly as it
/// decodes the whole capture. Hand-rolled: each property runs over
/// cases drawn from a local splitmix64 driver, and failures print the
/// case number for replay.
#[cfg(test)]
mod props {
    use super::*;
    use crate::classify::IntervalClassifier;
    use wm_capture::labels::LabeledRecord;
    use wm_capture::ObservedRecord;
    use wm_story::bandersnatch::tiny_film;

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
    }

    fn labelled(length: u16, class: RecordClass) -> LabeledRecord {
        LabeledRecord {
            time: SimTime::ZERO,
            length,
            class,
        }
    }

    /// Decode `records` as a stream, the way the streaming decoder does:
    /// records are admitted to a report stream one at a time, the horizon
    /// rising to each next record's time (everything below it is final),
    /// then the stream ends.
    fn streamed(
        classifier: &IntervalClassifier,
        graph: &wm_story::StoryGraph,
        records: &[TimedRecord],
        width: usize,
    ) -> Vec<DecodedChoice> {
        let timing = Timing::new(graph, 1);
        let mut stream = ReportStream::default();
        let mut events = Vec::new();
        let mut path = PathDecoder::new(graph, timing, width);
        let mut out = Vec::new();
        for r in records {
            let horizon = Some(r.time);
            let anchor = stream.anchor(&timing, horizon);
            while let Ok(d) = path.step(graph, &events, anchor, horizon) {
                out.push(d.choice);
            }
            let class = classifier.classify(r.record.length);
            events.extend(stream.admit(&timing, r.time, r.record.length, class).1);
        }
        let anchor = stream.anchor(&timing, None);
        out.extend(path.finish(graph, &events, anchor).iter().map(|d| d.choice));
        out
    }

    /// Decoders always emit one decision per choice point on the walked
    /// path and never panic, for arbitrary classified event streams; the
    /// path decoder decodes a stream exactly as it decodes the whole.
    #[test]
    fn decoders_total_and_path_consistent() {
        let graph = tiny_film();
        let training = vec![
            labelled(2211, RecordClass::Type1),
            labelled(2213, RecordClass::Type1),
            labelled(2992, RecordClass::Type2),
            labelled(3017, RecordClass::Type2),
        ];
        let classifier = IntervalClassifier::train(&training, 0).expect("train");
        for case in 0..100u64 {
            let mut rng = Rng(0xC0_4000 + case);
            let n = rng.below(40);
            // Map class index to a length inside/outside the bands.
            let mut records: Vec<TimedRecord> = (0..n)
                .map(|_| TimedRecord {
                    time: SimTime(rng.below(60_000) as u64 * 1000),
                    record: ObservedRecord {
                        stream_offset: 0,
                        content_type: ContentType::ApplicationData,
                        version: (3, 3),
                        length: match rng.below(3) {
                            0 => 2212,
                            1 => 3000,
                            _ => 700,
                        },
                    },
                })
                .collect();
            records.sort_by_key(|r| r.time);
            for (time_aware, width) in [(false, 1), (true, 1), (true, 8)] {
                let cfg = DecoderConfig {
                    time_aware,
                    ..DecoderConfig::scaled(1)
                };
                let decoded = ChoiceDecoder::new(&classifier, &graph, cfg, width).decode(&records);
                // The decode must trace a real path: its cp sequence equals
                // the walk induced by its own choices.
                let seq = wm_story::ChoiceSequence(decoded.iter().map(|d| d.choice).collect());
                let walk = wm_story::path::walk(&graph, &seq);
                assert_eq!(decoded.len(), walk.encountered.len(), "case {case}");
                for (d, cp) in decoded.iter().zip(walk.encountered.iter()) {
                    assert_eq!(d.cp, *cp, "case {case}");
                }
                if time_aware {
                    let stream = streamed(&classifier, &graph, &records, width);
                    assert_eq!(stream, decoded, "case {case}: width {width} streamed");
                }
            }
        }
    }

    /// On a *clean* event stream generated from a true path (correct
    /// question times, no noise), every decoder recovers the path
    /// exactly.
    #[test]
    fn decoders_exact_on_clean_streams() {
        let graph = tiny_film();
        let training = vec![
            labelled(2211, RecordClass::Type1),
            labelled(2213, RecordClass::Type1),
            labelled(2992, RecordClass::Type2),
            labelled(3017, RecordClass::Type2),
        ];
        let classifier = IntervalClassifier::train(&training, 0).expect("train");
        // All 8 combinations of 3 binary choices.
        for case in 0..8u64 {
            let truth: Vec<Choice> = (0..3)
                .map(|i| {
                    if (case >> i) & 1 == 1 {
                        Choice::NonDefault
                    } else {
                        Choice::Default
                    }
                })
                .collect();
            // tiny_film question times (content secs): 4, 10, 14 when every
            // branch is 4 s — true for all paths in tiny_film's first two
            // levels; the third question time depends only on segment
            // durations of level-2 branches, all 4 s.
            let q_times = [4_000u64, 10_000, 14_000];
            let mut records = vec![TimedRecord {
                time: SimTime(0),
                record: ObservedRecord {
                    stream_offset: 0,
                    content_type: ContentType::ApplicationData,
                    version: (3, 3),
                    length: 700, // playback-start marker (manifest fetch)
                },
            }];
            for (i, &q) in q_times.iter().enumerate() {
                records.push(TimedRecord {
                    time: SimTime(q * 1000),
                    record: ObservedRecord {
                        stream_offset: 0,
                        content_type: ContentType::ApplicationData,
                        version: (3, 3),
                        length: 2212,
                    },
                });
                if truth[i] == Choice::NonDefault {
                    records.push(TimedRecord {
                        time: SimTime((q + 1200) * 1000),
                        record: ObservedRecord {
                            stream_offset: 0,
                            content_type: ContentType::ApplicationData,
                            version: (3, 3),
                            length: 3000,
                        },
                    });
                }
            }
            for (time_aware, width) in [(false, 1), (true, 1), (true, 8)] {
                let cfg = DecoderConfig {
                    time_aware,
                    ..DecoderConfig::scaled(1)
                };
                let decoded = ChoiceDecoder::new(&classifier, &graph, cfg, width).decode(&records);
                let picks: Vec<Choice> = decoded.iter().map(|d| d.choice).collect();
                assert_eq!(
                    &picks, &truth,
                    "case {case}: time_aware={time_aware} width {width}"
                );
                if time_aware {
                    let stream = streamed(&classifier, &graph, &records, width);
                    assert_eq!(stream, decoded, "case {case}: width {width} streamed");
                }
            }
        }
    }
}
