//! The event-driven player state machine.
//!
//! Lifecycle of a session, mirroring Figure 1 of the paper:
//!
//! 1. fetch the manifest, start playback of segment 0 and begin chunk
//!    downloads (paced to keep a buffer target);
//! 2. ten seconds before a choice segment ends, the question is
//!    displayed: the player posts the **type-1** state JSON and starts
//!    prefetching the *default* branch;
//! 3. the viewer decides (or the window lapses → default): a
//!    non-default pick posts the **type-2** state JSON reporting the
//!    cancelled prefetch, and downloads switch to the chosen branch;
//! 4. segments chain until an ending, then the session completes.
//!
//! Background traffic (telemetry, heartbeats, diagnostics bursts) runs
//! throughout and populates the "others" record-length class.
//!
//! The player never blocks: every entry point returns a
//! [`PlayerActions`] bundle of requests to transmit, timers to arm and
//! ground-truth events, which the session layer applies.

use crate::abr::ThroughputEstimator;
use crate::profile::Profile;
use crate::state::{StateJsonBuilder, Type1Fields, Type2Fields};
use std::collections::VecDeque;
use std::sync::Arc;
use wm_http::{Request, Response};
use wm_net::queue::TimerKind;
use wm_net::rng::SimRng;
use wm_net::time::{Duration, SimTime};
use wm_netflix::Manifest;
use wm_story::ViewerScript;
use wm_story::{Choice, ChoicePointId, SegmentEnd, SegmentId, StoryGraph};
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Histogram, Registry};

/// Timer kinds owned by the player (the session layer routes them back).
pub mod timer_kinds {
    use wm_net::queue::TimerKind;

    /// A choice question becomes visible.
    pub const QUESTION: TimerKind = TimerKind(0x100);
    /// The viewer clicks (or the window lapses).
    pub const VIEWER_DECIDES: TimerKind = TimerKind(0x101);
    /// Playback crosses a segment boundary.
    pub const SEGMENT_END: TimerKind = TimerKind(0x102);
    /// Resume paced chunk downloads.
    pub const BUFFER: TimerKind = TimerKind(0x103);
    /// Periodic playback telemetry report.
    pub const TELEMETRY: TimerKind = TimerKind(0x104);
    /// Keep-alive heartbeat.
    pub const HEARTBEAT: TimerKind = TimerKind(0x105);
    /// Batched diagnostics upload.
    pub const DIAG: TimerKind = TimerKind(0x106);
    /// Re-send the oldest unacknowledged state report (after backoff).
    pub const STATE_RETRY: TimerKind = TimerKind(0x107);
    /// Check whether the oldest unacknowledged state report timed out.
    pub const STATE_TIMEOUT: TimerKind = TimerKind(0x108);
    /// Transmit a fault-delayed state report.
    pub const DELAYED_POST: TimerKind = TimerKind(0x109);
}

/// What a request is for (drives ground-truth labels in captures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    Manifest,
    Chunk {
        segment: SegmentId,
        idx: u32,
        prefetch: bool,
    },
    StateType1,
    StateType2,
    /// A defense-injected dummy second post (see `wm_defense`).
    DummyReport,
    Telemetry,
    Heartbeat,
    Diagnostic,
}

/// Per-player telemetry handles (see `wm-telemetry`): one request
/// counter per [`RequestKind`] plus a received-chunk counter. All
/// requests funnel through the `push_request`/`push_state_request`
/// choke points, so these count every byte source on the wire.
pub struct PlayerTelemetry {
    manifest: Arc<Counter>,
    chunk: Arc<Counter>,
    state_type1: Arc<Counter>,
    state_type2: Arc<Counter>,
    dummy_report: Arc<Counter>,
    telemetry: Arc<Counter>,
    heartbeat: Arc<Counter>,
    diagnostic: Arc<Counter>,
    split_flushes: Arc<Counter>,
    chunks_received: Arc<Counter>,
    retries: Arc<Counter>,
    duplicate_posts: Arc<Counter>,
    rebuffers: Arc<Counter>,
    backoff_delay_us: Arc<Histogram>,
    rebuffer_time_us: Arc<Histogram>,
}

impl PlayerTelemetry {
    /// Register the player's metrics under `player.*`.
    pub fn register(registry: &Registry) -> Self {
        PlayerTelemetry {
            manifest: registry.counter("player.requests.manifest"),
            chunk: registry.counter("player.requests.chunk"),
            state_type1: registry.counter("player.requests.state_type1"),
            state_type2: registry.counter("player.requests.state_type2"),
            dummy_report: registry.counter("player.requests.dummy_report"),
            telemetry: registry.counter("player.requests.telemetry"),
            heartbeat: registry.counter("player.requests.heartbeat"),
            diagnostic: registry.counter("player.requests.diagnostic"),
            split_flushes: registry.counter("player.split_flushes"),
            chunks_received: registry.counter("player.chunks_received"),
            retries: registry.counter("player.retries"),
            duplicate_posts: registry.counter("player.duplicate_posts"),
            rebuffers: registry.counter("player.rebuffers"),
            backoff_delay_us: registry.histogram("player.backoff_delay_us"),
            rebuffer_time_us: registry.histogram("player.rebuffer_time_us"),
        }
    }

    fn count(&self, kind: RequestKind) {
        match kind {
            RequestKind::Manifest => self.manifest.inc(),
            RequestKind::Chunk { .. } => self.chunk.inc(),
            RequestKind::StateType1 => self.state_type1.inc(),
            RequestKind::StateType2 => self.state_type2.inc(),
            RequestKind::DummyReport => self.dummy_report.inc(),
            RequestKind::Telemetry => self.telemetry.inc(),
            RequestKind::Heartbeat => self.heartbeat.inc(),
            RequestKind::Diagnostic => self.diagnostic.inc(),
        }
    }
}

/// A request the session layer should transmit.
#[derive(Debug, Clone)]
pub struct OutRequest {
    pub request: Request,
    pub kind: RequestKind,
    /// Write headers and body as two TLS records (rare flush split —
    /// breaks the length signature of state posts, a noise source).
    pub split_flush: bool,
}

/// Everything a player entry point wants done.
#[derive(Debug, Default)]
pub struct PlayerActions {
    pub requests: Vec<OutRequest>,
    pub timers: Vec<(SimTime, TimerKind)>,
    pub done: bool,
}

/// Ground-truth events (the dataset's labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruthEvent {
    SegmentStarted {
        time: SimTime,
        segment: SegmentId,
    },
    QuestionShown {
        time: SimTime,
        cp: ChoicePointId,
    },
    Decision {
        time: SimTime,
        cp: ChoicePointId,
        choice: Choice,
        timed_out: bool,
        type2_sent: bool,
    },
    SessionEnded {
        time: SimTime,
    },
}

/// Player phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerPhase {
    FetchingManifest,
    Streaming,
    ChoiceWindow,
    Finished,
}

/// Tunables (time-scale, client noise, dummy reports). Pacing and
/// background-traffic periods are the constants beside
/// `CHOICE_WINDOW_SECS`.
#[derive(Debug, Clone)]
pub struct PlayerConfig {
    /// Divides all content durations: a time_scale of 10 plays the film
    /// ten times faster (timing *structure* is preserved; only the sim
    /// wall-clock shrinks). The choice window scales identically.
    pub time_scale: u32,
    /// Added to the profile's header/body flush-split probability
    /// (network conditions raise it).
    pub split_flush_extra: f64,
    /// Probability a telemetry report lands in the heavy tail that
    /// collides with the type-2 length band (false-positive source).
    pub telemetry_tail_prob: f64,
    /// Emit a dummy second post after every *default* pick, so every
    /// question produces exactly two posts (set by the session layer
    /// when the deployed defense injects dummies).
    pub dummy_reports: bool,
}

impl Default for PlayerConfig {
    fn default() -> Self {
        PlayerConfig {
            time_scale: 1,
            split_flush_extra: 0.0,
            telemetry_tail_prob: 0.01,
            dummy_reports: false,
        }
    }
}

/// The choice window is ten seconds of content time (the film's timer).
const CHOICE_WINDOW_SECS: f64 = 10.0;

/// Buffer target in content seconds.
const BUFFER_TARGET_SECS: i64 = 30;
/// Maximum default-branch chunks prefetched during a choice window.
const PREFETCH_LIMIT: u32 = 6;
/// ABR safety factor and initial ladder rung.
const ABR_SAFETY: f64 = 0.8;
const ABR_START_RUNG: usize = 2;
/// Background traffic periods, in content seconds.
const TELEMETRY_PERIOD_SECS: f64 = 60.0;
const HEARTBEAT_PERIOD_SECS: f64 = 25.0;
const DIAG_PERIOD_SECS: f64 = 300.0;

/// Ack timeout for a state report, in content seconds (scaled like all
/// content durations). Far above any sane round trip, so clean sessions
/// never resend.
const STATE_TIMEOUT_SECS: f64 = 12.0;
/// Retry backoff: `base * 2^(attempt-1)`, capped, with ±25% jitter.
const RETRY_BASE_SECS: f64 = 1.0;
const RETRY_CAP_SECS: f64 = 16.0;
/// A report is abandoned after this many unanswered attempts.
const MAX_STATE_ATTEMPTS: u32 = 6;

/// Faults the session layer injects into the player (driven by the
/// `wm-chaos` plan). These model client-side flakiness: the state
/// report machinery re-posting or deferring a report. Both are
/// idempotent server-side (sequence-number dedup), but they change
/// what the eavesdropper sees on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlayerFault {
    /// The next state report is transmitted twice (retransmit race):
    /// two identical records on the wire, one logged server-side.
    DuplicateNextStatePost,
    /// The next state report is built on time but leaves late.
    DelayNextStatePost { delay: Duration },
}

/// A state report awaiting a 2xx acknowledgement.
struct UnackedState {
    kind: RequestKind,
    request: Request,
    /// Copies currently in flight (the duplicate fault sends two; a
    /// connection loss zeroes this — those responses will never come).
    copies: u32,
    /// Unanswered attempts so far (drives backoff; 0 = never retried).
    attempts: u32,
    last_sent: SimTime,
}

struct PendingChoice {
    cp: ChoicePointId,
    /// Sim time at which the current segment's playback ends.
    play_end: SimTime,
    /// The resolved pick (script delays are content-time human seconds,
    /// compared against the window at question time).
    choice: Choice,
    timed_out: bool,
}

/// One queued chunk download.
#[derive(Debug, Clone, Copy)]
struct QueuedChunk {
    segment: SegmentId,
    idx: u32,
    prefetch: bool,
}

/// The player.
pub struct Player {
    profile: Profile,
    cfg: PlayerConfig,
    graph: Arc<StoryGraph>,
    script: ViewerScript,
    rng: SimRng,
    json: StateJsonBuilder,
    manifest: Option<Manifest>,
    phase: PlayerPhase,

    // Playback state.
    current_segment: SegmentId,
    next_segment: Option<SegmentId>,
    seg_play_start: SimTime,
    content_pos_ms: i64,
    encounter_idx: usize,
    pending: Option<PendingChoice>,

    // Download state.
    dl_queue: VecDeque<QueuedChunk>,
    in_flight: VecDeque<(RequestKind, SimTime)>,
    est: ThroughputEstimator,
    bitrate: u32,
    downloaded_content_ms: i64,
    /// Prefetch chunk responses received in the current choice window.
    prefetch_received: u32,

    // Fault/recovery state. All of it is inert in clean sessions: no
    // extra RNG draws, no extra requests, no timer-driven byte output.
    connected: bool,
    unacked: VecDeque<UnackedState>,
    offline_queue: Vec<OutRequest>,
    delayed: VecDeque<(SimTime, Request, RequestKind, bool)>,
    duplicate_next_state: bool,
    delay_next_state: Option<Duration>,
    refetch_manifest: bool,
    disconnected_at: Option<SimTime>,

    truth: Vec<TruthEvent>,
    done: bool,
    telemetry_handles: Option<PlayerTelemetry>,
    /// Causal trace sink (question display, prefetch, state posts,
    /// retry/backoff, connection loss) under the session span.
    trace: Option<(TraceHandle, SpanId)>,
}

impl Player {
    pub fn new(
        profile: Profile,
        graph: Arc<StoryGraph>,
        script: ViewerScript,
        cfg: PlayerConfig,
        session_seed: u64,
    ) -> Self {
        let json = StateJsonBuilder::new(profile, session_seed);
        Player {
            profile,
            cfg,
            current_segment: graph.start(),
            graph,
            script,
            rng: SimRng::new(wm_cipher::kdf::derive_seed(session_seed, "player")),
            json,
            manifest: None,
            phase: PlayerPhase::FetchingManifest,
            next_segment: None,
            seg_play_start: SimTime::ZERO,
            content_pos_ms: 0,
            encounter_idx: 0,
            pending: None,
            dl_queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            est: ThroughputEstimator::new(3),
            bitrate: 0,
            downloaded_content_ms: 0,
            prefetch_received: 0,
            connected: true,
            unacked: VecDeque::new(),
            offline_queue: Vec::new(),
            delayed: VecDeque::new(),
            duplicate_next_state: false,
            delay_next_state: None,
            refetch_manifest: false,
            disconnected_at: None,
            truth: Vec::new(),
            done: false,
            telemetry_handles: None,
            trace: None,
        }
    }

    /// Attach telemetry handles (observation only; never changes the
    /// request stream — the player's RNG is untouched).
    pub fn set_telemetry(&mut self, telemetry: PlayerTelemetry) {
        self.telemetry_handles = Some(telemetry);
    }

    /// Attach a trace sink; player lifecycle events are emitted under
    /// `span`. Observation only: no RNG draws, no request changes.
    pub fn set_trace(&mut self, handle: TraceHandle, span: SpanId) {
        self.trace = Some((handle, span));
    }

    fn trace_instant(&self, t: SimTime, name: &'static str, a: u64, b: u64) {
        if let Some((h, span)) = &self.trace {
            h.instant_at(t.micros(), *span, name, a, b);
        }
    }

    /// Ground truth collected so far.
    pub fn truth(&self) -> &[TruthEvent] {
        &self.truth
    }

    /// The decisions actually applied (with their choice points), in
    /// encounter order — the labels the attack is scored against.
    pub fn decisions(&self) -> Vec<(ChoicePointId, Choice)> {
        self.truth
            .iter()
            .filter_map(|e| match e {
                TruthEvent::Decision { cp, choice, .. } => Some((*cp, *choice)),
                _ => None,
            })
            .collect()
    }

    pub fn phase(&self) -> PlayerPhase {
        self.phase
    }

    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Content duration → sim duration under the time scale.
    fn scaled_secs(&self, secs: f64) -> Duration {
        Duration::from_secs_f64(secs / self.cfg.time_scale as f64)
    }

    fn manifest_request(&self) -> Request {
        Request::new("GET", "/manifest")
            .header("Host", "www.netflix.com")
            .header("User-Agent", self.profile.user_agent())
            .header("Accept", "application/json")
            .header("Cookie", self.json.cookie())
    }

    /// Kick off the session: fetch the manifest, arm background timers.
    pub fn start(&mut self, now: SimTime) -> PlayerActions {
        let mut actions = PlayerActions::default();
        let req = self.manifest_request();
        self.push_request(&mut actions, now, req, RequestKind::Manifest);
        let jitter = self.rng.uniform_f64(0.0, 5.0);
        actions.timers.push((
            now + self.scaled_secs(TELEMETRY_PERIOD_SECS + jitter),
            timer_kinds::TELEMETRY,
        ));
        actions.timers.push((
            now + self.scaled_secs(HEARTBEAT_PERIOD_SECS),
            timer_kinds::HEARTBEAT,
        ));
        actions
            .timers
            .push((now + self.scaled_secs(DIAG_PERIOD_SECS), timer_kinds::DIAG));
        actions
    }

    /// A response arrived (responses are FIFO on the connection).
    pub fn on_response(&mut self, now: SimTime, resp: &Response) -> PlayerActions {
        let mut actions = PlayerActions::default();
        if self.done {
            return actions;
        }
        let Some((kind, sent_at)) = self.in_flight.pop_front() else {
            return actions; // spurious (session layer bug); ignore
        };
        match kind {
            RequestKind::Manifest => {
                let doc = wm_json::parse(&resp.body).expect("manifest must parse");
                let manifest = Manifest::from_json(&doc).expect("manifest schema");
                self.bitrate = manifest.ladder[ABR_START_RUNG.min(manifest.ladder.len() - 1)];
                self.manifest = Some(manifest);
                self.phase = PlayerPhase::Streaming;
                self.begin_segment(now, self.graph.start(), &mut actions);
            }
            RequestKind::Chunk {
                segment,
                idx,
                prefetch,
            } => {
                if let Some(t) = &self.telemetry_handles {
                    t.chunks_received.inc();
                }
                self.est
                    .record(resp.body.len(), now.since(sent_at).micros());
                let m = self.manifest.as_ref().expect("streaming implies manifest");
                self.bitrate = self.est.select(&m.ladder, ABR_START_RUNG, ABR_SAFETY);
                if prefetch {
                    self.prefetch_received += 1;
                } else {
                    let seg = self.graph.segment(segment);
                    let count = m.chunk_count(seg.duration_secs);
                    let span_ms = if idx + 1 == count {
                        (seg.duration_secs - m.chunk_secs * (count - 1)).max(1) as i64 * 1000
                    } else {
                        m.chunk_secs as i64 * 1000
                    };
                    self.downloaded_content_ms += span_ms;
                }
                self.pump_downloads(now, &mut actions);
            }
            // State reports must be acknowledged; a 503 arms the
            // backoff retry machinery.
            RequestKind::StateType1 | RequestKind::StateType2 => {
                self.on_state_response(now, kind, resp, &mut actions);
            }
            // Response bodies of background traffic are ignored; their
            // purpose is the bytes on the wire.
            RequestKind::DummyReport
            | RequestKind::Telemetry
            | RequestKind::Heartbeat
            | RequestKind::Diagnostic => {}
        }
        actions
    }

    /// A timer fired.
    pub fn on_timer(&mut self, now: SimTime, kind: TimerKind) -> PlayerActions {
        let mut actions = PlayerActions::default();
        if self.done {
            return actions;
        }
        match kind {
            timer_kinds::QUESTION => self.on_question(now, &mut actions),
            timer_kinds::VIEWER_DECIDES => self.on_decision(now, &mut actions),
            timer_kinds::SEGMENT_END => self.on_segment_end(now, &mut actions),
            timer_kinds::BUFFER => self.pump_downloads(now, &mut actions),
            timer_kinds::TELEMETRY => {
                self.send_telemetry(now, &mut actions);
                let jitter = self.rng.uniform_f64(-5.0, 5.0);
                actions.timers.push((
                    now + self.scaled_secs(TELEMETRY_PERIOD_SECS + jitter),
                    timer_kinds::TELEMETRY,
                ));
            }
            timer_kinds::HEARTBEAT => {
                self.send_heartbeat(now, &mut actions);
                actions.timers.push((
                    now + self.scaled_secs(HEARTBEAT_PERIOD_SECS),
                    timer_kinds::HEARTBEAT,
                ));
            }
            timer_kinds::DIAG => {
                self.send_diag(now, &mut actions);
                actions
                    .timers
                    .push((now + self.scaled_secs(DIAG_PERIOD_SECS), timer_kinds::DIAG));
            }
            timer_kinds::STATE_RETRY => self.retry_front(now, &mut actions),
            timer_kinds::STATE_TIMEOUT => self.check_state_timeout(now, &mut actions),
            timer_kinds::DELAYED_POST => self.flush_delayed(now, &mut actions),
            _ => {}
        }
        actions
    }

    // ----- playback ---------------------------------------------------

    /// Enter a segment at `now`: record truth, enqueue its chunks and
    /// arm the boundary timer.
    fn begin_segment(&mut self, now: SimTime, id: SegmentId, actions: &mut PlayerActions) {
        self.current_segment = id;
        self.seg_play_start = now;
        self.truth.push(TruthEvent::SegmentStarted {
            time: now,
            segment: id,
        });
        self.enqueue_segment(id, 0, false);
        self.pump_downloads(now, actions);

        let seg = self.graph.segment(id);
        let dur = seg.duration_secs as f64;
        match seg.end {
            SegmentEnd::Choice(_) => {
                // Question appears 10 s (content) before the boundary;
                // clamped for very short segments.
                let lead = CHOICE_WINDOW_SECS.min(dur / 2.0);
                actions
                    .timers
                    .push((now + self.scaled_secs(dur - lead), timer_kinds::QUESTION));
            }
            SegmentEnd::Continue(_) | SegmentEnd::Ending => {
                actions
                    .timers
                    .push((now + self.scaled_secs(dur), timer_kinds::SEGMENT_END));
            }
        }
    }

    fn on_question(&mut self, now: SimTime, actions: &mut PlayerActions) {
        let seg = self.graph.segment(self.current_segment);
        let SegmentEnd::Choice(cp_id) = seg.end else {
            return; // stale timer after a decision already moved us on
        };
        self.phase = PlayerPhase::ChoiceWindow;
        let dur = seg.duration_secs as f64;
        let lead = CHOICE_WINDOW_SECS.min(dur / 2.0);
        let play_end = self.seg_play_start + self.scaled_secs(dur);
        let window = self.scaled_secs(lead);

        self.truth.push(TruthEvent::QuestionShown {
            time: now,
            cp: cp_id,
        });
        // a = choice point, b = choice-window length (sim µs).
        self.trace_instant(now, "player.question", cp_id.0 as u64, window.micros());

        // Type-1 state report.
        let position_ms = self.content_pos_ms + ((dur - lead) * 1000.0) as i64;
        let req = self.json.type1_request(&Type1Fields {
            session_ms: (now.micros() / 1000) as i64,
            position_ms,
            segment_id: self.current_segment.0,
            choice_point_id: cp_id.0,
        });
        self.push_state_request(actions, now, req, RequestKind::StateType1);

        // Prefetch the default branch.
        let cp = self.graph.choice_point(cp_id);
        let default_target = cp.default_target();
        let m = self.manifest.as_ref().expect("choice implies manifest");
        let count = m.chunk_count(self.graph.segment(default_target).duration_secs);
        let planned = count.min(PREFETCH_LIMIT);
        for idx in 0..planned {
            self.dl_queue.push_back(QueuedChunk {
                segment: default_target,
                idx,
                prefetch: true,
            });
        }
        // a = default branch segment, b = chunks planned.
        self.trace_instant(
            now,
            "player.prefetch.default",
            default_target.0 as u64,
            planned as u64,
        );
        self.pump_downloads(now, actions);

        // Viewer reaction. Script delays are human (content-time)
        // seconds; scale them like every other content duration.
        let content_window = Duration::from_secs_f64(lead);
        let entry = self.script.entry(self.encounter_idx, content_window);
        let timed_out = entry.delay >= content_window;
        let delay_sim = self.scaled_secs(entry.delay.as_secs_f64()).min(window);
        let choice = if timed_out {
            Choice::Default
        } else {
            entry.choice
        };
        actions
            .timers
            .push((now + delay_sim, timer_kinds::VIEWER_DECIDES));
        let _ = planned;
        self.pending = Some(PendingChoice {
            cp: cp_id,
            play_end,
            choice,
            timed_out,
        });
    }

    fn on_decision(&mut self, now: SimTime, actions: &mut PlayerActions) {
        let Some(pending) = self.pending.take() else {
            return; // stale
        };
        let timed_out = pending.timed_out;
        let choice = pending.choice;
        self.encounter_idx += 1;

        let cp = self.graph.choice_point(pending.cp);
        let target = cp.option(choice).target;
        let selection_label = cp.option(choice).label;
        let mut type2_sent = false;

        match choice {
            Choice::Default => {
                // Prefetched chunks are kept (both queued and already
                // fetched); enqueue the rest of the branch as committed
                // playback from where the prefetch plan stopped.
                let planned = self.planned_prefetch_extent(target);
                self.promote_prefetch(target);
                self.enqueue_segment(target, planned, false);
                if self.cfg.dummy_reports {
                    // Defense: a dummy second post so default and
                    // non-default picks are indistinguishable by count.
                    let body_len = 2_400 + self.rng.uniform_u64(0, 120) as usize;
                    let req = Request::new("POST", "/interact/state-echo")
                        .header("Host", "www.netflix.com")
                        .header("User-Agent", self.profile.user_agent())
                        .header("Content-Type", "application/json")
                        .header("Cookie", self.json.cookie())
                        .body(telemetry_body(body_len));
                    self.push_state_request(actions, now, req, RequestKind::DummyReport);
                }
            }
            Choice::NonDefault => {
                // Cancel the prefetch and report it: the type-2 JSON.
                let cancelled = self.cancel_prefetch();
                let m = self.manifest.as_ref().expect("manifest");
                let unscaled_chunk_bytes = self.bitrate as u64 / 8 * m.chunk_secs as u64;
                let position_ms = self.elapsed_content_ms(now);
                let req = self.json.type2_request(&Type2Fields {
                    base: Type1Fields {
                        session_ms: (now.micros() / 1000) as i64,
                        position_ms,
                        segment_id: self.current_segment.0,
                        choice_point_id: pending.cp.0,
                    },
                    selection_label: selection_label.to_owned(),
                    selection_segment: target.0,
                    cancelled_chunks: cancelled.max(1),
                    cancelled_bytes: cancelled.max(1) as u64 * unscaled_chunk_bytes,
                });
                self.push_state_request(actions, now, req, RequestKind::StateType2);
                type2_sent = true;
                self.enqueue_segment(target, 0, false);
            }
        }
        self.truth.push(TruthEvent::Decision {
            time: now,
            cp: pending.cp,
            choice,
            timed_out,
            type2_sent,
        });
        self.next_segment = Some(target);
        self.phase = PlayerPhase::Streaming;
        actions
            .timers
            .push((pending.play_end, timer_kinds::SEGMENT_END));
        self.pump_downloads(now, actions);
    }

    fn on_segment_end(&mut self, now: SimTime, actions: &mut PlayerActions) {
        let seg = self.graph.segment(self.current_segment);
        self.content_pos_ms += seg.duration_secs as i64 * 1000;
        match seg.end {
            SegmentEnd::Ending => {
                self.phase = PlayerPhase::Finished;
                self.done = true;
                self.truth.push(TruthEvent::SessionEnded { time: now });
                actions.done = true;
            }
            SegmentEnd::Continue(next) => {
                self.begin_segment(now, next, actions);
            }
            SegmentEnd::Choice(_) => {
                let next = self
                    .next_segment
                    .take()
                    .expect("decision must precede the boundary");
                self.begin_segment(now, next, actions);
            }
        }
    }

    // ----- downloads ---------------------------------------------------

    /// Enqueue committed chunks `from..count` of a segment.
    fn enqueue_segment(&mut self, id: SegmentId, from: u32, prefetch: bool) {
        let m = self.manifest.as_ref().expect("manifest before downloads");
        let count = m.chunk_count(self.graph.segment(id).duration_secs);
        for idx in from..count {
            self.dl_queue.push_back(QueuedChunk {
                segment: id,
                idx,
                prefetch,
            });
        }
    }

    /// Highest prefetch chunk index scheduled for `target`, plus one.
    fn planned_prefetch_extent(&self, target: SegmentId) -> u32 {
        let queued_max = self
            .dl_queue
            .iter()
            .filter(|q| q.prefetch && q.segment == target)
            .map(|q| q.idx + 1)
            .max()
            .unwrap_or(0);
        let inflight_max = self
            .in_flight
            .iter()
            .filter_map(|(k, _)| match k {
                RequestKind::Chunk {
                    segment,
                    idx,
                    prefetch: true,
                } if *segment == target => Some(*idx + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        queued_max.max(inflight_max).max(self.prefetch_received)
    }

    /// Turn already-queued/fetched prefetch chunks into committed ones.
    fn promote_prefetch(&mut self, target: SegmentId) {
        let m = self.manifest.as_ref().expect("manifest");
        let chunk_ms = m.chunk_secs as i64 * 1000;
        for q in self.dl_queue.iter_mut() {
            if q.prefetch && q.segment == target {
                q.prefetch = false;
            }
        }
        // Prefetch responses already received count toward the buffer
        // now (they were excluded while speculative).
        let received = self.prefetch_received;
        self.downloaded_content_ms += received as i64 * chunk_ms;
        self.prefetch_received = 0;
    }

    /// Drop queued prefetch chunks; returns how many chunks had been
    /// speculatively scheduled (requested or queued).
    fn cancel_prefetch(&mut self) -> u32 {
        let queued = self.dl_queue.iter().filter(|q| q.prefetch).count() as u32;
        self.dl_queue.retain(|q| !q.prefetch);
        let fetched = self.prefetch_received
            + self
                .in_flight
                .iter()
                .filter(|(k, _)| matches!(k, RequestKind::Chunk { prefetch: true, .. }))
                .count() as u32;
        self.prefetch_received = 0;
        queued + fetched
    }

    /// Issue the next chunk request if pacing allows.
    fn pump_downloads(&mut self, now: SimTime, actions: &mut PlayerActions) {
        if self
            .in_flight
            .iter()
            .any(|(k, _)| matches!(k, RequestKind::Chunk { .. }))
        {
            return; // one chunk at a time
        }
        let Some(&next) = self.dl_queue.front() else {
            return;
        };
        if !next.prefetch {
            // Pace committed downloads to the buffer target.
            let elapsed_content_ms = self.elapsed_content_ms(now);
            let ahead_ms = self.downloaded_content_ms - elapsed_content_ms;
            let target_ms = BUFFER_TARGET_SECS * 1000;
            if ahead_ms > target_ms {
                let wait = self.scaled_secs((ahead_ms - target_ms) as f64 / 1000.0);
                actions.timers.push((now + wait, timer_kinds::BUFFER));
                return;
            }
        }
        self.dl_queue.pop_front();
        let path = format!("/media/{}/{}?br={}", next.segment.0, next.idx, self.bitrate);
        let req = Request::new("GET", path)
            .header("Host", "www.netflix.com")
            .header("User-Agent", self.profile.user_agent())
            .header("Accept", "*/*")
            .header("Cookie", self.json.cookie());
        self.push_request(
            actions,
            now,
            req,
            RequestKind::Chunk {
                segment: next.segment,
                idx: next.idx,
                prefetch: next.prefetch,
            },
        );
    }

    /// Content milliseconds played so far at `now`.
    fn elapsed_content_ms(&self, now: SimTime) -> i64 {
        let in_seg = now.since(self.seg_play_start).micros() as i64 / 1000;
        self.content_pos_ms + in_seg * self.cfg.time_scale as i64
    }

    // ----- background traffic ------------------------------------------

    fn send_telemetry(&mut self, now: SimTime, actions: &mut PlayerActions) {
        // Sealed-length target: usually the benign telemetry band, with
        // a rare heavy tail colliding with the type-2 band (the
        // condition-dependent false-positive source). Benign telemetry
        // has its own fixed payload structure in real traffic, so it
        // does not coincide with the state-report sizes — dodge a ±30
        // byte guard band around both report targets (the paper's
        // Figure 2 shows exactly this separation per condition).
        let sealed_target = if self.rng.chance(self.cfg.telemetry_tail_prob) {
            let t2 = self.profile.type2_target_len();
            self.rng.uniform_u64(t2 as u64 - 12, t2 as u64 + 6) as usize
        } else {
            let mut target = self.rng.uniform_u64(2250, 2800) as usize;
            for report in [
                self.profile.type1_target_len(),
                self.profile.type2_target_len(),
            ] {
                if target.abs_diff(report) < 30 {
                    target = report + 30 + (target % 17);
                }
            }
            target
        };
        let req = self.sized_post("/log", sealed_target);
        self.push_request(actions, now, req, RequestKind::Telemetry);
    }

    fn send_heartbeat(&mut self, now: SimTime, actions: &mut PlayerActions) {
        let sealed_target = self.rng.uniform_u64(820, 1100) as usize;
        let req = self.sized_post("/hb", sealed_target);
        self.push_request(actions, now, req, RequestKind::Heartbeat);
    }

    fn send_diag(&mut self, now: SimTime, actions: &mut PlayerActions) {
        let sealed_target = self.rng.uniform_u64(4400, 9000) as usize;
        let req = self.sized_post("/diag", sealed_target);
        self.push_request(actions, now, req, RequestKind::Diagnostic);
    }

    /// Build a POST whose sealed (AEAD) record length is exactly
    /// `sealed_target` bytes when written as one record.
    fn sized_post(&self, path: &str, sealed_target: usize) -> Request {
        let base = Request::new("POST", path)
            .header("Host", "www.netflix.com")
            .header("User-Agent", self.profile.user_agent())
            .header("Content-Type", "application/json")
            .header("Cookie", self.json.cookie());
        let plain_target = sealed_target.saturating_sub(wm_cipher::TAG_LEN);
        // Iterate: Content-Length digits shift with the body size.
        let mut body_len = plain_target
            .saturating_sub(base.serialized_len() + 24)
            .max(2);
        for _ in 0..4 {
            let total = base.serialized_len_with_body(body_len);
            if total == plain_target {
                break;
            }
            body_len = (body_len as i64 + plain_target as i64 - total as i64).max(2) as usize;
        }
        base.body(telemetry_body(body_len))
    }

    // ----- request plumbing ---------------------------------------------

    fn push_request(
        &mut self,
        actions: &mut PlayerActions,
        now: SimTime,
        request: Request,
        kind: RequestKind,
    ) {
        if let Some(t) = &self.telemetry_handles {
            t.count(kind);
        }
        let out = OutRequest {
            request,
            kind,
            split_flush: false,
        };
        if self.connected {
            self.in_flight.push_back((kind, now));
            actions.requests.push(out);
        } else {
            self.offline_queue.push(out);
        }
    }

    /// State posts may rarely be flush-split into two records.
    fn push_state_request(
        &mut self,
        actions: &mut PlayerActions,
        now: SimTime,
        request: Request,
        kind: RequestKind,
    ) {
        let p = self.profile.split_flush_prob() + self.cfg.split_flush_extra;
        let split = self.rng.chance(p);
        if let Some(t) = &self.telemetry_handles {
            t.count(kind);
            if split {
                t.split_flushes.inc();
            }
        }
        let track = matches!(kind, RequestKind::StateType1 | RequestKind::StateType2);
        if track {
            if let Some(delay) = self.delay_next_state.take() {
                // Fault: the report is built now but leaves late.
                self.trace_instant(now, "player.state.delayed", delay.micros(), 0);
                self.delayed.push_back((now + delay, request, kind, split));
                actions
                    .timers
                    .push((now + delay, timer_kinds::DELAYED_POST));
                return;
            }
        }
        let mut copies = 1u32;
        if track && self.duplicate_next_state {
            self.duplicate_next_state = false;
            copies = 2;
            if let Some(t) = &self.telemetry_handles {
                t.duplicate_posts.inc();
            }
        }
        self.dispatch_state(actions, now, request, kind, split, copies);
    }

    /// Emit `copies` identical wire copies of a state post (or queue it
    /// for the reconnect replay when the transport is down) and record
    /// the report as unacknowledged if it needs a 2xx.
    fn dispatch_state(
        &mut self,
        actions: &mut PlayerActions,
        now: SimTime,
        request: Request,
        kind: RequestKind,
        split: bool,
        copies: u32,
    ) {
        let track = matches!(kind, RequestKind::StateType1 | RequestKind::StateType2);
        if track {
            // a = wire copies (2 under the duplicate-POST fault),
            // b = serialized body length — the pre-TLS observable.
            let name = match kind {
                RequestKind::StateType2 => "player.state.type2",
                _ => "player.state.type1",
            };
            self.trace_instant(now, name, copies as u64, request.body.len() as u64);
            self.unacked.push_back(UnackedState {
                kind,
                request: request.clone(),
                copies: if self.connected { copies } else { 0 },
                attempts: 0,
                last_sent: now,
            });
            if !self.connected {
                return; // replayed by on_reconnected
            }
            actions
                .timers
                .push((now + self.state_timeout(), timer_kinds::STATE_TIMEOUT));
        } else if !self.connected {
            self.offline_queue.push(OutRequest {
                request,
                kind,
                split_flush: split,
            });
            return;
        }
        for i in 0..copies {
            self.in_flight.push_back((kind, now));
            actions.requests.push(OutRequest {
                request: request.clone(),
                kind,
                split_flush: split && i == 0,
            });
        }
    }

    // ----- fault handling & recovery ------------------------------------

    /// Inject a client-side fault (called by the session layer when the
    /// chaos plan fires).
    pub fn inject_fault(&mut self, fault: PlayerFault) {
        match fault {
            PlayerFault::DuplicateNextStatePost => self.duplicate_next_state = true,
            PlayerFault::DelayNextStatePost { delay } => self.delay_next_state = Some(delay),
        }
    }

    pub fn is_connected(&self) -> bool {
        self.connected
    }

    fn state_timeout(&self) -> Duration {
        self.scaled_secs(STATE_TIMEOUT_SECS)
    }

    /// Backoff before retry `attempt` (1-based): capped exponential
    /// with ±25% jitter from the player's seeded RNG. Only ever drawn
    /// on fault paths, so clean sessions see an untouched RNG stream.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(5);
        let secs = (RETRY_BASE_SECS * (1u64 << exp) as f64).min(RETRY_CAP_SECS);
        let jitter = 0.75 + self.rng.unit() * 0.5;
        let d = self.scaled_secs(secs * jitter);
        if let Some(t) = &self.telemetry_handles {
            t.backoff_delay_us.record(d.micros());
        }
        // Stamped from the recorder's shared sim clock (backoff has no
        // `now` parameter); a = attempt, b = chosen delay in sim µs.
        if let Some((h, span)) = &self.trace {
            h.instant(*span, "player.state.backoff", attempt as u64, d.micros());
        }
        d
    }

    /// A response for the oldest unacknowledged state report arrived.
    fn on_state_response(
        &mut self,
        now: SimTime,
        kind: RequestKind,
        resp: &Response,
        actions: &mut PlayerActions,
    ) {
        let Some(front) = self.unacked.front_mut() else {
            return; // report already abandoned
        };
        if front.kind != kind {
            return; // response to an abandoned report; ignore
        }
        if front.copies > 0 {
            front.copies -= 1;
        }
        if resp.status == 503 {
            if front.copies > 0 {
                return; // a duplicate copy is still in flight
            }
            front.attempts += 1;
            if front.attempts > MAX_STATE_ATTEMPTS {
                self.unacked.pop_front();
                return;
            }
            let attempt = front.attempts;
            let delay = self.backoff(attempt);
            actions.timers.push((now + delay, timer_kinds::STATE_RETRY));
            return;
        }
        // Any non-503 status acknowledges the report (the server dedups
        // replays by sequence number, so a duplicate's 2xx counts too).
        if front.copies == 0 {
            self.unacked.pop_front();
        }
    }

    /// Re-send the oldest unacknowledged report (STATE_RETRY fired).
    fn retry_front(&mut self, now: SimTime, actions: &mut PlayerActions) {
        if !self.connected {
            return; // on_reconnected replays the whole queue
        }
        let timeout = self.state_timeout();
        let Some(front) = self.unacked.front_mut() else {
            return;
        };
        if front.attempts == 0 {
            return; // acked in the meantime; a fresh report is at front
        }
        front.copies += 1;
        front.last_sent = now;
        let kind = front.kind;
        let attempts = front.attempts;
        let request = front.request.clone();
        if let Some(t) = &self.telemetry_handles {
            t.retries.inc();
        }
        // a = attempt count so far, b = report kind (1/2).
        self.trace_instant(
            now,
            "player.state.retry",
            attempts as u64,
            if matches!(kind, RequestKind::StateType2) {
                2
            } else {
                1
            },
        );
        self.in_flight.push_back((kind, now));
        actions.requests.push(OutRequest {
            request,
            kind,
            split_flush: false,
        });
        actions
            .timers
            .push((now + timeout, timer_kinds::STATE_TIMEOUT));
    }

    /// STATE_TIMEOUT fired: the oldest report may have gone unanswered.
    fn check_state_timeout(&mut self, now: SimTime, actions: &mut PlayerActions) {
        if !self.connected {
            return;
        }
        let timeout = self.state_timeout();
        let Some(front) = self.unacked.front_mut() else {
            return; // everything acked; stale timer
        };
        if now.since(front.last_sent) < timeout {
            // A newer report (or a retry) reset the clock; re-check at
            // its deadline.
            actions
                .timers
                .push((front.last_sent + timeout, timer_kinds::STATE_TIMEOUT));
            return;
        }
        front.attempts += 1;
        if front.attempts > MAX_STATE_ATTEMPTS {
            self.unacked.pop_front();
            return;
        }
        let attempt = front.attempts;
        let delay = self.backoff(attempt);
        actions.timers.push((now + delay, timer_kinds::STATE_RETRY));
    }

    /// DELAYED_POST fired: release fault-delayed reports that are due.
    fn flush_delayed(&mut self, now: SimTime, actions: &mut PlayerActions) {
        while let Some((due, ..)) = self.delayed.front() {
            if *due > now {
                break;
            }
            let (_, request, kind, split) = self.delayed.pop_front().expect("front exists");
            self.dispatch_state(actions, now, request, kind, split, 1);
        }
    }

    /// The transport died: every in-flight response is lost. Chunk
    /// requests go back to the front of the download queue; state
    /// reports stay unacknowledged for replay on reconnect.
    pub fn on_connection_lost(&mut self, now: SimTime) {
        if !self.connected || self.done {
            return;
        }
        self.connected = false;
        self.disconnected_at = Some(now);
        if let Some(t) = &self.telemetry_handles {
            t.rebuffers.inc();
        }
        // a = requests in flight when the transport died.
        self.trace_instant(now, "player.conn.lost", self.in_flight.len() as u64, 0);
        if self
            .in_flight
            .iter()
            .any(|(k, _)| matches!(k, RequestKind::Manifest))
        {
            self.refetch_manifest = true;
        }
        let lost: Vec<QueuedChunk> = self
            .in_flight
            .iter()
            .filter_map(|(k, _)| match k {
                RequestKind::Chunk {
                    segment,
                    idx,
                    prefetch,
                } => Some(QueuedChunk {
                    segment: *segment,
                    idx: *idx,
                    prefetch: *prefetch,
                }),
                _ => None,
            })
            .collect();
        for c in lost.into_iter().rev() {
            self.dl_queue.push_front(c);
        }
        // No response will arrive for any outstanding copy.
        for e in self.unacked.iter_mut() {
            e.copies = 0;
        }
        self.in_flight.clear();
    }

    /// The transport is back (TLS session resumed on a fresh flow):
    /// replay unacknowledged state reports, flush requests queued while
    /// offline, resume downloads.
    pub fn on_reconnected(&mut self, now: SimTime) -> PlayerActions {
        let mut actions = PlayerActions::default();
        if self.connected || self.done {
            return actions;
        }
        self.connected = true;
        let since = self.disconnected_at.take();
        if let (Some(t), Some(since)) = (&self.telemetry_handles, since) {
            t.rebuffer_time_us.record(now.since(since).micros());
        }
        // a = unacked reports to replay, b = offline-queued requests.
        self.trace_instant(
            now,
            "player.conn.resumed",
            self.unacked.len() as u64,
            self.offline_queue.len() as u64,
        );
        if self.refetch_manifest {
            self.refetch_manifest = false;
            let req = self.manifest_request();
            self.push_request(&mut actions, now, req, RequestKind::Manifest);
        }
        for i in 0..self.unacked.len() {
            let (kind, request) = {
                let e = &mut self.unacked[i];
                e.copies += 1;
                e.attempts += 1;
                e.last_sent = now;
                (e.kind, e.request.clone())
            };
            if let Some(t) = &self.telemetry_handles {
                t.retries.inc();
            }
            self.in_flight.push_back((kind, now));
            actions.requests.push(OutRequest {
                request,
                kind,
                split_flush: false,
            });
        }
        if !self.unacked.is_empty() {
            actions
                .timers
                .push((now + self.state_timeout(), timer_kinds::STATE_TIMEOUT));
        }
        for out in std::mem::take(&mut self.offline_queue) {
            self.in_flight.push_back((out.kind, now));
            actions.requests.push(out);
        }
        self.pump_downloads(now, &mut actions);
        actions
    }
}

/// Simple JSON-ish telemetry body of exactly `n` bytes (at least 2):
/// `{"b":"` and `"}` around filler where byte `i` is
/// `'A' + (11·i mod 26)`.
fn telemetry_body(n: usize) -> Vec<u8> {
    const OPEN: &[u8] = b"{\"b\":\"";
    /// One period of the filler.
    const CYCLE: [u8; 26] = {
        let mut c = [0u8; 26];
        let mut i = 0;
        while i < 26 {
            c[i] = b'A' + ((i * 11) % 26) as u8;
            i += 1;
        }
        c
    };
    let inner = n.saturating_sub(2);
    let mut body = Vec::with_capacity(inner + 2);
    body.extend_from_slice(&OPEN[..inner.min(OPEN.len())]);
    while body.len() < inner {
        let at = body.len();
        let run = (26 - at % 26).min(inner - at);
        body.extend_from_slice(&CYCLE[at % 26..][..run]);
    }
    body.extend_from_slice(b"\"}");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use wm_netflix::{NetflixServer, ServerConfig, StateEventKind};
    use wm_story::bandersnatch::{bandersnatch, tiny_film};

    /// Minimal lossless driver: answers every request instantly (with a
    /// tiny latency) and fires timers in order. No TCP/TLS — that path
    /// is exercised by wm-sim; this isolates the state machine.
    struct Driver {
        player: Player,
        server: NetflixServer,
        timers: BinaryHeap<Reverse<(SimTime, u32, u64)>>,
        tie: u64,
        now: SimTime,
        sent: Vec<(SimTime, RequestKind, usize, bool)>,
        responses: VecDeque<Response>,
        /// Optional connection-loss fault: at `disconnect_at` the
        /// transport dies (in-flight responses are dropped) and comes
        /// back `reconnect_after` later.
        disconnect_at: Option<SimTime>,
        reconnect_after: Duration,
        down: bool,
    }

    const LATENCY: Duration = Duration(20_000); // 20 ms request→response
    const DISCONNECT: u32 = 0xbeef;
    const RECONNECT: u32 = 0xcafe;

    impl Driver {
        fn new(player: Player, server: NetflixServer) -> Self {
            Driver {
                player,
                server,
                timers: BinaryHeap::new(),
                tie: 0,
                now: SimTime::ZERO,
                sent: Vec::new(),
                responses: VecDeque::new(),
                disconnect_at: None,
                reconnect_after: Duration::ZERO,
                down: false,
            }
        }

        fn apply(&mut self, actions: PlayerActions) {
            // Requests are answered LATENCY later via a timer with a
            // reserved kind (0xdead + index into a response queue).
            for out in actions.requests {
                self.sent.push((
                    self.now,
                    out.kind,
                    out.request.serialized_len(),
                    out.split_flush,
                ));
                let resp = self.server.handle(&out.request);
                self.responses.push_back(resp);
                self.timers
                    .push(Reverse((self.now + LATENCY, 0xdead, self.tie)));
                self.tie += 1;
            }
            for (at, kind) in actions.timers {
                self.timers.push(Reverse((at, kind.0, self.tie)));
                self.tie += 1;
            }
        }

        fn run(&mut self) {
            if let Some(at) = self.disconnect_at {
                self.timers.push(Reverse((at, DISCONNECT, self.tie)));
                self.tie += 1;
            }
            let start = self.player.start(self.now);
            self.apply(start);
            let mut steps = 0;
            while let Some(Reverse((at, kind, _))) = self.timers.pop() {
                steps += 1;
                assert!(steps < 1_000_000, "driver runaway");
                self.now = at;
                if kind == DISCONNECT {
                    self.down = true;
                    self.player.on_connection_lost(at);
                    self.timers
                        .push(Reverse((at + self.reconnect_after, RECONNECT, self.tie)));
                    self.tie += 1;
                    continue;
                }
                if kind == RECONNECT {
                    self.down = false;
                    let actions = self.player.on_reconnected(at);
                    self.apply(actions);
                    continue;
                }
                if self.player.is_done() {
                    continue;
                }
                let actions = if kind == 0xdead {
                    let resp = self.responses.pop_front().expect("response queued");
                    if self.down {
                        continue; // response lost with the connection
                    }
                    self.player.on_response(at, &resp)
                } else {
                    self.player.on_timer(at, TimerKind(kind))
                };
                self.apply(actions);
            }
        }
    }

    fn make_driver(choices: &[Choice]) -> Driver {
        let graph = Arc::new(bandersnatch());
        let script = ViewerScript::from_choices(choices, Duration::from_secs(3));
        let cfg = PlayerConfig {
            time_scale: 20,
            ..PlayerConfig::default()
        };
        let player = Player::new(
            Profile::ubuntu_firefox_desktop(),
            graph.clone(),
            script,
            cfg,
            42,
        );
        let server = NetflixServer::new(graph, ServerConfig { media_scale: 4096 });
        Driver::new(player, server)
    }

    fn run_session(choices: &[Choice]) -> Driver {
        let mut d = make_driver(choices);
        d.run();
        d
    }

    #[test]
    fn all_default_session_sends_only_type1() {
        let d = run_session(&[Choice::Default; 3]);
        assert!(d.player.is_done());
        let log = d.server.state_log();
        // Accept-the-job path: 4 choice points (incl. the crunch-night
        // follow-up), all default.
        assert_eq!(log.len(), 4);
        assert!(log.iter().all(|e| e.kind == StateEventKind::Type1));
        assert_eq!(d.player.decisions().len(), 4);
    }

    #[test]
    fn nondefault_choices_send_type2() {
        // Refuse the job (N at choice 3), then defaults.
        let d = run_session(&[Choice::Default, Choice::Default, Choice::NonDefault]);
        let log = d.server.state_log();
        let type2: Vec<_> = log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type2)
            .collect();
        assert_eq!(type2.len(), 1, "exactly one non-default pick");
        assert_eq!(type2[0].choice_point, wm_story::ChoicePointId(2));
        // The walk continues past the refusal: more than 3 decisions.
        assert!(d.player.decisions().len() > 3);
    }

    #[test]
    fn type1_count_matches_choice_points_encountered() {
        let d = run_session(&[Choice::NonDefault; 14]);
        let log = d.server.state_log();
        let t1 = log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type1)
            .count();
        let t2 = log
            .iter()
            .filter(|e| e.kind == StateEventKind::Type2)
            .count();
        assert_eq!(t1, d.player.decisions().len());
        assert_eq!(t2, d.player.decisions().len(), "every pick was non-default");
    }

    #[test]
    fn ground_truth_matches_script() {
        let choices = [
            Choice::Default,
            Choice::NonDefault,
            Choice::NonDefault,
            Choice::Default,
        ];
        let d = run_session(&choices);
        let decisions = d.player.decisions();
        for (i, (_, c)) in decisions.iter().enumerate().take(choices.len()) {
            assert_eq!(*c, choices[i], "decision {i}");
        }
    }

    #[test]
    fn truth_event_ordering() {
        let d = run_session(&[Choice::NonDefault; 5]);
        let truth = d.player.truth();
        // Question always precedes its decision.
        let mut last_question: Option<ChoicePointId> = None;
        for e in truth {
            match e {
                TruthEvent::QuestionShown { cp, .. } => {
                    assert!(last_question.is_none(), "nested questions");
                    last_question = Some(*cp);
                }
                TruthEvent::Decision { cp, .. } => {
                    assert_eq!(last_question.take(), Some(*cp));
                }
                _ => {}
            }
        }
        assert!(matches!(
            truth.last(),
            Some(TruthEvent::SessionEnded { .. })
        ));
    }

    #[test]
    fn timeout_falls_back_to_default() {
        let graph = Arc::new(tiny_film());
        // Delay beyond any plausible window → every choice times out.
        let script = ViewerScript::from_choices(&[Choice::NonDefault; 3], Duration::from_secs(60));
        let player = Player::new(
            Profile::ubuntu_firefox_desktop(),
            graph.clone(),
            script,
            PlayerConfig::default(),
            7,
        );
        let server = NetflixServer::new(graph, ServerConfig { media_scale: 4096 });
        let mut d = Driver::new(player, server);
        d.run();
        for (_, choice) in d.player.decisions() {
            assert_eq!(choice, Choice::Default, "timeouts must apply the default");
        }
        for e in d.player.truth() {
            if let TruthEvent::Decision {
                timed_out,
                type2_sent,
                ..
            } = e
            {
                assert!(*timed_out);
                assert!(!*type2_sent);
            }
        }
    }

    #[test]
    fn prefetch_happens_and_cancels() {
        let d = run_session(&[Choice::NonDefault; 14]);
        let prefetches = d
            .sent
            .iter()
            .filter(|(_, k, _, _)| matches!(k, RequestKind::Chunk { prefetch: true, .. }))
            .count();
        assert!(prefetches > 0, "default branches must be prefetched");
        // All prefetched chunks were for branches never taken; the type-2
        // reports carried the cancellation counts (validated server-side).
        assert!(d
            .server
            .state_log()
            .iter()
            .any(|e| e.kind == StateEventKind::Type2));
    }

    #[test]
    fn background_traffic_flows() {
        let d = run_session(&[Choice::Default, Choice::Default, Choice::NonDefault]);
        let kinds: Vec<RequestKind> = d.sent.iter().map(|(_, k, _, _)| *k).collect();
        assert!(kinds.contains(&RequestKind::Telemetry));
        assert!(kinds.contains(&RequestKind::Heartbeat));
        assert!(kinds.iter().any(|k| matches!(k, RequestKind::Chunk { .. })));
    }

    #[test]
    fn state_post_sizes_in_paper_bands() {
        let d = run_session(&[Choice::NonDefault; 14]);
        for (_, kind, plain_len, split) in &d.sent {
            if *split {
                continue; // split posts intentionally break the band
            }
            let sealed = plain_len + wm_cipher::TAG_LEN;
            match kind {
                RequestKind::StateType1 => {
                    assert!((2211..=2213).contains(&sealed), "type-1 sealed {sealed}")
                }
                RequestKind::StateType2 => {
                    assert!((2992..=3017).contains(&sealed), "type-2 sealed {sealed}")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn telemetry_body_is_exact_and_cycles() {
        for n in 0..300usize {
            // Reference: the byte-at-a-time definition.
            let mut want = b"{\"b\":\"".to_vec();
            while want.len() < n.saturating_sub(2) {
                want.push(b'A' + ((want.len() * 11) % 26) as u8);
            }
            want.truncate(n.saturating_sub(2));
            want.extend_from_slice(b"\"}");
            assert_eq!(telemetry_body(n), want, "n = {n}");
        }
    }

    #[test]
    fn telemetry_sizes_in_others_band() {
        let d = run_session(&[Choice::Default; 14]);
        let mut saw_telemetry = false;
        for (_, kind, plain_len, _) in &d.sent {
            if *kind == RequestKind::Telemetry {
                saw_telemetry = true;
                let sealed = plain_len + wm_cipher::TAG_LEN;
                let in_benign = (2250..=2800).contains(&sealed);
                let t2 = Profile::ubuntu_firefox_desktop().type2_target_len();
                let in_tail = (t2 - 12..=t2 + 6).contains(&sealed);
                assert!(in_benign || in_tail, "telemetry sealed {sealed}");
            }
        }
        assert!(saw_telemetry);
    }

    #[test]
    fn diag_uploads_are_large() {
        let d = run_session(&[Choice::Default; 14]);
        for (_, kind, plain_len, _) in &d.sent {
            if *kind == RequestKind::Diagnostic {
                assert!(plain_len + wm_cipher::TAG_LEN >= 4334, "diag too small");
            }
        }
    }

    #[test]
    fn tiny_film_fast_session() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
            Duration::from_millis(1500),
        );
        let player = Player::new(
            Profile::windows_firefox_desktop(),
            graph.clone(),
            script,
            PlayerConfig::default(),
            3,
        );
        let server = NetflixServer::new(graph, ServerConfig { media_scale: 1024 });
        let mut d = Driver::new(player, server);
        d.run();
        assert!(d.player.is_done());
        let picks: Vec<Choice> = d.player.decisions().iter().map(|(_, c)| *c).collect();
        assert_eq!(
            picks,
            vec![Choice::NonDefault, Choice::Default, Choice::NonDefault]
        );
    }

    fn type1_sends(d: &Driver) -> Vec<SimTime> {
        d.sent
            .iter()
            .filter(|(_, k, _, _)| *k == RequestKind::StateType1)
            .map(|(t, ..)| *t)
            .collect()
    }

    fn type1_logged(d: &Driver) -> usize {
        d.server
            .state_log()
            .iter()
            .filter(|e| e.kind == StateEventKind::Type1)
            .count()
    }

    #[test]
    fn duplicate_post_fault_is_deduped_server_side() {
        let mut d = make_driver(&[Choice::Default; 3]);
        d.player.inject_fault(PlayerFault::DuplicateNextStatePost);
        d.run();
        assert!(d.player.is_done());
        let decisions = d.player.decisions().len();
        // One extra wire copy, but the server logs each report once.
        assert_eq!(type1_sends(&d).len(), decisions + 1);
        assert_eq!(type1_logged(&d), decisions);
        // The two copies leave back-to-back with identical bodies.
        let times = type1_sends(&d);
        assert_eq!(times[0], times[1]);
    }

    #[test]
    fn armed_503_is_retried_until_persisted() {
        let mut d = make_driver(&[Choice::Default; 3]);
        d.server.arm_state_errors(1, 1);
        d.run();
        assert!(d.player.is_done());
        let decisions = d.player.decisions().len();
        // The 503'd report is re-sent after backoff; every report lands.
        assert_eq!(type1_sends(&d).len(), decisions + 1);
        assert_eq!(type1_logged(&d), decisions);
        // The retry happens strictly later than the original.
        let times = type1_sends(&d);
        assert!(times[1] > times[0], "backoff must delay the retry");
    }

    #[test]
    fn delayed_post_fault_still_delivers() {
        let delay = Duration::from_millis(100);
        let mut d = make_driver(&[Choice::Default; 3]);
        d.player
            .inject_fault(PlayerFault::DelayNextStatePost { delay });
        d.run();
        assert!(d.player.is_done());
        let decisions = d.player.decisions().len();
        assert_eq!(type1_logged(&d), decisions, "delayed report still lands");
        // The first report leaves at least `delay` after its question.
        let question_at = d
            .player
            .truth()
            .iter()
            .find_map(|e| match e {
                TruthEvent::QuestionShown { time, .. } => Some(*time),
                _ => None,
            })
            .expect("question shown");
        let first_sent = type1_sends(&d)[0];
        assert!(first_sent >= question_at + delay, "post must be deferred");
    }

    #[test]
    fn reconnect_replays_unacked_state_posts() {
        // Pass 1 (clean): find when the first type-1 leaves the player.
        let clean = run_session(&[Choice::Default; 3]);
        let first_post = type1_sends(&clean)[0];
        let clean_decisions = clean.player.decisions().len();

        // Pass 2: kill the connection right after that send, before its
        // response can arrive; reconnect shortly after.
        let mut d = make_driver(&[Choice::Default; 3]);
        d.disconnect_at = Some(first_post + Duration(1));
        d.reconnect_after = Duration::from_millis(50);
        d.run();
        assert!(d.player.is_done());
        assert!(d.player.is_connected());
        let decisions = d.player.decisions().len();
        assert_eq!(decisions, clean_decisions, "walk is unaffected");
        // The unanswered report is replayed on the new connection and
        // deduped server-side: one extra send, same log.
        assert!(type1_sends(&d).len() > decisions);
        assert_eq!(type1_logged(&d), decisions);
    }
}
