//! Session configuration and outputs.

use std::sync::Arc;
use wm_capture::labels::LabeledRecord;
use wm_capture::tap::Trace;
use wm_chaos::FaultPlan;
use wm_defense::Defense;
use wm_net::conditions::LinkConditions;
use wm_net::tcp::TcpStats;
use wm_net::time::SimTime;
use wm_netflix::StateLogEntry;
use wm_player::{PlayerConfig, Profile, TruthEvent, ViewerScript};
use wm_story::{Choice, ChoicePointId, StoryGraph};
use wm_telemetry::trace::TraceEvent;
use wm_telemetry::Snapshot;
use wm_tls::CipherSuite;

/// Everything describing one viewing session.
#[derive(Clone)]
pub struct SessionConfig {
    /// Master seed; every stochastic subsystem derives a labelled
    /// sub-seed, so equal configs replay byte-identical sessions.
    pub seed: u64,
    /// The film being watched.
    pub graph: Arc<StoryGraph>,
    /// Platform (OS × browser × device).
    pub profile: Profile,
    /// Link conditions (connection type × time-of-day).
    pub conditions: LinkConditions,
    /// TLS cipher-suite family.
    pub suite: CipherSuite,
    /// Player tunables (time scale, buffer, background traffic).
    pub player: PlayerConfig,
    /// Media chunk byte divisor (see `wm_netflix::Manifest`).
    pub media_scale: u32,
    /// The viewer's decisions.
    pub script: ViewerScript,
    /// Countermeasure applied to state reports.
    pub defense: Defense,
    /// Collect per-session telemetry (see `wm-telemetry`). Observation
    /// only: the trace, labels and truth are byte-identical either way;
    /// disabled sessions return an empty [`Snapshot`].
    pub telemetry: bool,
    /// Record a causal, sim-time-stamped event trace (see `wm_telemetry::trace`).
    /// Observation only: the capture, labels and truth are
    /// byte-identical either way; disabled sessions return an empty
    /// event vector.
    pub trace: bool,
    /// Fault-injection plan (see `wm-chaos`). The empty plan is a
    /// no-op: such sessions replay byte-identically to builds without
    /// the chaos machinery.
    pub chaos: FaultPlan,
}

impl SessionConfig {
    /// A convenient baseline: the paper's primary condition
    /// (Desktop/Firefox/Ethernet/Ubuntu), AEAD, no defense.
    pub fn baseline(graph: Arc<StoryGraph>, seed: u64, script: ViewerScript) -> Self {
        SessionConfig {
            seed,
            graph,
            profile: Profile::ubuntu_firefox_desktop(),
            conditions: LinkConditions::new(
                wm_net::conditions::ConnectionType::Wired,
                wm_net::conditions::TimeOfDay::Morning,
            ),
            suite: CipherSuite::Aead,
            player: PlayerConfig::default(),
            media_scale: 64,
            script,
            defense: Defense::None,
            telemetry: false,
            trace: false,
            chaos: FaultPlan::none(),
        }
    }

    /// Baseline scaled for fast tests: tiny media, 20× playback.
    pub fn fast(graph: Arc<StoryGraph>, seed: u64, script: ViewerScript) -> Self {
        let mut cfg = Self::baseline(graph, seed, script);
        cfg.media_scale = 2048;
        cfg.player.time_scale = 20;
        cfg
    }
}

/// Transfer statistics of one session.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Sim time when the session completed.
    pub duration: SimTime,
    /// Frames the tap captured.
    pub packets_captured: usize,
    /// Client (upstream) TCP statistics.
    pub client_tcp: TcpStats,
    /// Server (downstream) TCP statistics.
    pub server_tcp: TcpStats,
    /// Total events processed by the queue.
    pub events: u64,
    /// Chaos faults actually applied during the session.
    pub faults_applied: u64,
    /// Connection resets recovered via TLS session resumption.
    pub reconnects: u64,
    /// Frames the tap missed inside injected capture gaps.
    pub tap_frames_dropped: u64,
}

/// Everything a session leaves behind.
pub struct SessionOutput {
    /// The eavesdropper's view: the full packet capture.
    pub trace: Trace,
    /// Player-side ground truth timeline.
    pub truth: Vec<TruthEvent>,
    /// The decisions actually applied, in encounter order.
    pub decisions: Vec<(ChoicePointId, Choice)>,
    /// Per-record labels (training supervision; never given to the
    /// attack at inference time).
    pub labels: Vec<LabeledRecord>,
    /// Server-side state-report log (cross-checked against `truth`).
    pub server_log: Vec<StateLogEntry>,
    pub stats: SessionStats,
    /// Per-session metric snapshot (empty unless
    /// [`SessionConfig::telemetry`] was set). Counters are
    /// seed-deterministic; `*_ns` timing histograms are wall-clock.
    pub telemetry: Snapshot,
    /// Causal event trace (empty unless [`SessionConfig::trace`] was
    /// set). Timestamps are sim time, so equal configs and seeds
    /// export byte-identical JSONL.
    pub trace_events: Vec<TraceEvent>,
}

impl SessionOutput {
    /// The ground-truth choice string ("DNND…").
    pub fn choice_string(&self) -> String {
        self.decisions.iter().map(|(_, c)| c.letter()).collect()
    }
}
