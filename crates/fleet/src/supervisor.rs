//! The fleet supervisor: a deterministic single-threaded control loop
//! that routes victim packets onto shards, checkpoints each shard on a
//! sim-time cadence, injects/absorbs shard faults from a
//! [`ShardFaultPlan`], restarts dead shards from their last good
//! checkpoint with capped exponential backoff, applies live
//! [`ResizeSchedule`] steps (draining and migrating victims across a
//! recomputed consistent-hash ring), and merges every shard's verdicts
//! through the [`VerdictDedup`] stage into one stream.
//!
//! # Determinism
//!
//! The loop is driven purely by the packet stream's sim-times, the
//! fault plan, and the resize schedule — no wall clocks, no OS threads
//! in the decision path. Restores and resize migrations rehydrate one
//! checkpoint record at a time on the supervisor's own thread, in
//! shard and then victim order. Same seed + same plan + same packets
//! ⇒ identical merged verdict stream and identical loss-window report
//! — and, on fault-free input, for any shard count or resize
//! schedule.
//!
//! # Backends
//!
//! Shards run in-process by default ([`ShardBackend::InProcess`]).
//! With [`ShardBackend::Process`] each shard lives in a child OS
//! process. Either way the supervisor drives a shard with one
//! [`crate::process::Request`] at a time through `ShardRunner::call`,
//! and [`crate::process::handle`] applies it: directly in process, or
//! inside the child after the request crosses the pipe as a frame. A
//! runner is built the same way on both backends — spawn (or start
//! empty) and `Init`, plus `Restore` when it resumes from a blob. A
//! crashed child (real `kill -9`, or the chaos plan's `ProcessAbort`)
//! surfaces as a [`WorkerFault`] on the next exchange and is absorbed
//! exactly like a kill fault — loss window opened at the last
//! checkpoint, respawn with backoff, supervisor never exits.
//!
//! # Loss accounting
//!
//! Every packet the fleet fails to deliver to a live decoder is
//! charged to an explicit per-victim loss window: opened at the kill
//! (or at the first packet dropped on a dead/stall-saturated shard)
//! and closed when the shard is restored. Resize migrations get the
//! same arithmetic: a live drain moves full decoder state (zero-width
//! window), while migrating out of a dead shard's stored blob rolls
//! the victim back to that checkpoint and reports the identical
//! kill-style window. The acceptance contract is *zero duplicated,
//! bounded lost*: the dedup stage guarantees the first half
//! unconditionally; the loss report bounds the second so tests can
//! check that every divergence from a fault-free run lies inside a
//! reported window.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::{corrupt_blob, tear_blob, ShardFault, ShardFaultKind, ShardFaultPlan};
use wm_core::online::{
    graph_fingerprint, BlobHeader, BlobWriter, CheckpointError, OnlineVerdict, RecordRef,
};
use wm_core::IntervalClassifier;
use wm_obs::{FleetStatus, SeriesPoint, SeriesRing, ShardVitals, Watchdog};
use wm_story::StoryGraph;
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{DeltaTracker, Registry, Snapshot};

use crate::dedup::VerdictDedup;
use crate::process::{handle, resolve_worker, ProcessShard, RemoteError, Reply, Request};
use crate::resize::{MigrationWindow, ResizeSchedule, ResizeStep};
use crate::ring::{damage_seed, HashRing, RING_SEED, VNODES_PER_SHARD};
use crate::shard::{
    parse_envelope, ShardRestoreError, ShardRestoreErrorKind, ShardState, WorkerFault,
};
use crate::{FleetConfig, FleetConfigError, ShardBackend};

/// One victim-scoped interval during which the fleet may have lost
/// verdicts: from the instant the shard stopped consuming packets to
/// the instant it resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LossWindow {
    pub shard: u32,
    pub victim: u32,
    pub from: SimTime,
    pub to: SimTime,
}

/// Supervisor counters: the one record of every fleet-level count,
/// read through [`Fleet::stats`] and carried on the [`FleetReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Packets routed into the fleet.
    pub packets: u64,
    /// Verdicts delivered after dedup.
    pub verdicts: u64,
    /// Verdicts dropped by the dedup stage.
    pub dedup_dropped: u64,
    /// Shard kill faults absorbed (including crashed process shards).
    pub kills: u64,
    /// Shard stall faults absorbed.
    pub stalls: u64,
    /// Restores from a checkpoint (latest or previous).
    pub restarts: u64,
    /// Restarts that found no usable checkpoint and started cold.
    pub cold_starts: u64,
    /// Shard checkpoints written.
    pub checkpoints: u64,
    /// Checkpoint blobs rejected at restore (corrupt/torn).
    pub checkpoints_rejected: u64,
    /// Packets dropped while a shard was dead or its stall queue full.
    pub packets_lost: u64,
    /// Victims taken off a shard by `EvictIdle` at a checkpoint
    /// boundary or by `FinishAll` at the end of input. Victims a full
    /// shard evicts to admit a new one are not counted.
    pub victims_evicted: u64,
    /// Sim-time between each kill and the matching restore, summed
    /// (µs). Mean recovery latency = this / `restarts`.
    pub recovery_latency_us: u64,
    /// Peak resident decoder state observed on any one shard, bytes.
    pub shard_state_peak: u64,
    /// Resize steps applied.
    pub resizes: u64,
    /// Victims migrated across shards by resize steps.
    pub victims_migrated: u64,
    /// Migrations whose checkpoint record was rejected on delivery — the
    /// victim restarted cold on its new owner.
    pub migrate_failures: u64,
    /// Process-shard children spawned to replace a dead shard
    /// (process backend only).
    pub process_respawns: u64,
}

/// Per-shard recovery attribution, for `fleet_status` consumers and
/// the recovery bench: which shard restarted, how often its stored
/// blobs were rejected, and how much sim-time its outages cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecovery {
    pub shard: u32,
    pub restarts: u64,
    /// Restore attempts rejected (blob damage or worker fault), each
    /// attributed to this shard by [`ShardRestoreError::shard`].
    pub restore_failures: u64,
    /// Child processes spawned for this shard after a crash.
    pub respawns: u64,
    /// Sim-time between each kill and the matching restore, summed.
    pub recovery_latency_us: u64,
}

/// The merged output of a fleet run.
#[derive(Debug)]
pub struct FleetReport {
    /// Deduplicated verdicts in canonical order: `(victim,
    /// verdict.index, time)`. Canonical ordering — rather than raw
    /// emission order — is what makes the stream comparable across
    /// shard counts, restart schedules, and resize schedules.
    pub verdicts: Vec<(u32, OnlineVerdict)>,
    /// Every interval in which verdicts may have been lost.
    pub loss_windows: Vec<LossWindow>,
    /// Every victim migration performed by resize steps, with its
    /// at-risk window (zero-width for lossless live drains).
    pub migrations: Vec<MigrationWindow>,
    /// Per-shard recovery attribution: shards retired by shrink steps
    /// first (in retirement order), then the final fleet by slot.
    pub recovery: Vec<ShardRecovery>,
    pub stats: FleetStats,
    /// Observability-plane output, when an observer was attached.
    pub obs: Option<ObsReport>,
}

/// Time-series points the observer retains (bounded ring).
const SERIES_CAPACITY: usize = 4_096;
/// Health transitions retained in the alert stream.
const TRANSITION_CAPACITY: usize = 4_096;

/// What the observer hands back in the final [`FleetReport`].
#[derive(Debug)]
pub struct ObsReport {
    /// The final `fleet_status`: per-shard health and the retained
    /// alert stream.
    pub status: FleetStatus,
    /// The retained time-series window as JSONL, one tick per line.
    pub series_jsonl: String,
    /// Time-series points shed by the bounded ring.
    pub series_dropped: u64,
    /// Cumulative fleet-wide metrics (all per-shard registries merged,
    /// including shards retired by shrink steps).
    pub snapshot: Snapshot,
}

/// Live observability state: per-shard registries with delta
/// watermarks, the bounded time-series ring, and the SLO watchdog.
struct Observer {
    registries: Vec<Arc<Registry>>,
    trackers: Vec<DeltaTracker>,
    /// Registries of shards retired by shrink steps: still
    /// delta-tracked every tick and merged into the final snapshot, so
    /// cumulative metrics never go backwards across a resize.
    retired: Vec<(Arc<Registry>, DeltaTracker)>,
    series: SeriesRing,
    watchdog: Watchdog,
    next_tick: SimTime,
}

/// Where one slot's decoders actually live: in this address space, or
/// behind a child process speaking the [`crate::process`] protocol.
/// Either way the supervisor drives the slot through one
/// [`ShardRunner::call`], and [`handle`] applies the request to the
/// shard's state — here directly, there inside the worker. Only the
/// process arm can fail, with a [`WorkerFault`] the supervisor absorbs
/// as a crash.
enum ShardRunner {
    /// `None` until `Init`, like a worker's shard.
    InProcess(Option<ShardState>),
    Process(ProcessShard),
}

impl ShardRunner {
    /// An empty runner on the configured backend: a fresh in-process
    /// slot, or a spawned worker. It holds no shard until `Init`.
    fn spawn(worker: Option<&Path>) -> Result<Self, WorkerFault> {
        Ok(match worker {
            None => ShardRunner::InProcess(None),
            Some(path) => ShardRunner::Process(ProcessShard::spawn(path)?),
        })
    }

    /// Apply one request: [`handle`] in process; encode, pipe and
    /// parse for a worker. Verdicts are appended to `out`. A worker's
    /// untyped `Err` reply is a [`WorkerFault::Remote`].
    fn call(
        &mut self,
        req: &Request<'_>,
        out: &mut Vec<(u32, OnlineVerdict)>,
    ) -> Result<Reply, WorkerFault> {
        let reply = match self {
            ShardRunner::InProcess(state) => handle(req, state, out),
            ShardRunner::Process(p) => p.call(req, out)?,
        };
        match reply {
            Reply::Err(RemoteError::Internal) => Err(WorkerFault::Remote),
            reply => Ok(reply),
        }
    }

    fn set_registry(&mut self, registry: Arc<Registry>) {
        // Process workers keep decoder metrics child-side; the
        // observer still sees supervisor-level vitals for them.
        if let ShardRunner::InProcess(Some(state)) = self {
            state.set_registry(registry);
        }
    }

    fn flush_telemetry(&mut self) {
        if let ShardRunner::InProcess(Some(state)) = self {
            state.flush_telemetry();
        }
    }

    /// Live victims (for a process shard: as of the last reply, which
    /// survives the child's death — exactly what loss accounting
    /// needs).
    fn live_victims(&self) -> Vec<u32> {
        match self {
            ShardRunner::InProcess(s) => s.iter().flat_map(ShardState::live_victims).collect(),
            ShardRunner::Process(p) => p.live_victims().collect(),
        }
    }

    fn live_victim_count(&self) -> usize {
        match self {
            ShardRunner::InProcess(s) => s.as_ref().map_or(0, ShardState::live_victim_count),
            ShardRunner::Process(p) => p.live_victim_count(),
        }
    }

    fn state_bytes(&self) -> usize {
        match self {
            ShardRunner::InProcess(s) => s.as_ref().map_or(0, ShardState::state_bytes),
            ShardRunner::Process(p) => p.state_bytes(),
        }
    }

    /// Hard-kill a process child (no-op in-process): the supervisor
    /// side of a `ProcessAbort` fault.
    fn kill_process(&mut self) {
        if let ShardRunner::Process(p) = self {
            p.kill();
        }
    }
}

/// The worker fault a reply of the wrong kind stands for.
fn unexpected(reply: Reply) -> WorkerFault {
    match reply {
        Reply::Err(_) => WorkerFault::Remote,
        _ => WorkerFault::Protocol,
    }
}

/// Victims a verdict-producing request took off `runner`, or the fault
/// that ended the exchange.
fn evicted(
    runner: &mut ShardRunner,
    req: &Request<'_>,
    out: &mut Vec<(u32, OnlineVerdict)>,
) -> Result<u64, WorkerFault> {
    let before = runner.live_victim_count();
    match runner.call(req, out)? {
        Reply::Verdicts { .. } => Ok(before.saturating_sub(runner.live_victim_count()) as u64),
        other => Err(unexpected(other)),
    }
}

/// Supervisor-side bookkeeping for one shard.
struct ShardSlot {
    /// Live runner; `None` while the shard is dead awaiting restart.
    state: Option<ShardRunner>,
    /// Last checkpoint written (possibly damaged by a fault).
    latest: Option<Vec<u8>>,
    /// The checkpoint before that — the fallback when `latest` is
    /// rejected at restore. Depth two is deliberate: a single
    /// corrupt-write fault can poison at most one blob.
    prev: Option<Vec<u8>>,
    /// Sim-time when the next checkpoint is due.
    next_checkpoint: SimTime,
    /// When the last checkpoint was written (ZERO if never): the true
    /// start of any loss window, since a restore rolls back to it.
    last_checkpoint_at: SimTime,
    /// When the shard was last killed (meaningful only while dead).
    killed_at: SimTime,
    /// Scheduled restart time while dead.
    restart_at: Option<SimTime>,
    /// Exponent for the capped exponential restart backoff.
    backoff_exp: u32,
    /// Shard ignores (queues) packets until this instant.
    stalled_until: SimTime,
    /// Packets queued during a stall, in arrival order.
    stall_queue: Vec<(SimTime, u32, Vec<u8>)>,
    /// Fault kind to apply to the next checkpoint write.
    damage: Option<ShardFaultKind>,
    /// Open per-victim loss windows: victim → window start.
    open_loss: BTreeMap<u32, SimTime>,
    /// Open `fleet.restart` trace span while dead.
    span: SpanId,
    /// Restores completed on this shard (vitals for the watchdog).
    restarts: u64,
    /// Restore attempts rejected, attributed here by
    /// [`ShardRestoreError::shard`].
    restore_failures: u64,
    /// Child processes spawned for this shard after a crash.
    respawns: u64,
    /// Sim-time this shard spent dead before each restore, summed.
    recovery_latency_us: u64,
}

impl ShardSlot {
    fn new(first_checkpoint: SimTime) -> Self {
        ShardSlot {
            state: None,
            latest: None,
            prev: None,
            next_checkpoint: first_checkpoint,
            last_checkpoint_at: SimTime::ZERO,
            killed_at: SimTime::ZERO,
            restart_at: None,
            backoff_exp: 0,
            stalled_until: SimTime::ZERO,
            stall_queue: Vec::new(),
            damage: None,
            open_loss: BTreeMap::new(),
            span: SpanId::NONE,
            restarts: 0,
            restore_failures: 0,
            respawns: 0,
            recovery_latency_us: 0,
        }
    }

    /// Schedule the next restart attempt one backoff step after `at`.
    /// Returns the restart time; the caller lowers the fleet's
    /// `next_due` to it.
    fn schedule_restart(&mut self, at: SimTime, backoff: Backoff) -> SimTime {
        let delay = backoff
            .base_us
            .saturating_mul(1u64 << self.backoff_exp.min(20))
            .min(backoff.cap_us);
        self.backoff_exp = self.backoff_exp.saturating_add(1);
        let restart = SimTime(at.micros() + delay);
        self.restart_at = Some(restart);
        restart
    }

    fn recovery(&self, shard: u32) -> ShardRecovery {
        ShardRecovery {
            shard,
            restarts: self.restarts,
            restore_failures: self.restore_failures,
            respawns: self.respawns,
            recovery_latency_us: self.recovery_latency_us,
        }
    }
}

/// Packets a stalled shard may queue before dropping.
const STALL_QUEUE_PACKETS: usize = 4096;

/// Restart backoff: the first retry after 2 s of content time, doubling
/// per consecutive kill, capped at 60 s, both at the decoder's time
/// scale. Reset when the shard survives to a checkpoint.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    base_us: u64,
    cap_us: u64,
}

impl Backoff {
    const BASE_SECS: f64 = 2.0;
    const CAP_SECS: f64 = 60.0;

    fn scaled(time_scale: u32) -> Self {
        let ts = time_scale.max(1) as f64;
        let base_us = Duration::from_secs_f64(Self::BASE_SECS / ts)
            .micros()
            .max(1);
        let cap_us = Duration::from_secs_f64(Self::CAP_SECS / ts)
            .micros()
            .max(base_us);
        Backoff { base_us, cap_us }
    }
}

/// The end of a loss window that a restore at `at` rolled back to a
/// checkpoint: the restored decoder replays the span from the window's
/// start to the kill, so the window runs that long past `at`.
fn replay_end(killed_at: SimTime, at: SimTime) -> impl Fn(SimTime) -> SimTime {
    move |from| SimTime(at.micros() + killed_at.micros().saturating_sub(from.micros()))
}

/// One victim in flight between shards during a resize step.
struct Migration {
    victim: u32,
    from_shard: u32,
    seen: SimTime,
    /// The victim's framed checkpoint record, as a shard blob holds it.
    record: Vec<u8>,
    /// At-risk window (from == to for a lossless live drain).
    from: SimTime,
    to: SimTime,
}

/// The supervised fleet. Construct with [`Fleet::new`], optionally
/// attach telemetry/tracing, a fault plan, and a resize schedule, feed
/// packets with [`Fleet::push`], then collect the merged
/// [`FleetReport`] with [`Fleet::finish`].
pub struct Fleet {
    cfg: FleetConfig,
    backoff: Backoff,
    classifier: IntervalClassifier,
    graph: Arc<StoryGraph>,
    graph_fp: u64,
    ring: HashRing,
    slots: Vec<ShardSlot>,
    dedup: VerdictDedup,
    verdicts: Vec<(u32, OnlineVerdict)>,
    losses: Vec<LossWindow>,
    plan: Vec<ShardFault>,
    cursor: usize,
    resize_steps: Vec<ResizeStep>,
    resize_cursor: usize,
    /// Sim-time (µs) of the earliest pending fault, restart, stall
    /// drain or resize step; `u64::MAX` when none is pending. `push`
    /// runs its due-checks only once the stream reaches it.
    next_due: u64,
    /// Sim-time (µs) at or before the earliest live shard's next
    /// checkpoint and the observer's next tick. `push` runs its
    /// post-route ticks only once the stream reaches it; every path
    /// that sets one of those times lowers it.
    next_tick: u64,
    migrations: Vec<MigrationWindow>,
    retired_recovery: Vec<ShardRecovery>,
    damage_seq: u64,
    now: SimTime,
    stats: FleetStats,
    trace: Option<(TraceHandle, SpanId)>,
    observer: Option<Observer>,
    scratch: Vec<(u32, OnlineVerdict)>,
    /// Resolved shard-worker binary (process backend only).
    worker: Option<PathBuf>,
}

impl Fleet {
    pub fn new(
        cfg: FleetConfig,
        classifier: IntervalClassifier,
        graph: Arc<StoryGraph>,
    ) -> Result<Self, FleetConfigError> {
        cfg.validate()?;
        let worker = match &cfg.backend {
            ShardBackend::InProcess => None,
            ShardBackend::Process { worker } => {
                Some(resolve_worker(worker.as_deref()).ok_or(FleetConfigError::Worker)?)
            }
        };
        let ring = HashRing::new(RING_SEED, cfg.shards, VNODES_PER_SHARD);
        let first = SimTime(cfg.checkpoint_every.micros());
        let slots = (0..cfg.shards).map(|_| ShardSlot::new(first)).collect();
        let mut fleet = Fleet {
            backoff: Backoff::scaled(cfg.decode.time_scale),
            cfg,
            classifier,
            graph_fp: graph_fingerprint(&graph),
            graph,
            ring,
            slots,
            dedup: VerdictDedup::new(),
            verdicts: Vec::new(),
            losses: Vec::new(),
            plan: Vec::new(),
            cursor: 0,
            resize_steps: Vec::new(),
            resize_cursor: 0,
            next_due: u64::MAX,
            next_tick: first.micros(),
            migrations: Vec::new(),
            retired_recovery: Vec::new(),
            damage_seq: 0,
            now: SimTime::ZERO,
            stats: FleetStats::default(),
            trace: None,
            observer: None,
            scratch: Vec::new(),
            worker,
        };
        for k in 0..fleet.slots.len() {
            let runner = fleet.cold_runner(k).map_err(|_| FleetConfigError::Worker)?;
            fleet.slots[k].state = Some(runner);
        }
        Ok(fleet)
    }

    /// Arm a fault plan. Must be called before the first packet.
    pub fn inject(&mut self, plan: &ShardFaultPlan) {
        self.plan = plan.events().to_vec();
        self.cursor = 0;
        self.refresh_next_due();
    }

    /// Arm a resize schedule. Must be called before the first packet.
    /// Steps dated after the end of the stream never fire.
    pub fn schedule_resize(&mut self, schedule: &ResizeSchedule) {
        self.resize_steps = schedule.steps().to_vec();
        self.resize_cursor = 0;
        self.refresh_next_due();
    }

    pub fn attach_trace(&mut self, handle: TraceHandle, parent: SpanId) {
        self.trace = Some((handle, parent));
    }

    /// Attach the observability plane: one registry per shard (every
    /// decoder's `online.*` metrics, surviving kill/restore), a
    /// bounded time-series ring fed on the checkpoint cadence, and
    /// the SLO watchdog (the constants in `wm_obs::health`) scoring
    /// per-shard vitals into health states. Health transitions are
    /// mirrored as `obs.health.*` trace instants when a trace is
    /// attached.
    pub fn attach_observer(&mut self) {
        let shards = self.slots.len();
        let registries: Vec<Arc<Registry>> =
            (0..shards).map(|_| Arc::new(Registry::new())).collect();
        for (slot, reg) in self.slots.iter_mut().zip(&registries) {
            if let Some(state) = slot.state.as_mut() {
                state.set_registry(reg.clone());
            }
        }
        let first_tick = SimTime(self.cfg.checkpoint_every.micros().max(1));
        self.observer = Some(Observer {
            registries,
            trackers: (0..shards).map(|_| DeltaTracker::new()).collect(),
            retired: Vec::new(),
            series: SeriesRing::new(SERIES_CAPACITY),
            watchdog: Watchdog::new(shards, TRANSITION_CAPACITY),
            next_tick: first_tick,
        });
        self.lower_next_tick(first_tick);
    }

    /// The current `fleet_status` report: per-shard health as of the
    /// last observation tick, plus the retained alert stream. `None`
    /// until an observer is attached.
    pub fn fleet_status(&self) -> Option<FleetStatus> {
        self.observer.as_ref().map(|o| o.watchdog.status())
    }

    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Current shard count (changes as resize steps fire).
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// Every victim migration performed so far by resize steps.
    pub fn migrations(&self) -> &[MigrationWindow] {
        &self.migrations
    }

    /// Per-shard recovery attribution: shards retired by shrink steps
    /// first (in retirement order), then the current fleet by slot.
    pub fn shard_recovery(&self) -> Vec<ShardRecovery> {
        let mut out = self.retired_recovery.clone();
        out.extend(
            self.slots
                .iter()
                .enumerate()
                .map(|(k, slot)| slot.recovery(k as u32)),
        );
        out
    }

    /// OS pids of live process-backed shard children, indexed by shard
    /// (empty for the in-process backend) — lets chaos tests and
    /// operators aim a real `kill -9` at one shard.
    pub fn worker_pids(&self) -> Vec<(u32, u32)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(k, s)| match s.state.as_ref() {
                Some(ShardRunner::Process(p)) => Some((k as u32, p.pid())),
                _ => None,
            })
            .collect()
    }

    /// Total resident decoder state across live shards, bytes. For
    /// process shards this is the child's figure as of its last reply.
    pub fn state_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.state.as_ref())
            .map(ShardRunner::state_bytes)
            .sum()
    }

    /// Take every verdict delivered so far, in emission order —
    /// streaming consumption for long-haul runs, so delivered verdicts
    /// don't accumulate in the supervisor. The final report then
    /// carries only verdicts delivered after the last drain.
    pub fn drain_verdicts(&mut self) -> Vec<(u32, OnlineVerdict)> {
        std::mem::take(&mut self.verdicts)
    }

    /// Route one packet attributed to `victim` into the fleet.
    pub fn push(&mut self, time: SimTime, victim: u32, frame: &[u8]) {
        self.now = SimTime(self.now.micros().max(time.micros()));
        self.stats.packets += 1;
        if self.now.micros() >= self.next_due {
            self.apply_due_faults();
            self.apply_due_restarts();
            self.drain_elapsed_stalls();
            self.apply_due_resizes();
            self.refresh_next_due();
        }
        let shard = self.shard_for(victim);
        self.route(shard, time, victim, frame);
        if self.now.micros() >= self.next_tick {
            self.checkpoint_tick();
            self.observer_tick();
            self.refresh_next_tick();
        }
    }

    /// End of input: drain stall queues, resurrect dead shards so
    /// their checkpointed tails still decode, finish every decoder,
    /// and produce the merged report.
    pub fn finish(mut self) -> FleetReport {
        // Any shard still dead gets one final restore attempt so the
        // verdicts sealed inside its last good checkpoint are not
        // silently discarded with it.
        for k in 0..self.slots.len() {
            if self.slots[k].state.is_none() && self.slots[k].restart_at.is_some() {
                self.restore_shard(k);
            }
        }
        for k in 0..self.slots.len() {
            let slot = &mut self.slots[k];
            slot.stalled_until = SimTime::ZERO;
            let queued = std::mem::take(&mut slot.stall_queue);
            for (t, v, frame) in queued {
                self.feed_shard(k, t, v, &frame);
            }
            let mut out = Vec::new();
            let finished = match self.slots[k].state.as_mut() {
                Some(runner) => evicted(runner, &Request::FinishAll, &mut out),
                None => Ok(0),
            };
            let evicted = match finished {
                Ok(n) => n,
                Err(fault) => {
                    // The child died at the finish line: absorb the
                    // crash, respawn from the last good blob, and give
                    // the sealed tail one more chance to decode.
                    self.emit(&out);
                    out.clear();
                    self.absorb_worker_fault(k, fault);
                    self.restore_shard(k);
                    match self.slots[k].state.as_mut() {
                        Some(runner) => evicted(runner, &Request::FinishAll, &mut out).unwrap_or(0),
                        None => 0,
                    }
                }
            };
            self.stats.victims_evicted += evicted;
            self.emit(&out);
            let end = self.now;
            self.close_open_losses(k, |_| end);
        }
        let obs = self.observer_finalize();
        let mut verdicts = std::mem::take(&mut self.verdicts);
        verdicts.sort_by_key(|(victim, v)| (*victim, v.index, v.choice.time.micros()));
        let mut loss_windows = std::mem::take(&mut self.losses);
        loss_windows.sort_by_key(|w| (w.from.micros(), w.shard, w.victim));
        let mut migrations = std::mem::take(&mut self.migrations);
        migrations.sort_by_key(|m| (m.at.micros(), m.victim, m.from_shard));
        let recovery = self.shard_recovery();
        FleetReport {
            verdicts,
            loss_windows,
            migrations,
            recovery,
            stats: self.stats,
            obs,
        }
    }

    // -- routing -------------------------------------------------------

    fn shard_for(&self, victim: u32) -> usize {
        // Route by victim attribution only: one victim's session spans
        // reconnect flows, rotated CDN frontends, and (under capture
        // impairment) runt frames with no parseable tuple, and its
        // decoder needs all of them on one shard.
        self.ring.victim_shard(victim)
    }

    fn route(&mut self, shard: usize, time: SimTime, victim: u32, frame: &[u8]) {
        let slot = &mut self.slots[shard];
        if slot.state.is_none() {
            // Dead shard: the packet is gone. Charge it to a loss
            // window so the report bounds the damage.
            slot.open_loss.entry(victim).or_insert(time);
            self.lose_packet();
            return;
        }
        if self.now.micros() < slot.stalled_until.micros() {
            if slot.stall_queue.len() < STALL_QUEUE_PACKETS {
                slot.stall_queue.push((time, victim, frame.to_vec()));
            } else {
                slot.open_loss.entry(victim).or_insert(time);
                self.lose_packet();
            }
            return;
        }
        self.feed_shard(shard, time, victim, frame);
    }

    fn feed_shard(&mut self, shard: usize, time: SimTime, victim: u32, frame: &[u8]) {
        let req = Request::Feed {
            time,
            victim,
            max_victims: self.cfg.max_victims_per_shard as u32,
            frame,
        };
        let mut out = std::mem::take(&mut self.scratch);
        let result = match self.slots[shard].state.as_mut() {
            Some(runner) => match runner.call(&req, &mut out) {
                Ok(Reply::Verdicts { .. }) => Ok(()),
                Ok(other) => Err(unexpected(other)),
                Err(fault) => Err(fault),
            },
            None => Ok(()),
        };
        self.emit(&out);
        out.clear();
        self.scratch = out;
        if let Err(fault) = result {
            // The shard's process died under this packet: absorb the
            // crash and charge the packet to a loss window.
            self.absorb_worker_fault(shard, fault);
            self.slots[shard].open_loss.entry(victim).or_insert(time);
            self.lose_packet();
        }
    }

    fn emit(&mut self, out: &[(u32, OnlineVerdict)]) {
        for (victim, verdict) in out {
            if self.dedup.admit(*victim, verdict) {
                self.stats.verdicts += 1;
                self.verdicts.push((*victim, verdict.clone()));
            } else {
                self.stats.dedup_dropped += 1;
            }
        }
    }

    fn lose_packet(&mut self) {
        self.stats.packets_lost += 1;
    }

    fn close_loss(&mut self, shard: usize, victim: u32, from: SimTime, to: SimTime) {
        self.losses.push(LossWindow {
            shard: shard as u32,
            victim,
            from,
            to,
        });
    }

    /// Close every open loss window of slot `k` in ascending victim
    /// order, each ending at `end(from)`.
    fn close_open_losses(&mut self, k: usize, end: impl Fn(SimTime) -> SimTime) {
        for (victim, from) in std::mem::take(&mut self.slots[k].open_loss) {
            self.close_loss(k, victim, from, end(from));
        }
    }

    // -- fault injection ----------------------------------------------

    /// Recompute the earliest pending deadline: the next fault and
    /// resize step, every dead shard's restart, and every live shard's
    /// stall that is still running or has packets queued. Scheduling
    /// paths outside `push`'s due block lower it directly.
    fn refresh_next_due(&mut self) {
        let now = self.now.micros();
        let fault = self.plan.get(self.cursor).map(|f| f.at.micros());
        let resize = self
            .resize_steps
            .get(self.resize_cursor)
            .map(|s| s.at.micros());
        let slots = self.slots.iter().filter_map(|slot| match slot.state {
            None => slot.restart_at.map(SimTime::micros),
            Some(_) if !slot.stall_queue.is_empty() || slot.stalled_until.micros() > now => {
                Some(slot.stalled_until.micros())
            }
            Some(_) => None,
        });
        self.next_due = fault
            .into_iter()
            .chain(resize)
            .chain(slots)
            .min()
            .unwrap_or(u64::MAX);
    }

    fn apply_due_faults(&mut self) {
        while self.cursor < self.plan.len()
            && self.plan[self.cursor].at.micros() <= self.now.micros()
        {
            let fault = self.plan[self.cursor];
            self.cursor += 1;
            let shard = (fault.shard).min(self.slots.len().saturating_sub(1));
            match fault.kind {
                ShardFaultKind::Kill => self.kill_shard(shard, fault.at),
                ShardFaultKind::ProcessAbort => self.abort_shard(shard, fault.at),
                ShardFaultKind::Stall { stall } => self.stall_shard(shard, fault.at, stall),
                ShardFaultKind::CheckpointCorrupt | ShardFaultKind::CheckpointTorn => {
                    self.slots[shard].damage = Some(fault.kind);
                    self.trace_instant(fault.at, fault.kind.trace_name(), shard as u64, 0);
                }
            }
        }
    }

    fn kill_shard(&mut self, shard: usize, at: SimTime) {
        let slot = &mut self.slots[shard];
        let Some(state) = slot.state.take() else {
            return; // already dead: the fault is a no-op
        };
        // A restore rolls the shard back to its last checkpoint, so
        // verdicts in flight since then are at risk — the window
        // starts there, not at the kill.
        let window_from = slot.last_checkpoint_at;
        for victim in state.live_victims() {
            slot.open_loss.entry(victim).or_insert(window_from);
        }
        drop(state); // a process runner's child is SIGKILLed here
        slot.killed_at = at;
        let restart = slot.schedule_restart(at, self.backoff);
        self.next_due = self.next_due.min(restart.micros());
        slot.stall_queue.clear();
        slot.stalled_until = SimTime::ZERO;
        self.stats.kills += 1;
        if let Some((handle, parent)) = &self.trace {
            let span = handle.span_start_at(at.micros(), "fleet.restart", *parent);
            handle.instant_at(
                at.micros(),
                span,
                ShardFaultKind::Kill.trace_name(),
                shard as u64,
                restart.micros() - at.micros(),
            );
            self.slots[shard].span = span;
        }
    }

    /// A `ProcessAbort` fault: `kill -9` the shard's child process (a
    /// real SIGKILL when the shard is process-backed; in-process
    /// fleets degrade it to a plain kill) and absorb the crash.
    fn abort_shard(&mut self, shard: usize, at: SimTime) {
        if let Some(state) = self.slots[shard].state.as_mut() {
            state.kill_process();
        } else {
            return; // already dead: the fault is a no-op
        }
        self.trace_instant(
            at,
            ShardFaultKind::ProcessAbort.trace_name(),
            shard as u64,
            0,
        );
        self.kill_shard(shard, at);
    }

    /// A live exchange with a shard's worker failed — the child died
    /// (`kill -9`, OOM) or answered garbage. Absorb it exactly like a
    /// kill fault: the supervisor never exits, the restart path
    /// respawns from the last good checkpoint.
    fn absorb_worker_fault(&mut self, shard: usize, fault: WorkerFault) {
        self.trace_instant(self.now, "fleet.worker_fault", shard as u64, fault.code());
        self.kill_shard(shard, self.now);
    }

    fn stall_shard(&mut self, shard: usize, at: SimTime, stall: Duration) {
        let slot = &mut self.slots[shard];
        if slot.state.is_none() {
            return; // stalling a dead shard changes nothing
        }
        let until = at.micros() + stall.micros();
        slot.stalled_until = SimTime(slot.stalled_until.micros().max(until));
        self.stats.stalls += 1;
        self.trace_instant(
            at,
            ShardFaultKind::Stall { stall }.trace_name(),
            shard as u64,
            stall.micros(),
        );
    }

    fn drain_elapsed_stalls(&mut self) {
        for k in 0..self.slots.len() {
            let slot = &mut self.slots[k];
            if slot.state.is_none()
                || slot.stall_queue.is_empty()
                || self.now.micros() < slot.stalled_until.micros()
            {
                continue;
            }
            let queued = std::mem::take(&mut slot.stall_queue);
            for (t, v, frame) in queued {
                self.feed_shard(k, t, v, &frame);
            }
            // Stall-overflow loss ends when the queue drains: the
            // shard is consuming live input again.
            let end = self.now;
            self.close_open_losses(k, |_| end);
        }
    }

    // -- restart / restore --------------------------------------------

    fn apply_due_restarts(&mut self) {
        for k in 0..self.slots.len() {
            let slot = &self.slots[k];
            if slot.state.is_none() && slot.restart_at.is_some_and(|t| t <= self.now) {
                self.restore_shard(k);
            }
        }
    }

    /// A fresh, empty runner for slot `k` (cold start / grown shard):
    /// spawn, then `Init`.
    fn cold_runner(&self, k: usize) -> Result<ShardRunner, WorkerFault> {
        let mut runner = ShardRunner::spawn(self.worker.as_deref())?;
        let init = Request::Init {
            shard: k as u32,
            cfg: self.cfg.decode.clone(),
            classifier: self.classifier.clone(),
            graph: self.graph.clone(),
        };
        match runner.call(&init, &mut Vec::new())? {
            Reply::Ok => Ok(runner),
            other => Err(unexpected(other)),
        }
    }

    /// Restore slot `k` from a checkpoint blob: a cold runner, then
    /// `Restore`.
    fn restore_runner(&self, k: usize, blob: &[u8]) -> Result<ShardRunner, ShardRestoreError> {
        let fail = |kind| ShardRestoreError {
            shard: k as u32,
            kind,
        };
        let worker = |w| fail(ShardRestoreErrorKind::Worker(w));
        // A rejection crosses the protocol as its kind alone.
        let rejected = CheckpointError::Malformed("restore");
        let mut runner = self.cold_runner(k).map_err(worker)?;
        match runner.call(&Request::Restore(blob), &mut Vec::new()) {
            Ok(Reply::Ok) => Ok(runner),
            Ok(Reply::Err(RemoteError::Envelope)) => {
                Err(fail(ShardRestoreErrorKind::Envelope(rejected)))
            }
            Ok(Reply::Err(RemoteError::Victim(v))) => {
                Err(fail(ShardRestoreErrorKind::Victim(v, rejected)))
            }
            Ok(other) => Err(worker(unexpected(other))),
            Err(w) => Err(worker(w)),
        }
    }

    /// Restore dead slot `k` from its latest checkpoint, falling back
    /// to the previous one, else starting cold; then settle the slot's
    /// stats, loss windows and restart span.
    fn restore_shard(&mut self, k: usize) {
        let now = self.now;
        let latest = self.slots[k].latest.as_deref();
        let restored = match latest.map(|blob| self.restore_runner(k, blob)) {
            None => None,
            Some(Ok(runner)) => Some(runner),
            Some(Err(e)) => {
                // Latest blob is damaged (the error names this slot:
                // e.shard == k): count it against the shard, fall back
                // to the previous good checkpoint, else start cold.
                debug_assert_eq!(e.shard, k as u32);
                self.stats.checkpoints_rejected += 1;
                self.slots[k].restore_failures += 1;
                let prev = self.slots[k].prev.as_deref();
                match prev.map(|blob| self.restore_runner(k, blob)) {
                    Some(Ok(runner)) => Some(runner),
                    Some(Err(_)) => {
                        self.slots[k].restore_failures += 1;
                        None
                    }
                    None => None,
                }
            }
        };
        let cold = restored.is_none();
        let mut state = match restored {
            Some(state) => state,
            None => match self.cold_runner(k) {
                Ok(state) => state,
                Err(_) => {
                    // Even the replacement worker failed to spawn:
                    // leave the slot dead and retry on the next
                    // backoff step. The restart span stays open.
                    let slot = &mut self.slots[k];
                    slot.restore_failures += 1;
                    let restart = slot.schedule_restart(now, self.backoff);
                    self.next_due = self.next_due.min(restart.micros());
                    return;
                }
            },
        };
        if let Some(obs) = &self.observer {
            // Restored decoders come back without telemetry; point
            // them at this shard's observer registry again.
            state.set_registry(obs.registries[k].clone());
        }
        let respawned = matches!(state, ShardRunner::Process(_));
        let slot = &mut self.slots[k];
        slot.state = Some(state);
        slot.restart_at = None;
        slot.restarts += 1;
        if respawned {
            slot.respawns += 1;
            self.stats.process_respawns += 1;
        }
        let next_checkpoint = SimTime(now.micros() + self.cfg.checkpoint_every.micros());
        slot.next_checkpoint = next_checkpoint;
        self.lower_next_tick(next_checkpoint);
        self.stats.restarts += 1;
        let latency = now
            .micros()
            .saturating_sub(self.slots[k].killed_at.micros());
        self.stats.recovery_latency_us += latency;
        self.slots[k].recovery_latency_us += latency;
        if cold {
            self.stats.cold_starts += 1;
        }
        // The restored decoder re-numbers evidence records starting
        // from the checkpoint, so for roughly the span of traffic
        // consumed between that checkpoint and the kill its fresh
        // verdicts collide with the dedup high-water and are dropped
        // (the bounded-loss half of the contract). Extend the window
        // past the restore by that replay span so every such drop is
        // covered by the report.
        self.close_open_losses(k, replay_end(self.slots[k].killed_at, now));
        let span = self.slots[k].span;
        if span != SpanId::NONE {
            if let Some((handle, _)) = &self.trace {
                handle.span_end_at(now.micros(), span, "fleet.restart");
            }
            self.slots[k].span = SpanId::NONE;
        }
    }

    // -- live resharding ----------------------------------------------

    fn apply_due_resizes(&mut self) {
        while self.resize_cursor < self.resize_steps.len()
            && self.resize_steps[self.resize_cursor].at.micros() <= self.now.micros()
        {
            let step = self.resize_steps[self.resize_cursor];
            self.resize_cursor += 1;
            self.resize_to(step.at, step.shards);
        }
    }

    /// One resize step: grow fresh slots, drain/split every migrating
    /// victim off its old owner, swap the ring, retire shrunk slots,
    /// then rehydrate the migrants on their new owners. See
    /// [`crate::resize`] for the protocol contract.
    fn resize_to(&mut self, at: SimTime, new_count: usize) {
        let old_count = self.slots.len();
        self.stats.resizes += 1;
        self.trace_instant(
            at,
            "obs.fleet.resize.step",
            new_count as u64,
            old_count as u64,
        );
        if new_count == old_count {
            return;
        }
        // Grow first, so migrations can land on live runners. A failed
        // worker spawn leaves the new slot dead with a scheduled
        // restart, like any other crash.
        for k in old_count..new_count {
            let first = SimTime(at.micros() + self.cfg.checkpoint_every.micros());
            self.lower_next_tick(first);
            let mut slot = ShardSlot::new(first);
            match self.cold_runner(k) {
                Ok(runner) => slot.state = Some(runner),
                Err(_) => {
                    slot.restore_failures += 1;
                    slot.killed_at = at;
                    let restart = slot.schedule_restart(at, self.backoff);
                    self.next_due = self.next_due.min(restart.micros());
                }
            }
            self.slots.push(slot);
            if let Some(obs) = self.observer.as_mut() {
                let reg = Arc::new(Registry::new());
                obs.registries.push(reg.clone());
                obs.trackers.push(DeltaTracker::new());
                if let Some(state) = self.slots[k].state.as_mut() {
                    state.set_registry(reg);
                }
            }
        }
        // Collect every migration: victims whose new-ring owner is not
        // their current shard (all victims of a removed shard, by
        // construction — the ring no longer has its arcs).
        let new_ring = HashRing::new(RING_SEED, new_count, VNODES_PER_SHARD);
        let mut moves: Vec<Migration> = Vec::new();
        let mut requeue: Vec<(SimTime, u32, Vec<u8>)> = Vec::new();
        {
            let owns = |victim: u32| new_ring.victim_shard(victim);
            for k in 0..old_count {
                let removed = k >= new_count;
                // Live source: lossless drain of full decoder state.
                let candidates: Vec<u32> = match self.slots[k].state.as_ref() {
                    Some(runner) => runner
                        .live_victims()
                        .into_iter()
                        .filter(|&v| removed || owns(v) != k)
                        .collect(),
                    None => Vec::new(),
                };
                if !candidates.is_empty() {
                    let drained = {
                        let runner = self.slots[k].state.as_mut().expect("live checked above");
                        // Buffered event counts belong to the shard
                        // the events happened on.
                        runner.flush_telemetry();
                        runner.call(&Request::Drain(candidates), &mut Vec::new())
                    };
                    match drained {
                        Ok(Reply::Drained(entries)) => {
                            for (victim, seen, record) in entries {
                                // Any stall-overflow loss this victim
                                // accrued here ends with the move.
                                if let Some(from) = self.slots[k].open_loss.remove(&victim) {
                                    self.close_loss(k, victim, from, at);
                                }
                                moves.push(Migration {
                                    victim,
                                    from_shard: k as u32,
                                    seen,
                                    record,
                                    from: at,
                                    to: at,
                                });
                            }
                        }
                        Ok(other) => self.absorb_worker_fault(k, unexpected(other)),
                        Err(fault) => self.absorb_worker_fault(k, fault),
                    }
                }
                // Dead source (possibly absorbed just above): split
                // the stored blob; migrants roll back to it, exactly a
                // kill's loss semantics.
                if self.slots[k].state.is_none() {
                    self.split_dead_source(k, removed, at, &owns, &mut moves);
                }
                // Packets queued for migrating victims chase them to
                // the new owner once the ring swaps.
                let slot = &mut self.slots[k];
                if removed {
                    requeue.append(&mut slot.stall_queue);
                } else {
                    let mut kept = Vec::new();
                    for pkt in slot.stall_queue.drain(..) {
                        if owns(pkt.1) != k {
                            requeue.push(pkt);
                        } else {
                            kept.push(pkt);
                        }
                    }
                    slot.stall_queue = kept;
                }
            }
        }
        self.ring = new_ring;
        // Shrink: retire the removed slots, preserving their recovery
        // attribution and observer registries.
        if new_count < old_count {
            for k in new_count..old_count {
                self.retired_recovery.push(self.slots[k].recovery(k as u32));
                let span = self.slots[k].span;
                if span != SpanId::NONE {
                    if let Some((handle, _)) = &self.trace {
                        handle.span_end_at(at.micros(), span, "fleet.restart");
                    }
                }
            }
            // Dropping a process-backed slot SIGKILLs its child.
            self.slots.truncate(new_count);
            if let Some(obs) = self.observer.as_mut() {
                let regs = obs.registries.split_off(new_count);
                let trackers = obs.trackers.split_off(new_count);
                obs.retired.extend(regs.into_iter().zip(trackers));
            }
        }
        if let Some(obs) = self.observer.as_mut() {
            obs.watchdog.resize(new_count);
        }
        // Rehydrate every migrant on its new owner, in deterministic
        // (victim, source) order.
        moves.sort_by_key(|m| (m.victim, m.from_shard));
        self.deliver_migrations(at, moves);
        for (t, v, frame) in requeue {
            let shard = self.shard_for(v);
            self.route(shard, t, v, &frame);
        }
    }

    /// Migrate victims out of a *dead* shard: split its last parseable
    /// checkpoint blob (the same one its restart would use), copy the
    /// migrants' records out as moves, and re-seal the remainder so the
    /// shard's own restart cannot resurrect a victim it no longer owns.
    fn split_dead_source(
        &mut self,
        k: usize,
        removed: bool,
        at: SimTime,
        owns: &dyn Fn(u32) -> usize,
        moves: &mut Vec<Migration>,
    ) {
        let roll_back = replay_end(self.slots[k].killed_at, at);
        let slot = &mut self.slots[k];
        let last_ckpt = slot.last_checkpoint_at;
        let migrates = |victim: u32| removed || owns(victim) != k;
        let latest = slot
            .latest
            .as_deref()
            .and_then(|b| parse_envelope(k as u32, b).ok());
        let prev = slot
            .prev
            .as_deref()
            .and_then(|b| parse_envelope(k as u32, b).ok());
        // Moves come from the blob the restore path would pick:
        // latest if parseable, else prev.
        let mut migrated: Vec<u32> = Vec::new();
        if let Some(env) = latest.as_ref().or(prev.as_ref()) {
            for rec in env.records.iter().filter(|r| migrates(r.victim)) {
                migrated.push(rec.victim);
                let from = slot.open_loss.remove(&rec.victim).unwrap_or(last_ckpt);
                moves.push(Migration {
                    victim: rec.victim,
                    from_shard: k as u32,
                    seen: rec.seen,
                    record: rec.bytes.to_vec(),
                    from,
                    to: roll_back(from),
                });
            }
        }
        // Scrub the migrants out of BOTH stored blobs: after the
        // ring swap this shard no longer owns them, and restoring
        // them here would make two shards emit for one victim.
        if !migrated.is_empty() {
            let keep = |victim: u32| !migrated.contains(&victim);
            let latest = latest.map(|env| env.reseal(keep, None));
            let prev = prev.map(|env| env.reseal(keep, None));
            if latest.is_some() {
                slot.latest = latest;
            }
            if prev.is_some() {
                slot.prev = prev;
            }
        }
        // A removed dead shard takes any unparseable remainder with it:
        // close the leftover windows with the kill-style replay bound,
        // because that state is now gone for good.
        if removed {
            self.close_open_losses(k, roll_back);
        }
    }

    /// Deliver collected migrations to their new owners, in the sorted
    /// move order.
    fn deliver_migrations(&mut self, at: SimTime, moves: Vec<Migration>) {
        for m in moves {
            let target = self.shard_for(m.victim);
            let adopted = self.deliver_one(target, &m);
            self.stats.victims_migrated += 1;
            if !adopted {
                self.stats.migrate_failures += 1;
            }
            self.trace_instant(
                at,
                "obs.fleet.resize.migrate",
                m.victim as u64,
                target as u64,
            );
            self.migrations.push(MigrationWindow {
                victim: m.victim,
                from_shard: m.from_shard,
                to_shard: target as u32,
                at,
                from: m.from,
                to: m.to,
            });
            if m.from != m.to {
                // Rollback loss is loss no matter which subsystem
                // caused it: mirror the lossy window into the loss
                // report under the source shard.
                self.close_loss(m.from_shard as usize, m.victim, m.from, m.to);
            }
        }
    }

    /// Install one migrant on shard `target`. Returns false when the
    /// record could not be carried over (the victim restarts cold on
    /// its next packet).
    fn deliver_one(&mut self, target: usize, m: &Migration) -> bool {
        let rec = RecordRef {
            victim: m.victim,
            seen: m.seen,
            bytes: &m.record,
            offset: 0,
        };
        if let Some(runner) = self.slots[target].state.as_mut() {
            // A rejected record leaves the victim to start cold.
            let fault = match runner.call(&Request::Adopt(&m.record), &mut Vec::new()) {
                Ok(Reply::Ok) => return true,
                Ok(Reply::Err(RemoteError::Victim(_))) => return false,
                Ok(other) => unexpected(other),
                Err(fault) => fault,
            };
            // The target's child died under the adopt: absorb the
            // crash and fall through to the dead-target path so the
            // migrant's state still survives in a blob.
            self.absorb_worker_fault(target, fault);
        }
        // Dead target: splice the migrant's record into the blob(s)
        // its restart will restore from, so the migrated state
        // survives the outage instead of being dropped on the floor.
        let header = self.blob_header(target);
        let slot = &mut self.slots[target];
        let splice = |stored: Option<&[u8]>| {
            let env = parse_envelope(target as u32, stored?).ok()?;
            Some(env.reseal(|_| true, Some(rec)))
        };
        let latest = match slot.latest.as_deref() {
            Some(stored) => splice(Some(stored)),
            None => {
                let mut blob = BlobWriter::new(&header, m.record.len());
                blob.push_record(&m.record);
                Some(blob.finish())
            }
        };
        let prev = splice(slot.prev.as_deref());
        let placed = latest.is_some() || prev.is_some();
        if latest.is_some() {
            slot.latest = latest;
        }
        if prev.is_some() {
            slot.prev = prev;
        }
        placed
    }

    /// The header of a blob written for slot `k` at its last
    /// checkpoint.
    fn blob_header(&self, k: usize) -> BlobHeader {
        BlobHeader {
            shard: k as u32,
            taken: self.slots[k].last_checkpoint_at,
            graph_fp: self.graph_fp,
            cfg: self.cfg.decode.clone(),
            classifier: self.classifier.clone(),
        }
    }

    // -- checkpoint cadence -------------------------------------------

    /// Make sure `push` runs its ticks once the stream reaches `at`.
    fn lower_next_tick(&mut self, at: SimTime) {
        self.next_tick = self.next_tick.min(at.micros());
    }

    /// Recompute the tick deadline after the ticks ran: the earliest
    /// live shard's next checkpoint and the observer's next tick. Dead
    /// shards are left out; a restore lowers the deadline again.
    fn refresh_next_tick(&mut self) {
        let checkpoints = self
            .slots
            .iter()
            .filter(|slot| slot.state.is_some())
            .map(|slot| slot.next_checkpoint.micros());
        let observer = self.observer.as_ref().map(|o| o.next_tick.micros());
        self.next_tick = checkpoints.chain(observer).min().unwrap_or(u64::MAX);
    }

    fn checkpoint_tick(&mut self) {
        for k in 0..self.slots.len() {
            if self.slots[k].state.is_none()
                || self.now.micros() < self.slots[k].next_checkpoint.micros()
            {
                continue;
            }
            // Evict idle victims at checkpoint boundaries so the blob
            // (and resident state) stays bounded by concurrency.
            let idle = self.cfg.victim_idle;
            let now = self.now;
            let mut out = Vec::new();
            let evicted = {
                let runner = self.slots[k].state.as_mut().expect("checked live above");
                evicted(runner, &Request::EvictIdle { now, idle }, &mut out)
            };
            self.emit(&out);
            let evicted = match evicted {
                Ok(n) => n,
                Err(fault) => {
                    self.absorb_worker_fault(k, fault);
                    continue;
                }
            };
            self.stats.victims_evicted += evicted;
            let ckpt = {
                let runner = self.slots[k].state.as_mut().expect("checked live above");
                match runner.call(&Request::Checkpoint { taken: now }, &mut out) {
                    Ok(Reply::Blob(blob)) => Ok((blob, runner.state_bytes())),
                    Ok(other) => Err(unexpected(other)),
                    Err(fault) => Err(fault),
                }
            };
            let (blob, state_bytes) = match ckpt {
                Ok(pair) => pair,
                Err(fault) => {
                    self.absorb_worker_fault(k, fault);
                    continue;
                }
            };
            self.stats.shard_state_peak = self.stats.shard_state_peak.max(state_bytes as u64);
            let blob = match self.slots[k].damage.take() {
                Some(ShardFaultKind::CheckpointCorrupt) => {
                    let seed = self.next_damage_seed();
                    corrupt_blob(seed, &blob)
                }
                Some(ShardFaultKind::CheckpointTorn) => {
                    let seed = self.next_damage_seed();
                    tear_blob(seed, &blob)
                }
                _ => blob,
            };
            let slot = &mut self.slots[k];
            slot.prev = slot.latest.take();
            slot.latest = Some(blob);
            slot.last_checkpoint_at = now;
            // Surviving to a checkpoint proves the shard healthy:
            // reset the restart backoff.
            slot.backoff_exp = 0;
            while slot.next_checkpoint.micros() <= self.now.micros() {
                slot.next_checkpoint = SimTime(
                    slot.next_checkpoint.micros() + self.cfg.checkpoint_every.micros().max(1),
                );
            }
            self.stats.checkpoints += 1;
            self.trace_instant(now, "fleet.checkpoint", k as u64, state_bytes as u64);
        }
    }

    // -- observation cadence ------------------------------------------

    /// Run every observation tick the stream time has passed. Ticks
    /// are aligned sim-time multiples of the checkpoint cadence, so the
    /// series is a function of the packet stream — never of arrival
    /// batching — and each point merges the per-shard registry deltas,
    /// which is partition-invariant across shard and worker counts.
    fn observer_tick(&mut self) {
        let Some(mut obs) = self.observer.take() else {
            return;
        };
        let every = self.cfg.checkpoint_every.micros().max(1);
        while obs.next_tick.micros() <= self.now.micros() {
            let t = obs.next_tick;
            self.observe_point(&mut obs, t);
            obs.next_tick = SimTime(t.micros() + every);
        }
        self.observer = Some(obs);
    }

    /// One observation: score health, emit alert instants, take and
    /// merge the per-shard metric deltas into a series point.
    fn observe_point(&mut self, obs: &mut Observer, at: SimTime) {
        let vitals = self.shard_vitals(at);
        for tr in obs.watchdog.observe(at.micros(), &vitals) {
            self.trace_instant(at, tr.to.trace_name(), tr.shard as u64, tr.from.code());
        }
        // Decoders buffer their event counts; publish them so this
        // tick's deltas are exact.
        for slot in self.slots.iter_mut() {
            if let Some(state) = slot.state.as_mut() {
                state.flush_telemetry();
            }
        }
        let mut delta = Snapshot::default();
        for (reg, tracker) in obs.registries.iter().zip(obs.trackers.iter_mut()) {
            delta.merge(&tracker.take(reg));
        }
        for entry in obs.retired.iter_mut() {
            delta.merge(&entry.1.take(&entry.0));
        }
        obs.series.push(SeriesPoint {
            t_us: at.micros(),
            delta,
        });
    }

    /// Per-shard vitals at `at`, indexed by shard.
    fn shard_vitals(&self, at: SimTime) -> Vec<ShardVitals> {
        let state_bound = self.cfg.per_shard_state_bound() as u64;
        let cadence_us = self.cfg.checkpoint_every.micros();
        self.slots
            .iter()
            .enumerate()
            .map(|(k, slot)| ShardVitals {
                shard: k as u32,
                alive: slot.state.is_some(),
                stalled: at.micros() < slot.stalled_until.micros(),
                backoff_exp: slot.backoff_exp,
                restarts: slot.restarts,
                open_loss_windows: slot.open_loss.len() as u64,
                checkpoint_age_us: at.micros().saturating_sub(slot.last_checkpoint_at.micros()),
                checkpoint_cadence_us: cadence_us,
                state_bytes: slot
                    .state
                    .as_ref()
                    .map(|s| s.state_bytes() as u64)
                    .unwrap_or(0),
                state_bound,
                queued_packets: slot.stall_queue.len() as u64,
                restore_failures: slot.restore_failures,
                respawns: slot.respawns,
            })
            .collect()
    }

    /// End of run: catch up any pending ticks, take one final point at
    /// the stream's end so the tail (drained stalls, final decoder
    /// flushes) is on the series, and freeze the observer into its
    /// report.
    fn observer_finalize(&mut self) -> Option<ObsReport> {
        self.observer_tick();
        let mut obs = self.observer.take()?;
        self.observe_point(&mut obs, self.now);
        let parts: Vec<Snapshot> = obs
            .registries
            .iter()
            .chain(obs.retired.iter().map(|(r, _)| r))
            .map(|r| r.snapshot())
            .collect();
        Some(ObsReport {
            status: obs.watchdog.status(),
            series_jsonl: obs.series.to_jsonl(),
            series_dropped: obs.series.dropped(),
            snapshot: Snapshot::merged(parts.iter()),
        })
    }

    fn next_damage_seed(&mut self) -> u64 {
        self.damage_seq += 1;
        damage_seed(RING_SEED, self.damage_seq)
    }

    fn trace_instant(&self, at: SimTime, name: &'static str, a: u64, b: u64) {
        if let Some((handle, parent)) = &self.trace {
            handle.instant_at(at.micros(), *parent, name, a, b);
        }
    }
}
