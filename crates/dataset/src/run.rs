//! Session execution over a dataset spec.

use crate::spec::{DatasetSpec, ViewerSpec};
use std::sync::Arc;
use wm_behavior::script_for;
use wm_chaos::FaultPlan;
use wm_defense::Defense;
use wm_net::conditions::{ConnectionType, TimeOfDay};
use wm_net::time::Duration;
use wm_player::PlayerConfig;
use wm_sim::{run_session, SessionConfig, SessionError, SessionOutput};
use wm_story::StoryGraph;
use wm_tls::CipherSuite;

/// Knobs shared by every session of a dataset run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Media byte divisor (fidelity vs speed; see DESIGN.md).
    pub media_scale: u32,
    /// Playback compression (timing structure preserved).
    pub time_scale: u32,
    pub suite: CipherSuite,
    pub defense: Defense,
    /// Collect per-session telemetry (merged run-wide with
    /// `Snapshot::merged`). Observation only — traces are
    /// byte-identical either way.
    pub telemetry: bool,
    /// Record a causal event trace per session (see `wm_telemetry::trace`).
    /// Observation only — captures are byte-identical either way.
    pub trace: bool,
    /// Fault-injection intensity (0.0 = clean sessions). Each viewer
    /// gets its own deterministic [`FaultPlan`] derived from its seed,
    /// so faulted runs replay byte-identically too.
    pub chaos_intensity: f64,
    /// Horizon for generated fault plans; should roughly match the
    /// scaled wall of a session so faults land mid-stream.
    pub chaos_horizon: Duration,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            media_scale: 256,
            time_scale: 20,
            suite: CipherSuite::Aead,
            defense: Defense::None,
            telemetry: false,
            trace: false,
            chaos_intensity: 0.0,
            chaos_horizon: Duration::from_secs(8),
        }
    }
}

/// One executed data point: `{spec, encrypted trace + ground truth}`.
pub struct SessionRecord {
    pub spec: ViewerSpec,
    pub output: SessionOutput,
}

/// Build the per-viewer session configuration.
///
/// Network conditions couple into client noise: busy links raise both
/// the flush-split probability and the telemetry heavy tail, which is
/// what drags the worst-case condition toward the paper's 96%.
pub fn session_config(
    graph: Arc<StoryGraph>,
    viewer: &ViewerSpec,
    opts: &SimOptions,
) -> SessionConfig {
    let link = viewer.operational.link;
    let mut player = PlayerConfig {
        time_scale: opts.time_scale,
        ..PlayerConfig::default()
    };
    player.split_flush_extra = match (link.connection, link.time_of_day) {
        (ConnectionType::Wireless, TimeOfDay::Night) => 0.03,
        (ConnectionType::Wireless, _) => 0.012,
        (_, TimeOfDay::Night) => 0.01,
        _ => 0.0,
    };
    player.telemetry_tail_prob = match link.time_of_day {
        TimeOfDay::Morning => 0.005,
        TimeOfDay::Noon => 0.012,
        TimeOfDay::Night => 0.025,
    };
    SessionConfig {
        seed: viewer.seed,
        profile: viewer.operational.profile,
        conditions: link,
        suite: opts.suite,
        player,
        media_scale: opts.media_scale,
        script: script_for(&graph, &viewer.behavior, viewer.seed),
        graph,
        defense: opts.defense,
        telemetry: opts.telemetry,
        trace: opts.trace,
        chaos: if opts.chaos_intensity > 0.0 {
            FaultPlan::generate(viewer.seed, opts.chaos_intensity, opts.chaos_horizon)
        } else {
            FaultPlan::none()
        },
    }
}

/// A session that could not run to completion, with its viewer spec
/// so callers can re-run, skip or report it.
#[derive(Debug)]
pub struct SessionFailure {
    pub spec: ViewerSpec,
    pub error: SessionError,
}

/// Outcome of a fault-tolerant dataset run: every viewer lands in
/// exactly one of the two vectors, each in encounter order.
pub struct DatasetRun {
    pub records: Vec<SessionRecord>,
    pub failures: Vec<SessionFailure>,
}

/// Run every viewer's session across a work-stealing pool of `workers`
/// threads (`0` = one per available core). Sessions that fail
/// (possible under heavy [`SimOptions::chaos_intensity`]) are
/// collected as typed [`SessionFailure`]s instead of aborting the run —
/// the rest of the dataset is still produced.
///
/// Each session is a pure function of its viewer's seed, and results
/// merge in viewer-index order, so the output is byte-identical for
/// every worker count (the determinism suite pins this). Workers pull
/// the next viewer index dynamically from a shared counter, so one
/// long-chaos session no longer serializes a fixed contiguous chunk
/// behind it — the old uneven-shard tail.
pub fn try_run_dataset_with_workers(
    graph: &Arc<StoryGraph>,
    spec: &DatasetSpec,
    opts: &SimOptions,
    workers: usize,
) -> DatasetRun {
    let outcomes = wm_pool::run_indexed(spec.viewers.len(), workers, |i| {
        let viewer = &spec.viewers[i];
        let cfg = session_config(graph.clone(), viewer, opts);
        match run_session(&cfg) {
            Ok(output) => Ok(SessionRecord {
                spec: *viewer,
                output,
            }),
            Err(error) => Err(SessionFailure {
                spec: *viewer,
                error,
            }),
        }
    });
    let mut run = DatasetRun {
        records: Vec::new(),
        failures: Vec::new(),
    };
    for outcome in outcomes {
        match outcome {
            Ok(record) => run.records.push(record),
            Err(failure) => run.failures.push(failure),
        }
    }
    run
}

/// [`try_run_dataset_with_workers`] with the auto worker count (one
/// per available core).
pub fn try_run_dataset(
    graph: &Arc<StoryGraph>,
    spec: &DatasetSpec,
    opts: &SimOptions,
) -> DatasetRun {
    try_run_dataset_with_workers(graph, spec, opts, 0)
}

/// Run every viewer's session, panicking on the first failure. Clean
/// (no-chaos) runs never fail; use [`try_run_dataset`] when injecting
/// faults.
pub fn run_dataset(
    graph: &Arc<StoryGraph>,
    spec: &DatasetSpec,
    opts: &SimOptions,
) -> Vec<SessionRecord> {
    let run = try_run_dataset(graph, spec, opts);
    if let Some(f) = run.failures.first() {
        panic!("viewer {} session failed: {}", f.spec.id, f.error);
    }
    run.records
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_story::bandersnatch::tiny_film;
    use wm_telemetry::Snapshot;

    fn fast_opts() -> SimOptions {
        SimOptions {
            media_scale: 2048,
            time_scale: 20,
            ..SimOptions::default()
        }
    }

    #[test]
    fn runs_small_dataset_in_parallel() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("mini", 8, 77);
        let records = run_dataset(&graph, &spec, &fast_opts());
        assert_eq!(records.len(), 8);
        // Order preserved and ids aligned.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.spec.id, i as u32);
            assert!(!r.output.decisions.is_empty());
            assert!(r.output.stats.packets_captured > 10);
        }
    }

    #[test]
    fn rerun_is_identical() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("mini", 4, 99);
        let a = run_dataset(&graph, &spec, &fast_opts());
        let b = run_dataset(&graph, &spec, &fast_opts());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                x.output.trace.to_pcap_bytes(),
                y.output.trace.to_pcap_bytes(),
                "viewer {}",
                x.spec.id
            );
        }
    }

    #[test]
    fn telemetry_aggregates_across_workers() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("mini", 6, 55);
        let opts = SimOptions {
            telemetry: true,
            ..fast_opts()
        };
        // Each worker fills its sessions' snapshots independently;
        // `Snapshot::merge` is exact, commutative and associative.
        let aggregate = |records: &[SessionRecord]| {
            Snapshot::merged(records.iter().map(|r| &r.output.telemetry))
        };
        let records = run_dataset(&graph, &spec, &opts);
        let total = aggregate(&records);
        // The merged counters equal the per-session sums exactly.
        let per_session: u64 = records
            .iter()
            .map(|r| r.output.telemetry.counters["sim.events"])
            .sum();
        assert_eq!(total.counters["sim.events"], per_session);
        assert_eq!(
            total.counters["capture.frames_tapped"],
            records
                .iter()
                .map(|r| r.output.stats.packets_captured as u64)
                .sum::<u64>()
        );
        // Aggregation is order-independent: reversing gives the same report.
        let reversed = Snapshot::merged(records.iter().rev().map(|r| &r.output.telemetry));
        assert_eq!(total, reversed);
        // A second run reproduces every seed-deterministic counter.
        let again = aggregate(&run_dataset(&graph, &spec, &opts));
        assert_eq!(total.counters, again.counters);
    }

    #[test]
    fn chaotic_dataset_is_fault_tolerant_and_reproducible() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("mini", 8, 123);
        let opts = SimOptions {
            chaos_intensity: 1.0,
            chaos_horizon: Duration::from_secs(4),
            ..fast_opts()
        };
        let a = try_run_dataset(&graph, &spec, &opts);
        // Every viewer is accounted for, exactly once.
        assert_eq!(a.records.len() + a.failures.len(), 8);
        assert!(
            !a.records.is_empty(),
            "most faulted sessions still complete"
        );
        // Chaos actually happened somewhere in the batch.
        let faults: u64 = a
            .records
            .iter()
            .map(|r| r.output.stats.faults_applied)
            .sum();
        assert!(faults > 0, "intensity 1.0 must inject faults");
        // The faulted run replays byte-identically.
        let b = try_run_dataset(&graph, &spec, &opts);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(x.spec.id, y.spec.id);
            assert_eq!(
                x.output.trace.to_pcap_bytes(),
                y.output.trace.to_pcap_bytes()
            );
        }
        for (x, y) in a.failures.iter().zip(b.failures.iter()) {
            assert_eq!(x.spec.id, y.spec.id);
            assert_eq!(x.error, y.error);
        }
    }

    /// Worker-count invariance under a pathologically skewed workload:
    /// heavy chaos makes session lengths wildly uneven (some sessions
    /// retry and stall, some die early, some run clean), which is
    /// exactly the distribution that serialized the old contiguous
    /// chunking. Every worker count must produce byte-identical
    /// records *and* the identical failure list. (The scheduling-level
    /// half of this regression — a long task no longer blocks the
    /// tasks behind it — is pinned deterministically in `wm-pool`.)
    #[test]
    fn skewed_session_lengths_replay_identically_across_worker_counts() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("skew", 10, 404);
        let opts = SimOptions {
            chaos_intensity: 2.0,
            chaos_horizon: Duration::from_secs(4),
            ..fast_opts()
        };
        let base = try_run_dataset_with_workers(&graph, &spec, &opts, 1);
        assert_eq!(base.records.len() + base.failures.len(), 10);
        for workers in [2usize, 5, 8] {
            let run = try_run_dataset_with_workers(&graph, &spec, &opts, workers);
            assert_eq!(base.records.len(), run.records.len(), "workers {workers}");
            assert_eq!(base.failures.len(), run.failures.len(), "workers {workers}");
            for (x, y) in base.records.iter().zip(run.records.iter()) {
                assert_eq!(x.spec.id, y.spec.id);
                assert_eq!(
                    x.output.trace.to_pcap_bytes(),
                    y.output.trace.to_pcap_bytes(),
                    "workers {workers}, viewer {}",
                    x.spec.id
                );
            }
            for (x, y) in base.failures.iter().zip(run.failures.iter()) {
                assert_eq!(x.spec.id, y.spec.id);
                assert_eq!(x.error, y.error);
            }
        }
    }

    #[test]
    fn conditions_shape_noise_knobs() {
        let graph = Arc::new(tiny_film());
        let spec = DatasetSpec::generate("mini", 72, 3);
        let night_wireless = spec
            .viewers
            .iter()
            .find(|v| {
                v.operational.link.connection == ConnectionType::Wireless
                    && v.operational.link.time_of_day == TimeOfDay::Night
            })
            .expect("grid covers the cell");
        let cfg = session_config(graph, night_wireless, &fast_opts());
        assert!(cfg.player.split_flush_extra > 0.02);
        assert!(cfg.player.telemetry_tail_prob > 0.02);
    }
}
