//! Observability-plane integration: the live fleet health plane must
//! *observe* without *disturbing*.
//!
//! * Under an active fault plan the SLO watchdog walks a killed shard
//!   through Critical → Degraded → Healthy, so the alert stream always
//!   carries at least one Degraded→Healthy recovery transition (the
//!   transition CI's obs-smoke job asserts on).
//! * Every export is byte-deterministic: the streamed series JSONL and
//!   the merged snapshot are identical across shard counts
//!   (fault-free — placement must not shape observation), and under a
//!   fault plan two runs give the identical observer report, trace and
//!   flamegraph (recovery must not shape observation).

use std::sync::Arc;

use white_mirror::capture::time::{Duration, SimTime};
use white_mirror::chaos::ShardFaultPlan;
use white_mirror::core::{IntervalClassifier, WhiteMirrorConfig};
use white_mirror::fleet::{merge_taps, Fleet, FleetConfig, FleetReport, HealthState, TapPacket};
use white_mirror::obs::collapse_spans;
use white_mirror::prelude::*;
use white_mirror::trace::{SpanId, TraceEvent, TraceHandle};

const TS: u32 = 20;

fn fast_cfg(seed: u64, picks: &[Choice]) -> SessionConfig {
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let script = ViewerScript::from_choices(picks, Duration::from_millis(900));
    SessionConfig::fast(graph, seed, script)
}

/// A merged multi-victim tap stream over a small capture pool, plus
/// its classifier: the fixture every test here feeds the fleet.
fn fixture() -> (IntervalClassifier, Arc<StoryGraph>, Vec<TapPacket>, u64) {
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let train = run_session(&fast_cfg(
        900,
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
    ))
    .expect("training session");
    let classifier =
        IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).expect("bands");

    let picks: [[Choice; 3]; 3] = [
        [Choice::Default, Choice::NonDefault, Choice::Default],
        [Choice::NonDefault, Choice::NonDefault, Choice::Default],
        [Choice::Default, Choice::Default, Choice::NonDefault],
    ];
    let taps: Vec<Vec<TapPacket>> = (0..6u64)
        .map(|v| {
            let out =
                run_session(&fast_cfg(910 + v, &picks[v as usize % picks.len()])).expect("victim");
            let offset = v * 250_000;
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros() + offset), v as u32, p.frame.clone()))
                .collect()
        })
        .collect();
    let stream = merge_taps(&taps);
    let span_us = stream.last().map(|(t, _, _)| t.micros()).unwrap_or(1);
    (classifier, graph, stream, span_us)
}

fn fleet_cfg(shards: usize, span_us: u64) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(shards, TS);
    cfg.victim_idle = Duration::from_micros(span_us);
    cfg.max_victims_per_shard = 16;
    // The fixture stream spans only a few sim-seconds; checkpoint, and
    // so observe, on a 100 ms cadence so kill/restore intervals land
    // on ticks.
    cfg.checkpoint_every = Duration::from_millis(100);
    cfg
}

fn run_observed(
    cfg: &FleetConfig,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    stream: &[TapPacket],
    plan: Option<&ShardFaultPlan>,
) -> (FleetReport, Vec<TraceEvent>) {
    let mut fleet =
        Fleet::new(cfg.clone(), classifier.clone(), graph.clone()).expect("valid fleet config");
    if let Some(plan) = plan {
        fleet.inject(plan);
    }
    let trace = TraceHandle::new();
    let root = trace.span_start_at(0, "fleet.run", SpanId::NONE);
    fleet.attach_trace(trace.clone(), root);
    fleet.attach_observer();
    for (t, victim, frame) in stream {
        fleet.push(*t, *victim, frame);
    }
    let end = stream.last().map(|(t, _, _)| t.micros()).unwrap_or(0);
    let report = fleet.finish();
    trace.span_end_at(end, root, "fleet.run");
    (report, trace.snapshot())
}

#[test]
fn chaos_fleet_recovers_through_degraded_to_healthy() {
    let (classifier, graph, stream, span_us) = fixture();
    let cfg = fleet_cfg(3, span_us);
    // Faults confined to the first half of the stream so every killed
    // shard has sim-time left to restore and walk back to Healthy.
    let plan = ShardFaultPlan::generate(0x0B5, 3.0, cfg.shards, Duration::from_micros(span_us / 2));
    let (report, trace_events) = run_observed(&cfg, &classifier, &graph, &stream, Some(&plan));

    assert!(report.stats.kills > 0, "the plan must exercise recovery");
    let obs = report.obs.as_ref().expect("observer attached");
    let recoveries = obs
        .status
        .transitions
        .iter()
        .filter(|tr| tr.from == HealthState::Degraded && tr.to == HealthState::Healthy)
        .count();
    assert!(
        recoveries >= 1,
        "expected a Degraded→Healthy recovery in the alert stream; transitions: {:?}",
        obs.status.transitions
    );
    // The same alerts are mirrored as sim-time trace instants.
    let healthy_instants = trace_events
        .iter()
        .filter(|e| e.name == "obs.health.healthy")
        .count();
    assert!(healthy_instants >= recoveries);
    // Every shard ends the run healthy (the stream long outlives the
    // fault window) and the series saw the whole run.
    assert_eq!(obs.status.worst(), HealthState::Healthy);
    assert!(!obs.series_jsonl.is_empty());
    assert_eq!(obs.series_dropped, 0);
}

#[test]
fn exports_are_byte_identical_across_shard_counts() {
    let (classifier, graph, stream, span_us) = fixture();
    let mut reference = None;
    for shards in [1usize, 2, 4] {
        let cfg = fleet_cfg(shards, span_us);
        let (report, _) = run_observed(&cfg, &classifier, &graph, &stream, None);
        let obs = report.obs.expect("observer attached");
        assert!(
            obs.snapshot.counters.contains_key("online.records"),
            "{:?}",
            obs.snapshot.counters
        );
        match &reference {
            None => reference = Some((obs.series_jsonl, obs.snapshot)),
            Some((series, snapshot)) => {
                assert_eq!(
                    &obs.series_jsonl, series,
                    "series JSONL diverged at {shards} shards"
                );
                assert_eq!(
                    &obs.snapshot, snapshot,
                    "snapshot diverged at {shards} shards"
                );
            }
        }
    }
}

#[test]
fn observer_report_replays_identically_under_faults() {
    let (classifier, graph, stream, span_us) = fixture();
    let plan = ShardFaultPlan::generate(0x0B5, 2.0, 3, Duration::from_micros(span_us / 2));
    let cfg = fleet_cfg(3, span_us);
    let run = || {
        let (report, trace_events) = run_observed(&cfg, &classifier, &graph, &stream, Some(&plan));
        let obs = report.obs.expect("observer attached");
        (
            obs.series_jsonl,
            obs.snapshot,
            collapse_spans(&trace_events),
            obs.status.render(),
            trace_events,
        )
    };
    let (series, snapshot, flame, status, events) = run();
    let again = run();
    assert_eq!(series, again.0, "series diverged on the rerun");
    assert_eq!(snapshot, again.1, "snapshot diverged on the rerun");
    assert_eq!(flame, again.2, "flamegraph diverged on the rerun");
    assert_eq!(status, again.3, "health status diverged on the rerun");
    assert_eq!(events, again.4, "trace diverged on the rerun");
}
