//! Determinism regression tests.
//!
//! The whole reproduction rests on `run_session` being a pure function
//! of its config: equal configs must replay byte-identical sessions
//! (so datasets are reproducible and golden fixtures are meaningful),
//! and telemetry must observe without perturbing anything.

use std::sync::Arc;
use white_mirror::net::time::Duration;
use white_mirror::prelude::*;

fn cfg(seed: u64, telemetry: bool) -> SessionConfig {
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let script = ViewerScript::from_choices(
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        Duration::from_millis(900),
    );
    let mut c = SessionConfig::fast(graph, seed, script);
    c.telemetry = telemetry;
    c
}

#[test]
fn same_seed_replays_byte_identically() {
    let a = run_session(&cfg(41, true)).expect("session a");
    let b = run_session(&cfg(41, true)).expect("session b");

    assert_eq!(
        a.trace.to_pcap_bytes(),
        b.trace.to_pcap_bytes(),
        "traces must be byte-identical"
    );
    assert_eq!(a.labels, b.labels, "label sequences must be identical");
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.stats.events, b.stats.events);
    // Every telemetry *counter* is seed-deterministic (the `*_ns`
    // timing histograms are wall-clock and intentionally excluded).
    assert!(!a.telemetry.counters.is_empty(), "telemetry was enabled");
    assert_eq!(a.telemetry.counters, b.telemetry.counters);
}

#[test]
fn telemetry_collection_does_not_perturb_the_session() {
    let plain = run_session(&cfg(41, false)).expect("plain");
    let observed = run_session(&cfg(41, true)).expect("observed");
    assert_eq!(plain.trace.to_pcap_bytes(), observed.trace.to_pcap_bytes());
    assert_eq!(plain.labels, observed.labels);
    assert_eq!(plain.stats.events, observed.stats.events);
}

/// Counters count discrete simulation events, so they are a pure
/// function of `(config, seed)` and replay exactly as a whole; the
/// histograms include wall-clock `*_ns` timings and are left out.
#[test]
fn telemetry_deterministic_view_replays_exactly() {
    let a = run_session(&cfg(41, true)).expect("session a");
    let b = run_session(&cfg(41, true)).expect("session b");
    assert!(!a.telemetry.counters.is_empty());
    assert_eq!(a.telemetry.counters, b.telemetry.counters);
}

fn traced_cfg(seed: u64) -> SessionConfig {
    let mut c = cfg(seed, false);
    c.trace = true;
    c
}

/// Acceptance criterion of the tracing subsystem: two sessions with
/// equal config and seed export byte-identical JSONL (and Chrome-trace)
/// event logs, because every timestamp is sim time.
#[test]
fn trace_export_is_byte_identical_per_seed() {
    let a = run_session(&traced_cfg(41)).expect("session a");
    let b = run_session(&traced_cfg(41)).expect("session b");
    assert!(!a.trace_events.is_empty(), "tracing was enabled");
    let (ja, jb) = (export_jsonl(&a.trace_events), export_jsonl(&b.trace_events));
    assert_eq!(ja, jb, "JSONL exports must be byte-identical");
    assert_eq!(
        export_chrome_trace(&a.trace_events),
        export_chrome_trace(&b.trace_events)
    );
    assert_eq!(trace_diff(&ja, &jb), None);
}

/// Tracing is observation only: the capture, labels and event count are
/// byte-identical with the recorder attached or absent, and a plain
/// session carries no events.
#[test]
fn trace_collection_does_not_perturb_the_session() {
    let plain = run_session(&cfg(41, false)).expect("plain");
    let traced = run_session(&traced_cfg(41)).expect("traced");
    assert_eq!(plain.trace.to_pcap_bytes(), traced.trace.to_pcap_bytes());
    assert_eq!(plain.labels, traced.labels);
    assert_eq!(plain.stats.events, traced.stats.events);
    assert!(plain.trace_events.is_empty());
}

/// Chaos + tracing: a faulted session's event log replays
/// byte-identically too, fault events included.
#[test]
fn chaotic_trace_replays_byte_identically() {
    let chaotic = |seed: u64| {
        let mut c = traced_cfg(seed);
        c.chaos = FaultPlan::generate(seed, 1.5, Duration::from_secs(4));
        c
    };
    let (a, _) = run_session_lossy(&chaotic(29));
    let (b, _) = run_session_lossy(&chaotic(29));
    assert_eq!(
        export_jsonl(&a.trace_events),
        export_jsonl(&b.trace_events),
        "faulted event logs must be byte-identical"
    );
}

/// The JSON state blobs the player posts are byte-identical across
/// replays — the serialized *length* is the paper's observable, so any
/// order instability (e.g. a hash-map-backed object) would corrupt the
/// side channel itself. This pins the post-refactor guarantee that all
/// byte paths use order-preserving structures.
#[test]
fn state_blob_serialization_is_order_stable() {
    use white_mirror::capture::flow::FlowReassembler;
    let a = run_session(&cfg(7, false)).expect("session a");
    let b = run_session(&cfg(7, false)).expect("session b");
    let lens = |t: &white_mirror::capture::Trace| -> Vec<(u64, u64)> {
        FlowReassembler::reassemble(t)
            .iter()
            .map(|f| {
                let bytes = |v: &white_mirror::capture::flow::StreamView| -> u64 {
                    v.chunks.iter().map(|c| c.data.len() as u64).sum()
                };
                (bytes(&f.upstream), bytes(&f.downstream))
            })
            .collect()
    };
    assert_eq!(
        lens(&a.trace),
        lens(&b.trace),
        "per-flow byte counts must replay exactly"
    );
}

/// Full pipeline determinism across seeds: the attacker's decoded
/// choices from identical traces are identical, including the
/// tie-breaking paths inside the beam search (f64 `total_cmp`).
#[test]
fn decode_is_deterministic_per_trace() {
    for seed in [3u64, 41, 97] {
        let a = run_session(&cfg(seed, false)).expect("session");
        let b = run_session(&cfg(seed, false)).expect("session");
        assert_eq!(
            a.decisions, b.decisions,
            "seed {seed}: decisions must replay exactly"
        );
        assert_eq!(a.labels, b.labels, "seed {seed}");
    }
}

#[test]
fn different_seed_differs() {
    let a = run_session(&cfg(41, true)).expect("seed 41");
    let b = run_session(&cfg(42, true)).expect("seed 42");
    assert_ne!(
        a.trace.to_pcap_bytes(),
        b.trace.to_pcap_bytes(),
        "seeds must decorrelate traces"
    );
    assert_ne!(
        a.telemetry.counters, b.telemetry.counters,
        "link/TLS/player counters track the seed-specific traffic"
    );
}

/// Chaos determinism: the same `(config, FaultPlan)` pair — including
/// resets, stalls, tap gaps and duplicate POSTs — replays every
/// artifact byte-identically, and an explicit empty plan is
/// indistinguishable from no plan at all.
#[test]
fn chaotic_session_replays_byte_identically() {
    let chaotic = |seed: u64| {
        let mut c = cfg(seed, true);
        c.chaos = FaultPlan::generate(seed, 1.5, Duration::from_secs(4));
        c
    };
    for seed in [11u64, 29] {
        let a = run_session_lossy(&chaotic(seed));
        let b = run_session_lossy(&chaotic(seed));
        assert_eq!(
            a.0.trace.to_pcap_bytes(),
            b.0.trace.to_pcap_bytes(),
            "seed {seed}: faulted traces must be byte-identical"
        );
        assert_eq!(a.0.labels, b.0.labels, "seed {seed}");
        assert_eq!(a.0.decisions, b.0.decisions, "seed {seed}");
        assert_eq!(a.0.stats.faults_applied, b.0.stats.faults_applied);
        assert_eq!(a.0.stats.reconnects, b.0.stats.reconnects);
        assert_eq!(a.0.telemetry.counters, b.0.telemetry.counters);
        assert_eq!(a.1.is_some(), b.1.is_some(), "seed {seed}: same outcome");
    }
}

#[test]
fn empty_fault_plan_is_invisible() {
    let plain = run_session(&cfg(41, false)).expect("plain");
    let mut with_plan = cfg(41, false);
    with_plan.chaos = FaultPlan::none();
    let explicit = run_session(&with_plan).expect("explicit empty plan");
    assert_eq!(
        plain.trace.to_pcap_bytes(),
        explicit.trace.to_pcap_bytes(),
        "an empty plan must not perturb a single byte"
    );
    assert_eq!(plain.labels, explicit.labels);
    assert_eq!(plain.stats.events, explicit.stats.events);
    assert_eq!(plain.stats.faults_applied, 0);
}

// ---- sharding determinism ---------------------------------------------
//
// The throughput engine schedules sessions across a work-stealing pool;
// the invariant it must never bend is that scheduling decides *when* a
// session runs, never *what* it produces. Both sharded entry points —
// the dataset generator and the online fleet decoder — are pinned here
// for worker counts 1, 2, 8 and `available_parallelism`, across seeds.

/// Worker counts the sharding property tests sweep: the inline path,
/// a small pool, an oversubscribed pool (more workers than this
/// machine has cores), and whatever the machine actually reports.
fn sharding_worker_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1usize, 2, 8];
    if !counts.contains(&avail) {
        counts.push(avail);
    }
    counts
}

/// Dataset generation is byte-identical for every worker count, for
/// several generator seeds, including under chaos-skewed workloads.
#[test]
fn dataset_generation_is_worker_count_invariant() {
    use white_mirror::dataset::try_run_dataset_with_workers;
    let graph = Arc::new(story::bandersnatch::tiny_film());
    for &(seed, chaos) in &[(7u64, 0.0f64), (88, 1.5)] {
        let spec = DatasetSpec::generate("shard", 6, seed);
        let opts = SimOptions {
            media_scale: 2048,
            time_scale: 20,
            chaos_intensity: chaos,
            chaos_horizon: Duration::from_secs(4),
            ..SimOptions::default()
        };
        let base = try_run_dataset_with_workers(&graph, &spec, &opts, 1);
        assert_eq!(base.records.len() + base.failures.len(), 6);
        for workers in sharding_worker_counts() {
            let run = try_run_dataset_with_workers(&graph, &spec, &opts, workers);
            assert_eq!(
                base.records.len(),
                run.records.len(),
                "seed {seed} workers {workers}"
            );
            for (x, y) in base.records.iter().zip(run.records.iter()) {
                assert_eq!(x.spec.id, y.spec.id, "seed {seed} workers {workers}");
                assert_eq!(
                    x.output.trace.to_pcap_bytes(),
                    y.output.trace.to_pcap_bytes(),
                    "seed {seed} workers {workers} viewer {}",
                    x.spec.id
                );
                assert_eq!(x.output.labels, y.output.labels);
                assert_eq!(x.output.decisions, y.output.decisions);
            }
            for (x, y) in base.failures.iter().zip(run.failures.iter()) {
                assert_eq!(x.spec.id, y.spec.id);
                assert_eq!(x.error, y.error);
            }
        }
    }
}

/// The online fleet decoder's demultiplexer returns verdict streams,
/// stats and loss windows in session order, identical for every worker
/// count and every seed — the complete decode output, not a digest.
#[test]
fn online_fleet_decode_is_worker_count_invariant() {
    use white_mirror::capture::time::SimTime;
    use white_mirror::core::{IntervalClassifier, WhiteMirrorConfig};
    use white_mirror::online::decode_sessions_sharded;

    let graph = Arc::new(story::bandersnatch::tiny_film());
    let train = run_session(&cfg(41, false)).expect("training session");
    let classifier =
        IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).expect("bands");
    let online_cfg = OnlineConfig::scaled(20);

    for base_seed in [500u64, 9_000] {
        let sessions: Vec<Vec<(SimTime, Vec<u8>)>> = (0..5u64)
            .map(|i| {
                let out = run_session(&cfg(base_seed + i, false)).expect("victim session");
                out.trace
                    .packets
                    .iter()
                    .map(|p| (SimTime(p.time.micros()), p.frame.clone()))
                    .collect()
            })
            .collect();
        let reference = decode_sessions_sharded(&classifier, &graph, &online_cfg, &sessions, 1);
        assert!(
            reference.iter().any(|s| !s.verdicts.is_empty()),
            "seed {base_seed}: fleet should decode to at least one verdict"
        );
        for workers in sharding_worker_counts() {
            let got = decode_sessions_sharded(&classifier, &graph, &online_cfg, &sessions, workers);
            assert_eq!(got, reference, "seed {base_seed} workers {workers}");
        }
    }
}

/// Fault plans generated across a spread of seeds and intensities never
/// panic the pipeline: every session either completes or returns a
/// typed error alongside its partial capture.
#[test]
fn arbitrary_fault_plans_never_panic() {
    for seed in 0..10u64 {
        for intensity in [0.5, 2.0, 6.0] {
            let mut c = cfg(seed, false);
            c.chaos = FaultPlan::generate(seed, intensity, Duration::from_secs(4));
            let (out, err) = run_session_lossy(&c);
            match err {
                None => assert_eq!(out.decisions.len(), 3, "seed {seed} i{intensity}"),
                Some(e) => {
                    // Typed, displayable, and the capture survives.
                    let _ = format!("{e}");
                    assert!(out.stats.events > 0, "seed {seed} i{intensity}");
                }
            }
        }
    }
}
