//! Layer-level measurements shared by the workloads: the streaming
//! decoder (serial replay, metrics-plane overhead, checkpoint/resume),
//! the supervised fleet, and the cipher. Each times calls into the
//! layer's public API from outside.

use crate::spans::{span, Recorder, ROOT};
use std::sync::Arc;
use std::time::Instant;
use wm_capture::time::SimTime;
use wm_capture::{extract_records, FlowReassembler, Trace};
use wm_chaos::ShardFaultPlan;
use wm_core::IntervalClassifier;
use wm_fleet::{merge_taps, Fleet, FleetConfig, FleetReport, ResizeSchedule, TapPacket};
use wm_online::{replay_session, CapturedPacket, OnlineConfig, OnlineDecoder, OnlineVerdict};
use wm_story::StoryGraph;
use wm_telemetry::{DeltaTracker, Registry};

/// Replay each session on one thread, one span per session. Returns
/// the total wall in seconds.
pub fn replay_serial(
    rec: &Recorder,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    cfg: &OnlineConfig,
    sessions: &[&[CapturedPacket]],
) -> f64 {
    let start = Instant::now();
    for s in sessions {
        let out = rec.span("online.replay_1w", ROOT, |_| {
            replay_session(classifier, graph, cfg, s)
        });
        rec.add("online.replay_1w.sessions", 1.0);
        rec.add("online.replay_1w.records", out.stats.records as f64);
    }
    start.elapsed().as_secs_f64()
}

/// Metrics-plane overhead, paired per session as in E11: one untimed
/// warm-up replay, then a bare and an observed replay back to back in
/// alternating order. Records each pair's ratio.
pub fn obs_pairs(
    rec: &Recorder,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    cfg: &OnlineConfig,
    sessions: &[&[CapturedPacket]],
) -> Result<(), String> {
    let registry = Registry::new();
    let mut tracker = DeltaTracker::new();
    for (i, s) in sessions.iter().enumerate() {
        let warm = replay(classifier, graph, cfg, s, None).0;
        let bare = || {
            let t = Instant::now();
            let n = replay(classifier, graph, cfg, s, None).0;
            (t.elapsed().as_secs_f64(), n)
        };
        let mut observed = || {
            let t = Instant::now();
            let n = replay(classifier, graph, cfg, s, Some(&registry)).0;
            std::hint::black_box(tracker.take(&registry));
            (t.elapsed().as_secs_f64(), n)
        };
        let (b, o) = if i % 2 == 0 {
            let b = bare();
            (b, observed())
        } else {
            let o = observed();
            (bare(), o)
        };
        if warm != o.1 || b.1 != o.1 {
            return Err("attaching telemetry changed the verdicts".to_owned());
        }
        rec.sample("obs.overhead_ratio", o.0 / b.0.max(f64::MIN_POSITIVE));
    }
    Ok(())
}

/// Replay one session packet by packet, optionally with a telemetry
/// registry attached, noting the sim time at which each verdict came
/// out (the capture's end for the final flush).
pub fn replay(
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    cfg: &OnlineConfig,
    packets: &[CapturedPacket],
    registry: Option<&Registry>,
) -> (Vec<OnlineVerdict>, Vec<u64>) {
    let mut dec = OnlineDecoder::new(classifier.clone(), graph.clone(), cfg.clone());
    if let Some(reg) = registry {
        dec.attach_telemetry(reg);
    }
    let (mut verdicts, mut at) = (Vec::new(), Vec::new());
    for (time, frame) in packets {
        for v in dec.push_packet(*time, frame) {
            verdicts.push(v);
            at.push(time.micros());
        }
    }
    let end = packets.last().map_or(0, |p| p.0.micros());
    for v in dec.finish() {
        verdicts.push(v);
        at.push(end);
    }
    (verdicts, at)
}

/// Checkpoint cost on a mid-session decoder: feed half of each
/// session, then time `checkpoint_value` and `resume_from_value`. The
/// resumed decoder must finish with the verdicts of an uninterrupted
/// replay.
pub fn checkpoint_probe(
    rec: &Recorder,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    cfg: &OnlineConfig,
    sessions: &[&[CapturedPacket]],
) -> Result<(), String> {
    for s in sessions {
        let mid = s.len() / 2;
        let mut dec = OnlineDecoder::new(classifier.clone(), graph.clone(), cfg.clone());
        let mut verdicts = Vec::new();
        for (time, frame) in &s[..mid] {
            verdicts.extend(dec.push_packet(*time, frame));
        }
        let value = rec.span("online.checkpoint", ROOT, |_| dec.checkpoint_value());
        rec.sample(
            "online.checkpoint_bytes",
            wm_json::to_bytes(&value).len() as f64,
        );
        let mut resumed = rec
            .span("online.resume", ROOT, |_| {
                OnlineDecoder::resume_from_value(&value, graph.clone())
            })
            .map_err(|e| format!("resume from checkpoint: {e:?}"))?;
        for (time, frame) in &s[mid..] {
            verdicts.extend(resumed.push_packet(*time, frame));
        }
        verdicts.extend(resumed.finish());
        if verdicts != replay_session(classifier, graph, cfg, s).verdicts {
            return Err("resumed decoder diverged from an uninterrupted replay".to_owned());
        }
    }
    Ok(())
}

/// `wm_cipher::seal` over the sizes of every TLS record in one capture,
/// both directions.
pub fn cipher_probe(rec: &Recorder, trace: &Trace) {
    let sizes: Vec<usize> = FlowReassembler::reassemble(trace)
        .iter()
        .flat_map(|f| [&f.upstream, &f.downstream])
        .flat_map(|view| extract_records(view).records)
        .map(|r| r.record.length as usize)
        .collect();
    let buf = vec![0xa5u8; sizes.iter().copied().max().unwrap_or(0)];
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    for _ in 0..3 {
        rec.span("cipher.seal", ROOT, |_| {
            for &n in &sizes {
                std::hint::black_box(wm_cipher::seal(&key, &nonce, b"", &buf[..n]));
            }
        });
        rec.add("cipher.bytes", sizes.iter().sum::<usize>() as f64);
    }
}

/// Per-victim tap streams, staggered by `stagger_us` so the victims
/// overlap in sim time.
pub fn taps(sessions: &[&[CapturedPacket]], stagger_us: u64) -> Vec<Vec<CapturedPacket>> {
    sessions
        .iter()
        .enumerate()
        .map(|(v, s)| {
            let offset = v as u64 * stagger_us;
            s.iter()
                .map(|(t, frame)| (SimTime(t.micros() + offset), frame.clone()))
                .collect()
        })
        .collect()
}

/// Merge per-victim taps into the fleet's one ingress stream.
pub fn stream(taps: &[Vec<CapturedPacket>]) -> Vec<TapPacket> {
    let tagged: Vec<Vec<TapPacket>> = taps
        .iter()
        .enumerate()
        .map(|(v, tap)| {
            tap.iter()
                .map(|(t, frame)| (*t, v as u32, frame.clone()))
                .collect()
        })
        .collect();
    merge_taps(&tagged)
}

/// One fleet run: every verdict, in the fleet's canonical order, with
/// the sim time of the push that delivered it; the final report; and
/// the wall time of the run.
pub struct FleetRun {
    pub verdicts: Vec<(u32, OnlineVerdict, u64)>,
    pub report: FleetReport,
    pub wall_s: f64,
}

/// Feed `stream` through a fleet from construction to `finish`,
/// draining delivered verdicts after every push. Traced, construction,
/// the ingress loop, each push within it, and the finish get spans.
pub fn run_fleet(
    rec: Option<&Recorder>,
    cfg: &FleetConfig,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    stream: &[TapPacket],
    plan: Option<&ShardFaultPlan>,
    schedule: Option<&ResizeSchedule>,
) -> Result<FleetRun, String> {
    let start = Instant::now();
    let mut fleet = span(rec, "fleet.new", ROOT, |_| {
        Fleet::new(cfg.clone(), classifier.clone(), graph.clone())
    })
    .map_err(|e| format!("fleet construction: {e}"))?;
    if let Some(plan) = plan {
        fleet.inject(plan);
    }
    if let Some(schedule) = schedule {
        fleet.schedule_resize(schedule);
    }
    // The ingress thread: push each packet, then collect whatever the
    // push delivered. Each push also gets its own span.
    let mut verdicts = Vec::new();
    span(rec, "fleet.ingress", ROOT, |ingress| {
        let mut pushes = rec.map(|r| r.batch("fleet.push", ingress));
        for (t, victim, frame) in stream {
            let mut push = || {
                fleet.push(*t, *victim, frame);
                fleet.drain_verdicts()
            };
            let out = match pushes.as_mut() {
                Some(batch) => batch.span(push),
                None => push(),
            };
            verdicts.extend(out.into_iter().map(|(v, verdict)| (v, verdict, t.micros())));
        }
    });
    let mut report = span(rec, "fleet.finish", ROOT, |_| fleet.finish());
    let wall_s = start.elapsed().as_secs_f64();
    // The end-of-stream flush answers for victims whose taps went quiet
    // long before; a fleet cannot tell a finished victim from an idle
    // one, so each flushed verdict is stamped with its victim's last
    // packet, as a standalone decoder's flush is.
    let mut last_seen = std::collections::BTreeMap::new();
    for (t, victim, _) in stream {
        last_seen.insert(*victim, t.micros());
    }
    verdicts.extend(
        std::mem::take(&mut report.verdicts)
            .into_iter()
            .map(|(v, verdict)| (v, verdict, last_seen.get(&v).copied().unwrap_or(0))),
    );
    verdicts.sort_by_key(|(v, verdict, _)| (*v, verdict.index, verdict.choice.time.micros()));
    Ok(FleetRun {
        verdicts,
        report,
        wall_s,
    })
}

/// Fold a fleet report's checkpoint counters into the recorder, one
/// sample each.
pub fn fleet_samples(rec: &Recorder, report: &FleetReport) {
    rec.sample("fleet.checkpoints", report.stats.checkpoints as f64);
    rec.sample(
        "fleet.shard_state_peak_bytes",
        report.stats.shard_state_peak as f64,
    );
}

/// Fold a fleet report's recovery counters into the recorder.
pub fn recovery_samples(rec: &Recorder, report: &FleetReport) {
    let s = report.stats;
    rec.sample("fleet.restarts", s.restarts as f64);
    rec.sample("fleet.respawns", s.process_respawns as f64);
    rec.sample("fleet.victims_migrated", s.victims_migrated as f64);
    rec.sample("fleet.packets_lost", s.packets_lost as f64);
    rec.sample("fleet.dedup_dropped", s.dedup_dropped as f64);
    let lost_us: u64 = report
        .loss_windows
        .iter()
        .map(|w| w.to.micros().saturating_sub(w.from.micros()))
        .sum();
    rec.sample("fleet.loss_window_s", lost_us as f64 / 1e6);
}

/// Fleet config for `stream`: victims never go idle mid-stream and every
/// shard can hold all of them, so nothing is evicted.
pub fn fleet_config(shards: usize, victims: usize, stream: &[TapPacket]) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(shards, wm_bench::TIME_SCALE);
    let span_us = stream.last().map_or(1, |(t, _, _)| t.micros()).max(1);
    cfg.victim_idle = wm_capture::time::Duration::from_micros(span_us);
    cfg.max_victims_per_shard = victims.max(1);
    cfg
}

/// Wall of a fault-free static run on the process backend over the
/// in-process one, on the same stream. Both must deliver the same
/// verdicts.
pub fn backend_ratio(
    cfg: &FleetConfig,
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    stream: &[TapPacket],
) -> Result<f64, String> {
    let inproc = run_fleet(None, cfg, classifier, graph, stream, None, None)?;
    let mut process_cfg = cfg.clone();
    process_cfg.backend = wm_fleet::ShardBackend::Process { worker: None };
    let process = run_fleet(None, &process_cfg, classifier, graph, stream, None, None)?;
    let verdicts = |run: &FleetRun| -> Vec<(u32, OnlineVerdict)> {
        run.verdicts
            .iter()
            .map(|(v, x, _)| (*v, x.clone()))
            .collect()
    };
    if verdicts(&process) != verdicts(&inproc) {
        return Err("process backend changed the merged verdict stream".to_owned());
    }
    Ok(process.wall_s / inproc.wall_s.max(f64::MIN_POSITIVE))
}
