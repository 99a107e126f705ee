//! Pipeline pieces every workload shares: simulating viewers, training
//! the attack, offline decode, verdict scoring and the metric record.

use crate::spans::{span, Recorder};
use crate::stats::{class_balanced_median, duplicates, join_by_choice_point, percentile};
use std::sync::Arc;
use wm_bench::{MEDIA_SCALE, TIME_SCALE};
use wm_capture::time::SimTime;
use wm_capture::{extract_records, FlowReassembler, Trace};
use wm_core::{choice_accuracy, ChoiceAccuracy, DecodedChoice, WhiteMirror, WhiteMirrorConfig};
use wm_dataset::run::{session_config, try_run_dataset_with_workers};
use wm_dataset::{DatasetSpec, OperationalConditions, SimOptions, ViewerSpec};
use wm_online::CapturedPacket;
use wm_player::TruthEvent;
use wm_sim::{run_session, SessionOutput};
use wm_story::{Choice, ChoicePointId, StoryGraph};

/// What every workload is given.
pub struct Ctx {
    pub graph: Arc<StoryGraph>,
    /// Pool width: dataset and decode pools never exceed the core count.
    pub workers: usize,
    pub seed: u64,
}

impl Ctx {
    /// A seed for `label`, derived from the workload seed.
    pub fn derive(&self, label: &str) -> u64 {
        wm_cipher::kdf::derive_seed(self.seed, label)
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Harness-scale session options. Telemetry is on only in the traced
/// run, where the sim's own `*_ns` histograms attribute its time.
pub fn sim_options(telemetry: bool) -> SimOptions {
    SimOptions {
        media_scale: MEDIA_SCALE,
        time_scale: TIME_SCALE,
        telemetry,
        ..SimOptions::default()
    }
}

/// `n` viewers from `DatasetSpec::generate`, optionally all moved to one
/// operational condition (a fleet runs one classifier).
pub fn viewers(
    ctx: &Ctx,
    label: &str,
    n: usize,
    only: Option<OperationalConditions>,
) -> DatasetSpec {
    let mut spec = DatasetSpec::generate(label, n, ctx.derive(label));
    if let Some(cond) = only {
        for v in &mut spec.viewers {
            v.operational = cond;
        }
    }
    spec
}

/// Simulate every viewer of `spec` on the dataset pool. Untraced, this
/// is `try_run_dataset_with_workers`; traced, the same per-viewer
/// `run_session` calls run on the same pool with a span around each,
/// and the sim's telemetry is folded into the recorder. Returns the
/// sessions in viewer order and the number that failed.
pub fn simulate(
    ctx: &Ctx,
    spec: &DatasetSpec,
    rec: Option<&Recorder>,
    parent: u64,
) -> (Vec<(ViewerSpec, SessionOutput)>, usize) {
    let Some(rec) = rec else {
        let run = try_run_dataset_with_workers(&ctx.graph, spec, &sim_options(false), ctx.workers);
        let failed = run.failures.len();
        return (
            run.records
                .into_iter()
                .map(|r| (r.spec, r.output))
                .collect(),
            failed,
        );
    };
    let opts = sim_options(true);
    let outcomes = rec.span("pool.run_indexed", parent, |pool| {
        wm_pool::run_indexed(spec.viewers.len(), ctx.workers, |i| {
            let viewer = spec.viewers[i];
            let cfg = session_config(ctx.graph.clone(), &viewer, &opts);
            rec.span("sim.run_session", pool, |_| run_session(&cfg))
                .ok()
                .map(|out| (viewer, out))
        })
    });
    let mut done = Vec::with_capacity(outcomes.len());
    for out in outcomes.into_iter().flatten() {
        fold_sim_telemetry(rec, &out.1);
        done.push(out);
    }
    let failed = spec.viewers.len() - done.len();
    (done, failed)
}

fn fold_sim_telemetry(rec: &Recorder, out: &SessionOutput) {
    let t = &out.telemetry;
    let hist = |name: &str| t.histograms.get(name).map_or(0, |h| h.sum) as f64;
    let counter = |name: &str| t.counters.get(name).copied().unwrap_or(0) as f64;
    rec.add("sim.sessions", 1.0);
    rec.add("sim.player_ns", hist("sim.player_ns"));
    rec.add("sim.server_ns", hist("sim.server_ns"));
    rec.add("sim.tls.seal_ns", hist("sim.tls.seal_ns"));
    rec.add("sim.tls.open_ns", hist("sim.tls.open_ns"));
    rec.add("sim.events", counter("sim.events"));
    rec.add(
        "tls.bytes_sealed",
        counter("tls.client.bytes_sealed") + counter("tls.server.bytes_sealed"),
    );
}

/// Train one attack per condition from `seeds_per` sessions each (the
/// authors' controlled captures). All training sessions run on the
/// dataset pool in one batch. A condition whose sessions happen to hold
/// no report of one type gets one more session, until it trains.
pub fn train(
    ctx: &Ctx,
    conditions: &[OperationalConditions],
    seeds_per: usize,
    rec: Option<&Recorder>,
    parent: u64,
) -> Vec<WhiteMirror> {
    let mut labels = vec![Vec::new(); conditions.len()];
    let mut attacks: Vec<Option<WhiteMirror>> = conditions.iter().map(|_| None).collect();
    for round in 0..MAX_TRAINING_ROUNDS {
        let (sessions, k) = if round == 0 {
            (seeds_per, 0)
        } else {
            (1, seeds_per + round - 1)
        };
        let viewers: Vec<ViewerSpec> = (0..conditions.len())
            .filter(|&c| attacks[c].is_none())
            .flat_map(|c| (k..k + sessions).map(move |k| (c, k)))
            .map(|(c, k)| {
                let seed = ctx.derive(&format!("train {c} {k}"));
                ViewerSpec {
                    id: c as u32,
                    seed,
                    behavior: wm_bench::sample_behavior(seed),
                    operational: conditions[c],
                }
            })
            .collect();
        if viewers.is_empty() {
            break;
        }
        let spec = DatasetSpec {
            name: "training".to_owned(),
            viewers,
        };
        let (done, failed) = simulate(ctx, &spec, rec, parent);
        assert_eq!(failed, 0, "clean training sessions never fail");
        for (viewer, out) in done {
            labels[viewer.id as usize].extend(out.labels);
        }
        for (c, attack) in attacks.iter_mut().enumerate() {
            if attack.is_none() {
                *attack = WhiteMirror::train(&labels[c], WhiteMirrorConfig::scaled(TIME_SCALE));
            }
        }
    }
    attacks
        .into_iter()
        .map(|a| a.expect("training sessions contain state reports"))
        .collect()
}

/// Extra single-session rounds a condition gets before training gives up.
const MAX_TRAINING_ROUNDS: usize = 8;

/// A viewer's scripted ground truth.
#[derive(Debug, Clone)]
pub struct Truth {
    /// `SessionOutput::decisions`: what `choice_accuracy` scores against.
    pub decisions: Vec<(ChoicePointId, Choice)>,
    /// Sim time (µs) of each decision's `TruthEvent::Decision`,
    /// parallel to `decisions`.
    pub decided_us: Vec<u64>,
    /// Sim time (µs) of the last captured packet.
    pub end_us: u64,
}

impl Truth {
    pub fn of(out: &SessionOutput) -> Truth {
        let events: Vec<(ChoicePointId, u64)> = out
            .truth
            .iter()
            .filter_map(|e| match e {
                TruthEvent::Decision { time, cp, .. } => Some((*cp, time.micros())),
                _ => None,
            })
            .collect();
        let cps: Vec<ChoicePointId> = out.decisions.iter().map(|d| d.0).collect();
        let ev_cps: Vec<ChoicePointId> = events.iter().map(|e| e.0).collect();
        let mut decided_us = vec![0; cps.len()];
        for (i, j) in join_by_choice_point(&cps, &ev_cps).matched {
            decided_us[i] = events[j].1;
        }
        Truth {
            decisions: out.decisions.clone(),
            decided_us,
            end_us: out.trace.packets.last().map_or(0, |p| p.time.micros()),
        }
    }
}

/// Simulated victims as the attacker sees them, with their truth.
pub struct Pool {
    pub truths: Vec<Truth>,
    pub captures: Vec<Vec<CapturedPacket>>,
    /// The first victim's capture, kept whole for the layer probe.
    pub first_trace: Trace,
}

impl Pool {
    pub fn of(sessions: Vec<(ViewerSpec, SessionOutput)>) -> Pool {
        let first_trace = sessions
            .first()
            .map(|s| s.1.trace.clone())
            .unwrap_or_default();
        let mut pool = Pool {
            truths: Vec::with_capacity(sessions.len()),
            captures: Vec::with_capacity(sessions.len()),
            first_trace,
        };
        for (_, out) in sessions {
            pool.truths.push(Truth::of(&out));
            pool.captures.push(
                out.trace
                    .packets
                    .into_iter()
                    .map(|p| (SimTime(p.time.micros()), p.frame))
                    .collect(),
            );
        }
        pool
    }
}

/// Set-up of the single-condition workloads: train the first grid
/// condition's attack, then simulate `n` victims under it. Returns the
/// attack, the victims, and how many sessions failed to simulate.
pub fn single_condition(
    ctx: &Ctx,
    label: &str,
    n: usize,
    training_sessions: usize,
    rec: Option<&Recorder>,
) -> (WhiteMirror, Pool, usize) {
    let cond = OperationalConditions::grid()[0];
    let attack = train(ctx, &[cond], training_sessions, rec, crate::spans::ROOT)
        .pop()
        .expect("one condition trained");
    let spec = viewers(ctx, label, n, Some(cond));
    let (sessions, failed) = simulate(ctx, &spec, rec, crate::spans::ROOT);
    (attack, Pool::of(sessions), failed)
}

/// Offline decode of one capture as the paper's attacker runs it: the
/// capture goes to pcap bytes and back, then `decode_trace`. Traced,
/// the capture layer's reassembly and record extraction are then timed
/// on their own over the same capture, and `decode_trace`'s self time
/// is its wall minus that capture work, which it repeats inside.
pub fn decode_offline(
    rec: Option<&Recorder>,
    parent: u64,
    attack: &WhiteMirror,
    trace: &Trace,
    graph: &StoryGraph,
) -> Result<Vec<DecodedChoice>, String> {
    let pcap = span(rec, "capture.pcap_write", parent, |_| trace.to_pcap_bytes());
    let parsed = span(rec, "capture.pcap_parse", parent, |_| {
        Trace::from_pcap_bytes(&pcap)
    })
    .map_err(|e| format!("pcap round trip: {e}"))?;
    let t0 = rec.map(Recorder::now);
    let choices = span(rec, "core.decode_trace", parent, |_| {
        attack.decode_trace(&parsed, graph).choices
    });
    if let (Some(rec), Some(t0)) = (rec, t0) {
        let decode_ns = rec.now() - t0;
        let t1 = rec.now();
        let flows = rec.span("capture.reassembly", parent, |_| {
            FlowReassembler::reassemble(&parsed)
        });
        let records = rec.span("capture.extract", parent, |_| {
            flows
                .iter()
                .map(|f| extract_records(&f.upstream).records.len())
                .sum::<usize>()
        });
        let capture_ns = rec.now() - t1;
        rec.add("capture.sessions", 1.0);
        rec.add("capture.records", records as f64);
        rec.sample(
            "core.decode_self_ns",
            decode_ns.saturating_sub(capture_ns) as f64,
        );
    }
    Ok(choices)
}

/// Verdict-vs-truth tally over many sessions.
#[derive(Debug, Clone, Default)]
pub struct Score {
    pub accuracy: ChoiceAccuracy,
    /// Ground-truth choices attempted.
    pub choices: u64,
    /// Ground-truth choices answered by a delivered verdict.
    pub delivered: u64,
    /// Verdicts delivered, and how many of them repeat an earlier one.
    pub verdicts: u64,
    pub duplicated: u64,
    /// Sim time from each answered decision to the delivery of its
    /// verdict, ms, split by the viewer's pick: default, non-default.
    pub latency_ms: [Vec<f64>; 2],
}

impl Score {
    /// Score one session. `delivered_us[i]` is the sim time at which
    /// `verdicts[i]` reached the consumer, on the session's own clock.
    pub fn add(&mut self, truth: &Truth, verdicts: &[DecodedChoice], delivered_us: &[u64]) {
        self.accuracy
            .merge(&choice_accuracy(verdicts, &truth.decisions));
        let truth_cps: Vec<ChoicePointId> = truth.decisions.iter().map(|d| d.0).collect();
        let verdict_cps: Vec<ChoicePointId> = verdicts.iter().map(|v| v.cp).collect();
        let join = join_by_choice_point(&truth_cps, &verdict_cps);
        self.choices += truth_cps.len() as u64;
        self.delivered += (truth_cps.len() - join.missing()) as u64;
        let keys: Vec<(ChoicePointId, u64)> =
            verdicts.iter().map(|v| (v.cp, v.time.micros())).collect();
        self.verdicts += keys.len() as u64;
        self.duplicated += duplicates(&keys) as u64;
        for (i, j) in join.matched {
            let late = delivered_us[j].saturating_sub(truth.decided_us[i]);
            let class = (truth.decisions[i].1 == Choice::NonDefault) as usize;
            self.latency_ms[class].push(late as f64 / 1e3);
        }
    }

    /// A session the sim could not complete: all its choices are
    /// missing. Its script is unknown, so it counts as one choice.
    pub fn add_failed_session(&mut self) {
        self.choices += 1;
        self.accuracy.total += 1;
    }

    pub fn delivered_frac(&self) -> f64 {
        self.delivered as f64 / self.choices.max(1) as f64
    }

    /// The end-to-end verdict metrics, in `BENCHMARK.json` order. Both
    /// verdict-count figures are shares that are 1 on a clean run, since
    /// a metric the regression bound divides by must never be 0.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("choice_accuracy", self.accuracy.accuracy(), "fraction"),
            metric("verdicts_delivered_frac", self.delivered_frac(), "fraction"),
            metric(
                "verdicts_unique_frac",
                (self.verdicts - self.duplicated) as f64 / self.verdicts.max(1) as f64,
                "fraction",
            ),
            metric(
                "choice_to_verdict_sim_ms_class_p50",
                class_balanced_median(&self.latency_ms),
                "ms",
            ),
            metric(
                "choice_to_verdict_sim_ms_p95",
                percentile(&self.latency_ms.concat(), 0.95).unwrap_or(0.0),
                "ms",
            ),
        ]
    }

    /// Figures printed beside the metrics but kept out of the result
    /// line: the raw verdict counts (0 on a clean run, so no bound can
    /// rest on them), and the pooled latency percentiles, which swing
    /// with the seed's pick mix (NOTES.md).
    pub fn notes(&self) -> Vec<Metric> {
        vec![
            metric(
                "verdicts_missing_frac",
                1.0 - self.delivered_frac(),
                "fraction",
            ),
            metric("verdicts_duplicated", self.duplicated as f64, "count"),
            metric("choices_scored", self.choices as f64, "count"),
            metric(
                "choice_to_verdict_sim_ms_p50",
                percentile(&self.latency_ms.concat(), 0.5).unwrap_or(0.0),
                "ms",
            ),
            metric(
                "choice_to_verdict_sim_ms_p99",
                percentile(&self.latency_ms.concat(), 0.99).unwrap_or(0.0),
                "ms",
            ),
        ]
    }
}

/// Peak resident set of this process, MiB (0 off Linux).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
