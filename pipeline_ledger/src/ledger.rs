//! The measurement harness every workload runs under: repeated set-up,
//! the timed loop, correctness gates, the layer probe, and the
//! per-layer metric table.

use crate::common::{decode_offline, metric, Ctx, Metric};
use crate::layers::{
    backend_ratio, checkpoint_probe, cipher_probe, fleet_config, fleet_samples, obs_pairs,
    recovery_samples, replay_serial, run_fleet, stream, taps,
};
use crate::spans::{coverage, durations, Recorder, Span, ROOT};
use crate::stats::{median, percentile, shares};
use std::time::Instant;
use wm_capture::Trace;
use wm_core::WhiteMirror;
use wm_online::{CapturedPacket, OnlineConfig};

/// Set-up runs this many times per untraced run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 3;
/// The timed loop runs at least this many passes, however long.
const MIN_PASSES: usize = 3;
/// Fleet shards, and the sim-time stagger between probe victims.
pub const SHARDS: usize = 4;
const PROBE_STAGGER_US: u64 = 50_000;
/// Offline decodes of the probe capture (the layer medians need a few).
const PROBE_DECODES: usize = 5;

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the result line.
    pub notes: Vec<Metric>,
}

impl Outcome {
    /// One checked operation: a session's verdicts against their
    /// oracle, or a workload-wide bar.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }

    /// An operation that failed outright.
    pub fn fail(&mut self, err: String) {
        self.gate(false, || err);
    }
}

/// Wall of [`reference_wall`] on a quiet 2-core machine of the kind the
/// ledger was tuned on, s. Timed figures are reported in these
/// reference seconds (see [`reference_wall`]).
const REFERENCE_S: f64 = 0.02;
/// Steps of the reference kernel.
const REFERENCE_STEPS: u64 = 8_000_000;

/// Wall of a fixed integer and memory kernel, independent of the
/// program under test, run once on each of `threads` threads. The
/// machine is shared: co-tenants slowed whole runs by up to 1.3× and
/// stretches of a run by up to 1.6×, which no statistic over one run's
/// passes removes. Timing this kernel beside the passes and dividing it
/// out reports each figure at the reference speed, so a change in the
/// machine's speed between runs does not read as a change in the
/// program's.
pub fn reference_wall(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let mut buf = vec![0u64; 1 << 19];
                let mask = buf.len() - 1;
                let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
                for _ in 0..REFERENCE_STEPS {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let i = (x >> 33) as usize & mask;
                    buf[i] = buf[i].rotate_left(7) ^ x;
                }
                std::hint::black_box(buf.iter().fold(0, |a, b| a ^ b))
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// Run `f` [`SETUP_REPS`] times, each after [`SETUP_REFERENCES`]
/// reference timings on `threads` threads; keep the last result and
/// report the median wall in reference seconds, against the
/// tenth-percentile reference time (one reference timing alone varies
/// by half with the other core's load).
pub fn repeated_setup<S>(threads: usize, mut f: impl FnMut() -> S) -> (S, f64) {
    let (mut walls, mut refs) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous set-up first, so two never coexist.
        drop(last.take());
        refs.extend((0..SETUP_REFERENCES).map(|_| reference_wall(threads)));
        let t = Instant::now();
        last = Some(f());
        walls.push(t.elapsed().as_secs_f64());
    }
    let reference = percentile(&refs, 0.1).unwrap_or(REFERENCE_S);
    let setup_s = median(&walls) * REFERENCE_S / reference;
    (last.expect("at least one set-up"), setup_s)
}

/// Reference timings taken before each set-up.
const SETUP_REFERENCES: usize = 5;

/// Throughput of a pass that carries `items`, per reference second, at
/// the tenth-percentile pass time against the tenth-percentile
/// reference time (`refs`, from [`repeat`]). Co-tenant slowdowns only
/// ever add time, and were seen to slow three quarters of a run's
/// passes for seconds at a stretch: enough to move a median or a
/// quartile. The fastest tenth still reads the machine's own speed.
pub fn per_sec(items: usize, walls: &[f64], refs: &[f64]) -> f64 {
    let pass = percentile(walls, 0.1).unwrap_or(f64::INFINITY);
    let reference = percentile(refs, 0.1).unwrap_or(REFERENCE_S);
    items as f64 / (pass * REFERENCE_S / reference)
}

/// Call `pass` until `seconds` have elapsed and at least
/// [`MIN_PASSES`] passes ran, timing the reference kernel on `threads`
/// threads before each. Returns the reference walls.
pub fn repeat(seconds: f64, threads: usize, mut pass: impl FnMut(usize)) -> Vec<f64> {
    let start = Instant::now();
    let mut refs = Vec::new();
    while refs.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        refs.push(reference_wall(threads));
        pass(refs.len() - 1);
    }
    refs
}

/// Wall of one timed pass. Traced, the pass's window is also recorded
/// so the share of it covered by layer spans can be measured.
pub fn timed<T>(rec: Option<&Recorder>, f: impl FnOnce() -> T) -> (T, f64) {
    let lo = rec.map(Recorder::now);
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    if let (Some(rec), Some(lo)) = (rec, lo) {
        rec.sample("trace.window_lo", lo as f64);
        rec.sample("trace.window_hi", rec.now() as f64);
    }
    (out, wall)
}

/// The inputs the layer probe runs on: a few of the workload's own
/// victims under one condition, with that condition's attack.
pub struct ProbeInput<'a> {
    pub attack: &'a WhiteMirror,
    pub trace: &'a Trace,
    pub sessions: Vec<&'a [CapturedPacket]>,
}

/// Measure every layer once on the probe input, into `rec`. The layer
/// table reads a layer from here only when the workload's own passes
/// did not run it, so every metric is measured on every workload.
pub fn probe(ctx: &Ctx, rec: &Recorder, input: &ProbeInput) -> Result<(), String> {
    let graph = &ctx.graph;
    cipher_probe(rec, input.trace);
    for _ in 0..PROBE_DECODES {
        decode_offline(Some(rec), ROOT, input.attack, input.trace, graph)?;
    }
    let classifier = input.attack.classifier();
    let cfg = OnlineConfig::scaled(wm_bench::TIME_SCALE);
    let online_s = replay_serial(rec, classifier, graph, &cfg, &input.sessions);
    obs_pairs(rec, classifier, graph, &cfg, &input.sessions)?;
    checkpoint_probe(rec, classifier, graph, &cfg, &input.sessions)?;
    let taps = taps(&input.sessions, PROBE_STAGGER_US);
    let stream = stream(&taps);
    let fcfg = fleet_config(SHARDS, input.sessions.len(), &stream);
    let run = run_fleet(Some(rec), &fcfg, classifier, graph, &stream, None, None)?;
    fleet_samples(rec, &run.report);
    recovery_samples(rec, &run.report);
    rec.sample("fleet.overhead_vs_online", run.wall_s / online_s.max(1e-9));
    rec.sample(
        "fleet.process_vs_inprocess",
        backend_ratio(&fcfg, classifier, graph, &stream)?,
    );
    Ok(())
}

/// Where a layer's numbers come from: the workload's own passes when
/// they ran the layer, the probe otherwise.
struct Source<'a> {
    main: (&'a Recorder, &'a [Span]),
    probe: (&'a Recorder, &'a [Span]),
}

impl<'a> Source<'a> {
    /// Pick by `witness`, a span or sample name the layer always records.
    fn pick(&self, witness: &str) -> (&'a Recorder, &'a [Span]) {
        let (rec, spans) = self.main;
        let ran = spans.iter().any(|s| s.name == witness) || !rec.samples(witness).is_empty();
        if ran {
            self.main
        } else {
            self.probe
        }
    }

    fn us(&self, name: &str, q: f64) -> f64 {
        let (_, spans) = self.pick(name);
        percentile(&durations(spans, name), q).unwrap_or(0.0) / 1e3
    }

    fn sample_median(&self, name: &str) -> f64 {
        median(&self.pick(name).0.samples(name))
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(main: &Recorder, probe: &Recorder, workers: usize) -> Vec<Metric> {
    let main_spans = main.spans();
    let probe_spans = probe.spans();
    let src = Source {
        main: (main, &main_spans),
        probe: (probe, &probe_spans),
    };
    let mut out = Vec::new();

    // sim: outside-timed run_session against the sim's own histograms.
    let (rec, spans) = src.pick("sim.run_session");
    let sessions = durations(spans, "sim.run_session");
    let per_session = |name: &str| rec.count(name) / rec.count("sim.sessions").max(1.0);
    out.push(metric(
        "sim.session_ms_p50",
        percentile(&sessions, 0.5).unwrap_or(0.0) / 1e6,
        "ms",
    ));
    out.push(metric(
        "sim.session_ms_p99",
        percentile(&sessions, 0.99).unwrap_or(0.0) / 1e6,
        "ms",
    ));
    out.push(metric(
        "sim.events_per_session",
        per_session("sim.events"),
        "count",
    ));
    out.push(metric(
        "tls.bytes_sealed_per_session",
        per_session("tls.bytes_sealed"),
        "bytes",
    ));
    let parts: Vec<f64> = [
        "sim.player_ns",
        "sim.server_ns",
        "sim.tls.seal_ns",
        "sim.tls.open_ns",
    ]
    .iter()
    .map(|n| rec.count(n))
    .collect();
    let (sh, rest) = shares(&parts, sessions.iter().sum());
    for (name, v) in [
        "sim.player_share",
        "sim.server_share",
        "sim.tls_seal_share",
        "sim.tls_open_share",
    ]
    .iter()
    .zip(sh)
    {
        out.push(metric(name, v, "fraction"));
    }
    out.push(metric("sim.unattributed_share", rest, "fraction"));

    // cipher
    let (rec, spans) = src.pick("cipher.seal");
    let seal_s: f64 = durations(spans, "cipher.seal").iter().sum::<f64>() / 1e9;
    out.push(metric(
        "cipher.seal_mb_per_s",
        rec.count("cipher.bytes") / 1e6 / seal_s.max(1e-9),
        "MB/s",
    ));

    // pool: per-task time over pool wall × workers.
    let (_, spans) = src.pick("pool.run_indexed");
    let (mut busy, mut capacity) = (0.0, 0.0);
    for pool in spans.iter().filter(|s| s.name == "pool.run_indexed") {
        let tasks: Vec<&Span> = spans.iter().filter(|s| s.parent == pool.id).collect();
        busy += tasks.iter().map(|s| s.ns() as f64).sum::<f64>();
        capacity += pool.ns() as f64 * workers.min(tasks.len()).max(1) as f64;
    }
    out.push(metric(
        "pool.busy_frac",
        busy / capacity.max(1.0),
        "fraction",
    ));

    // capture
    for (metric_name, span_name) in [
        ("capture.pcap_write_us", "capture.pcap_write"),
        ("capture.pcap_parse_us", "capture.pcap_parse"),
        ("capture.reassembly_us", "capture.reassembly"),
        ("capture.extract_us", "capture.extract"),
    ] {
        out.push(metric(metric_name, src.us(span_name, 0.5), "us"));
    }
    let (rec, _) = src.pick("capture.pcap_write");
    out.push(metric(
        "capture.records_per_session",
        rec.count("capture.records") / rec.count("capture.sessions").max(1.0),
        "count",
    ));

    // core: decode_trace minus the capture work it repeats inside.
    out.push(metric(
        "core.decode_us",
        src.sample_median("core.decode_self_ns") / 1e3,
        "us",
    ));

    // online, one worker
    let (rec, spans) = src.pick("online.replay_1w");
    let replay = durations(spans, "online.replay_1w");
    let records = rec.count("online.replay_1w.records");
    out.push(metric("online.replay_us_p50", median(&replay) / 1e3, "us"));
    out.push(metric(
        "online.records_per_sec",
        records / (replay.iter().sum::<f64>() / 1e9).max(1e-9),
        "1/s",
    ));
    out.push(metric(
        "online.records_per_session",
        records / rec.count("online.replay_1w.sessions").max(1.0),
        "count",
    ));

    // online checkpoint, per victim on mid-session decoders
    out.push(metric(
        "online.checkpoint_us",
        src.us("online.checkpoint", 0.5),
        "us",
    ));
    out.push(metric(
        "online.checkpoint_bytes",
        src.sample_median("online.checkpoint_bytes"),
        "bytes",
    ));
    out.push(metric(
        "online.resume_us",
        src.us("online.resume", 0.5),
        "us",
    ));

    // fleet
    out.push(metric("fleet.push_us_p50", src.us("fleet.push", 0.5), "us"));
    out.push(metric(
        "fleet.push_us_p99",
        src.us("fleet.push", 0.99),
        "us",
    ));
    out.push(metric(
        "fleet.checkpoints",
        src.sample_median("fleet.checkpoints"),
        "count",
    ));
    out.push(metric(
        "fleet.shard_state_peak_bytes",
        src.sample_median("fleet.shard_state_peak_bytes"),
        "bytes",
    ));
    out.push(metric(
        "fleet.overhead_vs_online",
        src.sample_median("fleet.overhead_vs_online"),
        "ratio",
    ));
    out.push(metric(
        "fleet.process_vs_inprocess",
        src.sample_median("fleet.process_vs_inprocess"),
        "ratio",
    ));
    for name in [
        "fleet.restarts",
        "fleet.respawns",
        "fleet.victims_migrated",
        "fleet.packets_lost",
        "fleet.dedup_dropped",
    ] {
        out.push(metric(name, src.sample_median(name), "count"));
    }
    out.push(metric(
        "fleet.loss_window_s",
        src.sample_median("fleet.loss_window_s"),
        "s",
    ));

    // obs
    out.push(metric(
        "obs.overhead_ratio",
        src.sample_median("obs.overhead_ratio"),
        "ratio",
    ));

    // the benchmark itself
    out.push(metric(
        "trace.overhead_ratio",
        median(&main.samples("trace.overhead_ratio")),
        "ratio",
    ));
    let covered: Vec<f64> = main
        .samples("trace.window_lo")
        .iter()
        .zip(main.samples("trace.window_hi"))
        .map(|(&lo, hi)| coverage(&main_spans, lo as u64, hi as u64))
        .collect();
    out.push(metric(
        "unattributed_share",
        1.0 - median(&covered),
        "fraction",
    ));
    out
}
