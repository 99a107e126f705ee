//! The two fleet workloads. Both merge per-victim taps into one stream
//! with `merge_taps` and feed it to a 4-shard `Fleet` from the single
//! `Fleet::push` thread, with `restore_workers = 1`.
//!
//! `fleet_dense` — about 100 victims of one condition, staggered so
//! nearly all are resident at once, in-process and fault-free. Why:
//! checkpoint cost grows with resident victims, so the checkpoint codec
//! shows here. One condition, because a fleet runs one classifier.
//!
//! `fleet_chaos` — about 48 victims on process-hosted shards, each tap
//! impaired, under a shrink-then-grow resize schedule and a shard fault
//! plan with real aborts. Why: it uses the checkpoint layer the other
//! way — restores, migrations and respawns with every blob crossing the
//! pipe — and runs ingest's parking and resync paths, so a codec that
//! encodes faster but restores slower, or speed bought with loss, shows
//! here. Its end-to-end figures swing with where the faults land among
//! each seed's choices, too far for a regression bound (see NOTES.md),
//! so it runs by name only; the `fleet_dense` traced run measures the
//! recovery layer on a smaller chaos scenario of the same shape.
//!
//! Set-up trains the condition's attack, simulates the victims, and
//! builds the stream (impairments, fault plan and schedule included).

use crate::common::{metric, peak_rss_mib, single_condition, Ctx, Score, Truth};
use crate::layers::{
    backend_ratio, checkpoint_probe, fleet_config, fleet_samples, recovery_samples, replay_serial,
    run_fleet, stream, taps, FleetRun,
};
use crate::ledger::{
    layer_metrics, per_sec, probe, repeat, repeated_setup, timed, Outcome, ProbeInput, SHARDS,
};
use crate::spans::Recorder;
use crate::stats::is_subsequence;
use wm_bench::TIME_SCALE;
use wm_capture::time::{Duration, SimTime};
use wm_capture::Trace;
use wm_chaos::{impair_capture, CaptureImpairment, ShardFaultPlan};
use wm_core::{IntervalClassifier, WhiteMirror};
use wm_fleet::{FleetConfig, ResizeSchedule, ShardBackend, TapPacket};
use wm_online::{decode_sessions_sharded, CapturedPacket, OnlineVerdict};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Dense,
    Chaos,
}

const TRAINING_SESSIONS: usize = 3;
const CHAOS_IMPAIRMENT: f64 = 1.0;
const CHAOS_FAULTS: f64 = 1.0;
/// The shard fault plan is part of the workload's definition, not of
/// its seeded population: the same faults, scaled to each stream's
/// length, hit every seed's victims.
const CHAOS_PLAN_SEED: u64 = 0xE15;
/// Victims of the chaos scenario the `fleet_dense` traced run probes.
const RECOVERY_PROBE_VICTIMS: usize = 24;
/// Sim-time offset between consecutive victims' sessions, µs: small
/// against a session, so the victims overlap.
const STAGGER_US: u64 = 250_000;

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Dense => "fleet_dense",
            Kind::Chaos => "fleet_chaos",
        }
    }

    fn victims(self) -> usize {
        match self {
            Kind::Dense => 100,
            Kind::Chaos => 48,
        }
    }
}

/// What a fleet is fed: per-victim taps on the fleet's clock, their
/// merged stream, the config, and on chaos the faults and resizes.
struct Scenario {
    kind: Kind,
    taps: Vec<Vec<CapturedPacket>>,
    stream: Vec<TapPacket>,
    cfg: FleetConfig,
    plan: Option<ShardFaultPlan>,
    schedule: Option<ResizeSchedule>,
}

impl Scenario {
    /// Stagger `captures` onto one clock (impairing each tap first on
    /// chaos) and merge them.
    fn new(ctx: &Ctx, kind: Kind, mut captures: Vec<Vec<CapturedPacket>>) -> Scenario {
        if kind == Kind::Chaos {
            let imp = CaptureImpairment::at_intensity(CHAOS_IMPAIRMENT);
            for (v, capture) in captures.iter_mut().enumerate() {
                let raw: Vec<(u64, Vec<u8>)> =
                    capture.drain(..).map(|(t, f)| (t.micros(), f)).collect();
                let (impaired, _) = impair_capture(ctx.derive(&format!("impair {v}")), &imp, &raw);
                *capture = impaired.into_iter().map(|(t, f)| (SimTime(t), f)).collect();
            }
        }
        let slices: Vec<&[CapturedPacket]> = captures.iter().map(Vec::as_slice).collect();
        let taps = taps(&slices, STAGGER_US);
        drop(captures);
        let stream = stream(&taps);
        let mut cfg = fleet_config(SHARDS, taps.len(), &stream);
        let (mut plan, mut schedule) = (None, None);
        if kind == Kind::Chaos {
            cfg.backend = ShardBackend::Process { worker: None };
            let span_us = stream.last().map_or(1, |(t, _, _)| t.micros()).max(1);
            plan = Some(ShardFaultPlan::generate_with_aborts(
                CHAOS_PLAN_SEED,
                CHAOS_FAULTS,
                SHARDS,
                Duration::from_micros(span_us),
            ));
            // Shrink below the starting count, then grow past it (as E14).
            schedule = Some(
                ResizeSchedule::new(vec![
                    (SimTime(span_us / 3), SHARDS / 2),
                    (SimTime(span_us * 2 / 3), SHARDS + 2),
                ])
                .expect("static schedule is valid"),
            );
        }
        Scenario {
            kind,
            taps,
            stream,
            cfg,
            plan,
            schedule,
        }
    }

    /// One timed fleet run over the stream.
    fn pass(
        &self,
        ctx: &Ctx,
        classifier: &IntervalClassifier,
        rec: Option<&Recorder>,
    ) -> (Result<FleetRun, String>, f64) {
        timed(rec, || {
            run_fleet(
                rec,
                &self.cfg,
                classifier,
                &ctx.graph,
                &self.stream,
                self.plan.as_ref(),
                self.schedule.as_ref(),
            )
        })
    }

    /// The config on the in-process backend.
    fn inprocess(&self) -> FleetConfig {
        let mut cfg = self.cfg.clone();
        cfg.backend = ShardBackend::InProcess;
        cfg
    }

    /// What a fault-free run delivers per victim: on `fleet_dense`, each
    /// tap decoded on its own; on `fleet_chaos`, a static in-process
    /// fleet on the same impaired stream (as the fleet's own recovery
    /// tests compare).
    fn twin(
        &self,
        ctx: &Ctx,
        classifier: &IntervalClassifier,
    ) -> Result<Vec<Vec<OnlineVerdict>>, String> {
        Ok(match self.kind {
            Kind::Dense => decode_sessions_sharded(
                classifier,
                &ctx.graph,
                &self.cfg.decode,
                &self.taps,
                ctx.workers,
            )
            .into_iter()
            .map(|d| d.verdicts)
            .collect(),
            Kind::Chaos => {
                let clean = run_fleet(
                    None,
                    &self.inprocess(),
                    classifier,
                    &ctx.graph,
                    &self.stream,
                    None,
                    None,
                )?;
                by_victim(&clean, self.taps.len())
                    .into_iter()
                    .map(|vs| vs.into_iter().map(|(v, _)| v).collect())
                    .collect()
            }
        })
    }

    /// Gate every victim's verdicts in `run` against the twin; returns
    /// them per victim.
    ///
    /// On `fleet_dense` each victim's fleet verdicts must be its
    /// standalone decode with, at most, verdicts left out, and every
    /// verdict left out must be one the merge stage reports dropping:
    /// the dedup stage also drops a fresh verdict whose cited records
    /// all lie at or below ones it already delivered (NOTES.md).
    fn check(
        &self,
        outcome: &mut Outcome,
        run: &FleetRun,
        twin: &[Vec<OnlineVerdict>],
    ) -> Vec<Vec<(OnlineVerdict, u64)>> {
        let got = by_victim(run, self.taps.len());
        let mut left_out = 0;
        for (v, verdicts) in got.iter().enumerate() {
            outcome.gate(duplicate_free(verdicts), || {
                format!("victim {v}: duplicate verdict")
            });
            match self.kind {
                Kind::Dense => {
                    let delivered: Vec<&OnlineVerdict> = verdicts.iter().map(|(x, _)| x).collect();
                    let standalone: Vec<&OnlineVerdict> = twin[v].iter().collect();
                    left_out += standalone.len().saturating_sub(delivered.len()) as u64;
                    outcome.gate(is_subsequence(&delivered, &standalone), || {
                        format!("victim {v}: fleet verdicts are not a subset of decode_sessions_sharded's")
                    });
                }
                Kind::Chaos => {
                    let ok = losses_accounted(run, v as u32, verdicts, &twin[v]);
                    outcome.gate(ok, || {
                        format!("victim {v}: verdicts depart from the fault-free fleet outside every loss window")
                    });
                }
            }
        }
        if self.kind == Kind::Dense {
            let dropped = run.report.stats.dedup_dropped;
            outcome.gate(left_out == dropped, || {
                format!(
                    "{left_out} verdicts left out of the fleet stream, {dropped} reported dropped"
                )
            });
        }
        got
    }

    /// The recovery layer on this (chaos) scenario: the process/in-process
    /// wall ratio fault-free, then one chaotic run, gated, with its
    /// recovery counters.
    fn recovery_probe(
        &self,
        ctx: &Ctx,
        rec: &Recorder,
        classifier: &IntervalClassifier,
        outcome: &mut Outcome,
    ) {
        match backend_ratio(&self.inprocess(), classifier, &ctx.graph, &self.stream) {
            Ok(r) => rec.sample("fleet.process_vs_inprocess", r),
            Err(e) => outcome.fail(e),
        }
        let checked = self.twin(ctx, classifier).and_then(|twin| {
            let run = self.pass(ctx, classifier, None).0?;
            self.check(outcome, &run, &twin);
            Ok(run)
        });
        match checked {
            Ok(run) => recovery_samples(rec, &run.report),
            Err(e) => outcome.fail(e),
        }
    }
}

struct State {
    attack: WhiteMirror,
    truths: Vec<Truth>,
    first_trace: Trace,
    scenario: Scenario,
    failed: usize,
}

fn setup(ctx: &Ctx, kind: Kind, rec: Option<&Recorder>) -> State {
    let (attack, pool, failed) =
        single_condition(ctx, kind.label(), kind.victims(), TRAINING_SESSIONS, rec);
    State {
        attack,
        truths: pool.truths,
        first_trace: pool.first_trace,
        scenario: Scenario::new(ctx, kind, pool.captures),
        failed,
    }
}

/// Each victim's verdicts, with delivery times.
fn by_victim(run: &FleetRun, victims: usize) -> Vec<Vec<(OnlineVerdict, u64)>> {
    let mut out = vec![Vec::new(); victims];
    for (v, verdict, at) in &run.verdicts {
        out[*v as usize].push((verdict.clone(), *at));
    }
    out
}

/// No victim's stream repeats a verdict: cited evidence records strictly
/// advance, blind verdicts never replay an index, and no (choice point,
/// time) appears twice.
fn duplicate_free(verdicts: &[(OnlineVerdict, u64)]) -> bool {
    let mut record_hw: Option<usize> = None;
    let mut blind_hw: Option<u64> = None;
    let mut seen = std::collections::BTreeSet::new();
    for (v, _) in verdicts {
        match v.provenance.records.iter().map(|r| r.index).max() {
            Some(cited) => {
                if record_hw.is_some_and(|hw| cited <= hw) {
                    return false;
                }
                record_hw = Some(cited);
            }
            None => {
                if blind_hw.is_some_and(|hw| v.index <= hw) {
                    return false;
                }
                blind_hw = Some(v.index);
            }
        }
        if !seen.insert((v.choice.cp, v.choice.time.micros())) {
            return false;
        }
    }
    true
}

/// Where the chaotic run first departs from a fault-free static fleet
/// on the same stream, a reported loss window or lossy migration window
/// of the victim explains it: the window opened before the departure
/// (within the replay margin the fleet's recovery tests use), and no
/// verdict agreed after it closed, so the departure is the first
/// decision the lost packets fed. Only the first departure is checked:
/// a verdict lost there can send the decoder down another branch of the
/// story, and every later difference follows from it.
fn losses_accounted(
    run: &FleetRun,
    victim: u32,
    got: &[(OnlineVerdict, u64)],
    twin: &[OnlineVerdict],
) -> bool {
    let got: Vec<&OnlineVerdict> = got.iter().map(|(v, _)| v).collect();
    let Some(i) = (0..got.len().max(twin.len()))
        .find(|&i| got.get(i).map(|v| &v.choice) != twin.get(i).map(|v| &v.choice))
    else {
        return true;
    };
    let at = [got.get(i).copied(), twin.get(i)]
        .into_iter()
        .flatten()
        .map(|v| v.choice.time.micros())
        .min()
        .expect("a departure has a verdict on one side");
    let agreed_until = i.checked_sub(1).map_or(0, |j| twin[j].choice.time.micros());
    let margin = Duration::from_secs_f64(10.0 / TIME_SCALE as f64).micros() * 4;
    let covers = |from: SimTime, to: SimTime| {
        at + margin >= from.micros() && agreed_until <= to.micros() + margin
    };
    run.report
        .loss_windows
        .iter()
        .any(|w| w.victim == victim && covers(w.from, w.to))
        || run
            .report
            .migrations
            .iter()
            .any(|m| m.victim == victim && !m.lossless() && covers(m.from, m.to))
}

pub fn run(ctx: &Ctx, kind: Kind, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let main = Recorder::default();
    let (st, setup_s) = if traced {
        (setup(ctx, kind, Some(&main)), 0.0)
    } else {
        repeated_setup(ctx.workers, || setup(ctx, kind, None))
    };
    for _ in 0..st.failed {
        outcome.fail("a clean victim session failed to simulate".to_owned());
    }
    let sc = &st.scenario;
    let victims = sc.taps.len();
    let classifier = st.attack.classifier();
    let tap_slices: Vec<&[CapturedPacket]> = sc.taps.iter().map(Vec::as_slice).collect();
    let twin = sc.twin(ctx, classifier).unwrap_or_else(|e| {
        outcome.fail(e);
        vec![Vec::new(); victims]
    });

    let mut reference: Option<Vec<Vec<(OnlineVerdict, u64)>>> = None;
    let mut walls = Vec::new();
    let refs = repeat(seconds, 1, |_| {
        let (run, wall) = sc.pass(ctx, classifier, None);
        walls.push(wall);
        let run = match run {
            Ok(run) => run,
            Err(e) => return outcome.fail(e),
        };
        let got = sc.check(&mut outcome, &run, &twin);
        reference.get_or_insert(got);
        if traced {
            let (traced_run, traced_wall) = sc.pass(ctx, classifier, Some(&main));
            match traced_run {
                Ok(traced_run) => drop(sc.check(&mut outcome, &traced_run, &twin)),
                Err(e) => outcome.fail(e),
            }
            main.sample("trace.overhead_ratio", traced_wall / wall);
            fleet_samples(&main, &run.report);
            let online_s =
                replay_serial(&main, classifier, &ctx.graph, &sc.cfg.decode, &tap_slices);
            main.sample("fleet.overhead_vs_online", wall / online_s.max(1e-9));
            if let Err(e) =
                checkpoint_probe(&main, classifier, &ctx.graph, &sc.cfg.decode, &tap_slices)
            {
                outcome.fail(e);
            }
            if kind == Kind::Chaos {
                recovery_samples(&main, &run.report);
                match backend_ratio(&sc.inprocess(), classifier, &ctx.graph, &sc.stream) {
                    Ok(r) => main.sample("fleet.process_vs_inprocess", r),
                    Err(e) => outcome.fail(e),
                }
            }
        }
    });
    let first = reference.unwrap_or_else(|| vec![Vec::new(); victims]);

    let mut score = Score::default();
    for (v, (verdicts, truth)) in first.iter().zip(&st.truths).enumerate() {
        let offset = v as u64 * STAGGER_US;
        let choices: Vec<_> = verdicts.iter().map(|(x, _)| x.choice).collect();
        let at: Vec<u64> = verdicts
            .iter()
            .map(|(_, t)| t.saturating_sub(offset))
            .collect();
        score.add(truth, &choices, &at);
    }
    outcome.gate(score.duplicated == 0, || {
        format!("{} duplicate verdicts", score.duplicated)
    });

    if traced {
        if kind == Kind::Dense {
            // The recovery layer, on a chaos scenario built from this
            // run's own first victims.
            let captures = sc
                .taps
                .iter()
                .take(RECOVERY_PROBE_VICTIMS)
                .enumerate()
                .map(|(v, tap)| {
                    let offset = v as u64 * STAGGER_US;
                    tap.iter()
                        .map(|(t, f)| (SimTime(t.micros() - offset), f.clone()))
                        .collect()
                })
                .collect();
            Scenario::new(ctx, Kind::Chaos, captures).recovery_probe(
                ctx,
                &main,
                classifier,
                &mut outcome,
            );
        }
        let probe_rec = Recorder::default();
        let input = ProbeInput {
            attack: &st.attack,
            trace: &st.first_trace,
            sessions: tap_slices.iter().take(4).copied().collect(),
        };
        if let Err(e) = probe(ctx, &probe_rec, &input) {
            outcome.fail(e);
        }
        outcome.metrics = layer_metrics(&main, &probe_rec, ctx.workers);
    } else {
        outcome.metrics.push(metric("setup_s", setup_s, "s"));
        outcome.metrics.push(metric(
            "packets_per_sec",
            per_sec(sc.stream.len(), &walls, &refs),
            "1/s",
        ));
        outcome.metrics.extend(score.metrics());
        outcome.notes = score.notes();
        outcome.notes.push(metric(
            "sessions_per_sec",
            per_sec(victims, &walls, &refs),
            "1/s",
        ));
        outcome
            .metrics
            .push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    }
    outcome
}
