//! Pinned fleet digests.
//!
//! Two FNV-1a digests over everything the supervised fleet derives
//! from a small fixed victim stream. The decisions digest covers a
//! fault-free 4-shard in-process run (with idle and capacity
//! eviction), a run under a shard fault plan with a shrink-then-grow
//! resize and an attached observer, and a fault-free process-backend
//! run — each contributing its merged verdicts, `FleetStats`, loss
//! windows, migrations and per-shard recovery — plus every eviction
//! and verdict a bare `ShardState` produces when driven through a
//! `HashRing` at the fleet's checkpoint cadence, and the ring owner of
//! victims 0–4095 over a grid of shard and virtual-node counts. The
//! blob digest covers the checkpoint bytes those bare shards seal, so
//! a checkpoint layout change moves it alone.
//!
//! The other fleet suites compare runs with each other (shard counts,
//! resize schedules, backends); none pins the bytes themselves, so a
//! rewrite of the demux, the shard table or the tick scheduling could
//! move a verdict, an eviction or a checkpoint unnoticed as long as
//! every configuration moved together. This test notices: both digests
//! were computed once and must never change unless fleet output is
//! meant to change (say why in the commit).

use std::path::PathBuf;
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::{ShardFaultKind, ShardFaultPlan};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_fleet::ring::{RING_SEED, VNODES_PER_SHARD};
use wm_fleet::{
    merge_taps, victim_key, Fleet, FleetConfig, FleetReport, HashRing, ResizeSchedule,
    ShardBackend, ShardState, TapPacket,
};
use wm_sim::{run_session, SessionConfig, SessionOutput};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ViewerScript};

/// The digests of the runs below; see the module docs before changing
/// either.
const PINNED_DECISIONS: u64 = 0x1a2c_1c39_1af2_ad8f;
const PINNED_BLOBS: u64 = 0xd866_5ad4_453a_8578;

const TS: u32 = 20;
const VICTIMS: u32 = 6;

/// 64-bit FNV-1a, streamed.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed field, so adjacent fields cannot alias.
    fn field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.field(format!("{value:?}").as_bytes());
    }
}

fn session(seed: u64, choices: &[Choice]) -> SessionOutput {
    let graph = Arc::new(tiny_film());
    let script = ViewerScript::from_choices(choices, Duration::from_millis(900));
    run_session(&SessionConfig::fast(graph, seed, script)).unwrap()
}

fn trained_classifier() -> IntervalClassifier {
    let train = session(
        100,
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
    );
    IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).unwrap()
}

const PICKS: [[Choice; 3]; 4] = [
    [Choice::Default, Choice::NonDefault, Choice::Default],
    [Choice::NonDefault, Choice::NonDefault, Choice::NonDefault],
    [Choice::Default, Choice::Default, Choice::Default],
    [Choice::NonDefault, Choice::Default, Choice::NonDefault],
];

/// `VICTIMS` sessions staggered by 1.5 s of sim-time, so several are
/// resident at once and early ones go idle while later ones stream.
fn victim_stream() -> Vec<TapPacket> {
    let taps: Vec<Vec<TapPacket>> = (0..VICTIMS)
        .map(|v| {
            let out = session(700 + v as u64, &PICKS[v as usize % PICKS.len()]);
            let offset = v as u64 * 1_500_000;
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros() + offset), v, p.frame.clone()))
                .collect()
        })
        .collect();
    merge_taps(&taps)
}

/// The fleet config every run starts from: a short idle horizon and a
/// two-victim shard cap, so both eviction paths fire.
fn fleet_cfg(shards: usize) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(shards, TS);
    cfg.victim_idle = Duration::from_millis(1_500);
    cfg.max_victims_per_shard = 2;
    cfg
}

fn digest_report(h: &mut Fnv, report: &FleetReport) {
    h.debug(&report.verdicts);
    h.debug(&report.stats);
    h.debug(&report.loss_windows);
    h.debug(&report.migrations);
    h.debug(&report.recovery);
}

fn run_fleet(
    cfg: FleetConfig,
    stream: &[TapPacket],
    clf: &IntervalClassifier,
    setup: impl FnOnce(&mut Fleet),
) -> FleetReport {
    let mut fleet = Fleet::new(cfg, clf.clone(), Arc::new(tiny_film())).unwrap();
    setup(&mut fleet);
    for (t, v, frame) in stream {
        fleet.push(*t, *v, frame);
    }
    fleet.finish()
}

/// Bare shards behind a ring, run the way the supervisor runs them:
/// feed the owner, then at each checkpoint boundary evict idle victims
/// and seal a blob. Blobs go into `b`, everything else into `h`.
fn digest_shards(h: &mut Fnv, b: &mut Fnv, stream: &[TapPacket], clf: &IntervalClassifier) {
    let cfg = fleet_cfg(3);
    let ring = HashRing::new(RING_SEED, cfg.shards, VNODES_PER_SHARD);
    let graph = Arc::new(tiny_film());
    let mut shards: Vec<ShardState> = (0..cfg.shards as u32)
        .map(|k| ShardState::new(k, clf.clone(), graph.clone(), cfg.decode.clone()))
        .collect();
    let every = cfg.checkpoint_every.micros();
    let mut next = vec![every; shards.len()];
    let mut out = Vec::new();
    for (t, v, frame) in stream {
        let k = ring.shard_of(victim_key(RING_SEED, *v));
        shards[k].feed(*v, *t, frame, cfg.max_victims_per_shard, &mut out);
        for (k, shard) in shards.iter_mut().enumerate() {
            if t.micros() < next[k] {
                continue;
            }
            h.debug(&shard.evict_idle(*t, cfg.victim_idle, &mut out));
            b.field(&shard.checkpoint(*t));
            h.debug(&shard.live_victims().collect::<Vec<_>>());
            while next[k] <= t.micros() {
                next[k] += every;
            }
        }
    }
    for shard in &mut shards {
        h.debug(&shard.finish_all(&mut out));
    }
    h.debug(&out);
}

fn digest_ring(h: &mut Fnv) {
    for shards in [1usize, 4, 9] {
        for vnodes in [1usize, 16, 64] {
            let ring = HashRing::new(0xF1EE7, shards, vnodes);
            let owners: Vec<u8> = (0..4096u32)
                .map(|v| ring.shard_of(victim_key(0xF1EE7, v)) as u8)
                .collect();
            h.field(&owners);
        }
    }
}

#[test]
fn fleet_output_matches_pinned_digest() {
    let stream = victim_stream();
    let clf = trained_classifier();
    let end = stream.last().unwrap().0.micros();
    let (mut h, mut b) = (Fnv::new(), Fnv::new());

    // 1. Fault-free, in-process, static.
    let clean = run_fleet(fleet_cfg(4), &stream, &clf, |_| {});
    assert_eq!(clean.stats.packets_lost, 0);
    assert!(
        clean.stats.victims_evicted > 0,
        "eviction must be exercised"
    );
    digest_report(&mut h, &clean);

    // 2. A shard fault plan, a shrink-then-grow resize and an observer.
    let mut plan = ShardFaultPlan::generate(0xD16E57, 2.0, 4, Duration::from_micros(end));
    plan.push(SimTime(end / 5), 1, ShardFaultKind::CheckpointCorrupt)
        .push(SimTime(end * 3 / 10), 1, ShardFaultKind::Kill)
        .push(SimTime(end / 2), 0, ShardFaultKind::Kill)
        .push(
            SimTime(end * 3 / 5),
            0,
            ShardFaultKind::Stall {
                stall: Duration::from_millis(400),
            },
        );
    let resize =
        ResizeSchedule::new(vec![(SimTime(end * 2 / 5), 2), (SimTime(end * 7 / 10), 5)]).unwrap();
    let chaotic = run_fleet(fleet_cfg(4), &stream, &clf, |fleet| {
        fleet.inject(&plan);
        fleet.schedule_resize(&resize);
        fleet.attach_observer();
    });
    assert!(chaotic.stats.kills > 0 && chaotic.stats.resizes == 2);
    digest_report(&mut h, &chaotic);
    let obs = chaotic.obs.as_ref().expect("observer attached");
    h.field(obs.series_jsonl.as_bytes());
    h.debug(&obs.status);

    // 3. Fault-free, process backend.
    let mut cfg = fleet_cfg(4);
    cfg.backend = ShardBackend::Process {
        worker: Some(PathBuf::from(env!("CARGO_BIN_EXE_shard_worker"))),
    };
    let process = run_fleet(cfg, &stream, &clf, |_| {});
    digest_report(&mut h, &process);

    // 4. Bare shards at the fleet cadence; 5. ring ownership.
    digest_shards(&mut h, &mut b, &stream, &clf);
    digest_ring(&mut h);

    assert_eq!(
        h.0, PINNED_DECISIONS,
        "fleet decisions moved: {:#018x} (see the module docs)",
        h.0
    );
    assert_eq!(
        b.0, PINNED_BLOBS,
        "fleet checkpoint bytes moved: {:#018x} (see the module docs)",
        b.0
    );
}
