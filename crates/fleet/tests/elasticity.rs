//! Tentpole acceptance tests for fleet elasticity: byte-determinism
//! of the merged verdict stream across resize schedules on fault-free
//! input, bounded-loss/zero-dup under intensity-2 chaos including
//! `ProcessAbort`, the consistent-hash minimal-movement invariant for
//! `N→M→N` resize paths, and the process-shard backend surviving a
//! real `kill -9` without the supervisor exiting.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::{ShardFaultKind, ShardFaultPlan};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_fleet::{
    merge_taps, victim_key, Fleet, FleetConfig, FleetReport, HashRing, ResizeSchedule,
    ShardBackend, TapPacket,
};
use wm_online::OnlineVerdict;
use wm_sim::{run_session, SessionConfig, SessionOutput};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ViewerScript};

const TS: u32 = 20;

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

fn victim_stream(victims: u32) -> Vec<TapPacket> {
    let mut taps = Vec::new();
    for v in 0..victims {
        let out = session(300 + v as u64, &PICKS[v as usize % PICKS.len()]);
        let offset = v as u64 * 2_000_000;
        taps.push(
            out.trace
                .packets
                .iter()
                .map(|p| (SimTime(p.time.micros() + offset), v, p.frame.clone()))
                .collect::<Vec<TapPacket>>(),
        );
    }
    merge_taps(&taps)
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    let mut cfg = FleetConfig::scaled(shards, TS);
    // Keep idle eviction out of the determinism comparisons: where a
    // victim sits when an eviction sweep fires is exactly what a
    // resize perturbs, and an evicted-then-resumed victim legitimately
    // re-finishes. The soak exercises eviction.
    cfg.victim_idle = Duration::from_secs_f64(1e6);
    cfg
}

fn process_cfg(shards: usize) -> FleetConfig {
    let mut cfg = fleet_cfg(shards);
    cfg.backend = ShardBackend::Process {
        worker: Some(PathBuf::from(env!("CARGO_BIN_EXE_shard_worker"))),
    };
    cfg
}

fn run_fleet(
    cfg: FleetConfig,
    stream: &[TapPacket],
    plan: Option<&ShardFaultPlan>,
    resize: Option<&ResizeSchedule>,
) -> FleetReport {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let mut fleet = Fleet::new(cfg, clf, graph).unwrap();
    if let Some(plan) = plan {
        fleet.inject(plan);
    }
    if let Some(schedule) = resize {
        fleet.schedule_resize(schedule);
    }
    for (t, v, frame) in stream {
        fleet.push(*t, *v, frame);
    }
    fleet.finish()
}

fn by_victim(report: &FleetReport) -> BTreeMap<u32, Vec<OnlineVerdict>> {
    let mut map: BTreeMap<u32, Vec<OnlineVerdict>> = BTreeMap::new();
    for (v, verdict) in &report.verdicts {
        map.entry(*v).or_default().push(verdict.clone());
    }
    map
}

/// Same dedup invariants the recovery suite pins, over the merged
/// stream of an elastic run.
fn assert_zero_duplicates(report: &FleetReport) {
    for (victim, verdicts) in by_victim(report) {
        let mut record_hw: Option<usize> = None;
        let mut blind_hw: Option<u64> = None;
        let mut seen_cp = std::collections::BTreeSet::new();
        for v in &verdicts {
            match v.provenance.records.iter().map(|r| r.index).max() {
                Some(cited) => {
                    if let Some(hw) = record_hw {
                        assert!(
                            cited > hw,
                            "victim {victim}: delivered verdict re-cites record {cited} <= {hw}"
                        );
                    }
                    record_hw = Some(cited);
                }
                None => {
                    if let Some(hw) = blind_hw {
                        assert!(
                            v.index > hw,
                            "victim {victim}: blind verdict index {} replayed",
                            v.index
                        );
                    }
                    blind_hw = Some(v.index);
                }
            }
            assert!(
                seen_cp.insert((v.choice.cp, v.choice.time.micros())),
                "victim {victim}: duplicate verdict for {:?} at {}",
                v.choice.cp,
                v.choice.time.micros()
            );
        }
    }
}

#[test]
fn merged_verdicts_are_byte_identical_across_resize_schedules() {
    const VICTIMS: u32 = 6;
    let stream = victim_stream(VICTIMS);
    let end = stream.last().unwrap().0.micros();

    let schedules = [
        // Grow, then shrink below the starting count.
        ResizeSchedule::new(vec![(SimTime(end / 3), 6), (SimTime(end * 2 / 3), 3)]).unwrap(),
        // Shrink hard, then grow past the starting count: every victim
        // on the removed shards migrates twice.
        ResizeSchedule::new(vec![(SimTime(end / 4), 1), (SimTime(end / 2), 5)]).unwrap(),
    ];

    let baseline = run_fleet(fleet_cfg(4), &stream, None, None);
    assert!(baseline.loss_windows.is_empty());
    assert!(baseline.migrations.is_empty());

    for (i, schedule) in schedules.iter().enumerate() {
        let report = run_fleet(fleet_cfg(4), &stream, None, Some(schedule));
        assert_eq!(
            report.stats.resizes,
            schedule.len() as u64,
            "schedule {i}: every step must fire"
        );
        assert!(
            report.stats.victims_migrated > 0,
            "schedule {i}: resizing a populated fleet must migrate victims"
        );
        assert!(
            report.migrations.iter().all(|m| m.lossless()),
            "schedule {i}: fault-free migrations must drain live state"
        );
        assert!(
            report.loss_windows.is_empty(),
            "schedule {i}: fault-free resize reported loss: {:?}",
            report.loss_windows
        );
        assert_eq!(report.stats.packets_lost, 0, "schedule {i}");
        assert_eq!(report.stats.migrate_failures, 0, "schedule {i}");
        // The contract itself: the merged verdict stream is
        // byte-identical to the static fleet's.
        assert_eq!(
            baseline.verdicts, report.verdicts,
            "schedule {i} changed the merged verdict stream"
        );
        // And rerunning the same schedule reproduces it bit-for-bit,
        // pool-parallel migration included.
        let again = run_fleet(fleet_cfg(4), &stream, None, Some(schedule));
        assert_eq!(report.verdicts, again.verdicts);
        assert_eq!(report.migrations, again.migrations, "schedule {i}");
    }
}

#[test]
fn resize_under_intensity_two_chaos_bounds_loss_and_never_duplicates() {
    const VICTIMS: u32 = 4;
    let stream = victim_stream(VICTIMS);
    let end = stream.last().unwrap().0.micros();
    let horizon = Duration::from_micros(end);
    let plan = ShardFaultPlan::generate_with_aborts(0xE14, 2.0, 4, horizon);
    assert!(!plan.is_empty());
    assert!(
        plan.count(|k| *k == ShardFaultKind::ProcessAbort) > 0,
        "the acceptance plan must include ProcessAbort faults"
    );
    let schedule =
        ResizeSchedule::new(vec![(SimTime(end * 2 / 5), 2), (SimTime(end * 7 / 10), 5)]).unwrap();

    let chaotic = run_fleet(fleet_cfg(4), &stream, Some(&plan), Some(&schedule));
    assert!(chaotic.stats.kills >= 1, "plan must exercise the kill path");
    assert_eq!(chaotic.stats.resizes, 2);
    assert_zero_duplicates(&chaotic);

    // Determinism: the same chaotic elastic run reproduces exactly.
    let again = run_fleet(fleet_cfg(4), &stream, Some(&plan), Some(&schedule));
    assert_eq!(chaotic.verdicts, again.verdicts);
    assert_eq!(chaotic.loss_windows, again.loss_windows);
    assert_eq!(chaotic.migrations, again.migrations);
    assert_eq!(chaotic.stats, again.stats);

    // Bounded loss: every divergence from the fault-free static run
    // sits inside a reported loss window or a reported (possibly
    // lossy) migration window for that victim — the windows are the
    // contract that nothing vanishes unaccounted.
    let clean = run_fleet(fleet_cfg(4), &stream, None, None);
    let clean_by = by_victim(&clean);
    let chaotic_by = by_victim(&chaotic);
    let margin = {
        let wcfg = Duration::from_secs_f64(10.0 / TS as f64);
        Duration(wcfg.micros() * 4)
    };
    let in_window = |victim: u32, t: SimTime| {
        let covers = |from: SimTime, to: SimTime| {
            t.micros() + margin.micros() >= from.micros()
                && t.micros() <= to.micros() + margin.micros()
        };
        chaotic
            .loss_windows
            .iter()
            .any(|w| w.victim == victim && covers(w.from, w.to))
            || chaotic
                .migrations
                .iter()
                .any(|m| m.victim == victim && !m.lossless() && covers(m.from, m.to))
    };
    for v in 0..VICTIMS {
        let clean_v = clean_by.get(&v).cloned().unwrap_or_default();
        let chaotic_v = chaotic_by.get(&v).cloned().unwrap_or_default();
        for c in &clean_v {
            if !chaotic_v.iter().any(|f| f.choice == c.choice) {
                assert!(
                    in_window(v, c.choice.time),
                    "victim {v}: lost verdict at {} µs outside every reported window",
                    c.choice.time.micros()
                );
            }
        }
        for f in &chaotic_v {
            if !clean_v.iter().any(|c| c.choice == f.choice) {
                assert!(
                    in_window(v, f.choice.time),
                    "victim {v}: novel verdict at {} µs outside every reported window",
                    f.choice.time.micros()
                );
            }
        }
    }
}

/// Proptest-style sweep of the consistent-hash minimal-movement
/// invariant: for random victim sets and any `N→M→N` resize path,
/// ownership returns to the original assignment (the ring is a pure
/// function of `(seed, count)`), and each step migrates at most
/// `ceil(victims * |M−N| / max(N, M))` victims plus virtual-node
/// variance — a modulo scheme would move nearly all of them.
#[test]
fn ring_ownership_returns_after_n_m_n_and_per_step_movement_is_minimal() {
    let vnodes = 32usize;
    let cases: &[(u64, usize, usize, u32)] = &[
        (0xA0, 4, 5, 96),
        (0xA1, 5, 4, 128),
        (0xA2, 2, 3, 64),
        (0xA3, 8, 9, 200),
        (0xA4, 3, 2, 80),
        (0xA5, 6, 7, 144),
        (0xA6, 9, 8, 256),
        (0xA7, 7, 6, 112),
    ];
    for &(seed, n, m, victims) in cases {
        let ring_n = HashRing::new(seed, n, vnodes);
        let ring_m = HashRing::new(seed, m, vnodes);
        let ring_back = HashRing::new(seed, n, vnodes);
        // Random victim set: seed-scoped keys, offset so different
        // cases don't reuse the same victim ids.
        let ids: Vec<u32> = (0..victims)
            .map(|i| i * 37 + (seed as u32) * 1_000)
            .collect();
        let mut moved_out = 0u32;
        let mut moved_back = 0u32;
        for &v in &ids {
            let k = victim_key(seed, v);
            let own_n = ring_n.shard_of(k);
            let own_m = ring_m.shard_of(k);
            let own_back = ring_back.shard_of(k);
            assert_eq!(
                own_n, own_back,
                "seed {seed:#x}: N→M→N must return victim {v} to its original shard"
            );
            if own_n != own_m {
                moved_out += 1;
            }
            if own_m != own_back {
                moved_back += 1;
            }
        }
        // Minimal movement per step: the ideal is |M−N|/max(N,M) of
        // the victims; virtual-node arc variance earns a 2× allowance,
        // still far below the ~(1 − 1/N) a modulo reshard would move.
        let delta = n.abs_diff(m) as u32;
        let bound = 2 * (victims * delta).div_ceil(n.max(m) as u32) + 1;
        assert!(
            moved_out <= bound,
            "seed {seed:#x}: {n}→{m} moved {moved_out}/{victims} victims, bound {bound}"
        );
        assert!(
            moved_back <= bound,
            "seed {seed:#x}: {m}→{n} moved {moved_back}/{victims} victims, bound {bound}"
        );
        assert!(
            moved_out == moved_back,
            "the two steps cross the same arc boundary set"
        );
    }
}

#[test]
fn process_backend_matches_in_process_fleet_byte_for_byte() {
    const VICTIMS: u32 = 3;
    let stream = victim_stream(VICTIMS);
    let in_proc = run_fleet(fleet_cfg(2), &stream, None, None);
    let proc = run_fleet(process_cfg(2), &stream, None, None);
    assert!(proc.loss_windows.is_empty());
    assert_eq!(proc.stats.packets_lost, 0);
    assert_eq!(
        in_proc.verdicts, proc.verdicts,
        "child-process shards must reproduce the in-process stream"
    );

    // Faults and a shrink-then-grow resize: both backends run the same
    // shard dispatch, so every supervisor-visible outcome matches too.
    // Only the respawn count is backend-specific (process shards
    // respawn a child on every restart).
    let stream = victim_stream(4);
    let end = stream.last().unwrap().0.micros();
    let mut plan = ShardFaultPlan::generate(0xB4C, 2.0, 4, Duration::from_micros(end));
    plan.push(SimTime(end / 5), 1, ShardFaultKind::CheckpointCorrupt)
        .push(SimTime(end / 4), 2, ShardFaultKind::CheckpointTorn)
        .push(SimTime(end * 3 / 10), 1, ShardFaultKind::Kill)
        .push(SimTime(end * 7 / 20), 2, ShardFaultKind::Kill)
        .push(
            SimTime(end * 3 / 5),
            0,
            ShardFaultKind::Stall {
                stall: Duration::from_millis(400),
            },
        );
    for kind in [
        ShardFaultKind::Kill,
        ShardFaultKind::CheckpointCorrupt,
        ShardFaultKind::CheckpointTorn,
    ] {
        assert!(plan.count(|k| *k == kind) > 0, "plan lacks {kind:?}");
    }
    assert!(plan.count(|k| matches!(k, ShardFaultKind::Stall { .. })) > 0);
    assert_eq!(plan.count(|k| *k == ShardFaultKind::ProcessAbort), 0);
    let resize =
        ResizeSchedule::new(vec![(SimTime(end * 2 / 5), 2), (SimTime(end * 7 / 10), 5)]).unwrap();
    let in_proc = run_fleet(fleet_cfg(4), &stream, Some(&plan), Some(&resize));
    let proc = run_fleet(process_cfg(4), &stream, Some(&plan), Some(&resize));
    assert!(in_proc.stats.kills > 0 && in_proc.stats.restarts > 0);
    assert!(in_proc.stats.checkpoints_rejected > 0);
    assert_eq!(in_proc.stats.resizes, 2);
    assert!(in_proc.stats.victims_migrated > 0);
    assert_eq!(in_proc.verdicts, proc.verdicts, "faulted verdicts");
    assert_eq!(
        in_proc.loss_windows, proc.loss_windows,
        "faulted loss windows"
    );
    assert_eq!(in_proc.migrations, proc.migrations, "faulted migrations");
    assert!(proc.stats.process_respawns > 0);
    let mut proc_stats = proc.stats;
    proc_stats.process_respawns = 0;
    assert_eq!(in_proc.stats, proc_stats, "faulted stats");
}

#[test]
fn process_abort_respawns_from_last_checkpoint_and_supervisor_survives() {
    const VICTIMS: u32 = 3;
    let stream = victim_stream(VICTIMS);
    let end = stream.last().unwrap().0.micros();
    let horizon = Duration::from_micros(end);
    let plan = ShardFaultPlan::generate_with_aborts(0xAB07, 2.0, 2, horizon);
    assert!(plan.count(|k| *k == ShardFaultKind::ProcessAbort) > 0);

    // The supervisor absorbs every abort (a real SIGKILL of the child)
    // and finishes the stream: reaching the report at all is the
    // "never exits" half of the contract.
    let report = run_fleet(process_cfg(2), &stream, Some(&plan), None);
    assert!(report.stats.kills >= 1);
    assert!(
        report.stats.process_respawns >= 1,
        "an aborted process shard must be respawned from its blob"
    );
    assert!(
        report.recovery.iter().any(|r| r.respawns >= 1),
        "recovery attribution must name the respawned shard"
    );
    assert_zero_duplicates(&report);

    // Determinism holds for the process backend too: the worker is
    // driven purely by supervisor-ordered exchanges.
    let again = run_fleet(process_cfg(2), &stream, Some(&plan), None);
    assert_eq!(report.verdicts, again.verdicts);
    assert_eq!(report.loss_windows, again.loss_windows);
}

#[test]
fn external_kill_nine_of_a_worker_is_absorbed_mid_stream() {
    const VICTIMS: u32 = 2;
    let stream = victim_stream(VICTIMS);
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let mut fleet = Fleet::new(process_cfg(1), clf, graph).unwrap();

    let pids = fleet.worker_pids();
    assert_eq!(pids.len(), 1, "one process-backed shard expected");
    let (_, pid) = pids[0];

    let half = stream.len() / 2;
    for (t, v, frame) in &stream[..half] {
        fleet.push(*t, *v, frame);
    }
    // A genuine SIGKILL from outside the supervisor — exactly what a
    // segfaulting shard looks like from the parent's side.
    let status = std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -9 {pid} failed");
    // SIGKILL delivery is immediate, but give the kernel a beat to
    // tear down the child's pipe ends so the next exchange sees EPIPE
    // instead of racing the teardown.
    std::thread::sleep(std::time::Duration::from_millis(100));

    for (t, v, frame) in &stream[half..] {
        fleet.push(*t, *v, frame);
    }
    // The crash surfaced on a packet exchange, outside any scheduled
    // fault; its restart must still fire at the backoff deadline while
    // the stream runs, not only at `finish`.
    assert!(
        fleet.shard_recovery().iter().any(|r| r.respawns >= 1),
        "the respawn must happen mid-stream"
    );
    let report = fleet.finish();
    assert!(
        report.stats.kills >= 1,
        "the dead child must surface as an absorbed kill"
    );
    assert!(
        report.stats.process_respawns >= 1,
        "the shard must come back as a fresh child process"
    );
    assert!(
        !report.verdicts.is_empty(),
        "decode must continue after the respawn"
    );
    assert_zero_duplicates(&report);
}
