//! Tentpole acceptance tests for the supervised fleet: fault-free
//! equivalence with standalone decoders across shard counts,
//! kill/resume determinism under a generated chaos plan, torn/corrupt
//! checkpoint fallback, and multi-tap dedup.

use std::collections::BTreeMap;
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_chaos::{ShardFault, ShardFaultKind, ShardFaultPlan};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_fleet::{
    merge_taps, Fleet, FleetConfig, FleetReport, ShardRestoreErrorKind, ShardState, TapPacket,
};
use wm_online::{OnlineConfig, OnlineDecoder, OnlineVerdict};
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

/// `victims` interleaved sessions, each staggered by 2 s of sim-time,
/// merged into one fleet input stream.
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
    // Keep idle eviction out of the equivalence tests: a victim
    // finished early would legitimately diverge from a standalone
    // decoder finished at end-of-input. The soak exercises eviction.
    cfg.victim_idle = Duration::from_secs_f64(1e6);
    cfg
}

fn run_fleet(cfg: FleetConfig, stream: &[TapPacket], plan: Option<&ShardFaultPlan>) -> FleetReport {
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let mut fleet = Fleet::new(cfg, clf, graph).unwrap();
    if let Some(plan) = plan {
        fleet.inject(plan);
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

#[test]
fn fault_free_fleet_matches_standalone_decoders_for_any_shard_count() {
    const VICTIMS: u32 = 4;
    let stream = victim_stream(VICTIMS);
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());

    // Reference: one standalone decoder per victim over its own
    // packets (same timestamps the fleet sees).
    let mut reference: BTreeMap<u32, Vec<OnlineVerdict>> = BTreeMap::new();
    for v in 0..VICTIMS {
        let mut dec = OnlineDecoder::new(clf.clone(), graph.clone(), OnlineConfig::scaled(TS));
        let mut out = Vec::new();
        for (t, pv, frame) in &stream {
            if *pv == v {
                out.extend(dec.push_packet(*t, frame));
            }
        }
        out.extend(dec.finish());
        reference.insert(v, out);
    }

    let mut first: Option<Vec<(u32, OnlineVerdict)>> = None;
    for shards in [1usize, 2, 4, 8] {
        let report = run_fleet(fleet_cfg(shards), &stream, None);
        assert!(
            report.loss_windows.is_empty(),
            "{shards} shards: fault-free run reported loss"
        );
        assert_eq!(report.stats.packets_lost, 0);
        assert_eq!(report.stats.kills, 0);
        assert_eq!(
            by_victim(&report),
            reference,
            "{shards} shards diverged from standalone decoders"
        );
        match &first {
            None => first = Some(report.verdicts),
            Some(f) => assert_eq!(
                f, &report.verdicts,
                "merged stream changed with shard count {shards}"
            ),
        }
    }
}

/// Per-victim dedup invariants over a merged report: evidence-backed
/// verdicts cite strictly increasing record high-waters, blind
/// verdicts carry strictly increasing stream indices, and no `(choice
/// point, time)` pair is delivered twice.
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
fn chaos_plan_is_deterministic_and_loses_only_inside_reported_windows() {
    const VICTIMS: u32 = 4;
    let stream = victim_stream(VICTIMS);
    let horizon = Duration::from_micros(stream.last().unwrap().0.micros());
    let plan = ShardFaultPlan::generate(0xC4A05, 3.0, 4, horizon);
    assert!(!plan.is_empty());

    let faulted = run_fleet(fleet_cfg(4), &stream, Some(&plan));
    assert!(faulted.stats.kills >= 1, "plan must exercise the kill path");
    assert!(faulted.stats.restarts >= 1);
    assert!(!faulted.loss_windows.is_empty());

    // Byte-determinism: a rerun of the same plan matches exactly.
    let again = run_fleet(fleet_cfg(4), &stream, Some(&plan));
    assert_eq!(faulted.verdicts, again.verdicts);
    assert_eq!(faulted.loss_windows, again.loss_windows);
    assert_eq!(faulted.stats, again.stats);

    assert_zero_duplicates(&faulted);

    // Bounded loss: every divergence from the fault-free run must sit
    // inside a reported loss window's influence region for that
    // victim (the same margin the single-decoder crash-gap test uses).
    let clean = run_fleet(fleet_cfg(4), &stream, None);
    let clean_by = by_victim(&clean);
    let faulted_by = by_victim(&faulted);
    let margin = {
        let wcfg = Duration::from_secs_f64(10.0 / TS as f64);
        Duration(wcfg.micros() * 4)
    };
    let in_window = |victim: u32, t: SimTime| {
        faulted.loss_windows.iter().any(|w| {
            w.victim == victim
                && t.micros() + margin.micros() >= w.from.micros()
                && t.micros() <= w.to.micros() + margin.micros()
        })
    };
    for v in 0..VICTIMS {
        let clean_v = clean_by.get(&v).cloned().unwrap_or_default();
        let faulted_v = faulted_by.get(&v).cloned().unwrap_or_default();
        for c in &clean_v {
            if !faulted_v.iter().any(|f| f.choice == c.choice) {
                assert!(
                    in_window(v, c.choice.time),
                    "victim {v}: lost verdict at {} µs outside every reported window",
                    c.choice.time.micros()
                );
            }
        }
        for f in &faulted_v {
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

#[test]
fn torn_checkpoint_falls_back_to_previous_good_blob() {
    let stream = victim_stream(1);
    let end = stream.last().unwrap().0.micros();
    // Size the cadence off the session so several checkpoints land
    // before the kill regardless of the sim's pacing.
    let cadence = (end / 8).max(1);
    let mut cfg = fleet_cfg(1);
    cfg.checkpoint_every = Duration::from_micros(cadence);
    // Checkpoint ticks fire on the first packet at or past a cadence
    // boundary. Anchor the faults to the actual stream: tear the
    // checkpoint written at the 5th boundary's trigger packet, then
    // kill right after it — the supervisor must reject the torn
    // latest blob and restore from the previous good one.
    let boundary = cadence * 5;
    let trigger = stream
        .iter()
        .map(|(t, _, _)| t.micros())
        .find(|&t| t >= boundary)
        .expect("a packet past the 5th cadence boundary");
    let plan = ShardFaultPlan::from_events(vec![
        ShardFault {
            at: SimTime(boundary),
            shard: 0,
            kind: ShardFaultKind::CheckpointTorn,
        },
        ShardFault {
            at: SimTime(trigger + 1),
            shard: 0,
            kind: ShardFaultKind::Kill,
        },
    ])
    .expect("plan events are time-ordered");
    let report = run_fleet(cfg.clone(), &stream, Some(&plan));
    assert_eq!(report.stats.kills, 1);
    assert_eq!(report.stats.restarts, 1);
    assert_eq!(
        report.stats.checkpoints_rejected, 1,
        "a torn blob can never parse; it must be rejected"
    );
    assert_eq!(
        report.stats.cold_starts, 0,
        "the previous good checkpoint must carry the restore"
    );
    assert!(!report.verdicts.is_empty());
    assert_zero_duplicates(&report);
    let again = run_fleet(cfg, &stream, Some(&plan));
    assert_eq!(report.verdicts, again.verdicts);
    assert_eq!(report.stats, again.stats);
}

#[test]
fn damaged_shard_blobs_are_rejected_naming_the_shard() {
    // A real multi-victim shard blob, taken mid-stream: every proper
    // prefix and every single-bit flip must fail to restore, with the
    // error attributed to the slot the restore ran for.
    let clf = trained_classifier();
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    let stream = victim_stream(3);
    let mut shard = ShardState::new(4, clf.clone(), graph.clone(), cfg.clone());
    let mut out = Vec::new();
    for (t, v, frame) in &stream[..stream.len() / 2] {
        shard.feed(*v, *t, frame, 64, &mut out);
    }
    let live = shard.live_victim_count();
    assert!(live >= 2, "the blob must carry several victims");
    let blob = shard.checkpoint(SimTime(1));
    let restore = |bytes: &[u8]| {
        ShardState::restore(7, bytes, clf.clone(), graph.clone(), cfg.clone())
            .map(|s| s.live_victim_count())
    };
    assert_eq!(restore(&blob), Ok(live));
    let mut damaged = blob.clone();
    for i in 0..blob.len() * 8 {
        damaged[i / 8] ^= 1 << (i % 8);
        match restore(&damaged) {
            Err(e) => {
                assert_eq!(e.shard, 7, "flip {i} attributed to the wrong slot");
                assert!(matches!(e.kind, ShardRestoreErrorKind::Envelope(_)));
            }
            Ok(_) => panic!("flipping bit {i} of the shard blob restored"),
        }
        damaged[i / 8] ^= 1 << (i % 8);
    }
    for torn in 0..blob.len() {
        assert_eq!(
            restore(&blob[..torn]).map_err(|e| e.shard),
            Err(7),
            "torn at {torn}"
        );
    }
}

#[test]
fn overlapping_taps_add_no_duplicate_verdicts() {
    const VICTIMS: u32 = 3;
    let stream = victim_stream(VICTIMS);
    let baseline = run_fleet(fleet_cfg(2), &stream, None);

    // Two taps with overlapping visibility: A sees the first two
    // thirds, B the last two thirds; the middle third arrives twice.
    let third = stream.len() / 3;
    let tap_a: Vec<TapPacket> = stream[..third * 2].to_vec();
    let tap_b: Vec<TapPacket> = stream[third..].to_vec();
    let merged = merge_taps(&[tap_a, tap_b]);
    assert!(
        merged.len() > stream.len(),
        "the overlap must duplicate packets"
    );

    let dual = run_fleet(fleet_cfg(2), &merged, None);
    assert_eq!(
        by_victim(&dual),
        by_victim(&baseline),
        "overlapping taps changed the merged verdict stream"
    );
    assert_zero_duplicates(&dual);

    // Full duplication (two identical taps) is the worst case.
    let twin = merge_taps(&[stream.clone(), stream.clone()]);
    let doubled = run_fleet(fleet_cfg(2), &twin, None);
    assert_eq!(by_victim(&doubled), by_victim(&baseline));
    assert_zero_duplicates(&doubled);
}
