//! E5 / **§VI countermeasures**: the paper's proposed fixes (split the
//! JSON, compress it) plus constant-size padding, measured against
//! three attack variants:
//!
//! * the record-length decoder (the paper's attack);
//! * a burst-total decoder (groups split records and classifies the
//!   summed length — shows why splitting alone is cosmetic);
//! * the timing/count decoder (the residual channel of E6).
//!
//! ```sh
//! cargo run --release -p wm-bench --bin countermeasures
//! ```

use wm_bench::{graph, harness_cfg, publish, TraceTally, TIME_SCALE};
use wm_capture::records::TimedRecord;
use wm_core::baselines::TimingDecoder;
use wm_core::{
    choice_accuracy, client_app_records, AttackTelemetry, ChoiceAccuracy, DecodedChoice,
    WhiteMirror, WhiteMirrorConfig,
};
use wm_defense::Defense;
use wm_net::time::{Duration, SimTime};
use wm_player::ViewerScript;
use wm_sim::{run_session, SessionOutput};
use wm_story::Choice;
use wm_telemetry::{Registry, Snapshot};

const VICTIMS: u64 = 6;

fn main() {
    let graph = graph();
    let defenses = [
        Defense::None,
        Defense::Split { max: 700 },
        Defense::Compress,
        Defense::PadToConstant { size: 4096 },
        Defense::PadWithDummies { size: 4096 },
    ];

    println!("=== §VI countermeasures (E5): attack accuracy under each defense ===\n");
    println!(
        "{:<24} {:>14} {:>14} {:>14}",
        "defense", "length", "burst-total", "timing/count"
    );

    let attack_registry = Registry::new();
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    for defense in defenses {
        // Attacker retrains under the deployed defense.
        let mut train_labels = Vec::new();
        let mut train_sessions = Vec::new();
        for seed in [70_001u64, 70_002, 70_003] {
            let mut cfg = harness_cfg(&graph, seed, ViewerScript::sample(seed, 14, 0.5));
            cfg.defense = defense;
            let out = run_session(&cfg).expect("training session");
            telemetry.merge(&out.telemetry);
            tally.observe(&out.trace_events);
            train_labels.extend(out.labels.iter().copied());
            train_sessions.push(out);
        }
        let attack = WhiteMirror::train(&train_labels, WhiteMirrorConfig::scaled(TIME_SCALE)).map(
            |mut a| {
                a.set_telemetry(AttackTelemetry::register(&attack_registry));
                a
            },
        );
        let burst_bands = learn_burst_bands(&train_sessions);

        let mut length_acc = ChoiceAccuracy::default();
        let mut burst_acc = ChoiceAccuracy::default();
        let mut timing_acc = ChoiceAccuracy::default();
        let mut timing_outputs: Vec<Choice> = Vec::new();
        for v in 0..VICTIMS {
            let seed = 71_000 + v;
            let mut cfg = harness_cfg(&graph, seed, ViewerScript::sample(seed, 14, 0.45));
            cfg.defense = defense;
            let out = run_session(&cfg).expect("victim session");
            telemetry.merge(&out.telemetry);
            tally.observe(&out.trace_events);

            if let Some(a) = &attack {
                let (_, acc) = a.evaluate(&out.trace, &graph, &out.decisions);
                length_acc.merge(&acc);
            }
            burst_acc.merge(&choice_accuracy(
                &burst_total_decode(&out, &graph, burst_bands),
                &out.decisions,
            ));
            if defense.constant_size().is_some() {
                let picks = timing_decode(&out, defense);
                timing_outputs.extend(picks.iter().copied());
                timing_acc.merge(&score_positional(&picks, &out));
            }
        }

        println!(
            "{:<24} {:>14} {:>14} {:>14}",
            defense.label(),
            if attack.is_some() {
                format!("{:>6.1}%", 100.0 * length_acc.accuracy())
            } else {
                "no signature".into()
            },
            format!("{:>6.1}%", 100.0 * burst_acc.accuracy()),
            if defense.constant_size().is_some() {
                let constant = timing_outputs.windows(2).all(|w| w[0] == w[1]);
                if constant && timing_outputs.len() > 1 {
                    // Constant output extracts zero information; the
                    // score is just the class base rate.
                    format!("{:>5.1}%*", 100.0 * timing_acc.accuracy())
                } else {
                    format!("{:>6.1}%", 100.0 * timing_acc.accuracy())
                }
            } else {
                // Without a known constant post size, background
                // telemetry floods the count channel; E6 studies it.
                "—".into()
            },
        );
        let key: String = defense
            .label()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if attack.is_some() {
            metrics.push((format!("length_accuracy.{key}"), length_acc.accuracy()));
        }
        metrics.push((format!("burst_accuracy.{key}"), burst_acc.accuracy()));
        if defense.constant_size().is_some() {
            metrics.push((format!("timing_accuracy.{key}"), timing_acc.accuracy()));
        }
    }
    println!("\n* constant decoder output (every question shows two identical posts):");
    println!("  the score is the class base rate — zero information extracted.");
    println!("\npaper: \"an easy fix would be to either split the JSON file or to compress");
    println!("it … however, there could be timing side-channels that may still exist\".");
    println!("Measured: splitting only hides the per-record signature (burst totals leak);");
    println!("compression leaves distinct compressed sizes; padding kills lengths but the");
    println!("report count/timing still reveals the pick. Only padding combined with dummy");
    println!("second posts (this reproduction's extension) drives every channel to the");
    println!("all-default floor.");

    telemetry.merge(&attack_registry.snapshot());
    let required: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    publish("countermeasures", &metrics, &required, &telemetry, &tally);
}

/// Burst-total bands learned from training sessions. Split posts carry
/// no single-record labels, so bands are anchored on the *ground-truth
/// event times* the attacker has for their own controlled viewings: the
/// burst nearest each question is a type-1 total, the burst nearest
/// each non-default decision is a type-2 total.
const GAP_CONTENT_SECS: f64 = 0.5;

fn learn_burst_bands(sessions: &[SessionOutput]) -> ((u64, u64), (u64, u64)) {
    let tol = Duration::from_secs_f64(1.0 / TIME_SCALE as f64);
    let mut t1_totals: Vec<u64> = Vec::new();
    let mut t2_totals: Vec<u64> = Vec::new();
    for s in sessions {
        let features = client_app_records(&s.trace);
        let bursts = bursts_of(&features.records);
        let nearest = |t: wm_net::time::SimTime| -> Option<u64> {
            bursts
                .iter()
                .filter(|b| b.start + tol >= t && b.start.since(t) <= tol)
                .min_by_key(|b| b.start.since(t).micros().max(t.since(b.start).micros()))
                .map(|b| b.total)
        };
        for e in &s.truth {
            match e {
                wm_player::TruthEvent::QuestionShown { time, .. } => {
                    t1_totals.extend(nearest(*time));
                }
                wm_player::TruthEvent::Decision {
                    time,
                    type2_sent: true,
                    ..
                } => {
                    t2_totals.extend(nearest(*time));
                }
                _ => {}
            }
        }
    }
    (robust_band(&mut t1_totals), robust_band(&mut t2_totals))
}

/// Tight band around the median: report totals jitter by a few bytes,
/// while a burst that merged with concurrent telemetry jumps by 800+.
fn robust_band(totals: &mut [u64]) -> (u64, u64) {
    if totals.is_empty() {
        return (u64::MAX, 0);
    }
    totals.sort_unstable();
    let med = totals[totals.len() / 2];
    let kept: Vec<u64> = totals
        .iter()
        .copied()
        .filter(|&v| v + 200 >= med && v <= med + 200)
        .collect();
    (
        *kept.first().expect("median kept"),
        *kept.last().expect("median kept"),
    )
}

struct Burst {
    start: SimTime,
    end: SimTime,
    total: u64,
}

fn bursts_of(records: &[TimedRecord]) -> Vec<Burst> {
    let gap = Duration::from_secs_f64(GAP_CONTENT_SECS / TIME_SCALE as f64);
    let mut out: Vec<Burst> = Vec::new();
    for r in records {
        if r.record.length < 600 {
            // Chunk requests (~540 B) would otherwise merge into report
            // bursts nondeterministically; split-post remainders below
            // the cut are excluded *consistently*, so learned totals
            // stay tight.
            continue;
        }
        match out.last_mut() {
            Some(b) if r.time.since(b.end) <= gap => {
                b.total += r.record.length as u64;
                b.end = r.time;
            }
            _ => out.push(Burst {
                start: r.time,
                end: r.time,
                total: r.record.length as u64,
            }),
        }
    }
    out
}

/// Decode with burst totals, reusing the main attack machinery: each
/// burst becomes one pseudo-record whose length is the burst total, an
/// interval classifier carries the learned total bands, and the
/// graph-aware beam decoder does the sequencing (so a question whose
/// burst merged with telemetry degrades one decision, not the whole
/// tail).
fn burst_total_decode(
    out: &SessionOutput,
    graph: &wm_story::StoryGraph,
    bands: ((u64, u64), (u64, u64)),
) -> Vec<DecodedChoice> {
    let ((t1_lo, t1_hi), (t2_lo, t2_hi)) = bands;
    let features = client_app_records(&out.trace);
    let mut pseudo: Vec<TimedRecord> = Vec::new();
    // Playback-start markers so the decoder's absolute question-time
    // anchor (second app record = first chunk request) is correct —
    // bursts exclude the small manifest/chunk requests.
    for r in features.records.iter().take(2) {
        pseudo.push(TimedRecord {
            time: r.time,
            record: wm_tls::observer::ObservedRecord {
                stream_offset: 0,
                content_type: wm_tls::ContentType::ApplicationData,
                version: (3, 3),
                length: 700,
            },
        });
    }
    pseudo.extend(
        bursts_of(&features.records)
            .into_iter()
            .map(|b| TimedRecord {
                time: b.start,
                record: wm_tls::observer::ObservedRecord {
                    stream_offset: 0,
                    content_type: wm_tls::ContentType::ApplicationData,
                    version: (3, 3),
                    length: b.total.min(u16::MAX as u64) as u16,
                },
            }),
    );
    let classifier = wm_core::IntervalClassifier {
        type1: (
            t1_lo.min(u16::MAX as u64) as u16,
            t1_hi.min(u16::MAX as u64) as u16,
        ),
        type2: (
            t2_lo.min(u16::MAX as u64) as u16,
            t2_hi.min(u16::MAX as u64) as u16,
        ),
        slack: 10,
    };
    wm_core::ChoiceDecoder::new(
        &classifier,
        graph,
        wm_core::DecoderConfig::scaled(TIME_SCALE),
        8,
    )
    .decode(&pseudo)
}

fn timing_decode(out: &SessionOutput, defense: Defense) -> Vec<Choice> {
    let features = client_app_records(&out.trace);
    let exact_post_len = defense.constant_size().map(|size| size as u16 + 16);
    TimingDecoder::new(TIME_SCALE, exact_post_len)
        .decode(&features.records)
        .into_iter()
        .map(|e| e.choice)
        .collect()
}

/// Score a bare pick sequence positionally against the session truth.
fn score_positional(picks: &[Choice], out: &SessionOutput) -> ChoiceAccuracy {
    let decoded: Vec<DecodedChoice> = picks
        .iter()
        .zip(out.decisions.iter())
        .map(|(c, (cp, _))| DecodedChoice {
            cp: *cp,
            choice: *c,
            time: SimTime::ZERO,
            observed: true,
            confidence: 1.0,
        })
        .collect();
    choice_accuracy(&decoded, &out.decisions)
}
