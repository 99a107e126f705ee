//! E8: the paper's robustness claim ("the identified side-channel holds
//! for various operational and behavioral conditions") swept across the
//! full operational grid, plus ablations of the design choices
//! DESIGN.md calls out:
//!
//! * classifier family (interval bands vs histogram-Bayes vs kNN);
//! * decoder (naive event decoder vs greedy time-aware vs beam);
//! * TLS suite (AEAD vs CBC length quantization).
//!
//! ```sh
//! cargo run --release -p wm-bench --bin robustness_sweep
//! ```

use std::sync::Arc;
use wm_bench::{
    graph, publish, run_viewer, train_attack_for, viewer, viewer_cfg, TraceTally, TIME_SCALE,
};
use wm_core::classify::{HistogramClassifier, KnnClassifier, RecordClassifier};
use wm_core::{
    choice_accuracy, client_app_records, ChoiceAccuracy, ChoiceDecoder, DecoderConfig,
    IntervalClassifier, WhiteMirrorConfig,
};
use wm_dataset::OperationalConditions;
use wm_net::conditions::{ConnectionType, TimeOfDay};
use wm_player::{Browser, DeviceForm, Os, Profile};
use wm_sim::run_session;
use wm_story::StoryGraph;
use wm_telemetry::Snapshot;
use wm_tls::CipherSuite;

const VICTIMS: u64 = 4;

fn main() {
    let graph = graph();
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let mut link_acc = ChoiceAccuracy::default();
    let mut platform_acc = ChoiceAccuracy::default();

    // ---- sweep 1: connection × time-of-day (fixed platform) -------------
    println!("=== E8a: link-condition sweep (Desktop/Firefox/Ubuntu) ===\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12}",
        "condition", "accuracy", "gaps/sess", "resyncs/sess"
    );
    for conn in ConnectionType::ALL {
        for tod in TimeOfDay::ALL {
            let cond = OperationalConditions {
                profile: Profile::ubuntu_firefox_desktop(),
                link: wm_net::conditions::LinkConditions::new(conn, tod),
            };
            let (attack, _) = train_attack_for(&graph, &cond, &[60_001, 60_002, 60_003]);
            let mut acc = ChoiceAccuracy::default();
            let mut gaps = 0usize;
            let mut resyncs = 0usize;
            for v in 0..VICTIMS {
                let seed = 61_000 + v;
                let out = run_viewer(&graph, &viewer(v as u32, seed, cond));
                telemetry.merge(&out.telemetry);
                tally.observe(&out.trace_events);
                let (decoded, a) = attack.evaluate(&out.trace, &graph, &out.decisions);
                gaps += decoded.features.stats.gaps;
                resyncs += decoded.features.stats.resyncs;
                acc.merge(&a);
                link_acc.merge(&a);
            }
            println!(
                "{:<22} {:>9.1}% {:>10.1} {:>12.1}",
                cond.link.label(),
                100.0 * acc.accuracy(),
                gaps as f64 / VICTIMS as f64,
                resyncs as f64 / VICTIMS as f64
            );
        }
    }

    // ---- sweep 2: platform grid (fixed link) ----------------------------
    println!("\n=== E8b: platform sweep (Ethernet/Morning) ===\n");
    println!("{:<28} {:>10}", "platform", "accuracy");
    for os in Os::ALL {
        for browser in Browser::ALL {
            let cond = OperationalConditions {
                profile: Profile::new(os, browser, DeviceForm::Desktop),
                link: wm_net::conditions::LinkConditions::new(
                    ConnectionType::Wired,
                    TimeOfDay::Morning,
                ),
            };
            let (attack, _) = train_attack_for(&graph, &cond, &[62_001, 62_002]);
            let mut acc = ChoiceAccuracy::default();
            for v in 0..VICTIMS {
                let seed = 63_000 + v;
                let out = run_viewer(&graph, &viewer(v as u32, seed, cond));
                telemetry.merge(&out.telemetry);
                tally.observe(&out.trace_events);
                let (_, a) = attack.evaluate(&out.trace, &graph, &out.decisions);
                acc.merge(&a);
                platform_acc.merge(&a);
            }
            println!(
                "{:<28} {:>9.1}%",
                cond.profile.label(),
                100.0 * acc.accuracy()
            );
        }
    }

    // ---- ablation: classifier family + decoder --------------------------
    println!("\n=== E8c: classifier × decoder ablation (worst link: WiFi/Night) ===\n");
    telemetry.merge(&ablation(&graph));

    // ---- suite ablation ---------------------------------------------------
    println!("\n=== E8d: cipher-suite ablation (Ethernet/Morning) ===\n");
    println!("{:<26} {:>10}", "suite", "accuracy");
    for suite in [CipherSuite::Aead, CipherSuite::Cbc] {
        let cond = OperationalConditions {
            profile: Profile::ubuntu_firefox_desktop(),
            link: wm_net::conditions::LinkConditions::new(
                ConnectionType::Wired,
                TimeOfDay::Morning,
            ),
        };
        let mut labels = Vec::new();
        for seed in [64_001u64, 64_002] {
            let mut cfg = viewer_cfg(&graph, &viewer(0, seed, cond));
            cfg.suite = suite;
            labels.extend(run_session(&cfg).expect("train").labels);
        }
        let attack = wm_core::WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(TIME_SCALE))
            .expect("train");
        let mut acc = ChoiceAccuracy::default();
        for v in 0..VICTIMS {
            let seed = 65_000 + v;
            let mut cfg = viewer_cfg(&graph, &viewer(0, seed, cond));
            cfg.suite = suite;
            let out = run_session(&cfg).expect("victim");
            telemetry.merge(&out.telemetry);
            tally.observe(&out.trace_events);
            let (_, a) = attack.evaluate(&out.trace, &graph, &out.decisions);
            acc.merge(&a);
        }
        println!("{:<26} {:>9.1}%", suite.label(), 100.0 * acc.accuracy());
    }
    println!("\nCBC quantizes record lengths to 16-byte blocks; the bands widen but stay");
    println!("disjoint, so the attack survives the suite family — as the paper's");
    println!("\"consistent across operating conditions\" observation implies.");

    let metrics = [
        ("link_sweep_accuracy", link_acc.accuracy()),
        ("platform_sweep_accuracy", platform_acc.accuracy()),
    ];
    let required = metrics.map(|(k, _)| k);
    publish("robustness_sweep", &metrics, &required, &telemetry, &tally);
}

fn ablation(graph: &Arc<StoryGraph>) -> Snapshot {
    let cond = OperationalConditions {
        profile: Profile::ubuntu_firefox_desktop(),
        link: wm_net::conditions::LinkConditions::new(ConnectionType::Wireless, TimeOfDay::Night),
    };
    // Shared training data.
    let mut labels = Vec::new();
    for seed in [66_001u64, 66_002, 66_003] {
        labels.extend(run_viewer(graph, &viewer(0, seed, cond)).labels);
    }
    let interval =
        IntervalClassifier::train(&labels, WhiteMirrorConfig::DEFAULT_SLACK).expect("train");
    let hist = HistogramClassifier::train(&labels, 8);
    let knn = KnnClassifier::train(&labels, 5);

    // Victims.
    let victims: Vec<_> = (0..VICTIMS)
        .map(|v| {
            let seed = 67_000 + v;
            run_viewer(graph, &viewer(0, seed, cond))
        })
        .collect();
    let telemetry = Snapshot::merged(victims.iter().map(|o| &o.telemetry));

    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "classifier", "naive", "time-aware", "beam(8)"
    );
    let rows: Vec<(&str, &dyn RecordClassifier)> = vec![
        ("interval (paper)", &interval),
        ("histogram-bayes", &hist),
        ("knn(k=5)", &knn),
    ];
    for (name, classifier) in rows {
        let mut naive = ChoiceAccuracy::default();
        let mut aware = ChoiceAccuracy::default();
        let mut beam = ChoiceAccuracy::default();
        for out in &victims {
            let features = client_app_records(&out.trace);
            let mut cfg = DecoderConfig::scaled(TIME_SCALE);
            cfg.time_aware = false;
            let d = ChoiceDecoder::new(classifier, graph, cfg, 1).decode(&features.records);
            naive.merge(&choice_accuracy(&d, &out.decisions));

            let cfg = DecoderConfig::scaled(TIME_SCALE);
            let d = ChoiceDecoder::new(classifier, graph, cfg.clone(), 1).decode(&features.records);
            aware.merge(&choice_accuracy(&d, &out.decisions));

            let d = ChoiceDecoder::new(classifier, graph, cfg, 8).decode(&features.records);
            beam.merge(&choice_accuracy(&d, &out.decisions));
        }
        println!(
            "{:<22} {:>11.1}% {:>11.1}% {:>11.1}%",
            name,
            100.0 * naive.accuracy(),
            100.0 * aware.accuracy(),
            100.0 * beam.accuracy()
        );
    }
    telemetry
}
