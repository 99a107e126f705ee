//! Cross-crate integration of the dataset pipeline: generate → run →
//! persist → reload → attack from disk, plus the behavioural-inference
//! chain.

use std::sync::Arc;
use white_mirror::behavior::infer_attributes;
use white_mirror::capture::Trace;
use white_mirror::core::choice_accuracy;
use white_mirror::dataset::{load_manifest, run_dataset, save_dataset, DatasetSpec, SimOptions};
use white_mirror::prelude::*;
use white_mirror::story::ChoiceSequence;

fn opts() -> SimOptions {
    SimOptions {
        media_scale: 1024,
        time_scale: 40,
        ..SimOptions::default()
    }
}

#[test]
fn full_pipeline_from_disk() {
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let spec = DatasetSpec::generate("pipeline-it", 8, 31_337);
    let records = run_dataset(&graph, &spec, &opts());

    let dir = std::env::temp_dir().join(format!("wm_it_dataset_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_dataset(&dir, "pipeline-it", &records).unwrap();

    // Reload everything from disk.
    let (loaded, truths) = load_manifest(&dir).unwrap();
    assert_eq!(loaded.viewers, spec.viewers);

    // Viewers come in platform blocks of six; this 8-viewer set has two
    // platforms. Train from the regenerated first session per block and
    // decode the rest from their pcap files.
    let mut decoded_total = 0;
    let mut correct_total = 0;
    for block in loaded.viewers.chunks(6) {
        let trainer = &block[0];
        let cfg = white_mirror::dataset::run::session_config(graph.clone(), trainer, &opts());
        let train = run_session(&cfg).unwrap();
        let Some(attack) =
            WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(opts().time_scale))
        else {
            continue;
        };
        for v in &block[1..] {
            let idx = v.id as usize;
            let trace = Trace::read_pcap_file(&dir.join("traces").join(&truths[idx].1)).unwrap();
            let decoded = attack.decode_trace(&trace, &graph);
            let truth_seq = ChoiceSequence::from_compact(&truths[idx].0).unwrap();
            let walk = story::path::walk(&graph, &truth_seq);
            let truth: Vec<_> = walk.encountered.into_iter().zip(walk.choices.0).collect();
            let acc = choice_accuracy(&decoded.choices, &truth);
            decoded_total += acc.total;
            correct_total += acc.correct;
        }
    }
    assert!(decoded_total > 0);
    let accuracy = correct_total as f64 / decoded_total as f64;
    assert!(
        accuracy >= 0.9,
        "from-disk decode accuracy {accuracy:.3} ({correct_total}/{decoded_total})"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inference_chain_runs_on_decoded_output() {
    // Smoke the decoded-choices → attribute-posterior chain (the deep
    // statistical checks live in wm-behavior's tests).
    let graph = Arc::new(story::bandersnatch::bandersnatch());
    let spec = DatasetSpec::generate("infer-it", 2, 99);
    let records = run_dataset(&graph, &spec, &opts());
    let train = &records[0];
    let attack = WhiteMirror::train(&train.output.labels, WhiteMirrorConfig::scaled(40));
    let Some(attack) = attack else {
        // A one-in-many chance the training script had no picks worth
        // reporting; regenerate deterministically would hide a bug, so
        // fail loudly instead.
        panic!("training session produced no state reports");
    };
    // Cross-platform: only decode the same-profile record if present.
    let victim = &records[1];
    if victim.spec.operational.profile == train.spec.operational.profile {
        let decoded = attack.decode_trace(&victim.output.trace, &graph);
        let pairs: Vec<_> = decoded.choices.iter().map(|d| (d.cp, d.choice)).collect();
        let posterior = infer_attributes(&graph, &pairs);
        let total: f64 = posterior.cells.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}

#[test]
fn manifest_is_pretty_and_parseable() {
    let graph = Arc::new(story::bandersnatch::tiny_film());
    let spec = DatasetSpec::generate("pretty-it", 2, 5);
    let records = run_dataset(
        &graph,
        &spec,
        &SimOptions {
            media_scale: 2048,
            time_scale: 20,
            ..SimOptions::default()
        },
    );
    let dir = std::env::temp_dir().join(format!("wm_it_pretty_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    save_dataset(&dir, "pretty-it", &records).unwrap();
    let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert!(
        text.contains("\n  \"viewers\": [\n"),
        "manifest is indented"
    );
    assert!(white_mirror::json::parse(text.as_bytes()).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}
