//! The end-to-end White Mirror attack.
//!
//! Train once per operating condition on labelled sessions (as the
//! authors did with their controlled captures), then point it at raw
//! pcaps: it reassembles flows, reads record lengths, classifies the
//! state reports and walks the story graph back to the viewer's
//! choices.

use crate::classify::{IntervalClassifier, RecordClassifier};
use crate::decode::{ChoiceDecoder, DecodedChoice, DecoderConfig};
use crate::features::{client_app_records, ClientFeatures};
use crate::metrics::{choice_accuracy, ChoiceAccuracy, ConfusionMatrix};
use crate::provenance::ChoiceProvenance;
use std::sync::Arc;
use wm_capture::labels::LabeledRecord;
use wm_capture::tap::Trace;
use wm_story::{Choice, ChoicePointId, StoryGraph};
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Histogram, Registry};

/// Attack configuration. The attack always runs the time-aware path
/// decoder at its beam width, so its one setting is the time scale.
#[derive(Debug, Clone)]
pub struct WhiteMirrorConfig {
    /// The time scale the session was simulated at (1 for real time).
    pub time_scale: u32,
}

impl WhiteMirrorConfig {
    /// Band slack covering the report-length jitter that a finite
    /// training set may not have exhibited: type-2 reports vary by up
    /// to the selection-label length (~13 bytes) around the training
    /// span, while the nearest "others" mass ends ~190 bytes below the
    /// type-2 band — so ±8 widens safely.
    pub const DEFAULT_SLACK: u16 = 8;

    /// Hypotheses the path decoder tracks jointly (1 = greedy
    /// decoding; wider survives corrupted reports without cascading —
    /// see `crate::decode`).
    const BEAM_WIDTH: usize = 8;

    /// Defaults for a session simulated at `time_scale`.
    pub fn scaled(time_scale: u32) -> Self {
        WhiteMirrorConfig {
            time_scale: time_scale.max(1),
        }
    }
}

/// A decoded session.
#[derive(Debug, Clone)]
pub struct DecodedSession {
    pub choices: Vec<DecodedChoice>,
    /// Per-choice evidence, parallel to `choices`: the captured records
    /// each decision was read off, its confidence tier, and gap
    /// proximity (see `crate::provenance`).
    pub provenance: Vec<ChoiceProvenance>,
    /// Extraction statistics (gaps/resyncs observed in the capture).
    pub features: ClientFeatures,
}

impl DecodedSession {
    /// Compact "DNND…" string.
    pub fn choice_string(&self) -> String {
        self.choices.iter().map(|d| d.choice.letter()).collect()
    }

    /// Mean per-choice confidence (1.0 when every report was observed
    /// on an intact capture; degrades before correctness does as faults
    /// mount). An empty choice list — a graph with no choice points, or
    /// a decode that produced nothing — reports 0.0, never NaN: there
    /// is no evidence to be confident about.
    pub fn mean_confidence(&self) -> f64 {
        if self.choices.is_empty() {
            return 0.0;
        }
        self.choices.iter().map(|d| d.confidence).sum::<f64>() / self.choices.len() as f64
    }

    /// Multi-line "why" report: one line of evidence per decision.
    pub fn why_report(&self) -> String {
        self.choices
            .iter()
            .zip(&self.provenance)
            .map(|(d, p)| p.why(d))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Attack-side telemetry handles (see `wm-telemetry`): the decode's
/// wall-clock timing plus per-class record counts as seen by the
/// trained classifier.
pub struct AttackTelemetry {
    decode_ns: Arc<Histogram>,
    sessions_decoded: Arc<Counter>,
    /// `core.records.{type1,type2,other}`, in `RecordClass::ALL` order.
    records: [Arc<Counter>; 3],
}

impl AttackTelemetry {
    /// Register the attack's metrics under `core.*`.
    pub fn register(registry: &Registry) -> Self {
        AttackTelemetry {
            decode_ns: registry.histogram("core.decode_ns"),
            sessions_decoded: registry.counter("core.sessions_decoded"),
            records: ["type1", "type2", "other"]
                .map(|class| registry.counter(&format!("core.records.{class}"))),
        }
    }
}

/// The trained attack.
pub struct WhiteMirror {
    classifier: IntervalClassifier,
    cfg: WhiteMirrorConfig,
    telemetry: Option<AttackTelemetry>,
    trace: Option<(TraceHandle, SpanId)>,
}

impl WhiteMirror {
    /// Train the record classifier from labelled records (training
    /// sessions under the same operating condition).
    ///
    /// Returns `None` when the training data lacks report examples.
    pub fn train(labels: &[LabeledRecord], cfg: WhiteMirrorConfig) -> Option<Self> {
        let classifier = IntervalClassifier::train(labels, WhiteMirrorConfig::DEFAULT_SLACK)?;
        Some(WhiteMirror {
            classifier,
            cfg,
            telemetry: None,
            trace: None,
        })
    }

    /// Attach telemetry handles (observation only; decode output is
    /// unchanged). Counter values are seed-deterministic; the `*_ns`
    /// timing histograms are wall-clock and are not.
    pub fn set_telemetry(&mut self, telemetry: AttackTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Attach a causal trace sink: each decode opens an `attack.decode`
    /// span under `span` and emits one `attack.choice` instant per
    /// decision, stamped with the capture's sim times (observation
    /// only; decode output is unchanged).
    pub fn set_trace(&mut self, handle: TraceHandle, span: SpanId) {
        self.trace = Some((handle, span));
    }

    /// The learned classifier.
    pub fn classifier(&self) -> &IntervalClassifier {
        &self.classifier
    }

    /// Persist the trained model to a JSON file.
    pub fn save_model(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, wm_json::to_pretty_bytes(&self.classifier.to_json()))
    }

    /// Load a trained model from a JSON file.
    // wm-lint: parse-root
    pub fn load_model(path: &std::path::Path, cfg: WhiteMirrorConfig) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        let doc = wm_json::parse(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let classifier = IntervalClassifier::from_json(&doc)
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "model schema"))?;
        Ok(WhiteMirror {
            classifier,
            cfg,
            telemetry: None,
            trace: None,
        })
    }

    /// Decode the viewer's choices from a raw capture: the path decoder
    /// at the beam width, each decision resolved into its graded choice
    /// and provenance, and (when attached) telemetry and trace emission.
    // wm-lint: parse-root
    pub fn decode_trace(&self, trace: &Trace, graph: &StoryGraph) -> DecodedSession {
        let features = client_app_records(trace);
        let _span = self.telemetry.as_ref().map(|t| t.decode_ns.span());
        let cfg = DecoderConfig::scaled(self.cfg.time_scale);
        let decoder =
            ChoiceDecoder::new(&self.classifier, graph, cfg, WhiteMirrorConfig::BEAM_WIDTH);
        let (choices, provenance, classes) = decoder.decode_with_provenance(&features);
        if let Some(t) = &self.telemetry {
            for (counter, n) in t.records.iter().zip(classes) {
                counter.add(n);
            }
            t.sessions_decoded.inc();
        }
        if let Some((h, parent)) = &self.trace {
            let start = features.records.first().map_or(0, |r| r.time.micros());
            let end = choices
                .iter()
                .map(|d| d.time.micros())
                .chain(features.records.last().map(|r| r.time.micros()))
                .max()
                .unwrap_or(start);
            let span = h.span_start_at(start, "attack.decode", *parent);
            for (d, p) in choices.iter().zip(&provenance) {
                // a = choice point id; b packs the pick bit above the
                // evidence-record count.
                h.instant_at(
                    d.time.micros(),
                    span,
                    "attack.choice",
                    d.cp.0 as u64,
                    (((d.choice == Choice::NonDefault) as u64) << 8) | p.records.len() as u64,
                );
            }
            h.span_end_at(end, span, "attack.decode");
        }
        DecodedSession {
            choices,
            provenance,
            features,
        }
    }

    /// Decode and score against ground truth.
    pub fn evaluate(
        &self,
        trace: &Trace,
        graph: &StoryGraph,
        truth: &[(ChoicePointId, Choice)],
    ) -> (DecodedSession, ChoiceAccuracy) {
        let decoded = self.decode_trace(trace, graph);
        let acc = choice_accuracy(&decoded.choices, truth);
        (decoded, acc)
    }

    /// Per-record confusion of the trained classifier on held-out
    /// labelled records.
    pub fn record_confusion(&self, labels: &[LabeledRecord]) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::default();
        for l in labels {
            m.record(l.class, self.classifier.classify(l.length));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wm_capture::labels::RecordClass;
    use wm_capture::time::Duration;
    use wm_sim::{run_session, SessionConfig};
    use wm_story::bandersnatch::{bandersnatch, tiny_film};
    use wm_story::ViewerScript;

    fn run(seed: u64, choices: &[Choice]) -> wm_sim::SessionOutput {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(choices, Duration::from_millis(900));
        run_session(&SessionConfig::fast(graph, seed, script)).unwrap()
    }

    #[test]
    fn end_to_end_tiny_film() {
        // Train on one session, attack another.
        let train = run(
            100,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(20)).unwrap();

        let victim = run(
            200,
            &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
        );
        let graph = tiny_film();
        let (decoded, acc) = attack.evaluate(&victim.trace, &graph, &victim.decisions);
        assert_eq!(
            decoded.choice_string(),
            "DNN",
            "decoded {:?}",
            decoded.choices
        );
        assert_eq!(acc.accuracy(), 1.0);
    }

    #[test]
    fn end_to_end_bandersnatch() {
        let graph = Arc::new(bandersnatch());
        let train_script = ViewerScript::sample(300, 14, 0.5);
        let mut cfg = SessionConfig::fast(graph.clone(), 300, train_script);
        cfg.player.time_scale = 40;
        let train = run_session(&cfg).unwrap();
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(40)).unwrap();

        let victim_script = ViewerScript::sample(301, 14, 0.5);
        let mut vcfg = SessionConfig::fast(graph.clone(), 301, victim_script);
        vcfg.player.time_scale = 40;
        let victim = run_session(&vcfg).unwrap();
        let (decoded, acc) = attack.evaluate(&victim.trace, &graph, &victim.decisions);
        assert!(
            acc.accuracy() >= 0.9,
            "accuracy {} (decoded {}, truth {})",
            acc.accuracy(),
            decoded.choice_string(),
            victim
                .decisions
                .iter()
                .map(|(_, c)| if *c == Choice::Default { 'D' } else { 'N' })
                .collect::<String>()
        );
    }

    #[test]
    fn tap_gap_downgrades_confidence() {
        let train = run(
            100,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(20)).unwrap();
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
            Duration::from_millis(900),
        );
        let mut cfg = SessionConfig::fast(graph.clone(), 200, script);
        let mut plan = wm_chaos::FaultPlan::none();
        plan.push(
            wm_capture::time::SimTime(400_000),
            wm_chaos::FaultKind::TapGap {
                duration: Duration::from_millis(300),
            },
        );
        cfg.chaos = plan;
        let victim = run_session(&cfg).unwrap();
        assert!(victim.stats.tap_frames_dropped > 0);
        let decoded = attack.decode_trace(&victim.trace, &graph);
        assert!(
            decoded.features.stats.gaps > 0,
            "the blind span must surface as a reassembly gap"
        );
        assert!(!decoded.features.gap_times.is_empty());
        assert!(
            decoded.mean_confidence() < 1.0,
            "gap must downgrade confidence (got {})",
            decoded.mean_confidence()
        );
        // Degradation is graceful: the full choice sequence still comes
        // out, each with an explicit confidence.
        assert_eq!(decoded.choices.len(), victim.decisions.len());
        assert!(decoded
            .choices
            .iter()
            .all(|d| d.confidence > 0.0 && d.confidence <= 1.0));
    }

    #[test]
    fn empty_session_confidence_is_defined() {
        // A session with no decoded choices must never produce NaN:
        // mean_confidence is 0.0.
        let empty = DecodedSession {
            choices: Vec::new(),
            provenance: Vec::new(),
            features: ClientFeatures::default(),
        };
        assert_eq!(empty.mean_confidence(), 0.0);
        assert_eq!(empty.choice_string(), "");
        // A non-empty session's mean is a finite confidence.
        let train = run(
            100,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(20)).unwrap();
        let victim = run(
            200,
            &[Choice::Default, Choice::NonDefault, Choice::NonDefault],
        );
        let decoded = attack.decode_trace(&victim.trace, &tiny_film());
        assert!((0.0..=1.0).contains(&decoded.mean_confidence()));
    }

    #[test]
    fn training_requires_report_examples() {
        let labels = vec![LabeledRecord {
            time: wm_capture::time::SimTime::ZERO,
            length: 500,
            class: RecordClass::Other,
        }];
        assert!(WhiteMirror::train(&labels, WhiteMirrorConfig::scaled(1)).is_none());
    }

    #[test]
    fn model_save_load_roundtrip() {
        let train = run(
            500,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(20)).unwrap();
        let dir = std::env::temp_dir().join(format!("wm_model_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bands.json");
        attack.save_model(&path).unwrap();
        let loaded = WhiteMirror::load_model(&path, WhiteMirrorConfig::scaled(20)).unwrap();
        assert_eq!(loaded.classifier().type1, attack.classifier().type1);
        assert_eq!(loaded.classifier().type2, attack.classifier().type2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_confusion_on_heldout() {
        let train = run(
            400,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(20)).unwrap();
        let heldout = run(401, &[Choice::Default, Choice::NonDefault, Choice::Default]);
        let m = attack.record_confusion(&heldout.labels);
        assert!(m.total() > 10);
        assert!(m.accuracy() > 0.95, "record accuracy {}", m.accuracy());
        assert_eq!(m.recall(RecordClass::Type1), 1.0);
    }
}
