//! Decode provenance: which captured records produced each decision.
//!
//! Every decoded choice carries a [`ChoiceProvenance`] naming the
//! captured TLS records (by index into [`ClientFeatures::records`],
//! with their times and lengths) that the decoder leaned on, the
//! matched JSON report type, a confidence tier and whether a capture
//! gap sat near the choice window. The attack's output stops being a
//! bare "DNND…" string: an analyst can ask *why* the pipeline decoded
//! each decision and get the wire evidence back.

use crate::classify::RecordClassifier;
use crate::decode::{DecodedChoice, CONFIDENCE_BLIND};
use crate::features::ClientFeatures;
use wm_capture::labels::RecordClass;
use wm_capture::time::{Duration, SimTime};
use wm_story::Choice;

/// How a captured record contributed to a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordRole {
    /// Classified type-1 (question shown) matched at the decision time.
    Type1Report,
    /// Classified type-2 (non-default pick) inside the choice window.
    Type2Report,
    /// Nearest record to the predicted question time; the report
    /// itself was never observed (timing-only inference).
    Anchor,
}

impl RecordRole {
    pub fn label(&self) -> &'static str {
        match self {
            RecordRole::Type1Report => "type-1",
            RecordRole::Type2Report => "type-2",
            RecordRole::Anchor => "anchor",
        }
    }
}

/// One captured record cited as evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Index into [`ClientFeatures::records`].
    pub index: usize,
    /// Capture timestamp of the record.
    pub time: SimTime,
    /// TLS record length (the side-channel itself).
    pub length: u16,
    pub role: RecordRole,
}

/// Evidence tier of a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceTier {
    /// The type-1 report was on the wire.
    Observed,
    /// Inferred from segment timing; the report was lost.
    Inferred,
    /// The event stream ran out; graph-default fill.
    Blind,
}

impl ConfidenceTier {
    pub fn label(&self) -> &'static str {
        match self {
            ConfidenceTier::Observed => "observed",
            ConfidenceTier::Inferred => "inferred",
            ConfidenceTier::Blind => "blind",
        }
    }
}

/// Why one choice decoded the way it did.
#[derive(Debug, Clone, PartialEq)]
pub struct ChoiceProvenance {
    /// Evidence records, in capture order (non-empty whenever the
    /// capture contained any client application record).
    pub records: Vec<ProvenanceRecord>,
    pub tier: ConfidenceTier,
    /// A capture gap overlapped this decision's choice window, so the
    /// flipping report may have been missed.
    pub near_gap: bool,
}

impl ChoiceProvenance {
    /// One-line human-readable "why" for this decision.
    pub fn why(&self, d: &DecodedChoice) -> String {
        let pick = match d.choice {
            Choice::Default => "default",
            Choice::NonDefault => "non-default",
        };
        let mut s = format!(
            "cp{} → {pick} [{}] conf {:.2} @ {} µs",
            d.cp.0,
            self.tier.label(),
            d.confidence,
            d.time.micros()
        );
        for r in &self.records {
            s.push_str(&format!(
                "; {} record #{} len {} @ {} µs",
                r.role.label(),
                r.index,
                r.length,
                r.time.micros()
            ));
        }
        if self.near_gap {
            s.push_str("; capture gap near window");
        }
        s
    }
}

/// Confidence multiplier for a decision whose choice window overlaps a
/// capture gap: the tap may have missed the very report that would
/// flip the decision.
pub const GAP_CONFIDENCE_FACTOR: f64 = 0.5;

/// Grade one decision against the capture's gaps: when a gap lies
/// within `window` of its question, discount its confidence by
/// [`GAP_CONFIDENCE_FACTOR`]. Returns the decision's evidence tier and
/// whether a gap was near. The one grading rule of the offline attack,
/// its provenance and the streaming decoder.
pub fn grade(
    d: &mut DecodedChoice,
    gaps: impl IntoIterator<Item = SimTime>,
    window: Duration,
) -> (ConfidenceTier, bool) {
    let near_gap = gaps
        .into_iter()
        .any(|g| g + window >= d.time && g <= d.time + window);
    if near_gap {
        d.confidence *= GAP_CONFIDENCE_FACTOR;
    }
    let tier = if d.observed {
        ConfidenceTier::Observed
    } else if d.confidence > CONFIDENCE_BLIND {
        ConfidenceTier::Inferred
    } else {
        ConfidenceTier::Blind
    };
    (tier, near_gap)
}

/// Build per-choice provenance after decoding.
///
/// Pure post-hoc reconstruction over the same classified record stream
/// the decoder consumed, for `choices` as the decoder emitted them
/// (before [`grade`]): an observed decision cites its type-1 record
/// (exact time match) plus any type-2 inside the window; an inferred or
/// blind decision cites the record nearest its predicted question time
/// as the timing anchor.
pub fn build_provenance<C: RecordClassifier + ?Sized>(
    choices: &[DecodedChoice],
    features: &ClientFeatures,
    classifier: &C,
    window: Duration,
) -> Vec<ChoiceProvenance> {
    let classified: Vec<(usize, SimTime, u16, RecordClass)> = features
        .records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            (
                i,
                r.time,
                r.record.length,
                classifier.classify(r.record.length),
            )
        })
        .collect();

    choices
        .iter()
        .map(|d| {
            let (tier, near_gap) =
                grade(&mut d.clone(), features.gap_times.iter().copied(), window);
            let mut records = Vec::new();
            if d.observed {
                if let Some(&(i, t, len, _)) = classified
                    .iter()
                    .find(|(_, t, _, c)| *t == d.time && *c == RecordClass::Type1)
                {
                    records.push(ProvenanceRecord {
                        index: i,
                        time: t,
                        length: len,
                        role: RecordRole::Type1Report,
                    });
                }
            }
            if d.choice == Choice::NonDefault {
                if let Some(&(i, t, len, _)) = classified.iter().find(|(_, t, _, c)| {
                    *c == RecordClass::Type2 && *t >= d.time && t.since(d.time) <= window
                }) {
                    records.push(ProvenanceRecord {
                        index: i,
                        time: t,
                        length: len,
                        role: RecordRole::Type2Report,
                    });
                }
            }
            if records.is_empty() {
                // Timing-only decision: cite the nearest record as the
                // anchor the prediction hangs off.
                if let Some(&(i, t, len, _)) = classified
                    .iter()
                    .min_by_key(|(_, t, _, _)| t.micros().abs_diff(d.time.micros()))
                {
                    records.push(ProvenanceRecord {
                        index: i,
                        time: t,
                        length: len,
                        role: RecordRole::Anchor,
                    });
                }
            }
            ChoiceProvenance {
                records,
                tier,
                near_gap,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{WhiteMirror, WhiteMirrorConfig};
    use std::sync::Arc;
    use wm_sim::{run_session, SessionConfig};
    use wm_story::bandersnatch::tiny_film;
    use wm_story::ViewerScript;

    fn run(seed: u64, choices: &[Choice]) -> wm_sim::SessionOutput {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(choices, Duration::from_millis(900));
        run_session(&SessionConfig::fast(graph, seed, script)).unwrap()
    }

    #[test]
    fn every_choice_has_nonempty_provenance() {
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
        let decoded = attack.decode_trace(&victim.trace, &graph);
        assert_eq!(decoded.provenance.len(), decoded.choices.len());
        for (d, p) in decoded.choices.iter().zip(&decoded.provenance) {
            assert!(!p.records.is_empty(), "cp{} cites no records", d.cp.0);
            assert_eq!(p.tier, ConfidenceTier::Observed);
            assert!(!p.near_gap);
            // Cited indices resolve into the feature stream and agree
            // on time/length.
            for r in &p.records {
                let cited = &decoded.features.records[r.index];
                assert_eq!(cited.time, r.time);
                assert_eq!(cited.record.length, r.length);
            }
            if d.choice == Choice::NonDefault {
                assert!(
                    p.records.iter().any(|r| r.role == RecordRole::Type2Report),
                    "non-default pick must cite its type-2 record"
                );
            }
            let why = p.why(d);
            assert!(why.contains(&format!("cp{}", d.cp.0)));
        }
    }

    #[test]
    fn gap_sessions_mark_near_gap_provenance() {
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
            SimTime(400_000),
            wm_chaos::FaultKind::TapGap {
                duration: Duration::from_millis(300),
            },
        );
        cfg.chaos = plan;
        let victim = run_session(&cfg).unwrap();
        let decoded = attack.decode_trace(&victim.trace, &graph);
        assert!(
            decoded.provenance.iter().any(|p| p.near_gap),
            "the injected gap must surface in provenance"
        );
        // near_gap in provenance agrees with the confidence downgrade.
        for (d, p) in decoded.choices.iter().zip(&decoded.provenance) {
            if p.near_gap && p.tier == ConfidenceTier::Observed {
                assert!(d.confidence < 1.0);
            }
        }
    }

    #[test]
    fn empty_capture_cites_nothing() {
        // An empty capture decodes on timing alone: provenance exists
        // for every choice, with no records to cite.
        let train = run(
            100,
            &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        );
        let attack = WhiteMirror::train(&train.labels, WhiteMirrorConfig::scaled(20)).unwrap();
        let graph = tiny_film();
        let empty = wm_capture::tap::Trace::new();
        let decoded = attack.decode_trace(&empty, &graph);
        assert_eq!(decoded.provenance.len(), decoded.choices.len());
        for p in &decoded.provenance {
            assert_ne!(p.tier, ConfidenceTier::Observed);
            assert!(p.records.is_empty(), "nothing on the wire to cite");
        }
    }
}
