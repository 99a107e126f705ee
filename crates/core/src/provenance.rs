//! Decode provenance: which captured records produced each decision.
//!
//! Every decoded choice carries a [`ChoiceProvenance`] naming the
//! captured TLS records (by index into the capture's application
//! records, with their times and lengths) that the decoder leaned on,
//! the matched JSON report type, a confidence tier and whether a capture
//! gap sat near the choice window. The attack's output stops being a
//! bare "DNND…" string: an analyst can ask *why* the pipeline decoded
//! each decision and get the wire evidence back.
//!
//! The evidence is the path decoder's own: `resolve` turns each
//! [`Decision`] into its graded choice and the records it rests on. The
//! offline attack and the streaming decoder both call it, so offline
//! provenance, `why_report` and the fleet's dedup marks cite one
//! numbering.

use crate::decode::{Decision, DecodedChoice, CONFIDENCE_BLIND};
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
    /// Index into the capture's application records
    /// ([`crate::ClientFeatures::records`] offline).
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

/// Resolve one of the path decoder's decisions into the choice it
/// reports and the evidence behind it — the one grading and citation
/// rule of the offline attack and the streaming decoder.
///
/// Grading: when a capture gap in `gaps` lies within `window` of the
/// question, the confidence is discounted by [`GAP_CONFIDENCE_FACTOR`].
///
/// Citation: the decision's type-1 report, then its type-2 report; a
/// decision that rests on neither cites the `candidates` record (index,
/// time, length) nearest its question time as its timing anchor, the
/// earlier on a tie. So [`ChoiceProvenance::records`] holds at most two
/// entries: a type-1 and a type-2 report, or one anchor.
pub(crate) fn resolve(
    d: &Decision,
    gaps: impl IntoIterator<Item = SimTime>,
    window: Duration,
    candidates: impl IntoIterator<Item = (u64, SimTime, u16)>,
) -> (DecodedChoice, ChoiceProvenance) {
    let mut choice = d.choice;
    let (tier, near_gap) = grade(&mut choice, gaps, window);
    let mut records = Vec::with_capacity(2);
    for (ev, role) in [
        (d.type1, RecordRole::Type1Report),
        (d.type2, RecordRole::Type2Report),
    ] {
        if let Some(ev) = ev {
            records.push(cite((ev.index, ev.time, ev.length), role));
        }
    }
    if records.is_empty() {
        // `min_by_key` keeps the first of equally near candidates.
        let t = choice.time.micros();
        let nearest = candidates
            .into_iter()
            .min_by_key(|&(_, time, _)| time.micros().abs_diff(t));
        records.extend(nearest.map(|c| cite(c, RecordRole::Anchor)));
    }
    let provenance = ChoiceProvenance {
        records,
        tier,
        near_gap,
    };
    (choice, provenance)
}

fn cite((index, time, length): (u64, SimTime, u16), role: RecordRole) -> ProvenanceRecord {
    ProvenanceRecord {
        index: index as usize,
        time,
        length,
        role,
    }
}

/// Discount `d`'s confidence when a gap lies within `window` of its
/// question. Returns its evidence tier and whether a gap was near.
fn grade(
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
    fn timing_only_decision_cites_the_earlier_of_two_equidistant_records() {
        // Forty application records a second apart; the question falls
        // half-way between records 35 and 36.
        let records: Vec<(u64, SimTime, u16)> = (0u64..40)
            .map(|i| (i, SimTime(i * 1_000_000), 500 + i as u16))
            .collect();
        let d = Decision {
            choice: DecodedChoice {
                cp: wm_story::ChoicePointId(3),
                choice: Choice::Default,
                time: SimTime(35_500_000),
                observed: false,
                confidence: crate::decode::CONFIDENCE_INFERRED,
            },
            type1: None,
            type2: None,
        };
        let window = Duration::from_secs_f64(0.25);
        // The whole capture (offline) and a ring-sized suffix of it (the
        // streaming decoder's recent records) cite the same record.
        for candidates in [&records[..], &records[records.len() - 32..]] {
            let (choice, p) = resolve(&d, [], window, candidates.iter().copied());
            assert_eq!(choice, d.choice);
            assert_eq!(p.tier, ConfidenceTier::Inferred);
            let anchor = ProvenanceRecord {
                index: 35,
                time: SimTime(35_000_000),
                length: 535,
                role: RecordRole::Anchor,
            };
            assert_eq!(p.records, [anchor], "{} candidates", candidates.len());
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
