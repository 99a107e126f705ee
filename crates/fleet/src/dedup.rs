//! Verdict dedup across shard restarts and overlapping taps.
//!
//! Two mechanisms can re-present evidence the fleet already reported:
//!
//! * **Shard restarts.** A restored decoder rolls back to its last
//!   checkpoint: its `emitted` counter and record numbering rewind, so
//!   verdicts it derives from evidence that was already consumed
//!   before the kill would reach the merge point a second time.
//! * **Overlapping taps.** Two taps with shared visibility deliver the
//!   same packets; packet-level dedup inside `FlowIngest` (earliest
//!   copy wins) absorbs almost all of it, but the merge stage still
//!   owes the *guarantee*.
//!
//! Per victim the stage keeps two high-water marks and a verdict must
//! clear **both** to be delivered:
//!
//! * the **verdict index** — the decision slot in the victim's walk.
//!   A rolled-back decoder re-emits slots the fleet already delivered;
//!   because the post-restore stream differs from the original (the
//!   dead window's packets are gone), the re-emission can cite record
//!   numbers past the old evidence mark, so the index check is the
//!   authoritative "this slot was already delivered" key.
//! * the **[`ChoiceProvenance`](wm_core::ChoiceProvenance) record
//!   indices** the verdict cites — a fresh-looking slot derived
//!   entirely from evidence at or below the record mark is a
//!   re-derivation (e.g. a cold-started decoder re-reading mid-stream)
//!   and is dropped. Blind verdicts cite nothing and are keyed by slot
//!   alone.
//!
//! Both checks only ever *drop*: the invariant is **zero duplicates,
//! bounded loss** — a fresh verdict can be sacrificed in the replayed
//! range right after a restart (that loss is inside the reported
//! recovery window), but a duplicate can never be delivered.
//!
//! State is two integers per victim, kept for the fleet's lifetime:
//! dedup memory grows with the number of victims that ever streamed
//! through the fleet, not with victim concurrency. The marks must
//! outlive the victim's decoder. A victim evicted for idleness comes
//! back to a cold decoder that restarts at slot 0, and only the
//! retained marks drop the slots it re-derives.

use std::collections::BTreeMap;
use wm_core::online::OnlineVerdict;

/// Per-victim dedup state: two high-water marks.
#[derive(Debug, Clone, Copy, Default)]
struct VictimMarks {
    /// Highest provenance record index any delivered verdict cited.
    record_hw: Option<usize>,
    /// Next verdict index expected from the victim's decoder stream.
    next_index: u64,
}

/// The merge-point dedup stage. See the module docs.
#[derive(Debug, Default)]
pub struct VerdictDedup {
    marks: BTreeMap<u32, VictimMarks>,
}

impl VerdictDedup {
    pub fn new() -> Self {
        VerdictDedup::default()
    }

    /// Decide one verdict for `victim`: `true` = deliver, `false` =
    /// duplicate (or unprovable non-duplicate in a replayed range),
    /// drop it.
    pub fn admit(&mut self, victim: u32, verdict: &OnlineVerdict) -> bool {
        let marks = self.marks.entry(victim).or_default();
        let cited_max = verdict.provenance.records.iter().map(|r| r.index).max();
        // The decision slot must be undelivered AND (for evidence-backed
        // verdicts) at least one cited record must lie past everything
        // already consumed. See the module docs for why both.
        let fresh = verdict.index >= marks.next_index
            && match (cited_max, marks.record_hw) {
                (Some(cited), Some(hw)) => cited > hw,
                _ => true,
            };
        if !fresh {
            return false;
        }
        if let Some(cited) = cited_max {
            marks.record_hw = Some(marks.record_hw.map_or(cited, |hw| hw.max(cited)));
        }
        marks.next_index = marks.next_index.max(verdict.index + 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_capture::time::SimTime;
    use wm_core::provenance::{ChoiceProvenance, ConfidenceTier, ProvenanceRecord, RecordRole};
    use wm_core::DecodedChoice;
    use wm_story::{Choice, ChoicePointId};

    fn verdict(index: u64, cited: &[usize]) -> OnlineVerdict {
        OnlineVerdict {
            index,
            choice: DecodedChoice {
                cp: ChoicePointId(0),
                choice: Choice::Default,
                time: SimTime(1_000 * index),
                observed: !cited.is_empty(),
                confidence: 1.0,
            },
            provenance: ChoiceProvenance {
                records: cited
                    .iter()
                    .map(|&i| ProvenanceRecord {
                        index: i,
                        time: SimTime(1_000 * index),
                        length: 900,
                        role: RecordRole::Type1Report,
                    })
                    .collect(),
                tier: if cited.is_empty() {
                    ConfidenceTier::Blind
                } else {
                    ConfidenceTier::Observed
                },
                near_gap: false,
            },
        }
    }

    #[test]
    fn replayed_evidence_is_dropped_fresh_evidence_is_kept() {
        let mut dedup = VerdictDedup::new();
        assert!(dedup.admit(1, &verdict(0, &[10, 11])));
        assert!(dedup.admit(1, &verdict(1, &[15, 16])));
        // Restarted shard re-derives a verdict from already-cited
        // records (indices rewound): duplicate.
        assert!(!dedup.admit(1, &verdict(0, &[10, 11])));
        assert!(!dedup.admit(1, &verdict(2, &[14, 16])));
        // New evidence past the high-water: delivered.
        assert!(dedup.admit(1, &verdict(2, &[17, 20])));
    }

    #[test]
    fn redelivered_slot_with_fresher_records_is_still_a_duplicate() {
        // After a rollback the post-restore stream differs from the
        // original, so a re-emitted decision slot can cite record
        // numbers past the evidence mark; the slot key must catch it.
        let mut dedup = VerdictDedup::new();
        assert!(dedup.admit(1, &verdict(0, &[4, 6])));
        assert!(dedup.admit(1, &verdict(1, &[9, 12])));
        assert!(
            !dedup.admit(1, &verdict(1, &[14, 19])),
            "slot 1 already delivered"
        );
        assert!(dedup.admit(1, &verdict(2, &[14, 19])), "next slot is fresh");
    }

    #[test]
    fn blind_verdicts_fall_back_to_stream_position() {
        let mut dedup = VerdictDedup::new();
        assert!(dedup.admit(4, &verdict(0, &[])));
        assert!(!dedup.admit(4, &verdict(0, &[])), "replayed blind index");
        assert!(dedup.admit(4, &verdict(1, &[])));
        // Victims are independent: the same slot and records are fresh
        // for another victim.
        assert!(dedup.admit(1, &verdict(0, &[5])));
        assert!(
            dedup.admit(2, &verdict(0, &[5])),
            "other victim, same indices"
        );
    }
}
