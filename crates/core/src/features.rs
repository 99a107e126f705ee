//! Feature extraction: from a raw capture to client record lengths.

use std::collections::BTreeMap;

use crate::online::bounded::Batch;
use crate::online::ingest::{is_upstream, FlowIngest};
use wm_capture::headers::parse_frame_lossy;
use wm_capture::records::{ExtractStats, TimedRecord};
use wm_capture::tap::Trace;
use wm_capture::time::SimTime;
use wm_capture::ContentType;

/// The eavesdropper's working set for one session.
#[derive(Debug, Clone, Default)]
pub struct ClientFeatures {
    /// Client→server application-data records, in stream order.
    pub records: Vec<TimedRecord>,
    /// Extraction bookkeeping (gaps, resyncs) for the upstream side.
    pub stats: ExtractStats,
    /// Capture timestamps where an upstream reassembly gap resumed
    /// (tap blind spans), merged across flows in time order.
    pub gap_times: Vec<SimTime>,
    /// Distinct TCP flows in the capture (>1 means the client
    /// reconnected mid-session).
    pub flows: usize,
}

/// Extract the client-side application-data records from a capture.
///
/// The paper's observable is exactly this: "SSL record lengths of
/// client packets". Each upstream flow runs through its own
/// [`FlowIngest`] in capture order, then [`FlowIngest::finish`]: with the
/// whole capture in hand, no hole is declared by age. Flows merge in
/// time order.
pub fn client_app_records(trace: &Trace) -> ClientFeatures {
    let mut flows: BTreeMap<_, FlowIngest> = BTreeMap::new();
    let (mut records, mut gaps) = (Batch::new(), Batch::new());
    for p in &trace.packets {
        if let Some((flow, tcp, payload, _)) = parse_frame_lossy(&p.frame) {
            if is_upstream(&flow, payload) {
                let ingest = flows.entry(flow).or_default();
                ingest.accept_segment(p.time, tcp.seq, payload, &mut records, &mut gaps);
            }
        }
    }
    let mut out = ClientFeatures::default();
    for ingest in flows.values_mut() {
        ingest.finish(&mut records, &mut gaps);
        let stats = ingest.stats();
        out.stats.records += stats.records as usize;
        out.stats.gaps += stats.gaps as usize;
        out.stats.resyncs += stats.resyncs as usize;
        out.stats.skipped_bytes += stats.skipped_bytes;
    }
    out.flows = flows.len();
    out.records = records.into_vec();
    out.records
        .retain(|r| r.record.content_type == ContentType::ApplicationData);
    out.records
        .sort_by_key(|r| (r.time, r.record.stream_offset));
    out.gap_times = gaps.into_vec().iter().map(|g| g.resume_time).collect();
    out.gap_times.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wm_capture::time::Duration;
    use wm_sim::{run_session, SessionConfig};
    use wm_story::bandersnatch::tiny_film;
    use wm_story::Choice;
    use wm_story::ViewerScript;

    #[test]
    fn extracts_client_records_from_session() {
        let graph = Arc::new(tiny_film());
        let script = ViewerScript::from_choices(
            &[Choice::NonDefault, Choice::Default, Choice::Default],
            Duration::from_millis(900),
        );
        let out = run_session(&SessionConfig::fast(graph, 21, script)).unwrap();
        let features = client_app_records(&out.trace);
        assert!(features.records.len() > 5);
        assert!(
            features.stats.records > features.records.len(),
            "handshake records seen"
        );
        // Record stream is time-ordered.
        for w in features.records.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // The labelled state posts appear among the extracted lengths.
        let labelled_t1: Vec<u16> = out
            .labels
            .iter()
            .filter(|l| l.class == wm_capture::RecordClass::Type1)
            .map(|l| l.length)
            .collect();
        for len in labelled_t1 {
            assert!(
                features.records.iter().any(|r| r.record.length == len),
                "labelled type-1 length {len} missing from extraction"
            );
        }
    }

    #[test]
    fn empty_trace_is_empty_features() {
        let features = client_app_records(&Trace::new());
        assert!(features.records.is_empty());
        assert_eq!(features.stats.records, 0);
    }
}
