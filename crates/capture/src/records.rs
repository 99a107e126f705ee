//! TLS record extraction over a reassembled stream, with gap resync.
//!
//! The attacker's `FlowIngest` (`wm_core`) emits [`TimedRecord`]s and
//! resyncs with [`find_resync`]; [`extract_records`] is only its
//! whole-capture reference and the benchmark's capture probe.
//!
//! Within a contiguous chunk this is a straight run of the key-less
//! record parser from `wm-tls`. After a gap the stream usually resumes
//! mid-record, so the extractor *resynchronizes*: it scans forward for
//! an offset where a chain of plausible record headers parses, exactly
//! the heuristic a traffic analyst applies to lossy captures. Records
//! whose bytes were partly lost are dropped (and counted) rather than
//! misreported.

use crate::flow::StreamView;
use wm_net::time::SimTime;
use wm_tls::observer::ObservedRecord;
use wm_tls::record::{RecordHeader, RECORD_HEADER_LEN};

/// A record with the capture timestamp of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedRecord {
    pub time: SimTime,
    pub record: ObservedRecord,
}

/// Extraction bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractStats {
    /// Records successfully parsed.
    pub records: usize,
    /// Gaps encountered in the stream.
    pub gaps: usize,
    /// Gaps after which a valid header chain was found again.
    pub resyncs: usize,
    /// Bytes skipped while hunting for a resync point.
    pub skipped_bytes: u64,
}

/// The extractor's output.
#[derive(Debug, Clone, Default)]
pub struct Extraction {
    pub records: Vec<TimedRecord>,
    pub stats: ExtractStats,
    /// Capture timestamp at which each gap's post-gap chunk resumed
    /// (one entry per counted gap, in stream order). Downstream
    /// decoders use these to mark choice windows the tap was blind in.
    pub gap_times: Vec<SimTime>,
}

/// Minimum chained headers required to accept a resync offset (or one
/// full record that exactly exhausts the chunk).
const RESYNC_CHAIN: usize = 2;

/// Extract every parseable TLS record from one stream direction.
pub fn extract_records(view: &StreamView) -> Extraction {
    let mut out = Extraction::default();
    // Partial record spanning a chunk boundary. Consumed bytes are
    // tracked by the `head` cursor instead of drained per record: the
    // hot path is then append + parse with no per-record memmove, and
    // the buffer is compacted only when consumed bytes dominate, so
    // memory stays bounded by ~2x the live tail.
    let mut carry: Vec<u8> = Vec::new();
    let mut head: usize = 0;
    let mut carry_offset: u64 = 0;
    let mut prev_end: Option<u64> = None;

    for chunk in &view.chunks {
        let gap = match prev_end {
            Some(end) if chunk.start_offset > end => true,
            None => false,
            _ => false,
        };
        if gap {
            out.stats.gaps += 1;
            if let Some(t) = view.time_at(chunk.start_offset) {
                out.gap_times.push(t);
            }
            // The carried partial record can never complete.
            carry.clear();
            head = 0;
        }
        prev_end = Some(chunk.start_offset + chunk.data.len() as u64);

        if gap {
            // Resynchronize within this chunk.
            match find_resync(&chunk.data) {
                Some(skip) => {
                    out.stats.resyncs += 1;
                    out.stats.skipped_bytes += skip as u64;
                    carry_offset = chunk.start_offset + skip as u64;
                    carry.extend_from_slice(chunk.data.get(skip..).unwrap_or_default());
                }
                None => {
                    out.stats.skipped_bytes += chunk.data.len() as u64;
                    continue;
                }
            }
        } else {
            if head == carry.len() {
                carry.clear();
                head = 0;
            } else if head >= carry.len() - head {
                carry.copy_within(head.., 0);
                carry.truncate(carry.len() - head);
                head = 0;
            }
            if carry.is_empty() {
                carry_offset = chunk.start_offset;
            }
            carry.extend_from_slice(&chunk.data);
        }
        drain_records(view, &mut carry, &mut head, &mut carry_offset, &mut out);
    }
    out
}

/// Parse complete records out of `carry[head..]`, advancing `head` and
/// `carry_offset` past each one.
fn drain_records(
    view: &StreamView,
    carry: &mut Vec<u8>,
    head: &mut usize,
    carry_offset: &mut u64,
    out: &mut Extraction,
) {
    loop {
        let live = carry.get(*head..).unwrap_or_default();
        let Some(header_bytes) = live.first_chunk::<RECORD_HEADER_LEN>() else {
            return;
        };
        let Some(header) = RecordHeader::parse(header_bytes) else {
            // Mid-stream desync should not happen on our own traces; if
            // it does, drop the rest of this contiguous run.
            out.stats.skipped_bytes += live.len() as u64;
            carry.clear();
            *head = 0;
            return;
        };
        let total = RECORD_HEADER_LEN + header.length as usize;
        if live.len() < total {
            return;
        }
        let time = view.time_at(*carry_offset).unwrap_or(SimTime::ZERO);
        out.records.push(TimedRecord {
            time,
            record: ObservedRecord {
                stream_offset: *carry_offset,
                content_type: header.content_type,
                version: header.version,
                length: header.length,
            },
        });
        out.stats.records += 1;
        *head += total;
        *carry_offset += total as u64;
    }
}

/// Find the smallest offset in `data` at which a chain of plausible
/// record headers parses.
///
/// Public so the streaming (online) extractor can reuse the exact same
/// resynchronization heuristic as the batch path: accepts an offset
/// where `RESYNC_CHAIN` headers chain, or at least one complete
/// header whose final record extends past the buffer edge.
pub fn find_resync(data: &[u8]) -> Option<usize> {
    'outer: for start in 0..data.len().saturating_sub(RECORD_HEADER_LEN) {
        let mut pos = start;
        let mut chained = 0;
        while chained < RESYNC_CHAIN {
            if pos + RECORD_HEADER_LEN > data.len() {
                // Ran out of bytes: accept only if we chained at least
                // one full record and ended exactly at the buffer edge
                // or inside a final partial record's body.
                if chained >= 1 {
                    return Some(start);
                }
                continue 'outer;
            }
            let Some(hdr) = data
                .get(pos..)
                .and_then(|s| s.first_chunk::<RECORD_HEADER_LEN>())
            else {
                continue 'outer;
            };
            let Some(h) = RecordHeader::parse(hdr) else {
                continue 'outer;
            };
            pos += RECORD_HEADER_LEN + h.length as usize;
            if pos > data.len() {
                // Final record extends past the chunk: plausible if we
                // already validated at least one complete header chain.
                if chained >= 1 {
                    return Some(start);
                }
                continue 'outer;
            }
            chained += 1;
        }
        return Some(start);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::StreamChunk;
    use wm_tls::conn::{RecordEngine, SessionKeys};
    use wm_tls::record::ContentType;
    use wm_tls::suite::CipherSuite;

    fn engine() -> RecordEngine {
        RecordEngine::client(&SessionKeys::derive(&[9; 32], CipherSuite::Aead))
    }

    fn view_of(chunks: Vec<(u64, Vec<u8>, SimTime)>) -> StreamView {
        StreamView {
            chunks: chunks
                .into_iter()
                .map(|(start_offset, data, t)| StreamChunk {
                    start_offset,
                    marks: vec![(start_offset, t)],
                    data,
                })
                .collect(),
        }
    }

    #[test]
    fn clean_stream_extracts_all() {
        let mut eng = engine();
        let mut wire = Vec::new();
        for len in [100usize, 2196, 50] {
            wire.extend(eng.seal_payload(ContentType::ApplicationData, &vec![0; len]));
        }
        let view = view_of(vec![(0, wire, SimTime(77))]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.records, 3);
        assert_eq!(ex.stats.gaps, 0);
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        assert_eq!(lens, vec![116, 2212, 66]);
        assert_eq!(ex.records[0].time, SimTime(77));
    }

    #[test]
    fn record_spanning_chunk_boundary() {
        let mut eng = engine();
        let wire = eng.seal_payload(ContentType::ApplicationData, &vec![1; 500]);
        let (a, b) = wire.split_at(200);
        let view = view_of(vec![
            (0, a.to_vec(), SimTime(1)),
            (200, b.to_vec(), SimTime(2)),
        ]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.records, 1);
        assert_eq!(ex.records[0].record.length, 516);
        assert_eq!(ex.records[0].time, SimTime(1), "timestamp of first byte");
    }

    #[test]
    fn gap_drops_record_and_resyncs() {
        let mut eng = engine();
        let r1 = eng.seal_payload(ContentType::ApplicationData, &vec![1; 1000]);
        let r2 = eng.seal_payload(ContentType::ApplicationData, &vec![2; 1000]);
        let r3 = eng.seal_payload(ContentType::ApplicationData, &vec![3; 400]);
        let r4 = eng.seal_payload(ContentType::ApplicationData, &vec![4; 300]);
        // Capture r1 fully, lose the middle of r2, then r3+r4 intact.
        let mut first = r1.clone();
        first.extend_from_slice(&r2[..300]);
        let mut rest = r3.clone();
        rest.extend_from_slice(&r4);
        let gap_start = first.len() as u64;
        let resume = (r1.len() + r2.len()) as u64;
        let view = view_of(vec![(0, first, SimTime(1)), (resume, rest, SimTime(9))]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.gaps, 1);
        assert_eq!(ex.stats.resyncs, 1);
        assert_eq!(ex.gap_times, vec![SimTime(9)], "gap stamped at resume time");
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        assert_eq!(lens, vec![1016, 416, 316], "r2 dropped, r3/r4 recovered");
        assert!(gap_start > 0);
    }

    #[test]
    fn resume_mid_record_skips_to_next_header() {
        let mut eng = engine();
        let r1 = eng.seal_payload(ContentType::ApplicationData, &vec![1; 800]);
        let r2 = eng.seal_payload(ContentType::ApplicationData, &vec![2; 600]);
        let r3 = eng.seal_payload(ContentType::ApplicationData, &[3; 200]);
        // The tap missed r1 entirely and the first 100 bytes of r2.
        let mut rest = r2[100..].to_vec();
        rest.extend_from_slice(&r3);
        let view = view_of(vec![
            (0, r1[..50].to_vec(), SimTime(1)), // only a shred of r1
            ((r1.len() + 100) as u64, rest, SimTime(5)),
        ]);
        let ex = extract_records(&view);
        // r2's tail is unparseable noise; r3 must be recovered.
        let lens: Vec<u16> = ex.records.iter().map(|r| r.record.length).collect();
        assert_eq!(lens, vec![216]);
        assert!(ex.stats.skipped_bytes >= (r2.len() - 100) as u64 - 5);
    }

    #[test]
    fn unrecoverable_chunk_counted() {
        // One chunk after a gap containing pure noise.
        let view = view_of(vec![
            (0, vec![0u8; 10], SimTime(1)),
            (100, vec![0xffu8; 64], SimTime(2)),
        ]);
        let ex = extract_records(&view);
        assert_eq!(ex.stats.records, 0);
        assert_eq!(ex.stats.gaps, 1);
        assert_eq!(ex.stats.resyncs, 0);
        assert!(ex.stats.skipped_bytes >= 64);
    }

    #[test]
    fn empty_view() {
        let ex = extract_records(&StreamView::default());
        assert_eq!(ex.stats, ExtractStats::default());
        assert!(ex.records.is_empty());
    }
}
