//! Buffer-reuse hygiene property tests (hand-rolled seeded sweeps —
//! the harness carries no external property-test dependency).
//!
//! The ingest path recycles parked-segment buffers through a free
//! list, poison-filling each buffer (`ParkedSegments::RECYCLE_POISON`)
//! before it can be handed out again, so a stale byte that leaks into
//! a later record is guaranteed to corrupt it loudly rather than
//! silently replay old plaintext lengths. The property pinned here:
//! for randomized impaired segment streams — reordering, duplication,
//! drops, odd segmentation — a recycling ingest and a fresh-allocation
//! ingest (recycling disabled: the oracle) extract byte-identical
//! record streams, gap windows and counters.

use wm_capture::time::{Duration, SimTime};
use wm_core::online::bounded::Batch;
use wm_core::online::{ExtractedRecord, FlowIngest, GapEvent};
use wm_net::rng::SimRng;

/// Build a plausible upstream TLS byte stream: `n` application-data
/// records with pseudo-random lengths and bodies.
fn record_stream(rng: &mut SimRng, n: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    for _ in 0..n {
        let len = rng.uniform_u64(1, 1600) as u16;
        wire.extend_from_slice(&[23, 3, 3, (len >> 8) as u8, (len & 0xff) as u8]);
        for _ in 0..len {
            wire.push(rng.next_u64() as u8);
        }
    }
    wire
}

/// Split `wire` into (time, seq, payload) segments with randomized
/// sizes, then impair the schedule: bounded reordering, duplicates
/// and drops, all driven by the seed.
fn impaired_segments(rng: &mut SimRng, wire: &[u8]) -> Vec<(SimTime, u32, Vec<u8>)> {
    let mut segs = Vec::new();
    let mut off = 0usize;
    let mut t = 1_000u64;
    while off < wire.len() {
        let take = (rng.uniform_u64(1, 900) as usize).min(wire.len() - off);
        segs.push((SimTime(t), off as u32, wire[off..off + take].to_vec()));
        off += take;
        t += rng.uniform_u64(10, 500);
    }
    // Bounded reorder: swap random adjacent-ish pairs.
    for _ in 0..segs.len() / 3 {
        let i = rng.uniform_u64(0, segs.len() as u64 - 1) as usize;
        let j = (i + 1 + rng.uniform_u64(0, 2) as usize).min(segs.len() - 1);
        segs.swap(i, j);
    }
    // Duplicate a few segments (stale retransmits).
    for _ in 0..segs.len() / 5 {
        let i = rng.uniform_u64(0, segs.len() as u64) as usize % segs.len();
        let dup = segs[i].clone();
        segs.push(dup);
    }
    // Drop a couple outright (holes the flush must eventually declare).
    if segs.len() > 4 && rng.chance(0.7) {
        let i = rng.uniform_u64(1, segs.len() as u64 - 1) as usize;
        segs.remove(i);
    }
    segs
}

struct IngestRun {
    records: Vec<ExtractedRecord>,
    gaps: Vec<GapEvent>,
    stats: wm_core::online::IngestStats,
}

fn drive(recycling: bool, segs: &[(SimTime, u32, Vec<u8>)], patience: Duration) -> IngestRun {
    let mut ingest = FlowIngest::new();
    ingest.set_buffer_recycling(recycling);
    let mut records: Batch<ExtractedRecord> = Batch::new();
    let mut gaps: Batch<GapEvent> = Batch::new();
    let mut out = IngestRun {
        records: Vec::new(),
        gaps: Vec::new(),
        stats: ingest.stats(),
    };
    for (i, (time, seq, payload)) in segs.iter().enumerate() {
        ingest.accept_segment(*time, *seq, payload, &mut records, &mut gaps);
        // Periodic patience flush, like the engine's watermark tick.
        if i % 7 == 6 {
            ingest.flush(*time, patience, &mut records, &mut gaps);
        }
        out.records.extend_from_slice(records.as_slice());
        out.gaps.extend_from_slice(gaps.as_slice());
        records.clear();
        gaps.clear();
    }
    ingest.finish(&mut records, &mut gaps);
    out.records.extend_from_slice(records.as_slice());
    out.gaps.extend_from_slice(gaps.as_slice());
    out.stats = ingest.stats();
    out
}

#[test]
fn recycled_ingest_matches_fresh_allocation_oracle_on_impaired_streams() {
    for seed in 0..40u64 {
        let mut rng = SimRng::new(0xb1f0_0000 + seed);
        let wire = record_stream(&mut rng, 12 + (seed % 9) as usize);
        let segs = impaired_segments(&mut rng, &wire);
        let patience = Duration::from_micros(rng.uniform_u64(100, 2_000));

        let recycled = drive(true, &segs, patience);
        let fresh = drive(false, &segs, patience);

        assert_eq!(
            recycled.records, fresh.records,
            "seed {seed}: record streams diverged"
        );
        assert_eq!(
            recycled.gaps, fresh.gaps,
            "seed {seed}: gap windows diverged"
        );
        assert_eq!(
            recycled.stats, fresh.stats,
            "seed {seed}: counters diverged"
        );
        assert!(
            !recycled.records.is_empty(),
            "seed {seed}: fixture extracted nothing — property vacuous"
        );
    }
}

/// In-order clean streams must also round-trip identically (the
/// recycle free list is exercised only by the out-of-order path, so
/// this pins that enabling recycling is invisible when it never kicks
/// in).
#[test]
fn recycled_ingest_matches_oracle_on_clean_streams() {
    for seed in 0..10u64 {
        let mut rng = SimRng::new(0xc1ea_0000 + seed);
        let wire = record_stream(&mut rng, 10);
        let mut segs = Vec::new();
        let mut off = 0usize;
        while off < wire.len() {
            let take = (rng.uniform_u64(1, 700) as usize).min(wire.len() - off);
            segs.push((
                SimTime(1_000 + off as u64),
                off as u32,
                wire[off..off + take].to_vec(),
            ));
            off += take;
        }
        let patience = Duration::from_micros(500);
        let recycled = drive(true, &segs, patience);
        let fresh = drive(false, &segs, patience);
        assert_eq!(recycled.records, fresh.records, "seed {seed}");
        assert_eq!(recycled.gaps, fresh.gaps, "seed {seed}");
        assert_eq!(recycled.stats, fresh.stats, "seed {seed}");
        assert_eq!(
            recycled.records.len(),
            10,
            "seed {seed}: clean stream must extract every record"
        );
    }
}
