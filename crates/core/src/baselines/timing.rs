//! The residual timing/count side-channel (§VI's prediction).
//!
//! Even when every state report is padded to one constant size, the
//! *pattern* of reports survives: a choice point always produces one
//! upstream post (the question), and a non-default pick produces a
//! second post within the choice window. This decoder recovers choices
//! from exactly that — record timestamps and coarse size classes, no
//! signature bands.
//!
//! It is deliberately noisier than the record-length decoder in
//! [`crate::decode`]: background telemetry can masquerade as a second
//! post. When the defense pads state posts to an exact size, passing
//! that size to [`TimingDecoder::new`] filters the impostors out —
//! demonstrating the paper's point that padding alone does not close
//! the channel.

use crate::decode::WINDOW_SECS;
use wm_capture::records::TimedRecord;
use wm_capture::time::{Duration, SimTime};
use wm_capture::ContentType;
use wm_story::Choice;

/// Records shorter than this are never part of a post (chunk GETs,
/// heartbeats).
const MIN_RECORD_LEN: u16 = 600;
/// A burst qualifies as a state post if its total sealed bytes meet
/// this floor.
const MIN_POST_TOTAL: usize = 1800;
/// Bursts containing a record at least this long are diagnostics
/// uploads, not posts.
const MAX_RECORD_LEN: u16 = 4000;
/// Records in one burst are separated by at most this much (unscaled
/// seconds): shorter than any human reaction time, so a type-1 and the
/// type-2 that follows it never merge into one burst.
const BURST_GAP_SECS: f64 = 0.5;

/// One decoded choice event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingEvent {
    /// Question (first post) time.
    pub time: SimTime,
    /// Posts inside the window (1 = default, ≥2 = non-default).
    pub posts: usize,
    pub choice: Choice,
}

/// Timing-only choice decoder.
pub struct TimingDecoder {
    /// Records in one burst are separated by at most this much.
    burst_gap: Duration,
    /// The scaled choice window: a second post within this span of a
    /// first post signals a non-default pick.
    window: Duration,
    /// With a constant-size padding defense, the exact sealed record
    /// length of every state post — filters telemetry impostors.
    exact_post_len: Option<u16>,
}

impl TimingDecoder {
    /// A decoder for sessions played at `time_scale` (1 = real time):
    /// the choice window and the burst gap shrink with it.
    pub fn new(time_scale: u32, exact_post_len: Option<u16>) -> Self {
        let ts = time_scale as f64;
        TimingDecoder {
            burst_gap: Duration::from_secs_f64(BURST_GAP_SECS / ts),
            window: Duration::from_secs_f64(WINDOW_SECS / ts),
            exact_post_len,
        }
    }

    /// Find state-post bursts (of one or more records) among upstream
    /// application records; each is its first record's time.
    fn detect_posts(&self, upstream: &[TimedRecord]) -> Vec<SimTime> {
        let candidates: Vec<&TimedRecord> = upstream
            .iter()
            .filter(|r| {
                r.record.content_type == ContentType::ApplicationData
                    && r.record.length >= MIN_RECORD_LEN
            })
            .collect();
        let mut posts = Vec::new();
        let mut i = 0;
        while i < candidates.len() {
            let start = candidates[i].time;
            let mut total = candidates[i].record.length as usize;
            let mut biggest = candidates[i].record.length;
            let mut last = start;
            let mut j = i + 1;
            while j < candidates.len() && candidates[j].time.since(last) <= self.burst_gap {
                total += candidates[j].record.length as usize;
                biggest = biggest.max(candidates[j].record.length);
                last = candidates[j].time;
                j += 1;
            }
            let qualifies = total >= MIN_POST_TOTAL
                && match self.exact_post_len {
                    // Padded posts: every post is exactly the padded
                    // size (or, split, a multiple of it) — the diag
                    // bound does not apply since sizes are known.
                    Some(exact) => biggest == exact || total.is_multiple_of(exact as usize),
                    None => biggest < MAX_RECORD_LEN,
                };
            if qualifies {
                posts.push(start);
            }
            i = j;
        }
        posts
    }

    /// Group posts into choice events and decode picks.
    pub fn decode(&self, upstream: &[TimedRecord]) -> Vec<TimingEvent> {
        let posts = self.detect_posts(upstream);
        let mut events = Vec::new();
        let mut i = 0;
        while i < posts.len() {
            let anchor = posts[i];
            let mut n = 1;
            let mut j = i + 1;
            while j < posts.len() && posts[j].since(anchor) <= self.window {
                n += 1;
                j += 1;
            }
            events.push(TimingEvent {
                time: anchor,
                posts: n,
                choice: if n >= 2 {
                    Choice::NonDefault
                } else {
                    Choice::Default
                },
            });
            i = j;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_capture::ObservedRecord;

    fn rec(time_ms: u64, length: u16) -> TimedRecord {
        TimedRecord {
            time: SimTime(time_ms * 1000),
            record: ObservedRecord {
                stream_offset: 0,
                content_type: ContentType::ApplicationData,
                version: (3, 3),
                length,
            },
        }
    }

    /// Real time: a 10 s window and a 500 ms burst gap.
    fn decoder() -> TimingDecoder {
        TimingDecoder::new(1, None)
    }

    #[test]
    fn single_post_is_default() {
        let records = vec![rec(1000, 2212), rec(30_000, 2209)];
        let events = decoder().decode(&records);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.choice == Choice::Default));
    }

    #[test]
    fn paired_posts_are_nondefault() {
        // Question post, then the type-2 3.4 s later (inside the window).
        let records = vec![rec(1000, 2212), rec(4400, 3005)];
        let events = decoder().decode(&records);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].posts, 2);
        assert_eq!(events[0].choice, Choice::NonDefault);
    }

    #[test]
    fn posts_outside_window_are_separate_events() {
        let records = vec![rec(1000, 2212), rec(20_000, 2212)];
        let events = decoder().decode(&records);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn small_records_ignored() {
        // Chunk GETs and heartbeats between posts.
        let records = vec![
            rec(500, 540),
            rec(1000, 2212),
            rec(1500, 540),
            rec(2000, 870),
            rec(30_000, 2212),
        ];
        let events = decoder().decode(&records);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.posts == 1));
    }

    #[test]
    fn diagnostics_burst_excluded() {
        let records = vec![rec(1000, 2212), rec(3000, 8800)];
        let events = decoder().decode(&records);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].posts, 1, "the 8.8 kB diag is not a post");
    }

    #[test]
    fn split_post_burst_groups_as_one() {
        // A type-1 split into 4 × ~700 B records a few ms apart.
        let records = vec![
            rec(1000, 700),
            rec(1005, 700),
            rec(1010, 700),
            rec(1015, 640),
            // Second (split) post 4 s later → non-default.
            rec(5000, 700),
            rec(5004, 700),
            rec(5009, 700),
            rec(5013, 700),
            rec(5018, 620),
        ];
        let events = decoder().decode(&records);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].choice, Choice::NonDefault);
    }

    #[test]
    fn exact_len_filter_drops_telemetry() {
        // Padded posts are exactly 3616 (pad 3600); telemetry (2650)
        // sneaks into the window and would fake a non-default without
        // the filter.
        let records = vec![rec(1000, 3616), rec(4000, 2650), rec(40_000, 3616)];
        let events = TimingDecoder::new(1, Some(3616)).decode(&records);
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.choice == Choice::Default));
        // Without the filter the telemetry record fakes a pair.
        let naive = decoder().decode(&records);
        assert_eq!(naive[0].choice, Choice::NonDefault);
    }

    #[test]
    fn handshake_records_ignored() {
        let mut records = vec![rec(1000, 2212)];
        records[0].record.content_type = ContentType::Handshake;
        assert!(decoder().decode(&records).is_empty());
    }
}
