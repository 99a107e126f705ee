//! Deterministic sharded decoding of independent session captures.
//!
//! The throughput engine decodes large fleets of recorded sessions.
//! Each session is decoded by its own fresh [`OnlineDecoder`], so the
//! fleet is an indexed set of independent pure tasks — exactly the
//! contract of `wm_pool::run_indexed`. The demultiplexer here adds the
//! domain guarantee on top: verdict streams, stats and loss windows
//! come back **in session order**, byte-identical for every worker
//! count, because scheduling only decides *when* a session decodes,
//! never *what* it decodes. The determinism suite pins this for worker
//! counts 1, 2, 8 and `available_parallelism`.

use crate::online::engine::{OnlineConfig, OnlineDecoder, OnlineStats, OnlineVerdict};
use crate::IntervalClassifier;
use std::sync::Arc;
use wm_capture::time::SimTime;
use wm_story::StoryGraph;

/// One captured packet: capture time plus raw frame bytes.
pub type CapturedPacket = (SimTime, Vec<u8>);

/// Everything one session's decode produces.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionDecode {
    pub verdicts: Vec<OnlineVerdict>,
    pub stats: OnlineStats,
    pub loss_windows: Vec<(SimTime, SimTime)>,
}

/// Replay one session's capture through a fresh decoder, packet by
/// packet, and collect the complete verdict stream (including the
/// end-of-capture flush). Pure in its inputs: equal captures and
/// configuration produce equal output.
// wm-lint: parse-root
pub fn replay_session(
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    cfg: &OnlineConfig,
    packets: &[CapturedPacket],
) -> SessionDecode {
    let mut dec = OnlineDecoder::new(classifier.clone(), graph.clone(), cfg.clone());
    let mut verdicts: Vec<OnlineVerdict> = Vec::new();
    for (time, frame) in packets {
        verdicts.extend(dec.push_packet(*time, frame));
    }
    verdicts.extend(dec.finish());
    SessionDecode {
        verdicts,
        stats: dec.stats(),
        loss_windows: dec.loss_windows().to_vec(),
    }
}

/// Decode every session in `sessions` across `workers` threads
/// (`0` = one per core), returning results in session order.
///
/// Work is claimed dynamically, so a pathologically long session does
/// not serialize the sessions that happen to sit after it the way a
/// fixed contiguous sharding would — and the output is still invariant
/// under the worker count.
// wm-lint: parse-root
pub fn decode_sessions_sharded(
    classifier: &IntervalClassifier,
    graph: &Arc<StoryGraph>,
    cfg: &OnlineConfig,
    sessions: &[Vec<CapturedPacket>],
    workers: usize,
) -> Vec<SessionDecode> {
    wm_pool::run_indexed(sessions.len(), workers, |i| {
        let packets = sessions.get(i).map(Vec::as_slice).unwrap_or_default();
        replay_session(classifier, graph, cfg, packets)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WhiteMirrorConfig;
    use wm_capture::time::Duration;
    use wm_sim::{run_session, SessionConfig};
    use wm_story::bandersnatch::tiny_film;
    use wm_story::{Choice, ViewerScript};

    const TS: u32 = 20; // SessionConfig::fast's time scale

    /// Classifier + graph + N recorded sessions (simulator dev-dep).
    fn fixture(
        n: usize,
    ) -> (
        IntervalClassifier,
        Arc<StoryGraph>,
        OnlineConfig,
        Vec<Vec<CapturedPacket>>,
    ) {
        let graph = Arc::new(tiny_film());
        let picks = [Choice::NonDefault, Choice::Default, Choice::NonDefault];
        let train = run_session(&SessionConfig::fast(
            graph.clone(),
            100,
            ViewerScript::from_choices(&picks, Duration::from_millis(900)),
        ))
        .unwrap();
        let classifier =
            IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).unwrap();
        let sessions = (0..n)
            .map(|i| {
                let script = ViewerScript::from_choices(
                    &[
                        if i % 2 == 0 {
                            Choice::Default
                        } else {
                            Choice::NonDefault
                        },
                        Choice::NonDefault,
                        Choice::Default,
                    ],
                    Duration::from_millis(700 + 100 * i as u64),
                );
                let out = run_session(&SessionConfig::fast(
                    graph.clone(),
                    9_100 + i as u64,
                    script,
                ))
                .unwrap();
                out.trace
                    .packets
                    .iter()
                    .map(|p| (SimTime(p.time.micros()), p.frame.clone()))
                    .collect()
            })
            .collect();
        (classifier, graph, OnlineConfig::scaled(TS), sessions)
    }

    #[test]
    fn sharded_decode_is_worker_count_invariant() {
        let (classifier, graph, cfg, sessions) = fixture(4);
        let reference = decode_sessions_sharded(&classifier, &graph, &cfg, &sessions, 1);
        assert_eq!(reference.len(), sessions.len());
        assert!(
            reference.iter().any(|s| !s.verdicts.is_empty()),
            "fixture sessions should decode to at least one verdict"
        );
        for workers in [2usize, 3, 8] {
            let got = decode_sessions_sharded(&classifier, &graph, &cfg, &sessions, workers);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn empty_session_list() {
        let (classifier, graph, cfg, _) = fixture(1);
        let got = decode_sessions_sharded(&classifier, &graph, &cfg, &[], 4);
        assert!(got.is_empty());
    }
}
