//! Property-based tests for the attack pipeline.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_capture::labels::{LabeledRecord, RecordClass};
use wm_capture::records::TimedRecord;
use wm_capture::time::SimTime;
use wm_capture::ContentType;
use wm_capture::ObservedRecord;
use wm_core::classify::{HistogramClassifier, IntervalClassifier, KnnClassifier, RecordClassifier};
use wm_core::metrics::{choice_accuracy, ConfusionMatrix};
use wm_core::{ChoiceDecoder, DecodedChoice, DecoderConfig, PathDecoder};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, ChoicePointId};

/// Minimal splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn bools(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.below(2) == 1).collect()
    }
}

fn labelled(length: u16, class: RecordClass) -> LabeledRecord {
    LabeledRecord {
        time: SimTime::ZERO,
        length,
        class,
    }
}

/// A well-separated synthetic training set with random band positions
/// (type-2 strictly above type-1 by ≥ 200).
fn arb_training(rng: &mut Rng) -> (Vec<LabeledRecord>, (u16, u16), (u16, u16)) {
    let t1_lo = 1500 + rng.below(1000) as u16;
    let t1_w = rng.below(12) as u16;
    let gap = 200 + rng.below(200) as u16;
    let t2_w = rng.below(30) as u16;
    let t1 = (t1_lo, t1_lo + t1_w);
    let t2_lo = t1.1 + gap;
    let t2 = (t2_lo, t2_lo + t2_w);
    let mut set = Vec::new();
    for l in [t1.0, (t1.0 + t1.1) / 2, t1.1] {
        set.push(labelled(l, RecordClass::Type1));
    }
    for l in [t2.0, (t2.0 + t2.1) / 2, t2.1] {
        set.push(labelled(l, RecordClass::Type2));
    }
    for l in [300u16, 550, 900, 5000, 9000] {
        set.push(labelled(l, RecordClass::Other));
    }
    (set, t1, t2)
}

/// The interval classifier recalls every training example of the
/// report classes, for any band geometry.
#[test]
fn interval_perfect_training_recall() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_0000 + case);
        let (set, _, _) = arb_training(&mut rng);
        let slack = rng.below(8) as u16;
        let c = IntervalClassifier::train(&set, slack).expect("both classes present");
        let mut m = ConfusionMatrix::default();
        for r in &set {
            m.record(r.class, c.classify(r.length));
        }
        assert_eq!(m.recall(RecordClass::Type1), 1.0, "case {case}");
        assert_eq!(m.recall(RecordClass::Type2), 1.0, "case {case}");
    }
}

/// All three classifier families agree on points well inside the
/// bands and far outside them.
#[test]
fn classifier_families_agree_on_clear_points() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_1000 + case);
        let (set, t1, t2) = arb_training(&mut rng);
        let interval = IntervalClassifier::train(&set, 0).expect("train");
        let hist = HistogramClassifier::train(&set, 4);
        let knn = KnnClassifier::train(&set, 3);
        let mid_t1 = (t1.0 + t1.1) / 2;
        let mid_t2 = (t2.0 + t2.1) / 2;
        for (len, want) in [
            (mid_t1, RecordClass::Type1),
            (mid_t2, RecordClass::Type2),
            (300u16, RecordClass::Other),
            (9000u16, RecordClass::Other),
        ] {
            assert_eq!(
                interval.classify(len),
                want,
                "case {case}: interval at {len}"
            );
            assert_eq!(hist.classify(len), want, "case {case}: hist at {len}");
            assert_eq!(knn.classify(len), want, "case {case}: knn at {len}");
        }
    }
}

/// Confusion-matrix identities hold for arbitrary prediction
/// streams: total preserved, accuracy within [0,1], row sums match.
#[test]
fn confusion_identities() {
    const CLASSES: [RecordClass; 3] = [RecordClass::Type1, RecordClass::Type2, RecordClass::Other];
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_2000 + case);
        let n = rng.below(200);
        let pairs: Vec<(usize, usize)> = (0..n).map(|_| (rng.below(3), rng.below(3))).collect();
        let mut m = ConfusionMatrix::default();
        for (t, p) in &pairs {
            m.record(CLASSES[*t], CLASSES[*p]);
        }
        assert_eq!(m.total(), pairs.len() as u64, "case {case}");
        let acc = m.accuracy();
        assert!((0.0..=1.0).contains(&acc), "case {case}");
        for class in CLASSES {
            assert!((0.0..=1.0).contains(&m.precision(class)), "case {case}");
            assert!((0.0..=1.0).contains(&m.recall(class)), "case {case}");
        }
    }
}

/// choice_accuracy is symmetric in totals and bounded.
#[test]
fn choice_accuracy_bounds() {
    for case in 0..200u64 {
        let mut rng = Rng(0xC0_3000 + case);
        let decoded_len = rng.below(20);
        let decoded_bits = rng.bools(decoded_len);
        let truth_len = rng.below(20);
        let truth_bits = rng.bools(truth_len);
        let decoded: Vec<DecodedChoice> = decoded_bits
            .iter()
            .enumerate()
            .map(|(i, b)| DecodedChoice {
                cp: ChoicePointId(i as u16),
                choice: if *b {
                    Choice::NonDefault
                } else {
                    Choice::Default
                },
                time: SimTime::ZERO,
                observed: true,
                confidence: 1.0,
            })
            .collect();
        let truth: Vec<(ChoicePointId, Choice)> = truth_bits
            .iter()
            .enumerate()
            .map(|(i, b)| {
                (
                    ChoicePointId(i as u16),
                    if *b {
                        Choice::NonDefault
                    } else {
                        Choice::Default
                    },
                )
            })
            .collect();
        let acc = choice_accuracy(&decoded, &truth);
        assert_eq!(
            acc.total as usize,
            decoded.len().max(truth.len()),
            "case {case}"
        );
        assert!(acc.correct <= acc.total, "case {case}");
        assert!((0.0..=1.0).contains(&acc.accuracy()), "case {case}");
    }
}

/// Decode `records` as a stream: report events arrive one at a time,
/// the horizon rising to each next event's time (everything below it
/// is final), then the stream ends.
fn streamed(
    classifier: &IntervalClassifier,
    graph: &wm_story::StoryGraph,
    records: &[TimedRecord],
    width: usize,
) -> Vec<DecodedChoice> {
    let decoder = ChoiceDecoder::new(classifier, graph, DecoderConfig::scaled(1), width);
    let events = decoder.report_events(records);
    let timing = *decoder.timing();
    let apps = [records.first(), records.get(1)].map(|r| r.map(|r| r.time));
    let first_type1 = events
        .iter()
        .find(|e| e.class == RecordClass::Type1)
        .map(|e| e.time);
    let mut path = PathDecoder::new(graph, timing, width);
    let mut out = Vec::new();
    for (n, next) in events.iter().enumerate() {
        let horizon = Some(next.time);
        let anchor = timing.anchor(apps, first_type1, horizon);
        while let Some(d) = path.step(graph, &events[..n], anchor, horizon) {
            out.push(d.choice);
        }
    }
    let anchor = timing.anchor(apps, first_type1, None);
    out.extend(path.finish(graph, &events, anchor).iter().map(|d| d.choice));
    out
}

/// Decoders always emit one decision per choice point on the walked
/// path and never panic, for arbitrary classified event streams; the
/// path decoder decodes a stream exactly as it decodes the whole.
#[test]
fn decoders_total_and_path_consistent() {
    let graph = tiny_film();
    let training = vec![
        labelled(2211, RecordClass::Type1),
        labelled(2213, RecordClass::Type1),
        labelled(2992, RecordClass::Type2),
        labelled(3017, RecordClass::Type2),
    ];
    let classifier = IntervalClassifier::train(&training, 0).expect("train");
    for case in 0..100u64 {
        let mut rng = Rng(0xC0_4000 + case);
        let n = rng.below(40);
        // Map class index to a length inside/outside the bands.
        let mut records: Vec<TimedRecord> = (0..n)
            .map(|_| TimedRecord {
                time: SimTime(rng.below(60_000) as u64 * 1000),
                record: ObservedRecord {
                    stream_offset: 0,
                    content_type: ContentType::ApplicationData,
                    version: (3, 3),
                    length: match rng.below(3) {
                        0 => 2212,
                        1 => 3000,
                        _ => 700,
                    },
                },
            })
            .collect();
        records.sort_by_key(|r| r.time);
        for (time_aware, width) in [(false, 1), (true, 1), (true, 8)] {
            let cfg = DecoderConfig {
                time_aware,
                ..DecoderConfig::scaled(1)
            };
            let decoded = ChoiceDecoder::new(&classifier, &graph, cfg, width).decode(&records);
            // The decode must trace a real path: its cp sequence equals
            // the walk induced by its own choices.
            let seq = wm_story::ChoiceSequence(decoded.iter().map(|d| d.choice).collect());
            let walk = wm_story::path::walk(&graph, &seq);
            assert_eq!(decoded.len(), walk.encountered.len(), "case {case}");
            for (d, cp) in decoded.iter().zip(walk.encountered.iter()) {
                assert_eq!(d.cp, *cp, "case {case}");
            }
            if time_aware {
                let stream = streamed(&classifier, &graph, &records, width);
                assert_eq!(stream, decoded, "case {case}: width {width} streamed");
            }
        }
    }
}

/// On a *clean* event stream generated from a true path (correct
/// question times, no noise), every decoder recovers the path
/// exactly.
#[test]
fn decoders_exact_on_clean_streams() {
    let graph = tiny_film();
    let training = vec![
        labelled(2211, RecordClass::Type1),
        labelled(2213, RecordClass::Type1),
        labelled(2992, RecordClass::Type2),
        labelled(3017, RecordClass::Type2),
    ];
    let classifier = IntervalClassifier::train(&training, 0).expect("train");
    // All 8 combinations of 3 binary choices.
    for case in 0..8u64 {
        let truth: Vec<Choice> = (0..3)
            .map(|i| {
                if (case >> i) & 1 == 1 {
                    Choice::NonDefault
                } else {
                    Choice::Default
                }
            })
            .collect();
        // tiny_film question times (content secs): 4, 10, 14 when every
        // branch is 4 s — true for all paths in tiny_film's first two
        // levels; the third question time depends only on segment
        // durations of level-2 branches, all 4 s.
        let q_times = [4_000u64, 10_000, 14_000];
        let mut records = vec![TimedRecord {
            time: SimTime(0),
            record: ObservedRecord {
                stream_offset: 0,
                content_type: ContentType::ApplicationData,
                version: (3, 3),
                length: 700, // playback-start marker (manifest fetch)
            },
        }];
        for (i, &q) in q_times.iter().enumerate() {
            records.push(TimedRecord {
                time: SimTime(q * 1000),
                record: ObservedRecord {
                    stream_offset: 0,
                    content_type: ContentType::ApplicationData,
                    version: (3, 3),
                    length: 2212,
                },
            });
            if truth[i] == Choice::NonDefault {
                records.push(TimedRecord {
                    time: SimTime((q + 1200) * 1000),
                    record: ObservedRecord {
                        stream_offset: 0,
                        content_type: ContentType::ApplicationData,
                        version: (3, 3),
                        length: 3000,
                    },
                });
            }
        }
        for (time_aware, width) in [(false, 1), (true, 1), (true, 8)] {
            let cfg = DecoderConfig {
                time_aware,
                ..DecoderConfig::scaled(1)
            };
            let decoded = ChoiceDecoder::new(&classifier, &graph, cfg, width).decode(&records);
            let picks: Vec<Choice> = decoded.iter().map(|d| d.choice).collect();
            assert_eq!(
                &picks, &truth,
                "case {case}: time_aware={time_aware} width {width}"
            );
            if time_aware {
                let stream = streamed(&classifier, &graph, &records, width);
                assert_eq!(stream, decoded, "case {case}: width {width} streamed");
            }
        }
    }
}
