//! Model test for a shard's resident table.
//!
//! `ShardState` keeps its victims in a sorted id index beside one
//! entry per victim. This suite drives it with seeded random operation
//! sequences — first-contact and known-victim feeds at and below the
//! victim cap, idle eviction, drains and adoptions, checkpoint then
//! restore, and a final `finish_all` — next to a reference model that
//! keeps the same decoders in two `BTreeMap`s, the plainest statement
//! of the contract. After every operation both must report the same
//! live victims in the same order; every emitted `(victim, verdict)`
//! sequence and every blob or drained record must be byte-identical.

use std::collections::BTreeMap;
use std::sync::Arc;

use wm_capture::time::{Duration, SimTime};
use wm_core::{IntervalClassifier, WhiteMirrorConfig};
use wm_fleet::{one_record, parse_envelope, ShardState};
use wm_online::{
    graph_fingerprint, restore_record, BlobHeader, BlobWriter, OnlineConfig, OnlineDecoder,
    OnlineVerdict,
};
use wm_sim::{run_session, SessionConfig};
use wm_story::bandersnatch::tiny_film;
use wm_story::{Choice, StoryGraph, ViewerScript};

const TS: u32 = 20;
const SHARD: u32 = 3;
const VICTIMS: u32 = 7;

type Out = Vec<(u32, OnlineVerdict)>;

/// The reference: per-victim decoders and last-seen times in two maps.
struct Model {
    classifier: IntervalClassifier,
    graph: Arc<StoryGraph>,
    cfg: OnlineConfig,
    decoders: BTreeMap<u32, OnlineDecoder>,
    last_seen: BTreeMap<u32, SimTime>,
}

impl Model {
    fn new(classifier: IntervalClassifier, graph: Arc<StoryGraph>, cfg: OnlineConfig) -> Self {
        Model {
            classifier,
            graph,
            cfg,
            decoders: BTreeMap::new(),
            last_seen: BTreeMap::new(),
        }
    }

    fn live(&self) -> Vec<u32> {
        self.decoders.keys().copied().collect()
    }

    fn feed(&mut self, victim: u32, time: SimTime, frame: &[u8], max: usize, out: &mut Out) {
        if !self.decoders.contains_key(&victim) {
            while self.decoders.len() >= max {
                let (&stalest, _) = self
                    .last_seen
                    .iter()
                    .min_by_key(|&(id, t)| (*t, *id))
                    .unwrap();
                self.evict(stalest, out);
            }
            let dec = OnlineDecoder::new(
                self.classifier.clone(),
                self.graph.clone(),
                self.cfg.clone(),
            );
            self.decoders.insert(victim, dec);
        }
        self.last_seen.insert(victim, time);
        let dec = self.decoders.get_mut(&victim).unwrap();
        out.extend(
            dec.push_packet(time, frame)
                .into_iter()
                .map(|v| (victim, v)),
        );
    }

    fn evict_idle(&mut self, now: SimTime, idle: Duration, out: &mut Out) -> Vec<u32> {
        let cutoff = now.micros().saturating_sub(idle.micros());
        let stale: Vec<u32> = self
            .last_seen
            .iter()
            .filter(|&(_, t)| t.micros() < cutoff)
            .map(|(id, _)| *id)
            .collect();
        for &id in &stale {
            self.evict(id, out);
        }
        stale
    }

    fn finish_all(&mut self, out: &mut Out) -> Vec<u32> {
        let all = self.live();
        for &id in &all {
            self.evict(id, out);
        }
        all
    }

    fn evict(&mut self, victim: u32, out: &mut Out) {
        let mut dec = self.decoders.remove(&victim).unwrap();
        self.last_seen.remove(&victim);
        out.extend(dec.finish().into_iter().map(|v| (victim, v)));
    }

    fn checkpoint(&mut self, taken: SimTime) -> Vec<u8> {
        let mut blob = BlobWriter::new(&BlobHeader {
            shard: SHARD,
            taken,
            graph_fp: graph_fingerprint(&self.graph),
            cfg: self.cfg.clone(),
            classifier: self.classifier.clone(),
        });
        for (id, dec) in self.decoders.iter_mut() {
            blob.push_decoder(*id, self.last_seen[id], dec);
        }
        blob.finish()
    }

    fn restore(&mut self, bytes: &[u8]) {
        let env = parse_envelope(SHARD, bytes).unwrap();
        self.decoders.clear();
        self.last_seen.clear();
        for rec in &env.records {
            let dec = restore_record(rec, &self.classifier, &self.cfg, self.graph.clone());
            self.decoders.insert(rec.victim, dec.unwrap());
            self.last_seen.insert(rec.victim, rec.seen);
        }
    }

    fn drain(&mut self, victims: &[u32]) -> Vec<(u32, SimTime, Vec<u8>)> {
        let mut out = Vec::new();
        for &victim in victims {
            let Some(mut dec) = self.decoders.remove(&victim) else {
                continue;
            };
            let seen = self.last_seen.remove(&victim).unwrap();
            let mut record = Vec::new();
            dec.checkpoint_record(victim, seen, &mut record);
            out.push((victim, seen, record));
        }
        out
    }

    fn adopt(&mut self, record: &[u8]) {
        let rec = one_record(record).unwrap();
        let dec = restore_record(&rec, &self.classifier, &self.cfg, self.graph.clone());
        self.decoders.insert(rec.victim, dec.unwrap());
        self.last_seen.insert(rec.victim, rec.seen);
    }
}

/// SplitMix64: a seeded operation stream with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Each victim's captured frames, with their sim-times relative to
/// the session start.
fn victim_frames() -> Vec<Vec<(u64, Vec<u8>)>> {
    let picks = [Choice::Default, Choice::NonDefault];
    (0..VICTIMS)
        .map(|v| {
            let choices: Vec<Choice> = (0..3).map(|i| picks[(v as usize + i) % 2]).collect();
            let script = ViewerScript::from_choices(&choices, Duration::from_millis(900));
            let cfg = SessionConfig::fast(Arc::new(tiny_film()), 900 + v as u64, script);
            let out = run_session(&cfg).unwrap();
            out.trace
                .packets
                .iter()
                .map(|p| (p.time.micros(), p.frame.clone()))
                .collect()
        })
        .collect()
}

fn trained_classifier() -> IntervalClassifier {
    let script = ViewerScript::from_choices(
        &[Choice::NonDefault, Choice::Default, Choice::NonDefault],
        Duration::from_millis(900),
    );
    let train = run_session(&SessionConfig::fast(Arc::new(tiny_film()), 100, script)).unwrap();
    IntervalClassifier::train(&train.labels, WhiteMirrorConfig::DEFAULT_SLACK).unwrap()
}

fn run_sequence(seed: u64, frames: &[Vec<(u64, Vec<u8>)>], clf: &IntervalClassifier) {
    let graph = Arc::new(tiny_film());
    let cfg = OnlineConfig::scaled(TS);
    let mut rng = Rng(seed);
    let mut shard = ShardState::new(SHARD, clf.clone(), graph.clone(), cfg.clone());
    let mut model = Model::new(clf.clone(), graph.clone(), cfg.clone());
    // Each victim plays its capture from a random start offset, so
    // sessions overlap and go idle at different times.
    let starts: Vec<u64> = (0..VICTIMS).map(|_| rng.below(4_000_000)).collect();
    let mut cursor = vec![0usize; VICTIMS as usize];
    let mut now = 0u64;
    // A cap below, at, and far above the victim count.
    let max = [2usize, 4, VICTIMS as usize, 64][rng.below(4) as usize];
    let (mut got, mut want) = (Out::new(), Out::new());
    for step in 0..1200 {
        let ctx = format!("seed {seed:#x} step {step}");
        match rng.below(20) {
            0 => {
                let idle = Duration::from_micros(rng.below(1_500_000));
                let at = SimTime(now);
                let a = shard.evict_idle(at, idle, &mut got);
                assert_eq!(a, model.evict_idle(at, idle, &mut want), "{ctx}");
            }
            1 => {
                let picked: Vec<u32> = (0..VICTIMS).filter(|_| rng.below(3) == 0).collect();
                let a = shard.drain_victims(&picked);
                assert_eq!(a, model.drain(&picked), "{ctx}: drained records");
                // Half the drained victims come straight back.
                for (_, _, record) in a.iter().filter(|_| rng.below(2) == 0) {
                    shard.adopt_victim(&one_record(record).unwrap()).unwrap();
                    model.adopt(record);
                }
            }
            2 => {
                let blob = shard.checkpoint(SimTime(now));
                assert_eq!(blob, model.checkpoint(SimTime(now)), "{ctx}: blob bytes");
                shard = ShardState::restore(SHARD, &blob, clf.clone(), graph.clone(), cfg.clone())
                    .unwrap();
                model.restore(&blob);
            }
            _ => {
                let v = rng.below(VICTIMS as u64) as u32;
                let own = &frames[v as usize];
                let i = cursor[v as usize];
                if i < own.len() {
                    cursor[v as usize] += 1;
                    now = now.max(starts[v as usize] + own[i].0);
                    let (t, frame) = (SimTime(now), &own[i].1);
                    shard.feed(v, t, frame, max, &mut got);
                    model.feed(v, t, frame, max, &mut want);
                }
            }
        }
        assert_eq!(
            shard.live_victims().collect::<Vec<_>>(),
            model.live(),
            "{ctx}"
        );
        assert_eq!(got, want, "{ctx}: emitted verdicts");
    }
    let blob = shard.checkpoint(SimTime(now));
    assert_eq!(
        blob,
        model.checkpoint(SimTime(now)),
        "seed {seed:#x}: final blob"
    );
    assert_eq!(shard.finish_all(&mut got), model.finish_all(&mut want));
    assert_eq!(got, want, "seed {seed:#x}: finish_all verdicts");
    assert_eq!(shard.live_victim_count(), 0);
}

#[test]
fn resident_table_matches_the_btreemap_model() {
    let frames = victim_frames();
    let clf = trained_classifier();
    for seed in 0..16u64 {
        run_sequence(0x5eed_0000 + seed, &frames, &clf);
    }
}
