//! `paper_dataset`: the paper's offline pipeline over a 100-viewer
//! population cycling all 72 operational conditions (Table I).
//!
//! Why: the victim sim (player, server, TLS, cipher, link) does most of
//! the work here and the online decoder and fleet do none, so a sim
//! speed-up shows here and a fleet change must not.
//!
//! Set-up trains one `WhiteMirror` per condition. A pass simulates the
//! population with `try_run_dataset_with_workers`, round-trips every
//! capture through pcap bytes, and decodes it with its condition's
//! attack on the same pool.

use crate::common::{
    decode_offline, metric, peak_rss_mib, simulate, train, viewers, Ctx, Score, Truth,
};
use crate::ledger::{
    layer_metrics, per_sec, probe, repeat, repeated_setup, timed, Outcome, ProbeInput,
};
use crate::spans::{span, Recorder, ROOT};
use wm_capture::Trace;
use wm_core::{DecodedChoice, WhiteMirror};
use wm_dataset::{DatasetSpec, OperationalConditions};
use wm_online::CapturedPacket;

const VIEWERS: usize = 100;
const TRAINING_SESSIONS_PER_CONDITION: usize = 2;
/// The paper's worst case over its dataset (§V).
const MIN_ACCURACY: f64 = 0.96;

struct State {
    spec: DatasetSpec,
    attacks: Vec<WhiteMirror>,
    /// Grid index of each viewer's condition.
    cond: Vec<usize>,
}

fn setup(ctx: &Ctx, rec: Option<&Recorder>) -> State {
    let grid = OperationalConditions::grid();
    let spec = viewers(ctx, "paper_dataset", VIEWERS, None);
    let attacks = train(ctx, &grid, TRAINING_SESSIONS_PER_CONDITION, rec, ROOT);
    let cond = spec
        .viewers
        .iter()
        .map(|v| {
            grid.iter()
                .position(|c| *c == v.operational)
                .expect("viewers use grid conditions")
        })
        .collect();
    State {
        spec,
        attacks,
        cond,
    }
}

/// One session's result: its truth, decoded choices (or why the
/// decode failed) and, for the probe, its capture.
struct Session {
    id: u32,
    truth: Truth,
    decoded: Result<Vec<DecodedChoice>, String>,
    trace: Trace,
}

/// One timed pass: simulate, then decode on the pool.
fn pass(ctx: &Ctx, st: &State, rec: Option<&Recorder>) -> ((Vec<Session>, usize), f64) {
    let ((sessions, decoded, failed), wall) = timed(rec, || {
        let (sessions, failed) = simulate(ctx, &st.spec, rec, ROOT);
        let decoded = span(rec, "pool.run_indexed", ROOT, |pool| {
            wm_pool::run_indexed(sessions.len(), ctx.workers, |i| {
                let (viewer, out) = &sessions[i];
                let attack = &st.attacks[st.cond[viewer.id as usize]];
                decode_offline(rec, pool, attack, &out.trace, &ctx.graph)
            })
        });
        (sessions, decoded, failed)
    });
    let done = sessions
        .into_iter()
        .zip(decoded)
        .map(|((viewer, out), decoded)| Session {
            id: viewer.id,
            truth: Truth::of(&out),
            decoded,
            trace: out.trace,
        })
        .collect();
    ((done, failed), wall)
}

pub fn run(ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let main = Recorder::default();
    let (st, setup_s) = if traced {
        (setup(ctx, Some(&main)), 0.0)
    } else {
        repeated_setup(ctx.workers, || setup(ctx, None))
    };
    let mut reference: Option<Vec<Session>> = None;
    let mut walls = Vec::new();
    let mut check = |outcome: &mut Outcome, (sessions, failed): (Vec<Session>, usize)| {
        for _ in 0..failed {
            outcome.fail("a clean session failed to simulate".to_owned());
        }
        match &reference {
            None => {
                for s in &sessions {
                    outcome.gate(s.decoded.is_ok(), || {
                        format!("viewer {}: {:?}", s.id, s.decoded)
                    });
                }
                reference = Some(sessions);
            }
            Some(first) => {
                for (s, r) in sessions.iter().zip(first) {
                    outcome.gate(s.decoded == r.decoded, || {
                        format!("viewer {}: decode differs between passes", s.id)
                    });
                }
            }
        }
    };
    let refs = repeat(seconds, ctx.workers, |_| {
        let (result, wall) = pass(ctx, &st, None);
        check(&mut outcome, result);
        walls.push(wall);
        if traced {
            let (result, traced_wall) = pass(ctx, &st, Some(&main));
            check(&mut outcome, result);
            main.sample("trace.overhead_ratio", traced_wall / wall);
        }
    });
    let sessions = reference.expect("at least one pass");

    let mut score = Score::default();
    for s in &sessions {
        let decoded = s.decoded.clone().unwrap_or_default();
        // The offline attacker answers once the capture has ended.
        let delivered = vec![s.truth.end_us; decoded.len()];
        score.add(&s.truth, &decoded, &delivered);
    }
    for _ in sessions.len()..VIEWERS {
        score.add_failed_session();
    }
    let accuracy = score.accuracy.accuracy();
    outcome.gate(accuracy >= MIN_ACCURACY, || {
        format!("choice accuracy {accuracy:.4} below {MIN_ACCURACY}")
    });
    outcome.gate(score.delivered == score.choices, || {
        format!(
            "{} of {} choices got no verdict",
            score.choices - score.delivered,
            score.choices
        )
    });
    outcome.gate(score.duplicated == 0, || {
        format!("{} duplicate verdicts", score.duplicated)
    });

    if traced {
        let probe_rec = Recorder::default();
        // The probe runs the streaming layers on the viewers of the
        // first condition, with that condition's attack.
        let first: Vec<&Session> = sessions
            .iter()
            .filter(|s| st.cond[s.id as usize] == 0)
            .collect();
        let packets: Vec<Vec<CapturedPacket>> = first
            .iter()
            .map(|s| {
                s.trace
                    .packets
                    .iter()
                    .map(|p| (wm_capture::time::SimTime(p.time.micros()), p.frame.clone()))
                    .collect()
            })
            .collect();
        let input = ProbeInput {
            attack: &st.attacks[0],
            trace: &first[0].trace,
            sessions: packets.iter().map(Vec::as_slice).collect(),
        };
        if let Err(e) = probe(ctx, &probe_rec, &input) {
            outcome.fail(e);
        }
        outcome.metrics = layer_metrics(&main, &probe_rec, ctx.workers);
    } else {
        outcome.metrics.push(metric("setup_s", setup_s, "s"));
        let packets = sessions.iter().map(|s| s.trace.packets.len()).sum();
        outcome.metrics.push(metric(
            "packets_per_sec",
            per_sec(packets, &walls, &refs),
            "1/s",
        ));
        outcome.metrics.extend(score.metrics());
        outcome.notes = score.notes();
        outcome.notes.push(metric(
            "sessions_per_sec",
            per_sec(VIEWERS, &walls, &refs),
            "1/s",
        ));
        outcome
            .metrics
            .push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    }
    outcome
}
