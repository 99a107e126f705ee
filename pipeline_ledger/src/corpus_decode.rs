//! `corpus_decode`: the recorded-capture attack at scale (E11). A
//! pre-generated corpus of one condition's captures is decoded with
//! `decode_sessions_sharded` on the decode pool.
//!
//! Why: the online decoder's ingest, classify and decode do almost all
//! the work and the sim and fleet do none, so changes to the decode hot
//! path (and the telemetry hooks on it) show here first.
//!
//! Set-up trains the condition's attack and simulates the corpus.

use crate::common::{metric, peak_rss_mib, single_condition, Ctx, Pool, Score};
use crate::layers::{obs_pairs, replay, replay_serial};
use crate::ledger::{
    layer_metrics, per_sec, probe, repeat, repeated_setup, timed, Outcome, ProbeInput,
};
use crate::spans::{Recorder, ROOT};
use wm_bench::TIME_SCALE;
use wm_core::WhiteMirror;
use wm_online::{decode_sessions_sharded, replay_session, OnlineConfig, SessionDecode};

const CORPUS: usize = 128;
const TRAINING_SESSIONS: usize = 3;

struct State {
    attack: WhiteMirror,
    pool: Pool,
    failed: usize,
}

/// One timed pass over the whole corpus. Traced, the same per-session
/// `replay_session` calls run on the same pool with a span each.
fn pass(
    ctx: &Ctx,
    st: &State,
    cfg: &OnlineConfig,
    rec: Option<&Recorder>,
) -> (Vec<SessionDecode>, f64) {
    let classifier = st.attack.classifier();
    let captures = &st.pool.captures;
    timed(rec, || match rec {
        None => decode_sessions_sharded(classifier, &ctx.graph, cfg, captures, ctx.workers),
        Some(rec) => rec.span("pool.run_indexed", ROOT, |pool| {
            wm_pool::run_indexed(captures.len(), ctx.workers, |i| {
                rec.span("online.replay", pool, |_| {
                    replay_session(classifier, &ctx.graph, cfg, &captures[i])
                })
            })
        }),
    })
}

pub fn run(ctx: &Ctx, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let main = Recorder::default();
    let setup = |rec: Option<&Recorder>| {
        let (attack, pool, failed) =
            single_condition(ctx, "corpus_decode", CORPUS, TRAINING_SESSIONS, rec);
        State {
            attack,
            pool,
            failed,
        }
    };
    let (st, setup_s) = if traced {
        (setup(Some(&main)), 0.0)
    } else {
        repeated_setup(ctx.workers, || setup(None))
    };
    for _ in 0..st.failed {
        outcome.fail("a clean corpus session failed to simulate".to_owned());
    }
    let cfg = OnlineConfig::scaled(TIME_SCALE);
    let classifier = st.attack.classifier();
    let sessions: Vec<&[_]> = st.pool.captures.iter().map(Vec::as_slice).collect();

    let mut reference: Option<Vec<SessionDecode>> = None;
    let mut walls = Vec::new();
    let mut check = |outcome: &mut Outcome, decoded: Vec<SessionDecode>| match &reference {
        None => reference = Some(decoded),
        Some(first) => {
            for (i, (d, r)) in decoded.iter().zip(first).enumerate() {
                outcome.gate(d == r, || {
                    format!("session {i}: decode differs between passes")
                });
            }
        }
    };
    let refs = repeat(seconds, ctx.workers, |_| {
        let (decoded, wall) = pass(ctx, &st, &cfg, None);
        check(&mut outcome, decoded);
        walls.push(wall);
        if traced {
            let (decoded, traced_wall) = pass(ctx, &st, &cfg, Some(&main));
            check(&mut outcome, decoded);
            main.sample("trace.overhead_ratio", traced_wall / wall);
            replay_serial(&main, classifier, &ctx.graph, &cfg, &sessions);
            if let Err(e) = obs_pairs(&main, classifier, &ctx.graph, &cfg, &sessions) {
                outcome.fail(e);
            }
        }
    });
    let first = reference.expect("at least one pass");

    // Oracle: a packet-by-packet replay of each capture, which also
    // notes when each verdict came out.
    let mut score = Score::default();
    for (i, (capture, truth)) in st.pool.captures.iter().zip(&st.pool.truths).enumerate() {
        let (verdicts, at) = replay(classifier, &ctx.graph, &cfg, capture, None);
        outcome.gate(verdicts == first[i].verdicts, || {
            format!("session {i}: sharded decode differs from a serial replay")
        });
        let choices: Vec<_> = verdicts.iter().map(|v| v.choice).collect();
        score.add(truth, &choices, &at);
    }
    outcome.gate(score.duplicated == 0, || {
        format!("{} duplicate verdicts", score.duplicated)
    });

    if traced {
        let probe_rec = Recorder::default();
        let input = ProbeInput {
            attack: &st.attack,
            trace: &st.pool.first_trace,
            sessions: sessions.iter().take(4).copied().collect(),
        };
        if let Err(e) = probe(ctx, &probe_rec, &input) {
            outcome.fail(e);
        }
        outcome.metrics = layer_metrics(&main, &probe_rec, ctx.workers);
    } else {
        outcome.metrics.push(metric("setup_s", setup_s, "s"));
        let packets = st.pool.captures.iter().map(Vec::len).sum();
        outcome.metrics.push(metric(
            "packets_per_sec",
            per_sec(packets, &walls, &refs),
            "1/s",
        ));
        outcome.metrics.extend(score.metrics());
        outcome.notes = score.notes();
        outcome.notes.push(metric(
            "sessions_per_sec",
            per_sec(CORPUS, &walls, &refs),
            "1/s",
        ));
        outcome
            .metrics
            .push(metric("peak_rss_mib", peak_rss_mib(), "MiB"));
    }
    outcome
}
