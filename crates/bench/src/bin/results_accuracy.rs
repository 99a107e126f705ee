//! E4 / **§V Results**: choice identification across 10 viewing
//! sessions under different operational conditions.
//!
//! The paper: "the choices made by a user can be revealed 96% of the
//! time in the worst case", measured over 10 sessions, each with a
//! different person and a different combination of operational and
//! network conditions.
//!
//! ```sh
//! cargo run --release -p wm-bench --bin results_accuracy
//! ```

use wm_bench::{
    compare_line, graph, publish, run_viewer, train_attack_for, viewer, TraceTally, TIME_SCALE,
};
use wm_core::{
    choice_accuracy, client_app_records, AttackTelemetry, ChoiceAccuracy, ChoiceDecoder,
    DecoderConfig,
};
use wm_dataset::OperationalConditions;
use wm_telemetry::{Registry, Snapshot};

/// Sessions per condition used to evaluate (the paper used one viewing
/// each; more victims per condition tightens the estimate — the
/// per-session numbers are printed too).
const VICTIMS_PER_CONDITION: u64 = 4;

fn main() {
    let graph = graph();
    // Ten conditions spread across the operational grid, like the
    // paper's ten sessions "under different combinations of operational
    // and network conditions".
    let grid = OperationalConditions::grid();
    let conditions: Vec<&OperationalConditions> =
        (0..10).map(|i| &grid[(i * 7) % grid.len()]).collect();

    println!("=== §V Results (reproduced): choice identification accuracy ===\n");
    println!(
        "10 conditions, {} victim sessions each; attack trained per condition\n",
        VICTIMS_PER_CONDITION
    );

    // Attack-side metrics (classify/decode timings, per-class record
    // counts) accumulate in one registry across all conditions;
    // session-side snapshots merge per victim.
    let attack_registry = Registry::new();
    let mut telemetry = Snapshot::default();
    let mut tally = TraceTally::default();

    let mut per_condition: Vec<(String, ChoiceAccuracy, ChoiceAccuracy)> = Vec::new();
    for (i, cond) in conditions.iter().enumerate() {
        let (mut attack, _) = train_attack_for(
            &graph,
            cond,
            &[40_000 + i as u64, 41_000 + i as u64, 42_000 + i as u64],
        );
        attack.set_telemetry(AttackTelemetry::register(&attack_registry));
        let mut agg = ChoiceAccuracy::default();
        let mut greedy_agg = ChoiceAccuracy::default();
        let mut per_session = Vec::new();
        for v in 0..VICTIMS_PER_CONDITION {
            let seed = 50_000 + (i as u64) * 100 + v;
            let out = run_viewer(&graph, &viewer(v as u32, seed, **cond));
            telemetry.merge(&out.telemetry);
            tally.observe(&out.trace_events);
            let (_, acc) = attack.evaluate(&out.trace, &graph, &out.decisions);
            per_session.push(acc.accuracy());
            agg.merge(&acc);
            // Paper-style per-choice (greedy) decoding for comparison.
            let features = client_app_records(&out.trace);
            let greedy = ChoiceDecoder::new(
                attack.classifier(),
                &graph,
                DecoderConfig::scaled(TIME_SCALE),
                1,
            )
            .decode(&features.records);
            greedy_agg.merge(&choice_accuracy(&greedy, &out.decisions));
        }
        println!(
            "  session {:>2}  {:<44} beam {:>5.1}%  greedy {:>5.1}%   (beam per-viewing: {})",
            i + 1,
            cond.label(),
            100.0 * agg.accuracy(),
            100.0 * greedy_agg.accuracy(),
            per_session
                .iter()
                .map(|a| format!("{:.0}%", 100.0 * a))
                .collect::<Vec<_>>()
                .join(" ")
        );
        per_condition.push((cond.label(), agg, greedy_agg));
    }

    let mut overall = ChoiceAccuracy::default();
    let mut overall_greedy = ChoiceAccuracy::default();
    for (_, acc, greedy) in &per_condition {
        overall.merge(acc);
        overall_greedy.merge(greedy);
    }
    let worst = per_condition
        .iter()
        .min_by(|a, b| a.1.accuracy().partial_cmp(&b.1.accuracy()).expect("finite"))
        .expect("ten conditions");
    let worst_greedy = per_condition
        .iter()
        .min_by(|a, b| a.2.accuracy().partial_cmp(&b.2.accuracy()).expect("finite"))
        .expect("ten conditions");

    println!();
    println!(
        "{}",
        compare_line(
            "mean accuracy (beam decoder)",
            100.0 * overall.accuracy(),
            "—"
        )
    );
    println!(
        "{}",
        compare_line(
            "mean accuracy (paper-style greedy)",
            100.0 * overall_greedy.accuracy(),
            "—"
        )
    );
    println!(
        "{}",
        compare_line(
            &format!("worst case, beam ({})", worst.0),
            100.0 * worst.1.accuracy(),
            "96% worst case",
        )
    );
    println!(
        "{}",
        compare_line(
            &format!("worst case, greedy ({})", worst_greedy.0),
            100.0 * worst_greedy.2.accuracy(),
            "96% worst case",
        )
    );
    println!(
        "\n  choices evaluated: {} total, {} correct, {} path-misaligned",
        overall.total, overall.correct, overall.misaligned
    );

    telemetry.merge(&attack_registry.snapshot());
    let metrics = [
        ("mean_accuracy_beam", overall.accuracy()),
        ("mean_accuracy_greedy", overall_greedy.accuracy()),
        ("worst_case_beam", worst.1.accuracy()),
        ("worst_case_greedy", worst_greedy.2.accuracy()),
        ("choices_total", overall.total as f64),
    ];
    let required = metrics.map(|(k, _)| k);
    publish("results_accuracy", &metrics, &required, &telemetry, &tally);
}
