//! E15 pipeline ledger: the repository's benchmark.
//!
//! ```sh
//! python3 pipeline_ledger/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (or, with `all`, every workload untraced and then
//! traced) for `--seconds` of timed passes, checks every decoded verdict
//! against its oracle and the viewers' scripted truth, prints each
//! metric with its unit, and ends stdout with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` the per-layer ones, from spans
//! the ledger records around its calls into each layer. Timed end-to-end
//! figures are in reference seconds (`ledger::reference_wall`). Exits 1
//! when a correctness gate fails, 2 on bad arguments.
//!
//! The seed reaches the program only through the inputs generated from
//! it: viewer populations, training sessions, impairments, fault plans.

mod common;
mod corpus_decode;
mod fleet;
mod layers;
mod ledger;
mod paper_dataset;
mod spans;
mod stats;

use common::{Ctx, Metric};
use ledger::Outcome;

const WORKLOADS: [&str; 4] = [
    "paper_dataset",
    "corpus_decode",
    "fleet_dense",
    "fleet_chaos",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {}, all)",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn run_one(ctx: &Ctx, workload: &str, seconds: f64, traced: bool) -> Outcome {
    match workload {
        "paper_dataset" => paper_dataset::run(ctx, seconds, traced),
        "corpus_decode" => corpus_decode::run(ctx, seconds, traced),
        "fleet_dense" => fleet::run(ctx, fleet::Kind::Dense, seconds, traced),
        "fleet_chaos" => fleet::run(ctx, fleet::Kind::Chaos, seconds, traced),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

fn report(prefix: &str, outcome: &Outcome) {
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{prefix}{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("{prefix}GATE FAILED: {e}");
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline-ledger: {e}");
            eprintln!("usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        graph: wm_bench::graph(),
        workers: wm_pool::default_workers(),
        seed: args.seed,
    };
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|w| [(*w, false), (*w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.traced)]
    };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for (workload, traced) in &runs {
        let mut outcome = run_one(&ctx, workload, args.seconds, *traced);
        let prefix = if runs.len() > 1 {
            format!("{workload}/")
        } else {
            String::new()
        };
        for m in &outcome.metrics {
            if !m.value.is_finite() {
                outcome.failed += 1;
                outcome.errors.push(format!("{} is not finite", m.name));
            }
        }
        report(&prefix, &outcome);
        for m in &mut outcome.metrics {
            m.name = format!("{prefix}{}", m.name);
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        metrics.extend(outcome.metrics);
    }
    println!(
        "{}",
        json_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
