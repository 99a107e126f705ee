//! The observability plane's operator tools, one binary. The first
//! argument names the tool:
//!
//! ```sh
//! cargo run --release -p wm-obs --bin obs -- trace-diff left.jsonl right.jsonl
//! cargo run --release -p wm-obs --bin obs -- bench-diff \
//!     baselines/BENCH_fleet.json BENCH_fleet.json \
//!     [--band metric=exact|any|ratio:0.15|abs:3]...
//! cargo run --release -p wm-obs --bin obs -- flamegraph trace.jsonl [out.folded]
//! ```
//!
//! * `trace-diff` aligns two trace JSONL exports and prints the first
//!   diverging event;
//! * `bench-diff` compares a candidate `BENCH_*.json` against a
//!   committed baseline with per-metric tolerance bands;
//! * `flamegraph` renders a trace JSONL export as collapsed stacks
//!   (inferno / speedscope / `flamegraph.pl` input), values in
//!   simulation microseconds of self time, to stdout or a file.
//!
//! Exit status, shared by every tool: 0 = pass, 1 = divergence or
//! regression, 2 = usage, I/O or parse error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use wm_obs::{bench_diff, collapse_jsonl, Band};
use wm_telemetry::trace::trace_diff;

const USAGE: &str = "usage: obs trace-diff <left.jsonl> <right.jsonl>
       obs bench-diff <baseline.json> <candidate.json> [--band metric=band]...
       obs flamegraph <trace.jsonl> [out.folded]";

/// Why a tool reached no verdict; both exit 2.
enum Fail {
    Usage,
    Error(String),
}

/// `Ok(true)` = pass, `Ok(false)` = divergence or regression.
type Outcome = Result<bool, Fail>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((tool, rest)) => match tool.as_str() {
            "trace-diff" => trace_diff_tool(rest),
            "bench-diff" => bench_diff_tool(rest),
            "flamegraph" => flamegraph_tool(rest),
            _ => Err(Fail::Usage),
        },
        None => Err(Fail::Usage),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(Fail::Usage) => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Fail::Error(e)) => {
            eprintln!("obs {}: {e}", args[0]);
            ExitCode::from(2)
        }
    }
}

fn read(path: &str) -> Result<String, Fail> {
    std::fs::read_to_string(path).map_err(|e| Fail::Error(format!("cannot read {path}: {e}")))
}

fn trace_diff_tool(args: &[String]) -> Outcome {
    let [left, right] = args else {
        return Err(Fail::Usage);
    };
    let left = read(left)?;
    match trace_diff(&left, &read(right)?) {
        None => {
            println!("traces identical ({} events)", left.lines().count());
            Ok(true)
        }
        Some(d) => {
            println!("{d}");
            Ok(false)
        }
    }
}

fn bench_diff_tool(args: &[String]) -> Outcome {
    let mut paths = Vec::new();
    let mut bands: BTreeMap<String, Band> = BTreeMap::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg != "--band" {
            paths.push(arg);
            continue;
        }
        let spec = args.next().ok_or(Fail::Usage)?;
        let (metric, band) = spec
            .split_once('=')
            .ok_or_else(|| Fail::Error(format!("bad --band spec {spec:?} (want metric=band)")))?;
        bands.insert(metric.to_string(), Band::parse(band).map_err(Fail::Error)?);
    }
    let [baseline, candidate] = paths.as_slice() else {
        return Err(Fail::Usage);
    };
    let report = bench_diff(&read(baseline)?, &read(candidate)?, &bands).map_err(Fail::Error)?;
    print!("{}", report.render());
    Ok(!report.regressed())
}

fn flamegraph_tool(args: &[String]) -> Outcome {
    let (input, output) = match args {
        [input] => (input, None),
        [input, output] => (input, Some(output)),
        _ => return Err(Fail::Usage),
    };
    let folded = collapse_jsonl(&read(input)?).map_err(Fail::Error)?;
    match output {
        Some(path) => {
            std::fs::write(path, &folded)
                .map_err(|e| Fail::Error(format!("cannot write {path}: {e}")))?;
            eprintln!(
                "obs flamegraph: wrote {} stacks to {path}",
                folded.lines().count()
            );
        }
        None => print!("{folded}"),
    }
    Ok(true)
}
