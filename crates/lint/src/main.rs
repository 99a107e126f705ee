//! `wm-lint` command-line interface.
//!
//! ```text
//! wm-lint [--root <dir>] [--json <path>] [--deny]
//! ```
//!
//! Scans the workspace, prints findings to stdout, optionally writes a
//! JSON report, and with `--deny` exits non-zero when anything fires —
//! the mode CI runs.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: Option<PathBuf>,
    deny: bool,
}

const USAGE: &str = "\
wm-lint: workspace invariant checker (determinism, panic, layering, bounded,
suppression, hotpath, concurrency, defense and annotation rule families)

USAGE:
    wm-lint [--root <dir>] [--json <path>] [--deny]

OPTIONS:
    --root <dir>    Workspace root (default: current directory)
    --json <path>   Write a machine-readable JSON report
    --deny          Exit 1 if any finding is reported (CI mode)
    --help          Show this help and the rule list
";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: None,
        deny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root requires a path")?);
            }
            "--json" => {
                args.json = Some(PathBuf::from(it.next().ok_or("--json requires a path")?));
            }
            "--deny" => args.deny = true,
            "--help" | "-h" => {
                print!("{USAGE}\nRULES:\n");
                for rule in wm_lint::rules::ALL_RULES {
                    println!("    {rule}");
                }
                std::process::exit(0);
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wm-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let result = match wm_lint::scan_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "wm-lint: failed to scan workspace at `{}`: {e}",
                args.root.display()
            );
            return ExitCode::from(2);
        }
    };

    for f in &result.findings {
        println!("{f}");
    }
    // Per-family counts (family = rule prefix before `/`), every known
    // family always present so CI logs show the v2 families are active
    // even at zero findings.
    let mut families: Vec<&str> = wm_lint::rules::ALL_RULES
        .iter()
        .map(|r| r.split('/').next().unwrap_or(r))
        .collect();
    families.dedup();
    let by_family: Vec<String> = families
        .iter()
        .map(|fam| {
            let n = result
                .findings
                .iter()
                .filter(|f| f.rule.split('/').next() == Some(fam))
                .count();
            format!("{fam}={n}")
        })
        .collect();
    println!("wm-lint: families: {}", by_family.join(" "));
    println!(
        "wm-lint: call graph: {} fns, {} edges; hotpath roots={} reachable={}; \
         response roots={} taint-checked={}; parse roots={} panic-scope fns={}; unsafe uses={}; \
         unreached fns={}",
        result.v2.graph_fns,
        result.v2.graph_edges,
        result.v2.hotpath_roots,
        result.v2.hotpath_reachable,
        result.v2.response_roots,
        result.v2.taint_reachable,
        result.v2.parse_roots,
        result.v2.panic_scope_fns,
        result.v2.unsafe_uses,
        result.v2.unreached.len(),
    );
    println!(
        "wm-lint: rust lines: non-test={} test={}",
        result.rust_lines.non_test, result.rust_lines.test
    );
    println!(
        "wm-lint: {} finding{} across {} file{}",
        result.findings.len(),
        if result.findings.len() == 1 { "" } else { "s" },
        result.files_scanned,
        if result.files_scanned == 1 { "" } else { "s" },
    );

    if let Some(path) = &args.json {
        let bytes = wm_lint::report::to_json(&result);
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!(
                "wm-lint: failed to write report to `{}`: {e}",
                path.display()
            );
            return ExitCode::from(2);
        }
    }

    if args.deny && !result.findings.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
