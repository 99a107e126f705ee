//! The `obs` binary end to end: each tool's exit status (0 = pass,
//! 1 = divergence or regression, 2 = usage, I/O or parse error) on
//! files written to a per-test temp directory.

use std::path::PathBuf;
use std::process::Command;

use wm_telemetry::trace::{export_jsonl, SpanId, TraceHandle};

/// A per-test scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("wm_obs_cli_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// Write `body` to `name` inside the directory; returns its path.
    fn file(&self, name: &str, body: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, body).expect("write scratch file");
        path.to_str().expect("utf-8 temp path").to_string()
    }

    fn path(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run `obs` with `args`: (exit code, stdout, stderr).
fn obs(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(args)
        .output()
        .expect("spawn obs");
    (
        out.status.code().expect("obs exits with a status"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// root [0,100] with child [10,40]: self time root 70, child 30.
fn trace_jsonl() -> String {
    let h = TraceHandle::new();
    let root = h.span_start_at(0, "root", SpanId::NONE);
    let child = h.span_start_at(10, "child", root);
    h.instant_at(20, child, "noise", 1, 2);
    h.span_end_at(40, child, "child");
    h.span_end_at(100, root, "root");
    export_jsonl(&h.snapshot())
}

fn bench_doc(metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v:.6}"))
        .collect();
    format!(
        "{{\"bench\":\"fleet\",\"metrics\":{{{}}},\"telemetry\":{{\"counters\":{{}},\"histograms\":{{}}}}}}",
        body.join(",")
    )
}

#[test]
fn trace_diff_passes_identical_and_flags_divergent_or_truncated_traces() {
    let dir = Scratch::new("trace_diff");
    let jsonl = trace_jsonl();
    let left = dir.file("left.jsonl", &jsonl);
    let same = dir.file("same.jsonl", &jsonl);
    let (code, out, _) = obs(&["trace-diff", &left, &same]);
    assert_eq!(code, 0, "{out}");
    assert_eq!(out, "traces identical (5 events)\n");

    let changed = dir.file(
        "changed.jsonl",
        &jsonl.replacen("\"t_us\":10,", "\"t_us\":11,", 1),
    );
    let (code, out, _) = obs(&["trace-diff", &left, &changed]);
    assert_eq!(code, 1, "{out}");
    assert!(out.starts_with("first divergence at event 2:"), "{out}");

    let cut = jsonl
        .lines()
        .take(3)
        .map(|l| format!("{l}\n"))
        .collect::<String>();
    let truncated = dir.file("truncated.jsonl", &cut);
    let (code, out, _) = obs(&["trace-diff", &left, &truncated]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("first divergence at event 4:"), "{out}");
    assert!(out.contains("right: <trace ends>"), "{out}");
}

#[test]
fn bench_diff_exit_codes() {
    let dir = Scratch::new("bench_diff");
    let base = bench_doc(&[("kills_i2", 5.0), ("fleet_sessions_per_sec", 40.0)]);
    let baseline = dir.file("base.json", &base);

    // 0: deterministic metric identical, wall-clock metric drifted.
    let ok = dir.file(
        "ok.json",
        &bench_doc(&[("kills_i2", 5.0), ("fleet_sessions_per_sec", 99.0)]),
    );
    let (code, out, _) = obs(&["bench-diff", &baseline, &ok]);
    assert_eq!(code, 0, "{out}");
    assert!(out.ends_with("  verdict: ok\n"), "{out}");

    // 1: out of band, by default and under a tightened --band.
    let drift = dir.file(
        "drift.json",
        &bench_doc(&[("kills_i2", 6.0), ("fleet_sessions_per_sec", 40.0)]),
    );
    let (code, out, _) = obs(&["bench-diff", &baseline, &drift]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("REGRESSED kills_i2"), "{out}");
    let band = "fleet_sessions_per_sec=ratio:0.1";
    let (code, out, _) = obs(&["bench-diff", &baseline, &ok, "--band", band]);
    assert_eq!(code, 1, "{out}");

    // 1: a metric the baseline pins is missing from the candidate.
    let dropped = dir.file("dropped.json", &bench_doc(&[("kills_i2", 5.0)]));
    let (code, out, _) = obs(&["bench-diff", &baseline, &dropped]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("missing from candidate"), "{out}");

    // 2: a torn candidate, cut right after its metrics object.
    let cut = base
        .find(",\"telemetry\"")
        .expect("telemetry follows metrics");
    let torn = dir.file("torn.json", &base[..cut]);
    let (code, out, err) = obs(&["bench-diff", &baseline, &torn]);
    assert_eq!(code, 2, "{out}");
    assert!(err.starts_with("obs bench-diff: candidate:"), "{err}");

    // 2: a --band spec without `=`, with an unknown band, or with no spec.
    for spec in [
        &["--band", "kills_i2"][..],
        &["--band", "kills_i2=bogus"],
        &["--band"],
    ] {
        let mut args = vec!["bench-diff", baseline.as_str(), ok.as_str()];
        args.extend_from_slice(spec);
        let (code, out, _) = obs(&args);
        assert_eq!(code, 2, "{spec:?}: {out}");
    }
}

#[test]
fn flamegraph_writes_to_stdout_and_to_a_file() {
    let dir = Scratch::new("flamegraph");
    let trace = dir.file("trace.jsonl", &trace_jsonl());
    let (code, out, _) = obs(&["flamegraph", &trace]);
    assert_eq!(code, 0);
    assert_eq!(out, "root 70\nroot;child 30\n");

    let folded = dir.path("out.folded");
    let (code, out, err) = obs(&["flamegraph", &trace, &folded]);
    assert_eq!(code, 0, "{err}");
    assert_eq!(out, "");
    assert_eq!(
        std::fs::read_to_string(&folded).expect("folded output written"),
        "root 70\nroot;child 30\n"
    );
}

#[test]
fn unreadable_files_unknown_tools_and_missing_arguments_exit_2() {
    let dir = Scratch::new("usage");
    let trace = dir.file("trace.jsonl", &trace_jsonl());
    let absent = dir.path("absent.jsonl");
    for args in [
        &["trace-diff", trace.as_str(), absent.as_str()][..],
        &["bench-diff", absent.as_str(), trace.as_str()],
        &["flamegraph", absent.as_str()],
    ] {
        let (code, _, err) = obs(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(
            err.contains("cannot read") && err.contains("absent.jsonl"),
            "{err}"
        );
    }
    for args in [
        &["frobnicate", trace.as_str()][..],
        &[],
        &["trace-diff", trace.as_str()],
        &["bench-diff", trace.as_str()],
        &["flamegraph"],
    ] {
        let (code, _, err) = obs(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(err.starts_with("usage: obs trace-diff"), "{args:?}: {err}");
    }
}
