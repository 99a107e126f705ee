//! Bench-regression gate: compare a candidate `BENCH_*.json` against a
//! committed baseline with per-metric tolerance bands.
//!
//! Deterministic sim-derived metrics (verdict counts, kills, loss
//! windows, accuracies) default to **exact** comparison — any drift is
//! a behaviour change, not noise. Wall-clock-derived metrics
//! (`*_per_sec`, RSS, speedups, overhead ratios) default to **any**:
//! they must be present and finite but machines differ, so CI never
//! flakes on them. Both defaults can be overridden per metric.
//!
//! Documents are read with `wm_json::parse`, whose six-digit fixed
//! point is exactly the form bench reports write, so a torn or
//! malformed document is a parse error, never a partial metric set.
//!
//! `obs bench-diff` wraps [`bench_diff`] with the exit codes every
//! `obs` tool shares: 0 = within bands, 1 = regression, 2 = usage or
//! parse error.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wm_json::Value;

/// A parsed bench report: its name and the `"metrics"` object.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    pub bench: String,
    pub metrics: BTreeMap<String, f64>,
}

impl BenchDoc {
    /// Parse a `BENCH_*.json` document produced by `wm-bench`.
    pub fn parse(json: &str) -> Result<BenchDoc, String> {
        let doc = wm_json::parse(json.as_bytes()).map_err(|e| e.to_string())?;
        let bench = doc
            .get("bench")
            .and_then(Value::as_str)
            .ok_or("missing \"bench\" name")?
            .to_string();
        let members = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing \"metrics\" object")?;
        let mut metrics = BTreeMap::new();
        for (key, value) in members {
            let Value::Num(n) = value else {
                return Err(format!("metric {key:?} is not a number: {value:?}"));
            };
            metrics.insert(key.clone(), n.to_f64());
        }
        if metrics.is_empty() {
            return Err("empty \"metrics\" object".into());
        }
        Ok(BenchDoc { bench, metrics })
    }
}

/// Tolerance band for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Band {
    /// Bit-exact equality of the parsed values.
    Exact,
    /// `|candidate - baseline| ≤ f × |baseline|`.
    Ratio(f64),
    /// `|candidate - baseline| ≤ f`.
    Abs(f64),
    /// Presence gate only: finite and non-negative.
    Any,
}

impl Band {
    /// Default band by metric name: wall-clock-derived metrics get
    /// [`Band::Any`], everything else compares exactly.
    pub fn default_for(metric: &str) -> Band {
        const WALL_CLOCK_MARKERS: &[&str] =
            &["per_sec", "rss", "secs", "speedup", "overhead", "ratio"];
        if WALL_CLOCK_MARKERS.iter().any(|m| metric.contains(m)) {
            Band::Any
        } else {
            Band::Exact
        }
    }

    /// Parse a CLI band spec: `exact`, `any`, `ratio:0.15`, `abs:3`.
    pub fn parse(spec: &str) -> Result<Band, String> {
        match spec {
            "exact" => return Ok(Band::Exact),
            "any" => return Ok(Band::Any),
            _ => {}
        }
        let (kind, value) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad band spec {spec:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad band value in {spec:?}"))?;
        if !value.is_finite() || value < 0.0 {
            return Err(format!("band value out of range in {spec:?}"));
        }
        match kind {
            "ratio" => Ok(Band::Ratio(value)),
            "abs" => Ok(Band::Abs(value)),
            _ => Err(format!("unknown band kind {kind:?}")),
        }
    }

    /// Does `candidate` fall inside this band around `baseline`?
    pub fn admits(&self, baseline: f64, candidate: f64) -> bool {
        if !candidate.is_finite() {
            return false;
        }
        match *self {
            Band::Exact => candidate == baseline,
            Band::Ratio(r) => (candidate - baseline).abs() <= r * baseline.abs(),
            Band::Abs(a) => (candidate - baseline).abs() <= a,
            Band::Any => candidate >= 0.0,
        }
    }

    fn describe(&self) -> String {
        match *self {
            Band::Exact => "exact".into(),
            Band::Ratio(r) => format!("ratio:{r}"),
            Band::Abs(a) => format!("abs:{a}"),
            Band::Any => "any".into(),
        }
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    pub name: String,
    pub baseline: f64,
    pub candidate: f64,
    pub band: Band,
    pub ok: bool,
}

/// Full comparison of candidate vs baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub bench: String,
    pub rows: Vec<MetricDiff>,
    /// Metrics the baseline pins that the candidate dropped — always a
    /// regression.
    pub missing: Vec<String>,
    /// Metrics only the candidate carries — allowed (benches grow),
    /// but reported so baselines get refreshed.
    pub extra: Vec<String>,
}

impl DiffReport {
    pub fn regressed(&self) -> bool {
        !self.missing.is_empty() || self.rows.iter().any(|r| !r.ok)
    }

    /// Human-readable table; out-of-band rows are marked `REGRESSED`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "bench_diff: {}", self.bench);
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<9} {:<32} baseline {:>16.6} candidate {:>16.6}  [{}]",
                if row.ok { "ok" } else { "REGRESSED" },
                row.name,
                row.baseline,
                row.candidate,
                row.band.describe()
            );
        }
        for name in &self.missing {
            let _ = writeln!(out, "  REGRESSED {name:<32} missing from candidate");
        }
        for name in &self.extra {
            let _ = writeln!(
                out,
                "  note      {name:<32} new in candidate (not in baseline)"
            );
        }
        let _ = writeln!(
            out,
            "  verdict: {}",
            if self.regressed() { "REGRESSED" } else { "ok" }
        );
        out
    }
}

/// Compare two bench documents. `overrides` replaces the per-name
/// default band. Errors (name mismatch, unparseable JSON) are schema
/// problems, distinct from regressions.
pub fn bench_diff(
    baseline_json: &str,
    candidate_json: &str,
    overrides: &BTreeMap<String, Band>,
) -> Result<DiffReport, String> {
    let baseline = BenchDoc::parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let candidate = BenchDoc::parse(candidate_json).map_err(|e| format!("candidate: {e}"))?;
    if baseline.bench != candidate.bench {
        return Err(format!(
            "bench name mismatch: baseline {:?} vs candidate {:?}",
            baseline.bench, candidate.bench
        ));
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (name, &base) in &baseline.metrics {
        match candidate.metrics.get(name) {
            Some(&cand) => {
                let band = overrides
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| Band::default_for(name));
                rows.push(MetricDiff {
                    name: name.clone(),
                    baseline: base,
                    candidate: cand,
                    band,
                    ok: band.admits(base, cand),
                });
            }
            None => missing.push(name.clone()),
        }
    }
    let extra = candidate
        .metrics
        .keys()
        .filter(|k| !baseline.metrics.contains_key(*k))
        .cloned()
        .collect();
    Ok(DiffReport {
        bench: baseline.bench,
        rows,
        missing,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `obs bench-diff`'s exit code and printed output for one pair.
    fn diff_exit_code(
        baseline_json: &str,
        candidate_json: &str,
        overrides: &BTreeMap<String, Band>,
    ) -> (u8, String) {
        match bench_diff(baseline_json, candidate_json, overrides) {
            Ok(report) => (report.regressed() as u8, report.render()),
            Err(e) => (2, e),
        }
    }

    fn doc(bench: &str, metrics: &[(&str, f64)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v:.6}"))
            .collect();
        format!(
            "{{\"bench\":\"{bench}\",\"metrics\":{{{}}},\"telemetry\":{{\"counters\":{{}},\"histograms\":{{}}}},\"trace\":{{}}}}",
            body.join(",")
        )
    }

    #[test]
    fn parses_bench_documents() {
        let json = doc(
            "fleet",
            &[("kills_i2", 5.0), ("fleet_sessions_per_sec", 41.5)],
        );
        let parsed = BenchDoc::parse(&json).expect("parses");
        assert_eq!(parsed.bench, "fleet");
        assert_eq!(parsed.metrics["kills_i2"], 5.0);
        assert_eq!(parsed.metrics["fleet_sessions_per_sec"], 41.5);
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("{\"bench\":\"x\",\"metrics\":{}}").is_err());
    }

    #[test]
    fn default_bands_split_deterministic_from_wall_clock() {
        assert_eq!(Band::default_for("verdicts_i3"), Band::Exact);
        assert_eq!(Band::default_for("accuracy_i0_00"), Band::Exact);
        assert_eq!(Band::default_for("loss_window_us_i2"), Band::Exact);
        assert_eq!(Band::default_for("sessions_per_sec"), Band::Any);
        assert_eq!(Band::default_for("peak_rss_bytes"), Band::Any);
        assert_eq!(Band::default_for("speedup_vs_contiguous"), Band::Any);
        assert_eq!(Band::default_for("supervision_overhead_ratio"), Band::Any);
    }

    #[test]
    fn band_admission() {
        assert!(Band::Exact.admits(3.0, 3.0));
        assert!(!Band::Exact.admits(3.0, 3.000001));
        assert!(Band::Ratio(0.1).admits(100.0, 109.0));
        assert!(!Band::Ratio(0.1).admits(100.0, 111.0));
        assert!(Band::Abs(5.0).admits(10.0, 14.0));
        assert!(!Band::Abs(5.0).admits(10.0, 16.0));
        assert!(Band::Any.admits(1.0, 123456.0));
        assert!(!Band::Any.admits(1.0, -1.0));
        assert!(!Band::Any.admits(1.0, f64::NAN));
        assert_eq!(Band::parse("ratio:0.15"), Ok(Band::Ratio(0.15)));
        assert_eq!(Band::parse("abs:3"), Ok(Band::Abs(3.0)));
        assert_eq!(Band::parse("exact"), Ok(Band::Exact));
        assert!(Band::parse("bogus").is_err());
        assert!(Band::parse("ratio:-1").is_err());
    }

    #[test]
    fn exit_codes_are_pinned() {
        let none = BTreeMap::new();
        let base = doc(
            "fleet",
            &[("kills_i2", 5.0), ("fleet_sessions_per_sec", 40.0)],
        );

        // 0: deterministic metric identical, wall-clock metric drifted.
        let ok = doc(
            "fleet",
            &[("kills_i2", 5.0), ("fleet_sessions_per_sec", 99.0)],
        );
        let (code, out) = diff_exit_code(&base, &ok, &none);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: ok"));

        // 1: deterministic metric drifted.
        let drift = doc(
            "fleet",
            &[("kills_i2", 6.0), ("fleet_sessions_per_sec", 40.0)],
        );
        let (code, out) = diff_exit_code(&base, &drift, &none);
        assert_eq!(code, 1, "{out}");
        assert!(
            out.contains("REGRESSED kills_i2") || out.contains("REGRESSED"),
            "{out}"
        );

        // 1: metric dropped from the candidate.
        let dropped = doc("fleet", &[("fleet_sessions_per_sec", 40.0)]);
        assert_eq!(diff_exit_code(&base, &dropped, &none).0, 1);

        // 0: extra candidate metrics are reported, not regressions.
        let grown = doc(
            "fleet",
            &[
                ("kills_i2", 5.0),
                ("fleet_sessions_per_sec", 40.0),
                ("alerts_i2", 7.0),
            ],
        );
        let (code, out) = diff_exit_code(&base, &grown, &none);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("new in candidate"));

        // 2: unparseable candidate or bench-name mismatch.
        assert_eq!(diff_exit_code(&base, "not json", &none).0, 2);
        // 2: a torn candidate, cut right after its metrics object, is
        // a parse error even though every metric it carries matches.
        let cut = base
            .find(",\"telemetry\"")
            .expect("telemetry follows metrics");
        assert_eq!(diff_exit_code(&base, &base[..cut], &none).0, 2);
        // 0: whitespace inside the document is still the same document.
        let spaced = base.replacen("\"metrics\":{", "\"metrics\": { ", 1);
        let (code, out) = diff_exit_code(&base, &spaced, &none);
        assert_eq!(code, 0, "{out}");
        let other = doc("throughput", &[("kills_i2", 5.0)]);
        assert_eq!(diff_exit_code(&base, &other, &none).0, 2);
    }

    #[test]
    fn overrides_replace_default_bands() {
        let base = doc("throughput", &[("sessions_per_sec", 100.0)]);
        let cand = doc("throughput", &[("sessions_per_sec", 80.0)]);
        let mut bands = BTreeMap::new();
        bands.insert("sessions_per_sec".to_string(), Band::Ratio(0.1));
        // Default Any would pass; the tightened ratio band fails.
        assert_eq!(diff_exit_code(&base, &cand, &BTreeMap::new()).0, 0);
        assert_eq!(diff_exit_code(&base, &cand, &bands).0, 1);
        bands.insert("sessions_per_sec".to_string(), Band::Ratio(0.5));
        assert_eq!(diff_exit_code(&base, &cand, &bands).0, 0);
    }
}
