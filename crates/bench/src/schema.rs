//! The one `BENCH_*.json` serializer and validator every harness
//! binary shares.
//!
//! Each bench used to hand-roll its own report writing and schema
//! check; this module is the single source of truth for the document
//! shape so a drift in one harness cannot silently diverge from what
//! CI's `bench_diff` gate parses. The layout:
//!
//! ```json
//! {"bench":"<name>","metrics":{...},"telemetry":{...},"trace":{...}}
//! ```
//!
//! Serialization is canonical — metric keys sort lexicographically
//! (duplicates collapse, last value wins), telemetry uses the
//! `wm-telemetry` snapshot codec, trace counts come pre-sorted from
//! the `BTreeMap` tally — so the emitted bytes are a pure function of
//! the report's *content*, never of the order a harness pushed
//! metrics in. That is what lets `wm_obs::bench_diff` compare
//! artifacts byte-range by byte-range and CI diff them across runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wm_telemetry::Snapshot;

use crate::TraceTally;

/// Serialize a bench report: headline metrics (canonically sorted by
/// key), the merged telemetry snapshot (per-stage span timings,
/// per-class record counters, …) and the trace-event summary counts,
/// aggregated across every session the harness ran.
pub fn bench_json<K: AsRef<str>>(
    name: &str,
    metrics: &[(K, f64)],
    telemetry: &Snapshot,
    trace: &TraceTally,
) -> String {
    let sorted: BTreeMap<&str, f64> = metrics.iter().map(|(k, v)| (k.as_ref(), *v)).collect();
    let mut s = String::with_capacity(512);
    let _ = write!(s, "{{\"bench\":\"{name}\",\"metrics\":{{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v:.6}");
    }
    s.push_str("},\"telemetry\":");
    s.push_str(&telemetry.to_json_string());
    s.push_str(",\"trace\":{");
    for (i, (k, v)) in trace.0.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push_str("}}");
    s
}

/// Write `BENCH_<name>.json` in the working directory and check the
/// bytes written against the schema gate CI runs: the bench name, and
/// every `required` metric present, finite and non-negative. Exits 1
/// when the file cannot be written or fails the check.
pub fn publish<K: AsRef<str>, R: AsRef<str>>(
    name: &str,
    metrics: &[(K, f64)],
    required: &[R],
    telemetry: &Snapshot,
    trace: &TraceTally,
) {
    let json = bench_json(name, metrics, telemetry, trace);
    if !write_report(name, &json) {
        std::process::exit(1);
    }
    if let Err(e) = validate_bench_json(&json, name, required) {
        eprintln!("BENCH_{name}.json failed schema validation: {e}");
        std::process::exit(1);
    }
    println!("  BENCH_{name}.json schema: ok");
}

/// Write a report document to `BENCH_<name>.json`, saying where or why
/// not; whether it was written.
fn write_report(name: &str, json: &str) -> bool {
    let path = format!("BENCH_{name}.json");
    let written = std::fs::write(&path, json);
    match &written {
        Ok(()) => println!("\n  wrote {path}"),
        Err(e) => eprintln!("\n  could not write {path}: {e}"),
    }
    written.is_ok()
}

/// Validate a bench document: right bench name, and every `required`
/// metric present as a finite, non-negative number. Parsing reuses
/// [`wm_obs::BenchDoc`] — the same reader CI's `bench_diff` gate runs
/// — so "validates in-process" and "diffs in CI" can never disagree
/// about what a well-formed report is.
pub fn validate_bench_json<S: AsRef<str>>(
    json: &str,
    bench: &str,
    required: &[S],
) -> Result<(), String> {
    let doc = wm_obs::BenchDoc::parse(json)?;
    if doc.bench != bench {
        return Err(format!("bench name is {:?}, expected {bench:?}", doc.bench));
    }
    for key in required {
        let key = key.as_ref();
        let Some(value) = doc.metrics.get(key) else {
            return Err(format!("missing required metric {key:?}"));
        };
        if !value.is_finite() || *value < 0.0 {
            return Err(format!("metric {key:?} = {value} out of range"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_keys_serialize_in_canonical_order() {
        let a = bench_json(
            "t",
            &[("zeta", 1.0), ("alpha", 2.0)],
            &Snapshot::default(),
            &TraceTally::default(),
        );
        let b = bench_json(
            "t",
            &[("alpha", 2.0), ("zeta", 1.0)],
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert_eq!(a, b, "push order must not shape the artifact bytes");
        assert!(a.find("\"alpha\"").unwrap() < a.find("\"zeta\"").unwrap());
    }

    #[test]
    fn duplicate_keys_collapse_last_wins() {
        let json = bench_json(
            "t",
            &[("k", 1.0), ("k", 2.0)],
            &Snapshot::default(),
            &TraceTally::default(),
        );
        assert!(json.contains("\"k\":2.000000"), "{json}");
        assert_eq!(json.matches("\"k\":").count(), 1);
    }

    #[test]
    fn validator_checks_name_presence_and_range() {
        let json = bench_json(
            "demo",
            &[("good", 1.0), ("neg", -1.0)],
            &Snapshot::default(),
            &TraceTally::default(),
        );
        validate_bench_json(&json, "demo", &["good"]).expect("present + finite");
        assert!(validate_bench_json(&json, "other", &["good"])
            .unwrap_err()
            .contains("bench name"));
        assert!(validate_bench_json(&json, "demo", &["absent"])
            .unwrap_err()
            .contains("absent"));
        assert!(validate_bench_json(&json, "demo", &["neg"])
            .unwrap_err()
            .contains("out of range"));
        // Owned keys (dynamic per-intensity names) work too.
        let dynamic: Vec<String> = vec!["good".into()];
        validate_bench_json(&json, "demo", &dynamic).expect("String keys accepted");
    }

    #[test]
    fn validator_rejects_non_json_input() {
        assert!(validate_bench_json("not json", "demo", &["x"]).is_err());
    }
}
