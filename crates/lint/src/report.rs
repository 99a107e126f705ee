//! Machine-readable findings report.
//!
//! The JSON report is built with the workspace's own `wm-json` so the
//! lint stays std-only, and is what CI uploads as an artifact: a stable
//! schema with per-rule counts (every known rule appears, zero or not),
//! the call-graph pass's summary (roots and the scope each family
//! covers), the names of the functions no production root reaches and
//! the full finding list.

use crate::rules::ALL_RULES;
use crate::ScanResult;
use wm_json::{to_pretty_bytes, Value};

/// Render a scan as a pretty-printed JSON document.
pub fn to_json(result: &ScanResult) -> Vec<u8> {
    let findings = &result.findings;
    let counts: Vec<(String, Value)> = ALL_RULES
        .iter()
        .map(|rule| {
            let n = findings.iter().filter(|f| f.rule == *rule).count() as i64;
            (rule.to_string(), Value::from(n))
        })
        .collect();
    let items: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::object(vec![
                ("rule".into(), Value::from(f.rule)),
                ("file".into(), Value::from(f.file.as_str())),
                ("line".into(), Value::from(f.line as i64)),
                ("message".into(), Value::from(f.message.as_str())),
            ])
        })
        .collect();
    let v2 = &result.v2;
    let summary: Vec<(String, Value)> = [
        ("graph_fns", v2.graph_fns),
        ("graph_edges", v2.graph_edges),
        ("hotpath_roots", v2.hotpath_roots),
        ("hotpath_reachable", v2.hotpath_reachable),
        ("response_roots", v2.response_roots),
        ("taint_reachable", v2.taint_reachable),
        ("parse_roots", v2.parse_roots),
        ("panic_scope_fns", v2.panic_scope_fns),
        ("unsafe_uses", v2.unsafe_uses),
        ("unreached_fns", v2.unreached.len()),
    ]
    .into_iter()
    .map(|(name, n)| (name.to_string(), Value::from(n as i64)))
    .collect();
    let doc = Value::object(vec![
        ("tool".into(), Value::from("wm-lint")),
        (
            "files_scanned".into(),
            Value::from(result.files_scanned as i64),
        ),
        ("total_findings".into(), Value::from(findings.len() as i64)),
        ("counts".into(), Value::object(counts)),
        ("v2".into(), Value::object(summary)),
        (
            "unreached".into(),
            Value::array(
                v2.unreached
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect(),
            ),
        ),
        ("findings".into(), Value::array(items)),
    ]);
    to_pretty_bytes(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, V2Summary};

    fn sample() -> ScanResult {
        ScanResult {
            findings: vec![
                Finding {
                    rule: crate::rules_v2::PANIC_INDEX,
                    file: "crates/capture/src/pcap.rs".into(),
                    line: 12,
                    message: "unchecked indexing".into(),
                },
                Finding {
                    rule: crate::rules_v2::PANIC_INDEX,
                    file: "crates/json/src/de.rs".into(),
                    line: 3,
                    message: "unchecked indexing".into(),
                },
            ],
            files_scanned: 42,
            v2: V2Summary {
                parse_roots: 26,
                panic_scope_fns: 580,
                unreached: vec!["wm_a::T::helper".into()],
                ..V2Summary::default()
            },
            rust_lines: Default::default(),
        }
    }

    #[test]
    fn report_parses_and_counts() {
        let bytes = to_json(&sample());
        let doc = wm_json::parse(&bytes).expect("report must be valid JSON");
        assert_eq!(doc.get("tool").and_then(Value::as_str), Some("wm-lint"));
        assert_eq!(doc.get("files_scanned").and_then(Value::as_i64), Some(42));
        assert_eq!(doc.get("total_findings").and_then(Value::as_i64), Some(2));
        let counts = doc.get("counts").expect("counts");
        assert_eq!(counts.get("panic/index").and_then(Value::as_i64), Some(2));
        // Every rule is present, even at zero, so dashboards see a
        // stable schema.
        for rule in ALL_RULES {
            assert!(counts.get(rule).is_some(), "missing count for {rule}");
        }
        let items = doc
            .get("findings")
            .and_then(Value::as_array)
            .expect("findings");
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].get("file").and_then(Value::as_str),
            Some("crates/capture/src/pcap.rs")
        );
        assert_eq!(items[0].get("line").and_then(Value::as_i64), Some(12));
        let v2 = doc.get("v2").expect("v2 summary");
        assert_eq!(v2.get("parse_roots").and_then(Value::as_i64), Some(26));
        assert_eq!(v2.get("panic_scope_fns").and_then(Value::as_i64), Some(580));
        assert_eq!(v2.get("unsafe_uses").and_then(Value::as_i64), Some(0));
        assert_eq!(v2.get("unreached_fns").and_then(Value::as_i64), Some(1));
        let unreached = doc
            .get("unreached")
            .and_then(Value::as_array)
            .expect("unreached names");
        assert_eq!(unreached[0].as_str(), Some("wm_a::T::helper"));
    }

    #[test]
    fn empty_report_is_valid() {
        let bytes = to_json(&ScanResult::default());
        let doc = wm_json::parse(&bytes).expect("valid");
        assert_eq!(doc.get("total_findings").and_then(Value::as_i64), Some(0));
    }
}
