//! Trace exporters: JSONL (diff-friendly) and Chrome trace-event JSON
//! (drop into <https://ui.perfetto.dev> for a visual timeline).
//!
//! Both renderings are deterministic functions of the event list —
//! fixed key order, fixed number formatting — so equal seeds export
//! byte-identical files and `trace_diff` can align them line by line.

use super::event::{EventKind, TraceEvent};
use std::fmt::Write as _;

/// One JSON object per line, in emission order. The canonical golden
/// fixture / diffing format.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 96);
    for e in events {
        let _ = writeln!(
            s,
            "{{\"seq\":{},\"t_us\":{},\"span\":{},\"parent\":{},\"kind\":\"{}\",\"name\":\"{}\",\"a\":{},\"b\":{}}}",
            e.seq,
            e.t_us,
            e.span.0,
            e.parent.0,
            e.kind.label(),
            e.name,
            e.a,
            e.b
        );
    }
    s
}

/// Chrome trace-event ("Trace Event Format") JSON, renderable by
/// Perfetto and `chrome://tracing`.
///
/// Spans are emitted as legacy **async** begin/end pairs (`ph: "b"` /
/// `"e"`) keyed by span id, so overlapping spans (two flows during a
/// reconnect, retried POSTs) render on their own tracks without
/// violating B/E stack nesting. Instants are async instants
/// (`ph: "n"`) attached to their span's track.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut s = String::with_capacity(events.len() * 128 + 64);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let ph = match e.kind {
            EventKind::SpanStart => "b",
            EventKind::SpanEnd => "e",
            EventKind::Instant => "n",
        };
        let _ = write!(
            s,
            "{{\"cat\":\"wm\",\"id\":{},\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":1,\"ts\":{}",
            e.span.0, e.name, ph, e.t_us
        );
        let _ = write!(
            s,
            ",\"args\":{{\"seq\":{},\"parent\":{},\"a\":{},\"b\":{}}}}}",
            e.seq, e.parent.0, e.a, e.b
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SpanId, TraceHandle};

    fn sample() -> Vec<TraceEvent> {
        let h = TraceHandle::new();
        h.set_now(5);
        let root = h.span_start("session", SpanId::NONE);
        h.instant(root, "chaos.blackout", 7, 9);
        h.set_now(11);
        h.span_end(root, "session");
        h.snapshot()
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let out = export_jsonl(&sample());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"t_us\":5,\"span\":1,\"parent\":0,\"kind\":\"start\",\"name\":\"session\",\"a\":0,\"b\":0}"
        );
        assert!(lines[1].contains("\"name\":\"chaos.blackout\""));
        assert!(lines[1].contains("\"a\":7,\"b\":9"));
        assert!(lines[2].contains("\"kind\":\"end\""));
    }

    #[test]
    fn chrome_trace_has_balanced_async_pairs() {
        let out = export_chrome_trace(&sample());
        assert!(out.starts_with("{\"displayTimeUnit\""));
        assert!(out.ends_with("]}"));
        assert_eq!(out.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"e\"").count(), 1);
        assert_eq!(out.matches("\"ph\":\"n\"").count(), 1);
        assert!(out.contains("\"ts\":11"));
    }

    #[test]
    fn exports_are_deterministic() {
        let a = sample();
        let b = sample();
        assert_eq!(export_jsonl(&a), export_jsonl(&b));
        assert_eq!(export_chrome_trace(&a), export_chrome_trace(&b));
    }
}
