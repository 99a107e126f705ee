//! Span-derived sim-time profiler: collapsed-stack flamegraph output.
//!
//! Walks a [`wm_telemetry::trace`] event stream, reconstructs the span
//! tree from parent links, and attributes each span's *self* time
//! (duration minus time spent in child spans) to its `root;child;leaf`
//! stack. The output is the collapsed-stack format `inferno` /
//! speedscope / `flamegraph.pl` consume: one `stack value` line per
//! stack, here with the value in simulation microseconds — so the
//! profile is a pure function of the trace and byte-identical per seed.
//!
//! Robustness rules, chosen so a *bounded* trace ring (which may have
//! shed early events) still profiles cleanly: an end without a
//! matching start is dropped; a span still open when the stream ends
//! is closed at the last timestamp seen; a child whose parent start
//! was shed roots a new stack.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use wm_json::Value;
use wm_telemetry::trace::{EventKind, TraceEvent};

/// A span boundary in borrowed form, so the collapser serves both
/// in-memory [`TraceEvent`]s and parsed JSONL lines.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpanEdge {
    t_us: u64,
    span: u32,
    parent: u32,
    start: bool,
    name: String,
}

#[derive(Debug)]
struct OpenSpan {
    parent: u32,
    stack: String,
    start_us: u64,
    child_us: u64,
}

fn collapse(edges: impl IntoIterator<Item = SpanEdge>) -> String {
    let mut open: BTreeMap<u32, OpenSpan> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let close_span = |open: &mut BTreeMap<u32, OpenSpan>,
                      folded: &mut BTreeMap<String, u64>,
                      span: u32,
                      t_us: u64| {
        let Some(o) = open.remove(&span) else { return };
        let total = t_us.saturating_sub(o.start_us);
        let self_us = total.saturating_sub(o.child_us);
        if self_us > 0 {
            *folded.entry(o.stack).or_insert(0) += self_us;
        }
        if let Some(p) = open.get_mut(&o.parent) {
            p.child_us += total;
        }
    };

    let mut last_t = 0u64;
    for e in edges {
        last_t = last_t.max(e.t_us);
        if e.start {
            let stack = match open.get(&e.parent) {
                Some(p) => format!("{};{}", p.stack, e.name),
                None => e.name,
            };
            open.insert(
                e.span,
                OpenSpan {
                    parent: e.parent,
                    stack,
                    start_us: e.t_us,
                    child_us: 0,
                },
            );
        } else {
            close_span(&mut open, &mut folded, e.span, e.t_us);
        }
    }
    // Close leftovers deepest-first: span ids allocate monotonically,
    // so a child always has a larger id than its parent.
    let leftover: Vec<u32> = open.keys().rev().copied().collect();
    for span in leftover {
        close_span(&mut open, &mut folded, span, last_t);
    }

    let mut out = String::new();
    for (stack, us) in &folded {
        let _ = writeln!(out, "{stack} {us}");
    }
    out
}

/// Collapse an in-memory trace (instants are ignored; only span
/// boundaries carry time).
pub fn collapse_spans(events: &[TraceEvent]) -> String {
    collapse(events.iter().filter_map(|e| {
        let start = match e.kind {
            EventKind::SpanStart => true,
            EventKind::SpanEnd => false,
            EventKind::Instant => return None,
        };
        Some(SpanEdge {
            t_us: e.t_us,
            span: e.span.0,
            parent: e.parent.0,
            start,
            name: e.name.to_string(),
        })
    }))
}

/// Collapse a trace exported by [`wm_telemetry::trace::export_jsonl`].
/// Returns an error naming the first malformed line, including one
/// whose span or parent id does not fit a `SpanId`.
pub fn collapse_jsonl(jsonl: &str) -> Result<String, String> {
    let mut edges = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", i + 1);
        let event = wm_json::parse(line.as_bytes()).map_err(|e| err(&e.to_string()))?;
        let text = |key: &str| {
            event
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| err(&format!("missing {key}")))
        };
        let int = |key: &str| {
            event
                .get(key)
                .and_then(Value::as_i64)
                .ok_or_else(|| err(&format!("missing {key}")))
        };
        let id =
            |key: &str| u32::try_from(int(key)?).map_err(|_| err(&format!("{key} out of range")));
        let start = match text("kind")? {
            "start" => true,
            "end" => false,
            "instant" => continue,
            _ => return Err(err("unknown kind")),
        };
        edges.push(SpanEdge {
            t_us: u64::try_from(int("t_us")?).map_err(|_| err("t_us out of range"))?,
            span: id("span")?,
            parent: id("parent")?,
            start,
            name: text("name")?.to_string(),
        });
    }
    Ok(collapse(edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_telemetry::trace::{export_jsonl, SpanId, TraceHandle};

    /// root [0,100] with child [10,40] and grandchild [20,25].
    fn sample() -> Vec<TraceEvent> {
        let h = TraceHandle::new();
        h.set_now(0);
        let root = h.span_start("root", SpanId::NONE);
        h.set_now(10);
        let child = h.span_start("child", root);
        h.set_now(20);
        let grand = h.span_start("leaf", child);
        h.instant(grand, "noise", 1, 2);
        h.set_now(25);
        h.span_end(grand, "leaf");
        h.set_now(40);
        h.span_end(child, "child");
        h.set_now(100);
        h.span_end(root, "root");
        h.snapshot()
    }

    #[test]
    fn self_time_attribution() {
        let folded = collapse_spans(&sample());
        // root: 100 total - 30 in child = 70; child: 30 - 5 = 25; leaf: 5.
        assert_eq!(folded, "root 70\nroot;child 25\nroot;child;leaf 5\n");
    }

    #[test]
    fn jsonl_roundtrip_matches_in_memory() {
        let events = sample();
        let via_jsonl = collapse_jsonl(&export_jsonl(&events)).expect("parses");
        assert_eq!(via_jsonl, collapse_spans(&events));
    }

    #[test]
    fn unclosed_spans_close_at_last_timestamp() {
        let h = TraceHandle::new();
        h.set_now(0);
        let root = h.span_start("root", SpanId::NONE);
        h.set_now(10);
        let child = h.span_start("child", root);
        h.set_now(30);
        h.span_end(child, "child");
        // root never ends: closes at t=30.
        let folded = collapse_spans(&h.snapshot());
        assert_eq!(folded, "root 10\nroot;child 20\n");
    }

    #[test]
    fn orphan_end_and_shed_parent_are_tolerated() {
        let h = TraceHandle::new();
        h.set_now(5);
        // End for a span that never started (start shed from a ring).
        h.span_end(SpanId(99), "ghost");
        // Child whose parent start was shed roots its own stack.
        let child = h.span_start_at(10, "child", SpanId(42));
        h.span_end_at(22, child, "child");
        let folded = collapse_spans(&h.snapshot());
        assert_eq!(folded, "child 12\n");
    }

    #[test]
    fn repeated_stacks_accumulate() {
        let h = TraceHandle::new();
        for i in 0..3u64 {
            h.set_now(i * 100);
            let s = h.span_start("work", SpanId::NONE);
            h.set_now(i * 100 + 7);
            h.span_end(s, "work");
        }
        assert_eq!(collapse_spans(&h.snapshot()), "work 21\n");
    }

    #[test]
    fn malformed_jsonl_is_an_error() {
        assert!(collapse_jsonl("{\"nope\":1}").is_err());
        let ok = collapse_jsonl("").expect("empty trace is empty profile");
        assert_eq!(ok, "");
    }

    #[test]
    fn span_ids_beyond_u32_are_an_error_not_an_alias() {
        // Span 4294967297 would alias span 1 if narrowed, erasing `a`.
        let line = |t: u64, span: u64, kind: &str, name: &str| {
            format!(
                "{{\"seq\":0,\"t_us\":{t},\"span\":{span},\"parent\":0,\"kind\":\"{kind}\",\"name\":\"{name}\",\"a\":0,\"b\":0}}\n"
            )
        };
        let big = u64::from(u32::MAX) + 2;
        let jsonl = [
            line(0, 1, "start", "a"),
            line(10, big, "start", "b"),
            line(30, big, "end", "b"),
            line(100, 1, "end", "a"),
        ]
        .concat();
        let e = collapse_jsonl(&jsonl).expect_err("span id overflows SpanId");
        assert!(e.starts_with("line 2: span out of range"), "{e}");
    }
}
