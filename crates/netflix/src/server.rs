//! The request handler.

use crate::manifest::Manifest;
use std::sync::Arc;
use wm_http::{Request, Response};
use wm_json::{parse, Value};
use wm_story::{ChoicePointId, SegmentId, StoryGraph};
use wm_telemetry::trace::{SpanId, TraceHandle};
use wm_telemetry::{Counter, Registry};

/// Ids in state-report bodies are offset by this constant so they
/// always serialize as two digits (a width-discipline convention shared
/// with the player's report builder).
pub const STATE_ID_OFFSET: i64 = 10;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Divides media chunk byte sizes (see [`Manifest`]).
    pub media_scale: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { media_scale: 1 }
    }
}

/// Which state report a POST carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateEventKind {
    /// Question displayed.
    Type1,
    /// Non-default selection (prefetch cancelled).
    Type2,
}

/// Server-side record of one state report (ground truth for tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateLogEntry {
    pub kind: StateEventKind,
    pub choice_point: ChoicePointId,
    pub segment: SegmentId,
    /// Serialized size of the JSON body received.
    pub body_len: usize,
}

/// Server-side telemetry handles (see `wm-telemetry`).
pub struct ServerTelemetry {
    requests: Arc<Counter>,
    chunks_served: Arc<Counter>,
    chunk_bytes: Arc<Counter>,
    state_type1: Arc<Counter>,
    state_type2: Arc<Counter>,
    dummy_posts: Arc<Counter>,
    background_posts: Arc<Counter>,
    rejected: Arc<Counter>,
    duplicate_posts: Arc<Counter>,
    deferred_posts: Arc<Counter>,
}

impl ServerTelemetry {
    /// Register the server's metrics under `netflix.*`.
    pub fn register(registry: &Registry) -> Self {
        ServerTelemetry {
            requests: registry.counter("netflix.requests"),
            chunks_served: registry.counter("netflix.chunks_served"),
            chunk_bytes: registry.counter("netflix.chunk_bytes"),
            state_type1: registry.counter("netflix.state_posts.type1"),
            state_type2: registry.counter("netflix.state_posts.type2"),
            dummy_posts: registry.counter("netflix.state_posts.dummy"),
            background_posts: registry.counter("netflix.background_posts"),
            rejected: registry.counter("netflix.rejected"),
            duplicate_posts: registry.counter("netflix.state_posts.duplicate"),
            deferred_posts: registry.counter("netflix.state_posts.deferred"),
        }
    }
}

/// The interactive streaming origin.
pub struct NetflixServer {
    graph: Arc<StoryGraph>,
    manifest: Manifest,
    state_log: Vec<StateLogEntry>,
    telemetry: Option<ServerTelemetry>,
    /// `seq` numbers of state reports already persisted (sorted).
    /// Retried/duplicated POSTs carry the same `seq`; persisting them
    /// once keeps the log idempotent no matter how many copies the
    /// player's retry machinery delivers.
    seen_seqs: Vec<i64>,
    /// Remaining state POSTs to answer `503 Service Unavailable`
    /// (fault injection), with the advertised Retry-After seconds.
    error_burst: u32,
    retry_after_secs: u32,
    /// Causal trace sink (state-API hits and dedup outcomes land
    /// under the attached span, stamped from the shared sim clock).
    trace: Option<(TraceHandle, SpanId)>,
}

impl NetflixServer {
    pub fn new(graph: Arc<StoryGraph>, config: ServerConfig) -> Self {
        let manifest = Manifest::for_title(&graph, config.media_scale);
        NetflixServer {
            graph,
            manifest,
            state_log: Vec::new(),
            telemetry: None,
            seen_seqs: Vec::new(),
            error_burst: 0,
            retry_after_secs: 1,
            trace: None,
        }
    }

    /// Fault mode: answer the next `burst` state POSTs with
    /// `503 Service Unavailable` and a `Retry-After` hint, without
    /// persisting them. The player's retry machinery must re-deliver.
    pub fn arm_state_errors(&mut self, burst: u32, retry_after_secs: u32) {
        self.error_burst = self.error_burst.saturating_add(burst);
        self.retry_after_secs = retry_after_secs.max(1);
    }

    /// Attach telemetry handles (observation only; responses are
    /// unchanged).
    pub fn set_telemetry(&mut self, telemetry: ServerTelemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Attach a trace sink; state-API events are emitted under `span`.
    /// Observation only, like telemetry.
    pub fn set_trace(&mut self, handle: TraceHandle, span: SpanId) {
        self.trace = Some((handle, span));
    }

    fn trace_instant(&self, name: &'static str, a: u64, b: u64) {
        if let Some((h, span)) = &self.trace {
            h.instant(*span, name, a, b);
        }
    }

    /// All state reports received, in order.
    pub fn state_log(&self) -> &[StateLogEntry] {
        &self.state_log
    }

    /// Handle one request.
    // wm-lint: response-path
    pub fn handle(&mut self, req: &Request) -> Response {
        if let Some(t) = &self.telemetry {
            t.requests.inc();
        }
        let path = req.path.as_str();
        let (route, _query) = path.split_once('?').unwrap_or((path, ""));
        match (req.method.as_str(), route) {
            ("GET", "/manifest") => self.serve_manifest(),
            ("GET", p) if p.starts_with("/media/") => {
                let resp = self.serve_chunk(path);
                if let Some(t) = &self.telemetry {
                    if resp.status == 200 {
                        t.chunks_served.inc();
                        // wm-lint: allow(defense/length-taint, reason = "server-side byte counter over an already-built chunk body; feeds telemetry, never a wire field")
                        t.chunk_bytes.add(resp.body.len() as u64);
                    } else {
                        t.rejected.inc();
                    }
                }
                resp
            }
            ("POST", "/interact/state") => self.handle_state(req),
            ("POST", "/interact/state-echo") => {
                // Defense-injected dummy post: acknowledged, not logged.
                if let Some(t) = &self.telemetry {
                    t.dummy_posts.inc();
                }
                Response::ok().body(b"{\"persisted\":true}".to_vec())
            }
            ("POST", "/log" | "/hb" | "/diag") => {
                if let Some(t) = &self.telemetry {
                    t.background_posts.inc();
                }
                Response::ok().body(b"{\"logged\":true}".to_vec())
            }
            _ => {
                if let Some(t) = &self.telemetry {
                    t.rejected.inc();
                }
                Response::new(404, "Not Found").body(b"{}".to_vec())
            }
        }
    }

    fn serve_manifest(&self) -> Response {
        Response::ok()
            .header("Content-Type", "application/json")
            .body(wm_json::to_bytes(&self.manifest.to_json()))
    }

    /// `/media/<segment>/<chunk>?br=<bps>`
    fn serve_chunk(&self, path: &str) -> Response {
        let Some(parsed) = parse_chunk_path(path) else {
            return Response::new(400, "Bad Request").body(b"{}".to_vec());
        };
        let (seg_id, chunk_idx, bitrate) = parsed;
        if seg_id as usize >= self.graph.segments().len() {
            return Response::new(404, "Not Found").body(b"{}".to_vec());
        }
        let seg = self.graph.segment(SegmentId(seg_id));
        let count = self.manifest.chunk_count(seg.duration_secs);
        if chunk_idx >= count || !self.manifest.ladder.contains(&bitrate) {
            return Response::new(404, "Not Found").body(b"{}".to_vec());
        }
        let size = self
            .manifest
            .chunk_bytes(seg.duration_secs, chunk_idx, bitrate);
        Response::ok()
            .header("Content-Type", "video/mp4")
            .body(chunk_body(seg_id, chunk_idx, size))
    }

    fn handle_state(&mut self, req: &Request) -> Response {
        if self.error_burst > 0 {
            self.error_burst -= 1;
            if let Some(t) = &self.telemetry {
                t.deferred_posts.inc();
            }
            self.trace_instant(
                "netflix.state.deferred",
                self.retry_after_secs as u64,
                // wm-lint: allow(defense/length-taint, reason = "inbound request length into the ground-truth trace; the client already put it on the wire")
                req.body.len() as u64,
            );
            return Response::new(503, "Service Unavailable")
                .header("Retry-After", &self.retry_after_secs.to_string())
                .body(b"{\"error\":\"overloaded\"}".to_vec());
        }
        let Ok(doc) = parse(&req.body) else {
            if let Some(t) = &self.telemetry {
                t.rejected.inc();
            }
            // wm-lint: allow(defense/length-taint, reason = "inbound request length into the ground-truth trace; the client already put it on the wire")
            self.trace_instant("netflix.state.rejected", 400, req.body.len() as u64);
            return Response::new(400, "Bad Request").body(b"{\"error\":\"json\"}".to_vec());
        };
        // wm-lint: allow(defense/length-taint, reason = "schema validation of the inbound body length; decides accept/reject, not a response size")
        let Some(entry) = self.validate_state(&doc, req.body.len()) else {
            if let Some(t) = &self.telemetry {
                t.rejected.inc();
            }
            // wm-lint: allow(defense/length-taint, reason = "inbound request length into the ground-truth trace; the client already put it on the wire")
            self.trace_instant("netflix.state.rejected", 422, req.body.len() as u64);
            return Response::new(422, "Unprocessable").body(b"{\"error\":\"schema\"}".to_vec());
        };
        // Idempotent persistence: a report's `seq` is its identity, so
        // retried or duplicated deliveries are acknowledged (the client
        // must stop retrying) but persisted exactly once.
        if let Some(seq) = doc.get("seq").and_then(|v| v.as_i64()) {
            match self.seen_seqs.binary_search(&seq) {
                Ok(_) => {
                    if let Some(t) = &self.telemetry {
                        t.duplicate_posts.inc();
                    }
                    // wm-lint: allow(defense/length-taint, reason = "inbound request length into the ground-truth trace; the client already put it on the wire")
                    self.trace_instant("netflix.state.dup", seq as u64, req.body.len() as u64);
                    return Response::ok()
                        .header("Content-Type", "application/json")
                        .body(b"{\"persisted\":true,\"dup\":true}".to_vec());
                }
                Err(pos) => self.seen_seqs.insert(pos, seq),
            }
        }
        if let Some(t) = &self.telemetry {
            match entry.kind {
                StateEventKind::Type1 => t.state_type1.inc(),
                StateEventKind::Type2 => t.state_type2.inc(),
            }
        }
        // a = report kind (1/2) + choice point packed, b = body length
        // — the body length is exactly what the eavesdropper sees
        // (padded by TLS), so the trace links server truth to wire.
        self.trace_instant(
            "netflix.state.hit",
            match entry.kind {
                StateEventKind::Type1 => 1,
                StateEventKind::Type2 => 2,
            } << 16
                | entry.choice_point.0 as u64,
            entry.body_len as u64,
        );
        self.state_log.push(entry);
        Response::ok()
            .header("Content-Type", "application/json")
            .body(b"{\"persisted\":true}".to_vec())
    }

    /// Check the fields the real API would require and classify the
    /// report. Type-2 is distinguished by its `interactionDiff` block.
    fn validate_state(&self, doc: &Value, body_len: usize) -> Option<StateLogEntry> {
        doc.get("esn")?.as_str()?;
        doc.get("event")?.as_str()?;
        let cp = doc.get("choicePointId")?.as_i64()? - STATE_ID_OFFSET;
        let seg = doc.get("segmentId")?.as_i64()? - STATE_ID_OFFSET;
        if cp < 0 || cp as usize >= self.graph.choice_points().len() {
            return None;
        }
        if seg < 0 || seg as usize >= self.graph.segments().len() {
            return None;
        }
        let kind = if let Some(diff) = doc.get("interactionDiff") {
            // A type-2 must carry the cancelled-prefetch accounting.
            diff.get("cancelledPrefetch")?.get("chunks")?.as_i64()?;
            diff.get("selection")?.get("label")?.as_str()?;
            StateEventKind::Type2
        } else {
            StateEventKind::Type1
        };
        Some(StateLogEntry {
            kind,
            choice_point: ChoicePointId(cp as u16),
            segment: SegmentId(seg as u16),
            body_len,
        })
    }
}

/// Deterministic, cheap chunk payload (not all-zero so compression-style
/// countermeasures cannot trivially collapse it).
fn chunk_body(seg: u16, idx: u32, size: usize) -> Vec<u8> {
    let seed = (seg as u32) << 16 | (idx & 0xffff);
    (0..size)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            (x >> 24) as u8
        })
        .collect()
}

/// Parse `/media/<seg>/<chunk>?br=<bps>`.
fn parse_chunk_path(path: &str) -> Option<(u16, u32, u32)> {
    let (route, query) = path.split_once('?')?;
    let mut parts = route.strip_prefix("/media/")?.split('/');
    let seg: u16 = parts.next()?.parse().ok()?;
    let chunk: u32 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    let bitrate: u32 = query.strip_prefix("br=")?.parse().ok()?;
    Some((seg, chunk, bitrate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wm_story::bandersnatch::{bandersnatch, tiny_film};

    fn server() -> NetflixServer {
        NetflixServer::new(Arc::new(bandersnatch()), ServerConfig { media_scale: 1000 })
    }

    fn state_body(cp: i64, seg: i64, type2: bool) -> Vec<u8> {
        let mut members = vec![
            ("esn".to_string(), Value::from("NFCDIE-02-TEST")),
            ("event".to_string(), Value::from("interactiveStateSnapshot")),
            (
                "choicePointId".to_string(),
                Value::from(cp + STATE_ID_OFFSET),
            ),
            ("segmentId".to_string(), Value::from(seg + STATE_ID_OFFSET)),
        ];
        if type2 {
            members.push((
                "interactionDiff".to_string(),
                Value::object(vec![
                    (
                        "cancelledPrefetch".to_string(),
                        Value::object(vec![("chunks".to_string(), Value::from(3i64))]),
                    ),
                    (
                        "selection".to_string(),
                        Value::object(vec![("label".to_string(), Value::from("Refuse"))]),
                    ),
                ]),
            ));
        }
        wm_json::to_bytes(&Value::object(members))
    }

    #[test]
    fn serves_manifest() {
        let mut s = server();
        let resp = s.handle(&Request::new("GET", "/manifest"));
        assert_eq!(resp.status, 200);
        let m = Manifest::from_json(&parse(&resp.body).unwrap()).unwrap();
        assert_eq!(m.media_scale, 1000);
        assert_eq!(m.ladder, crate::manifest::BITRATE_LADDER.to_vec());
    }

    #[test]
    fn serves_chunks_with_correct_sizes() {
        let mut s = server();
        let resp = s.handle(&Request::new("GET", "/media/0/0?br=3000000"));
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 750); // 750 kB / 1000
    }

    #[test]
    fn rejects_bad_chunk_requests() {
        let mut s = server();
        for path in [
            "/media/999/0?br=3000000",  // no such segment
            "/media/0/9999?br=3000000", // no such chunk
            "/media/0/0?br=1234",       // not on the ladder
            "/media/0/0",               // missing query
            "/media/x/y?br=3000000",    // junk ids
        ] {
            let resp = s.handle(&Request::new("GET", path));
            assert_ne!(resp.status, 200, "{path}");
        }
    }

    #[test]
    fn logs_type1_and_type2() {
        let mut s = server();
        let r1 = s.handle(&Request::new("POST", "/interact/state").body(state_body(2, 6, false)));
        assert_eq!(r1.status, 200);
        let r2 = s.handle(&Request::new("POST", "/interact/state").body(state_body(2, 6, true)));
        assert_eq!(r2.status, 200);
        assert_eq!(s.state_log().len(), 2);
        assert_eq!(s.state_log()[0].kind, StateEventKind::Type1);
        assert_eq!(s.state_log()[1].kind, StateEventKind::Type2);
        assert_eq!(s.state_log()[0].choice_point, ChoicePointId(2));
    }

    #[test]
    fn rejects_malformed_state() {
        let mut s = server();
        // Broken JSON.
        let r = s.handle(&Request::new("POST", "/interact/state").body(b"{oops".to_vec()));
        assert_eq!(r.status, 400);
        // Valid JSON, missing fields.
        let r =
            s.handle(&Request::new("POST", "/interact/state").body(b"{\"esn\":\"x\"}".to_vec()));
        assert_eq!(r.status, 422);
        // Out-of-range choice point.
        let r = s.handle(&Request::new("POST", "/interact/state").body(state_body(99, 0, false)));
        assert_eq!(r.status, 422);
        // Type-2 without the prefetch accounting.
        let mut doc = parse(&state_body(1, 3, false)).unwrap();
        if let Value::Object(members) = &mut doc {
            members.push(("interactionDiff".into(), Value::object(vec![])));
        }
        let r = s.handle(&Request::new("POST", "/interact/state").body(wm_json::to_bytes(&doc)));
        assert_eq!(r.status, 422);
        assert!(s.state_log().is_empty());
    }

    fn state_body_with_seq(cp: i64, seg: i64, seq: i64) -> Vec<u8> {
        let mut doc = parse(&state_body(cp, seg, false)).unwrap();
        if let Value::Object(members) = &mut doc {
            members.push(("seq".into(), Value::from(seq)));
        }
        wm_json::to_bytes(&doc)
    }

    #[test]
    fn duplicate_seq_is_acknowledged_but_logged_once() {
        let mut s = server();
        let body = state_body_with_seq(2, 6, 5);
        let r1 = s.handle(&Request::new("POST", "/interact/state").body(body.clone()));
        assert_eq!(r1.status, 200);
        let r2 = s.handle(&Request::new("POST", "/interact/state").body(body));
        assert_eq!(r2.status, 200, "duplicates must still be acknowledged");
        assert_eq!(s.state_log().len(), 1, "persisted exactly once");
        // A different seq is a different report.
        let r3 =
            s.handle(&Request::new("POST", "/interact/state").body(state_body_with_seq(2, 6, 6)));
        assert_eq!(r3.status, 200);
        assert_eq!(s.state_log().len(), 2);
    }

    #[test]
    fn armed_errors_defer_state_posts() {
        let mut s = server();
        s.arm_state_errors(2, 3);
        let body = state_body_with_seq(2, 6, 1);
        let r1 = s.handle(&Request::new("POST", "/interact/state").body(body.clone()));
        assert_eq!(r1.status, 503);
        assert_eq!(r1.header_value("Retry-After"), Some("3"));
        let r2 = s.handle(&Request::new("POST", "/interact/state").body(body.clone()));
        assert_eq!(r2.status, 503);
        assert!(s.state_log().is_empty(), "503'd posts are not persisted");
        // Burst exhausted: the retry now lands.
        let r3 = s.handle(&Request::new("POST", "/interact/state").body(body));
        assert_eq!(r3.status, 200);
        assert_eq!(s.state_log().len(), 1);
    }

    #[test]
    fn telemetry_endpoints_accept_anything() {
        let mut s = server();
        for path in ["/log", "/hb", "/diag"] {
            let r = s.handle(&Request::new("POST", path).body(vec![0xab; 100]));
            assert_eq!(r.status, 200, "{path}");
        }
    }

    #[test]
    fn unknown_route_is_404() {
        let mut s = server();
        assert_eq!(s.handle(&Request::new("GET", "/nope")).status, 404);
        assert_eq!(s.handle(&Request::new("PUT", "/manifest")).status, 404);
    }

    #[test]
    fn chunk_bodies_deterministic_and_nontrivial() {
        let mut s = NetflixServer::new(Arc::new(tiny_film()), ServerConfig { media_scale: 100 });
        let a = s.handle(&Request::new("GET", "/media/0/0?br=235000")).body;
        let b = s.handle(&Request::new("GET", "/media/0/0?br=235000")).body;
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<u8> = a.iter().copied().collect();
        assert!(distinct.len() > 16, "chunk bytes should not be constant");
    }
}
