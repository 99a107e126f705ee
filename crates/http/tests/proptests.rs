//! Property-based tests for HTTP framing.
//!
//! Hand-rolled: the offline build environment has no proptest, so each
//! property runs over a few hundred cases drawn from a local splitmix64
//! driver. Failures print the case number for replay.

use wm_http::{ParseError, ParsePhase, Request, RequestParser, Response, ResponseParser};

/// Minimal splitmix64 case generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len + 1);
        (0..len).map(|_| self.next() as u8).collect()
    }
    fn pick_char(&mut self, pool: &[u8]) -> char {
        pool[self.below(pool.len())] as char
    }
    /// `[A-Za-z][A-Za-z0-9-]{0,15}` — a header-name token.
    fn token(&mut self) -> String {
        const FIRST: &[u8] = b"ABCXYZabcxyz";
        const REST: &[u8] = b"ABCXYZabcxyz019-";
        let mut s = String::new();
        s.push(self.pick_char(FIRST));
        for _ in 0..self.below(16) {
            s.push(self.pick_char(REST));
        }
        s
    }
    /// Printable-ASCII header value without `:` or CR/LF, trimmed.
    fn header_value(&mut self) -> String {
        let len = self.below(41);
        let s: String = (0..len)
            .map(|_| {
                let c = (0x20 + self.below(0x5f)) as u8 as char;
                if c == ':' {
                    ';'
                } else {
                    c
                }
            })
            .collect();
        s.trim().to_string()
    }
}

/// Requests round-trip through the parser for any method, path,
/// headers and body, under any feed chunking.
#[test]
fn request_roundtrip() {
    const PATH_POOL: &[u8] = b"abcxyz019/._-";
    for case in 0..200u64 {
        let mut rng = Rng(0x47_0000 + case);
        let method = ["GET", "POST", "PUT"][rng.below(3)];
        let mut path = String::from("/");
        for _ in 0..rng.below(31) {
            path.push(rng.pick_char(PATH_POOL));
        }
        let n_headers = rng.below(6);
        let headers: Vec<(String, String)> = (0..n_headers)
            .map(|_| (rng.token(), rng.header_value()))
            .collect();
        let body = rng.bytes(799);
        let chunk = 1 + rng.below(255);
        // Content-Length is parser-internal; exclude colliding names.
        let mut req = Request::new(method, &path);
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length") {
                continue;
            }
            req = req.header(n, v);
        }
        let req = req.body(body);
        assert_eq!(req.to_bytes().len(), req.serialized_len(), "case {case}");
        let bytes = req.to_bytes();
        let mut parser = RequestParser::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            got.extend(parser.feed(piece).expect("own request"));
        }
        assert_eq!(got, vec![req], "case {case}");
    }
}

/// Responses round-trip likewise.
#[test]
fn response_roundtrip() {
    const REASON_POOL: &[u8] = b"ABCXYZabcxyz ";
    for case in 0..200u64 {
        let mut rng = Rng(0x47_1000 + case);
        let status = 100 + rng.below(500) as u16;
        let reason: String = (0..rng.below(17))
            .map(|_| rng.pick_char(REASON_POOL))
            .collect();
        let body = rng.bytes(799);
        let chunk = 1 + rng.below(255);
        let resp = Response::new(status, reason.trim()).body(body);
        let bytes = resp.to_bytes();
        let mut parser = ResponseParser::new();
        let mut got = Vec::new();
        for piece in bytes.chunks(chunk) {
            got.extend(parser.feed(piece).expect("own response"));
        }
        assert_eq!(got.len(), 1, "case {case}");
        assert_eq!(got[0].status, resp.status, "case {case}");
        assert_eq!(&got[0].body, &resp.body, "case {case}");
    }
}

/// Pipelined request sequences parse back in order.
#[test]
fn pipelining() {
    for case in 0..150u64 {
        let mut rng = Rng(0x47_2000 + case);
        let n = 1 + rng.below(5);
        let reqs: Vec<Request> = (0..n)
            .map(|i| Request::new("POST", format!("/r/{i}")).body(rng.bytes(99)))
            .collect();
        let wire: Vec<u8> = reqs.iter().flat_map(Request::to_bytes).collect();
        let mut parser = RequestParser::new();
        let got = parser.feed(&wire).expect("own requests");
        assert_eq!(got, reqs, "case {case}");
    }
}

/// Pipelined requests parse back in order under every feed chunking:
/// every chunk size from one byte up, so chunk edges land inside
/// `\r\n\r\n`, on zero-length bodies, and on chunks that end one
/// body and start the next head.
#[test]
fn pipelining_any_chunking() {
    for case in 0..40u64 {
        let mut rng = Rng(0x47_5000 + case);
        let n = 1 + rng.below(4);
        let reqs: Vec<Request> = (0..n)
            .map(|i| {
                // A third of the bodies are empty (no Content-Length).
                let body = if rng.below(3) == 0 {
                    Vec::new()
                } else {
                    rng.bytes(60)
                };
                Request::new(["GET", "POST"][rng.below(2)], format!("/r/{i}"))
                    .header("Host", "www.netflix.com")
                    .body(body)
            })
            .collect();
        let wire: Vec<u8> = reqs.iter().flat_map(Request::to_bytes).collect();
        for chunk in 1..=wire.len() {
            let mut parser = RequestParser::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                got.extend(parser.feed(piece).expect("own requests"));
            }
            assert_eq!(got, reqs, "case {case}, chunk {chunk}");
            assert_eq!(
                parser.phase(),
                ParsePhase::Headers,
                "case {case}, chunk {chunk}"
            );
        }
    }
}

/// A feed that completes one message's body and carries only the
/// first bytes of the next head keeps those bytes: the next feed
/// finishes that head, whatever the split point inside it.
#[test]
fn partial_head_after_body_survives() {
    let a = Response::ok().body(b"first".to_vec());
    let b = Response::new(204, "No Content").header("X-Next", "yes");
    let (a_wire, b_wire) = (a.to_bytes(), b.to_bytes());
    for split in 0..=b_wire.len() {
        let mut first = a_wire.clone();
        first.extend_from_slice(&b_wire[..split]);
        let mut parser = ResponseParser::new();
        let mut got = parser.feed(&first).expect("own responses");
        got.extend(parser.feed(&b_wire[split..]).expect("own responses"));
        assert_eq!(got, vec![a.clone(), b.clone()], "split {split}");
    }
}

/// Ten thousand bodiless requests pipelined into one feed parse in one
/// pass: the accumulator loops rather than recursing per message, so
/// the input's length never bounds the stack.
#[test]
fn ten_thousand_pipelined_requests_in_one_feed() {
    const N: usize = 10_000;
    let wire = b"GET / HTTP/1.1\r\n\r\n".repeat(N);
    let got = RequestParser::new()
        .feed(&wire)
        .expect("well-formed requests");
    assert_eq!(got.len(), N);
    assert!(got
        .iter()
        .all(|r| r.method == "GET" && r.path == "/" && r.body.is_empty()));
}

/// The parser never panics on arbitrary bytes.
#[test]
fn parser_total() {
    for case in 0..300u64 {
        let mut rng = Rng(0x47_3000 + case);
        let bytes = rng.bytes(399);
        let mut p = RequestParser::new();
        let _ = p.feed(&bytes);
        let mut p = ResponseParser::new();
        let _ = p.feed(&bytes);
    }
}

/// Mutating one byte of a valid request (or truncating it) never
/// panics: the parser either produces requests, keeps waiting for more
/// input, or returns a typed error — under any feed chunking.
#[test]
fn mutated_requests_never_panic() {
    for case in 0..300u64 {
        let mut rng = Rng(0x47_4000 + case);
        let req = Request::new("POST", "/pbo/choice")
            .header("X-Netflix.esn", "NFCDIE-03-ABC")
            .body(rng.bytes(199));
        let mut bytes = req.to_bytes();
        match rng.below(3) {
            0 => {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            _ => {
                let at = rng.below(bytes.len());
                bytes.insert(at, rng.next() as u8);
            }
        }
        let chunk = 1 + rng.below(64);
        let mut parser = RequestParser::new();
        for piece in bytes.chunks(chunk) {
            if parser.feed(piece).is_err() {
                break; // typed error: fine, just must not panic
            }
        }
    }
}

/// Structurally malformed heads are rejected with the *right* typed
/// error, so callers can tell protocol violations apart.
#[test]
fn malformed_heads_yield_typed_errors() {
    let feed_req = |bytes: &[u8]| RequestParser::new().feed(bytes);
    let feed_resp = |bytes: &[u8]| ResponseParser::new().feed(bytes);

    assert!(matches!(
        feed_req(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
        Err(ParseError::BadContentLength(v)) if v == "banana"
    ));
    assert!(matches!(
        feed_req(b"POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n"),
        Err(ParseError::MalformedHeaderLine(_))
    ));
    assert!(matches!(
        feed_req(b"NOT-A-REQUEST-LINE\r\n\r\n"),
        Err(ParseError::MalformedRequestLine(_))
    ));
    assert!(matches!(
        feed_req(b"POST /x HTTP/1.1\r\nX: \xff\xfe\r\n\r\n"),
        Err(ParseError::NonUtf8Head)
    ));
    assert!(matches!(
        feed_resp(b"HTTP/1.1 banana OK\r\n\r\n"),
        Err(ParseError::BadStatusLine(_))
    ));
    // Errors are values: Display/Error impls must hold up.
    let err = feed_req(b"oops\r\n\r\n").expect_err("malformed");
    assert!(!err.to_string().is_empty());
    let _: &dyn std::error::Error = &err;
}
