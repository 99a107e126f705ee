//! # wm-http — minimal HTTP/1.1 framing
//!
//! The Netflix player speaks HTTPS: HTTP requests and responses inside
//! the TLS stream. Header bytes count toward the TLS record lengths the
//! eavesdropper observes, so requests are serialized byte-exactly here
//! (header order and spacing fixed, `Content-Length` framing only — the
//! state-report POSTs the paper studies are small single-record bodies,
//! not chunked).
//!
//! The module provides [`Request`]/[`Response`] builders with exact
//! serialized sizes, plus incremental parsers ([`RequestParser`],
//! [`ResponseParser`]) used by the simulated server and player. Both
//! sit on the simulator's per-message path, so a message costs a
//! handful of allocations: its method or reason, path, header block
//! and body.

use std::fmt;
use std::io::Write;

mod parse;

pub use parse::{ParseError, ParsePhase, RequestParser, ResponseParser};

/// Header fields in serialization order (order matters for byte
/// layout), stored as their wire block: one `Name: value\r\n` line per
/// field. Building, serializing and parsing a message each touch one
/// buffer instead of two strings per field. Names must not contain
/// `:`, and neither names nor values may contain CR or LF.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    block: String,
}

/// Room for a typical header block, so building one allocates once.
const TYPICAL_BLOCK: usize = 256;

impl Headers {
    fn with_capacity(n: usize) -> Self {
        Headers {
            block: String::with_capacity(n),
        }
    }

    /// Append a field.
    pub fn push(&mut self, name: &str, value: &str) {
        if self.block.capacity() == 0 {
            self.block.reserve(TYPICAL_BLOCK);
        }
        self.block.push_str(name);
        self.block.push_str(": ");
        self.block.push_str(value);
        self.block.push_str("\r\n");
    }

    /// The fields as `(name, value)` pairs, in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        // Every line is `name: value\r\n`, and neither part holds a
        // `\n` or (in the name) a `:`, so single-byte searches split
        // the block exactly.
        self.block.split_terminator('\n').map(|line| {
            let line = line.strip_suffix('\r').unwrap_or(line);
            let (name, value) = line.split_once(':').unwrap_or((line, ""));
            (name, value.strip_prefix(' ').unwrap_or(value))
        })
    }

    /// The first value of field `name` (case-insensitive name match).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The serialized block (every line `\r\n`-terminated).
    fn wire(&self) -> &[u8] {
        self.block.as_bytes()
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Request {
    /// Build a request; a `Content-Length` header is appended
    /// automatically when a body is present. An owned `path` is moved
    /// in, not copied.
    pub fn new(method: &str, path: impl Into<String>) -> Self {
        Request {
            method: method.to_owned(),
            path: path.into(),
            headers: Headers::default(),
            body: Vec::new(),
        }
    }

    /// Append a header (chainable).
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push(name, value);
        self
    }

    /// Attach a body (chainable).
    pub fn body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Serialize to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.serialized_len());
        self.write_to(&mut out);
        out
    }

    /// Append the wire bytes to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        out.extend_from_slice(self.headers.wire());
        if !self.body.is_empty() {
            write_content_length(out, self.body.len());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    /// Exact length of [`Request::to_bytes`].
    pub fn serialized_len(&self) -> usize {
        self.serialized_len_with_body(self.body.len())
    }

    /// Exact length of [`Request::to_bytes`] were the body `body_len`
    /// bytes long (the `Content-Length` digits included).
    pub fn serialized_len_with_body(&self, body_len: usize) -> usize {
        let mut n = self.method.len() + 1 + self.path.len() + 11; // " HTTP/1.1\r\n"
        n += self.headers.wire().len();
        if body_len > 0 {
            n += 16 + dec_len(body_len) + 2; // "Content-Length: …\r\n"
        }
        n + 2 + body_len
    }

    /// Look up a header value (case-insensitive name match).
    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub reason: String,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16, reason: &str) -> Self {
        Response {
            status,
            reason: reason.to_owned(),
            headers: Headers::default(),
            body: Vec::new(),
        }
    }

    /// `200 OK` shorthand.
    pub fn ok() -> Self {
        Response::new(200, "OK")
    }

    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push(name, value);
        self
    }

    pub fn body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Serialize to wire bytes (Content-Length always present, matching
    /// real origin servers).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.write_to(&mut out);
        out
    }

    /// Append the wire bytes to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        // Writing into a Vec cannot fail.
        let _ = write!(out, "HTTP/1.1 {} ", self.status);
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(self.headers.wire());
        write_content_length(out, self.body.len());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }

    pub fn header_value(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }
}

/// `Content-Length: <n>\r\n`, formatted in place.
fn write_content_length(out: &mut Vec<u8>, n: usize) {
    // Writing into a Vec cannot fail.
    let _ = write!(out, "Content-Length: {n}\r\n");
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} ({} body bytes)",
            self.method,
            self.path,
            self.body.len()
        )
    }
}

fn dec_len(mut v: usize) -> usize {
    let mut n = 1;
    while v >= 10 {
        v /= 10;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_format() {
        let req = Request::new("POST", "/state")
            .header("Host", "www.netflix.com")
            .body(b"{\"x\":1}".to_vec());
        let bytes = req.to_bytes();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("POST /state HTTP/1.1\r\n"));
        assert!(text.contains("Host: www.netflix.com\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"));
        assert_eq!(bytes.len(), req.serialized_len());
    }

    #[test]
    fn get_without_body_has_no_content_length() {
        let req = Request::new("GET", "/chunk/1");
        let text = String::from_utf8(req.to_bytes()).unwrap();
        assert!(!text.contains("Content-Length"));
        assert_eq!(req.to_bytes().len(), req.serialized_len());
    }

    #[test]
    fn serialized_len_matches_across_sizes() {
        for body_len in [0usize, 1, 9, 10, 99, 100, 1000, 12345] {
            let req = Request::new("POST", "/x")
                .header("A", "b")
                .body(vec![b'z'; body_len]);
            assert_eq!(
                req.to_bytes().len(),
                req.serialized_len(),
                "body {body_len}"
            );
        }
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::ok()
            .header("Content-Type", "application/json")
            .body(b"{}".to_vec());
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let req = Request::new("GET", "/").header("X-Netflix-Esn", "NFCDIE-02");
        assert_eq!(req.header_value("x-netflix-esn"), Some("NFCDIE-02"));
        assert_eq!(req.header_value("missing"), None);
    }
}
