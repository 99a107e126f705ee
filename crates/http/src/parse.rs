//! Incremental HTTP/1.1 message parsers.
//!
//! Both simulated endpoints read their peer's bytes from a TLS plaintext
//! stream that arrives in arbitrary-sized pieces, so parsing is
//! incremental: feed bytes, pop complete messages. Only
//! `Content-Length` framing is supported (all simulated traffic uses
//! it; see the crate docs).

use crate::{Headers, Request, Response};

/// A malformed message head, as a typed error.
///
/// Both parsers consume bytes that (from the server's perspective)
/// originate from an untrusted peer, so every malformation maps to a
/// variant here — the parse path never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header block is not valid UTF-8.
    NonUtf8Head,
    /// `Content-Length` is present but not a decimal `usize`.
    BadContentLength(String),
    /// A header line has no `:` separator.
    MalformedHeaderLine(String),
    /// The request line is not `METHOD PATH HTTP/1.x`.
    MalformedRequestLine(String),
    /// The status line is not `HTTP/1.x CODE [reason]`.
    BadStatusLine(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::NonUtf8Head => write!(f, "non-UTF-8 header block"),
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            ParseError::MalformedHeaderLine(l) => write!(f, "malformed header line {l:?}"),
            ParseError::MalformedRequestLine(l) => write!(f, "malformed request line {l:?}"),
            ParseError::BadStatusLine(l) => write!(f, "bad status line {l:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Where the parser currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParsePhase {
    /// Accumulating header bytes (until `\r\n\r\n`).
    Headers,
    /// Headers parsed; accumulating the body's remaining bytes.
    Body,
}

/// Most body bytes reserved up front from a peer-supplied
/// `Content-Length`; larger bodies grow as their bytes arrive.
const MAX_BODY_PREALLOC: usize = 1 << 20;

/// A message the accumulator can frame: built from its start line,
/// then given its header fields and body.
trait Message: Sized {
    fn from_start_line(line: &str) -> Result<Self, ParseError>;
    fn headers_mut(&mut self) -> &mut Headers;
    fn body_mut(&mut self) -> &mut Vec<u8>;
}

impl Message for Request {
    fn from_start_line(line: &str) -> Result<Self, ParseError> {
        let mut parts = line.split(' ');
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        let version = parts.next().unwrap_or("");
        if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
            return Err(ParseError::MalformedRequestLine(line.to_owned()));
        }
        Ok(Request::new(method, path))
    }

    fn headers_mut(&mut self) -> &mut Headers {
        &mut self.headers
    }

    fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

impl Message for Response {
    fn from_start_line(line: &str) -> Result<Self, ParseError> {
        let bad = || ParseError::BadStatusLine(line.to_owned());
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        let status: u16 = parts.next().unwrap_or("").parse().map_err(|_| bad())?;
        let reason = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(bad());
        }
        Ok(Response::new(status, reason))
    }

    fn headers_mut(&mut self) -> &mut Headers {
        &mut self.headers
    }

    fn body_mut(&mut self) -> &mut Vec<u8> {
        &mut self.body
    }
}

/// Head-then-body framing shared by both parsers.
///
/// One pass over each fed slice: a head that arrives whole is parsed
/// in place, body bytes are copied once, straight into the message.
/// Only a head split across feeds is buffered, and the search for its
/// `\r\n\r\n` resumes where the previous feed left off.
struct Accumulator<M> {
    /// The start of a head split across feeds. Never holds a complete
    /// `\r\n\r\n` (it would have ended the head).
    partial_head: Vec<u8>,
    /// The message whose body is being read, and its bytes still owed.
    pending: Option<(M, usize)>,
}

impl<M: Message> Accumulator<M> {
    fn new() -> Self {
        Accumulator {
            partial_head: Vec::new(),
            pending: None,
        }
    }

    fn phase(&self) -> ParsePhase {
        match self.pending {
            Some(_) => ParsePhase::Body,
            None => ParsePhase::Headers,
        }
    }

    /// Feed bytes, appending every message they complete to `out`.
    /// Returns `Err` on a malformed head.
    // wm-lint: hotpath
    fn feed(&mut self, mut input: &[u8], out: &mut Vec<M>) -> Result<(), ParseError> {
        loop {
            if let Some((msg, owed)) = &mut self.pending {
                let (chunk, rest) = input.split_at((*owed).min(input.len()));
                msg.body_mut().extend_from_slice(chunk);
                *owed -= chunk.len();
                input = rest;
                if *owed > 0 {
                    return Ok(());
                }
                // Zero-length bodies complete here too, with no
                // trailing bytes needed.
                out.extend(self.pending.take().map(|(msg, _)| msg));
                continue;
            }
            if input.is_empty() {
                return Ok(());
            }
            let consumed = if self.partial_head.is_empty() {
                match find_double_crlf(input) {
                    Some(end) => {
                        self.pending = Some(parse_head(input.get(..end).unwrap_or_default())?);
                        end + 4
                    }
                    None => {
                        self.partial_head.extend_from_slice(input);
                        return Ok(());
                    }
                }
            } else {
                match self.complete_head(input) {
                    Some(consumed) => {
                        let head = parse_head(&self.partial_head);
                        self.partial_head.clear();
                        self.pending = Some(head?);
                        consumed
                    }
                    None => return Ok(()),
                }
            };
            input = input.get(consumed..).unwrap_or_default();
        }
    }

    /// Extend the buffered partial head with `input` up to its end:
    /// returns how many input bytes ended it (terminator included), or
    /// `None` when all of `input` belongs to a still-open head. Only
    /// the last three buffered bytes are searched again, for a
    /// terminator that straddles the feeds.
    fn complete_head(&mut self, input: &[u8]) -> Option<usize> {
        let old = self.partial_head.len();
        let from = old.saturating_sub(3);
        let probe = input.get(..3).unwrap_or(input);
        self.partial_head.extend_from_slice(probe);
        if let Some(at) = find_double_crlf(self.partial_head.get(from..).unwrap_or_default()) {
            self.partial_head.truncate(from + at);
            return Some(from + at + 4 - old);
        }
        self.partial_head.truncate(old);
        match find_double_crlf(input) {
            Some(end) => {
                self.partial_head
                    .extend_from_slice(input.get(..end).unwrap_or_default());
                Some(end + 4)
            }
            None => {
                self.partial_head.extend_from_slice(input);
                None
            }
        }
    }
}

/// Where the first `\r\n\r\n` in `buf` starts. A Horspool scan:
/// the byte under the end of the candidate window decides how far the
/// window can move, so typical header text is skipped four bytes at a
/// time.
fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    let mut end = 3;
    while let Some(&last) = buf.get(end) {
        end += match last {
            b'\n' if buf.get(end - 3..end) == Some(b"\r\n\r") => return Some(end - 3),
            b'\n' => 2,
            b'\r' => 1,
            _ => 4,
        };
    }
    None
}

/// Parse a complete head (everything before its `\r\n\r\n`) into a
/// message awaiting its body, and the body length owed.
///
/// One pass over the field lines. Errors surface in a fixed order:
/// UTF-8, then the first `Content-Length` value, then the start line,
/// then the first line without a `:`.
// wm-lint: alloc-ok(reason = "one head per message: its method or reason, path, header block and body buffer, each allocated once")
fn parse_head<M: Message>(head: &[u8]) -> Result<(M, usize), ParseError> {
    let text = std::str::from_utf8(head).map_err(|_| ParseError::NonUtf8Head)?;
    let mut lines = CrlfSplit(Some(text));
    let start = lines.next().unwrap_or_default();
    let mut headers = Headers::with_capacity(text.len() - start.len());
    let mut body_len = None;
    let mut malformed = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            malformed = malformed.or(Some(line));
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        // The builders re-add Content-Length on serialization; strip
        // it on parse so `parse(serialize(m)) == m`.
        if !name.eq_ignore_ascii_case("content-length") {
            headers.push(name, value);
        } else if body_len.is_none() {
            let len = value
                .parse::<usize>()
                .map_err(|_| ParseError::BadContentLength(value.to_owned()))?;
            body_len = Some(len);
        }
    }
    let mut msg = M::from_start_line(start)?;
    if let Some(line) = malformed {
        return Err(ParseError::MalformedHeaderLine(line.to_owned()));
    }
    let body_len = body_len.unwrap_or(0);
    *msg.headers_mut() = headers;
    msg.body_mut()
        .reserve_exact(body_len.min(MAX_BODY_PREALLOC));
    Ok((msg, body_len))
}

/// `str::split("\r\n")`, finding each `\n` with the standard
/// library's byte search instead of a general substring search.
struct CrlfSplit<'a>(Option<&'a str>);

impl<'a> Iterator for CrlfSplit<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = self.0?;
        let mut from = 0;
        while let Some(at) = rest.get(from..).and_then(|r| r.find('\n')) {
            let nl = from + at;
            if nl > 0 && rest.as_bytes().get(nl - 1) == Some(&b'\r') {
                self.0 = rest.get(nl + 1..);
                return rest.get(..nl - 1);
            }
            from = nl + 1;
        }
        self.0 = None;
        Some(rest)
    }
}

/// Incremental request parser (server side).
pub struct RequestParser {
    acc: Accumulator<Request>,
}

impl RequestParser {
    pub fn new() -> Self {
        RequestParser {
            acc: Accumulator::new(),
        }
    }

    /// Current phase (tests and flow-control use this).
    pub fn phase(&self) -> ParsePhase {
        self.acc.phase()
    }

    /// Feed stream bytes; returns the requests completed by this feed.
    // wm-lint: parse-root
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Request>, ParseError> {
        let mut out = Vec::new();
        self.acc.feed(bytes, &mut out)?;
        Ok(out)
    }
}

impl Default for RequestParser {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental response parser (client side).
pub struct ResponseParser {
    acc: Accumulator<Response>,
}

impl ResponseParser {
    pub fn new() -> Self {
        ResponseParser {
            acc: Accumulator::new(),
        }
    }

    pub fn phase(&self) -> ParsePhase {
        self.acc.phase()
    }

    /// Feed stream bytes; returns the responses completed by this feed.
    // wm-lint: parse-root
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Vec<Response>, ParseError> {
        let mut out = Vec::new();
        self.acc.feed(bytes, &mut out)?;
        Ok(out)
    }
}

impl Default for ResponseParser {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_crlf_search_matches_naive_scan() {
        let naive = |b: &[u8]| b.windows(4).position(|w| w == b"\r\n\r\n");
        let alphabet = [b'\r', b'\n', b'a'];
        // Every string over {CR, LF, a} up to length 8.
        for len in 0..=8u32 {
            for code in 0..3usize.pow(len) {
                let mut c = code;
                let buf: Vec<u8> = (0..len)
                    .map(|_| {
                        let b = alphabet[c % 3];
                        c /= 3;
                        b
                    })
                    .collect();
                assert_eq!(find_double_crlf(&buf), naive(&buf), "{buf:?}");
            }
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::new("POST", "/api/state")
            .header("Host", "www.netflix.com")
            .header("X-Esn", "NFCDIE-02-XYZ")
            .body(b"{\"event\":1}".to_vec());
        let mut p = RequestParser::new();
        let got = p.feed(&req.to_bytes()).unwrap();
        assert_eq!(got, vec![req]);
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok()
            .header("Content-Type", "application/json")
            .body(b"ok".to_vec());
        let mut p = ResponseParser::new();
        let got = p.feed(&resp.to_bytes()).unwrap();
        assert_eq!(got, vec![resp]);
    }

    #[test]
    fn byte_at_a_time() {
        let req = Request::new("GET", "/chunk/42").header("Host", "nflx");
        let bytes = req.to_bytes();
        let mut p = RequestParser::new();
        let mut got = Vec::new();
        for b in &bytes {
            got.extend(p.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, vec![req]);
    }

    #[test]
    fn pipelined_messages() {
        let a = Request::new("GET", "/a");
        let b = Request::new("POST", "/b").body(b"xyz".to_vec());
        let mut wire = a.to_bytes();
        wire.extend(b.to_bytes());
        let mut p = RequestParser::new();
        let got = p.feed(&wire).unwrap();
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn body_split_across_feeds() {
        let req = Request::new("POST", "/s").body(vec![b'q'; 1000]);
        let bytes = req.to_bytes();
        let mut p = RequestParser::new();
        let first = p.feed(&bytes[..bytes.len() - 500]).unwrap();
        assert!(first.is_empty());
        assert_eq!(p.phase(), ParsePhase::Body);
        let second = p.feed(&bytes[bytes.len() - 500..]).unwrap();
        assert_eq!(second, vec![req]);
    }

    #[test]
    fn malformed_inputs_error() {
        let mut p = RequestParser::new();
        assert!(p.feed(b"NOT A REQUEST\r\n\r\n").is_err());
        let mut p2 = RequestParser::new();
        assert!(p2
            .feed(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
            .is_err());
        let mut p3 = ResponseParser::new();
        assert!(p3.feed(b"HTTP/1.1 abc Bad\r\n\r\n").is_err());
    }

    #[test]
    fn zero_length_body_completes_without_more_bytes() {
        let mut p = ResponseParser::new();
        let got = p
            .feed(b"HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].status, 204);
        assert!(got[0].body.is_empty());
    }
}
