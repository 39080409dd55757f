//! HTTP bulk-ingest source: `POST /ingest` with a newline-delimited
//! body, a JSON array of strings (`Content-Type: application/json`), or
//! either of those gzipped (`Content-Encoding: gzip`, decompressed by
//! the vendored [`super::inflate`] — no compression crate).
//!
//! Admission control happens *before* the body is accepted into the
//! pipeline: a `Content-Length` above the configured cap is refused with
//! 413 (the body is discarded, not buffered; the same cap bounds the
//! *decompressed* size of a gzip body), and a body whose line count
//! exceeds the ingest queue's free space is refused with 429 +
//! `Retry-After` so well-behaved clients back off instead of silently
//! losing a prefix of their batch — a bulk POST is all-or-nothing, and a
//! malformed JSON or gzip body rejects whole with 400.

use super::{inflate, Shared, SourceEvent, HTTP_SOURCE};
use crate::metrics::PipelineMetrics;
use crate::net::{AsLoopFd, Handler, Interest, LoopCtx, Next};
use monilog_model::ByteLine;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on the request-head bytes (request line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Deadline for receiving the complete request.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Deadline for flushing the response.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

pub(super) struct IngestListener {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl IngestListener {
    pub(super) fn new(listener: TcpListener, shared: Arc<Shared>) -> Self {
        IngestListener { listener, shared }
    }
}

impl Handler for IngestListener {
    fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
        loop {
            match self.listener.accept() {
                Ok((conn, _peer)) => {
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    PipelineMetrics::add(&self.shared.metrics.sources_connections, 1);
                    let fd = conn.loop_fd();
                    ctx.register(fd, Box::new(IngestConn::new(conn, self.shared.clone())));
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                Err(_) => return Next::Keep,
            }
        }
    }
}

enum Phase {
    Head,
    /// Reading `remaining` body bytes (accepted request).
    Body {
        remaining: usize,
    },
    /// Discarding `remaining` refused-body bytes before answering, so the
    /// close does not RST the status line away.
    Discard {
        remaining: usize,
    },
    Write {
        since: Instant,
    },
}

struct IngestConn {
    conn: TcpStream,
    shared: Arc<Shared>,
    phase: Phase,
    head: Vec<u8>,
    body: Vec<u8>,
    out: Vec<u8>,
    /// Lines parsed from an accepted body, not yet in the queue.
    pending: VecDeque<ByteLine>,
    accepted: usize,
    opened: Instant,
    /// `Content-Encoding: gzip` on the current request.
    gzip: bool,
    /// `Content-Type: application/json` on the current request: the body
    /// is a JSON array of strings, one log line per element.
    json: bool,
}

impl IngestConn {
    fn new(conn: TcpStream, shared: Arc<Shared>) -> Self {
        IngestConn {
            conn,
            shared,
            phase: Phase::Head,
            head: Vec::with_capacity(512),
            body: Vec::new(),
            out: Vec::new(),
            pending: VecDeque::new(),
            accepted: 0,
            opened: Instant::now(),
            gzip: false,
            json: false,
        }
    }

    fn close(&self) -> Next {
        PipelineMetrics::add(&self.shared.metrics.sources_disconnects, 1);
        Next::Close
    }

    fn respond(&mut self, status: &str, extra_headers: &str, body: &str) {
        self.out = format!(
            "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n{extra_headers}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        self.phase = Phase::Write {
            since: Instant::now(),
        };
    }

    fn reject(&mut self, status: &str, extra_headers: &str, body: &str, discard: usize) {
        PipelineMetrics::add(&self.shared.metrics.sources_http_rejected, 1);
        if discard > 0 {
            // Answer only after the refused body has drained past us.
            self.out.clear();
            self.phase = Phase::Discard { remaining: discard };
            self.body.clear();
            let line = format!(
                "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n{extra_headers}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            self.out = line.into_bytes();
        } else {
            self.respond(status, extra_headers, body);
        }
    }

    /// Head is complete: route it.
    fn on_head(&mut self, head_end: usize) {
        let head = String::from_utf8_lossy(&self.head[..head_end]).into_owned();
        let mut lines = head.lines();
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");

        let mut content_length = 0usize;
        let mut encoding_supported = true;
        self.gzip = false;
        self.json = false;
        for l in lines {
            let Some((name, value)) = l.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("content-encoding") {
                match value.to_ascii_lowercase().as_str() {
                    "gzip" | "x-gzip" => self.gzip = true,
                    "identity" | "" => {}
                    _ => encoding_supported = false,
                }
            } else if name.eq_ignore_ascii_case("content-type") {
                // Parameters (`; charset=...`) don't change the shape.
                self.json = value
                    .split(';')
                    .next()
                    .unwrap_or("")
                    .trim()
                    .eq_ignore_ascii_case("application/json");
            }
        }

        // Body bytes that already arrived behind the head.
        let trailing = self.head.split_off(head_end);

        match (method, path) {
            ("GET", "/healthz") => self.respond("200 OK", "", "{\"status\":\"ok\"}\n"),
            ("POST", "/ingest") | ("POST", "/") => {
                if !encoding_supported {
                    let already = trailing.len().min(content_length);
                    self.reject(
                        "415 Unsupported Media Type",
                        "",
                        "{\"error\":\"only identity or gzip content-encoding\"}\n",
                        content_length - already,
                    );
                    return;
                }
                if content_length > self.shared.max_http_body_bytes {
                    let already = trailing.len().min(content_length);
                    self.reject(
                        "413 Payload Too Large",
                        "",
                        &format!(
                            "{{\"error\":\"body exceeds {} bytes\"}}\n",
                            self.shared.max_http_body_bytes
                        ),
                        content_length - already,
                    );
                    return;
                }
                self.body = trailing;
                if self.body.len() >= content_length {
                    self.body.truncate(content_length);
                    self.on_body();
                } else {
                    let remaining = content_length - self.body.len();
                    self.phase = Phase::Body { remaining };
                }
            }
            ("POST", _) | ("GET", _) => {
                self.reject(
                    "404 Not Found",
                    "",
                    "{\"error\":\"try POST /ingest or GET /healthz\"}\n",
                    content_length.saturating_sub(trailing.len()),
                );
            }
            _ => {
                self.reject(
                    "405 Method Not Allowed",
                    "",
                    "{\"error\":\"POST newline-delimited lines to /ingest\"}\n",
                    content_length.saturating_sub(trailing.len()),
                );
            }
        }
    }

    /// Body is complete: admission-check the whole batch, then enqueue.
    fn on_body(&mut self) {
        let mut raw = std::mem::take(&mut self.body);
        if self.gzip {
            // The body cap applies to what the pipeline would hold, so
            // the *decompressed* size is capped too — a compression bomb
            // stops inflating at the limit and is refused.
            match inflate::gunzip(&raw, self.shared.max_http_body_bytes) {
                Ok(decompressed) => raw = decompressed,
                Err(inflate::InflateError::TooLarge) => {
                    self.reject(
                        "413 Payload Too Large",
                        "",
                        &format!(
                            "{{\"error\":\"decompressed body exceeds {} bytes\"}}\n",
                            self.shared.max_http_body_bytes
                        ),
                        0,
                    );
                    return;
                }
                Err(e) => {
                    self.reject(
                        "400 Bad Request",
                        "",
                        &format!("{{\"error\":\"invalid gzip body: {e}\"}}\n"),
                        0,
                    );
                    return;
                }
            }
        }
        let lines: Vec<ByteLine> = if self.json {
            // JSON array of strings: one log line per element, decoded
            // into owned lines (escapes make zero-copy slicing moot).
            let text = match std::str::from_utf8(&raw) {
                Ok(text) => text,
                Err(_) => {
                    self.reject(
                        "400 Bad Request",
                        "",
                        "{\"error\":\"json body is not valid utf-8\"}\n",
                        0,
                    );
                    return;
                }
            };
            match parse_json_string_array(text) {
                Ok(items) => items
                    .into_iter()
                    .map(|s| s.trim_end().to_string())
                    .filter(|s| !s.is_empty())
                    .map(ByteLine::from_string)
                    .collect(),
                Err(why) => {
                    self.reject(
                        "400 Bad Request",
                        "",
                        &format!("{{\"error\":\"invalid json body: {why}\"}}\n"),
                        0,
                    );
                    return;
                }
            }
        } else {
            // The whole body becomes one refcounted arrival buffer; each
            // line is a sub-slice sharing it — no per-line allocation.
            // (Invalid UTF-8 is lossy-repaired once, inside `from_bytes`.)
            let body = ByteLine::from_bytes(raw.into());
            body.lines()
                .map(str::trim_end)
                .filter(|l| !l.is_empty())
                .map(|l| body.slice_of(l))
                .collect()
        };
        if lines.len() > self.shared.tx.free() {
            self.reject(
                "429 Too Many Requests",
                "Retry-After: 1\r\n",
                "{\"error\":\"ingest queue saturated, retry with backoff\"}\n",
                0,
            );
            return;
        }
        self.accepted = lines.len();
        self.pending = VecDeque::from(lines);
        if self.flush_lines() {
            self.finish_accept();
        }
        // else: queue filled up between the check and the pushes (another
        // source raced us); keep draining from tick, answer when done.
    }

    /// Returns true once every accepted line is in the queue.
    fn flush_lines(&mut self) -> bool {
        while let Some(line) = self.pending.pop_front() {
            let ev = SourceEvent {
                source: HTTP_SOURCE,
                line,
                cursor: None,
                seq: None,
            };
            if let Err(ev) = self.shared.push_or_apply_policy(ev, true) {
                self.pending.push_front(ev.line);
                return false;
            }
        }
        true
    }

    fn finish_accept(&mut self) {
        let n = self.accepted;
        self.respond("200 OK", "", &format!("{{\"accepted\":{n}}}\n"));
    }

    /// Read for the current phase. Returns `Some(next)` to terminate.
    fn pump_read(&mut self) -> Option<Next> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Phase::Write { .. } = self.phase {
                return None;
            }
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    // EOF before the request completed: nothing to answer.
                    return match self.phase {
                        Phase::Head | Phase::Body { .. } | Phase::Discard { .. } => {
                            Some(self.close())
                        }
                        Phase::Write { .. } => None,
                    };
                }
                Ok(n) => match &mut self.phase {
                    Phase::Head => {
                        self.head.extend_from_slice(&chunk[..n]);
                        if let Some(end) = find_head_end(&self.head) {
                            self.on_head(end);
                        } else if self.head.len() > MAX_HEAD_BYTES {
                            self.reject(
                                "400 Bad Request",
                                "",
                                "{\"error\":\"request head too large\"}\n",
                                0,
                            );
                        }
                    }
                    Phase::Body { remaining } => {
                        let take = n.min(*remaining);
                        self.body.extend_from_slice(&chunk[..take]);
                        *remaining -= take;
                        if *remaining == 0 {
                            self.on_body();
                        }
                    }
                    Phase::Discard { remaining } => {
                        *remaining = remaining.saturating_sub(n);
                        if *remaining == 0 {
                            self.phase = Phase::Write {
                                since: Instant::now(),
                            };
                        }
                    }
                    Phase::Write { .. } => {}
                },
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Some(self.close()),
            }
        }
    }

    fn pump_write(&mut self) -> Result<bool, ()> {
        while !self.out.is_empty() {
            match self.conn.write(&self.out) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(true)
    }
}

/// Parse a JSON array of strings — the only JSON shape `/ingest`
/// accepts. Strict by design: the admission contract is all-or-nothing,
/// so the first malformed element rejects the whole body. Small enough
/// to live here rather than pull in a JSON crate.
fn parse_json_string_array(text: &str) -> Result<Vec<String>, &'static str> {
    fn skip_ws(b: &[u8], i: &mut usize) {
        while matches!(b.get(*i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            *i += 1;
        }
    }

    fn hex4(b: &[u8], i: &mut usize) -> Result<u32, &'static str> {
        let hex = b.get(*i..*i + 4).ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "invalid \\u escape")?;
        *i += 4;
        u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")
    }

    fn parse_string(b: &[u8], i: &mut usize) -> Result<String, &'static str> {
        if b.get(*i) != Some(&b'"') {
            return Err("array elements must be strings");
        }
        *i += 1;
        let mut s: Vec<u8> = Vec::new();
        loop {
            let c = *b.get(*i).ok_or("unterminated string")?;
            *i += 1;
            match c {
                b'"' => {
                    // Raw multi-byte UTF-8 passed through untouched; the
                    // input was validated as UTF-8 before parsing.
                    return String::from_utf8(s).map_err(|_| "invalid utf-8 in string");
                }
                b'\\' => {
                    let e = *b.get(*i).ok_or("unterminated escape")?;
                    *i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hi = hex4(b, i)?;
                            if (0xD800..0xDC00).contains(&hi) {
                                if b.get(*i..*i + 2) != Some(b"\\u") {
                                    return Err("lone high surrogate");
                                }
                                *i += 2;
                                let lo = hex4(b, i)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid surrogate pair");
                                }
                                char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                    .ok_or("invalid surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("lone low surrogate");
                            } else {
                                char::from_u32(hi).ok_or("invalid \\u escape")?
                            }
                        }
                        _ => return Err("unknown escape"),
                    };
                    s.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                0x00..=0x1F => return Err("unescaped control character"),
                _ => s.push(c),
            }
        }
    }

    let b = text.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    if b.get(i) != Some(&b'[') {
        return Err("body is not a JSON array");
    }
    i += 1;
    skip_ws(b, &mut i);
    let mut items = Vec::new();
    if b.get(i) == Some(&b']') {
        i += 1;
    } else {
        loop {
            skip_ws(b, &mut i);
            items.push(parse_string(b, &mut i)?);
            skip_ws(b, &mut i);
            match b.get(i) {
                Some(&b',') => i += 1,
                Some(&b']') => {
                    i += 1;
                    break;
                }
                _ => return Err("expected ',' or ']'"),
            }
        }
    }
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err("trailing data after the array");
    }
    Ok(items)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

impl Handler for IngestConn {
    fn ready(&mut self, readable: bool, _writable: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        if readable {
            if let Some(next) = self.pump_read() {
                return next;
            }
        }
        if let Phase::Write { .. } = self.phase {
            if !self.out.is_empty() || self.pending.is_empty() {
                match self.pump_write() {
                    Ok(true) => return self.close(),
                    Ok(false) => {}
                    Err(()) => return self.close(),
                }
            }
        }
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        // Accepted batch still waiting on queue space?
        if !self.pending.is_empty() && self.out.is_empty() && self.flush_lines() {
            self.finish_accept();
        }
        match self.phase {
            Phase::Write { since } => {
                match self.pump_write() {
                    Ok(true) => return self.close(),
                    Ok(false) => {}
                    Err(()) => return self.close(),
                }
                if now.duration_since(since) >= WRITE_DEADLINE {
                    return self.close();
                }
            }
            _ => {
                if now.duration_since(self.opened) >= REQUEST_DEADLINE {
                    PipelineMetrics::add(&self.shared.metrics.sources_http_rejected, 1);
                    self.respond(
                        "408 Request Timeout",
                        "",
                        "{\"error\":\"request timed out\"}\n",
                    );
                }
            }
        }
        Next::Keep
    }

    fn interest(&self) -> Interest {
        let writing = matches!(self.phase, Phase::Write { .. }) && !self.out.is_empty();
        Interest {
            read: true,
            write: writing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MetricsEndpoint, SourceQueue, SourcesConfig, SourcesServer};
    use crate::observe::MetricsRegistry;
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn spawn(queue_capacity: usize) -> (SourcesServer, SourceQueue, SocketAddr) {
        let cfg = SourcesConfig {
            http: Some("127.0.0.1:0".parse().unwrap()),
            queue_capacity,
            max_http_body_bytes: 4096,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let (server, queue) =
            SourcesServer::spawn(cfg, MetricsRegistry::shared(), None, None).unwrap();
        let addr = server.http_addr().unwrap();
        (server, queue, addr)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(
            conn,
            "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn bulk_post_ingests_every_line() {
        let (_server, queue, addr) = spawn(1024);
        let body = "alpha line\nbeta line\n\ngamma line\n";
        let response = post(addr, "/ingest", body);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.contains("\"accepted\":3"), "{response}");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < 3 && Instant::now() < deadline {
            got.extend(queue.recv_batch(16, Duration::from_millis(20)));
        }
        let lines: Vec<&str> = got.iter().map(|e| e.line.as_str()).collect();
        assert_eq!(lines, vec!["alpha line", "beta line", "gamma line"]);
    }

    /// POST with arbitrary extra headers and a binary body.
    fn post_raw(addr: SocketAddr, extra_headers: &str, body: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(
            conn,
            "POST /ingest HTTP/1.1\r\nHost: t\r\n{extra_headers}Content-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        conn.write_all(body).unwrap();
        let mut response = String::new();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    /// A gzip member wrapping one stored deflate block — enough to
    /// exercise the whole decode path without a compressor.
    fn gzip_stored(payload: &[u8]) -> Vec<u8> {
        let mut g = vec![0x1F, 0x8B, 8, 0, 0, 0, 0, 0, 0, 255];
        g.push(0x01); // BFINAL=1, BTYPE=stored
        g.extend_from_slice(&(payload.len() as u16).to_le_bytes());
        g.extend_from_slice(&(!(payload.len() as u16)).to_le_bytes());
        g.extend_from_slice(payload);
        g.extend_from_slice(&monilog_model::codec::crc32(payload).to_le_bytes());
        g.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        g
    }

    fn drain(queue: &SourceQueue, want: usize) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = Vec::new();
        while got.len() < want && Instant::now() < deadline {
            got.extend(
                queue
                    .recv_batch(16, Duration::from_millis(20))
                    .into_iter()
                    .map(|e| e.line.as_str().to_string()),
            );
        }
        got
    }

    #[test]
    fn gzip_body_ingests_after_inflation() {
        let (_server, queue, addr) = spawn(1024);
        let body = gzip_stored(b"gz alpha\ngz beta\n");
        let response = post_raw(addr, "Content-Encoding: gzip\r\n", &body);
        assert!(response.contains("\"accepted\":2"), "{response}");
        assert_eq!(drain(&queue, 2), vec!["gz alpha", "gz beta"]);
    }

    #[test]
    fn corrupt_gzip_gets_400_all_or_nothing() {
        let (_server, queue, addr) = spawn(1024);
        let mut body = gzip_stored(b"one\ntwo\n");
        let crc_at = body.len() - 8;
        body[crc_at] ^= 0xFF;
        let response = post_raw(addr, "Content-Encoding: gzip\r\n", &body);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn json_array_body_ingests_each_element() {
        let (_server, queue, addr) = spawn(1024);
        let body = br#"[ "json one", "json two\twith tab", "", "json three" ]"#;
        let response = post_raw(addr, "Content-Type: application/json\r\n", body);
        assert!(response.contains("\"accepted\":3"), "{response}");
        assert_eq!(
            drain(&queue, 3),
            vec!["json one", "json two\twith tab", "json three"]
        );
    }

    #[test]
    fn gzipped_json_combines_both_layers() {
        let (_server, queue, addr) = spawn(1024);
        let body = gzip_stored(br#"["deep one","deep two"]"#);
        let response = post_raw(
            addr,
            "Content-Type: application/json\r\nContent-Encoding: gzip\r\n",
            &body,
        );
        assert!(response.contains("\"accepted\":2"), "{response}");
        assert_eq!(drain(&queue, 2), vec!["deep one", "deep two"]);
    }

    #[test]
    fn malformed_json_gets_400() {
        let (_server, queue, addr) = spawn(1024);
        for body in [
            &br#"{"not":"an array"}"#[..],
            br#"["unterminated"#,
            br#"[1, 2, 3]"#,
            br#"["ok"] trailing"#,
        ] {
            let response = post_raw(addr, "Content-Type: application/json\r\n", body);
            assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        }
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn unsupported_encoding_gets_415() {
        let (_server, queue, addr) = spawn(1024);
        let response = post_raw(addr, "Content-Encoding: br\r\n", b"whatever\n");
        assert!(response.starts_with("HTTP/1.1 415"), "{response}");
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn json_escapes_decode() {
        assert_eq!(
            super::parse_json_string_array(r#"["a\nb", "Aé", "😀"]"#).unwrap(),
            vec!["a\nb".to_string(), "Aé".to_string(), "😀".to_string()]
        );
        assert!(super::parse_json_string_array(r#"["\ud83d"]"#).is_err());
        assert!(super::parse_json_string_array("[\"ctrl\u{1}\"]").is_err());
    }

    #[test]
    fn oversized_body_gets_413_without_buffering() {
        let (_server, queue, addr) = spawn(1024);
        let body = "x".repeat(8192); // over the 4096 cap
        let response = post(addr, "/ingest", &body);
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn saturated_queue_gets_429_all_or_nothing() {
        let (_server, queue, addr) = spawn(4);
        let body = (0..32).map(|i| format!("line {i}\n")).collect::<String>();
        let response = post(addr, "/ingest", &body);
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        // All-or-nothing: no partial prefix leaked into the queue.
        assert!(queue.recv_batch(16, Duration::from_millis(100)).is_empty());
    }

    #[test]
    fn healthz_and_404() {
        let (_server, _queue, addr) = spawn(16);
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

        let response = post(addr, "/elsewhere", "body\n");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }

    #[test]
    fn sources_and_metrics_coexist_under_one_spawn() {
        // The tentpole claim in miniature: ingest + scrape on one loop.
        let cfg = SourcesConfig {
            http: Some("127.0.0.1:0".parse().unwrap()),
            queue_capacity: 64,
            assumed_year: 2026,
            ..SourcesConfig::default()
        };
        let registry = MetricsRegistry::shared();
        let (server, queue) = SourcesServer::spawn(
            cfg,
            Arc::clone(&registry),
            None,
            Some(MetricsEndpoint {
                addr: "127.0.0.1:0".parse().unwrap(),
                interval: Duration::from_millis(50),
                tracer: None,
                ops: None,
            }),
        )
        .unwrap();
        let response = post(server.http_addr().unwrap(), "/ingest", "one line\n");
        assert!(response.contains("\"accepted\":1"), "{response}");
        let got = queue.recv_batch(4, Duration::from_secs(2));
        assert_eq!(got.len(), 1);

        let mut conn = TcpStream::connect(server.metrics_addr().unwrap()).unwrap();
        write!(conn, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(
            response.contains("monilog_sources_lines_total 1"),
            "{response}"
        );
    }
}
