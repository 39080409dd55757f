//! Metrics export endpoint.
//!
//! [`MetricsExporter`] is a minimal HTTP/1.1 server serving
//! [`crate::observe::MetricsSnapshot`] renderings and, when a [`Tracer`] is
//! attached, the span-tracing views:
//!
//! - `GET /metrics` — Prometheus text exposition format
//! - `GET /metrics.json` — JSON
//! - `GET /healthz` — liveness probe (200 `ok`)
//! - `GET /trace/{id}` — span tree of one sampled trace (JSON)
//! - `GET /flight` — current flight-recorder ring contents (JSON)
//!
//! With an [`OpsState`] attached ([`MetricsExporter::spawn_with_ops`]) the
//! same listener also serves the live operations surface (`crate::ops`):
//!
//! - `GET /reports[?since=&severity=&template=&source=&limit=]` — query the
//!   recent-anomaly store
//! - `GET /reports/{id}` — one report joined to its sampled trace spans
//! - `GET /status` — the `ok | degraded | critical` health rollup
//! - `GET /readyz` — readiness gate: 200 `ok`, 200 with a `degraded`
//!   status body (still ready — e.g. a lost router link while local
//!   sources keep flowing), or 503 with reasons
//! - `GET /config` / `POST /config` — view / hot-reload the runtime config
//!
//! Connections are served on the shared [`crate::net`] event loop: every
//! client gets its own non-blocking connection handler with a per-connection
//! read buffer, so one stalled or malicious peer can no longer head-of-line
//! block other scrapes (the old implementation accepted and served one
//! connection at a time inline), and readiness notification replaces the old
//! 20 ms accept poll, so an idle endpoint answers in microseconds instead of
//! up to a poll tick. No external HTTP crate — request parsing is the
//! minimum needed for `curl`/Prometheus: read the request head (capped at
//! 4 KiB, under an overall deadline enforced from the loop tick), match the
//! path.

use crate::net::{AsLoopFd, EventLoop, Handler, Interest, LoopCtx, Next};
use crate::observe::MetricsRegistry;
use crate::ops::{
    degraded_reasons, parse_config_pairs, readiness_reasons, render_status, report_detail_json,
    reports_json, OpsState, ReportsQuery,
};
use crate::trace::Tracer;
use monilog_model::trace::json_string;
use monilog_model::TraceId;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Upper bound on the bytes of request head we are willing to read.
/// Anything larger is a client error (431-ish; we answer 400).
const MAX_REQUEST_BYTES: usize = 4096;

/// Overall deadline for reading one request head. A client trickling one
/// byte at a time can never hold a response hostage longer than this; the
/// connection is routed (usually to a 400) with whatever arrived.
const READ_DEADLINE: Duration = Duration::from_secs(2);

/// Deadline for flushing a response once it is queued.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// Cap on post-response bytes we are willing to discard. Closing with
/// unread bytes in the receive buffer makes the kernel RST the connection,
/// which would destroy a 400 response before the client reads it — so we
/// keep reading (and dropping) up to this much while flushing.
const DRAIN_CAP: usize = 64 * 1024;

/// Rendered snapshot cache shared between the refresher and request
/// handling.
#[derive(Debug, Default)]
struct Rendered {
    prometheus: String,
    json: String,
}

/// Renders snapshots and answers routed requests. Shared between the
/// standalone [`MetricsExporter`] and the sources server, which mounts the
/// same endpoint on its own event loop.
pub(crate) struct MetricsService {
    registry: Arc<MetricsRegistry>,
    tracer: Option<Arc<Tracer>>,
    ops: Option<Arc<OpsState>>,
    cache: Mutex<Rendered>,
}

impl MetricsService {
    pub(crate) fn new(
        registry: Arc<MetricsRegistry>,
        tracer: Option<Arc<Tracer>>,
        ops: Option<Arc<OpsState>>,
    ) -> Self {
        let svc = MetricsService {
            registry,
            tracer,
            ops,
            cache: Mutex::new(Rendered::default()),
        };
        svc.render();
        svc
    }

    /// Re-render the snapshot cache (called on accept and on the refresh
    /// interval, so a scrape never walks histogram buckets on the request
    /// path of a busy endpoint).
    pub(crate) fn render(&self) {
        let snapshot = self.registry.snapshot();
        let mut slot = self.cache.lock().expect("render cache");
        slot.prometheus = snapshot.to_prometheus();
        slot.json = snapshot.to_json();
    }

    fn route(&self, method: &str, path: &str, body: &str) -> (&'static str, &'static str, String) {
        if method == "POST" {
            return self.route_post(path, body);
        }
        match path {
            "/status" => match &self.ops {
                Some(ops) => {
                    // A fresh snapshot, not the render cache: the health
                    // rollup is the page an operator refreshes while
                    // something is on fire.
                    let snap = self.registry.snapshot();
                    let inputs = ops.status.inputs();
                    let (_, json) =
                        render_status(&snap, &inputs, ops.status.budget_ms(), ops.reload.version());
                    ("200 OK", "application/json", json)
                }
                None => ops_disabled(),
            },
            "/readyz" => match &self.ops {
                // Without an ops state there is nothing that could be
                // not-ready: fall back to liveness semantics.
                None => ("200 OK", "text/plain", "ok\n".to_string()),
                Some(ops) => {
                    let inputs = ops.status.inputs();
                    let critical = readiness_reasons(&inputs);
                    let degraded = degraded_reasons(&inputs);
                    let enc = |rs: &[String]| -> String {
                        let quoted: Vec<String> = rs.iter().map(|r| json_string(r)).collect();
                        quoted.join(",")
                    };
                    if !critical.is_empty() {
                        (
                            "503 Service Unavailable",
                            "application/json",
                            format!("{{\"ready\":false,\"reasons\":[{}]}}\n", enc(&critical)),
                        )
                    } else if !degraded.is_empty() {
                        // Degraded but ready: a monitor that lost its
                        // router keeps serving local sources, so probes
                        // must NOT pull it from rotation — 200 with the
                        // machine-readable reason in the body.
                        (
                            "200 OK",
                            "application/json",
                            format!(
                                "{{\"ready\":true,\"status\":\"degraded\",\
                                 \"reasons\":[{}]}}\n",
                                enc(&degraded)
                            ),
                        )
                    } else {
                        ("200 OK", "text/plain", "ok\n".to_string())
                    }
                }
            },
            "/config" => match &self.ops {
                Some(ops) => ("200 OK", "application/json", ops.reload.to_json()),
                None => ops_disabled(),
            },
            p if p == "/reports" || p.starts_with("/reports?") || p.starts_with("/reports/") => {
                self.route_reports(p)
            }
            _ => route(path, &self.cache, self.tracer.as_deref()),
        }
    }

    fn route_post(&self, path: &str, body: &str) -> (&'static str, &'static str, String) {
        match (path, &self.ops) {
            ("/config", Some(ops)) => {
                match parse_config_pairs(body)
                    .and_then(|pairs| ops.reload.apply_pairs(&pairs, "post"))
                {
                    Ok(_) => ("200 OK", "application/json", ops.reload.to_json()),
                    Err(e) => (
                        "400 Bad Request",
                        "application/json",
                        format!("{{\"error\":{}}}\n", json_string(&e)),
                    ),
                }
            }
            ("/config", None) => ops_disabled(),
            _ => (
                "405 Method Not Allowed",
                "application/json",
                "{\"error\":\"POST is only accepted on /config\"}\n".to_string(),
            ),
        }
    }

    fn route_reports(&self, path: &str) -> (&'static str, &'static str, String) {
        let Some(ops) = &self.ops else {
            return ops_disabled();
        };
        if let Some(rest) = path.strip_prefix("/reports/") {
            return match rest.parse::<u64>() {
                Err(_) => (
                    "400 Bad Request",
                    "application/json",
                    "{\"error\":\"report id must be an unsigned integer\"}\n".to_string(),
                ),
                Ok(id) => match ops.reports.get(id) {
                    Some(r) => (
                        "200 OK",
                        "application/json",
                        report_detail_json(&r, self.tracer.as_deref()),
                    ),
                    None => (
                        "404 Not Found",
                        "application/json",
                        format!("{{\"error\":\"no report {id} in the store\"}}\n"),
                    ),
                },
            };
        }
        let qs = path
            .strip_prefix("/reports")
            .map(|rest| rest.strip_prefix('?').unwrap_or(rest))
            .unwrap_or("");
        match ReportsQuery::parse(qs) {
            Err(e) => (
                "400 Bad Request",
                "application/json",
                format!("{{\"error\":{}}}\n", json_string(&e)),
            ),
            Ok(q) => {
                let (total, items) = ops.reports.query(&q);
                ("200 OK", "application/json", reports_json(total, &items))
            }
        }
    }
}

fn ops_disabled() -> (&'static str, &'static str, String) {
    (
        "404 Not Found",
        "application/json",
        "{\"error\":\"ops surface disabled\"}\n".to_string(),
    )
}

/// Periodic metrics exporter over a TCP/HTTP endpoint.
///
/// Spawn with [`MetricsExporter::spawn`]; the endpoint serves until the
/// exporter is dropped. Bind to port 0 to let the OS pick a free port and
/// read it back with [`MetricsExporter::local_addr`].
#[derive(Debug)]
pub struct MetricsExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsExporter {
    /// Bind `addr` and start serving snapshots of `registry`, re-rendered
    /// every `interval`. `/trace/{id}` and `/flight` answer 404 — attach a
    /// tracer with [`MetricsExporter::spawn_with_tracer`] to enable them.
    pub fn spawn(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        interval: Duration,
    ) -> io::Result<Self> {
        Self::spawn_with_tracer(addr, registry, interval, None)
    }

    /// Like [`MetricsExporter::spawn`], additionally serving the span
    /// tracer's `/trace/{id}` and `/flight` views.
    pub fn spawn_with_tracer(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        tracer: Option<Arc<Tracer>>,
    ) -> io::Result<Self> {
        Self::spawn_with_ops(addr, registry, interval, tracer, None)
    }

    /// Like [`MetricsExporter::spawn_with_tracer`], additionally serving
    /// the live operations surface (`/reports`, `/status`, `/readyz`,
    /// `/config`) backed by `ops`.
    pub fn spawn_with_ops(
        addr: SocketAddr,
        registry: Arc<MetricsRegistry>,
        interval: Duration,
        tracer: Option<Arc<Tracer>>,
        ops: Option<Arc<OpsState>>,
    ) -> io::Result<Self> {
        let listener = bind_reusable(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let service = Arc::new(MetricsService::new(registry, tracer, ops));

        let mut event_loop = EventLoop::new()?;
        register_metrics_listener(&mut event_loop, listener, service, interval)?;

        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("monilog-metrics-exporter".into())
            .spawn(move || event_loop.run(stop_flag))
            .expect("spawn exporter thread");
        Ok(MetricsExporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Register the `/metrics` listener + refresh tick on an event loop. Used by
/// the standalone exporter and by the sources server, which shares its loop
/// with the syslog/HTTP ingest endpoints.
pub(crate) fn register_metrics_listener(
    event_loop: &mut EventLoop,
    listener: TcpListener,
    service: Arc<MetricsService>,
    interval: Duration,
) -> io::Result<()> {
    let fd = listener.loop_fd();
    event_loop.register(
        fd,
        Box::new(MetricsListener {
            listener,
            service,
            interval,
            last_render: Instant::now(),
        }),
    )?;
    Ok(())
}

/// Bind the exporter socket with `SO_REUSEADDR` so a restarting process
/// (the crash-recovery path) can re-bind its old address while the dead
/// process's connections sit in TIME_WAIT. On targets without the raw
/// syscall shim — or if it fails — fall back to plain binds under a short
/// exponential backoff, which rides out the same window more slowly.
pub(crate) fn bind_reusable(addr: SocketAddr) -> io::Result<TcpListener> {
    let mut delay = Duration::from_millis(50);
    let mut last_err = None;
    for attempt in 0..5 {
        #[cfg(target_os = "linux")]
        let result = match addr {
            SocketAddr::V4(v4) => reuseaddr::bind_v4(v4).or_else(|_| TcpListener::bind(addr)),
            _ => TcpListener::bind(addr),
        };
        #[cfg(not(target_os = "linux"))]
        let result = TcpListener::bind(addr);
        match result {
            Ok(listener) => return Ok(listener),
            Err(e) => last_err = Some(e),
        }
        if attempt < 4 {
            thread::sleep(delay);
            delay *= 2;
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("bind failed")))
}

/// `socket(2)`/`setsockopt(2)`/`bind(2)`/`listen(2)` declared directly (no
/// libc crate) — the constants and `sockaddr_in` layout are Linux ABI.
#[cfg(target_os = "linux")]
mod reuseaddr {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener};
    use std::os::unix::io::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        /// Network byte order.
        sin_port: u16,
        /// Network byte order.
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub fn bind_v4(addr: SocketAddrV4) -> io::Result<TcpListener> {
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM, 0);
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            let fail = |fd: i32| -> io::Error {
                let e = io::Error::last_os_error();
                close(fd);
                e
            };
            let one: i32 = 1;
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) != 0 {
                return Err(fail(fd));
            }
            let sa = SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: addr.port().to_be(),
                sin_addr: u32::from_ne_bytes(addr.ip().octets()),
                sin_zero: [0; 8],
            };
            if bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) != 0 {
                return Err(fail(fd));
            }
            if listen(fd, 1024) != 0 {
                return Err(fail(fd));
            }
            Ok(TcpListener::from_raw_fd(fd))
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Accepts scrape connections and hands each its own [`MetricsConn`].
struct MetricsListener {
    listener: TcpListener,
    service: Arc<MetricsService>,
    interval: Duration,
    last_render: Instant,
}

impl Handler for MetricsListener {
    fn ready(&mut self, _readable: bool, _writable: bool, ctx: &mut LoopCtx<'_>) -> Next {
        let mut accepted_any = false;
        loop {
            match self.listener.accept() {
                Ok((conn, _)) => {
                    accepted_any = true;
                    if conn.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let fd = conn.loop_fd();
                    ctx.register(fd, Box::new(MetricsConn::new(conn, self.service.clone())));
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        if accepted_any {
            // Re-render on demand too, so a scrape right after a burst sees
            // fresh numbers even with a long refresh interval.
            self.service.render();
            self.last_render = Instant::now();
        }
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        if now.duration_since(self.last_render) >= self.interval {
            self.service.render();
            self.last_render = now;
        }
        Next::Keep
    }
}

enum ConnPhase {
    /// Accumulating the request head.
    Reading,
    /// Response queued in `out`; flush, drain stragglers, then close.
    Writing { since: Instant },
}

/// One scrape connection: non-blocking, owns its read buffer, enforces the
/// head cap and deadlines from the loop tick.
struct MetricsConn {
    conn: TcpStream,
    service: Arc<MetricsService>,
    buf: Vec<u8>,
    out: Vec<u8>,
    phase: ConnPhase,
    opened: Instant,
    drained: usize,
}

impl MetricsConn {
    fn new(conn: TcpStream, service: Arc<MetricsService>) -> Self {
        MetricsConn {
            conn,
            service,
            buf: Vec::with_capacity(512),
            out: Vec::new(),
            phase: ConnPhase::Reading,
            opened: Instant::now(),
            drained: 0,
        }
    }

    fn respond(&mut self, status: &str, content_type: &str, body: &str) {
        self.out = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        self.phase = ConnPhase::Writing {
            since: Instant::now(),
        };
    }

    /// Route whatever request has arrived (possibly none, possibly
    /// over-cap garbage) and queue the response.
    fn route_now(&mut self) {
        if self.buf.len() > MAX_REQUEST_BYTES {
            self.respond(
                "400 Bad Request",
                "text/plain",
                "request exceeds 4096 bytes\n",
            );
            return;
        }
        let text = String::from_utf8_lossy(&self.buf).into_owned();
        let (status, content_type, body) = match text.lines().next().map(parse_request_line) {
            None | Some(None) => (
                "400 Bad Request",
                "text/plain",
                "malformed request line\n".to_string(),
            ),
            Some(Some((method, path))) => {
                let payload = request_body(&self.buf);
                self.service.route(&method, &path, &payload)
            }
        };
        self.respond(status, content_type, &body);
    }

    /// Whether enough of the request has arrived to route it. `GET`-style
    /// requests route on the request line alone (the historical fast
    /// path); `POST` waits for the blank line plus `Content-Length` bytes
    /// of body, all under the same 4 KiB cap and read deadline.
    fn request_complete(&self) -> bool {
        if !self.buf.contains(&b'\n') {
            return false;
        }
        if !self.buf.starts_with(b"POST ") {
            return true;
        }
        let Some(head_end) = find_head_end(&self.buf) else {
            return false;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]);
        let content_length = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                if name.trim().eq_ignore_ascii_case("content-length") {
                    value.trim().parse::<usize>().ok()
                } else {
                    None
                }
            })
            .unwrap_or(0);
        self.buf.len() >= head_end.saturating_add(content_length)
    }

    /// Read until `WouldBlock`. Returns false when the peer is gone.
    fn pump_read(&mut self) -> bool {
        let mut chunk = [0u8; 1024];
        loop {
            match self.conn.read(&mut chunk) {
                Ok(0) => return false,
                Ok(n) => match self.phase {
                    ConnPhase::Reading => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        if self.buf.len() > MAX_REQUEST_BYTES || self.request_complete() {
                            self.route_now();
                            return true;
                        }
                    }
                    ConnPhase::Writing { .. } => {
                        // Drain (and drop) stragglers so close() does not
                        // RST the queued response away.
                        self.drained += n;
                        if self.drained > DRAIN_CAP {
                            return false;
                        }
                    }
                },
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Flush the queued response. `Ok(true)` = fully flushed.
    fn pump_write(&mut self) -> io::Result<bool> {
        while !self.out.is_empty() {
            match self.conn.write(&self.out) {
                Ok(0) => return Err(io::Error::other("peer stopped reading")),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

impl Handler for MetricsConn {
    fn ready(&mut self, readable: bool, writable: bool, _ctx: &mut LoopCtx<'_>) -> Next {
        if readable && !self.pump_read() {
            // EOF mid-request: nothing useful to say; EOF after the
            // response is queued: flush what we can below.
            if matches!(self.phase, ConnPhase::Reading) {
                return Next::Close;
            }
        }
        if let ConnPhase::Writing { .. } = self.phase {
            let _ = writable;
            match self.pump_write() {
                Ok(true) => {
                    // Drain any request bytes still queued (an over-cap head
                    // leaves some behind) so close() sends FIN, not RST,
                    // and the peer can read the whole response.
                    let _ = self.pump_read();
                    return Next::Close;
                }
                Ok(false) => {}
                Err(_) => return Next::Close,
            }
        }
        Next::Keep
    }

    fn tick(&mut self, now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        match self.phase {
            ConnPhase::Reading => {
                if now.duration_since(self.opened) >= READ_DEADLINE {
                    // Route whatever arrived (likely a 400) instead of
                    // holding the connection open forever.
                    self.route_now();
                    match self.pump_write() {
                        Ok(true) => {
                            let _ = self.pump_read();
                            return Next::Close;
                        }
                        Ok(false) => {}
                        Err(_) => return Next::Close,
                    }
                }
                Next::Keep
            }
            ConnPhase::Writing { since } => {
                if now.duration_since(since) >= WRITE_DEADLINE {
                    return Next::Close;
                }
                Next::Keep
            }
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            read: true,
            write: !self.out.is_empty(),
        }
    }
}

/// Extract `(method, path)` from `GET <path> HTTP/1.1`; `None` when the
/// line is not a plausible HTTP request line.
fn parse_request_line(line: &str) -> Option<(String, String)> {
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    if method.is_empty()
        || !method.chars().all(|c| c.is_ascii_uppercase())
        || !path.starts_with('/')
    {
        return None;
    }
    Some((method.to_string(), path.to_string()))
}

/// Byte offset one past the `\r\n\r\n` (or bare `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Some(at + 4);
    }
    buf.windows(2).position(|w| w == b"\n\n").map(|at| at + 2)
}

/// The request body (bytes past the head terminator), lossily decoded.
fn request_body(buf: &[u8]) -> String {
    match find_head_end(buf) {
        Some(at) => String::from_utf8_lossy(&buf[at..]).into_owned(),
        None => String::new(),
    }
}

fn route(
    path: &str,
    cache: &Mutex<Rendered>,
    tracer: Option<&Tracer>,
) -> (&'static str, &'static str, String) {
    match path {
        // Liveness probe, shared convention with the delivery sinks'
        // healthcheck (`crate::sinks`): 200 + "ok" with no registry work.
        "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
        "/metrics" | "/" => {
            let rendered = cache.lock().expect("render cache");
            (
                "200 OK",
                "text/plain; version=0.0.4",
                rendered.prometheus.clone(),
            )
        }
        "/metrics.json" => {
            let rendered = cache.lock().expect("render cache");
            ("200 OK", "application/json", rendered.json.clone())
        }
        "/flight" => match tracer {
            Some(t) => ("200 OK", "application/json", t.flight_json()),
            None => (
                "404 Not Found",
                "application/json",
                "{\"error\":\"tracing disabled\"}\n".to_string(),
            ),
        },
        _ => match path.strip_prefix("/trace/") {
            Some(id) => match (id.parse::<u64>(), tracer) {
                (Err(_), _) | (Ok(0), _) => (
                    "400 Bad Request",
                    "application/json",
                    "{\"error\":\"trace id must be a positive integer\"}\n".to_string(),
                ),
                (Ok(_), None) => (
                    "404 Not Found",
                    "application/json",
                    "{\"error\":\"tracing disabled\"}\n".to_string(),
                ),
                (Ok(id), Some(t)) => match t.trace_json(TraceId(id)) {
                    Some(json) => ("200 OK", "application/json", json),
                    None => (
                        "404 Not Found",
                        "application/json",
                        format!("{{\"error\":\"no spans for trace {id}\"}}\n"),
                    ),
                },
            },
            None => (
                "404 Not Found",
                "text/plain",
                "not found; try /metrics, /metrics.json, /healthz, /readyz, /status, \
                 /reports, /config, /trace/{id} or /flight\n"
                    .to_string(),
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PipelineMetrics;
    use crate::observe::Stage;
    use crate::ops::{
        ConfigSnapshot, ReloadableConfig, ReportStore, StatusBoard, StatusInputs, StoredReport,
        DEFAULT_LATENCY_BUDGET_MS,
    };
    use crate::trace::{SpanRecord, SpanStage, TraceConfig};
    use monilog_model::{
        AnomalyKind, AnomalyReport, Criticality, EventId, LogEvent, Provenance, ScoreComponent,
        Severity, SourceId, TemplateId, Timestamp,
    };

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect exporter");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_string(), body.to_string())
    }

    fn http_post(addr: SocketAddr, path: &str, payload: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect exporter");
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("header/body separator");
        (head.to_string(), body.to_string())
    }

    /// Body length must match the advertised Content-Length exactly.
    fn assert_content_length(head: &str, body: &str) {
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric Content-Length");
        assert_eq!(len, body.len(), "Content-Length mismatch: {head}");
    }

    fn test_registry() -> Arc<MetricsRegistry> {
        let r = MetricsRegistry::shared();
        PipelineMetrics::add(&r.counters().lines_ingested, 42);
        r.stage(Stage::Parse).record(Duration::from_micros(15));
        r
    }

    fn anomaly(id: u64, template: u32) -> AnomalyReport {
        let event = LogEvent::new(
            EventId(id * 100),
            Timestamp::from_millis(1_000 + id),
            SourceId(id as u16),
            Severity::Info,
            TemplateId(template),
            vec![],
            None,
        )
        .with_trace(Some(TraceId(id)));
        AnomalyReport {
            id,
            kind: AnomalyKind::Sequential,
            score: 0.9,
            detector: "deeplog".to_string(),
            events: vec![event],
            explanation: "unexpected successor".to_string(),
            provenance: Provenance {
                trace_ids: vec![TraceId(id)],
                template_ids: vec![template],
                window: None,
                score_components: vec![ScoreComponent::new("score", 0.9)],
            },
        }
    }

    /// Twelve reports: ids 1..=12, even ids high severity, ids 1..=6 on
    /// template 7 and 7..=12 on template 9, source id = report id.
    fn test_ops(registry: &Arc<MetricsRegistry>) -> Arc<OpsState> {
        let reports = ReportStore::shared(64);
        for id in 1..=12u64 {
            let severity = if id % 2 == 0 {
                Criticality::High
            } else {
                Criticality::Low
            };
            let template = if id <= 6 { 7 } else { 9 };
            assert!(reports.record(StoredReport::from_report(&anomaly(id, template), severity)));
        }
        Arc::new(OpsState::new(
            reports,
            StatusBoard::shared(DEFAULT_LATENCY_BUDGET_MS),
            ReloadableConfig::shared(
                ConfigSnapshot::default(),
                None,
                Arc::clone(registry.counters()),
            ),
        ))
    }

    fn spawn_ops_exporter() -> (MetricsExporter, Arc<OpsState>) {
        let registry = test_registry();
        let ops = test_ops(&registry);
        let exporter = MetricsExporter::spawn_with_ops(
            "127.0.0.1:0".parse().unwrap(),
            registry,
            Duration::from_millis(50),
            Some(test_tracer()),
            Some(Arc::clone(&ops)),
        )
        .expect("bind");
        (exporter, ops)
    }

    fn test_tracer() -> Arc<Tracer> {
        let t = Tracer::shared(&TraceConfig::default(), 1);
        t.record(SpanRecord {
            trace: monilog_model::TraceId(1),
            stage: SpanStage::Parse,
            shard: 0,
            start_ns: 100,
            end_ns: 300,
            template: Some(4),
            cache_hit: Some(false),
        });
        t
    }

    #[test]
    fn serves_prometheus_over_http() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("monilog_lines_ingested_total 42"), "{body}");
        assert!(
            body.contains("monilog_stage_latency_seconds_count{stage=\"parse_exec\"} 1"),
            "{body}"
        );
    }

    #[test]
    fn serves_json_and_404() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.contains("\"lines_ingested\":42"), "{body}");
        assert!(body.contains("\"parse_exec\":{\"count\":1"), "{body}");
        let (head, body) = http_get(exporter.local_addr(), "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_content_length(&head, &body);
    }

    #[test]
    fn scrape_sees_updates_after_spawn() {
        let registry = test_registry();
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&registry),
            Duration::from_secs(3600), // interval irrelevant: scrape re-renders
        )
        .expect("bind");
        PipelineMetrics::add(&registry.counters().lines_parsed, 7);
        let (_, body) = http_get(exporter.local_addr(), "/metrics");
        assert!(body.contains("monilog_lines_parsed_total 7"), "{body}");
    }

    #[test]
    fn drop_stops_the_listener() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        drop(exporter);
        // Port released: either connect fails or a fresh bind succeeds.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "exporter did not release {addr}");
    }

    #[test]
    fn serves_trace_and_flight_views() {
        let exporter = MetricsExporter::spawn_with_tracer(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
            Some(test_tracer()),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/trace/1");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"trace_id\":1,"), "{body}");
        assert!(body.contains("\"stage\":\"parse_exec\""), "{body}");
        assert_content_length(&head, &body);

        let (head, body) = http_get(exporter.local_addr(), "/flight");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"spans\":[{\"trace_id\":1,"), "{body}");
        assert_content_length(&head, &body);

        // Unknown trace id → 404; junk id → 400.
        let (head, body) = http_get(exporter.local_addr(), "/trace/999");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_content_length(&head, &body);
        let (head, body) = http_get(exporter.local_addr(), "/trace/bogus");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert_content_length(&head, &body);
    }

    #[test]
    fn trace_routes_404_without_a_tracer() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        for path in ["/trace/1", "/flight"] {
            let (head, body) = http_get(exporter.local_addr(), path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            assert!(body.contains("tracing disabled"), "{path}: {body}");
            assert_content_length(&head, &body);
        }
    }

    #[test]
    fn restart_rebinds_the_same_address_immediately() {
        // A restarting process must be able to reclaim its metrics address
        // right away: bind, serve, drop, and rebind the same port twice.
        let registry = test_registry();
        let first = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            Arc::clone(&registry),
            Duration::from_millis(50),
        )
        .expect("initial bind");
        let addr = first.local_addr();
        let (head, _) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        drop(first);
        for generation in 0..2 {
            let again =
                MetricsExporter::spawn(addr, Arc::clone(&registry), Duration::from_millis(50))
                    .unwrap_or_else(|e| panic!("rebind generation {generation} failed: {e}"));
            let (head, _) = http_get(again.local_addr(), "/metrics");
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert_eq!(again.local_addr(), addr);
        }
    }

    #[test]
    fn bind_conflict_is_reported_after_retries() {
        // A port that stays occupied: bind_reusable must back off, retry,
        // and surface the error instead of hanging or panicking.
        let occupant = TcpListener::bind("127.0.0.1:0").expect("occupant");
        let addr = occupant.local_addr().unwrap();
        let started = std::time::Instant::now();
        let result = MetricsExporter::spawn(addr, test_registry(), Duration::from_millis(50));
        assert!(result.is_err(), "bind to an occupied port must fail");
        assert!(
            started.elapsed() >= Duration::from_millis(300),
            "failure must come after backoff retries, not instantly"
        );
    }

    #[test]
    fn healthz_answers_without_touching_the_registry() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let (head, body) = http_get(exporter.local_addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        assert_content_length(&head, &body);
    }

    #[test]
    fn slow_loris_request_is_cut_off_at_the_overall_deadline() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        // Trickle bytes forever without completing a request line. The
        // overall deadline must cut the connection loose regardless.
        let addr = exporter.local_addr();
        let started = std::time::Instant::now();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET").unwrap();
        let mut answered = String::new();
        loop {
            if started.elapsed() > Duration::from_secs(8) {
                panic!("handler still holding the slow-loris connection");
            }
            if stream.write_all(b"X").is_err() {
                break; // handler gave up on us
            }
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let mut buf = [0u8; 512];
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    answered.push_str(&String::from_utf8_lossy(&buf[..n]));
                    if answered.contains("\r\n\r\n") {
                        break;
                    }
                }
                Err(_) => {}
            }
            thread::sleep(Duration::from_millis(400));
        }
        assert!(
            started.elapsed() < Duration::from_secs(8),
            "deadline bounded the slow client"
        );
        // And the endpoint keeps serving real scrapes.
        let (head, _) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }

    #[test]
    fn oversized_and_malformed_requests_get_400() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        // A request line well past the 4 KiB cap: the exporter must answer
        // 400 instead of buffering without bound or hanging the loop.
        let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(8192));
        stream.write_all(huge.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("response split");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert_content_length(head, body);

        // Garbage that is not an HTTP request line at all.
        let mut stream = TcpStream::connect(exporter.local_addr()).unwrap();
        stream.write_all(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // The loop survives both and keeps serving.
        let (head, _) = http_get(exporter.local_addr(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    }

    /// Regression for the head-of-line blocking bug: the old exporter
    /// accepted and served one connection at a time inline, so a client
    /// that connected and sent nothing delayed every other scrape by up to
    /// its 500 ms read timeout. On the event loop a stalled client costs
    /// other scrapes nothing.
    #[test]
    fn stalled_client_does_not_block_concurrent_scrapes() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        // Two clients connect and stall without sending a byte.
        let _stalled_a = TcpStream::connect(addr).unwrap();
        let _stalled_b = TcpStream::connect(addr).unwrap();

        let mut latencies: Vec<Duration> = (0..10)
            .map(|_| {
                let t0 = Instant::now();
                let (head, _) = http_get(addr, "/metrics");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        // The old inline loop paid ≥500 ms per stalled client per scrape;
        // use a generous CI-safe bound well below that.
        assert!(
            median < Duration::from_millis(250),
            "scrape median {median:?} while clients stalled — head-of-line blocking is back"
        );
    }

    /// Regression for the 20 ms accept busy-poll: readiness notification
    /// must answer an idle-endpoint scrape well under the old poll tick.
    #[test]
    fn idle_scrape_latency_beats_the_old_poll_tick() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_secs(3600),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        // Warm up (thread spawn, first render).
        let _ = http_get(addr, "/healthz");
        let mut latencies: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let (head, _) = http_get(addr, "/healthz");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(20),
            "idle scrape median {median:?} — should be far below the old 20 ms accept poll"
        );
    }

    #[test]
    fn reports_route_filters_and_paginates() {
        let (exporter, _ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();

        let (head, body) = http_get(addr, "/reports");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with("{\"total\":12,\"count\":12,"), "{body}");
        assert_content_length(&head, &body);

        // Pagination: first page of 5, then resume from the last seen id.
        let (_, body) = http_get(addr, "/reports?limit=5");
        assert!(body.starts_with("{\"total\":12,\"count\":5,"), "{body}");
        for id in 1..=5 {
            assert!(body.contains(&format!("\"id\":{id},")), "{id}: {body}");
        }
        let (_, body) = http_get(addr, "/reports?since=5&limit=5");
        assert!(body.starts_with("{\"total\":7,\"count\":5,"), "{body}");
        assert!(
            body.contains("\"id\":6,") && body.contains("\"id\":10,"),
            "{body}"
        );
        assert!(
            !body.contains("\"id\":5,") && !body.contains("\"id\":11,"),
            "{body}"
        );

        // Severity, template, and source filters.
        let (_, body) = http_get(addr, "/reports?severity=high");
        assert!(body.starts_with("{\"total\":6,"), "{body}");
        assert!(!body.contains("\"severity\":\"low\""), "{body}");
        let (_, body) = http_get(addr, "/reports?template=9");
        assert!(body.starts_with("{\"total\":6,"), "{body}");
        let (_, body) = http_get(addr, "/reports?source=3");
        assert!(body.starts_with("{\"total\":1,"), "{body}");
        assert!(body.contains("\"id\":3,"), "{body}");
        let (_, body) = http_get(addr, "/reports?severity=high&template=9&limit=2");
        assert!(body.starts_with("{\"total\":3,\"count\":2,"), "{body}");

        // Bad queries are 400s, not silently-empty result sets.
        for bad in [
            "/reports?bogus=1",
            "/reports?limit=0",
            "/reports?severity=purple",
            "/reports?since=1&since=2",
        ] {
            let (head, body) = http_get(addr, bad);
            assert!(head.starts_with("HTTP/1.1 400"), "{bad}: {head}");
            assert!(body.contains("\"error\":"), "{bad}: {body}");
        }
    }

    #[test]
    fn report_detail_joins_sampled_spans() {
        let (exporter, _ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        // Report 1's provenance carries TraceId(1), which the test tracer
        // has a recorded span for.
        let (head, body) = http_get(addr, "/reports/1");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"report\":{\"id\":1,"), "{body}");
        assert!(body.contains("\"spans\":[{\"trace_id\":1,"), "{body}");
        assert_content_length(&head, &body);
        // Report 2 has no sampled spans: still 200, empty join.
        let (_, body) = http_get(addr, "/reports/2");
        assert!(body.ends_with("\"spans\":[]}"), "{body}");

        let (head, _) = http_get(addr, "/reports/999");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, _) = http_get(addr, "/reports/abc");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    }

    #[test]
    fn post_config_applies_allowlisted_keys_and_rejects_others() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();

        let (head, body) = http_get(addr, "/config");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with("{\"version\":0,"), "{body}");

        let (head, body) = http_post(addr, "/config", "on-overload=shed&trace-sample-rate=64");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with("{\"version\":1,"), "{body}");
        assert!(body.contains("\"on-overload\":\"shed\""), "{body}");
        assert!(body.contains("\"trace-sample-rate\":64"), "{body}");
        assert_content_length(&head, &body);
        assert_eq!(ops.reload.version(), 1);

        // A non-allowlisted key rejects the whole update: the snapshot
        // stays at version 1 with the values applied above.
        let (head, body) = http_post(addr, "/config", "state-dir=/tmp/elsewhere");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(body.contains("\"error\":"), "{body}");
        assert_content_length(&head, &body);
        let (_, body) = http_get(addr, "/config");
        assert!(body.starts_with("{\"version\":1,"), "{body}");
        assert!(body.contains("\"on-overload\":\"shed\""), "{body}");

        // POST anywhere else is a 405.
        let (head, _) = http_post(addr, "/metrics", "x=y");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
    }

    #[test]
    fn readyz_gates_on_published_status_inputs() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");

        let inputs = StatusInputs {
            delivery_spilling: true,
            ..StatusInputs::default()
        };
        ops.status.publish(inputs);
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("\"ready\":false"), "{body}");
        assert!(body.contains("spilling"), "{body}");
        assert_content_length(&head, &body);

        // /status agrees: the same condition is its critical tier.
        let (head, body) = http_get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.starts_with("{\"status\":\"critical\""), "{body}");
        assert!(body.contains("\"config_version\":0"), "{body}");
        assert_content_length(&head, &body);
    }

    #[test]
    fn readyz_reports_a_lost_router_link_as_degraded_not_503() {
        let (exporter, ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();

        // The monitor lost its router but keeps serving local sources:
        // still ready, body carries the machine-readable reason.
        ops.status.publish(StatusInputs {
            router_link: Some(("degraded".to_string(), "router-link-lost".to_string())),
            ..StatusInputs::default()
        });
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"ready\":true"), "{body}");
        assert!(body.contains("\"status\":\"degraded\""), "{body}");
        assert!(body.contains("router-link-lost"), "{body}");
        assert_content_length(&head, &body);

        // /status carries the same condition in its degraded tier plus a
        // structured cluster section.
        let (_, body) = http_get(addr, "/status");
        assert!(body.starts_with("{\"status\":\"degraded\""), "{body}");
        assert!(
            body.contains(
                "\"cluster\":{\"router_link\":\"degraded\",\"reason\":\"router-link-lost\"}"
            ),
            "{body}"
        );

        // Reconnected: back to the plain ok probe, cluster section shows
        // the healthy link.
        ops.status.publish(StatusInputs {
            router_link: Some(("connected".to_string(), String::new())),
            ..StatusInputs::default()
        });
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
        let (_, body) = http_get(addr, "/status");
        assert!(body.starts_with("{\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"router_link\":\"connected\""), "{body}");
    }

    /// Satellite guarantee: `/status` stays responsive while wedged
    /// clients (stalled connections and a slow-loris half-finished POST)
    /// sit on the same listener.
    #[test]
    fn status_answers_under_concurrent_scrapes_with_wedged_clients() {
        let (exporter, _ops) = spawn_ops_exporter();
        let addr = exporter.local_addr();
        // Two clients stall without sending a byte; one wedges mid-POST
        // (complete head, body never arrives).
        let _stalled_a = TcpStream::connect(addr).unwrap();
        let _stalled_b = TcpStream::connect(addr).unwrap();
        let mut loris = TcpStream::connect(addr).unwrap();
        loris
            .write_all(b"POST /config HTTP/1.1\r\nContent-Length: 4000\r\n\r\non-ov")
            .unwrap();

        let mut latencies: Vec<Duration> = (0..10)
            .map(|_| {
                let t0 = Instant::now();
                let (head, body) = http_get(addr, "/status");
                assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                assert!(body.starts_with("{\"status\":"), "{body}");
                t0.elapsed()
            })
            .collect();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(250),
            "/status median {median:?} while clients wedged — head-of-line blocking"
        );
    }

    #[test]
    fn ops_routes_404_without_an_ops_state() {
        let exporter = MetricsExporter::spawn(
            "127.0.0.1:0".parse().unwrap(),
            test_registry(),
            Duration::from_millis(50),
        )
        .expect("bind");
        let addr = exporter.local_addr();
        for path in ["/reports", "/reports/1", "/status", "/config"] {
            let (head, body) = http_get(addr, path);
            assert!(head.starts_with("HTTP/1.1 404"), "{path}: {head}");
            assert!(body.contains("ops surface disabled"), "{path}: {body}");
        }
        // Liveness-style readiness still answers without ops state.
        let (head, body) = http_get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert_eq!(body, "ok\n");
    }
}
