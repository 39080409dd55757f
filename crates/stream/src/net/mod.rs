//! A minimal readiness-based event loop shared by every network endpoint in
//! the stream layer: the syslog/HTTP ingest sources and the
//! [`MetricsExporter`](crate::export::MetricsExporter).
//!
//! One thread owns an epoll instance plus a registration table of
//! [`Handler`]s. Each handler wraps one non-blocking fd (a listener, an
//! accepted connection, a UDP socket) or no fd at all (timer-only handlers,
//! used by the file tailer). The loop dispatches readiness to handlers,
//! re-arms interest after every callback, and fires a coarse periodic tick so
//! handlers can enforce idle timeouts and deadlines without per-connection
//! timers. The first tick fires as the loop starts, so timer handlers (a
//! link dialing its router, a tail opening its file) begin at once.
//!
//! Other threads queue output for a handler (a router sealing a batch, a
//! monitor acking an fsync) and then call [`Waker::wake`]: the loop leaves
//! its wait and re-queries every handler's [`Handler::interest`], so queued
//! output is written at once instead of on the next tick.
//!
//! The design goal is the smallest loop that removes head-of-line blocking:
//! no futures, level-triggered epoll only, one eventfd for wakes. On
//! non-Linux platforms a timed sweep poller keeps everything compiling and
//! functional (handlers already tolerate spurious readiness because epoll is
//! level-triggered); there a wake cuts the sweep's sleep short.

pub mod sys;

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[cfg(unix)]
pub type Fd = std::os::unix::io::RawFd;
#[cfg(not(unix))]
pub type Fd = i64;

/// Cross-platform fd extraction for loop registration. On non-unix targets
/// the sweep poller never inspects the fd, so a dummy value suffices.
pub trait AsLoopFd {
    fn loop_fd(&self) -> Fd;
}

#[cfg(unix)]
impl<T: std::os::unix::io::AsRawFd> AsLoopFd for T {
    fn loop_fd(&self) -> Fd {
        self.as_raw_fd()
    }
}

#[cfg(not(unix))]
impl<T> AsLoopFd for T {
    fn loop_fd(&self) -> Fd {
        0
    }
}

/// Readiness interest for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// What the loop should do with a handler after a callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Keep the registration; interest is re-queried via [`Handler::interest`].
    Keep,
    /// Deregister and drop the handler (dropping closes its socket).
    Close,
}

/// Passed into handler callbacks; lets a handler register new fds (a
/// listener registering an accepted connection) without aliasing the loop's
/// registration table mid-dispatch.
pub struct LoopCtx<'a> {
    adds: &'a mut Vec<Registration>,
    pub now: Instant,
}

impl LoopCtx<'_> {
    /// Register a new fd-backed handler; it joins the loop after the current
    /// dispatch round.
    pub fn register(&mut self, fd: Fd, handler: Box<dyn Handler>) {
        self.adds.push(Registration {
            fd: Some(fd),
            handler,
        });
    }

    /// Register a handler with no fd; it only receives `tick` callbacks.
    pub fn register_timer(&mut self, handler: Box<dyn Handler>) {
        self.adds.push(Registration { fd: None, handler });
    }
}

/// One endpoint on the loop. Handlers own their socket: the fd passed at
/// registration must stay open for as long as the handler is registered
/// (the loop deregisters the fd *before* dropping the handler).
pub trait Handler: Send {
    /// The fd is ready. Level-triggered: do as much non-blocking work as
    /// possible, then return. `readable`/`writable` may both be set.
    fn ready(&mut self, readable: bool, writable: bool, ctx: &mut LoopCtx<'_>) -> Next;

    /// Periodic callback (roughly every [`EventLoop::TICK`]); enforce idle
    /// timeouts and retry paused work here.
    fn tick(&mut self, _now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
        Next::Keep
    }

    /// Current interest, re-queried after every callback to re-arm epoll.
    fn interest(&self) -> Interest {
        Interest::READ
    }
}

struct Registration {
    fd: Option<Fd>,
    handler: Box<dyn Handler>,
}

struct Entry {
    fd: Option<Fd>,
    handler: Box<dyn Handler>,
    armed: Interest,
}

/// Epoll token of the waker's eventfd; handler tokens start at 1.
const WAKE_TOKEN: u64 = 0;

/// Cross-thread handle that interrupts an [`EventLoop`]'s wait. Queue the
/// output first, then wake: the loop re-queries every handler's interest
/// after the wake, so a handler with something to write is armed for it.
/// Wakes that land before the loop gets to them coalesce into one.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

struct WakerInner {
    pending: AtomicBool,
    #[cfg(target_os = "linux")]
    efd: sys::EventFd,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        Ok(Waker {
            inner: Arc::new(WakerInner {
                pending: AtomicBool::new(false),
                #[cfg(target_os = "linux")]
                efd: sys::EventFd::new()?,
            }),
        })
    }

    /// Make the loop leave its wait and re-query handler interest.
    pub fn wake(&self) {
        if !self.inner.pending.swap(true, Ordering::AcqRel) {
            #[cfg(target_os = "linux")]
            self.inner.efd.notify();
        }
    }

    fn is_pending(&self) -> bool {
        self.inner.pending.load(Ordering::Acquire)
    }

    /// Loop side: consume the pending wake, if any. Clearing the flag after
    /// the eventfd was drained means a wake racing this call either sees the
    /// flag set (and its state change is visible to the re-query that
    /// follows) or notifies the eventfd again.
    fn take(&self) -> bool {
        self.inner.pending.swap(false, Ordering::AcqRel)
    }
}

/// Platform poller: epoll on Linux, timed sweep elsewhere.
enum Poller {
    #[cfg(target_os = "linux")]
    Epoll(sys::Epoll),
    /// Fallback: report every registered fd as ready at each timeout expiry.
    /// Correct (handlers tolerate spurious readiness) but O(n) per sweep.
    Sweep(HashMap<u64, Interest>),
}

impl Poller {
    fn new(waker: &Waker) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let ep = sys::Epoll::new()?;
            ep.add(
                std::os::unix::io::AsRawFd::as_raw_fd(&waker.inner.efd),
                sys::EPOLLIN,
                WAKE_TOKEN,
            )?;
            return Ok(Poller::Epoll(ep));
        }
        #[allow(unreachable_code)]
        {
            let _ = waker;
            Ok(Poller::Sweep(HashMap::new()))
        }
    }

    fn events_for(interest: Interest) -> u32 {
        #[cfg(target_os = "linux")]
        {
            let mut ev = sys::EPOLLRDHUP;
            if interest.read {
                ev |= sys::EPOLLIN;
            }
            if interest.write {
                ev |= sys::EPOLLOUT;
            }
            return ev;
        }
        #[allow(unreachable_code)]
        {
            let _ = interest;
            0
        }
    }

    fn add(&mut self, fd: Fd, interest: Interest, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.add(fd, Self::events_for(interest), token),
            Poller::Sweep(map) => {
                let _ = fd;
                map.insert(token, interest);
                Ok(())
            }
        }
    }

    fn modify(&mut self, fd: Fd, interest: Interest, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.modify(fd, Self::events_for(interest), token),
            Poller::Sweep(map) => {
                let _ = fd;
                map.insert(token, interest);
                Ok(())
            }
        }
    }

    fn delete(&mut self, fd: Fd, token: u64) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => ep.delete(fd),
            Poller::Sweep(map) => {
                let _ = fd;
                map.remove(&token);
                Ok(())
            }
        }
    }

    /// Collect `(token, readable, writable)` triples. Returns early when
    /// `waker` fires; the wake itself is not reported as a triple.
    fn wait(
        &mut self,
        out: &mut Vec<(u64, bool, bool)>,
        timeout: Duration,
        waker: &Waker,
    ) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(ep) => {
                let mut raw = Vec::new();
                let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
                ep.wait(&mut raw, ms)?;
                for (token, events) in raw {
                    if token == WAKE_TOKEN {
                        waker.inner.efd.drain();
                        continue;
                    }
                    let err = events & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0;
                    // Surface errors/hangups as readability so handlers see
                    // the EOF/error from their next read().
                    let readable = events & sys::EPOLLIN != 0 || err;
                    let writable = events & sys::EPOLLOUT != 0 || err;
                    out.push((token, readable, writable));
                }
                Ok(())
            }
            Poller::Sweep(map) => {
                // Sleep in short slices so a wake cuts the sweep short.
                let until = Instant::now() + timeout.min(Duration::from_millis(5));
                while !waker.is_pending() && Instant::now() < until {
                    std::thread::sleep(Duration::from_millis(1));
                }
                for (&token, &interest) in map.iter() {
                    if interest.read || interest.write {
                        out.push((token, interest.read, interest.write));
                    }
                }
                Ok(())
            }
        }
    }
}

/// The event loop. Build it, register the initial handlers, then hand it to
/// a thread via [`EventLoop::run`].
pub struct EventLoop {
    poller: Poller,
    waker: Waker,
    entries: HashMap<u64, Entry>,
    next_token: u64,
}

impl EventLoop {
    /// Tick cadence: idle-timeout resolution and the upper bound on how long
    /// a stop request can go unnoticed (unless the stopper also wakes).
    pub const TICK: Duration = Duration::from_millis(50);

    pub fn new() -> io::Result<EventLoop> {
        let waker = Waker::new()?;
        Ok(EventLoop {
            poller: Poller::new(&waker)?,
            waker,
            entries: HashMap::new(),
            next_token: 1,
        })
    }

    /// A handle other threads use to interrupt this loop's wait.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Register an fd-backed handler. The fd must already be non-blocking.
    pub fn register(&mut self, fd: Fd, handler: Box<dyn Handler>) -> io::Result<u64> {
        let token = self.next_token;
        self.next_token += 1;
        let interest = handler.interest();
        self.poller.add(fd, interest, token)?;
        self.entries.insert(
            token,
            Entry {
                fd: Some(fd),
                handler,
                armed: interest,
            },
        );
        Ok(token)
    }

    /// Register a timer-only handler (no fd; only `tick` fires).
    pub fn register_timer(&mut self, handler: Box<dyn Handler>) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.entries.insert(
            token,
            Entry {
                fd: None,
                handler,
                armed: Interest::NONE,
            },
        );
        token
    }

    fn apply(&mut self, token: u64, verdict: Next, closes: &mut Vec<u64>) {
        match verdict {
            Next::Close => closes.push(token),
            Next::Keep => {
                if let Some(entry) = self.entries.get_mut(&token) {
                    let want = entry.handler.interest();
                    if want != entry.armed {
                        if let Some(fd) = entry.fd {
                            // A failed re-arm (fd gone bad) drops the conn.
                            if self.poller.modify(fd, want, token).is_err() {
                                closes.push(token);
                                return;
                            }
                        }
                        entry.armed = want;
                    }
                }
            }
        }
    }

    fn close_all(&mut self, closes: &mut Vec<u64>) {
        for token in closes.drain(..) {
            if let Some(entry) = self.entries.remove(&token) {
                if let Some(fd) = entry.fd {
                    let _ = self.poller.delete(fd, token);
                }
                // Dropping the handler closes its socket.
            }
        }
    }

    /// Run until `stop` is set. Consumes the loop; registered handlers are
    /// dropped (closing their sockets) on the way out.
    pub fn run(mut self, stop: Arc<AtomicBool>) {
        let mut ready = Vec::new();
        let mut adds: Vec<Registration> = Vec::new();
        let mut closes: Vec<u64> = Vec::new();
        // `None` until the first tick, which fires as the loop starts.
        let mut last_tick: Option<Instant> = None;

        while !stop.load(Ordering::SeqCst) {
            ready.clear();
            let until_tick =
                last_tick.map_or(Duration::ZERO, |t| Self::TICK.saturating_sub(t.elapsed()));
            if self
                .poller
                .wait(
                    &mut ready,
                    until_tick.max(Duration::from_millis(1)),
                    &self.waker,
                )
                .is_err()
            {
                break;
            }

            for &(token, readable, writable) in ready.iter() {
                let verdict = match self.entries.get_mut(&token) {
                    Some(entry) => {
                        let mut ctx = LoopCtx {
                            adds: &mut adds,
                            now: Instant::now(),
                        };
                        entry.handler.ready(readable, writable, &mut ctx)
                    }
                    None => continue,
                };
                self.apply(token, verdict, &mut closes);
            }

            if last_tick.is_none_or(|t| t.elapsed() >= Self::TICK) {
                let now = Instant::now();
                last_tick = Some(now);
                let tokens: Vec<u64> = self.entries.keys().copied().collect();
                for token in tokens {
                    let verdict = match self.entries.get_mut(&token) {
                        Some(entry) => {
                            let mut ctx = LoopCtx {
                                adds: &mut adds,
                                now,
                            };
                            entry.handler.tick(now, &mut ctx)
                        }
                        None => continue,
                    };
                    self.apply(token, verdict, &mut closes);
                }
            }

            // Another thread queued output: re-arm every handler so the
            // ones with something to write get it out on the next wait.
            if self.waker.take() {
                let tokens: Vec<u64> = self.entries.keys().copied().collect();
                for token in tokens {
                    self.apply(token, Next::Keep, &mut closes);
                }
            }

            self.close_all(&mut closes);
            for reg in adds.drain(..) {
                match reg.fd {
                    Some(fd) => {
                        let _ = self.register(fd, reg.handler);
                    }
                    None => {
                        self.register_timer(reg.handler);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Echo server: listener handler accepts and registers per-conn handlers.
    struct EchoListener {
        listener: TcpListener,
        accepted: Arc<AtomicUsize>,
    }

    impl Handler for EchoListener {
        fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
            loop {
                match self.listener.accept() {
                    Ok((conn, _)) => {
                        conn.set_nonblocking(true).unwrap();
                        self.accepted.fetch_add(1, Ordering::SeqCst);
                        let fd = conn.loop_fd();
                        ctx.register(
                            fd,
                            Box::new(EchoConn {
                                conn,
                                out: Vec::new(),
                            }),
                        );
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return Next::Keep,
                    Err(_) => return Next::Keep,
                }
            }
        }
    }

    struct EchoConn {
        conn: TcpStream,
        out: Vec<u8>,
    }

    impl Handler for EchoConn {
        fn ready(&mut self, readable: bool, writable: bool, _ctx: &mut LoopCtx<'_>) -> Next {
            if readable {
                let mut buf = [0u8; 4096];
                loop {
                    match self.conn.read(&mut buf) {
                        Ok(0) => return Next::Close,
                        Ok(n) => self.out.extend_from_slice(&buf[..n]),
                        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => return Next::Close,
                    }
                }
            }
            if (writable || !self.out.is_empty()) && !self.out.is_empty() {
                match self.conn.write(&self.out) {
                    Ok(n) => {
                        self.out.drain(..n);
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => return Next::Close,
                }
            }
            Next::Keep
        }

        fn interest(&self) -> Interest {
            Interest {
                read: true,
                write: !self.out.is_empty(),
            }
        }
    }

    struct TickCounter {
        ticks: Arc<AtomicUsize>,
    }

    impl Handler for TickCounter {
        fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
            Next::Keep
        }
        fn tick(&mut self, _now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            Next::Keep
        }
        fn interest(&self) -> Interest {
            Interest::NONE
        }
    }

    fn spawn_loop(
        build: impl FnOnce(&mut EventLoop),
    ) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let mut el = EventLoop::new().unwrap();
        build(&mut el);
        let stop = Arc::new(AtomicBool::new(false));
        let s = stop.clone();
        let h = std::thread::spawn(move || el.run(s));
        (stop, h)
    }

    #[test]
    fn echo_round_trip_and_concurrent_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let acc = accepted.clone();
        let (stop, h) = spawn_loop(move |el| {
            el.register(
                listener.loop_fd(),
                Box::new(EchoListener {
                    listener,
                    accepted: acc,
                }),
            )
            .unwrap();
        });

        // A stalled client must not block other clients (head-of-line test
        // at the loop level).
        let _stalled = TcpStream::connect(addr).unwrap();

        let mut clients: Vec<TcpStream> =
            (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.write_all(format!("hello-{i}").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            let want = format!("hello-{i}");
            let mut got = vec![0u8; want.len()];
            c.read_exact(&mut got).unwrap();
            assert_eq!(got, want.as_bytes());
        }
        assert!(accepted.load(Ordering::SeqCst) >= 5);

        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }

    #[test]
    fn timer_handlers_tick_without_an_fd() {
        let ticks = Arc::new(AtomicUsize::new(0));
        let t = ticks.clone();
        let (stop, h) = spawn_loop(move |el| {
            el.register_timer(Box::new(TickCounter { ticks: t }));
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        while ticks.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
        assert!(
            ticks.load(Ordering::SeqCst) >= 2,
            "timer handler never ticked"
        );
    }

    /// Writes whatever another thread queued; counts ticks so the test can
    /// tell a wake-driven write from a tick-driven one.
    struct QueuedWriter {
        conn: TcpStream,
        queue: Arc<Mutex<Vec<u8>>>,
        ticks: Arc<AtomicUsize>,
    }

    impl Handler for QueuedWriter {
        fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
            let mut q = self.queue.lock().unwrap();
            match self.conn.write(&q) {
                Ok(n) => {
                    q.drain(..n);
                    Next::Keep
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => Next::Keep,
                Err(_) => Next::Close,
            }
        }
        fn tick(&mut self, _now: Instant, _ctx: &mut LoopCtx<'_>) -> Next {
            self.ticks.fetch_add(1, Ordering::SeqCst);
            Next::Keep
        }
        fn interest(&self) -> Interest {
            Interest {
                read: false,
                write: !self.queue.lock().unwrap().is_empty(),
            }
        }
    }

    /// Output queued from another thread leaves on the wake, not on the
    /// next tick. Without the waker the loop re-queries interest only after
    /// a callback or a tick, so every frame below would wait for a tick.
    #[test]
    fn wake_writes_queued_output_without_a_tick() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let queue = Arc::new(Mutex::new(Vec::new()));
        let ticks = Arc::new(AtomicUsize::new(0));
        let mut el = EventLoop::new().unwrap();
        let waker = el.waker();
        el.register(
            server.loop_fd(),
            Box::new(QueuedWriter {
                conn: server,
                queue: queue.clone(),
                ticks: ticks.clone(),
            }),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = std::thread::spawn({
            let stop = stop.clone();
            move || el.run(stop)
        });
        // Let the start-up tick pass so it cannot carry the first frame.
        while ticks.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }

        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        const FRAMES: usize = 10;
        let mut without_tick = 0;
        for i in 0..FRAMES {
            let before = ticks.load(Ordering::SeqCst);
            queue.lock().unwrap().push(i as u8);
            waker.wake();
            let mut got = [0u8; 1];
            client.read_exact(&mut got).unwrap();
            assert_eq!(got[0], i as u8);
            if ticks.load(Ordering::SeqCst) == before {
                without_tick += 1;
            }
        }
        stop.store(true, Ordering::SeqCst);
        waker.wake();
        h.join().unwrap();
        // A tick may still land inside a write on a loaded host; the wake
        // path must carry most frames.
        assert!(
            without_tick > FRAMES / 2,
            "only {without_tick} of {FRAMES} frames left without a tick"
        );
    }

    /// Handlers registered mid-flight (via ctx) and closed handlers drop
    /// their sockets promptly.
    #[test]
    fn close_drops_the_connection() {
        struct CloseOnRead {
            conn: TcpStream,
            log: Arc<Mutex<Vec<u8>>>,
        }
        impl Handler for CloseOnRead {
            fn ready(&mut self, _r: bool, _w: bool, _ctx: &mut LoopCtx<'_>) -> Next {
                let mut buf = [0u8; 64];
                match self.conn.read(&mut buf) {
                    Ok(n) if n > 0 => {
                        self.log.lock().unwrap().extend_from_slice(&buf[..n]);
                        Next::Close
                    }
                    _ => Next::Close,
                }
            }
        }
        struct Acceptor {
            listener: TcpListener,
            log: Arc<Mutex<Vec<u8>>>,
        }
        impl Handler for Acceptor {
            fn ready(&mut self, _r: bool, _w: bool, ctx: &mut LoopCtx<'_>) -> Next {
                while let Ok((conn, _)) = self.listener.accept() {
                    conn.set_nonblocking(true).unwrap();
                    let fd = conn.loop_fd();
                    ctx.register(
                        fd,
                        Box::new(CloseOnRead {
                            conn,
                            log: self.log.clone(),
                        }),
                    );
                }
                Next::Keep
            }
        }

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = log.clone();
        let (stop, h) = spawn_loop(move |el| {
            el.register(listener.loop_fd(), Box::new(Acceptor { listener, log: l2 }))
                .unwrap();
        });

        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"bye").unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut sink = Vec::new();
        // Server closes after reading: read() observes EOF.
        let _ = c.read_to_end(&mut sink);
        assert_eq!(log.lock().unwrap().as_slice(), b"bye");

        stop.store(true, Ordering::SeqCst);
        h.join().unwrap();
    }
}
