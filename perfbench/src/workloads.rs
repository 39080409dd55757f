//! The four workloads, driven through the real `monilog` binaries.
//!
//! Each run generates its corpora from the seed, trains a model several
//! times (set-up), runs an untimed traced reference per corpus file, then
//! repeats timed trials until the run's measuring time is spent. Every
//! trial's report set is compared with the reference.

use crate::corpus::{self, Corpus};
use crate::keys::{self, Diff, Report};
use crate::probe;
use crate::procs::{self, Proc};
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Budget for any single process or poll condition.
const BUDGET: Duration = Duration::from_secs(60);
/// An ingest count that has not moved for this long has stalled: the
/// lines still missing count as failed.
const STALL: Duration = Duration::from_secs(10);
/// Trained models per run, spread evenly over the measuring time so that
/// host speed drift hits them as it hits the trials; `setup_s` reports
/// their median.
const SETUP_REPS: usize = 5;
/// Fewest timed trials per run, however long they take.
const MIN_TRIALS: usize = 2;

/// HDFS sessions per corpus. Training is small: it only has to learn the
/// flow, and it is repeated for the set-up time.
const HDFS_TRAIN_SESSIONS: usize = 200;
const HDFS_FILE_SESSIONS: usize = 10_000;
const HDFS_SYSLOG_SESSIONS: usize = 14_000;
const HDFS_FLEET_SESSIONS: usize = 1_700;
const CLOUD_TRAIN_WALKS: usize = 20;
const CLOUD_LIVE_WALKS: usize = 200;

/// `hdfs-syslog`: lines sent on the fixed schedule, and its rate. The
/// rest of the corpus follows in equal bursts, each timed on its own.
const PACED_LINES: usize = 40_000;
const PACED_RATE: f64 = 12_000.0;
const BURSTS: usize = 4;
/// A paced phase whose generator ran later than this at p99 is invalid.
pub const GEN_LATE_BOUND_MS: f64 = 5.0;

/// `hdfs-fleet`: source files, monitor nodes, and how long a monitor may
/// take to exit after the router completes before it is sent SIGTERM.
const FLEET_SOURCES: usize = 4;
const FLEET_NODES: usize = 2;
const FIN_GRACE: Duration = Duration::from_secs(1);

pub const WORKLOADS: [&str; 4] = ["hdfs-file", "hdfs-syslog", "cloud-tail", "hdfs-fleet"];

/// Where a run works and what it drives.
pub struct Ctx {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Timings, one entry per sample, keyed by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Report keys that diverged from the reference, for the log.
    pub diverging: Vec<String>,
    /// Line counts of the corpora (training, live).
    pub corpus_lines: (usize, usize),
    /// Counters read from the processes (per-layer metrics of the traced
    /// run): name → value.
    pub counters: BTreeMap<&'static str, f64>,
    /// Paced phases dropped because the generator fell behind.
    pub invalid_paced: usize,
}

impl Outcome {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn compare(
        &mut self,
        lines_sent: usize,
        lines_done: usize,
        expected: &BTreeSet<String>,
        got: &BTreeSet<String>,
    ) {
        let diff = Diff::between(expected, got);
        self.attempted += (lines_sent + expected.len()) as u64;
        self.failed += (lines_sent.saturating_sub(lines_done) + diff.count()) as u64;
        let missing = diff.missing.iter().map(|k| format!("missing {k}"));
        let extra = diff.extra.iter().map(|k| format!("extra {k}"));
        self.diverging.extend(missing.chain(extra));
        if lines_done < lines_sent {
            self.diverging
                .push(format!("{} of {lines_sent} lines monitored", lines_done));
        }
    }

    /// `setup_s`: median training time plus median spawn-to-ready.
    fn finish_setup(&mut self) {
        let train = stats::median(&self.samples["train_s"]);
        let ready = self
            .samples
            .get("ready_s")
            .map_or(0.0, |v| stats::median(v));
        self.push("setup_s", train + ready);
    }
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "hdfs-file" => hdfs_file(ctx),
        "hdfs-syslog" => hdfs_syslog(ctx),
        "cloud-tail" => cloud_tail(ctx),
        "hdfs-fleet" => hdfs_fleet(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// A trained model and the live corpus of one workload.
pub struct Prepared {
    pub live: Corpus,
    pub train: Corpus,
    pub model: PathBuf,
    pub live_path: PathBuf,
    pub train_path: PathBuf,
}

pub fn prepare(workload: &str, ctx: &Ctx, out: &mut Outcome) -> Result<Prepared, String> {
    let (train, live) = match workload {
        "cloud-tail" => (
            corpus::cloud(ctx.seed, CLOUD_TRAIN_WALKS, true),
            corpus::cloud(ctx.seed, CLOUD_LIVE_WALKS, false),
        ),
        "hdfs-file" => (
            corpus::hdfs(ctx.seed, HDFS_TRAIN_SESSIONS, true),
            corpus::hdfs(ctx.seed, HDFS_FILE_SESSIONS, false),
        ),
        "hdfs-syslog" => (
            corpus::hdfs(ctx.seed, HDFS_TRAIN_SESSIONS, true),
            corpus::hdfs(ctx.seed, HDFS_SYSLOG_SESSIONS, false),
        ),
        _ => (
            corpus::hdfs(ctx.seed, HDFS_TRAIN_SESSIONS, true),
            corpus::hdfs(ctx.seed, HDFS_FLEET_SESSIONS, false),
        ),
    };
    out.corpus_lines = (train.len(), live.len());
    let train_path = ctx.work.join("train.log");
    let live_path = ctx.work.join("live.log");
    train
        .write(&train_path)
        .map_err(|e| format!("write training corpus: {e}"))?;
    live.write(&live_path)
        .map_err(|e| format!("write live corpus: {e}"))?;
    let model = ctx.work.join("model.mlcp");
    train_model(ctx, &train_path, &model, out)?;
    Ok(Prepared {
        live,
        train,
        model,
        live_path,
        train_path,
    })
}

/// One timed `monilog train`.
fn train_model(ctx: &Ctx, corpus: &Path, model: &Path, out: &mut Outcome) -> Result<(), String> {
    let args = vec![
        "train".to_string(),
        path_arg(corpus),
        "--checkpoint".to_string(),
        path_arg(model),
    ];
    let mut p = procs::spawn(&ctx.bin, &args, &ctx.work.join("train.out"), "train")?;
    let exit = p.wait_ok(BUDGET)?;
    out.push("train_s", exit.wall.as_secs_f64());
    Ok(())
}

/// Repeat `trial` for the run's measuring time, with the remaining set-up
/// reps interleaved at even intervals. A trial is not started when the
/// previous one says it would overrun the time, once [`MIN_TRIALS`] ran.
/// Repeated models go to their own file: trials keep the first.
fn measure(
    ctx: &Ctx,
    prep: &Prepared,
    out: &mut Outcome,
    mut trial: impl FnMut(&mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let rep_model = ctx.work.join("model-rep.mlcp");
    let mut reps = 1;
    let mut trials = 0;
    let mut last = 0.0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if trials >= MIN_TRIALS && elapsed + last > ctx.seconds {
            break;
        }
        if reps < SETUP_REPS && elapsed >= ctx.seconds * (reps - 1) as f64 / (SETUP_REPS - 1) as f64
        {
            train_model(ctx, &prep.train_path, &rep_model, out)?;
            reps += 1;
            continue;
        }
        let t = Instant::now();
        trial(out)?;
        trials += 1;
        last = t.elapsed().as_secs_f64();
    }
    while reps < SETUP_REPS {
        train_model(ctx, &prep.train_path, &rep_model, out)?;
        reps += 1;
    }
    out.finish_setup();
    Ok(())
}

fn path_arg(p: &Path) -> String {
    p.display().to_string()
}

/// Untimed reference: `monitor <file> --trace-sample-rate 1`, every event
/// mapped back to its line.
pub fn reference(ctx: &Ctx, file: &Path, model: &Path, ts: &[u64]) -> Result<Vec<Report>, String> {
    let out_path = ctx.work.join("reference.out");
    let args = vec![
        "monitor".to_string(),
        path_arg(file),
        "--checkpoint".to_string(),
        path_arg(model),
        "--trace-sample-rate".to_string(),
        "1".to_string(),
    ];
    procs::spawn(&ctx.bin, &args, &out_path, "reference monitor")?.wait_ok(BUDGET)?;
    let text = read(&out_path)?;
    keys::parse_text_reports(&text, Some(ts))
}

/// The number after `prefix` on the first stdout line that starts with it
/// (`monitored 95308 lines: ...`), or 0.
fn count_after(text: &str, prefix: &str) -> usize {
    text.lines()
        .find_map(|l| l.strip_prefix(prefix)?.split_once(' ')?.0.parse().ok())
        .unwrap_or(0)
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Detection quality of the reference against loggen ground truth: HDFS
/// recall counts anomalous sessions, cloud recall anomalous lines.
fn score_reference(out: &mut Outcome, reports: &[Report], live: &Corpus) {
    let (p, r, f1) = keys::detect_f1(reports, &live.anomalous, |l| {
        live.session[l].clone().unwrap_or_else(|| l.to_string())
    });
    out.precision = p;
    out.recall = r;
    out.f1 = f1;
}

/// Reports closed by a line of the stream, not by the end-of-stream flush.
/// A monitor stopped by SIGTERM checkpoints its open windows instead of
/// flushing them, so only these are expected from it.
fn stream_closed(reports: &[Report], ts: &[u64]) -> Vec<Report> {
    let max_seen = keys::running_max(ts);
    reports
        .iter()
        .filter(|r| keys::closing_line(&max_seen, r).is_some())
        .cloned()
        .collect()
}

fn key_set(reports: &[Report]) -> BTreeSet<String> {
    reports.iter().map(Report::key).collect()
}

/// Keys of every report in an `anomalies.jsonl` file (missing file: none).
fn jsonl_keys(path: &Path) -> Result<Vec<Report>, String> {
    let Ok(body) = std::fs::read_to_string(path) else {
        return Ok(Vec::new());
    };
    body.lines()
        .map(|l| keys::parse_json_report(l).ok_or_else(|| format!("unparseable report: {l}")))
        .collect()
}

/// Poll `/metrics` until `monilog_lines_ingested_total` reaches `want`,
/// or until it has not moved for [`STALL`]. Returns the lines ingested and
/// the instant the count last moved. With `depth`, `/status` is polled too
/// and the largest ingest queue depth kept.
fn wait_ingested(
    metrics: &str,
    want: usize,
    proc: &mut Proc,
    mut depth: Option<&mut f64>,
) -> Result<(usize, Instant), String> {
    let mut seen = (0, Instant::now());
    loop {
        let body = procs::http_get(metrics, "/metrics")?;
        let got = procs::prom_value(&body, "monilog_lines_ingested_total").unwrap_or(0.0) as usize;
        if got != seen.0 {
            seen = (got, Instant::now());
        }
        if got >= want || seen.1.elapsed() > STALL {
            return Ok(seen);
        }
        if let Some(max) = depth.as_deref_mut() {
            *max = max.max(queue_depth(metrics)?);
        }
        if let Some(exit) = proc.try_wait() {
            return Err(format!(
                "{} exited ({:?}) at {got}/{want} lines",
                proc.label, exit.code
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// `ingest_queue_depth` from `GET /status`.
fn queue_depth(metrics: &str) -> Result<f64, String> {
    let body = procs::http_get(metrics, "/status")?;
    body.split_once("\"queue\":")
        .and_then(|(_, rest)| procs::json_number(rest, "depth"))
        .ok_or_else(|| format!("no queue depth in /status: {body}"))
}

// ---------------------------------------------------------------------------
// hdfs-file: `monitor <corpus>`, in memory, closed loop.
// ---------------------------------------------------------------------------

fn hdfs_file(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prep = prepare("hdfs-file", ctx, &mut out)?;
    let reference = reference(ctx, &prep.live_path, &prep.model, &prep.live.ts_ms)?;
    score_reference(&mut out, &reference, &prep.live);
    let expected: BTreeSet<String> = reference.iter().map(Report::short_key).collect();
    let args = vec![
        "monitor".to_string(),
        path_arg(&prep.live_path),
        "--checkpoint".to_string(),
        path_arg(&prep.model),
    ];
    let out_path = ctx.work.join("monitor.out");
    // Warm-up: one untimed trial and probe pass, so that the page cache
    // and the bench's allocator are filled before timing starts.
    procs::spawn(&ctx.bin, &args, &out_path, "monitor")?.wait_ok(BUDGET)?;
    probe::spawn(&prep.live_path)?;
    measure(ctx, &prep, &mut out, |out| {
        let exit = procs::spawn(&ctx.bin, &args, &out_path, "monitor")?.wait_ok(BUDGET)?;
        let raw = prep.live.len() as f64 / exit.wall.as_secs_f64();
        let host = probe::spawn(&prep.live_path)?;
        out.push("lines_per_s_raw", raw);
        out.push("probe_mb_s", host);
        out.push("lines_per_s", raw * probe::REF_MB_S / host);
        out.push("peak_rss_mb", exit.peak_rss_mb);
        let text = read(&out_path)?;
        let done = count_after(&text, "monitored ");
        let got: BTreeSet<String> = keys::parse_text_reports(&text, None)?
            .iter()
            .map(Report::short_key)
            .collect();
        out.compare(prep.live.len(), done, &expected, &got);
        Ok(())
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// hdfs-syslog: durable network monitor; paced phase, burst, SIGKILL,
// restart with full journal replay.
// ---------------------------------------------------------------------------

/// A report received at the bench's TCP sink, with the monitor life
/// (0 before the crash, 1 after the restart) that sent it.
struct Received {
    at: Instant,
    life: u8,
    id: u64,
    body: String,
}

/// The bench's framed-TCP sink: acks every frame, records every report.
/// One thread serves one connection at a time (a restarted monitor
/// reconnects). Stopped by [`Sink::stop`] once every monitor has exited.
struct Sink {
    addr: String,
    got: Arc<Mutex<Vec<Received>>>,
    life: Arc<AtomicU8>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sink {
    fn start() -> Result<Sink, String> {
        use monilog_core::stream::sinks::{decode_report_payload, read_frame, PING_ACK};
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind sink: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let got: Arc<Mutex<Vec<Received>>> = Arc::default();
        let life: Arc<AtomicU8> = Arc::default();
        let stop: Arc<AtomicBool> = Arc::default();
        let (got2, life2, stop2) = (Arc::clone(&got), Arc::clone(&life), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut conn) = conn else { continue };
                let _ = conn.set_nodelay(true);
                while let Ok(Some(payload)) = read_frame(&mut conn) {
                    let at = Instant::now();
                    let ack = match decode_report_payload(&payload) {
                        Some(r) => {
                            let id = r.id;
                            got2.lock().expect("sink log poisoned").push(Received {
                                at,
                                life: life2.load(Ordering::SeqCst),
                                id,
                                body: r.body,
                            });
                            id
                        }
                        None => PING_ACK,
                    };
                    if conn.write_all(&ack.to_le_bytes()).is_err() {
                        break;
                    }
                }
            }
        });
        Ok(Sink {
            addr,
            got,
            life,
            stop,
            thread: Some(thread),
        })
    }

    /// Distinct report ids received so far.
    fn distinct(&self) -> usize {
        let got = self.got.lock().expect("sink log poisoned");
        got.iter().map(|r| r.id).collect::<BTreeSet<u64>>().len()
    }

    /// Stop the receiver thread and return everything it received.
    fn stop(mut self) -> Vec<Received> {
        self.halt();
        std::mem::take(&mut *self.got.lock().expect("sink log poisoned"))
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept.
        let _ = TcpStream::connect(&self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Sink {
    fn drop(&mut self) {
        self.halt();
    }
}

fn syslog_args(prep: &Prepared, state: &Path, sink: &str) -> Vec<String> {
    [
        "monitor",
        "--checkpoint",
        &path_arg(&prep.model),
        "--state-dir",
        &path_arg(state),
        "--listen-syslog-tcp",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
        "--sink-tcp",
        sink,
        "--page-at",
        "low",
        "--route-critical",
        "tcp",
        // No periodic checkpoint inside a trial: the restart must replay
        // the whole journal.
        "--checkpoint-interval-ms",
        "3600000",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// One syslog frame carrying a corpus line as its MSG.
pub fn syslog_frame(line: &str, wire: &mut Vec<u8>) {
    wire.extend_from_slice(b"<14>1 2020-09-13T13:26:40Z host app - - - ");
    wire.extend_from_slice(line.as_bytes());
    wire.push(b'\n');
}

/// Open-loop generator: line `i` is due at `t0 + i / rate`. Every line
/// due by now goes out in one write. Returns the schedule's start and
/// each line's lateness (send minus due) in ms.
fn paced_send(
    conn: &mut TcpStream,
    lines: &[String],
    rate: f64,
) -> Result<(Instant, Vec<f64>), String> {
    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut late = Vec::with_capacity(lines.len());
    let mut wire = Vec::new();
    let mut next = 0;
    while next < lines.len() {
        let now = Instant::now();
        let d = due(next);
        if now < d {
            std::thread::sleep(d - now);
            continue;
        }
        wire.clear();
        let mut end = next;
        while end < lines.len() && due(end) <= now {
            syslog_frame(&lines[end], &mut wire);
            end += 1;
        }
        conn.write_all(&wire)
            .map_err(|e| format!("paced write: {e}"))?;
        let sent = Instant::now();
        late.extend((next..end).map(|i| (sent - due(i)).as_secs_f64() * 1e3));
        next = end;
    }
    Ok((t0, late))
}

/// What `hdfs-syslog` checks every trial against.
struct SyslogPlan {
    expected: BTreeSet<String>,
    max_seen: Vec<u64>,
    paced: usize,
    /// Each burst's last line (exclusive) and its frames.
    bursts: Vec<(usize, Vec<u8>)>,
}

impl SyslogPlan {
    fn new(prep: &Prepared, reference: &[Report]) -> SyslogPlan {
        let n = prep.live.len();
        let paced = PACED_LINES.min(n / 2);
        let per_burst = (n - paced).div_ceil(BURSTS);
        let bursts = (paced..n)
            .step_by(per_burst)
            .map(|start| {
                let end = (start + per_burst).min(n);
                let mut wire = Vec::new();
                for l in &prep.live.lines[start..end] {
                    syslog_frame(l, &mut wire);
                }
                (end, wire)
            })
            .collect();
        SyslogPlan {
            expected: key_set(&stream_closed(reference, &prep.live.ts_ms)),
            max_seen: keys::running_max(&prep.live.ts_ms),
            paced,
            bursts,
        }
    }
}

/// One `hdfs-syslog` trial: paced phase, burst, SIGKILL, restart with a
/// full journal replay, SIGTERM once every expected report arrived. With
/// `traced`, the burst is written in chunks with a `/status` poll
/// between them for the ingest queue depth.
fn syslog_trial(
    ctx: &Ctx,
    prep: &Prepared,
    plan: &SyslogPlan,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = prep.live.len();
    let state = procs::fresh_dir(ctx.work.join("state"))?;
    let sink = Sink::start()?;
    let args = syslog_args(prep, &state, &sink.addr);
    let mut mon = procs::spawn(&ctx.bin, &args, &ctx.work.join("monitor.out"), "monitor")?;
    let addrs = procs::wait_addrs(&state, &["syslog-tcp", "metrics"], &mut mon, BUDGET)?;
    out.push("ready_s", mon.spawned.elapsed().as_secs_f64());
    let mut conn = TcpStream::connect(&addrs[0]).map_err(|e| format!("connect syslog: {e}"))?;
    let _ = conn.set_nodelay(true);

    // Paced phase, then the rest in bursts, each as fast as TCP
    // backpressure allows and timed until its last line is applied.
    let (t0, late) = paced_send(&mut conn, &prep.live.lines[..plan.paced], PACED_RATE)?;
    let mut depth = 0.0f64;
    let mut sent = plan.paced;
    let mut ingested = n;
    for (end, wire) in &plan.bursts {
        let burst_start = Instant::now();
        if traced {
            for chunk in wire.chunks(64 * 1024) {
                conn.write_all(chunk)
                    .map_err(|e| format!("burst write: {e}"))?;
                depth = depth.max(queue_depth(&addrs[1])?);
            }
        } else {
            conn.write_all(wire)
                .map_err(|e| format!("burst write: {e}"))?;
        }
        let (got, done) = wait_ingested(&addrs[1], *end, &mut mon, traced.then_some(&mut depth))?;
        if got < *end {
            ingested = got;
            break;
        }
        out.push(
            "lines_per_s",
            (end - sent) as f64 / (done - burst_start).as_secs_f64(),
        );
        sent = *end;
    }
    let late_p99 = stats::percentile(&late, 99.0);
    out.push("gen_late_p99_ms", late_p99);
    let valid = late_p99 <= GEN_LATE_BOUND_MS;
    if !valid {
        out.invalid_paced += 1;
    }
    drop(conn);

    // Crash, then recover from the journal alone.
    let killed = mon
        .kill_and_reap()
        .ok_or("monitor vanished before SIGKILL")?;
    sink.life.store(1, Ordering::SeqCst);
    let _ = std::fs::remove_file(state.join("listen-addrs"));
    let mut mon = procs::spawn(
        &ctx.bin,
        &args,
        &ctx.work.join("restart.out"),
        "restarted monitor",
    )?;
    procs::wait_addrs(&state, &["syslog-tcp", "metrics"], &mut mon, BUDGET)?;
    out.push("recover_s", mon.spawned.elapsed().as_secs_f64());
    let deadline = Instant::now() + BUDGET;
    while sink.distinct() < plan.expected.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    mon.sigterm();
    let restarted = mon.wait(BUDGET)?;
    out.push("peak_rss_mb", killed.peak_rss_mb.max(restarted.peak_rss_mb));
    let received = sink.stop();

    // Every reference report arrives. An id sent twice within one life is
    // a sink retry; across the crash it is a duplicate the receiver
    // deduplicates by id.
    let mut first: BTreeMap<String, Instant> = BTreeMap::new();
    let mut seen: BTreeMap<u64, u8> = BTreeMap::new();
    let (mut retries, mut duplicates) = (0, 0);
    for r in &received {
        if let Some(&life) = seen.get(&r.id) {
            if life == r.life {
                retries += 1;
            } else {
                duplicates += 1;
            }
            continue;
        }
        seen.insert(r.id, r.life);
        let report = keys::parse_json_report(&r.body)
            .ok_or_else(|| format!("unparseable sink report: {}", r.body))?;
        first.entry(report.key()).or_insert(r.at);
        let closing = keys::closing_line(&plan.max_seen, &report);
        if let Some(c) = closing.filter(|&c| valid && c < plan.paced) {
            let due = t0 + Duration::from_secs_f64(c as f64 / PACED_RATE);
            let delay = r.at.saturating_duration_since(due);
            out.push("report_delay_ms", delay.as_secs_f64() * 1e3);
        }
    }
    let counters = &mut out.counters;
    *counters.entry("sinks.retries").or_default() += retries as f64;
    *counters.entry("sinks.duplicates").or_default() += duplicates as f64;
    let max_depth = counters.entry("sources.queue_depth_max").or_default();
    *max_depth = max_depth.max(depth);
    let gen_late = counters.entry("bench.gen_late_p99_ms").or_default();
    *gen_late = gen_late.max(late_p99);
    let got: BTreeSet<String> = first.into_keys().collect();
    out.compare(n, ingested, &plan.expected, &got);
    Ok(())
}

fn hdfs_syslog(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prep = prepare("hdfs-syslog", ctx, &mut out)?;
    let reference = reference(ctx, &prep.live_path, &prep.model, &prep.live.ts_ms)?;
    score_reference(&mut out, &reference, &prep.live);
    let plan = SyslogPlan::new(&prep, &reference);
    measure(ctx, &prep, &mut out, |out| {
        syslog_trial(ctx, &prep, &plan, false, out)
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// cloud-tail: durable monitor tailing the multi-source cloud corpus.
// ---------------------------------------------------------------------------

/// One `cloud-tail` trial: tail the corpus until every line is ingested,
/// then SIGTERM. With `traced`, `/status` is polled for the queue depth.
fn tail_trial(
    ctx: &Ctx,
    prep: &Prepared,
    expected: &BTreeSet<String>,
    traced: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let n = prep.live.len();
    let state = procs::fresh_dir(ctx.work.join("state"))?;
    let args: Vec<String> = [
        "monitor",
        "--checkpoint",
        &path_arg(&prep.model),
        "--state-dir",
        &path_arg(&state),
        "--tail",
        &path_arg(&prep.live_path),
        "--metrics-addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut mon = procs::spawn(&ctx.bin, &args, &ctx.work.join("monitor.out"), "monitor")?;
    let addrs = procs::wait_addrs(&state, &["metrics"], &mut mon, BUDGET)?;
    out.push("ready_s", mon.spawned.elapsed().as_secs_f64());
    let mut depth = 0.0f64;
    let (ingested, done) = wait_ingested(&addrs[0], n, &mut mon, traced.then_some(&mut depth))?;
    if ingested == n {
        out.push("lines_per_s", n as f64 / (done - mon.spawned).as_secs_f64());
    }
    mon.sigterm();
    let exit = mon.wait_ok(BUDGET)?;
    out.push("peak_rss_mb", exit.peak_rss_mb);
    let max_depth = out.counters.entry("sources.queue_depth_max").or_default();
    *max_depth = max_depth.max(depth);
    let got = key_set(&jsonl_keys(&state.join("anomalies.jsonl"))?);
    out.compare(n, ingested, expected, &got);
    Ok(())
}

fn cloud_tail(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prep = prepare("cloud-tail", ctx, &mut out)?;
    let reference = reference(ctx, &prep.live_path, &prep.model, &prep.live.ts_ms)?;
    score_reference(&mut out, &reference, &prep.live);
    let expected = key_set(&stream_closed(&reference, &prep.live.ts_ms));
    measure(ctx, &prep, &mut out, |out| {
        tail_trial(ctx, &prep, &expected, false, out)
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// hdfs-fleet: `router` over session-partitioned files plus two
// `monitor --join` nodes.
// ---------------------------------------------------------------------------

/// The fleet's inputs: one file per source, each with its reference.
pub struct FleetFiles {
    pub paths: Vec<PathBuf>,
    /// Corpus line indices of each file.
    pub parts: Vec<Vec<usize>>,
}

pub fn fleet_files(ctx: &Ctx, live: &Corpus) -> Result<FleetFiles, String> {
    let parts = corpus::partition_by_session(live, FLEET_SOURCES);
    let mut paths = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        let path = ctx.work.join(format!("source-{i}.log"));
        let lines: Vec<String> = part.iter().map(|&l| live.lines[l].clone()).collect();
        corpus::write_lines(&path, &lines).map_err(|e| format!("write {}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(FleetFiles { paths, parts })
}

pub fn monitor_join_args(model: &Path, state: &Path, router: &str, node: &str) -> Vec<String> {
    [
        "monitor",
        "--checkpoint",
        &path_arg(model),
        "--state-dir",
        &path_arg(state),
        "--join",
        router,
        "--node-id",
        node,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Per-file references, lifted to corpus lines.
fn fleet_reference(
    ctx: &Ctx,
    prep: &Prepared,
    files: &FleetFiles,
) -> Result<(Vec<Report>, Vec<Report>), String> {
    let mut all = Vec::new();
    let mut closed = Vec::new();
    for (path, part) in files.paths.iter().zip(&files.parts) {
        let ts: Vec<u64> = part.iter().map(|&l| prep.live.ts_ms[l]).collect();
        let mut reports = reference(ctx, path, &prep.model, &ts)?;
        closed.extend(stream_closed(&reports, &ts));
        for r in &mut reports {
            for l in &mut r.lines {
                *l = part[*l];
            }
        }
        all.extend(reports);
    }
    Ok((all, closed))
}

fn hdfs_fleet(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let prep = prepare("hdfs-fleet", ctx, &mut out)?;
    let files = fleet_files(ctx, &prep.live)?;
    let (reference, closed) = fleet_reference(ctx, &prep, &files)?;
    score_reference(&mut out, &reference, &prep.live);
    let n = prep.live.len();
    let mut fin_missed = 0;
    measure(ctx, &prep, &mut out, |out| {
        let trial = run_fleet(ctx, &prep.model, &files)?;
        out.push("ready_s", trial.ready_s);
        out.push("lines_per_s", n as f64 / trial.wall_s);
        out.push("peak_rss_mb", trial.peak_rss_mb);
        fin_missed += trial.fin_missed;
        let (expected, got) =
            fleet_expectation(&reference, &closed, trial.fin_missed, trial.reports);
        out.compare(n, trial.lines_routed, &expected, &got);
        Ok(())
    })?;
    *out.counters.entry("cluster.fin_missed").or_default() += fin_missed as f64;
    Ok(out)
}

/// Give the nodes [`FIN_GRACE`] to exit after the router completed, then
/// SIGTERM the rest. Returns how many missed the router's `Fin`, and the
/// nodes' summed peak resident set.
fn reap_nodes(nodes: &mut [Proc]) -> Result<(usize, f64), String> {
    let grace_end = Instant::now() + FIN_GRACE;
    let mut peak = 0.0;
    let mut fin_missed = 0;
    for node in nodes {
        let exit = loop {
            if let Some(exit) = node.try_wait() {
                break exit;
            }
            if Instant::now() > grace_end {
                fin_missed += 1;
                node.sigterm();
                break node.wait(BUDGET)?;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        peak += exit.peak_rss_mb;
    }
    Ok((fin_missed, peak))
}

/// The report set a fleet run must produce, and the part of what it did
/// produce that is compared. A node stopped by SIGTERM checkpoints its
/// open windows instead of flushing them: after a missed `Fin` only
/// stream-closed reports are expected, and flush-closed ones a node did
/// emit are not failures.
fn fleet_expectation(
    reference: &[Report],
    closed: &[Report],
    fin_missed: usize,
    got: BTreeSet<String>,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let all = key_set(reference);
    if fin_missed == 0 {
        return (all, got);
    }
    let closed = key_set(closed);
    let flush_only: BTreeSet<String> = all.difference(&closed).cloned().collect();
    (closed, got.difference(&flush_only).cloned().collect())
}

/// One fleet run.
pub struct FleetTrial {
    pub ready_s: f64,
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub fin_missed: usize,
    pub lines_routed: usize,
    pub reports: BTreeSet<String>,
}

/// Start the router and the monitor nodes, wait for the router to
/// complete, give the nodes [`FIN_GRACE`] to exit, SIGTERM the rest.
pub fn run_fleet(ctx: &Ctx, model: &Path, files: &FleetFiles) -> Result<FleetTrial, String> {
    let router_state = procs::fresh_dir(ctx.work.join("router"))?;
    let mut router_args: Vec<String> = vec!["router".into()];
    router_args.extend(files.paths.iter().map(|p| path_arg(p)));
    router_args.extend(
        [
            "--state-dir",
            &path_arg(&router_state),
            "--listen-cluster",
            "127.0.0.1:0",
            "--expect-nodes",
            &FLEET_NODES.to_string(),
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    let router_out = ctx.work.join("router.out");
    let mut router = procs::spawn(&ctx.bin, &router_args, &router_out, "router")?;
    let addr = procs::wait_addrs(&router_state, &["cluster"], &mut router, BUDGET)?.remove(0);
    let mut ready = router.spawned.elapsed();
    let mut nodes = Vec::new();
    let mut states = Vec::new();
    for i in 0..FLEET_NODES {
        let state = procs::fresh_dir(ctx.work.join(format!("node-{i}")))?;
        let args = monitor_join_args(model, &state, &addr, &format!("n{i}"));
        let mut node = procs::spawn(
            &ctx.bin,
            &args,
            &ctx.work.join(format!("node-{i}.out")),
            &format!("node n{i}"),
        )?;
        // A joined node listens on nothing; it writes an empty file.
        procs::wait_addrs(&state, &[], &mut node, BUDGET)?;
        ready = ready.max(router.spawned.elapsed());
        nodes.push(node);
        states.push(state);
    }
    let router_exit = router.wait_ok(BUDGET)?;
    let wall_s = router_exit.wall.as_secs_f64();
    let text = read(&router_out)?;
    let lines_routed = count_after(&text, "routed ");

    let (fin_missed, peak) = reap_nodes(&mut nodes)?;
    let peak = peak + router_exit.peak_rss_mb;
    let mut reports = BTreeSet::new();
    for state in &states {
        reports.extend(
            jsonl_keys(&state.join("anomalies.jsonl"))?
                .iter()
                .map(Report::key),
        );
    }
    Ok(FleetTrial {
        ready_s: ready.as_secs_f64(),
        wall_s,
        peak_rss_mb: peak,
        fin_missed,
        lines_routed,
        reports,
    })
}

/// A route call slower than this waited for an in-flight slot or an owner
/// (the router blocks instead of dropping); faster calls only appended.
const ROUTE_BLOCKED: Duration = Duration::from_micros(100);

/// The fleet with the bench as the router: `Router::spawn`, every
/// `route_line` timed, `finish`, and real `monitor --join` nodes.
fn bench_router_trial(
    ctx: &Ctx,
    prep: &Prepared,
    files: &FleetFiles,
    out: &mut Outcome,
) -> Result<(), String> {
    use monilog_core::model::SourceId;
    use monilog_core::stream::{Router, RouterConfig, ROUTER_SOURCE_BASE};
    let (reference, closed) = fleet_reference(ctx, prep, files)?;
    let buffers = procs::fresh_dir(ctx.work.join("router-buffers"))?;
    let router = Router::spawn(RouterConfig {
        buffer_dir: buffers.clone(),
        ..RouterConfig::default()
    })
    .map_err(|e| format!("router: {e}"))?;
    let addr = router.local_addr().to_string();
    let mut nodes = Vec::new();
    let mut states = Vec::new();
    for i in 0..FLEET_NODES {
        let state = procs::fresh_dir(ctx.work.join(format!("node-{i}")))?;
        let args = monitor_join_args(&prep.model, &state, &addr, &format!("n{i}"));
        let out_path = ctx.work.join(format!("node-{i}.out"));
        nodes.push(procs::spawn(
            &ctx.bin,
            &args,
            &out_path,
            &format!("node n{i}"),
        )?);
        states.push(state);
    }
    router
        .wait_for_nodes(FLEET_NODES, BUDGET)
        .map_err(|e| format!("fleet join: {e}"))?;
    let sources: Vec<Vec<&String>> = files
        .parts
        .iter()
        .map(|part| part.iter().map(|&l| &prep.live.lines[l]).collect())
        .collect();
    // Round-robin over the sources, as `monilog router` routes.
    let mut blocked = Duration::ZERO;
    let mut retention = 0u64;
    let start = Instant::now();
    let longest = sources.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (s, lines) in sources.iter().enumerate() {
            let Some(line) = lines.get(i) else { continue };
            let call = Instant::now();
            router
                .route_line(SourceId(ROUTER_SOURCE_BASE + s as u16), line.as_bytes())
                .map_err(|e| format!("route: {e}"))?;
            let took = call.elapsed();
            if took > ROUTE_BLOCKED {
                blocked += took;
            }
        }
        if i % 1024 == 0 {
            retention = retention.max(procs::dir_bytes(&buffers));
        }
    }
    let routing = start.elapsed();
    let stats = router
        .finish(BUDGET)
        .map_err(|e| format!("router finish: {e}"))?;
    retention = retention.max(procs::dir_bytes(&buffers));
    router.shutdown();
    let (fin_missed, _) = reap_nodes(&mut nodes)?;
    let mut per_node = Vec::new();
    let mut got = BTreeSet::new();
    for (i, state) in states.iter().enumerate() {
        got.extend(
            jsonl_keys(&state.join("anomalies.jsonl"))?
                .iter()
                .map(Report::key),
        );
        let text = read(&ctx.work.join(format!("node-{i}.out")))?;
        per_node.push(count_after(&text, "monitored ") as f64);
    }
    let mean = per_node.iter().sum::<f64>() / per_node.len() as f64;
    let c = &mut out.counters;
    c.insert(
        "cluster.route_blocked_ratio",
        blocked.as_secs_f64() / routing.as_secs_f64(),
    );
    c.insert(
        "cluster.partition_skew",
        per_node.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );
    c.insert("cluster.retention_bytes", retention as f64);
    c.insert("cluster.fin_missed", fin_missed as f64);
    let (expected, got) = fleet_expectation(&reference, &closed, fin_missed, got);
    out.compare(
        prep.live.len(),
        stats.lines_routed as usize,
        &expected,
        &got,
    );
    Ok(())
}

/// The counters only the real processes have, from one untimed run of the
/// workload's processes (traced pass). `hdfs-file` has none.
pub fn process_counters(
    workload: &str,
    ctx: &Ctx,
    prep: &Prepared,
    fleet: Option<&FleetFiles>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match (workload, fleet) {
        ("hdfs-syslog", _) => {
            let reference = reference(ctx, &prep.live_path, &prep.model, &prep.live.ts_ms)?;
            let plan = SyslogPlan::new(prep, &reference);
            syslog_trial(ctx, prep, &plan, true, &mut out)?;
        }
        ("cloud-tail", _) => {
            let reference = reference(ctx, &prep.live_path, &prep.model, &prep.live.ts_ms)?;
            let expected = key_set(&stream_closed(&reference, &prep.live.ts_ms));
            tail_trial(ctx, prep, &expected, true, &mut out)?;
        }
        ("hdfs-fleet", Some(files)) => bench_router_trial(ctx, prep, files, &mut out)?,
        _ => {}
    }
    if workload != "hdfs-syslog" {
        let late = generator_check(&prep.live.lines)?;
        out.counters.insert("bench.gen_late_p99_ms", late);
    }
    Ok(out)
}

/// The generator's own schedule-keeping: one second of lines paced at the
/// `hdfs-syslog` rate into a socket the bench drains itself. Workloads
/// without a paced phase report this as `bench.gen_late_p99_ms`.
fn generator_check(lines: &[String]) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let drain = std::thread::spawn(move || {
        if let Ok((mut conn, _)) = listener.accept() {
            let _ = std::io::copy(&mut conn, &mut std::io::sink());
        }
    });
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let n = lines.len().min(PACED_RATE as usize);
    let (_, late) = paced_send(&mut conn, &lines[..n], PACED_RATE)?;
    drop(conn);
    drain
        .join()
        .map_err(|_| "generator check drain thread panicked".to_string())?;
    Ok(stats::percentile(&late, 99.0))
}
