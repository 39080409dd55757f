//! The traced pass: per-layer metrics, timed from the bench around calls
//! into each layer's public functions.
//!
//! The bench composes the monitor pipeline (dedup → header → reorder →
//! parse → window → detect → classify) from public calls, on the exact
//! parser, detector and window assembler the binary restores: it decodes
//! `MoniLog::export_durable_state` of the restored checkpoint through
//! `Drain::import_state`, `DeepLog::load` and
//! `WindowAssembler::import_state`. It records one span per layer call,
//! keeps the spans in memory, computes each layer's self time from them,
//! and writes them out at the end. Its report set must equal the
//! reference, or its numbers would describe another program.
//!
//! Layers on the binary's I/O path (sources, WAL, sinks, cluster wire) are
//! timed on the workload's lines through their own public functions, and
//! one run of the real processes supplies the counters only they have.

use crate::corpus::Corpus;
use crate::keys::{self, Diff, FILE_SEQ_BASE};
use crate::procs;
use crate::stats;
use crate::workloads::{self, Ctx, Outcome};
use monilog_core::classify::AnomalyClassifier;
use monilog_core::detect::{DeepLog, DeepLogConfig, Detector};
use monilog_core::model::{
    extract_structured, parse_header, AnomalyKind, AnomalyReport, Decoder, EventId, HeaderFormat,
    LogEvent, LogRecord, Provenance, RawLog, SessionKey, SourceId, Timestamp,
};
use monilog_core::parse::{Drain, OnlineParser};
use monilog_core::stream::cluster::{encode_frame, BatchEntry, Message};
use monilog_core::stream::sinks::{encode_report_payload, write_frame};
use monilog_core::stream::sources::parse_syslog;
use monilog_core::stream::{
    BoundedReorderBuffer, BufferedReport, DedupFilter, FrameDecoder, Journal, JournalConfig,
};
use monilog_core::windowing::{ClosedWindow, WindowAssembler};
use monilog_core::{DetectorChoice, MoniLog, MoniLogConfig, WindowPolicy};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Layers with spans, in span-id order. `line` is the per-line root span;
/// its self time is the composed pipeline's own, unattributed, time.
const LAYERS: [&str; 6] = ["line", "ingest", "parse", "windowing", "detect", "classify"];
const LINE: u8 = 0;
const INGEST: u8 = 1;
const PARSE: u8 = 2;
const WINDOWING: u8 = 3;
const DETECT: u8 = 4;
const CLASSIFY: u8 = 5;
const NO_PARENT: u32 = u32::MAX;

/// Lines per journal group in the fsync timing loop, and its budget.
const SYNC_GROUP_LINES: usize = 256;
const SYNC_SAMPLES: usize = 1_000;
const SYNC_BUDGET: Duration = Duration::from_secs(3);

/// What the traced run prints: the per-layer metrics and the correctness
/// of the composed pipeline against the reference.
pub struct Traced {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub record: String,
}

/// One span: a layer call for one line (`id` = line) or one window
/// (`id` = window ordinal).
#[derive(Clone, Copy)]
struct Span {
    id: u64,
    layer: u8,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index.
    fn record(&mut self, id: u64, layer: u8, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            id,
            layer,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Self time per layer (ns): each span's duration minus its children's.
    fn self_ns(&self) -> [u64; LAYERS.len()] {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = [0u64; LAYERS.len()];
        for (s, c) in self.spans.iter().zip(&child) {
            out[s.layer as usize] += (s.end_ns - s.start_ns).saturating_sub(*c);
        }
        out
    }

    /// Write every span as `id,layer,parent,start_ns,end_ns`.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id,layer,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                f,
                "{},{},{parent},{},{}",
                s.id, LAYERS[s.layer as usize], s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// The pipeline configuration the `monilog` CLI runs with.
fn cli_config() -> MoniLogConfig {
    MoniLogConfig {
        window: WindowPolicy::Session {
            idle_ms: keys::IDLE_MS,
            max_events: keys::MAX_EVENTS,
        },
        detector: DetectorChoice::DeepLog(DeepLogConfig {
            history: 8,
            top_g: 3,
            epochs: 3,
            ..DeepLogConfig::default()
        }),
        ..MoniLogConfig::default()
    }
}

/// Counters the composed pipeline keeps at the layer boundaries.
#[derive(Default)]
struct Counts {
    lines: u64,
    parses: u64,
    cache_hits: u64,
    windows: u64,
    open_max: usize,
    flagged: u64,
    detect_ms: Vec<f64>,
    classify_us: Vec<f64>,
    templates: usize,
}

/// The monitor pipeline composed from public calls.
struct Composed {
    config: MoniLogConfig,
    dedup: DedupFilter,
    reorder: BoundedReorderBuffer<LogRecord>,
    parser: Drain,
    assembler: WindowAssembler,
    detector: DeepLog,
    classifier: AnomalyClassifier,
    next_event_id: u64,
    next_report_id: u64,
    reports: Vec<AnomalyReport>,
}

impl Composed {
    /// The parser, detector and assembler exactly as the binary restores
    /// them from `model`.
    fn restore(config: MoniLogConfig, model: &[u8]) -> Result<Composed, String> {
        let restored = MoniLog::restore(config, model).map_err(|e| format!("restore: {e}"))?;
        let state = restored.export_durable_state()?;
        let err = |e: monilog_core::model::CodecError| e.to_string();
        let mut d = Decoder::new(&state);
        d.expect_header(*b"MLDS", 1).map_err(err)?;
        let parser =
            Drain::import_state(config.drain, &d.get_bytes().map_err(err)?).map_err(err)?;
        if d.get_u8().map_err(err)? != 0 {
            return Err("the checkpoint's detector is not DeepLog".to_string());
        }
        let detector = DeepLog::load(&d.get_bytes().map_err(err)?).map_err(err)?;
        let assembler = WindowAssembler::import_state(config.window, &d.get_bytes().map_err(err)?)
            .map_err(err)?;
        Ok(Composed {
            config,
            dedup: DedupFilter::new(config.dedup_window),
            reorder: BoundedReorderBuffer::new(config.reorder_bound_ms),
            parser,
            assembler,
            detector,
            classifier: AnomalyClassifier::new(),
            next_event_id: 0,
            next_report_id: 0,
            reports: Vec::new(),
        })
    }

    /// One line through every layer, under a `line` root span.
    fn ingest(&mut self, raw: &RawLog, tr: &mut Spans, n: &mut Counts) {
        let id = n.lines;
        n.lines += 1;
        let root = tr.record(id, LINE, NO_PARENT, tr.now(), 0);
        let t0 = tr.now();
        let mut released = Vec::new();
        if self.dedup.admit(raw.source, raw.seq) {
            if let Ok(record) = parse_header(raw, &HeaderFormat::DashSeparated, Timestamp::EPOCH) {
                self.reorder
                    .push_into(record.header.timestamp, record, &mut released);
            }
        }
        tr.record(id, INGEST, root, t0, tr.now());
        for (_, record) in released {
            self.event(record, id, root, tr, n);
        }
        tr.spans[root as usize].end_ns = tr.now();
    }

    /// Parse one released record and push it into the window assembler.
    fn event(&mut self, record: LogRecord, id: u64, root: u32, tr: &mut Spans, n: &mut Counts) {
        let t0 = tr.now();
        let (text, payload) = if self.config.extract_payloads {
            extract_structured(&record.message)
        } else {
            (
                std::borrow::Cow::Borrowed(record.message.as_str()),
                Default::default(),
            )
        };
        let outcome = self.parser.parse(&text);
        n.parses += 1;
        n.cache_hits += u64::from(self.parser.last_parse_cache_hit());
        let mut variables = outcome.variables;
        variables.extend(payload.fields.into_iter().map(|(_, v)| v));
        let session = derive_session(&variables);
        let event = LogEvent::new(
            EventId(self.next_event_id),
            record.header.timestamp,
            record.source,
            record.header.level,
            outcome.template,
            variables,
            session,
        );
        self.next_event_id += 1;
        let t1 = tr.now();
        tr.record(id, PARSE, root, t0, t1);
        let closed = self.assembler.push(event);
        n.open_max = n.open_max.max(self.assembler.open_count());
        tr.record(id, WINDOWING, root, t1, tr.now());
        self.detect(closed, root, tr, n);
    }

    /// Detect and classify closed windows as `MoniLog` does.
    fn detect(&mut self, closed: Vec<ClosedWindow>, root: u32, tr: &mut Spans, n: &mut Counts) {
        if closed.is_empty() {
            return;
        }
        self.detector.update_templates(self.parser.store());
        for c in closed {
            let wid = n.windows;
            n.windows += 1;
            let t0 = tr.now();
            let start = Instant::now();
            if !self.detector.predict(&c.window) {
                tr.record(wid, DETECT, root, t0, tr.now());
                n.detect_ms.push(start.elapsed().as_secs_f64() * 1e3);
                continue;
            }
            n.flagged += 1;
            let (seq, quant) = self.detector.violation_breakdown(&c.window);
            let kind = if quant > 0 && seq == 0 {
                AnomalyKind::Quantitative
            } else {
                AnomalyKind::Sequential
            };
            let score = self.detector.score(&c.window);
            let provenance = Provenance {
                trace_ids: Vec::new(),
                template_ids: {
                    let mut ids: Vec<u32> = c.events.iter().map(|e| e.template.0).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    ids
                },
                window: c
                    .events
                    .first()
                    .zip(c.events.last())
                    .map(|(a, b)| (a.timestamp, b.timestamp)),
                score_components: self.detector.score_components(&c.window),
            };
            let t1 = tr.now();
            tr.record(wid, DETECT, root, t0, t1);
            n.detect_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let report = AnomalyReport {
                id: self.next_report_id,
                kind,
                score,
                detector: self.detector.name().to_string(),
                explanation: format!(
                    "{} flagged a {}-event window with score {score:.3}",
                    self.detector.name(),
                    c.events.len()
                ),
                events: c.events,
                provenance,
            };
            self.next_report_id += 1;
            let start = Instant::now();
            let t2 = tr.now();
            let _assignment = self.classifier.classify(&report);
            tr.record(wid, CLASSIFY, root, t2, tr.now());
            n.classify_us.push(start.elapsed().as_secs_f64() * 1e6);
            self.reports.push(report);
        }
    }

    /// End of stream: release the reorder buffer, flush open windows.
    fn flush(&mut self, tr: &mut Spans, n: &mut Counts) {
        let id = n.lines;
        let root = tr.record(id, LINE, NO_PARENT, tr.now(), 0);
        for (_, record) in self.reorder.flush() {
            self.event(record, id, root, tr, n);
        }
        let closed = self.assembler.flush();
        self.detect(closed, root, tr, n);
        tr.spans[root as usize].end_ns = tr.now();
        n.templates = self.parser.store().len();
    }
}

/// The pipeline's session-key rule: the first variable shaped like
/// `word_1234`.
fn derive_session(variables: &[String]) -> Option<SessionKey> {
    variables
        .iter()
        .find(|v| match v.split_once('_') {
            Some((prefix, digits)) => {
                !prefix.is_empty()
                    && prefix.bytes().all(|b| b.is_ascii_alphanumeric())
                    && prefix.bytes().any(|b| b.is_ascii_alphabetic())
                    && !digits.is_empty()
                    && digits.bytes().all(|b| b.is_ascii_digit())
            }
            None => false,
        })
        .map(|v| SessionKey(v.clone()))
}

fn raw_lines(lines: &[String]) -> Vec<RawLog> {
    lines
        .iter()
        .enumerate()
        .map(|(i, l)| RawLog::new(SourceId(0), FILE_SEQ_BASE + i as u64, l.as_str()))
        .collect()
}

/// Untraced `MoniLog::ingest` over `streams`; returns the wall time and
/// the end-state pipelines (for the checkpoint timing).
fn untraced_core(model: &[u8], streams: &[Vec<RawLog>]) -> Result<(f64, Vec<MoniLog>), String> {
    let mut pipelines = Vec::new();
    let mut wall = 0.0;
    for raws in streams {
        let mut m = MoniLog::restore(cli_config(), model).map_err(|e| format!("restore: {e}"))?;
        let start = Instant::now();
        let mut reports = 0usize;
        for raw in raws {
            reports += m.ingest(raw).len();
        }
        reports += m.flush().len();
        wall += start.elapsed().as_secs_f64();
        std::hint::black_box(reports);
        pipelines.push(m);
    }
    Ok((wall, pipelines))
}

pub fn run(workload: &str, ctx: &Ctx) -> Result<Traced, String> {
    let mut out = Outcome::default();
    let prep = workloads::prepare(workload, ctx, &mut out)?;
    let model = std::fs::read(&prep.model).map_err(|e| format!("read model: {e}"))?;
    let mut m: Vec<(&'static str, f64, &'static str)> = Vec::new();

    // The streams the binary ingests and their references: the whole
    // corpus, or one stream per fleet source file.
    let (streams, references, fleet) = if workload == "hdfs-fleet" {
        let files = workloads::fleet_files(ctx, &prep.live)?;
        let mut streams = Vec::new();
        let mut refs = Vec::new();
        for (path, part) in files.paths.iter().zip(&files.parts) {
            let lines: Vec<String> = part.iter().map(|&l| prep.live.lines[l].clone()).collect();
            let ts: Vec<u64> = part.iter().map(|&l| prep.live.ts_ms[l]).collect();
            refs.push(workloads::reference(ctx, path, &prep.model, &ts)?);
            streams.push(lines);
        }
        (streams, refs, Some(files))
    } else {
        let r = workloads::reference(ctx, &prep.live_path, &prep.model, &prep.live.ts_ms)?;
        (vec![prep.live.lines.clone()], vec![r], None)
    };
    let raws: Vec<Vec<RawLog>> = streams.iter().map(|s| raw_lines(s)).collect();
    let n_lines: usize = raws.iter().map(Vec::len).sum();

    // Traced pass of the composed pipeline.
    let mut tr = Spans {
        epoch: Instant::now(),
        spans: Vec::with_capacity(n_lines * 4),
    };
    let mut counts = Counts::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut composed_reports = Vec::new();
    let mut traced_wall = 0.0;
    for (stream, reference) in raws.iter().zip(&references) {
        let mut d = Composed::restore(cli_config(), &model)?;
        let start = Instant::now();
        for raw in stream {
            d.ingest(raw, &mut tr, &mut counts);
        }
        d.flush(&mut tr, &mut counts);
        traced_wall += start.elapsed().as_secs_f64();
        let want: BTreeSet<String> = reference.iter().map(keys::Report::key).collect();
        let got: BTreeSet<String> = d
            .reports
            .iter()
            .filter_map(|r| keys::parse_json_report(&r.to_json()))
            .map(|r| r.key())
            .collect();
        let diff = Diff::between(&want, &got);
        attempted += (stream.len() + want.len()) as u64;
        failed += diff.count() as u64;
        for k in diff.missing.iter().take(10) {
            println!("diverging: composed pipeline missing {k}");
        }
        for k in diff.extra.iter().take(10) {
            println!("diverging: composed pipeline extra {k}");
        }
        composed_reports.append(&mut d.reports);
    }
    let self_ns = tr.self_ns();
    let spans_path = ctx
        .work
        .parent()
        .unwrap_or(&ctx.work)
        .join(format!("spans-{workload}.csv"));
    tr.write(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!(
        "spans: {} written to {}",
        tr.spans.len(),
        spans_path.display()
    );
    drop(tr);

    let per_line = |layer: u8| self_ns[layer as usize] as f64 / n_lines as f64;
    m.push(("ingest.ns_per_line", per_line(INGEST), "ns"));
    m.push(("parse.ns_per_line", per_line(PARSE), "ns"));
    m.push((
        "parse.cache_hit_ratio",
        counts.cache_hits as f64 / counts.parses.max(1) as f64,
        "ratio",
    ));
    m.push(("parse.templates", counts.templates as f64, "count"));
    m.push(("windowing.ns_per_line", per_line(WINDOWING), "ns"));
    m.push(("windowing.windows", counts.windows as f64, "count"));
    m.push(("windowing.open_max", counts.open_max as f64, "count"));
    let pct = |v: &[f64], p: f64| {
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(v, p)
        }
    };
    m.push((
        "detect.ms_per_window_p50",
        pct(&counts.detect_ms, 50.0),
        "ms",
    ));
    m.push((
        "detect.ms_per_window_p99",
        pct(&counts.detect_ms, 99.0),
        "ms",
    ));
    println!(
        "detect per window: {}",
        if counts.detect_ms.is_empty() {
            "no windows".to_string()
        } else {
            stats::summarise(&counts.detect_ms).describe("ms")
        }
    );
    m.push((
        "detect.flagged_ratio",
        counts.flagged as f64 / counts.windows.max(1) as f64,
        "ratio",
    ));
    m.push((
        "classify.us_per_report",
        if counts.classify_us.is_empty() {
            0.0
        } else {
            stats::median(&counts.classify_us)
        },
        "us",
    ));

    // Untraced core loop, and the checkpoint of its end state.
    let (untraced_wall, pipelines) = untraced_core(&model, &raws)?;
    m.push((
        "core.lines_per_s",
        n_lines as f64 / untraced_wall,
        "lines/s",
    ));
    let attributed: u64 = self_ns[1..].iter().sum();
    m.push((
        "core.unattributed_ratio",
        1.0 - attributed as f64 / 1e9 / traced_wall,
        "ratio",
    ));
    m.push((
        "core.trace_overhead_ratio",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    ));
    let mut ckpt_ms = 0.0;
    let mut state_bytes = 0usize;
    for p in &pipelines {
        let start = Instant::now();
        let state = p.export_durable_state()?;
        ckpt_ms += start.elapsed().as_secs_f64() * 1e3;
        state_bytes += state.len();
    }
    m.push(("durable.checkpoint_ms", ckpt_ms, "ms"));
    m.push(("durable.state_bytes", state_bytes as f64, "bytes"));

    // I/O layers on the workload's lines.
    m.extend(sources_decode(&prep.live.lines)?);
    m.extend(journal(ctx, &model, &raws)?);
    m.push(("sinks.ns_per_report", sink_encode(&composed_reports), "ns"));
    m.push((
        "cluster.wire_bytes_per_line",
        wire_bytes(&prep.live),
        "bytes",
    ));

    // Counters only the real processes have.
    let live = workloads::process_counters(workload, ctx, &prep, fleet.as_ref())?;
    for name in [
        "sources.queue_depth_max",
        "sinks.retries",
        "sinks.duplicates",
        "cluster.route_blocked_ratio",
        "cluster.partition_skew",
        "cluster.retention_bytes",
        "cluster.fin_missed",
        "bench.gen_late_p99_ms",
    ] {
        let unit = match name {
            "cluster.route_blocked_ratio" | "cluster.partition_skew" => "ratio",
            "cluster.retention_bytes" => "bytes",
            "bench.gen_late_p99_ms" => "ms",
            _ => "count",
        };
        m.push((name, live.counters.get(name).copied().unwrap_or(0.0), unit));
    }
    attempted += live.attempted;
    failed += live.failed;
    for d in live.diverging.iter().take(20) {
        println!("diverging: {d}");
    }

    m.sort_by(|a, b| a.0.cmp(b.0));
    let values: Vec<String> = m
        .iter()
        .map(|(name, v, _)| {
            format!(
                "\"{name}\":{}",
                if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "0".into()
                }
            )
        })
        .collect();
    let record = format!(
        "{{\"corpus_lines\":{{\"train\":{},\"live\":{}}},\"per_layer\":{{{}}},\
         \"attempted\":{attempted},\"failed\":{failed}}}",
        prep.train.len(),
        prep.live.len(),
        values.join(",")
    );
    Ok(Traced {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        record,
    })
}

/// `FrameDecoder::drain` + `parse_syslog` over the lines framed as the
/// `hdfs-syslog` generator frames them.
fn sources_decode(lines: &[String]) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut wire = Vec::new();
    for l in lines {
        workloads::syslog_frame(l, &mut wire);
    }
    let mut decoder = FrameDecoder::new(64 * 1024);
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut frames = Vec::new();
    let mut decoded = 0usize;
    let start = Instant::now();
    for chunk in wire.chunks(64 * 1024) {
        buf.extend_from_slice(chunk);
        decoder
            .drain(&mut buf, &mut frames)
            .map_err(|e| format!("frame decode: {e}"))?;
        for f in frames.drain(..) {
            decoded += std::hint::black_box(parse_syslog(&f, 2020))
                .msg
                .len()
                .min(1);
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    if decoded != lines.len() {
        return Err(format!(
            "decoded {decoded} of {} syslog frames",
            lines.len()
        ));
    }
    Ok(vec![(
        "sources.decode_ns_per_line",
        ns / lines.len() as f64,
        "ns",
    )])
}

/// WAL write and read side: `Journal::append` per line, `Journal::sync`
/// at the default group commit over groups of lines, and
/// `Journal::replay_after` plus re-apply of the whole journal.
fn journal(
    ctx: &Ctx,
    model: &[u8],
    streams: &[Vec<RawLog>],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let dir = procs::fresh_dir(ctx.work.join("journal"))?;
    let err = |e: monilog_core::stream::DurabilityError| e.to_string();
    let mut j = Journal::open(&dir, JournalConfig::default()).map_err(err)?;
    let raws: Vec<RawLog> = streams
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, r)| RawLog::new(SourceId(0), i as u64 + 1, r.line.clone()))
        .collect();
    let mut append_ns = 0u128;
    let mut syncs = Vec::new();
    for raw in &raws {
        let start = Instant::now();
        j.append(raw).map_err(err)?;
        append_ns += start.elapsed().as_nanos();
        if j.sync_due() {
            let start = Instant::now();
            j.sync().map_err(err)?;
            syncs.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    j.sync().map_err(err)?;
    let bytes_per_line = j.appended_bytes() as f64 / raws.len() as f64;

    // Replay the journal into a restored pipeline: the restart path.
    let start = Instant::now();
    let replayed = Journal::replay_after(&dir, &[]).map_err(err)?;
    let mut m = MoniLog::restore(cli_config(), model).map_err(|e| format!("restore: {e}"))?;
    for raw in &replayed {
        std::hint::black_box(m.ingest(raw));
    }
    let replay_s = start.elapsed().as_secs_f64();
    if replayed.len() != raws.len() {
        return Err(format!(
            "replayed {} of {} journal lines",
            replayed.len(),
            raws.len()
        ));
    }

    // Group commits: a group of lines, then the fsync.
    let deadline = Instant::now() + SYNC_BUDGET;
    let mut seq = raws.len() as u64;
    while syncs.len() < SYNC_SAMPLES && Instant::now() < deadline {
        for raw in raws.iter().cycle().take(SYNC_GROUP_LINES) {
            seq += 1;
            j.append(&RawLog::new(SourceId(0), seq, raw.line.clone()))
                .map_err(err)?;
        }
        let start = Instant::now();
        j.sync().map_err(err)?;
        syncs.push(start.elapsed().as_secs_f64() * 1e3);
    }
    println!("journal fsync: {}", stats::summarise(&syncs).describe("ms"));
    drop(j);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(vec![
        (
            "durable.append_ns_per_line",
            append_ns as f64 / raws.len() as f64,
            "ns",
        ),
        ("durable.bytes_per_line", bytes_per_line, "bytes"),
        ("durable.sync_ms_p50", stats::percentile(&syncs, 50.0), "ms"),
        ("durable.sync_ms_p99", stats::percentile(&syncs, 99.0), "ms"),
        (
            "durable.replay_lines_per_s",
            raws.len() as f64 / replay_s,
            "lines/s",
        ),
    ])
}

/// `AnomalyReport::to_json` + `encode_report_payload` + `write_frame`,
/// per report, as the TCP sink sends it.
fn sink_encode(reports: &[AnomalyReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    let mut wire = Vec::new();
    let start = Instant::now();
    for r in reports {
        let payload = encode_report_payload(&BufferedReport {
            id: r.id,
            class: monilog_core::model::DeliveryClass::Ticket,
            body: r.to_json(),
        });
        write_frame(&mut wire, &payload).expect("writing to a Vec cannot fail");
    }
    std::hint::black_box(&wire);
    start.elapsed().as_nanos() as f64 / reports.len() as f64
}

/// Cluster wire bytes per line: the lines sealed into the router's
/// 64-line batches and encoded as `Batch` frames.
fn wire_bytes(live: &Corpus) -> f64 {
    let mut bytes = 0usize;
    for (b, chunk) in live.lines.chunks(64).enumerate() {
        let entries = chunk
            .iter()
            .enumerate()
            .map(|(i, l)| BatchEntry {
                source: SourceId(0),
                seq: (b * 64 + i + 1) as u64,
                line: l.as_bytes().to_vec(),
            })
            .collect();
        bytes += encode_frame(&Message::Batch {
            batch_id: b as u64 + 1,
            entries,
        })
        .len();
    }
    bytes as f64 / live.len() as f64
}
