//! # monilog-stream
//!
//! The distributed streaming substrate of MoniLog (Section II: "It is
//! important for MoniLog components to be distributable in order to ensure
//! scalability").
//!
//! - [`merge`] — k-way merging of per-source streams with a bounded
//!   reorder buffer, absorbing the transport noise of Section I ("logs can
//!   arrive in mixed order or sometimes be duplicated"): watermark-based
//!   release plus duplicate suppression by `(source, seq)`.
//! - [`cluster`] — the fleet: a router that partitions sources across
//!   `monitor --join` nodes over a CRC-framed wire, with heartbeats,
//!   journaled replay and rebalancing. This is the scale-out path; parsing
//!   inside one monitor stays sequential.
//! - [`chaos`] — deterministic fault injection at the network edges
//!   (flaky sinks, hostile source clients, a lossy fleet link) for the
//!   delivery, sources and cluster gates.
//! - [`config`] — the overload-policy vocabulary shared with the CLI and
//!   the delivery retry schedule.
//! - [`durable`] — the write-ahead ingest journal, atomic generational
//!   checkpoints, the persistent dead-letter log, and shutdown
//!   signalling: crash recovery across process restarts.
//! - [`metrics`] — cheap shared counters for pipeline observability.
//! - [`observe`] — stage latency histograms and the typed
//!   [`observe::MetricsSnapshot`] with Prometheus/JSON renderings.
//! - [`export`] — the periodic exporter thread serving snapshots over a
//!   minimal blocking HTTP endpoint.
//! - [`ops`] — the live operations surface on the same listener: the
//!   queryable anomaly report store (`/reports`), the `/status` health
//!   rollup and `/readyz` gate, and hot config reload (`POST /config`,
//!   SIGHUP) through a versioned atomic-swap snapshot.
//! - [`sinks`] — at-least-once anomaly delivery: HTTP/TCP/file sinks
//!   behind a disk-buffered [`sinks::DeliveryPipeline`] with capped
//!   backoff, per-sink circuit breakers and spill-file degradation.
//! - [`net`] — the minimal epoll-based event loop shared by every network
//!   endpoint (ingest sources and the metrics exporter).
//! - [`sources`] — network ingestion: TCP/UDP syslog (RFC 3164/5424,
//!   LF and octet-counting framing), HTTP bulk ingest, and checkpointed
//!   file tailing, all with backpressure into the bounded ingest queue.

pub mod chaos;
pub mod cluster;
pub mod config;
pub mod durable;
pub mod export;
pub mod merge;
pub mod metrics;
pub mod net;
pub mod observe;
pub mod ops;
pub mod sinks;
pub mod sources;
pub mod trace;

pub use chaos::{FlakyLinkProxy, FlakySourceClient, SourceChaosStats, SourceFault};
pub use cluster::{
    is_router_source, rendezvous_owner, ClusterMailbox, LinkSnapshot, LinkState, Router,
    RouterConfig, RouterLinkConfig, RouterStats, ROUTER_SOURCE_BASE,
};
pub use config::{OverloadPolicy, RetryPolicy};
pub use durable::{
    install_reload_handler, install_shutdown_handler, shutdown_requested, take_reload_request,
    CheckpointStore, DeadLetter, DeadLetterLog, DurabilityError, FailureReason, Journal,
    JournalConfig, LoadedCheckpoint,
};
pub use export::MetricsExporter;
pub use merge::{BoundedReorderBuffer, DedupFilter};
pub use metrics::PipelineMetrics;
pub use net::{AsLoopFd, EventLoop, Handler, Interest, LoopCtx, Next, Waker};
pub use observe::{
    Exemplar, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot, RateSnapshot,
    SizeHistogram, SizeSnapshot, Stage, StageSnapshot,
};
pub use ops::{
    ConfigSnapshot, OpsState, ReloadableConfig, ReportStore, ReportsQuery, StatusBoard,
    StatusInputs, StatusLevel, StoredReport, DEFAULT_LATENCY_BUDGET_MS, DEFAULT_REPORT_CAPACITY,
    RELOADABLE_KEYS,
};
pub use sinks::{
    BreakerConfig, BreakerState, BufferPosition, BufferedReport, CircuitBreaker, DeliveryBuffer,
    DeliveryConfig, DeliveryPipeline, DeliveryWorker, FileSink, FramedTcpSink, RouteSpec, Sink,
    SinkError, WebhookSink,
};
pub use sources::{
    FrameDecoder, FrameError, GlobResume, MetricsEndpoint, SourceEvent, SourceQueue, SourcesConfig,
    SourcesServer, SyslogMessage, TailCursor, TailGlobSpec, TailSpec, HTTP_SOURCE,
    SYSLOG_TCP_SOURCE, SYSLOG_UDP_SOURCE, TAIL_SOURCE_BASE,
};
pub use trace::{
    SpanRecord, SpanStage, TraceConfig, Tracer, DEFAULT_FLIGHT_CAPACITY, DEFAULT_SAMPLE_RATE,
};
