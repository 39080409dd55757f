//! Multi-source Cloud-platform workload.
//!
//! "At 3DS OUTSCALE, one system is connected to 24 different log sources and
//! generates millions of log lines each second" (Section II). This module
//! builds that shape synthetically: `n_sources` independent log sources,
//! each an execution-flow model with its own vocabulary, merged into one
//! time-ordered stream. API-facing sources append `{k=v, ...}` payloads
//! (Section IV's structured-data observation).
//!
//! It also injects the paper's motivating **cross-source anomaly**: "certain
//! patterns within storage logs are anomalous only if certain actions are
//! logged by network logs at the same time" (Section I). An *incident*
//! emits bursts of individually-normal degradation templates on a network
//! source and a storage source inside the same short window; only their
//! co-occurrence is anomalous.

use crate::flow::{FlowSpec, FlowState, FlowWorkload, StateId, Statement, Transition, WalkConfig};
use crate::truth::{GenLog, LineTruth, TruthTemplateId};
use crate::varspec::{VarKind, VarSpec};
use monilog_model::{AnomalyKind, LogHeader, LogRecord, Severity, SourceId, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Archetypes a source can instantiate. Variants of the same archetype get
/// distinct component names and truth-id ranges, so 24 sources stay 24
/// distinguishable vocabularies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceArchetype {
    ApiGateway,
    Auth,
    Scheduler,
    Network,
    Storage,
    VmManager,
    Database,
    LoadBalancer,
}

impl SourceArchetype {
    pub const ALL: [SourceArchetype; 8] = [
        SourceArchetype::ApiGateway,
        SourceArchetype::Auth,
        SourceArchetype::Scheduler,
        SourceArchetype::Network,
        SourceArchetype::Storage,
        SourceArchetype::VmManager,
        SourceArchetype::Database,
        SourceArchetype::LoadBalancer,
    ];

    fn component(self, variant: usize) -> String {
        let base = match self {
            SourceArchetype::ApiGateway => "apiGateway",
            SourceArchetype::Auth => "authService",
            SourceArchetype::Scheduler => "scheduler",
            SourceArchetype::Network => "netAgent",
            SourceArchetype::Storage => "storageNode",
            SourceArchetype::VmManager => "vmManager",
            SourceArchetype::Database => "dbProxy",
            SourceArchetype::LoadBalancer => "lbRouter",
        };
        format!("{base}{variant}")
    }
}

/// Reserve 100 truth-template ids per *archetype*. Variants of the same
/// archetype are the same software deployed on several nodes: they emit
/// byte-identical statements, so they must share truth template ids — a
/// message-level parser cannot (and should not) tell them apart.
const TRUTH_IDS_PER_ARCHETYPE: u32 = 100;

/// Build the flow for one source. `truth_base` offsets this source's
/// template ids; `json_tail` enables structured payloads on API-ish sources.
pub fn make_source_flow(
    archetype: SourceArchetype,
    variant: usize,
    truth_base: u32,
    json_tail: bool,
) -> FlowSpec {
    let component = archetype.component(variant);
    let mut states: Vec<FlowState> = Vec::new();
    let tid = |states: &Vec<FlowState>| TruthTemplateId(truth_base + states.len() as u32);

    let req = || VarSpec::new("req", VarKind::Hex { len: 8 });
    let ip = |n: &str| VarSpec::new(n, VarKind::Ip { prefix: [10, 250] });
    let ms = || VarSpec::new("ms", VarKind::DurationMs { lo: 1, hi: 800 });

    match archetype {
        SourceArchetype::ApiGateway => {
            let payload = |mut st: Statement| {
                if json_tail {
                    // API services append rich context payloads — the habit
                    // behind the paper's "almost 60% of the tokens" figure.
                    st = st.with_payload(vec![
                        VarSpec::new("user_id", VarKind::Int { lo: 1, hi: 9_999 }),
                        VarSpec::new(
                            "service_name",
                            VarKind::Word {
                                choices: vec!["compute".into(), "volumes".into(), "images".into()],
                            },
                        ),
                        VarSpec::new(
                            "region",
                            VarKind::Word {
                                choices: vec!["eu-west-2".into(), "us-east-2".into()],
                            },
                        ),
                        VarSpec::new(
                            "az",
                            VarKind::Word {
                                choices: vec!["a".into(), "b".into(), "c".into()],
                            },
                        ),
                        VarSpec::new("request_ip", VarKind::Ip { prefix: [121, 13] }),
                        VarSpec::new("latency_ms", VarKind::DurationMs { lo: 1, hi: 900 }),
                        VarSpec::new(
                            "bytes_out",
                            VarKind::Int {
                                lo: 64,
                                hi: 1_048_576,
                            },
                        ),
                        VarSpec::new("trace", VarKind::Hex { len: 12 }),
                    ]);
                }
                st
            };
            states.push(FlowState {
                statement: payload(Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Request {req} received: {method} {path} from {client}",
                    vec![
                        req(),
                        VarSpec::new(
                            "method",
                            VarKind::Word {
                                choices: vec!["GET".into(), "POST".into(), "DELETE".into()],
                            },
                        ),
                        VarSpec::new("path", VarKind::Path { depth: 3 }),
                        ip("client"),
                    ],
                )),
                transitions: vec![Transition::to(1, 0.92), Transition::to(3, 0.08)],
            });
            states.push(FlowState {
                statement: payload(Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Request {req} authorized for account {account}",
                    vec![
                        req(),
                        VarSpec::new(
                            "account",
                            VarKind::PrefixedId {
                                prefix: "acc-".into(),
                                max: 5_000,
                            },
                        ),
                    ],
                )),
                transitions: vec![Transition::to(2, 1.0)],
            });
            states.push(FlowState {
                statement: payload(Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Request {req} completed status {status} in {ms} ms",
                    vec![
                        req(),
                        VarSpec::new(
                            "status",
                            VarKind::Word {
                                choices: vec!["200".into(), "201".into(), "204".into()],
                            },
                        ),
                        ms(),
                    ],
                )),
                transitions: vec![Transition::end(1.0)],
            });
            states.push(FlowState {
                statement: payload(Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Request {req} rejected: quota exceeded for {client}",
                    vec![req(), ip("client")],
                )),
                transitions: vec![Transition::end(1.0)],
            });
        }
        SourceArchetype::Auth => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Login attempt for user {user} from {ip}",
                    vec![
                        VarSpec::new(
                            "user",
                            VarKind::PrefixedId {
                                prefix: "u".into(),
                                max: 2_000,
                            },
                        ),
                        ip("ip"),
                    ],
                ),
                transitions: vec![Transition::to(1, 0.9), Transition::to(2, 0.1)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Session {session} opened for user {user} ttl {ttl} s",
                    vec![
                        VarSpec::new("session", VarKind::Hex { len: 12 }),
                        VarSpec::new(
                            "user",
                            VarKind::PrefixedId {
                                prefix: "u".into(),
                                max: 2_000,
                            },
                        ),
                        VarSpec::new(
                            "ttl",
                            VarKind::Int {
                                lo: 300,
                                hi: 86_400,
                            },
                        ),
                    ],
                ),
                transitions: vec![Transition::to(3, 0.7), Transition::end(0.3)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Authentication failed for user {user} reason {reason}",
                    vec![
                        VarSpec::new(
                            "user",
                            VarKind::PrefixedId {
                                prefix: "u".into(),
                                max: 2_000,
                            },
                        ),
                        VarSpec::new(
                            "reason",
                            VarKind::Word {
                                choices: vec![
                                    "bad_password".into(),
                                    "expired_key".into(),
                                    "mfa_timeout".into(),
                                ],
                            },
                        ),
                    ],
                ),
                transitions: vec![Transition::end(1.0)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Token refreshed for session {session}",
                    vec![VarSpec::new("session", VarKind::Hex { len: 12 })],
                ),
                transitions: vec![Transition::to(3, 0.4), Transition::end(0.6)],
            });
        }
        SourceArchetype::Scheduler => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Job {job} submitted to queue {queue}",
                    vec![
                        VarSpec::new(
                            "job",
                            VarKind::PrefixedId {
                                prefix: "job-".into(),
                                max: 100_000,
                            },
                        ),
                        VarSpec::new(
                            "queue",
                            VarKind::Word {
                                choices: vec!["default".into(), "batch".into(), "gpu".into()],
                            },
                        ),
                    ],
                ),
                transitions: vec![Transition::to(1, 1.0)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Job {job} scheduled on node {node} after {ms} ms",
                    vec![
                        VarSpec::new(
                            "job",
                            VarKind::PrefixedId {
                                prefix: "job-".into(),
                                max: 100_000,
                            },
                        ),
                        VarSpec::new(
                            "node",
                            VarKind::PrefixedId {
                                prefix: "node".into(),
                                max: 512,
                            },
                        ),
                        ms(),
                    ],
                ),
                transitions: vec![Transition::to(2, 0.95), Transition::to(3, 0.05)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Job {job} finished exit {code} runtime {ms} ms",
                    vec![
                        VarSpec::new(
                            "job",
                            VarKind::PrefixedId {
                                prefix: "job-".into(),
                                max: 100_000,
                            },
                        ),
                        VarSpec::new("code", VarKind::Int { lo: 0, hi: 0 }),
                        ms(),
                    ],
                ),
                transitions: vec![Transition::end(1.0)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Error,
                    "Job {job} evicted from node {node}: resources reclaimed",
                    vec![
                        VarSpec::new(
                            "job",
                            VarKind::PrefixedId {
                                prefix: "job-".into(),
                                max: 100_000,
                            },
                        ),
                        VarSpec::new(
                            "node",
                            VarKind::PrefixedId {
                                prefix: "node".into(),
                                max: 512,
                            },
                        ),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.5), Transition::end(0.5)],
            });
        }
        SourceArchetype::Network => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Sending {bytes} bytes src: {src} dest: /{dest}",
                    vec![
                        VarSpec::new("bytes", VarKind::Int { lo: 64, hi: 65_536 }),
                        ip("src"),
                        ip("dest"),
                    ],
                ),
                transitions: vec![
                    Transition::to(1, 0.9),
                    Transition::to(2, 0.07),
                    Transition::to(3, 0.03),
                ],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Received {bytes} bytes on interface {iface} rtt {ms} ms",
                    vec![
                        VarSpec::new("bytes", VarKind::Int { lo: 64, hi: 65_536 }),
                        VarSpec::new(
                            "iface",
                            VarKind::Word {
                                choices: vec!["eth0".into(), "eth1".into(), "bond0".into()],
                            },
                        ),
                        ms(),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.6), Transition::end(0.4)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Retransmission to {dest} attempt {attempt}",
                    vec![
                        ip("dest"),
                        VarSpec::new("attempt", VarKind::Int { lo: 1, hi: 3 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.8), Transition::end(0.2)],
            });
            // State 3: the *incident participant* — rare but normal alone.
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Link saturation on {iface} utilization {pct} pct",
                    vec![
                        VarSpec::new(
                            "iface",
                            VarKind::Word {
                                choices: vec!["eth0".into(), "eth1".into(), "bond0".into()],
                            },
                        ),
                        VarSpec::new("pct", VarKind::Int { lo: 80, hi: 99 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 1.0)],
            });
        }
        SourceArchetype::Storage => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Volume {vol} write {bytes} bytes latency {ms} ms",
                    vec![
                        VarSpec::new(
                            "vol",
                            VarKind::PrefixedId {
                                prefix: "vol-".into(),
                                max: 20_000,
                            },
                        ),
                        VarSpec::new(
                            "bytes",
                            VarKind::Int {
                                lo: 512,
                                hi: 1_048_576,
                            },
                        ),
                        ms(),
                    ],
                ),
                transitions: vec![
                    Transition::to(1, 0.9),
                    Transition::to(2, 0.07),
                    Transition::to(3, 0.03),
                ],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Volume {vol} flush completed segments {segs}",
                    vec![
                        VarSpec::new(
                            "vol",
                            VarKind::PrefixedId {
                                prefix: "vol-".into(),
                                max: 20_000,
                            },
                        ),
                        VarSpec::new("segs", VarKind::Int { lo: 1, hi: 64 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.5), Transition::end(0.5)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Volume {vol} scrub found {errs} soft errors",
                    vec![
                        VarSpec::new(
                            "vol",
                            VarKind::PrefixedId {
                                prefix: "vol-".into(),
                                max: 20_000,
                            },
                        ),
                        VarSpec::new("errs", VarKind::Int { lo: 0, hi: 3 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 1.0)],
            });
            // State 3: the storage-side incident participant.
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Slow flush on volume {vol} queue depth {depth}",
                    vec![
                        VarSpec::new(
                            "vol",
                            VarKind::PrefixedId {
                                prefix: "vol-".into(),
                                max: 20_000,
                            },
                        ),
                        VarSpec::new("depth", VarKind::Int { lo: 10, hi: 200 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 1.0)],
            });
        }
        SourceArchetype::VmManager => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "New process started: process {proc} started on port {port}",
                    vec![
                        VarSpec::new(
                            "proc",
                            VarKind::PrefixedId {
                                prefix: "x".into(),
                                max: 1_000,
                            },
                        ),
                        VarSpec::new(
                            "port",
                            VarKind::Port {
                                usual: vec![42, 80, 443, 8080, 9000],
                            },
                        ),
                    ],
                ),
                transitions: vec![Transition::to(1, 1.0)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Instance {vm} state changed to {state}",
                    vec![
                        VarSpec::new(
                            "vm",
                            VarKind::PrefixedId {
                                prefix: "i-".into(),
                                max: 50_000,
                            },
                        ),
                        VarSpec::new(
                            "state",
                            VarKind::Word {
                                choices: vec![
                                    "running".into(),
                                    "stopping".into(),
                                    "stopped".into(),
                                ],
                            },
                        ),
                    ],
                ),
                transitions: vec![
                    Transition::to(1, 0.5),
                    Transition::to(2, 0.3),
                    Transition::end(0.2),
                ],
            });
            states.push(FlowState {
                statement: {
                    let heartbeat = Statement::from_pattern(
                        tid(&states),
                        Severity::Info,
                        "Instance {vm} heartbeat cpu {cpu} pct mem {mem} MiB",
                        vec![
                            VarSpec::new(
                                "vm",
                                VarKind::PrefixedId {
                                    prefix: "i-".into(),
                                    max: 50_000,
                                },
                            ),
                            VarSpec::new("cpu", VarKind::Int { lo: 0, hi: 100 }),
                            VarSpec::new(
                                "mem",
                                VarKind::Int {
                                    lo: 128,
                                    hi: 65_536,
                                },
                            ),
                        ],
                    );
                    if json_tail {
                        // The other structured dialect the paper names: XML.
                        heartbeat.with_xml_payload(vec![
                            VarSpec::new(
                                "az",
                                VarKind::Word {
                                    choices: vec!["a".into(), "b".into(), "c".into()],
                                },
                            ),
                            VarSpec::new(
                                "host",
                                VarKind::PrefixedId {
                                    prefix: "hv".into(),
                                    max: 256,
                                },
                            ),
                        ])
                    } else {
                        heartbeat
                    }
                },
                transitions: vec![Transition::to(2, 0.6), Transition::end(0.4)],
            });
        }
        SourceArchetype::Database => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Query {qid} planned in {ms} ms rows {rows}",
                    vec![
                        VarSpec::new("qid", VarKind::Hex { len: 6 }),
                        ms(),
                        VarSpec::new("rows", VarKind::Int { lo: 0, hi: 100_000 }),
                    ],
                ),
                transitions: vec![Transition::to(1, 0.95), Transition::to(2, 0.05)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Transaction {txn} committed wal {bytes} bytes",
                    vec![
                        VarSpec::new("txn", VarKind::Hex { len: 8 }),
                        VarSpec::new(
                            "bytes",
                            VarKind::Int {
                                lo: 100,
                                hi: 500_000,
                            },
                        ),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.7), Transition::end(0.3)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Warning,
                    "Deadlock detected between {a} and {b} victim {a}",
                    vec![
                        VarSpec::new("a", VarKind::Hex { len: 8 }),
                        VarSpec::new("b", VarKind::Hex { len: 8 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 1.0)],
            });
        }
        SourceArchetype::LoadBalancer => {
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Forwarded connection {conn} to backend {backend} weight {w}",
                    vec![
                        VarSpec::new("conn", VarKind::Hex { len: 8 }),
                        VarSpec::new(
                            "backend",
                            VarKind::PrefixedId {
                                prefix: "be".into(),
                                max: 64,
                            },
                        ),
                        VarSpec::new("w", VarKind::Int { lo: 1, hi: 100 }),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.6), Transition::to(1, 0.4)],
            });
            states.push(FlowState {
                statement: Statement::from_pattern(
                    tid(&states),
                    Severity::Info,
                    "Health check on backend {backend} status {status} in {ms} ms",
                    vec![
                        VarSpec::new(
                            "backend",
                            VarKind::PrefixedId {
                                prefix: "be".into(),
                                max: 64,
                            },
                        ),
                        VarSpec::new(
                            "status",
                            VarKind::Word {
                                choices: vec!["healthy".into(), "degraded".into()],
                            },
                        ),
                        ms(),
                    ],
                ),
                transitions: vec![Transition::to(0, 0.5), Transition::end(0.5)],
            });
        }
    }

    FlowSpec {
        name: component.clone(),
        component,
        states,
        start: StateId(0),
        session_var: None,
    }
}

/// Configuration of the multi-source workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CloudWorkloadConfig {
    /// Number of log sources; the paper's reference system has 24.
    pub n_sources: usize,
    /// Flow walks generated per source.
    pub walks_per_source: usize,
    /// Per-source sequential anomaly rate.
    pub sequential_anomaly_rate: f64,
    /// Per-source quantitative anomaly rate.
    pub quantitative_anomaly_rate: f64,
    /// Number of cross-source incidents to inject.
    pub n_incidents: usize,
    /// Attach `{k=v}` payloads to API-ish sources.
    pub json_tail: bool,
    pub seed: u64,
    /// Stream start time (ms since epoch).
    pub start_ms: u64,
}

impl Default for CloudWorkloadConfig {
    fn default() -> Self {
        CloudWorkloadConfig {
            n_sources: 24,
            walks_per_source: 200,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            n_incidents: 0,
            json_tail: true,
            seed: 42,
            start_ms: 1_600_000_000_000,
        }
    }
}

/// The multi-source Cloud workload generator.
#[derive(Debug, Clone)]
pub struct CloudWorkload {
    pub config: CloudWorkloadConfig,
}

impl CloudWorkload {
    pub fn new(config: CloudWorkloadConfig) -> Self {
        assert!(config.n_sources > 0);
        CloudWorkload { config }
    }

    /// The flow spec of each source, in [`SourceId`] order.
    pub fn flows(&self) -> Vec<FlowSpec> {
        (0..self.config.n_sources)
            .map(|i| {
                let archetype_idx = i % SourceArchetype::ALL.len();
                let archetype = SourceArchetype::ALL[archetype_idx];
                let variant = i / SourceArchetype::ALL.len();
                make_source_flow(
                    archetype,
                    variant,
                    archetype_idx as u32 * TRUTH_IDS_PER_ARCHETYPE,
                    self.config.json_tail,
                )
            })
            .collect()
    }

    /// Generate the merged multi-source stream, time-ordered, with
    /// cross-source incidents injected.
    pub fn generate(&self) -> Vec<GenLog> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let flows = self.flows();
        let mut all: Vec<GenLog> = Vec::new();
        let start = Timestamp::from_millis(self.config.start_ms);
        let mut counter = 0u64;
        for (i, flow) in flows.iter().enumerate() {
            let workload = FlowWorkload::new(
                SourceId(i as u16),
                vec![flow.clone()],
                WalkConfig {
                    sequential_anomaly_rate: self.config.sequential_anomaly_rate,
                    quantitative_anomaly_rate: self.config.quantitative_anomaly_rate,
                    mean_line_gap_ms: 25,
                    mean_session_gap_ms: 10,
                    ..WalkConfig::default()
                },
            );
            all.extend(workload.generate(
                &mut rng,
                self.config.walks_per_source,
                start,
                &mut counter,
            ));
        }
        // Cross-source incidents: paired bursts on a network + storage source.
        if self.config.n_incidents > 0 {
            let span = all
                .iter()
                .map(|l| l.record.header.timestamp)
                .max()
                .unwrap_or(start)
                .millis_since(start)
                .max(1);
            let incidents = self.config.n_incidents;
            for k in 0..incidents {
                let t0 = start.advanced(span * (k as u64 + 1) / (incidents as u64 + 1));
                self.inject_incident(&flows, t0, &mut rng, &mut all);
            }
        }
        all.sort_by_key(|l| l.record.header.timestamp);
        for (i, l) in all.iter_mut().enumerate() {
            l.record.seq = i as u64;
        }
        all
    }

    /// Emit a correlated burst: network "link saturation" + storage "slow
    /// flush" inside one ~2s window. Each template also occurs alone in
    /// normal traffic; the *pair* is the anomaly.
    fn inject_incident(
        &self,
        flows: &[FlowSpec],
        t0: Timestamp,
        rng: &mut StdRng,
        out: &mut Vec<GenLog>,
    ) {
        let net_idx = flows
            .iter()
            .position(|f| f.component.starts_with("netAgent"))
            .expect("cloud workload includes a network source");
        let sto_idx = flows
            .iter()
            .position(|f| f.component.starts_with("storageNode"))
            .expect("cloud workload includes a storage source");
        // The incident-participant statements are state 3 of both archetypes.
        for (src_idx, state) in [(net_idx, 3usize), (sto_idx, 3usize)] {
            let flow = &flows[src_idx];
            let statement = &flow.states[state].statement;
            let burst = 6 + rng.random_range(0..6);
            let mut ts = t0.advanced(rng.random_range(0..200));
            for _ in 0..burst {
                let rendered = statement.render(rng, &[], None);
                let mut truth = LineTruth::normal(statement.truth, rendered.token_kinds.clone());
                truth.anomaly = Some(AnomalyKind::Sequential);
                out.push(GenLog {
                    record: LogRecord {
                        source: SourceId(src_idx as u16),
                        seq: 0,
                        header: LogHeader::new(ts, flow.component.clone(), statement.level),
                        message: rendered.message.into(),
                    },
                    truth,
                });
                ts = ts.advanced(rng.random_range(20..150));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn default_builds_24_sources() {
        let w = CloudWorkload::new(CloudWorkloadConfig {
            walks_per_source: 5,
            ..Default::default()
        });
        assert_eq!(w.flows().len(), 24);
        let logs = w.generate();
        let sources: HashSet<u16> = logs.iter().map(|l| l.record.source.0).collect();
        assert_eq!(sources.len(), 24, "all 24 sources emit");
    }

    #[test]
    fn component_names_are_unique() {
        let w = CloudWorkload::new(CloudWorkloadConfig::default());
        let names: HashSet<String> = w.flows().iter().map(|f| f.component.clone()).collect();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn truth_ids_follow_patterns() {
        // Same pattern ⟺ same truth id, across all 24 sources.
        let w = CloudWorkload::new(CloudWorkloadConfig::default());
        let mut by_pattern: std::collections::HashMap<String, u32> = Default::default();
        let mut by_id: std::collections::HashMap<u32, String> = Default::default();
        for f in w.flows() {
            for s in f.statements() {
                let pat = s.truth_pattern();
                if let Some(&tid) = by_pattern.get(&pat) {
                    assert_eq!(tid, s.truth.0, "pattern {pat} has two truth ids");
                } else {
                    by_pattern.insert(pat.clone(), s.truth.0);
                }
                if let Some(existing) = by_id.get(&s.truth.0) {
                    assert_eq!(existing, &pat, "truth id {} has two patterns", s.truth.0);
                } else {
                    by_id.insert(s.truth.0, pat);
                }
            }
        }
    }

    #[test]
    fn stream_is_merged_and_time_ordered() {
        let w = CloudWorkload::new(CloudWorkloadConfig {
            n_sources: 8,
            walks_per_source: 30,
            ..Default::default()
        });
        let logs = w.generate();
        for win in logs.windows(2) {
            assert!(win[0].record.header.timestamp <= win[1].record.header.timestamp);
        }
        // Execution flows from each source are mixed (Section III motivation):
        // consecutive lines frequently change source.
        let switches = logs
            .windows(2)
            .filter(|w| w[0].record.source != w[1].record.source)
            .count();
        assert!(
            switches as f64 / logs.len() as f64 > 0.3,
            "stream barely interleaves sources: {switches}/{}",
            logs.len()
        );
    }

    #[test]
    fn json_tails_present_only_when_enabled() {
        let with = CloudWorkload::new(CloudWorkloadConfig {
            n_sources: 8,
            walks_per_source: 20,
            json_tail: true,
            ..Default::default()
        })
        .generate();
        let without = CloudWorkload::new(CloudWorkloadConfig {
            n_sources: 8,
            walks_per_source: 20,
            json_tail: false,
            ..Default::default()
        })
        .generate();
        assert!(with.iter().any(|l| l.record.message.contains("{user_id=")));
        assert!(!without
            .iter()
            .any(|l| l.record.message.contains("{user_id=")));
    }

    #[test]
    fn incidents_mark_cross_source_lines() {
        // Enough walks that the rare (p≈0.03) incident-participant states
        // appear in normal traffic with near-certainty — the final assert
        // is about generator semantics, not one RNG stream's luck.
        let w = CloudWorkload::new(CloudWorkloadConfig {
            n_sources: 8,
            walks_per_source: 120,
            n_incidents: 3,
            ..Default::default()
        });
        let logs = w.generate();
        let anomalous: Vec<&GenLog> = logs.iter().filter(|l| l.truth.is_anomalous()).collect();
        assert!(!anomalous.is_empty());
        let comp: HashSet<&str> = anomalous
            .iter()
            .map(|l| l.record.header.component.as_str())
            .collect();
        assert!(comp.iter().any(|c| c.starts_with("netAgent")));
        assert!(comp.iter().any(|c| c.starts_with("storageNode")));
        // Incident templates also occur in normal (unmarked) traffic:
        // the anomaly is the co-occurrence, not the template.
        let incident_templates: HashSet<_> = anomalous.iter().map(|l| l.truth.template).collect();
        let normal_uses = logs
            .iter()
            .filter(|l| !l.truth.is_anomalous() && incident_templates.contains(&l.truth.template))
            .count();
        assert!(normal_uses > 0, "incident templates never occur normally");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = CloudWorkloadConfig {
            n_sources: 6,
            walks_per_source: 10,
            ..Default::default()
        };
        assert_eq!(
            CloudWorkload::new(c.clone()).generate(),
            CloudWorkload::new(c).generate()
        );
    }
}
