//! HDFS-like session workload.
//!
//! DeepLog, LogRobust and LogAnomaly all evaluate on the public HDFS
//! dataset: ~11M lines of block-lifecycle logs, grouped into sessions by
//! block id, with per-session normal/anomalous labels. This module
//! generates the closest synthetic equivalent: a block-lifecycle
//! [`FlowSpec`] (allocate → replica pipeline → verification → termination)
//! whose walks are the sessions, with the same anomaly structure
//! (sequence deviations and absurd sizes) and exact labels.

use crate::flow::{FlowSpec, FlowState, FlowWorkload, StateId, Statement, Transition, WalkConfig};
use crate::truth::{GenLog, TruthTemplateId};
use crate::varspec::{VarKind, VarSpec};
use monilog_model::{Severity, SourceId, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The block-lifecycle flow: a synthetic stand-in for the HDFS DataNode /
/// NameNode block logs.
pub fn hdfs_flow() -> FlowSpec {
    let blk = || VarSpec::new("block", VarKind::Hex { len: 10 });
    let ip = |name: &str| VarSpec::new(name, VarKind::Ip { prefix: [10, 250] });
    let size = VarSpec::new(
        "size",
        VarKind::Int {
            lo: 1_024,
            hi: 67_108_864,
        },
    );

    let mut states = Vec::new();
    // Truth ids are per *pattern*, not per state: the three pipeline
    // replicas log the same statement, and no parser can (or should)
    // distinguish them.
    let mut add = |tid: u32,
                   pattern: &str,
                   level: Severity,
                   vars: Vec<VarSpec>,
                   transitions: Vec<Transition>| {
        states.push(FlowState {
            statement: Statement::from_pattern(TruthTemplateId(tid), level, pattern, vars),
            transitions,
        });
    };

    // 0: allocation on the NameNode.
    add(
        0,
        "NameSystem.allocateBlock: /user/data/job/part-{part} {block}",
        Severity::Info,
        vec![
            VarSpec::new("part", VarKind::Int { lo: 0, hi: 9999 }),
            blk(),
        ],
        vec![Transition::to(1, 1.0)],
    );
    // 1-3: the three-replica receiving pipeline.
    add(
        1,
        "Receiving block {block} src: {src} dest: {dest}",
        Severity::Info,
        vec![blk(), ip("src"), ip("dest")],
        vec![Transition::to(2, 1.0)],
    );
    add(
        1,
        "Receiving block {block} src: {src} dest: {dest}",
        Severity::Info,
        vec![blk(), ip("src"), ip("dest")],
        vec![Transition::to(3, 1.0)],
    );
    add(
        1,
        "Receiving block {block} src: {src} dest: {dest}",
        Severity::Info,
        vec![blk(), ip("src"), ip("dest")],
        vec![Transition::to(4, 1.0)],
    );
    // 4-6: received acknowledgements with sizes (quantitative candidates).
    add(
        2,
        "Received block {block} of size {size} from {src}",
        Severity::Info,
        vec![blk(), size.clone(), ip("src")],
        vec![Transition::to(5, 1.0)],
    );
    add(
        2,
        "Received block {block} of size {size} from {src}",
        Severity::Info,
        vec![blk(), size.clone(), ip("src")],
        vec![Transition::to(6, 1.0)],
    );
    add(
        2,
        "Received block {block} of size {size} from {src}",
        Severity::Info,
        vec![blk(), size.clone(), ip("src")],
        vec![Transition::to(7, 1.0)],
    );
    // 7: pipeline bookkeeping.
    add(
        3,
        "PacketResponder {responder} for block {block} terminating",
        Severity::Info,
        vec![
            VarSpec::new("responder", VarKind::Int { lo: 0, hi: 2 }),
            blk(),
        ],
        vec![Transition::to(8, 0.85), Transition::to(9, 0.15)],
    );
    // 8: registration in the block map (common path).
    add(
        4,
        "BLOCK* NameSystem.addStoredBlock: blockMap updated: {node} is added to {block} size {size}",
        Severity::Info,
        vec![VarSpec::new("node", VarKind::Ip { prefix: [10, 250] }), blk(), size.clone()],
        vec![Transition::to(10, 0.7), Transition::end(0.3)],
    );
    // 9: occasional verification path.
    add(
        5,
        "Verification succeeded for {block}",
        Severity::Info,
        vec![blk()],
        vec![Transition::to(10, 0.5), Transition::end(0.5)],
    );
    // 10: deletion / cleanup tail.
    add(
        6,
        "BLOCK* ask {node} to delete {block}",
        Severity::Info,
        vec![
            VarSpec::new("node", VarKind::Ip { prefix: [10, 250] }),
            blk(),
        ],
        vec![Transition::end(1.0)],
    );

    FlowSpec {
        name: "blk".into(),
        component: "dfs.DataNode".into(),
        states,
        start: StateId(0),
        session_var: Some("block".into()),
    }
}

/// Configuration for an HDFS-like generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct HdfsWorkloadConfig {
    pub n_sessions: usize,
    /// Fraction of sessions with a sequential anomaly.
    pub sequential_anomaly_rate: f64,
    /// Fraction of sessions with a quantitative anomaly.
    pub quantitative_anomaly_rate: f64,
    pub seed: u64,
    /// Stream start time (ms since epoch). Streams meant to be ingested
    /// after another stream must start later — wall clocks don't rewind.
    pub start_ms: u64,
}

impl Default for HdfsWorkloadConfig {
    fn default() -> Self {
        HdfsWorkloadConfig {
            n_sessions: 1_000,
            sequential_anomaly_rate: 0.02,
            quantitative_anomaly_rate: 0.01,
            seed: 42,
            start_ms: 1_600_000_000_000,
        }
    }
}

/// A session: its key, its lines (indices into the generated vector), and
/// its ground-truth label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    pub key: String,
    pub line_indices: Vec<usize>,
    pub anomalous: bool,
}

/// The HDFS-like workload generator.
#[derive(Debug, Clone)]
pub struct HdfsWorkload {
    pub config: HdfsWorkloadConfig,
}

impl HdfsWorkload {
    pub fn new(config: HdfsWorkloadConfig) -> Self {
        HdfsWorkload { config }
    }

    /// Generate the full stream, time-ordered across interleaved sessions.
    pub fn generate(&self) -> Vec<GenLog> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let workload = FlowWorkload::new(
            SourceId(0),
            vec![hdfs_flow()],
            WalkConfig {
                sequential_anomaly_rate: self.config.sequential_anomaly_rate,
                quantitative_anomaly_rate: self.config.quantitative_anomaly_rate,
                ..WalkConfig::default()
            },
        );
        let mut counter = 0;
        workload.generate(
            &mut rng,
            self.config.n_sessions,
            Timestamp::from_millis(self.config.start_ms),
            &mut counter,
        )
    }

    /// Group a generated stream into sessions with labels, preserving
    /// per-session line order. A session is anomalous iff any line is.
    pub fn sessions(logs: &[GenLog]) -> Vec<Session> {
        let mut map: BTreeMap<String, Session> = BTreeMap::new();
        for (i, log) in logs.iter().enumerate() {
            let key = log
                .truth
                .session
                .clone()
                .expect("HDFS-like lines always carry a session");
            let entry = map.entry(key.clone()).or_insert_with(|| Session {
                key,
                line_indices: Vec::new(),
                anomalous: false,
            });
            entry.line_indices.push(i);
            entry.anomalous |= log.truth.is_anomalous();
        }
        map.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_model::AnomalyKind;

    #[test]
    fn truth_ids_are_per_pattern() {
        let flow = hdfs_flow();
        // Identical patterns share a truth id; distinct patterns never do.
        let mut by_pattern: std::collections::HashMap<String, u32> = Default::default();
        for s in flow.statements() {
            let pat = s.truth_pattern();
            match by_pattern.get(&pat) {
                None => {
                    by_pattern.insert(pat, s.truth.0);
                }
                Some(&tid) => assert_eq!(tid, s.truth.0, "pattern {pat} has two ids"),
            }
        }
        let mut ids: Vec<u32> = by_pattern.values().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), by_pattern.len(), "distinct patterns share an id");
    }

    #[test]
    fn normal_run_has_no_anomalies() {
        let workload = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 50,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 1,
            ..Default::default()
        });
        let logs = workload.generate();
        assert!(logs.iter().all(|l| !l.truth.is_anomalous()));
        let sessions = HdfsWorkload::sessions(&logs);
        assert_eq!(sessions.len(), 50);
        assert!(sessions.iter().all(|s| !s.anomalous));
    }

    #[test]
    fn sessions_share_their_block_id() {
        let workload = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 10,
            ..Default::default()
        });
        let logs = workload.generate();
        for session in HdfsWorkload::sessions(&logs) {
            for &i in &session.line_indices {
                assert!(
                    logs[i].record.message.contains(&session.key),
                    "line {:?} missing session key {}",
                    logs[i].record.message,
                    session.key
                );
            }
        }
    }

    #[test]
    fn anomalous_sessions_appear_at_configured_rate() {
        let workload = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 2_000,
            sequential_anomaly_rate: 0.05,
            quantitative_anomaly_rate: 0.03,
            seed: 7,
            ..Default::default()
        });
        let logs = workload.generate();
        let sessions = HdfsWorkload::sessions(&logs);
        let anomalous = sessions.iter().filter(|s| s.anomalous).count() as f64;
        let rate = anomalous / sessions.len() as f64;
        assert!(
            (0.04..=0.13).contains(&rate),
            "anomalous session rate {rate}"
        );
        // Both kinds occur.
        let kinds: std::collections::HashSet<_> =
            logs.iter().filter_map(|l| l.truth.anomaly).collect();
        assert!(kinds.contains(&AnomalyKind::Sequential));
        assert!(kinds.contains(&AnomalyKind::Quantitative));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let c = HdfsWorkloadConfig {
            n_sessions: 20,
            ..Default::default()
        };
        let a = HdfsWorkload::new(c.clone()).generate();
        let b = HdfsWorkload::new(c).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 20,
            seed: 1,
            ..Default::default()
        })
        .generate();
        let b = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 20,
            seed: 2,
            ..Default::default()
        })
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn stream_is_time_ordered_and_interleaved() {
        let workload = HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 100,
            ..Default::default()
        });
        let logs = workload.generate();
        for w in logs.windows(2) {
            assert!(w[0].record.header.timestamp <= w[1].record.header.timestamp);
        }
        // Interleaving: at least one session's lines are not contiguous.
        let sessions = HdfsWorkload::sessions(&logs);
        let interleaved = sessions
            .iter()
            .any(|s| s.line_indices.windows(2).any(|w| w[1] != w[0] + 1));
        assert!(
            interleaved,
            "sessions never interleave — unrealistic stream"
        );
    }
}
