//! Seeded corpora for the four workloads, generated by `monilog-loggen`.
//!
//! Every corpus is a training file (anomaly-free, for `monilog train`) and
//! a live stream with ground truth per line. The same seed always yields
//! the same bytes.

use monilog_loggen::{
    CloudWorkload, CloudWorkloadConfig, GenLog, HdfsWorkload, HdfsWorkloadConfig,
};
use std::path::Path;

/// Event time of the first training line; live streams start an hour later
/// so that restored parsers and detectors never see time run backwards.
const TRAIN_START_MS: u64 = 1_600_000_000_000;
const LIVE_START_MS: u64 = TRAIN_START_MS + 3_600_000;

/// A generated live stream with its ground truth.
pub struct Corpus {
    /// One log line per entry, exactly as written to the corpus file.
    pub lines: Vec<String>,
    /// Event time of each line (ms since epoch).
    pub ts_ms: Vec<u64>,
    /// Ground-truth label of each line.
    pub anomalous: Vec<bool>,
    /// Ground-truth session of each line (HDFS only; cloud lines have none).
    pub session: Vec<Option<String>>,
}

impl Corpus {
    fn from_logs(logs: Vec<GenLog>) -> Corpus {
        let mut c = Corpus {
            lines: Vec::with_capacity(logs.len()),
            ts_ms: Vec::with_capacity(logs.len()),
            anomalous: Vec::with_capacity(logs.len()),
            session: Vec::with_capacity(logs.len()),
        };
        for log in logs {
            c.lines.push(log.record.to_line());
            c.ts_ms.push(log.record.header.timestamp.as_millis());
            c.anomalous.push(log.truth.is_anomalous());
            c.session.push(log.truth.session);
        }
        c
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Write the lines as a newline-terminated file.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        write_lines(path, &self.lines)
    }
}

pub fn write_lines(path: &Path, lines: &[String]) -> std::io::Result<()> {
    let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Session-keyed HDFS-like stream. Training streams carry no anomalies.
pub fn hdfs(seed: u64, sessions: usize, training: bool) -> Corpus {
    let (seq_rate, quant_rate, start_ms) = if training {
        (0.0, 0.0, TRAIN_START_MS)
    } else {
        (0.12, 0.06, LIVE_START_MS)
    };
    Corpus::from_logs(
        HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: sessions,
            sequential_anomaly_rate: seq_rate,
            quantitative_anomaly_rate: quant_rate,
            seed: mix(seed, training),
            start_ms,
        })
        .generate(),
    )
}

/// The paper's setting: 24 sources with `{k=v}` payload tails, merged
/// into one time-ordered stream. Training streams carry no anomalies.
pub fn cloud(seed: u64, walks_per_source: usize, training: bool) -> Corpus {
    let (seq_rate, quant_rate, incidents, start_ms) = if training {
        (0.0, 0.0, 0, TRAIN_START_MS)
    } else {
        (0.05, 0.03, 4, LIVE_START_MS)
    };
    Corpus::from_logs(
        CloudWorkload::new(CloudWorkloadConfig {
            n_sources: 24,
            walks_per_source,
            sequential_anomaly_rate: seq_rate,
            quantitative_anomaly_rate: quant_rate,
            n_incidents: incidents,
            json_tail: true,
            seed: mix(seed, training),
            start_ms,
        })
        .generate(),
    )
}

/// Training and live streams of one seed must differ.
fn mix(seed: u64, training: bool) -> u64 {
    seed.wrapping_mul(2).wrapping_add(u64::from(training))
}

/// Split a session-keyed stream into `n` files by whole session, so each
/// file's reference run sees every session complete.
pub fn partition_by_session(c: &Corpus, n: usize) -> Vec<Vec<usize>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in c.session.iter().enumerate() {
        let shard = s.as_deref().map_or(0, |key| {
            key.bytes()
                .fold(0usize, |h, b| h.wrapping_mul(31).wrapping_add(b as usize))
                % n
        });
        parts[shard].push(i);
    }
    parts
}
