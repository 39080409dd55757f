//! Canonical report identity, the reference comparison, detection F1 and
//! the closing-line anchor of a report.
//!
//! A report is identified as the D7/D9 gates identify it: kind, detector,
//! score and sorted event timestamps. Report ids, source ids, template ids
//! and trace ids are process-local and excluded. The in-memory `monitor`
//! prints reports as text, so a timed run of it is compared by the short
//! key (kind, score, event count, first and last timestamp) that the text
//! carries without tracing.

use monilog_core::model::Timestamp;
use std::collections::BTreeSet;

/// Sequence base of the in-memory `monitor`: line `i` is ingested as seq
/// `1e9 + i` and, traced at rate 1, carries trace id `seq + 1`.
pub const FILE_SEQ_BASE: u64 = 1_000_000_000;
/// The binary's reorder bound, session idle timeout and window cap.
pub const REORDER_MS: u64 = 1_000;
pub const IDLE_MS: u64 = 30_000;
pub const MAX_EVENTS: usize = 128;

/// One parsed report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub kind: String,
    pub detector: String,
    /// Score at the two decimals the text output prints.
    pub score: String,
    /// Sorted event timestamps (empty for an untraced text report).
    pub ts: Vec<u64>,
    /// Event count, first and last event time.
    pub n_events: usize,
    pub first_ms: u64,
    pub last_ms: u64,
    /// Corpus line of every event (text reports traced at rate 1 only).
    pub lines: Vec<usize>,
}

impl Report {
    /// The D9 identity: `kind|detector|score|[sorted ts]`.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{:?}",
            self.kind, self.detector, self.score, self.ts
        )
    }

    /// The identity an untraced text report carries.
    pub fn short_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.kind, self.score, self.n_events, self.first_ms, self.last_ms
        )
    }
}

fn score2(raw: &str) -> Option<String> {
    Some(format!("{:.2}", raw.trim().parse::<f64>().ok()?))
}

/// Parse one report JSON body (an `anomalies.jsonl` line or a TCP sink
/// payload).
pub fn parse_json_report(line: &str) -> Option<Report> {
    let field = |marker: &str| -> Option<String> {
        let at = line.find(marker)? + marker.len();
        let end = line[at..].find('"')? + at;
        Some(line[at..end].to_string())
    };
    let kind = field("\"kind\":\"")?;
    let detector = field("\"detector\":\"")?;
    let score = {
        let at = line.find("\"score\":")? + 8;
        let end = line[at..].find(',')? + at;
        score2(&line[at..end])?
    };
    let ev_start = line.find("\"events\":[")? + 10;
    let ev_end = line[ev_start..].find("],\"provenance\"")? + ev_start;
    let mut rest = &line[ev_start..ev_end];
    let mut ts: Vec<u64> = Vec::new();
    while let Some(at) = rest.find("\"ts_ms\":") {
        let s = &rest[at + 8..];
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        ts.push(s[..end].parse().ok()?);
        rest = &s[end..];
    }
    ts.sort_unstable();
    Some(Report {
        kind,
        detector,
        score,
        n_events: ts.len(),
        first_ms: *ts.first()?,
        last_ms: *ts.last()?,
        ts,
        lines: Vec::new(),
    })
}

/// Parse the report block the in-memory `monitor` prints:
///
/// ```text
/// [0] quantitative anomaly (score 1.00, 9 events, pool pool0, low)
///       span 2020-09-13 13:26:40,063 .. 2020-09-13 13:26:40,379
///       traces 1000000007, 1000000023, ...
/// ```
///
/// With `corpus_ts` (a run traced at rate 1), every event is mapped to its
/// line through its trace id and the full timestamp list is filled in.
/// The text does not name the detector; the CLI always runs DeepLog.
pub fn parse_text_reports(out: &str, corpus_ts: Option<&[u64]>) -> Result<Vec<Report>, String> {
    let mut reports: Vec<Report> = Vec::new();
    for line in out.lines() {
        let t = line.trim_start();
        if line.starts_with('[') {
            let (kind, rest) = line
                .split_once("] ")
                .and_then(|(_, r)| r.split_once(" anomaly (score "))
                .ok_or_else(|| format!("unparseable report line: {line}"))?;
            let mut parts = rest.split(", ");
            let score = parts.next().and_then(score2);
            let n_events = parts
                .next()
                .and_then(|p| p.strip_suffix(" events"))
                .and_then(|n| n.parse().ok());
            let (Some(score), Some(n_events)) = (score, n_events) else {
                return Err(format!("unparseable report line: {line}"));
            };
            reports.push(Report {
                kind: kind.to_string(),
                detector: "DeepLog".to_string(),
                score,
                ts: Vec::new(),
                n_events,
                first_ms: 0,
                last_ms: 0,
                lines: Vec::new(),
            });
        } else if let Some(span) = t.strip_prefix("span ") {
            let r = reports.last_mut().ok_or("span before any report")?;
            let (a, b) = span.split_once(" .. ").ok_or("unparseable span")?;
            let parse = |s: &str| {
                Timestamp::parse_log_format(s)
                    .map(Timestamp::as_millis)
                    .ok_or_else(|| format!("unparseable timestamp {s:?}"))
            };
            r.first_ms = parse(a)?;
            r.last_ms = parse(b)?;
        } else if let (Some(ids), Some(ts)) = (t.strip_prefix("traces "), corpus_ts) {
            let r = reports.last_mut().ok_or("traces before any report")?;
            for id in ids.split(", ") {
                let trace: u64 = id.parse().map_err(|_| format!("bad trace id {id}"))?;
                let line = trace
                    .checked_sub(FILE_SEQ_BASE + 1)
                    .map(|l| l as usize)
                    .filter(|&l| l < ts.len())
                    .ok_or_else(|| format!("trace id {trace} maps to no corpus line"))?;
                r.lines.push(line);
                r.ts.push(ts[line]);
            }
            r.ts.sort_unstable();
            r.lines.sort_unstable();
        }
    }
    if corpus_ts.is_some() {
        if let Some(r) = reports.iter().find(|r| r.lines.len() != r.n_events) {
            return Err(format!(
                "a traced report lists {} of its {} events",
                r.lines.len(),
                r.n_events
            ));
        }
    }
    Ok(reports)
}

/// How a timed run's report set compares to the reference.
#[derive(Debug, Default, PartialEq)]
pub struct Diff {
    /// Reference keys the run did not produce.
    pub missing: Vec<String>,
    /// Keys the run produced that the reference does not have.
    pub extra: Vec<String>,
}

impl Diff {
    pub fn between(reference: &BTreeSet<String>, got: &BTreeSet<String>) -> Diff {
        Diff {
            missing: reference.difference(got).cloned().collect(),
            extra: got.difference(reference).cloned().collect(),
        }
    }

    pub fn count(&self) -> usize {
        self.missing.len() + self.extra.len()
    }
}

/// Precision, recall and F1 of a reference run against ground truth.
/// Precision is the share of reports holding at least one anomalous line.
/// Recall is the share of anomalous units inside some report, where a
/// unit is a session (`unit_of` returns its key) or a line (`unit_of`
/// returns the line index as a key).
pub fn detect_f1(
    reports: &[Report],
    anomalous: &[bool],
    unit_of: impl Fn(usize) -> String,
) -> (f64, f64, f64) {
    let true_reports = reports
        .iter()
        .filter(|r| r.lines.iter().any(|&l| anomalous[l]))
        .count();
    let anomalous_units: BTreeSet<String> = (0..anomalous.len())
        .filter(|&l| anomalous[l])
        .map(&unit_of)
        .collect();
    let covered: BTreeSet<String> = reports
        .iter()
        .flat_map(|r| r.lines.iter())
        .filter(|&&l| anomalous[l])
        .map(|&l| unit_of(l))
        .collect();
    let precision = if reports.is_empty() {
        0.0
    } else {
        true_reports as f64 / reports.len() as f64
    };
    let recall = if anomalous_units.is_empty() {
        0.0
    } else {
        covered.len() as f64 / anomalous_units.len() as f64
    };
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    (precision, recall, f1)
}

/// The corpus line whose arrival closes a report's window in the binary,
/// or `None` when only the end-of-stream flush closes it.
///
/// An event reaches the window assembler once the reorder buffer releases
/// it, i.e. once a line at least [`REORDER_MS`] newer has arrived. A
/// window capped at [`MAX_EVENTS`] closes when its newest event is
/// released. Any other window closes when the first event more than
/// [`IDLE_MS`] newer than its newest event is released. `max_seen[i]` is
/// the largest event time among lines `0..=i` (non-decreasing); the
/// generated streams are time-ordered, so the first line past a bound in
/// `max_seen` is the earliest event past it.
pub fn closing_line(max_seen: &[u64], report: &Report) -> Option<usize> {
    let first_reaching = |t: u64| max_seen.partition_point(|&m| m < t);
    let newest = report.last_ms;
    let released = if report.n_events >= MAX_EVENTS {
        newest
    } else {
        // The expiring event: the first one more than IDLE_MS newer.
        *max_seen.get(first_reaching(newest + IDLE_MS + 1))?
    };
    let i = first_reaching(released + REORDER_MS);
    (i < max_seen.len()).then_some(i)
}

/// Running maximum of the event times, for [`closing_line`].
pub fn running_max(ts: &[u64]) -> Vec<u64> {
    let mut m = 0;
    ts.iter()
        .map(|&t| {
            m = m.max(t);
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &str = r#"{"id":1,"kind":"sequential","score":1,"detector":"DeepLog","explanation":"x","events":[{"id":180,"ts_ms":1600003600444,"source":0,"template":1},{"id":178,"ts_ms":1600003600443,"source":0,"template":0}],"provenance":{"trace_ids":[],"template_ids":[0,1]}}"#;

    #[test]
    fn json_report_key_sorts_timestamps_and_drops_ids() {
        let r = parse_json_report(JSON).expect("parses");
        assert_eq!(
            r.key(),
            "sequential|DeepLog|1.00|[1600003600443, 1600003600444]"
        );
        assert_eq!(
            r.short_key(),
            "sequential|1.00|2|1600003600443|1600003600444"
        );
        assert!(parse_json_report("{\"id\":1}").is_none());
    }

    #[test]
    fn text_report_maps_traces_to_lines() {
        let first = Timestamp::from_millis(1_600_003_600_443).to_log_format();
        let last = Timestamp::from_millis(1_600_003_600_444).to_log_format();
        let out = format!(
            "monitored 3 lines: 1 anomalies\n\
             [0] sequential anomaly (score 1.00, 2 events, pool pool0, low)\n      \
             span {first} .. {last}\n      traces 1000000003, 1000000001\n"
        );
        let ts = [1_600_003_600_443, 1_600_003_600_500, 1_600_003_600_444];
        let traced = parse_text_reports(&out, Some(&ts)).expect("parses");
        assert_eq!(traced.len(), 1);
        assert_eq!(traced[0].lines, vec![0, 2]);
        let json = parse_json_report(JSON).expect("parses");
        assert_eq!(traced[0].key(), json.key());
        let untraced = parse_text_reports(&out, None).expect("parses");
        assert_eq!(untraced[0].short_key(), json.short_key());
        assert!(parse_text_reports("[0] garbage\n", None).is_err());
    }

    #[test]
    fn diff_counts_both_directions() {
        let a: BTreeSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let b: BTreeSet<String> = ["y", "z"].iter().map(|s| s.to_string()).collect();
        let d = Diff::between(&a, &b);
        assert_eq!(d.missing, vec!["x".to_string()]);
        assert_eq!(d.extra, vec!["z".to_string()]);
        assert_eq!(d.count(), 2);
    }

    fn report(lines: Vec<usize>) -> Report {
        Report {
            kind: "sequential".into(),
            detector: "DeepLog".into(),
            score: "1.00".into(),
            ts: Vec::new(),
            n_events: lines.len(),
            first_ms: 0,
            last_ms: 0,
            lines,
        }
    }

    #[test]
    fn f1_by_session_and_by_line() {
        // Lines 0..6; sessions a=[0,1], b=[2,3], c=[4,5]; a and b anomalous.
        let anomalous = [true, false, false, true, false, false];
        let session = |l: usize| ["a", "a", "b", "b", "c", "c"][l].to_string();
        // One true report covering session a, one false report on c.
        let reports = [report(vec![0, 1]), report(vec![4, 5])];
        let (p, r, f1) = detect_f1(&reports, &anomalous, session);
        assert_eq!((p, r), (0.5, 0.5));
        assert!((f1 - 0.5).abs() < 1e-12);
        // By line: two anomalous lines, one covered.
        let (_, r, _) = detect_f1(&reports, &anomalous, |l| l.to_string());
        assert_eq!(r, 0.5);
        // No reports: F1 is zero, not NaN.
        assert_eq!(detect_f1(&[], &anomalous, session).2, 0.0);
    }

    #[test]
    fn closing_line_waits_for_idle_and_reorder_bounds() {
        // Events every 10 s.
        let ts: Vec<u64> = (0..10).map(|i| i * 10_000).collect();
        let max_seen = running_max(&ts);
        let mut r = report(vec![0, 1]);
        r.last_ms = 10_000;
        // Expiring event: first ts > 40_000, i.e. 50_000 (line 5); it is
        // released by the first line at or past 51_000, i.e. line 6.
        assert_eq!(closing_line(&max_seen, &r), Some(6));
        // A capped window closes when its newest event is released: the
        // first line at or past 11_000 is line 2.
        r.n_events = MAX_EVENTS;
        assert_eq!(closing_line(&max_seen, &r), Some(2));
        // Near the end of the stream only the flush closes the window.
        r.n_events = 2;
        r.last_ms = 70_000;
        assert_eq!(closing_line(&max_seen, &r), None);
        // Exactly at the release point counts as released.
        let ts = [0, 31_001, 32_001];
        let max_seen = running_max(&ts);
        let mut r = report(vec![0]);
        r.last_ms = 0;
        assert_eq!(closing_line(&max_seen, &r), Some(2));
    }
}
