//! Trace identities and anomaly provenance.
//!
//! MoniLog's reports must tell an administrator *why* an alert fired, not
//! just that it fired (Section V: reports are what make detections
//! actionable). A [`TraceId`] names one sampled log line end-to-end through
//! the pipeline; a [`Provenance`] attached to an `AnomalyReport` collects
//! the trace ids, template ids, window bounds and per-detector score
//! components that produced the verdict, so the evidence trail can be
//! replayed from the flight recorder (`GET /trace/{id}`).
//!
//! Sampling is *deterministic*: line `seq` is traced iff
//! `seq % sample_rate == 0`, and its id is `seq + 1` (ids are non-zero so a
//! zero word in a ring-buffer slot can mean "empty"). Determinism means any
//! stage can recompute the decision from the sequence number alone — no
//! per-line flag has to be threaded through queues or shard boundaries.

use crate::time::Timestamp;
use std::fmt;

/// Identity of one sampled log line as it flows through the pipeline.
///
/// Always non-zero: the id of the line with sequence number `seq` is
/// `seq + 1`, so `0` is free to mean "no trace" in packed representations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Deterministic sampling decision: trace line `seq` iff its sequence
    /// number is a multiple of `sample_rate`. A rate of 0 disables tracing;
    /// a rate of 1 traces every line.
    pub fn from_seq(seq: u64, sample_rate: u32) -> Option<TraceId> {
        if sample_rate == 0 || !seq.is_multiple_of(sample_rate as u64) {
            return None;
        }
        Some(TraceId(seq + 1))
    }

    /// The sequence number this trace id was derived from.
    pub fn seq(self) -> u64 {
        self.0.saturating_sub(1)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One named term of a detector's anomaly score (e.g. DeepLog's count of
/// sequential violations vs its calibrated threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreComponent {
    pub name: String,
    pub value: f64,
}

impl ScoreComponent {
    pub fn new(name: impl Into<String>, value: f64) -> Self {
        ScoreComponent {
            name: name.into(),
            value,
        }
    }
}

/// Evidence trail attached to an `AnomalyReport`: which sampled lines,
/// which templates, which window, and how the detector arrived at the
/// score. Empty (`Provenance::default()`) when tracing is disabled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Provenance {
    /// Trace ids of the sampled lines that contributed events to the
    /// window (resolvable via `GET /trace/{id}` while they remain in the
    /// flight recorder). At the default 1/1024 rate most windows carry
    /// zero or one.
    pub trace_ids: Vec<TraceId>,
    /// Distinct template ids observed in the window, ascending.
    pub template_ids: Vec<u32>,
    /// Bounds of the anomalous window (first/last event timestamp).
    pub window: Option<(Timestamp, Timestamp)>,
    /// Per-detector score breakdown (score, threshold, violation counts…).
    pub score_components: Vec<ScoreComponent>,
}

impl Provenance {
    /// True when no evidence was recorded (tracing disabled and no
    /// breakdown captured).
    pub fn is_empty(&self) -> bool {
        self.trace_ids.is_empty()
            && self.template_ids.is_empty()
            && self.window.is_none()
            && self.score_components.is_empty()
    }

    /// Hand-rolled JSON rendering (the workspace has no serialization
    /// dependency, so every wire format in this codebase is written out
    /// explicitly).
    pub fn to_json(&self) -> String {
        let trace_ids: Vec<String> = self.trace_ids.iter().map(|t| t.0.to_string()).collect();
        let template_ids: Vec<String> = self.template_ids.iter().map(|t| t.to_string()).collect();
        let window = match self.window {
            Some((a, b)) => format!(
                "{{\"start_ms\":{},\"end_ms\":{}}}",
                a.as_millis(),
                b.as_millis()
            ),
            None => "null".to_string(),
        };
        let comps: Vec<String> = self
            .score_components
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"value\":{}}}",
                    json_string(&c.name),
                    json_f64(c.value)
                )
            })
            .collect();
        format!(
            "{{\"trace_ids\":[{}],\"template_ids\":[{}],\"window\":{},\"score_components\":[{}]}}",
            trace_ids.join(","),
            template_ids.join(","),
            window,
            comps.join(",")
        )
    }
}

/// Minimal JSON string escaping for hand-rolled renderings: quotes,
/// backslashes and control characters.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render an `f64` as a JSON number (JSON has no NaN/Inf; map those to
/// null so the output stays parseable).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, no decoration needed.
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_nonzero() {
        assert_eq!(TraceId::from_seq(0, 1024), Some(TraceId(1)));
        assert_eq!(TraceId::from_seq(1, 1024), None);
        assert_eq!(TraceId::from_seq(1024, 1024), Some(TraceId(1025)));
        assert_eq!(TraceId::from_seq(5, 0), None, "rate 0 disables tracing");
        assert_eq!(TraceId::from_seq(5, 1), Some(TraceId(6)), "rate 1 = all");
        assert_eq!(TraceId(1025).seq(), 1024);
    }

    #[test]
    fn empty_provenance_renders_null_window() {
        let p = Provenance::default();
        assert!(p.is_empty());
        assert_eq!(
            p.to_json(),
            "{\"trace_ids\":[],\"template_ids\":[],\"window\":null,\"score_components\":[]}"
        );
    }

    #[test]
    fn populated_provenance_renders_every_field() {
        let p = Provenance {
            trace_ids: vec![TraceId(1), TraceId(1025)],
            template_ids: vec![3, 7],
            window: Some((Timestamp::from_millis(10), Timestamp::from_millis(90))),
            score_components: vec![
                ScoreComponent::new("score", 2.0),
                ScoreComponent::new("threshold", 0.5),
            ],
        };
        let json = p.to_json();
        assert!(json.contains("\"trace_ids\":[1,1025]"), "{json}");
        assert!(json.contains("\"template_ids\":[3,7]"), "{json}");
        assert!(json.contains("\"start_ms\":10,\"end_ms\":90"), "{json}");
        assert!(json.contains("{\"name\":\"score\",\"value\":2}"), "{json}");
        assert!(!p.is_empty());
    }

    #[test]
    fn json_string_escapes_specials() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_f64_maps_non_finite_to_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
