//! Structured log events.
//!
//! After the parsing component, each log line becomes a [`LogEvent`]: the
//! header fields, the discovered [`TemplateId`], and the extracted variable
//! values. This is the "structured log-stream" of Fig. 1 that the detection
//! component consumes.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::log::SourceId;
use crate::severity::Severity;
use crate::template::TemplateId;
use crate::time::Timestamp;
use crate::trace::TraceId;
use std::fmt;

/// Globally unique event identifier (dense, assigned at parse time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(pub u64);

/// Key used to group events into sessions (e.g. an HDFS block id or a
/// request id). Detection models that use *session windows* group by this;
/// models that use *sliding windows* ignore it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey(pub String);

impl fmt::Display for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A fully structured log event — the unit flowing from the parsing
/// component to the detection component.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    pub id: EventId,
    pub timestamp: Timestamp,
    pub source: SourceId,
    pub level: Severity,
    pub template: TemplateId,
    /// Values extracted at the template's wildcard positions, in order.
    pub variables: Vec<String>,
    /// Numeric reinterpretations of `variables` where possible (`None` for
    /// non-numeric variables). Pre-computed once at parse time because the
    /// quantitative-anomaly models consume numbers, not strings.
    pub numeric_variables: Vec<Option<f64>>,
    /// Session this event belongs to, when a session key could be derived.
    pub session: Option<SessionKey>,
    /// Trace identity when the source line was sampled by the span tracer
    /// (`None` for the untraced majority of lines).
    pub trace: Option<TraceId>,
}

impl LogEvent {
    /// Build an event, deriving `numeric_variables` from `variables`.
    pub fn new(
        id: EventId,
        timestamp: Timestamp,
        source: SourceId,
        level: Severity,
        template: TemplateId,
        variables: Vec<String>,
        session: Option<SessionKey>,
    ) -> Self {
        let numeric_variables = variables.iter().map(|v| parse_numeric(v)).collect();
        LogEvent {
            id,
            timestamp,
            source,
            level,
            template,
            variables,
            numeric_variables,
            session,
            trace: None,
        }
    }

    /// Attach a trace identity (builder-style, used by the parse stage for
    /// sampled lines).
    pub fn with_trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }

    /// The numeric variables only, in order, skipping non-numeric ones.
    pub fn numeric_values(&self) -> impl Iterator<Item = f64> + '_ {
        self.numeric_variables.iter().filter_map(|v| *v)
    }

    /// Append this event to an in-progress binary encoding. Used by the
    /// durable pipeline checkpoint to persist open window-assembler
    /// sessions. `numeric_variables` is derived, not stored.
    pub fn encode_into(&self, e: &mut Encoder) {
        e.put_u64(self.id.0);
        e.put_u64(self.timestamp.as_millis());
        e.put_u16(self.source.0);
        e.put_u8(self.level.to_tag());
        e.put_u32(self.template.0);
        e.put_len(self.variables.len());
        for v in &self.variables {
            e.put_str(v);
        }
        match &self.session {
            Some(key) => {
                e.put_bool(true);
                e.put_str(&key.0);
            }
            None => e.put_bool(false),
        }
        match self.trace {
            Some(id) => {
                e.put_bool(true);
                e.put_u64(id.0);
            }
            None => e.put_bool(false),
        }
    }

    /// Inverse of [`LogEvent::encode_into`]; re-derives
    /// `numeric_variables` from the decoded variable strings.
    pub fn decode_from(d: &mut Decoder<'_>) -> Result<LogEvent, CodecError> {
        let id = EventId(d.get_u64()?);
        let timestamp = Timestamp::from_millis(d.get_u64()?);
        let source = SourceId(d.get_u16()?);
        let level = Severity::from_tag(d.get_u8()?).ok_or(CodecError::Corrupt("severity tag"))?;
        let template = TemplateId(d.get_u32()?);
        let n = d.get_len()?;
        let mut variables = Vec::with_capacity(n);
        for _ in 0..n {
            variables.push(d.get_str()?);
        }
        let session = if d.get_bool()? {
            Some(SessionKey(d.get_str()?))
        } else {
            None
        };
        let trace = if d.get_bool()? {
            Some(TraceId(d.get_u64()?))
        } else {
            None
        };
        Ok(
            LogEvent::new(id, timestamp, source, level, template, variables, session)
                .with_trace(trace),
        )
    }
}

/// Interpret a variable token as a number if it looks like one.
///
/// Accepts integers, decimals and simple sign prefixes; rejects tokens with
/// trailing junk (`42ms`) so that unit-suffixed values don't silently parse
/// as their magnitude.
pub fn parse_numeric(token: &str) -> Option<f64> {
    if token.is_empty() {
        return None;
    }
    let body = token.strip_prefix(['-', '+']).unwrap_or(token);
    if body.is_empty() {
        return None;
    }
    let mut dots = 0;
    for b in body.bytes() {
        match b {
            b'0'..=b'9' => {}
            b'.' => {
                dots += 1;
                if dots > 1 {
                    return None;
                }
            }
            _ => return None,
        }
    }
    token.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_parsing_accepts_numbers() {
        assert_eq!(parse_numeric("42"), Some(42.0));
        assert_eq!(parse_numeric("-7"), Some(-7.0));
        assert_eq!(parse_numeric("3.5"), Some(3.5));
        assert_eq!(parse_numeric("+0.25"), Some(0.25));
        assert_eq!(parse_numeric("745675869"), Some(745_675_869.0));
    }

    #[test]
    fn numeric_parsing_rejects_junk() {
        for bad in ["", "x92", "42ms", "1.2.3", "10.250.11.53", "-", "+", "4e2"] {
            assert_eq!(parse_numeric(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn event_derives_numeric_variables() {
        let ev = LogEvent::new(
            EventId(1),
            Timestamp::from_millis(0),
            SourceId(0),
            Severity::Info,
            TemplateId(0),
            vec!["x92".into(), "42".into()],
            None,
        );
        assert_eq!(ev.numeric_variables, vec![None, Some(42.0)]);
        assert_eq!(ev.numeric_values().collect::<Vec<_>>(), vec![42.0]);
    }

    #[test]
    fn events_are_untraced_by_default() {
        let ev = LogEvent::new(
            EventId(1),
            Timestamp::from_millis(0),
            SourceId(0),
            Severity::Info,
            TemplateId(0),
            vec![],
            None,
        );
        assert_eq!(ev.trace, None);
        let traced = ev.with_trace(Some(TraceId(7)));
        assert_eq!(traced.trace, Some(TraceId(7)));
    }

    #[test]
    fn event_codec_round_trips() {
        let ev = LogEvent::new(
            EventId(9),
            Timestamp::from_millis(1_584_632_335_977),
            SourceId(3),
            Severity::Warning,
            TemplateId(12),
            vec!["x92".into(), "42".into()],
            Some(SessionKey("blk_-42".into())),
        )
        .with_trace(Some(TraceId(1024)));
        let mut e = Encoder::new();
        ev.encode_into(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let back = LogEvent::decode_from(&mut d).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.numeric_variables, vec![None, Some(42.0)]);
        assert!(d.is_exhausted());
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(LogEvent::decode_from(&mut d).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn table1_l3_value_is_numeric() {
        // Table I, L3: "Sending 745675869 bytes ..." — the unusual byte count
        // must be visible to quantitative-anomaly models as a number.
        assert_eq!(parse_numeric("745675869"), Some(745_675_869.0));
        // ...while the IP variables are not numbers.
        assert_eq!(parse_numeric("10.250.11.53"), None);
    }
}
