//! Raw and structured log records.
//!
//! A *raw* log is a line of text tagged with the source that produced it and
//! a monotone ingestion sequence number. Header parsing turns it into a
//! [`LogRecord`]: a structured [`LogHeader`] plus the free-text message that
//! the parsing component will template-ize.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::line::ByteLine;
use crate::severity::Severity;
use crate::time::Timestamp;
use std::fmt;

/// Identifier of a log source (one of the paper's "24 different log sources"
/// feeding a single system). Dense small integers so per-source state can
/// live in a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SourceId(pub u16);

impl SourceId {
    pub fn as_index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}

/// An unparsed log line as it arrives from a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawLog {
    /// Which source emitted the line.
    pub source: SourceId,
    /// Ingestion sequence number, assigned by the collector. Strictly
    /// increasing per source; used to detect duplicates and reordering.
    pub seq: u64,
    /// The raw line, header included. A view into the arrival buffer the
    /// line was read from — cloning a `RawLog` does not copy the text.
    pub line: ByteLine,
}

impl RawLog {
    pub fn new(source: SourceId, seq: u64, line: impl Into<ByteLine>) -> Self {
        RawLog {
            source,
            seq,
            line: line.into(),
        }
    }
}

/// The structured header of a log line (Fig. 2: TIMESTAMP / SOURCE / LEVEL).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHeader {
    pub timestamp: Timestamp,
    /// The component name written in the header (e.g. `serviceManager`).
    /// Distinct from [`SourceId`], which identifies the *stream* the line
    /// arrived on; one stream can carry several components.
    pub component: String,
    pub level: Severity,
}

impl LogHeader {
    pub fn new(timestamp: Timestamp, component: impl Into<String>, level: Severity) -> Self {
        LogHeader {
            timestamp,
            component: component.into(),
            level,
        }
    }
}

/// A log line after header parsing: structured header + free-text message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    pub source: SourceId,
    pub seq: u64,
    pub header: LogHeader,
    /// The MESSAGE field — "a text field without format constraint".
    /// Usually a suffix view of the raw line's arrival buffer; an owned
    /// `String` only materializes at the pipeline's edges.
    pub message: ByteLine,
}

impl LogRecord {
    /// Render back to the canonical single-line textual form used by the
    /// generators: `<timestamp> - <component> - <LEVEL> - <message>`.
    pub fn to_line(&self) -> String {
        format!(
            "{} - {} - {} - {}",
            self.header.timestamp.to_log_format(),
            self.header.component,
            self.header.level,
            self.message
        )
    }

    /// Append this record to an in-progress binary encoding. Used by the
    /// durable pipeline checkpoint to persist reorder-buffer contents.
    pub fn encode_into(&self, e: &mut Encoder) {
        e.put_u16(self.source.0);
        e.put_u64(self.seq);
        e.put_u64(self.header.timestamp.as_millis());
        e.put_str(&self.header.component);
        e.put_u8(self.header.level.to_tag());
        e.put_str(&self.message);
    }

    /// Inverse of [`LogRecord::encode_into`].
    pub fn decode_from(d: &mut Decoder<'_>) -> Result<LogRecord, CodecError> {
        let source = SourceId(d.get_u16()?);
        let seq = d.get_u64()?;
        let timestamp = Timestamp::from_millis(d.get_u64()?);
        let component = d.get_str()?;
        let level = Severity::from_tag(d.get_u8()?).ok_or(CodecError::Corrupt("severity tag"))?;
        let message = ByteLine::from_string(d.get_str()?);
        Ok(LogRecord {
            source,
            seq,
            header: LogHeader::new(timestamp, component, level),
            message,
        })
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> LogRecord {
        LogRecord {
            source: SourceId(3),
            seq: 42,
            header: LogHeader::new(
                Timestamp::parse_log_format("2020-03-19 15:38:55,977").unwrap(),
                "serviceManager",
                Severity::Info,
            ),
            message: "New process started: process x92 started on port 42".into(),
        }
    }

    #[test]
    fn renders_fig2_line() {
        // The exact log line of Fig. 2 in the paper.
        assert_eq!(
            record().to_line(),
            "2020-03-19 15:38:55,977 - serviceManager - INFO - \
             New process started: process x92 started on port 42"
        );
    }

    #[test]
    fn display_matches_to_line() {
        let r = record();
        assert_eq!(format!("{r}"), r.to_line());
    }

    #[test]
    fn record_codec_round_trips() {
        let r = record();
        let mut e = Encoder::new();
        r.encode_into(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(LogRecord::decode_from(&mut d).unwrap(), r);
        assert!(d.is_exhausted());
        // Truncation anywhere errors rather than panicking.
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(LogRecord::decode_from(&mut d).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn source_id_index() {
        assert_eq!(SourceId(7).as_index(), 7);
        assert_eq!(format!("{}", SourceId(7)), "src7");
    }
}
