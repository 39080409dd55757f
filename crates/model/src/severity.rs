//! Log criticality levels.
//!
//! The header of a log line carries a criticality level (Fig. 2: `INFO`).
//! We support the common six-level ladder; unknown strings map to
//! [`Severity::Unknown`] rather than failing, because MoniLog must ingest
//! logs from 24+ heterogeneous sources without per-source configuration.

use std::fmt;
use std::str::FromStr;

/// Criticality level of a log record's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    Trace,
    Debug,
    Info,
    Warning,
    Error,
    Critical,
    /// A level string this parser did not recognize. Kept (rather than an
    /// error) so one misconfigured source cannot stall the pipeline.
    Unknown,
}

impl Severity {
    /// All concrete severities, in ascending order of criticality.
    pub const ALL: [Severity; 6] = [
        Severity::Trace,
        Severity::Debug,
        Severity::Info,
        Severity::Warning,
        Severity::Error,
        Severity::Critical,
    ];

    /// Canonical upper-case name as it appears in log headers.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Trace => "TRACE",
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warning => "WARNING",
            Severity::Error => "ERROR",
            Severity::Critical => "CRITICAL",
            Severity::Unknown => "UNKNOWN",
        }
    }

    /// Stable one-byte wire tag for the binary codec. Checkpoints outlive
    /// process restarts, so this mapping must never be reordered.
    pub fn to_tag(self) -> u8 {
        match self {
            Severity::Trace => 0,
            Severity::Debug => 1,
            Severity::Info => 2,
            Severity::Warning => 3,
            Severity::Error => 4,
            Severity::Critical => 5,
            Severity::Unknown => 6,
        }
    }

    /// Inverse of [`Severity::to_tag`]; `None` for out-of-range bytes.
    pub fn from_tag(tag: u8) -> Option<Severity> {
        Some(match tag {
            0 => Severity::Trace,
            1 => Severity::Debug,
            2 => Severity::Info,
            3 => Severity::Warning,
            4 => Severity::Error,
            5 => Severity::Critical,
            6 => Severity::Unknown,
            _ => return None,
        })
    }

    /// True for levels that usually indicate a problem (`Error` and above).
    pub fn is_errorlike(self) -> bool {
        matches!(self, Severity::Error | Severity::Critical)
    }

    /// Numeric rank, `Trace = 0` .. `Critical = 5`; `Unknown` ranks with
    /// `Info` so it neither hides nor inflates alerts.
    pub fn rank(self) -> u8 {
        match self {
            Severity::Trace => 0,
            Severity::Debug => 1,
            Severity::Info | Severity::Unknown => 2,
            Severity::Warning => 3,
            Severity::Error => 4,
            Severity::Critical => 5,
        }
    }
}

impl FromStr for Severity {
    type Err = std::convert::Infallible;

    /// Case-insensitive; accepts the common aliases (`WARN`, `ERR`, `FATAL`,
    /// `SEVERE`). Never fails — unknown strings become [`Severity::Unknown`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut upper = [0u8; 16];
        let trimmed = s.trim();
        if trimmed.len() > upper.len() {
            return Ok(Severity::Unknown);
        }
        for (dst, src) in upper.iter_mut().zip(trimmed.bytes()) {
            *dst = src.to_ascii_uppercase();
        }
        Ok(match &upper[..trimmed.len()] {
            b"TRACE" => Severity::Trace,
            b"DEBUG" | b"FINE" => Severity::Debug,
            b"INFO" | b"NOTICE" => Severity::Info,
            b"WARN" | b"WARNING" => Severity::Warning,
            b"ERROR" | b"ERR" => Severity::Error,
            b"CRITICAL" | b"CRIT" | b"FATAL" | b"SEVERE" => Severity::Critical,
            _ => Severity::Unknown,
        })
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_tags_round_trip() {
        for sev in Severity::ALL.into_iter().chain([Severity::Unknown]) {
            assert_eq!(Severity::from_tag(sev.to_tag()), Some(sev));
        }
        assert_eq!(Severity::from_tag(7), None);
        assert_eq!(Severity::from_tag(255), None);
    }

    #[test]
    fn parses_canonical_names() {
        for sev in Severity::ALL {
            assert_eq!(sev.as_str().parse::<Severity>().unwrap(), sev);
        }
    }

    #[test]
    fn parses_aliases_and_case() {
        assert_eq!("warn".parse::<Severity>().unwrap(), Severity::Warning);
        assert_eq!("Fatal".parse::<Severity>().unwrap(), Severity::Critical);
        assert_eq!("eRr".parse::<Severity>().unwrap(), Severity::Error);
        assert_eq!(" INFO ".parse::<Severity>().unwrap(), Severity::Info);
    }

    #[test]
    fn unknown_never_fails() {
        assert_eq!("???".parse::<Severity>().unwrap(), Severity::Unknown);
        assert_eq!(
            "a-very-long-unrecognized-level-name"
                .parse::<Severity>()
                .unwrap(),
            Severity::Unknown
        );
        assert_eq!("".parse::<Severity>().unwrap(), Severity::Unknown);
    }

    #[test]
    fn rank_is_monotone_over_all() {
        let ranks: Vec<u8> = Severity::ALL.iter().map(|s| s.rank()).collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted);
    }

    #[test]
    fn errorlike_levels() {
        assert!(Severity::Error.is_errorlike());
        assert!(Severity::Critical.is_errorlike());
        assert!(!Severity::Warning.is_errorlike());
        assert!(!Severity::Unknown.is_errorlike());
    }
}
