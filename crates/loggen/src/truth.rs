//! Ground-truth labels attached to every generated log line.

use monilog_model::{AnomalyKind, LogRecord};

/// Generator-side template identifier. Distinct from the parser-side
/// `monilog_model::TemplateId`: parsers must *discover* templates, and the
/// evaluation compares their discovery against these true ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TruthTemplateId(pub u32);

/// Whether a message token is part of the static template text or a
/// variable value — the ground truth for the paper's Eq. 1 token metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    Static,
    Variable,
}

/// Everything we know about a generated line that a real dataset would not
/// tell us.
#[derive(Debug, Clone, PartialEq)]
pub struct LineTruth {
    /// True template of the line.
    pub template: TruthTemplateId,
    /// Static/variable kind of each whitespace token of the *message*.
    pub token_kinds: Vec<TokenKind>,
    /// Session the line belongs to (HDFS block, request id, ...), if any.
    pub session: Option<String>,
    /// Anomaly membership: `None` for normal lines; otherwise the kind of
    /// anomaly this line is evidence of.
    pub anomaly: Option<AnomalyKind>,
    /// True if this line's *statement* was altered by the instability
    /// injector (used to measure robustness to log evolution).
    pub unstable: bool,
}

impl LineTruth {
    pub fn normal(template: TruthTemplateId, token_kinds: Vec<TokenKind>) -> Self {
        LineTruth {
            template,
            token_kinds,
            session: None,
            anomaly: None,
            unstable: false,
        }
    }

    pub fn with_session(mut self, session: impl Into<String>) -> Self {
        self.session = Some(session.into());
        self
    }

    pub fn with_anomaly(mut self, kind: AnomalyKind) -> Self {
        self.anomaly = Some(kind);
        self
    }

    pub fn is_anomalous(&self) -> bool {
        self.anomaly.is_some()
    }
}

/// A generated log line: the record itself plus its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct GenLog {
    pub record: LogRecord,
    pub truth: LineTruth,
}

impl GenLog {
    /// Convenience: the message text of the record.
    pub fn message(&self) -> &str {
        &self.record.message
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_builders() {
        let t = LineTruth::normal(
            TruthTemplateId(3),
            vec![TokenKind::Static, TokenKind::Variable],
        )
        .with_session("blk_42")
        .with_anomaly(AnomalyKind::Quantitative);
        assert_eq!(t.template, TruthTemplateId(3));
        assert_eq!(t.session.as_deref(), Some("blk_42"));
        assert!(t.is_anomalous());
        assert!(!t.unstable);
    }

    #[test]
    fn normal_truth_is_not_anomalous() {
        let t = LineTruth::normal(TruthTemplateId(0), vec![]);
        assert!(!t.is_anomalous());
        assert_eq!(t.anomaly, None);
    }
}
