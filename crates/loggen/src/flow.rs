//! Execution-flow log generation.
//!
//! "Programs are usually executed according to a fixed flow, and logs are
//! produced according to those sequences" (Section III). A [`FlowSpec`]
//! models a program as a probabilistic state machine: each state emits one
//! log statement; weighted transitions choose the next state; missing
//! transitions terminate the walk.
//!
//! Anomalies are injected at walk time:
//! - **Sequential** anomalies perturb the walk itself (skip a state, jump to
//!   a wrong state, truncate) — the resulting lines use only *normal*
//!   templates, exactly the "sequences of non-anomalous logs leading to an
//!   undesired outcome" the paper describes.
//! - **Quantitative** anomalies keep the normal walk but draw one numeric
//!   variable from its anomalous distribution (Table I, L3).

use crate::truth::{GenLog, LineTruth, TokenKind, TruthTemplateId};
use crate::varspec::VarSpec;
use monilog_model::{AnomalyKind, LogHeader, LogRecord, Severity, SourceId, Timestamp};
use rand::{Rng, RngExt};

/// Index of a state within its [`FlowSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateId(pub usize);

/// One token of a statement pattern.
#[derive(Debug, Clone, PartialEq)]
enum Piece {
    /// A literal token.
    Static(String),
    /// A token containing a variable, possibly wrapped in literal text
    /// (Table I's `/{dest}` renders as `/10.250.11.53`).
    Var {
        var: usize,
        prefix: String,
        suffix: String,
    },
}

/// A log statement: the generator-side analogue of a template.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    pub truth: TruthTemplateId,
    pub level: Severity,
    pieces: Vec<Piece>,
    pub vars: Vec<VarSpec>,
    /// Extra fields rendered as a trailing structured payload — the
    /// API-service habit Section IV observes ("almost 60% of the tokens
    /// composing log messages are coming from JSON or XML-formatted data").
    /// Each field renders as exactly one whitespace token.
    pub payload_vars: Vec<VarSpec>,
    /// Payload dialect: `{k=v, ...}` braces (default) or an XML element run.
    pub payload_style: PayloadStyle,
}

/// How a statement's payload fields are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PayloadStyle {
    /// `{user_id=125, service_name=dart_vader}` — the paper's own example.
    #[default]
    KeyValueBraces,
    /// `<ctx><user_id>125</user_id>...</ctx>` — the XML habit the paper
    /// also names. Each field still renders as one whitespace token.
    Xml,
}

/// A rendered statement: message text plus per-token ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedLine {
    pub message: String,
    pub token_kinds: Vec<TokenKind>,
    /// `(variable index, rendered value)` for each variable piece, in order.
    pub variables: Vec<(usize, String)>,
}

impl Statement {
    /// Build a statement from a pattern with `{name}` placeholders.
    ///
    /// Each placeholder must name one of `vars`. A placeholder may be
    /// embedded in a token (`/{dest}`), in which case the whole token counts
    /// as variable for ground-truth purposes.
    ///
    /// # Panics
    /// On unknown placeholder names or multiple placeholders in one token —
    /// generator definitions are code, so this is a programmer error.
    pub fn from_pattern(
        truth: TruthTemplateId,
        level: Severity,
        pattern: &str,
        vars: Vec<VarSpec>,
    ) -> Self {
        let pieces = pattern
            .split_whitespace()
            .map(|tok| match (tok.find('{'), tok.find('}')) {
                (Some(open), Some(close)) if open < close => {
                    let name = &tok[open + 1..close];
                    let var = vars
                        .iter()
                        .position(|v| v.name == name)
                        .unwrap_or_else(|| panic!("unknown variable {{{name}}} in {pattern:?}"));
                    let suffix = &tok[close + 1..];
                    assert!(
                        !suffix.contains('{'),
                        "multiple placeholders in one token: {tok:?}"
                    );
                    Piece::Var {
                        var,
                        prefix: tok[..open].to_string(),
                        suffix: suffix.to_string(),
                    }
                }
                _ => Piece::Static(tok.to_string()),
            })
            .collect();
        Statement {
            truth,
            level,
            pieces,
            vars,
            payload_vars: Vec::new(),
            payload_style: PayloadStyle::default(),
        }
    }

    /// Attach a trailing structured payload (`{k=v, k=v}`) to the statement.
    pub fn with_payload(mut self, payload_vars: Vec<VarSpec>) -> Self {
        assert!(!payload_vars.is_empty(), "payload needs at least one field");
        self.payload_vars = payload_vars;
        self
    }

    /// Render the payload as an XML element run instead of `{k=v}` braces.
    pub fn with_xml_payload(mut self, payload_vars: Vec<VarSpec>) -> Self {
        assert!(!payload_vars.is_empty(), "payload needs at least one field");
        self.payload_vars = payload_vars;
        self.payload_style = PayloadStyle::Xml;
        self
    }

    /// Number of whitespace tokens this statement renders to (payload fields
    /// render one token each).
    pub fn token_len(&self) -> usize {
        self.pieces.len() + self.payload_vars.len()
    }

    /// Indices of numeric variables (candidates for quantitative anomalies).
    pub fn numeric_vars(&self) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_numeric())
            .map(|(i, _)| i)
            .collect()
    }

    /// The ground-truth template pattern with `<*>` at variable tokens.
    pub fn truth_pattern(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.pieces.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match p {
                Piece::Static(s) => out.push_str(s),
                Piece::Var { .. } => out.push_str("<*>"),
            }
        }
        for _ in &self.payload_vars {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str("<*>");
        }
        out
    }

    /// Render the statement.
    ///
    /// - `overrides` pins specific variables (by name) to fixed values —
    ///   used for session ids so every line of a session shares the key.
    /// - `anomalous_var` draws that variable from its anomalous
    ///   distribution instead of the normal one.
    pub fn render<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        overrides: &[(&str, &str)],
        anomalous_var: Option<usize>,
    ) -> RenderedLine {
        let values: Vec<String> = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                if let Some((_, v)) = overrides.iter().find(|(name, _)| *name == spec.name) {
                    (*v).to_string()
                } else if anomalous_var == Some(i) {
                    spec.sample_anomalous(rng)
                } else {
                    spec.sample(rng)
                }
            })
            .collect();
        let mut message = String::with_capacity(self.pieces.len() * 8);
        let mut token_kinds = Vec::with_capacity(self.pieces.len());
        let mut variables = Vec::new();
        for (i, piece) in self.pieces.iter().enumerate() {
            if i > 0 {
                message.push(' ');
            }
            match piece {
                Piece::Static(s) => {
                    message.push_str(s);
                    token_kinds.push(TokenKind::Static);
                }
                Piece::Var {
                    var,
                    prefix,
                    suffix,
                } => {
                    message.push_str(prefix);
                    message.push_str(&values[*var]);
                    message.push_str(suffix);
                    token_kinds.push(TokenKind::Variable);
                    variables.push((*var, values[*var].clone()));
                }
            }
        }
        // Trailing structured payload, one token per field.
        for (pi, spec) in self.payload_vars.iter().enumerate() {
            let value = spec.sample(rng);
            if !message.is_empty() {
                message.push(' ');
            }
            match self.payload_style {
                PayloadStyle::KeyValueBraces => {
                    // `{k1=v1, k2=v2}`
                    if pi == 0 {
                        message.push('{');
                    }
                    message.push_str(&spec.name);
                    message.push('=');
                    message.push_str(&value);
                    if pi + 1 == self.payload_vars.len() {
                        message.push('}');
                    } else {
                        message.push(',');
                    }
                }
                PayloadStyle::Xml => {
                    // `<ctx><k1>v1</k1> <k2>v2</k2></ctx>` — field tokens.
                    if pi == 0 {
                        message.push_str("<ctx>");
                    }
                    let _ = std::fmt::Write::write_fmt(
                        &mut message,
                        format_args!("<{n}>{value}</{n}>", n = spec.name),
                    );
                    if pi + 1 == self.payload_vars.len() {
                        message.push_str("</ctx>");
                    }
                }
            }
            token_kinds.push(TokenKind::Variable);
            variables.push((self.vars.len() + pi, value));
        }
        RenderedLine {
            message,
            token_kinds,
            variables,
        }
    }
}

/// Weighted transition to another state (`None` target = flow ends).
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    pub to: Option<StateId>,
    pub weight: f64,
}

impl Transition {
    pub fn to(state: usize, weight: f64) -> Self {
        Transition {
            to: Some(StateId(state)),
            weight,
        }
    }

    pub fn end(weight: f64) -> Self {
        Transition { to: None, weight }
    }
}

/// One state of a flow: the statement it logs and where it can go next.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    pub statement: Statement,
    /// Weighted next states; empty means the flow always ends here.
    pub transitions: Vec<Transition>,
}

/// Kinds of walk perturbation used to create sequential anomalies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SequentialAnomaly {
    /// Omit one mid-walk line (a step that should have been logged wasn't).
    SkipState,
    /// Jump to a uniformly random state instead of a legal successor
    /// (Table I's `L1 → L4`: normal lines in an impossible order).
    WrongJump,
    /// End the walk early (the program died mid-flow).
    Truncate,
}

impl SequentialAnomaly {
    pub const ALL: [SequentialAnomaly; 3] = [
        SequentialAnomaly::SkipState,
        SequentialAnomaly::WrongJump,
        SequentialAnomaly::Truncate,
    ];
}

/// A program's logging behaviour: states, transitions, identity.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    pub name: String,
    /// Component name written into headers (Fig. 2's `serviceManager`).
    pub component: String,
    pub states: Vec<FlowState>,
    pub start: StateId,
    /// Name of the variable carrying the session key, if this flow is
    /// session-scoped (e.g. `"block"` for the HDFS-like flow).
    pub session_var: Option<String>,
}

impl FlowSpec {
    /// All distinct statements of this flow, for ground-truth inventories.
    pub fn statements(&self) -> impl Iterator<Item = &Statement> {
        self.states.iter().map(|s| &s.statement)
    }

    fn pick_next<R: Rng + ?Sized>(&self, state: StateId, rng: &mut R) -> Option<StateId> {
        let transitions = &self.states[state.0].transitions;
        if transitions.is_empty() {
            return None;
        }
        let total: f64 = transitions.iter().map(|t| t.weight).sum();
        let mut roll = rng.random_range(0.0..total);
        for t in transitions {
            roll -= t.weight;
            if roll <= 0.0 {
                return t.to;
            }
        }
        transitions.last().and_then(|t| t.to)
    }

    /// Generate the state sequence of one walk, capped at `max_len` states
    /// to keep cyclic flows finite.
    pub fn walk_states<R: Rng + ?Sized>(&self, rng: &mut R, max_len: usize) -> Vec<StateId> {
        let mut seq = Vec::new();
        let mut cur = Some(self.start);
        while let Some(state) = cur {
            seq.push(state);
            if seq.len() >= max_len {
                break;
            }
            cur = self.pick_next(state, rng);
        }
        seq
    }

    /// Perturb a normal state sequence into a sequentially-anomalous one.
    /// Returns `None` when the walk is too short to perturb meaningfully.
    pub fn perturb<R: Rng + ?Sized>(
        &self,
        states: &[StateId],
        kind: SequentialAnomaly,
        rng: &mut R,
    ) -> Option<Vec<StateId>> {
        match kind {
            SequentialAnomaly::SkipState => {
                if states.len() < 3 {
                    return None;
                }
                let victim = rng.random_range(1..states.len() - 1);
                let mut out = states.to_vec();
                out.remove(victim);
                Some(out)
            }
            SequentialAnomaly::WrongJump => {
                if states.len() < 2 || self.states.len() < 2 {
                    return None;
                }
                let pos = rng.random_range(1..states.len());
                let mut out = states.to_vec();
                // Jump somewhere that is not a legal successor of pos-1.
                let legal: Vec<StateId> = self.states[out[pos - 1].0]
                    .transitions
                    .iter()
                    .filter_map(|t| t.to)
                    .collect();
                let candidates: Vec<StateId> = (0..self.states.len())
                    .map(StateId)
                    .filter(|s| !legal.contains(s) && *s != out[pos - 1])
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                out[pos] = candidates[rng.random_range(0..candidates.len())];
                out.truncate(pos + 1);
                Some(out)
            }
            SequentialAnomaly::Truncate => {
                if states.len() < 3 {
                    return None;
                }
                let keep = rng.random_range(1..states.len() - 1);
                Some(states[..keep].to_vec())
            }
        }
    }
}

/// Configuration of one generation run over a set of flows.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkConfig {
    /// Fraction of sessions perturbed into sequential anomalies.
    pub sequential_anomaly_rate: f64,
    /// Fraction of sessions given one quantitative anomaly.
    pub quantitative_anomaly_rate: f64,
    /// Maximum states per walk (cycle guard).
    pub max_walk_len: usize,
    /// Mean inter-line gap within a session, milliseconds.
    pub mean_line_gap_ms: u64,
    /// Mean gap between session starts, milliseconds.
    pub mean_session_gap_ms: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        WalkConfig {
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            max_walk_len: 64,
            mean_line_gap_ms: 40,
            mean_session_gap_ms: 15,
        }
    }
}

/// A set of flows emitted by one log source, plus the walk scheduler.
#[derive(Debug, Clone)]
pub struct FlowWorkload {
    pub source: SourceId,
    pub flows: Vec<FlowSpec>,
    pub config: WalkConfig,
}

impl FlowWorkload {
    pub fn new(source: SourceId, flows: Vec<FlowSpec>, config: WalkConfig) -> Self {
        assert!(!flows.is_empty(), "a workload needs at least one flow");
        FlowWorkload {
            source,
            flows,
            config,
        }
    }

    /// Generate `n_sessions` interleaved session walks starting at `start`,
    /// returning time-ordered lines with ground truth.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n_sessions: usize,
        start: Timestamp,
        session_counter: &mut u64,
    ) -> Vec<GenLog> {
        let mut lines: Vec<(Timestamp, GenLog)> = Vec::new();
        let mut session_start = start;
        for _ in 0..n_sessions {
            let flow = &self.flows[rng.random_range(0..self.flows.len())];
            *session_counter += 1;
            let session_key = format!("{}_{}", flow.name, session_counter);
            let states = flow.walk_states(rng, self.config.max_walk_len);

            let seq_anomaly = rng.random_bool(self.config.sequential_anomaly_rate);
            let (states, is_seq_anomalous) = if seq_anomaly {
                let kind =
                    SequentialAnomaly::ALL[rng.random_range(0..SequentialAnomaly::ALL.len())];
                match flow.perturb(&states, kind, rng) {
                    Some(p) => (p, true),
                    None => (states, false),
                }
            } else {
                (states, false)
            };

            // Pick a line/variable for a quantitative anomaly, if any.
            let quant_target: Option<(usize, usize)> =
                if !is_seq_anomalous && rng.random_bool(self.config.quantitative_anomaly_rate) {
                    let candidates: Vec<(usize, usize)> = states
                        .iter()
                        .enumerate()
                        .flat_map(|(li, sid)| {
                            flow.states[sid.0]
                                .statement
                                .numeric_vars()
                                .into_iter()
                                .map(move |vi| (li, vi))
                        })
                        .collect();
                    if candidates.is_empty() {
                        None
                    } else {
                        Some(candidates[rng.random_range(0..candidates.len())])
                    }
                } else {
                    None
                };

            let mut ts = session_start;
            for (li, sid) in states.iter().enumerate() {
                let statement = &flow.states[sid.0].statement;
                let overrides: Vec<(&str, &str)> = flow
                    .session_var
                    .as_deref()
                    .map(|name| (name, session_key.as_str()))
                    .into_iter()
                    .collect();
                let anomalous_var = quant_target.filter(|(l, _)| *l == li).map(|(_, v)| v);
                let rendered = statement.render(rng, &overrides, anomalous_var);
                let anomaly = if is_seq_anomalous {
                    Some(AnomalyKind::Sequential)
                } else if anomalous_var.is_some() {
                    Some(AnomalyKind::Quantitative)
                } else {
                    None
                };
                let mut truth = LineTruth::normal(statement.truth, rendered.token_kinds.clone())
                    .with_session(session_key.clone());
                truth.anomaly = anomaly;
                let record = LogRecord {
                    source: self.source,
                    seq: 0, // assigned at merge time
                    header: LogHeader::new(ts, flow.component.clone(), statement.level),
                    message: rendered.message.into(),
                };
                lines.push((ts, GenLog { record, truth }));
                ts = ts.advanced(1 + rng.random_range(0..self.config.mean_line_gap_ms.max(1) * 2));
            }
            session_start = session_start
                .advanced(1 + rng.random_range(0..self.config.mean_session_gap_ms.max(1) * 2));
        }
        lines.sort_by_key(|(ts, _)| *ts);
        let mut out: Vec<GenLog> = lines.into_iter().map(|(_, l)| l).collect();
        for (i, line) in out.iter_mut().enumerate() {
            line.record.seq = i as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varspec::VarKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table1_statement() -> Statement {
        // Table I, L1/L3: "Sending {bytes} bytes src: {src} dest: /{dest}"
        Statement::from_pattern(
            TruthTemplateId(0),
            Severity::Info,
            "Sending {bytes} bytes src: {src} dest: /{dest}",
            vec![
                VarSpec::new("bytes", VarKind::Int { lo: 1, hi: 4096 }),
                VarSpec::new("src", VarKind::Ip { prefix: [10, 250] }),
                VarSpec::new("dest", VarKind::Ip { prefix: [10, 250] }),
            ],
        )
    }

    fn two_state_flow() -> FlowSpec {
        let s0 = Statement::from_pattern(
            TruthTemplateId(0),
            Severity::Info,
            "start session {session}",
            vec![VarSpec::new("session", VarKind::Hex { len: 8 })],
        );
        let s1 = Statement::from_pattern(
            TruthTemplateId(1),
            Severity::Info,
            "work on {session} took {ms} ms",
            vec![
                VarSpec::new("session", VarKind::Hex { len: 8 }),
                VarSpec::new("ms", VarKind::DurationMs { lo: 1, hi: 100 }),
            ],
        );
        let s2 = Statement::from_pattern(
            TruthTemplateId(2),
            Severity::Info,
            "end session {session}",
            vec![VarSpec::new("session", VarKind::Hex { len: 8 })],
        );
        FlowSpec {
            name: "job".into(),
            component: "worker".into(),
            states: vec![
                FlowState {
                    statement: s0,
                    transitions: vec![Transition::to(1, 1.0)],
                },
                FlowState {
                    statement: s1,
                    transitions: vec![Transition::to(1, 0.5), Transition::to(2, 0.5)],
                },
                FlowState {
                    statement: s2,
                    transitions: vec![],
                },
            ],
            start: StateId(0),
            session_var: Some("session".into()),
        }
    }

    #[test]
    fn pattern_parsing_and_rendering() {
        let st = table1_statement();
        assert_eq!(st.token_len(), 7, "Table I: L1 has 7 tokens");
        let mut rng = StdRng::seed_from_u64(1);
        let line = st.render(&mut rng, &[], None);
        assert_eq!(line.token_kinds.len(), 7);
        assert_eq!(
            line.token_kinds,
            vec![
                TokenKind::Static,   // Sending
                TokenKind::Variable, // 138
                TokenKind::Static,   // bytes
                TokenKind::Static,   // src:
                TokenKind::Variable, // ip
                TokenKind::Static,   // dest:
                TokenKind::Variable, // /ip
            ]
        );
        let toks: Vec<&str> = line.message.split_whitespace().collect();
        assert_eq!(toks[0], "Sending");
        assert!(
            toks[6].starts_with("/10.250."),
            "embedded prefix kept: {}",
            toks[6]
        );
    }

    #[test]
    fn truth_pattern_marks_variables() {
        assert_eq!(
            table1_statement().truth_pattern(),
            "Sending <*> bytes src: <*> dest: <*>"
        );
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn unknown_placeholder_panics() {
        Statement::from_pattern(TruthTemplateId(0), Severity::Info, "x {nope}", vec![]);
    }

    #[test]
    fn overrides_pin_session_values() {
        let st = Statement::from_pattern(
            TruthTemplateId(0),
            Severity::Info,
            "block {block} ok",
            vec![VarSpec::new("block", VarKind::Hex { len: 6 })],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let line = st.render(&mut rng, &[("block", "blk_99")], None);
        assert_eq!(line.message, "block blk_99 ok");
    }

    #[test]
    fn anomalous_var_changes_magnitude() {
        let st = table1_statement();
        let mut rng = StdRng::seed_from_u64(3);
        let line = st.render(&mut rng, &[], Some(0));
        let bytes: i64 = line.variables[0].1.parse().unwrap();
        assert!(bytes > 4096, "anomalous bytes value {bytes} not extreme");
    }

    #[test]
    fn payload_renders_one_token_per_field() {
        let st = Statement::from_pattern(
            TruthTemplateId(0),
            Severity::Info,
            "Send {n} bytes to {ip}",
            vec![
                VarSpec::new("n", VarKind::Int { lo: 1, hi: 100 }),
                VarSpec::new("ip", VarKind::Ip { prefix: [121, 13] }),
            ],
        )
        .with_payload(vec![
            VarSpec::new("user_id", VarKind::Int { lo: 1, hi: 500 }),
            VarSpec::new(
                "service_name",
                VarKind::Word {
                    choices: vec!["dart_vader".into()],
                },
            ),
        ]);
        assert_eq!(st.token_len(), 7);
        let mut rng = StdRng::seed_from_u64(11);
        let line = st.render(&mut rng, &[], None);
        let tokens: Vec<&str> = line.message.split_whitespace().collect();
        assert_eq!(tokens.len(), 7, "message: {}", line.message);
        assert!(tokens[5].starts_with("{user_id="), "{}", tokens[5]);
        assert!(tokens[6].starts_with("service_name=") && tokens[6].ends_with('}'));
        // The payload region must round-trip through the extractor.
        let (text, payload) = monilog_model::extract_structured(&line.message);
        assert_eq!(payload.fields.len(), 2);
        assert!(text.starts_with("Send "), "{text}");
        assert_eq!(payload.get("service_name"), Some("dart_vader"));
        // Ground truth: payload tokens are variables.
        assert_eq!(line.token_kinds[5], TokenKind::Variable);
        assert_eq!(line.token_kinds[6], TokenKind::Variable);
        assert_eq!(st.truth_pattern(), "Send <*> bytes to <*> <*> <*>");
    }

    #[test]
    fn xml_payload_renders_and_extracts() {
        let st = Statement::from_pattern(
            TruthTemplateId(0),
            Severity::Info,
            "vm event recorded",
            vec![],
        )
        .with_xml_payload(vec![
            VarSpec::new(
                "vm_id",
                VarKind::PrefixedId {
                    prefix: "i-".into(),
                    max: 100,
                },
            ),
            VarSpec::new(
                "state",
                VarKind::Word {
                    choices: vec!["running".into()],
                },
            ),
        ]);
        assert_eq!(st.token_len(), 5);
        let mut rng = StdRng::seed_from_u64(12);
        let line = st.render(&mut rng, &[], None);
        let tokens: Vec<&str> = line.message.split_whitespace().collect();
        assert_eq!(tokens.len(), 5, "message: {}", line.message);
        assert!(tokens[3].starts_with("<ctx><vm_id>"), "{}", tokens[3]);
        assert!(tokens[4].ends_with("</state></ctx>"), "{}", tokens[4]);
        // The XML run must round-trip through the model's extractor.
        let (text, payload) = monilog_model::extract_structured(&line.message);
        assert_eq!(text, "vm event recorded");
        assert_eq!(payload.get("ctx.state"), Some("running"));
        assert!(payload.get("ctx.vm_id").is_some());
    }

    #[test]
    fn walks_follow_transitions() {
        let flow = two_state_flow();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let states = flow.walk_states(&mut rng, 64);
            assert_eq!(states[0], StateId(0));
            assert_eq!(*states.last().unwrap(), StateId(2));
            // All middle states are the work state.
            for s in &states[1..states.len() - 1] {
                assert_eq!(*s, StateId(1));
            }
        }
    }

    #[test]
    fn walk_respects_max_len() {
        let flow = two_state_flow();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            assert!(flow.walk_states(&mut rng, 5).len() <= 5);
        }
    }

    #[test]
    fn perturbations_change_the_sequence() {
        let flow = two_state_flow();
        let mut rng = StdRng::seed_from_u64(6);
        let states = vec![StateId(0), StateId(1), StateId(1), StateId(2)];
        for kind in SequentialAnomaly::ALL {
            if let Some(p) = flow.perturb(&states, kind, &mut rng) {
                assert_ne!(p, states, "{kind:?} produced an identical walk");
                assert!(!p.is_empty());
            }
        }
    }

    #[test]
    fn skip_preserves_endpoints() {
        let flow = two_state_flow();
        let mut rng = StdRng::seed_from_u64(7);
        let states = vec![StateId(0), StateId(1), StateId(1), StateId(2)];
        let p = flow
            .perturb(&states, SequentialAnomaly::SkipState, &mut rng)
            .unwrap();
        assert_eq!(p.len(), states.len() - 1);
        assert_eq!(p[0], StateId(0));
        assert_eq!(*p.last().unwrap(), StateId(2));
    }

    #[test]
    fn generate_produces_time_ordered_sessions() {
        let workload =
            FlowWorkload::new(SourceId(1), vec![two_state_flow()], WalkConfig::default());
        let mut rng = StdRng::seed_from_u64(8);
        let mut counter = 0;
        let logs = workload.generate(&mut rng, 20, Timestamp::from_millis(1_000), &mut counter);
        assert!(!logs.is_empty());
        for w in logs.windows(2) {
            assert!(w[0].record.header.timestamp <= w[1].record.header.timestamp);
        }
        // Sequence numbers are dense.
        for (i, l) in logs.iter().enumerate() {
            assert_eq!(l.record.seq, i as u64);
        }
        // Every line carries its session, and sessions have ≥ 2 lines
        // (start + end at minimum... actually ≥ 3 for this flow).
        for l in &logs {
            assert!(l.truth.session.is_some());
        }
    }

    #[test]
    fn anomaly_rates_are_respected_roughly() {
        let config = WalkConfig {
            sequential_anomaly_rate: 0.5,
            quantitative_anomaly_rate: 0.3,
            ..WalkConfig::default()
        };
        let workload = FlowWorkload::new(SourceId(0), vec![two_state_flow()], config);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counter = 0;
        let logs = workload.generate(&mut rng, 300, Timestamp::EPOCH, &mut counter);
        let mut seq_sessions = std::collections::HashSet::new();
        let mut quant_sessions = std::collections::HashSet::new();
        let mut all_sessions = std::collections::HashSet::new();
        for l in &logs {
            let s = l.truth.session.clone().unwrap();
            all_sessions.insert(s.clone());
            match l.truth.anomaly {
                Some(AnomalyKind::Sequential) => {
                    seq_sessions.insert(s);
                }
                Some(AnomalyKind::Quantitative) => {
                    quant_sessions.insert(s);
                }
                None => {}
            }
        }
        let n = all_sessions.len() as f64;
        let seq_rate = seq_sessions.len() as f64 / n;
        let quant_rate = quant_sessions.len() as f64 / n;
        assert!(
            (0.30..=0.65).contains(&seq_rate),
            "sequential rate {seq_rate}"
        );
        assert!(
            (0.10..=0.50).contains(&quant_rate),
            "quantitative rate {quant_rate}"
        );
    }

    #[test]
    fn quantitative_anomaly_marks_exactly_one_line() {
        let config = WalkConfig {
            quantitative_anomaly_rate: 1.0,
            ..WalkConfig::default()
        };
        let workload = FlowWorkload::new(SourceId(0), vec![two_state_flow()], config);
        let mut rng = StdRng::seed_from_u64(10);
        let mut counter = 0;
        let logs = workload.generate(&mut rng, 50, Timestamp::EPOCH, &mut counter);
        let mut by_session: std::collections::HashMap<String, usize> = Default::default();
        for l in &logs {
            if l.truth.anomaly == Some(AnomalyKind::Quantitative) {
                *by_session
                    .entry(l.truth.session.clone().unwrap())
                    .or_default() += 1;
            }
        }
        for (session, count) in by_session {
            assert_eq!(count, 1, "session {session} has {count} quantitative lines");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::varspec::VarKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        /// Rendering always produces exactly token_len() whitespace tokens,
        /// and token kinds line up with the message tokens — the invariant
        /// the Eq. 1 metric depends on.
        #[test]
        fn rendered_token_count_matches(seed: u64) {
            let st = Statement::from_pattern(
                TruthTemplateId(0),
                Severity::Info,
                "op {op} on {path} took {ms} ms from {ip}",
                vec![
                    VarSpec::new("op", VarKind::Word { choices: vec!["get".into(), "put".into()] }),
                    VarSpec::new("path", VarKind::Path { depth: 3 }),
                    VarSpec::new("ms", VarKind::DurationMs { lo: 1, hi: 500 }),
                    VarSpec::new("ip", VarKind::Ip { prefix: [172, 16] }),
                ],
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let line = st.render(&mut rng, &[], None);
            let tokens: Vec<&str> = line.message.split_whitespace().collect();
            prop_assert_eq!(tokens.len(), st.token_len());
            prop_assert_eq!(line.token_kinds.len(), st.token_len());
        }

        /// Walks never exceed the cap and always start at the start state.
        #[test]
        fn walks_bounded(seed: u64, cap in 1usize..20) {
            let flow = FlowSpec {
                name: "loop".into(),
                component: "c".into(),
                states: vec![FlowState {
                    statement: Statement::from_pattern(
                        TruthTemplateId(0), Severity::Info, "tick", vec![]),
                    transitions: vec![Transition::to(0, 1.0)],
                }],
                start: StateId(0),
                session_var: None,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let states = flow.walk_states(&mut rng, cap);
            prop_assert_eq!(states.len(), cap, "cyclic flow runs to the cap");
            prop_assert_eq!(states[0], StateId(0));
        }
    }
}
