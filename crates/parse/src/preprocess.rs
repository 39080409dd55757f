//! Variable masking (preprocessing).
//!
//! "During the preprocessing step, algorithms use human crafted regular
//! expressions to identify common variables such as URLs or IP addresses.
//! Preprocessing needs experts to define the regular expressions, which has
//! a cost in time and can lead to mistakes impacting the parsing
//! efficiency." (Section IV)
//!
//! We keep preprocessing *optional and explicit* so experiment P4 can
//! measure exactly that sensitivity. The recognizers are hand-rolled
//! scanners rather than regexes: they run per token on the hot path of
//! every parser.

pub use monilog_model::tokenize::TokenSpan;

use monilog_model::tokenize::token_spans_into;

/// Which token classes to mask to `<*>` before template matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskConfig {
    /// Pure integers / decimals (`42`, `3.14`, `-7`).
    pub numbers: bool,
    /// IPv4 addresses, with optional leading/trailing punctuation
    /// (`10.250.11.53`, `/10.250.11.53`).
    pub ipv4: bool,
    /// Hex identifiers of length ≥ 4 containing at least one digit.
    pub hex_ids: bool,
    /// Absolute unix paths (`/var/log/x`).
    pub paths: bool,
    /// Any token containing a digit (Drain's default aggressive heuristic).
    pub digit_tokens: bool,
    /// `key=value` tokens (mask the value part only conceptually; the whole
    /// token is treated as variable).
    pub key_values: bool,
    /// Identifier-with-counter tokens mixing letters and digits
    /// (`blk_17`, `x92`, `job-456`, `i-2a4f`) — the id shapes every cloud
    /// platform generates.
    pub id_tokens: bool,
}

impl MaskConfig {
    /// No masking at all — the fully-automated deployment the paper aims
    /// for ("being deployed without any human intervention").
    pub const NONE: MaskConfig = MaskConfig {
        numbers: false,
        ipv4: false,
        hex_ids: false,
        paths: false,
        digit_tokens: false,
        key_values: false,
        id_tokens: false,
    };

    /// The conservative defaults used by most published Drain setups.
    pub const STANDARD: MaskConfig = MaskConfig {
        numbers: true,
        ipv4: true,
        hex_ids: true,
        paths: true,
        digit_tokens: false,
        key_values: true,
        id_tokens: true,
    };

    /// Aggressive masking: any token containing a digit becomes `<*>`.
    pub const AGGRESSIVE: MaskConfig = MaskConfig {
        numbers: true,
        ipv4: true,
        hex_ids: true,
        paths: true,
        digit_tokens: true,
        key_values: true,
        id_tokens: true,
    };
}

impl Default for MaskConfig {
    fn default() -> Self {
        MaskConfig::STANDARD
    }
}

/// Applies a [`MaskConfig`] to message tokens.
#[derive(Debug, Clone, Default)]
pub struct Preprocessor {
    pub config: MaskConfig,
}

impl Preprocessor {
    pub fn new(config: MaskConfig) -> Self {
        Preprocessor { config }
    }

    /// Should this token be treated as a variable?
    ///
    /// One byte-class prescan gates the recognizer chain: every recognizer
    /// structurally requires a digit, a `=`, or a leading `/` (independent
    /// of [`MaskConfig`] — see each recognizer's definition), so the
    /// typical static token ("Receiving", "src:") is rejected in a single
    /// pass instead of six scans. This runs once per token per line.
    pub fn is_variable(&self, token: &str) -> bool {
        let mut has_digit = false;
        let mut has_eq = false;
        for &b in token.as_bytes() {
            match b {
                b'0'..=b'9' => has_digit = true,
                b'=' => has_eq = true,
                _ => {}
            }
        }
        let leading_slash = token.as_bytes().first() == Some(&b'/');
        if !has_digit && !has_eq && !leading_slash {
            return false;
        }
        let c = &self.config;
        (c.numbers && has_digit && is_number(token))
            || (c.ipv4 && has_digit && is_ipv4ish(token))
            || (c.hex_ids && has_digit && is_hex_id(token))
            || (c.paths && leading_slash && is_path(token))
            || (c.key_values && has_eq && is_key_value(token))
            || (c.id_tokens && has_digit && is_id_token(token))
            || (c.digit_tokens && has_digit)
    }

    /// Tokenize and mask a message: variable-looking tokens become `<*>`.
    /// Returns `(masked tokens, original tokens)`.
    pub fn mask<'a>(&self, message: &'a str) -> (Vec<&'a str>, Vec<&'a str>) {
        let mut spans = Vec::new();
        let mut masked = Vec::new();
        let mut original = Vec::new();
        self.mask_into(message, &mut spans, &mut masked, &mut original);
        (masked, original)
    }

    /// Allocation-free masking for the parse hot path: tokenizes with the
    /// SWAR span scanner and fills caller-owned buffers (cleared first),
    /// so a parser that recycles them does zero tokenization allocations
    /// per line in the steady state. Equivalent to [`Preprocessor::mask`]
    /// by construction (`mask` delegates here).
    pub fn mask_into<'a>(
        &self,
        message: &'a str,
        spans: &mut Vec<TokenSpan>,
        masked: &mut Vec<&'a str>,
        original: &mut Vec<&'a str>,
    ) {
        token_spans_into(message, spans);
        masked.clear();
        original.clear();
        masked.reserve(spans.len());
        original.reserve(spans.len());
        for &(start, end) in spans.iter() {
            let tok = &message[start as usize..end as usize];
            original.push(tok);
            masked.push(if self.is_variable(tok) { "<*>" } else { tok });
        }
    }
}

/// `42`, `-7`, `3.14`, `+0.5` — numbers with optional sign and one dot.
pub fn is_number(token: &str) -> bool {
    let body = token.strip_prefix(['-', '+']).unwrap_or(token);
    if body.is_empty() {
        return false;
    }
    let mut dots = 0;
    let mut digits = 0;
    for b in body.bytes() {
        match b {
            b'0'..=b'9' => digits += 1,
            b'.' => {
                dots += 1;
                if dots > 1 {
                    return false;
                }
            }
            _ => return false,
        }
    }
    digits > 0
}

/// An IPv4 address, possibly wrapped in one punctuation byte on either side
/// (`/10.0.0.1`, `10.0.0.1:8080` is *not* matched — the port changes shape).
pub fn is_ipv4ish(token: &str) -> bool {
    let inner = token
        .trim_start_matches(['/', '(', '[', '<'])
        .trim_end_matches([',', ';', ')', ']', '>', '.']);
    let mut parts = 0;
    for part in inner.split('.') {
        if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        match part.parse::<u16>() {
            Ok(v) if v <= 255 => parts += 1,
            _ => return false,
        }
    }
    parts == 4
}

/// Lowercase/uppercase hex string of length ≥ 4 with at least one digit
/// (`deadbeef`, `0x3f2a`, `a3f9c2`); rules out ordinary words.
pub fn is_hex_id(token: &str) -> bool {
    let body = token.strip_prefix("0x").unwrap_or(token);
    body.len() >= 4
        && body.bytes().all(|b| b.is_ascii_hexdigit())
        && body.bytes().any(|b| b.is_ascii_digit())
}

/// Absolute path with at least two segments.
pub fn is_path(token: &str) -> bool {
    token.starts_with('/') && token[1..].contains('/') && !token.contains("//")
}

/// Identifier-with-counter: contains at least one digit and at least one
/// letter, `_` or `-` (and nothing outside identifier characters), e.g.
/// `blk_17`, `x92`, `job-456`, `node17`. Plain words and plain numbers do
/// not qualify.
pub fn is_id_token(token: &str) -> bool {
    let mut has_digit = false;
    let mut has_ident = false;
    for b in token.bytes() {
        match b {
            b'0'..=b'9' => has_digit = true,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' | b'-' => has_ident = true,
            b'.' | b':' => {} // allow dotted/colon-joined ids
            _ => return false,
        }
    }
    has_digit && has_ident
}

/// `key=value` with a non-empty key of identifier characters.
pub fn is_key_value(token: &str) -> bool {
    match token.split_once('=') {
        Some((k, v)) => {
            !k.is_empty()
                && !v.is_empty()
                && k.trim_start_matches(['{', '('])
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_')
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_recognition() {
        for yes in ["42", "-7", "3.14", "+0.5", "745675869"] {
            assert!(is_number(yes), "{yes}");
        }
        for no in ["", "x92", "1.2.3", "4e2", "-", ".", "42ms"] {
            assert!(!is_number(no), "{no}");
        }
    }

    #[test]
    fn ipv4_recognition() {
        for yes in ["10.250.11.53", "/10.250.11.53", "192.168.0.1,", "(8.8.8.8)"] {
            assert!(is_ipv4ish(yes), "{yes}");
        }
        for no in ["10.250.11", "10.250.11.256", "1.2.3.4.5", "a.b.c.d", "3.14"] {
            assert!(!is_ipv4ish(no), "{no}");
        }
    }

    #[test]
    fn hex_recognition() {
        for yes in ["deadbee1", "0x3f2a", "a3f9c2", "1234"] {
            assert!(is_hex_id(yes), "{yes}");
        }
        for no in ["dead", "beef", "g123", "0x", "12", "cafe"] {
            // "dead"/"beef"/"cafe" are all-letter hex — excluded to avoid
            // masking ordinary words.
            assert!(!is_hex_id(no), "{no}");
        }
    }

    #[test]
    fn path_recognition() {
        assert!(is_path("/var/log/app"));
        assert!(is_path("/a/b"));
        assert!(!is_path("/root"));
        assert!(!is_path("var/log"));
        assert!(!is_path("//double"));
    }

    #[test]
    fn key_value_recognition() {
        assert!(is_key_value("user_id=125"));
        assert!(is_key_value("{user_id=125,"));
        assert!(!is_key_value("=5"));
        assert!(!is_key_value("a="));
        assert!(!is_key_value("plain"));
    }

    #[test]
    fn standard_masking_on_table1_line() {
        let p = Preprocessor::new(MaskConfig::STANDARD);
        let (masked, original) = p.mask("Sending 138 bytes src: 10.250.11.53 dest: /10.250.11.53");
        assert_eq!(original.len(), 7);
        assert_eq!(
            masked,
            vec!["Sending", "<*>", "bytes", "src:", "<*>", "dest:", "<*>"]
        );
    }

    #[test]
    fn none_masks_nothing() {
        let p = Preprocessor::new(MaskConfig::NONE);
        let (masked, original) = p.mask("Sending 138 bytes to 10.0.0.1");
        assert_eq!(masked, original);
    }

    #[test]
    fn aggressive_masks_digit_tokens() {
        let p = Preprocessor::new(MaskConfig::AGGRESSIVE);
        let (masked, _) = p.mask("process x92 on port42");
        assert_eq!(masked, vec!["process", "<*>", "on", "<*>"]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Masking never changes token count, and every masked token is
        /// either `<*>` or the original — the invariant parsers rely on.
        #[test]
        fn masking_preserves_shape(msg in "[ a-zA-Z0-9:./=-]{0,80}") {
            let p = Preprocessor::new(MaskConfig::STANDARD);
            let (masked, original) = p.mask(&msg);
            prop_assert_eq!(masked.len(), original.len());
            for (m, o) in masked.iter().zip(&original) {
                prop_assert!(*m == "<*>" || m == o);
            }
        }

        /// is_variable is a pure function of the token (idempotent checks).
        #[test]
        fn is_variable_is_stable(tok in "[!-~]{1,16}") {
            let p = Preprocessor::new(MaskConfig::AGGRESSIVE);
            prop_assert_eq!(p.is_variable(&tok), p.is_variable(&tok));
        }
    }
}
