//! Extraction of embedded structured payloads from log messages.
//!
//! Section IV: "almost 60% of the tokens composing log messages are coming
//! from JSON or XML-formatted data. [...] We therefore recommend a
//! preliminary step to extract potential data coming from a structured
//! format. This helps reduce the average length of log messages and can
//! increase the discovery rate of log parsing algorithms."
//!
//! [`extract_structured`] scans a message for a trailing (or embedded)
//! brace-delimited payload and splits it off. Two payload dialects are
//! supported, matching what API-style services actually emit:
//!
//! - JSON objects: `{"user_id": 125, "service": "dart_vader"}`
//! - bare key=value braces (the paper's own example):
//!   `{user_id=125, service_name=dart_vader}`
//!
//! and XML-ish element runs: `<user><id>125</id></user>`.
//!
//! The extractor is deliberately forgiving: anything that fails to parse as
//! a payload is left in the message untouched, because a false extraction
//! would *destroy* information the parser needs.

use std::borrow::Cow;

/// A structured payload pulled out of a log message.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StructuredPayload {
    /// Flattened key → raw value text. Nested JSON keys are joined with `.`.
    pub fields: Vec<(String, String)>,
    /// Byte length of the payload text removed from the message.
    pub raw_len: usize,
}

impl StructuredPayload {
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Look up a field value by flattened key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Split `message` into (free text, extracted payload).
///
/// If no payload is recognized, the free text is the whole message and the
/// payload is empty. The free text keeps a single space where the payload
/// was removed mid-message.
///
/// The no-payload case — the overwhelming majority of log lines — borrows
/// from `message` instead of allocating; the free text only becomes owned
/// when a payload is actually spliced out.
pub fn extract_structured(message: &str) -> (Cow<'_, str>, StructuredPayload) {
    // Fast path: a message with neither `{` nor `<` can't carry a payload.
    if !message.as_bytes().iter().any(|&b| b == b'{' || b == b'<') {
        return (Cow::Borrowed(message.trim()), StructuredPayload::default());
    }
    // Try JSON / k=v braces first (most common), then XML.
    if let Some((start, end)) = find_balanced_braces(message) {
        let body = &message[start..end];
        if let Some(fields) = parse_brace_payload(body) {
            let text = splice_out(message, start, end);
            return (
                Cow::Owned(text),
                StructuredPayload {
                    fields,
                    raw_len: end - start,
                },
            );
        }
    }
    if let Some((start, end, fields)) = find_xml_run(message) {
        let text = splice_out(message, start, end);
        return (
            Cow::Owned(text),
            StructuredPayload {
                fields,
                raw_len: end - start,
            },
        );
    }
    (Cow::Borrowed(message.trim()), StructuredPayload::default())
}

fn splice_out(message: &str, start: usize, end: usize) -> String {
    let mut text = String::with_capacity(message.len() - (end - start));
    text.push_str(message[..start].trim_end());
    let tail = message[end..].trim_start();
    if !tail.is_empty() {
        text.push(' ');
        text.push_str(tail);
    }
    text.trim().to_string()
}

/// Find the first top-level `{ ... }` region with balanced braces, honoring
/// double-quoted strings. Returns byte offsets `(start, end)` with `end`
/// one past the closing brace.
fn find_balanced_braces(s: &str) -> Option<(usize, usize)> {
    let bytes = s.as_bytes();
    let start = bytes.iter().position(|&b| b == b'{')?;
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((start, i + 1));
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse the interior of a brace payload as either JSON-object syntax or
/// bare `key=value` pairs. Returns flattened fields, or `None` if the body
/// doesn't look structured.
fn parse_brace_payload(body: &str) -> Option<Vec<(String, String)>> {
    debug_assert!(body.starts_with('{') && body.ends_with('}'));
    let inner = &body[1..body.len() - 1];
    if inner.trim().is_empty() {
        return None;
    }
    let mut fields = Vec::new();
    if json::parse_object_into("", body, &mut fields).is_some() {
        return Some(fields);
    }
    // Fallback: `key=value, key=value` dialect from the paper's example.
    fields.clear();
    for pair in split_top_level(inner, ',') {
        let (k, v) = pair.split_once('=')?;
        let k = k.trim();
        let v = v.trim();
        if k.is_empty() || k.contains(' ') {
            return None;
        }
        fields.push((k.to_string(), v.to_string()));
    }
    if fields.is_empty() {
        None
    } else {
        Some(fields)
    }
}

/// Split on `sep` at brace/bracket/quote depth zero.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            c if c == sep && depth == 0 && !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Minimal JSON object reader producing flattened `(key, value-text)` pairs.
/// Not a general JSON parser: objects, arrays, strings, numbers, booleans
/// and null; enough for log payloads, strict enough to reject free text.
mod json {
    /// Parse `body` (starting at `{`) into `out` with `prefix`-joined keys.
    /// Returns `Some(())` only if the *entire* body is a valid object.
    pub fn parse_object_into(
        prefix: &str,
        body: &str,
        out: &mut Vec<(String, String)>,
    ) -> Option<()> {
        let mut p = Parser {
            s: body.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        p.object(prefix, out)?;
        p.skip_ws();
        if p.pos == p.s.len() {
            Some(())
        } else {
            None
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn peek(&self) -> Option<u8> {
            self.s.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Option<()> {
            if self.bump()? == b {
                Some(())
            } else {
                None
            }
        }

        fn object(&mut self, prefix: &str, out: &mut Vec<(String, String)>) -> Option<()> {
            self.expect(b'{')?;
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Some(());
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                let full_key = if prefix.is_empty() {
                    key
                } else {
                    format!("{prefix}.{key}")
                };
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                self.value(&full_key, out)?;
                self.skip_ws();
                match self.bump()? {
                    b',' => continue,
                    b'}' => return Some(()),
                    _ => return None,
                }
            }
        }

        fn value(&mut self, key: &str, out: &mut Vec<(String, String)>) -> Option<()> {
            match self.peek()? {
                b'{' => self.object(key, out),
                b'[' => {
                    let start = self.pos;
                    self.skip_array()?;
                    let text = std::str::from_utf8(&self.s[start..self.pos]).ok()?;
                    out.push((key.to_string(), text.to_string()));
                    Some(())
                }
                b'"' => {
                    let v = self.string()?;
                    out.push((key.to_string(), v));
                    Some(())
                }
                _ => {
                    let v = self.scalar()?;
                    out.push((key.to_string(), v));
                    Some(())
                }
            }
        }

        fn skip_array(&mut self) -> Option<()> {
            self.expect(b'[')?;
            let mut depth = 1;
            let mut in_str = false;
            let mut escaped = false;
            while depth > 0 {
                let b = self.bump()?;
                if in_str {
                    if escaped {
                        escaped = false;
                    } else if b == b'\\' {
                        escaped = true;
                    } else if b == b'"' {
                        in_str = false;
                    }
                    continue;
                }
                match b {
                    b'"' => in_str = true,
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
            }
            Some(())
        }

        fn string(&mut self) -> Option<String> {
            self.expect(b'"')?;
            let mut out = Vec::new();
            loop {
                match self.bump()? {
                    b'\\' => {
                        let esc = self.bump()?;
                        out.push(match esc {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'r' => b'\r',
                            other => other,
                        });
                    }
                    b'"' => break,
                    b => out.push(b),
                }
            }
            String::from_utf8(out).ok()
        }

        fn scalar(&mut self) -> Option<String> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                    break;
                }
                self.pos += 1;
            }
            if self.pos == start {
                return None;
            }
            let text = std::str::from_utf8(&self.s[start..self.pos]).ok()?;
            // Only JSON scalars are valid here; bare words reject the body
            // so the k=v fallback (or no extraction) can take over.
            let is_number = text.strip_prefix('-').unwrap_or(text).bytes().all(|b| {
                b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
            });
            if is_number || text == "true" || text == "false" || text == "null" {
                Some(text.to_string())
            } else {
                None
            }
        }
    }
}

/// Flattened `(path, text)` pairs extracted from an XML run.
type XmlFields = Vec<(String, String)>;

/// Find a run of XML elements `<a>..</a><b>..</b>` and flatten leaf elements
/// to `(path, text)` pairs. Returns `(start, end, fields)`.
fn find_xml_run(s: &str) -> Option<(usize, usize, XmlFields)> {
    let start = s.find('<')?;
    // Require the run to begin with a well-formed opening tag.
    let mut fields = Vec::new();
    let mut pos = start;
    let bytes = s.as_bytes();
    let mut stack: Vec<&str> = Vec::new();
    let mut text_start = 0usize;
    let mut consumed_any = false;
    while pos < s.len() && bytes[pos] == b'<' {
        let close = s[pos..].find('>').map(|i| pos + i)?;
        let tag = &s[pos + 1..close];
        if tag.is_empty() {
            return None;
        }
        if let Some(name) = tag.strip_prefix('/') {
            let open = stack.pop()?;
            if open != name {
                return None;
            }
            let text = s[text_start..pos].trim();
            if !text.is_empty() {
                let mut path = stack.join(".");
                if !path.is_empty() {
                    path.push('.');
                }
                path.push_str(name);
                fields.push((path, text.to_string()));
            }
            consumed_any = true;
            pos = close + 1;
            text_start = pos;
        } else if !tag.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            return None;
        } else {
            stack.push(tag);
            pos = close + 1;
            text_start = pos;
        }
        // Step over element text content to the next tag.
        if !stack.is_empty() {
            let next = s[pos..].find('<').map(|i| pos + i)?;
            pos = next;
        } else {
            // At top level between elements: only whitespace may separate
            // sibling elements; anything else ends the run.
            let next = match s[pos..].find('<') {
                Some(i) if s[pos..pos + i].trim().is_empty() => pos + i,
                _ => break,
            };
            pos = next;
        }
    }
    if !consumed_any || !stack.is_empty() || fields.is_empty() {
        return None;
    }
    Some((start, pos, fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_paper_example_kv_braces() {
        // The paper's own example from Section IV.
        let (text, payload) = extract_structured(
            "Send 42 bytes to 121.13.4.26 {user_id=125, service_name=dart_vader}",
        );
        assert_eq!(text, "Send 42 bytes to 121.13.4.26");
        assert_eq!(payload.get("user_id"), Some("125"));
        assert_eq!(payload.get("service_name"), Some("dart_vader"));
        assert_eq!(payload.fields.len(), 2);
    }

    #[test]
    fn extracts_json_object() {
        let (text, payload) = extract_structured(
            r#"request failed {"code": 503, "retry": true, "route": "/api/v1"}"#,
        );
        assert_eq!(text, "request failed");
        assert_eq!(payload.get("code"), Some("503"));
        assert_eq!(payload.get("retry"), Some("true"));
        assert_eq!(payload.get("route"), Some("/api/v1"));
    }

    #[test]
    fn flattens_nested_json() {
        let (_, payload) =
            extract_structured(r#"ctx {"user": {"id": 7, "name": "ada"}, "ok": true}"#);
        assert_eq!(payload.get("user.id"), Some("7"));
        assert_eq!(payload.get("user.name"), Some("ada"));
        assert_eq!(payload.get("ok"), Some("true"));
    }

    #[test]
    fn json_arrays_kept_as_raw_text() {
        let (_, payload) = extract_structured(r#"batch {"ids": [1, 2, 3]}"#);
        assert_eq!(payload.get("ids"), Some("[1, 2, 3]"));
    }

    #[test]
    fn extracts_mid_message_payload() {
        let (text, payload) = extract_structured("before {a=1} after");
        assert_eq!(text, "before after");
        assert_eq!(payload.get("a"), Some("1"));
    }

    #[test]
    fn extracts_xml_run() {
        let (text, payload) =
            extract_structured("vm event <vm><id>i-42</id><state>running</state></vm>");
        assert_eq!(text, "vm event");
        assert_eq!(payload.get("vm.id"), Some("i-42"));
        assert_eq!(payload.get("vm.state"), Some("running"));
    }

    #[test]
    fn leaves_plain_text_untouched() {
        for msg in [
            "Sending 138 bytes src: 10.250.11.53 dest: /10.250.11.53",
            "no braces here at all",
            "math uses < and > sometimes: 3 < 4",
            "a lone { brace",
        ] {
            let (text, payload) = extract_structured(msg);
            assert_eq!(text, msg, "message was altered");
            assert!(payload.is_empty());
        }
    }

    #[test]
    fn non_payload_braces_are_kept() {
        // Brace content that is neither JSON nor k=v must not be extracted.
        let (text, payload) = extract_structured("set {1, 2, 3} received");
        assert_eq!(text, "set {1, 2, 3} received");
        assert!(payload.is_empty());
    }

    #[test]
    fn empty_braces_are_not_a_payload() {
        let (text, payload) = extract_structured("done {}");
        assert_eq!(text, "done {}");
        assert!(payload.is_empty());
    }

    #[test]
    fn raw_len_counts_removed_bytes() {
        let (_, payload) = extract_structured("x {a=1}");
        assert_eq!(payload.raw_len, "{a=1}".len());
    }

    #[test]
    fn quoted_braces_inside_json_strings() {
        let (text, payload) = extract_structured(r#"evt {"msg": "curly } inside", "n": 1}"#);
        assert_eq!(text, "evt");
        assert_eq!(payload.get("msg"), Some("curly } inside"));
        assert_eq!(payload.get("n"), Some("1"));
    }

    #[test]
    fn malformed_xml_is_left_alone() {
        let (text, payload) = extract_structured("ev <open>text</close>");
        assert_eq!(text, "ev <open>text</close>");
        assert!(payload.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Extraction never loses free-text tokens: every whitespace token of
        /// the original message outside the payload survives in the text.
        #[test]
        fn free_text_tokens_survive(prefix in "[a-z ]{0,20}", k in "[a-z_]{1,8}", v in "[a-z0-9]{1,8}") {
            let msg = format!("{prefix} {{{k}={v}}}");
            let (text, payload) = extract_structured(&msg);
            prop_assert_eq!(payload.get(k.as_str()), Some(v.as_str()));
            for tok in prefix.split_whitespace() {
                prop_assert!(text.split_whitespace().any(|t| t == tok));
            }
        }

        /// Messages without braces or angle brackets are returned verbatim
        /// (modulo outer whitespace trimming).
        #[test]
        fn plain_messages_pass_through(msg in "[a-zA-Z0-9 .:/]{0,60}") {
            let (text, payload) = extract_structured(&msg);
            prop_assert!(payload.is_empty());
            prop_assert_eq!(text, msg.trim());
        }
    }
}
