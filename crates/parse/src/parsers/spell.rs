//! Spell: streaming parsing of system event logs via longest common
//! subsequence (Du & Li, ICDM 2016).
//!
//! Each discovered template ("LCS object") is the longest common
//! subsequence of the messages assigned to it. A new message joins the
//! object with the longest LCS, provided the LCS covers at least
//! `tau` of the message's tokens; positions of the template dropped by the
//! merge become wildcards.

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateId, TemplateStore, TemplateToken};

/// Spell hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpellConfig {
    /// Minimum fraction of message tokens the LCS must cover to join an
    /// existing object (the paper's `tau`, default 0.5).
    pub tau: f64,
    /// Preprocessing masks (Spell is usually run with light masking).
    pub mask: MaskConfig,
}

impl Default for SpellConfig {
    fn default() -> Self {
        SpellConfig {
            tau: 0.5,
            mask: MaskConfig::STANDARD,
        }
    }
}

/// One LCS object: its current template skeleton (statics + wildcards).
#[derive(Debug, Clone)]
struct LcsObject {
    id: TemplateId,
    /// The static tokens of the template, in order (wildcards elided) —
    /// this is the sequence LCS is computed against.
    statics: Vec<String>,
    /// Full token skeleton for rendering/variable extraction.
    skeleton: Vec<TemplateToken>,
}

/// The Spell parser.
#[derive(Debug)]
pub struct Spell {
    config: SpellConfig,
    pre: Preprocessor,
    objects: Vec<LcsObject>,
    store: TemplateStore,
}

impl Spell {
    pub fn new(config: SpellConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.tau), "tau must be in [0,1]");
        Spell {
            pre: Preprocessor::new(config.mask),
            config,
            objects: Vec::new(),
            store: TemplateStore::new(),
        }
    }

    /// Length of the longest common subsequence of `a` and `b`.
    fn lcs_len(a: &[String], b: &[&str]) -> usize {
        if a.is_empty() || b.is_empty() {
            return 0;
        }
        // Rolling one-row DP: O(|a|·|b|) time, O(|b|) space.
        let mut row = vec![0usize; b.len() + 1];
        for ai in a {
            let mut prev_diag = 0;
            for (j, bj) in b.iter().enumerate() {
                let tmp = row[j + 1];
                row[j + 1] = if ai == bj {
                    prev_diag + 1
                } else {
                    row[j + 1].max(row[j])
                };
                prev_diag = tmp;
            }
        }
        row[b.len()]
    }

    /// The LCS itself (as indices into `b`), via full DP backtracking.
    fn lcs_positions(a: &[String], b: &[&str]) -> Vec<usize> {
        let n = a.len();
        let m = b.len();
        let mut dp = vec![vec![0usize; m + 1]; n + 1];
        for i in 0..n {
            for j in 0..m {
                dp[i + 1][j + 1] = if a[i] == b[j] {
                    dp[i][j] + 1
                } else {
                    dp[i][j + 1].max(dp[i + 1][j])
                };
            }
        }
        let mut out = Vec::new();
        let (mut i, mut j) = (n, m);
        while i > 0 && j > 0 {
            if a[i - 1] == b[j - 1] {
                out.push(j - 1);
                i -= 1;
                j -= 1;
            } else if dp[i - 1][j] >= dp[i][j - 1] {
                i -= 1;
            } else {
                j -= 1;
            }
        }
        out.reverse();
        out
    }

    /// Rebuild a skeleton for message `tokens` where only positions in
    /// `keep` (sorted) stay static; other positions become wildcards, with
    /// runs of wildcards collapsed to one.
    fn skeleton_from(tokens: &[&str], keep: &[usize]) -> Vec<TemplateToken> {
        let mut out: Vec<TemplateToken> = Vec::with_capacity(tokens.len());
        let mut keep_iter = keep.iter().peekable();
        for (i, tok) in tokens.iter().enumerate() {
            if keep_iter.peek() == Some(&&i) {
                keep_iter.next();
                out.push(TemplateToken::Static((*tok).to_string()));
            } else if !matches!(out.last(), Some(TemplateToken::Wildcard)) {
                out.push(TemplateToken::Wildcard);
            }
        }
        out
    }
}

impl OnlineParser for Spell {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        let (masked, original) = self.pre.mask(message);
        // Statics of the incoming message (masked wildcards are never part
        // of an LCS).
        let msg_statics: Vec<&str> = masked.iter().copied().filter(|t| *t != "<*>").collect();

        // Find the object with the longest LCS ≥ tau·|statics|.
        let needed = ((self.config.tau * msg_statics.len() as f64).ceil() as usize).max(1);
        let mut best: Option<(usize, usize)> = None; // (object index, lcs len)
        for (idx, obj) in self.objects.iter().enumerate() {
            // Prune: the LCS cannot exceed min(len).
            if obj.statics.len().min(msg_statics.len()) < needed {
                continue;
            }
            let l = Self::lcs_len(&obj.statics, &msg_statics);
            if l >= needed && best.is_none_or(|(_, bl)| l > bl) {
                best = Some((idx, l));
            }
        }

        match best {
            Some((idx, _)) => {
                let positions = Self::lcs_positions(&self.objects[idx].statics, &msg_statics);
                // Map positions in `msg_statics` back to positions in `masked`.
                let static_idx: Vec<usize> = masked
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| **t != "<*>")
                    .map(|(i, _)| i)
                    .collect();
                let keep: Vec<usize> = positions.iter().map(|&p| static_idx[p]).collect();
                let skeleton = Self::skeleton_from(&masked, &keep);
                let obj = &mut self.objects[idx];
                if skeleton != obj.skeleton {
                    obj.statics = statics_of(&skeleton);
                    obj.skeleton = skeleton.clone();
                    self.store.update(obj.id, skeleton);
                }
                let variables = variables_of(&original, &keep);
                ParseOutcome {
                    template: obj.id,
                    is_new: false,
                    variables,
                }
            }
            None => {
                let keep: Vec<usize> = masked
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| **t != "<*>")
                    .map(|(i, _)| i)
                    .collect();
                let skeleton = Self::skeleton_from(&masked, &keep);
                let id = self.store.intern(skeleton.clone());
                // intern() dedups: only track a new object if unseen.
                if !self.objects.iter().any(|o| o.id == id) {
                    self.objects.push(LcsObject {
                        id,
                        statics: statics_of(&skeleton),
                        skeleton,
                    });
                }
                let variables = variables_of(&original, &keep);
                ParseOutcome {
                    template: id,
                    is_new: true,
                    variables,
                }
            }
        }
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::Spell
    }
}

fn statics_of(skeleton: &[TemplateToken]) -> Vec<String> {
    skeleton
        .iter()
        .filter_map(|t| match t {
            TemplateToken::Static(s) => Some(s.clone()),
            TemplateToken::Wildcard => None,
        })
        .collect()
}

/// Message tokens not kept as static, in order — Spell's variable extraction.
fn variables_of(original: &[&str], keep: &[usize]) -> Vec<String> {
    let mut keep_iter = keep.iter().peekable();
    let mut out = Vec::new();
    for (i, tok) in original.iter().enumerate() {
        if keep_iter.peek() == Some(&&i) {
            keep_iter.next();
        } else {
            out.push((*tok).to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spell() -> Spell {
        Spell::new(SpellConfig::default())
    }

    #[test]
    fn lcs_len_basics() {
        let a: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        assert_eq!(Spell::lcs_len(&a, &["x", "q", "z"]), 2);
        assert_eq!(Spell::lcs_len(&a, &["x", "y", "z"]), 3);
        assert_eq!(Spell::lcs_len(&a, &[]), 0);
        assert_eq!(Spell::lcs_len(&[], &["x"]), 0);
    }

    #[test]
    fn lcs_positions_recover_subsequence() {
        let a: Vec<String> = ["send", "bytes", "to"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let b = ["send", "42", "bytes", "to", "host"];
        assert_eq!(Spell::lcs_positions(&a, &b), vec![0, 2, 3]);
    }

    #[test]
    fn identical_messages_share_object() {
        let mut s = spell();
        let a = s.parse("Connected to backend server ok");
        let b = s.parse("Connected to backend server ok");
        assert_eq!(a.template, b.template);
        assert!(!b.is_new);
    }

    #[test]
    fn variable_positions_become_wildcards() {
        let mut s = Spell::new(SpellConfig {
            tau: 0.5,
            mask: MaskConfig::NONE,
        });
        let a = s.parse("job alpha finished ok");
        let b = s.parse("job beta finished ok");
        assert_eq!(a.template, b.template);
        let t = s.store().get(a.template).unwrap();
        assert_eq!(t.render(), "job <*> finished ok");
        assert_eq!(b.variables, vec!["beta"]);
    }

    #[test]
    fn lcs_handles_length_differences() {
        // Unlike Drain, Spell can group messages of different lengths.
        let mut s = Spell::new(SpellConfig {
            tau: 0.6,
            mask: MaskConfig::NONE,
        });
        let a = s.parse("opening file for read");
        let b = s.parse("opening temp file for read");
        assert_eq!(a.template, b.template, "subsequence match across lengths");
    }

    #[test]
    fn dissimilar_messages_split() {
        let mut s = spell();
        let a = s.parse("alpha beta gamma delta");
        let b = s.parse("one two three four");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn table1_grouping() {
        let mut s = spell();
        let l1 = s.parse("Sending 138 bytes src: 10.250.11.53 dest: /10.250.11.53");
        let l3 = s.parse("Sending 745675869 bytes src: 10.250.11.53 dest: /10.250.11.53");
        assert_eq!(l1.template, l3.template);
    }

    #[test]
    fn empty_message() {
        let mut s = spell();
        let out = s.parse("");
        assert!(out.variables.is_empty());
    }

    #[test]
    fn tau_controls_merging() {
        let mut strict = Spell::new(SpellConfig {
            tau: 0.9,
            mask: MaskConfig::NONE,
        });
        let a = strict.parse("alpha beta gamma delta eps");
        let b = strict.parse("alpha beta zzz yyy xxx");
        assert_ne!(
            a.template, b.template,
            "2/5 overlap must not merge at tau=0.9"
        );

        let mut loose = Spell::new(SpellConfig {
            tau: 0.3,
            mask: MaskConfig::NONE,
        });
        let a = loose.parse("alpha beta gamma delta eps");
        let b = loose.parse("alpha beta zzz yyy xxx");
        assert_eq!(a.template, b.template, "2/5 overlap merges at tau=0.3");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// LCS length is symmetric-ish and bounded by both input lengths.
        #[test]
        fn lcs_len_bounded(a in proptest::collection::vec("[a-c]{1,2}", 0..8),
                           b in proptest::collection::vec("[a-c]{1,2}", 0..8)) {
            let brefs: Vec<&str> = b.iter().map(String::as_str).collect();
            let l = Spell::lcs_len(&a, &brefs);
            prop_assert!(l <= a.len() && l <= b.len());
            // Consistency with position-recovering variant.
            prop_assert_eq!(Spell::lcs_positions(&a, &brefs).len(), l);
        }

        /// Re-parsing the same message always lands in the same template.
        #[test]
        fn parse_is_stable(msgs in proptest::collection::vec("[a-d]{1,3}( [a-d]{1,3}){0,5}", 1..15)) {
            let mut s = Spell::new(SpellConfig { tau: 0.5, mask: MaskConfig::NONE });
            for m in &msgs {
                s.parse(m);
            }
            for m in &msgs {
                let a = s.parse(m);
                let b = s.parse(m);
                prop_assert_eq!(a.template, b.template);
            }
        }
    }
}
