//! Logram: efficient log parsing using n-gram dictionaries
//! (Dai et al., 2020).
//!
//! Logram's insight: n-grams made of *static* tokens recur frequently,
//! while n-grams containing variable values are rare. The parser maintains
//! 2-gram and 3-gram frequency dictionaries updated online; a token of the
//! current line is deemed static iff the n-grams it participates in are
//! frequent enough. The template is the line with variable tokens
//! wildcarded.
//!
//! Being dictionary-based (no tree, no pairwise comparison), Logram is
//! naturally distributable — the property the paper's Section IV cares
//! about — but its dictionaries need warm-up, so early lines over-estimate
//! variables. The tests pin both behaviours.

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateStore, TemplateToken};
use std::collections::HashMap;

/// Logram hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogramConfig {
    /// A 3-gram with at least this count marks its middle token static.
    pub three_gram_threshold: u64,
    /// Fallback threshold for 2-grams when the 3-gram is inconclusive.
    pub two_gram_threshold: u64,
    /// Preprocessing masks.
    pub mask: MaskConfig,
}

impl Default for LogramConfig {
    fn default() -> Self {
        LogramConfig {
            three_gram_threshold: 2,
            two_gram_threshold: 2,
            mask: MaskConfig::STANDARD,
        }
    }
}

/// Boundary marker for line start/end in n-grams.
const BOUNDARY: &str = "\u{1}";

/// The Logram parser.
#[derive(Debug)]
pub struct Logram {
    config: LogramConfig,
    pre: Preprocessor,
    two_grams: HashMap<(String, String), u64>,
    three_grams: HashMap<(String, String, String), u64>,
    store: TemplateStore,
}

impl Logram {
    pub fn new(config: LogramConfig) -> Self {
        assert!(config.three_gram_threshold >= 1);
        assert!(config.two_gram_threshold >= 1);
        Logram {
            pre: Preprocessor::new(config.mask),
            config,
            two_grams: HashMap::new(),
            three_grams: HashMap::new(),
            store: TemplateStore::new(),
        }
    }

    fn update_dictionaries(&mut self, tokens: &[&str]) {
        let padded: Vec<&str> = std::iter::once(BOUNDARY)
            .chain(tokens.iter().copied())
            .chain(std::iter::once(BOUNDARY))
            .collect();
        for w in padded.windows(2) {
            *self
                .two_grams
                .entry((w[0].to_string(), w[1].to_string()))
                .or_default() += 1;
        }
        for w in padded.windows(3) {
            *self
                .three_grams
                .entry((w[0].to_string(), w[1].to_string(), w[2].to_string()))
                .or_default() += 1;
        }
    }

    /// Classify each token as static (`true`) or variable (`false`) from
    /// the dictionaries.
    fn classify(&self, tokens: &[&str]) -> Vec<bool> {
        let padded: Vec<&str> = std::iter::once(BOUNDARY)
            .chain(tokens.iter().copied())
            .chain(std::iter::once(BOUNDARY))
            .collect();
        (0..tokens.len())
            .map(|i| {
                // Token i sits at padded position i+1. It is static if ANY
                // n-gram it participates in is frequent: a variable value is
                // fresh, so every n-gram containing it stays rare, while a
                // static token next to a variable still has one frequent
                // n-gram on its stable side.
                let tg = |a: usize, b: usize, c: usize| {
                    self.three_grams
                        .get(&(
                            padded[a].to_string(),
                            padded[b].to_string(),
                            padded[c].to_string(),
                        ))
                        .copied()
                        .unwrap_or(0)
                };
                if i + 2 < padded.len() && tg(i, i + 1, i + 2) >= self.config.three_gram_threshold {
                    return true;
                }
                let left = self
                    .two_grams
                    .get(&(padded[i].to_string(), padded[i + 1].to_string()))
                    .copied()
                    .unwrap_or(0);
                let right = self
                    .two_grams
                    .get(&(padded[i + 1].to_string(), padded[i + 2].to_string()))
                    .copied()
                    .unwrap_or(0);
                left >= self.config.two_gram_threshold || right >= self.config.two_gram_threshold
            })
            .collect()
    }
}

impl OnlineParser for Logram {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        let (masked, original) = self.pre.mask(message);
        self.update_dictionaries(&masked);
        let is_static = self.classify(&masked);
        let skeleton: Vec<TemplateToken> = masked
            .iter()
            .zip(&is_static)
            .map(|(tok, st)| {
                if *st && *tok != "<*>" {
                    TemplateToken::Static((*tok).to_string())
                } else {
                    TemplateToken::Wildcard
                }
            })
            .collect();
        let variables: Vec<String> = skeleton
            .iter()
            .zip(&original)
            .filter(|(t, _)| t.is_wildcard())
            .map(|(_, tok)| (*tok).to_string())
            .collect();
        let before = self.store.len();
        let id = self.store.intern(skeleton);
        ParseOutcome {
            template: id,
            is_new: self.store.len() > before,
            variables,
        }
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::Logram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_dictionaries_separate_statics_from_variables() {
        let mut p = Logram::new(LogramConfig {
            mask: MaskConfig::NONE,
            ..Default::default()
        });
        // Warm up with repeated template, distinct variable values.
        for v in ["alpha", "beta", "gamma", "delta", "epsilon"] {
            p.parse(&format!("task {v} finished ok"));
        }
        let out = p.parse("task zeta finished ok");
        // The variable position is wildcarded once dictionaries are warm.
        let t = p.store().get(out.template).unwrap();
        assert_eq!(t.render(), "task <*> finished ok");
        assert_eq!(out.variables, vec!["zeta"]);
    }

    #[test]
    fn cold_start_overestimates_variables() {
        let mut p = Logram::new(LogramConfig {
            mask: MaskConfig::NONE,
            ..Default::default()
        });
        let out = p.parse("first line ever seen");
        // Nothing is frequent yet: everything is variable.
        let t = p.store().get(out.template).unwrap();
        assert_eq!(t.wildcard_count(), 4);
    }

    #[test]
    fn converged_lines_share_template() {
        let mut p = Logram::new(LogramConfig::default());
        for i in 0..10 {
            p.parse(&format!(
                "Receiving block blk_{i} src: 10.0.0.{i} dest: 10.0.0.9"
            ));
        }
        let a = p.parse("Receiving block blk_77 src: 10.0.0.3 dest: 10.0.0.9");
        let b = p.parse("Receiving block blk_78 src: 10.0.0.4 dest: 10.0.0.9");
        assert_eq!(a.template, b.template);
    }

    #[test]
    fn masked_tokens_are_always_variables() {
        let mut p = Logram::new(LogramConfig::default());
        for _ in 0..5 {
            p.parse("send 42 bytes now");
        }
        let out = p.parse("send 42 bytes now");
        // "42" is masked by STANDARD preprocessing even though frequent.
        assert!(out.variables.contains(&"42".to_string()));
    }

    #[test]
    fn empty_message() {
        let mut p = Logram::new(LogramConfig::default());
        let out = p.parse("");
        assert!(out.variables.is_empty());
    }

    #[test]
    fn thresholds_control_sensitivity() {
        // With a high threshold, even repeated statics stay variables for
        // longer.
        let mut strict = Logram::new(LogramConfig {
            three_gram_threshold: 50,
            two_gram_threshold: 50,
            mask: MaskConfig::NONE,
        });
        for _ in 0..5 {
            strict.parse("stable template line");
        }
        let out = strict.parse("stable template line");
        let t = strict.store().get(out.template).unwrap();
        assert_eq!(
            t.wildcard_count(),
            3,
            "everything still variable at high threshold"
        );
    }
}
