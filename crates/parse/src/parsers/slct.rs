//! SLCT: Simple Logfile Clustering Tool (Vaarandi, IPOM 2003).
//!
//! The earliest of the batch baselines. Two passes:
//! 1. Count the frequency of every `(position, word)` pair.
//! 2. For each line, the frequent pairs (count ≥ support) form its cluster
//!    candidate; candidates that themselves reach the support threshold
//!    become clusters, all other lines fall into the outlier cluster.

use crate::api::{BatchParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateStore, TemplateToken};
use std::collections::HashMap;

/// SLCT hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlctConfig {
    /// Absolute support threshold: a `(position, word)` pair is frequent if
    /// it occurs in at least this many lines.
    pub support: usize,
    /// Preprocessing masks.
    pub mask: MaskConfig,
}

impl Default for SlctConfig {
    fn default() -> Self {
        SlctConfig {
            support: 10,
            mask: MaskConfig::STANDARD,
        }
    }
}

/// The SLCT batch parser.
#[derive(Debug)]
pub struct Slct {
    config: SlctConfig,
    pre: Preprocessor,
    store: TemplateStore,
}

impl Slct {
    pub fn new(config: SlctConfig) -> Self {
        assert!(config.support >= 1);
        Slct {
            pre: Preprocessor::new(config.mask),
            config,
            store: TemplateStore::new(),
        }
    }
}

impl BatchParser for Slct {
    fn parse_batch(&mut self, messages: &[&str]) -> Vec<ParseOutcome> {
        self.store = TemplateStore::new();
        let masked_and_original: Vec<(Vec<&str>, Vec<&str>)> =
            messages.iter().map(|m| self.pre.mask(m)).collect();

        // Pass 1: (position, word) frequencies. Token count is part of the
        // key so different-shaped lines never share pairs.
        let mut freq: HashMap<(usize, usize, &str), usize> = HashMap::new();
        for (masked, _) in &masked_and_original {
            for (pos, tok) in masked.iter().enumerate() {
                if *tok != "<*>" {
                    *freq.entry((masked.len(), pos, tok)).or_default() += 1;
                }
            }
        }

        // Pass 2: build each line's cluster candidate.
        let mut candidate_count: HashMap<Vec<TemplateToken>, usize> = HashMap::new();
        let mut line_candidates: Vec<Vec<TemplateToken>> = Vec::with_capacity(messages.len());
        for (masked, _) in &masked_and_original {
            let skeleton: Vec<TemplateToken> = masked
                .iter()
                .enumerate()
                .map(|(pos, tok)| {
                    if *tok != "<*>" && freq[&(masked.len(), pos, *tok)] >= self.config.support {
                        TemplateToken::Static((*tok).to_string())
                    } else {
                        TemplateToken::Wildcard
                    }
                })
                .collect();
            *candidate_count.entry(skeleton.clone()).or_default() += 1;
            line_candidates.push(skeleton);
        }

        // Clusters with support become templates; the rest share a per-length
        // outlier template (all wildcards).
        let mut outcomes = Vec::with_capacity(messages.len());
        for ((masked, original), skeleton) in masked_and_original.iter().zip(line_candidates) {
            let final_skeleton = if candidate_count[&skeleton] >= self.config.support {
                skeleton
            } else {
                vec![TemplateToken::Wildcard; masked.len()]
            };
            let variables: Vec<String> = final_skeleton
                .iter()
                .zip(original.iter())
                .filter(|(t, _)| t.is_wildcard())
                .map(|(_, tok)| (*tok).to_string())
                .collect();
            let id = self.store.intern(final_skeleton);
            outcomes.push(ParseOutcome {
                template: id,
                is_new: false,
                variables,
            });
        }
        outcomes
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::Slct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequent_pattern_forms_cluster() {
        let msgs: Vec<String> = (0..30).map(|i| format!("user u{i} logged in")).collect();
        let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        let mut p = Slct::new(SlctConfig {
            support: 10,
            mask: MaskConfig::NONE,
        });
        let outs = p.parse_batch(&refs);
        assert!(outs.iter().all(|o| o.template == outs[0].template));
        let t = p.store().get(outs[0].template).unwrap();
        assert_eq!(t.render(), "user <*> logged in");
        assert_eq!(outs[7].variables, vec!["u7"]);
    }

    #[test]
    fn rare_lines_fall_into_outlier_cluster() {
        let mut msgs: Vec<String> = (0..30).map(|i| format!("ping host h{i} ok")).collect();
        msgs.push("kernel panic imminent now".to_string());
        let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        let mut p = Slct::new(SlctConfig {
            support: 10,
            mask: MaskConfig::NONE,
        });
        let outs = p.parse_batch(&refs);
        let outlier = outs.last().unwrap();
        assert_ne!(outlier.template, outs[0].template);
        let t = p.store().get(outlier.template).unwrap();
        assert_eq!(t.wildcard_count(), 4, "outlier template is all wildcards");
    }

    #[test]
    fn two_frequent_patterns_two_clusters() {
        let mut msgs = Vec::new();
        for i in 0..20 {
            msgs.push(format!("open file f{i} rw"));
            msgs.push(format!("close sock s{i} ok"));
        }
        let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        let mut p = Slct::new(SlctConfig {
            support: 10,
            mask: MaskConfig::NONE,
        });
        let outs = p.parse_batch(&refs);
        assert_ne!(outs[0].template, outs[1].template);
        assert_eq!(outs[0].template, outs[2].template);
        assert_eq!(outs[1].template, outs[3].template);
    }

    #[test]
    fn support_threshold_matters() {
        let msgs: Vec<String> = (0..5).map(|i| format!("beat n{i}")).collect();
        let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        // support 6 > corpus: everything is outlier.
        let mut strict = Slct::new(SlctConfig {
            support: 6,
            mask: MaskConfig::NONE,
        });
        let outs = strict.parse_batch(&refs);
        let t = strict.store().get(outs[0].template).unwrap();
        assert_eq!(t.wildcard_count(), 2);
        // support 3: "beat" is frequent.
        let mut loose = Slct::new(SlctConfig {
            support: 3,
            mask: MaskConfig::NONE,
        });
        let outs = loose.parse_batch(&refs);
        let t = loose.store().get(outs[0].template).unwrap();
        assert_eq!(t.render(), "beat <*>");
    }

    #[test]
    fn empty_corpus_and_empty_lines() {
        let mut p = Slct::new(SlctConfig::default());
        assert!(p.parse_batch(&[]).is_empty());
        let outs = p.parse_batch(&["", "", ""]);
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.template == outs[0].template));
    }
}
