//! LenMa: "Length Matters" — clustering log messages by word-length
//! vectors (Shima, 2016).
//!
//! Messages with the same token count are compared by the cosine similarity
//! of their *word-length vectors* (the sequence of token lengths): variable
//! values change a token's text but often keep its approximate length
//! profile distinct from other templates. A positional exact-match check
//! keeps obviously different templates apart.

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateId, TemplateStore, TemplateToken};
use std::collections::HashMap;

/// LenMa hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LenMaConfig {
    /// Cosine-similarity threshold on word-length vectors (paper default
    /// 0.78).
    pub threshold: f64,
    /// Preprocessing masks.
    pub mask: MaskConfig,
}

impl Default for LenMaConfig {
    fn default() -> Self {
        LenMaConfig {
            threshold: 0.78,
            mask: MaskConfig::STANDARD,
        }
    }
}

#[derive(Debug, Clone)]
struct Cluster {
    id: TemplateId,
    /// Current word-length vector (updated toward new members).
    lengths: Vec<f64>,
    /// Template skeleton.
    skeleton: Vec<TemplateToken>,
}

/// The LenMa parser.
#[derive(Debug)]
pub struct LenMa {
    config: LenMaConfig,
    pre: Preprocessor,
    /// Clusters bucketed by token count.
    by_len: HashMap<usize, Vec<Cluster>>,
    store: TemplateStore,
}

impl LenMa {
    pub fn new(config: LenMaConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.threshold));
        LenMa {
            pre: Preprocessor::new(config.mask),
            config,
            by_len: HashMap::new(),
            store: TemplateStore::new(),
        }
    }

    fn cosine(a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len());
        let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return if na == nb { 1.0 } else { 0.0 };
        }
        dot / (na * nb)
    }

    /// Positional agreement on static tokens: LenMa's secondary check that
    /// prevents merging templates that merely *look* length-similar.
    fn static_agreement(skeleton: &[TemplateToken], tokens: &[&str]) -> f64 {
        let statics = skeleton.iter().filter(|t| !t.is_wildcard()).count();
        if statics == 0 {
            return 1.0;
        }
        let matching = skeleton
            .iter()
            .zip(tokens)
            .filter(|(t, tok)| match t {
                TemplateToken::Static(s) => s == *tok,
                TemplateToken::Wildcard => false,
            })
            .count();
        matching as f64 / statics as f64
    }
}

impl OnlineParser for LenMa {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        let (masked, original) = self.pre.mask(message);
        let lengths: Vec<f64> = masked.iter().map(|t| t.len() as f64).collect();
        let clusters = self.by_len.entry(masked.len()).or_default();

        let mut best: Option<(usize, f64)> = None;
        for (idx, cluster) in clusters.iter().enumerate() {
            let sim = Self::cosine(&cluster.lengths, &lengths);
            // Require half the surviving statics to agree positionally.
            if Self::static_agreement(&cluster.skeleton, &masked) < 0.5 {
                continue;
            }
            if sim >= self.config.threshold && best.is_none_or(|(_, bs)| sim > bs) {
                best = Some((idx, sim));
            }
        }

        match best {
            Some((idx, _)) => {
                let cluster = &mut clusters[idx];
                // Merge: widen mismatches, move length vector toward member.
                let mut changed = false;
                for ((t, tok), len) in cluster.skeleton.iter_mut().zip(&masked).zip(&lengths) {
                    if let TemplateToken::Static(s) = t {
                        if s != tok {
                            *t = TemplateToken::Wildcard;
                            changed = true;
                        }
                    }
                    let _ = len;
                }
                for (l, new) in cluster.lengths.iter_mut().zip(&lengths) {
                    *l = (*l + *new) / 2.0;
                }
                if changed {
                    self.store.update(cluster.id, cluster.skeleton.clone());
                }
                let variables = extract_vars(&cluster.skeleton, &original);
                ParseOutcome {
                    template: cluster.id,
                    is_new: false,
                    variables,
                }
            }
            None => {
                let skeleton: Vec<TemplateToken> = masked
                    .iter()
                    .map(|t| {
                        if *t == "<*>" {
                            TemplateToken::Wildcard
                        } else {
                            TemplateToken::Static((*t).to_string())
                        }
                    })
                    .collect();
                let id = self.store.intern(skeleton.clone());
                if !clusters.iter().any(|c| c.id == id) {
                    clusters.push(Cluster {
                        id,
                        lengths,
                        skeleton: skeleton.clone(),
                    });
                }
                let variables = extract_vars(&skeleton, &original);
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
        ParserKind::LenMa
    }
}

fn extract_vars(skeleton: &[TemplateToken], original: &[&str]) -> Vec<String> {
    skeleton
        .iter()
        .zip(original)
        .filter(|(t, _)| t.is_wildcard())
        .map(|(_, tok)| (*tok).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_basics() {
        assert!((LenMa::cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(LenMa::cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(LenMa::cosine(&[], &[]), 1.0);
        assert_eq!(LenMa::cosine(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn identical_messages_cluster() {
        let mut p = LenMa::new(LenMaConfig::default());
        let a = p.parse("disk sda1 is healthy");
        let b = p.parse("disk sda1 is healthy");
        assert_eq!(a.template, b.template);
    }

    #[test]
    fn same_template_different_values_cluster() {
        let mut p = LenMa::new(LenMaConfig::default());
        let a = p.parse("Received block blk_904791815409399662 of size 67108864 from 10.250.11.53");
        let b = p.parse("Received block blk_904791815412113567 of size 67108864 from 10.250.14.38");
        assert_eq!(a.template, b.template);
    }

    #[test]
    fn different_templates_split() {
        let mut p = LenMa::new(LenMaConfig::default());
        // Same token count, very different word lengths and statics.
        let a = p.parse("initialization of subsystem completed successfully today");
        let b = p.parse("rm tmp ok a b c");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn different_token_counts_never_merge() {
        let mut p = LenMa::new(LenMaConfig::default());
        let a = p.parse("a b c");
        let b = p.parse("a b c d");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn template_widens_on_merge() {
        let mut p = LenMa::new(LenMaConfig {
            threshold: 0.9,
            mask: MaskConfig::NONE,
        });
        let a = p.parse("worker node17 ready");
        let b = p.parse("worker node42 ready");
        assert_eq!(a.template, b.template);
        assert_eq!(
            p.store().get(a.template).unwrap().render(),
            "worker <*> ready"
        );
        assert_eq!(b.variables, vec!["node42"]);
    }

    #[test]
    fn empty_message() {
        let mut p = LenMa::new(LenMaConfig::default());
        let out = p.parse("");
        assert!(out.is_new);
    }
}
