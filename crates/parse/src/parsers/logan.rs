//! Logan: a distributed online log parser (Agrawal, Karlupia & Gupta,
//! ICDE 2019) — the remaining entry of the paper's Section IV benchmark
//! list ("Spell, Logram, Logan, SHISO, LenMa").
//!
//! Logan's design: independent *agents* parse their share of the stream
//! against a local pattern set, matching by normalized token edit
//! distance; agents periodically ship new patterns to a coordinator that
//! merges similar patterns and broadcasts the consolidated set back. The
//! merge step is what makes Logan distribution-friendly — agents never
//! block on each other.
//!
//! This implementation runs the agents in-process (round-robin sharding)
//! with a merge every `merge_interval` lines, which reproduces the
//! algorithmic behaviour (local drift + periodic reconciliation) without
//! requiring a cluster; the same structure runs on real shards via
//! `monilog-stream`.

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateId, TemplateStore, TemplateToken};

/// Logan hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoganConfig {
    /// Number of parsing agents.
    pub n_agents: usize,
    /// Normalized token-edit-distance threshold in `[0,1]`: a message joins a
    /// pattern when `edit_distance / max_len ≤ threshold`.
    pub distance_threshold: f64,
    /// Agents reconcile their pattern sets every this many lines.
    pub merge_interval: usize,
    /// Preprocessing masks.
    pub mask: MaskConfig,
}

impl Default for LoganConfig {
    fn default() -> Self {
        LoganConfig {
            n_agents: 4,
            distance_threshold: 0.4,
            merge_interval: 1_000,
            mask: MaskConfig::STANDARD,
        }
    }
}

/// A pattern: the token skeleton an agent matches against.
#[derive(Debug, Clone)]
struct Pattern {
    id: TemplateId,
    skeleton: Vec<TemplateToken>,
}

/// The Logan parser (in-process multi-agent simulation).
#[derive(Debug)]
pub struct Logan {
    config: LoganConfig,
    pre: Preprocessor,
    /// Per-agent local pattern sets.
    agents: Vec<Vec<Pattern>>,
    /// Next agent for round-robin dispatch.
    next_agent: usize,
    lines_since_merge: usize,
    store: TemplateStore,
}

/// Token-level edit distance between a pattern skeleton and message
/// tokens; a wildcard matches any token at cost 0.
#[allow(clippy::needless_range_loop)] // DP table indexed by (i, j)
fn edit_distance(skeleton: &[TemplateToken], tokens: &[&str]) -> usize {
    let n = skeleton.len();
    let m = tokens.len();
    let mut dp = vec![vec![0usize; m + 1]; n + 1];
    for (i, row) in dp.iter_mut().enumerate() {
        row[0] = i;
    }
    for j in 0..=m {
        dp[0][j] = j;
    }
    for i in 0..n {
        for j in 0..m {
            let subst = match &skeleton[i] {
                TemplateToken::Wildcard => 0,
                TemplateToken::Static(s) => usize::from(s != tokens[j]),
            };
            dp[i + 1][j + 1] = (dp[i][j] + subst)
                .min(dp[i][j + 1] + 1)
                .min(dp[i + 1][j] + 1);
        }
    }
    dp[n][m]
}

fn normalized_distance(skeleton: &[TemplateToken], tokens: &[&str]) -> f64 {
    let max_len = skeleton.len().max(tokens.len());
    if max_len == 0 {
        return 0.0;
    }
    edit_distance(skeleton, tokens) as f64 / max_len as f64
}

/// Widen a same-length skeleton toward the message (mismatch → wildcard);
/// different lengths keep the skeleton unchanged (Logan aligns only
/// equal-length merges; length differences are absorbed by the distance
/// threshold at match time).
fn widen(skeleton: &mut [TemplateToken], tokens: &[&str]) -> bool {
    if skeleton.len() != tokens.len() {
        return false;
    }
    let mut changed = false;
    for (t, tok) in skeleton.iter_mut().zip(tokens) {
        if let TemplateToken::Static(s) = t {
            if s != tok {
                *t = TemplateToken::Wildcard;
                changed = true;
            }
        }
    }
    changed
}

impl Logan {
    pub fn new(config: LoganConfig) -> Self {
        assert!(config.n_agents >= 1, "need at least one agent");
        assert!((0.0..=1.0).contains(&config.distance_threshold));
        assert!(config.merge_interval >= 1);
        Logan {
            pre: Preprocessor::new(config.mask),
            agents: vec![Vec::new(); config.n_agents],
            next_agent: 0,
            lines_since_merge: 0,
            config,
            store: TemplateStore::new(),
        }
    }

    /// Coordinator step: merge near-duplicate patterns discovered by
    /// different agents and broadcast the consolidated set to all agents.
    fn reconcile(&mut self) {
        let mut consolidated: Vec<Pattern> = Vec::new();
        for agent in &self.agents {
            for pattern in agent {
                let tokens: Vec<&str> = pattern.skeleton.iter().map(|t| t.as_str()).collect();
                let similar = consolidated.iter_mut().find(|c| {
                    c.skeleton.len() == pattern.skeleton.len()
                        && normalized_distance(&c.skeleton, &tokens)
                            <= self.config.distance_threshold
                });
                match similar {
                    Some(c) => {
                        // Merge: widen the consolidated skeleton toward this
                        // pattern; the older (smaller) id wins so labels
                        // stay stable across merges.
                        widen(&mut c.skeleton, &tokens);
                        if pattern.id.0 < c.id.0 {
                            c.id = pattern.id;
                        }
                        self.store.update(c.id, c.skeleton.clone());
                    }
                    None => consolidated.push(pattern.clone()),
                }
            }
        }
        for agent in &mut self.agents {
            *agent = consolidated.clone();
        }
    }
}

impl OnlineParser for Logan {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        let (masked, original) = self.pre.mask(message);
        let agent_idx = self.next_agent;
        self.next_agent = (self.next_agent + 1) % self.config.n_agents;

        let agent = &mut self.agents[agent_idx];
        let mut best: Option<(usize, f64)> = None;
        for (idx, pattern) in agent.iter().enumerate() {
            let d = normalized_distance(&pattern.skeleton, &masked);
            if d <= self.config.distance_threshold && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((idx, d));
            }
        }

        let outcome = match best {
            Some((idx, _)) => {
                let pattern = &mut agent[idx];
                if widen(&mut pattern.skeleton, &masked) {
                    self.store.update(pattern.id, pattern.skeleton.clone());
                }
                let variables = variables_of(&pattern.skeleton, &original);
                ParseOutcome {
                    template: pattern.id,
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
                if !agent.iter().any(|p| p.id == id) {
                    agent.push(Pattern {
                        id,
                        skeleton: skeleton.clone(),
                    });
                }
                let variables = variables_of(&skeleton, &original);
                ParseOutcome {
                    template: id,
                    is_new: true,
                    variables,
                }
            }
        };

        self.lines_since_merge += 1;
        if self.lines_since_merge >= self.config.merge_interval {
            self.lines_since_merge = 0;
            self.reconcile();
        }
        outcome
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::Logan
    }
}

/// Message tokens at wildcard positions (same-length positional case) or
/// all non-matching tokens otherwise.
fn variables_of(skeleton: &[TemplateToken], original: &[&str]) -> Vec<String> {
    if skeleton.len() == original.len() {
        skeleton
            .iter()
            .zip(original)
            .filter(|(t, _)| t.is_wildcard())
            .map(|(_, tok)| (*tok).to_string())
            .collect()
    } else {
        // Length mismatch (cross-length match): align statics greedily.
        let statics: Vec<&str> = skeleton
            .iter()
            .filter_map(|t| match t {
                TemplateToken::Static(s) => Some(s.as_str()),
                TemplateToken::Wildcard => None,
            })
            .collect();
        let mut si = 0;
        let mut out = Vec::new();
        for tok in original {
            if si < statics.len() && statics[si] == *tok {
                si += 1;
            } else {
                out.push((*tok).to_string());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logan(n_agents: usize, merge_interval: usize) -> Logan {
        Logan::new(LoganConfig {
            n_agents,
            merge_interval,
            ..Default::default()
        })
    }

    #[test]
    fn edit_distance_basics() {
        let skel = |p: &str| monilog_model::Template::from_pattern(TemplateId(0), p).tokens;
        assert_eq!(edit_distance(&skel("a b c"), &["a", "b", "c"]), 0);
        assert_eq!(edit_distance(&skel("a b c"), &["a", "x", "c"]), 1);
        assert_eq!(edit_distance(&skel("a <*> c"), &["a", "anything", "c"]), 0);
        assert_eq!(edit_distance(&skel("a b"), &["a", "b", "c"]), 1);
        assert_eq!(edit_distance(&skel("a"), &[]), 1);
    }

    #[test]
    fn single_agent_groups_variants() {
        let mut p = logan(1, 1_000);
        let a = p.parse("task t1 finished ok");
        let b = p.parse("task t2 finished ok");
        assert_eq!(a.template, b.template);
        assert_eq!(
            p.store().get(a.template).expect("registered").render(),
            "task <*> finished ok"
        );
    }

    #[test]
    fn agents_drift_then_reconcile() {
        // With 2 agents and no merge yet, the same template seen by both
        // agents creates two ids; after the merge interval, they reconcile
        // and future lines share one id.
        let mut p = logan(2, 4);
        let a = p.parse("disk sda ok"); // agent 0
        let b = p.parse("disk sdb ok"); // agent 1
        assert_ne!(
            a.template, b.template,
            "agents are independent before merging"
        );
        p.parse("disk sdc ok"); // agent 0
        p.parse("disk sdd ok"); // agent 1 → triggers reconcile
        let c = p.parse("disk sde ok");
        let d = p.parse("disk sdf ok");
        assert_eq!(c.template, d.template, "post-merge agents agree");
    }

    #[test]
    fn dissimilar_messages_split() {
        let mut p = logan(1, 1_000);
        let a = p.parse("alpha beta gamma delta");
        let b = p.parse("uno dos tres quatro");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn cross_length_matching_within_threshold() {
        let mut p = Logan::new(LoganConfig {
            n_agents: 1,
            distance_threshold: 0.3,
            ..Default::default()
        });
        let a = p.parse("connection closed by peer after timeout");
        let b = p.parse("connection closed by remote peer after timeout");
        assert_eq!(a.template, b.template, "1 insertion over 7 tokens = 0.14");
    }

    #[test]
    fn table1_grouping() {
        let mut p = logan(2, 2);
        let l1 = p.parse("Sending 138 bytes src: 10.250.11.53 dest: /10.250.11.53");
        p.parse("Error while receiving data src: 10.250.11.53 dest: /10.250.11.53");
        let l3 = p.parse("Sending 745675869 bytes src: 10.250.11.53 dest: /10.250.11.53");
        // L1 went to agent 0, L3 to agent 0 again (round robin over 2 with
        // L2 in between) — and after any merge they stay grouped.
        assert_eq!(l1.template, l3.template);
    }

    #[test]
    fn empty_message() {
        let mut p = logan(3, 10);
        let out = p.parse("");
        assert!(out.variables.is_empty());
    }

    #[test]
    fn merge_preserves_oldest_id() {
        let mut p = logan(2, 2);
        let first = p.parse("beat node1 alive");
        p.parse("beat node2 alive"); // agent 1, new id, then reconcile
        let after = p.parse("beat node3 alive");
        assert_eq!(after.template, first.template, "merge keeps the older id");
    }
}

#[cfg(test)]
mod corpus_tests {
    use super::*;
    use crate::eval::pairwise_scores;
    use monilog_loggen::corpus;

    #[test]
    fn good_grouping_on_hdfs_like() {
        let corpus = corpus::hdfs_like(150, 19);
        let mut p = Logan::new(LoganConfig::default());
        let parsed: Vec<u32> = corpus
            .logs
            .iter()
            .map(|l| p.parse(&l.record.message).template.0)
            .collect();
        let truth: Vec<u32> = corpus.logs.iter().map(|l| l.truth.template.0).collect();
        let f1 = pairwise_scores(&parsed, &truth).f1;
        assert!(f1 > 0.9, "Logan pairwise F1 {f1}");
    }
}
