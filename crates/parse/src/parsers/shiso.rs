//! SHISO: incremental mining of system log formats (Mizutani, SCC 2013).
//!
//! SHISO grows a search tree of log formats. Each node holds a format
//! (template); a new message descends the tree looking for a node whose
//! format is similar enough (token similarity computed from per-token
//! character-composition vectors). On a match the format is *adjusted*
//! (mismatching tokens widen to wildcards); otherwise the message becomes a
//! new child, subject to a per-node children budget.

use crate::api::{OnlineParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateId, TemplateStore, TemplateToken};

/// SHISO hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShisoConfig {
    /// Maximum children per tree node (the paper's `t`).
    pub max_children: usize,
    /// Similarity threshold in `[0,1]`; higher demands closer formats.
    pub threshold: f64,
    /// Preprocessing masks.
    pub mask: MaskConfig,
}

impl Default for ShisoConfig {
    fn default() -> Self {
        ShisoConfig {
            max_children: 4,
            threshold: 0.6,
            mask: MaskConfig::STANDARD,
        }
    }
}

#[derive(Debug)]
struct ShisoNode {
    id: TemplateId,
    skeleton: Vec<TemplateToken>,
    children: Vec<ShisoNode>,
}

/// The SHISO parser.
#[derive(Debug)]
pub struct Shiso {
    config: ShisoConfig,
    pre: Preprocessor,
    roots: Vec<ShisoNode>,
    store: TemplateStore,
}

/// Character-composition vector of a token: counts of (lowercase,
/// uppercase, digit, other), normalized. SHISO compares tokens by the
/// distance of these vectors, so `x92` and `b07` look alike while `x92`
/// and `started` do not.
fn char_vec(token: &str) -> [f64; 4] {
    let mut v = [0f64; 4];
    for b in token.bytes() {
        match b {
            b'a'..=b'z' => v[0] += 1.0,
            b'A'..=b'Z' => v[1] += 1.0,
            b'0'..=b'9' => v[2] += 1.0,
            _ => v[3] += 1.0,
        }
    }
    let n: f64 = v.iter().sum();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
    v
}

/// Similarity of two tokens in [0,1]: 1 for equal text, otherwise a blend
/// of character-multiset overlap (distinguishes different words) and
/// composition-class similarity (keeps `x92` close to `b07` — SHISO's
/// motivating case of interchangeable identifiers).
fn token_sim(a: &str, b: &str) -> f64 {
    if a == b {
        return 1.0;
    }
    let (va, vb) = (char_vec(a), char_vec(b));
    let l1: f64 = va.iter().zip(&vb).map(|(x, y)| (x - y).abs()).sum();
    let class_sim = 1.0 - l1 / 2.0;
    // Character-multiset Jaccard.
    let mut counts = [0i32; 256];
    for byte in a.bytes() {
        counts[byte as usize] += 1;
    }
    let mut inter = 0i32;
    for byte in b.bytes() {
        if counts[byte as usize] > 0 {
            inter += 1;
            counts[byte as usize] -= 1;
        }
    }
    let union = (a.len() + b.len()) as i32 - inter;
    let char_sim = if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    };
    0.4 * char_sim + 0.6 * class_sim
}

impl Shiso {
    pub fn new(config: ShisoConfig) -> Self {
        assert!(config.max_children >= 1);
        assert!((0.0..=1.0).contains(&config.threshold));
        Shiso {
            pre: Preprocessor::new(config.mask),
            config,
            roots: Vec::new(),
            store: TemplateStore::new(),
        }
    }

    /// Format similarity: average token similarity over aligned positions;
    /// length mismatch is penalized by comparing over the longer length.
    fn format_sim(skeleton: &[TemplateToken], tokens: &[&str]) -> f64 {
        let n = skeleton.len().max(tokens.len());
        if n == 0 {
            return 1.0;
        }
        let mut total = 0.0;
        for i in 0..n {
            match (skeleton.get(i), tokens.get(i)) {
                (Some(TemplateToken::Wildcard), Some(_)) => total += 1.0,
                (Some(TemplateToken::Static(s)), Some(t)) => total += token_sim(s, t),
                _ => {} // length mismatch position: similarity 0
            }
        }
        total / n as f64
    }

    /// Depth-first search for the best matching node; records the path
    /// (child indices from the root set) of the best candidate.
    fn find_best(
        nodes: &[ShisoNode],
        tokens: &[&str],
        threshold: f64,
        path: &mut Vec<usize>,
        best: &mut Option<(Vec<usize>, f64)>,
    ) {
        for (i, node) in nodes.iter().enumerate() {
            path.push(i);
            let sim = Self::format_sim(&node.skeleton, tokens);
            if sim >= threshold
                && node.skeleton.len() == tokens.len()
                && best.as_ref().is_none_or(|(_, bs)| sim > *bs)
            {
                *best = Some((path.clone(), sim));
            }
            Self::find_best(&node.children, tokens, threshold, path, best);
            path.pop();
        }
    }

    fn node_at_mut<'a>(nodes: &'a mut [ShisoNode], path: &[usize]) -> &'a mut ShisoNode {
        let (first, rest) = path.split_first().expect("path is never empty");
        let node = &mut nodes[*first];
        if rest.is_empty() {
            node
        } else {
            Self::node_at_mut(&mut node.children, rest)
        }
    }
}

impl OnlineParser for Shiso {
    fn parse(&mut self, message: &str) -> ParseOutcome {
        let (masked, original) = self.pre.mask(message);

        let mut best = None;
        Self::find_best(
            &self.roots,
            &masked,
            self.config.threshold,
            &mut Vec::new(),
            &mut best,
        );
        if let Some((path, _)) = best {
            let node = Self::node_at_mut(&mut self.roots, &path);
            // Adjust the format: widen mismatches.
            let mut changed = false;
            for (t, tok) in node.skeleton.iter_mut().zip(&masked) {
                if let TemplateToken::Static(s) = t {
                    if s != tok {
                        *t = TemplateToken::Wildcard;
                        changed = true;
                    }
                }
            }
            if changed {
                self.store.update(node.id, node.skeleton.clone());
            }
            let variables = node
                .skeleton
                .iter()
                .zip(&original)
                .filter(|(t, _)| t.is_wildcard())
                .map(|(_, tok)| (*tok).to_string())
                .collect();
            return ParseOutcome {
                template: node.id,
                is_new: false,
                variables,
            };
        }

        // No match: insert a new node, descending while nodes are full.
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
        let variables = skeleton
            .iter()
            .zip(&original)
            .filter(|(t, _)| t.is_wildcard())
            .map(|(_, tok)| (*tok).to_string())
            .collect();
        // intern() may dedup to an existing node's template; in that case
        // do not insert a duplicate node.
        if !node_exists(&self.roots, id) {
            let node = ShisoNode {
                id,
                skeleton,
                children: Vec::new(),
            };
            let max = self.config.max_children;
            let mut level = &mut self.roots;
            loop {
                if level.len() < max {
                    level.push(node);
                    break;
                }
                // Descend into the most similar full node's children.
                let mut best_idx = 0;
                let mut best_sim = -1.0;
                for (i, n) in level.iter().enumerate() {
                    let sim = Self::format_sim(&n.skeleton, &masked);
                    if sim > best_sim {
                        best_sim = sim;
                        best_idx = i;
                    }
                }
                level = &mut level[best_idx].children;
            }
        }
        ParseOutcome {
            template: id,
            is_new: true,
            variables,
        }
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::Shiso
    }
}

fn node_exists(nodes: &[ShisoNode], id: TemplateId) -> bool {
    nodes
        .iter()
        .any(|n| n.id == id || node_exists(&n.children, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_vec_normalizes() {
        let v = char_vec("Ab1!");
        assert_eq!(v, [0.25, 0.25, 0.25, 0.25]);
        assert_eq!(char_vec(""), [0.0; 4]);
    }

    #[test]
    fn token_sim_behaviour() {
        assert_eq!(token_sim("abc", "abc"), 1.0);
        // Same composition class, different text: high but < 1.
        let s = token_sim("x92", "b07");
        assert!(s > 0.5 && s < 1.0, "{s}");
        // Letters vs digits: low.
        assert!(token_sim("started", "12345") < 0.2);
    }

    #[test]
    fn identical_messages_share_node() {
        let mut p = Shiso::new(ShisoConfig::default());
        let a = p.parse("service gateway restarted cleanly");
        let b = p.parse("service gateway restarted cleanly");
        assert_eq!(a.template, b.template);
        assert!(!b.is_new);
    }

    #[test]
    fn similar_messages_adjust_format() {
        let mut p = Shiso::new(ShisoConfig {
            mask: MaskConfig::NONE,
            ..Default::default()
        });
        let a = p.parse("process x92 exited code 0");
        let b = p.parse("process b07 exited code 0");
        assert_eq!(a.template, b.template);
        let t = p.store().get(a.template).unwrap();
        assert!(t.render().contains("<*>"), "{}", t.render());
    }

    #[test]
    fn dissimilar_messages_split() {
        let mut p = Shiso::new(ShisoConfig::default());
        let a = p.parse("alpha beta gamma");
        let b = p.parse("100 200 300");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn children_budget_forces_descent() {
        let mut p = Shiso::new(ShisoConfig {
            max_children: 2,
            threshold: 0.99,
            mask: MaskConfig::NONE,
        });
        // Four dissimilar messages with a tiny budget: the tree must grow
        // in depth rather than width, and all messages still parse.
        let outs: Vec<ParseOutcome> = ["alpha beta", "gamma delta", "epsilon zeta", "eta theta"]
            .iter()
            .map(|m| p.parse(m))
            .collect();
        let mut ids: Vec<u32> = outs.iter().map(|o| o.template.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "all four formats kept");
    }

    #[test]
    fn length_mismatch_is_penalized() {
        let mut p = Shiso::new(ShisoConfig {
            threshold: 0.7,
            ..Default::default()
        });
        let a = p.parse("connection closed");
        let b = p.parse("connection closed by remote peer after timeout");
        assert_ne!(a.template, b.template);
    }

    #[test]
    fn empty_message() {
        let mut p = Shiso::new(ShisoConfig::default());
        let out = p.parse("");
        assert!(out.variables.is_empty());
    }
}
