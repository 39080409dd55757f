//! IPLoM: Iterative Partitioning Log Mining (Makanju et al., KDD 2009).
//!
//! A *batch* parser — the paper's Section IV argues batch methods cannot be
//! deployed under log instability ("it will never include yet non-existing
//! log templates"), but they remain the classic baselines, so experiment P4
//! includes them.
//!
//! Steps:
//! 1. Partition by token count.
//! 2. Within each partition, split by the token at the position with the
//!    lowest distinct-token cardinality.
//! 3. Split by the relation (bijection or not) between the two most-ranked
//!    positions (simplified to a pair-mapping split).
//! 4. Extract a template per partition: positions with a single distinct
//!    token become static, others wildcards.

use crate::api::{BatchParser, ParseOutcome, ParserKind};
use crate::preprocess::{MaskConfig, Preprocessor};
use monilog_model::{TemplateStore, TemplateToken};
use std::collections::HashMap;

/// IPLoM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpLoMConfig {
    /// Partitions smaller than this fraction of their parent are merged
    /// into an outlier partition instead of splitting further.
    pub partition_support: f64,
    /// A position whose distinct-token ratio is below this is a split
    /// candidate in step 2.
    pub max_split_cardinality_ratio: f64,
    /// Preprocessing masks.
    pub mask: MaskConfig,
}

impl Default for IpLoMConfig {
    fn default() -> Self {
        IpLoMConfig {
            partition_support: 0.02,
            max_split_cardinality_ratio: 0.5,
            mask: MaskConfig::STANDARD,
        }
    }
}

/// The IPLoM batch parser.
#[derive(Debug)]
pub struct IpLoM {
    config: IpLoMConfig,
    pre: Preprocessor,
    store: TemplateStore,
}

/// A working partition: indices into the corpus.
struct Partition {
    lines: Vec<usize>,
    /// How many split steps this partition has been through (1 or 2).
    step: u8,
}

impl IpLoM {
    pub fn new(config: IpLoMConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.partition_support));
        IpLoM {
            pre: Preprocessor::new(config.mask),
            config,
            store: TemplateStore::new(),
        }
    }

    /// Position with the lowest cardinality > 1, if any qualifies.
    #[allow(clippy::needless_range_loop)] // column scan across rows
    fn split_position(tokenized: &[Vec<&str>], lines: &[usize], width: usize) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (position, cardinality)
        for pos in 0..width {
            let mut seen: HashMap<&str, ()> = HashMap::new();
            for &li in lines {
                seen.insert(tokenized[li][pos], ());
            }
            let card = seen.len();
            if card > 1 && best.is_none_or(|(_, bc)| card < bc) {
                best = Some((pos, card));
            }
        }
        best.map(|(p, _)| p)
    }
}

impl BatchParser for IpLoM {
    #[allow(clippy::needless_range_loop)] // column scan across rows
    fn parse_batch(&mut self, messages: &[&str]) -> Vec<ParseOutcome> {
        self.store = TemplateStore::new();
        let masked_and_original: Vec<(Vec<&str>, Vec<&str>)> =
            messages.iter().map(|m| self.pre.mask(m)).collect();
        let tokenized: Vec<Vec<&str>> =
            masked_and_original.iter().map(|(m, _)| m.clone()).collect();

        // Step 1: partition by token count.
        let mut by_len: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, toks) in tokenized.iter().enumerate() {
            by_len.entry(toks.len()).or_default().push(i);
        }
        let mut work: Vec<Partition> = by_len
            .into_values()
            .map(|lines| Partition { lines, step: 1 })
            .collect();

        // Steps 2–3: iterative splitting.
        let mut finished: Vec<Vec<usize>> = Vec::new();
        while let Some(part) = work.pop() {
            let width = tokenized[part.lines[0]].len();
            if width == 0 || part.step > 2 || part.lines.len() < 4 {
                finished.push(part.lines);
                continue;
            }
            let min_child =
                ((part.lines.len() as f64 * self.config.partition_support) as usize).max(1);
            match Self::split_position(&tokenized, &part.lines, width) {
                Some(pos) => {
                    // Cardinality guard: don't split on near-unique positions.
                    let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
                    for &li in &part.lines {
                        groups.entry(tokenized[li][pos]).or_default().push(li);
                    }
                    let ratio = groups.len() as f64 / part.lines.len() as f64;
                    if ratio > self.config.max_split_cardinality_ratio {
                        finished.push(part.lines);
                        continue;
                    }
                    let mut outliers: Vec<usize> = Vec::new();
                    for (_, lines) in groups {
                        if lines.len() < min_child {
                            outliers.extend(lines);
                        } else {
                            work.push(Partition {
                                lines,
                                step: part.step + 1,
                            });
                        }
                    }
                    if !outliers.is_empty() {
                        finished.push(outliers);
                    }
                }
                None => finished.push(part.lines),
            }
        }

        // Step 4: template extraction per partition.
        let mut outcome_by_line: Vec<Option<ParseOutcome>> = vec![None; messages.len()];
        for lines in finished {
            let width = tokenized[lines[0]].len();
            // A position is static iff a single distinct token appears there
            // across the whole partition (and it isn't a mask).
            let mut skeleton: Vec<TemplateToken> = Vec::with_capacity(width);
            for pos in 0..width {
                let first = tokenized[lines[0]][pos];
                let uniform = lines.iter().all(|&li| tokenized[li][pos] == first);
                if uniform && first != "<*>" {
                    skeleton.push(TemplateToken::Static(first.to_string()));
                } else {
                    skeleton.push(TemplateToken::Wildcard);
                }
            }
            let id = self.store.intern(skeleton.clone());
            for &li in &lines {
                let original = &masked_and_original[li].1;
                let variables = skeleton
                    .iter()
                    .zip(original.iter())
                    .filter(|(t, _)| t.is_wildcard())
                    .map(|(_, tok)| (*tok).to_string())
                    .collect();
                outcome_by_line[li] = Some(ParseOutcome {
                    template: id,
                    is_new: false,
                    variables,
                });
            }
        }
        outcome_by_line
            .into_iter()
            .map(|o| o.expect("every line belongs to a partition"))
            .collect()
    }

    fn store(&self) -> &TemplateStore {
        &self.store
    }

    fn kind(&self) -> ParserKind {
        ParserKind::IpLoM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(messages: &[&str]) -> (IpLoM, Vec<ParseOutcome>) {
        let mut p = IpLoM::new(IpLoMConfig::default());
        let outs = p.parse_batch(messages);
        (p, outs)
    }

    #[test]
    fn identical_lines_one_template() {
        let msgs = vec!["disk ok"; 10];
        let (p, outs) = parse(&msgs);
        assert_eq!(p.store().len(), 1);
        assert!(outs.iter().all(|o| o.template == outs[0].template));
    }

    #[test]
    fn splits_by_token_count_first() {
        let msgs = vec!["a b", "a b", "a b c", "a b c"];
        let (_, outs) = parse(&msgs);
        assert_eq!(outs[0].template, outs[1].template);
        assert_eq!(outs[2].template, outs[3].template);
        assert_ne!(outs[0].template, outs[2].template);
    }

    #[test]
    fn variable_position_becomes_wildcard() {
        let msgs: Vec<String> = (0..20)
            .map(|i| format!("session user{i} authenticated fine"))
            .collect();
        let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        let (p, outs) = parse(&refs);
        let t = p.store().get(outs[0].template).unwrap();
        assert_eq!(t.render(), "session <*> authenticated fine");
        assert_eq!(outs[3].variables, vec!["user3"]);
    }

    #[test]
    fn low_cardinality_split_separates_templates() {
        // Two interleaved templates with the same token count: the operation
        // word has cardinality 2 and is the split position.
        let mut msgs = Vec::new();
        for i in 0..20 {
            msgs.push(format!("op read file f{i} done"));
            msgs.push(format!("op write file f{i} done"));
        }
        let refs: Vec<&str> = msgs.iter().map(String::as_str).collect();
        let (p, outs) = parse(&refs);
        assert_eq!(
            p.store().len(),
            2,
            "{:?}",
            p.store().iter().map(|t| t.render()).collect::<Vec<_>>()
        );
        assert_ne!(outs[0].template, outs[1].template);
        assert_eq!(outs[0].template, outs[2].template);
    }

    #[test]
    fn empty_corpus() {
        let mut p = IpLoM::new(IpLoMConfig::default());
        assert!(p.parse_batch(&[]).is_empty());
        assert_eq!(p.store().len(), 0);
    }

    #[test]
    fn reparse_resets_state() {
        let mut p = IpLoM::new(IpLoMConfig::default());
        p.parse_batch(&["a b", "c d"]);
        let first_len = p.store().len();
        p.parse_batch(&["x y z"]);
        assert!(p.store().len() <= first_len, "store grew across batches");
    }

    #[test]
    fn masked_tokens_are_variables() {
        let msgs = vec![
            "sent 42 bytes",
            "sent 43 bytes",
            "sent 44 bytes",
            "sent 45 bytes",
        ];
        let (p, outs) = parse(&msgs);
        let t = p.store().get(outs[0].template).unwrap();
        assert_eq!(t.render(), "sent <*> bytes");
    }
}
