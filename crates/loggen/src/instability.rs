//! Log-instability injection.
//!
//! "Development teams use continuous integration [...] the code base and log
//! statements evolve at a fast pace, which eventually induce instability
//! within the log stream" (Section I). LogRobust tests robustness with
//! "different altered versions of an HDFS dataset, each containing a
//! proportion from 0 to 20% of unstable log events" crafted as:
//! badly parsed loglines, twisted log statements, and duplicated or
//! shuffled logs (Section III). This module reproduces those alterations on
//! our ground-truth streams, plus [`corrupt_events`], the post-parsing
//! error injector used by experiment P2.

use crate::truth::{GenLog, TokenKind};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::collections::HashMap;

/// The alteration kinds of the LogRobust instability study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstabilityKind {
    /// A collection/parsing glitch truncates or mangles the line.
    BadParse,
    /// The developer changed the log statement (insert / remove / replace /
    /// swap static words). Applied consistently per template, like a real
    /// code change.
    TwistStatement,
    /// The line arrives twice (transport duplication).
    Duplicate,
    /// The line arrives out of order (swapped with a near neighbour).
    Shuffle,
}

impl InstabilityKind {
    pub const ALL: [InstabilityKind; 4] = [
        InstabilityKind::BadParse,
        InstabilityKind::TwistStatement,
        InstabilityKind::Duplicate,
        InstabilityKind::Shuffle,
    ];
}

/// Configuration of an instability pass.
#[derive(Debug, Clone, PartialEq)]
pub struct InstabilityConfig {
    /// Target fraction of lines made unstable (LogRobust sweeps 0–20%).
    pub ratio: f64,
    /// Which alterations to use; chosen uniformly per affected line/template.
    pub kinds: Vec<InstabilityKind>,
    pub seed: u64,
}

impl InstabilityConfig {
    pub fn all_kinds(ratio: f64, seed: u64) -> Self {
        InstabilityConfig {
            ratio,
            kinds: InstabilityKind::ALL.to_vec(),
            seed,
        }
    }
}

/// Applies LogRobust-style alterations to a generated stream.
#[derive(Debug, Clone)]
pub struct InstabilityInjector {
    config: InstabilityConfig,
}

/// Static words replaced by "synonyms" when twisting statements — the way a
/// developer rewords a message without changing its meaning.
const SYNONYMS: &[(&str, &str)] = &[
    ("started", "launched"),
    ("starting", "launching"),
    ("finished", "completed"),
    ("failed", "unsuccessful"),
    ("error", "failure"),
    ("Sending", "Transmitting"),
    ("Received", "Got"),
    ("Receiving", "Accepting"),
    ("received", "accepted"),
    ("block", "chunk"),
    ("Request", "Call"),
    ("completed", "done"),
    ("opened", "established"),
    ("state", "status"),
    ("write", "store"),
];

impl InstabilityInjector {
    pub fn new(config: InstabilityConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.ratio),
            "ratio must be in [0,1]"
        );
        assert!(!config.kinds.is_empty(), "at least one instability kind");
        InstabilityInjector { config }
    }

    /// Produce the altered stream. Line count can grow (duplicates).
    /// Altered lines have `truth.unstable = true`; their truth template id
    /// is preserved (the *event* is the same — that is what makes evolved
    /// statements hard for closed-world detectors).
    pub fn apply(&self, logs: &[GenLog]) -> Vec<GenLog> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut out: Vec<GenLog> = logs.to_vec();

        // Statement twisting is template-consistent: pick templates until
        // roughly `ratio`·lines/2 lines are covered (the other half of the
        // budget goes to line-level alterations).
        if self.config.kinds.contains(&InstabilityKind::TwistStatement) && self.config.ratio > 0.0 {
            let mut by_template: HashMap<u32, usize> = HashMap::new();
            for l in &out {
                *by_template.entry(l.truth.template.0).or_default() += 1;
            }
            let mut templates: Vec<u32> = by_template.keys().copied().collect();
            templates.sort_unstable();
            // Deterministic order, random selection.
            let budget = (out.len() as f64 * self.config.ratio * 0.5) as usize;
            let mut remaining = budget;
            let mut twisted: HashMap<u32, Twist> = HashMap::new();
            loop {
                // Only templates that fit the remaining budget are eligible,
                // so a large template cannot blow past the target ratio; if
                // nothing fits and nothing was twisted yet, take the
                // smallest template so a tiny ratio still twists something.
                let eligible: Vec<u32> = templates
                    .iter()
                    .copied()
                    .filter(|t| !twisted.contains_key(t) && by_template[t] <= remaining)
                    .collect();
                let pick = if !eligible.is_empty() {
                    eligible[rng.random_range(0..eligible.len())]
                } else if twisted.is_empty() {
                    match templates.iter().copied().min_by_key(|t| by_template[t]) {
                        Some(t) => t,
                        None => break,
                    }
                } else {
                    break;
                };
                twisted.insert(pick, Twist::pick(&mut rng));
                remaining = remaining.saturating_sub(by_template[&pick]);
            }
            for l in out.iter_mut() {
                if let Some(twist) = twisted.get(&l.truth.template.0) {
                    twist.apply(l, &mut rng);
                }
            }
        }

        // Line-level alterations on the remaining budget.
        let line_kinds: Vec<InstabilityKind> = self
            .config
            .kinds
            .iter()
            .copied()
            .filter(|k| *k != InstabilityKind::TwistStatement)
            .collect();
        if !line_kinds.is_empty() && self.config.ratio > 0.0 {
            let line_ratio = if self.config.kinds.contains(&InstabilityKind::TwistStatement) {
                self.config.ratio * 0.5
            } else {
                self.config.ratio
            };
            let mut i = 0;
            while i < out.len() {
                if !out[i].truth.unstable && rng.random_bool(line_ratio) {
                    let kind = line_kinds[rng.random_range(0..line_kinds.len())];
                    match kind {
                        InstabilityKind::BadParse => bad_parse(&mut out[i], &mut rng),
                        InstabilityKind::Duplicate => {
                            let mut dup = out[i].clone();
                            dup.truth.unstable = true;
                            out.insert(i + 1, dup);
                            i += 1; // skip the copy
                        }
                        InstabilityKind::Shuffle => {
                            let span = rng.random_range(1..=3usize);
                            let j = (i + span).min(out.len() - 1);
                            if j != i {
                                out.swap(i, j);
                                out[i].truth.unstable = true;
                                out[j].truth.unstable = true;
                            }
                        }
                        InstabilityKind::TwistStatement => unreachable!("filtered out"),
                    }
                }
                i += 1;
            }
        }
        out
    }
}

/// A consistent statement rewrite.
#[derive(Debug, Clone, Copy)]
enum Twist {
    /// Insert a filler word at a fixed relative position.
    InsertWord,
    /// Remove one static token.
    RemoveStatic,
    /// Replace static words with synonyms.
    Synonyms,
    /// Swap the first two static tokens.
    SwapStatics,
}

impl Twist {
    fn pick<R: Rng + ?Sized>(rng: &mut R) -> Twist {
        match rng.random_range(0..4u8) {
            0 => Twist::InsertWord,
            1 => Twist::RemoveStatic,
            2 => Twist::Synonyms,
            _ => Twist::SwapStatics,
        }
    }

    fn apply<R: Rng + ?Sized>(self, log: &mut GenLog, _rng: &mut R) {
        let tokens: Vec<String> = log
            .record
            .message
            .split_whitespace()
            .map(str::to_string)
            .collect();
        let kinds = log.truth.token_kinds.clone();
        debug_assert_eq!(tokens.len(), kinds.len());
        let static_positions: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == TokenKind::Static)
            .map(|(i, _)| i)
            .collect();
        let (new_tokens, new_kinds): (Vec<String>, Vec<TokenKind>) = match self {
            Twist::InsertWord => {
                // Insert after the first token — deterministic per template.
                let pos = 1.min(tokens.len());
                let mut t = tokens.clone();
                let mut k = kinds.clone();
                t.insert(pos, "successfully".to_string());
                k.insert(pos, TokenKind::Static);
                (t, k)
            }
            Twist::RemoveStatic => {
                if static_positions.len() <= 1 {
                    return; // nothing safe to remove
                }
                // Remove the *last* static token (stable per template).
                let pos = *static_positions.last().expect("non-empty");
                let mut t = tokens.clone();
                let mut k = kinds.clone();
                t.remove(pos);
                k.remove(pos);
                (t, k)
            }
            Twist::Synonyms => {
                let mut changed = false;
                let t: Vec<String> = tokens
                    .iter()
                    .zip(&kinds)
                    .map(|(tok, kind)| {
                        if *kind == TokenKind::Static {
                            if let Some((_, syn)) = SYNONYMS.iter().find(|(w, _)| w == tok) {
                                changed = true;
                                return (*syn).to_string();
                            }
                        }
                        tok.clone()
                    })
                    .collect();
                if !changed {
                    // Fall back to inserting so the twist is visible.
                    let mut t = tokens.clone();
                    let mut k = kinds.clone();
                    t.insert(1.min(tokens.len()), "now".to_string());
                    k.insert(1.min(tokens.len()), TokenKind::Static);
                    (t, k)
                } else {
                    (t, kinds.clone())
                }
            }
            Twist::SwapStatics => {
                if static_positions.len() < 2 {
                    return;
                }
                let (a, b) = (static_positions[0], static_positions[1]);
                let mut t = tokens.clone();
                t.swap(a, b);
                (t, kinds.clone())
            }
        };
        log.record.message = new_tokens.join(" ").into();
        log.truth.token_kinds = new_kinds;
        log.truth.unstable = true;
    }
}

/// A parsing/collection glitch: truncate the message mid-way, or glue the
/// level token onto the message — both patterns seen when multi-line or
/// partially-flushed logs are collected.
fn bad_parse<R: Rng + ?Sized>(log: &mut GenLog, rng: &mut R) {
    let tokens: Vec<String> = log
        .record
        .message
        .split_whitespace()
        .map(str::to_string)
        .collect();
    if tokens.len() < 2 {
        log.truth.unstable = true;
        return;
    }
    if rng.random_bool(0.5) {
        // Truncation: keep a prefix.
        let keep = rng.random_range(1..tokens.len());
        log.record.message = tokens[..keep].join(" ").into();
        log.truth.token_kinds.truncate(keep);
    } else {
        // Token merge: glue two adjacent tokens together.
        let pos = rng.random_range(0..tokens.len() - 1);
        let mut t = tokens.clone();
        let merged = format!("{}{}", t[pos], t[pos + 1]);
        t[pos] = merged;
        t.remove(pos + 1);
        let mut k = log.truth.token_kinds.clone();
        // The merged token is variable if either half was.
        let kind = if k[pos] == TokenKind::Variable || k[pos + 1] == TokenKind::Variable {
            TokenKind::Variable
        } else {
            TokenKind::Static
        };
        k[pos] = kind;
        k.remove(pos + 1);
        log.record.message = t.join(" ").into();
        log.truth.token_kinds = k;
    }
    log.truth.unstable = true;
}

/// Post-parsing error injection (experiment P2): with probability `rate`,
/// replace an event's template id with either another existing id (confusion)
/// or a fresh spurious id (fragmentation). Returns the number of corrupted
/// events. `ids` are parser-side template ids; `n_templates` is the current
/// vocabulary size — spurious ids are allocated from `n_templates` upward.
pub fn corrupt_events<R: Rng + ?Sized>(
    ids: &mut [u32],
    n_templates: u32,
    rate: f64,
    rng: &mut R,
) -> usize {
    assert!((0.0..=1.0).contains(&rate));
    if n_templates == 0 {
        return 0;
    }
    let mut next_spurious = n_templates;
    let mut corrupted = 0;
    for id in ids.iter_mut() {
        if rng.random_bool(rate) {
            if rng.random_bool(0.5) && n_templates > 1 {
                // Confusion with another existing template.
                let mut other = rng.random_range(0..n_templates);
                if other == *id {
                    other = (other + 1) % n_templates;
                }
                *id = other;
            } else {
                // Fragmentation into a spurious new template.
                *id = next_spurious;
                next_spurious += 1;
            }
            corrupted += 1;
        }
    }
    corrupted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hdfs::{HdfsWorkload, HdfsWorkloadConfig};

    fn base_logs() -> Vec<GenLog> {
        HdfsWorkload::new(HdfsWorkloadConfig {
            n_sessions: 200,
            sequential_anomaly_rate: 0.0,
            quantitative_anomaly_rate: 0.0,
            seed: 3,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn zero_ratio_changes_nothing() {
        let logs = base_logs();
        let injector = InstabilityInjector::new(InstabilityConfig::all_kinds(0.0, 1));
        assert_eq!(injector.apply(&logs), logs);
    }

    #[test]
    fn ratio_roughly_respected() {
        let logs = base_logs();
        for ratio in [0.05, 0.10, 0.20] {
            let injector = InstabilityInjector::new(InstabilityConfig::all_kinds(ratio, 5));
            let altered = injector.apply(&logs);
            let unstable = altered.iter().filter(|l| l.truth.unstable).count() as f64;
            let observed = unstable / altered.len() as f64;
            // Twisting has whole-template granularity, so the observed rate
            // can overshoot the target on small streams; bound loosely.
            assert!(
                observed > ratio * 0.4 && observed < ratio * 4.0 + 0.05,
                "ratio {ratio}: observed {observed}"
            );
        }
    }

    #[test]
    fn token_kinds_stay_consistent() {
        let logs = base_logs();
        let injector = InstabilityInjector::new(InstabilityConfig::all_kinds(0.3, 9));
        for l in injector.apply(&logs) {
            assert_eq!(
                l.record.message.split_whitespace().count(),
                l.truth.token_kinds.len(),
                "token-kind length out of sync for {:?}",
                l.record.message
            );
        }
    }

    #[test]
    fn twist_is_template_consistent() {
        let logs = base_logs();
        let injector = InstabilityInjector::new(InstabilityConfig {
            ratio: 0.4,
            kinds: vec![InstabilityKind::TwistStatement],
            seed: 11,
        });
        let altered = injector.apply(&logs);
        // For each twisted template, all its lines must share the same shape
        // (token count), because a code change affects every emission.
        let mut shape: HashMap<u32, usize> = HashMap::new();
        for l in altered.iter().filter(|l| l.truth.unstable) {
            let count = l.record.message.split_whitespace().count();
            match shape.get(&l.truth.template.0) {
                None => {
                    shape.insert(l.truth.template.0, count);
                }
                Some(&expected) => assert_eq!(
                    expected, count,
                    "template {} twisted inconsistently",
                    l.truth.template.0
                ),
            }
        }
        assert!(!shape.is_empty(), "no template was twisted");
    }

    #[test]
    fn duplicates_grow_the_stream() {
        let logs = base_logs();
        let injector = InstabilityInjector::new(InstabilityConfig {
            ratio: 0.2,
            kinds: vec![InstabilityKind::Duplicate],
            seed: 13,
        });
        let altered = injector.apply(&logs);
        assert!(altered.len() > logs.len());
        // Every duplicate is adjacent to its original and marked unstable.
        let dups = altered
            .windows(2)
            .filter(|w| {
                w[0].record.message == w[1].record.message
                    && w[0].record.header.timestamp == w[1].record.header.timestamp
            })
            .count();
        assert!(dups > 0);
    }

    #[test]
    fn bad_parse_truncates_or_merges() {
        let logs = base_logs();
        let injector = InstabilityInjector::new(InstabilityConfig {
            ratio: 0.5,
            kinds: vec![InstabilityKind::BadParse],
            seed: 17,
        });
        let altered = injector.apply(&logs);
        let unstable: Vec<_> = altered.iter().filter(|l| l.truth.unstable).collect();
        assert!(!unstable.is_empty());
        for l in &unstable {
            let orig = logs
                .iter()
                .find(|o| o.record.seq == l.record.seq)
                .expect("line still present");
            assert!(
                l.record.message.split_whitespace().count()
                    < orig.record.message.split_whitespace().count(),
                "bad parse did not shorten: {:?}",
                l.record.message
            );
        }
    }

    #[test]
    fn corrupt_events_rate_and_values() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut ids: Vec<u32> = (0..10_000).map(|i| i % 20).collect();
        let orig = ids.clone();
        let n = corrupt_events(&mut ids, 20, 0.1, &mut rng);
        let changed = ids.iter().zip(&orig).filter(|(a, b)| a != b).count();
        // Confusion can collide with the original value only via the +1 fix,
        // so every corruption changes the id.
        assert_eq!(n, changed);
        let rate = n as f64 / ids.len() as f64;
        assert!((0.07..=0.13).contains(&rate), "rate {rate}");
        // Spurious ids are all >= 20.
        assert!(ids.iter().any(|&i| i >= 20), "no fragmentation happened");
    }

    #[test]
    fn corrupt_events_zero_rate_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ids: Vec<u32> = (0..100).map(|i| i % 5).collect();
        let orig = ids.clone();
        assert_eq!(corrupt_events(&mut ids, 5, 0.0, &mut rng), 0);
        assert_eq!(ids, orig);
    }

    #[test]
    #[should_panic(expected = "ratio must be in [0,1]")]
    fn invalid_ratio_panics() {
        InstabilityInjector::new(InstabilityConfig::all_kinds(1.5, 0));
    }
}
