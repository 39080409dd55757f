//! Cross-source co-occurrence detection — the paper's own motivating
//! anomaly class, operationalized.
//!
//! "Some \[anomalies\] require a multi-source scope to be detected. For
//! instance, certain patterns within storage logs are anomalous only if
//! certain actions are logged by network logs at the same time."
//! (Section I)
//!
//! Neither sequence models nor count thresholds see this: each template
//! involved is individually normal at normal rates. What is anomalous is
//! the *joint* behaviour inside one window. The detector mines, from
//! normal windows, (a) the empirical co-occurrence probability of every
//! template pair, and (b) each pair's largest observed *joint intensity*
//! (the min of the two counts — "how hard did they ever fire together").
//! A test window's score is its most surprising pair:
//! `−log₂ P(pair)` for pairs never seen together, plus burst bits for
//! joint intensities beyond anything seen in training — which is exactly
//! the correlated-burst shape of a cross-source incident. Threshold
//! calibrated from training windows.

use crate::api::{Detector, TrainSet, Window};
use std::collections::HashMap;

/// Co-occurrence detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoOccurrenceDetectorConfig {
    /// Pairs must involve templates each rarer than this window-frequency
    /// to be scored (ubiquitous templates co-occur with everything and
    /// carry no signal).
    pub max_template_frequency: f64,
    /// Surprise cap for never-seen pairs, in bits.
    pub max_surprise: f64,
    /// Bits added per unit of joint intensity beyond the training maximum
    /// (a pair seen together at intensity 1 that fires at intensity 5 gains
    /// `4 × burst_bits`).
    pub burst_bits: f64,
    /// Training-surprise quantile used as the threshold.
    pub threshold_quantile: f64,
}

impl Default for CoOccurrenceDetectorConfig {
    fn default() -> Self {
        CoOccurrenceDetectorConfig {
            max_template_frequency: 0.25,
            max_surprise: 20.0,
            burst_bits: 2.0,
            threshold_quantile: 0.995,
        }
    }
}

/// The cross-source co-occurrence detector.
#[derive(Debug, Clone)]
pub struct CoOccurrenceDetector {
    config: CoOccurrenceDetectorConfig,
    /// Window-frequency of each template id.
    template_freq: HashMap<u32, f64>,
    /// Window-frequency of each (low, high) template pair.
    pair_freq: HashMap<(u32, u32), f64>,
    /// Largest joint intensity (min of the two counts) each pair reached
    /// in any training window.
    pair_max_joint: HashMap<(u32, u32), f64>,
    n_windows: f64,
    threshold: f64,
}

impl CoOccurrenceDetector {
    pub fn new(config: CoOccurrenceDetectorConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.max_template_frequency));
        assert!(config.max_surprise > 0.0);
        CoOccurrenceDetector {
            config,
            template_freq: HashMap::new(),
            pair_freq: HashMap::new(),
            pair_max_joint: HashMap::new(),
            n_windows: 0.0,
            threshold: f64::MAX,
        }
    }

    fn id_counts(window: &Window) -> Vec<(u32, f64)> {
        let mut counts: HashMap<u32, f64> = HashMap::new();
        for &id in &window.sequence {
            *counts.entry(id).or_default() += 1.0;
        }
        let mut v: Vec<(u32, f64)> = counts.into_iter().collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Surprise (bits) of the most improbable *rare-rare* pair in the
    /// window, including burst bits for joint intensities beyond the
    /// training maximum; 0 when no scorable pair exists.
    fn surprise(&self, window: &Window) -> f64 {
        let counts = Self::id_counts(window);
        let rare: Vec<(u32, f64)> = counts
            .into_iter()
            .filter(|(id, _)| {
                self.template_freq
                    .get(id)
                    .is_none_or(|f| *f <= self.config.max_template_frequency)
            })
            .collect();
        let mut worst: f64 = 0.0;
        for (i, &(a, ca)) in rare.iter().enumerate() {
            for &(b, cb) in &rare[i + 1..] {
                // Only pairs whose members were both seen in training are
                // informative; an unseen *template* is the closed-world
                // problem, which belongs to the other detectors.
                if !self.template_freq.contains_key(&a) || !self.template_freq.contains_key(&b) {
                    continue;
                }
                let p = self.pair_freq.get(&(a, b)).copied().unwrap_or(0.0);
                let base = if p > 0.0 {
                    (-p.log2()).min(self.config.max_surprise)
                } else {
                    self.config.max_surprise
                };
                // Correlated-burst bonus: joint intensity beyond anything
                // training ever showed for this pair.
                let joint = ca.min(cb);
                let max_joint = self.pair_max_joint.get(&(a, b)).copied().unwrap_or(0.0);
                let burst = (joint - max_joint).max(0.0) * self.config.burst_bits;
                worst = worst.max((base + burst).min(2.0 * self.config.max_surprise));
            }
        }
        worst
    }
}

impl Detector for CoOccurrenceDetector {
    fn name(&self) -> &'static str {
        "CoOccurrence"
    }

    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(
            !normal.is_empty(),
            "co-occurrence mining needs training windows"
        );
        self.pair_max_joint.clear();
        self.n_windows = normal.len() as f64;
        let mut template_counts: HashMap<u32, usize> = HashMap::new();
        let mut pair_counts: HashMap<(u32, u32), usize> = HashMap::new();
        for w in &normal {
            let counts = Self::id_counts(w);
            for &(id, _) in &counts {
                *template_counts.entry(id).or_default() += 1;
            }
            for (i, &(a, ca)) in counts.iter().enumerate() {
                for &(b, cb) in &counts[i + 1..] {
                    *pair_counts.entry((a, b)).or_default() += 1;
                    let joint = ca.min(cb);
                    let entry = self.pair_max_joint.entry((a, b)).or_default();
                    *entry = entry.max(joint);
                }
            }
        }
        self.template_freq = template_counts
            .into_iter()
            .map(|(id, n)| (id, n as f64 / self.n_windows))
            .collect();
        self.pair_freq = pair_counts
            .into_iter()
            .map(|(pair, n)| (pair, n as f64 / self.n_windows))
            .collect();

        let mut surprises: Vec<f64> = normal.iter().map(|w| self.surprise(w)).collect();
        surprises.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx =
            ((surprises.len() as f64 - 1.0) * self.config.threshold_quantile).round() as usize;
        self.threshold = surprises[idx.min(surprises.len() - 1)] + 1.0;
    }

    fn score(&self, window: &Window) -> f64 {
        self.surprise(window)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normal traffic: template 0 everywhere; template 5 (net degradation)
    /// appears in ~10% of windows, template 9 (storage slowness) in ~10% —
    /// but never together.
    fn train_set() -> TrainSet {
        let mut windows = Vec::new();
        for i in 0..200 {
            let mut ids = vec![0, 1, 0];
            if i % 10 == 3 {
                ids.push(5);
            }
            if i % 10 == 7 {
                ids.push(9);
            }
            windows.push(Window::from_ids(ids));
        }
        TrainSet::unlabeled(windows)
    }

    #[test]
    fn individually_rare_templates_pass() {
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default());
        let train = train_set();
        d.fit(&train);
        for w in &train.windows {
            assert!(
                !d.predict(w),
                "training window flagged, surprise {}",
                d.score(w)
            );
        }
        // A fresh window with only template 5 (rare but known) passes.
        assert!(!d.predict(&Window::from_ids(vec![0, 1, 5, 0])));
    }

    #[test]
    fn rare_pair_cooccurrence_is_flagged() {
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default());
        d.fit(&train_set());
        // The paper's §I example: network degradation (5) and storage
        // slowness (9) in the same window — each normal alone.
        let incident = Window::from_ids(vec![0, 5, 1, 9, 0]);
        assert!(
            d.predict(&incident),
            "joint occurrence not flagged: surprise {} ≤ threshold {}",
            d.score(&incident),
            d.threshold()
        );
    }

    #[test]
    fn frequent_templates_carry_no_signal() {
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default());
        d.fit(&train_set());
        // 0 and 1 are in every window: their pair is ubiquitous, and pairs
        // with them are excluded by the frequency filter.
        let w = Window::from_ids(vec![0, 1]);
        assert_eq!(d.score(&w), 0.0);
    }

    #[test]
    fn unseen_templates_are_not_this_detectors_job() {
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default());
        d.fit(&train_set());
        // Unknown template 77 alongside rare 5: no trained pair stats, so
        // the surprise is 0 — closed-world detection is DeepLog's role.
        let w = Window::from_ids(vec![0, 5, 77]);
        assert_eq!(d.score(&w), 0.0);
    }

    #[test]
    fn surprise_is_monotone_in_rarity() {
        let mut windows = Vec::new();
        // Pair (2,3) occurs in 10% of windows; pair (4,5) in 1%.
        for i in 0..200 {
            let mut ids = vec![0];
            if i % 10 == 0 {
                ids.extend([2, 3]);
            }
            if i % 100 == 0 {
                ids.extend([4, 5]);
            }
            windows.push(Window::from_ids(ids));
        }
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default());
        d.fit(&TrainSet::unlabeled(windows));
        let common = d.score(&Window::from_ids(vec![0, 2, 3]));
        let rare = d.score(&Window::from_ids(vec![0, 4, 5]));
        assert!(
            rare > common,
            "rarer pair must be more surprising: {rare} vs {common}"
        );
    }

    #[test]
    fn correlated_burst_beats_single_cooccurrence() {
        // Templates 5 and 9 DO co-occur (once per window) in some training
        // windows — single co-occurrence is normal. A joint burst is not.
        let mut windows = Vec::new();
        for i in 0..200 {
            let mut ids = vec![0, 1];
            if i % 20 == 0 {
                ids.push(5);
                ids.push(9); // normal single co-occurrence
            }
            windows.push(Window::from_ids(ids));
        }
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default());
        d.fit(&TrainSet::unlabeled(windows));
        // Single co-occurrence: seen in training, passes.
        assert!(!d.predict(&Window::from_ids(vec![0, 1, 5, 9])));
        // Correlated burst (5× each): never seen, fires.
        let incident = Window::from_ids(vec![0, 5, 9, 5, 9, 5, 9, 5, 9, 5, 9, 1]);
        assert!(
            d.predict(&incident),
            "joint burst not flagged: {} ≤ {}",
            d.score(&incident),
            d.threshold()
        );
    }

    #[test]
    fn score_is_capped() {
        let mut d = CoOccurrenceDetector::new(CoOccurrenceDetectorConfig {
            max_surprise: 8.0,
            ..Default::default()
        });
        d.fit(&train_set());
        let incident = Window::from_ids(vec![5, 9]);
        assert!(d.score(&incident) <= 16.0, "total cap is 2×max_surprise");
    }

    #[test]
    #[should_panic(expected = "needs training windows")]
    fn empty_training_rejected() {
        CoOccurrenceDetector::new(CoOccurrenceDetectorConfig::default()).fit(&TrainSet::default());
    }
}
