//! Auto-parametrization of Drain via unsupervised quality (Section IV).
//!
//! "We can imagine a component deployed according to the following flow.
//! First, it acquires a fixed quantity of loglines within its environment.
//! Then it calibrates the value of its parameters by estimating its
//! performance using an unsupervised metric. Once it detects the supposed
//! optimal values, it starts parsing logs."
//!
//! [`autotune_drain`] implements exactly that flow: grid-search Drain's two
//! hyper-parameters (tree depth, similarity threshold) and the mask choice
//! on a calibration sample, scoring each candidate with
//! [`crate::eval::unsupervised_quality`], and return the best configuration
//! ready for deployment. Experiment P6 compares it against the
//! supervised-best parameters.

use crate::api::OnlineParser;
use crate::eval::unsupervised::{unsupervised_quality, UnsupervisedReport};
use crate::parsers::drain::{Drain, DrainConfig};
use crate::preprocess::MaskConfig;

/// The search space of the calibration.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneGrid {
    pub depths: Vec<usize>,
    pub sim_thresholds: Vec<f64>,
    pub masks: Vec<MaskConfig>,
}

impl Default for TuneGrid {
    fn default() -> Self {
        TuneGrid {
            depths: vec![3, 4, 5],
            sim_thresholds: vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
            masks: vec![
                MaskConfig::NONE,
                MaskConfig::STANDARD,
                MaskConfig::AGGRESSIVE,
            ],
        }
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct TunePoint {
    pub config: DrainConfig,
    pub report: UnsupervisedReport,
}

/// Result of a calibration run: the winner plus the whole grid (for the P6
/// sensitivity table).
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    pub best: TunePoint,
    pub all: Vec<TunePoint>,
}

/// Calibrate Drain on `sample` (the "fixed quantity of loglines"), scoring
/// each grid point by unsupervised quality. `max_pairs` bounds metric
/// sampling (2000 is a good default).
pub fn autotune_drain(sample: &[&str], grid: &TuneGrid, max_pairs: usize) -> TuneResult {
    assert!(!sample.is_empty(), "calibration sample must not be empty");
    let mut all = Vec::new();
    for &depth in &grid.depths {
        for &st in &grid.sim_thresholds {
            for &mask in &grid.masks {
                let config = DrainConfig {
                    depth,
                    sim_threshold: st,
                    mask,
                    ..DrainConfig::default()
                };
                let mut parser = Drain::new(config);
                let labels: Vec<u32> = sample.iter().map(|m| parser.parse(m).template.0).collect();
                let report = unsupervised_quality(sample, &labels, max_pairs);
                all.push(TunePoint { config, report });
            }
        }
    }
    let best = all
        .iter()
        .max_by(|a, b| {
            a.report
                .quality
                .partial_cmp(&b.report.quality)
                .expect("quality is never NaN")
        })
        .expect("grid is non-empty")
        .clone();
    TuneResult { best, all }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monilog_loggen::corpus;

    #[test]
    fn tuned_config_is_from_the_grid() {
        let corpus = corpus::hdfs_like(60, 21);
        let messages: Vec<&str> = corpus.messages().collect();
        let grid = TuneGrid::default();
        let result = autotune_drain(&messages[..300.min(messages.len())], &grid, 500);
        assert!(grid.depths.contains(&result.best.config.depth));
        assert!(grid
            .sim_thresholds
            .iter()
            .any(|&s| (s - result.best.config.sim_threshold).abs() < 1e-12));
        assert_eq!(
            result.all.len(),
            grid.depths.len() * grid.sim_thresholds.len() * grid.masks.len()
        );
    }

    #[test]
    fn tuned_quality_is_grid_maximum() {
        let corpus = corpus::cloud_mixed(8, 31);
        let messages: Vec<&str> = corpus.messages().take(400).collect();
        let result = autotune_drain(&messages, &TuneGrid::default(), 500);
        for p in &result.all {
            assert!(p.report.quality <= result.best.report.quality + 1e-12);
        }
    }

    #[test]
    fn tuned_drain_groups_well_on_held_out_data() {
        // Calibrate on a prefix, evaluate grouping on the rest: the point
        // of P6 is that unsupervised calibration transfers.
        let corpus = corpus::hdfs_like(120, 41);
        let messages: Vec<&str> = corpus.messages().collect();
        let split = messages.len() / 3;
        let result = autotune_drain(&messages[..split], &TuneGrid::default(), 800);

        let mut parser = Drain::new(result.best.config);
        let parsed: Vec<u32> = messages[split..]
            .iter()
            .map(|m| parser.parse(m).template.0)
            .collect();
        let truth: Vec<u32> = corpus.logs[split..]
            .iter()
            .map(|l| l.truth.template.0)
            .collect();
        let ga = crate::eval::grouping_accuracy(&parsed, &truth);
        assert!(ga > 0.8, "auto-tuned Drain only reached GA {ga}");
    }

    #[test]
    #[should_panic(expected = "calibration sample must not be empty")]
    fn empty_sample_panics() {
        autotune_drain(&[], &TuneGrid::default(), 100);
    }
}
