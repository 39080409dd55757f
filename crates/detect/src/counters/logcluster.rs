//! LogClustering (Lin et al., ICSE-C 2016: "Log clustering based problem
//! identification for online service systems").
//!
//! Normal behaviour concentrates into a modest number of count-vector
//! clusters. Fit: agglomerative clustering of normalized training vectors
//! under a cosine-distance threshold; each cluster keeps its centroid as a
//! representative. Score: distance of a window to its nearest
//! representative; threshold calibrated from training distances.

use crate::api::{Detector, TrainSet, Window};
use crate::window::normalized_count_vector;

/// LogClustering parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogClusterDetectorConfig {
    /// Cosine-distance threshold below which two clusters merge.
    pub merge_distance: f64,
    /// Training-distance quantile used as the anomaly threshold.
    pub threshold_quantile: f64,
}

impl Default for LogClusterDetectorConfig {
    fn default() -> Self {
        LogClusterDetectorConfig {
            merge_distance: 0.10,
            threshold_quantile: 0.995,
        }
    }
}

/// The LogClustering detector.
#[derive(Debug, Clone)]
pub struct LogClusterDetector {
    config: LogClusterDetectorConfig,
    dim: usize,
    representatives: Vec<Vec<f64>>,
    threshold: f64,
}

fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    // Inputs are L2-normalized (or zero): distance = 1 - cosine.
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    (1.0 - dot).max(0.0)
}

impl LogClusterDetector {
    pub fn new(config: LogClusterDetectorConfig) -> Self {
        assert!((0.0..=2.0).contains(&config.merge_distance));
        LogClusterDetector {
            config,
            dim: 2,
            representatives: Vec::new(),
            threshold: f64::MAX,
        }
    }

    /// Number of normal-behaviour clusters found (diagnostics).
    pub fn cluster_count(&self) -> usize {
        self.representatives.len()
    }

    fn nearest_distance(&self, v: &[f64]) -> f64 {
        self.representatives
            .iter()
            .map(|r| cosine_distance(v, r))
            .fold(f64::INFINITY, f64::min)
    }
}

impl Detector for LogClusterDetector {
    fn name(&self) -> &'static str {
        "LogClustering"
    }

    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(!normal.is_empty(), "clustering needs training windows");
        self.dim = train.max_template_id().map(|m| m as usize + 2).unwrap_or(2);
        let vectors: Vec<Vec<f64>> = normal
            .iter()
            .map(|w| normalized_count_vector(w, self.dim))
            .collect();

        // Leader clustering (single pass): equivalent in effect to
        // agglomerative clustering at a fixed distance cut, O(n·k).
        let mut centroids: Vec<(Vec<f64>, usize)> = Vec::new();
        for v in &vectors {
            let mut best: Option<(usize, f64)> = None;
            for (idx, (c, _)) in centroids.iter().enumerate() {
                let d = cosine_distance(v, c);
                if d <= self.config.merge_distance && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((idx, d));
                }
            }
            match best {
                Some((idx, _)) => {
                    let (c, n) = &mut centroids[idx];
                    let total = *n as f64;
                    for (ci, vi) in c.iter_mut().zip(v) {
                        *ci = (*ci * total + vi) / (total + 1.0);
                    }
                    // Re-normalize the running centroid.
                    let norm: f64 = c.iter().map(|x| x * x).sum::<f64>().sqrt();
                    if norm > 0.0 {
                        for ci in c.iter_mut() {
                            *ci /= norm;
                        }
                    }
                    *n += 1;
                }
                None => centroids.push((v.clone(), 1)),
            }
        }
        self.representatives = centroids.into_iter().map(|(c, _)| c).collect();

        let mut distances: Vec<f64> = vectors.iter().map(|v| self.nearest_distance(v)).collect();
        distances.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx =
            ((distances.len() as f64 - 1.0) * self.config.threshold_quantile).round() as usize;
        self.threshold = (distances[idx.min(distances.len() - 1)] * 1.5)
            .max(self.config.merge_distance * 0.5)
            .max(1e-6);
    }

    fn score(&self, window: &Window) -> f64 {
        self.nearest_distance(&normalized_count_vector(window, self.dim))
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_mode_train() -> TrainSet {
        let mut windows = Vec::new();
        for i in 0..60 {
            let w = if i % 2 == 0 {
                Window::from_ids(vec![0, 0, 1]) // mode A
            } else {
                Window::from_ids(vec![2, 3, 3, 3]) // mode B
            };
            windows.push(w);
        }
        TrainSet::unlabeled(windows)
    }

    #[test]
    fn discovers_the_two_modes() {
        let mut d = LogClusterDetector::new(LogClusterDetectorConfig::default());
        d.fit(&two_mode_train());
        assert_eq!(d.cluster_count(), 2);
    }

    #[test]
    fn normal_windows_pass_and_outliers_fail() {
        let mut d = LogClusterDetector::new(LogClusterDetectorConfig::default());
        let train = two_mode_train();
        d.fit(&train);
        for w in &train.windows {
            assert!(!d.predict(w));
        }
        // A window mixing both modes plus an unseen event.
        let outlier = Window::from_ids(vec![0, 2, 9, 9, 9, 9]);
        assert!(d.predict(&outlier), "distance {}", d.score(&outlier));
    }

    #[test]
    fn scores_are_cosine_distances_in_range() {
        let mut d = LogClusterDetector::new(LogClusterDetectorConfig::default());
        d.fit(&two_mode_train());
        let w = Window::from_ids(vec![5, 5, 5]);
        let s = d.score(&w);
        assert!((0.0..=2.0).contains(&s));
    }

    #[test]
    fn merge_distance_controls_granularity() {
        let train = two_mode_train();
        let mut fine = LogClusterDetector::new(LogClusterDetectorConfig {
            merge_distance: 0.01,
            ..Default::default()
        });
        fine.fit(&train);
        let mut coarse = LogClusterDetector::new(LogClusterDetectorConfig {
            merge_distance: 1.5,
            ..Default::default()
        });
        coarse.fit(&train);
        assert!(coarse.cluster_count() <= fine.cluster_count());
        assert_eq!(coarse.cluster_count(), 1, "1.5 swallows everything");
    }

    #[test]
    fn order_invariance() {
        let mut d = LogClusterDetector::new(LogClusterDetectorConfig::default());
        d.fit(&two_mode_train());
        let a = Window::from_ids(vec![0, 0, 1]);
        let b = Window::from_ids(vec![1, 0, 0]);
        assert_eq!(d.score(&a), d.score(&b));
    }
}
