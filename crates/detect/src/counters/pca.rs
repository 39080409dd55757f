//! PCA-based anomaly detection (Xu et al., SOSP 2009: "Large-scale system
//! problem detection by mining console logs").
//!
//! Normal windows live close to a low-dimensional subspace of count-vector
//! space. Fit: mean-center training count vectors, eigendecompose their
//! covariance, keep the top components explaining `variance_kept` of the
//! variance. Score: squared prediction error (SPE) — the squared norm of a
//! window's projection onto the *residual* subspace. Threshold: a high
//! quantile of training SPEs (a practical stand-in for the Q-statistic).

use crate::api::{Detector, TrainSet, Window};
use crate::linalg::{dot, sym_eigen};
use crate::window::count_vector;
use monilog_model::codec::{CodecError, Decoder, Encoder};

/// PCA detector parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcaDetectorConfig {
    /// Fraction of variance the principal subspace must capture.
    pub variance_kept: f64,
    /// Training-SPE quantile used as the anomaly threshold.
    pub threshold_quantile: f64,
}

impl Default for PcaDetectorConfig {
    fn default() -> Self {
        PcaDetectorConfig {
            variance_kept: 0.95,
            threshold_quantile: 0.995,
        }
    }
}

/// The PCA / SPE detector.
#[derive(Debug, Clone)]
pub struct PcaDetector {
    config: PcaDetectorConfig,
    dim: usize,
    mean: Vec<f64>,
    /// Principal components (rows), spanning the normal subspace.
    components: Vec<Vec<f64>>,
    threshold: f64,
}

impl PcaDetector {
    pub fn new(config: PcaDetectorConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.variance_kept));
        assert!((0.0..=1.0).contains(&config.threshold_quantile));
        PcaDetector {
            config,
            dim: 2,
            mean: Vec::new(),
            components: Vec::new(),
            threshold: f64::MAX,
        }
    }

    fn spe(&self, window: &Window) -> f64 {
        // Center in place, compute all projections against the centered
        // vector first, then subtract in place: one dim-sized allocation
        // per score instead of three.
        let mut x = count_vector(window, self.dim);
        for (a, m) in x.iter_mut().zip(&self.mean) {
            *a -= *m;
        }
        let projs: Vec<f64> = self.components.iter().map(|c| dot(&x, c)).collect();
        for (comp, proj) in self.components.iter().zip(&projs) {
            for (r, c) in x.iter_mut().zip(comp) {
                *r -= proj * c;
            }
        }
        dot(&x, &x)
    }

    /// Serialize a fitted detector: config, mean, principal components,
    /// calibrated threshold. Restoring scores identically to the original.
    pub fn save(&self) -> Result<Vec<u8>, String> {
        if self.mean.is_empty() {
            return Err("cannot checkpoint an unfitted detector".to_string());
        }
        let mut e = Encoder::with_header(*b"PCAD", 1);
        e.put_f64(self.config.variance_kept);
        e.put_f64(self.config.threshold_quantile);
        e.put_u64(self.dim as u64);
        e.put_f64_slice(&self.mean);
        e.put_len(self.components.len());
        for c in &self.components {
            e.put_f64_slice(c);
        }
        e.put_f64(self.threshold);
        Ok(e.finish())
    }

    /// Restore from a [`PcaDetector::save`] checkpoint.
    pub fn load(bytes: &[u8]) -> Result<PcaDetector, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"PCAD", 1)?;
        let config = PcaDetectorConfig {
            variance_kept: d.get_f64()?,
            threshold_quantile: d.get_f64()?,
        };
        if !(0.0..=1.0).contains(&config.variance_kept)
            || !(0.0..=1.0).contains(&config.threshold_quantile)
        {
            return Err(CodecError::Corrupt("PCA config out of range"));
        }
        let dim = d.get_u64()? as usize;
        let mean = d.get_f64_slice()?;
        if mean.len() != dim {
            return Err(CodecError::Corrupt("PCA mean length"));
        }
        let n = d.get_len()?;
        let mut components = Vec::with_capacity(n);
        for _ in 0..n {
            let row = d.get_f64_slice()?;
            if row.len() != dim {
                return Err(CodecError::Corrupt("PCA component length"));
            }
            components.push(row);
        }
        let threshold = d.get_f64()?;
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after PCA state"));
        }
        Ok(PcaDetector {
            config,
            dim,
            mean,
            components,
            threshold,
        })
    }
}

impl Detector for PcaDetector {
    fn name(&self) -> &'static str {
        "PCA"
    }

    fn save_state(&self) -> Result<Vec<u8>, String> {
        self.save()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = PcaDetector::load(bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    #[allow(clippy::needless_range_loop)] // triangular covariance accumulation
    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(!normal.is_empty(), "PCA needs at least one training window");
        // Vocabulary: train ids + one unseen bucket.
        self.dim = train.max_template_id().map(|m| m as usize + 2).unwrap_or(2);
        let n = normal.len() as f64;

        let vectors: Vec<Vec<f64>> = normal.iter().map(|w| count_vector(w, self.dim)).collect();
        self.mean = vec![0.0; self.dim];
        for v in &vectors {
            for (m, x) in self.mean.iter_mut().zip(v) {
                *m += x / n;
            }
        }

        // Covariance (one reused centering buffer across the whole pass).
        let mut cov = vec![vec![0.0; self.dim]; self.dim];
        let mut c = vec![0.0; self.dim];
        for v in &vectors {
            for ((ci, x), m) in c.iter_mut().zip(v).zip(&self.mean) {
                *ci = x - m;
            }
            for i in 0..self.dim {
                if c[i] == 0.0 {
                    continue;
                }
                for j in i..self.dim {
                    cov[i][j] += c[i] * c[j] / n;
                }
            }
        }
        for i in 0..self.dim {
            for j in 0..i {
                cov[i][j] = cov[j][i];
            }
        }

        let eig = sym_eigen(&cov);
        let total: f64 = eig.values.iter().filter(|v| **v > 0.0).sum();
        self.components.clear();
        if total > 0.0 {
            let mut captured = 0.0;
            for (value, vector) in eig.values.iter().zip(&eig.vectors) {
                if *value <= 0.0 || captured / total >= self.config.variance_kept {
                    break;
                }
                captured += value;
                self.components.push(vector.clone());
            }
        }

        // Threshold from the training-SPE quantile (with a floor so exact
        // reconstruction of all training points doesn't zero the threshold).
        let mut spes: Vec<f64> = normal.iter().map(|w| self.spe(w)).collect();
        spes.sort_by(|a, b| a.partial_cmp(b).expect("SPE is finite"));
        let idx = ((spes.len() as f64 - 1.0) * self.config.threshold_quantile).round() as usize;
        self.threshold = (spes[idx.min(spes.len() - 1)] * 1.5).max(1e-6);
    }

    fn score(&self, window: &Window) -> f64 {
        self.spe(window)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normal windows alternate two patterns; anomalies add a never-seen
    /// burst of id 3.
    fn train_set() -> TrainSet {
        let mut windows = Vec::new();
        for i in 0..60 {
            let w = if i % 2 == 0 {
                Window::from_ids(vec![0, 1, 1, 2])
            } else {
                Window::from_ids(vec![0, 1, 2, 2])
            };
            windows.push(w);
        }
        TrainSet::unlabeled(windows)
    }

    #[test]
    fn normal_windows_score_low() {
        let mut d = PcaDetector::new(PcaDetectorConfig::default());
        let train = train_set();
        d.fit(&train);
        for w in &train.windows {
            assert!(
                !d.predict(w),
                "training-like window flagged: SPE {}",
                d.score(w)
            );
        }
    }

    #[test]
    fn count_deviations_score_high() {
        let mut d = PcaDetector::new(PcaDetectorConfig::default());
        d.fit(&train_set());
        // Massive burst of a known event.
        let burst = Window::from_ids(vec![0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]);
        assert!(
            d.predict(&burst),
            "SPE {} <= {}",
            d.score(&burst),
            d.threshold()
        );
        // Unseen template id (folds into the unseen bucket).
        let unseen = Window::from_ids(vec![0, 1, 99, 99, 99, 2]);
        assert!(d.predict(&unseen));
    }

    #[test]
    fn order_does_not_matter() {
        // PCA is count-based: shuffling a window never changes its score —
        // exactly why the paper wants it compared on multi-source streams.
        let mut d = PcaDetector::new(PcaDetectorConfig::default());
        d.fit(&train_set());
        let a = Window::from_ids(vec![0, 1, 1, 2]);
        let b = Window::from_ids(vec![2, 1, 0, 1]);
        assert_eq!(d.score(&a), d.score(&b));
    }

    #[test]
    fn empty_window_scores_as_deviation_from_mean() {
        let mut d = PcaDetector::new(PcaDetectorConfig::default());
        d.fit(&train_set());
        let empty = Window::default();
        assert!(d.score(&empty) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one training window")]
    fn empty_training_rejected() {
        PcaDetector::new(PcaDetectorConfig::default()).fit(&TrainSet::default());
    }

    #[test]
    fn variance_kept_controls_component_count() {
        let train = train_set();
        let mut tight = PcaDetector::new(PcaDetectorConfig {
            variance_kept: 0.5,
            ..Default::default()
        });
        tight.fit(&train);
        let mut loose = PcaDetector::new(PcaDetectorConfig {
            variance_kept: 0.9999,
            ..Default::default()
        });
        loose.fit(&train);
        assert!(loose.components.len() >= tight.components.len());
    }

    #[test]
    fn save_load_round_trips_and_rejects_corruption() {
        let mut original = PcaDetector::new(PcaDetectorConfig::default());
        original.fit(&train_set());
        let bytes = original.save().unwrap();
        let restored = PcaDetector::load(&bytes).unwrap();
        let probes = [
            Window::from_ids(vec![0, 1, 1, 2]),
            Window::from_ids(vec![0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]),
            Window::from_ids(vec![0, 1, 99, 99, 99, 2]),
            Window::default(),
        ];
        for w in &probes {
            assert_eq!(restored.score(w), original.score(w), "score drift");
            assert_eq!(restored.threshold(), original.threshold());
            assert_eq!(restored.predict(w), original.predict(w));
        }
        // The trait surface delegates to the same codec.
        let mut via_trait = PcaDetector::new(PcaDetectorConfig::default());
        via_trait
            .load_state(&original.save_state().unwrap())
            .unwrap();
        assert_eq!(via_trait.score(&probes[1]), original.score(&probes[1]));
        // Unfitted detectors refuse to checkpoint; truncations are typed
        // errors, never panics or garbage.
        assert!(PcaDetector::new(PcaDetectorConfig::default())
            .save()
            .is_err());
        for cut in 0..bytes.len() {
            assert!(PcaDetector::load(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
