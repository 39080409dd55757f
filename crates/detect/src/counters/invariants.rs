//! Invariant Mining (Lou et al., USENIX ATC 2010: "Mining invariants from
//! console logs for system problem detection").
//!
//! Program flows impose linear relations on event counts: every "open"
//! has a "close" (`c_open − c_close = 0`), every job submit is followed by
//! exactly one schedule, a three-replica pipeline writes three "Receiving"
//! per "allocate" (`c_recv − 3·c_alloc = 0`). Fit mines sparse integer
//! invariants (pairs and triples with small coefficients) that hold on
//! (nearly) all normal windows; a window violating any mined invariant is
//! anomalous. Scores are the count of violated invariants.

use crate::api::{Detector, TrainSet, Window};
use crate::window::count_vector;
use monilog_model::codec::{CodecError, Decoder, Encoder};

/// Invariant-mining parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvariantDetectorConfig {
    /// Fraction of training windows an invariant must satisfy.
    pub min_support: f64,
    /// Largest integer coefficient searched (the paper uses small values;
    /// flows rarely relate counts by more than a few).
    pub max_coefficient: i64,
    /// Only mine invariants over template ids that appear in at least this
    /// fraction of windows (rare events give unstable invariants).
    pub min_event_frequency: f64,
}

impl Default for InvariantDetectorConfig {
    fn default() -> Self {
        InvariantDetectorConfig {
            min_support: 0.98,
            max_coefficient: 3,
            min_event_frequency: 0.2,
        }
    }
}

/// A mined invariant: `Σ coef_k · count(id_k) = 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invariant {
    pub terms: Vec<(u32, i64)>,
}

impl Invariant {
    fn holds(&self, counts: &[f64]) -> bool {
        let sum: f64 = self
            .terms
            .iter()
            .map(|&(id, coef)| coef as f64 * counts.get(id as usize).copied().unwrap_or(0.0))
            .sum();
        sum.abs() < 1e-9
    }
}

/// The invariant-mining detector.
#[derive(Debug, Clone)]
pub struct InvariantDetector {
    config: InvariantDetectorConfig,
    dim: usize,
    invariants: Vec<Invariant>,
}

impl InvariantDetector {
    pub fn new(config: InvariantDetectorConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.min_support));
        assert!(config.max_coefficient >= 1);
        InvariantDetector {
            config,
            dim: 2,
            invariants: Vec::new(),
        }
    }

    /// The mined invariants (exposed for the ablation bench / debugging).
    pub fn invariants(&self) -> &[Invariant] {
        &self.invariants
    }

    fn support(&self, candidate: &Invariant, vectors: &[Vec<f64>]) -> f64 {
        let holding = vectors.iter().filter(|v| candidate.holds(v)).count();
        holding as f64 / vectors.len() as f64
    }

    /// Serialize a fitted detector: config, vocabulary size, and the mined
    /// invariants. Coefficients are i64; they ride the wire as two's-
    /// complement u64.
    pub fn save(&self) -> Result<Vec<u8>, String> {
        let mut e = Encoder::with_header(*b"INVD", 1);
        e.put_f64(self.config.min_support);
        e.put_u64(self.config.max_coefficient as u64);
        e.put_f64(self.config.min_event_frequency);
        e.put_u64(self.dim as u64);
        e.put_len(self.invariants.len());
        for inv in &self.invariants {
            e.put_len(inv.terms.len());
            for &(id, coef) in &inv.terms {
                e.put_u32(id);
                e.put_u64(coef as u64);
            }
        }
        Ok(e.finish())
    }

    /// Restore from an [`InvariantDetector::save`] checkpoint.
    pub fn load(bytes: &[u8]) -> Result<InvariantDetector, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"INVD", 1)?;
        let config = InvariantDetectorConfig {
            min_support: d.get_f64()?,
            max_coefficient: d.get_u64()? as i64,
            min_event_frequency: d.get_f64()?,
        };
        if !(0.0..=1.0).contains(&config.min_support) || config.max_coefficient < 1 {
            return Err(CodecError::Corrupt("invariant config out of range"));
        }
        let dim = d.get_u64()? as usize;
        let n = d.get_len()?;
        let mut invariants = Vec::with_capacity(n);
        for _ in 0..n {
            let n_terms = d.get_len()?;
            let mut terms = Vec::with_capacity(n_terms);
            for _ in 0..n_terms {
                let id = d.get_u32()?;
                if id as usize >= dim {
                    return Err(CodecError::Corrupt("invariant term out of vocabulary"));
                }
                terms.push((id, d.get_u64()? as i64));
            }
            invariants.push(Invariant { terms });
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after invariant state"));
        }
        Ok(InvariantDetector {
            config,
            dim,
            invariants,
        })
    }
}

impl Detector for InvariantDetector {
    fn name(&self) -> &'static str {
        "InvariantMining"
    }

    fn save_state(&self) -> Result<Vec<u8>, String> {
        self.save()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = InvariantDetector::load(bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(
            !normal.is_empty(),
            "invariant mining needs training windows"
        );
        self.dim = train.max_template_id().map(|m| m as usize + 2).unwrap_or(2);
        let vectors: Vec<Vec<f64>> = normal.iter().map(|w| count_vector(w, self.dim)).collect();

        // Candidate ids: frequent enough to carry stable invariants.
        let n = vectors.len() as f64;
        let frequent: Vec<u32> = (0..self.dim as u32)
            .filter(|&id| {
                let present = vectors.iter().filter(|v| v[id as usize] > 0.0).count();
                present as f64 / n >= self.config.min_event_frequency
            })
            .collect();

        self.invariants.clear();
        let max_c = self.config.max_coefficient;

        // Pairwise invariants a·c_i − b·c_j = 0.
        for (pi, &i) in frequent.iter().enumerate() {
            for &j in &frequent[pi + 1..] {
                'coeffs: for a in 1..=max_c {
                    for b in 1..=max_c {
                        if gcd(a, b) != 1 {
                            continue;
                        }
                        let candidate = Invariant {
                            terms: vec![(i, a), (j, -b)],
                        };
                        if self.support(&candidate, &vectors) >= self.config.min_support {
                            self.invariants.push(candidate);
                            break 'coeffs; // one invariant per pair suffices
                        }
                    }
                }
            }
        }

        // Triple invariants c_i − c_j − c_k = 0 (the "split flow" shape:
        // submissions = successes + failures). Skip triples already implied
        // by pairwise invariants over the same ids.
        for &i in &frequent {
            for &j in &frequent {
                if j == i {
                    continue;
                }
                for &k in &frequent {
                    if k <= j || k == i {
                        continue;
                    }
                    let covered = self.invariants.iter().any(|inv| {
                        inv.terms
                            .iter()
                            .all(|(id, _)| *id == i || *id == j || *id == k)
                    });
                    if covered {
                        continue;
                    }
                    let candidate = Invariant {
                        terms: vec![(i, 1), (j, -1), (k, -1)],
                    };
                    if self.support(&candidate, &vectors) >= self.config.min_support {
                        self.invariants.push(candidate);
                    }
                }
            }
        }
    }

    fn score(&self, window: &Window) -> f64 {
        let counts = count_vector(window, self.dim);
        self.invariants
            .iter()
            .filter(|inv| !inv.holds(&counts))
            .count() as f64
    }

    /// Any violated invariant flags the window.
    fn threshold(&self) -> f64 {
        0.0
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flow: one allocate (id 0), three receives (id 1), one terminate
    /// (id 2) — so c_recv = 3·c_alloc and c_alloc = c_term.
    fn pipeline_train() -> TrainSet {
        let windows = (0..50)
            .map(|i| {
                // Sessions of one or two pipeline rounds.
                let rounds = 1 + (i % 2);
                let mut ids = Vec::new();
                for _ in 0..rounds {
                    ids.push(0);
                    ids.extend([1, 1, 1]);
                    ids.push(2);
                }
                Window::from_ids(ids)
            })
            .collect();
        TrainSet::unlabeled(windows)
    }

    #[test]
    fn mines_the_pipeline_invariants() {
        let mut d = InvariantDetector::new(InvariantDetectorConfig::default());
        d.fit(&pipeline_train());
        // Must find 3·c_0 − c_1 = 0 (up to sign/order) and c_0 − c_2 = 0.
        let has_ratio = d.invariants().iter().any(|inv| {
            inv.terms.len() == 2
                && inv.terms.iter().any(|&(id, c)| id == 0 && c.abs() == 3)
                && inv.terms.iter().any(|&(id, c)| id == 1 && c.abs() == 1)
        });
        let has_equal = d.invariants().iter().any(|inv| {
            inv.terms.len() == 2
                && inv.terms.iter().any(|&(id, c)| id == 0 && c.abs() == 1)
                && inv.terms.iter().any(|&(id, c)| id == 2 && c.abs() == 1)
        });
        assert!(has_ratio, "missing 3:1 invariant: {:?}", d.invariants());
        assert!(has_equal, "missing 1:1 invariant: {:?}", d.invariants());
    }

    #[test]
    fn normal_windows_pass() {
        let mut d = InvariantDetector::new(InvariantDetectorConfig::default());
        let train = pipeline_train();
        d.fit(&train);
        for w in &train.windows {
            assert!(!d.predict(w));
        }
    }

    #[test]
    fn missing_step_is_flagged() {
        let mut d = InvariantDetector::new(InvariantDetectorConfig::default());
        d.fit(&pipeline_train());
        // A pipeline that lost one replica write (the SkipState anomaly).
        let skipped = Window::from_ids(vec![0, 1, 1, 2]);
        assert!(d.predict(&skipped), "violations: {}", d.score(&skipped));
        // A truncated session (no terminate).
        let truncated = Window::from_ids(vec![0, 1, 1, 1]);
        assert!(d.predict(&truncated));
    }

    #[test]
    fn order_is_invisible_to_invariants() {
        let mut d = InvariantDetector::new(InvariantDetectorConfig::default());
        d.fit(&pipeline_train());
        // A wrong-order walk with the right counts passes — the blind spot
        // of counter methods (Table I's L1→L4 style anomalies).
        let wrong_order = Window::from_ids(vec![2, 1, 0, 1, 1]);
        assert!(!d.predict(&wrong_order));
    }

    #[test]
    fn noisy_training_drops_unstable_invariants() {
        // c_0 == c_1 holds in 80% of windows only: below 98% support.
        let mut windows: Vec<Window> = (0..40).map(|_| Window::from_ids(vec![0, 1])).collect();
        for _ in 0..10 {
            windows.push(Window::from_ids(vec![0, 1, 1]));
        }
        let mut d = InvariantDetector::new(InvariantDetectorConfig::default());
        d.fit(&TrainSet::unlabeled(windows));
        let pair_01 = d.invariants().iter().any(|inv| {
            inv.terms.iter().any(|&(id, _)| id == 0) && inv.terms.iter().any(|&(id, _)| id == 1)
        });
        assert!(!pair_01, "unstable invariant kept: {:?}", d.invariants());
    }

    #[test]
    fn gcd_filters_redundant_coefficients() {
        assert_eq!(gcd(2, 4), 2);
        assert_eq!(gcd(3, 7), 1);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn save_load_round_trips_and_rejects_corruption() {
        let mut original = InvariantDetector::new(InvariantDetectorConfig::default());
        // Every open (id 0) pairs with one close (id 1) and three writes
        // (id 2) — the invariant-rich shape the miner is built for.
        let windows: Vec<Window> = (1..6)
            .map(|k| {
                let mut ids = Vec::new();
                for _ in 0..k {
                    ids.extend([0, 1, 2, 2, 2]);
                }
                Window::from_ids(ids)
            })
            .collect();
        original.fit(&TrainSet::unlabeled(windows.clone()));
        assert!(!original.invariants().is_empty(), "test needs invariants");

        let bytes = original.save().unwrap();
        let restored = InvariantDetector::load(&bytes).unwrap();
        assert_eq!(restored.invariants(), original.invariants());
        let probes = [
            Window::from_ids(vec![0, 1, 2]),
            Window::from_ids(vec![0, 0, 0, 1, 2, 2, 2, 2, 2, 2]),
            Window::from_ids(vec![9, 9, 9]),
        ];
        for w in &probes {
            assert_eq!(restored.score(w), original.score(w));
            assert_eq!(restored.threshold(), original.threshold());
        }
        // The trait surface delegates to the same codec.
        let mut via_trait = InvariantDetector::new(InvariantDetectorConfig::default());
        via_trait
            .load_state(&original.save_state().unwrap())
            .unwrap();
        assert_eq!(via_trait.invariants(), original.invariants());
        // Truncations are typed errors, never panics or garbage.
        for cut in 0..bytes.len() {
            assert!(InvariantDetector::load(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
