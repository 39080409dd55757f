//! Online linear learners.
//!
//! The classification module learns from a trickle of administrator
//! actions, one at a time, with no stored dataset — an online setting
//! where the **averaged multi-class perceptron** is a classic, robust
//! choice (and trivially supports classes appearing at runtime, which is
//! exactly what "pools can be created by administrators" requires).
//! Criticality is ordinal (low < moderate < high), handled by an ordinal
//! perceptron with learned thresholds.

use std::collections::HashMap;

/// Multi-class averaged perceptron with dynamic class set.
#[derive(Debug, Clone)]
pub struct AveragedPerceptron<C: std::hash::Hash + Eq + Copy> {
    dim: usize,
    /// Per-class weight vector and its running sum (for averaging).
    weights: HashMap<C, (Vec<f64>, Vec<f64>)>,
    updates: u64,
}

impl<C: std::hash::Hash + Eq + Copy> AveragedPerceptron<C> {
    pub fn new(dim: usize) -> Self {
        AveragedPerceptron {
            dim,
            weights: HashMap::new(),
            updates: 0,
        }
    }

    /// Make sure a class exists (zero-initialized).
    pub fn ensure_class(&mut self, class: C) {
        self.weights
            .entry(class)
            .or_insert_with(|| (vec![0.0; self.dim], vec![0.0; self.dim]));
    }

    /// Remove a class (pool deleted).
    pub fn remove_class(&mut self, class: C) {
        self.weights.remove(&class);
    }

    pub fn classes(&self) -> impl Iterator<Item = C> + '_ {
        self.weights.keys().copied()
    }

    /// Number of feedback updates absorbed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    fn averaged_score(&self, class: C, x: &[f64]) -> Option<f64> {
        let (w, sum) = self.weights.get(&class)?;
        // Averaged weights: (sum + w) / (updates + 1) — monotone transform
        // identical for all classes, so we can score with sum + w directly.
        Some(
            x.iter()
                .zip(w.iter().zip(sum))
                .map(|(xi, (wi, si))| xi * (wi + si))
                .sum(),
        )
    }

    /// Predict the best class, if any class exists. Ties break toward the
    /// first-inserted class deterministically via iteration over a sorted
    /// snapshot is not possible for generic C; instead the max is strict
    /// and equal scores keep the earlier candidate found in hash order —
    /// callers that care pass a preference (see [`AveragedPerceptron::predict_with_default`]).
    pub fn predict(&self, x: &[f64]) -> Option<C> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let mut best: Option<(C, f64)> = None;
        for &class in self.weights.keys() {
            let s = self.averaged_score(class, x).expect("key exists");
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((class, s));
            }
        }
        best.map(|(c, _)| c)
    }

    /// Predict, falling back to `default` when no class has been learned.
    pub fn predict_with_default(&self, x: &[f64], default: C) -> C {
        self.predict(x).unwrap_or(default)
    }

    /// One online update: the true class is `truth`. Perceptron rule with
    /// a zero margin: update whenever the true class does not *strictly*
    /// beat every other class, which keeps learning deterministic even
    /// when several weight vectors tie (e.g. all-zero cold start).
    pub fn learn(&mut self, x: &[f64], truth: C) {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        self.ensure_class(truth);
        let truth_score = self.averaged_score(truth, x).expect("ensured");
        let rival = self
            .weights
            .keys()
            .filter(|&&c| c != truth)
            .map(|&c| (c, self.averaged_score(c, x).expect("key exists")))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite scores"));
        self.updates += 1;
        if let Some((rival_class, rival_score)) = rival {
            if truth_score <= rival_score {
                {
                    let (w, _) = self.weights.get_mut(&truth).expect("ensured");
                    for (wi, xi) in w.iter_mut().zip(x) {
                        *wi += xi;
                    }
                }
                let (w, _) = self.weights.get_mut(&rival_class).expect("exists");
                for (wi, xi) in w.iter_mut().zip(x) {
                    *wi -= xi;
                }
            }
        }
        // Accumulate averages.
        for (w, sum) in self.weights.values_mut() {
            for (si, wi) in sum.iter_mut().zip(w.iter()) {
                *si += wi;
            }
        }
    }
}

/// Ordinal regression perceptron (PRank, Crammer & Singer 2001): one
/// weight vector plus `k-1` ordered thresholds for `k` ordered levels.
#[derive(Debug, Clone)]
pub struct OrdinalPerceptron {
    w: Vec<f64>,
    thresholds: Vec<f64>,
}

impl OrdinalPerceptron {
    /// `levels` ≥ 2 ordered classes (criticality has 3).
    pub fn new(dim: usize, levels: usize) -> Self {
        assert!(levels >= 2);
        OrdinalPerceptron {
            w: vec![0.0; dim],
            thresholds: (0..levels - 1).map(|i| i as f64).collect(),
        }
    }

    /// Predicted level in `0..levels`.
    pub fn predict(&self, x: &[f64]) -> u8 {
        assert_eq!(x.len(), self.w.len(), "feature dimension mismatch");
        let score: f64 = self.w.iter().zip(x).map(|(w, x)| w * x).sum();
        self.thresholds.iter().filter(|&&t| score > t).count() as u8
    }

    /// PRank update toward the true ordinal `truth`.
    pub fn learn(&mut self, x: &[f64], truth: u8) {
        assert!((truth as usize) < self.thresholds.len() + 1);
        let score: f64 = self.w.iter().zip(x).map(|(w, x)| w * x).sum();
        let mut tau = 0i32;
        for (r, t) in self.thresholds.iter_mut().enumerate() {
            // y_r = +1 if truth > r else -1; violated if y_r (score - t) <= 0.
            let y = if (truth as usize) > r { 1.0 } else { -1.0 };
            if y * (score - *t) <= 0.0 {
                tau += y as i32;
                *t -= y;
            }
        }
        if tau != 0 {
            for (w, xi) in self.w.iter_mut().zip(x) {
                *w += tau as f64 * xi;
            }
        }
        // Keep thresholds ordered (PRank preserves this; assert in debug).
        debug_assert!(self.thresholds.windows(2).all(|p| p[0] <= p[1]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perceptron_learns_separable_classes() {
        let mut p: AveragedPerceptron<u32> = AveragedPerceptron::new(2);
        // Class 0: x-axis heavy; class 1: y-axis heavy.
        for _ in 0..30 {
            p.learn(&[1.0, 0.1], 0);
            p.learn(&[0.1, 1.0], 1);
        }
        assert_eq!(p.predict(&[0.9, 0.0]), Some(0));
        assert_eq!(p.predict(&[0.0, 0.9]), Some(1));
        assert_eq!(p.updates(), 60);
    }

    #[test]
    fn empty_perceptron_predicts_default() {
        let p: AveragedPerceptron<u32> = AveragedPerceptron::new(3);
        assert_eq!(p.predict(&[0.0, 0.0, 0.0]), None);
        assert_eq!(p.predict_with_default(&[0.0, 0.0, 0.0], 7), 7);
    }

    #[test]
    fn classes_appear_and_disappear_dynamically() {
        let mut p: AveragedPerceptron<u32> = AveragedPerceptron::new(2);
        p.learn(&[1.0, 0.0], 0);
        p.learn(&[0.0, 1.0], 5); // class 5 appears on first feedback
        assert!(p.classes().count() == 2);
        p.remove_class(5);
        assert_eq!(p.predict(&[0.0, 1.0]), Some(0), "only class 0 remains");
    }

    #[test]
    fn three_class_separation() {
        let mut p: AveragedPerceptron<char> = AveragedPerceptron::new(3);
        for _ in 0..40 {
            p.learn(&[1.0, 0.0, 0.0], 'a');
            p.learn(&[0.0, 1.0, 0.0], 'b');
            p.learn(&[0.0, 0.0, 1.0], 'c');
        }
        assert_eq!(p.predict(&[1.0, 0.1, 0.1]), Some('a'));
        assert_eq!(p.predict(&[0.1, 1.0, 0.1]), Some('b'));
        assert_eq!(p.predict(&[0.1, 0.1, 1.0]), Some('c'));
    }

    #[test]
    fn ordinal_learns_monotone_levels() {
        let mut o = OrdinalPerceptron::new(1, 3);
        // Level grows with the single feature.
        for _ in 0..60 {
            o.learn(&[0.1], 0);
            o.learn(&[0.5], 1);
            o.learn(&[0.9], 2);
        }
        assert_eq!(o.predict(&[0.05]), 0);
        assert_eq!(o.predict(&[0.5]), 1);
        assert_eq!(o.predict(&[0.95]), 2);
    }

    #[test]
    fn ordinal_predictions_are_monotone_in_score() {
        let mut o = OrdinalPerceptron::new(1, 3);
        for _ in 0..60 {
            o.learn(&[0.1], 0);
            o.learn(&[0.9], 2);
        }
        let mut last = 0;
        for i in 0..20 {
            let level = o.predict(&[i as f64 / 20.0]);
            assert!(level >= last, "prediction not monotone");
            last = level;
        }
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn dimension_checked() {
        let p: AveragedPerceptron<u32> = AveragedPerceptron::new(2);
        p.predict(&[1.0]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// On linearly separable two-class data, the perceptron converges
        /// to zero training errors within a bounded number of passes.
        #[test]
        fn converges_on_separable_data(seed in 0u64..1000) {
            // Two Gaussian-ish blobs along different axes.
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f64 / 1000.0
            };
            let data: Vec<([f64; 2], u32)> = (0..40)
                .map(|i| {
                    let noise = next() * 0.3;
                    if i % 2 == 0 {
                        ([1.0 + noise, noise], 0)
                    } else {
                        ([noise, 1.0 + noise], 1)
                    }
                })
                .collect();
            let mut p: AveragedPerceptron<u32> = AveragedPerceptron::new(2);
            for _ in 0..10 {
                for (x, y) in &data {
                    p.learn(x, *y);
                }
            }
            for (x, y) in &data {
                prop_assert_eq!(p.predict(x), Some(*y));
            }
        }

        /// PRank thresholds stay ordered under arbitrary feedback.
        #[test]
        fn ordinal_thresholds_stay_ordered(
            updates in proptest::collection::vec((0.0f64..1.0, 0u8..3), 1..80)
        ) {
            let mut o = OrdinalPerceptron::new(1, 3);
            for (x, y) in updates {
                o.learn(&[x], y);
            }
            prop_assert!(o.thresholds.windows(2).all(|p| p[0] <= p[1]));
        }
    }
}
