//! Detector traits and shared input types.

use monilog_model::{ScoreComponent, TemplateStore};

/// One detection window: the unit every detector scores.
///
/// For session-grouped workloads (HDFS-like) a window is a session; for
/// continuous multi-source streams it is a sliding window. Either way it
/// carries the parsed template-id sequence and, for quantitative models,
/// the numeric variable values of each event.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Window {
    /// Template ids in stream order.
    pub sequence: Vec<u32>,
    /// Numeric variable values per event (empty inner vec when the event
    /// has no numeric variables). Must be the same length as `sequence`.
    pub numerics: Vec<Vec<f64>>,
}

impl Window {
    /// A window from template ids only (no numeric payloads).
    pub fn from_ids(sequence: Vec<u32>) -> Self {
        let numerics = vec![Vec::new(); sequence.len()];
        Window { sequence, numerics }
    }

    pub fn len(&self) -> usize {
        self.sequence.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sequence.is_empty()
    }
}

/// A training set: windows plus optional per-window anomaly labels.
///
/// The unsupervised detectors (everything except LogRobust) treat every
/// training window as normal and ignore labels; experiment P1 exploits
/// exactly this asymmetry.
#[derive(Debug, Clone, Default)]
pub struct TrainSet {
    pub windows: Vec<Window>,
    /// `Some(labels)` marks each window anomalous (`true`) or normal.
    pub labels: Option<Vec<bool>>,
    /// The parser's template store, required by the semantic detectors
    /// (LogAnomaly, LogRobust) to read template *text*; counter-based and
    /// id-sequence detectors ignore it.
    pub templates: Option<TemplateStore>,
}

impl TrainSet {
    /// All-normal training data (the anomaly-free regime of experiment P1).
    pub fn unlabeled(windows: Vec<Window>) -> Self {
        TrainSet {
            windows,
            labels: None,
            templates: None,
        }
    }

    pub fn labeled(windows: Vec<Window>, labels: Vec<bool>) -> Self {
        assert_eq!(windows.len(), labels.len(), "one label per window");
        TrainSet {
            windows,
            labels: Some(labels),
            templates: None,
        }
    }

    /// Attach the parser's template store (builder style).
    pub fn with_templates(mut self, templates: TemplateStore) -> Self {
        self.templates = Some(templates);
        self
    }

    /// The windows that are known (or assumed) normal.
    pub fn normal_windows(&self) -> Vec<&Window> {
        match &self.labels {
            None => self.windows.iter().collect(),
            Some(labels) => self
                .windows
                .iter()
                .zip(labels)
                .filter(|(_, &l)| !l)
                .map(|(w, _)| w)
                .collect(),
        }
    }

    /// Largest template id across all windows, if any.
    pub fn max_template_id(&self) -> Option<u32> {
        self.windows
            .iter()
            .flat_map(|w| w.sequence.iter())
            .copied()
            .max()
    }
}

/// A log anomaly detector over [`Window`]s.
pub trait Detector {
    /// Human-readable name used by experiment tables.
    fn name(&self) -> &'static str;

    /// Train on `train`. Unsupervised detectors use only the (assumed)
    /// normal windows; LogRobust consumes the labels.
    fn fit(&mut self, train: &TrainSet);

    /// Anomaly score of a window; higher is more anomalous. Comparable only
    /// within one fitted detector.
    fn score(&self, window: &Window) -> f64;

    /// The decision threshold calibrated during `fit`.
    fn threshold(&self) -> f64;

    /// Binary decision: anomalous?
    fn predict(&self, window: &Window) -> bool {
        self.score(window) > self.threshold()
    }

    /// Refresh the detector's view of the template store (new templates
    /// keep appearing in a streaming deployment). Default: no-op; only the
    /// semantic detectors care.
    fn update_templates(&mut self, _templates: &TemplateStore) {}

    /// Serialize the fitted detector into versioned bytes for the durable
    /// checkpoint. The default refuses with a typed error so detectors
    /// without persistence degrade gracefully (the durable pipeline
    /// surfaces the message instead of silently losing model state).
    fn save_state(&self) -> Result<Vec<u8>, String> {
        Err(format!("{} does not support checkpointing", self.name()))
    }

    /// Replace this detector's fitted state with bytes produced by
    /// [`Detector::save_state`] on a detector of the same type. The
    /// restored detector must score identically to the saved one.
    fn load_state(&mut self, _bytes: &[u8]) -> Result<(), String> {
        Err(format!("{} does not support checkpointing", self.name()))
    }

    /// Named breakdown of `score(window)` for anomaly provenance: how the
    /// detector arrived at its verdict, in report-ready terms. The default
    /// exposes the score and the calibrated threshold; detectors with
    /// richer internals (violation counts, per-model terms) override it.
    fn score_components(&self, window: &Window) -> Vec<ScoreComponent> {
        vec![
            ScoreComponent::new("score", self.score(window)),
            ScoreComponent::new("threshold", self.threshold()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_from_ids_aligns_numerics() {
        let w = Window::from_ids(vec![1, 2, 3]);
        assert_eq!(w.len(), 3);
        assert_eq!(w.numerics.len(), 3);
        assert!(!w.is_empty());
        assert!(Window::default().is_empty());
    }

    #[test]
    fn trainset_normal_window_filtering() {
        let w = |id| Window::from_ids(vec![id]);
        let unlabeled = TrainSet::unlabeled(vec![w(1), w(2)]);
        assert_eq!(unlabeled.normal_windows().len(), 2);

        let labeled = TrainSet::labeled(vec![w(1), w(2), w(3)], vec![false, true, false]);
        let normal = labeled.normal_windows();
        assert_eq!(normal.len(), 2);
        assert_eq!(normal[0].sequence, vec![1]);
        assert_eq!(normal[1].sequence, vec![3]);
    }

    #[test]
    fn max_template_id() {
        let train = TrainSet::unlabeled(vec![
            Window::from_ids(vec![1, 9, 2]),
            Window::from_ids(vec![4]),
        ]);
        assert_eq!(train.max_template_id(), Some(9));
        assert_eq!(TrainSet::default().max_template_id(), None);
    }

    #[test]
    #[should_panic(expected = "one label per window")]
    fn labeled_requires_alignment() {
        TrainSet::labeled(vec![Window::from_ids(vec![1])], vec![true, false]);
    }

    #[test]
    fn default_score_components_expose_score_and_threshold() {
        struct Fixed;
        impl Detector for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn fit(&mut self, _train: &TrainSet) {}
            fn score(&self, window: &Window) -> f64 {
                window.len() as f64
            }
            fn threshold(&self) -> f64 {
                1.5
            }
        }
        let comps = Fixed.score_components(&Window::from_ids(vec![1, 2, 3]));
        let get = |name: &str| {
            comps
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("missing component {name}"))
                .value
        };
        assert_eq!(get("score"), 3.0);
        assert_eq!(get("threshold"), 1.5);
    }
}
