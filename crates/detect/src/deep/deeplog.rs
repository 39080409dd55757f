//! DeepLog (Du et al., CCS 2017: "Anomaly detection and diagnosis from
//! system logs through deep learning").
//!
//! Two cooperating models, exactly as the paper describes in Section III:
//!
//! 1. **Execution-path model**: an LSTM over windows of the previous `h`
//!    template ids ("log keys") predicting the next id. An event is
//!    anomalous when the observed id is not among the model's top-`g`
//!    candidates.
//! 2. **Parameter-value model** ("DeepLog uses a second LSTM to detect
//!    quantitative anomalies. It uses the knowledge of seen values to
//!    define if a new one is in the expected range."): per
//!    `(template, variable-slot)` key, either an autoregressive LSTM whose
//!    prediction-error distribution calibrates a confidence interval
//!    ([`ValueModelKind::Lstm`]), or a Gaussian range check
//!    ([`ValueModelKind::Gaussian`], the fast default for large sweeps).
//!
//! DeepLog's known weakness — the paper's motivation for LogAnomaly /
//! LogRobust — is its **closed-world assumption**: an unseen template id
//! is always anomalous, so evolved log statements turn into false alarms.
//! The instability experiments (P2, X1) measure exactly that.

use crate::api::{Detector, TrainSet, Window};
use monilog_model::codec::{CodecError, Decoder, Encoder};
use monilog_nn::{Adam, Dense, Embedding, Graph, Lstm, Matrix, Optimizer, ParamSet, Var};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

/// Which parameter-value model to use for quantitative anomalies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueModelKind {
    /// Per-key mean/std range check (fast; catches magnitude anomalies).
    Gaussian,
    /// Per-key autoregressive LSTM forecast with an error-based confidence
    /// interval — the construction of the original paper.
    Lstm,
    /// Disable the quantitative branch (sequence-only ablation).
    None,
}

/// DeepLog hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepLogConfig {
    /// History window length `h`.
    pub history: usize,
    /// Top-`g` candidates considered normal.
    pub top_g: usize,
    pub embedding_dim: usize,
    pub hidden: usize,
    pub epochs: usize,
    pub learning_rate: f64,
    pub batch_size: usize,
    /// Cap on training samples (subsample above this, keeps sweeps fast).
    pub max_samples: usize,
    pub value_model: ValueModelKind,
    /// Gaussian z-score bound / LSTM error-interval multiplier.
    pub value_tolerance: f64,
    /// Model session ends with a virtual EOS event, so truncated sessions
    /// (the program died mid-flow) become detectable.
    pub use_eos: bool,
    /// An observed event is also a violation when the model assigns it
    /// less than this probability, even inside the top-g — catches
    /// count-structure breaks (a skipped pipeline step) that coarse top-g
    /// ranking forgives. 0 disables.
    pub min_prob: f64,
    pub seed: u64,
}

impl Default for DeepLogConfig {
    fn default() -> Self {
        DeepLogConfig {
            history: 10,
            top_g: 9,
            embedding_dim: 16,
            hidden: 32,
            epochs: 3,
            learning_rate: 0.01,
            batch_size: 64,
            max_samples: 20_000,
            value_model: ValueModelKind::Gaussian,
            value_tolerance: 6.0,
            use_eos: true,
            min_prob: 0.02,
            seed: 7,
        }
    }
}

/// Gaussian statistics of one `(template, slot)` value stream.
#[derive(Debug, Clone, Copy, Default)]
struct ValueStats {
    n: f64,
    mean: f64,
    m2: f64,
}

impl ValueStats {
    fn push(&mut self, x: f64) {
        self.n += 1.0;
        let d = x - self.mean;
        self.mean += d / self.n;
        self.m2 += d * (x - self.mean);
    }

    fn std(&self) -> f64 {
        if self.n < 2.0 {
            0.0
        } else {
            (self.m2 / (self.n - 1.0)).sqrt()
        }
    }
}

/// A trained per-key autoregressive value LSTM.
#[derive(Debug)]
struct ValueLstm {
    params: ParamSet,
    lstm: Lstm,
    head: Dense,
    /// Normalization of the raw values.
    mean: f64,
    std: f64,
    /// Std-dev of training prediction errors (confidence interval width).
    error_std: f64,
    context: usize,
}

/// The DeepLog detector.
#[derive(Debug)]
pub struct DeepLog {
    config: DeepLogConfig,
    vocab: usize,
    unk: u32,
    pad: u32,
    eos: u32,
    params: ParamSet,
    emb: Option<Embedding>,
    lstm: Option<Lstm>,
    head: Option<Dense>,
    value_stats: HashMap<(u32, usize), ValueStats>,
    value_lstms: HashMap<(u32, usize), ValueLstm>,
    /// Memoized next-event distributions keyed by mapped history window.
    /// The weights are frozen between `fit`/`load` calls, so a history
    /// window always yields the same distribution — and live log streams
    /// repeat a small set of h-grams over and over, which makes the full
    /// LSTM forward pass (the live-monitoring bottleneck in experiment D3)
    /// cacheable. Cleared on refit; bounded by [`DeepLog::PROB_CACHE_CAP`].
    prob_cache: Mutex<HashMap<Vec<usize>, Vec<f64>>>,
}

impl DeepLog {
    pub fn new(config: DeepLogConfig) -> Self {
        assert!(config.history >= 1);
        assert!(config.top_g >= 1);
        DeepLog {
            config,
            vocab: 0,
            unk: 0,
            pad: 0,
            eos: 0,
            params: ParamSet::new(),
            emb: None,
            lstm: None,
            head: None,
            value_stats: HashMap::new(),
            value_lstms: HashMap::new(),
            prob_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Upper bound on memoized history windows (~a few MB at typical
    /// vocabulary sizes); beyond it new windows are computed but not
    /// cached, so pathological high-entropy streams can't balloon memory.
    const PROB_CACHE_CAP: usize = 1 << 16;

    /// Map a raw template id into model vocabulary (unseen → UNK).
    fn lookup(&self, id: u32) -> usize {
        if (id as usize) < self.unk as usize {
            id as usize
        } else {
            self.unk as usize
        }
    }

    /// `(history window, next id)` training samples from one sequence,
    /// left-padded so the first events are predictable too; with `use_eos`
    /// a final sample predicts the virtual end-of-session event.
    fn samples_of(&self, sequence: &[u32]) -> Vec<(Vec<usize>, usize)> {
        let h = self.config.history;
        let mut mapped: Vec<usize> = sequence.iter().map(|&id| self.lookup(id)).collect();
        if self.config.use_eos && !mapped.is_empty() {
            mapped.push(self.eos as usize);
        }
        let mut out = Vec::new();
        for (i, &next) in mapped.iter().enumerate() {
            let mut window = Vec::with_capacity(h);
            for k in 0..h {
                let pos = i as i64 - h as i64 + k as i64;
                window.push(if pos < 0 {
                    self.pad as usize
                } else {
                    mapped[pos as usize]
                });
            }
            out.push((window, next));
        }
        out
    }

    /// Class probabilities for the next event after a history window
    /// (memoized — see the `prob_cache` field).
    fn probabilities(&self, window: &[usize]) -> Vec<f64> {
        if let Some(hit) = self.prob_cache.lock().expect("prob cache").get(window) {
            return hit.clone();
        }
        let out = self.probabilities_uncached(window);
        let mut cache = self.prob_cache.lock().expect("prob cache");
        if cache.len() < Self::PROB_CACHE_CAP {
            cache.insert(window.to_vec(), out.clone());
        }
        out
    }

    /// The actual LSTM forward pass behind [`DeepLog::probabilities`].
    fn probabilities_uncached(&self, window: &[usize]) -> Vec<f64> {
        let (emb, lstm, head) = (
            self.emb.as_ref().expect("fitted"),
            self.lstm.as_ref().expect("fitted"),
            self.head.as_ref().expect("fitted"),
        );
        let mut g = Graph::new();
        let embedded = emb.forward(&mut g, &self.params, window);
        let xs: Vec<Var> = (0..window.len())
            .map(|t| g.select_row(embedded, t))
            .collect();
        let states = lstm.run(&mut g, &self.params, &xs);
        let logits = head.forward(
            &mut g,
            &self.params,
            states.last().expect("nonempty window").h,
        );
        let probs = g.row_softmax(logits);
        let row = g.value(probs);
        (0..row.cols).map(|c| row.get(0, c)).collect()
    }

    /// Serialize a fitted detector into a checkpoint: config, vocabulary,
    /// network weights and Gaussian value statistics.
    ///
    /// Per-key value-forecast LSTMs ([`ValueModelKind::Lstm`]) are not
    /// checkpointed (they are cheap to retrain and rarely deployed);
    /// attempting to save one returns an error.
    pub fn save(&self) -> Result<Vec<u8>, String> {
        if self.emb.is_none() {
            return Err("cannot checkpoint an unfitted detector".to_string());
        }
        if !self.value_lstms.is_empty() {
            return Err(
                "LSTM value models are not checkpointable; use ValueModelKind::Gaussian"
                    .to_string(),
            );
        }
        let c = &self.config;
        let mut e = Encoder::with_header(*b"DLOG", 1);
        e.put_u32(c.history as u32);
        e.put_u32(c.top_g as u32);
        e.put_u32(c.embedding_dim as u32);
        e.put_u32(c.hidden as u32);
        e.put_u32(c.epochs as u32);
        e.put_f64(c.learning_rate);
        e.put_u32(c.batch_size as u32);
        e.put_u32(c.max_samples as u32);
        e.put_u8(match c.value_model {
            ValueModelKind::Gaussian => 0,
            ValueModelKind::Lstm => 1,
            ValueModelKind::None => 2,
        });
        e.put_f64(c.value_tolerance);
        e.put_bool(c.use_eos);
        e.put_f64(c.min_prob);
        e.put_u64(c.seed);
        e.put_u32(self.unk);
        // Network weights (registration order is deterministic given the
        // config, so shapes reconstruct exactly on load).
        let matrices = self.params.export_matrices();
        e.put_len(matrices.len());
        for m in &matrices {
            let (rows, cols) = m.shape();
            e.put_u32(rows as u32);
            e.put_u32(cols as u32);
            e.put_f64_slice(m.data());
        }
        // Gaussian value statistics, sorted for determinism.
        let mut stats: Vec<(&(u32, usize), &ValueStats)> = self.value_stats.iter().collect();
        stats.sort_by_key(|(k, _)| **k);
        e.put_len(stats.len());
        for ((id, slot), st) in stats {
            e.put_u32(*id);
            e.put_u32(*slot as u32);
            e.put_f64(st.n);
            e.put_f64(st.mean);
            e.put_f64(st.m2);
        }
        Ok(e.finish())
    }

    /// Restore a detector from a [`DeepLog::save`] checkpoint. The restored
    /// instance scores identically to the saved one.
    pub fn load(bytes: &[u8]) -> Result<DeepLog, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(*b"DLOG", 1)?;
        let config = DeepLogConfig {
            history: d.get_u32()? as usize,
            top_g: d.get_u32()? as usize,
            embedding_dim: d.get_u32()? as usize,
            hidden: d.get_u32()? as usize,
            epochs: d.get_u32()? as usize,
            learning_rate: d.get_f64()?,
            batch_size: d.get_u32()? as usize,
            max_samples: d.get_u32()? as usize,
            value_model: match d.get_u8()? {
                0 => ValueModelKind::Gaussian,
                1 => ValueModelKind::Lstm,
                2 => ValueModelKind::None,
                _ => return Err(CodecError::Corrupt("value model tag")),
            },
            value_tolerance: d.get_f64()?,
            use_eos: d.get_bool()?,
            min_prob: d.get_f64()?,
            seed: d.get_u64()?,
        };
        let unk = d.get_u32()?;
        let mut detector = DeepLog::new(config);
        detector.unk = unk;
        detector.pad = unk + 1;
        detector.eos = unk + 2;
        detector.vocab = detector.eos as usize + 1;

        // Rebuild the layer structure (deterministic registration order),
        // then overwrite the weights with the checkpoint.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let emb = Embedding::new(
            &mut detector.params,
            detector.vocab,
            config.embedding_dim,
            &mut rng,
        );
        let lstm = Lstm::new(
            &mut detector.params,
            config.embedding_dim,
            config.hidden,
            &mut rng,
        );
        let head = Dense::new(
            &mut detector.params,
            config.hidden,
            detector.vocab,
            &mut rng,
        );
        let n = d.get_len()?;
        let mut matrices = Vec::with_capacity(n);
        for _ in 0..n {
            let rows = d.get_u32()? as usize;
            let cols = d.get_u32()? as usize;
            let data = d.get_f64_slice()?;
            if data.len() != rows * cols {
                return Err(CodecError::Corrupt("matrix shape vs data length"));
            }
            matrices.push(Matrix::from_vec(rows, cols, data));
        }
        detector
            .params
            .import_matrices(matrices)
            .map_err(|_| CodecError::Corrupt("parameter shapes vs config"))?;
        detector.emb = Some(emb);
        detector.lstm = Some(lstm);
        detector.head = Some(head);

        let n = d.get_len()?;
        for _ in 0..n {
            let id = d.get_u32()?;
            let slot = d.get_u32()? as usize;
            let stats = ValueStats {
                n: d.get_f64()?,
                mean: d.get_f64()?,
                m2: d.get_f64()?,
            };
            detector.value_stats.insert((id, slot), stats);
        }
        if !d.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(detector)
    }

    /// `(sequential, quantitative)` violation counts — lets the pipeline
    /// label the anomaly kind of a report (Table I's two categories).
    pub fn violation_breakdown(&self, window: &Window) -> (usize, usize) {
        (
            self.sequence_violations(window),
            self.value_violations(window),
        )
    }

    /// Count of sequential violations (events outside top-g or below the
    /// probability floor) in a window.
    fn sequence_violations(&self, window: &Window) -> usize {
        let g_top = self.config.top_g.min(self.vocab.saturating_sub(1)).max(1);
        let mut violations = 0;
        for (hist, next) in self.samples_of(&window.sequence) {
            // The closed-world assumption: an UNK event can never be in the
            // candidate set of a model that has never seen it.
            if next == self.unk as usize {
                violations += 1;
                continue;
            }
            let probs = self.probabilities(&hist);
            let observed_p = probs[next];
            let better = probs.iter().filter(|&&p| p > observed_p).count();
            if better >= g_top || observed_p < self.config.min_prob {
                violations += 1;
            }
        }
        violations
    }

    /// Count of quantitative violations in a window.
    fn value_violations(&self, window: &Window) -> usize {
        match self.config.value_model {
            ValueModelKind::None => 0,
            ValueModelKind::Gaussian => {
                let mut v = 0;
                for (&id, nums) in window.sequence.iter().zip(&window.numerics) {
                    for (slot, &x) in nums.iter().enumerate() {
                        if let Some(stats) = self.value_stats.get(&(id, slot)) {
                            let std = stats.std();
                            if std > 0.0
                                && (x - stats.mean).abs() > self.config.value_tolerance * std
                            {
                                v += 1;
                            } else if std == 0.0 && stats.n >= 2.0 && x != stats.mean {
                                // A constant-valued slot changing at all is
                                // out of its (degenerate) expected range —
                                // but only grossly: tolerate small drift.
                                if (x - stats.mean).abs() > stats.mean.abs().max(1.0) {
                                    v += 1;
                                }
                            }
                        }
                    }
                }
                v
            }
            ValueModelKind::Lstm => {
                let mut v = 0;
                // Forecast each key's value from the preceding values of
                // the same key within the window.
                let mut history: HashMap<(u32, usize), Vec<f64>> = HashMap::new();
                for (&id, nums) in window.sequence.iter().zip(&window.numerics) {
                    for (slot, &x) in nums.iter().enumerate() {
                        let key = (id, slot);
                        if let Some(model) = self.value_lstms.get(&key) {
                            let past = history.entry(key).or_default();
                            if model.is_anomalous(past, x, self.config.value_tolerance) {
                                v += 1;
                            }
                            past.push(x);
                        } else if let Some(stats) = self.value_stats.get(&key) {
                            let std = stats.std();
                            if std > 0.0
                                && (x - stats.mean).abs() > self.config.value_tolerance * std
                            {
                                v += 1;
                            }
                        }
                    }
                }
                v
            }
        }
    }
}

impl ValueLstm {
    const MIN_TRAIN: usize = 12;

    fn train(values: &[f64], context: usize, seed: u64) -> Option<ValueLstm> {
        if values.len() < Self::MIN_TRAIN {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-9);
        let norm: Vec<f64> = values.iter().map(|x| (x - mean) / std).collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let lstm = Lstm::new(&mut params, 1, 8, &mut rng);
        let head = Dense::new(&mut params, 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);

        for _ in 0..30 {
            params.zero_grads();
            let mut g = Graph::new();
            let mut losses = Vec::new();
            for i in context..norm.len() {
                let xs: Vec<Var> = (i - context..i)
                    .map(|k| g.input(Matrix::from_vec(1, 1, vec![norm[k]])))
                    .collect();
                let states = lstm.run(&mut g, &params, &xs);
                let pred = head.forward(&mut g, &params, states.last().expect("context ≥ 1").h);
                losses.push(g.mse(pred, Matrix::from_vec(1, 1, vec![norm[i]])));
            }
            // Mean of per-step losses via repeated add + scale.
            let mut total = losses[0];
            for &l in &losses[1..] {
                total = g.add(total, l);
            }
            let loss = g.scale(total, 1.0 / losses.len() as f64);
            g.backward(loss, &mut params);
            params.clip_grad_norm(5.0);
            opt.step(&mut params);
        }

        let mut model = ValueLstm {
            params,
            lstm,
            head,
            mean,
            std,
            error_std: 0.0,
            context,
        };
        // Calibrate the prediction-error interval on the training stream.
        let mut errors = Vec::new();
        for i in context..norm.len() {
            let pred = model.forecast_norm(&norm[i - context..i]);
            errors.push(pred - norm[i]);
        }
        let e_mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let e_var = errors
            .iter()
            .map(|e| (e - e_mean) * (e - e_mean))
            .sum::<f64>()
            / errors.len() as f64;
        model.error_std = e_var.sqrt().max(0.05);
        Some(model)
    }

    fn forecast_norm(&self, context: &[f64]) -> f64 {
        let mut g = Graph::new();
        let xs: Vec<Var> = context
            .iter()
            .map(|&x| g.input(Matrix::from_vec(1, 1, vec![x])))
            .collect();
        let states = self.lstm.run(&mut g, &self.params, &xs);
        let pred = self.head.forward(
            &mut g,
            &self.params,
            states.last().expect("nonempty context").h,
        );
        g.value(pred).get(0, 0)
    }

    /// Is `x` outside the confidence interval of the forecast given the
    /// window-local `past` values of this key?
    fn is_anomalous(&self, past: &[f64], x: f64, tolerance: f64) -> bool {
        let x_norm = (x - self.mean) / self.std;
        // Values far outside the training distribution are anomalous even
        // without forecast context.
        if past.len() < self.context {
            return x_norm.abs() > tolerance.max(4.0);
        }
        let ctx: Vec<f64> = past[past.len() - self.context..]
            .iter()
            .map(|v| (v - self.mean) / self.std)
            .collect();
        let pred = self.forecast_norm(&ctx);
        (pred - x_norm).abs() > tolerance * self.error_std.max(0.05)
    }
}

impl Detector for DeepLog {
    fn name(&self) -> &'static str {
        "DeepLog"
    }

    fn save_state(&self) -> Result<Vec<u8>, String> {
        self.save()
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        *self = DeepLog::load(bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn fit(&mut self, train: &TrainSet) {
        let normal = train.normal_windows();
        assert!(!normal.is_empty(), "DeepLog needs training windows");
        // Stale distributions from a previous fit would be silently wrong.
        self.prob_cache.lock().expect("prob cache").clear();
        let max_id = train.max_template_id().unwrap_or(0);
        self.unk = max_id + 1;
        self.pad = max_id + 2;
        self.eos = max_id + 3;
        self.vocab = self.eos as usize + 1;

        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.params = ParamSet::new();
        let emb = Embedding::new(
            &mut self.params,
            self.vocab,
            self.config.embedding_dim,
            &mut rng,
        );
        let lstm = Lstm::new(
            &mut self.params,
            self.config.embedding_dim,
            self.config.hidden,
            &mut rng,
        );
        let head = Dense::new(&mut self.params, self.config.hidden, self.vocab, &mut rng);

        // Gather (window, next) samples from all normal sequences.
        let mut samples: Vec<(Vec<usize>, usize)> = Vec::new();
        for w in &normal {
            samples.extend(self.samples_of(&w.sequence));
        }
        if samples.len() > self.config.max_samples {
            // Deterministic subsample.
            let stride = samples.len() as f64 / self.config.max_samples as f64;
            samples = (0..self.config.max_samples)
                .map(|k| samples[(k as f64 * stride) as usize].clone())
                .collect();
        }

        let mut opt = Adam::new(self.config.learning_rate);
        let h = self.config.history;
        for _ in 0..self.config.epochs {
            // Deterministic shuffle per epoch.
            for i in (1..samples.len()).rev() {
                let j = rng.random_range(0..=i);
                samples.swap(i, j);
            }
            for batch in samples.chunks(self.config.batch_size) {
                self.params.zero_grads();
                let mut g = Graph::new();
                // xs[t] = batch × emb matrix of the t-th history position.
                let xs: Vec<Var> = (0..h)
                    .map(|t| {
                        let ids: Vec<usize> = batch.iter().map(|(w, _)| w[t]).collect();
                        emb.forward(&mut g, &self.params, &ids)
                    })
                    .collect();
                let states = lstm.run(&mut g, &self.params, &xs);
                let logits = head.forward(&mut g, &self.params, states.last().expect("h ≥ 1").h);
                let targets: Vec<usize> = batch.iter().map(|(_, t)| *t).collect();
                let loss = g.softmax_xent(logits, targets);
                g.backward(loss, &mut self.params);
                self.params.clip_grad_norm(5.0);
                opt.step(&mut self.params);
            }
        }
        self.emb = Some(emb);
        self.lstm = Some(lstm);
        self.head = Some(head);

        // Parameter-value models.
        self.value_stats.clear();
        self.value_lstms.clear();
        if self.config.value_model != ValueModelKind::None {
            let mut streams: HashMap<(u32, usize), Vec<f64>> = HashMap::new();
            for w in &normal {
                for (&id, nums) in w.sequence.iter().zip(&w.numerics) {
                    for (slot, &x) in nums.iter().enumerate() {
                        streams.entry((id, slot)).or_default().push(x);
                        self.value_stats.entry((id, slot)).or_default().push(x);
                    }
                }
            }
            if self.config.value_model == ValueModelKind::Lstm {
                for (key, values) in streams {
                    if let Some(model) =
                        ValueLstm::train(&values, 3, self.config.seed ^ key.0 as u64)
                    {
                        self.value_lstms.insert(key, model);
                    }
                }
            }
        }
    }

    fn score(&self, window: &Window) -> f64 {
        (self.sequence_violations(window) + self.value_violations(window)) as f64
    }

    /// DeepLog flags a session on any violation.
    fn threshold(&self) -> f64 {
        0.0
    }

    fn score_components(&self, window: &Window) -> Vec<monilog_model::ScoreComponent> {
        let (seq, quant) = self.violation_breakdown(window);
        vec![
            monilog_model::ScoreComponent::new("score", (seq + quant) as f64),
            monilog_model::ScoreComponent::new("threshold", self.threshold()),
            monilog_model::ScoreComponent::new("sequential_violations", seq as f64),
            monilog_model::ScoreComponent::new("quantitative_violations", quant as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DeepLogConfig {
        DeepLogConfig {
            history: 4,
            top_g: 2,
            embedding_dim: 8,
            hidden: 16,
            epochs: 8,
            batch_size: 32,
            learning_rate: 0.02,
            ..Default::default()
        }
    }

    /// Normal flow: 0 → 1 → 2 → 3 with an optional 1-loop.
    fn normal_window(loops: usize) -> Window {
        let mut ids = vec![0];
        for _ in 0..loops {
            ids.push(1);
        }
        ids.extend([2, 3]);
        Window::from_ids(ids)
    }

    fn train_set() -> TrainSet {
        TrainSet::unlabeled((0..80).map(|i| normal_window(1 + i % 3)).collect())
    }

    #[test]
    fn learns_the_normal_flow() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        for loops in 1..=3 {
            let w = normal_window(loops);
            assert_eq!(
                d.sequence_violations(&w),
                0,
                "normal flow flagged at loops={loops}"
            );
        }
    }

    #[test]
    fn wrong_order_is_sequential_anomaly() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        // Table I's L1 → L4 shape: known events, impossible order.
        let w = Window::from_ids(vec![0, 3, 1, 2]);
        assert!(d.predict(&w), "violations: {}", d.score(&w));
        // The provenance breakdown must agree with the verdict: sequential
        // violations drive the score, the quantitative term stays zero.
        let comps = d.score_components(&w);
        let get = |name: &str| comps.iter().find(|c| c.name == name).unwrap().value;
        assert!(get("sequential_violations") > 0.0);
        assert_eq!(get("quantitative_violations"), 0.0);
        assert_eq!(
            get("score"),
            get("sequential_violations") + get("quantitative_violations")
        );
    }

    #[test]
    fn unseen_template_violates_closed_world() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        // Template 9 never existed at training time.
        let w = Window::from_ids(vec![0, 1, 9, 2, 3]);
        assert!(d.predict(&w));
    }

    #[test]
    fn quantitative_anomaly_detected_via_gaussian() {
        let mut windows = Vec::new();
        for i in 0..60 {
            let mut w = normal_window(1);
            // Event id 2 carries a byte count around 1000.
            w.numerics[2] = vec![1_000.0 + (i % 10) as f64];
            windows.push(w);
        }
        let mut d = DeepLog::new(small_config());
        d.fit(&TrainSet::unlabeled(windows));

        let mut normal = normal_window(1);
        normal.numerics[2] = vec![1_005.0];
        assert_eq!(d.value_violations(&normal), 0);

        // Table I, L3: same flow, absurd magnitude.
        let mut quant = normal_window(1);
        quant.numerics[2] = vec![745_675_869.0];
        assert!(d.value_violations(&quant) > 0);
        assert!(d.predict(&quant));
    }

    #[test]
    fn value_lstm_model_catches_magnitude_jumps() {
        let mut windows = Vec::new();
        for i in 0..30 {
            let mut w = normal_window(1);
            w.numerics[2] = vec![500.0 + (i % 7) as f64 * 3.0];
            windows.push(w);
        }
        let mut config = small_config();
        config.value_model = ValueModelKind::Lstm;
        config.epochs = 2; // value model is the subject here
        let mut d = DeepLog::new(config);
        d.fit(&TrainSet::unlabeled(windows));
        assert!(!d.value_lstms.is_empty(), "no value LSTM was trained");

        let mut quant = normal_window(1);
        quant.numerics[2] = vec![880_000.0];
        assert!(d.value_violations(&quant) > 0);
    }

    #[test]
    fn value_model_none_disables_quantitative_branch() {
        let mut config = small_config();
        config.value_model = ValueModelKind::None;
        config.epochs = 1;
        let mut d = DeepLog::new(config);
        let mut windows = Vec::new();
        for _ in 0..20 {
            let mut w = normal_window(1);
            w.numerics[2] = vec![100.0];
            windows.push(w);
        }
        d.fit(&TrainSet::unlabeled(windows));
        let mut quant = normal_window(1);
        quant.numerics[2] = vec![1e12];
        assert_eq!(d.value_violations(&quant), 0);
    }

    #[test]
    fn checkpoint_round_trip_scores_identically() {
        let mut d = DeepLog::new(small_config());
        let mut windows = Vec::new();
        for i in 0..60 {
            let mut w = normal_window(1 + i % 3);
            w.numerics[0] = vec![250.0 + (i % 5) as f64];
            windows.push(w);
        }
        d.fit(&TrainSet::unlabeled(windows.clone()));
        let bytes = d.save().expect("gaussian model checkpoints");
        let restored = DeepLog::load(&bytes).expect("valid checkpoint");

        let probes = [
            normal_window(2),
            Window::from_ids(vec![0, 3, 1, 2]),
            Window::from_ids(vec![0, 1, 9, 2, 3]),
            {
                let mut w = normal_window(1);
                w.numerics[0] = vec![9e9];
                w
            },
        ];
        for w in &probes {
            assert_eq!(
                d.score(w),
                restored.score(w),
                "scores diverged after restore"
            );
            assert_eq!(d.predict(w), restored.predict(w));
        }
    }

    #[test]
    fn unfitted_and_lstm_value_models_refuse_checkpointing() {
        let d = DeepLog::new(small_config());
        assert!(d.save().is_err(), "unfitted");

        let mut config = small_config();
        config.value_model = ValueModelKind::Lstm;
        config.epochs = 1;
        let mut d = DeepLog::new(config);
        let mut windows = Vec::new();
        for i in 0..30 {
            let mut w = normal_window(1);
            w.numerics[2] = vec![100.0 + i as f64];
            windows.push(w);
        }
        d.fit(&TrainSet::unlabeled(windows));
        assert!(
            d.save().is_err(),
            "lstm value models are not checkpointable"
        );
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        assert!(DeepLog::load(b"garbage").is_err());
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        let mut bytes = d.save().expect("checkpointable");
        bytes.truncate(bytes.len() / 2);
        assert!(DeepLog::load(&bytes).is_err());
    }

    #[test]
    fn probability_cache_is_exact_and_cleared_on_refit() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        let hist = vec![d.pad as usize, 0, 1, 2];
        let first = d.probabilities(&hist); // populates the cache
        assert_eq!(first, d.probabilities(&hist), "cached hit diverged");
        assert_eq!(
            first,
            d.probabilities_uncached(&hist),
            "cache must be invisible"
        );
        assert!(!d.prob_cache.lock().unwrap().is_empty());

        // Retrain on a different flow: cached distributions for the old
        // weights must not survive.
        let other = TrainSet::unlabeled((0..80).map(|_| Window::from_ids(vec![3, 2, 0])).collect());
        d.fit(&other);
        let refit = d.probabilities(&hist);
        assert_eq!(refit, d.probabilities_uncached(&hist));
        assert_ne!(first, refit, "distribution unchanged after refit");
    }

    #[test]
    fn empty_window_is_not_anomalous() {
        let mut d = DeepLog::new(small_config());
        d.fit(&train_set());
        assert!(!d.predict(&Window::default()));
    }
}
