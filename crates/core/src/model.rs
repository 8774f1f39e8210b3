//! The cost model: GBDT over CSP-variable features.
//!
//! Features are the log-scaled values of *all* CSP variables — loop
//! lengths, footprints, vector widths, totals — which the paper notes are
//! available without compiling anything. The model predicts measured
//! throughput, and its gain-based feature importances select CGA's key
//! variables (Algorithm 3, Step 1).

use heron_cost::{Columns, Gbdt, GbdtParams};
use heron_csp::{Csp, Solution, VarRef};
use heron_rng::Rng;
use heron_trace::Tracer;

/// Cost model bound to one CSP's variable layout.
///
/// The model's store is the session's one copy of its measured samples:
/// the fit and the training-set predictions read the features' codes, and
/// [`CostModel::samples`] reads the raw values back for the checkpoint.
#[derive(Debug)]
pub struct CostModel {
    num_vars: usize,
    /// Log-scaled features of every sample, rank-coded.
    features: Columns,
    /// The same samples' raw variable values. `featurize` is not
    /// injective (negative values and large integers collide), so the
    /// features cannot give them back.
    raw: Columns<i64>,
    scores: Vec<f64>,
    model: Option<Gbdt>,
    params: GbdtParams,
    tracer: Tracer,
}

impl CostModel {
    /// Creates an empty model for the given CSP.
    pub fn new(csp: &Csp) -> Self {
        CostModel {
            num_vars: csp.num_vars(),
            features: Columns::default(),
            raw: Columns::default(),
            scores: Vec::new(),
            model: None,
            params: GbdtParams::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: refits run under a `model.fit` span and record
    /// `model.fits` / `model.fit_ms`; predictions count `model.predicts`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Log-scaled feature vector of a solution.
    pub fn featurize(&self, sol: &Solution) -> Vec<f64> {
        sol.values()
            .iter()
            .map(|&v| ((v.max(0)) as f64 + 1.0).ln())
            .collect()
    }

    /// Records one measured sample (`score` = throughput in Gops; invalid
    /// programs should be recorded with score 0).
    pub fn add_sample(&mut self, sol: &Solution, score: f64) {
        debug_assert_eq!(sol.values().len(), self.num_vars);
        self.features.push_row(&self.featurize(sol));
        self.raw.push_row(sol.values());
        self.scores.push(score);
    }

    /// Every recorded `(solution values, score)` sample in measurement
    /// order: the log that lets a resumed session rebuild the model.
    pub fn samples(&self) -> impl Iterator<Item = (Vec<i64>, f64)> + '_ {
        self.scores
            .iter()
            .enumerate()
            .map(|(r, &score)| (self.raw.row(r).collect(), score))
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Refits the GBDT on all recorded samples (no-op with < 8 samples).
    pub fn fit<R: Rng>(&mut self, rng: &mut R) {
        if self.scores.len() < 8 {
            return;
        }
        let span = self
            .tracer
            .span_with("model.fit", || [("samples", self.scores.len().to_string())]);
        let wall = std::time::Instant::now();
        // The previous model is not read by the fit: free it first, so the
        // old and the new ensemble are never live together.
        self.model = None;
        self.model = Some(Gbdt::fit_traced(
            &self.features,
            &self.scores,
            &self.params,
            rng,
            &self.tracer,
        ));
        self.tracer.counter_add("model.fits", 1);
        self.tracer
            .hist_record("model.fit_ms", wall.elapsed().as_secs_f64() * 1e3);
        drop(span);
    }

    /// Predicted score for a solution (0 before the first fit).
    ///
    /// Predictions are sanitised at the source: a NaN coming out of the
    /// regressor (degenerate fit) is counted on `model.nan_predictions`
    /// and mapped to `-inf`, so it sorts strictly below every real
    /// fitness under `f64::total_cmp` instead of floating arbitrarily
    /// through truncation sorts.
    pub fn predict(&self, sol: &Solution) -> f64 {
        self.tracer.counter_add("model.predicts", 1);
        match &self.model {
            Some(m) => {
                let raw = m.predict(&self.featurize(sol));
                if raw.is_nan() {
                    self.tracer.counter_add("model.nan_predictions", 1);
                    f64::NEG_INFINITY
                } else {
                    raw.max(0.0)
                }
            }
            None => 0.0,
        }
    }

    /// Whether a fitted model is available.
    pub fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    /// The `k` most important variables by split gain (Algorithm 3 Step 1).
    /// Falls back to an empty vector before the first fit.
    pub fn key_variables(&self, k: usize) -> Vec<VarRef> {
        match &self.model {
            Some(m) => m.top_features(k).into_iter().map(VarRef).collect(),
            None => Vec::new(),
        }
    }

    /// Pairwise rank accuracy of the fitted model on the recorded samples
    /// (`None` before the first fit). The explorer consumes rankings, so
    /// this is the fidelity signal that matters.
    pub fn rank_accuracy(&self) -> Option<f64> {
        let model = self.model.as_ref()?;
        let preds = model.predict_columns(&self.features);
        Some(heron_cost::pairwise_rank_accuracy(&preds, &self.scores))
    }

    /// Training-set fit quality `(rank accuracy, Spearman ρ)` of the
    /// fitted model, or `None` before the first fit. Both are computed on
    /// the same batch prediction pass, which is what the search-health log
    /// records after every refit.
    pub fn train_quality(&self) -> Option<(f64, f64)> {
        let model = self.model.as_ref()?;
        let preds = model.predict_columns(&self.features);
        Some((
            heron_cost::pairwise_rank_accuracy(&preds, &self.scores),
            heron_cost::spearman_rho(&preds, &self.scores),
        ))
    }

    /// The `k` highest gain-based feature importances as
    /// `(variable index, importance)` pairs, sorted by importance
    /// (descending) with variable index as the deterministic tiebreak.
    /// Empty before the first fit; zero-importance features are skipped.
    pub fn importance_topk(&self, k: usize) -> Vec<(u32, f64)> {
        let Some(m) = &self.model else {
            return Vec::new();
        };
        let mut pairs: Vec<(u32, f64)> = m
            .feature_importance()
            .into_iter()
            .enumerate()
            .filter(|(_, imp)| *imp > 0.0)
            .map(|(i, imp)| (i as u32, imp))
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs.truncate(k);
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_csp::{Domain, VarCategory};
    use heron_rng::HeronRng;

    fn csp2() -> Csp {
        let mut csp = Csp::new();
        csp.add_var("a", Domain::range(1, 64), VarCategory::Tunable);
        csp.add_var("b", Domain::range(1, 64), VarCategory::Tunable);
        csp
    }

    #[test]
    fn predicts_after_fit_and_ranks_keys() {
        let csp = csp2();
        let mut model = CostModel::new(&csp);
        let mut rng = HeronRng::from_seed(0);
        // score depends only on variable a.
        for a in 1..=32_i64 {
            for b in [1_i64, 8, 64] {
                let sol = Solution::new(vec![a, b]);
                model.add_sample(&sol, (a * a) as f64);
            }
        }
        model.fit(&mut rng);
        assert!(model.is_fitted());
        let lo = model.predict(&Solution::new(vec![2, 8]));
        let hi = model.predict(&Solution::new(vec![30, 8]));
        assert!(hi > lo, "prediction must follow the signal: {hi} vs {lo}");
        assert_eq!(model.key_variables(1), vec![VarRef(0)]);
        let acc = model.rank_accuracy().expect("fitted");
        assert!(acc > 0.9, "training rank accuracy too low: {acc}");
        let (acc2, rho) = model.train_quality().expect("fitted");
        assert_eq!(acc, acc2);
        assert!(rho > 0.9, "training spearman too low: {rho}");
        let top = model.importance_topk(2);
        assert_eq!(top[0].0, 0, "variable a carries the signal: {top:?}");
        assert!(top[0].1 > 0.0);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn samples_read_back_the_raw_values() {
        let csp = csp2();
        let mut model = CostModel::new(&csp);
        // `featurize` maps all three of these to the same features.
        let recorded = [
            (vec![-5, 1 << 60], 1.5),
            (vec![0, (1 << 60) + 1], 0.0),
            (vec![-1, 1 << 60], 2.0),
        ];
        for (values, score) in &recorded {
            model.add_sample(&Solution::new(values.clone()), *score);
        }
        assert_eq!(model.samples().collect::<Vec<_>>(), recorded);
    }

    #[test]
    fn unfitted_model_is_neutral() {
        let csp = csp2();
        let mut model = CostModel::new(&csp);
        assert_eq!(model.predict(&Solution::new(vec![1, 1])), 0.0);
        assert!(model.key_variables(3).is_empty());
        let mut rng = HeronRng::from_seed(0);
        model.add_sample(&Solution::new(vec![1, 1]), 1.0);
        model.fit(&mut rng); // too few samples: still unfitted
        assert!(!model.is_fitted());
        assert_eq!(model.len(), 1);
    }
}
