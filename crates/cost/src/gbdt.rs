//! Gradient boosting over regression trees (squared loss).

use heron_rng::Rng;
use heron_trace::Tracer;

use crate::tree::{Columns, RegressionTree, Scratch, TreeParams};

/// Boosting hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct GbdtParams {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Shrinkage (learning rate).
    pub learning_rate: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// Per-tree structural parameters.
    pub tree: TreeParams,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_trees: 24,
            learning_rate: 0.3,
            subsample: 0.9,
            tree: TreeParams {
                max_depth: 4,
                min_split: 4,
                feature_sample: 48,
            },
        }
    }
}

/// A fitted gradient-boosted model.
#[derive(Debug, Clone)]
pub struct Gbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RegressionTree>,
    num_features: usize,
}

impl Gbdt {
    /// Fits the model to `(x, y)` with squared loss: rank-codes `x` into a
    /// [`Columns`], then [`Gbdt::fit_traced`] on it.
    ///
    /// # Panics
    /// Panics if `x` is empty, ragged, or `x.len() != y.len()`.
    pub fn fit<R: Rng>(x: &[Vec<f64>], y: &[f64], params: &GbdtParams, rng: &mut R) -> Self {
        Gbdt::fit_traced(&Columns::new(x), y, params, rng, &Tracer::disabled())
    }

    /// Fits the model to the rows of `x` and the targets `y` under a
    /// `cost.fit` span, recording the counter `cost.fits` and the
    /// wall-time histogram `cost.fit_ms` on `tracer`. The tracer never
    /// draws from `rng`, so traced and untraced fits produce identical
    /// models.
    ///
    /// # Panics
    /// Panics if `x` has no rows or `x.rows() != y.len()`.
    pub fn fit_traced<R: Rng>(
        x: &Columns,
        y: &[f64],
        params: &GbdtParams,
        rng: &mut R,
        tracer: &Tracer,
    ) -> Self {
        let span = tracer.span_with("cost.fit", || {
            [
                ("rows", x.rows().to_string()),
                ("trees", params.n_trees.to_string()),
            ]
        });
        let wall = std::time::Instant::now();
        let model = Gbdt::fit_inner(x, y, params, rng);
        tracer.counter_add("cost.fits", 1);
        tracer.hist_record("cost.fit_ms", wall.elapsed().as_secs_f64() * 1e3);
        drop(span);
        model
    }

    fn fit_inner<R: Rng>(cols: &Columns, y: &[f64], params: &GbdtParams, rng: &mut R) -> Self {
        assert_eq!(cols.rows(), y.len(), "feature/target length mismatch");
        assert!(!y.is_empty(), "cannot fit a tree to zero samples");

        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut preds = vec![base; y.len()];
        let mut trees = Vec::with_capacity(params.n_trees);
        let mut residuals = vec![0.0; y.len()];
        let mut rows = Vec::with_capacity(y.len());
        let mut scratch = Scratch::default();
        for _ in 0..params.n_trees {
            for ((r, t), p) in residuals.iter_mut().zip(y).zip(&preds) {
                *r = t - p;
            }
            rows.clear();
            rows.extend((0..y.len()).filter(|_| rng.random::<f64>() < params.subsample));
            if rows.is_empty() {
                rows.extend(0..y.len());
            }
            let tree = RegressionTree::fit_columns(
                cols,
                &residuals,
                &rows,
                &params.tree,
                rng,
                &mut scratch,
            );
            for (r, p) in preds.iter_mut().enumerate() {
                *p += params.learning_rate * tree.predict_row(cols, r);
            }
            trees.push(tree);
        }
        Gbdt {
            base,
            learning_rate: params.learning_rate,
            trees,
            num_features: cols.num_features(),
        }
    }

    /// Predicted target for one feature vector.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let boost: f64 = self.trees.iter().map(|t| t.predict(row)).sum();
        self.base + self.learning_rate * boost
    }

    /// Predictions for a batch.
    pub fn predict_batch(&self, rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().map(|r| self.predict(r)).collect()
    }

    /// Predictions for every row of `x`, read from its codes: the same
    /// bits as [`Gbdt::predict_batch`] of those rows.
    ///
    /// # Panics
    /// Panics if `x`'s arity differs from the model's.
    pub fn predict_columns(&self, x: &Columns) -> Vec<f64> {
        assert_eq!(
            x.num_features(),
            self.num_features,
            "feature arity mismatch"
        );
        (0..x.rows())
            .map(|r| {
                let boost: f64 = self.trees.iter().map(|t| t.predict_row(x, r)).sum();
                self.base + self.learning_rate * boost
            })
            .collect()
    }

    /// Gain-based feature importance, normalised to sum to 1 (all zeros if
    /// no split was ever made).
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.num_features];
        for t in &self.trees {
            t.accumulate_importance(&mut acc);
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for a in &mut acc {
                *a /= total;
            }
        }
        acc
    }

    /// Indices of the `k` most important features, descending.
    pub fn top_features(&self, k: usize) -> Vec<usize> {
        let imp = self.feature_importance();
        let mut idx: Vec<usize> = (0..imp.len()).collect();
        idx.sort_by(|&a, &b| imp[b].total_cmp(&imp[a]));
        idx.truncate(k);
        idx
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_rng::HeronRng;

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 2*x0 - x1, x2 noise-like but deterministic.
        let x: Vec<Vec<f64>> = (0..128)
            .map(|i| {
                vec![
                    (i % 8) as f64,
                    ((i / 8) % 4) as f64,
                    ((i * 37) % 11) as f64 / 11.0,
                ]
            })
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 2.0 * r[0] - r[1]).collect();
        (x, y)
    }

    #[test]
    fn fits_linear_signal() {
        let (x, y) = toy();
        let mut rng = HeronRng::from_seed(7);
        let params = GbdtParams {
            n_trees: 40,
            learning_rate: 0.3,
            subsample: 1.0,
            tree: TreeParams {
                max_depth: 4,
                min_split: 2,
                feature_sample: 0,
            },
        };
        let m = Gbdt::fit(&x, &y, &params, &mut rng);
        let preds = m.predict_batch(&x);
        let mse: f64 = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t) * (p - t))
            .sum::<f64>()
            / y.len() as f64;
        let var: f64 = {
            let mean = y.iter().sum::<f64>() / y.len() as f64;
            y.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / y.len() as f64
        };
        assert!(mse < 0.05 * var, "mse {mse} vs var {var}");
    }

    #[test]
    fn importance_ranks_informative_features() {
        let (x, y) = toy();
        let mut rng = HeronRng::from_seed(7);
        let m = Gbdt::fit(&x, &y, &GbdtParams::default(), &mut rng);
        let imp = m.feature_importance();
        assert!(imp[0] > imp[2], "x0 must beat noise: {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(m.top_features(1), vec![0]);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64]).collect();
        let y = vec![3.5; 16];
        let mut rng = HeronRng::from_seed(0);
        let m = Gbdt::fit(&x, &y, &GbdtParams::default(), &mut rng);
        assert!((m.predict(&[100.0]) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn traced_fit_matches_untraced_and_records_metrics() {
        let (x, y) = toy();
        let tracer = Tracer::manual();
        let mut rng_a = HeronRng::from_seed(7);
        let mut rng_b = HeronRng::from_seed(7);
        let traced = Gbdt::fit_traced(
            &Columns::new(&x),
            &y,
            &GbdtParams::default(),
            &mut rng_a,
            &tracer,
        );
        let plain = Gbdt::fit(&x, &y, &GbdtParams::default(), &mut rng_b);
        let probe = vec![3.0, 1.0, 0.4];
        assert_eq!(
            traced.predict(&probe),
            plain.predict(&probe),
            "tracing must not perturb fitting"
        );
        assert_eq!(tracer.counter("cost.fits"), Some(1));
        let summary = heron_trace::check_trace(&tracer.to_jsonl()).expect("balanced");
        assert_eq!(summary.spans.len(), 1);
        assert_eq!(summary.spans[0].name, "cost.fit");
        assert!(summary.spans[0]
            .fields
            .iter()
            .any(|(k, v)| k == "rows" && v == "128"));
        assert!(tracer.metrics_tsv().contains("cost.fit_ms\thistogram"));
    }

    #[test]
    #[should_panic(expected = "ragged feature matrix")]
    fn ragged_matrix_panics() {
        let mut rng = HeronRng::from_seed(0);
        let x = [vec![1.0, 2.0], vec![3.0]];
        Gbdt::fit(&x, &[1.0, 2.0], &GbdtParams::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut rng = HeronRng::from_seed(0);
        Gbdt::fit(&[vec![1.0]], &[1.0, 2.0], &GbdtParams::default(), &mut rng);
    }
}
