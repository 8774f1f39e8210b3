//! Gradient-boosted regression trees: the cost model of Heron's explorer.
//!
//! Replaces the paper's XGBoost dependency with a from-scratch
//! implementation offering the same API surface the pipeline needs:
//! `fit(features, targets)`, `predict(features)`, and gain-based
//! **feature importance** — the signal CGA uses to pick key variables for
//! constraint-based crossover (Algorithm 3, Step 1).
//!
//! Features are the values of the CSP variables themselves (log-scaled),
//! which the paper highlights as cheap to obtain: no compilation is needed
//! to featurise a candidate.
//!
//! # Example
//!
//! ```
//! use heron_cost::{Gbdt, GbdtParams};
//!
//! // y = 3*x0 + noise-free constant; x1 is irrelevant.
//! let x: Vec<Vec<f64>> = (0..64).map(|i| vec![(i % 8) as f64, (i / 8) as f64]).collect();
//! let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0]).collect();
//! let mut rng = heron_rng::HeronRng::from_seed(0);
//! let model = Gbdt::fit(&x, &y, &GbdtParams::default(), &mut rng);
//! let imp = model.feature_importance();
//! assert!(imp[0] > imp[1]);
//! ```

pub mod gbdt;
pub mod metrics;
pub mod tree;

pub use gbdt::{Gbdt, GbdtParams};
pub use metrics::{pairwise_rank_accuracy, r_squared, spearman_rho};
pub use tree::{Columns, RegressionTree};
