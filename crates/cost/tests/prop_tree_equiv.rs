//! Equivalence oracle for the rank-coded tree fit: the comparison-sort
//! splitter it replaced lives on here, as the reference, and every model
//! the new fit produces must equal the reference's **bit for bit** — node
//! count, per-feature gains, predictions, and the RNG's position after the
//! fit — on matrices that mix the column kinds the tuner produces
//! (`ln(v + 1)` of a few integers, constants) with the ones it does not
//! (continuous, `±0.0`, NaN), and that reach every branch of the split
//! search: tiny nodes, `K` on both sides of its one-lane switch, a NaN
//! bucket that is the last, a column that dies below the root.
//! (heron-testkit harness; see DESIGN.md, "Zero-dependency & determinism
//! policy".)

use heron_cost::tree::TreeParams;
use heron_cost::{Gbdt, GbdtParams, RegressionTree};
use heron_rng::{HeronRng, Rng, SliceRandom};
use heron_testkit::{property_cases, Gen};

// ---- the reference: the splitter as it was before the column store ----

enum RefNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        gain: f64,
        left: usize,
        right: usize,
    },
}

struct RefTree {
    nodes: Vec<RefNode>,
    num_features: usize,
}

impl RefTree {
    fn fit<R: Rng>(
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        params: &TreeParams,
        rng: &mut R,
    ) -> Self {
        let mut tree = RefTree {
            nodes: Vec::new(),
            num_features: x[0].len(),
        };
        tree.build(x, y, rows, 0, params, rng);
        tree
    }

    fn build<R: Rng>(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        depth: usize,
        params: &TreeParams,
        rng: &mut R,
    ) -> usize {
        let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64;
        if depth >= params.max_depth || rows.len() < params.min_split {
            self.nodes.push(RefNode::Leaf { value: mean });
            return self.nodes.len() - 1;
        }
        match self.best_split(x, y, rows, params, rng) {
            None => {
                self.nodes.push(RefNode::Leaf { value: mean });
                self.nodes.len() - 1
            }
            Some((feature, threshold, gain)) => {
                let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| x[r][feature] <= threshold);
                let id = self.nodes.len();
                self.nodes.push(RefNode::Leaf { value: mean });
                let left = self.build(x, y, &left_rows, depth + 1, params, rng);
                let right = self.build(x, y, &right_rows, depth + 1, params, rng);
                self.nodes[id] = RefNode::Split {
                    feature,
                    threshold,
                    gain,
                    left,
                    right,
                };
                id
            }
        }
    }

    fn best_split<R: Rng>(
        &self,
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        params: &TreeParams,
        rng: &mut R,
    ) -> Option<(usize, f64, f64)> {
        let n = rows.len() as f64;
        let total_sum: f64 = rows.iter().map(|&r| y[r]).sum();
        let total_sq: f64 = rows.iter().map(|&r| y[r] * y[r]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n;

        let mut features: Vec<usize> = (0..self.num_features).collect();
        if params.feature_sample > 0 && params.feature_sample < self.num_features {
            features.shuffle(rng);
            features.truncate(params.feature_sample);
        }

        let mut best: Option<(usize, f64, f64)> = None;
        let mut sorted = rows.to_vec();
        for &f in &features {
            sorted.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for i in 0..sorted.len() - 1 {
                let v = y[sorted[i]];
                left_sum += v;
                left_sq += v * v;
                let xv = x[sorted[i]][f];
                let xn = x[sorted[i + 1]][f];
                if xv == xn {
                    continue;
                }
                let nl = (i + 1) as f64;
                let nr = n - nl;
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                let sse =
                    (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
                let gain = parent_sse - sse;
                if gain > best.map_or(1e-12, |(_, _, g)| g) {
                    best = Some((f, (xv + xn) / 2.0, gain));
                }
            }
        }
        best
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                RefNode::Leaf { value } => return *value,
                RefNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    id = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn accumulate_importance(&self, acc: &mut [f64]) {
        for node in &self.nodes {
            if let RefNode::Split { feature, gain, .. } = node {
                acc[*feature] += gain.max(0.0);
            }
        }
    }
}

struct RefGbdt {
    base: f64,
    learning_rate: f64,
    trees: Vec<RefTree>,
    num_features: usize,
}

impl RefGbdt {
    fn fit<R: Rng>(x: &[Vec<f64>], y: &[f64], params: &GbdtParams, rng: &mut R) -> Self {
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut preds = vec![base; y.len()];
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            let residuals: Vec<f64> = y.iter().zip(&preds).map(|(t, p)| t - p).collect();
            let rows: Vec<usize> = (0..x.len())
                .filter(|_| rng.random::<f64>() < params.subsample)
                .collect();
            let rows = if rows.is_empty() {
                (0..x.len()).collect()
            } else {
                rows
            };
            let tree = RefTree::fit(x, &residuals, &rows, &params.tree, rng);
            for (i, row) in x.iter().enumerate() {
                preds[i] += params.learning_rate * tree.predict(row);
            }
            trees.push(tree);
        }
        RefGbdt {
            base,
            learning_rate: params.learning_rate,
            trees,
            num_features: x[0].len(),
        }
    }

    fn predict(&self, row: &[f64]) -> f64 {
        let boost: f64 = self.trees.iter().map(|t| t.predict(row)).sum();
        self.base + self.learning_rate * boost
    }

    fn feature_importance(&self) -> Vec<f64> {
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

    fn top_features(&self, k: usize) -> Vec<usize> {
        let imp = self.feature_importance();
        let mut idx: Vec<usize> = (0..imp.len()).collect();
        idx.sort_by(|&a, &b| imp[b].total_cmp(&imp[a]));
        idx.truncate(k);
        idx
    }
}

// ---- generators --------------------------------------------------------

/// One column of `n` values of a randomly chosen kind.
fn column(g: &mut Gen, n: usize) -> Vec<f64> {
    let featurize = |v: i64| (v as f64 + 1.0).ln();
    match g.choice(8) {
        // What `CostModel::featurize` produces: ln(v + 1) of a few integers.
        0 | 1 => {
            let k = g.index(2, 7);
            let vals: Vec<f64> = (0..k).map(|_| featurize(1 << g.index(0, 10))).collect();
            (0..n).map(|_| *g.pick(&vals)).collect()
        }
        // Constant over the whole data set.
        2 => vec![featurize(g.int(0, 64)); n],
        // Every value distinct (K ≈ n).
        3 => (0..n).map(|_| g.f64_in(-4.0, 4.0)).collect(),
        // About n / 2 distinct values: nodes fall on both sides of the
        // split search's switch between one lane and several.
        6 => (0..n).map(|_| g.index(0, n / 2 + 1) as f64).collect(),
        // A few values and NaN, which sorts last: a NaN bucket that is
        // the last bucket of a node that sorts in lanes.
        7 => (0..n).map(|_| *g.pick(&[1.0, 2.0, f64::NAN])).collect(),
        // Signed zeros: equal as values, distinct under `total_cmp`.
        4 => (0..n)
            .map(|_| *g.pick(&[0.0, -0.0, 0.0, -0.0, 1.5]))
            .collect(),
        // Nothing but one NaN, or NaNs of both signs among a few values.
        _ if g.bool(0.3) => vec![f64::NAN; n],
        _ => (0..n)
            .map(|_| match g.choice(5) {
                0 => f64::NAN,
                1 => -f64::NAN,
                v => v as f64,
            })
            .collect(),
    }
}

fn matrix(g: &mut Gen) -> (Vec<Vec<f64>>, Vec<f64>) {
    // Tiny matrices give nodes of 1–7 rows, not multiples of 4 (the lanes'
    // remainder), from the root down.
    let n = if g.bool(0.25) {
        g.index(1, 8)
    } else {
        g.index(2, 97)
    };
    let d = g.index(1, 10);
    let mut cols: Vec<Vec<f64>> = (0..d).map(|_| column(g, n)).collect();
    // A column constant (a number, or NaN) on the rows where another
    // column is at most a pivot: a split there leaves it constant in a
    // child, where it must stay skipped below (a NaN one must not).
    if g.bool(0.5) {
        let source = cols[g.index(0, d)].clone();
        let pivot = source[g.index(0, n)];
        let constant = *g.pick(&[1.5, f64::NAN]);
        let derived = source
            .iter()
            .map(|&v| {
                if v <= pivot {
                    constant
                } else {
                    *g.pick(&[2.0, 3.0])
                }
            })
            .collect();
        cols.push(derived);
    }
    let x: Vec<Vec<f64>> = (0..n)
        .map(|r| cols.iter().map(|c| c[r]).collect())
        .collect();
    // Targets with ties (a coarse grid) so equal-gain candidates occur.
    let coarse = g.bool(0.5);
    let y: Vec<f64> = x
        .iter()
        .map(|row| {
            let signal: f64 = row.iter().filter(|v| v.is_finite()).sum();
            let noise = g.f64_in(-1.0, 1.0);
            if coarse {
                (signal + noise).round()
            } else {
                signal + noise
            }
        })
        .collect();
    (x, y)
}

fn tree_params(g: &mut Gen, d: usize) -> TreeParams {
    TreeParams {
        max_depth: g.index(0, 6),
        min_split: g.index(1, 7),
        feature_sample: match g.choice(3) {
            0 => 0,
            1 => g.index(1, d.max(2)),
            _ => d + g.index(0, 3),
        },
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

// ---- properties --------------------------------------------------------

#[test]
fn tree_equals_comparison_sort_reference() {
    property_cases("tree_equals_comparison_sort_reference", 512, |g| {
        let (x, y) = matrix(g);
        let (n, d) = (x.len(), x[0].len());
        // In-bag subsets as `Gbdt` draws them (ascending), and arbitrary
        // index lists (any order, repeats) as the public API allows.
        let rows: Vec<usize> = if g.bool(0.7) {
            let kept: Vec<usize> = (0..n).filter(|_| g.bool(0.8)).collect();
            if kept.is_empty() {
                vec![g.index(0, n)]
            } else {
                kept
            }
        } else {
            g.vec(1, n, |g| g.index(0, n))
        };
        let params = tree_params(g, d);
        let seed = g.choice(u64::MAX);

        let mut rng_new = HeronRng::from_seed(seed);
        let mut rng_ref = HeronRng::from_seed(seed);
        let new = RegressionTree::fit(&x, &y, &rows, &params, &mut rng_new);
        let reference = RefTree::fit(&x, &y, &rows, &params, &mut rng_ref);

        assert_eq!(new.len(), reference.nodes.len(), "node count");
        let mut gains_new = vec![0.0; d];
        let mut gains_ref = vec![0.0; d];
        new.accumulate_importance(&mut gains_new);
        reference.accumulate_importance(&mut gains_ref);
        assert_eq!(bits(&gains_new), bits(&gains_ref), "per-feature gains");
        for row in &x {
            assert_eq!(
                new.predict(row).to_bits(),
                reference.predict(row).to_bits(),
                "prediction on {row:?}"
            );
        }
        assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "RNG position");
    });
}

#[test]
fn gbdt_equals_comparison_sort_reference() {
    property_cases("gbdt_equals_comparison_sort_reference", 128, |g| {
        let (x, y) = matrix(g);
        let d = x[0].len();
        let params = GbdtParams {
            n_trees: g.index(0, 9),
            learning_rate: g.f64_in(0.05, 1.0),
            subsample: *g.pick(&[0.0, 0.5, 0.9, 1.0]),
            tree: tree_params(g, d),
        };
        let seed = g.choice(u64::MAX);

        let mut rng_new = HeronRng::from_seed(seed);
        let mut rng_ref = HeronRng::from_seed(seed);
        let new = Gbdt::fit(&x, &y, &params, &mut rng_new);
        let reference = RefGbdt::fit(&x, &y, &params, &mut rng_ref);

        assert_eq!(new.num_trees(), reference.trees.len());
        // The base is what a model with no trees predicts.
        if params.n_trees == 0 {
            assert_eq!(new.predict(&x[0]).to_bits(), reference.base.to_bits());
        }
        assert_eq!(
            bits(&new.feature_importance()),
            bits(&reference.feature_importance()),
            "importances"
        );
        assert_eq!(new.top_features(d), reference.top_features(d));
        let preds_ref: Vec<f64> = x.iter().map(|r| reference.predict(r)).collect();
        assert_eq!(
            bits(&new.predict_batch(&x)),
            bits(&preds_ref),
            "predictions"
        );
        assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "RNG position");
    });
}
