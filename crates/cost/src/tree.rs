//! Variance-reduction regression trees (the weak learner of the GBDT).

use heron_rng::Rng;
use heron_rng::SliceRandom;

/// One node of a regression tree, index-linked in a flat arena.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Variance reduction achieved (importance contribution).
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// Hyper-parameters for a single tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeParams {
    /// Maximum depth (root = 0).
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
    /// Number of candidate features examined per node (feature
    /// subsampling); 0 means all.
    pub feature_sample: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 4,
            min_split: 4,
            feature_sample: 0,
        }
    }
}

/// Rank-coded, column-major copy of a feature matrix, built once per
/// fit and shared by every tree and node.
///
/// `codes(f)[r]` is the rank of `x[r][f]` among feature `f`'s distinct
/// values under [`f64::total_cmp`] and `values(f)[code]` is that value, so
/// ordering rows by code *is* ordering them by `total_cmp` on the value
/// (`-0.0 < +0.0` and every NaN payload get codes of their own).
#[derive(Debug)]
pub(crate) struct Columns {
    rows: usize,
    /// `codes[f * rows + r]`.
    codes: Vec<u32>,
    /// Distinct values of every feature, ascending, back to back.
    values: Vec<f64>,
    /// `values[starts[f]..starts[f + 1]]` belong to feature `f`.
    starts: Vec<usize>,
}

impl Columns {
    /// Rank-codes `x`. The one owner of the feature-matrix shape checks.
    ///
    /// # Panics
    /// Panics if `x` is empty or its rows differ in length.
    pub(crate) fn new(x: &[Vec<f64>]) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree to zero samples");
        let rows = x.len();
        let num_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == num_features),
            "ragged feature matrix"
        );
        assert!(u32::try_from(rows).is_ok(), "row index exceeds u32");
        let mut codes = vec![0u32; num_features * rows];
        let mut values: Vec<f64> = Vec::new();
        let mut starts = Vec::with_capacity(num_features + 1);
        let mut column: Vec<(f64, u32)> = Vec::with_capacity(rows);
        for (f, codes) in codes.chunks_exact_mut(rows).enumerate() {
            column.clear();
            column.extend(x.iter().zip(0u32..).map(|(row, r)| (row[f], r)));
            column.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let start = values.len();
            starts.push(start);
            for &(v, r) in &column {
                let last = values[start..].last();
                if last.is_none_or(|last| last.total_cmp(&v).is_ne()) {
                    values.push(v);
                }
                codes[r as usize] = (values.len() - start - 1) as u32;
            }
        }
        starts.push(values.len());
        Columns {
            rows,
            codes,
            values,
            starts,
        }
    }

    pub(crate) fn num_features(&self) -> usize {
        self.starts.len() - 1
    }

    fn codes(&self, feature: usize) -> &[u32] {
        &self.codes[feature * self.rows..(feature + 1) * self.rows]
    }

    fn values(&self, feature: usize) -> &[f64] {
        &self.values[self.starts[feature]..self.starts[feature + 1]]
    }

    /// Largest number of distinct values any feature has.
    fn max_distinct(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// Buffers of one tree fit, reusable by the next ([`Gbdt`](crate::Gbdt)
/// keeps one for all its boosting rounds).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The in-bag rows; a node owns a contiguous range, partitioned in
    /// place (stably) when it splits.
    rows: Vec<usize>,
    /// Prefix: the current node's rows in the order the features visited
    /// so far have sorted them.
    sorted: Vec<usize>,
    /// Scatter target of the counting sort (then swapped with `sorted`)
    /// and right half of a partition.
    tmp: Vec<usize>,
    /// One bucket per distinct value of the feature being sorted.
    counts: Vec<usize>,
    /// The node's candidate features.
    features: Vec<usize>,
}

/// A fitted regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

/// The state of one tree fit: what [`RegressionTree::fit_columns`]
/// threads through the recursion.
struct Builder<'a, R> {
    cols: &'a Columns,
    y: &'a [f64],
    params: &'a TreeParams,
    rng: &'a mut R,
    scratch: &'a mut Scratch,
    nodes: Vec<Node>,
}

impl RegressionTree {
    /// Fits a tree to `(x, y)` on the given sample indices.
    ///
    /// # Panics
    /// Panics if `x` or `rows` is empty or feature vectors are ragged.
    pub fn fit<R: Rng>(
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        params: &TreeParams,
        rng: &mut R,
    ) -> Self {
        let cols = Columns::new(x);
        RegressionTree::fit_columns(&cols, y, rows, params, rng, &mut Scratch::default())
    }

    /// [`RegressionTree::fit`] on an already rank-coded matrix.
    pub(crate) fn fit_columns<R: Rng>(
        cols: &Columns,
        y: &[f64],
        rows: &[usize],
        params: &TreeParams,
        rng: &mut R,
        scratch: &mut Scratch,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree to zero samples");
        scratch.rows.clear();
        scratch.rows.extend_from_slice(rows);
        scratch.sorted.resize(rows.len(), 0);
        scratch.tmp.resize(rows.len(), 0);
        scratch.counts.resize(cols.max_distinct(), 0);
        let mut builder = Builder {
            cols,
            y,
            params,
            rng,
            scratch,
            nodes: Vec::new(),
        };
        builder.build(0, rows.len(), 0);
        RegressionTree {
            nodes: builder.nodes,
            num_features: cols.num_features(),
        }
    }

    /// Predicted value for one feature vector.
    ///
    /// # Panics
    /// Panics if `row` has the wrong arity.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "feature arity mismatch");
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf { value } => return *value,
                Node::Split {
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

    /// Accumulates per-feature split gains into `acc`.
    pub fn accumulate_importance(&self, acc: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                acc[*feature] += gain.max(0.0);
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is a single leaf.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }
}

impl<R: Rng> Builder<'_, R> {
    /// Builds the subtree over `scratch.rows[lo..hi]`; returns its root.
    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> usize {
        let y = self.y;
        let rows = &self.scratch.rows[lo..hi];
        let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len() as f64;
        let split = if depth >= self.params.max_depth || rows.len() < self.params.min_split {
            None
        } else {
            self.best_split(lo, hi)
        };
        // Reserve the node's slot, then build children.
        let id = self.nodes.len();
        self.nodes.push(Node::Leaf { value: mean });
        if let Some((feature, threshold, gain)) = split {
            let mid = self.partition(lo, hi, feature, threshold);
            let left = self.build(lo, mid, depth + 1);
            let right = self.build(mid, hi, depth + 1);
            self.nodes[id] = Node::Split {
                feature,
                threshold,
                gain,
                left,
                right,
            };
        }
        id
    }

    /// Stably moves the rows of `scratch.rows[lo..hi]` with
    /// `x[r][feature] <= threshold` to the front; returns where the rest
    /// begin.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let codes = self.cols.codes(feature);
        let values = self.cols.values(feature);
        let Scratch { rows, tmp, .. } = &mut *self.scratch;
        let (mut mid, mut spilled) = (lo, 0);
        for i in lo..hi {
            let r = rows[i];
            if values[codes[r] as usize] <= threshold {
                rows[mid] = r;
                mid += 1;
            } else {
                tmp[spilled] = r;
                spilled += 1;
            }
        }
        rows[mid..hi].copy_from_slice(&tmp[..spilled]);
        mid
    }

    /// Finds the `(feature, threshold, gain)` minimising child variance
    /// over `scratch.rows[lo..hi]`.
    ///
    /// `sorted` is re-sorted feature after feature, never reset, so the
    /// order of rows that tie on one feature is the order the previously
    /// visited feature left them in. That order fixes the order of the
    /// `left_sum` / `left_sq` additions and hence the low bits of every
    /// gain: it is part of the model and must not change.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64, f64)> {
        let (cols, y) = (self.cols, self.y);
        let Scratch {
            rows,
            sorted,
            tmp,
            counts,
            features,
        } = &mut *self.scratch;
        let rows = &rows[lo..hi];
        let n = rows.len() as f64;
        let total_sum: f64 = rows.iter().map(|&r| y[r]).sum();
        let total_sq: f64 = rows.iter().map(|&r| y[r] * y[r]).sum();
        let parent_sse = total_sq - total_sum * total_sum / n;

        let num_features = cols.num_features();
        features.clear();
        features.extend(0..num_features);
        if self.params.feature_sample > 0 && self.params.feature_sample < num_features {
            features.shuffle(self.rng);
            features.truncate(self.params.feature_sample);
        }

        let mut best: Option<(usize, f64, f64)> = None;
        let len = rows.len();
        sorted[..len].copy_from_slice(rows);
        for &f in features.iter() {
            let codes = cols.codes(f);
            let values = cols.values(f);
            // A column with one distinct value cannot split any node. (NaN
            // is unequal to itself, so the scan below does "split" a NaN
            // column; it is left to do so.)
            if values.len() == 1 && !values[0].is_nan() {
                continue;
            }
            // Stable counting sort of `sorted` by code: the permutation a
            // stable comparison sort by `total_cmp` on the values gives.
            let counts = &mut counts[..values.len()];
            counts.fill(0);
            for &r in &sorted[..len] {
                counts[codes[r] as usize] += 1;
            }
            // Constant inside this node: sorting is the identity and no
            // boundary exists, so `sorted` stays as it is.
            let first = codes[sorted[0]] as usize;
            if counts[first] == len && !values[first].is_nan() {
                continue;
            }
            let mut offset = 0;
            for c in counts.iter_mut() {
                offset += std::mem::replace(c, offset);
            }
            for &r in &sorted[..len] {
                let slot = &mut counts[codes[r] as usize];
                tmp[*slot] = r;
                *slot += 1;
            }
            std::mem::swap(sorted, tmp);
            let sorted = &sorted[..len];

            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut xv = values[codes[sorted[0]] as usize];
            for i in 0..sorted.len() - 1 {
                let v = y[sorted[i]];
                left_sum += v;
                left_sq += v * v;
                let xn = values[codes[sorted[i + 1]] as usize];
                // Compared as values, not codes: `-0.0 == 0.0` is no
                // boundary, `NaN != NaN` is one.
                if xv != xn {
                    let nl = (i + 1) as f64;
                    let nr = n - nl;
                    let right_sum = total_sum - left_sum;
                    let right_sq = total_sq - left_sq;
                    let sse = (left_sq - left_sum * left_sum / nl)
                        + (right_sq - right_sum * right_sum / nr);
                    let gain = parent_sse - sse;
                    if gain > best.map_or(1e-12, |(_, _, g)| g) {
                        best = Some((f, (xv + xn) / 2.0, gain));
                    }
                }
                xv = xn;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_rng::HeronRng;

    #[test]
    fn splits_on_informative_feature() {
        // y = step(x0): perfectly separable on feature 0.
        let x: Vec<Vec<f64>> = (0..32)
            .map(|i| vec![i as f64, ((i * 7) % 5) as f64])
            .collect();
        let y: Vec<f64> = (0..32).map(|i| if i < 16 { 0.0 } else { 10.0 }).collect();
        let rows: Vec<usize> = (0..32).collect();
        let mut rng = HeronRng::from_seed(0);
        let t = RegressionTree::fit(&x, &y, &rows, &TreeParams::default(), &mut rng);
        assert!((t.predict(&[3.0, 0.0]) - 0.0).abs() < 1e-9);
        assert!((t.predict(&[30.0, 0.0]) - 10.0).abs() < 1e-9);
        let mut imp = vec![0.0; 2];
        t.accumulate_importance(&mut imp);
        assert!(imp[0] > imp[1]);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 8];
        let rows: Vec<usize> = (0..8).collect();
        let mut rng = HeronRng::from_seed(0);
        let t = RegressionTree::fit(&x, &y, &rows, &TreeParams::default(), &mut rng);
        assert!(t.is_empty());
        assert!((t.predict(&[99.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let rows: Vec<usize> = (0..64).collect();
        let mut rng = HeronRng::from_seed(0);
        let p = TreeParams {
            max_depth: 2,
            min_split: 2,
            feature_sample: 0,
        };
        let t = RegressionTree::fit(&x, &y, &rows, &p, &mut rng);
        // Depth-2 tree has at most 4 leaves + 3 splits.
        assert!(t.len() <= 7);
    }

    #[test]
    #[should_panic(expected = "ragged feature matrix")]
    fn ragged_rows_panic() {
        let x = vec![vec![1.0, 2.0], vec![3.0]];
        let mut rng = HeronRng::from_seed(0);
        RegressionTree::fit(&x, &[1.0, 2.0], &[0, 1], &TreeParams::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "cannot fit a tree to zero samples")]
    fn empty_matrix_panics() {
        let mut rng = HeronRng::from_seed(0);
        RegressionTree::fit(&[], &[], &[0], &TreeParams::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn predict_checks_arity() {
        let x = vec![vec![1.0, 2.0]];
        let y = vec![1.0];
        let mut rng = HeronRng::from_seed(0);
        let t = RegressionTree::fit(&x, &y, &[0], &TreeParams::default(), &mut rng);
        t.predict(&[1.0]);
    }
}
