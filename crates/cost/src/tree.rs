//! Variance-reduction regression trees (the weak learner of the GBDT).

use std::cmp::Ordering;

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

/// How a column orders its values: `f64` by [`f64::total_cmp`] (so
/// `-0.0 < +0.0` and every NaN payload ranks on its own), integers as
/// integers. Two values rank equal only if they are the same bits.
pub trait Rank: Copy {
    /// The column order of `self` against `other`.
    fn rank(&self, other: &Self) -> Ordering;
}

impl Rank for f64 {
    fn rank(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Rank for i64 {
    fn rank(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
}

/// Rank-coded, column-major store of a matrix whose rows arrive one at a
/// time ([`Columns::push_row`]) or all at once ([`Columns::new`]); the
/// cost model keeps its samples here and every fit reads it in place.
///
/// `codes(f)[r]` is the rank of `x[r][f]` among feature `f`'s distinct
/// values under [`Rank`] and `values(f)[code]` is that value, so ordering
/// rows by code *is* ordering them by value, and `values(f)[code]` gives
/// the row's value back bit for bit.
#[derive(Debug)]
pub struct Columns<T = f64> {
    rows: usize,
    columns: Vec<Column<T>>,
}

/// One feature of a [`Columns`].
#[derive(Debug)]
struct Column<T> {
    /// `codes[r]`: the rank of row `r`'s value among `values`.
    codes: Vec<u32>,
    /// The distinct values, ascending.
    values: Vec<T>,
}

impl<T> Default for Columns<T> {
    /// An empty store; it allocates on the first row.
    fn default() -> Self {
        Columns {
            rows: 0,
            columns: Vec::new(),
        }
    }
}

impl<T: Rank> Columns<T> {
    /// Rank-codes `x` at once: one sort per feature.
    ///
    /// # Panics
    /// Panics if `x` is empty or its rows differ in length.
    pub fn new(x: &[Vec<T>]) -> Self {
        assert!(!x.is_empty(), "cannot fit a tree to zero samples");
        let rows = x.len();
        let num_features = x[0].len();
        assert!(
            x.iter().all(|r| r.len() == num_features),
            "ragged feature matrix"
        );
        assert!(u32::try_from(rows).is_ok(), "row index exceeds u32");
        let mut column: Vec<(T, u32)> = Vec::with_capacity(rows);
        let columns = (0..num_features)
            .map(|f| {
                column.clear();
                column.extend(x.iter().zip(0u32..).map(|(row, r)| (row[f], r)));
                column.sort_unstable_by(|a, b| a.0.rank(&b.0));
                let mut codes = vec![0u32; rows];
                let mut values: Vec<T> = Vec::new();
                for &(v, r) in &column {
                    if values.last().is_none_or(|last| last.rank(&v).is_ne()) {
                        values.push(v);
                    }
                    codes[r as usize] = (values.len() - 1) as u32;
                }
                Column { codes, values }
            })
            .collect();
        Columns { rows, columns }
    }

    /// Appends one row: a value new to its feature is inserted in rank
    /// order and the codes above it are raised, so the store equals
    /// [`Columns::new`] of all rows pushed so far.
    ///
    /// # Panics
    /// Panics if `row`'s length differs from the rows before it.
    pub fn push_row(&mut self, row: &[T]) {
        if self.rows == 0 {
            self.columns = row
                .iter()
                .map(|_| Column {
                    codes: Vec::new(),
                    values: Vec::new(),
                })
                .collect();
        }
        assert_eq!(row.len(), self.columns.len(), "ragged feature matrix");
        assert!(
            u32::try_from(self.rows + 1).is_ok(),
            "row index exceeds u32"
        );
        for (column, &v) in self.columns.iter_mut().zip(row) {
            let code = match column.values.binary_search_by(|x| x.rank(&v)) {
                Ok(code) => code,
                Err(code) => {
                    column.values.insert(code, v);
                    let raised = code as u32;
                    for c in &mut column.codes {
                        *c += u32::from(*c >= raised);
                    }
                    code
                }
            };
            column.codes.push(code as u32);
        }
        self.rows += 1;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of features (0 before the first row).
    pub fn num_features(&self) -> usize {
        self.columns.len()
    }

    /// Every row's code of `feature`.
    pub fn codes(&self, feature: usize) -> &[u32] {
        &self.columns[feature].codes
    }

    /// The distinct values of `feature`, ascending.
    pub fn values(&self, feature: usize) -> &[T] {
        &self.columns[feature].values
    }

    /// The value of row `r` at `feature`.
    pub fn value(&self, feature: usize, r: usize) -> T {
        let column = &self.columns[feature];
        column.values[column.codes[r] as usize]
    }

    /// The values of row `r`, feature by feature.
    pub fn row(&self, r: usize) -> impl Iterator<Item = T> + '_ {
        (0..self.num_features()).map(move |f| self.value(f, r))
    }

    /// Largest number of distinct values any feature has.
    fn max_distinct(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.values.len())
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
    /// Counters of the feature being sorted: one per distinct value, or
    /// [`LANES`] per distinct value, bucket-major (`code * LANES + lane`).
    counts: Vec<usize>,
    /// The node's candidate features.
    features: Vec<usize>,
    /// `dead[f] < depth`: feature `f` took one non-NaN value on the rows
    /// of the ancestor at depth `dead[f]`, so it cannot split this node.
    dead: Vec<usize>,
}

/// Interleaved lanes of the counting sort (see [`each_in_lanes`]).
const LANES: usize = 4;

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
    /// Panics if `x` or `rows` is empty, feature vectors are ragged,
    /// `y.len() != x.len()`, or an index in `rows` is not below `x.len()`.
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
    ///
    /// # Panics
    /// As [`RegressionTree::fit`]. Every index the split search makes into
    /// `y` and the columns rests on these checks.
    pub(crate) fn fit_columns<R: Rng>(
        cols: &Columns,
        y: &[f64],
        rows: &[usize],
        params: &TreeParams,
        rng: &mut R,
        scratch: &mut Scratch,
    ) -> Self {
        assert!(!rows.is_empty(), "cannot fit a tree to zero samples");
        assert_eq!(y.len(), cols.rows, "target count differs from row count");
        assert!(rows.iter().all(|&r| r < y.len()), "row index out of range");
        scratch.rows.clear();
        scratch.rows.extend_from_slice(rows);
        scratch.sorted.resize(rows.len(), 0);
        scratch.tmp.resize(rows.len(), 0);
        scratch.counts.resize(LANES * cols.max_distinct(), 0);
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

    /// Predicted value for row `r` of `cols`, read from its codes: the
    /// same value bits, hence the same leaf, as [`RegressionTree::predict`]
    /// of the row.
    pub(crate) fn predict_row(&self, cols: &Columns, r: usize) -> f64 {
        self.descend(|feature| cols.value(feature, r))
    }

    /// Predicted value for one feature vector.
    ///
    /// # Panics
    /// Panics if `row` has the wrong arity.
    pub fn predict(&self, row: &[f64]) -> f64 {
        assert_eq!(row.len(), self.num_features, "feature arity mismatch");
        self.descend(|feature| row[feature])
    }

    /// The leaf value reached by reading feature values from `x`.
    fn descend(&self, x: impl Fn(usize) -> f64) -> f64 {
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
                    id = if x(*feature) <= *threshold {
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
            self.best_split(lo, hi, depth)
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
    /// over `scratch.rows[lo..hi]`, the rows of a node at `depth`.
    ///
    /// `sorted` is re-sorted feature after feature, never reset, so the
    /// order of rows that tie on one feature is the order the previously
    /// visited feature left them in. That order fixes the order of the
    /// `left_sum` / `left_sq` additions and hence the low bits of every
    /// gain: it is part of the model and must not change. Both sorts
    /// ([`sort_by_code`]) and both scans ([`Best`]) keep it.
    fn best_split(&mut self, lo: usize, hi: usize, depth: usize) -> Option<(usize, f64, f64)> {
        let (cols, y) = (self.cols, self.y);
        let Scratch {
            rows,
            sorted,
            tmp,
            counts,
            features,
            dead,
        } = &mut *self.scratch;
        let rows = &rows[lo..hi];
        let n = rows.len() as f64;
        let total_sum: f64 = rows.iter().map(|&r| y[r]).sum();
        let total_sq: f64 = rows.iter().map(|&r| y[r] * y[r]).sum();
        let mut best = Best {
            y,
            f: 0,
            n,
            total_sum,
            total_sq,
            parent_sse: total_sq - total_sum * total_sum / n,
            gain: 1e-12,
            split: None,
        };

        let num_features = cols.num_features();
        features.clear();
        features.extend(0..num_features);
        if self.params.feature_sample > 0 && self.params.feature_sample < num_features {
            features.shuffle(self.rng);
            features.truncate(self.params.feature_sample);
        }
        // Marks made at this depth or below came from another branch.
        dead.resize(num_features, usize::MAX);
        dead.iter_mut()
            .filter(|d| **d >= depth)
            .for_each(|d| *d = usize::MAX);

        let len = rows.len();
        sorted[..len].copy_from_slice(rows);
        for &f in features.iter() {
            let codes = cols.codes(f);
            let values = cols.values(f);
            // A column with one distinct value cannot split any node. (NaN
            // is unequal to itself, so the scan below does "split" a NaN
            // column; it is left to do so.)
            if dead[f] < depth || (values.len() == 1 && !values[0].is_nan()) {
                continue;
            }
            // Lanes pay for their per-bucket work from two rows per bucket.
            let lanes = len >= 2 * values.len();
            let sort = if lanes {
                sort_by_code::<LANES>
            } else {
                sort_by_code::<1>
            };
            // SAFETY: every row of `sorted` passed `fit_columns`'s range
            // check against the row count, which is `codes.len()`, and a
            // code is a rank among `values` (`Columns::new` codes a column
            // so, and `Columns::push_row` keeps it so).
            if !unsafe { sort(codes, values, &sorted[..len], counts, tmp) } {
                // Constant inside this node: no boundary here or below.
                dead[f] = depth;
                continue;
            }
            std::mem::swap(sorted, tmp);
            best.f = f;
            if lanes {
                best.scan_buckets(values, counts, &sorted[..len]);
            } else {
                best.scan_rows(codes, values, &sorted[..len]);
            }
        }
        best.split.map(|(f, threshold)| (f, threshold, best.gain))
    }
}

/// Stable counting sort of `sorted` by code into `tmp` in `L` lanes: for
/// every `L`, the permutation a stable sort by `total_cmp` on the values
/// gives; then `counts[code * L + L - 1]` is where bucket `code` ends.
/// `false` (and `tmp` untouched) if all rows share one non-NaN bucket.
///
/// # Safety
/// Every row of `sorted` must index `codes`, and every code `values`.
unsafe fn sort_by_code<const L: usize>(
    codes: &[u32],
    values: &[f64],
    sorted: &[usize],
    counts: &mut [usize],
    tmp: &mut [usize],
) -> bool {
    let counts = &mut counts[..L * values.len()];
    counts.fill(0);
    // SAFETY: `r` indexes `codes`, and its code's `L` counters lie in
    // `counts`, by the function's contract.
    each_in_lanes::<L>(sorted, |r, lane| unsafe {
        *counts.get_unchecked_mut(*codes.get_unchecked(r) as usize * L + lane) += 1;
    });
    let first = codes[sorted[0]] as usize;
    let in_first: usize = counts[first * L..][..L].iter().sum();
    if in_first == sorted.len() && !values[first].is_nan() {
        return false;
    }
    let mut offset = 0;
    for c in counts.iter_mut() {
        offset += std::mem::replace(c, offset);
    }
    each_in_lanes::<L>(sorted, |r, lane| {
        // SAFETY: as for the count above.
        let slot = unsafe { counts.get_unchecked_mut(*codes.get_unchecked(r) as usize * L + lane) };
        // Read once, written back before the row is stored: a re-read
        // after that store would stall the next row on this counter.
        let at = *slot;
        *slot = at + 1;
        tmp[at] = r;
    });
    true
}

/// Visits every row of `sorted` with its lane, one row of each lane per
/// step. Lane `q` is the `q`-th of `L` equal contiguous parts (the last
/// also owns the `sorted.len() % L` rows after them) with counters of its
/// own; a bucket's lane-`q` rows go after those of lanes `< q` (the
/// one-lane order), and consecutive rows of a bucket no longer wait on one
/// counter. Kept out of line: inlined, the passes measured ≈10 % slower.
#[inline(never)]
fn each_in_lanes<const L: usize>(sorted: &[usize], mut visit: impl FnMut(usize, usize)) {
    let m = sorted.len() / L;
    let (body, tail) = sorted.split_at(m * L);
    let lanes: [&[usize]; L] = std::array::from_fn(|q| &body[q * m..][..m]);
    for i in 0..m {
        for (q, lane) in lanes.iter().enumerate() {
            visit(lane[i], q);
        }
    }
    for &r in tail {
        visit(r, L - 1);
    }
}

/// The best split of one node so far, and what a candidate's gain needs.
struct Best<'a> {
    y: &'a [f64],
    /// The feature being scanned.
    f: usize,
    n: f64,
    total_sum: f64,
    total_sq: f64,
    parent_sse: f64,
    /// The gain to beat: the best split's, or the floor before there is one.
    gain: f64,
    /// `(feature, threshold)` of the best split.
    split: Option<(usize, f64)>,
}

impl Best<'_> {
    /// Offers the boundary after the first `left` rows of the sorted order,
    /// between values `xv` and `xn`, with `left_sum` / `left_sq` summed
    /// over those rows.
    #[inline]
    fn offer(&mut self, left: usize, left_sum: f64, left_sq: f64, xv: f64, xn: f64) {
        let nl = left as f64;
        let nr = self.n - nl;
        let right_sum = self.total_sum - left_sum;
        let right_sq = self.total_sq - left_sq;
        let sse = (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
        let gain = self.parent_sse - sse;
        if gain > self.gain {
            self.gain = gain;
            self.split = Some((self.f, (xv + xn) / 2.0));
        }
    }

    /// Scans `sorted` row by row: after each row but the last, a boundary
    /// where its value and the next row's differ.
    fn scan_rows(&mut self, codes: &[u32], values: &[f64], sorted: &[usize]) {
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        let mut xv = values[codes[sorted[0]] as usize];
        for (i, &r) in sorted[..sorted.len() - 1].iter().enumerate() {
            let v = self.y[r];
            left_sum += v;
            left_sq += v * v;
            let xn = values[codes[sorted[i + 1]] as usize];
            // Compared as values, not codes: `-0.0 == 0.0` is no
            // boundary, `NaN != NaN` is one.
            if xv != xn {
                self.offer(i + 1, left_sum, left_sq, xv, xn);
            }
            xv = xn;
        }
    }

    /// [`Best::scan_rows`] over a [`LANES`]-lane sort, bucket by bucket:
    /// the same additions in the same order and the same boundaries, each
    /// tested once at a bucket's end (in a NaN bucket, at every row). The
    /// last bucket, unless NaN, ends no boundary: its rows are not added.
    fn scan_buckets(&mut self, values: &[f64], counts: &[usize], sorted: &[usize]) {
        let (mut left_sum, mut left_sq) = (0.0, 0.0);
        let (mut start, mut prev) = (0, None);
        for (&x, lanes) in values.iter().zip(counts.chunks_exact(LANES)) {
            let end = lanes[LANES - 1];
            if end == start {
                continue;
            }
            if let Some(xv) = prev.filter(|&xv: &f64| xv != x) {
                self.offer(start, left_sum, left_sq, xv, x);
            }
            if end == sorted.len() && !x.is_nan() {
                break;
            }
            for (i, &r) in (start + 1..).zip(&sorted[start..end]) {
                let v = self.y[r];
                left_sum += v;
                left_sq += v * v;
                // `NaN != NaN`: inside a NaN bucket every row ends one.
                if x.is_nan() && i < end {
                    self.offer(i, left_sum, left_sq, x, x);
                }
            }
            (start, prev) = (end, Some(x));
        }
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
    #[should_panic(expected = "target count differs from row count")]
    fn extra_targets_panic() {
        let x = vec![vec![1.0], vec![2.0]];
        let mut rng = HeronRng::from_seed(0);
        RegressionTree::fit(
            &x,
            &[1.0, 2.0, 3.0],
            &[0, 1],
            &TreeParams::default(),
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "row index out of range")]
    fn out_of_range_row_panics() {
        let x = vec![vec![1.0], vec![2.0]];
        let mut rng = HeronRng::from_seed(0);
        RegressionTree::fit(&x, &[1.0, 2.0], &[0, 2], &TreeParams::default(), &mut rng);
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
