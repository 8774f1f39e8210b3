//! Static analysis of a compute DAG: tensorizability (Rule-S1's condition)
//! and the mapping of loop axes onto the matrix-multiply view `(M, N, K)`.
//!
//! Every tensorizable operator — GEMM, BMM, GEMV and all convolutions (via
//! the implicit im2col the paper describes) — reduces to a MAC over three
//! axis groups:
//!
//! * **M**: spatial axes absent from the second operand (`i`; `n, oh, ow`),
//! * **N**: spatial axes absent from the first operand (`j`; `co`),
//! * **K**: the reduction axes (`r`; `rc, rh, rw`).
//!
//! Axes read by both operands (the batch axis of BMM) become independent
//! grid dimensions.

use heron_tensor::{Dag, IterKind, ReduceKind, StageId};

/// The matrix-multiply view of a compute stage, naming the axes of the
/// DAG it was taken from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacView<'a> {
    /// Stage analysed (the DAG output).
    pub stage: StageId,
    /// Names of the M-group axes.
    pub m_axes: Vec<&'a str>,
    /// Names of the N-group axes.
    pub n_axes: Vec<&'a str>,
    /// Names of the K-group (reduction) axes.
    pub k_axes: Vec<&'a str>,
    /// Names of batch axes (read by both operands).
    pub batch_axes: Vec<&'a str>,
    /// Product of M-axis extents.
    pub m_extent: i64,
    /// Product of N-axis extents.
    pub n_extent: i64,
    /// Product of K-axis extents.
    pub k_extent: i64,
    /// Product of batch-axis extents (1 if none).
    pub batch_extent: i64,
    /// Extent of every original axis, in DAG order (for the per-axis
    /// loop-length variables of the census).
    pub axis_extents: Vec<(&'a str, i64)>,
}

/// Rounds `v` up to the next multiple of `base`.
pub fn round_up(v: i64, base: i64) -> i64 {
    assert!(base >= 1);
    v.div_euclid(base) * base + if v.rem_euclid(base) == 0 { 0 } else { base }
}

/// Analyses stage `out` of the DAG (its output, as Rule-S1 applies it) for
/// the MAC pattern (paper Rule-S1: `Tensorizable(S, i)`).
///
/// Returns `None` when the output is not a sum-reduction of a product of
/// two tensor loads — e.g. the SCAN operator, which then follows the
/// non-tensorized (CUDA-core / scalar) template instead.
pub fn mac_view(dag: &Dag, out: StageId) -> Option<MacView<'_>> {
    let op = dag.stage(out).compute()?;
    if op.reduce != ReduceKind::Sum || op.reduce_axes.is_empty() {
        return None;
    }
    let (lhs, rhs) = op.body.as_mac_pattern()?;

    let mut view = MacView {
        stage: out,
        m_axes: Vec::new(),
        n_axes: Vec::new(),
        k_axes: Vec::new(),
        batch_axes: Vec::new(),
        m_extent: 1,
        n_extent: 1,
        k_extent: 1,
        batch_extent: 1,
        axis_extents: op.all_axes().map(|a| (a.name.as_str(), a.extent)).collect(),
    };
    for axis in &op.axes {
        debug_assert_eq!(axis.kind, IterKind::Spatial);
        match (lhs.mentions(axis.id), rhs.mentions(axis.id)) {
            (true, true) => {
                view.batch_axes.push(&axis.name);
                view.batch_extent *= axis.extent;
            }
            (true, false) | (false, false) => {
                // Axes read by neither operand still index the output and
                // behave like M rows.
                view.m_axes.push(&axis.name);
                view.m_extent *= axis.extent;
            }
            (false, true) => {
                view.n_axes.push(&axis.name);
                view.n_extent *= axis.extent;
            }
        }
    }
    for axis in &op.reduce_axes {
        view.k_axes.push(&axis.name);
        view.k_extent *= axis.extent;
    }
    if view.m_axes.is_empty() || view.n_axes.is_empty() {
        return None;
    }
    Some(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_tensor::ops;

    #[test]
    fn gemm_maps_directly() {
        let dag = ops::gemm(128, 256, 64);
        let v = mac_view(&dag, dag.output()).expect("gemm is tensorizable");
        assert_eq!(v.m_axes, vec!["i"]);
        assert_eq!(v.n_axes, vec!["j"]);
        assert_eq!(v.k_axes, vec!["r"]);
        assert_eq!((v.m_extent, v.n_extent, v.k_extent), (128, 256, 64));
        assert_eq!(v.batch_extent, 1);
    }

    #[test]
    fn bmm_batch_axis_detected() {
        let dag = ops::bmm(16, 64, 64, 32);
        let v = mac_view(&dag, dag.output()).expect("bmm is tensorizable");
        assert_eq!(v.batch_axes, vec!["b"]);
        assert_eq!(v.batch_extent, 16);
        assert_eq!((v.m_extent, v.n_extent, v.k_extent), (64, 64, 32));
    }

    #[test]
    fn conv2d_im2col_grouping() {
        let dag = ops::conv2d(ops::Conv2dConfig::new(8, 28, 28, 512, 128, 1, 1, 1, 1));
        let v = mac_view(&dag, dag.output()).expect("conv2d is tensorizable");
        // M = n * oh * ow, N = co, K = rc * rh * rw.
        assert_eq!(v.m_axes, vec!["n", "oh", "ow"]);
        assert_eq!(v.n_axes, vec!["co"]);
        assert_eq!(v.m_extent, 8 * 30 * 30);
        assert_eq!(v.n_extent, 128);
        assert_eq!(v.k_extent, 512);
    }

    #[test]
    fn conv3d_has_four_k_axes() {
        let dag = ops::conv3d(1, 8, 8, 8, 16, 32, 3, 1, 1);
        let v = mac_view(&dag, dag.output()).expect("conv3d is tensorizable");
        assert_eq!(v.k_axes.len(), 4);
        assert_eq!(v.k_extent, 16 * 27);
    }

    #[test]
    fn scan_is_not_tensorizable() {
        let dag = ops::scan(16, 128);
        assert!(
            mac_view(&dag, dag.output()).is_none(),
            "guarded body is not a MAC"
        );
    }

    #[test]
    fn rounding_helper() {
        assert_eq!(round_up(49, 8), 56);
        assert_eq!(round_up(56, 8), 56);
        assert_eq!(round_up(1, 16), 16);
    }
}
