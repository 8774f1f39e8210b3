//! Compute stages: the nodes of a tensor-computation DAG.

use std::fmt;

use crate::expr::{IterKind, IterVar, ScalarExpr, VarId};
use crate::tensor::Tensor;

/// How a compute stage combines values along its reduction axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceKind {
    /// No reduction: the stage is purely element-wise / data-movement.
    None,
    /// Sum-accumulation (`C[...] += body`), the MAC pattern DLAs accelerate.
    Sum,
    /// Max-accumulation (pooling-style stages).
    Max,
}

/// A single compute operation producing one output tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeOp {
    /// Output tensor written by this stage.
    pub output: Tensor,
    /// Spatial axes, one per output dimension, in output order.
    pub axes: Vec<IterVar>,
    /// Reduction axes (possibly empty).
    pub reduce_axes: Vec<IterVar>,
    /// Scalar body evaluated at each (spatial × reduce) point.
    pub body: ScalarExpr,
    /// Reduction combinator.
    pub reduce: ReduceKind,
}

impl ComputeOp {
    /// Creates a compute op, validating that spatial axes match the output
    /// shape and that axis kinds are consistent.
    ///
    /// # Panics
    /// Panics on rank mismatch, extent mismatch, or mis-kinded axes.
    pub fn new(
        output: Tensor,
        axes: Vec<IterVar>,
        reduce_axes: Vec<IterVar>,
        body: ScalarExpr,
        reduce: ReduceKind,
    ) -> Self {
        assert_eq!(
            axes.len(),
            output.rank(),
            "stage `{}`: {} spatial axes for rank-{} output",
            output.name,
            axes.len(),
            output.rank()
        );
        for (axis, &dim) in axes.iter().zip(&output.shape) {
            assert_eq!(
                axis.extent, dim,
                "stage `{}`: axis `{}` extent {} != output dim {}",
                output.name, axis.name, axis.extent, dim
            );
            assert_eq!(axis.kind, IterKind::Spatial, "spatial axis expected");
        }
        for axis in &reduce_axes {
            assert_eq!(axis.kind, IterKind::Reduce, "reduce axis expected");
        }
        if reduce == ReduceKind::None {
            assert!(reduce_axes.is_empty(), "reduce axes without a reduction");
        }
        ComputeOp {
            output,
            axes,
            reduce_axes,
            body,
            reduce,
        }
    }

    /// All axes, spatial first then reduce — the naive loop order.
    pub fn all_axes(&self) -> impl Iterator<Item = &IterVar> {
        self.axes.iter().chain(self.reduce_axes.iter())
    }

    /// Looks up an axis by id.
    pub fn axis(&self, id: VarId) -> Option<&IterVar> {
        self.all_axes().find(|a| a.id == id)
    }

    /// Whether this stage reads the tensor named `name`.
    pub(crate) fn reads(&self, name: &str) -> bool {
        let mut reads = false;
        self.body
            .for_each_access(&mut |a| reads |= a.tensor.name == name);
        reads
    }

    /// Total iteration-space volume (product of all axis extents).
    pub fn iteration_volume(&self) -> i64 {
        self.all_axes().map(|a| a.extent).product()
    }

    /// Arithmetic operations performed by a full evaluation of the stage.
    ///
    /// A sum/max reduction contributes one combine op per reduction point in
    /// addition to the ops inside the body.
    pub fn flops(&self) -> u64 {
        let per_point = self.body.op_count()
            + match self.reduce {
                ReduceKind::None => 0,
                ReduceKind::Sum | ReduceKind::Max => 1,
            };
        per_point * self.iteration_volume() as u64
    }

    /// Whether any input tensor element is read by more than one iteration
    /// point — the `HasDataReuse` condition of the Ansor-style rules.
    ///
    /// Detected statically: an access reuses data iff some stage axis does
    /// not appear in its index expressions (that axis re-reads the same
    /// element), which is exactly the case for GEMM (`A[i,r]` lacks `j`) and
    /// all convolutions.
    pub fn has_data_reuse(&self) -> bool {
        let mut reuse = false;
        self.body.for_each_access(&mut |acc| {
            reuse |= self.all_axes().any(|axis| !acc.mentions(axis.id));
        });
        reuse
    }

    /// Whether the stage is a pure element-wise transform of a single input
    /// (no reduction, every axis used directly) — the `IsStrictInlinable`
    /// condition of the Always-Inline rule.
    pub fn is_strict_inlinable(&self) -> bool {
        if self.reduce != ReduceKind::None {
            return false;
        }
        // Element-wise chains over one or two inputs inline cleanly: every
        // index reads at most one variable.
        let (mut reads, mut elementwise) = (false, true);
        self.body.for_each_access(&mut |acc| {
            reads = true;
            for ix in &acc.indices {
                let mut first = None;
                ix.for_each_var(&mut |v| elementwise &= *first.get_or_insert(v) == v);
            }
        });
        reads && elementwise
    }
}

impl fmt::Display for ComputeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[", self.output.name)?;
        for (i, a) in self.axes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.name)?;
        }
        write!(f, "]")?;
        match self.reduce {
            ReduceKind::None => write!(f, " = ..."),
            ReduceKind::Sum => write!(f, " += ..."),
            ReduceKind::Max => write!(f, " max= ..."),
        }
    }
}

/// What a DAG stage is.
#[derive(Debug, Clone, PartialEq)]
pub enum StageKind {
    /// An input placeholder: data that exists before the kernel runs.
    Placeholder(Tensor),
    /// A compute operation.
    Compute(ComputeOp),
}

/// A node in the computation DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Stage name — equal to the name of the tensor it defines.
    pub name: String,
    /// Placeholder or compute.
    pub kind: StageKind,
}

impl Stage {
    /// The tensor this stage defines.
    pub fn tensor(&self) -> &Tensor {
        match &self.kind {
            StageKind::Placeholder(t) => t,
            StageKind::Compute(op) => &op.output,
        }
    }

    /// The compute op, if this is a compute stage.
    pub fn compute(&self) -> Option<&ComputeOp> {
        match &self.kind {
            StageKind::Compute(op) => Some(op),
            StageKind::Placeholder(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::expr::IndexExpr;

    fn gemm_op(m: i64, n: i64, k: i64) -> ComputeOp {
        let a = Tensor::new("A", vec![m, k], DType::F16);
        let b = Tensor::new("B", vec![k, n], DType::F16);
        let c = Tensor::new("C", vec![m, n], DType::F32);
        let i = IterVar::spatial(0, "i", m);
        let j = IterVar::spatial(1, "j", n);
        let r = IterVar::reduce(2, "r", k);
        let body = ScalarExpr::Mul(
            Box::new(ScalarExpr::load(
                a,
                vec![IndexExpr::var(&i), IndexExpr::var(&r)],
            )),
            Box::new(ScalarExpr::load(
                b,
                vec![IndexExpr::var(&r), IndexExpr::var(&j)],
            )),
        );
        ComputeOp::new(c, vec![i, j], vec![r], body, ReduceKind::Sum)
    }

    #[test]
    fn gemm_flops() {
        let op = gemm_op(8, 8, 8);
        // one mul + one add per point
        assert_eq!(op.flops(), 2 * 8 * 8 * 8);
        assert_eq!(op.iteration_volume(), 512);
    }

    #[test]
    fn gemm_has_data_reuse() {
        assert!(gemm_op(8, 8, 8).has_data_reuse());
    }

    #[test]
    fn gemm_inputs() {
        let op = gemm_op(4, 4, 4);
        assert!(op.reads("A") && op.reads("B") && !op.reads("C"));
    }

    #[test]
    fn gemm_not_inlinable() {
        assert!(!gemm_op(4, 4, 4).is_strict_inlinable());
    }

    #[test]
    #[should_panic(expected = "spatial axes")]
    fn rank_mismatch_panics() {
        let c = Tensor::new("C", vec![4, 4], DType::F32);
        let i = IterVar::spatial(0, "i", 4);
        ComputeOp::new(c, vec![i], vec![], ScalarExpr::Imm(0.0), ReduceKind::None);
    }

    #[test]
    fn display_shows_accumulate() {
        assert!(gemm_op(4, 4, 4).to_string().contains("+="));
    }
}
