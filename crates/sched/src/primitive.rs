//! The schedule primitives of the paper's Table 1 (plus the DLA-specific
//! `tensorize`, `bind`, and `storage_align`).
//!
//! A primitive records *names* of CSP variables (for split parts, unroll
//! lengths, compute locations, …) rather than concrete numbers: the
//! template stays symbolic and the CSP decides the values.

use std::fmt;

use crate::scope::{MemScope, ThreadAxis};

/// One schedule transformation applied to a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Primitive {
    /// Splits a loop into sub-loops (multi-way; Table 1 `split`).
    ///
    /// The extent of each part becomes the CSP variable of the same name,
    /// constrained by Rule-C1 so their product equals the original extent.
    Split {
        /// Stage being transformed.
        stage: String,
        /// Loop (extent-variable name) being split.
        loop_name: String,
        /// New sub-loop extent variables, outermost first.
        parts: Vec<String>,
    },
    /// Merges adjacent loops into one (Table 1 `fuse`).
    Fuse {
        /// Stage being transformed.
        stage: String,
        /// Loops being fused, outermost first.
        loops: Vec<String>,
        /// Extent variable of the fused loop (Rule-C2 posts the product).
        fused: String,
    },
    /// Reorders the loops of a stage to the given permutation.
    Reorder {
        /// Stage being transformed.
        stage: String,
        /// New loop order, outermost first.
        order: Vec<String>,
    },
    /// Binds a loop to a hardware thread axis.
    Bind {
        /// Stage being transformed.
        stage: String,
        /// Loop being bound.
        loop_name: String,
        /// Target axis.
        axis: ThreadAxis,
    },
    /// Creates a cached copy of a tensor in an on-chip scope (Table 1
    /// `cache`; Rules S2/S3 insert these).
    CacheRead {
        /// Tensor being cached.
        tensor: String,
        /// Destination scope.
        scope: MemScope,
        /// Name of the new load stage.
        new_stage: String,
    },
    /// Routes a stage's output through an on-chip scope before the final
    /// store (Rule-S3).
    CacheWrite {
        /// Tensor being staged.
        tensor: String,
        /// Intermediate scope.
        scope: MemScope,
        /// Name of the new store stage.
        new_stage: String,
    },
    /// Fuses `stage` into `parent` at a tunable loop position (Table 1
    /// `compute_at`; Rule-C4 posts the SELECT constraints).
    ComputeAt {
        /// Stage being anchored.
        stage: String,
        /// Consumer stage providing the loop nest.
        parent: String,
        /// CSP variable choosing among candidate positions.
        location_var: String,
        /// Loop names (in `parent`) of the candidate positions.
        candidates: Vec<String>,
    },
    /// Unrolls inner loops up to a tunable length (Table 1 `unroll`).
    Unroll {
        /// Stage being transformed.
        stage: String,
        /// CSP variable with the maximum unrolled extent.
        length_var: String,
    },
    /// Vectorises the innermost data-movement loop.
    Vectorize {
        /// Stage being transformed.
        stage: String,
        /// CSP variable with the vector width (elements).
        length_var: String,
    },
    /// Replaces the innermost loops with a hardware intrinsic (Table 1
    /// `tensorize`; Rule-S1).
    Tensorize {
        /// Stage being transformed.
        stage: String,
        /// CSP variables of the intrinsic shape `(m, n, k)`.
        m: String,
        /// Intrinsic `n` variable.
        n: String,
        /// Intrinsic `k` variable.
        k: String,
    },
    /// Pads rows of an on-chip buffer to avoid bank conflicts
    /// (`storage_align`).
    StorageAlign {
        /// Stage whose buffer is padded.
        stage: String,
        /// CSP variable with the padding (elements per row).
        pad_var: String,
    },
}

impl Primitive {
    /// Names of the tunable CSP variables this primitive introduces.
    pub fn tunable_vars(&self) -> Vec<&str> {
        match self {
            Primitive::Split { parts, .. } => parts.iter().map(String::as_str).collect(),
            Primitive::ComputeAt { location_var, .. } => vec![location_var],
            Primitive::Unroll { length_var, .. } | Primitive::Vectorize { length_var, .. } => {
                vec![length_var]
            }
            Primitive::StorageAlign { pad_var, .. } => vec![pad_var],
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Primitive::Split {
                stage,
                loop_name,
                parts,
            } => {
                write!(f, "{stage}.split({loop_name} -> {})", parts.join(", "))
            }
            Primitive::Fuse {
                stage,
                loops,
                fused,
            } => {
                write!(f, "{stage}.fuse({} -> {fused})", loops.join(", "))
            }
            Primitive::Reorder { stage, order } => {
                write!(f, "{stage}.reorder({})", order.join(", "))
            }
            Primitive::Bind {
                stage,
                loop_name,
                axis,
            } => {
                write!(f, "{stage}.bind({loop_name}, {axis})")
            }
            Primitive::CacheRead {
                tensor,
                scope,
                new_stage,
            } => {
                write!(f, "cache_read({tensor}, \"{scope}\") -> {new_stage}")
            }
            Primitive::CacheWrite {
                tensor,
                scope,
                new_stage,
            } => {
                write!(f, "cache_write({tensor}, \"{scope}\") -> {new_stage}")
            }
            Primitive::ComputeAt {
                stage,
                parent,
                location_var,
                ..
            } => {
                write!(f, "{stage}.compute_at({parent}, loc={location_var})")
            }
            Primitive::Unroll { stage, length_var } => {
                write!(f, "{stage}.unroll(max={length_var})")
            }
            Primitive::Vectorize { stage, length_var } => {
                write!(f, "{stage}.vectorize(len={length_var})")
            }
            Primitive::Tensorize { stage, m, n, k } => {
                write!(f, "{stage}.tensorize(intrin({m}, {n}, {k}))")
            }
            Primitive::StorageAlign { stage, pad_var } => {
                write!(f, "{stage}.storage_align(pad={pad_var})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_exposes_tunables() {
        let p = Primitive::Split {
            stage: "C".into(),
            loop_name: "C.i".into(),
            parts: vec!["C.i0".into(), "C.i1".into()],
        };
        assert_eq!(p.tunable_vars(), vec!["C.i0", "C.i1"]);
        assert_eq!(p.to_string(), "C.split(C.i -> C.i0, C.i1)");
    }

    #[test]
    fn cache_read_names_new_stage() {
        let p = Primitive::CacheRead {
            tensor: "A".into(),
            scope: MemScope::Shared,
            new_stage: "A.shared".into(),
        };
        assert!(p.tunable_vars().is_empty());
        assert!(p.to_string().contains("shared"));
    }

    #[test]
    fn tensorize_display() {
        let p = Primitive::Tensorize {
            stage: "C.wmma".into(),
            m: "m".into(),
            n: "n".into(),
            k: "k".into(),
        };
        assert_eq!(p.to_string(), "C.wmma.tensorize(intrin(m, n, k))");
    }
}
