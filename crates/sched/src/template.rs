//! Kernel templates: the symbolic contract between the space generator and
//! the lowering pass.
//!
//! A [`KernelTemplate`] names, for every stage, the CSP variables that carry
//! the quantities the DLA measurer needs (bytes moved, executions per block,
//! intrinsic invocation counts, vector widths, …). The space generator
//! declares these variables and posts the constraints tying them to the
//! tunable tile factors (Rules C1–C6); lowering is then a pure evaluation.

use heron_tensor::DType;

use crate::primitive::Primitive;
use crate::scope::{MemScope, StageRole};

/// Intrinsic shape variables of a tensorized stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntrinsicRef {
    /// CSP variable of the intrinsic `m` dimension.
    pub m: String,
    /// CSP variable of the intrinsic `n` dimension.
    pub n: String,
    /// CSP variable of the intrinsic `k` dimension.
    pub k: String,
}

/// Symbolic description of one lowered stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpec {
    /// Stage name.
    pub name: String,
    /// Load / compute / store.
    pub role: StageRole,
    /// Scope read from.
    pub src_scope: MemScope,
    /// Scope written to.
    pub dst_scope: MemScope,
    /// Element type moved or produced.
    pub dtype: DType,
    /// Variable: elements transferred per execution (load/store stages).
    pub var_elems: Option<String>,
    /// Variable: executions of this stage per block (or per core).
    pub var_execs: Option<String>,
    /// Variable: vector width in elements.
    pub var_vector: Option<String>,
    /// Variable: storage-align row padding in elements.
    pub var_align_pad: Option<String>,
    /// Variable: contiguous row length in elements (bank-conflict model).
    pub var_row_elems: Option<String>,
    /// Intrinsic shape, if tensorized.
    pub intrinsic: Option<IntrinsicRef>,
    /// Variable: intrinsic invocations per block (tensorized compute).
    pub var_intrinsic_execs: Option<String>,
    /// Variable: scalar arithmetic operations per block (scalar compute).
    pub var_scalar_ops: Option<String>,
    /// Variable: maximum unroll length applied to the stage body.
    pub var_unroll: Option<String>,
}

impl StageSpec {
    /// A minimal spec with the identity fields; variable slots start empty.
    pub fn new(
        name: impl Into<String>,
        role: StageRole,
        src_scope: MemScope,
        dst_scope: MemScope,
        dtype: DType,
    ) -> Self {
        StageSpec {
            name: name.into(),
            role,
            src_scope,
            dst_scope,
            dtype,
            var_elems: None,
            var_execs: None,
            var_vector: None,
            var_align_pad: None,
            var_row_elems: None,
            intrinsic: None,
            var_intrinsic_execs: None,
            var_scalar_ops: None,
            var_unroll: None,
        }
    }
}

/// An on-chip buffer whose size is carried by a CSP variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferSpec {
    /// Buffer name (usually the producing stage).
    pub name: String,
    /// Scope the buffer lives in.
    pub scope: MemScope,
    /// Variable: buffer size in **bytes**.
    pub var_bytes: String,
}

/// The symbolic kernel: everything lowering needs, keyed by variable names.
#[derive(Debug, Clone, Default)]
pub struct KernelTemplate {
    /// Name of the target DLA (matches a `heron-dla` spec name).
    pub dla: String,
    /// Workload label (operator + shape) for reporting.
    pub workload: String,
    /// Total useful arithmetic operations of the workload (for GFLOPS).
    pub total_flops: u64,
    /// Stage specs in execution order.
    pub stages: Vec<StageSpec>,
    /// Variable: number of blocks (grid size / parallel tasks).
    pub var_grid: String,
    /// Variable: warps (GPU) or threads (CPU) per block.
    pub var_threads: String,
    /// On-chip buffers with capacity-constrained sizes.
    pub buffers: Vec<BufferSpec>,
    /// The paper-style schedule template (for printing and census).
    pub primitives: Vec<Primitive>,
    /// Names of all tunable variables, in declaration order.
    pub tunables: Vec<String>,
}

impl KernelTemplate {
    /// Creates an empty template shell for `dla` and `workload`; the
    /// generator fills in its stages, buffers, primitives and tunables.
    pub fn new(dla: impl Into<String>, workload: impl Into<String>, total_flops: u64) -> Self {
        KernelTemplate {
            dla: dla.into(),
            workload: workload.into(),
            total_flops,
            // Room for a full pipeline (Equation 1 has seven stages).
            stages: Vec::with_capacity(8),
            var_grid: String::new(),
            var_threads: String::new(),
            buffers: Vec::new(),
            primitives: Vec::new(),
            tunables: Vec::new(),
        }
    }

    /// All variable names referenced anywhere in the template.
    pub fn referenced_vars(&self) -> Vec<&str> {
        let mut vars: Vec<&str> = Vec::new();
        for s in &self.stages {
            let slots = [
                &s.var_elems,
                &s.var_execs,
                &s.var_vector,
                &s.var_align_pad,
                &s.var_row_elems,
                &s.var_intrinsic_execs,
                &s.var_scalar_ops,
                &s.var_unroll,
            ];
            vars.extend(slots.into_iter().flatten().map(String::as_str));
            if let Some(i) = &s.intrinsic {
                vars.push(&i.m);
                vars.push(&i.n);
                vars.push(&i.k);
            }
        }
        if !self.var_grid.is_empty() {
            vars.push(&self.var_grid);
        }
        if !self.var_threads.is_empty() {
            vars.push(&self.var_threads);
        }
        for b in &self.buffers {
            vars.push(&b.var_bytes);
        }
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_vars_dedup() {
        let mut t = KernelTemplate {
            dla: "tensorcore".into(),
            workload: "gemm".into(),
            total_flops: 100,
            var_grid: "grid".into(),
            var_threads: "warps".into(),
            ..KernelTemplate::default()
        };
        let mut s = StageSpec::new(
            "A.shared",
            StageRole::Load,
            MemScope::Global,
            MemScope::Shared,
            DType::F16,
        );
        s.var_elems = Some("mem.A".into());
        s.var_execs = Some("execs.A".into());
        s.var_vector = Some("vec".into());
        t.stages.push(s);
        t.buffers.push(BufferSpec {
            name: "A.shared".into(),
            scope: MemScope::Shared,
            var_bytes: "mem.A".into(),
        });
        let vars = t.referenced_vars();
        assert_eq!(vars, vec!["execs.A", "grid", "mem.A", "vec", "warps"]);
    }
}
