//! Memory scopes, thread axes, and stage roles shared by the schedule state
//! and the lowered kernel.

use std::fmt;

/// A storage location in a DLA memory hierarchy.
///
/// Covers the scopes of all three evaluated DLAs: GPU TensorCore (shared
/// memory plus `wmma` fragments), DL Boost CPUs (cache levels standing in
/// for software-managed tiles), and VTA (explicit input/weight/accumulator
/// SRAMs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemScope {
    /// Off-chip DRAM / global memory.
    Global,
    /// GPU shared memory (one allocation per thread block).
    Shared,
    /// TensorCore `wmma.matrix_a` fragment registers (per warp).
    FragA,
    /// TensorCore `wmma.matrix_b` fragment registers (per warp).
    FragB,
    /// TensorCore accumulator fragment registers (per warp).
    FragAcc,
    /// Scalar registers.
    Register,
    /// CPU L1 data cache tile.
    L1,
    /// CPU L2 cache tile.
    L2,
    /// VTA input buffer SRAM.
    VtaInput,
    /// VTA weight buffer SRAM.
    VtaWeight,
    /// VTA accumulator buffer SRAM.
    VtaAcc,
}

impl MemScope {
    /// Whether this scope is on-chip, software-managed storage whose
    /// capacity the constraint generator must bound (Rule-C5).
    pub fn is_spm(self) -> bool {
        !matches!(self, MemScope::Global)
    }
}

impl fmt::Display for MemScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemScope::Global => "global",
            MemScope::Shared => "shared",
            MemScope::FragA => "wmma.matrix_a",
            MemScope::FragB => "wmma.matrix_b",
            MemScope::FragAcc => "wmma.accumulator",
            MemScope::Register => "local",
            MemScope::L1 => "l1",
            MemScope::L2 => "l2",
            MemScope::VtaInput => "vta.input",
            MemScope::VtaWeight => "vta.weight",
            MemScope::VtaAcc => "vta.acc",
        };
        f.write_str(s)
    }
}

/// Hardware thread axes a loop can be bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadAxis {
    /// CUDA `blockIdx.x` (or CPU core / VTA task index).
    BlockX,
    /// CUDA `blockIdx.y`.
    BlockY,
    /// CUDA `threadIdx.x` (lanes within a warp).
    ThreadX,
    /// CUDA `threadIdx.y` (warps within a block).
    ThreadY,
    /// TVM virtual thread (striding over banks/registers).
    Vthread,
}

impl fmt::Display for ThreadAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ThreadAxis::BlockX => "blockIdx.x",
            ThreadAxis::BlockY => "blockIdx.y",
            ThreadAxis::ThreadX => "threadIdx.x",
            ThreadAxis::ThreadY => "threadIdx.y",
            ThreadAxis::Vthread => "vthread",
        };
        f.write_str(s)
    }
}

/// What a scheduled stage does at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageRole {
    /// Moves data inward (e.g. global → shared, shared → fragment, DRAM →
    /// VTA SRAM).
    Load,
    /// Performs arithmetic (tensorized or scalar).
    Compute,
    /// Moves results outward.
    Store,
}

impl fmt::Display for StageRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StageRole::Load => "load",
            StageRole::Compute => "compute",
            StageRole::Store => "store",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spm_classification() {
        assert!(!MemScope::Global.is_spm());
        assert!(MemScope::Shared.is_spm());
        assert!(MemScope::VtaWeight.is_spm());
    }

    #[test]
    fn displays() {
        assert_eq!(MemScope::FragA.to_string(), "wmma.matrix_a");
        assert_eq!(ThreadAxis::Vthread.to_string(), "vthread");
        assert_eq!(StageRole::Compute.to_string(), "compute");
    }
}
