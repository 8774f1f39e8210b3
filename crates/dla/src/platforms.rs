//! Concrete platform specifications for the DLAs of the paper's Table 3.
//!
//! Microarchitectural numbers are drawn from public datasheets; absolute
//! precision is unnecessary — the reproduction compares performance *shapes*
//! across tuners on the same simulated device.

use heron_sched::MemScope;
use heron_tensor::DType;

use crate::spec::{CpuParams, DlaFamily, DlaSpec, GpuParams, VtaParams};

/// Legal TensorCore `wmma` shapes: `m*n*k == 4096`, `m,n,k ∈ {8,16,32}`.
fn wmma_shapes() -> Vec<(i64, i64, i64)> {
    let cands = [8_i64, 16, 32];
    let mut shapes = Vec::new();
    for &m in &cands {
        for &n in &cands {
            for &k in &cands {
                if m * n * k == 4096 {
                    shapes.push((m, n, k));
                }
            }
        }
    }
    shapes
}

fn gpu_capacities(smem_per_block: u64) -> Vec<(MemScope, u64)> {
    vec![
        (MemScope::Shared, smem_per_block),
        // Fragment registers: budget for a 64x64 f32 accumulator warp tile
        // (16 fragments of 16x16, i.e. 128 registers per thread) plus the
        // matching operand fragments.
        (MemScope::FragA, 16 * 16 * 16 * 2),
        (MemScope::FragB, 16 * 16 * 16 * 2),
        (MemScope::FragAcc, 16 * 16 * 16 * 4),
    ]
}

/// NVIDIA V100 (Volta): 80 SMs, 640 TensorCores, ~112 Tflops f16.
pub fn v100() -> DlaSpec {
    DlaSpec {
        name: "v100".into(),
        family: DlaFamily::Gpu(GpuParams {
            sms: 80,
            clock_ghz: 1.38,
            tensor_flops_per_cycle_sm: 1024.0,
            cuda_flops_per_cycle_sm: 128.0,
            global_bw_bytes_per_cycle: 650.0, // ~900 GB/s
            shared_bw_bytes_per_cycle_sm: 128.0,
            max_warps_per_block: 32,
            max_warps_per_sm: 64,
            smem_per_sm: 96 * 1024,
            smem_per_block: 48 * 1024,
            max_acc_frags_per_warp: 16,
            launch_overhead_cycles: 4000.0,
        }),
        intrinsic_shapes: wmma_shapes(),
        vector_lengths: vec![1, 2, 4, 8],
        capacities: gpu_capacities(48 * 1024),
        in_dtype: DType::F16,
    }
}

/// NVIDIA T4 (Turing): 40 SMs, ~65 Tflops f16.
pub fn t4() -> DlaSpec {
    DlaSpec {
        name: "t4".into(),
        family: DlaFamily::Gpu(GpuParams {
            sms: 40,
            clock_ghz: 1.59,
            tensor_flops_per_cycle_sm: 1024.0,
            cuda_flops_per_cycle_sm: 64.0,
            global_bw_bytes_per_cycle: 200.0, // ~320 GB/s
            shared_bw_bytes_per_cycle_sm: 128.0,
            max_warps_per_block: 32,
            max_warps_per_sm: 32,
            smem_per_sm: 64 * 1024,
            smem_per_block: 48 * 1024,
            max_acc_frags_per_warp: 16,
            launch_overhead_cycles: 4000.0,
        }),
        intrinsic_shapes: wmma_shapes(),
        vector_lengths: vec![1, 2, 4, 8],
        capacities: gpu_capacities(48 * 1024),
        in_dtype: DType::F16,
    }
}

/// NVIDIA A100 (Ampere): 108 SMs, ~312 Tflops f16.
pub fn a100() -> DlaSpec {
    DlaSpec {
        name: "a100".into(),
        family: DlaFamily::Gpu(GpuParams {
            sms: 108,
            clock_ghz: 1.41,
            tensor_flops_per_cycle_sm: 2048.0,
            cuda_flops_per_cycle_sm: 128.0,
            global_bw_bytes_per_cycle: 1100.0, // ~1555 GB/s
            shared_bw_bytes_per_cycle_sm: 256.0,
            max_warps_per_block: 32,
            max_warps_per_sm: 64,
            smem_per_sm: 164 * 1024,
            smem_per_block: 96 * 1024,
            max_acc_frags_per_warp: 16,
            launch_overhead_cycles: 4000.0,
        }),
        intrinsic_shapes: wmma_shapes(),
        vector_lengths: vec![1, 2, 4, 8],
        capacities: gpu_capacities(96 * 1024),
        in_dtype: DType::F16,
    }
}

/// Intel Xeon Gold 6240 with DL Boost (VNNI): 18 cores, ~23 Tops i8.
pub fn dlboost() -> DlaSpec {
    DlaSpec {
        name: "dlboost".into(),
        family: DlaFamily::Cpu(CpuParams {
            cores: 18,
            clock_ghz: 2.6,
            vnni_ops_per_cycle_core: 512.0, // two 512-bit VNNI FMA ports
            // Non-VNNI fallback: fp32 AVX compute plus per-element
            // de/requantisation of the int8 operands — the reason the
            // paper measures Ansor 12x behind on this platform.
            scalar_ops_per_cycle_core: 16.0,
            l1_bytes: 32 * 1024,
            l2_bytes: 1024 * 1024,
            dram_bw_bytes_per_cycle: 50.0, // ~130 GB/s socket
            l2_bw_bytes_per_cycle_core: 64.0,
            spawn_overhead_cycles: 2000.0,
        }),
        // VNNI consumes fixed (1, 16, 4) i8 tiles (paper Table 3).
        intrinsic_shapes: vec![(1, 16, 4)],
        vector_lengths: vec![1, 2, 4, 8, 16, 32, 64],
        capacities: vec![(MemScope::L1, 32 * 1024), (MemScope::L2, 1024 * 1024)],
        in_dtype: DType::I8,
    }
}

/// TVM VTA on Xilinx PYNQ-Z2: 256 PEs, fixed (1, 16, 16) i8 GEMM unit.
pub fn vta() -> DlaSpec {
    DlaSpec {
        name: "vta".into(),
        family: DlaFamily::Vta(VtaParams {
            clock_ghz: 0.1,
            macs_per_cycle: 256.0,
            dma_bytes_per_cycle: 8.0,
            input_buf_bytes: 32 * 1024,
            weight_buf_bytes: 256 * 1024,
            acc_buf_bytes: 128 * 1024,
            min_access_cycle: 2,
            issue_overhead_cycles: 16.0,
        }),
        intrinsic_shapes: vec![(1, 16, 16)],
        vector_lengths: vec![1, 2, 4, 8, 16],
        capacities: vec![
            (MemScope::VtaInput, 32 * 1024),
            (MemScope::VtaWeight, 256 * 1024),
            (MemScope::VtaAcc, 128 * 1024),
        ],
        in_dtype: DType::I8,
    }
}

/// Google TPU-style spec (Table 3 reference row; not a measured platform in
/// the paper's evaluation, included for the constraint census).
pub fn tpu() -> DlaSpec {
    DlaSpec {
        name: "tpu".into(),
        family: DlaFamily::Vta(VtaParams {
            clock_ghz: 0.7,
            macs_per_cycle: 65536.0,
            dma_bytes_per_cycle: 256.0,
            input_buf_bytes: 4 * 1024 * 1024,
            weight_buf_bytes: 16 * 1024 * 1024,
            acc_buf_bytes: 4 * 1024 * 1024,
            min_access_cycle: 1,
            issue_overhead_cycles: 64.0,
        }),
        intrinsic_shapes: vec![(1, 256, 256)],
        vector_lengths: vec![1, 2, 4, 8, 16, 32],
        capacities: vec![
            (MemScope::VtaInput, 4 * 1024 * 1024),
            (MemScope::VtaWeight, 16 * 1024 * 1024),
            (MemScope::VtaAcc, 4 * 1024 * 1024),
        ],
        in_dtype: DType::I8,
    }
}

/// Cambricon-style spec (Table 3 reference row).
pub fn cambricon() -> DlaSpec {
    DlaSpec {
        name: "cambricon".into(),
        family: DlaFamily::Vta(VtaParams {
            clock_ghz: 1.0,
            macs_per_cycle: 4096.0,
            dma_bytes_per_cycle: 128.0,
            input_buf_bytes: 768 * 1024,
            weight_buf_bytes: 768 * 1024,
            acc_buf_bytes: 64 * 1024,
            min_access_cycle: 1,
            issue_overhead_cycles: 32.0,
        }),
        // Flexible functional units: many legal shapes.
        intrinsic_shapes: vec![
            (1, 32, 32),
            (1, 32, 64),
            (1, 64, 32),
            (1, 64, 64),
            (2, 32, 32),
            (4, 32, 32),
        ],
        vector_lengths: vec![1, 2, 4, 8, 16, 32, 64],
        capacities: vec![
            (MemScope::VtaInput, 768 * 1024),
            (MemScope::VtaWeight, 768 * 1024),
            (MemScope::VtaAcc, 64 * 1024),
        ],
        in_dtype: DType::I8,
    }
}

/// All platform constructors with their names, for the census binaries.
pub fn all() -> Vec<DlaSpec> {
    vec![v100(), t4(), a100(), dlboost(), vta(), tpu(), cambricon()]
}

/// The platform named `name`, building only that one.
pub fn by_name(name: &str) -> Option<DlaSpec> {
    let make = match name {
        "v100" => v100,
        "t4" => t4,
        "a100" => a100,
        "dlboost" => dlboost,
        "vta" => vta,
        "tpu" => tpu,
        "cambricon" => cambricon,
        _ => return None,
    };
    Some(make())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_platform_is_found_by_its_name() {
        for spec in all() {
            assert_eq!(by_name(&spec.name), Some(spec));
        }
        assert_eq!(by_name("h100"), None);
    }

    #[test]
    fn wmma_shape_count() {
        // Exactly (8,16,32) permutations plus (16,16,16): 3! + 1 = 7.
        assert_eq!(wmma_shapes().len(), 7);
    }

    #[test]
    fn all_platforms_have_distinct_names() {
        let specs = all();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn vta_buffers_match_paper() {
        let s = vta();
        assert_eq!(s.capacity(MemScope::VtaInput), Some(32 * 1024));
        assert_eq!(s.capacity(MemScope::VtaWeight), Some(256 * 1024));
        assert_eq!(s.capacity(MemScope::VtaAcc), Some(128 * 1024));
    }

    #[test]
    fn dlboost_intrinsic_is_1_16_4() {
        assert_eq!(dlboost().intrinsic_shapes, vec![(1, 16, 4)]);
    }

    #[test]
    fn a100_is_faster_than_t4() {
        assert!(a100().peak_ops_per_sec() > 3.0 * t4().peak_ops_per_sec());
    }
}
