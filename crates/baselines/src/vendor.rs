//! Vendor hand-tuned library models (cuDNN/cuBLAS/PyTorch, oneDNN).
//!
//! A vendor library ships a menu of expert-written kernels selected by a
//! shape heuristic, not tuned per shape. We model that faithfully: a small
//! menu of expert configurations (pinned tunable assignments reflecting
//! published kernel designs) is evaluated on the same simulator, the best
//! fitting entry wins, and a modest hand-optimisation bonus accounts for
//! tricks outside the schedule space (async copies, software pipelining).
//! On common square shapes the menu is near-optimal; on the skewed shapes
//! of real networks no menu entry fits well — reproducing the paper's
//! observation that Heron beats vendor libraries by 2.69× on average while
//! only modestly winning on their home-turf shapes.

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_csp::{Solution, SolvePolicy, SolveSession};
use heron_dla::{DlaFamily, DlaSpec, Measurer};
use heron_rng::HeronRng;
use heron_tensor::Dag;
use heron_trace::Tracer;

/// Hand-optimisation bonus: vendor kernels use mechanisms outside the
/// schedule space (cp.async, swizzled layouts), worth ~10% when a menu
/// entry fits the shape.
const VENDOR_BONUS: f64 = 1.10;

/// Framework dispatch overhead per operator call: the paper compares
/// against *PyTorch* kernels, whose dispatcher + cuDNN heuristics add a
/// fixed per-call cost that dominates small operators (the source of the
/// paper's largest vendor gaps).
const DISPATCH_OVERHEAD_S: f64 = 10e-6;

/// The budget of every vendor solve.
const SAMPLE: SolvePolicy = SolvePolicy::fixed(400);

/// One expert menu entry: tunable-variable pins.
type MenuEntry = Vec<(&'static str, i64)>;

/// Expert kernel menu for TensorCore GPUs (block tiles from large to
/// small, standard warp layout, full vectorisation, conflict-free padding).
fn gpu_menu() -> Vec<MenuEntry> {
    // Structural tile choices only: the micro knobs (vector widths, pads,
    // unroll, reduction chunking) are sampled and the best completion wins,
    // modelling the hand-tuning vendor engineers do per kernel.
    let tile = |i1: i64, i2: i64, j1: i64, j2: i64| -> MenuEntry {
        vec![
            ("m", 16),
            ("n", 16),
            ("k", 16),
            ("tile.C.i1", i1),
            ("tile.C.i2", i2),
            ("tile.C.j1", j1),
            ("tile.C.j2", j2),
            ("unroll", 512),
            ("vec.A.shared", 8),
            ("vec.B.shared", 8),
            // Pad of 2 halves makes the shared-row word stride odd, which
            // is conflict-free for every row length (f32 staging rows pad
            // by 1 word for the same effect).
            ("pad.A.shared", 2),
            ("pad.B.shared", 2),
            ("pad.C.shared", 1),
            ("vec.C", 4),
        ]
    };
    vec![
        // 256x256 block (large-K throughput kernel).
        tile(4, 4, 4, 4),
        // 256x128 block, 64x64 warp tiles.
        tile(4, 4, 2, 4),
        // 128x128 block.
        tile(2, 4, 2, 4),
        // 128x64 block.
        tile(2, 4, 2, 2),
        // 64x64 block (small-shape kernel).
        tile(2, 2, 2, 2),
    ]
}

/// Expert menu for DL Boost CPUs (oneDNN-style packed layouts, wide
/// register blocking).
fn cpu_menu() -> Vec<MenuEntry> {
    vec![
        vec![
            ("tile.C.i2", 14),
            ("layout.B", 1),
            ("unroll", 64),
            ("vec.C", 16),
        ],
        vec![
            ("tile.C.i2", 8),
            ("layout.B", 1),
            ("unroll", 64),
            ("vec.C", 16),
        ],
        vec![
            ("tile.C.i2", 4),
            ("layout.B", 1),
            ("unroll", 16),
            ("vec.C", 16),
        ],
    ]
}

/// Result of the vendor-library model.
#[derive(Debug, Clone, Copy)]
pub struct VendorOutcome {
    /// Achieved throughput, Gops.
    pub gflops: f64,
    /// Kernel latency, seconds.
    pub latency_s: f64,
}

/// Solves the session's space with the menu entry pinned; no solution
/// when the entry does not fit this shape.
fn realize_entry(
    session: &mut SolveSession,
    entry: &MenuEntry,
    rng: &mut HeronRng,
) -> Vec<Solution> {
    let csp = session.csp();
    let Some(pins) = entry
        .iter()
        .map(|&(name, value)| Some((csp.var_by_name(name)?, vec![value])))
        .collect::<Option<Vec<_>>>()
    else {
        return Vec::new();
    };
    // Several completions of the micro knobs; the vendor picks the best.
    session
        .solve_pinned(&pins, rng, 12, &SAMPLE, &Tracer::disabled())
        .solutions
}

/// Evaluates the vendor library on a workload; `None` when the platform
/// has no vendor model (VTA) or no menu entry fits at all.
pub fn vendor_outcome(
    spec: &DlaSpec,
    dag: &Dag,
    workload: &str,
    seed: u64,
) -> Option<VendorOutcome> {
    let menu = match spec.family {
        DlaFamily::Gpu(_) => gpu_menu(),
        DlaFamily::Cpu(_) => cpu_menu(),
        DlaFamily::Vta(_) => return None,
    };
    let generator = SpaceGenerator::new(spec.clone());
    let space = generator
        .generate_named(dag, &SpaceOptions::heron(), workload)
        .ok()?;
    let measurer = Measurer::new(spec.clone());
    let mut rng = HeronRng::from_seed(seed);

    let flops = dag.total_flops() as f64;
    let with_dispatch = |kernel_latency: f64| -> VendorOutcome {
        let latency_s = kernel_latency + DISPATCH_OVERHEAD_S;
        VendorOutcome {
            gflops: flops / latency_s / 1e9,
            latency_s,
        }
    };
    let mut best: Option<VendorOutcome> = None;
    let mut session = SolveSession::new(&space.csp);
    for entry in &menu {
        for sol in realize_entry(&mut session, entry, &mut rng) {
            let Ok((_, m)) = evaluate(&space, &measurer, &sol) else {
                continue;
            };
            let boosted = with_dispatch(m.latency_s / VENDOR_BONUS);
            if best.is_none_or(|b| boosted.gflops > b.gflops) {
                best = Some(boosted);
            }
        }
    }
    // A vendor library always runs *something*: when no expert menu entry
    // fits the shape, its dispatcher falls back to the generic kernel zoo —
    // structurally limited kernels (modelled as the best of a handful of
    // samples from the fixed manual-template space, without the
    // hand-optimisation bonus). This is where the paper's large vendor
    // gaps on skewed shapes come from.
    if best.is_none() {
        if let Ok(generic) = generator.generate_named(dag, &SpaceOptions::autotvm(), workload) {
            let generic_measurer = Measurer::new(spec.clone());
            let zoo =
                SolveSession::new(&generic.csp).solve(&mut rng, 3, &SAMPLE, &Tracer::disabled());
            for sol in zoo.solutions {
                let Ok((_, m)) = evaluate(&generic, &generic_measurer, &sol) else {
                    continue;
                };
                let candidate = with_dispatch(m.latency_s);
                if best.is_none_or(|b| candidate.gflops > b.gflops) {
                    best = Some(candidate);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_dla::{dlboost, v100, vta};
    use heron_tensor::ops;

    #[test]
    fn vendor_is_strong_on_square_gemm() {
        let dag = ops::gemm(4096, 4096, 4096);
        let v = vendor_outcome(&v100(), &dag, "g2", 1).expect("gpu vendor exists");
        // cuBLAS-class efficiency on its home turf (> 40% of peak).
        let frac = v.gflops * 1e9 / v100().peak_ops_per_sec();
        assert!(frac > 0.4, "vendor too weak on square gemm: {frac}");
    }

    #[test]
    fn vendor_weaker_on_skinny_gemm() {
        let skinny = ops::gemm(32, 1000, 4096);
        let square = ops::gemm(4096, 4096, 4096);
        let vs = vendor_outcome(&v100(), &skinny, "g5", 1).expect("exists");
        let vq = vendor_outcome(&v100(), &square, "g2", 1).expect("exists");
        assert!(
            vs.gflops < vq.gflops * 0.5,
            "{} vs {}",
            vs.gflops,
            vq.gflops
        );
    }

    #[test]
    fn no_vendor_on_vta() {
        let dag = ops::gemm_dtyped(256, 256, 256, heron_tensor::DType::I8);
        assert!(vendor_outcome(&vta(), &dag, "g", 1).is_none());
    }

    #[test]
    fn cpu_vendor_exists() {
        let dag = ops::gemm_dtyped(512, 512, 512, heron_tensor::DType::I8);
        let v = vendor_outcome(&dlboost(), &dag, "g", 1).expect("onednn model");
        assert!(v.gflops > 0.0);
    }
}
