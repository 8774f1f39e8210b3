//! Property tests of constrained space generation: for arbitrary operator
//! shapes, Heron's spaces are satisfiable and every sample is valid on the
//! target DLA. (heron-testkit harness; see DESIGN.md, "Zero-dependency &
//! determinism policy".)

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_dla::{dlboost, v100, vta, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;
use heron_testkit::property_cases;

fn check_heron_space(spec: heron_dla::DlaSpec, dag: heron_tensor::Dag) {
    let space = SpaceGenerator::new(spec.clone())
        .generate_named(&dag, &SpaceOptions::heron(), "prop")
        .unwrap_or_else(|e| panic!("generation failed: {e}"));
    let mut rng = HeronRng::from_seed(13);
    let sols =
        heron_testkit::solve_once(&space.csp, &mut rng, 4, &heron_csp::SolvePolicy::fixed(600))
            .solutions;
    assert!(!sols.is_empty(), "space unsatisfiable");
    let measurer = Measurer::new(spec);
    for sol in &sols {
        assert!(heron_csp::validate(&space.csp, sol));
        let (kernel, m) = evaluate(&space, &measurer, sol)
            .unwrap_or_else(|e| panic!("Heron sample invalid: {e}"));
        assert!(m.latency_s > 0.0);
        assert!(kernel.grid >= 1);
    }
}

/// Arbitrary GEMM shapes (including primes and tiny dims) generate
/// valid-by-construction TensorCore spaces.
#[test]
fn gemm_spaces_are_valid_on_v100() {
    property_cases("gemm_spaces_are_valid_on_v100", 24, |g| {
        let m = g.int(1, 3000);
        let n = g.int(1, 3000);
        let k = g.int(1, 3000);
        check_heron_space(v100(), ops::gemm(m, n, k));
    });
}

/// Arbitrary conv2d shapes generate valid spaces on every platform.
#[test]
fn conv_spaces_are_valid_everywhere() {
    property_cases("conv_spaces_are_valid_everywhere", 24, |g| {
        let batch = g.int(1, 8);
        let hw = g.int(4, 40);
        let ci = g.int(1, 128);
        let co = g.int(1, 128);
        let kk = g.int(1, 4);
        let pad = g.int(0, 2);
        let stride = g.int(1, 3);
        if hw + 2 * pad < kk {
            return; // assume
        }
        let cfg = ops::Conv2dConfig::new(batch, hw, hw, ci, co, kk, kk, pad, stride);
        if cfg.out_height() < 1 {
            return; // assume
        }
        check_heron_space(v100(), ops::conv2d(cfg));
        check_heron_space(
            dlboost(),
            ops::conv2d(cfg.with_dtype(heron_tensor::DType::I8)),
        );
        check_heron_space(vta(), ops::conv2d(cfg.with_dtype(heron_tensor::DType::I8)));
    });
}

/// BMM batch axes become grid dimensions without breaking validity.
#[test]
fn bmm_spaces_are_valid() {
    property_cases("bmm_spaces_are_valid", 24, |g| {
        let b = g.int(1, 64);
        let m = g.int(1, 512);
        let n = g.int(1, 512);
        let k = g.int(1, 512);
        check_heron_space(v100(), ops::bmm(b, m, n, k));
    });
}
