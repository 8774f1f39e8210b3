//! End-to-end integration tests: compute description → constrained space
//! generation → CGA exploration → simulated measurement, on every DLA
//! family.

use heron::prelude::*;
use heron::tensor::ops;

fn run(spec: heron::dla::DlaSpec, dag: heron::tensor::Dag, trials: usize, seed: u64) -> TuneResult {
    let space = SpaceGenerator::new(spec.clone())
        .generate_named(&dag, &SpaceOptions::heron(), "it")
        .expect("generates");
    let mut tuner = Tuner::new(space, Measurer::new(spec), TuneConfig::quick(trials), seed);
    tuner.run()
}

#[test]
fn tensorcore_gemm_pipeline() {
    let r = run(heron::dla::v100(), ops::gemm(512, 512, 512), 48, 1);
    assert!(
        r.best_gflops > 1000.0,
        "TC gemm should exceed 1 Tflops: {}",
        r.best_gflops
    );
    assert_eq!(r.invalid_trials, 0);
    assert!(r.best_kernel.is_some());
}

#[test]
fn tensorcore_conv2d_pipeline() {
    let dag = ops::conv2d(ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1));
    let r = run(heron::dla::v100(), dag, 48, 2);
    assert!(r.best_gflops > 1000.0);
    assert_eq!(r.invalid_trials, 0);
    let k = r.best_kernel.expect("kernel");
    assert!(
        k.tensorized_stage().is_some(),
        "conv2d maps onto wmma via im2col"
    );
}

#[test]
fn dlboost_gemm_pipeline() {
    let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
    let r = run(heron::dla::dlboost(), dag, 48, 3);
    assert!(
        r.best_gflops > 100.0,
        "VNNI gemm too slow: {}",
        r.best_gflops
    );
    assert_eq!(r.invalid_trials, 0);
    let k = r.best_kernel.expect("kernel");
    assert_eq!(
        k.tensorized_stage().and_then(|s| s.intrinsic),
        Some((1, 16, 4))
    );
}

#[test]
fn vta_gemm_pipeline() {
    let dag = ops::gemm_dtyped(256, 256, 256, DType::I8);
    let r = run(heron::dla::vta(), dag, 48, 4);
    assert!(r.best_gflops > 1.0);
    assert_eq!(r.invalid_trials, 0);
    let k = r.best_kernel.expect("kernel");
    // The access-cycle rule holds on the best program.
    let comp = k.tensorized_stage().expect("tensorized");
    assert!(
        comp.row_elems >= 2,
        "access-cycle rule violated: {}",
        comp.row_elems
    );
}

#[test]
fn scan_pipeline_uses_scalar_path() {
    let r = run(heron::dla::v100(), ops::scan(16, 512), 32, 5);
    assert!(r.best_gflops > 0.0);
    assert!(r.best_kernel.expect("kernel").tensorized_stage().is_none());
}

#[test]
fn every_operator_suite_generates_on_v100() {
    let generator = SpaceGenerator::new(heron::dla::v100());
    for op in heron::workloads::operator_names() {
        for w in operator_suite(op) {
            let dag = w.build(DType::F16);
            let space = generator
                .generate_named(&dag, &SpaceOptions::heron(), &w.name)
                .expect("v100 supports every operator");
            // Every space is satisfiable.
            let mut rng = heron_rng::HeronRng::from_seed(9);
            let sols = heron_testkit::solve_once(
                &space.csp,
                &mut rng,
                1,
                &heron::csp::SolvePolicy::default(),
            );
            assert!(
                sols.is_sat() && !sols.solutions.is_empty(),
                "{op}/{} space unsatisfiable ({})",
                w.name,
                sols.status
            );
        }
    }
}

#[test]
fn curve_is_monotone_and_reaches_best() {
    let r = run(heron::dla::v100(), ops::gemm(256, 256, 256), 40, 6);
    for w in r.curve.windows(2) {
        assert!(w[1] >= w[0], "best-so-far curve must be monotone");
    }
    let last = *r.curve.last().expect("non-empty");
    assert!((last - r.best_gflops).abs() < 1e-6);
}

#[test]
fn deterministic_given_seed() {
    let a = run(heron::dla::v100(), ops::gemm(256, 256, 256), 24, 7);
    let b = run(heron::dla::v100(), ops::gemm(256, 256, 256), 24, 7);
    assert_eq!(a.best_gflops, b.best_gflops, "same seed must reproduce");
    assert_eq!(a.curve, b.curve);
}
