//! Micro-bench (heron-testkit): the DLA measurer — lowering plus
//! analytic latency estimation, which replaces hardware measurement in
//! this reproduction.

use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_dla::Measurer;
use heron_rng::HeronRng;
use heron_sched::lower;
use heron_tensor::ops;
use heron_testkit::bench::{black_box, Harness};

fn main() {
    let mut h = Harness::new("simulator");
    for (name, spec, dag) in [
        ("v100", heron_dla::v100(), ops::gemm(1024, 1024, 1024)),
        (
            "dlboost",
            heron_dla::dlboost(),
            ops::gemm_dtyped(1024, 1024, 1024, heron_tensor::DType::I8),
        ),
        (
            "vta",
            heron_dla::vta(),
            ops::gemm_dtyped(1024, 1024, 1024, heron_tensor::DType::I8),
        ),
    ] {
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &SpaceOptions::heron(), name)
            .expect("generates");
        let measurer = Measurer::new(spec);
        let mut rng = HeronRng::from_seed(1);
        let sol =
            heron_testkit::solve_once(&space.csp, &mut rng, 1, &heron_csp::SolvePolicy::default())
                .one()
                .expect("solvable");
        let csp = space.csp.clone();
        let kernel = lower(&space.template, sol.fingerprint(), &|n| {
            sol.value_by_name(&csp, n)
        })
        .expect("lowers");

        h.bench(&format!("lower/{name}"), || {
            let k = lower(&space.template, sol.fingerprint(), &|n| {
                sol.value_by_name(&csp, n)
            })
            .expect("lowers");
            black_box(k.grid)
        });
        h.bench(&format!("measure/{name}"), || {
            black_box(measurer.measure(&kernel).expect("valid").latency_s)
        });
        h.bench(&format!("evaluate/{name}"), || {
            black_box(evaluate(&space, &measurer, &sol).expect("valid").1.gflops)
        });
    }
    h.finish();
}
