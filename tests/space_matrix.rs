//! Space-generation matrix: every platform × approach × operator must
//! produce a satisfiable space whose solutions lower cleanly, and Heron's
//! spaces must be valid-by-construction everywhere.

use heron::prelude::*;
use heron::sched::lower;
use heron::tensor::ops;
use heron_rng::HeronRng;

fn check_space(
    spec: &heron::dla::DlaSpec,
    opts: &SpaceOptions,
    dag: &heron::tensor::Dag,
    label: &str,
    expect_all_valid: bool,
) {
    let Ok(space) = SpaceGenerator::new(spec.clone()).generate_named(dag, opts, label) else {
        panic!("{label}: generation failed");
    };
    let mut rng = HeronRng::from_seed(11);
    let sols = heron_testkit::solve_once(
        &space.csp,
        &mut rng,
        12,
        &heron::csp::SolvePolicy::default(),
    );
    assert!(
        sols.is_sat() && !sols.solutions.is_empty(),
        "{label}: space unsatisfiable ({})",
        sols.status
    );
    let sols = sols.solutions;
    let measurer = Measurer::new(spec.clone());
    let mut valid = 0;
    for sol in &sols {
        assert!(
            heron::csp::validate(&space.csp, sol),
            "{label}: solver returned non-solution"
        );
        let kernel = lower(&space.template, sol.fingerprint(), &|n| {
            sol.value_by_name(&space.csp, n)
        })
        .unwrap_or_else(|e| panic!("{label}: lowering failed: {e}"));
        if measurer.validate(&kernel).is_ok() {
            valid += 1;
        }
    }
    if expect_all_valid {
        assert_eq!(
            valid,
            sols.len(),
            "{label}: Heron sample violated arch limits"
        );
    } else {
        assert!(valid > 0, "{label}: no runnable sample at all");
    }
}

fn approaches() -> [(&'static str, SpaceOptions, bool); 4] {
    [
        ("heron", SpaceOptions::heron(), true),
        ("autotvm", SpaceOptions::autotvm(), false),
        ("ansor", SpaceOptions::ansor(), false),
        ("amos", SpaceOptions::amos(), false),
    ]
}

#[test]
fn v100_matrix() {
    let spec = heron::dla::v100();
    let dags = [
        ("gemm", ops::gemm(512, 512, 512)),
        (
            "c2d",
            ops::conv2d(ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1)),
        ),
        ("scan", ops::scan(16, 512)),
    ];
    for (op, dag) in &dags {
        for (name, opts, all_valid) in approaches() {
            check_space(&spec, &opts, dag, &format!("v100/{op}/{name}"), all_valid);
        }
    }
}

#[test]
fn dlboost_matrix() {
    let spec = heron::dla::dlboost();
    let dags = [
        ("gemm", ops::gemm_dtyped(512, 512, 512, DType::I8)),
        (
            "c2d",
            ops::conv2d(
                ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1).with_dtype(DType::I8),
            ),
        ),
    ];
    for (op, dag) in &dags {
        for (name, opts, all_valid) in approaches() {
            check_space(
                &spec,
                &opts,
                dag,
                &format!("dlboost/{op}/{name}"),
                all_valid,
            );
        }
    }
}

#[test]
fn vta_matrix() {
    let spec = heron::dla::vta();
    let dags = [
        ("gemm", ops::gemm_dtyped(512, 512, 512, DType::I8)),
        ("bmm", ops::bmm_dtyped(8, 128, 128, 128, DType::I8)),
    ];
    // Ansor is not evaluated on VTA in the paper (no scalar path on the
    // GEMM-unit accelerator), so only the intrinsic-capable approaches.
    for (op, dag) in &dags {
        for (name, opts, all_valid) in [
            ("heron", SpaceOptions::heron(), true),
            ("autotvm", SpaceOptions::autotvm(), false),
            ("amos", SpaceOptions::amos(), false),
        ] {
            check_space(&spec, &opts, dag, &format!("vta/{op}/{name}"), all_valid);
        }
    }
}

#[test]
fn flexible_intrinsic_platforms_generate() {
    // Cambricon-style multi-shape intrinsics exercise the SELECT-linked
    // shape choice.
    let spec = heron::dla::cambricon();
    let dag = ops::gemm_dtyped(512, 512, 512, DType::I8);
    check_space(
        &spec,
        &SpaceOptions::heron(),
        &dag,
        "cambricon/gemm/heron",
        true,
    );
    let tpu = heron::dla::tpu();
    let big = ops::gemm_dtyped(1024, 1024, 1024, DType::I8);
    check_space(&tpu, &SpaceOptions::heron(), &big, "tpu/gemm/heron", true);
}
