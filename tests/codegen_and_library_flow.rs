//! Integration: the human-facing artefacts — pseudo-code, schedule
//! program text, CSP export — render consistently from real tuned kernels.

use heron::prelude::*;
use heron::sched::kernel_pseudo_code;
use heron::tensor::ops;

#[test]
fn pseudo_code_renders_for_every_platform() {
    for spec in [heron::dla::v100(), heron::dla::dlboost(), heron::dla::vta()] {
        let dag = ops::gemm_dtyped(512, 512, 512, spec.in_dtype);
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &SpaceOptions::heron(), "cg")
            .expect("generates");
        let mut tuner = Tuner::new(
            space,
            Measurer::new(spec.clone()),
            TuneConfig::quick(24),
            29,
        );
        let kernel = tuner.run().best_kernel.expect("kernel found");
        let code = kernel_pseudo_code(&kernel);
        assert!(
            code.contains(&format!("for {}", spec.name).replace(&spec.name, ""))
                || code.contains("for (")
        );
        assert_eq!(
            code.matches('{').count(),
            code.matches('}').count(),
            "{}",
            spec.name
        );
        assert!(code.contains("// kernel"));
        if kernel.tensorized_stage().is_some() {
            assert!(
                code.contains("mma_sync_"),
                "{}: intrinsic not rendered",
                spec.name
            );
        }
    }
}

#[test]
fn schedule_program_text_renders_from_generated_spaces() {
    let dag = ops::conv2d(ops::Conv2dConfig::new(8, 28, 28, 128, 128, 3, 3, 1, 1));
    let space = SpaceGenerator::new(heron::dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "cg2")
        .expect("generates");
    // The template records every primitive applied by the rules.
    assert!(space.template.primitives.len() >= 10);
    let rendered: Vec<String> = space
        .template
        .primitives
        .iter()
        .map(|p| p.to_string())
        .collect();
    let all = rendered.join("\n");
    assert!(all.contains("tensorize"));
    assert!(all.contains("cache_read"));
    assert!(all.contains("cache_write"));
    assert!(all.contains("storage_align"));
    assert!(all.contains("compute_at"));
}

#[test]
fn csp_export_of_generated_space_roundtrips() {
    let dag = ops::gemm(512, 512, 512);
    let space = SpaceGenerator::new(heron::dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "cg3")
        .expect("generates");
    let text = heron::csp::to_text(&space.csp).expect("generated names are tokens");
    let back = heron::csp::from_text(&text).expect("parses");
    assert_eq!(back.num_vars(), space.csp.num_vars());
    assert_eq!(back.num_constraints(), space.csp.num_constraints());
    // Solutions of the original validate on the parsed copy and vice versa.
    let mut rng = heron_rng::HeronRng::from_seed(31);
    for sol in
        heron_testkit::solve_once(&space.csp, &mut rng, 4, &heron::csp::SolvePolicy::default())
            .solutions
    {
        assert!(heron::csp::validate(&back, &sol));
    }
    for sol in
        heron_testkit::solve_once(&back, &mut rng, 4, &heron::csp::SolvePolicy::default()).solutions
    {
        assert!(heron::csp::validate(&space.csp, &sol));
    }
    // Re-exporting the parsed copy writes the same bytes.
    assert_eq!(heron::csp::to_text(&back).unwrap(), text);
}
