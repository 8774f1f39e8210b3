//! Regenerates **Figure 12**: CGA vs SA, GA and RAND exploration
//! efficiency on (a) a C2D and (b) a GEMM operator. The paper's claim: CGA
//! reaches in ~500 steps what the baselines need 1000+ steps for, because
//! every offspring is valid and good genes are retained.

use heron_bench::{downsample, row, seed, trials};
use heron_core::explore::cga::CgaExplorer;
use heron_core::explore::classic::{GaExplorer, RandomExplorer, SaExplorer};
use heron_core::explore::Explorer;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_dla::{v100, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;

fn main() {
    let spec = v100();
    let steps = trials();
    let cases = [
        (
            "C2D",
            ops::conv2d(ops::Conv2dConfig::new(16, 14, 14, 256, 256, 3, 3, 1, 1)),
        ),
        ("GEMM", ops::gemm(1024, 1024, 1024)),
    ];
    println!("Figure 12: exploration efficiency (steps={steps})");
    row(&["case", "algorithm", "step", "best_gflops"].map(String::from));
    for (case, dag) in cases {
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &SpaceOptions::heron(), case)
            .expect("generates");
        let measurer = Measurer::new(spec.clone());
        let mut explorers: Vec<Box<dyn Explorer>> = vec![
            Box::new(CgaExplorer::new()),
            Box::new(SaExplorer),
            Box::new(GaExplorer),
            Box::new(RandomExplorer),
        ];
        for explorer in &mut explorers {
            let mut rng = HeronRng::from_seed(seed());
            let mut measure = |sol: &heron_csp::Solution| {
                evaluate(&space, &measurer, sol).ok().map(|(_, m)| m.gflops)
            };
            let curve = explorer.explore(&space, &mut measure, steps, &mut rng);
            for (step, best) in downsample(&curve, 16) {
                row(&[
                    case.to_string(),
                    explorer.name().to_string(),
                    step.to_string(),
                    format!("{best:.1}"),
                ]);
            }
        }
    }
}
