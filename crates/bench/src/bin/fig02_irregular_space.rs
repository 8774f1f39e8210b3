//! Regenerates **Figure 2**: RAND vs SA vs GA in Heron's irregular
//! constrained search space (GEMM on TensorCore). The paper's observation:
//! SA gets stuck early, GA behaves almost randomly, so neither beats plain
//! random sampling of valid programs.

use heron_bench::{downsample, seed, trials};
use heron_core::explore::classic::{GaExplorer, RandomExplorer, SaExplorer};
use heron_core::explore::Explorer;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_dla::{v100, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;

fn main() {
    let spec = v100();
    let dag = ops::gemm(1024, 1024, 1024);
    let space = SpaceGenerator::new(spec.clone())
        .generate_named(&dag, &SpaceOptions::heron(), "G1")
        .expect("generates");
    let measurer = Measurer::new(spec);
    let steps = trials();

    println!("Figure 2: exploration in the irregular space (GEMM G1, V100)");
    println!("algorithm\tstep\tbest_gflops");
    let mut explorers: Vec<Box<dyn Explorer>> = vec![
        Box::new(RandomExplorer),
        Box::new(SaExplorer),
        Box::new(GaExplorer),
    ];
    for explorer in &mut explorers {
        let mut rng = HeronRng::from_seed(seed());
        let mut measure = |sol: &heron_csp::Solution| {
            evaluate(&space, &measurer, sol).ok().map(|(_, m)| m.gflops)
        };
        let curve = explorer.explore(&space, &mut measure, steps, &mut rng);
        for (step, best) in downsample(&curve, 20) {
            println!("{}\t{step}\t{best:.1}", explorer.name());
        }
    }
}
