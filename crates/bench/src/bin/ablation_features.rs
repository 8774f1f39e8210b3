//! Ablation study (beyond the paper's figures, motivated by its Section 7
//! analysis): how much each ingredient of Heron's space and search
//! contributes, measured on two TensorCore workloads.
//!
//! Space ablations disable one expressive feature at a time; search
//! ablations replace CGA's key-variable selection (CGA-1) or CGA entirely
//! (solver-backed random search).

use heron_bench::{seed, trials};
use heron_core::explore::cga::CgaExplorer;
use heron_core::explore::classic::RandomExplorer;
use heron_core::explore::Explorer;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_dla::{v100, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;

fn run_space(opts: SpaceOptions, dag: &heron_tensor::Dag, steps: usize) -> f64 {
    let spec = v100();
    let Ok(space) = SpaceGenerator::new(spec.clone()).generate_named(dag, &opts, "abl") else {
        return 0.0;
    };
    let measurer = Measurer::new(spec);
    let mut rng = HeronRng::from_seed(seed());
    let mut explorer = CgaExplorer::new();
    let mut measure =
        |sol: &heron_csp::Solution| evaluate(&space, &measurer, sol).ok().map(|(_, m)| m.gflops);
    explorer
        .explore(&space, &mut measure, steps, &mut rng)
        .last()
        .copied()
        .unwrap_or(0.0)
}

fn run_search(explorer: &mut dyn Explorer, dag: &heron_tensor::Dag, steps: usize) -> f64 {
    let spec = v100();
    let space = SpaceGenerator::new(spec.clone())
        .generate_named(dag, &SpaceOptions::heron(), "abl")
        .expect("generates");
    let measurer = Measurer::new(spec);
    let mut rng = HeronRng::from_seed(seed());
    let mut measure =
        |sol: &heron_csp::Solution| evaluate(&space, &measurer, sol).ok().map(|(_, m)| m.gflops);
    explorer
        .explore(&space, &mut measure, steps, &mut rng)
        .last()
        .copied()
        .unwrap_or(0.0)
}

fn main() {
    let steps = trials();
    let cases = [
        ("GEMM-1024", ops::gemm(1024, 1024, 1024)),
        (
            "C2D-C5",
            ops::conv2d(ops::Conv2dConfig::new(32, 14, 14, 256, 256, 3, 3, 1, 1)),
        ),
    ];
    println!("Ablations on V100 TensorCore (steps={steps}), best Gops relative to full Heron");
    println!("config\t{}\t{}", cases[0].0, cases[1].0);

    let full: Vec<f64> = cases
        .iter()
        .map(|(_, dag)| run_space(SpaceOptions::heron(), dag, steps))
        .collect();
    println!("full-heron\t{:.0} Gops\t{:.0} Gops", full[0], full[1]);

    type Ablation = (&'static str, Box<dyn Fn() -> SpaceOptions>);
    let space_ablations: Vec<Ablation> = vec![
        (
            "no-storage-align",
            Box::new(|| SpaceOptions {
                storage_align: false,
                ..SpaceOptions::heron()
            }),
        ),
        (
            "no-locations",
            Box::new(|| SpaceOptions {
                tunable_locations: false,
                ..SpaceOptions::heron()
            }),
        ),
        (
            "fixed-intrinsic",
            Box::new(|| SpaceOptions {
                fixed_intrinsic: true,
                ..SpaceOptions::heron()
            }),
        ),
        (
            "fixed-serial",
            Box::new(|| SpaceOptions {
                fixed_serial_level: true,
                ..SpaceOptions::heron()
            }),
        ),
    ];
    for (name, make) in &space_ablations {
        let rel: Vec<f64> = cases
            .iter()
            .zip(&full)
            .map(|((_, dag), f)| run_space(make(), dag, steps) / f.max(1e-9))
            .collect();
        println!("{name}\t{:.2}\t{:.2}", rel[0], rel[1]);
    }

    // Search ablations on the full space.
    let rel: Vec<f64> = cases
        .iter()
        .zip(&full)
        .map(|((_, dag), f)| run_search(&mut CgaExplorer::cga1(), dag, steps) / f.max(1e-9))
        .collect();
    println!("cga1-random-keys\t{:.2}\t{:.2}", rel[0], rel[1]);
    let rel: Vec<f64> = cases
        .iter()
        .zip(&full)
        .map(|((_, dag), f)| run_search(&mut RandomExplorer, dag, steps) / f.max(1e-9))
        .collect();
    println!("rand-instead-of-cga\t{:.2}\t{:.2}", rel[0], rel[1]);
}
