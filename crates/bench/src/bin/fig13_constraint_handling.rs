//! Regenerates **Figure 13**: CGA vs other constraint-handling techniques
//! for genetic algorithms, on GEMM (N, N, N) for growing N. Reported as
//! performance relative to CGA (higher is better; CGA = 1.0).
//!
//! * CGA-1 — CGA with random key variables,
//! * GA-1 — stochastic ranking,
//! * GA-2 — SAT-decoder,
//! * GA-3 — infeasibility-driven multi-objective.

use heron_bench::{seed, trials};
use heron_core::explore::cga::CgaExplorer;
use heron_core::explore::variants::{InfeasibilityDrivenGa, SatDecoderGa, StochasticRankingGa};
use heron_core::explore::Explorer;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::evaluate;
use heron_dla::{v100, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;

fn main() {
    let spec = v100();
    let steps = trials();
    let sizes = [256_i64, 512, 1024, 2048];
    println!("Figure 13: constraint-handling techniques, perf relative to CGA (steps={steps})");
    println!("N\tCGA\tCGA-1\tGA-1\tGA-2\tGA-3");
    for n in sizes {
        let dag = ops::gemm(n, n, n);
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &SpaceOptions::heron(), &format!("gemm-{n}"))
            .expect("generates");
        let measurer = Measurer::new(spec.clone());
        let mut finals = Vec::new();
        let mut explorers: Vec<Box<dyn Explorer>> = vec![
            Box::new(CgaExplorer::new()),
            Box::new(CgaExplorer::cga1()),
            Box::new(StochasticRankingGa),
            Box::new(SatDecoderGa),
            Box::new(InfeasibilityDrivenGa),
        ];
        for explorer in &mut explorers {
            let mut rng = HeronRng::from_seed(seed());
            let mut measure = |sol: &heron_csp::Solution| {
                evaluate(&space, &measurer, sol).ok().map(|(_, m)| m.gflops)
            };
            let curve = explorer.explore(&space, &mut measure, steps, &mut rng);
            finals.push(curve.last().copied().unwrap_or(0.0));
        }
        let cga = finals[0].max(1e-9);
        println!(
            "{n}\t1.00\t{:.2}\t{:.2}\t{:.2}\t{:.2}",
            finals[1] / cga,
            finals[2] / cga,
            finals[3] / cga,
            finals[4] / cga
        );
    }
    println!();
    println!("(paper: CGA >= all variants; GA-2 competitive on small N, degrades with size)");
}
