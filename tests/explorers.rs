//! Integration tests of every exploration algorithm on a real generated
//! space: interface contracts (budget, monotonicity) and the paper's
//! ordering claims at fixed seeds.

use heron::core::explore::cga::{CgaConfig, CgaExplorer};
use heron::core::explore::classic::{GaExplorer, RandomExplorer, SaExplorer};
use heron::core::explore::variants::{InfeasibilityDrivenGa, SatDecoderGa, StochasticRankingGa};
use heron::core::explore::Explorer;
use heron::core::tuner::evaluate;
use heron::prelude::*;
use heron_rng::{HeronRng, Rng};

fn space() -> GeneratedSpace {
    let dag = heron::tensor::ops::gemm(512, 512, 512);
    SpaceGenerator::new(heron::dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "g")
        .expect("generates")
}

fn run(explorer: &mut dyn Explorer, steps: usize, seed: u64) -> Vec<f64> {
    let s = space();
    let measurer = Measurer::new(heron::dla::v100());
    let mut rng = HeronRng::from_seed(seed);
    let mut measure =
        |sol: &heron::csp::Solution| evaluate(&s, &measurer, sol).ok().map(|(_, m)| m.gflops);
    explorer.explore(&s, &mut measure, steps, &mut rng)
}

fn all_explorers() -> Vec<Box<dyn Explorer>> {
    vec![
        Box::new(CgaExplorer::new()),
        Box::new(CgaExplorer::cga1()),
        Box::new(RandomExplorer),
        Box::new(SaExplorer),
        Box::new(GaExplorer),
        Box::new(StochasticRankingGa),
        Box::new(SatDecoderGa),
        Box::new(InfeasibilityDrivenGa),
    ]
}

#[test]
fn every_explorer_respects_budget_and_monotonicity() {
    for explorer in &mut all_explorers() {
        let curve = run(explorer.as_mut(), 40, 5);
        assert!(
            curve.len() <= 40,
            "{} exceeded the trial budget: {}",
            explorer.name(),
            curve.len()
        );
        assert!(!curve.is_empty(), "{} did nothing", explorer.name());
        for w in curve.windows(2) {
            assert!(w[1] >= w[0], "{} curve not monotone", explorer.name());
        }
    }
}

#[test]
fn every_explorer_finds_something_valid() {
    for explorer in &mut all_explorers() {
        let curve = run(explorer.as_mut(), 60, 6);
        let best = curve.last().copied().unwrap_or(0.0);
        assert!(
            best > 0.0,
            "{} found no valid program in 60 trials",
            explorer.name()
        );
    }
}

#[test]
fn cga_outperforms_sa_at_fixed_seed() {
    // The paper's Figure 12 ordering; SA gets stuck in the irregular space.
    let cga = run(&mut CgaExplorer::new(), 120, 7);
    let sa = run(&mut SaExplorer, 120, 7);
    let (cga_best, sa_best) = (
        cga.last().copied().unwrap_or(0.0),
        sa.last().copied().unwrap_or(0.0),
    );
    assert!(
        cga_best > sa_best,
        "CGA {cga_best} should beat SA {sa_best}"
    );
}

#[test]
fn cga_explorer_is_the_product_tuner() {
    // The adapter runs `Tuner` on the same device and seed stream: its
    // curve is the tuner's, bit for bit.
    let steps = 40;
    let via_explorer = run(&mut CgaExplorer::new(), steps, 5);
    let s = space();
    let config = TuneConfig {
        trials: steps,
        cga: CgaConfig::default(),
        ..TuneConfig::paper()
    };
    let seed = HeronRng::from_seed(5).random();
    let tuned = Tuner::new(s.clone(), Measurer::new(s.dla), config, seed).run();
    assert_eq!(via_explorer, tuned.curve);
    // CGA-1's random key variables reach the tuner's evolution step.
    let cga1 = run(&mut CgaExplorer::cga1(), steps, 5);
    assert_ne!(cga1, via_explorer, "CGA-1 must not run plain CGA");
}

#[test]
fn explorer_names_are_distinct() {
    let mut names: Vec<&str> = all_explorers().iter().map(|e| e.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 8);
}

#[test]
fn sat_decoder_offspring_are_always_valid() {
    // GA-2's defining property: decoded phenotypes satisfy CSP_initial.
    let s = space();
    let mut rng = HeronRng::from_seed(8);
    let mut session = heron::csp::SolveSession::new(&s.csp);
    let policy = heron::csp::SolvePolicy::default();
    let parents = session
        .solve(&mut rng, 2, &policy, &heron::trace::Tracer::disabled())
        .expect_sat("explorer space");
    for _ in 0..10 {
        let geno = heron::core::explore::classic::crossover_tunables(
            &s,
            &parents[0],
            &parents[1],
            &mut rng,
        );
        if let Some(pheno) =
            heron::core::explore::variants::sat_decode(&mut session, &geno, &mut rng)
        {
            assert!(heron::csp::validate(&s.csp, &pheno));
        }
    }
}
