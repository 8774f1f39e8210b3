//! Property tests of the CGA offspring path the tuner runs (DESIGN.md
//! §6): `offspring_pins` → `materialize_offspring` on a `SolveSession`,
//! and the shared Algorithm-2 Steps 1–2 function built on them.
//!
//! The contract: whatever `materialize_offspring` returns, the
//! chromosome always satisfies `CSP_initial` — repair only ever drops
//! *injected* crossover pins, never constraints of the original space —
//! and repair succeeds whenever the initial space is satisfiable (the
//! fully relaxed offspring *is* `CSP_initial`).

use heron_core::explore::cga::{
    evolve_population, materialize_offspring, offspring_pins, CgaConfig, OffspringOutcome,
};
use heron_core::explore::Chromosome;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::model::CostModel;
use heron_csp::{validate, Csp, SolvePolicy, SolveSession, VarRef};
use heron_rng::HeronRng;
use heron_testkit::csp_corpus::{knife_edge_csp, single_solution_csp, unsat_csp};
use heron_testkit::{property_cases, solve_once, Gen};
use heron_trace::Tracer;

fn solver_rng(g: &mut Gen) -> HeronRng {
    HeronRng::from_seed(g.int(0, i64::MAX) as u64)
}

fn materialize(
    initial: &Csp,
    pins: Vec<(VarRef, Vec<i64>)>,
    rng: &mut HeronRng,
    policy: &SolvePolicy,
) -> OffspringOutcome {
    let mut session = SolveSession::new(initial);
    materialize_offspring(&mut session, pins, rng, policy, &Tracer::disabled())
}

/// Genuine Algorithm-3 offspring (crossover pins + one mutation drop)
/// always materialise to a solution that validates against the
/// *initial* CSP, even when repair had to relax pins.
#[test]
fn materialised_offspring_always_satisfy_initial() {
    property_cases("repair_offspring_valid", 32, |g| {
        let initial = knife_edge_csp(g);
        let mut rng = solver_rng(g);
        let parents = solve_once(&initial, &mut rng, 2, &SolvePolicy::default()).solutions;
        if parents.len() < 2 {
            return; // solver starved on this case; nothing to cross over
        }
        let key_vars = initial.tunables();
        let pins = offspring_pins(&key_vars, &parents[0], &parents[1], &mut rng);
        let outcome = materialize(&initial, pins, &mut rng, &SolvePolicy::default());
        let sol = outcome
            .solution
            .expect("satisfiable initial space must always materialise");
        assert!(
            validate(&initial, &sol),
            "repaired offspring must satisfy CSP_initial"
        );
    });
}

/// Poisoned offspring — pins restricting a tunable to a value *outside
/// its domain* — are repaired by dropping pins most-recent-first: a
/// healthy pin injected before the poison survives, and the result still
/// satisfies `CSP_initial`.
#[test]
fn poisoned_offspring_are_repaired() {
    property_cases("repair_poisoned_offspring", 32, |g| {
        let (initial, expected) = single_solution_csp(g);
        let tunables = initial.tunables();
        // One satisfiable pin first, then 1..=3 unsatisfiable ones (value
        // far outside any domain).
        let kept = tunables[g.index(0, tunables.len())];
        let mut pins = vec![(kept, vec![expected.value(kept)])];
        let poisons = g.index(1, 4);
        for i in 0..poisons {
            let v = tunables[g.index(0, tunables.len())];
            pins.push((v, vec![1_000 + i as i64]));
        }
        let mut rng = solver_rng(g);
        let outcome = materialize(&initial, pins, &mut rng, &SolvePolicy::default());
        let sol = outcome
            .solution
            .expect("repair must recover: relaxing all injected pins leaves CSP_initial");
        assert_eq!(
            outcome.relaxed as usize, poisons,
            "exactly the poisons are dropped, most recent first"
        );
        assert_eq!(sol.value(kept), expected.value(kept));
        assert!(validate(&initial, &sol));
    });
}

/// When even `CSP_initial` is infeasible, repair refuses to invent a
/// chromosome: the outcome is `None` after relaxing all injected pins.
#[test]
fn unrepairable_offspring_return_none() {
    property_cases("repair_unsat_initial", 32, |g| {
        let initial = unsat_csp(g);
        let pins: Vec<_> = initial
            .tunables()
            .first()
            .map(|&v| (v, vec![9_999]))
            .into_iter()
            .collect();
        let injected = pins.len() as u32;
        let mut rng = solver_rng(g);
        let outcome = materialize(&initial, pins, &mut rng, &SolvePolicy::fixed(256));
        assert!(
            outcome.solution.is_none(),
            "an UNSAT initial space admits no chromosome, repaired or not"
        );
        assert_eq!(outcome.relaxed, injected);
    });
}

/// One round of the shared Steps 1–2 function on `csp` under both key
/// policies, from an unfitted and from a fitted model: every child
/// validates against `CSP_initial`, `cga.offspring_attempted` is
/// `generations × offspring`, and equal seeds give equal populations.
fn check_generation(csp: &Csp, seed: u64) {
    let cfg = CgaConfig {
        population: 12,
        offspring: 6,
        generations: 2,
        ..CgaConfig::default()
    };
    let mut model = CostModel::new(csp);
    for fitted in [false, true] {
        if fitted {
            let mut rng = HeronRng::from_seed(seed ^ 0x5eed);
            let samples = solve_once(csp, &mut rng, 12, &SolvePolicy::default()).solutions;
            if samples.len() < 8 {
                return; // too few distinct points to fit on
            }
            for (i, s) in samples.iter().enumerate() {
                model.add_sample(s, 1.0 + i as f64);
            }
            model.fit(&mut rng);
            assert!(model.is_fitted());
        }
        for random_keys in [false, true] {
            let run = || {
                let tracer = Tracer::manual();
                let mut session = SolveSession::new(csp);
                let mut rng = HeronRng::from_seed(seed);
                let (pop, stats) = evolve_population(
                    &mut session,
                    &model,
                    &[],
                    &cfg,
                    random_keys,
                    &mut rng,
                    &tracer,
                );
                (pop, stats, tracer)
            };
            let (pop, stats, tracer) = run();
            assert!(!pop.is_empty(), "a satisfiable space must populate");
            assert!(pop.len() <= cfg.population * 2);
            for c in &pop {
                assert!(validate(csp, &c.solution), "child violates CSP_initial");
            }
            assert_eq!(
                tracer.counter("cga.offspring_attempted"),
                Some((cfg.generations * cfg.offspring) as u64)
            );
            assert_eq!(
                tracer.counter("cga.fallback_samples").unwrap_or(0),
                stats.fallback_samples as u64
            );
            assert!(stats.offspring.incremental_hits >= (cfg.generations * cfg.offspring) as u64);
            let values = |pop: &[Chromosome]| -> Vec<Vec<i64>> {
                pop.iter().map(|c| c.solution.values().to_vec()).collect()
            };
            assert_eq!(
                values(&pop),
                values(&run().0),
                "same seed must give the same population"
            );
        }
    }
}

#[test]
fn shared_generation_on_knife_edge_spaces() {
    property_cases("generation_knife_edge", 12, |g| {
        let csp = knife_edge_csp(g);
        check_generation(&csp, g.int(0, i64::MAX) as u64);
    });
}

#[test]
fn shared_generation_on_a_generated_space() {
    let dag = heron_tensor::ops::gemm(256, 256, 256);
    let space = SpaceGenerator::new(heron_dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "gemm-256")
        .expect("generates");
    check_generation(&space.csp, 2023);
}
