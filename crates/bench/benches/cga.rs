//! Micro-bench (heron-testkit): the constraint-based
//! crossover/mutation operator (Algorithm 3) as the tuner runs it —
//! compiling one offspring to value pins and materialising a valid
//! chromosome with a pinned re-solve on the shared solver session — plus
//! a short end-to-end tuning run.

use heron_core::explore::cga::{materialize_offspring, offspring_pins};
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::{TuneConfig, Tuner};
use heron_csp::{SolvePolicy, SolveSession};
use heron_rng::HeronRng;
use heron_tensor::ops;
use heron_testkit::bench::{black_box, Harness};
use heron_trace::Tracer;

fn main() {
    let mut h = Harness::new("cga");

    let dag = ops::gemm(1024, 1024, 1024);
    let space = SpaceGenerator::new(heron_dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "g1")
        .expect("generates");
    let mut rng = HeronRng::from_seed(1);
    let mut session = SolveSession::new(&space.csp);
    let policy = SolvePolicy::fixed(400);
    let tracer = Tracer::disabled();
    let parents = session
        .solve(&mut rng, 2, &SolvePolicy::default(), &tracer)
        .expect_sat("gemm space");
    let keys: Vec<_> = space.csp.tunables().into_iter().take(8).collect();

    h.bench("cga/offspring_pins", || {
        let pins = offspring_pins(&keys, &parents[0], &parents[1], &mut rng);
        black_box(pins.len())
    });

    h.bench("cga/offspring_pins+solve_pinned", || {
        let pins = offspring_pins(&keys, &parents[0], &parents[1], &mut rng);
        let out = materialize_offspring(&mut session, pins, &mut rng, &policy, &tracer);
        black_box(out.solution.is_some())
    });

    let tune_dag = ops::gemm(512, 512, 512);
    h.bench("cga/tune-32-trials", || {
        let space = SpaceGenerator::new(heron_dla::v100())
            .generate_named(&tune_dag, &SpaceOptions::heron(), "g")
            .expect("generates");
        let mut tuner = Tuner::new(
            space,
            heron_dla::Measurer::new(heron_dla::v100()),
            TuneConfig::quick(32),
            7,
        );
        black_box(tuner.run().best_gflops)
    });

    h.finish();
}
