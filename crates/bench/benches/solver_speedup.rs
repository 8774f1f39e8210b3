//! Micro-bench (heron-testkit): trail+bitset RandSAT vs the historical
//! clone-based engine (`heron_testkit::csp_reference`) on the conv2d
//! `CSP_initial` — the speed-campaign receipt for the solver rewrite.
//!
//! Both engines draw the same 16-solution sample with the same seed and
//! policy, so the comparison is apples-to-apples: identical solution
//! sequences (enforced by `crates/csp/tests/prop_equiv.rs`), different
//! machinery. Besides the usual per-engine timing rows, the run prints
//! a summary with the wall-clock speedup and the propagation-pass
//! counts; the engine should show ≥4× wall-clock and ≈2× fewer passes
//! for the same sample on this space. Each trail run builds its own
//! session, so its time includes the root fixpoint; its pass count, like
//! every `SolveStats`, leaves that set-up out. (Raw passes/sec is *not*
//! comparable across the engines: a trail-engine `PROD`/`SUM`/`SELECT`
//! pass runs its filter to a local fixpoint, so each pass does strictly
//! more work than a reference pass.)
//!
//! A second summary line times the path the tuner runs — CGA offspring
//! as pinned re-solves on one shared [`SolveSession`] — and prints its
//! cost per propagation pass, the engine's constant factor.

use heron_core::explore::cga::offspring_pins;
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_csp::{SolvePolicy, SolveSession};
use heron_rng::HeronRng;
use heron_tensor::ops;
use heron_testkit::bench::{black_box, Harness};
use heron_testkit::csp_reference::rand_sat_reference;
use heron_testkit::solve_once;
use heron_trace::Tracer;
use std::time::Instant;

const SEED: u64 = 2023;
const SAMPLES: usize = 16;
/// Pinned re-solves per timed run of the tuner path.
const OFFSPRING: usize = 64;

fn space() -> heron_core::generate::GeneratedSpace {
    let dag = ops::conv2d(ops::Conv2dConfig::new(1, 14, 14, 64, 64, 3, 3, 1, 1));
    SpaceGenerator::new(heron_dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "c2d-14x64")
        .expect("generates")
}

/// Times `reps` fresh-seeded runs of `f`, which returns the run's
/// propagation count. Returns (total seconds, total propagations).
fn measure(reps: u32, mut f: impl FnMut() -> u64) -> (f64, u64) {
    black_box(f()); // warmup
    let mut props = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        props += black_box(f());
    }
    (t0.elapsed().as_secs_f64(), props)
}

fn main() {
    let mut h = Harness::new("solver_speedup");
    let space = space();
    let policy = SolvePolicy::default();

    h.bench("reference/c2d-14x64/16-solutions", || {
        let mut rng = HeronRng::from_seed(SEED);
        let out = rand_sat_reference(&space.csp, &mut rng, SAMPLES, &policy);
        black_box(out.solutions.len())
    });
    h.bench("trail/c2d-14x64/16-solutions", || {
        let mut rng = HeronRng::from_seed(SEED);
        let out = solve_once(&space.csp, &mut rng, SAMPLES, &policy);
        black_box(out.solutions.len())
    });

    let reps = std::env::var("HERON_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15u32);
    let (ref_s, ref_props) = measure(reps, || {
        let mut rng = HeronRng::from_seed(SEED);
        rand_sat_reference(&space.csp, &mut rng, SAMPLES, &policy)
            .stats
            .propagations
    });
    let (new_s, new_props) = measure(reps, || {
        let mut rng = HeronRng::from_seed(SEED);
        solve_once(&space.csp, &mut rng, SAMPLES, &policy)
            .stats
            .propagations
    });
    let ref_pps = ref_props as f64 / ref_s;
    let new_pps = new_props as f64 / new_s;
    eprintln!(
        "  summary: wall-clock speedup {:.2}x | props/run {} -> {} ({:.2}x fewer) | \
         props/sec {:.2}M -> {:.2}M ({:.2}x)",
        ref_s / new_s,
        ref_props / u64::from(reps),
        new_props / u64::from(reps),
        ref_props as f64 / new_props as f64,
        ref_pps / 1e6,
        new_pps / 1e6,
        new_pps / ref_pps,
    );

    let tracer = Tracer::disabled();
    let mut session = SolveSession::new(&space.csp);
    let parents = session
        .solve(&mut HeronRng::from_seed(SEED), 2, &policy, &tracer)
        .expect_sat("c2d-14x64 root space");
    let keys: Vec<_> = space.csp.tunables().into_iter().take(8).collect();
    let (pin_s, pin_props) = measure(reps, || {
        let mut rng = HeronRng::from_seed(SEED);
        (0..OFFSPRING)
            .map(|_| {
                let pins = offspring_pins(&keys, &parents[0], &parents[1], &mut rng);
                session
                    .solve_pinned(&pins, &mut rng, 1, &policy, &tracer)
                    .stats
                    .propagations
            })
            .sum()
    });
    eprintln!(
        "  pinned:  {OFFSPRING} offspring/run | props/run {} | {:.0} ns per propagation pass \
         ({:.2}M passes/sec)",
        pin_props / u64::from(reps),
        pin_s * 1e9 / pin_props as f64,
        pin_props as f64 / pin_s / 1e6,
    );

    h.finish();
}
