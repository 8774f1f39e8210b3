//! Micro-bench (heron-testkit): RandSAT sampling and propagation on the
//! GEMM `CSP_initial` — the inner loop of CGA (called thousands of
//! times per tuning session, so its cost sets the "CGA" slice of
//! Figure 14). Every solve row also prints its mean propagations and
//! nogood-memo hits per call, and below that its filtering passes and
//! wipeouts per constraint kind, so a time change can be read against a
//! work change. The
//! `session_new` row is a session's set-up: the presolve, the propagator
//! and the root fixpoint.

use heron_core::explore::cga::{offspring_pins, CgaConfig};
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_csp::propagate::Propagator;
use heron_csp::{Kind, SolveOutcome, SolvePolicy, SolveSession, SolveStats};
use heron_rng::HeronRng;
use heron_tensor::ops;
use heron_testkit::bench::{black_box, Harness};
use heron_testkit::solve_once;
use heron_trace::Tracer;

fn gemm_space(n: i64, name: &str) -> heron_core::generate::GeneratedSpace {
    let dag = ops::gemm(n, n, n);
    SpaceGenerator::new(heron_dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), name)
        .expect("generates")
}

/// Benches `solve` as `name`, then prints the mean propagations and
/// nogood hits per call (warm-up calls included) under the timing line,
/// and each constraint kind's mean passes and wipeouts per call.
fn bench_solve(h: &mut Harness, name: &str, mut solve: impl FnMut() -> SolveOutcome) {
    let mut calls = 0u64;
    let mut total = SolveStats::default();
    h.bench(name, || {
        let out = solve();
        calls += 1;
        total.absorb(&out.stats);
        out.solutions.len()
    });
    let per_call = |n: u64| n / calls.max(1);
    eprintln!(
        "  {:<40} {:>12} propagations/call {:>6} nogood hits/call",
        name,
        per_call(total.propagations),
        per_call(total.nogood_hits)
    );
    for kind in Kind::ALL {
        let work = total.by_kind[kind as usize];
        if work.passes > 0 {
            eprintln!(
                "    {:<38} {:>12} passes/call {:>10} wipeouts/call",
                kind.tag(),
                per_call(work.passes),
                per_call(work.wipeouts)
            );
        }
    }
}

fn main() {
    let mut h = Harness::new("csp_solver");
    let space = gemm_space(1024, "g1");

    let mut rng = HeronRng::from_seed(1);
    bench_solve(&mut h, "solve_once/gemm-1024/1-solution", || {
        solve_once(&space.csp, &mut rng, 1, &SolvePolicy::fixed(400))
    });

    let mut rng = HeronRng::from_seed(2);
    bench_solve(&mut h, "solve_once/gemm-1024/16-solutions", || {
        solve_once(&space.csp, &mut rng, 16, &SolvePolicy::fixed(400))
    });

    // The in-situ path: CGA materialises an offspring of two parents by
    // re-solving the tuner's session under their crossover pins.
    let space512 = gemm_space(512, "g2");
    h.bench("session_new/gemm-512", || {
        black_box(SolveSession::new(&space512.csp).root_feasible())
    });

    let cga = CgaConfig::default();
    let policy = cga.solver_policy();
    let tracer = Tracer::disabled();
    let mut session = SolveSession::new(&space512.csp);
    let mut rng = HeronRng::from_seed(4);
    let parents = session
        .solve(&mut rng, 2, &policy, &tracer)
        .expect_sat("gemm-512 space");
    let keys: Vec<_> = space512
        .csp
        .tunables()
        .into_iter()
        .take(cga.key_vars)
        .collect();
    bench_solve(&mut h, "solve_pinned/gemm-512/crossover", || {
        let pins = offspring_pins(&keys, &parents[0], &parents[1], &mut rng);
        session.solve_pinned(&pins, &mut rng, 1, &policy, &tracer)
    });

    let prop = Propagator::new(&space.csp);
    h.bench("propagate/gemm-1024/run_all", || {
        let mut store = prop.store();
        prop.run_all(&mut store).expect("feasible");
        black_box(store.min(0))
    });

    let mut rng = HeronRng::from_seed(3);
    let sol = solve_once(&space.csp, &mut rng, 1, &SolvePolicy::default())
        .one()
        .expect("solvable");
    h.bench("validate/gemm-1024", || {
        black_box(heron_csp::validate(&space.csp, &sol))
    });

    h.finish();
}
