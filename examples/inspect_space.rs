//! Inspects a generated constrained space: the schedule template, the
//! CSP census (paper Tables 4/5), a few random valid configurations, and
//! the effect of constraint-based crossover on a pair of parents.
//!
//! ```sh
//! cargo run --release --example inspect_space
//! ```

use heron::core::explore::cga::offspring_pins;
use heron::prelude::*;
use heron_rng::HeronRng;

fn main() {
    let spec = heron::dla::v100();
    let dag = heron::tensor::ops::conv2d(heron::tensor::ops::Conv2dConfig::new(
        16, 14, 14, 256, 256, 3, 3, 1, 1,
    ));
    let space = SpaceGenerator::new(spec)
        .generate_named(&dag, &SpaceOptions::heron(), "c2d-C5")
        .expect("generates");

    println!("== schedule template ==");
    for p in &space.template.primitives {
        println!("  {p}");
    }

    let census = heron::csp::SpaceCensus::of(&space.csp);
    println!("\n== CSP census (cf. paper Tables 4-5) ==");
    println!(
        "  variables: {} (arch {}, loop {}, tunable {}, other {})",
        census.total_vars(),
        census.arch_vars,
        census.loop_length_vars,
        census.tunable_vars,
        census.other_vars
    );
    println!("  constraints: {} by type:", census.total_constraints());
    for (tag, n) in &census.constraints_by_type {
        println!("    {tag}: {n}");
    }
    println!(
        "  raw tunable cross-product: 10^{:.1} configurations",
        space.csp.tunable_space_log10()
    );

    println!("\n== random valid configurations (RandSAT) ==");
    // One solver session serves every solve on this space: the presolve
    // and the root fixpoint are computed here, once.
    let mut session = heron::csp::SolveSession::new(&space.csp);
    let policy = heron::csp::SolvePolicy::default();
    let tracer = heron::trace::Tracer::disabled();
    let mut rng = HeronRng::from_seed(1);
    let sols = session
        .solve(&mut rng, 3, &policy, &tracer)
        .expect_sat("generated space");
    let tunables = space.csp.tunables();
    for (i, sol) in sols.iter().enumerate() {
        let values: Vec<String> = tunables
            .iter()
            .take(8)
            .map(|&v| format!("{}={}", space.csp.var(v).name, sol.value(v)))
            .collect();
        println!("  #{i}: {} …", values.join(" "));
    }

    println!("\n== constraint-based crossover (Algorithm 3) ==");
    let keys: Vec<_> = tunables.iter().copied().take(4).collect();
    let pins = offspring_pins(&keys, &sols[0], &sols[1], &mut rng);
    println!(
        "  the offspring is CSP_initial ({} constraints) plus {} value pins (crossover IN constraints on {} key variables, one removed by mutation):",
        space.csp.num_constraints(),
        pins.len(),
        keys.len()
    );
    for (v, allowed) in &pins {
        println!("    {} IN {allowed:?}", space.csp.var(*v).name);
    }
    let children = session
        .solve_pinned(&pins, &mut rng, 2, &policy, &tracer)
        .solutions;
    for child in &children {
        assert!(heron::csp::validate(&space.csp, child));
        println!("  offspring is valid under CSP_initial ✓");
    }
}
