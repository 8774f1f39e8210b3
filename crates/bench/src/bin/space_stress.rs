//! `space_stress` — robustness characterisation of constrained exploration.
//!
//! Stresses the hardened exploration stack (DESIGN.md §6, "Solver-side
//! failure & repair") on progressively over-constrained GEMM spaces:
//!
//! * **open** — the unmodified Heron space;
//! * **pin-half** — half the tunables pinned to one reference solution
//!   via injected `IN` constraints (a heavily squeezed but satisfiable
//!   space);
//! * **pin-all** — every tunable pinned: a single-configuration space
//!   that must end in `space-exhausted`, not a hang;
//! * **clash** — two contradictory `IN` constraints on one tunable: a
//!   *proven* root-infeasible space, which the solver must classify as
//!   `root-infeasible` (never a silent empty result) and the diagnoser
//!   must explain.
//!
//! Per level the TSV reports trials completed, termination, offspring
//! repairs, relaxed constraints, deadline hits, fallback samples and
//! solver escalations. Rows go to stdout *and* to
//! `results/space_stress.tsv`.
//!
//! ```text
//! space_stress [--trials N] [--seed S] [--deadline STEPS] [--metrics-out M.tsv]
//! space_stress --smoke    # CI gate: over-constrained + UNSAT behaviour
//! ```

use heron_bench::{flag, has_flag, num_flag, write_metrics_flag, TsvTable};
use heron_core::generate::{GeneratedSpace, SpaceGenerator, SpaceOptions};
use heron_core::tuner::{Termination, TuneConfig, TuneResult, Tuner};
use heron_csp::{diagnose_root_conflict, SolvePolicy, SolveSession, SolveStatus};
use heron_dla::{v100, Measurer};
use heron_rng::HeronRng;
use heron_tensor::ops;
use heron_trace::Tracer;

fn base_space(name: &str) -> GeneratedSpace {
    let dag = ops::gemm(256, 256, 256);
    SpaceGenerator::new(v100())
        .generate_named(&dag, &SpaceOptions::heron(), name)
        .expect("generates")
}

/// Pins the first `count` tunables of `space` to the values of one
/// reference solution (deterministic in `seed`).
fn pin_tunables(space: &mut GeneratedSpace, count: usize, seed: u64) {
    let mut rng = HeronRng::from_seed(seed);
    let sol = SolveSession::new(&space.csp)
        .solve(&mut rng, 1, &SolvePolicy::fixed(4_000), &Tracer::disabled())
        .one()
        .expect("base space is satisfiable");
    let tunables = space.csp.tunables();
    for &v in tunables.iter().take(count) {
        let value = sol.value(v);
        space.csp.post_in(v, [value]);
    }
}

/// Makes `space` provably root-infeasible: two disjoint `IN` sets on one
/// tunable with a multi-value domain.
fn add_clash(space: &mut GeneratedSpace) {
    let v = *space
        .csp
        .tunables()
        .iter()
        .find(|&&v| space.csp.var(v).domain.size() >= 2)
        .expect("a multi-value tunable exists");
    let values: Vec<i64> = space.csp.var(v).domain.iter_values().collect();
    space.csp.post_in(v, [values[0]]);
    space.csp.post_in(v, [values[1]]);
}

fn run_level(
    space: GeneratedSpace,
    trials: usize,
    seed: u64,
    deadline: u64,
) -> (TuneResult, Tracer) {
    let mut config = TuneConfig::quick(trials);
    config.cga.solve_deadline = deadline;
    config.max_stall_rounds = 4;
    let tracer = Tracer::manual();
    let mut tuner = Tuner::new(space, Measurer::new(v100()), config, seed);
    tuner.set_tracer(tracer.clone());
    (tuner.run(), tracer)
}

fn smoke(seed: u64) -> i32 {
    let mut failures = 0;
    let mut check = |ok: bool, what: &str| {
        if ok {
            println!("space stress: OK — {what}");
        } else {
            eprintln!("space stress: FAILED — {what}");
            failures += 1;
        }
    };

    // 1. Over-constrained but satisfiable: every tunable pinned. The
    //    session must finish (repair/fallback keep the loop alive), find
    //    the one valid program, and report space-exhausted — not hang,
    //    not misreport infeasible.
    let mut pinned = base_space("stress-pin-all");
    let n = pinned.csp.tunables().len();
    pin_tunables(&mut pinned, n, seed);
    let (r, _) = run_level(pinned, 64, seed, 20_000);
    check(
        r.best_gflops > 0.0 && !r.curve.is_empty(),
        "pinned space still yields a valid program",
    );
    check(
        matches!(
            r.termination,
            Termination::SpaceExhausted | Termination::TrialsExhausted
        ),
        "pinned space terminates cleanly (no false `infeasible`)",
    );

    // 2. Proven-UNSAT space: the solver must *classify* it, and the
    //    diagnoser must name a removal set that restores feasibility.
    let mut unsat = base_space("stress-clash");
    add_clash(&mut unsat);
    let mut rng = HeronRng::from_seed(seed);
    let outcome = SolveSession::new(&unsat.csp).solve(
        &mut rng,
        4,
        &SolvePolicy::default(),
        &Tracer::disabled(),
    );
    check(
        outcome.status == SolveStatus::RootInfeasible && outcome.solutions.is_empty(),
        "contradictory space is classified root-infeasible",
    );
    match diagnose_root_conflict(&unsat.csp) {
        Some(report) => {
            print!("{report}");
            check(
                report.removal_restores_feasibility(&unsat.csp),
                "diagnosed removal set restores feasibility",
            );
        }
        None => check(false, "diagnoser must report on an infeasible root"),
    }
    let (r, _) = run_level(
        {
            let mut s = base_space("stress-clash");
            add_clash(&mut s);
            s
        },
        16,
        seed,
        0,
    );
    check(
        r.termination == Termination::Infeasible && r.curve.is_empty(),
        "tuning an UNSAT space terminates `infeasible` immediately",
    );

    // 3. Deadline determinism: two same-seed deadline-bounded solves are
    //    byte-identical (status and solutions).
    let open = base_space("stress-deadline");
    let solve = |seed: u64| {
        let mut rng = HeronRng::from_seed(seed);
        let policy = SolvePolicy::fixed(4_000).with_deadline(64);
        SolveSession::new(&open.csp).solve(&mut rng, 8, &policy, &Tracer::disabled())
    };
    let (a, b) = (solve(seed), solve(seed));
    check(
        a.status == b.status && a.solutions == b.solutions && a.stats == b.stats,
        "deadline-bounded solves are deterministic",
    );

    if failures == 0 {
        println!("space stress smoke: all checks passed");
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = num_flag(&args, "--seed").unwrap_or(2023);
    if has_flag(&args, "--smoke") {
        std::process::exit(smoke(seed));
    }
    let trials: usize = num_flag(&args, "--trials").unwrap_or(48);
    let deadline: u64 = num_flag(&args, "--deadline").unwrap_or(20_000);

    println!("# space stress: gemm-256 on v100, {trials} trials, seed {seed}, deadline {deadline}");
    let columns = [
        "level",
        "trials_done",
        "best_gops",
        "termination",
        "repaired",
        "relaxed",
        "deadline_hits",
        "fallbacks",
        "escalations",
        "root_infeasible",
    ];
    let mut table = TsvTable::new("space_stress", &columns);
    let mut file_rows: Vec<Vec<String>> = vec![columns.iter().map(|c| c.to_string()).collect()];

    let total_tunables = base_space("stress-probe").csp.tunables().len();
    let levels: Vec<(&str, GeneratedSpace)> = vec![
        ("open", base_space("stress-open")),
        ("pin-half", {
            let mut s = base_space("stress-pin-half");
            pin_tunables(&mut s, total_tunables / 2, seed);
            s
        }),
        ("pin-all", {
            let mut s = base_space("stress-pin-all");
            pin_tunables(&mut s, total_tunables, seed);
            s
        }),
        ("clash", {
            let mut s = base_space("stress-clash");
            add_clash(&mut s);
            s
        }),
    ];
    for (level, space) in levels {
        let (r, tracer) = run_level(space, trials, seed, deadline);
        let cells = vec![
            level.to_string(),
            r.curve.len().to_string(),
            format!("{:.1}", r.best_gflops),
            r.termination.to_string(),
            r.repaired_offspring.to_string(),
            r.relaxed_constraints.to_string(),
            r.solver_deadline_hits.to_string(),
            r.fallback_samples.to_string(),
            tracer.counter("csp.escalations").unwrap_or(0).to_string(),
            tracer
                .counter("csp.root_infeasible")
                .unwrap_or(0)
                .to_string(),
        ];
        table.emit(&cells);
        file_rows.push(cells);
    }

    // Mirror the table into results/space_stress.tsv (the committed-
    // artifact convention of the fig*/table* binaries).
    let text: String = file_rows.iter().map(|r| r.join("\t") + "\n").collect();
    let path = flag(&args, "--out").unwrap_or_else(|| "results/space_stress.tsv".into());
    if let Some(dir) = std::path::Path::new(&path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("cannot write `{path}`: {e}");
        std::process::exit(1);
    }
    eprintln!("table written to `{path}`");
    write_metrics_flag(&args, table.tracer());
}
