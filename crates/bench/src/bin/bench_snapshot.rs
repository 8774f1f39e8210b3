//! `bench_snapshot` — emits the canonical `BENCH_heron.json`
//! perf-trajectory snapshot (DESIGN.md §7).
//!
//! ```text
//! bench_snapshot [--out BENCH_heron.json] [--trials N] [--seed S]
//!                [--append-history results/bench_trajectory.jsonl]
//! ```
//!
//! Runs the full Heron pipeline (space generation → CGA + ε-greedy
//! tuning → cost-model refits) on a fixed workload set and records, per
//! workload: best score/latency, trial counts, rounds, *simulated*
//! measurement wall-clock, RandSAT solve throughput (a count-based probe
//! of `CSP_initial`), model refit count and final training rank
//! accuracy. Every number is deterministic for a fixed seed — host
//! wall-clock is deliberately excluded — so the emitted file is
//! byte-stable and can be committed as the regression baseline for
//! `bench_compare`.
//!
//! A TSV summary of the same numbers goes to stdout.
//!
//! `--append-history FILE` additionally appends one compact
//! `heron-bench-traj-v1` line (seed, trials, geomean, per-workload best
//! scores) to the committed trajectory history, after validating every
//! line already there — a corrupt history fails loudly instead of
//! growing silently.

use heron_bench::{flag, must_validate, TsvTable};
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::{TuneConfig, Tuner};
use heron_dla::{v100, Measurer};
use heron_insight::{trajectory_line, validate_trajectory, BenchReport, WorkloadBench};
use heron_rng::HeronRng;
use heron_tensor::{ops, Dag};

/// The fixed snapshot workload set: small enough to run in CI, diverse
/// enough (GEMM + conv) that a solver or model regression shows up.
fn workloads() -> Vec<(&'static str, Dag)> {
    vec![
        ("gemm-256", ops::gemm(256, 256, 256)),
        ("gemm-512", ops::gemm(512, 512, 512)),
        (
            "c2d-14x64",
            ops::conv2d(ops::Conv2dConfig::new(1, 14, 14, 64, 64, 3, 3, 1, 1)),
        ),
    ]
}

/// Count-based RandSAT throughput probe: solutions per 1000 propagations
/// when drawing `n` samples of `CSP_initial`. Deterministic (counts, not
/// time).
fn randsat_probe(csp: &heron_csp::Csp, seed: u64, n: usize) -> (heron_csp::SolveStats, f64) {
    // Session-based, mirroring how the tuner consumes the solver: the
    // one-time root fixpoint is session setup (see the `SolveSession`
    // determinism note) and is excluded from the probe's counts.
    let mut rng = HeronRng::from_seed(seed);
    let mut session = heron_csp::SolveSession::new(csp);
    let stats = session
        .solve(
            &mut rng,
            n,
            &heron_csp::SolvePolicy::default(),
            &heron_trace::Tracer::disabled(),
        )
        .stats;
    let per_kprop = if stats.propagations == 0 {
        0.0
    } else {
        stats.solutions as f64 * 1000.0 / stats.propagations as f64
    };
    (stats, per_kprop)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag(&args, "--out").unwrap_or_else(|| "BENCH_heron.json".into());
    let trials = flag(&args, "--trials")
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(heron_bench::trials);
    let seed = flag(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(heron_bench::seed);

    let spec = v100();
    let mut report = BenchReport::new(seed, trials as u32);
    let mut table = TsvTable::new(
        "bench",
        &[
            "workload",
            "best_gflops",
            "best_latency_us",
            "trials",
            "valid",
            "rounds",
            "hw_measure_s",
            "sol_per_kprop",
            "max_trail",
            "incr_hits",
            "model_fits",
            "rank_acc",
        ],
    );
    for (name, dag) in workloads() {
        let space = SpaceGenerator::new(spec.clone())
            .generate_named(&dag, &SpaceOptions::heron(), name)
            .expect("space generates");
        let (probe, per_kprop) = randsat_probe(&space.csp, seed, 64);
        let mut tuner = Tuner::new(
            space,
            Measurer::new(spec.clone()),
            TuneConfig::quick(trials),
            seed,
        )
        .with_insight(8);
        let result = tuner.run();
        let log = tuner.insight().expect("insight enabled");
        let w = WorkloadBench {
            name: name.to_string(),
            best_gflops: result.best_gflops,
            best_latency_us: result.best_latency_s * 1e6,
            trials: result.curve.len() as u32,
            valid_trials: result.valid_trials as u32,
            rounds: log.rounds.len() as u32,
            hw_measure_s: result.timing.hw_measure_s,
            randsat_solutions: probe.solutions,
            randsat_propagations: probe.propagations,
            sol_per_kprop: per_kprop,
            randsat_max_trail: log
                .rounds
                .iter()
                .map(|r| r.solver_max_trail)
                .max()
                .unwrap_or(0)
                .max(probe.max_trail_depth),
            incremental_hits: log.rounds.iter().map(|r| r.solver_incremental).sum(),
            model_fits: log.refits.len() as u32,
            final_rank_accuracy: result.model_rank_accuracy.unwrap_or(0.0),
        };
        table.emit(&[
            w.name.clone(),
            format!("{:.3}", w.best_gflops),
            format!("{:.3}", w.best_latency_us),
            w.trials.to_string(),
            w.valid_trials.to_string(),
            w.rounds.to_string(),
            format!("{:.3}", w.hw_measure_s),
            format!("{:.4}", w.sol_per_kprop),
            w.randsat_max_trail.to_string(),
            w.incremental_hits.to_string(),
            w.model_fits.to_string(),
            format!("{:.4}", w.final_rank_accuracy),
        ]);
        report.push(w);
    }

    let doc = report.to_json();
    must_validate("the snapshot", BenchReport::from_json(&doc));
    if let Err(e) = std::fs::write(&out, doc.render_pretty()) {
        eprintln!("cannot write `{out}`: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "snapshot written to `{out}` ({} workloads, geomean {:.2} Gops, seed {seed}, {trials} trials)",
        report.workloads.len(),
        report.geomean_gflops()
    );

    if let Some(history) = flag(&args, "--append-history") {
        let existing = match std::fs::read_to_string(&history) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => {
                eprintln!("cannot read history `{history}`: {e}");
                std::process::exit(1);
            }
        };
        let prior = match validate_trajectory(&existing) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("refusing to append: corrupt history `{history}`: {e}");
                std::process::exit(1);
            }
        };
        let appended = format!("{existing}{}\n", trajectory_line(&report));
        // Re-validate the would-be file so a bug in the line renderer
        // can never poison the committed history.
        must_validate("the new history line", validate_trajectory(&appended));
        if let Err(e) = std::fs::write(&history, appended) {
            eprintln!("cannot write history `{history}`: {e}");
            std::process::exit(1);
        }
        eprintln!("history `{history}` now has {} line(s)", prior + 1);
    }
}
