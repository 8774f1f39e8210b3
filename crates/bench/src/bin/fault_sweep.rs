//! `fault_sweep` — resilience characterisation of the tuning loop.
//!
//! Sweeps the injected transient-fault rate on a fixed GEMM/V100 session
//! and reports, per rate: best throughput, degradation vs the fault-free
//! run, retry/quarantine counts, per-tag fault-injection counts (read
//! from the session's `heron_trace` metrics) and the simulated
//! measurement-time overhead the faults cost. Demonstrates that the
//! fault-tolerant measurement pipeline degrades gracefully instead of
//! collapsing.
//!
//! ```text
//! fault_sweep [--trials N] [--seed S] [--metrics-out M.tsv]   # full TSV sweep
//! fault_sweep --smoke                                         # quick 10%-fault sanity check
//! ```
//!
//! `--smoke` exits non-zero if a quick tune at a 10% fault rate fails to
//! find any valid program — the CI gate for the resilience pipeline.
//! `--metrics-out` snapshots the sweep's aggregate metrics registry
//! (per-column `bench.fault_sweep.*` histograms) to a TSV file.

use heron_bench::{num_flag, write_metrics_flag, TsvTable};
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_core::tuner::{TuneConfig, TuneResult, Tuner};
use heron_dla::{v100, FaultPlan, Measurer};
use heron_tensor::ops;
use heron_trace::Tracer;

/// Runs one traced session; the returned tracer holds the per-iteration
/// metrics snapshot (fault injections by tag, retries, timings).
fn run_at(rate: f64, trials: usize, seed: u64) -> (TuneResult, Tracer) {
    let dag = ops::gemm(512, 512, 512);
    let space = SpaceGenerator::new(v100())
        .generate_named(&dag, &SpaceOptions::heron(), "gemm-512")
        .expect("generates");
    let plan = if rate > 0.0 {
        FaultPlan::uniform(seed, rate)
    } else {
        FaultPlan::none(seed)
    };
    let tracer = Tracer::manual();
    let mut tuner = Tuner::new(
        space,
        Measurer::new(v100()),
        TuneConfig::quick(trials),
        seed,
    )
    .with_faults(plan);
    tuner.set_tracer(tracer.clone());
    (tuner.run(), tracer)
}

fn smoke() -> i32 {
    let (result, tracer) = run_at(0.10, 32, 2023);
    println!("{}", result.report());
    if result.best_gflops > 0.0 && result.curve.len() == 32 {
        println!(
            "fault smoke: OK ({:.1} Gops at 10% fault rate, {} fault injections traced)",
            result.best_gflops,
            tracer.counter("dla.measure_attempts").unwrap_or(0)
        );
        0
    } else {
        eprintln!("fault smoke: FAILED — no valid program found under faults");
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let trials: usize = num_flag(&args, "--trials").unwrap_or(96);
    let seed: u64 = num_flag(&args, "--seed").unwrap_or(2023);

    println!("# fault-rate sweep: gemm-512 on v100, {trials} trials, seed {seed}");
    let mut table = TsvTable::new(
        "fault_sweep",
        &[
            "rate",
            "best_gops",
            "vs_clean",
            "retried",
            "retries",
            "quarantined",
            "timeouts",
            "inj_timeout",
            "inj_hang",
            "inj_rpc",
            "inj_spurious",
            "inj_noisy",
            "hw_measure_s",
        ],
    );
    let mut clean_best = 0.0_f64;
    for rate in [0.0, 0.05, 0.10, 0.20, 0.30, 0.50] {
        let (r, tracer) = run_at(rate, trials, seed);
        if rate == 0.0 {
            clean_best = r.best_gflops;
        }
        let vs_clean = if clean_best > 0.0 {
            r.best_gflops / clean_best
        } else {
            0.0
        };
        let inj = |tag: &str| {
            tracer
                .counter(&format!("dla.fault_injected.{tag}"))
                .unwrap_or(0)
        };
        table.emit(&[
            format!("{rate:.2}"),
            format!("{:.1}", r.best_gflops),
            format!("{vs_clean:.3}"),
            r.retried_trials.to_string(),
            r.total_retries.to_string(),
            r.quarantined.to_string(),
            r.timeout_trials.to_string(),
            inj("timeout").to_string(),
            inj("device-hang").to_string(),
            inj("rpc-dropped").to_string(),
            inj("spurious").to_string(),
            tracer
                .counter("dla.noisy_injected")
                .unwrap_or(0)
                .to_string(),
            format!("{:.1}", r.timing.hw_measure_s),
        ]);
    }
    write_metrics_flag(&args, table.tracer());
}
