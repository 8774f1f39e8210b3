//! `heron-cli` — command-line front end for the library.
//!
//! ```text
//! heron-cli platforms
//! heron-cli tune    --dla v100 --op gemm --shape 1024x1024x1024 [--trials N] [--seed S] [--code]  (--code also prints the bottleneck analysis)
//! heron-cli tune    ... [--fault-rate R] [--pause-at N --checkpoint F] [--resume F]
//! heron-cli tune    ... [--trace-out T.jsonl] [--metrics-out M.tsv] [--profile]
//! heron-cli tune    ... [--diagnose]
//! heron-cli compare --dla v100 --op c2d  --shape 16x56x56x64x64x3x1x1 [--trials N]
//! heron-cli census  --dla v100 --op gemm --shape 512x512x512
//! heron-cli export  --dla v100 --op gemm --shape 512x512x512   # CSP_initial, sealed heron-csp v2
//! ```
//!
//! Fault tolerance: `--fault-rate 0.2` injects deterministic transient
//! faults (timeouts, device hangs, RPC drops, noisy latencies) seeded by
//! `--seed`; `--pause-at N` stops after ~N trials and writes a checkpoint;
//! `--resume F` continues a checkpointed session and reproduces the
//! uninterrupted run exactly.
//!
//! Observability: `--trace-out` writes the session's span trace as JSONL
//! (validate or re-render it with the `trace_report` binary),
//! `--metrics-out` snapshots every counter/gauge/histogram as TSV, and
//! `--profile` prints the hierarchical time breakdown. Traces use the
//! simulated manual clock, so the same seed yields byte-identical files.
//!
//! Search-health analytics: `--insight-out I.json` writes the analyzer's
//! deterministic `insight.json` (per-round regret, diversity/entropy,
//! ε-greedy split, per-refit model quality and importance drift,
//! constraint pressure, per-variable coverage); `--insight-report` prints
//! the human-readable search-health report. Both survive `--pause-at` /
//! `--resume`: a resumed session emits the identical insight stream.
//!
//! Robustness: `--diagnose` explains an infeasible space by printing the
//! minimal constraint removal that restores feasibility (greedy conflict
//! diagnosis). Corrupt or truncated checkpoints are rejected by
//! `--resume` with the byte offset of the damage.
//!
//! Shapes: `gemm MxNxK`, `bmm BxMxNxK`, `gemv MxKxB`, `scan BxL`,
//! `c2d NxHxWxCIxCOxKxPxS`, `c1d NxLxCIxCOxKxPxS`, `c3d NxDxHWxCIxCOxKxPxS`.

use heron_baselines::{tune, vendor_outcome, Approach};
use heron_bench::{flag, has_flag, num_flag};
use heron_core::generate::{SpaceGenerator, SpaceOptions};
use heron_csp::SpaceCensus;
use heron_dla::DlaSpec;
use heron_sched::kernel_pseudo_code;
use heron_trace::Tracer;
use heron_workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return;
    };
    match cmd.as_str() {
        "platforms" => platforms(),
        "tune" => tune_cmd(&args[1..]),
        "compare" => compare_cmd(&args[1..]),
        "census" => census_cmd(&args[1..]),
        "export" => export_cmd(&args[1..]),
        other => {
            eprintln!("unknown command `{other}`");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!("usage: heron-cli <platforms|tune|compare|census|export> [--dla NAME] [--op OP] [--shape SHAPE] [--trials N] [--seed S] [--code] [--fault-rate R] [--pause-at N] [--checkpoint FILE] [--resume FILE] [--trace-out FILE.jsonl] [--metrics-out FILE.tsv] [--profile] [--insight-out FILE.json] [--insight-report] [--deadline-rounds N] [--diagnose]");
}

fn platform(name: &str) -> DlaSpec {
    heron_dla::platforms::all()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| {
            eprintln!("unknown platform `{name}`; run `heron-cli platforms`");
            std::process::exit(2);
        })
}

fn platforms() {
    println!(
        "{:<10} {:>12} {:>8}  constraints",
        "name", "peak(Tops)", "dtype"
    );
    for s in heron_dla::platforms::all() {
        println!(
            "{:<10} {:>12.1} {:>8}  {}",
            s.name,
            s.peak_ops_per_sec() / 1e12,
            s.in_dtype.to_string(),
            s.constraint_summary().join("; ")
        );
    }
}

/// The workload of `--op` × `--shape`; exits 2 naming what is wrong.
fn parse_workload(op: &str, shape: &str) -> Workload {
    heron_serve::parse_workload(op, shape).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

struct Common {
    spec: DlaSpec,
    workload: Workload,
    trials: usize,
    seed: u64,
}

fn common(args: &[String]) -> Common {
    let spec = platform(&flag(args, "--dla").unwrap_or_else(|| "v100".into()));
    let op = flag(args, "--op").unwrap_or_else(|| "gemm".into());
    let shape = flag(args, "--shape").unwrap_or_else(|| "1024x1024x1024".into());
    Common {
        workload: parse_workload(&op, &shape),
        spec,
        trials: num_flag(args, "--trials").unwrap_or(300),
        seed: num_flag(args, "--seed").unwrap_or(2023),
    }
}

/// Writes `--trace-out` / `--metrics-out` files and prints the
/// `--profile` tree; shared by every way a traced session can end
/// (finish, pause, resume).
fn emit_observability(args: &[String], tracer: &Tracer, result: &heron_core::tuner::TuneResult) {
    if let Some(path) = flag(args, "--trace-out") {
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("cannot write trace to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "trace written to `{path}` ({} events)",
            tracer.event_count()
        );
    }
    heron_bench::write_metrics_flag(flag(args, "--metrics-out").as_deref(), tracer);
    if has_flag(args, "--profile") {
        print!("{}", result.profile());
    }
}

/// Handles `--insight-out` / `--insight-report`: runs the search-health
/// analyzer over the session's [`heron_insight::SearchLog`] and writes
/// the deterministic `insight.json` and/or prints the text report.
fn emit_insight(args: &[String], tuner: &heron_core::tuner::Tuner) {
    let Some(log) = tuner.insight() else { return };
    let report = heron_insight::analyze(log);
    if let Some(path) = flag(args, "--insight-out") {
        let doc = report.to_json(log);
        heron_bench::must_validate("insight.json", heron_insight::validate_insight(&doc));
        if let Err(e) = std::fs::write(&path, doc.render_pretty()) {
            eprintln!("cannot write insight to `{path}`: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "insight written to `{path}` ({} rounds, {} refits)",
            log.rounds.len(),
            log.refits.len()
        );
    }
    if has_flag(args, "--insight-report") {
        print!("{}", report.render_text(log));
    }
}

/// `tune`: one direct-`Tuner` session, whatever the flags — fault
/// injection, pause-at-N checkpointing, resume, tracing, insight and
/// `--code` all read the same session handle.
fn tune_cmd(args: &[String]) {
    use heron_core::checkpoint::TuneCheckpoint;
    use heron_core::tuner::Tuner;
    use heron_dla::{FaultPlan, Measurer};

    let c = common(args);
    // Every value flag is read before the session runs, so one given
    // without its value exits 2 before any work.
    let checkpoint =
        flag(args, "--checkpoint").unwrap_or_else(|| format!("{}.ckpt", c.workload.name));
    let traced = flag(args, "--trace-out").is_some()
        || flag(args, "--metrics-out").is_some()
        || has_flag(args, "--profile");
    // Manual clock: timestamps advance by simulated measurement time, so
    // traced runs are reproducible byte-for-byte from the seed.
    let tracer = if traced {
        Tracer::manual()
    } else {
        Tracer::disabled()
    };

    let dag = c.workload.build(c.spec.in_dtype);
    let fault_rate: f64 = num_flag(args, "--fault-rate").unwrap_or(0.0);
    let plan = if fault_rate > 0.0 {
        FaultPlan::uniform(c.seed, fault_rate)
    } else {
        FaultPlan::none(c.seed)
    };
    let config = heron_baselines::tune::heron_config(c.trials);
    let space = match SpaceGenerator::new(c.spec.clone()).generate_named(
        &dag,
        &SpaceOptions::heron(),
        &c.workload.name,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot generate: {e}");
            std::process::exit(1);
        }
    };

    let mut tuner = if let Some(path) = flag(args, "--resume") {
        let ckpt = match TuneCheckpoint::load(&path) {
            Ok(ck) => ck,
            Err(e) => {
                eprintln!("cannot load checkpoint `{path}`: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "resuming `{}` on {} from `{path}` ({} trials done)…",
            ckpt.workload,
            ckpt.dla,
            ckpt.result.curve.len()
        );
        match Tuner::resume(space, Measurer::new(c.spec.clone()), config, plan, &ckpt) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot resume: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!(
            "tuning `{}` on {} for {} trials (fault rate {:.0}%)…",
            c.workload.name,
            c.spec.name,
            c.trials,
            fault_rate * 100.0
        );
        Tuner::new(space, Measurer::new(c.spec.clone()), config, c.seed).with_faults(plan)
    };
    tuner.set_tracer(tracer.clone());
    // Search-health analytics: enable the log unless resume already
    // restored one from the checkpoint (resetting it would lose the
    // pre-pause rounds and break insight-exact resumption).
    let want_insight = flag(args, "--insight-out").is_some() || has_flag(args, "--insight-report");
    if want_insight && tuner.insight().is_none() {
        tuner.enable_insight(8);
    }
    // Global job deadline: the session preempts itself at the round
    // boundary once its *lifetime* round counter (which survives
    // checkpoint/resume) reaches the bound — the same cooperative path
    // heron-serve uses, so the checkpoint is bit-exact resumable.
    if let Some(deadline) = num_flag(args, "--deadline-rounds") {
        tuner.control().set_deadline_rounds(deadline);
    }

    if let Some(pause_at) = num_flag(args, "--pause-at") {
        let finished = tuner.run_until(pause_at);
        if !finished {
            let path = &checkpoint;
            if let Err(e) = tuner.checkpoint().save(path) {
                eprintln!("cannot write checkpoint `{path}`: {e}");
                std::process::exit(1);
            }
            println!(
                "paused after {} trials; checkpoint written to `{path}` (resume with --resume {path})",
                tuner.trials_done()
            );
            emit_observability(args, &tracer, &tuner.result());
            emit_insight(args, &tuner);
            return;
        }
        println!("session finished before trial {pause_at}; nothing to pause");
    } else {
        tuner.run();
    }
    if tuner.result().termination == heron_core::tuner::Termination::Preempted {
        let path = &checkpoint;
        if let Err(e) = tuner.checkpoint().save(path) {
            eprintln!("cannot write checkpoint `{path}`: {e}");
            std::process::exit(1);
        }
        println!(
            "deadline reached after {} rounds; checkpoint written to `{path}` \
             (resume with --resume {path})",
            tuner.rounds_total()
        );
    }
    let result = tuner.result();
    print!("{}", result.report());
    println!(
        "best: {:.1} Gops ({:.1}% of peak), latency {:.1} us, invalid trials {}",
        result.best_gflops,
        result.best_gflops * 1e9 / c.spec.peak_ops_per_sec() * 100.0,
        result.best_latency_s * 1e6,
        result.invalid_trials
    );
    if has_flag(args, "--code") {
        if let Some(k) = &result.best_kernel {
            println!("\n{}", kernel_pseudo_code(k));
            let measurer = Measurer::new(c.spec.clone());
            if let Ok(a) = measurer.analyze(k) {
                println!("{a}");
            }
            if let Ok((m, e)) = measurer.measure_with_energy(k) {
                println!(
                    "energy: {:.1} uJ/run ({:.1} compute, {:.1} off-chip, {:.1} on-chip, {:.1} static) -> {:.1} Gops/W",
                    e.total_j() * 1e6,
                    e.compute_j * 1e6,
                    e.offchip_j * 1e6,
                    e.onchip_j * 1e6,
                    e.static_j * 1e6,
                    e.gops_per_watt(k.total_flops, m.latency_s)
                );
            }
        }
    }
    if has_flag(args, "--diagnose")
        && result.termination == heron_core::tuner::Termination::Infeasible
    {
        match heron_csp::diagnose_root_conflict(&tuner.space().csp) {
            Some(report) => print!("{report}"),
            None => println!(
                "diagnosis: the root is propagation-feasible; \
                 infeasibility was proven deeper in the search"
            ),
        }
    }
    emit_observability(args, &tracer, &result);
    emit_insight(args, &tuner);
}

fn compare_cmd(args: &[String]) {
    let c = common(args);
    let dag = c.workload.build(c.spec.in_dtype);
    println!(
        "comparing approaches on `{}` / {} ({} trials each)",
        c.workload.name, c.spec.name, c.trials
    );
    println!(
        "{:<10} {:>12} {:>12} {:>8} {:>8}",
        "approach", "Gops", "latency", "valid", "invalid"
    );
    for a in Approach::all() {
        match tune(a, &c.spec, &dag, &c.workload.name, c.trials, c.seed) {
            Ok(o) => println!(
                "{:<10} {:>12.1} {:>10.1}us {:>8} {:>8}",
                o.name,
                o.best_gflops,
                o.best_latency_s * 1e6,
                o.valid_trials,
                o.invalid_trials
            ),
            Err(_) => println!("{:<10} {:>12}", a.name(), "n/a"),
        }
    }
    if let Some(v) = vendor_outcome(&c.spec, &dag, &c.workload.name, c.seed) {
        println!(
            "{:<10} {:>12.1} {:>10.1}us {:>8} {:>8}",
            "vendor",
            v.gflops,
            v.latency_s * 1e6,
            "-",
            "-"
        );
    }
}

fn census_cmd(args: &[String]) {
    let c = common(args);
    let dag = c.workload.build(c.spec.in_dtype);
    match SpaceGenerator::new(c.spec.clone()).generate_named(
        &dag,
        &SpaceOptions::heron(),
        &c.workload.name,
    ) {
        Ok(space) => {
            let census = SpaceCensus::of(&space.csp);
            println!("space for `{}` on {}:", c.workload.name, c.spec.name);
            println!(
                "  variables: {} (arch {}, loop {}, tunable {}, other {})",
                census.total_vars(),
                census.arch_vars,
                census.loop_length_vars,
                census.tunable_vars,
                census.other_vars
            );
            println!("  constraints: {}", census.total_constraints());
            for (tag, n) in &census.constraints_by_type {
                println!("    {tag}: {n}");
            }
            println!(
                "  tunable cross-product: 10^{:.1}",
                space.csp.tunable_space_log10()
            );
            println!("  schedule template:");
            for p in &space.template.primitives {
                println!("    {p}");
            }
        }
        Err(e) => {
            eprintln!("cannot generate: {e}");
            std::process::exit(1);
        }
    }
}

fn export_cmd(args: &[String]) {
    let c = common(args);
    let dag = c.workload.build(c.spec.in_dtype);
    let text = SpaceGenerator::new(c.spec.clone())
        .generate_named(&dag, &SpaceOptions::heron(), &c.workload.name)
        .map_err(|e| format!("cannot generate: {e}"))
        .and_then(|space| {
            heron_csp::to_text(&space.csp).map_err(|e| format!("cannot export: {e}"))
        });
    match text {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
