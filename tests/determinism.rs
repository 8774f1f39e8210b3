//! Workspace determinism regression tests: identical seeds must give
//! byte-identical tuning traces and solver outputs; different seeds must
//! diverge. Guards the "Zero-dependency & determinism policy" (DESIGN.md) —
//! any platform-dependent or hash-order-dependent randomness in the stack
//! (RandSAT, CGA explorer, cost model, measurer) trips these tests.

use heron::core::tuner::{TuneConfig, TuneResult, Tuner};
use heron::core::TuneCheckpoint;
use heron::dla::FaultPlan;
use heron::prelude::*;
use heron::trace::{check_trace, normalize_jsonl, Tracer};
use heron_rng::HeronRng;

fn space() -> GeneratedSpace {
    let dag = heron::tensor::ops::gemm(384, 384, 384);
    SpaceGenerator::new(heron::dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "det")
        .expect("generates")
}

/// Serialises everything observable about a tuning session into one
/// string, so equality means "the full trace is identical", not merely
/// "the final score happens to match".
fn record(result: &TuneResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "best_gflops={:.17e} best_latency_s={:.17e} valid={} invalid={}",
        result.best_gflops, result.best_latency_s, result.valid_trials, result.invalid_trials
    );
    if let Some(sol) = &result.best_solution {
        let _ = writeln!(
            out,
            "best_solution={:?} fp={:#018x}",
            sol.values(),
            sol.fingerprint()
        );
    }
    if let Some(k) = &result.best_kernel {
        let _ = writeln!(out, "best_kernel={k:?}");
    }
    for (i, v) in result.curve.iter().enumerate() {
        let _ = writeln!(out, "curve[{i}]={v:.17e}");
    }
    for it in &result.iterations {
        let _ = writeln!(out, "iter={it:?}");
    }
    let _ = writeln!(
        out,
        "retried={} retries={} quarantined={} timeouts={} termination={}",
        result.retried_trials,
        result.total_retries,
        result.quarantined,
        result.timeout_trials,
        result.termination
    );
    let _ = writeln!(
        out,
        "repaired={} relaxed={} fallbacks={}",
        result.repaired_offspring, result.relaxed_constraints, result.fallback_samples
    );
    for (tag, n) in &result.error_counts {
        let _ = writeln!(out, "error[{tag}]={n}");
    }
    out
}

fn tune(seed: u64) -> String {
    let mut tuner = Tuner::new(
        space(),
        Measurer::new(heron::dla::v100()),
        TuneConfig::quick(24),
        seed,
    );
    record(&tuner.run())
}

/// Two full tuning sessions with the same seed produce byte-identical
/// best-schedule records (solution vector, kernel, curve, per-iteration
/// stats) — across generation, RandSAT, the GBDT cost model, and CGA.
#[test]
fn tuner_runs_are_reproducible() {
    let a = tune(7);
    let b = tune(7);
    assert_eq!(a, b, "same-seed tuning traces diverged");
}

/// Different seeds explore differently: traces must not collide. (A
/// collision would mean the seed is being ignored somewhere.)
#[test]
fn tuner_runs_diverge_across_seeds() {
    let a = tune(7);
    let b = tune(8);
    assert_ne!(a, b, "different seeds gave identical tuning traces");
}

fn faulty_tune(seed: u64, rate: f64, trials: usize) -> TuneResult {
    let mut tuner = Tuner::new(
        space(),
        Measurer::new(heron::dla::v100()),
        TuneConfig::quick(trials),
        seed,
    )
    .with_faults(FaultPlan::uniform(seed, rate));
    tuner.run()
}

/// Fault injection is part of the deterministic trace: the same seed and
/// the same `FaultPlan` reproduce every injected timeout, hang, retry and
/// quarantine byte-for-byte; a different fault seed diverges.
#[test]
fn fault_injection_is_deterministic() {
    let a = record(&faulty_tune(21, 0.25, 24));
    let b = record(&faulty_tune(21, 0.25, 24));
    assert_eq!(a, b, "same-seed faulty tuning traces diverged");

    let mut tuner = Tuner::new(
        space(),
        Measurer::new(heron::dla::v100()),
        TuneConfig::quick(24),
        21,
    )
    .with_faults(FaultPlan::uniform(99, 0.25));
    let c = record(&tuner.run());
    assert_ne!(a, c, "different fault seeds gave identical traces");
}

/// Checkpoint/resume is exact: killing a session at an iteration boundary,
/// serialising the checkpoint through its text format, and resuming in a
/// fresh `Tuner` reproduces the uninterrupted run's full trace — best
/// solution, curve and resilience counters included.
#[test]
fn checkpoint_resume_matches_uninterrupted_run() {
    let seed = 13;
    let rate = 0.2;
    let config = TuneConfig::quick(32);

    // Uninterrupted reference run.
    let full = record(&faulty_tune(seed, rate, 32));

    // Kill at ~half the budget, checkpoint, roundtrip through text.
    let mut first = Tuner::new(space(), Measurer::new(heron::dla::v100()), config, seed)
        .with_faults(FaultPlan::uniform(seed, rate));
    let finished = first.run_until(16);
    assert!(!finished, "32-trial session must not finish by trial 16");
    assert!(first.trials_done() >= 16);
    let text = first.checkpoint().to_text();
    // The cost model's store rebuilds the sample log: its bytes are pinned.
    assert_eq!(
        heron::core::checkpoint::content_id(&text),
        3_191_084_948,
        "trial-16 checkpoint content changed"
    );
    let ckpt = TuneCheckpoint::from_text(&text).expect("checkpoint roundtrips");

    // Resume in a brand-new tuner and finish the budget.
    let mut second = Tuner::resume(
        space(),
        Measurer::new(heron::dla::v100()),
        config,
        FaultPlan::uniform(seed, rate),
        &ckpt,
    )
    .expect("checkpoint applies to the same space");
    // Paused again, the resumed session writes what the uninterrupted one
    // writes at the same trial, host-time envelope aside.
    assert!(!second.run_until(24));
    let mut straight = Tuner::new(space(), Measurer::new(heron::dla::v100()), config, seed)
        .with_faults(FaultPlan::uniform(seed, rate));
    assert!(!straight.run_until(24));
    let (again, reference) = (
        second.checkpoint().to_text(),
        straight.checkpoint().to_text(),
    );
    assert_eq!(
        deterministic_section(&again),
        deterministic_section(&reference),
        "re-paused checkpoint diverged from the uninterrupted one"
    );
    let resumed = record(&second.run());

    assert_eq!(
        resumed, full,
        "resumed trace diverged from uninterrupted run"
    );
}

/// A checkpoint's text before its host-time envelope.
fn deterministic_section(text: &str) -> &str {
    let end = text.find("\ntiming.cga_s = ").expect("a host envelope");
    &text[..end]
}

/// At a 20% transient-fault rate the session still completes every trial,
/// quarantines repeat offenders, and finds a valid program.
#[test]
fn faulty_sessions_complete_and_quarantine() {
    let result = faulty_tune(17, 0.2, 24);
    assert_eq!(result.curve.len(), 24, "all trials must complete");
    assert!(result.best_gflops > 0.0, "{}", result.report());
    assert!(
        result.retried_trials > 0 || result.quarantined > 0,
        "a 20% fault rate must leave traces: {}",
        result.report()
    );
    assert!(
        !result.error_counts.is_empty(),
        "injected faults must be accounted"
    );
}

/// Strips the wall-clock instruments (`*_ms` fit-time histograms,
/// `tuner.cga_s`/`tuner.model_s` host-time gauges) whose *values* depend
/// on the machine; every remaining instrument — all counters and all
/// simulated-time gauges — must be byte-identical across same-seed runs.
fn deterministic_metrics(tsv: &str) -> String {
    tsv.lines()
        .filter(|l| {
            let name = l.split('\t').next().unwrap_or("");
            !name.ends_with("_ms") && name != "tuner.cga_s" && name != "tuner.model_s"
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The full instrument name list (wall-clock ones included) — the set of
/// registered instruments is itself deterministic even when their values
/// are not.
fn metric_names(tsv: &str) -> Vec<String> {
    tsv.lines()
        .skip(1)
        .map(|l| l.split('\t').next().unwrap_or("").to_string())
        .collect()
}

fn traced_tune_with(tracer: &Tracer, seed: u64) -> (String, String) {
    let mut tuner = Tuner::new(
        space(),
        Measurer::new(heron::dla::v100()),
        TuneConfig::quick(24),
        seed,
    )
    .with_faults(FaultPlan::uniform(seed, 0.2));
    tuner.set_tracer(tracer.clone());
    tuner.run();
    (tracer.to_jsonl(), tracer.metrics_tsv())
}

/// Tracing is part of the determinism contract: under the simulated
/// manual clock, two same-seed sessions emit byte-identical JSONL traces
/// (timestamps included) and byte-identical metrics snapshots; a
/// different seed diverges. The trace also passes structural validation
/// and covers every pipeline layer, and the solver's per-kind pass
/// counters sum to its pass count.
#[test]
fn traced_runs_are_byte_identical_for_same_seed() {
    let tracer = Tracer::manual();
    let (ja, ma) = traced_tune_with(&tracer, 7);
    let (jb, mb) = traced_tune_with(&Tracer::manual(), 7);
    assert_eq!(ja, jb, "same-seed JSONL traces diverged");
    assert_eq!(
        deterministic_metrics(&ma),
        deterministic_metrics(&mb),
        "same-seed metrics snapshots diverged"
    );
    assert_eq!(
        metric_names(&ma),
        metric_names(&mb),
        "instrument sets diverged"
    );

    let summary = check_trace(&ja).expect("trace must be well-formed");
    for layer in ["csp.solve", "cga.evolve", "measure.trial", "model.fit"] {
        assert!(
            summary.span_names().contains(&layer),
            "trace must cover `{layer}`: {:?}",
            summary.span_names()
        );
    }

    let by_kind: Vec<String> = metric_names(&ma)
        .into_iter()
        .filter(|name| name.starts_with("csp.passes."))
        .collect();
    assert!(
        by_kind.iter().any(|name| name == "csp.passes.prod"),
        "no PROD passes recorded: {by_kind:?}"
    );
    let passes: u64 = by_kind.iter().filter_map(|name| tracer.counter(name)).sum();
    assert_eq!(Some(passes), tracer.counter("csp.propagations"));

    let (jc, _) = traced_tune_with(&Tracer::manual(), 8);
    assert_ne!(ja, jc, "different seeds gave identical traces");
}

/// Under the real monotonic clock only the timestamps may differ between
/// same-seed runs: after zeroing `t_ns`, the event sequences are
/// byte-identical.
#[test]
fn real_clock_traces_match_after_timestamp_normalisation() {
    let (ja, _) = traced_tune_with(&Tracer::real(), 7);
    let (jb, _) = traced_tune_with(&Tracer::real(), 7);
    assert_eq!(
        normalize_jsonl(&ja),
        normalize_jsonl(&jb),
        "same-seed real-clock traces diverged beyond timestamps"
    );
}

/// Killing a session at an iteration boundary and resuming it from the
/// checkpoint reproduces the *trace* of the uninterrupted run's second
/// half, byte for byte — not just the final scores.
#[test]
fn resumed_trace_matches_uninterrupted_suffix() {
    let seed = 13;
    let rate = 0.2;
    let config = TuneConfig::quick(32);

    // Uninterrupted reference: attach a fresh tracer at the trial-16
    // boundary, so it records exactly the second half of the session.
    let mut full = Tuner::new(space(), Measurer::new(heron::dla::v100()), config, seed)
        .with_faults(FaultPlan::uniform(seed, rate));
    assert!(
        !full.run_until(16),
        "32-trial session must not finish by 16"
    );
    let t_full = Tracer::manual();
    full.set_tracer(t_full.clone());
    full.run();

    // Interrupted run: checkpoint at the same boundary, resume in a
    // brand-new tuner with its own fresh tracer.
    let mut first = Tuner::new(space(), Measurer::new(heron::dla::v100()), config, seed)
        .with_faults(FaultPlan::uniform(seed, rate));
    assert!(!first.run_until(16));
    let ckpt = TuneCheckpoint::from_text(&first.checkpoint().to_text()).expect("roundtrips");
    let mut second = Tuner::resume(
        space(),
        Measurer::new(heron::dla::v100()),
        config,
        FaultPlan::uniform(seed, rate),
        &ckpt,
    )
    .expect("checkpoint applies");
    let t_res = Tracer::manual();
    second.set_tracer(t_res.clone());
    second.run();

    let (full_trace, res_trace) = (t_full.to_jsonl(), t_res.to_jsonl());
    assert!(!res_trace.is_empty(), "resumed session must emit events");
    assert_eq!(
        res_trace, full_trace,
        "post-resume trace diverged from the uninterrupted run"
    );
    assert_eq!(
        deterministic_metrics(&t_full.metrics_tsv()),
        deterministic_metrics(&t_res.metrics_tsv())
    );
    check_trace(&res_trace).expect("resumed trace is balanced");
}

/// Renders the full `insight.json` document a tuning session would emit.
fn insight_json(seed: u64, trials: usize, kill_at: Option<usize>) -> String {
    let mut tuner = Tuner::new(
        space(),
        Measurer::new(heron::dla::v100()),
        TuneConfig::quick(trials),
        seed,
    )
    .with_faults(FaultPlan::uniform(seed, 0.2))
    .with_insight(8);
    if let Some(boundary) = kill_at {
        // Kill at the boundary, roundtrip the checkpoint through its text
        // encoding (insight state included), resume in a brand-new tuner.
        assert!(!tuner.run_until(boundary), "session must not finish early");
        let ckpt =
            TuneCheckpoint::from_text(&tuner.checkpoint().to_text()).expect("ckpt roundtrips");
        tuner = Tuner::resume(
            space(),
            Measurer::new(heron::dla::v100()),
            TuneConfig::quick(trials),
            FaultPlan::uniform(seed, 0.2),
            &ckpt,
        )
        .expect("checkpoint applies");
    }
    tuner.run();
    let log = tuner.insight().expect("insight enabled");
    let doc = heron::insight::analyze(log).to_json(log);
    heron::insight::validate_insight(&doc).expect("schema-valid insight");
    doc.render_pretty()
}

/// Search-health analytics are part of the determinism contract:
/// same-seed sessions emit byte-identical `insight.json` documents,
/// different seeds diverge.
#[test]
fn insight_reports_are_byte_identical_for_same_seed() {
    let a = insight_json(7, 24, None);
    let b = insight_json(7, 24, None);
    assert_eq!(a, b, "same-seed insight.json diverged");

    let c = insight_json(8, 24, None);
    assert_ne!(a, c, "different seeds gave identical insight.json");
}

/// Insight-exact resume: killing a session at an iteration boundary and
/// resuming from the text checkpoint yields an `insight.json` byte-
/// identical to the uninterrupted run's — the analyzer sees the same
/// rounds, refits and coverage either way.
#[test]
fn resumed_insight_report_matches_uninterrupted_run() {
    let full = insight_json(13, 32, None);
    let resumed = insight_json(13, 32, Some(16));
    assert_eq!(resumed, full, "post-resume insight.json diverged");
}

/// `BENCH_heron.json` holds the expected scores `heron-hostbench` checks
/// its seed-2023, 300-trial v100 tunes against: each row's `best_gflops`
/// (only the rows hostbench tunes carry one) and the 64-sample
/// `CSP_initial` probe of its space. This test pins the probe half, run
/// exactly as hostbench's traced pass runs it, to the counts and the bits
/// of `sol_per_kprop`.
///
/// The shape assertions come first because hostbench cannot fail on the
/// file's shape: a missing or unreadable file, or a missing row, makes it
/// skip its check and still report a correct run. So here a missing or
/// unparseable file, another seed or budget, or a `gemm-512` or
/// `c2d-14x64` row without a `best_gflops`, fails.
#[test]
fn committed_bench_scores_pin_the_solver_probe() {
    use heron::csp::{SolvePolicy, SolveSession};
    use heron::tensor::ops;
    use heron::trace::{Cursor, Json};

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_heron.json");
    let text = std::fs::read_to_string(path).expect("BENCH_heron.json is readable");
    let doc = heron::trace::json::parse(&text).expect("BENCH_heron.json parses");
    let doc = Cursor::new(&doc, "$");
    assert_eq!(doc.u64("seed"), Ok(2023));
    assert_eq!(doc.u64("trials"), Ok(300));
    let rows = doc.arr("workloads").expect("BENCH_heron.json shape");
    for tuned in ["gemm-512", "c2d-14x64"] {
        let row = rows
            .items()
            .find(|row| row.str("name") == Ok(tuned))
            .unwrap_or_else(|| panic!("BENCH_heron.json has no `{tuned}` row"));
        row.num("best_gflops").expect("BENCH_heron.json shape");
    }

    let mut moved = String::new();
    for row in rows.items() {
        let name = row.str("name").expect("BENCH_heron.json shape");
        let dag = match name {
            "gemm-256" => ops::gemm(256, 256, 256),
            "gemm-512" => ops::gemm(512, 512, 512),
            "c2d-14x64" => ops::conv2d(ops::Conv2dConfig::new(1, 14, 14, 64, 64, 3, 3, 1, 1)),
            other => panic!("BENCH_heron.json row `{other}` names no known workload"),
        };
        let space = SpaceGenerator::new(heron::dla::v100())
            .generate_named(&dag, &SpaceOptions::heron(), name)
            .expect("generates");
        let stats = SolveSession::new(&space.csp)
            .solve(
                &mut HeronRng::from_seed(2023),
                64,
                &SolvePolicy::default(),
                &Tracer::disabled(),
            )
            .stats;
        let per_kprop = stats.solutions as f64 * 1000.0 / stats.propagations as f64;
        let pinned = (
            row.u64("randsat_solutions"),
            row.u64("randsat_propagations"),
            row.num("sol_per_kprop").map(f64::to_bits),
        );
        if pinned
            != (
                Ok(stats.solutions),
                Ok(stats.propagations),
                Ok(per_kprop.to_bits()),
            )
        {
            moved += &format!(
                "\n  {name}: \"randsat_solutions\": {}, \"randsat_propagations\": {}, \
                 \"sol_per_kprop\": {}",
                stats.solutions,
                stats.propagations,
                Json::Num(per_kprop).render()
            );
        }
    }
    assert!(
        moved.is_empty(),
        "the solver probe no longer matches BENCH_heron.json; it now reads:{moved}"
    );
}

/// RandSAT (constraint-guided random sampling) is a pure function of
/// (CSP, seed): same seed, same solutions, in the same order.
#[test]
fn rand_sat_is_reproducible() {
    let s = space();
    let sample = |seed: u64| -> Vec<Vec<i64>> {
        let mut rng = HeronRng::from_seed(seed);
        heron_testkit::solve_once(&s.csp, &mut rng, 8, &heron::csp::SolvePolicy::default())
            .solutions
            .iter()
            .map(|sol| sol.values().to_vec())
            .collect()
    };
    let a = sample(11);
    let b = sample(11);
    assert_eq!(a, b, "same-seed RandSAT outputs diverged");
    assert_eq!(a.len(), 8);

    let c = sample(12);
    assert_ne!(a, c, "different seeds gave identical RandSAT outputs");
}

/// The real tune the in-situ pins below share: 64 trials of gemm-256 on
/// v100, seed 2023, traced and with insight on.
fn real_tune() -> (Tuner, Tracer) {
    let dag = heron::tensor::ops::gemm(256, 256, 256);
    let space = SpaceGenerator::new(heron::dla::v100())
        .generate_named(&dag, &SpaceOptions::heron(), "gemm-256")
        .expect("generates");
    let tracer = Tracer::manual();
    let mut tuner = Tuner::new(
        space,
        Measurer::new(heron::dla::v100()),
        TuneConfig::quick(64),
        2023,
    )
    .with_insight(8);
    tuner.set_tracer(tracer.clone());
    tuner.run();
    (tuner, tracer)
}

/// The solver work of a real tune, pinned: a 64-trial gemm-256 tune on
/// v100 sums to exactly these `SolveStats` over all its `csp.solve` calls
/// (population sampling and pinned offspring re-solves alike). Engine
/// changes that claim "same work, less time" must leave every number as
/// it is; a change that moves one is a schedule change and says so (see
/// DESIGN.md §5, "when goldens may move").
#[test]
fn solver_work_of_a_real_tune_is_pinned() {
    let (tuner, tracer) = real_tune();
    let work: Vec<(&str, u64)> = [
        "csp.propagations",
        "csp.wipeouts",
        "csp.attempts",
        "csp.restarts",
        "csp.escalations",
        "csp.solutions",
        "csp.incremental_hits",
    ]
    .into_iter()
    .map(|name| (name, tracer.counter(name).unwrap_or(0)))
    .collect();
    let deepest_trail = tuner
        .insight()
        .expect("insight enabled")
        .rounds
        .iter()
        .map(|r| r.solver_max_trail)
        .max();
    assert_eq!(
        work,
        [
            ("csp.propagations", 273_662),
            ("csp.wipeouts", 15_938),
            ("csp.attempts", 292),
            ("csp.restarts", 60),
            ("csp.escalations", 6),
            ("csp.solutions", 232),
            ("csp.incremental_hits", 160),
        ]
    );
    assert_eq!(deepest_trail, Some(263));
}

/// The `cost` layer's half of the same gate: the number of refits, the
/// rows they saw, and the models themselves — the final one's prediction
/// on every training sample and every refit's top importances, folded
/// bit for bit — are what the tune above produced before the tree fit was rewritten over a
/// rank-coded column store. A faster fit must be the same fit: the low
/// bits of a gain decide `top_features`, and through it CGA's key
/// variables (DESIGN.md §5, "Summation order is part of the model's
/// contract").
#[test]
fn cost_model_of_a_real_tune_is_pinned() {
    let (tuner, tracer) = real_tune();
    assert_eq!(
        cost_model_pin(&tuner, &tracer),
        (8, 288, 0x781f_3776_8dd0_153b)
    );
}

/// `(cost.fits, rows over all cost.fit spans, model fold)` of a finished
/// traced tune with insight on. The fold is FNV-1a over the final model's
/// prediction on every training sample, then every refit's
/// `importance_topk`, bit for bit.
fn cost_model_pin(tuner: &Tuner, tracer: &Tracer) -> (u64, u64, u64) {
    let fit_rows: u64 = check_trace(&tracer.to_jsonl())
        .expect("balanced trace")
        .spans
        .iter()
        .filter(|s| s.name == "cost.fit")
        .filter_map(|s| s.fields.iter().find(|(k, _)| k == "rows"))
        .map(|(_, rows)| rows.parse::<u64>().expect("row count"))
        .sum();
    let model = tuner.model();
    let mut fold = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a over 64-bit words
    let mut mix = |word: u64| fold = (fold ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    for (values, _) in &tuner.checkpoint().samples {
        mix(model.predict(&Solution::new(values.clone())).to_bits());
    }
    // Every refit's `importance_topk`, the final model's last.
    for refit in &tuner.insight().expect("insight enabled").refits {
        for &(var, importance) in &refit.top_importance {
            mix(u64::from(var));
            mix(importance.to_bits());
        }
    }
    (tracer.counter("cost.fits").unwrap_or(0), fit_rows, fold)
}

/// The model pin where the refit is the host cost: gemm-512 on VTA and on
/// DL Boost, whose features take a handful of distinct values each, tuned
/// long enough that the last refits see a few hundred rows. These are the
/// fits the tree's multi-lane counting sort and bucket-wise scan are for;
/// the 64-trial v100 pin above sees eight fits of at most 64 rows.
/// Constants recorded before the split search was rewritten.
#[test]
fn cost_model_of_vta_and_dlboost_tunes_are_pinned() {
    let pins: Vec<(u64, u64, u64)> = [heron::dla::vta(), heron::dla::dlboost()]
        .into_iter()
        .map(|dla| {
            let space = SpaceGenerator::new(dla.clone())
                .generate_named(
                    &heron::tensor::ops::gemm(512, 512, 512),
                    &SpaceOptions::heron(),
                    "gemm-512",
                )
                .expect("generates");
            let tracer = Tracer::manual();
            let mut tuner =
                Tuner::new(space, Measurer::new(dla), TuneConfig::quick(320), 2023).with_insight(8);
            tuner.set_tracer(tracer.clone());
            tuner.run();
            cost_model_pin(&tuner, &tracer)
        })
        .collect();
    assert_eq!(
        pins,
        [
            (43, 7_191, 0x4453_4187_279e_5f08),
            (43, 7_278, 0x4b61_7615_5757_8f81),
        ],
        "pins {pins:#x?}"
    );
}

/// The graph layer's companion of the solver pin: a bottleneck block
/// compiled at a fixed seed has exactly this end-to-end latency, to the bit,
/// and this tuning-cache accounting. `compile` tunes a network's distinct
/// workloads concurrently; these are the numbers the one-at-a-time compile
/// produced, and no worker count or thread interleaving may move them.
#[test]
fn compiled_model_of_a_small_network_is_pinned() {
    let graph = heron::graph::models::resnet_bottleneck(1, 56, 256, 64, false);
    let fused = heron::graph::fuse(&graph);
    let opts = heron::graph::CompileOptions {
        trials: 12,
        seed: 2023,
    };
    let model = heron::graph::compile(&graph, &fused, &heron::dla::v100(), &opts);
    assert_eq!((model.tuned_workloads, model.cache_hits), (3, 0));
    assert_eq!(
        model.latency_s().to_bits(),
        0x3f10_5f53_6955_7554,
        "latency {} s",
        model.latency_s()
    );
}

/// The baseline paths that re-solve a space under pinned tunables — the
/// classic and constraint-handling explorers, the AKG ladder, the vendor
/// menu and library materialisation — pinned on a small gemm space at
/// seed 2023. Each explorer, at a 48-step and a 5-step budget, folds to FNV-1a over the fingerprint of every
/// program it measured, then its curve's bits; the two outcomes pin their
/// throughput's bits, and the library the kernel's fingerprint.
#[test]
fn baseline_paths_are_pinned() {
    use heron::core::explore::classic::{GaExplorer, RandomExplorer, SaExplorer};
    use heron::core::explore::variants::{
        InfeasibilityDrivenGa, SatDecoderGa, StochasticRankingGa,
    };
    use heron::core::explore::Explorer;
    use heron::core::library::{KernelLibrary, LibraryEntry};
    use heron::core::tuner::evaluate;

    let spec = heron::dla::v100();
    let dag = heron::tensor::ops::gemm(256, 256, 256);
    let space = SpaceGenerator::new(spec.clone())
        .generate_named(&dag, &SpaceOptions::heron(), "pin")
        .expect("generates");
    let measurer = Measurer::new(spec.clone());
    let fnv = |words: &mut dyn Iterator<Item = u64>| {
        words.fold(0xcbf2_9ce4_8422_2325_u64, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    };
    let explorers: Vec<Box<dyn Explorer>> = vec![
        Box::new(RandomExplorer),
        Box::new(SaExplorer),
        Box::new(GaExplorer),
        Box::new(StochasticRankingGa),
        Box::new(SatDecoderGa),
        Box::new(InfeasibilityDrivenGa),
    ];
    let digest = |explorer: &mut dyn Explorer, steps: usize| {
        let mut rng = HeronRng::from_seed(2023);
        let mut measured = Vec::new();
        let mut measure = |sol: &Solution| {
            measured.push(sol.fingerprint());
            evaluate(&space, &measurer, sol).ok().map(|(_, m)| m.gflops)
        };
        let curve = explorer.explore(&space, &mut measure, steps, &mut rng);
        let bits = curve.iter().map(|s| s.to_bits());
        fnv(&mut measured.into_iter().chain(bits))
    };
    // 48 steps reach every explorer's evolution loop; 5 steps stop each
    // GA inside its seed population (10 for GA-1/GA-3, 20 for GA/GA-2),
    // so RAND and the four GAs measure the same first five solver samples.
    let curves: Vec<(&str, u64, u64)> = explorers
        .into_iter()
        .map(|mut explorer| {
            let long = digest(explorer.as_mut(), 48);
            let short = digest(explorer.as_mut(), 5);
            (explorer.name(), long, short)
        })
        .collect();

    let akg = heron::baselines::akg_outcome(&spec, &dag, "pin", 2023).expect("gpu schedule");
    let vendor = heron::baselines::vendor_outcome(&spec, &dag, "pin", 2023).expect("vendor");

    let mut rng = HeronRng::from_seed(2023);
    let sol = heron::csp::SolveSession::new(&space.csp)
        .solve(
            &mut rng,
            1,
            &heron::csp::SolvePolicy::default(),
            &Tracer::disabled(),
        )
        .expect_sat("pin space")
        .remove(0);
    let mut lib = KernelLibrary::new();
    lib.insert(
        "pin",
        LibraryEntry {
            dla: spec.name.clone(),
            gflops: 1.0,
            latency_s: 1.0,
            tunables: space
                .csp
                .tunables()
                .into_iter()
                .map(|v| (space.csp.var(v).name.clone(), sol.value(v)))
                .collect(),
        },
    );
    let kernel = lib.materialize("pin", &dag, &spec).expect("materialises");

    let pins = (
        curves,
        akg.gflops.to_bits(),
        vendor.gflops.to_bits(),
        kernel.fingerprint,
    );
    let expected = (
        vec![
            ("RAND", 0x20fb_e0b1_f42d_b75d, 0xb9e0_0188_7844_1816),
            ("SA", 0x5515_fd0f_7b74_2737, 0x8647_c103_37de_1106),
            ("GA", 0x8af2_044a_90bb_7b20, 0xb9e0_0188_7844_1816),
            ("GA-1", 0xe5e3_c068_acd2_3596, 0xb9e0_0188_7844_1816),
            ("GA-2", 0xe1e2_3146_fdbe_3c4e, 0xb9e0_0188_7844_1816),
            ("GA-3", 0x7853_944a_3510_ffd8, 0xb9e0_0188_7844_1816),
        ],
        0x40a5_0d90_7f10_5441,
        0x40a0_586b_3c84_9f1e,
        0xc82c_939b_044a_dc93,
    );
    assert_eq!(pins, expected, "pins {pins:#x?}");
}
