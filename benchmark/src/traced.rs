//! The traced pass: per-layer metrics of one workload.
//!
//! A `Tracer::real()` is attached through the existing `Tuner::set_tracer`,
//! so the spans and counters the layers already record (`tuner.step`,
//! `cga.populate`, `cga.evolve`, `csp.solve`, `measure.batch`, `model.fit`,
//! `cost.fit`) carry host time; the harness adds its own spans, with parent
//! ids, around each public call it makes (`generate.space`, `tuner.new`,
//! `checkpoint.*`, `graph.*`, `serve.*`). Spans stay in memory and are
//! written to `out/trace_<workload>.jsonl` when the passes are over. A
//! layer's self time is its span minus its children. Counts come from the
//! tracer's counters and must repeat exactly between passes.
//!
//! Traced passes alternate with untraced passes over the same units; the
//! difference is the tracing overhead.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use heron_baselines::tune::heron_config;
use heron_core::tuner::{TuneResult, Tuner};
use heron_core::TuneCheckpoint;
use heron_csp::{SolvePolicy, SolveSession, SpaceCensus};
use heron_dla::{FaultPlan, Measurer};
use heron_graph::compile::CompiledKind;
use heron_graph::{fuse, models, CompiledModel};
use heron_rng::HeronRng;
use heron_serve::{parse_script, Supervisor};
use heron_trace::{check_trace, profile_from_summary, ProfileNode, Tracer};

use crate::checks::{committed_scores, verify_service, Checks};
use crate::measure::{another_pass, timed};
use crate::names::PER_LAYER;
use crate::procfs;
use crate::stats::{max, median, min, ratio};
use crate::workloads::{distinct_mac_layers, Artifact, Outcome, TuneUnit, Unit};

/// Fewest traced passes: two, so that counts can be shown to repeat.
const MIN_TRACED_PASSES: usize = 2;
/// Rounds of the drilled unit after which the session is checkpointed,
/// serialised, parsed and resumed.
const DRILL_ROUNDS: [usize; 3] = [10, 20, 30];
/// Fresh samples drawn by the solver probe, as `bench_snapshot` draws them.
const PROBE_SAMPLES: usize = 64;

/// Counters the layers record whose totals are reported and must repeat.
const COUNTERS: [(&str, &str); 22] = [
    ("csp.propagations", "csp.propagations"),
    ("csp.wipeouts", "csp.wipeouts"),
    ("csp.attempts", "csp.attempts"),
    ("csp.restarts", "csp.restarts"),
    ("csp.escalations", "csp.escalations"),
    ("csp.solutions", "csp.solutions"),
    ("csp.incremental_hits", "csp.incremental_hits"),
    ("cga.offspring_attempted", "cga.offspring_attempted"),
    ("cga.offspring_invalid", "cga.offspring_invalid"),
    ("cga.fallback_samples", "cga.fallback_samples"),
    ("csp.repairs", "cga.repairs"),
    ("csp.relaxed_constraints", "cga.relaxed_constraints"),
    ("cost.fits", "cost.fits"),
    ("model.predicts", "cost.predicts"),
    ("measure.trials", "dla.trials"),
    ("dla.measure_attempts", "dla.measure_attempts"),
    ("measure.invalid_trials", "dla.invalid_trials"),
    ("measure.retries", "dla.retries"),
    ("tuner.steps", "tuner.steps"),
    ("serve.jobs_completed", "serve.jobs_completed"),
    ("serve.attempts", "serve.attempts"),
    ("serve.recoveries", "serve.recoveries"),
];

/// Per-layer metric values by registered name; a layer that did no work on
/// this workload reads 0.
#[derive(Debug, Default)]
pub struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a registered per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// The value of `name` (0 when the workload never set it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Facts a pass gathers outside the tracer.
#[derive(Debug, Default)]
struct PassFacts {
    vars: u64,
    constraints: u64,
    checkpoint_bytes: u64,
    hw_measure_sim_s: f64,
    rank_accuracy: Vec<f64>,
    tuned_workloads: u64,
    cache_hits: u64,
    store_saves: u64,
    stale_saves: u64,
    postmortems: u64,
    /// Seconds spent in checkpoint drills, which are not part of a unit.
    drill_s: f64,
    serve_cpu_s: f64,
    serve_workers: u64,
}

/// One direct tune session: what `heron_baselines::tune(Heron)` does, with
/// a tracer attached and, on a drilled unit, the checkpoint round trips.
fn tune_direct(
    unit: &TuneUnit,
    tracer: &Tracer,
    facts: &mut PassFacts,
    checks: &mut Checks,
) -> TuneResult {
    let _unit = tracer.span_with("bench.unit", || [("unit", unit.workload.name.clone())]);
    let space = {
        let _s = tracer.span("generate.space");
        unit.space()
    };
    let mut tuner = {
        let _s = tracer.span("tuner.new");
        unit.session(space)
    };
    if unit.insight {
        tuner.enable_insight(8);
    }
    tuner.set_tracer(tracer.clone());
    while tuner.step() {
        if unit.drill && tracer.is_enabled() && DRILL_ROUNDS.contains(&tuner.rounds_total()) {
            let (resumed, drill_s) = timed(|| drill(&tuner, unit, tracer, facts));
            facts.drill_s += drill_s;
            checks.check("checkpoint round trip", resumed.is_ok(), || {
                resumed.as_ref().err().cloned().unwrap_or_default()
            });
            if let Ok(t) = resumed {
                tuner = t;
            }
        }
    }
    let result = tuner.result();
    if tracer.is_enabled() {
        let census = SpaceCensus::of(&tuner.space().csp);
        facts.vars += census.total_vars() as u64;
        facts.constraints += census.total_constraints() as u64;
        facts.hw_measure_sim_s += result.timing.hw_measure_s;
        facts
            .rank_accuracy
            .push(result.model_rank_accuracy.unwrap_or(0.0));
    }
    result
}

/// Captures `tuner`, serialises, parses and resumes it; the returned
/// session replaces the running one, so the unit's final result has been
/// through every round trip.
fn drill(
    tuner: &Tuner,
    unit: &TuneUnit,
    tracer: &Tracer,
    facts: &mut PassFacts,
) -> Result<Tuner, String> {
    let _d = tracer.span("bench.drill");
    let checkpoint = {
        let _s = tracer.span("checkpoint.capture");
        tuner.checkpoint()
    };
    let text = {
        let _s = tracer.span("checkpoint.to_text");
        checkpoint.to_text()
    };
    facts.checkpoint_bytes += text.len() as u64;
    let parsed = {
        let _s = tracer.span("checkpoint.from_text");
        TuneCheckpoint::from_text(&text).map_err(|e| format!("checkpoint does not parse: {e}"))?
    };
    let space = tuner.space().clone();
    let mut resumed = {
        let _s = tracer.span("checkpoint.resume");
        Tuner::resume(
            space,
            Measurer::new(unit.dla.clone()),
            heron_config(unit.trials),
            FaultPlan::none(unit.seed),
            &parsed,
        )
        .map_err(|e| format!("checkpoint does not resume: {e}"))?
    };
    resumed.set_tracer(tracer.clone());
    Ok(resumed)
}

fn outcome_of(unit: &TuneUnit, r: &TuneResult) -> Outcome {
    Outcome::of_tune(unit.trials, r.best_gflops, r.valid_trials, r.invalid_trials)
}

/// Replays `heron_graph::compile`'s loop layer by layer — each distinct MAC
/// layer tuned once, the rest served from the cache — under harness spans,
/// and checks that the replay reproduces `compile()`'s latency bit for bit.
fn compile_traced(
    (batch, trials, seed): (i64, usize, u64),
    reference: &CompiledModel,
    tracer: &Tracer,
    facts: &mut PassFacts,
    checks: &mut Checks,
) -> Outcome {
    let _unit = tracer.span_with("bench.unit", || [("unit", format!("resnet50-b{batch}"))]);
    let (graph, fused) = {
        let _s = tracer.span("graph.build_fuse");
        let graph = models::resnet50(batch);
        let fused = fuse(&graph);
        (graph, fused)
    };
    let _c = tracer.span("graph.compile");
    let mut cache: BTreeMap<&str, f64> = BTreeMap::new();
    let mut to_tune = distinct_mac_layers(&graph, &fused, trials, seed).into_iter();
    let mut latency = 0.0;
    let mut hits = 0;
    // Σ in layer order, exactly as `CompiledModel::latency_s` sums.
    for layer in &reference.layers {
        latency += match &layer.kind {
            CompiledKind::Tuned { key, .. } => match cache.get(key.as_str()) {
                Some(&hit) => {
                    hits += 1;
                    hit
                }
                None => {
                    let unit = to_tune.next().expect("one unit per distinct MAC layer");
                    let tuned = tune_direct(&unit, tracer, facts, checks).best_latency_s;
                    cache.insert(key, tuned);
                    tuned
                }
            },
            // Memory-bound passes are costed analytically, not tuned.
            CompiledKind::Memory { .. } => layer.latency_s,
        };
    }
    facts.tuned_workloads += cache.len() as u64;
    facts.cache_hits += hits;
    checks.check(
        "layer-by-layer replay equals compile()",
        latency.to_bits() == reference.latency_s().to_bits()
            && cache.len() == reference.tuned_workloads
            && hits as usize == reference.cache_hits,
        || {
            format!(
                "replayed {latency} s, compile() {} s",
                reference.latency_s()
            )
        },
    );
    Outcome::of_compile(&graph, reference, trials)
}

/// The service run under harness spans.
fn serve_traced(script: &str, tracer: &Tracer, facts: &mut PassFacts) -> (Outcome, Supervisor) {
    let _unit = tracer.span_with("bench.unit", || [("unit", "service".to_string())]);
    let parsed = {
        let _s = tracer.span("serve.parse");
        parse_script(script).expect("generated scripts parse")
    };
    facts.serve_workers = parsed.config.workers as u64;
    let mut sup = {
        let _s = tracer.span("serve.submit");
        Supervisor::from_script(parsed)
    };
    let cpu_before = procfs::cpu_seconds();
    {
        let _s = tracer.span("serve.run");
        sup.run();
    }
    if let (Some(a), Some(b)) = (cpu_before, procfs::cpu_seconds()) {
        facts.serve_cpu_s = b - a;
    }
    let rows = sup.rows();
    tracer.counter_add(
        "serve.jobs_completed",
        sup.tracer().counter("serve.jobs_completed").unwrap_or(0),
    );
    tracer.counter_add(
        "serve.attempts",
        rows.iter().map(|r| u64::from(r.attempts)).sum(),
    );
    tracer.counter_add(
        "serve.recoveries",
        rows.iter().map(|r| u64::from(r.recoveries)).sum(),
    );
    facts.store_saves = sup.store().saves();
    facts.stale_saves = sup.store().stale_saves();
    facts.postmortems = sup.postmortems().len() as u64;
    (Outcome::of_service(&sup), sup)
}

/// What one pass over every unit produced.
struct Pass {
    outcomes: Vec<Outcome>,
    /// Seconds per unit, checkpoint drills excluded.
    walls: Vec<f64>,
    facts: PassFacts,
    left: Vec<Artifact>,
    /// `determinism_fingerprint` per tune unit (0 for other units).
    fingerprints: Vec<u64>,
}

/// One pass over every unit: untraced (tracer disabled) through the units'
/// own timed bodies, or traced, with what the untraced pass left behind as
/// the reference a replayed compile is checked against.
fn pass(units: &[Unit], tracer: &Tracer, references: &[Artifact], checks: &mut Checks) -> Pass {
    let mut facts = PassFacts::default();
    let mut outcomes = Vec::new();
    let mut walls = Vec::new();
    let mut left = Vec::new();
    let mut fingerprints = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        let drill_before = facts.drill_s;
        let ((outcome, artifact, fingerprint), wall) = timed(|| match (unit, references.get(i)) {
            (Unit::Tune(u), _) => {
                let r = tune_direct(u, tracer, &mut facts, checks);
                (
                    outcome_of(u, &r),
                    Artifact::None,
                    r.determinism_fingerprint(),
                )
            }
            (
                Unit::Compile {
                    batch,
                    trials,
                    seed,
                },
                Some(Artifact::Model(reference)),
            ) => {
                let sizes = (*batch, *trials, *seed);
                let o = compile_traced(sizes, reference, tracer, &mut facts, checks);
                (o, Artifact::None, 0)
            }
            (Unit::Serve { script }, Some(_)) => {
                let (o, sup) = serve_traced(script, tracer, &mut facts);
                (o, Artifact::Service(Box::new(sup)), 0)
            }
            (plain, _) => {
                let (o, artifact) = plain.run();
                (o, artifact, 0)
            }
        });
        outcomes.push(outcome);
        walls.push(wall - (facts.drill_s - drill_before));
        left.push(artifact);
        fingerprints.push(fingerprint);
    }
    Pass {
        outcomes,
        walls,
        facts,
        left,
        fingerprints,
    }
}

fn counters_of(tracer: &Tracer) -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|(recorded, _)| tracer.counter(recorded).unwrap_or(0))
        .collect()
}

/// Seconds and entries of every profile node whose path ends with `suffix`,
/// and the self seconds of those nodes.
fn total(node: &ProfileNode, suffix: &[&str]) -> (f64, u64, f64) {
    fn walk<'a>(
        node: &'a ProfileNode,
        path: &mut Vec<&'a str>,
        suffix: &[&str],
        acc: &mut (f64, u64, f64),
    ) {
        path.push(&node.name);
        if path.ends_with(suffix) {
            acc.0 += node.total_s;
            acc.1 += node.count;
            acc.2 += node.self_s();
        }
        for child in &node.children {
            walk(child, path, suffix, acc);
        }
        path.pop();
    }
    let mut acc = (0.0, 0, 0.0);
    walk(node, &mut Vec::new(), suffix, &mut acc);
    acc
}

/// The solver probe of `bench_snapshot`: solutions per thousand
/// propagations over [`PROBE_SAMPLES`] fresh samples of `CSP_initial`, and
/// the seconds `SolveSession::new` takes. Not part of any unit.
fn probe(units: &[TuneUnit], ledger: &mut Ledger, checks: &mut Checks) {
    let (mut solutions, mut propagations, mut session_new_s) = (0, 0, 0.0);
    for unit in units {
        let space = unit.space();
        let (mut session, new_s) = timed(|| SolveSession::new(&space.csp));
        session_new_s += new_s;
        let stats = session
            .solve(
                &mut HeronRng::from_seed(unit.seed),
                PROBE_SAMPLES,
                &SolvePolicy::default(),
                &Tracer::disabled(),
            )
            .stats;
        solutions += stats.solutions;
        propagations += stats.propagations;
        if let Some(row) = committed_scores(unit) {
            let committed = row.get("sol_per_kprop").and_then(|v| v.as_f64());
            let probed = stats.solutions as f64 * 1000.0 / stats.propagations as f64;
            checks.check(
                "solver probe equals the committed BENCH_heron.json",
                committed.map(f64::to_bits) == Some(probed.to_bits()),
                || {
                    format!(
                        "{}: committed {committed:?}, probed {probed}",
                        unit.workload.name
                    )
                },
            );
        }
    }
    ledger.set("csp.session_new_s", session_new_s);
    ledger.set(
        "csp.probe_sol_per_kprop",
        ratio(solutions as f64 * 1000.0, propagations as f64),
    );
}

/// The tune sessions a workload's units amount to: the units themselves,
/// the distinct layers of a compile, the jobs of a service script.
fn sessions(units: &[Unit]) -> Vec<TuneUnit> {
    units
        .iter()
        .flat_map(|unit| match unit {
            Unit::Tune(u) => vec![(**u).clone()],
            Unit::Compile {
                batch,
                trials,
                seed,
            } => {
                let graph = models::resnet50(*batch);
                distinct_mac_layers(&graph, &fuse(&graph), *trials, *seed)
            }
            Unit::Serve { script } => parse_script(script)
                .expect("generated scripts parse")
                .jobs
                .iter()
                .map(|spec| TuneUnit::of_job(spec).expect("generated jobs are valid"))
                .collect(),
        })
        .collect()
}

/// After the passes of a service workload: verify the last traced run
/// against uninterrupted references, then run the same jobs inline on one
/// thread with the tracer attached, which attributes the work the service
/// did to the layers and gives the time it would take without dispatch,
/// polling and redo.
fn service_epilogue(
    units: &[Unit],
    left: &[Artifact],
    tracer: &Tracer,
    facts: &mut PassFacts,
    checks: &mut Checks,
) {
    for (unit, artifact) in units.iter().zip(left) {
        let (Unit::Serve { script }, Artifact::Service(sup)) = (unit, artifact) else {
            continue;
        };
        let mut specs = parse_script(script).expect("generated scripts parse").jobs;
        {
            let _s = tracer.span("serve.verify");
            verify_service(sup, &specs, checks);
        }
        // In id order, not the seeded submission order, so that sums of
        // simulated seconds round the same way for every seed.
        specs.sort_by(|a, b| a.id.cmp(&b.id));
        let _s = tracer.span("serve.inline");
        for spec in &specs {
            let job = TuneUnit::of_job(spec).expect("generated jobs are valid");
            let result = tune_direct(&job, tracer, facts, checks);
            let served = sup.report(&spec.id).map(|r| r.fingerprint);
            checks.check(
                "inline session equals the served job",
                served == Some(result.determinism_fingerprint()),
                || format!("job {}", spec.id),
            );
        }
    }
}

/// Measures the per-layer metrics of `units` for about `seconds`.
pub fn per_layer(workload: &str, units: &[Unit], seconds: u64, smoke: bool) -> (Ledger, Checks) {
    let started = Instant::now();
    let budget = Duration::from_secs(seconds);
    let min_passes = if smoke { 1 } else { MIN_TRACED_PASSES };
    let mut checks = Checks::default();
    let mut plain_walls: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    // Per pass: traced ÷ untraced seconds − 1 over the units the harness
    // traces differently (a service traces itself either way). The two
    // halves of a pass run back to back, inside the same slow or fast phase
    // of the box, so their ratio is steadier than either time.
    let mut overheads: Vec<f64> = Vec::new();
    // (tracer, facts, artifacts, Σ unit seconds) of the fastest traced pass.
    let mut best: Option<(Tracer, PassFacts, Vec<Artifact>, f64)> = None;
    let mut first: Option<(Vec<Outcome>, Vec<u64>)> = None;
    let mut passes = 0;
    let mut last_pass_s = 0.0;

    while another_pass(passes, min_passes, started, budget, last_pass_s) {
        let pass_started = Instant::now();
        let plain = pass(units, &Tracer::disabled(), &[], &mut checks);
        for (i, w) in plain.walls.iter().enumerate() {
            plain_walls[i].push(*w);
        }
        let tracer = Tracer::real();
        let traced = pass(units, &tracer, &plain.left, &mut checks);
        let sum: f64 = traced.walls.iter().sum();
        let not_service = |walls: &[f64]| -> f64 {
            let kept = walls.iter().zip(units);
            kept.filter(|(_, u)| !matches!(u, Unit::Serve { .. }))
                .map(|(w, _)| w)
                .sum()
        };
        let plain_s = not_service(&plain.walls);
        overheads.push(ratio(not_service(&traced.walls) - plain_s, plain_s));
        let counters = counters_of(&tracer);
        checks.check(
            "traced and untraced passes produce the same results",
            traced.outcomes == plain.outcomes,
            || format!("{:?} vs {:?}", traced.outcomes, plain.outcomes),
        );
        checks.check(
            "drilled sessions finish with the uninterrupted fingerprint",
            traced.fingerprints == plain.fingerprints,
            || format!("{:x?} vs {:x?}", traced.fingerprints, plain.fingerprints),
        );
        match &first {
            None => first = Some((traced.outcomes, counters)),
            Some((o, c)) => checks.check(
                "results and counts repeat exactly between passes",
                *o == traced.outcomes && *c == counters,
                || format!("counts {c:?} vs {counters:?}"),
            ),
        }
        if best.as_ref().is_none_or(|b| sum < b.3) {
            best = Some((tracer, traced.facts, traced.left, sum));
        }
        passes += 1;
        last_pass_s = pass_started.elapsed().as_secs_f64();
        eprintln!("  pass {passes} (untraced + traced): {last_pass_s:.3} s");
    }
    let (outcomes, _) = first.expect("at least one pass ran");
    for o in &outcomes {
        checks.operations(o.budget, o.failed);
    }
    let (tracer, mut facts, left, traced_wall_s) = best.expect("at least one pass ran");
    service_epilogue(units, &left, &tracer, &mut facts, &mut checks);

    let mut ledger = Ledger::default();
    probe(&sessions(units), &mut ledger, &mut checks);

    // Export, then read the trace back the way any consumer would.
    std::fs::create_dir_all(crate::OUT_DIR).expect("the benchmark's out/ directory is writable");
    let path = format!("{}/trace_{workload}.jsonl", crate::OUT_DIR);
    let (jsonl, export_s) = timed(|| {
        let jsonl = tracer.to_jsonl();
        std::fs::write(&path, &jsonl).expect("the benchmark's out/ directory is writable");
        jsonl
    });
    let (summary, check_s) = timed(|| check_trace(&jsonl));
    checks.check("exported trace is well formed", summary.is_ok(), || {
        summary.as_ref().err().cloned().unwrap_or_default()
    });
    let summary = summary.unwrap_or_default();
    let tree = profile_from_summary(&summary);
    checks.check(
        "children never exceed their parent",
        self_times_are_consistent(&tree),
        || "a span's children sum to more than the span".to_string(),
    );

    let secs = |suffix: &[&str]| total(&tree, suffix).0;
    let entries = |suffix: &[&str]| total(&tree, suffix).1 as f64;
    let self_secs = |suffix: &[&str]| total(&tree, suffix).2;
    for ((_, reported), v) in COUNTERS.iter().zip(counters_of(&tracer)) {
        ledger.set(reported, v as f64);
    }

    ledger.set("generate.time_s", secs(&["generate.space"]));
    ledger.set("generate.spaces", entries(&["generate.space"]));
    ledger.set("generate.vars", facts.vars as f64);
    ledger.set("generate.constraints", facts.constraints as f64);

    ledger.set("csp.solve_s", secs(&["csp.solve"]));
    ledger.set("csp.fresh_s", secs(&["cga.populate", "csp.solve"]));
    ledger.set("csp.offspring_s", secs(&["cga.evolve", "csp.solve"]));
    ledger.set("csp.solve_calls", entries(&["csp.solve"]));
    ledger.set(
        "csp.sol_per_kprop",
        ratio(
            ledger.get("csp.solutions") * 1000.0,
            ledger.get("csp.propagations"),
        ),
    );

    ledger.set("cga.populate_s", secs(&["tuner.step", "cga.populate"]));
    ledger.set("cga.evolve_s", secs(&["tuner.step", "cga.evolve"]));
    ledger.set(
        "cga.evolve_self_s",
        self_secs(&["tuner.step", "cga.evolve"]),
    );
    let attempted = ledger.get("cga.offspring_attempted");
    ledger.set(
        "cga.offspring_valid_share",
        ratio(attempted - ledger.get("cga.offspring_invalid"), attempted),
    );

    ledger.set("cost.fit_s", secs(&["tuner.step", "model.fit"]));
    let fit_rows: u64 = summary
        .spans
        .iter()
        .filter(|s| s.name == "cost.fit")
        .filter_map(|s| s.fields.iter().find(|(k, _)| k == "rows"))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum();
    ledger.set("cost.fit_rows", fit_rows as f64);
    ledger.set(
        "cost.rank_accuracy_final",
        ratio(
            facts.rank_accuracy.iter().sum(),
            facts.rank_accuracy.len() as f64,
        ),
    );

    ledger.set("dla.measure_s", secs(&["tuner.step", "measure.batch"]));
    ledger.set("dla.hw_measure_sim_s", facts.hw_measure_sim_s);

    let step_s = secs(&["tuner.step"]);
    let step_ms: Vec<f64> = summary
        .spans
        .iter()
        .filter(|s| s.name == "tuner.step")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    ledger.set("tuner.new_s", secs(&["tuner.new"]));
    ledger.set("tuner.step_s", step_s);
    ledger.set("tuner.step_self_s", self_secs(&["tuner.step"]));
    ledger.set(
        "tuner.step_ms_p50",
        if step_ms.is_empty() {
            0.0
        } else {
            median(&step_ms)
        },
    );
    ledger.set(
        "tuner.step_ms_max",
        if step_ms.is_empty() {
            0.0
        } else {
            max(&step_ms)
        },
    );
    // The paper's Fig. 14 split: search computation on the host against
    // measurement on the (simulated) device.
    ledger.set(
        "tuner.search_overhead_share",
        ratio(step_s, step_s + facts.hw_measure_sim_s),
    );

    ledger.set("checkpoint.capture_s", secs(&["checkpoint.capture"]));
    ledger.set("checkpoint.to_text_s", secs(&["checkpoint.to_text"]));
    ledger.set("checkpoint.from_text_s", secs(&["checkpoint.from_text"]));
    ledger.set("checkpoint.resume_s", secs(&["checkpoint.resume"]));
    ledger.set("checkpoint.bytes", facts.checkpoint_bytes as f64);

    ledger.set("graph.build_fuse_s", secs(&["graph.build_fuse"]));
    ledger.set("graph.compile_s", secs(&["graph.compile"]));
    ledger.set("graph.tuned_workloads", facts.tuned_workloads as f64);
    ledger.set("graph.cache_hits", facts.cache_hits as f64);
    ledger.set(
        "graph.cache_hit_share",
        ratio(
            facts.cache_hits as f64,
            (facts.cache_hits + facts.tuned_workloads) as f64,
        ),
    );

    let run_s = secs(&["serve.run"]);
    let inline_s = secs(&["serve.inline"]);
    let workers = facts.serve_workers as f64;
    ledger.set("serve.run_s", run_s);
    ledger.set("serve.cpu_s", facts.serve_cpu_s);
    ledger.set(
        "serve.worker_busy_share",
        ratio(facts.serve_cpu_s, run_s * workers),
    );
    ledger.set("serve.inline_s", inline_s);
    ledger.set("serve.wait_s", run_s - ratio(inline_s, workers));
    ledger.set("serve.store_saves", facts.store_saves as f64);
    ledger.set("serve.stale_saves", facts.stale_saves as f64);
    ledger.set("serve.postmortems", facts.postmortems as f64);
    ledger.set("serve.verify_s", secs(&["serve.verify"]));

    ledger.set("trace.events", summary.events as f64);
    ledger.set("trace.overhead_share", median(&overheads));
    ledger.set("trace.export_s", export_s);
    ledger.set("trace.check_s", check_s);

    let noise: Vec<f64> = plain_walls.iter().map(|w| ratio(max(w), min(w))).collect();
    ledger.set("bench.passes", passes as f64);
    ledger.set("bench.noise_ratio", median(&noise));
    ledger.set("bench.traced_wall_s", traced_wall_s);
    ledger.set("bench.attempted", checks.attempted() as f64);
    ledger.set("bench.failed", checks.failed() as f64);
    ledger.set("bench.failed_share", checks.failed_share());
    (ledger, checks)
}

/// Whether every node's children sum to no more than the node (within the
/// nanosecond rounding of the merged totals).
pub fn self_times_are_consistent(node: &ProfileNode) -> bool {
    let covered: f64 = node.children.iter().map(|c| c.total_s).sum();
    covered <= node.total_s + 1e-6 && node.children.iter().all(self_times_are_consistent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> ProfileNode {
        let mut step = ProfileNode::new("tuner.step", 10.0).with_count(4);
        let mut evolve = ProfileNode::new("cga.evolve", 6.0).with_count(4);
        evolve.push(ProfileNode::new("csp.solve", 5.0).with_count(80));
        let mut populate = ProfileNode::new("cga.populate", 1.0).with_count(4);
        populate.push(ProfileNode::new("csp.solve", 0.75).with_count(4));
        step.push(populate).push(evolve);
        let mut root = ProfileNode::new("trace", 10.5);
        root.push(step);
        root
    }

    #[test]
    fn totals_select_by_path_suffix() {
        let t = tree();
        assert_eq!(total(&t, &["csp.solve"]), (5.75, 84, 5.75));
        assert_eq!(total(&t, &["cga.evolve", "csp.solve"]), (5.0, 80, 5.0));
        assert_eq!(total(&t, &["cga.populate", "csp.solve"]).0, 0.75);
        assert_eq!(total(&t, &["absent"]), (0.0, 0, 0.0));
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let t = tree();
        let (step_s, _, step_self_s) = total(&t, &["tuner.step"]);
        let children = total(&t, &["tuner.step", "cga.populate"]).0
            + total(&t, &["tuner.step", "cga.evolve"]).0;
        assert_eq!(step_s, children + step_self_s);
        assert_eq!(total(&t, &["cga.evolve"]).2, 1.0);
        assert!(self_times_are_consistent(&t));
    }

    #[test]
    fn children_that_exceed_their_parent_are_caught() {
        let mut t = tree();
        t.children[0].children[1].children[0].total_s = 7.0;
        assert!(!self_times_are_consistent(&t));
        // `self_s` clamps, so the ledger never reports a negative self time.
        assert_eq!(total(&t, &["cga.evolve"]).2, 0.0);
    }

    #[test]
    fn every_reported_counter_is_a_registered_exact_count() {
        for (_, reported) in COUNTERS {
            let def = crate::names::lookup(reported).expect("registered");
            assert!(def.exact && def.unit == "count", "{reported}");
        }
    }

    #[test]
    #[should_panic(expected = "not a registered per-layer metric")]
    fn a_misspelt_metric_cannot_enter_the_ledger() {
        Ledger::default().set("csp.propagation", 1.0);
    }
}
