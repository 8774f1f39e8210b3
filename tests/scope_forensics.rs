//! Flight-recorder and postmortem forensics regression suite
//! (DESIGN.md §12).
//!
//! The forensic artifacts — per-job flight-recorder rings, crash
//! postmortem bundles, and the policy's `scope.json` schedule —
//! exist to be *diffed*: against a previous run, against a healthy
//! baseline, against the same incident on another machine. That only
//! works if they are byte-deterministic functions of (script, seeds,
//! chaos plan), so these tests run the same chaos scenario twice and
//! require every artifact byte-identical, and pin the postmortem
//! emission contract (exactly one bundle per confirmed death, hangs
//! included).

use heron::scope::{build_scope, validate_scope};
use heron::serve::{check_postmortem, parse_script, JobState, Supervisor};
use heron::trace::Json;

/// A chaos scenario that exercises all three death paths: a recovered
/// crash, a confirmed hang, and a poisoned job that exhausts its
/// restart budget into quarantine.
const CHAOS_SCRIPT: &str = "\
workers = 2
queue_capacity = 8
restart_budget = 1
checkpoint_every = 2
hang_grace_polls = 200
poll_interval_ms = 5

job a op=gemm shape=64x64x64 trials=32 seed=41
job b op=gemm shape=96x96x96 trials=24 seed=42
job c op=gemm shape=64x96x64 trials=24 seed=43

kill a attempt=0 round=3 kind=crash
kill b attempt=0 round=2 kind=hang
kill c attempt=0 round=1 kind=crash
kill c attempt=1 round=2 kind=crash
";

fn run_chaos() -> Supervisor {
    let script = parse_script(CHAOS_SCRIPT).expect("script parses");
    let mut sup = Supervisor::from_script(script);
    sup.run();
    sup
}

#[test]
fn same_seed_chaos_runs_yield_byte_identical_forensics() {
    let first = run_chaos();
    let second = run_chaos();

    // Ring contents: every job's last flight deposit (rounds, simulated
    // clock, ring snapshot JSONL) is reproduced byte for byte.
    let rings = first.recorder().entries();
    assert!(!rings.is_empty(), "chaos run deposited no flight entries");
    assert_eq!(rings, second.recorder().entries(), "ring contents differ");
    for (job, entry) in &rings {
        heron::trace::check_ring_snapshot(&entry.ring_jsonl)
            .unwrap_or_else(|e| panic!("job `{job}` ring snapshot invalid: {e}"));
    }

    // Postmortem bundles: same set, same bytes, and each validates.
    let bundles = first.postmortems();
    assert_eq!(bundles, second.postmortems(), "postmortem bundles differ");
    for pm in bundles {
        check_postmortem(&pm.bundle)
            .unwrap_or_else(|e| panic!("bundle `{}` invalid: {e}", pm.file));
    }

    // The schedule document, rendered bytes included.
    let scope = |sup: &Supervisor| build_scope(&sup.timeline(), &sup.pulse_input().jobs);
    let (scope_a, scope_b) = (scope(&first), scope(&second));
    validate_scope(&scope_a).expect("scope document validates");
    assert_eq!(
        scope_a.render_pretty(),
        scope_b.render_pretty(),
        "scope.json differs across same-seed runs"
    );
    let makespan = scope_a.get("makespan_ns").and_then(Json::as_u64);
    assert_eq!(
        scope_a.get("critical_sum_ns").and_then(Json::as_u64),
        makespan,
        "critical-path sum must equal the makespan exactly"
    );
    assert_ne!(makespan, Some(0), "chaos run has a non-zero makespan");
}

#[test]
fn postmortems_fire_exactly_once_per_confirmed_death() {
    let sup = run_chaos();

    // The scenario's deaths: a crashes once (recovers), b hangs once
    // (recovers), c crashes twice and the second death also quarantines
    // it (restart_budget = 1).
    assert_eq!(sup.state("a"), Some(JobState::Completed));
    assert_eq!(sup.state("b"), Some(JobState::Completed));
    assert_eq!(sup.state("c"), Some(JobState::Quarantined));

    let bundles = sup.postmortems();
    let files: Vec<&str> = bundles.iter().map(|p| p.file.as_str()).collect();
    assert_eq!(
        files,
        [
            "a.attempt0.crash.jsonl",
            "b.attempt0.hang.jsonl",
            "c.attempt0.crash.jsonl",
            "c.attempt1.crash.jsonl",
            "c.attempt1.quarantine.jsonl",
        ],
        "one bundle per confirmed death, canonical order"
    );

    // The hang contract specifically: one confirmed hang ⇒ exactly one
    // hang bundle, even though the watchdog polls the stalled worker
    // `hang_grace_polls` times before confirming.
    let hangs = bundles.iter().filter(|p| p.reason == "hang").count();
    assert_eq!(sup.tracer().counter("serve.hangs_detected"), Some(1));
    assert_eq!(hangs, 1, "exactly one postmortem per confirmed hang");

    // And the counter matches the bundle list it summarises.
    assert_eq!(
        sup.tracer().counter("serve.postmortems"),
        Some(bundles.len() as u64)
    );
}
