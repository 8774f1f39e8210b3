//! Pulse-plane regression suite: per-job trace correlation and the
//! SLI/SLO engine.
//!
//! heron-pulse's contract extends the chaos proof from *results* to
//! *telemetry*: the merged service trace slices losslessly back into
//! per-job sub-traces (each a valid trace whose profile sums to that
//! job's recorded wall-clock), a recovered job's sub-trace is
//! byte-identical to an uninterrupted resume of the same checkpoint,
//! and the whole derived plane — `pulse.json`, the SLO report, the
//! `heron_status` dashboard — is byte-identical across service reruns.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use heron::pulse::{
    attach_slo, breach_count, build_pulse, render_dashboard, render_slo_report, validate_pulse,
    SloSpec,
};
use heron::serve::{parse_script, JobState, Supervisor};
use heron::trace::{check_trace, merge_traces, service_slice, slice_by_job, Json};
use heron_serve::build_session;

/// The shared chaos scenario: all three kill paths (crash after a
/// checkpoint, crash before any checkpoint, hang) on small jobs.
const SCRIPT: &str = "\
workers = 2
queue_capacity = 8
restart_budget = 2
checkpoint_every = 2
hang_grace_polls = 400
poll_interval_ms = 5

job a op=gemm shape=64x64x64 trials=32 seed=21
job b op=gemm shape=96x96x96 trials=32 seed=22 fault_rate=0.2
job c op=gemm shape=64x96x64 trials=24 seed=23

kill a attempt=0 round=3 kind=crash
kill b attempt=0 round=1 kind=crash
kill c attempt=0 round=2 kind=hang
";

fn run_service() -> Supervisor {
    let script = parse_script(SCRIPT).expect("script parses");
    let mut sup = Supervisor::from_script(script);
    sup.run();
    sup
}

/// Runs the scenario with an artifact sink that keeps each completed
/// job's session trace, and merges those after the service's own trace
/// in job-id order, as `heron_serve --trace-out` does.
fn run_merged() -> (Supervisor, String) {
    let traces = Rc::new(RefCell::new(BTreeMap::new()));
    let kept = Rc::clone(&traces);
    let script = parse_script(SCRIPT).expect("script parses");
    let mut sup = Supervisor::from_script(script).with_artifact_sink(move |report, texts| {
        kept.borrow_mut()
            .insert(report.job.clone(), texts.trace_jsonl);
    });
    sup.run();
    let service = sup.tracer().to_jsonl();
    let traces = traces.borrow();
    let mut parts = vec![service.as_str()];
    parts.extend(traces.values().map(String::as_str));
    let merged = merge_traces(&parts);
    (sup, merged)
}

/// The SLO spec the chaos scenario's pulse documents are judged under.
const SPEC: &str = "\
reject_rate <= 0.5
recovery_max_s <= 60
queue_wait_s <= 120
";

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn pulse_plane_is_byte_identical_across_service_runs() {
    let spec = SloSpec::parse(SPEC).expect("spec parses");
    let first = build_pulse(&run_service().pulse_input(), &spec);
    let second = build_pulse(&run_service().pulse_input(), &spec);
    validate_pulse(&first).expect("valid pulse document");
    assert_eq!(
        first.render_pretty(),
        second.render_pretty(),
        "pulse.json diverged across reruns"
    );
    assert_eq!(render_slo_report(&first), render_slo_report(&second));
    assert_eq!(render_dashboard(&first, 3), render_dashboard(&second, 3));
    // The permissive spec passes; a tightened spec breaches — the gate
    // `heron_status --check` exits nonzero on.
    assert_eq!(breach_count(&first), 0, "{}", render_slo_report(&first));
    let tightened = SloSpec::parse("makespan_s <= 0.001\n").expect("spec parses");
    let rejudged = attach_slo(first, &tightened);
    assert!(breach_count(&rejudged) > 0, "tightened SLO must breach");
    // The hang (job c) surfaced its confirmed stall precursor.
    let jobs = rejudged.get("jobs").and_then(Json::as_arr).expect("jobs");
    let c = jobs
        .iter()
        .find(|j| j.get("id").and_then(Json::as_str) == Some("c"))
        .expect("job c");
    let warnings = c.get("warnings").and_then(Json::as_arr).expect("warnings");
    assert!(
        warnings
            .iter()
            .filter_map(Json::as_str)
            .any(|w| w.starts_with("pulse.warn.heartbeat_stall")),
        "job c should carry a heartbeat-stall warning"
    );
}

/// The chaos scenario reaches every pulse and scope member the smoke
/// golden may not: a crash after a checkpoint, one before any, a hang
/// and a 0.2 fault rate. Its rendered `pulse.json` and `scope.json` are
/// pinned by digest; on a mismatch the documents are printed.
#[test]
fn chaos_script_pulse_and_scope_documents_are_pinned() {
    let sup = run_service();
    let input = sup.pulse_input();
    let spec = SloSpec::parse(SPEC).expect("spec parses");
    let pulse = build_pulse(&input, &spec).render_pretty();
    let scope = heron::scope::build_scope(&sup.timeline(), &input.jobs).render_pretty();
    let got = (fnv1a(&pulse), fnv1a(&scope));
    assert_eq!(
        got,
        (0x621e_2a5b_a13e_db24, 0xea4b_5454_bc3b_306e),
        "pulse.json or scope.json moved; digests {got:#018x?}\n{pulse}\n{scope}"
    );
}

#[test]
fn merged_trace_slices_losslessly_and_sums_to_each_jobs_wall_clock() {
    let (sup, merged) = run_merged();
    let summary = check_trace(&merged).expect("merged trace validates");

    // Per-job span multiset of the merged trace, keyed by job id
    // (`-` = service-level / untagged).
    let mut expected: BTreeMap<String, Vec<(String, u64, u64)>> = BTreeMap::new();
    for span in &summary.spans {
        let key = span
            .ctx
            .as_ref()
            .map_or_else(|| "-".to_string(), |c| c.job.clone());
        expected
            .entry(key)
            .or_default()
            .push((span.name.clone(), span.t_open_ns, span.t_close_ns));
    }
    for spans in expected.values_mut() {
        spans.sort();
    }

    let slices = slice_by_job(&merged);
    assert_eq!(
        slices.keys().map(|s| s.as_str()).collect::<Vec<_>>(),
        ["a", "b", "c"],
        "every completed job slices out"
    );
    let mut reconstructed: BTreeMap<String, Vec<(String, u64, u64)>> = BTreeMap::new();
    for (job, slice) in &slices {
        let sub = check_trace(slice).expect("job slice validates standalone");
        // Exactness: the slice's top-level spans sum to the wall-clock
        // the worker recorded for the job's final attempt, to the ns.
        let wall_ns: u64 = sub
            .spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.dur_ns())
            .sum();
        let report = sup.report(job).expect("completed job has a report");
        assert_eq!(
            wall_ns, report.wall_ns,
            "job `{job}` slice does not sum to its recorded wall-clock"
        );
        let mut spans: Vec<(String, u64, u64)> = sub
            .spans
            .iter()
            .map(|s| (s.name.clone(), s.t_open_ns, s.t_close_ns))
            .collect();
        spans.sort();
        reconstructed.insert(job.clone(), spans);
    }
    // The service-level remainder, plus every slice, reproduces the
    // merged trace's span multiset exactly: slicing is lossless.
    let service = check_trace(&service_slice(&merged)).expect("service slice validates");
    let mut spans: Vec<(String, u64, u64)> = service
        .spans
        .iter()
        .map(|s| (s.name.clone(), s.t_open_ns, s.t_close_ns))
        .collect();
    spans.sort();
    reconstructed.insert("-".to_string(), spans);
    assert_eq!(reconstructed, expected, "slicing lost or invented spans");
}

#[test]
fn recovered_job_slice_equals_the_uninterrupted_resume_suffix() {
    let specs = parse_script(SCRIPT).expect("script parses").jobs;
    let (sup, merged) = run_merged();
    assert_eq!(sup.state("a"), Some(JobState::Completed));
    let slices = slice_by_job(&merged);

    // Job `a` crashed after round 3 with a round-2 checkpoint: its
    // final attempt must trace byte-identically to checkpointing an
    // uninterrupted session at round 2 and resuming it to completion.
    let spec_a = &specs[0];
    let mut head = build_session(spec_a, None).expect("builds");
    for _ in 0..2 {
        assert!(head.step(), "session finished before the kill boundary");
    }
    let text = head.checkpoint().to_text();
    let mut resumed = build_session(spec_a, Some(&text)).expect("resumes");
    while resumed.step() {}
    assert_eq!(
        slices["a"],
        resumed.tracer().to_jsonl(),
        "job a's sub-trace is not the uninterrupted run's suffix"
    );

    // Job `b` crashed before any checkpoint: its final attempt is a
    // from-scratch rerun, so its sub-trace equals a fresh session's.
    let mut reference = build_session(&specs[1], None).expect("builds");
    while reference.step() {}
    assert_eq!(
        slices["b"],
        reference.tracer().to_jsonl(),
        "job b's sub-trace is not a fresh run's trace"
    );
}
