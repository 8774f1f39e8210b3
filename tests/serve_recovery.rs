//! Service-robustness regression suite: the chaos proof.
//!
//! heron-serve's contract is that supervision is *invisible* in the
//! results: a job that crashed, hung, was fenced off and resumed from
//! its last checkpoint produces the byte-identical `TuneResult` of an
//! uninterrupted single-process run, and the supervisor never loses,
//! double-runs, or silently drops a job. These tests pin that contract
//! (plus the admission/backpressure and restart-budget semantics) under
//! seeded worker-kill injection, and sweep checkpoint recovery across
//! *every* round boundary of a session, not just one kill point.

use heron::serve::{chaos, parse_script, AdmitError, JobSpec, JobState, Supervisor};
use heron_serve::build_session;

/// A small, fast job the chaos scenarios share.
fn job(id: &str, seed: u64, trials: usize) -> JobSpec {
    let mut spec = JobSpec::new(id, "gemm", "64x64x64");
    spec.seed = seed;
    spec.trials = trials;
    spec
}

#[test]
fn recovered_jobs_are_byte_identical_and_none_are_lost_or_double_run() {
    let script = parse_script(
        "\
workers = 2
queue_capacity = 8
restart_budget = 2
checkpoint_every = 2
hang_grace_polls = 400
poll_interval_ms = 5

job a op=gemm shape=64x64x64 trials=32 seed=21
job b op=gemm shape=96x96x96 trials=32 seed=22 fault_rate=0.2
job c op=gemm shape=64x96x64 trials=24 seed=23

# a crashes after round 3 (checkpoint at round 2 exists);
# b crashes at round 1 before any checkpoint (restart from scratch);
# c hangs at round 2 (watchdog path).
kill a attempt=0 round=3 kind=crash
kill b attempt=0 round=1 kind=crash
kill c attempt=0 round=2 kind=hang
",
    )
    .expect("script parses");
    let specs = script.jobs.clone();
    let mut sup = Supervisor::from_script(script);
    sup.run();

    // Every admitted job settled as completed, none lost.
    for spec in &specs {
        assert_eq!(
            sup.state(&spec.id),
            Some(JobState::Completed),
            "job `{}` did not complete",
            spec.id
        );
    }
    // All three kill paths actually fired and recovered.
    let counter = |n: &str| sup.tracer().counter(n).unwrap_or(0);
    assert_eq!(counter("serve.crashes_detected"), 2);
    assert_eq!(counter("serve.hangs_detected"), 1);
    assert_eq!(counter("serve.jobs_recovered"), 3);
    assert_eq!(counter("serve.jobs_completed"), 3, "no job ran twice");
    // The byte-identity proof: records and fingerprints equal the
    // uninterrupted single-process runs, reports exist exactly for
    // completed jobs.
    let verified = chaos::verify_run(&sup, &specs).expect("chaos verification");
    assert_eq!(verified.len(), 3);
}

#[test]
fn restart_budget_exhaustion_quarantines_the_poisoned_job_only() {
    let script = parse_script(
        "\
workers = 2
queue_capacity = 4
restart_budget = 1
checkpoint_every = 2
poll_interval_ms = 5

job healthy op=gemm shape=64x64x64 trials=24 seed=31
job poison op=gemm shape=48x48x48 trials=24 seed=32
kill poison attempt=0 round=1 kind=crash
kill poison attempt=1 round=1 kind=crash
",
    )
    .expect("script parses");
    let specs = script.jobs.clone();
    let mut sup = Supervisor::from_script(script);
    sup.run();

    assert_eq!(sup.state("healthy"), Some(JobState::Completed));
    assert_eq!(sup.state("poison"), Some(JobState::Quarantined));
    assert!(
        sup.report("poison").is_none(),
        "quarantined job has no report"
    );
    let row = sup
        .rows()
        .into_iter()
        .find(|r| r.id == "poison")
        .expect("row exists");
    assert_eq!(row.attempts, 2, "budget 1 allows attempts 0 and 1");
    assert_eq!(row.recoveries, 2);
    assert!(
        row.note.as_deref().unwrap_or("").contains("restart budget"),
        "quarantine note names the cause: {:?}",
        row.note
    );
    assert_eq!(sup.tracer().counter("serve.jobs_quarantined"), Some(1));
    // The healthy job is still byte-identical — a neighbour's
    // quarantine must not perturb anyone else's session.
    chaos::verify_run(&sup, &specs).expect("healthy job verifies");
}

#[test]
fn admission_rejects_overflow_duplicates_and_invalid_specs_with_reasons() {
    let mut sup = Supervisor::new(heron::serve::ServeConfig {
        queue_capacity: 2,
        ..Default::default()
    });
    sup.submit(job("a", 1, 16)).expect("admits");
    sup.submit(job("b", 2, 16)).expect("admits");
    match sup.submit(job("c", 3, 16)) {
        Err(AdmitError::QueueFull { capacity: 2 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    match sup.submit(job("a", 4, 16)) {
        Err(AdmitError::Duplicate { id }) => assert_eq!(id, "a"),
        other => panic!("expected Duplicate, got {other:?}"),
    }
    match sup.submit(JobSpec::new("bad", "gemm", "64x64")) {
        Err(AdmitError::Invalid { id, .. }) => assert_eq!(id, "bad"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    // Rejections are recorded for the manifest, not silently dropped.
    let rejected: Vec<&str> = sup.rejected().iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(rejected, ["c", "a", "bad"]);
    assert_eq!(sup.tracer().counter("serve.jobs_rejected"), Some(3));
    sup.run();
    assert_eq!(sup.state("a"), Some(JobState::Completed));
    assert_eq!(sup.state("b"), Some(JobState::Completed));
    assert_eq!(sup.state("c"), None, "rejected jobs never enter the table");
}

#[test]
fn graceful_drain_checkpoints_in_flight_jobs_that_resume_identically() {
    let script = parse_script(
        "\
workers = 2
queue_capacity = 4
drain_after_completions = 1
checkpoint_every = 2
poll_interval_ms = 5

job first op=gemm shape=64x64x64 trials=16 seed=41
job second op=gemm shape=96x96x96 trials=64 seed=42
job third op=gemm shape=64x96x64 trials=24 seed=43
",
    )
    .expect("script parses");
    let specs = script.jobs.clone();
    let mut sup = Supervisor::from_script(script);
    sup.run();

    // Two workers run `first` (2 rounds) and `second` (8 rounds); the
    // drain fires on `first`'s completion, preempts `second` mid-run,
    // and strands `third` in the queue — it must never be started once
    // draining, and never be lost either.
    assert_eq!(sup.state("first"), Some(JobState::Completed));
    assert_eq!(sup.state("third"), Some(JobState::Queued));
    // `second` is preempted at its next round boundary (or, in a
    // pathological scheduling, finished its last round first — both
    // are clean drains; what is forbidden is anything else).
    let second_state = sup.state("second").expect("second is tracked");
    assert!(
        matches!(second_state, JobState::Preempted | JobState::Completed),
        "drain left `second` in {second_state}"
    );
    // verify_run re-checks completed jobs and proves every preempted
    // job's checkpoint resumes to the exact uninterrupted result.
    chaos::verify_run(&sup, &specs).expect("drain verification");
    if second_state == JobState::Preempted {
        let text = sup.store().load("second").expect("checkpoint in store");
        let (_, resumed_fp) = chaos::resume_record(&specs[1], &text).expect("resumes");
        let (_, ref_fp) = chaos::reference_record(&specs[1]).expect("reference runs");
        assert_eq!(resumed_fp, ref_fp, "job `second` diverged after drain");
    }

    // The drain's position followed host timing, so the simulated clock
    // may order `first`'s completion and `second`'s end differently and
    // start `third`, which never ran. The schedule never invents an
    // attempt: it places only recorded ones, and `first`'s for certain;
    // what it leaves off is counted in scope.json.
    let timeline = sup.timeline();
    let mut left_off = 0;
    for (job, (id, _)) in timeline.jobs.iter().enumerate() {
        let placed = timeline.runs.iter().filter(|r| r.job == job).count() as u32;
        let ran = sup
            .rows()
            .iter()
            .find(|r| r.id == *id)
            .map_or(0, |r| r.attempts);
        assert!(placed <= ran, "`{id}`: ran {ran} attempts, placed {placed}");
        left_off += u64::from(ran - placed);
    }
    assert_eq!(timeline.runs[0].job, 0, "`first` is placed");
    let scope = heron::scope::build_scope(&timeline, &sup.pulse_input().jobs);
    heron::scope::validate_scope(&scope).expect("the drained run's scope.json validates");
    let unplaced = scope.get("unplaced_attempts").and_then(|v| v.as_u64());
    assert_eq!(
        unplaced.unwrap_or(0),
        left_off,
        "scope.json counts every attempt left off"
    );
}

#[test]
fn per_job_deadline_preempts_through_the_service_and_resumes_exactly() {
    let script = parse_script(
        "\
workers = 2
poll_interval_ms = 5
job dl op=gemm shape=64x64x64 trials=48 seed=51 deadline_rounds=2
",
    )
    .expect("script parses");
    let specs = script.jobs.clone();
    let mut sup = Supervisor::from_script(script);
    sup.run();

    assert_eq!(sup.state("dl"), Some(JobState::Preempted));
    let row = sup.rows().into_iter().find(|r| r.id == "dl").expect("row");
    assert_eq!(row.rounds, 2, "preempted exactly at the deadline boundary");
    let text = sup.store().load("dl").expect("checkpointed");
    let (resumed_record, resumed_fp) = chaos::resume_record(&specs[0], &text).expect("resumes");
    let (reference_record, reference_fp) = chaos::reference_record(&specs[0]).expect("reference");
    assert_eq!(resumed_record, reference_record);
    assert_eq!(resumed_fp, reference_fp);
}

/// Satellite: recovery must be exact from *every* round boundary, not
/// just the kill points the chaos scripts happen to choose. Runs one
/// session to completion, then for each round 1..R checkpoints a fresh
/// session at that boundary, resumes it, and demands the identical
/// deterministic record and fingerprint.
#[test]
fn resume_from_every_round_boundary_matches_the_uninterrupted_run() {
    let spec = job("sweep", 61, 48);
    let (reference_record, reference_fp) = chaos::reference_record(&spec).expect("reference runs");

    // Count the rounds of the uninterrupted session.
    let mut probe = build_session(&spec, None).expect("builds");
    let mut rounds = 0u64;
    while probe.step() {
        rounds += 1;
    }
    assert!(rounds >= 3, "sweep needs a few rounds, got {rounds}");

    for boundary in 1..rounds {
        let mut head = build_session(&spec, None).expect("builds");
        for _ in 0..boundary {
            assert!(head.step(), "finished before boundary {boundary}");
        }
        let text = head.checkpoint().to_text();
        let (resumed_record, resumed_fp) = chaos::resume_record(&spec, &text).expect("resumes");
        assert_eq!(
            resumed_fp, reference_fp,
            "fingerprint diverged resuming from round {boundary}/{rounds}"
        );
        assert_eq!(
            resumed_record, reference_record,
            "record diverged resuming from round {boundary}/{rounds}"
        );
    }
}
