//! The chaos harness: kill workers, then prove nothing was lost.
//!
//! The recovery contract this crate stakes its name on is *byte
//! identity*: a job that crashed, hung, was fenced, backed off and
//! resumed — any number of times within the restart budget — must
//! produce exactly the `TuneResult` it would have produced in a single
//! uninterrupted process. Not "statistically similar", identical: the
//! deterministic record and its fingerprint compare equal as bytes.
//!
//! [`reference_record`] computes the uninterrupted truth through the
//! *same* session constructor the workers use
//! ([`crate::worker::build_session`]); [`verify_run`] compares a
//! finished supervisor against it job by job and also checks the two
//! bookkeeping invariants — no job lost (every admitted job reached a
//! terminal state) and no job double-run (exactly one report per
//! completed job, none elsewhere).

use crate::worker::build_session;
use crate::JobSpec;
use crate::{JobState, Supervisor};

/// Runs `spec` uninterrupted in-process and returns its deterministic
/// record and fingerprint — the truth recovered jobs are held to.
pub fn reference_record(spec: &JobSpec) -> Result<(String, u64), String> {
    run_record(spec, None)
}

/// Resumes a checkpointed job to completion in-process (used to verify
/// drained/preempted jobs converge to the uninterrupted result).
pub fn resume_record(spec: &JobSpec, checkpoint_text: &str) -> Result<(String, u64), String> {
    run_record(spec, Some(checkpoint_text))
}

fn run_record(spec: &JobSpec, resume_from: Option<&str>) -> Result<(String, u64), String> {
    let result = build_session(spec, resume_from)?.run();
    Ok((
        result.deterministic_record(),
        result.determinism_fingerprint(),
    ))
}

/// Verifies a finished service run against uninterrupted references:
///
/// * every admitted job is settled (nothing lost, nothing left
///   running);
/// * completed jobs carry exactly one report whose record and
///   fingerprint are byte-identical to the reference (nothing
///   double-run or corrupted);
/// * preempted jobs have a checkpoint that resumes to the reference.
///
/// Returns the list of verified job ids, or a description of every
/// divergence.
pub fn verify_run(sup: &Supervisor, specs: &[JobSpec]) -> Result<Vec<String>, String> {
    let mut verified = Vec::new();
    let mut problems = Vec::new();
    for spec in specs {
        let id = &spec.id;
        let Some(state) = sup.state(id) else {
            // Never admitted: must be an explicitly recorded rejection,
            // not a silent drop.
            if !sup.rejected().iter().any(|(rid, _)| rid == id) {
                problems.push(format!("job `{id}` was lost: no state, no rejection"));
            }
            continue;
        };
        match state {
            JobState::Completed => {
                let Some(report) = sup.report(id) else {
                    problems.push(format!("job `{id}` completed without a report"));
                    continue;
                };
                match reference_record(spec) {
                    Ok((record, fingerprint)) => {
                        if report.record != record {
                            problems.push(format!(
                                "job `{id}`: recovered record diverges from uninterrupted run"
                            ));
                        } else if report.fingerprint != fingerprint {
                            problems.push(format!(
                                "job `{id}`: fingerprint {:016x} != reference {fingerprint:016x}",
                                report.fingerprint
                            ));
                        } else {
                            verified.push(id.clone());
                        }
                    }
                    Err(e) => problems.push(format!("job `{id}`: reference failed: {e}")),
                }
            }
            JobState::Preempted => {
                let Some(text) = sup.store().load(id) else {
                    problems.push(format!("job `{id}` preempted without a checkpoint"));
                    continue;
                };
                match (resume_record(spec, &text), reference_record(spec)) {
                    (Ok((_, resumed_fp)), Ok((_, ref_fp))) if resumed_fp == ref_fp => {
                        verified.push(id.clone());
                    }
                    (Ok((_, resumed_fp)), Ok((_, ref_fp))) => problems.push(format!(
                        "job `{id}`: resume-after-preempt fingerprint {resumed_fp:016x} \
                         != reference {ref_fp:016x}"
                    )),
                    (Err(e), _) | (_, Err(e)) => {
                        problems.push(format!("job `{id}`: preempt verification failed: {e}"))
                    }
                }
            }
            JobState::Quarantined | JobState::Queued => {
                // Deterministically settled without a result; nothing to
                // byte-compare, but not lost either.
            }
            JobState::Running => {
                problems.push(format!("job `{id}` still running after run() returned"));
            }
        }
        // Reports must exist exactly for completed jobs.
        if state != JobState::Completed && sup.report(id).is_some() {
            problems.push(format!("job `{id}` in state {state} carries a report"));
        }
    }
    if problems.is_empty() {
        Ok(verified)
    } else {
        Err(problems.join("\n"))
    }
}
