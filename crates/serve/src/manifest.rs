//! The results manifest: the daemon's deterministic output document.
//!
//! Plain text, one `job` line per admitted job in id order plus one
//! `rejected` line per refused submission in submission order. Every
//! field on it is a deterministic function of (script, seeds, chaos
//! plan) — states, attempt counts, round totals, fingerprints — and
//! deliberately **excludes** anything scheduling-dependent (worker
//! ids, epochs, wall-clock), so two runs of the same script produce
//! byte-identical manifests and the verify smoke can diff them.

use crate::policy::{JobRow, JobState};
use crate::postmortem::Postmortem;

/// Renders the manifest for a finished service run.
pub fn render(
    rows: &[JobRow],
    rejected: &[(String, String)],
    postmortems: &[Postmortem],
) -> String {
    let mut out = String::new();
    out.push_str("# heron-serve results manifest\n");
    let count = |s: JobState| rows.iter().filter(|r| r.state == s).count();
    out.push_str(&format!("jobs = {}\n", rows.len()));
    out.push_str(&format!("completed = {}\n", count(JobState::Completed)));
    out.push_str(&format!("preempted = {}\n", count(JobState::Preempted)));
    out.push_str(&format!("quarantined = {}\n", count(JobState::Quarantined)));
    out.push_str(&format!("queued = {}\n", count(JobState::Queued)));
    out.push_str(&format!("rejected = {}\n", rejected.len()));
    let warnings: usize = rows.iter().map(|r| r.warnings.len()).sum();
    out.push_str(&format!("warnings = {warnings}\n"));
    out.push_str(&format!("postmortems = {}\n", postmortems.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "job {} state={} attempts={} recoveries={}",
            row.id, row.state, row.attempts, row.recoveries
        ));
        if row.state == JobState::Completed || row.state == JobState::Preempted {
            out.push_str(&format!(" rounds={} trials={}", row.rounds, row.trials));
        }
        if let Some(t) = &row.termination {
            out.push_str(&format!(" termination={t}"));
        }
        if let Some(fp) = row.fingerprint {
            out.push_str(&format!(" fingerprint={fp:016x}"));
        }
        if let Some(b) = row.best_gflops {
            // Exact bits, not a rounded decimal: the manifest is part
            // of the byte-identity contract.
            out.push_str(&format!(" best_bits={:016x}", b.to_bits()));
        }
        if !row.warnings.is_empty() {
            out.push_str(&format!(" warnings={}", row.warnings.len()));
        }
        if let Some(n) = &row.note {
            out.push_str(&format!(" note={n}"));
        }
        out.push('\n');
    }
    for row in rows {
        for warning in &row.warnings {
            out.push_str(&format!("warn {} {warning}\n", row.id));
        }
    }
    for pm in postmortems {
        out.push_str(&format!(
            "postmortem {} attempt={} reason={} file={}\n",
            pm.job, pm.attempt, pm.reason, pm.file
        ));
    }
    for (id, reason) in rejected {
        out.push_str(&format!("rejected {id} reason={reason}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_stable_and_complete() {
        let rows = vec![
            JobRow {
                id: "g1".to_string(),
                state: JobState::Completed,
                attempts: 2,
                recoveries: 1,
                rounds: 6,
                trials: 40,
                termination: Some("trials".to_string()),
                fingerprint: Some(0xdead_beef),
                best_gflops: Some(1.5),
                warnings: vec!["pulse.warn.heartbeat_stall attempt=0".to_string()],
                note: None,
            },
            JobRow {
                id: "g2".to_string(),
                state: JobState::Quarantined,
                attempts: 3,
                recoveries: 3,
                rounds: 0,
                trials: 0,
                termination: None,
                fingerprint: None,
                best_gflops: None,
                warnings: vec![],
                note: Some("poisoned: restart budget (2) exhausted after 3 attempts".to_string()),
            },
        ];
        let rejected = vec![("g9".to_string(), "queue full (capacity 1)".to_string())];
        let postmortems = vec![Postmortem {
            job: "g2".to_string(),
            attempt: 2,
            reason: "quarantine".to_string(),
            file: "g2.attempt2.quarantine.jsonl".to_string(),
            bundle: String::new(),
        }];
        let text = render(&rows, &rejected, &postmortems);
        assert_eq!(
            text,
            render(&rows, &rejected, &postmortems),
            "rendering is pure"
        );
        assert!(text.contains("jobs = 2"));
        assert!(text.contains("completed = 1"));
        assert!(text.contains("quarantined = 1"));
        assert!(text.contains("rejected = 1"));
        assert!(text.contains("warnings = 1"));
        assert!(text.contains("postmortems = 1"));
        assert!(text.contains(
            "postmortem g2 attempt=2 reason=quarantine file=g2.attempt2.quarantine.jsonl"
        ));
        assert!(text.contains(
            "job g1 state=completed attempts=2 recoveries=1 rounds=6 trials=40 \
             termination=trials fingerprint=00000000deadbeef best_bits=3ff8000000000000 \
             warnings=1"
        ));
        assert!(text.contains("job g2 state=quarantined attempts=3 recoveries=3 note=poisoned"));
        assert!(text.contains("warn g1 pulse.warn.heartbeat_stall attempt=0"));
        assert!(text.contains("rejected g9 reason=queue full (capacity 1)"));
    }
}
