//! The deterministic projection of a finished service run that the
//! pulse engine folds into `pulse.json`.
//!
//! Everything here is a deterministic function of (job script, seeds,
//! chaos plan): manifest-grade job rows, each completed job's
//! [`JobDigest`] and the simulated wall-clock. Scheduling-dependent data
//! (event interleavings, worker ids, host wall-clock) is deliberately
//! *absent*, which is what makes `pulse.json` byte-identical across
//! reruns of the same script.

use std::collections::BTreeMap;

use heron_trace::Event;

/// Service configuration the SLI definitions depend on.
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// Recovery backoff base in simulated seconds (doubles per retry).
    pub backoff_base_s: f64,
    /// Periodic checkpoint cadence in rounds (0 = only on preempt).
    pub checkpoint_every: u64,
    /// Worker pool size.
    pub workers: usize,
}

/// One admitted job's deterministic outcome.
#[derive(Debug, Clone, Default)]
pub struct JobInput {
    /// Job id.
    pub id: String,
    /// Final lifecycle state, rendered (`completed`, `quarantined`, …).
    pub state: String,
    /// Attempts started.
    pub attempts: u32,
    /// Recoveries performed.
    pub recoveries: u32,
    /// Lifetime rounds (0 when never reported).
    pub rounds: u64,
    /// Trials completed.
    pub trials: u64,
    /// Final termination for completed jobs.
    pub termination: Option<String>,
    /// Anomaly warnings recorded by the supervisor (`pulse.warn.*`).
    pub warnings: Vec<String>,
    /// What pulse and scope read of the final attempt's session (empty
    /// unless the job completed).
    pub digest: JobDigest,
    /// Final attempt's simulated wall-clock, nanoseconds.
    pub wall_ns: u64,
    /// Postmortem bundles emitted for this job (crash/hang/quarantine
    /// deaths; deterministic under a fixed chaos plan).
    pub postmortems: u64,
}

/// One span name's calls in a session trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub count: u64,
    /// Their summed duration, nanoseconds.
    pub total_ns: u64,
}

/// The few numbers `pulse.json` and `scope.json` read of a completed
/// job's session, folded by its worker when the session finishes, in
/// place of the session's trace, insight document and metrics texts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobDigest {
    /// Every span name's count and total duration, in
    /// [`heron_trace::TraceSummary::hottest_spans`] order (a session
    /// trace carries one context, so that groups by name alone).
    pub spans: Vec<SpanStat>,
    /// Events in the session trace.
    pub events: u64,
    /// Point events among them.
    pub points: u64,
    /// Close times of the top-level `tuner.step` spans, ns, in order.
    pub step_close_ns: Vec<u64>,
    /// Each round's `batch_rank_accuracy` from the insight log (`None`
    /// before the first model fit).
    pub rank_accuracy: Vec<Option<f64>>,
    /// Each round's `solver_propagations` from the insight log.
    pub round_propagations: Vec<u64>,
    /// The session's `csp.solutions` counter.
    pub solutions: Option<u64>,
    /// The session's `csp.propagations` counter.
    pub propagations: Option<u64>,
}

impl JobDigest {
    /// A digest of a session log's spans, events and top-level steps,
    /// read in place; the insight and counter fields are left empty. On
    /// a log with no span open, these are the numbers
    /// [`heron_trace::check_trace`] reads off its export.
    pub fn of_log(events: &[Event]) -> Self {
        let mut digest = JobDigest {
            events: events.len() as u64,
            ..JobDigest::default()
        };
        let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        // `(name, parent, t_open_ns)` of the open spans, innermost last.
        let mut open = Vec::new();
        for ev in events {
            match ev {
                Event::Open {
                    parent, name, t_ns, ..
                } => open.push((name.as_str(), *parent, *t_ns)),
                Event::Close { t_ns, .. } => {
                    let Some((name, parent, t_open_ns)) = open.pop() else {
                        continue;
                    };
                    let (count, total_ns) = totals.entry(name).or_default();
                    *count += 1;
                    *total_ns += t_ns.saturating_sub(t_open_ns);
                    if parent == 0 && name == "tuner.step" {
                        digest.step_close_ns.push(*t_ns);
                    }
                }
                Event::Point { .. } => digest.points += 1,
            }
        }
        let mut spans: Vec<SpanStat> = totals
            .into_iter()
            .map(|(name, (count, total_ns))| SpanStat {
                name: name.to_string(),
                count,
                total_ns,
            })
            .collect();
        // Stable: equal totals keep name order, as `hottest_spans` does.
        spans.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        digest.spans = spans;
        digest
    }
}

/// The whole service run, ready for [`crate::build_pulse`].
#[derive(Debug, Clone)]
pub struct ServiceInput {
    /// Service configuration.
    pub config: PulseConfig,
    /// Every admitted job in id order.
    pub jobs: Vec<JobInput>,
    /// Rejected submissions as `(id, reason)` in submission order.
    pub rejected: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_trace::{check_trace, TraceContext, Tracer};

    #[test]
    fn a_log_digests_as_its_checked_export_reads() {
        let t = Tracer::manual();
        t.set_context(Some(TraceContext::new("g1", 1, 2)));
        t.point("tuner.start");
        for round in 0..4 {
            let _step = t.span_with("tuner.step", || [("round", round.to_string())]);
            for _ in 0..round {
                let _solve = t.span("csp.solve");
                t.advance_ns(300);
                t.point("csp.wipeout");
            }
            let _m = t.span("measure.batch");
            t.advance_ns(1_000);
        }
        let digest = t.with_events(JobDigest::of_log);

        let summary = check_trace(&t.to_jsonl()).expect("valid trace");
        let spans: Vec<SpanStat> = summary
            .hottest_spans()
            .iter()
            .map(|h| SpanStat {
                name: h.name.to_string(),
                count: h.count,
                total_ns: h.total_ns,
            })
            .collect();
        let steps = summary
            .spans
            .iter()
            .filter(|sp| sp.parent == 0 && sp.name == "tuner.step");
        let expected = JobDigest {
            spans,
            events: summary.events as u64,
            points: summary.points as u64,
            step_close_ns: steps.map(|sp| sp.t_close_ns).collect(),
            ..JobDigest::default()
        };
        assert_eq!(digest, expected);
        assert_eq!(digest.spans[0].name, "tuner.step");
        assert_eq!(digest.step_close_ns.len(), 4);
        let empty = Tracer::disabled().with_events(JobDigest::of_log);
        assert_eq!(empty, JobDigest::default());
    }
}
