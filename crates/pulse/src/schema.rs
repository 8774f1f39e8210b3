//! Structural validator for `heron-pulse-v1` documents.
//!
//! `heron_status` runs every input file through [`validate_pulse`]
//! before rendering, so a truncated or hand-edited `pulse.json` fails
//! with a named path instead of a blank dashboard.

use heron_trace::{Cursor, Json};

use crate::sli::PULSE_SCHEMA;

/// The per-job SLI names every document carries (and the names an SLO
/// spec may reference per-job).
pub const SLI_KEYS: [&str; 6] = [
    "queue_wait_s",
    "recovery_max_s",
    "makespan_s",
    "ttfc_s",
    "sol_per_kprop",
    "rank_accuracy_final",
];

/// Validates the structure of a `pulse.json` document.
///
/// # Errors
/// A message naming the offending JSON path.
pub fn validate_pulse(doc: &Json) -> Result<(), String> {
    let doc = Cursor::new(doc, "$");
    doc.one_of("schema", &[PULSE_SCHEMA])?;
    doc.get("service")?.each(
        [
            "jobs",
            "completed",
            "preempted",
            "quarantined",
            "queued",
            "rejected",
            "reject_rate",
            "warnings",
            "workers",
        ],
        Cursor::num,
    )?;
    for job in doc.arr("jobs")?.items() {
        job.each(["id", "state"], Cursor::str)?;
        job.each(
            [
                "attempts",
                "recoveries",
                "postmortems",
                "rounds",
                "trials",
                "wall_s",
            ],
            Cursor::num,
        )?;
        job.str_or_null("termination")?;
        let warnings = job.arr("warnings")?;
        warnings.each(0..warnings.items().len(), Cursor::str)?;
        job.get("slis")?.each(SLI_KEYS, Cursor::num_or_null)?;
        let traj = job.get("trajectories")?;
        let acc = traj.arr("batch_rank_accuracy")?;
        let props = traj.arr("solver_propagations")?;
        let (rounds, series) = (acc.items().len(), props.items().len());
        if rounds != series {
            return Err(traj.fail(format!("series lengths differ ({rounds} vs {series})")));
        }
        acc.each(0..rounds, Cursor::num_or_null)?;
        props.each(0..rounds, Cursor::num_or_null)?;
        for span in job.arr("hot_spans")?.items() {
            span.str("name")?;
            span.each(["count", "total_s"], Cursor::num)?;
        }
    }
    let slo = doc.get("slo")?;
    slo.each(["pass", "warn", "breach"], Cursor::num)?;
    for rule in slo.arr("rules")?.items() {
        check_slo_rule(&rule)?;
    }
    Ok(())
}

/// Validates one judged SLO rule — an element of `pulse.json`'s
/// `slo.rules` and of a postmortem header's `slo`.
///
/// # Errors
/// A message naming the offending member's path.
pub fn check_slo_rule(rule: &Cursor) -> Result<(), String> {
    rule.str("metric")?;
    rule.one_of("op", &["<=", ">="])?;
    rule.num("threshold")?;
    rule.each(["warn", "value"], Cursor::num_or_null)?;
    rule.str_or_null("job")?;
    rule.one_of("verdict", &["pass", "warn", "breach"])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{JobInput, PulseConfig, ServiceInput};
    use crate::sli::build_pulse;
    use crate::slo::SloSpec;
    use heron_trace::json::parse;

    fn sample() -> Json {
        let input = ServiceInput {
            config: PulseConfig {
                backoff_base_s: 1.0,
                checkpoint_every: 2,
                workers: 1,
            },
            jobs: vec![JobInput {
                id: "a".to_string(),
                state: "completed".to_string(),
                attempts: 1,
                recoveries: 0,
                rounds: 3,
                trials: 12,
                termination: Some("trials-exhausted".to_string()),
                warnings: vec!["pulse.warn.heartbeat_stall attempt=1".to_string()],
                digest: Default::default(),
                wall_ns: 1_500_000_000,
                postmortems: 1,
            }],
            rejected: Vec::new(),
        };
        let spec = SloSpec::parse("reject_rate <= 0.5\nmakespan_s <= 60 warn 30\n").unwrap();
        build_pulse(&input, &spec)
    }

    #[test]
    fn accepts_generated_documents_and_roundtrips() {
        let doc = sample();
        validate_pulse(&doc).expect("valid");
        let reparsed = parse(&doc.render_pretty()).expect("parses");
        validate_pulse(&reparsed).expect("still valid");
    }

    #[test]
    fn rejects_structural_damage_with_named_paths() {
        let base = sample().render();
        for (damage, want_msg) in [
            ("heron-pulse-v1", "heron-pulse-v0", "$.schema"),
            (
                "\"reject_rate\":0",
                "\"reject_rate\":\"0\"",
                "$.service.reject_rate",
            ),
            (
                "\"queue_wait_s\":0",
                "\"queue_wait_s\":true",
                "$.jobs[0].slis.queue_wait_s",
            ),
            ("\"verdict\":\"pass\"", "\"verdict\":\"ok\"", "verdict"),
        ]
        .map(|(from, to, want)| (base.replace(from, to), want))
        {
            let doc = parse(&damage).expect("still JSON");
            let err = validate_pulse(&doc).unwrap_err();
            assert!(err.contains(want_msg), "want `{want_msg}` in `{err}`");
        }
    }
}
