//! Crash postmortem bundles: the autopsy document the supervisor writes
//! when a job crashes, hangs, or is quarantined (DESIGN.md §12).
//!
//! A bundle is schema-versioned JSONL: one `heron-postmortem-v1` header
//! line carrying the job's state at death — attempt, epoch, rounds,
//! simulated clock, checkpoint presence (and its content id,
//! [`heron_core::checkpoint::content_id`]: the CRC-32 of the checkpoint's
//! deterministic section, so host time never reaches it), restart
//! budget state, and the SLO verdicts judged at that instant — followed
//! verbatim by the job's last flight-recorder ring snapshot (its last-K
//! trace events; see [`crate::recorder`]). Every field is a
//! deterministic function of (script, seeds, chaos plan) and the manual
//! clock, so two same-seed chaos runs produce byte-identical bundles.
//!
//! The SLO verdicts are judged over the dying job's *deterministic*
//! SLIs only (`queue_wait_s`, `recovery_max_s` — pure functions of the
//! backoff policy and the recovery count); service-level metrics like
//! `makespan_s` depend on which neighbours happened to finish first and
//! would poison byte-identity, so they judge as no-sample passes.

use heron_core::checkpoint::content_id;
use heron_pulse::{attach_slo, check_slo_rule, recovery_slis, SloSpec};
use heron_trace::{check_ring_snapshot, Cursor, Json, RingSummary};

use crate::recorder::FlightEntry;

/// The schema identifier stamped into every bundle header.
pub const POSTMORTEM_SCHEMA: &str = "heron-postmortem-v1";

/// Everything the supervisor knows about a job at its time of death.
pub struct DeathReport<'a> {
    /// Job id.
    pub job: &'a str,
    /// The attempt that died.
    pub attempt: u32,
    /// Supervisor epoch of the dying attempt.
    pub epoch: u64,
    /// `crash`, `hang`, or `quarantine`.
    pub reason: &'a str,
    /// Recoveries performed so far (at the instant of death).
    pub recoveries: u32,
    /// The configured restart budget.
    pub restart_budget: u32,
    /// The configured backoff base, simulated seconds.
    pub backoff_base_s: f64,
    /// The job's latest accepted checkpoint text, if any.
    pub checkpoint: Option<&'a str>,
    /// The job's last flight-recorder deposit, if any attempt flushed.
    pub flight: Option<&'a FlightEntry>,
    /// The SLO spec to judge at time of death.
    pub slo: &'a SloSpec,
}

/// One finished bundle, ready to list in the manifest and (optionally)
/// write to `--postmortem-dir`.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// Job id.
    pub job: String,
    /// The attempt that died.
    pub attempt: u32,
    /// `crash`, `hang`, or `quarantine`.
    pub reason: String,
    /// Deterministic bundle file name (`<job>.attempt<N>.<reason>.jsonl`).
    pub file: String,
    /// The full bundle text (header line + ring snapshot).
    pub bundle: String,
}

/// The SLO verdicts at time of death, judged over the dying job's
/// deterministic SLIs. Returns the `rules` array of
/// [`heron_pulse::attach_slo`].
fn slo_at_death(report: &DeathReport<'_>) -> Json {
    let (queue_wait_s, recovery_max_s) = recovery_slis(report.backoff_base_s, report.recoveries);
    let slis = Json::Obj(vec![
        ("queue_wait_s".to_string(), Json::Num(queue_wait_s)),
        ("recovery_max_s".to_string(), Json::Num(recovery_max_s)),
    ]);
    let doc = Json::Obj(vec![(
        "jobs".to_string(),
        Json::Arr(vec![Json::Obj(vec![
            ("id".to_string(), Json::Str(report.job.to_string())),
            ("slis".to_string(), slis),
        ])]),
    )]);
    let judged = attach_slo(doc, report.slo);
    judged
        .get("slo")
        .and_then(|slo| slo.get("rules"))
        .cloned()
        .unwrap_or_else(|| Json::Arr(Vec::new()))
}

/// A synthetic empty ring snapshot for jobs that died before any flush
/// (e.g. an unbuildable session): still a valid `heron-ring-v1`
/// document, so every bundle body validates the same way.
fn empty_ring() -> String {
    "{\"schema\":\"heron-ring-v1\",\"capacity\":0,\"evicted\":0,\"events\":0,\"now_ns\":0}\n"
        .to_string()
}

/// Assembles the bundle for one death. Pure: no IO, no clock reads.
pub fn build(report: &DeathReport<'_>) -> Postmortem {
    let (rounds, sim_ns, ring) = match report.flight {
        Some(f) => (f.rounds, f.sim_ns, f.ring_jsonl.clone()),
        None => (0, 0, empty_ring()),
    };
    let checkpoint = Json::Obj(vec![
        (
            "present".to_string(),
            Json::Bool(report.checkpoint.is_some()),
        ),
        (
            "id".to_string(),
            report
                .checkpoint
                .map_or(Json::Null, |t| Json::Str(format!("{:08x}", content_id(t)))),
        ),
    ]);
    let restart = Json::Obj(vec![
        (
            "recoveries".to_string(),
            Json::Num(f64::from(report.recoveries)),
        ),
        (
            "budget".to_string(),
            Json::Num(f64::from(report.restart_budget)),
        ),
    ]);
    let header = Json::Obj(vec![
        ("schema".to_string(), Json::Str(POSTMORTEM_SCHEMA.into())),
        ("job".to_string(), Json::Str(report.job.to_string())),
        ("attempt".to_string(), Json::Num(f64::from(report.attempt))),
        ("epoch".to_string(), Json::Num(report.epoch as f64)),
        ("reason".to_string(), Json::Str(report.reason.to_string())),
        ("rounds".to_string(), Json::Num(rounds as f64)),
        ("sim_ns".to_string(), Json::Num(sim_ns as f64)),
        ("checkpoint".to_string(), checkpoint),
        ("restart".to_string(), restart),
        ("slo".to_string(), slo_at_death(report)),
    ]);
    let file = format!(
        "{}.attempt{}.{}.jsonl",
        report.job, report.attempt, report.reason
    );
    let bundle = format!("{}\n{}", header.render(), ring);
    Postmortem {
        job: report.job.to_string(),
        attempt: report.attempt,
        reason: report.reason.to_string(),
        file,
        bundle,
    }
}

/// A validated bundle: the header facts plus the checked ring snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemSummary {
    /// Job id from the header.
    pub job: String,
    /// Attempt from the header.
    pub attempt: u32,
    /// Death reason from the header.
    pub reason: String,
    /// Rounds at death.
    pub rounds: u64,
    /// Number of SLO rules judged at death.
    pub slo_rules: usize,
    /// The validated ring snapshot that forms the bundle body.
    pub ring: RingSummary,
}

/// Validates a `heron-postmortem-v1` bundle: header schema and fields,
/// then the embedded ring snapshot via
/// [`heron_trace::check_ring_snapshot`].
///
/// # Errors
/// A message naming the offending header field or ring line.
pub fn check_postmortem(text: &str) -> Result<PostmortemSummary, String> {
    let (header, body) = text.split_once('\n').unwrap_or((text, ""));
    let doc = heron_trace::json::parse(header).map_err(|e| format!("postmortem header: {e}"))?;
    let header = Cursor::new(&doc, "postmortem header");
    header.one_of("schema", &[POSTMORTEM_SCHEMA])?;
    header.u64("epoch")?;
    header.u64("sim_ns")?;
    let checkpoint = header.get("checkpoint")?;
    checkpoint.bool("present")?;
    checkpoint.str_or_null("id")?;
    let restart = header.get("restart")?;
    restart.u32("recoveries")?;
    restart.u32("budget")?;
    let slo = header.arr("slo")?;
    let slo_rules = slo.items().len();
    for rule in slo.items() {
        check_slo_rule(&rule)?;
    }
    Ok(PostmortemSummary {
        job: header.str("job")?.to_string(),
        attempt: header.u32("attempt")?,
        reason: header.str("reason")?.to_string(),
        rounds: header.u64("rounds")?,
        slo_rules,
        ring: check_ring_snapshot(body).map_err(|e| format!("postmortem ring: {e}"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use heron_trace::Tracer;

    fn flight_with_ring(rounds: u64) -> FlightEntry {
        let t = Tracer::manual();
        for _ in 0..rounds {
            let _s = t.span("tuner.step");
            t.advance_s(0.5);
        }
        FlightEntry {
            attempt: 0,
            epoch: 1,
            rounds,
            sim_ns: t.now_ns(),
            ring_jsonl: t.tail_jsonl(8),
        }
    }

    fn death<'a>(flight: Option<&'a FlightEntry>, slo: &'a SloSpec) -> DeathReport<'a> {
        DeathReport {
            job: "g1",
            attempt: 0,
            epoch: 1,
            reason: "crash",
            recoveries: 0,
            restart_budget: 2,
            backoff_base_s: 0.5,
            checkpoint: Some("ckpt-text"),
            flight,
            slo,
        }
    }

    #[test]
    fn bundles_are_deterministic_and_validate() {
        let slo = SloSpec::parse("queue_wait_s <= 60\n").unwrap();
        let flight = flight_with_ring(3);
        let a = build(&death(Some(&flight), &slo));
        let b = build(&death(Some(&flight), &slo));
        assert_eq!(a, b, "bundle assembly is pure");
        assert_eq!(a.file, "g1.attempt0.crash.jsonl");
        let summary = check_postmortem(&a.bundle).expect("bundle validates");
        assert_eq!(summary.job, "g1");
        assert_eq!(summary.reason, "crash");
        assert_eq!(summary.rounds, 3);
        assert_eq!(summary.slo_rules, 1);
        assert_eq!(summary.ring.summary.spans.len(), 3);
        assert!(a.bundle.contains("\"present\":true"));
        assert!(a
            .bundle
            .contains(&format!("{:08x}", content_id("ckpt-text"))));
    }

    #[test]
    fn slo_verdicts_at_death_reflect_the_dying_jobs_backoffs() {
        // Two recoveries at base 0.5 ⇒ queue_wait 1.5s; a 1s bound
        // breaches, a 60s bound passes.
        let slo = SloSpec::parse("queue_wait_s <= 1\nrecovery_max_s <= 60\n").unwrap();
        let flight = flight_with_ring(2);
        let mut report = death(Some(&flight), &slo);
        report.recoveries = 2;
        report.reason = "quarantine";
        let pm = build(&report);
        assert!(
            pm.bundle.contains("\"verdict\":\"breach\""),
            "{}",
            pm.bundle
        );
        assert!(pm.bundle.contains("\"verdict\":\"pass\""), "{}", pm.bundle);
        assert_eq!(pm.file, "g1.attempt0.quarantine.jsonl");
    }

    #[test]
    fn deaths_without_a_flush_get_a_valid_empty_ring() {
        let slo = SloSpec::empty();
        let mut report = death(None, &slo);
        report.checkpoint = None;
        report.reason = "quarantine";
        let pm = build(&report);
        let summary = check_postmortem(&pm.bundle).expect("empty-ring bundle validates");
        assert_eq!(summary.rounds, 0);
        assert_eq!(summary.ring.summary.events, 0);
        assert!(pm.bundle.contains("\"present\":false"));
        assert!(pm.bundle.contains("\"id\":null"));
    }

    #[test]
    fn checkpoint_id_is_blind_to_host_time_and_sees_every_deterministic_byte() {
        use heron_core::generate::{SpaceGenerator, SpaceOptions};
        use heron_core::tuner::{TuneConfig, Tuner};
        use heron_dla::{v100, Measurer};
        // Two runs of one session, checkpointed at the same round
        // boundary; the second's host times forced apart from the first's.
        let checkpoint = || {
            let space = SpaceGenerator::new(v100())
                .generate(&heron_tensor::ops::gemm(64, 64, 64), &SpaceOptions::heron())
                .expect("generates");
            let mut tuner = Tuner::new(space, Measurer::new(v100()), TuneConfig::quick(16), 7);
            tuner.run_until(8);
            tuner.checkpoint()
        };
        let a = checkpoint().to_text();
        let mut b = checkpoint();
        b.result.timing.cga_s += 1.0;
        b.result.timing.sim_s += 2.0;
        b.result.timing.model_s += 3.0;
        let b = b.to_text();
        let (lines_a, lines_b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
        let det = lines_a.len() - 4;
        assert_eq!(lines_a.len(), lines_b.len());
        assert_eq!(lines_a[..det], lines_b[..det], "same deterministic section");
        let tails = lines_a[det..].iter().zip(&lines_b[det..]);
        assert!(
            tails.clone().all(|(x, y)| x != y),
            "three host lines and the footer"
        );
        let slo = SloSpec::empty();
        let id_in = |text: &str| {
            let mut report = death(None, &slo);
            report.checkpoint = Some(text);
            let bundle = build(&report).bundle;
            let at = bundle.find("\"id\":\"").expect("an id") + 6;
            bundle[at..at + 8].to_string()
        };
        assert_eq!(id_in(&a), id_in(&b));
        assert_eq!(id_in(&a), format!("{:08x}", content_id(&a)));
        // Changing one byte anywhere in the deterministic section (every
        // line, at its last byte) changes the id.
        let mut end = 0;
        for line in &lines_a[..det] {
            end += line.len() + 1;
            let mut bytes = a.clone().into_bytes();
            bytes[end - 2] ^= 0x01;
            let changed = String::from_utf8(bytes).expect("ASCII stays ASCII");
            assert_ne!(id_in(&changed), id_in(&a), "line `{line}`");
        }
    }

    #[test]
    fn damaged_bundles_are_rejected_with_named_errors() {
        let slo = SloSpec::empty();
        let flight = flight_with_ring(1);
        let pm = build(&death(Some(&flight), &slo));
        let wrong = pm.bundle.replace(POSTMORTEM_SCHEMA, "heron-postmortem-v0");
        assert!(check_postmortem(&wrong)
            .unwrap_err()
            .contains(POSTMORTEM_SCHEMA));
        let headless = pm.bundle.replace("\"reason\":\"crash\",", "");
        assert!(check_postmortem(&headless).unwrap_err().contains("reason"));
        assert!(check_postmortem("").unwrap_err().contains("header"));
    }
}
