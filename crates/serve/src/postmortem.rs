//! Crash postmortem bundles: the autopsy document the supervisor writes
//! when a job crashes, hangs, or is quarantined (DESIGN.md §12).
//!
//! A bundle is schema-versioned JSONL: one `heron-postmortem-v1` header
//! line carrying the job's state at death — attempt, epoch, rounds,
//! simulated clock, checkpoint presence (and content hash), restart
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

use heron_pulse::{attach_slo, backoff_last_s, backoff_wait_s, check_slo_rule, SloSpec};
use heron_trace::{check_ring_snapshot, Cursor, Json, RingSummary};

use crate::recorder::FlightEntry;

/// The schema identifier stamped into every bundle header.
pub const POSTMORTEM_SCHEMA: &str = "heron-postmortem-v1";

/// FNV-1a over the checkpoint text: the bundle's stable checkpoint id.
///
/// Checkpoint text carries `timing.*` lines measured with real
/// wall-clocks (and a `crc32` footer covering them), so hashing the raw
/// bytes would make same-seed runs disagree. The id therefore hashes
/// only the deterministic lines.
fn fnv64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in text.lines() {
        if line.starts_with("timing.") || line.starts_with("crc32 = ") {
            continue;
        }
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

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
    let slis = Json::Obj(vec![
        (
            "queue_wait_s".to_string(),
            Json::Num(backoff_wait_s(report.backoff_base_s, report.recoveries)),
        ),
        (
            "recovery_max_s".to_string(),
            Json::Num(backoff_last_s(report.backoff_base_s, report.recoveries)),
        ),
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
        Some(f) if !f.ring_jsonl.is_empty() => (f.rounds, f.sim_ns, f.ring_jsonl.clone()),
        Some(f) => (f.rounds, f.sim_ns, empty_ring()),
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
                .map_or(Json::Null, |t| Json::Str(format!("{:016x}", fnv64(t)))),
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
        t.set_ring(8, false);
        for _ in 0..rounds {
            let _s = t.span("tuner.step");
            t.advance_s(0.5);
        }
        FlightEntry {
            attempt: 0,
            epoch: 1,
            rounds,
            sim_ns: t.now_ns(),
            ring_jsonl: t.ring_snapshot_jsonl(),
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
        assert!(a.bundle.contains(&format!("{:016x}", fnv64("ckpt-text"))));
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
    fn checkpoint_id_ignores_wall_clock_timing_lines() {
        let a = "seed = 7\ntiming.sim_s = 3ff0000000000000\ncrc32 = 11111111\n";
        let b = "seed = 7\ntiming.sim_s = 4000000000000000\ncrc32 = 22222222\n";
        let c = "seed = 8\ntiming.sim_s = 3ff0000000000000\ncrc32 = 11111111\n";
        assert_eq!(fnv64(a), fnv64(b), "timing/crc lines must not matter");
        assert_ne!(fnv64(a), fnv64(c), "deterministic lines must matter");
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
