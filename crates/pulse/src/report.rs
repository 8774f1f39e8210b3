//! Human-readable renderings of a pulse document: the SLO report and
//! the `heron_status` ops dashboard. Both are pure functions of the
//! document, so they are byte-stable whenever `pulse.json` is.

use heron_trace::Json;

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn int(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("-")
}

/// `{:.3}` for numbers, `-` for null/absent.
fn cell(v: Option<&Json>) -> String {
    match v.and_then(Json::as_f64) {
        Some(n) => format!("{n:.3}"),
        None => "-".to_string(),
    }
}

fn rule_line(rule: &Json) -> String {
    let mut line = format!(
        "{} {} {}",
        text(rule, "metric"),
        text(rule, "op"),
        num(rule, "threshold")
    );
    if let Some(w) = rule.get("warn").and_then(Json::as_f64) {
        line.push_str(&format!(" warn {w}"));
    }
    match rule.get("value").and_then(Json::as_f64) {
        Some(v) => {
            line.push_str(&format!(" (worst {v:.3}"));
            if let Some(job) = rule.get("job").and_then(Json::as_str) {
                line.push_str(&format!(" on {job}"));
            }
            line.push(')');
        }
        None => line.push_str(" (no samples)"),
    }
    line
}

/// Renders the pass/warn/breach SLO report for a pulse document.
pub fn render_slo_report(doc: &Json) -> String {
    let slo = doc.get("slo").cloned().unwrap_or(Json::Obj(Vec::new()));
    let rules = slo.get("rules").and_then(Json::as_arr).unwrap_or(&[]);
    let (pass, warn, breach) = (int(&slo, "pass"), int(&slo, "warn"), int(&slo, "breach"));
    let mut out = String::from("# heron-pulse SLO report\n");
    out.push_str(&format!(
        "rules={} pass={pass} warn={warn} breach={breach}\n",
        rules.len()
    ));
    for rule in rules {
        let verdict = match text(rule, "verdict") {
            "breach" => "BREACH",
            "warn" => "WARN  ",
            _ => "PASS  ",
        };
        out.push_str(&format!("{verdict} {}\n", rule_line(rule)));
    }
    let verdict = if breach > 0 {
        "BREACH"
    } else if warn > 0 {
        "WARN"
    } else {
        "PASS"
    };
    out.push_str(&format!("verdict: {verdict}\n"));
    out
}

/// Jobs named as the worst sample of a breached rule.
fn breached_jobs(doc: &Json) -> Vec<&str> {
    let mut jobs = Vec::new();
    if let Some(rules) = doc
        .get("slo")
        .and_then(|s| s.get("rules"))
        .and_then(Json::as_arr)
    {
        for rule in rules {
            if rule.get("verdict").and_then(Json::as_str) == Some("breach") {
                if let Some(job) = rule.get("job").and_then(Json::as_str) {
                    if !jobs.contains(&job) {
                        jobs.push(job);
                    }
                }
            }
        }
    }
    jobs
}

/// Renders the deterministic ops dashboard for a pulse document,
/// listing up to `top` hottest spans per job.
pub fn render_dashboard(doc: &Json, top: usize) -> String {
    let empty = Vec::new();
    let service = doc.get("service").cloned().unwrap_or(Json::Obj(Vec::new()));
    let jobs = doc.get("jobs").and_then(Json::as_arr).unwrap_or(&empty);
    let breached = breached_jobs(doc);

    let mut out = String::from("# heron-serve status — heron-pulse-v1\n");
    out.push_str(&format!(
        "service: jobs={} completed={} preempted={} quarantined={} queued={} rejected={} \
         reject_rate={:.3} workers={} warnings={}\n",
        int(&service, "jobs"),
        int(&service, "completed"),
        int(&service, "preempted"),
        int(&service, "quarantined"),
        int(&service, "queued"),
        int(&service, "rejected"),
        num(&service, "reject_rate"),
        int(&service, "workers"),
        int(&service, "warnings"),
    ));
    if let Some(slo) = doc.get("slo") {
        out.push_str(&format!(
            "slo: pass={} warn={} breach={}\n",
            int(slo, "pass"),
            int(slo, "warn"),
            int(slo, "breach")
        ));
    }
    out.push('\n');

    // Per-job table. Column widths are fixed except the id column.
    let id_w = jobs
        .iter()
        .map(|j| text(j, "id").len())
        .chain(std::iter::once(2))
        .max()
        .unwrap_or(2);
    out.push_str(&format!(
        "{:<id_w$}  {:<12} {:>3} {:>3} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}  flags\n",
        "id",
        "state",
        "att",
        "rec",
        "rounds",
        "trials",
        "wait_s",
        "recov_s",
        "make_s",
        "ttfc_s",
        "sol/kp",
        "rank",
    ));
    for job in jobs {
        let id = text(job, "id");
        let slis = job.get("slis");
        let warnings = job.get("warnings").and_then(Json::as_arr).unwrap_or(&[]);
        let mut flags = String::new();
        if !warnings.is_empty() {
            flags.push('W');
        }
        if breached.contains(&id) {
            flags.push('!');
        }
        if flags.is_empty() {
            flags.push('-');
        }
        out.push_str(&format!(
            "{:<id_w$}  {:<12} {:>3} {:>3} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6}  {}\n",
            id,
            text(job, "state"),
            int(job, "attempts"),
            int(job, "recoveries"),
            int(job, "rounds"),
            int(job, "trials"),
            cell(slis.and_then(|s| s.get("queue_wait_s"))),
            cell(slis.and_then(|s| s.get("recovery_max_s"))),
            cell(slis.and_then(|s| s.get("makespan_s"))),
            cell(slis.and_then(|s| s.get("ttfc_s"))),
            cell(slis.and_then(|s| s.get("sol_per_kprop"))),
            cell(slis.and_then(|s| s.get("rank_accuracy_final"))),
            flags,
        ));
    }

    out.push_str(&format!("\nhot spans (top {top} per job)\n"));
    for job in jobs {
        let hot = job.get("hot_spans").and_then(Json::as_arr).unwrap_or(&[]);
        if hot.is_empty() {
            continue;
        }
        let rendered: Vec<String> = hot
            .iter()
            .take(top)
            .map(|s| {
                format!(
                    "{} {}x {:.3}s",
                    text(s, "name"),
                    int(s, "count"),
                    num(s, "total_s")
                )
            })
            .collect();
        out.push_str(&format!("  {}: {}\n", text(job, "id"), rendered.join("; ")));
    }

    let warn_lines: Vec<String> = jobs
        .iter()
        .flat_map(|job| {
            job.get("warnings")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
                .map(|w| format!("  {}: {w}\n", text(job, "id")))
                .collect::<Vec<_>>()
        })
        .collect();
    if !warn_lines.is_empty() {
        out.push_str("\nwarnings\n");
        for line in warn_lines {
            out.push_str(&line);
        }
    }

    if let Some(rules) = doc
        .get("slo")
        .and_then(|s| s.get("rules"))
        .and_then(Json::as_arr)
    {
        let breaches: Vec<&Json> = rules
            .iter()
            .filter(|r| r.get("verdict").and_then(Json::as_str) == Some("breach"))
            .collect();
        if !breaches.is_empty() {
            out.push_str("\nbreaches\n");
            for rule in breaches {
                out.push_str(&format!("  {}\n", rule_line(rule)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{JobInput, PulseConfig, ServiceInput};
    use crate::sli::build_pulse;
    use crate::slo::SloSpec;

    fn doc() -> Json {
        let job = |id: &str, recoveries: u32, warnings: Vec<String>| JobInput {
            id: id.to_string(),
            state: "completed".to_string(),
            attempts: recoveries + 1,
            recoveries,
            rounds: 5,
            trials: 20,
            termination: Some("trials-exhausted".to_string()),
            warnings,
            digest: Default::default(),
            wall_ns: 2_000_000_000,
            postmortems: 0,
        };
        let input = ServiceInput {
            config: PulseConfig {
                backoff_base_s: 1.0,
                checkpoint_every: 2,
                workers: 2,
            },
            jobs: vec![
                job("g1", 0, Vec::new()),
                job(
                    "g2",
                    2,
                    vec!["pulse.warn.heartbeat_stall attempt=1".to_string()],
                ),
            ],
            rejected: Vec::new(),
        };
        let spec = SloSpec::parse("queue_wait_s <= 1\nreject_rate <= 0.5\n").unwrap();
        build_pulse(&input, &spec)
    }

    #[test]
    fn slo_report_names_verdicts_and_worst_jobs() {
        let report = render_slo_report(&doc());
        assert!(report.starts_with("# heron-pulse SLO report\n"));
        assert!(report.contains("rules=2 pass=1 warn=0 breach=1\n"));
        assert!(report.contains("BREACH queue_wait_s <= 1 (worst 3.000 on g2)\n"));
        assert!(report.contains("PASS   reject_rate <= 0.5 (worst 0.000)\n"));
        assert!(report.ends_with("verdict: BREACH\n"));
    }

    #[test]
    fn dashboard_flags_warned_and_breached_jobs() {
        let dash = render_dashboard(&doc(), 3);
        assert!(dash.starts_with("# heron-serve status — heron-pulse-v1\n"));
        assert!(dash.contains("slo: pass=1 warn=0 breach=1\n"));
        let g1 = dash.lines().find(|l| l.starts_with("g1")).unwrap();
        let g2 = dash.lines().find(|l| l.starts_with("g2")).unwrap();
        assert!(g1.ends_with("  -"), "{g1}");
        assert!(g2.ends_with("  W!"), "{g2}");
        assert!(dash.contains("\nwarnings\n  g2: pulse.warn.heartbeat_stall attempt=1\n"));
        assert!(dash.contains("\nbreaches\n  queue_wait_s <= 1 (worst 3.000 on g2)\n"));
        // Byte-stable across renders.
        assert_eq!(dash, render_dashboard(&doc(), 3));
    }
}
